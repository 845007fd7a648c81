//! Checkpoint/restart walkthrough: a multi-tenant monitoring process
//! checkpoints its whole sketch fleet to disk, crashes, restarts from the
//! latest checkpoint, and keeps serving — with every answer bit-identical
//! to an uninterrupted run.
//!
//! The cycle:
//! 1. ingest → `write_snapshot()` (a full checkpoint, self-describing +
//!    checksummed), periodically, each one replacing the last
//! 2. *crash*
//! 3. `load_snapshot()` → the fleet is whole again, at the checkpoint's
//!    sequence number
//! 4. keep ingesting → the next full checkpoint continues the sequence
//!
//! Every checkpoint is full. What a process acks between two of them is
//! the write-ahead log's job (`ecm::wal`; `sketchd` replays it on top of
//! the checkpoint), not a second, incremental checkpoint's.
//!
//! ```bash
//! cargo run --release --example checkpoint_restart
//! ```

use ecm::{Query, SketchSpec, SketchStore, StreamEvent, WindowSpec};
use stream_gen::{SeededRng, ZipfSampler};

const WINDOW: u64 = 3_600; // 1 hour of 1-second ticks
const TENANTS: u64 = 500;

fn traffic(from_tick: u64, to_tick: u64, seed: u64) -> Vec<(u64, StreamEvent)> {
    let mut rng = SeededRng::seed_from_u64(seed);
    let tenants = ZipfSampler::new(TENANTS, 1.1);
    let mut out = Vec::new();
    for t in from_tick..to_tick {
        for _ in 0..rng.gen_range(1..8u64) {
            let tenant = tenants.sample(&mut rng);
            let endpoint = rng.gen_range(0..32u64);
            out.push((tenant, StreamEvent::new(endpoint, t)));
        }
    }
    out
}

/// Land a checkpoint: a temp file renamed over the target, so a crash
/// mid-write leaves the previous checkpoint whole.
fn land(path: &std::path::Path, bytes: &[u8]) {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, bytes).expect("write checkpoint");
    std::fs::rename(&tmp, path).expect("land checkpoint");
}

fn main() {
    let spec = SketchSpec::time(WINDOW).epsilon(0.1).delta(0.1).seed(42);
    let path = std::env::temp_dir().join(format!("ecm_fleet_{}.snap", std::process::id()));

    // ── Before the crash ────────────────────────────────────────────────
    let mut live: SketchStore<u64> = SketchStore::new(spec.clone()).expect("valid spec");
    let phases = [traffic(1, 1_800, 7), traffic(1_800, 2_100, 8)];
    for (n, phase) in phases.iter().enumerate() {
        live.ingest(phase);
        let bytes = live.write_snapshot().expect("fleet snapshots");
        land(&path, &bytes);
        println!(
            "checkpoint #{} (full): {:>5} keys, {:>9} bytes -> {}",
            n + 1,
            live.len(),
            bytes.len(),
            path.display()
        );
    }

    // ── Crash ───────────────────────────────────────────────────────────
    drop(live);
    println!("\n*** process killed: in-memory fleet lost ***\n");

    // ── Restart ─────────────────────────────────────────────────────────
    let bytes = std::fs::read(&path).expect("read checkpoint");
    let mut restored = SketchStore::<u64>::load_snapshot(&bytes).expect("checkpoint restores");
    assert_eq!(restored.checkpoint_seq(), 2, "the latest checkpoint");
    println!(
        "restored: {} keys at checkpoint seq {}",
        restored.len(),
        restored.checkpoint_seq()
    );

    // The restored fleet answers exactly like an uninterrupted one that
    // checkpointed at the same points.
    let mut uninterrupted: SketchStore<u64> = SketchStore::new(spec).expect("valid spec");
    for phase in &phases {
        uninterrupted.ingest(phase);
        let _ = uninterrupted.write_snapshot().expect("fleet snapshots");
    }
    let w = WindowSpec::time(2_100, WINDOW);
    let mut checked = 0u32;
    for tenant in restored.keys() {
        let a = restored
            .query(&tenant, &Query::total_arrivals(), w)
            .expect("resident")
            .expect("in-window")
            .into_value()
            .value;
        let b = uninterrupted
            .query(&tenant, &Query::total_arrivals(), w)
            .expect("resident")
            .expect("in-window")
            .into_value()
            .value;
        assert_eq!(a.to_bits(), b.to_bits(), "tenant {tenant} diverged");
        checked += 1;
    }
    assert_eq!(
        checked as usize,
        uninterrupted.len(),
        "every tenant restored"
    );
    println!("verified {checked} tenants bit-identical to an uninterrupted run");

    // ...and keeps ingesting: the next full checkpoint continues the
    // sequence, and is the uninterrupted run's byte for byte.
    let phase3 = traffic(2_100, 2_400, 9);
    restored.ingest(&phase3);
    uninterrupted.ingest(&phase3);
    let next = restored.write_snapshot().expect("fleet snapshots");
    assert!(next == uninterrupted.write_snapshot().expect("fleet snapshots"));
    assert_eq!(restored.checkpoint_seq(), 3);
    land(&path, &next);
    println!(
        "life goes on: the next full checkpoint is {} bytes at seq {}",
        next.len(),
        restored.checkpoint_seq()
    );

    let _ = std::fs::remove_file(path);
}
