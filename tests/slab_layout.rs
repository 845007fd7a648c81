//! Differential proof of the slab-backed EH grid: an
//! `EcmSketch<ExponentialHistogram>` — whose cells live in the contiguous
//! `EhGrid` slab — must be indistinguishable from the per-cell layout it
//! replaced. A *legacy replica* (one standalone `ExponentialHistogram` per
//! cell, routed through the same `HashFamily`, exactly how `EcmSketch`
//! stored its cells before the slab) is fed the identical trace, and the
//! suite checks, across random bursty workloads:
//!
//! * every cell's estimate is **bit-identical** (`f64::to_bits`) for a
//!   spread of query ranges;
//! * the sketch's wire encoding is **byte-identical** to one assembled from
//!   the legacy per-cell encoders — the codec did not change;
//! * legacy-assembled wire bytes **decode into the slab layout** and
//!   round-trip (codec cross-compatibility), so sketches serialized before
//!   this change deserialize into slab-backed sketches unchanged.
//!
//! Counter-level differential coverage (cascade, expiry, offset rebasing,
//! u64 fallback) lives with the slab itself in
//! `crates/sliding-window/src/eh_slab.rs`.

use ecm_suite::count_min::HashFamily;
use ecm_suite::ecm::{EcmConfig, EcmSketch, SketchSpec, SketchWriter, StreamEvent};
use ecm_suite::sliding_window::codec::{put_u8, put_varint};
use ecm_suite::sliding_window::traits::WindowCounter;
use ecm_suite::sliding_window::ExponentialHistogram;
use ecm_suite::stream_gen::SeededRng;
use proptest::prelude::*;

/// The ECM wire codec version `EcmSketch::encode` writes (pinned here so a
/// silent bump cannot masquerade as cross-compatibility).
const ECM_CODEC_VERSION: u8 = 1;

/// The per-cell layout `EcmSketch` used before the slab: standalone
/// histograms in a flat row-major `Vec`, plus the scalar bookkeeping the
/// sketch codec carries.
struct LegacyReplica {
    cfg: EcmConfig<ExponentialHistogram>,
    hashes: HashFamily,
    cells: Vec<ExponentialHistogram>,
    seq: u64,
    last_ts: u64,
    lifetime: u64,
}

impl LegacyReplica {
    fn new(cfg: &EcmConfig<ExponentialHistogram>) -> Self {
        LegacyReplica {
            cfg: cfg.clone(),
            hashes: HashFamily::from_seed(cfg.seed, cfg.depth),
            cells: (0..cfg.width * cfg.depth)
                .map(|_| ExponentialHistogram::new(&cfg.cell))
                .collect(),
            seq: 0,
            last_ts: 0,
            lifetime: 0,
        }
    }

    fn insert_weighted(&mut self, item: u64, ts: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.seq += n;
        self.last_ts = self.last_ts.max(ts);
        self.lifetime += n;
        for j in 0..self.cfg.depth {
            let idx = j * self.cfg.width + self.hashes.bucket(j, item, self.cfg.width);
            self.cells[idx].insert_ones(ts, n);
        }
    }

    /// Assemble the sketch wire format from the **legacy per-cell
    /// encoders** — byte-for-byte what a pre-slab `EcmSketch` would ship.
    fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        put_u8(&mut buf, ECM_CODEC_VERSION);
        put_varint(&mut buf, self.cfg.width as u64);
        put_varint(&mut buf, self.cfg.depth as u64);
        self.hashes.encode(&mut buf);
        for cell in &self.cells {
            cell.encode(&mut buf);
        }
        put_varint(&mut buf, 0); // id namespace
        put_varint(&mut buf, self.seq);
        put_varint(&mut buf, self.last_ts);
        put_varint(&mut buf, self.lifetime);
        buf
    }
}

fn encode_sketch(sk: &EcmSketch<ExponentialHistogram>) -> Vec<u8> {
    let mut buf = Vec::new();
    sk.encode(&mut buf);
    buf
}

/// Feed the same random bursty trace to a slab-backed sketch and the
/// legacy replica, then check estimates, encodings and cross-decoding.
fn differential(cfg: &EcmConfig<ExponentialHistogram>, trace: &[(u64, u64, u64)]) {
    let mut slab = EcmSketch::new(cfg);
    let mut legacy = LegacyReplica::new(cfg);
    for &(key, ts, weight) in trace {
        slab.insert_weighted(ts, key, weight);
        legacy.insert_weighted(key, ts, weight);
    }
    let now = trace.last().map(|&(_, ts, _)| ts).unwrap_or(0);
    let window = cfg.cell.window;

    // Identical estimates, cell by cell, bit for bit.
    for row in 0..cfg.depth {
        for col in 0..cfg.width {
            for range in [1, window / 9 + 1, window / 2, window] {
                let s = slab.cell_estimate(row, col, now, range);
                let l = legacy.cells[row * cfg.width + col].estimate(now, range);
                assert_eq!(
                    s.to_bits(),
                    l.to_bits(),
                    "cell ({row},{col}) range {range}: slab {s} vs legacy {l}"
                );
            }
        }
    }

    // Byte-identical encodings.
    let slab_wire = encode_sketch(&slab);
    let legacy_wire = legacy.encode();
    assert_eq!(slab_wire, legacy_wire, "wire formats diverged");

    // Legacy wire bytes decode into the slab layout and round-trip.
    let mut input = legacy_wire.as_slice();
    let decoded = EcmSketch::<ExponentialHistogram>::decode(cfg, &mut input)
        .expect("legacy bytes must decode into the slab layout");
    assert!(input.is_empty(), "decoder must consume exactly its bytes");
    assert_eq!(encode_sketch(&decoded), legacy_wire);
    assert_eq!(
        decoded.cell_estimate(0, 0, now, window).to_bits(),
        slab.cell_estimate(0, 0, now, window).to_bits(),
        "decoded sketch diverged from the directly built one"
    );
}

fn random_trace(rng: &mut SeededRng, steps: usize, window: u64, keys: u64) -> Vec<(u64, u64, u64)> {
    let mut ts = 1u64;
    (0..steps)
        .map(|_| {
            ts += if rng.gen_bool(0.04) {
                window + rng.gen_range(1..window.max(2))
            } else {
                rng.gen_range(0..4u64)
            };
            let weight = if rng.gen_bool(0.4) {
                1
            } else {
                1 + rng.gen_range(0..300u64)
            };
            (rng.gen_range(0..keys), ts, weight)
        })
        .collect()
}

fn small_cfg(eps: f64, window: u64, seed: u64) -> EcmConfig<ExponentialHistogram> {
    SketchSpec::time(window)
        .epsilon(eps)
        .delta(0.2)
        .seed(seed)
        .ecm_config()
        .unwrap()
}

#[test]
fn slab_matches_legacy_on_dense_trace() {
    let cfg = small_cfg(0.2, 5_000, 11);
    let trace: Vec<(u64, u64, u64)> = (1..=20_000u64).map(|t| (t % 37, t, 1)).collect();
    differential(&cfg, &trace);
}

#[test]
fn slab_matches_legacy_on_bursts_and_gaps() {
    let mut rng = SeededRng::seed_from_u64(77);
    let cfg = small_cfg(0.15, 2_000, 3);
    let trace = random_trace(&mut rng, 2_500, 2_000, 29);
    differential(&cfg, &trace);
}

#[test]
fn slab_matches_legacy_at_paper_scale_parameters() {
    // The acceptance configuration: (ε, δ) = (0.1, 0.1), 1M-tick window.
    let cfg = SketchSpec::time(1_000_000).seed(7).ecm_config().unwrap();
    let mut rng = SeededRng::seed_from_u64(5);
    let trace = random_trace(&mut rng, 4_000, 1_000_000, 500);
    differential(&cfg, &trace);
}

#[test]
fn batched_ingest_hits_the_slab_identically() {
    // The event-slice entry point must land in the slab exactly like
    // per-run weighted inserts (and therefore like the legacy layout).
    let cfg = small_cfg(0.2, 1_000, 9);
    let mut rng = SeededRng::seed_from_u64(13);
    let trace = random_trace(&mut rng, 800, 1_000, 17);
    let mut events = Vec::new();
    for &(key, ts, weight) in &trace {
        for _ in 0..weight {
            events.push(StreamEvent::new(key, ts));
        }
    }
    let mut batched = EcmSketch::new(&cfg);
    batched.ingest_batch(&events);
    let mut legacy = LegacyReplica::new(&cfg);
    for &(key, ts, weight) in &trace {
        legacy.insert_weighted(key, ts, weight);
    }
    assert_eq!(encode_sketch(&batched), legacy.encode());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random configurations × random workloads: the slab grid never
    /// diverges from the per-cell layout in estimate or encoding.
    #[test]
    fn prop_slab_is_indistinguishable_from_legacy(
        seed in 0u64..1_000,
        steps in 100usize..900,
        window in 50u64..5_000,
        keys in 2u64..60,
    ) {
        let cfg = small_cfg(0.25, window, seed);
        let mut rng = SeededRng::seed_from_u64(seed ^ 0xe51a8);
        let trace = random_trace(&mut rng, steps, window, keys);
        differential(&cfg, &trace);
    }
}
