//! Stress of the *real* `LeftRight` implementation with racing threads
//! (the interleaving suite checks the protocol exhaustively on a step
//! model; this file runs the shipped SeqCst code under genuine
//! contention), plus the immutability contract of a published
//! [`SketchStore`] clone: a pinned epoch keeps answering from its own
//! publication point while the write copy moves on.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use ecm::publish::{Epoch, LeftRight};
use ecm::{Query, SketchSpec, SketchStore, WindowSpec};

/// Racing pins against a publishing writer: every pinned epoch must be
/// internally consistent (value derived from its clock) and publication
/// sequence numbers must never run backwards within one reader.
#[test]
fn racing_pins_only_ever_see_whole_epochs() {
    // Value is a function of clock; a torn epoch would break the pairing.
    let lr = Arc::new(LeftRight::new(Epoch::initial((0u64, 0u64), 0, 0)));
    let stop = Arc::new(AtomicBool::new(false));
    let started = Arc::new(AtomicUsize::new(0));

    let readers: Vec<_> = (0..3)
        .map(|_| {
            let lr = Arc::clone(&lr);
            let stop = Arc::clone(&stop);
            let started = Arc::clone(&started);
            std::thread::spawn(move || {
                let mut announced = false;
                let mut last_seq = 0u64;
                let mut pins = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let e = lr.pin();
                    if !announced {
                        started.fetch_add(1, Ordering::SeqCst);
                        announced = true;
                    }
                    assert_eq!(
                        e.value,
                        (e.clock, e.clock.wrapping_mul(0x9E37_79B9)),
                        "torn epoch at seq {}",
                        e.seq
                    );
                    assert!(e.seq >= last_seq, "seq ran backwards");
                    last_seq = e.seq;
                    pins += 1;
                }
                pins
            })
        })
        .collect();

    // Publish until every reader has pinned at least once (on a one-core
    // box the publisher can otherwise finish before readers run at all),
    // with a floor so the writer side is genuinely hot.
    let mut clock = 0u64;
    while clock < 20_000 || started.load(Ordering::SeqCst) < 3 {
        clock += 1;
        lr.publish(Epoch {
            value: (clock, clock.wrapping_mul(0x9E37_79B9)),
            seq: 0,
            clock,
            applied: clock,
        });
        if clock % 64 == 0 {
            std::thread::yield_now();
        }
    }
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        assert!(r.join().expect("reader panicked") > 0, "reader starved");
    }
    let last = lr.pin();
    assert_eq!(last.clock, clock, "final pin sees the final publication");
    assert_eq!(lr.seq(), clock);
}

/// Pinned epochs are immutable snapshots: a pin taken before later writes
/// keeps answering from its own publication point, although the published
/// store shares its sketches with the write copy until they are written.
#[test]
fn old_pins_keep_their_snapshot_while_the_writer_moves_on() {
    let spec = SketchSpec::time(1_000).epsilon(0.1).delta(0.1).seed(4);
    let mut store: SketchStore<&'static str> = SketchStore::new(spec).expect("spec");
    let lr = LeftRight::new(Epoch::initial(store.clone(), 0, 0));
    let total = |store: &SketchStore<&'static str>, now: u64| {
        store
            .query(&"k", &Query::total_arrivals(), WindowSpec::time(now, 1_000))
            .expect("resident")
            .expect("total")
            .into_value()
            .value
    };

    for t in 1..=100u64 {
        store.insert("k", t, 7);
    }
    lr.publish(Epoch::initial(store.clone(), 100, 1));
    let frozen = lr.pin();
    let before = total(&frozen.value, 100);

    for t in 101..=200u64 {
        store.insert("k", t, 7);
    }
    lr.publish(Epoch::initial(store.clone(), 200, 2));

    let after = total(&frozen.value, 100);
    assert_eq!(before.to_bits(), after.to_bits(), "old pin mutated");
    assert!(
        total(&lr.pin().value, 200) > before,
        "fresh pin sees the new writes"
    );
}
