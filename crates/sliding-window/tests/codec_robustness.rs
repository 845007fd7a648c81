//! Codec robustness: every synopsis round-trips its own encoding, and
//! **no** truncation or byte corruption of a valid encoding may panic,
//! loop, or allocate unboundedly — `decode` must return, with `CodecError`
//! on anything malformed. The LEB128 reader's overflow guards
//! (`codec::get_varint`) are what the mutated inputs ultimately land on.
//!
//! A truncated or mutated buffer *may* decode successfully when the damage
//! produces another well-formed encoding (delta codes make some prefixes
//! self-similar); in that case the decoded value must still be usable:
//! re-encoding and querying must not panic either.

use proptest::test_runner::TestRng;
use sliding_window::traits::WindowCounter;
use sliding_window::{
    DeterministicWave, DwConfig, EhConfig, ExactWindow, ExactWindowConfig, ExponentialHistogram,
    RandomizedWave, RwConfig,
};

/// Drive one counter type through build → encode → fuzz.
fn fuzz_window_counter<W: WindowCounter>(cfg: &W::Config, label: &str, rng: &mut TestRng) {
    // A bursty, gappy trace: ties, runs, and window-spanning jumps.
    let mut w = W::new(cfg);
    let mut ts = 1u64;
    let mut id = 1u64;
    for _ in 0..400 {
        ts += rng.bounded(50);
        let burst = 1 + rng.bounded(12);
        w.insert_weighted(ts, id, burst);
        id += burst;
    }
    let mut buf = Vec::new();
    w.encode(&mut buf);

    // Round trip must be exact.
    let mut slice = buf.as_slice();
    let back = W::decode(cfg, &mut slice).unwrap_or_else(|e| panic!("{label}: {e:?}"));
    assert!(slice.is_empty(), "{label}: trailing bytes after decode");
    let mut re = Vec::new();
    back.encode(&mut re);
    assert_eq!(re, buf, "{label}: round trip must be byte-identical");

    // Every truncation: must return (Ok or CodecError), never panic.
    for cut in 0..buf.len() {
        let mut s = &buf[..cut];
        if let Ok(partial) = W::decode(cfg, &mut s) {
            // A shorter well-formed structure is acceptable; it must be
            // fully usable.
            let _ = partial.query(ts, 10);
            let mut scratch = Vec::new();
            partial.encode(&mut scratch);
        }
    }

    // Random byte corruptions, single and clustered.
    for _ in 0..300 {
        let mut bad = buf.clone();
        let flips = 1 + rng.bounded(4) as usize;
        for _ in 0..flips {
            let pos = rng.bounded(bad.len() as u64) as usize;
            bad[pos] = rng.next_u64() as u8;
        }
        let mut s = bad.as_slice();
        if let Ok(mutant) = W::decode(cfg, &mut s) {
            let _ = mutant.query(ts, 10);
            let _ = mutant.memory_bytes();
        }
    }

    // Pure garbage of assorted lengths.
    for _ in 0..100 {
        let len = rng.bounded(96) as usize;
        let junk: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let mut s = junk.as_slice();
        let _ = W::decode(cfg, &mut s);
    }
}

#[test]
fn exponential_histogram_codec_survives_fuzz() {
    let mut rng = TestRng::for_test("codec_robustness::eh", 1);
    fuzz_window_counter::<ExponentialHistogram>(&EhConfig::new(0.1, 5_000), "eh", &mut rng);
}

#[test]
fn deterministic_wave_codec_survives_fuzz() {
    let mut rng = TestRng::for_test("codec_robustness::dw", 2);
    fuzz_window_counter::<DeterministicWave>(&DwConfig::new(0.1, 5_000, 20_000), "dw", &mut rng);
}

#[test]
fn randomized_wave_codec_survives_fuzz() {
    let mut rng = TestRng::for_test("codec_robustness::rw", 3);
    fuzz_window_counter::<RandomizedWave>(
        &RwConfig::new(0.3, 0.2, 5_000, 20_000, 7),
        "rw",
        &mut rng,
    );
}

#[test]
fn exact_window_codec_survives_fuzz() {
    let mut rng = TestRng::for_test("codec_robustness::exact", 4);
    fuzz_window_counter::<ExactWindow>(&ExactWindowConfig::new(5_000), "exact", &mut rng);
}

/// The varint reader itself: arbitrary byte soup must terminate with a
/// value or a typed error — the overflow guard is the backstop every
/// synopsis decoder leans on.
#[test]
fn varint_reader_survives_arbitrary_bytes() {
    use sliding_window::codec::get_varint;
    let mut rng = TestRng::for_test("codec_robustness::varint", 7);
    for _ in 0..2_000 {
        let len = rng.bounded(24) as usize;
        let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let mut s = bytes.as_slice();
        // Drain the whole buffer through the reader.
        while !s.is_empty() && get_varint(&mut s, "fuzz").is_ok() {}
    }
}
