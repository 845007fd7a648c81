//! Failure injection across the workspace: corrupted wire data, mismatched
//! configurations, and contract violations must fail loudly and precisely —
//! never corrupt state or silently return wrong answers.

use ecm::{Backend, EcmEh, EcmRw, EcmSketch, SketchSpec, SketchWriter};
use sliding_window::traits::WindowCounter;
use sliding_window::{
    merge_randomized_waves, CodecError, DwConfig, EhConfig, ExponentialHistogram, MergeError,
    RandomizedWave, RwConfig,
};

fn sample_sketch(seed: u64) -> (ecm::EcmConfig<ExponentialHistogram>, EcmEh) {
    let cfg = SketchSpec::time(10_000)
        .epsilon(0.2)
        .seed(seed)
        .ecm_config()
        .unwrap();
    let mut sk = EcmEh::new(&cfg);
    for t in 1..=500u64 {
        sk.insert(t, t % 20);
    }
    (cfg, sk)
}

#[test]
fn truncated_sketch_bytes_are_rejected_or_visibly_different() {
    let (cfg, sk) = sample_sketch(1);
    let mut buf = Vec::new();
    sk.encode(&mut buf);
    // Every strict prefix either fails to decode or decodes to something
    // that re-encodes differently (prefixes can be valid smaller values).
    for cut in (0..buf.len()).step_by(7) {
        let mut slice = &buf[..cut];
        if let Ok(partial) = EcmEh::decode(&cfg, &mut slice) {
            let mut re = Vec::new();
            partial.encode(&mut re);
            assert_ne!(re, buf, "cut {cut} produced an identical sketch");
        }
    }
}

#[test]
fn bitflipped_header_fails_with_precise_errors() {
    let (cfg, sk) = sample_sketch(2);
    let mut buf = Vec::new();
    sk.encode(&mut buf);
    // Version byte.
    let mut bad = buf.clone();
    bad[0] = 0xee;
    let mut slice = bad.as_slice();
    assert!(matches!(
        EcmEh::decode(&cfg, &mut slice),
        Err(CodecError::BadVersion { found: 0xee })
    ));
    // Shape field.
    let mut bad = buf.clone();
    bad[1] = bad[1].wrapping_add(1);
    let mut slice = bad.as_slice();
    assert!(EcmEh::decode(&cfg, &mut slice).is_err());
}

#[test]
fn decoding_with_the_wrong_config_is_rejected() {
    let (_, sk) = sample_sketch(3);
    let mut buf = Vec::new();
    sk.encode(&mut buf);
    // Same shape, different seed: the hash family disagrees.
    let other = SketchSpec::time(10_000)
        .epsilon(0.2)
        .seed(999)
        .ecm_config()
        .unwrap();
    let mut slice = buf.as_slice();
    assert!(matches!(
        EcmEh::decode(&other, &mut slice),
        Err(CodecError::Corrupt { .. })
    ));
}

#[test]
fn merge_rejects_every_kind_of_mismatch() {
    let a = EcmEh::new(
        &SketchSpec::time(1_000)
            .epsilon(0.2)
            .seed(1)
            .ecm_config()
            .unwrap(),
    );
    let cfg_b = SketchSpec::time(1_000)
        .epsilon(0.2)
        .seed(2)
        .ecm_config()
        .unwrap();
    let b = EcmEh::new(&cfg_b);
    // Different hash seeds.
    assert!(matches!(
        EcmSketch::merge(&[&a, &b], &cfg_b.cell),
        Err(MergeError::IncompatibleConfig { .. })
    ));
    // Different shapes.
    let cfg_c = SketchSpec::time(1_000)
        .epsilon(0.4)
        .seed(1)
        .ecm_config()
        .unwrap();
    let c = EcmEh::new(&cfg_c);
    assert!(matches!(
        EcmSketch::merge(&[&a, &c], &cfg_c.cell),
        Err(MergeError::IncompatibleConfig { .. })
    ));
    // Different window lengths surface from the cell merge.
    let cfg_d = SketchSpec::time(2_000)
        .epsilon(0.2)
        .seed(1)
        .ecm_config::<ExponentialHistogram>()
        .unwrap();
    assert!(EcmSketch::merge(&[&a, &a], &cfg_d.cell).is_err());
}

#[test]
fn rw_merge_guards_randomization_compatibility() {
    // Same ε/δ/window but different seeds: silent merging would break the
    // sampling invariants, so it must be refused.
    let c1 = RwConfig::new(0.2, 0.1, 1_000, 5_000, 1);
    let c2 = RwConfig::new(0.2, 0.1, 1_000, 5_000, 2);
    let w1 = RandomizedWave::new(&c1);
    assert!(matches!(
        merge_randomized_waves(&[&w1], &c2),
        Err(MergeError::IncompatibleConfig { .. })
    ));
    // Whole-sketch level: ECM-RW built from different builder seeds.
    let cfg1 = SketchSpec::time(1_000)
        .epsilon(0.2)
        .seed(1)
        .backend(Backend::Rw)
        .ecm_config()
        .unwrap();
    let cfg2 = SketchSpec::time(1_000)
        .epsilon(0.2)
        .seed(2)
        .backend(Backend::Rw)
        .ecm_config()
        .unwrap();
    let s1 = EcmRw::new(&cfg1);
    let s2 = EcmRw::new(&cfg2);
    assert!(EcmSketch::merge(&[&s1, &s2], &cfg1.cell).is_err());
}

#[test]
fn garbage_bytes_never_panic_the_decoders() {
    // Fuzz-lite: deterministic pseudo-random byte soup must produce errors,
    // not panics.
    let cfg_eh = EhConfig::new(0.2, 1_000);
    let cfg_dw = DwConfig::new(0.2, 1_000, 5_000);
    let cfg_rw = RwConfig::new(0.2, 0.1, 1_000, 5_000, 3);
    let mut state = 0x12345678u64;
    for round in 0..200 {
        let len = (round * 7) % 64;
        let bytes: Vec<u8> = (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as u8
            })
            .collect();
        let mut s: &[u8] = &bytes;
        let _ = ExponentialHistogram::decode(&cfg_eh, &mut s);
        let mut s: &[u8] = &bytes;
        let _ = sliding_window::DeterministicWave::decode(&cfg_dw, &mut s);
        let mut s: &[u8] = &bytes;
        let _ = RandomizedWave::decode(&cfg_rw, &mut s);
    }
}

#[test]
fn monotonicity_contract_is_enforced_in_debug() {
    // Out-of-order timestamps violate the documented contract; debug builds
    // must catch them.
    let result = std::panic::catch_unwind(|| {
        let mut eh = ExponentialHistogram::new(&EhConfig::new(0.2, 100));
        eh.insert_one(10);
        eh.insert_one(5);
    });
    if cfg!(debug_assertions) {
        assert!(result.is_err(), "debug builds must reject time travel");
    }
}

mod site_recovery {
    //! Kill → restore → re-aggregate: a site that crashes mid-stream,
    //! recovers from its checkpoint and replays its backlog must rejoin
    //! the aggregation tree as if nothing happened — bit for bit.

    use distributed::{aggregate_tree, resume_site};
    use ecm::snapshot::{restore_sketch, snapshot_sketch, SnapshotError};
    use ecm::{Query, SketchReader, SketchSpec, WindowSpec};
    use sliding_window::{ExponentialHistogram, RandomizedWave};
    use stream_gen::{partition_by_site, uniform_sites, Event};

    const WINDOW: u64 = 2_600_000;

    fn point(r: &dyn SketchReader, key: u64, now: u64) -> f64 {
        r.query(&Query::point(key), WindowSpec::time(now, WINDOW))
            .expect("in-window point query")
            .into_value()
            .value
    }

    #[test]
    fn killed_site_rejoins_the_tree_bit_identically() {
        let n_sites = 8u32;
        let events = uniform_sites(16_000, n_sites, 21);
        let parts = partition_by_site(&events, n_sites);
        let spec = SketchSpec::time(WINDOW).epsilon(0.15).delta(0.1).seed(5);

        // Every site ingests; site 3 checkpoints at 60% of its stream,
        // then "crashes" and loses its in-memory sketch.
        let crash_at = parts[3].len() * 6 / 10;
        let doomed = distributed::site_sketch_from_spec::<ExponentialHistogram>(
            &spec,
            4,
            &parts[3][..crash_at],
        )
        .unwrap();
        let checkpoint = snapshot_sketch(&spec, &doomed).unwrap();
        drop(doomed);

        // Recovery: restore + replay the backlog.
        let recovered =
            resume_site::<ExponentialHistogram>(&spec, &checkpoint, &parts[3][crash_at..]).unwrap();

        // The recovered site is byte-identical to one that never crashed...
        let pristine =
            distributed::site_sketch_from_spec::<ExponentialHistogram>(&spec, 4, &parts[3])
                .unwrap();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        recovered.encode(&mut a);
        pristine.encode(&mut b);
        assert_eq!(a, b, "recovered site must be bit-identical");

        // ...so the aggregation roots (and their transfer accounting) agree
        // exactly too: the crash is invisible to the coordinator.
        let cfg = spec.ecm_config::<ExponentialHistogram>().unwrap();
        let leaf_with_recovery = |i: usize| {
            if i == 3 {
                recovered.clone()
            } else {
                distributed::site_sketch_from_spec::<ExponentialHistogram>(
                    &spec,
                    i as u64 + 1,
                    &parts[i],
                )
                .unwrap()
            }
        };
        let leaf_pristine = |i: usize| {
            distributed::site_sketch_from_spec::<ExponentialHistogram>(
                &spec,
                i as u64 + 1,
                &parts[i],
            )
            .unwrap()
        };
        let with_recovery =
            aggregate_tree(n_sites as usize, leaf_with_recovery, &cfg.cell).unwrap();
        let without = aggregate_tree(n_sites as usize, leaf_pristine, &cfg.cell).unwrap();
        assert_eq!(with_recovery.stats, without.stats);
        let now = events.last().unwrap().ts;
        for key in (0..1_000u64).step_by(29) {
            assert_eq!(
                point(&with_recovery.root, key, now),
                point(&without.root, key, now),
                "key {key}"
            );
        }
    }

    #[test]
    fn randomized_wave_recovery_preserves_lossless_composition() {
        // The strongest id-sensitivity test: RW merges are lossless only
        // because arrival ids are globally unique and stable. A restored
        // site must resume its id sequence exactly, or composition breaks.
        let n_sites = 4u32;
        let events = uniform_sites(4_000, n_sites, 17);
        let parts = partition_by_site(&events, n_sites);
        let spec = SketchSpec::time(WINDOW)
            .epsilon(0.3)
            .delta(0.2)
            .backend(ecm::Backend::Rw)
            .max_arrivals(10_000)
            .seed(2);
        let cfg = spec.ecm_config::<RandomizedWave>().unwrap();

        let leaf = |i: usize| {
            let crash_at = parts[i].len() / 2;
            let first_half = distributed::site_sketch_from_spec::<RandomizedWave>(
                &spec,
                i as u64 + 1,
                &parts[i][..crash_at],
            )
            .unwrap();
            // Crash every site and recover it.
            let checkpoint = snapshot_sketch(&spec, &first_half).unwrap();
            resume_site::<RandomizedWave>(&spec, &checkpoint, &parts[i][crash_at..]).unwrap()
        };
        let pristine_leaf = |i: usize| {
            distributed::site_sketch_from_spec::<RandomizedWave>(&spec, i as u64 + 1, &parts[i])
                .unwrap()
        };
        let recovered = aggregate_tree(n_sites as usize, leaf, &cfg.cell).unwrap();
        let pristine = aggregate_tree(n_sites as usize, pristine_leaf, &cfg.cell).unwrap();
        let now = events.last().unwrap().ts;
        for key in [0u64, 3, 42, 500, 999] {
            assert_eq!(
                point(&recovered.root, key, now),
                point(&pristine.root, key, now),
                "key {key}"
            );
        }
    }

    #[test]
    fn corrupted_checkpoints_fail_recovery_loudly() {
        let spec = SketchSpec::time(WINDOW).epsilon(0.2).delta(0.1).seed(9);
        let events: Vec<Event> = (1..=500u64)
            .map(|t| Event {
                ts: t,
                key: t % 20,
                site: 0,
            })
            .collect();
        let site =
            distributed::site_sketch_from_spec::<ExponentialHistogram>(&spec, 1, &events).unwrap();
        let checkpoint = snapshot_sketch(&spec, &site).unwrap();

        // Truncation, bit rot, version bumps: typed errors, never panics,
        // never a silently-wrong site.
        for cut in (0..checkpoint.len()).step_by(23) {
            assert!(restore_sketch::<ExponentialHistogram>(&spec, &checkpoint[..cut]).is_err());
        }
        let mut bad = checkpoint.clone();
        bad[2] = 0x7e;
        assert!(matches!(
            restore_sketch::<ExponentialHistogram>(&spec, &bad),
            Err(SnapshotError::UnsupportedVersion { found: 0x7e })
        ));
        let mut bad = checkpoint.clone();
        let mid = bad.len() - 12;
        bad[mid] ^= 0x01;
        assert!(restore_sketch::<ExponentialHistogram>(&spec, &bad).is_err());

        // A checkpoint restored against the wrong deployment spec is a
        // spec mismatch, not a subtly different sketch.
        let other = SketchSpec::time(WINDOW).epsilon(0.2).delta(0.1).seed(10);
        assert!(matches!(
            restore_sketch::<ExponentialHistogram>(&other, &checkpoint),
            Err(SnapshotError::SpecMismatch { .. })
        ));
    }
}

#[test]
fn empty_merges_and_zero_budgets_fail_cleanly() {
    let cfg = SketchSpec::time(1_000)
        .epsilon(0.2)
        .seed(9)
        .ecm_config::<ExponentialHistogram>()
        .unwrap();
    let empty: [&EcmEh; 0] = [];
    assert!(matches!(
        EcmSketch::merge(&empty, &cfg.cell),
        Err(MergeError::Empty)
    ));
    // Out-of-domain accuracy targets are typed errors, not panics.
    assert!(SketchSpec::time(10)
        .epsilon(0.0)
        .ecm_config::<ExponentialHistogram>()
        .is_err());
    assert!(SketchSpec::time(10)
        .delta(1.0)
        .ecm_config::<ExponentialHistogram>()
        .is_err());
    assert!(SketchSpec::time(0)
        .ecm_config::<ExponentialHistogram>()
        .is_err());
}
