//! Criterion microbenchmarks for whole ECM-sketch operations: stream
//! insertion, point queries, self-joins and order-preserving merges.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ecm::{EcmEh, EcmSketch, Query, QueryKind, SketchReader, SketchSpec, SketchWriter, WindowSpec};
use sliding_window::ExponentialHistogram;
use std::hint::black_box;

const N: u64 = 20_000;

fn build(seed: u64, stride: u64, offset: u64) -> EcmEh {
    let cfg = SketchSpec::time(1 << 20).seed(seed).ecm_config().unwrap();
    let mut sk = EcmEh::new(&cfg);
    for i in 1..=N {
        sk.insert(i * stride + offset, (i * 7) % 512);
    }
    sk
}

fn insert_bench(c: &mut Criterion) {
    let cfg = SketchSpec::time(1 << 20).seed(1).ecm_config().unwrap();
    c.bench_function("ecm_eh_insert_20k", |b| {
        b.iter_batched(
            || EcmEh::new(&cfg),
            |mut sk| {
                for i in 1..=N {
                    sk.insert(i, (i * 7) % 512);
                }
                sk
            },
            BatchSize::SmallInput,
        )
    });
}

fn query_bench(c: &mut Criterion) {
    let sk = build(1, 1, 0);
    c.bench_function("ecm_eh_point_query", |b| {
        let w = WindowSpec::time(N, N / 2);
        b.iter(|| black_box(sk.query(&Query::point(black_box(42)), w).unwrap()))
    });
    let sj_cfg = SketchSpec::time(1 << 20)
        .query_kind(QueryKind::InnerProduct)
        .seed(2)
        .ecm_config()
        .unwrap();
    let mut sj = EcmEh::new(&sj_cfg);
    for i in 1..=N {
        sj.insert(i, (i * 13) % 256);
    }
    c.bench_function("ecm_eh_self_join", |b| {
        let w = WindowSpec::time(N, N / 2);
        b.iter(|| black_box(sj.query(&Query::self_join(), w).unwrap()))
    });
    c.bench_function("ecm_eh_total_arrivals", |b| {
        let w = WindowSpec::time(N, N / 2);
        b.iter(|| black_box(sj.query(&Query::total_arrivals(), w).unwrap()))
    });
}

fn merge_bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("ecm_merge");
    g.sample_size(10);
    let cfg = SketchSpec::time(1 << 20).seed(3).ecm_config().unwrap();
    let a = {
        let mut sk = EcmEh::new(&cfg);
        for i in 1..=N {
            sk.insert(i * 2, (i * 7) % 512);
        }
        sk
    };
    let b2 = {
        let mut sk = EcmEh::new(&cfg);
        for i in 1..=N {
            sk.insert(i * 2 + 1, (i * 11) % 512);
        }
        sk
    };
    g.bench_function("two_sketches_20k_each", |bch| {
        bch.iter(|| EcmSketch::merge(&[&a, &b2], &cfg.cell).unwrap())
    });
    g.bench_function("encode_sketch", |bch| {
        bch.iter(|| {
            let mut buf = Vec::new();
            a.encode(&mut buf);
            black_box(buf.len())
        })
    });
    g.finish();
}

fn hierarchy_bench(c: &mut Criterion) {
    use ecm::{EcmHierarchy, Threshold};
    let mut g = c.benchmark_group("ecm_hierarchy");
    g.sample_size(10);
    let cfg = SketchSpec::time(1 << 20)
        .seed(5)
        .ecm_config::<ExponentialHistogram>()
        .unwrap();
    let mut h = EcmHierarchy::new(16, &cfg);
    for i in 1..=N {
        // Zipf-flavored keys: heavy low ids plus a uniform tail.
        let key = if i % 3 == 0 { i % 8 } else { (i * 31) % 50_000 };
        h.insert(i, key);
    }
    g.bench_function("insert_one_key", |b| {
        b.iter_batched(
            || h.clone(),
            |mut h| {
                h.insert(N + 1, black_box(777));
                h
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("heavy_hitters_rel_1pct", |b| {
        let w = WindowSpec::time(N, N);
        b.iter(|| {
            black_box(
                h.query(&Query::heavy_hitters(Threshold::Relative(0.01)), w)
                    .unwrap(),
            )
        })
    });
    g.bench_function("range_sum", |b| {
        let w = WindowSpec::time(N, N);
        b.iter(|| black_box(h.query(&Query::range_sum(100, 40_000), w).unwrap()))
    });
    g.bench_function("quantile_median", |b| {
        let w = WindowSpec::time(N, N);
        b.iter(|| black_box(h.query(&Query::quantile(0.5), w).unwrap()))
    });
    g.finish();
}

fn monitoring_bench(c: &mut Criterion) {
    use distributed::geometric::SelfJoinFn;
    use distributed::{DriftPropagation, GeometricMonitor};
    use sliding_window::EhConfig;
    use stream_gen::Event;

    let mut g = c.benchmark_group("monitoring");
    g.sample_size(10);
    let cfg = SketchSpec::time(1 << 16)
        .epsilon(0.2)
        .query_kind(QueryKind::InnerProduct)
        .seed(6)
        .ecm_config()
        .unwrap();
    g.bench_function("geometric_observe_2k", |b| {
        b.iter_batched(
            || {
                let nodes: Vec<EcmEh> = (0..4)
                    .map(|i| {
                        let mut sk = EcmEh::new(&cfg);
                        sk.set_id_namespace(i as u64 + 1);
                        sk
                    })
                    .collect();
                GeometricMonitor::new(
                    nodes,
                    SelfJoinFn {
                        width: cfg.width,
                        depth: cfg.depth,
                    },
                    1e9,
                    1 << 16,
                    0,
                )
            },
            |mut m| {
                for t in 1..=2_000u64 {
                    m.observe(Event {
                        ts: t,
                        key: t % 300,
                        site: (t % 4) as u32,
                    });
                }
                m
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("drift_propagation_observe_10k", |b| {
        b.iter_batched(
            || DriftPropagation::new(4, &EhConfig::new(0.1, 1 << 16), 0.1),
            |mut p| {
                for t in 1..=10_000u64 {
                    p.observe((t % 4) as usize, t);
                }
                p
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

criterion_group!(
    benches,
    insert_bench,
    query_bench,
    merge_bench,
    hierarchy_bench,
    monitoring_bench
);
criterion_main!(benches);
