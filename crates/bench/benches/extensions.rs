//! Criterion microbenchmarks for the extension modules: hybrid histograms
//! (range-query baseline), the equi-width baseline, the reorder buffer, and
//! wraparound-timestamp packing.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use sliding_window::traits::WindowCounter;
use sliding_window::{
    BitPacker, EquiWidthConfig, EquiWidthWindow, HybridConfig, HybridHistogram, ReorderBuffer,
    ReorderConfig, WrapClock,
};
use std::hint::black_box;

const N: u64 = 10_000;

fn hybrid_bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("hybrid_histogram");
    let cfg = HybridConfig::new(0.1, N, 4_096, 64);
    g.bench_function("insert_10k", |b| {
        b.iter_batched(
            || HybridHistogram::new(&cfg),
            |mut h| {
                for i in 1..=N {
                    h.insert(i, (i * 7) % 4_096);
                }
                h
            },
            BatchSize::SmallInput,
        )
    });
    let mut h = HybridHistogram::new(&cfg);
    for i in 1..=N {
        h.insert(i, (i * 7) % 4_096);
    }
    g.bench_function("range_query", |b| {
        b.iter(|| black_box(h.range_query(black_box(N), black_box(N / 2), 100, 900)))
    });
    g.bench_function("point_query", |b| {
        b.iter(|| black_box(h.point_query(black_box(777), N, N)))
    });
    g.finish();
}

fn equi_width_bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("equi_width_baseline");
    let cfg = EquiWidthConfig::new(N, 32);
    g.bench_function("insert_10k", |b| {
        b.iter_batched(
            || EquiWidthWindow::new(&cfg),
            |mut w| {
                for i in 1..=N {
                    w.insert(i, i);
                }
                w
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn reorder_bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("reorder_buffer");
    g.bench_function("offer_10k_jittered", |b| {
        b.iter_batched(
            || {
                ReorderBuffer::<sliding_window::ExponentialHistogram>::new(
                    &sliding_window::EhConfig::new(0.1, N),
                    ReorderConfig::new(16),
                )
            },
            |mut r| {
                for i in 1..=N {
                    // Bounded backward jitter.
                    let ts = i * 2 + 16 - (i % 8);
                    r.offer(ts, i);
                }
                r
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn timestamp_bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("wraparound_timestamps");
    let clock = WrapClock::for_window(1 << 20);
    g.bench_function("wrap_unwrap", |b| {
        b.iter(|| {
            let now = black_box(123_456_789u64);
            let w = clock.wrap(black_box(now - 777));
            black_box(clock.unwrap(w, now))
        })
    });
    g.bench_function("bitpack_1k", |b| {
        b.iter(|| {
            let mut p = BitPacker::new(21);
            for i in 0..1_000u64 {
                p.push(i & ((1 << 21) - 1));
            }
            black_box(p.bits_used())
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    hybrid_bench,
    equi_width_bench,
    reorder_bench,
    timestamp_bench
);
criterion_main!(benches);
