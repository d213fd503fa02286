//! FastICA micro-benchmarks: scaling in n and d (paper: ≈ O(n·d²) per
//! iteration) of the one FastICA path, symmetric log-cosh.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sider_data::synthetic::runtime_dataset;
use sider_projection::{fastica, IcaOpts};
use sider_stats::Rng;
use std::hint::black_box;

fn bench_ica(c: &mut Criterion) {
    let mut group = c.benchmark_group("ica");
    group.sample_size(10);

    for n in [512usize, 2048] {
        let ds = runtime_dataset(n, 8, 4, 3);
        group.bench_with_input(BenchmarkId::new("by_n", n), &n, |b, _| {
            b.iter(|| {
                let mut rng = Rng::seed_from_u64(1);
                black_box(fastica(&ds.matrix, &IcaOpts::default(), &mut rng))
            })
        });
    }
    for d in [4usize, 8, 16] {
        let ds = runtime_dataset(512, d, 4, 5);
        group.bench_with_input(BenchmarkId::new("by_d", d), &d, |b, _| {
            b.iter(|| {
                let mut rng = Rng::seed_from_u64(1);
                black_box(fastica(&ds.matrix, &IcaOpts::default(), &mut rng))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ica);
criterion_main!(benches);
