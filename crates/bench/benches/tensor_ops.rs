//! Micro-benchmarks for the dense kernels everything else is built on.

use asyncfl_rng::rngs::StdRng;
use asyncfl_rng::{RngExt, SeedableRng};
use asyncfl_tensor::{stats, Vector};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_vector_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("vector");
    // 330 = MNIST-profile model size, 1866 = CIFAR-profile model size.
    for dim in [330usize, 1_866, 16_384] {
        let a = Vector::from_fn(dim, |i| (i % 13) as f64 * 0.1);
        let b = Vector::from_fn(dim, |i| (i % 7) as f64 * 0.2);
        group.bench_with_input(BenchmarkId::new("dot", dim), &dim, |bench, _| {
            bench.iter(|| black_box(a.dot(&b)))
        });
        group.bench_with_input(BenchmarkId::new("distance", dim), &dim, |bench, _| {
            bench.iter(|| black_box(a.distance(&b)))
        });
        group.bench_with_input(BenchmarkId::new("axpy", dim), &dim, |bench, _| {
            bench.iter(|| {
                let mut x = a.clone();
                x.axpy(0.5, &b);
                black_box(x)
            })
        });
    }
    group.finish();
}

fn bench_robust_stats(c: &mut Criterion) {
    let mut group = c.benchmark_group("stats");
    for n in [40usize, 100] {
        let vectors: Vec<Vector> = (0..n)
            .map(|i| Vector::from_fn(330, |d| ((i * d) % 17) as f64))
            .collect();
        group.bench_with_input(BenchmarkId::new("mean", n), &n, |bench, _| {
            bench.iter(|| black_box(stats::mean_vector(&vectors)))
        });
        group.bench_with_input(BenchmarkId::new("median", n), &n, |bench, _| {
            bench.iter(|| black_box(stats::median_vector(&vectors)))
        });
        group.bench_with_input(BenchmarkId::new("trimmed_mean", n), &n, |bench, _| {
            bench.iter(|| black_box(stats::trimmed_mean_vector(&vectors, n / 4)))
        });
    }
    // AsyncFilter's new-group bootstrap at the million-client workload's
    // Ω = 8192 on the MNIST-profile model: continuous values, few ties.
    let mut rng = StdRng::seed_from_u64(0);
    let wide: Vec<Vector> = (0..8192)
        .map(|_| Vector::from_fn(330, |_| rng.random::<f64>() - 0.5))
        .collect();
    group.bench_function("trimmed_mean/8192x330", |bench| {
        bench.iter(|| black_box(stats::trimmed_mean_vector(&wide, 8192 / 4)))
    });
    // The server_wide workload's mean aggregation: Ω = 32 deltas of
    // 131 072 parameters folded into the global model block by block.
    let global = Vector::from_fn(131_072, |_| rng.random::<f64>() - 0.5);
    let deltas: Vec<Vector> = (0..32)
        .map(|_| Vector::from_fn(131_072, |_| rng.random::<f64>() - 0.5))
        .collect();
    let weights: Vec<f64> = (1..=32).map(f64::from).collect();
    group.bench_function("weighted_mean/32x131072", |bench| {
        bench.iter(|| black_box(stats::weighted_mean_vector(&global, &deltas, &weights)))
    });
    group.finish();
}

criterion_group!(benches, bench_vector_ops, bench_robust_stats);
criterion_main!(benches);
