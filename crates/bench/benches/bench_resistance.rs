//! Criterion benchmarks of the setup phase's Krylov resistance embedding:
//! build cost, query cost against exact CG solves, and a dimension sweep.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ingrass_gen::{grid_2d, WeightModel};
use ingrass_resistance::{ExactResistance, KrylovConfig, KrylovEmbedder, ResistanceEstimator};

fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("resistance_build");
    group.sample_size(10);
    let g = grid_2d(40, 40, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, 3);
    group.bench_function("krylov_default", |b| {
        b.iter(|| KrylovEmbedder::build(&g, &KrylovConfig::default()).expect("build"))
    });
    group.finish();
}

fn bench_query(c: &mut Criterion) {
    let mut group = c.benchmark_group("resistance_query");
    let g = grid_2d(30, 30, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, 4);
    let pairs: Vec<(u32, u32)> = (0..1000u32)
        .map(|i| (i % 900, (i * 7 + 13) % 900))
        .collect();

    let krylov = KrylovEmbedder::build(&g, &KrylovConfig::default()).expect("build");
    group.bench_function("krylov_1000_pairs", |b| {
        b.iter(|| {
            pairs
                .iter()
                .map(|&(u, v)| krylov.resistance(u.into(), v.into()))
                .sum::<f64>()
        })
    });
    // Exact CG: far fewer pairs (each query is a Laplacian solve).
    let exact = ExactResistance::via_cg(&g).expect("build");
    group.sample_size(10);
    group.bench_function("exact_cg_10_pairs", |b| {
        b.iter(|| {
            pairs[..10]
                .iter()
                .map(|&(u, v)| exact.resistance(u.into(), v.into()))
                .sum::<f64>()
        })
    });
    group.finish();
}

fn bench_krylov_dims(c: &mut Criterion) {
    let mut group = c.benchmark_group("krylov_dim_sweep");
    group.sample_size(10);
    let g = grid_2d(40, 40, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, 5);
    for dim in [8usize, 16, 32] {
        group.bench_with_input(BenchmarkId::from_parameter(dim), &dim, |b, &dim| {
            b.iter(|| {
                KrylovEmbedder::build(&g, &KrylovConfig::default().with_dim(dim)).expect("build")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_build, bench_query, bench_krylov_dims);
criterion_main!(benches);
