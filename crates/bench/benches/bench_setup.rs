//! Criterion micro-benchmarks of the inGRASS setup phase (paper Table I's
//! "Setup" column at micro scale): resistance embedding, LRD decomposition
//! and connectivity indexing together per suite family, and each phase
//! alone on the sparsifier of a drift re-setup.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ingrass::{
    ClusterConnectivity, InGrassEngine, LrdHierarchy, SetupConfig, UpdateConfig, UpdateOp,
};
use ingrass_baselines::GrassSparsifier;
use ingrass_gen::{ChurnConfig, ChurnOp, ChurnStream, TestCase};
use ingrass_graph::DynGraph;
use ingrass_resistance::{KrylovConfig, KrylovEmbedder, ResistanceEstimator};

fn bench_setup(c: &mut Criterion) {
    let mut group = c.benchmark_group("setup_phase");
    group.sample_size(10);
    for case in [
        TestCase::G2Circuit,
        TestCase::DelaunayN18,
        TestCase::FeSphere,
        TestCase::FeOcean,
    ] {
        let g0 = case.build(0.002, 7);
        let h0 = GrassSparsifier::default()
            .by_offtree_density(&g0, 0.10)
            .expect("sparsify")
            .graph;
        group.bench_with_input(BenchmarkId::new("full_setup", case.name()), &h0, |b, h0| {
            b.iter(|| InGrassEngine::setup(h0, &SetupConfig::default()).expect("setup"));
        });
    }
    group.finish();
}

fn bench_setup_scaling(c: &mut Criterion) {
    // Near-linear scaling check: setup time across 4× node growth.
    let mut group = c.benchmark_group("setup_scaling_delaunay");
    group.sample_size(10);
    for scale_num in [1usize, 2, 4] {
        let scale = 0.001 * scale_num as f64;
        let g0 = TestCase::DelaunayN20.build(scale, 3);
        let h0 = GrassSparsifier::default()
            .by_offtree_density(&g0, 0.10)
            .expect("sparsify")
            .graph;
        group.bench_with_input(BenchmarkId::from_parameter(g0.num_nodes()), &h0, |b, h0| {
            b.iter(|| InGrassEngine::setup(h0, &SetupConfig::default()).expect("setup"));
        });
    }
    group.finish();
}

/// The phases of one drift re-setup at perfbench `stream`'s size: a GRASS
/// sparsifier (10 % off-tree density) of a ~6.5 k-node Delaunay graph,
/// churned by the workload's paper-shaped stream at seed 42 until the
/// first re-setup. On that live sparsifier: the Krylov embedding, the LRD
/// build, the connectivity index, and the whole setup they make up.
fn bench_resetup(c: &mut Criterion) {
    let mut group = c.benchmark_group("resetup");
    group.sample_size(20);
    let seed = 42;
    let g0 = TestCase::DelaunayN18.build(0.025, seed);
    let h0 = GrassSparsifier::default()
        .by_offtree_density(&g0, 0.10)
        .expect("sparsify")
        .graph;
    let cfg = SetupConfig::default().with_seed(seed);
    let mut engine = InGrassEngine::setup(&h0, &cfg).expect("setup");
    let churn = ChurnStream::generate(
        &g0,
        &ChurnConfig {
            batches: 3000,
            ops_per_batch: 50,
            ..ChurnConfig::paper_shaped(&g0, seed ^ 0x5eed)
        },
    );
    for batch in churn.batches() {
        let ops: Vec<UpdateOp> = batch
            .iter()
            .map(|op| match *op {
                ChurnOp::Insert(u, v, weight) => UpdateOp::Insert { u, v, weight },
                ChurnOp::Delete(u, v) => UpdateOp::Delete { u, v },
                ChurnOp::Reweight(u, v, weight) => UpdateOp::Reweight { u, v, weight },
            })
            .collect();
        let report = engine
            .apply_batch(&ops, &UpdateConfig::default())
            .expect("churn batch");
        if report.resetup.is_some() {
            break;
        }
    }
    assert!(engine.resetups() > 0, "the stream never re-set up");

    let h = engine.sparsifier_graph();
    let label = format!("n_{}_m_{}", h.num_nodes(), h.num_edges());
    let kcfg = KrylovConfig::default().with_seed(seed);
    group.bench_function(format!("krylov_embed/{label}"), |b| {
        b.iter(|| KrylovEmbedder::build(&h, &kcfg).expect("embed"))
    });
    let r = KrylovEmbedder::build(&h, &kcfg)
        .expect("embed")
        .edge_resistances(&h);
    let lrd = || {
        LrdHierarchy::build(
            &h,
            &r,
            cfg.initial_diameter,
            cfg.diameter_growth,
            cfg.max_levels,
        )
        .expect("lrd")
    };
    group.bench_function(format!("lrd_build/{label}"), |b| b.iter(lrd));
    let (live, hierarchy) = (DynGraph::from_graph(&h), lrd());
    group.bench_function(format!("connectivity/{label}"), |b| {
        b.iter(|| ClusterConnectivity::build(&live, &hierarchy))
    });
    group.bench_function(format!("setup/{label}"), |b| {
        b.iter(|| InGrassEngine::setup(&h, &cfg).expect("setup"))
    });
    group.finish();
}

criterion_group!(benches, bench_setup, bench_setup_scaling, bench_resetup);
criterion_main!(benches);
