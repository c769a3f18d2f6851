//! Criterion benchmarks of the linear-algebra substrate: tree-solver vs
//! Jacobi preconditioning, raw tree solves, pencil Lanczos (the
//! condition-number estimator's inner loop), and the factor kernels of a
//! stitched publish.

use criterion::{criterion_group, criterion_main, Criterion};
use ingrass::{SetupConfig, ShardedConfig, ShardedEngine, UpdateConfig, UpdateOp};
use ingrass_baselines::GrassSparsifier;
use ingrass_gen::{grid_2d, ChurnConfig, ChurnOp, ChurnStream, ShardSkew, TestCase, WeightModel};
use ingrass_graph::{kruskal_tree, Graph, TreeLaplacianSolver, TreeObjective, TreePrecond};
use ingrass_linalg::{
    min_degree_order_with_hints, pcg, CgOptions, CsrMatrix, DenseMatrix, JacobiPrecond,
    SparseCholesky,
};
use ingrass_metrics::{estimate_condition_number, ConditionOptions};

fn bench_pcg(c: &mut Criterion) {
    let mut group = c.benchmark_group("pcg_grid_2500");
    group.sample_size(20);
    let g = grid_2d(50, 50, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, 9);
    let n = g.num_nodes();
    let l = g.laplacian();
    let tree = kruskal_tree(&g, TreeObjective::MaxWeight).expect("tree");
    let mut b_vec: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
    let mean = b_vec.iter().sum::<f64>() / n as f64;
    b_vec.iter_mut().for_each(|v| *v -= mean);
    let ones = vec![1.0; n];
    let opts = CgOptions::default().with_rel_tol(1e-8);

    let jacobi = JacobiPrecond::from_matrix(&l);
    group.bench_function("jacobi_precond", |b| {
        b.iter(|| {
            let mut x = vec![0.0; n];
            pcg(&l, &b_vec, &mut x, &jacobi, Some(&ones), &opts)
        })
    });
    let tp = TreePrecond::new(&tree.tree);
    group.bench_function("tree_precond", |b| {
        b.iter(|| {
            let mut x = vec![0.0; n];
            pcg(&l, &b_vec, &mut x, &tp, Some(&ones), &opts)
        })
    });
    group.finish();
}

fn bench_tree_solve(c: &mut Criterion) {
    let mut group = c.benchmark_group("tree_laplacian_solve");
    for side in [32usize, 64, 128] {
        let g = grid_2d(side, side, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, 2);
        let tree = kruskal_tree(&g, TreeObjective::MaxWeight).expect("tree");
        let solver = TreeLaplacianSolver::new(&tree.tree);
        let n = g.num_nodes();
        let mut b_vec: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let mean = b_vec.iter().sum::<f64>() / n as f64;
        b_vec.iter_mut().for_each(|v| *v -= mean);
        group.bench_function(format!("n_{}", n), |b| {
            let mut x = vec![0.0; n];
            b.iter(|| solver.solve_into(&b_vec, &mut x))
        });
    }
    group.finish();
}

fn bench_condition_number(c: &mut Criterion) {
    let mut group = c.benchmark_group("condition_number_estimate");
    group.sample_size(10);
    let g = grid_2d(40, 40, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, 5);
    let h = ingrass_baselines::GrassSparsifier::default()
        .by_offtree_density(&g, 0.10)
        .expect("sparsify")
        .graph;
    group.bench_function("default_opts", |b| {
        b.iter(|| estimate_condition_number(&g, &h, &ConditionOptions::default()).expect("est"))
    });
    group.bench_function("fast_opts", |b| {
        b.iter(|| estimate_condition_number(&g, &h, &ConditionOptions::fast()).expect("est"))
    });
    group.finish();
}

/// The Laplacian of `g` with node 0 grounded (row and column removed).
fn grounded_laplacian(g: &Graph) -> CsrMatrix {
    let l = g.laplacian();
    let n = l.n_rows();
    let mut t = Vec::new();
    for r in 1..n {
        let (cols, vals) = l.row(r);
        for (&c, &v) in cols.iter().zip(vals) {
            if c != 0 {
                t.push((r - 1, c as usize - 1, v));
            }
        }
    }
    CsrMatrix::from_triplets(n - 1, n - 1, &t)
}

/// The kernels of a stitched publish, at the sizes of perfbench's `shard`
/// workload (four shards of a ~5.2 k-node Delaunay sparsifier whose churn
/// grows a boundary of a few hundred nodes): the ordering and sparse
/// factor of a ~1.3 k-node Delaunay block, a dense Cholesky of boundary
/// size, and a whole publish of the churned sharded engine.
fn bench_factor(c: &mut Criterion) {
    let mut group = c.benchmark_group("factor");
    group.sample_size(10);
    let interior = grounded_laplacian(&TestCase::DelaunayN18.build(0.005, 42));
    let label = format!("n_{}", interior.n_rows());
    group.bench_function(format!("min_degree/{label}"), |b| {
        b.iter(|| min_degree_order_with_hints(&interior, None))
    });
    group.bench_function(format!("sparse_cholesky/{label}"), |b| {
        b.iter(|| SparseCholesky::factor(&interior).expect("spd"))
    });

    // Symmetric, diagonally dominant: SPD with every pivot well away from
    // zero, like a grounded Schur complement.
    let n = 300;
    let mut dense = DenseMatrix::zeros(n, n);
    for i in 0..n {
        dense.set(i, i, n as f64);
        for j in 0..i {
            let v = ((i * 31 + j * 17) % 23) as f64 / 23.0 - 0.5;
            dense.set(i, j, v);
            dense.set(j, i, v);
        }
    }
    group.bench_function("dense_cholesky/n_300", |b| {
        b.iter(|| dense.cholesky().expect("spd"))
    });

    // perfbench `shard`'s instance at seed 42: its setup, then its whole
    // churn stream (100 batches of 20 ops, a hot shard, 15 % cross-shard).
    let g0 = TestCase::DelaunayN18.build(0.02, 42);
    let h0 = GrassSparsifier::default()
        .by_offtree_density(&g0, 0.10)
        .expect("sparsify")
        .graph;
    let mut engine = ShardedEngine::setup(
        &h0,
        &SetupConfig::default().with_seed(42),
        &ShardedConfig::default()
            .with_shards(4)
            .with_threads(Some(2)),
    )
    .expect("sharded setup");
    let churn = ChurnStream::generate_with_skew(
        &g0,
        &ChurnConfig {
            batches: 100,
            ops_per_batch: 20,
            ..ChurnConfig::paper_shaped(&g0, 42 ^ 0x5a4d)
        },
        &ShardSkew {
            labels: engine.routing().shard_of_slice().to_vec(),
            hot_fraction: 0.2,
            cross_fraction: 0.15,
            hot_label: 0,
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
        engine
            .apply_batch(&ops, &UpdateConfig::default())
            .expect("churn batch");
    }
    let label = format!("s_4_boundary_{}", engine.boundary().node_count());
    group.bench_function(format!("stitched_publish/{label}"), |b| {
        b.iter(|| engine.publish().expect("publish"))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_pcg,
    bench_tree_solve,
    bench_condition_number,
    bench_factor
);
criterion_main!(benches);
