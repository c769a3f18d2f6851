//! Acceptance suite for the solve subsystem on the small-scale bench
//! cases: PCG on the original Laplacian, preconditioned by a published
//! snapshot's factor, must converge in at most 1/3 the iterations of
//! unpreconditioned CG, and a held snapshot must keep serving while its
//! engine mutates.

use ingrass_repro::linalg::CsrMatrix;
use ingrass_repro::prelude::*;
use ingrass_repro::solve::unpreconditioned_cg;
use ingrass_repro::test_seed;

/// The suite cases at 5 % of the paper's node counts, with a solve-grade
/// sparsifier density.
const SCALE: f64 = 0.05;
const SOLVE_DENSITY: f64 = 0.30;

/// The case's graph, its Laplacian, and a solve-grade sparsifier of it.
fn solve_fixture(case: TestCase, seed: u64) -> (Graph, CsrMatrix, Graph) {
    let g = case.build(SCALE, seed);
    let h0 = GrassSparsifier::default()
        .by_offtree_density(&g, SOLVE_DENSITY)
        .expect("solve-grade sparsifier")
        .graph;
    let l_g = g.laplacian();
    (g, l_g, h0)
}

fn setup(h0: &Graph, seed: u64) -> SnapshotEngine {
    SnapshotEngine::setup(h0, &SetupConfig::default().with_seed(seed)).expect("setup")
}

fn pair_rhs(n: usize, u: usize, v: usize) -> Vec<f64> {
    let mut b = vec![0.0; n];
    b[u] = 1.0;
    b[v] = -1.0;
    b
}

#[test]
fn preconditioned_pcg_needs_at_most_a_third_of_cg_iterations() {
    let seed = test_seed();
    for case in [
        TestCase::Fe4elt2,
        TestCase::FeSphere,
        TestCase::G2Circuit,
        TestCase::DelaunayN18,
    ] {
        let (g, l_g, h0) = solve_fixture(case, seed);
        let snap = setup(&h0, seed).snapshot();
        let n = g.num_nodes();
        let rhss = vec![pair_rhs(n, n / 7, n - 3), pair_rhs(n, 1, n / 2)];
        let mut svc = SolveService::new(SolveConfig::default());
        let (_, report) = svc.solve_batch(&snap, &l_g, &rhss).expect("pcg batch");
        assert!(
            report.all_converged(),
            "{}: {:?}",
            case.name(),
            report.results
        );
        for (b, pcg_res) in rhss.iter().zip(&report.results) {
            let (_, cg) = unpreconditioned_cg(&l_g, b, &SolveConfig::default().cg);
            assert!(cg.converged, "{}: plain CG failed", case.name());
            assert!(
                pcg_res.iterations * 3 <= cg.iterations,
                "{}: pcg {} iterations vs cg {} — ratio below 3x",
                case.name(),
                pcg_res.iterations,
                cg.iterations
            );
        }
    }
}

#[test]
fn jacobi_and_tree_fallback_strategies_converge() {
    // The per-call strategies read the snapshot's sparsifier graph and
    // Laplacian; they must converge on a real bench case for a mono
    // snapshot and for a sharded engine's stitched one. The snapshot's
    // exact factor stays the strongest of the three.
    let seed = test_seed();
    let (g, l_g, h0) = solve_fixture(TestCase::Fe4elt2, seed);
    let n = g.num_nodes();
    let rhss = vec![pair_rhs(n, 0, n - 1), pair_rhs(n, n / 3, (2 * n) / 3)];
    let sharded = ShardedEngine::setup(
        &h0,
        &SetupConfig::default().with_seed(seed),
        &ShardedConfig::default(),
    )
    .expect("sharded setup");

    for (label, snap) in [
        ("mono", setup(&h0, seed).snapshot()),
        ("sharded", sharded.snapshot()),
    ] {
        let mut iterations = Vec::new();
        for strategy in [
            PrecondStrategy::Cholesky,
            PrecondStrategy::Jacobi,
            PrecondStrategy::Tree,
        ] {
            let mut svc = SolveService::new(SolveConfig {
                strategy,
                ..Default::default()
            });
            let (_, report) = svc.solve_batch(&snap, &l_g, &rhss).expect("batch");
            assert!(
                report.all_converged(),
                "{label} {strategy:?} failed to converge: {:?}",
                report.results
            );
            if strategy == PrecondStrategy::Cholesky {
                assert!(report.factor_nnz > 0, "cholesky must report factor fill");
            } else {
                assert_eq!(report.factor_nnz, 0, "{strategy:?} carries no factor");
            }
            iterations.push(report.total_iterations());
        }
        // The exact factor dominates both per-call preconditioners.
        assert!(
            iterations[0] <= iterations[1] && iterations[0] <= iterations[2],
            "{label}: cholesky/jacobi/tree iterations {iterations:?}"
        );
    }
}

#[test]
fn engine_stats_stay_accessible_between_solves() {
    // The service borrows no engine: solves, stats accessors and update
    // batches interleave freely, and a held snapshot keeps serving across
    // arbitrary engine mutations — including a re-setup.
    let seed = test_seed();
    let (g, l_g, h0) = solve_fixture(TestCase::Fe4elt2, seed);
    let n = g.num_nodes();
    let mut engine = setup(&h0, seed);
    let mut svc = SolveService::new(SolveConfig::default());
    let stream = InsertionStream::paper_default(&g, seed ^ 0x57ea);
    let first = engine.snapshot();

    let mut epochs = Vec::new();
    for batch in stream.batches().iter().take(3) {
        let snap = engine.snapshot();
        let (_, report) = svc
            .solve(&snap, &l_g, &pair_rhs(n, 0, n - 1))
            .expect("solve");
        assert!(report.all_converged());
        // Stats accessors between solves, while the snapshot is held.
        let inner = engine.engine();
        epochs.push((inner.epoch(), inner.resetups(), inner.version()));
        assert_eq!(report.epoch, inner.epoch());
        // And a mutation while the snapshot is still held.
        let ops: Vec<UpdateOp> = batch
            .iter()
            .map(|&(u, v, weight)| UpdateOp::Insert { u, v, weight })
            .collect();
        engine
            .apply_batch(&ops, &UpdateConfig::default())
            .expect("update between solves");
    }
    assert_eq!(epochs.len(), 3);
    assert_eq!(svc.stats().batches, 3);

    engine.resetup().expect("resetup");
    let (_, report) = svc
        .solve(&first, &l_g, &pair_rhs(n, 2, n / 2))
        .expect("held snapshot solve");
    assert!(report.all_converged());
    assert_eq!(report.epoch, first.epoch());
    assert_eq!(
        first.epoch() + 1,
        engine.engine().epoch(),
        "snapshot kept its pre-resetup epoch tag"
    );
}
