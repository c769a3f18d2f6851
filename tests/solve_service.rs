//! Acceptance suite for the solve subsystem on the small-scale bench
//! cases: PCG on the original Laplacian, preconditioned by a published
//! snapshot's factor, must converge in at most 1/3 the iterations of
//! unpreconditioned CG, and a held snapshot must keep serving while its
//! engine mutates.

use ingrass_repro::graph::{kruskal_tree, TreeObjective, TreePrecond};
use ingrass_repro::linalg::{pcg, CgResult, CsrMatrix, JacobiPrecond, Preconditioner};
use ingrass_repro::prelude::*;
use ingrass_repro::solve::{unpreconditioned_cg, DrainReport};
use ingrass_repro::test_seed;
use std::sync::Arc;

/// The suite cases at 5 % of the paper's node counts, with a solve-grade
/// sparsifier density.
const SCALE: f64 = 0.05;
const SOLVE_DENSITY: f64 = 0.30;

/// The case's graph, its Laplacian, and a solve-grade sparsifier of it.
fn solve_fixture(case: TestCase, seed: u64) -> (Graph, Arc<CsrMatrix>, Graph) {
    let g = case.build(SCALE, seed);
    let h0 = GrassSparsifier::default()
        .by_offtree_density(&g, SOLVE_DENSITY)
        .expect("solve-grade sparsifier")
        .graph;
    let l_g = Arc::new(g.laplacian());
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

/// Submits every right-hand side to `svc` against `snap`, then drains
/// them in one round.
fn serve(
    svc: &ConcurrentSolveService,
    snap: &Arc<SparsifierSnapshot>,
    l_g: &Arc<CsrMatrix>,
    rhss: &[Vec<f64>],
) -> DrainReport {
    for b in rhss {
        svc.submit(snap, l_g, b.clone()).expect("submit");
    }
    let round = svc.drain();
    assert_eq!(round.served.len(), rhss.len());
    round
}

fn results(round: &DrainReport) -> Vec<&CgResult> {
    round.served.iter().map(|s| &s.result).collect()
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
        let svc = ConcurrentSolveService::new(SolveConfig::default());
        let round = serve(&svc, &snap, &l_g, &rhss);
        assert!(
            round.all_converged(),
            "{}: {:?}",
            case.name(),
            results(&round)
        );
        for (b, served) in rhss.iter().zip(&round.served) {
            let (_, cg) = unpreconditioned_cg(&l_g, b, &SolveConfig::default().cg);
            assert!(cg.converged, "{}: plain CG failed", case.name());
            assert!(
                served.result.iterations * 3 <= cg.iterations,
                "{}: pcg {} iterations vs cg {} — ratio below 3x",
                case.name(),
                served.result.iterations,
                cg.iterations
            );
        }
    }
}

#[test]
fn snapshot_factor_needs_no_more_iterations_than_jacobi_or_tree_pcg() {
    // The service always preconditions with the snapshot's exact factor.
    // On a real bench case, for a mono snapshot and for a sharded engine's
    // stitched one, plain PCG under a Jacobi or a max-weight spanning-tree
    // preconditioner of the same sparsifier must converge too, and take at
    // least as many iterations as the service.
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
    let opts = SolveConfig::default().cg;
    let ones = vec![1.0; n];

    for (label, snap) in [
        ("mono", setup(&h0, seed).snapshot()),
        ("sharded", sharded.snapshot()),
    ] {
        let svc = ConcurrentSolveService::new(SolveConfig::default());
        let round = serve(&svc, &snap, &l_g, &rhss);
        assert!(
            round.all_converged(),
            "{label} service failed to converge: {:?}",
            results(&round)
        );

        let jacobi = JacobiPrecond::from_matrix(snap.laplacian());
        let tree = kruskal_tree(snap.graph(), TreeObjective::MaxWeight).expect("spanning tree");
        let tree = TreePrecond::new(&tree.tree);
        let fallbacks: [(&str, &dyn Preconditioner); 2] = [("jacobi", &jacobi), ("tree", &tree)];
        for (name, precond) in fallbacks {
            let mut iterations = 0;
            for b in &rhss {
                // Pair injections sum to zero, so they are already the
                // projected right-hand sides the service solves.
                let mut x = vec![0.0; n];
                let res = pcg(l_g.as_ref(), b, &mut x, precond, Some(&ones), &opts);
                assert!(
                    res.converged,
                    "{label} {name} PCG failed to converge: {res:?}"
                );
                iterations += res.iterations;
            }
            assert!(
                round.total_iterations() <= iterations,
                "{label}: service {} iterations vs {name} {iterations}",
                round.total_iterations()
            );
        }
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
    let svc = ConcurrentSolveService::new(SolveConfig::default());
    let stream = InsertionStream::paper_default(&g, seed ^ 0x57ea);
    let first = engine.snapshot();

    let mut epochs = Vec::new();
    for batch in stream.batches().iter().take(3) {
        let snap = engine.snapshot();
        let round = serve(&svc, &snap, &l_g, &[pair_rhs(n, 0, n - 1)]);
        assert!(round.all_converged());
        // Stats accessors between solves, while the snapshot is held.
        let inner = engine.engine();
        epochs.push((inner.epoch(), inner.resetups(), inner.version()));
        assert_eq!(round.served[0].epoch, inner.epoch());
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
    assert_eq!((svc.stats().drains, svc.stats().served), (3, 3));

    engine.resetup().expect("resetup");
    let round = serve(&svc, &first, &l_g, &[pair_rhs(n, 2, n / 2)]);
    assert!(round.all_converged());
    assert_eq!(round.served[0].epoch, first.epoch());
    assert_eq!(
        first.epoch() + 1,
        engine.engine().epoch(),
        "snapshot kept its pre-resetup epoch tag"
    );
}
