//! Property suite for the solve subsystem: over random graphs and random
//! churn prefixes, the published snapshot's factor stays SPD (no Cholesky
//! breakdown) and sparsifier-preconditioned PCG reaches a `1e-8` residual
//! in fewer iterations than unpreconditioned CG.

use ingrass_repro::graph::is_connected;
use ingrass_repro::linalg::CgOptions;
use ingrass_repro::prelude::*;
use ingrass_repro::solve::unpreconditioned_cg;
use ingrass_repro::{churn_to_update_ops, test_seed};
use proptest::prelude::*;
use std::sync::Arc;

/// A random workload graph: a weighted grid torus-ed with random chords,
/// ill-conditioned enough that plain CG has real work to do.
fn random_graph(side: usize, chords: usize, seed: u64) -> Graph {
    let g = grid_2d(side, side, WeightModel::Uniform { lo: 0.1, hi: 10.0 }, seed);
    let n = g.num_nodes();
    let mut edges: Vec<(usize, usize, f64)> = g
        .edges()
        .iter()
        .map(|e| (e.u.index(), e.v.index(), e.weight))
        .collect();
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (s >> 33) as usize
    };
    for _ in 0..chords {
        let (u, v) = (next() % n, next() % n);
        if u != v {
            edges.push((u, v, 0.1 + (next() % 100) as f64 / 50.0));
        }
    }
    Graph::from_edges(n, &edges).expect("valid random graph")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn prop_preconditioner_is_spd_and_pcg_beats_cg(
        case_seed in 0u64..1000,
        side in 9usize..13,
        chords in 0usize..40,
        churn_batches in 0usize..4,
    ) {
        let seed = test_seed() ^ case_seed;
        let g = random_graph(side, chords, seed);
        let h0 = GrassSparsifier::default()
            .by_offtree_density(&g, 0.25)
            .expect("sparsifier")
            .graph;
        let mut engine = InGrassEngine::setup(
            &h0,
            &SetupConfig::default().with_seed(seed),
        ).expect("setup");

        // A random churn prefix: the preconditioner must survive whatever
        // state the operation log leaves the sparsifier in.
        let churn = ChurnStream::paper_default(&g, seed ^ 0xc0de);
        for batch in churn.batches().iter().take(churn_batches) {
            engine
                .apply_batch(&churn_to_update_ops(batch), &UpdateConfig::default())
                .expect("churn batch");
        }
        prop_assert!(is_connected(&engine.sparsifier_graph()));

        // SPD: publishing factors the grounded Laplacian, which must not
        // break down.
        let n_h = engine.sparsifier().num_nodes();
        let published = SnapshotEngine::from_engine(engine);
        prop_assert!(published.is_ok(), "cholesky breakdown: {:?}", published.err());
        let snap = published.unwrap().snapshot();
        prop_assert!(snap.preconditioner().factor_nnz() >= n_h - 1);

        // PCG with the sparsifier factor vs plain CG, both to 1e-8 on the
        // same consistent system over the *original* graph.
        let l_g = Arc::new(g.laplacian());
        let n = g.num_nodes();
        let mut b = vec![0.0; n];
        b[n / 3] = 1.0;
        b[n - 1] = -1.0;
        let opts = CgOptions::default().with_rel_tol(1e-8).with_max_iters(20_000);

        let svc = ConcurrentSolveService::new(SolveConfig {
            cg: opts.clone(),
            ..Default::default()
        });
        svc.submit(&snap, &l_g, b.clone()).expect("service submit");
        let served = svc.drain().served.pop().expect("one request served");
        prop_assert!(served.result.converged, "pcg failed: {:?}", served.result);

        let (_, cg) = unpreconditioned_cg(&l_g, &b, &opts);
        prop_assert!(cg.converged, "plain cg failed: {cg:?}");
        prop_assert!(
            served.result.iterations < cg.iterations,
            "pcg {} iterations did not beat cg {}",
            served.result.iterations,
            cg.iterations
        );

        // And the solution actually solves the system.
        let r = l_g.matvec_alloc(&served.x);
        let err = r.iter().zip(&b).map(|(a, c)| (a - c).abs()).fold(0.0f64, f64::max);
        prop_assert!(err < 1e-5, "residual {err}");
    }
}
