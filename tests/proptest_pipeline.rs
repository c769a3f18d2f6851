//! Property-based integration tests: pipeline invariants must hold for
//! arbitrary seeds, densities, stream shapes and targets.

use ingrass_repro::prelude::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The whole pipeline — generate → sparsify → setup → update — keeps
    /// the sparsifier connected, conserves inserted weight, and never grows
    /// H beyond "tree + all off-tree + all stream edges".
    #[test]
    fn pipeline_invariants(
        seed in 0u64..1000,
        density in 0.05f64..0.35,
        batches in 1usize..6,
        per_batch in 5usize..40,
        locality in 0.0f64..1.0,
        target in 8.0f64..500.0,
    ) {
        let g0 = grid_2d(12, 12, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, seed);
        let h0 = GrassSparsifier::default().by_offtree_density(&g0, density).unwrap();
        let mut engine = InGrassEngine::setup(&h0.graph, &SetupConfig::default()).unwrap();
        let stream = InsertionStream::generate(&g0, &StreamConfig {
            batches,
            edges_per_batch: per_batch,
            locality,
            local_hops: 2,
            seed: seed ^ 0xabcd,
        });
        let cfg = UpdateConfig { target_condition: target, ..Default::default() };
        let w_before = engine.sparsifier().total_weight();
        let mut inserted_weight = 0.0;
        let mut included_total = 0usize;
        for batch in stream.batches() {
            inserted_weight += batch.iter().map(|&(_, _, w)| w).sum::<f64>();
            let r = engine.insert_batch(batch, &cfg).unwrap();
            prop_assert_eq!(r.total_processed(), batch.len());
            included_total += r.included;
        }
        let h_now = engine.sparsifier_graph();
        prop_assert!(ingrass_repro::graph::is_connected(&h_now));
        // Weight conservation.
        let w_after = engine.sparsifier().total_weight();
        prop_assert!((w_after - w_before - inserted_weight).abs()
            < 1e-7 * (1.0 + inserted_weight));
        // Edge-count accounting: exactly `included_total` new edges.
        prop_assert_eq!(h_now.num_edges(), h0.graph.num_edges() + included_total);
    }

    /// Sparsification quality is monotone-ish in density: κ at density d₂
    /// must not exceed κ at density d₁ < d₂ by more than estimator noise.
    #[test]
    fn grass_density_quality_tradeoff(seed in 0u64..200) {
        let g = grid_2d(12, 12, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, seed);
        let grass = GrassSparsifier::default();
        let sparse = grass.by_offtree_density(&g, 0.05).unwrap();
        let dense = grass.by_offtree_density(&g, 0.5).unwrap();
        let opts = ConditionOptions::default();
        let k_sparse = estimate_condition_number(&g, &sparse.graph, &opts).unwrap().lambda_max;
        let k_dense = estimate_condition_number(&g, &dense.graph, &opts).unwrap().lambda_max;
        prop_assert!(k_dense <= k_sparse * 1.05,
            "density 0.5 gave λmax {k_dense} vs {k_sparse} at 0.05");
    }

    /// The LRD resistance bound from the engine is symmetric, positive and
    /// finite for distinct nodes, and the distortion estimate built on it
    /// is linear in the edge weight.
    #[test]
    fn resistance_bounds_are_sane(seed in 0u64..200, u in 0usize..64, v in 0usize..64) {
        prop_assume!(u != v);
        let g = grid_2d(8, 8, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, seed);
        let engine = InGrassEngine::setup(&g, &SetupConfig::default()).unwrap();
        let a = engine.hierarchy().resistance_bound(u.into(), v.into());
        let b = engine.hierarchy().resistance_bound(v.into(), u.into());
        prop_assert_eq!(a, b);
        prop_assert!(a > 0.0);
        prop_assert!(a.is_finite());
        // Distortion scales linearly in weight.
        let d1 = engine.estimate_distortion(u.into(), v.into(), 1.0);
        let d2 = engine.estimate_distortion(u.into(), v.into(), 2.0);
        prop_assert!((d2 - 2.0 * d1).abs() < 1e-12);
    }
}
