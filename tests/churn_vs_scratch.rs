//! Deletion-parity companion to `incremental_vs_scratch.rs`: applying a
//! mixed churn stream (insertions + deletions + reweights) incrementally
//! through the operation-log engine must land near a from-scratch GRASS
//! sparsification of the final graph in quality, while the drift tracker
//! keeps the cached LRD embedding honest via automatic re-setups.

use ingrass_repro::prelude::*;

#[test]
fn churn_incremental_matches_scratch_condition_number() {
    // Seeds are pinned to the vendored deterministic RNG stream (see
    // vendor/README.md); the comparison below is reproducible bit-for-bit.
    let g0 = grid_2d(26, 26, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, 2);
    let cond_opts = ConditionOptions::default();
    let h0 = GrassSparsifier::default()
        .by_offtree_density(&g0, 0.10)
        .unwrap();
    let target = estimate_condition_number(&g0, &h0.graph, &cond_opts)
        .unwrap()
        .lambda_max;

    // The paper-shaped mixed stream: ~24 % of the off-tree edge count over
    // 10 batches, a quarter deleting, 15 % reweighting (the sizing
    // `ChurnConfig::paper_shaped` defines).
    let stream = ChurnStream::paper_default(&g0, 42);
    assert!(stream.deletes() > 0 && stream.reweights() > 0);
    let g_final = stream.apply_to(&g0).unwrap();

    // Incremental: the operation-log engine under the default drift policy.
    let mut engine = InGrassEngine::setup(&h0.graph, &SetupConfig::default()).unwrap();
    let cfg = UpdateConfig {
        target_condition: target,
        ..Default::default()
    };
    let mut trajectory = ConditionTrajectory::new();
    for (i, batch) in stream.batches().iter().enumerate() {
        let ops = churn_to_update_ops(batch);
        let report = engine.apply_batch(&ops, &cfg).unwrap();
        assert_eq!(report.total_processed(), ops.len());
        trajectory.record_values(i, f64::NAN, f64::NAN, report.resetup.is_some());
    }
    let h_inc = engine.sparsifier_graph();
    let ingrass_lmax = estimate_condition_number(&g_final, &h_inc, &cond_opts)
        .unwrap()
        .lambda_max;

    // The engine restored the user's target within 10 % despite the churn.
    assert!(
        ingrass_lmax <= 1.10 * target,
        "churn inGRASS λmax {ingrass_lmax} misses target {target}"
    );

    // From-scratch setup on the final graph at the *same density budget* as
    // the incrementally maintained sparsifier (apples to apples: GRASS's
    // condition-targeted search may over- or under-shoot density, which
    // would compare selection quality at different sizes).
    let off_final = g_final.num_edges() - (g_final.num_nodes() - 1);
    let d_match = (h_inc.num_edges() - (g_final.num_nodes() - 1)) as f64 / off_final as f64;
    let scratch = GrassSparsifier::default()
        .by_offtree_density(&g_final, d_match)
        .unwrap();
    let scratch_lmax = estimate_condition_number(&g_final, &scratch.graph, &cond_opts)
        .unwrap()
        .lambda_max;

    // Parity: at matched density, the incrementally maintained sparsifier's
    // condition measure stays within 10 % of the from-scratch setup.
    assert!(
        ingrass_lmax <= 1.10 * scratch_lmax,
        "churn inGRASS λmax {ingrass_lmax} vs from-scratch {scratch_lmax} (ratio {:.3})",
        ingrass_lmax / scratch_lmax
    );

    // The sparsifier physically followed the deletions: its edge count
    // stays in the same regime as the from-scratch result instead of
    // growing monotonically like the insert-only path would.
    let density = SparsifierDensity::new(g0.num_nodes());
    let d_inc = density.report_graphs(&h_inc, &g0).off_tree;
    let d_scratch = density.report_graphs(&scratch.graph, &g0).off_tree;
    assert!(
        d_inc <= 1.5 * d_scratch.max(0.05),
        "churn inGRASS density {d_inc} vs from-scratch {d_scratch}"
    );
}

#[test]
fn aggressive_drift_policy_resetups_and_recovers_quality() {
    let g0 = grid_2d(20, 20, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, 5);
    let cond_opts = ConditionOptions::default();
    let h0 = GrassSparsifier::default()
        .by_offtree_density(&g0, 0.10)
        .unwrap();
    let target = estimate_condition_number(&g0, &h0.graph, &cond_opts)
        .unwrap()
        .lambda_max;

    // Heavier deletion mix + a hair-trigger drift policy: the ledger must
    // request at least one automatic re-setup along the way.
    let stream = ChurnStream::generate(
        &g0,
        &ChurnConfig {
            batches: 8,
            ops_per_batch: 30,
            delete_fraction: 0.45,
            reweight_fraction: 0.15,
            seed: 7,
            ..Default::default()
        },
    );
    let setup_cfg = SetupConfig::default().with_drift(DriftPolicy {
        max_deleted_weight_fraction: 0.01,
        max_distortion_fraction: 1e9,
        max_cluster_staleness: u32::MAX,
        auto_resetup: true,
    });
    let mut engine = InGrassEngine::setup(&h0.graph, &setup_cfg).unwrap();
    let cfg = UpdateConfig {
        target_condition: target,
        ..Default::default()
    };
    let g_final = stream.apply_to(&g0).unwrap();
    let mut trajectory = ConditionTrajectory::new();
    for (i, batch) in stream.batches().iter().enumerate() {
        let ops = churn_to_update_ops(batch);
        let report = engine.apply_batch(&ops, &cfg).unwrap();
        let est = estimate_condition_number(&g_final, &engine.sparsifier_graph(), &cond_opts);
        // The evolving sparsifier vs the *final* graph is only meaningful
        // for the trajectory bookkeeping; tolerate estimator failure on
        // intermediate states.
        if let Ok(est) = est {
            trajectory.record(i, &est, report.resetup.is_some());
        } else {
            trajectory.record_values(i, f64::NAN, f64::NAN, report.resetup.is_some());
        }
    }
    assert!(
        engine.resetups() >= 1,
        "hair-trigger drift policy never re-ran setup (ledger: {:?})",
        engine.ledger()
    );
    assert_eq!(trajectory.resetups(), engine.resetups());
    assert!(ingrass_repro::graph::is_connected(
        &engine.sparsifier_graph()
    ));

    // Quality after churn + re-setups stays within the same generous factor
    // the insertion-only comparison uses.
    let lmax = estimate_condition_number(&g_final, &engine.sparsifier_graph(), &cond_opts)
        .unwrap()
        .lambda_max;
    let scratch = GrassSparsifier::default()
        .to_condition(&g_final, target, &cond_opts)
        .unwrap();
    let scratch_lmax = estimate_condition_number(&g_final, &scratch.graph, &cond_opts)
        .unwrap()
        .lambda_max;
    assert!(
        lmax <= 3.0 * scratch_lmax.max(1.0),
        "post-churn λmax {lmax} vs scratch {scratch_lmax}"
    );
}
