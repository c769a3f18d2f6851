//! A Laplacian solve server fed by a churning graph — the workload the
//! whole pipeline exists for.
//!
//! A stream of graph edits (inserts, deletes, reweights) arrives in
//! batches; between batches, clients ask for potentials on the *current*
//! graph (`L_G x = b`: voltage drops, commute distances, diffusion
//! states). The inGRASS engine keeps the sparsifier current in `O(log N)`
//! per edit, every batch publishes a snapshot carrying an exact factor of
//! that sparsifier, and a `ConcurrentSolveService` answers each batch's
//! requests with PCG preconditioned by the newest snapshot's factor:
//!
//! * each publish either **patches** the previous factor with rank-1
//!   up/downdates or **refactors** it, as the engine's `FactorPolicy`
//!   decides from the batch size;
//! * when accumulated churn trips the drift policy, the engine re-runs
//!   setup inside the batch, the epoch moves, and that batch's publish
//!   rebuilds the factor for the new epoch.
//!
//! Run with: `cargo run --release --example laplacian_server`

use ingrass_repro::churn_to_update_ops;
use ingrass_repro::prelude::*;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The "production" graph: a mid-sized power-grid stand-in.
    let g0 = power_grid(&PowerGridConfig {
        width: 45,
        height: 45,
        seed: 42,
        ..Default::default()
    });
    let n = g0.num_nodes();
    println!(
        "laplacian_server: |V| = {n}, |E| = {} — churn interleaved with solve requests\n",
        g0.num_edges()
    );

    // Solve-grade sparsifier + engine with an eager drift policy, so the
    // demo shows a mid-stream re-setup (production would churn for much
    // longer before tripping the default 20 % threshold).
    let h0 = GrassSparsifier::default().by_offtree_density(&g0, 0.30)?;
    let mut engine = SnapshotEngine::setup(
        &h0.graph,
        &SetupConfig::default().with_drift(DriftPolicy {
            max_deleted_weight_fraction: 0.004,
            ..Default::default()
        }),
    )?;
    let service = ConcurrentSolveService::new(SolveConfig::default());

    // The churn stream and the live original graph it edits.
    let churn = ChurnStream::paper_default(&g0, 42 ^ 0xc4a2);
    let mut g_live = DynGraph::from_graph(&g0);

    let mut publish_seconds = 0.0;
    println!("batch  ops  epoch  publish  publish-ms  pcg-iters  residual");
    for (i, batch) in churn.batches().iter().enumerate() {
        // 1. The graph changes; the engine follows incrementally and
        // publishes a snapshot of the new state.
        let ops = churn_to_update_ops(batch);
        ingrass_repro::core::replay_ops(&mut g_live, &ops)?;
        let update = engine.apply_batch(&ops, &UpdateConfig::default())?;
        let publish = update.publish.expect("a non-empty batch publishes");
        publish_seconds += publish.publish_seconds;

        // 2. Solve requests against the *current* graph: three
        // terminal-pair injections, drained as one multi-RHS group.
        let l_g = Arc::new(g_live.to_graph().laplacian());
        let snap = engine.snapshot();
        for k in 0..3 {
            let mut b = vec![0.0; n];
            b[(7 * i + k) % n] = 1.0;
            b[(n / 2 + 13 * i + 5 * k) % n] = -1.0;
            service.submit(&snap, &l_g, b)?;
        }
        let (mut max_iterations, mut worst_residual) = (0, 0.0f64);
        for s in service.drain().served {
            max_iterations = max_iterations.max(s.result.iterations);
            worst_residual = worst_residual.max(s.result.residual_norm);
            // The potentials are real answers, not just convergence flags.
            debug_assert!(s.x.iter().all(|v| v.is_finite()));
        }
        println!(
            "{:>5} {:>4} {:>6} {:>8} {:>11.2} {:>10} {:>9.2e}{}",
            i,
            ops.len(),
            snap.epoch(),
            if publish.factor_updated {
                "patch"
            } else {
                "refactor"
            },
            publish.publish_seconds * 1e3,
            max_iterations,
            worst_residual,
            if update.update.resetup.is_some() {
                "   ← drift re-setup this batch"
            } else {
                ""
            },
        );
    }

    let stats = service.stats();
    println!(
        "\nserved {} solves over {} drains: {} total PCG iterations",
        stats.served, stats.drains, stats.iterations_total
    );
    println!(
        "publishes: {} patched, {} refactored (incl. setup), {:.1} ms in churn publishes",
        engine.factor_updates(),
        engine.factor_refactors(),
        publish_seconds * 1e3
    );
    let inner = engine.engine();
    println!(
        "engine: {} epochs ({} drift re-setups), version {}",
        inner.epoch() + 1,
        inner.resetups(),
        inner.version()
    );
    Ok(())
}
