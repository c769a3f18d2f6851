//! Parity suite for the sharded multi-writer engine: at a fixed shard
//! count the coordinator must match a single `InGrassEngine` on the
//! quality axis — the final condition number stays within 10 % — while
//! its stitched Schur-complement solves meet the same residual tolerance
//! the mono serving path is held to (`concurrent_serving.rs` uses the
//! identical `1e-6` explicit-residual check), across every churn prefix
//! and at least one re-setup (one is forced at the midpoint; the eager
//! drift policy typically trips more on its own).
//!
//! Runs at seeds 42, 7, and 1337 — the CI seed set — in-process, so a
//! single `cargo test` covers all three.
//!
//! One more case pins load balance: on a shard-skewed churn stream the
//! busiest shard's routed ops stay within twice the mean shard's.

use ingrass_repro::gen::ShardSkew;
use ingrass_repro::linalg::CsrMatrix;
use ingrass_repro::prelude::*;

/// Same explicit residual tolerance the concurrent-serving suite pins:
/// looser than PCG's 1e-8 target so the check is about correctness of the
/// stitched apply, not floating-point luck.
const RESIDUAL_TOL: f64 = 1e-6;
const SHARDS: usize = 4;

fn vec_norm(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// ‖L x − b̄‖ / ‖b̄‖ with b̄ the zero-mean projection of `b` (the system
/// the solve service actually solves).
fn relative_residual(lap: &CsrMatrix, x: &[f64], b: &[f64]) -> f64 {
    let n = b.len();
    let mean = b.iter().sum::<f64>() / n as f64;
    let projected: Vec<f64> = b.iter().map(|v| v - mean).collect();
    let lx = lap.matvec_alloc(x);
    let r: Vec<f64> = lx.iter().zip(&projected).map(|(a, c)| a - c).collect();
    vec_norm(&r) / vec_norm(&projected).max(f64::MIN_POSITIVE)
}

/// Deterministic seed-derived right-hand side (splitmix64 stream).
fn seeded_rhs(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            (z >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
        .collect()
}

fn apply_churn_batch(d: &mut DynGraph, batch: &[ChurnOp]) {
    for op in batch {
        match *op {
            ChurnOp::Insert(u, v, w) => {
                d.add_edge(u.into(), v.into(), w).unwrap();
            }
            ChurnOp::Delete(u, v) => {
                d.remove_edge(u.into(), v.into());
            }
            ChurnOp::Reweight(u, v, w) => {
                if let Some(id) = d.edge_id(u.into(), v.into()) {
                    d.set_weight(id, w).unwrap();
                }
            }
        }
    }
}

fn run_parity(seed: u64) {
    let g0 = grid_2d(20, 20, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, seed);
    let n = g0.num_nodes();
    let h0 = GrassSparsifier::default()
        .by_offtree_density(&g0, 0.30)
        .expect("solve-grade sparsifier")
        .graph;
    let cond_opts = ConditionOptions::default();
    let target = estimate_condition_number(&g0, &h0, &cond_opts)
        .unwrap()
        .lambda_max;

    // Eager-ish drift policy so deletions can trip a re-setup on their own;
    // one more is forced at the midpoint so every seed crosses ≥ 1 epoch
    // boundary regardless.
    let setup_cfg = SetupConfig::default()
        .with_seed(seed)
        .with_drift(DriftPolicy {
            max_deleted_weight_fraction: 0.05,
            ..Default::default()
        });
    let mut mono = InGrassEngine::setup(&h0, &setup_cfg).unwrap();
    let mut sharded = ShardedEngine::setup(
        &h0,
        &setup_cfg,
        &ShardedConfig::default().with_shards(SHARDS),
    )
    .unwrap();
    assert_eq!(sharded.shards(), SHARDS);

    let churn = ChurnStream::generate(
        &g0,
        &ChurnConfig {
            batches: 10,
            ops_per_batch: 24,
            delete_fraction: 0.25,
            reweight_fraction: 0.15,
            seed: seed ^ 0x5AD,
            ..Default::default()
        },
    );
    assert!(churn.deletes() > 0, "the stream must exercise deletions");
    let cfg = UpdateConfig {
        target_condition: target,
        ..Default::default()
    };

    let mut svc = SolveService::new(SolveConfig::default());
    let mut current = DynGraph::from_graph(&g0);
    for (i, batch) in churn.batches().iter().enumerate() {
        let ops = churn_to_update_ops(batch);
        apply_churn_batch(&mut current, batch);
        let mono_report = mono.apply_batch(&ops, &cfg).unwrap();
        assert_eq!(mono_report.total_processed(), ops.len());
        let report = sharded.apply_batch(&ops, &cfg).unwrap();
        assert_eq!(report.batch_size, ops.len());
        assert_eq!(report.intra_ops + report.boundary_ops, ops.len());

        if i == churn.batches().len() / 2 {
            mono.resetup().unwrap();
            sharded.resetup().unwrap();
        }

        // Stitched-solve residual at every churn prefix: publish the
        // sharded state and solve the *current graph's* Laplacian with the
        // stitched Schur-complement preconditioner, exactly as the serving
        // layer would.
        sharded.publish().unwrap();
        let snap = sharded.snapshot();
        assert!(snap.verify_checksum(), "torn sharded snapshot at batch {i}");
        let lap = current.to_graph().laplacian();
        let b = seeded_rhs(n, seed ^ ((i as u64) << 8));
        let (xs, solve_report) = svc
            .solve_batch(&snap, &lap, std::slice::from_ref(&b))
            .expect("stitched snapshot solve");
        assert!(
            solve_report.all_converged(),
            "stitched PCG failed to converge at batch {i}"
        );
        let res = relative_residual(&lap, &xs[0], &b);
        assert!(
            res <= RESIDUAL_TOL,
            "stitched-solve residual {res:.3e} exceeds {RESIDUAL_TOL:.0e} at batch {i} (seed {seed})"
        );
    }
    assert!(
        sharded.epoch() >= 1,
        "the run never crossed a re-setup (seed {seed})"
    );

    // Quality parity on the final state: both sparsifiers are measured
    // against the same churned graph; the sharded union (shard sparsifiers
    // + exact boundary edges) must stay within 10 % of the mono engine.
    let g_final = churn.apply_to(&g0).unwrap();
    let mono_lmax = estimate_condition_number(&g_final, &mono.sparsifier_graph(), &cond_opts)
        .unwrap()
        .lambda_max;
    let assembled = sharded.assembled_graph().unwrap();
    let sharded_lmax = estimate_condition_number(&g_final, &assembled, &cond_opts)
        .unwrap()
        .lambda_max;
    assert!(
        sharded_lmax.is_finite() && sharded_lmax >= 1.0,
        "degenerate sharded condition estimate {sharded_lmax}"
    );
    assert!(
        sharded_lmax <= 1.10 * mono_lmax,
        "sharded λmax {sharded_lmax:.3} vs mono {mono_lmax:.3} (ratio {:.3}, seed {seed})",
        sharded_lmax / mono_lmax
    );
}

#[test]
fn sharded_matches_mono_quality_at_seed_42() {
    run_parity(42);
}

#[test]
fn sharded_matches_mono_quality_at_seed_7() {
    run_parity(7);
}

#[test]
fn sharded_matches_mono_quality_at_seed_1337() {
    run_parity(1337);
}

/// Routed-op imbalance at S = 4 on a shard-skewed stream (a fifth of the
/// intra-shard inserts aimed at one hot shard, 15 % of inserts crossing
/// shards): the busiest shard applies at most twice the mean shard's
/// ops. Counted in ops, so the bar is seed-deterministic.
#[test]
fn skewed_stream_keeps_routed_op_imbalance_within_two() {
    let seed = ingrass_repro::test_seed();
    for case in [
        TestCase::Fe4elt2,
        TestCase::FeSphere,
        TestCase::G2Circuit,
        TestCase::DelaunayN18,
    ] {
        let g0 = case.build(0.01, seed);
        let h0 = GrassSparsifier::default()
            .by_offtree_density(&g0, 0.10)
            .unwrap()
            .graph;
        let mut sharded = ShardedEngine::setup(
            &h0,
            &SetupConfig::default().with_seed(seed),
            &ShardedConfig::default().with_shards(SHARDS),
        )
        .unwrap();
        let skew = ShardSkew {
            labels: sharded.routing().shard_of_slice().to_vec(),
            hot_fraction: 0.2,
            cross_fraction: 0.15,
            hot_label: 0,
        };
        let churn = ChurnStream::generate_with_skew(
            &g0,
            &ChurnConfig::paper_shaped(&g0, seed ^ 0x5a4d),
            &skew,
        );
        for batch in churn.batches() {
            sharded
                .apply_batch(&churn_to_update_ops(batch), &UpdateConfig::default())
                .unwrap();
        }
        let stats = sharded.shard_stats();
        assert!(stats.total_shard_ops > 0, "{}: no shard work", case.name());
        assert!(
            stats.imbalance_ratio <= 2.0,
            "{}: shard work imbalance {:.3} exceeds 2.0 (max {} of {} ops, seed {seed})",
            case.name(),
            stats.imbalance_ratio,
            stats.max_shard_ops,
            stats.total_shard_ops,
        );
    }
}
