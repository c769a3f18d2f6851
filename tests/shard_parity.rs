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
