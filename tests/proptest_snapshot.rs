//! Property suite for the snapshot layer: over random interleavings of
//! `apply_batch` / `snapshot` / `solve`, published snapshots stay
//! internally consistent, their `(epoch, version, sequence)` tags are
//! monotone, old snapshots keep answering exactly after drift-triggered
//! re-setups, and dropped snapshots free their factors.

use ingrass_repro::linalg::{pcg, CgOptions};
use ingrass_repro::prelude::*;
use ingrass_repro::{churn_to_update_ops, test_seed};
use proptest::prelude::*;
use std::sync::Arc;

fn fixture(seed: u64, drift: DriftPolicy) -> (Graph, SnapshotEngine, ChurnStream) {
    let g = grid_2d(10, 10, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, seed);
    let h0 = GrassSparsifier::default()
        .by_offtree_density(&g, 0.25)
        .expect("sparsifier")
        .graph;
    let engine = SnapshotEngine::setup(
        &h0,
        &SetupConfig::default().with_seed(seed).with_drift(drift),
    )
    .expect("setup");
    let churn = ChurnStream::generate(
        &g,
        &ChurnConfig {
            batches: 24,
            ops_per_batch: 6,
            seed: seed ^ 0xc0de,
            ..Default::default()
        },
    );
    (g, engine, churn)
}

/// Solves the snapshot's *own* Laplacian with its own factor: must take at
/// most 2 PCG iterations (the factor is exact for that state) and meet
/// tolerance.
fn assert_snapshot_self_consistent(snap: &SparsifierSnapshot) {
    assert!(snap.verify_checksum(), "torn/corrupted snapshot");
    let n = snap.num_nodes();
    let mut b = vec![0.0; n];
    b[n / 4] = 1.0;
    b[(3 * n) / 4] = -1.0;
    let ones = vec![1.0; n];
    let mut x = vec![0.0; n];
    let res = pcg(
        &snap.graph().laplacian(),
        &b,
        &mut x,
        snap.preconditioner(),
        Some(&ones),
        &CgOptions::default(),
    );
    assert!(res.converged, "self-solve diverged: {res:?}");
    assert!(
        res.iterations <= 2,
        "factor not exact for its own state: {} iterations (version {})",
        res.iterations,
        snap.version()
    );
    // Sanity of the resistance surface on the same frozen state.
    let r = snap.effective_resistance((n / 4).into(), ((3 * n) / 4).into());
    assert!((r - (x[n / 4] - x[(3 * n) / 4])).abs() < 1e-8);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random interleavings of writer batches, snapshot grabs, and solves:
    /// tags are monotone (same-sequence grabs are the same `Arc`), every
    /// grabbed snapshot is internally consistent at grab time AND at the
    /// end of the run (nothing the writer did later mutated it).
    #[test]
    fn prop_interleavings_publish_monotone_consistent_snapshots(
        case_seed in 0u64..1000,
        script in proptest::collection::vec(0u8..3, 4..24),
    ) {
        let seed = test_seed() ^ case_seed;
        let (_g, mut engine, churn) = fixture(seed, DriftPolicy::default());
        let ucfg = UpdateConfig::default();
        let mut batches = churn.batches().iter().cycle();
        let mut held: Vec<Arc<SparsifierSnapshot>> = vec![engine.snapshot()];

        for action in script {
            match action {
                0 => {
                    let ops = churn_to_update_ops(batches.next().expect("cycled"));
                    let report = engine.apply_batch(&ops, &ucfg).expect("batch");
                    if !ops.is_empty() {
                        let p = report.publish.expect("state changed, must publish");
                        prop_assert_eq!(p.version, engine.engine().version());
                    }
                }
                1 => {
                    let snap = engine.snapshot();
                    // The tag equals the engine state at grab time.
                    prop_assert_eq!(snap.version(), engine.engine().version());
                    prop_assert_eq!(snap.epoch(), engine.engine().epoch());
                    held.push(snap);
                }
                _ => {
                    let snap = held.last().expect("setup snapshot always held");
                    assert_snapshot_self_consistent(snap);
                }
            }
        }

        // Monotonicity across everything grabbed, in grab order; equal
        // sequence numbers mean literally the same snapshot.
        for w in held.windows(2) {
            prop_assert!(w[1].sequence() >= w[0].sequence());
            prop_assert!(w[1].version() >= w[0].version());
            prop_assert!(w[1].epoch() >= w[0].epoch());
            if w[1].sequence() == w[0].sequence() {
                prop_assert!(Arc::ptr_eq(&w[0], &w[1]));
            }
        }
        // Old snapshots survived whatever the writer did afterwards.
        for snap in &held {
            assert_snapshot_self_consistent(snap);
        }
    }

    /// A snapshot grabbed before a drift-triggered re-setup keeps serving
    /// exactly for its own (old-epoch) state, while new publishes carry
    /// the new epoch.
    #[test]
    fn prop_old_snapshots_stay_valid_after_drift_resetup(
        case_seed in 0u64..1000,
    ) {
        let seed = test_seed() ^ case_seed.rotate_left(11);
        // Eager policy: deletions cross the threshold quickly.
        let (_g, mut engine, churn) = fixture(
            seed,
            DriftPolicy {
                max_deleted_weight_fraction: 0.02,
                ..Default::default()
            },
        );
        let old = engine.snapshot();
        prop_assert_eq!(old.epoch(), 0);

        let ucfg = UpdateConfig::default();
        let mut resetup_seen = false;
        for batch in churn.batches() {
            let report = engine
                .apply_batch(&churn_to_update_ops(batch), &ucfg)
                .expect("batch");
            if report.update.resetup.is_some() {
                resetup_seen = true;
                break;
            }
        }
        if !resetup_seen {
            // Deletion mix can be starved for extreme seeds; the epoch
            // transition under test is the same either way.
            engine.resetup().expect("forced resetup");
        }
        let new = engine.snapshot();
        prop_assert!(new.epoch() > old.epoch());
        prop_assert!(new.version() > old.version());

        // The old epoch's view is fully intact and still exact.
        prop_assert_eq!(old.epoch(), 0);
        assert_snapshot_self_consistent(&old);
        assert_snapshot_self_consistent(&new);
    }

    /// Dropping every handle to an unpublished snapshot frees it (and its
    /// factor) even while the engine keeps publishing.
    #[test]
    fn prop_dropped_snapshots_free_their_factors(
        case_seed in 0u64..1000,
        publishes in 1usize..5,
    ) {
        let seed = test_seed() ^ case_seed.rotate_left(23);
        let (_g, mut engine, churn) = fixture(seed, DriftPolicy::never());
        let ucfg = UpdateConfig::default();

        let mut weaks = Vec::new();
        let mut batches = churn.batches().iter().cycle();
        for _ in 0..publishes {
            let snap = engine.snapshot();
            weaks.push(Arc::downgrade(&snap));
            drop(snap);
            // Still alive: the cell references it as current.
            prop_assert!(weaks.last().unwrap().upgrade().is_some());
            engine
                .apply_batch(&churn_to_update_ops(batches.next().expect("cycled")), &ucfg)
                .expect("batch");
        }
        // Every superseded snapshot is gone; only the current one lives.
        for (i, weak) in weaks.iter().enumerate() {
            prop_assert!(
                weak.upgrade().is_none(),
                "superseded snapshot {i} still alive"
            );
        }
        let current = engine.snapshot();
        let weak_current = Arc::downgrade(&current);
        drop(current);
        prop_assert!(weak_current.upgrade().is_some(), "current must stay published");
    }
}
