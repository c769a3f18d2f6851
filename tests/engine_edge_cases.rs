//! Engine edge cases around the operation log: same-batch insert+delete,
//! reweight-then-delete, duplicate inserts of carried edges, deletes of
//! never-inserted edges — asserting the ledger counters and sparsifier
//! weights stay consistent through each — and one table of bad inputs
//! that every writer must refuse the same way, without moving.

use ingrass_repro::graph::is_connected;
use ingrass_repro::prelude::*;
use ingrass_repro::test_seed;

fn fixture(side: usize, seed: u64) -> (Graph, InGrassEngine) {
    let g = grid_2d(side, side, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, seed);
    let h0 = GrassSparsifier::default()
        .by_offtree_density(&g, 0.10)
        .expect("initial sparsifier")
        .graph;
    let engine = InGrassEngine::setup(
        &h0,
        &SetupConfig::default()
            .with_seed(seed)
            .with_drift(DriftPolicy::never()),
    )
    .expect("setup");
    (h0, engine)
}

/// A node pair the sparsifier does not carry.
fn non_edge(h: &Graph) -> (usize, usize) {
    let n = h.num_nodes();
    for u in 0..n {
        for v in (u + 1)..n {
            if h.edge_weight(u.into(), v.into()).is_none() {
                return (u, v);
            }
        }
    }
    unreachable!("a 10% off-tree sparsifier is nowhere near complete");
}

#[test]
fn delete_of_edge_inserted_in_the_same_batch() {
    let (h0, mut engine) = fixture(12, test_seed());
    let cfg = UpdateConfig::default();
    let (u, v) = non_edge(&h0);
    let before_w = engine.sparsifier().total_weight();
    let before_e = engine.sparsifier().num_edges();
    // Insert runs are barriers around the delete, so the pair is processed
    // in order: the insert lands (include/merge/redistribute), then the
    // delete undoes whatever physical edge the pair carries — or is
    // vacuous if the weight was absorbed elsewhere.
    let r = engine
        .apply_batch(
            &[
                UpdateOp::Insert { u, v, weight: 3.0 },
                UpdateOp::Delete { u, v },
            ],
            &cfg,
        )
        .expect("batch");
    assert_eq!(r.total_processed(), 2);
    assert_eq!(engine.ledger().inserts(), 1);
    assert_eq!(engine.ledger().deletes() + engine.ledger().vacuous(), 1);
    // No edge-count growth may survive the rip-down.
    assert_eq!(engine.sparsifier().num_edges(), before_e);
    // Weight accounting: everything the insert added beyond what the
    // delete removed stayed inside the sparsifier (merge/redistribute keep
    // absorbed weight), and nothing went negative.
    let after_w = engine.sparsifier().total_weight();
    assert!(
        after_w >= before_w - 1e-9 && after_w <= before_w + 3.0 + 1e-9,
        "weight drifted out of bounds: {before_w} → {after_w}"
    );
    assert!(is_connected(&engine.sparsifier_graph()));
}

#[test]
fn reweight_then_delete_removes_the_new_weight() {
    let (h0, mut engine) = fixture(12, test_seed() ^ 1);
    let cfg = UpdateConfig::default();
    let e = h0.edges()[2];
    let (u, v) = (e.u.index(), e.v.index());
    let before_w = engine.sparsifier().total_weight();
    let r = engine
        .apply_batch(
            &[
                UpdateOp::Reweight {
                    u,
                    v,
                    weight: e.weight * 4.0,
                },
                UpdateOp::Delete { u, v },
            ],
            &cfg,
        )
        .expect("batch");
    assert_eq!(r.reweighted, 1);
    assert_eq!(r.deleted + r.relinked, 1, "{r:?}");
    assert_eq!(engine.ledger().reweights(), 1);
    assert_eq!(engine.ledger().deletes(), 1);
    // The deletion removed the *reweighted* edge: total weight dropped by
    // at least part of the original weight and never more than the full
    // reweighted value (a bridge re-link may leave a small replacement).
    let after_w = engine.sparsifier().total_weight();
    assert!(
        after_w < before_w + e.weight * 3.0 + 1e-9,
        "reweight survived its own deletion: {before_w} → {after_w}"
    );
    assert!(engine.sparsifier().edge_weight(e.u, e.v).is_none() || r.relinked == 1);
    assert!(is_connected(&engine.sparsifier_graph()));
    // Drift saw both stale operations.
    assert_eq!(engine.ledger().drift().stale_ops(), 2);
}

#[test]
fn duplicate_insert_of_existing_sparsifier_edge_accumulates_weight() {
    let (h0, mut engine) = fixture(12, test_seed() ^ 2);
    let cfg = UpdateConfig::default();
    let e = h0.edges()[5];
    let (u, v) = (e.u.index(), e.v.index());
    let before_total = engine.sparsifier().total_weight();
    let r = engine
        .apply_batch(&[UpdateOp::Insert { u, v, weight: 1.25 }], &cfg)
        .expect("batch");
    assert_eq!(r.total_processed(), 1);
    assert_eq!(engine.ledger().inserts(), 1);
    // The logical edge count must not change (the pair already exists);
    // the new weight lands somewhere inside the sparsifier.
    assert_eq!(engine.sparsifier().num_edges(), h0.num_edges());
    let after_total = engine.sparsifier().total_weight();
    assert!(
        (after_total - before_total - 1.25).abs() < 1e-9,
        "duplicate insert weight leaked: Δ = {}",
        after_total - before_total
    );
    // Deleting the pair afterwards must only remove the edge's original
    // share — absorbed weight is re-injected, not dropped.
    if engine.sparsifier().edge_weight(e.u, e.v).is_some() {
        let before_del = engine.sparsifier().total_weight();
        let r = engine
            .apply_batch(&[UpdateOp::Delete { u, v }], &cfg)
            .expect("delete");
        assert_eq!(r.deleted + r.relinked, 1);
        let after_del = engine.sparsifier().total_weight();
        let removed = before_del - after_del;
        assert!(
            removed <= e.weight + 1e-9,
            "delete removed {removed}, more than the original weight {}",
            e.weight
        );
    }
}

#[test]
fn delete_of_never_inserted_edge_is_vacuous_but_counted() {
    let (h0, mut engine) = fixture(10, test_seed() ^ 3);
    let cfg = UpdateConfig::default();
    let (u, v) = non_edge(&h0);
    let before_w = engine.sparsifier().total_weight();
    let before_e = engine.sparsifier().num_edges();
    let r = engine
        .apply_batch(&[UpdateOp::Delete { u, v }], &cfg)
        .expect("batch");
    assert_eq!(r.vacuous, 1);
    assert_eq!(r.deleted, 0);
    assert_eq!(engine.ledger().vacuous(), 1);
    assert_eq!(engine.ledger().deletes(), 0);
    // Physically nothing changed…
    assert_eq!(engine.sparsifier().num_edges(), before_e);
    assert_eq!(engine.sparsifier().total_weight(), before_w);
    // …but the staleness accounting still recorded the churn.
    assert_eq!(engine.ledger().drift().stale_ops(), 1);
    assert!(engine.ledger().staleness().max_staleness() >= 1);
}

#[test]
fn ledger_counters_close_over_a_mixed_gauntlet() {
    let (h0, mut engine) = fixture(12, test_seed() ^ 4);
    let cfg = UpdateConfig::default();
    let e0 = h0.edges()[0];
    let e1 = h0.edges()[1];
    let (a, b) = non_edge(&h0);
    let ops = vec![
        UpdateOp::Insert {
            u: a,
            v: b,
            weight: 2.0,
        },
        UpdateOp::Delete {
            u: e0.u.index(),
            v: e0.v.index(),
        },
        UpdateOp::Reweight {
            u: e1.u.index(),
            v: e1.v.index(),
            weight: e1.weight * 0.5,
        },
        UpdateOp::Delete { u: a, v: b },
        UpdateOp::Reweight {
            u: a,
            v: b,
            weight: 1.0,
        },
    ];
    let r = engine.apply_batch(&ops, &cfg).expect("gauntlet");
    assert_eq!(r.total_processed(), ops.len());
    let ledger = engine.ledger();
    assert_eq!(ledger.inserts(), 1);
    // Every op is accounted exactly once across the physical/vacuous split.
    assert_eq!(
        ledger.deletes() + ledger.reweights() + ledger.vacuous(),
        ops.len() - 1
    );
    assert_eq!(engine.updates_applied(), ops.len());
    assert!(is_connected(&engine.sparsifier_graph()));
    // Version hook: one non-empty batch = one version bump, same epoch.
    assert_eq!(engine.version(), 1);
    assert_eq!(engine.epoch(), 0);
}

/// One table of bad inputs, driven through the three writers: the
/// in-memory engine, the sharded engine (S = 2) and the durable store.
/// Each writer refuses each entry with the same error (the store wraps it
/// in `StoreError::Engine`) and moves nothing: no version, no applied-op
/// count, no WAL record. Every bad op follows a good one, so a writer that
/// applied part of a batch would show it.
#[test]
fn every_writer_refuses_bad_input_the_same_way_and_stays_put() {
    let seed = test_seed() ^ 5;
    let (h0, mut mono) = fixture(8, seed);
    let setup = SetupConfig::default()
        .with_seed(seed)
        .with_drift(DriftPolicy::never());
    let mut sharded = ShardedEngine::setup(&h0, &setup, &ShardedConfig::default().with_shards(2))
        .expect("sharded setup");
    let dir = std::env::temp_dir().join(format!("ingrass-bad-input-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store =
        PersistentEngine::create(&dir, &h0, &setup, StorePolicy::default()).expect("store");

    let n = h0.num_nodes();
    let insert = |u, v, weight| UpdateOp::Insert { u, v, weight };
    let reweight = |u, v, weight| UpdateOp::Reweight { u, v, weight };
    let good = insert(0, n - 1, 1.0);
    let ok = UpdateConfig::default();
    let loose = UpdateConfig::default().with_target_condition(1.9);
    let nan_target = UpdateConfig::default().with_target_condition(f64::NAN);
    let table = [
        ("NaN weight", vec![good, insert(0, 1, f64::NAN)], &ok),
        ("+inf weight", vec![good, insert(0, 1, f64::INFINITY)], &ok),
        (
            "-inf weight",
            vec![good, reweight(0, 1, f64::NEG_INFINITY)],
            &ok,
        ),
        ("zero weight", vec![good, insert(0, 1, 0.0)], &ok),
        ("negative weight", vec![good, reweight(0, 1, -1.0)], &ok),
        (
            "out-of-range id",
            vec![good, UpdateOp::Delete { u: 0, v: n }],
            &ok,
        ),
        ("self-loop", vec![good, insert(3, 3, 1.0)], &ok),
        ("target_condition 1.9", vec![good], &loose),
        ("target_condition NaN", vec![good], &nan_target),
    ];
    for (case, ops, cfg) in table {
        let config_error = cfg.target_condition.is_nan() || cfg.target_condition < 2.0;
        let (version, applied) = (mono.version(), mono.updates_applied());
        let err = mono.apply_batch(&ops, cfg).expect_err(case);
        assert_eq!(
            matches!(err, InGrassError::InvalidConfig(_)),
            config_error,
            "{case}: {err}"
        );
        assert!(
            config_error || matches!(err, InGrassError::Graph(_)),
            "{case}"
        );
        assert_eq!((mono.version(), mono.updates_applied()), (version, applied));

        let (version, applied) = (sharded.version(), sharded.updates_applied());
        let sharded_err = sharded.apply_batch(&ops, cfg).expect_err(case);
        assert_eq!(sharded_err, err, "{case}: sharded engine");
        assert_eq!(
            (sharded.version(), sharded.updates_applied()),
            (version, applied)
        );

        let live = store.engine().engine();
        let (version, applied, wal_seq) = (live.version(), live.updates_applied(), store.wal_seq());
        match store.apply_batch(&ops, cfg) {
            Err(StoreError::Engine(store_err)) => assert_eq!(store_err, err, "{case}: store"),
            other => panic!("{case}: store returned {other:?}"),
        }
        let live = store.engine().engine();
        assert_eq!(
            (live.version(), live.updates_applied(), store.wal_seq()),
            (version, applied, wal_seq),
            "{case}: store"
        );
    }
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}
