//! Stress suite for the snapshot-isolated serving layer: reader threads
//! keep solving while a writer replays a long churn stream, and every
//! solve is checked against the Laplacian *of the state it was served
//! from* — the snapshot and the matching original-graph Laplacian are
//! paired under one lock, so an answer is only ever validated against its
//! own epoch.
//!
//! Assertions, per reader-thread solve:
//! * the snapshot's checksum verifies (zero torn snapshots across the run);
//! * snapshot versions observed by one reader never go backwards;
//! * PCG converges and the explicitly recomputed residual
//!   `‖L_G x − b̄‖ / ‖b̄‖` meets tolerance against the served epoch's
//!   Laplacian.
//!
//! The acceptance shape: 4 reader threads + 1 writer over ≥ 200 churn
//! batches, exercised at seeds 42 (default), 7, and 1337 (CI seeds job,
//! `INGRASS_TEST_SEED`), with `INGRASS_THREADS=4` in the concurrency CI
//! step.

use ingrass_repro::linalg::CsrMatrix;
use ingrass_repro::prelude::*;
use ingrass_repro::test_seed;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

const READERS: usize = 4;
const CHURN_BATCHES: usize = 200;
const OPS_PER_BATCH: usize = 4;
/// Explicit residual tolerance: looser than PCG's 1e-8 target so the check
/// pins correctness, not floating-point luck.
const RESIDUAL_TOL: f64 = 1e-6;

/// The snapshot/Laplacian pair of one published state. Swapped atomically
/// (single lock) by the writer; cloned atomically by readers.
#[derive(Clone)]
struct ServedState {
    snap: Arc<SparsifierSnapshot>,
    lap: Arc<CsrMatrix>,
}

fn vec_norm(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// ‖L x − b̄‖ / ‖b̄‖ with b̄ the zero-mean projection of `b` (the system the
/// service actually solves).
fn relative_residual(lap: &CsrMatrix, x: &[f64], b: &[f64]) -> f64 {
    let n = b.len();
    let mean = b.iter().sum::<f64>() / n as f64;
    let projected: Vec<f64> = b.iter().map(|v| v - mean).collect();
    let lx = lap.matvec_alloc(x);
    let r: Vec<f64> = lx.iter().zip(&projected).map(|(a, c)| a - c).collect();
    vec_norm(&r) / vec_norm(&projected).max(f64::MIN_POSITIVE)
}

#[test]
fn four_readers_solve_while_writer_replays_200_churn_batches() {
    let seed = test_seed();
    let g0 = grid_2d(12, 12, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, seed);
    let n = g0.num_nodes();
    let h0 = GrassSparsifier::default()
        .by_offtree_density(&g0, 0.30)
        .expect("solve-grade sparsifier")
        .graph;
    // An eagerish drift policy so the 200-batch run crosses at least one
    // re-setup: old-epoch snapshots must keep serving across it.
    let mut engine = SnapshotEngine::setup(
        &h0,
        &SetupConfig::default()
            .with_seed(seed)
            .with_drift(DriftPolicy {
                max_deleted_weight_fraction: 0.05,
                ..Default::default()
            }),
    )
    .expect("setup");
    let churn = ChurnStream::generate(
        &g0,
        &ChurnConfig {
            batches: CHURN_BATCHES,
            ops_per_batch: OPS_PER_BATCH,
            seed: seed ^ 0xc4a2,
            ..Default::default()
        },
    );
    assert!(churn.batches().len() >= 200, "acceptance floor");

    let state = Mutex::new(ServedState {
        snap: engine.snapshot(),
        lap: Arc::new(g0.laplacian()),
    });
    let done = AtomicBool::new(false);
    let torn = AtomicUsize::new(0);
    let solves = AtomicUsize::new(0);
    let epochs_served: Mutex<BTreeSet<u64>> = Mutex::new(BTreeSet::new());

    let mut publish_versions: Vec<u64> = Vec::new();
    std::thread::scope(|s| {
        // 4 reader threads: each owns a solve service and keeps answering
        // seed-derived terminal-pair requests against whatever state is
        // current. The loop body runs at least once per reader (solve
        // first, check the stop flag after), so every reader contributes.
        for reader in 0..READERS as u64 {
            let (state, done, torn, solves, epochs_served) =
                (&state, &done, &torn, &solves, &epochs_served);
            s.spawn(move || {
                let svc = ConcurrentSolveService::new(SolveConfig::default());
                let mut last_version = 0u64;
                let mut k = 0u64;
                loop {
                    let ServedState { snap, lap } = state.lock().unwrap().clone();
                    // Torn-snapshot check: the CSR arrays still hash to the
                    // checksum computed at publish time.
                    if !snap.verify_checksum() {
                        torn.fetch_add(1, Ordering::Relaxed);
                    }
                    // Publishes are ordered: a reader never observes the
                    // version going backwards.
                    assert!(
                        snap.version() >= last_version,
                        "version went backwards: {} after {}",
                        snap.version(),
                        last_version
                    );
                    last_version = snap.version();

                    let u = (ingrass_par::derive_seed(seed ^ reader, k) % n as u64) as usize;
                    let mut v =
                        (ingrass_par::derive_seed(seed ^ reader, k + 1) % n as u64) as usize;
                    if v == u {
                        v = (v + 1) % n;
                    }
                    let mut b = vec![0.0; n];
                    b[u] = 1.0;
                    b[v] = -1.0;
                    svc.submit(&snap, &lap, b.clone()).expect("snapshot submit");
                    let served = svc.drain().served.pop().expect("one request served");
                    assert!(
                        served.result.converged,
                        "reader {reader} solve diverged at version {}",
                        snap.version()
                    );
                    assert_eq!(served.epoch, snap.epoch());
                    // The residual check that matters: against the
                    // Laplacian of the very state the solve was served
                    // from, not whatever is current by now.
                    let rel = relative_residual(&lap, &served.x, &b);
                    assert!(
                        rel <= RESIDUAL_TOL,
                        "reader {reader}: residual {rel:.3e} at version {} epoch {}",
                        snap.version(),
                        snap.epoch()
                    );
                    solves.fetch_add(1, Ordering::Relaxed);
                    epochs_served.lock().unwrap().insert(snap.epoch());
                    k += 2;
                    if done.load(Ordering::Acquire) {
                        break;
                    }
                }
            });
        }

        // The writer: replay every churn batch, publish, and atomically
        // swap the served state to the new (snapshot, Laplacian) pair.
        let mut g_live = DynGraph::from_graph(&g0);
        for batch in churn.batches() {
            let ops = ingrass_repro::churn_to_update_ops(batch);
            ingrass_repro::core::replay_ops(&mut g_live, &ops).expect("churn stream is consistent");
            let report = engine
                .apply_batch(&ops, &UpdateConfig::default())
                .expect("writer batch");
            let publish = report.publish.expect("non-empty churn batch publishes");
            publish_versions.push(publish.version);
            let fresh = ServedState {
                snap: engine.snapshot(),
                lap: Arc::new(g_live.to_graph().laplacian()),
            };
            *state.lock().unwrap() = fresh;
        }
        done.store(true, Ordering::Release);
    });

    // Zero torn snapshots across every reader observation.
    assert_eq!(torn.load(Ordering::Relaxed), 0, "torn snapshots observed");
    // Every reader ran at least once; collectively they did real work.
    assert!(
        solves.load(Ordering::Relaxed) >= READERS,
        "only {} solves",
        solves.load(Ordering::Relaxed)
    );
    // The writer's publish sequence is strictly increasing (one publish
    // per state-changing batch, ≥ 200 of them).
    assert_eq!(publish_versions.len(), CHURN_BATCHES);
    assert!(publish_versions.windows(2).all(|w| w[0] < w[1]));
    // The drift policy fired at least once, so readers kept serving across
    // a re-setup; every epoch they saw exists on the engine's timeline.
    assert!(
        engine.engine().resetups() >= 1,
        "stream never crossed the drift policy"
    );
    let final_epoch = engine.engine().epoch();
    let seen = epochs_served.lock().unwrap();
    assert!(!seen.is_empty());
    assert!(seen.iter().all(|&e| e <= final_epoch));
}

/// Deterministic (single-threaded) cross-epoch check of the concurrent
/// service: requests admitted against different snapshots are grouped
/// apart, answered with their own epoch's preconditioner, and each answer
/// meets tolerance against its own epoch's Laplacian.
#[test]
fn concurrent_service_answers_each_request_against_its_own_epoch() {
    let seed = test_seed();
    let g0 = grid_2d(10, 10, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, seed);
    let n = g0.num_nodes();
    let h0 = GrassSparsifier::default()
        .by_offtree_density(&g0, 0.30)
        .expect("sparsifier")
        .graph;
    let mut engine = SnapshotEngine::setup(
        &h0,
        &SetupConfig::default()
            .with_seed(seed)
            .with_drift(DriftPolicy::never()),
    )
    .expect("setup");

    // Epoch 0 state.
    let snap_a = engine.snapshot();
    let lap_a = Arc::new(g0.laplacian());

    // Mutate the graph and the engine, then force a new epoch.
    let stream = InsertionStream::generate(
        &g0,
        &StreamConfig {
            batches: 1,
            edges_per_batch: 12,
            seed,
            ..Default::default()
        },
    );
    let mut g_live = DynGraph::from_graph(&g0);
    let ops: Vec<UpdateOp> = stream.batches()[0]
        .iter()
        .map(|&(u, v, weight)| {
            g_live
                .add_edge(u.into(), v.into(), weight)
                .expect("stream edge");
            UpdateOp::Insert { u, v, weight }
        })
        .collect();
    engine
        .apply_batch(&ops, &UpdateConfig::default())
        .expect("batch");
    engine.resetup().expect("forced resetup");
    let snap_b = engine.snapshot();
    let lap_b = Arc::new(g_live.to_graph().laplacian());
    assert_eq!(snap_a.epoch(), 0);
    assert_eq!(snap_b.epoch(), 1);

    let svc = ConcurrentSolveService::new(SolveConfig::default());
    let mk_rhs = |u: usize, v: usize| {
        let mut b = vec![0.0; n];
        b[u] = 1.0;
        b[v] = -1.0;
        b
    };
    // Interleave submissions across the two epochs.
    let requests = [
        (&snap_a, &lap_a, (0usize, n - 1)),
        (&snap_b, &lap_b, (1usize, n / 2)),
        (&snap_a, &lap_a, (2usize, n - 3)),
        (&snap_b, &lap_b, (3usize, n / 3)),
    ];
    for (snap, lap, (u, v)) in &requests {
        svc.submit(snap, lap, mk_rhs(*u, *v)).expect("submit");
    }
    let round = svc.drain();
    assert_eq!(round.groups, 2, "two snapshots → two admission groups");
    assert_eq!(round.served.len(), requests.len());
    assert!(round.all_converged());
    for (served, (snap, lap, (u, v))) in round.served.iter().zip(&requests) {
        assert_eq!(served.epoch, snap.epoch(), "answer mis-tagged");
        assert_eq!(served.version, snap.version());
        let rel = relative_residual(lap, &served.x, &mk_rhs(*u, *v));
        assert!(
            rel <= RESIDUAL_TOL,
            "epoch {} residual {rel:.3e}",
            served.epoch
        );
    }
}
