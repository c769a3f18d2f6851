//! Stress suite for the sharded engine's epoch-fenced parallel apply
//! running against live snapshot readers: writer threads fan each batch
//! out across the `ingrass-par` pool (the commit protocol of
//! `ShardedEngine::apply_batch`) while [`SnapshotReader`]s keep solving
//! off whatever stitched snapshot is current.
//!
//! Assertions, per reader solve:
//! * the stitched snapshot's checksum verifies (zero torn snapshots even
//!   while per-shard applies run in parallel);
//! * snapshot sequence numbers observed by one reader never go backwards;
//! * PCG converges and the recomputed residual `‖L_G x − b̄‖ / ‖b̄‖` meets
//!   tolerance against the Laplacian *of the exact publish the snapshot
//!   came from* (paired by sequence number, inserted before the publish).
//!
//! The run repeats at fence widths 1 and 4 (`ShardedConfig::threads`) so
//! the single-threaded commit path and the genuinely parallel one face
//! the same readers; the CI seeds job re-runs it at seeds 7 and 1337.

use ingrass_repro::linalg::CsrMatrix;
use ingrass_repro::prelude::*;
use ingrass_repro::test_seed;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

const SHARDS: usize = 4;
const READERS: usize = 2;
const CHURN_BATCHES: usize = 48;
const OPS_PER_BATCH: usize = 8;
/// Looser than PCG's convergence target so the check pins correctness,
/// not floating-point luck.
const RESIDUAL_TOL: f64 = 1e-6;

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

/// One full run at a given fence width: a sharded writer replays the
/// churn stream (publishing after every batch, with one forced mid-run
/// re-setup so readers cross an epoch boundary) while `READERS` threads
/// solve off [`SnapshotReader::current`] the whole time.
fn stress(threads: Option<usize>) {
    let seed = test_seed();
    let g0 = grid_2d(14, 14, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, seed);
    let n = g0.num_nodes();
    let h0 = GrassSparsifier::default()
        .by_offtree_density(&g0, 0.30)
        .expect("solve-grade sparsifier")
        .graph;
    let mut cfg = ShardedConfig::default().with_shards(SHARDS);
    cfg.threads = threads;
    let mut eng =
        ShardedEngine::setup(&h0, &SetupConfig::default().with_seed(seed), &cfg).expect("setup");
    let churn = ChurnStream::generate(
        &g0,
        &ChurnConfig {
            batches: CHURN_BATCHES,
            ops_per_batch: OPS_PER_BATCH,
            delete_fraction: 0.2,
            reweight_fraction: 0.15,
            seed: seed ^ 0x5A4D,
            ..Default::default()
        },
    );

    // Laplacian of the original graph as of each publish, keyed by the
    // snapshot sequence number and inserted *before* the publish — so by
    // the time a reader can observe a sequence, its Laplacian is present.
    let laps: Mutex<HashMap<u64, Arc<CsrMatrix>>> = Mutex::new(HashMap::new());
    laps.lock()
        .unwrap()
        .insert(eng.snapshot().sequence(), Arc::new(g0.laplacian()));
    let reader_handles: Vec<SnapshotReader> = (0..READERS).map(|_| eng.reader()).collect();
    let done = AtomicBool::new(false);
    let torn = AtomicUsize::new(0);
    let solves = AtomicUsize::new(0);

    std::thread::scope(|s| {
        for (reader_id, reader) in reader_handles.iter().enumerate() {
            let (laps, done, torn, solves) = (&laps, &done, &torn, &solves);
            s.spawn(move || {
                let svc = ConcurrentSolveService::new(SolveConfig::default());
                let mut last_sequence = 0u64;
                let mut k = 0u64;
                loop {
                    let snap = reader.current();
                    if !snap.verify_checksum() {
                        torn.fetch_add(1, Ordering::Relaxed);
                    }
                    assert!(
                        snap.sequence() >= last_sequence,
                        "sequence went backwards: {} after {last_sequence}",
                        snap.sequence()
                    );
                    last_sequence = snap.sequence();
                    let lap = Arc::clone(&laps.lock().unwrap()[&snap.sequence()]);

                    let rid = reader_id as u64;
                    let u = (ingrass_par::derive_seed(seed ^ rid, k) % n as u64) as usize;
                    let mut v = (ingrass_par::derive_seed(seed ^ rid, k + 1) % n as u64) as usize;
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
                        "reader {reader_id} diverged at sequence {}",
                        snap.sequence()
                    );
                    let rel = relative_residual(&lap, &served.x, &b);
                    assert!(
                        rel <= RESIDUAL_TOL,
                        "reader {reader_id}: residual {rel:.3e} at sequence {} epoch {}",
                        snap.sequence(),
                        snap.epoch()
                    );
                    solves.fetch_add(1, Ordering::Relaxed);
                    k += 2;
                    if done.load(Ordering::Acquire) {
                        break;
                    }
                }
            });
        }

        // The writer: every batch goes through the fenced parallel apply,
        // then the fresh Laplacian is registered and the stitched
        // snapshot published.
        let mut g_live = DynGraph::from_graph(&g0);
        for (i, batch) in churn.batches().iter().enumerate() {
            let ops = ingrass_repro::churn_to_update_ops(batch);
            ingrass_repro::core::replay_ops(&mut g_live, &ops).expect("churn stream is consistent");
            let report = eng
                .apply_batch(&ops, &UpdateConfig::default())
                .expect("writer batch");
            assert!(report.fence_width >= 1, "fence never ran");
            if i == CHURN_BATCHES / 2 {
                eng.resetup().expect("forced resetup");
            }
            laps.lock()
                .unwrap()
                .insert(eng.publishes() + 1, Arc::new(g_live.to_graph().laplacian()));
            eng.publish().expect("publish");
        }
        done.store(true, Ordering::Release);
    });

    assert_eq!(torn.load(Ordering::Relaxed), 0, "torn snapshots observed");
    assert!(
        solves.load(Ordering::Relaxed) >= READERS,
        "only {} solves",
        solves.load(Ordering::Relaxed)
    );
    assert!(eng.snapshot().epoch() >= 1, "mid-run re-setup never landed");
}

#[test]
fn readers_survive_width_1_fenced_apply() {
    stress(Some(1));
}

#[test]
fn readers_survive_width_4_fenced_apply() {
    stress(Some(4));
}
