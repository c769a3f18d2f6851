//! `serve-edit`: an interactive ECO-style edit loop, closed loop with one
//! client. A durable `PersistentEngine` (default `StorePolicy`: fsync on,
//! checkpoint every 64 batches) applies a small balanced edit and makes it
//! visible; the client then solves two terminal pairs on the published
//! state. Each round ends with a crash (the engine is dropped) and
//! recovery through `PersistentEngine::open`.

use crate::common::{
    final_quality, publish_counts, serve_wave, setup_phases, terminal_rhs, to_ops, Rng, Tally,
    RESTARTS, SETUPS, WIDTH,
};
use crate::trace::Tracer;
use crate::{Size, Workload};
use ingrass::{SetupConfig, SnapshotEngine, UpdateConfig, UpdateOp};
use ingrass_baselines::GrassSparsifier;
use ingrass_gen::{ChurnConfig, ChurnStream, TestCase};
use ingrass_graph::{DynGraph, Graph};
use ingrass_solve::{ConcurrentSolveService, SolveConfig};
use ingrass_store::{codec::encode_batch, snapshot::list_snapshots, PersistentEngine, StorePolicy};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Edits per round. The default policy checkpoints every 64 logged
/// batches, so the crash that ends a round lands right after a checkpoint
/// and recovery restarts from it: the replay path is the live publish
/// path, which the writes already measure, and a replayed tail would make
/// recovery time hinge on which few batches refactor.
const STEPS: usize = 64;
/// Operations per edit. At 3 ops about 70 % of publishes take the rank-1
/// patch tier, so the median write sits inside the patch mode on every
/// seed; at 6 ops the patched share straddles one half and the median
/// jumps between the patch and refactor modes from seed to seed.
const OPS_PER_EDIT: usize = 3;
const SOLVES_PER_STEP: usize = 2;
/// Off-tree density of the solve-grade sparsifier.
const DENSITY: f64 = 0.30;
/// `λmax` bound of every instance's final state.
const KAPPA_BOUND: f64 = 60.0;
/// Frame bytes the WAL adds around each encoded batch: length, checksum,
/// sequence number and record kind.
const WAL_FRAME_BYTES: usize = 4 + 8 + 8 + 1;

/// One instance's generated inputs.
pub(crate) struct Input {
    seed: u64,
    g0: Graph,
    h: Graph,
    edits: Vec<Vec<UpdateOp>>,
}

pub(crate) fn prepare(seed: u64, size: Size) -> Result<Input, String> {
    let scale = match size {
        Size::Full => 0.02,
        Size::Tiny => 0.001,
    };
    let g0 = TestCase::DelaunayN18.build(scale, seed);
    let h = GrassSparsifier::default()
        .by_offtree_density(&g0, DENSITY)
        .map_err(|e| e.to_string())?
        .graph;
    let churn = ChurnStream::generate(
        &g0,
        &ChurnConfig {
            batches: STEPS,
            ops_per_batch: OPS_PER_EDIT,
            delete_fraction: 0.4,
            reweight_fraction: 0.2,
            ..ChurnConfig::paper_shaped(&g0, seed ^ 0xec0)
        },
    );
    Ok(Input {
        seed,
        edits: churn.batches().iter().map(|b| to_ops(b)).collect(),
        g0,
        h,
    })
}

pub(crate) fn round(
    inp: &Input,
    w: &Workload,
    tr: &mut Tracer,
    t: &mut Tally,
    first: Option<usize>,
) -> Result<(), String> {
    let cfg = SetupConfig::default().with_seed(inp.seed);
    let ucfg = UpdateConfig::default();
    let policy = StorePolicy::default();
    let svc = ConcurrentSolveService::new(SolveConfig {
        threads: Some(WIDTH),
        ..SolveConfig::default()
    });
    let n = inp.g0.num_nodes();
    let dir = w
        .work_dir
        .join(format!("serve-edit-{}", std::process::id()));

    let mut store = None;
    for _ in 0..SETUPS {
        drop(store.take());
        let _ = std::fs::remove_dir_all(&dir);
        t.attempted += 1;
        tr.open("snapshot.setup", "snapshot");
        let built = SnapshotEngine::setup(&inp.h, &cfg);
        let c = tr.close();
        let engine = built.map_err(|e| format!("setup: {e}"))?;
        let report = engine.engine().setup_report();
        let inner = tr.derived(c, "engine.setup", "engine", report.total_time.as_secs_f64());
        setup_phases(tr, t, inner, report);
        tr.open("store.create", "store");
        let created = PersistentEngine::create_from(&dir, engine, policy);
        let c2 = tr.close();
        store = Some(created.map_err(|e| format!("create: {e}"))?);
        t.setup.push(c.secs + c2.secs);
    }
    let mut store = store.expect("at least one set-up");

    let mut g_live = DynGraph::from_graph(&inp.g0);
    let mut rng = Rng::new(inp.seed, 0x5e1);
    // Snapshot files present before the first edit are the set-up's own.
    let mut checkpoints: BTreeSet<u64> = list_snapshots(&dir)
        .map_err(|e| e.to_string())?
        .into_iter()
        .map(|(seq, _)| seq)
        .collect();
    for ops in &inp.edits {
        tr.open("store.apply_batch", "store");
        let applied = store.apply_batch(ops, &ucfg);
        let c = tr.close();
        let r = applied.map_err(|e| format!("apply_batch: {e}"))?;
        t.wrote(c, ops.len());
        t.update_counts(&r.update);
        let upd = tr.derived(c, "engine.update", "engine", r.update.elapsed.as_secs_f64());
        if r.update.resetup.is_some() {
            let s = store
                .engine()
                .engine()
                .setup_report()
                .total_time
                .as_secs_f64();
            tr.derived(upd, "engine.resetup", "engine", s);
        }
        if let Some(pr) = r.publish {
            tr.derived(c, "snapshot.publish", "snapshot", pr.publish_seconds);
            publish_counts(t, &pr);
        }
        if tr.enabled() {
            t.add(
                "store.wal_bytes",
                (encode_batch(&ucfg, ops).len() + WAL_FRAME_BYTES) as f64,
            );
            for (seq, path) in list_snapshots(&dir).map_err(|e| e.to_string())? {
                if checkpoints.insert(seq) {
                    t.add("store.checkpoints", 1.0);
                    let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
                    t.set("store.snapshot_bytes", bytes as f64);
                }
            }
        }

        ingrass::replay_ops(&mut g_live, ops).map_err(|e| e.to_string())?;
        let lap = Arc::new(g_live.to_graph().laplacian());
        let snap = store.engine().snapshot();
        t.check(snap.verify_checksum(), || {
            format!("snapshot {} fails its checksum", snap.sequence())
        });
        let rhss: Vec<Vec<f64>> = (0..SOLVES_PER_STEP)
            .map(|_| terminal_rhs(n, &mut rng))
            .collect();
        serve_wave(tr, t, &svc, &snap, &lap, &rhss);
    }

    let wal_seq = store.wal_seq();
    let sequence = store.engine().snapshot().sequence();
    let h_final = store.engine().snapshot().graph().clone();
    drop(store);
    for _ in 0..RESTARTS {
        t.attempted += 1;
        tr.open("store.open", "store");
        let opened = PersistentEngine::open(&dir, policy);
        let c = tr.close();
        let (recovered, report) = opened.map_err(|e| format!("open: {e}"))?;
        t.recover.push(c.secs);
        t.add("store.replayed", report.replayed_batches as f64);
        let snap = recovered.engine().snapshot();
        t.check(
            recovered.wal_seq() == wal_seq && snap.sequence() == sequence,
            || {
                format!(
                "recovered wal_seq {} / sequence {} differ from pre-crash {wal_seq} / {sequence}",
                recovered.wal_seq(),
                snap.sequence()
            )
            },
        );
        t.check(snap.verify_checksum(), || {
            "recovered snapshot fails its checksum".to_string()
        });
    }
    let _ = std::fs::remove_dir_all(&dir);

    if let Some(instance) = first {
        final_quality(t, instance, &g_live.to_graph(), &h_final, KAPPA_BOUND);
    }
    Ok(())
}
