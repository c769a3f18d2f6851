//! `serve-read`: read-heavy serving on a power grid. A `SnapshotEngine`
//! serves closed-loop waves of terminal-pair solves (16 outstanding per
//! drain); every fourth wave is preceded by one bulk churn batch, applied
//! and published. Each round ends with a restart from the encoded serving
//! state.

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
use ingrass_store::codec::{decode_serving, encode_serving};
use std::sync::Arc;

/// Solve waves per round.
const WAVES: usize = 8;
/// Requests outstanding per drain.
const WAVE: usize = 16;
/// Waves per bulk churn batch.
const WAVES_PER_WRITE: usize = 4;
/// Off-tree density of the serving sparsifier: sparse enough that PCG
/// needs on the order of a hundred iterations per solve.
const DENSITY: f64 = 0.10;
/// `λmax` bound of every instance's final state.
const KAPPA_BOUND: f64 = 200.0;

/// One instance's generated inputs.
pub(crate) struct Input {
    seed: u64,
    g0: Graph,
    h: Graph,
    bulk: Vec<Vec<UpdateOp>>,
}

pub(crate) fn prepare(seed: u64, size: Size) -> Result<Input, String> {
    let scale = match size {
        Size::Full => 0.03,
        Size::Tiny => 0.002,
    };
    let g0 = TestCase::G2Circuit.build(scale, seed);
    let h = GrassSparsifier::default()
        .by_offtree_density(&g0, DENSITY)
        .map_err(|e| e.to_string())?
        .graph;
    let churn = ChurnStream::generate(
        &g0,
        &ChurnConfig {
            batches: WAVES / WAVES_PER_WRITE,
            ..ChurnConfig::paper_shaped(&g0, seed ^ 0x9e4d)
        },
    );
    Ok(Input {
        seed,
        bulk: churn.batches().iter().map(|b| to_ops(b)).collect(),
        g0,
        h,
    })
}

pub(crate) fn round(
    inp: &Input,
    _w: &Workload,
    tr: &mut Tracer,
    t: &mut Tally,
    first: Option<usize>,
) -> Result<(), String> {
    let cfg = SetupConfig::default().with_seed(inp.seed);
    let ucfg = UpdateConfig::default();
    let svc = ConcurrentSolveService::new(SolveConfig {
        threads: Some(WIDTH),
        ..SolveConfig::default()
    });
    let n = inp.g0.num_nodes();

    let mut built = Err(String::new());
    for _ in 0..SETUPS {
        drop(built);
        t.attempted += 1;
        tr.open("snapshot.setup", "snapshot");
        built = SnapshotEngine::setup(&inp.h, &cfg).map_err(|e| format!("setup: {e}"));
        let c = tr.close();
        t.setup.push(c.secs);
        if let Ok(engine) = &built {
            let report = engine.engine().setup_report();
            let inner = tr.derived(c, "engine.setup", "engine", report.total_time.as_secs_f64());
            setup_phases(tr, t, inner, report);
        }
    }
    let mut engine = built?;

    let mut g_live = DynGraph::from_graph(&inp.g0);
    let mut lap = Arc::new(inp.g0.laplacian());
    let mut rng = Rng::new(inp.seed, 0x4ead);
    for wave in 0..WAVES {
        if wave % WAVES_PER_WRITE == 0 {
            let ops = &inp.bulk[wave / WAVES_PER_WRITE];
            tr.open("snapshot.apply_batch", "snapshot");
            let applied = engine.apply_batch(ops, &ucfg);
            let c = tr.close();
            let r = applied.map_err(|e| format!("apply_batch: {e}"))?;
            t.wrote(c, ops.len());
            t.update_counts(&r.update);
            let upd = tr.derived(c, "engine.update", "engine", r.update.elapsed.as_secs_f64());
            if r.update.resetup.is_some() {
                let s = engine.engine().setup_report().total_time.as_secs_f64();
                tr.derived(upd, "engine.resetup", "engine", s);
            }
            if let Some(pr) = r.publish {
                tr.derived(c, "snapshot.publish", "snapshot", pr.publish_seconds);
                publish_counts(t, &pr);
            }
            ingrass::replay_ops(&mut g_live, ops).map_err(|e| e.to_string())?;
            lap = Arc::new(g_live.to_graph().laplacian());
            let snap = engine.snapshot();
            t.check(snap.verify_checksum(), || {
                format!("snapshot {} fails its checksum", snap.sequence())
            });
        }
        let snap = engine.snapshot();
        let rhss: Vec<Vec<f64>> = (0..WAVE).map(|_| terminal_rhs(n, &mut rng)).collect();
        serve_wave(tr, t, &svc, &snap, &lap, &rhss);
    }

    let bytes = encode_serving(&engine.export_state());
    let current = engine.snapshot();
    for _ in 0..RESTARTS {
        t.attempted += 1;
        tr.open("store.decode", "store");
        let decoded = decode_serving(&bytes);
        let c1 = tr.close();
        let state = decoded.map_err(|e| format!("decode_serving: {e}"))?;
        tr.open("snapshot.from_state", "snapshot");
        let restored = SnapshotEngine::from_state(state);
        let c2 = tr.close();
        let restored = restored.map_err(|e| format!("from_state: {e}"))?.snapshot();
        t.recover.push(c1.secs + c2.secs);
        t.check(
            current.sequence() == restored.sequence()
                && current.version() == restored.version()
                && restored.verify_checksum(),
            || "restored serving engine differs from the exported one".to_string(),
        );
    }

    if let Some(instance) = first {
        final_quality(
            t,
            instance,
            &g_live.to_graph(),
            current.graph(),
            KAPPA_BOUND,
        );
    }
    Ok(())
}
