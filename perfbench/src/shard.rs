//! `shard`: the sharded writer. `ShardedEngine` with four shards fenced at
//! width 2 applies shard-skewed churn in small batches and publishes a
//! stitched snapshot every ten batches; each publish is read back by
//! stitched solves. Each round ends with a restart from the encoded
//! sharded state.

use crate::common::{
    final_quality, serve_wave, terminal_rhs, to_ops, Rng, Tally, RESTARTS, SETUPS, WIDTH,
};
use crate::trace::Tracer;
use crate::{Size, Workload};
use ingrass::{SetupConfig, ShardedConfig, ShardedEngine, UpdateConfig, UpdateOp};
use ingrass_baselines::GrassSparsifier;
use ingrass_gen::{ChurnConfig, ChurnStream, ShardSkew, TestCase};
use ingrass_graph::{DynGraph, Graph};
use ingrass_solve::{ConcurrentSolveService, SolveConfig};
use ingrass_store::codec::{decode_sharded, encode_sharded};
use std::sync::Arc;

const SHARDS: usize = 4;
const OPS_PER_BATCH: usize = 20;
const BATCHES_PER_PUBLISH: usize = 10;
/// `λmax` bound of every instance's final state.
const KAPPA_BOUND: f64 = 300.0;

/// One instance's generated inputs.
pub(crate) struct Input {
    seed: u64,
    reads_per_publish: usize,
    g0: Graph,
    h0: Graph,
    batches: Vec<Vec<UpdateOp>>,
}

fn shard_config() -> ShardedConfig {
    ShardedConfig::default()
        .with_shards(SHARDS)
        .with_threads(Some(WIDTH))
}

pub(crate) fn prepare(seed: u64, size: Size) -> Result<Input, String> {
    let (scale, batches, reads_per_publish) = match size {
        Size::Full => (0.02, 100, 4),
        Size::Tiny => (0.001, 60, 12),
    };
    let g0 = TestCase::DelaunayN18.build(scale, seed);
    let h0 = GrassSparsifier::default()
        .by_offtree_density(&g0, 0.10)
        .map_err(|e| e.to_string())?
        .graph;
    // The skew follows the engine's own routing, so "hot shard" and
    // "cross-shard" mean what the coordinator will see.
    let labels = ShardedEngine::setup(
        &h0,
        &SetupConfig::default().with_seed(seed),
        &shard_config(),
    )
    .map_err(|e| format!("setup: {e}"))?
    .routing()
    .shard_of_slice()
    .to_vec();
    let churn = ChurnStream::generate_with_skew(
        &g0,
        &ChurnConfig {
            batches,
            ops_per_batch: OPS_PER_BATCH,
            ..ChurnConfig::paper_shaped(&g0, seed ^ 0x5a4d)
        },
        &ShardSkew {
            labels,
            hot_fraction: 0.2,
            cross_fraction: 0.15,
            hot_label: 0,
        },
    );
    Ok(Input {
        seed,
        reads_per_publish,
        batches: churn.batches().iter().map(|b| to_ops(b)).collect(),
        g0,
        h0,
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
        tr.open("shard.setup", "shard");
        built =
            ShardedEngine::setup(&inp.h0, &cfg, &shard_config()).map_err(|e| format!("setup: {e}"));
        t.setup.push(tr.close().secs);
    }
    let mut engine = built?;

    let mut g_live = DynGraph::from_graph(&inp.g0);
    let mut rng = Rng::new(inp.seed, 0x54a6);
    for (i, ops) in inp.batches.iter().enumerate() {
        tr.open("shard.apply_batch", "shard");
        let applied = engine.apply_batch(ops, &ucfg);
        let c = tr.close();
        let r = applied.map_err(|e| format!("apply_batch: {e}"))?;
        t.wrote(c, ops.len());
        tr.derived(c, "shard.fence", "shard", r.parallel_wall_s);
        for rep in r.shard_reports.iter().flatten() {
            t.update_counts(rep);
            t.add("shard.work_s", rep.elapsed.as_secs_f64());
        }
        if r.resetup.is_some() {
            t.add("engine.resetups", 1.0);
        }
        t.add("shard.intra_ops", r.intra_ops as f64);
        t.add("shard.boundary_ops", r.boundary_ops as f64);
        ingrass::replay_ops(&mut g_live, ops).map_err(|e| e.to_string())?;

        if i % BATCHES_PER_PUBLISH == BATCHES_PER_PUBLISH - 1 {
            t.attempted += 1;
            tr.open("shard.publish", "shard");
            let published = engine.publish();
            let c = tr.close();
            let pr = published.map_err(|e| format!("publish: {e}"))?;
            t.write_wall += c.secs;
            t.add("snapshot.publishes", 1.0);
            t.max("linalg.factor_nnz_max", pr.factor_nnz as f64);
            t.set("linalg.factor_nnz_final", pr.factor_nnz as f64);
            t.set("linalg.factor_flops", pr.factor_flops);
            if let Some(stats) = pr.shard {
                t.set("shard.imbalance", stats.imbalance_ratio);
            }
            let snap = engine.snapshot();
            t.check(snap.verify_checksum(), || {
                format!("stitched snapshot {} fails its checksum", snap.sequence())
            });
            let lap = Arc::new(g_live.to_graph().laplacian());
            let rhss: Vec<Vec<f64>> = (0..inp.reads_per_publish)
                .map(|_| terminal_rhs(n, &mut rng))
                .collect();
            serve_wave(tr, t, &svc, &snap, &lap, &rhss);
        }
    }

    let bytes = encode_sharded(&engine.export_state());
    for _ in 0..RESTARTS {
        t.attempted += 1;
        tr.open("store.decode", "store");
        let decoded = decode_sharded(&bytes);
        let c1 = tr.close();
        let state = decoded.map_err(|e| format!("decode_sharded: {e}"))?;
        tr.open("shard.from_state", "shard");
        let restored = ShardedEngine::from_state(state);
        let c2 = tr.close();
        let restored = restored.map_err(|e| format!("from_state: {e}"))?;
        t.recover.push(c1.secs + c2.secs);
        t.check(
            restored.epoch() == engine.epoch()
                && restored.version() == engine.version()
                && restored.updates_applied() == engine.updates_applied(),
            || "restored sharded engine differs from the exported one".to_string(),
        );
    }

    if let Some(instance) = first {
        final_quality(
            t,
            instance,
            &g_live.to_graph(),
            engine.snapshot().graph(),
            KAPPA_BOUND,
        );
    }
    Ok(())
}
