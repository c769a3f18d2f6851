//! `stream`: the paper's own path. `InGrassEngine` set-up on a GRASS
//! initial sparsifier, then a long paper-shaped churn stream in small
//! batches, each followed by a read that screens candidate edges by their
//! estimated spectral distortion. No factor, solver or disk in the loop.

use crate::common::{final_quality, setup_phases, to_ops, Rng, Tally, RESTARTS, SETUPS};
use crate::trace::Tracer;
use crate::{Size, Workload};
use ingrass::{InGrassEngine, SetupConfig, UpdateConfig, UpdateOp};
use ingrass_baselines::GrassSparsifier;
use ingrass_gen::{ChurnConfig, ChurnStream, TestCase};
use ingrass_graph::{Graph, NodeId};
use std::time::Instant;

struct Params {
    scale: f64,
    batches: usize,
    ops_per_batch: usize,
    queries: usize,
}

fn params(size: Size) -> Params {
    match size {
        Size::Full => Params {
            scale: 0.025,
            batches: 3000,
            ops_per_batch: 50,
            queries: 256,
        },
        Size::Tiny => Params {
            scale: 0.001,
            batches: 80,
            ops_per_batch: 10,
            queries: 16,
        },
    }
}

/// `λmax` bound of every instance's final state.
const KAPPA_BOUND: f64 = 60.0;

/// One instance's generated inputs.
pub(crate) struct Input {
    seed: u64,
    queries: usize,
    g0: Graph,
    h0: Graph,
    g_final: Graph,
    batches: Vec<Vec<UpdateOp>>,
    candidates: Vec<(NodeId, NodeId, f64)>,
}

pub(crate) fn prepare(seed: u64, size: Size) -> Result<Input, String> {
    let p = params(size);
    let g0 = TestCase::DelaunayN18.build(p.scale, seed);
    let h0 = GrassSparsifier::default()
        .by_offtree_density(&g0, 0.10)
        .map_err(|e| e.to_string())?
        .graph;
    let churn = ChurnStream::generate(
        &g0,
        &ChurnConfig {
            batches: p.batches,
            ops_per_batch: p.ops_per_batch,
            ..ChurnConfig::paper_shaped(&g0, seed ^ 0x5eed)
        },
    );
    let g_final = churn.apply_to(&g0).map_err(|e| e.to_string())?;
    let n = g0.num_nodes();
    let mut rng = Rng::new(seed, 0xd157);
    let candidates = (0..4096)
        .map(|_| {
            let (u, v) = rng.pair(n);
            (u.into(), v.into(), 0.5 + (rng.below(1000) as f64) / 1000.0)
        })
        .collect();
    Ok(Input {
        seed,
        queries: p.queries,
        batches: churn.batches().iter().map(|b| to_ops(b)).collect(),
        g0,
        h0,
        g_final,
        candidates,
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
    let mut built = Err(String::new());
    for _ in 0..SETUPS {
        drop(built);
        t.attempted += 1;
        tr.open("engine.setup", "engine");
        built = InGrassEngine::setup(&inp.h0, &cfg).map_err(|e| format!("setup: {e}"));
        let c = tr.close();
        t.setup.push(c.secs);
        if let Ok(engine) = &built {
            setup_phases(tr, t, c, engine.setup_report());
        }
    }
    let mut engine = built?;

    let mut next = 0;
    for ops in &inp.batches {
        tr.open("engine.update", "engine");
        let applied = engine.apply_batch(ops, &ucfg);
        let c = tr.close();
        let report = applied.map_err(|e| format!("apply_batch: {e}"))?;
        t.wrote(c, ops.len());
        t.update_counts(&report);
        if report.resetup.is_some() {
            let s = engine.setup_report().total_time.as_secs_f64();
            tr.derived(c, "engine.resetup", "engine", s);
        }

        t.attempted += 1;
        tr.open("lrd.query", "lrd");
        let mut worst = 0.0f64;
        for k in 0..inp.queries {
            let (u, v, wgt) = inp.candidates[(next + k) % inp.candidates.len()];
            worst = worst.max(engine.estimate_distortion(u, v, wgt));
        }
        let c = tr.close();
        next += inp.queries;
        t.read.push(c.secs);
        t.check(worst.is_finite() && worst > 0.0, || {
            format!("distortion screen returned {worst}")
        });
    }

    // Restart from the exported state.
    for _ in 0..RESTARTS {
        let state = engine.export_state();
        t.attempted += 1;
        tr.open("engine.from_state", "engine");
        let restored = InGrassEngine::from_state(state);
        let c = tr.close();
        let restored = restored.map_err(|e| format!("from_state: {e}"))?;
        t.recover.push(c.secs);
        t.check(
            restored.epoch() == engine.epoch()
                && restored.version() == engine.version()
                && restored.updates_applied() == engine.updates_applied()
                && restored.sparsifier().num_edges() == engine.sparsifier().num_edges(),
            || "restored engine differs from the exported one".to_string(),
        );
    }

    if let Some(instance) = first {
        let h = engine.sparsifier_graph();
        final_quality(t, instance, &inp.g_final, &h, KAPPA_BOUND);
        if w.trace {
            baseline(t, inp, &h);
        }
    }
    Ok(())
}

/// The paper's Table II comparison: GRASS re-sparsifying the final graph
/// from scratch at the incremental sparsifier's density, against the
/// incremental update time of one paper-sized update stream.
fn baseline(t: &mut Tally, inp: &Input, h: &Graph) {
    let density = crate::common::offtree_density(h, &inp.g_final).clamp(0.0, 1.0);
    let started = Instant::now();
    let grass = GrassSparsifier::default().by_offtree_density(&inp.g_final, density);
    let grass_s = started.elapsed().as_secs_f64();
    if let Err(e) = grass {
        t.fail(format!("GRASS baseline failed: {e}"));
        return;
    }
    let paper = ChurnConfig::paper_shaped(&inp.g0, inp.seed);
    let paper_ops = (paper.batches * paper.ops_per_batch) as f64;
    let ops: usize = inp.batches.iter().map(Vec::len).sum();
    let round_write_s: f64 = t.write[t.write.len() - inp.batches.len()..].iter().sum();
    t.add("baselines.grass_s", grass_s);
    t.add(
        "baselines.speedup_vs_grass",
        grass_s / (paper_ops * round_write_s / ops as f64),
    );
}
