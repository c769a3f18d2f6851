//! End-to-end and per-layer benchmark of the inGRASS serving stack.
//!
//! One run generates a workload's inputs from its seed, drives the library
//! through its public API only, checks the outputs, and reports either the
//! end-to-end metrics (tracing off) or the per-layer metrics (a traced
//! run).
//!
//! A run generates [`INSTANCES`] independent input instances from its seed
//! and plays *rounds* over them in turn: set up the serving stack, run the
//! instance's fixed request sequence, restart from persisted state. A
//! round does the same work however fast the host is; whole cycles over
//! the instances repeat while the requested seconds last. Latencies are
//! medians and percentiles over every request of the run, throughputs and
//! quality the median over rounds or instances, so one unlucky graph moves
//! a run's figures little.

pub mod common;
pub mod stats;
pub mod trace;

mod serve_edit;
mod serve_read;
mod shard;
mod stream;

use common::Tally;
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;

/// Independent input instances per run.
pub const INSTANCES: usize = 6;

/// Input size: the benchmark's own, or a tiny one for smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark is defined at.
    Full,
    /// Graphs of a few hundred nodes and short rounds.
    Tiny,
}

/// The workloads, by command-line name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The paper's incremental path alone.
    Stream,
    /// Durable interactive edits, each followed by two solves.
    ServeEdit,
    /// Read-heavy solve serving with rare bulk churn.
    ServeRead,
    /// The sharded writer with stitched publishes.
    Shard,
}

impl Kind {
    /// Every workload.
    pub const ALL: [Kind; 4] = [Kind::Stream, Kind::ServeEdit, Kind::ServeRead, Kind::Shard];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Stream => "stream",
            Kind::ServeEdit => "serve-edit",
            Kind::ServeRead => "serve-read",
            Kind::Shard => "shard",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Which workload.
    pub kind: Kind,
    /// Seed of every generated input.
    pub seed: u64,
    /// Seconds to keep starting cycles of rounds for.
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input size.
    pub size: Size,
    /// Scratch directory for stores and the span dump.
    pub work_dir: PathBuf,
}

/// End-to-end metrics: name and unit. Every workload reports all of them.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("write_p50_s", "s"),
    ("write_ops_per_s", "1/s"),
    ("read_p50_s", "s"),
    ("read_p90_s", "s"),
    ("recover_s", "s"),
    ("offtree_density", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Where a per-layer metric comes from.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// Summed self time of the spans with this name, per round.
    SelfTime(&'static str),
    /// A tally counter, per round.
    PerRound,
    /// A tally counter as it stands at the end of the run.
    Final,
    /// A tally counter summed once per instance, averaged.
    PerInstance,
    /// The ratio of two tally counters.
    Ratio(&'static str, &'static str),
    /// Spans recorded per round.
    Spans,
    /// Estimated share of the traced wall spent recording spans.
    Overhead,
}

use Source::{Final, PerInstance, PerRound, Ratio, SelfTime};

/// Per-layer metrics: name, unit, source. Every workload reports all of
/// them; a layer the workload does not reach reads 0.
const PER_LAYER: [(&str, &str, Source); 60] = [
    ("resistance.embed_s", "s", SelfTime("resistance.embed")),
    ("lrd.build_s", "s", SelfTime("lrd.build")),
    ("lrd.levels", "count", Final),
    ("lrd.query_s", "s", SelfTime("lrd.query")),
    ("connectivity.build_s", "s", SelfTime("connectivity.build")),
    ("engine.setup_s", "s", SelfTime("engine.setup")),
    ("engine.update_s", "s", SelfTime("engine.update")),
    ("engine.resetups", "count", PerRound),
    ("engine.resetup_s", "s", SelfTime("engine.resetup")),
    ("engine.included", "count", PerRound),
    ("engine.merged", "count", PerRound),
    ("engine.redistributed", "count", PerRound),
    ("engine.deleted", "count", PerRound),
    ("engine.relinked", "count", PerRound),
    ("engine.vacuous", "count", PerRound),
    ("engine.from_state_s", "s", SelfTime("engine.from_state")),
    ("linalg.initial_factor_s", "s", SelfTime("snapshot.setup")),
    ("linalg.factor_nnz_max", "count", Final),
    ("linalg.factor_nnz_final", "count", Final),
    ("linalg.factor_flops", "flops", Final),
    ("snapshot.apply_s", "s", SelfTime("snapshot.apply_batch")),
    ("snapshot.publish_s", "s", SelfTime("snapshot.publish")),
    ("snapshot.publishes", "count", PerRound),
    ("snapshot.patched", "count", PerRound),
    ("snapshot.refactors", "count", PerRound),
    (
        "snapshot.from_state_s",
        "s",
        SelfTime("snapshot.from_state"),
    ),
    ("solve.submit_s", "s", SelfTime("solve.submit")),
    ("solve.wait_s", "s", PerRound),
    ("solve.drain_s", "s", SelfTime("solve.drain")),
    ("solve.drains", "count", PerRound),
    ("solve.groups", "count", PerRound),
    ("solve.solves", "count", PerRound),
    ("solve.pcg_iters", "count", PerRound),
    (
        "solve.iters_per_solve",
        "count",
        Ratio("solve.pcg_iters", "solve.solves"),
    ),
    ("solve.flops_computed", "flops", PerRound),
    ("solve.bytes_computed", "bytes", PerRound),
    ("store.create_s", "s", SelfTime("store.create")),
    ("store.wal_s", "s", SelfTime("store.apply_batch")),
    ("store.checkpoints", "count", PerRound),
    ("store.wal_bytes", "bytes", PerRound),
    ("store.snapshot_bytes", "bytes", Final),
    ("store.replayed", "count", PerRound),
    ("store.open_s", "s", SelfTime("store.open")),
    ("store.decode_s", "s", SelfTime("store.decode")),
    ("shard.setup_s", "s", SelfTime("shard.setup")),
    ("shard.coord_s", "s", SelfTime("shard.apply_batch")),
    ("shard.fence_s", "s", SelfTime("shard.fence")),
    ("shard.work_s", "s", PerRound),
    ("shard.intra_ops", "count", PerRound),
    ("shard.boundary_ops", "count", PerRound),
    ("shard.imbalance", "ratio", Final),
    ("shard.publish_s", "s", SelfTime("shard.publish")),
    ("shard.from_state_s", "s", SelfTime("shard.from_state")),
    ("quality.kappa", "ratio", Final),
    ("baselines.grass_s", "s", PerInstance),
    ("baselines.speedup_vs_grass", "ratio", PerInstance),
    ("trace.spans", "count", Source::Spans),
    ("trace.overhead_frac", "ratio", Source::Overhead),
    ("bench.rounds", "count", Final),
    ("bench.write_s", "s", PerRound),
];

/// Names of the per-layer metrics, in report order.
pub fn per_layer_names() -> impl Iterator<Item = (&'static str, &'static str)> {
    PER_LAYER.iter().map(|&(name, unit, _)| (name, unit))
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// The result of one run.
#[derive(Debug)]
pub struct Outcome {
    /// Whether every check passed and every metric could be computed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Failed operations and failed checks.
    pub failed: u64,
    /// End-to-end metrics, or per-layer metrics for a traced run.
    pub metrics: Vec<Metric>,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Human-readable summary (self-time table in a traced run).
    pub summary: String,
}

impl Outcome {
    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Runs one workload.
pub fn run(w: &Workload) -> Outcome {
    let mut tr = Tracer::new(w.trace);
    let mut t = Tally::default();
    let ran = match w.kind {
        Kind::Stream => drive(w, &mut tr, &mut t, stream::prepare, stream::round),
        Kind::ServeEdit => drive(w, &mut tr, &mut t, serve_edit::prepare, serve_edit::round),
        Kind::ServeRead => drive(w, &mut tr, &mut t, serve_read::prepare, serve_read::round),
        Kind::Shard => drive(w, &mut tr, &mut t, shard::prepare, shard::round),
    };
    if let Err(e) = ran {
        t.fail(e);
    }
    if w.trace && w.kind == Kind::ServeEdit {
        // The durable apply's layers must add back up to its wall: the
        // engine update and publish the library reports may not exceed it.
        match tr.accounting("store.apply_batch", 1e-5) {
            Ok(summed) => {
                let wall: f64 = t.write.iter().sum();
                t.check((summed - wall).abs() <= 1e-9 * wall, || {
                    format!("layer self times sum to {summed} s, apply walls to {wall} s")
                });
            }
            Err(e) => t.fail(e),
        }
    }
    let (metrics, summary) = if w.trace {
        let summary = layer_table(&tr);
        let dump = w.work_dir.join(format!("trace-{}.jsonl", w.kind.name()));
        if let Err(e) = tr.dump(&dump) {
            t.fail(format!("span dump to {} failed: {e}", dump.display()));
        }
        (per_layer(&tr, &mut t), summary)
    } else {
        let m = end_to_end(&mut t);
        let mut summary = format!(
            "{} rounds, {} writes, {} reads",
            t.rounds,
            t.write.len(),
            t.read.len()
        );
        for m in &m {
            summary.push_str(&format!("\n{:<18} {:>14.6} {}", m.name, m.value, m.unit));
        }
        (m, summary)
    };
    for m in &metrics {
        if !m.value.is_finite() {
            t.fail(format!("metric {} is not finite", m.name));
        }
    }
    let metrics = metrics
        .into_iter()
        .map(|m| Metric {
            value: if m.value.is_finite() { m.value } else { 0.0 },
            ..m
        })
        .collect();
    Outcome {
        correct: t.failed == 0,
        attempted: t.attempted.max(1),
        failed: t.failed,
        metrics,
        failures: t.failures,
        summary,
    }
}

type Prepare<I> = fn(u64, Size) -> Result<I, String>;
type Round<I> = fn(&I, &Workload, &mut Tracer, &mut Tally, Option<usize>) -> Result<(), String>;

/// Generates the instances, then plays whole cycles of rounds over them
/// until the requested seconds are spent. Each instance's first round is
/// told its index, to record the final quality.
fn drive<I>(
    w: &Workload,
    tr: &mut Tracer,
    t: &mut Tally,
    prepare: Prepare<I>,
    round: Round<I>,
) -> Result<(), String> {
    let inputs = (0..INSTANCES as u64)
        .map(|i| prepare(common::Rng::new(w.seed, i).next_u64(), w.size))
        .collect::<Result<Vec<I>, String>>()?;
    let started = Instant::now();
    let mut first = true;
    while first || started.elapsed().as_secs_f64() < w.seconds {
        for (i, input) in inputs.iter().enumerate() {
            let before = (t.write_ops, t.write_wall);
            round(input, w, tr, t, first.then_some(i))?;
            t.rounds += 1;
            t.write_rates
                .push((t.write_ops - before.0) as f64 / (t.write_wall - before.1));
        }
        first = false;
    }
    Ok(())
}

fn end_to_end(t: &mut Tally) -> Vec<Metric> {
    let need = |name: &str, v: Option<f64>, t: &mut Tally| {
        v.unwrap_or_else(|| {
            t.fail(format!("{name}: too few samples"));
            0.0
        })
    };
    let setup = need("setup_s", stats::median(&t.setup), t);
    let write_p50 = need("write_p50_s", stats::median(&t.write), t);
    let read_p50 = need("read_p50_s", stats::median(&t.read), t);
    let read_p90 = need("read_p90_s", stats::percentile(&t.read, 0.90), t);
    let recover = need("recover_s", stats::median(&t.recover), t);
    let rss = need("peak_rss_mb", common::peak_rss_mb(), t);
    let write_rate = need("write_ops_per_s", stats::median(&t.write_rates), t);
    let density = need("offtree_density", stats::median(&t.densities), t);
    let values = [
        setup, write_p50, write_rate, read_p50, read_p90, recover, density, rss,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| {
            if value <= 0.0 {
                t.fail(format!("{name} is {value}; end-to-end metrics are never 0"));
            }
            Metric { name, unit, value }
        })
        .collect()
}

fn per_layer(tr: &Tracer, t: &mut Tally) -> Vec<Metric> {
    let rounds = t.rounds.max(1) as f64;
    t.set("bench.rounds", t.rounds as f64);
    t.set("bench.write_s", t.write.iter().sum());
    let by_name = tr.self_by_name();
    let counter = |k: &str| t.counters.get(k).copied().unwrap_or(0.0);
    PER_LAYER
        .iter()
        .map(|&(name, unit, source)| {
            let value = match source {
                SelfTime(span) => by_name.get(span).map_or(0.0, |e| e.0) / rounds,
                PerRound => counter(name) / rounds,
                Final => counter(name),
                PerInstance => counter(name) / INSTANCES as f64,
                Ratio(a, b) => {
                    let d = counter(b);
                    if d > 0.0 {
                        counter(a) / d
                    } else {
                        0.0
                    }
                }
                Source::Spans => tr.spans().len() as f64 / rounds,
                Source::Overhead => {
                    trace::span_cost_secs() * tr.spans().len() as f64 / tr.root_secs().max(1e-12)
                }
            };
            Metric { name, unit, value }
        })
        .collect()
}

/// Self time per layer, as a table.
fn layer_table(tr: &Tracer) -> String {
    let layers = tr.self_by_layer();
    let total: f64 = layers.values().map(|e| e.0).sum();
    let mut out = format!(
        "{:<14} {:>12} {:>7} {:>9}\n",
        "layer", "self s", "share", "spans"
    );
    for (layer, (secs, count)) in &layers {
        out.push_str(&format!(
            "{:<14} {:>12.6} {:>6.1}% {:>9}\n",
            layer,
            secs,
            100.0 * secs / total.max(1e-12),
            count
        ));
    }
    out.push_str(&format!("{:<14} {:>12.6}", "total", total));
    out
}
