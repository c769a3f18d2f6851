//! Shared harness for the paper-reproduction benchmark binaries.
//!
//! One binary per table/figure of the paper's evaluation section:
//!
//! | binary | reproduces | run |
//! |---|---|---|
//! | `table1` | Table I — GRASS time vs inGRASS setup time | `cargo run -p ingrass-bench --release --bin table1` |
//! | `table2` | Table II — 10-iteration update comparison | `cargo run -p ingrass-bench --release --bin table2` |
//! | `table3` | Table III — robustness across initial densities | `cargo run -p ingrass-bench --release --bin table3` |
//! | `fig4`   | Fig. 4 — runtime scalability (CSV series) | `cargo run -p ingrass-bench --release --bin fig4` |
//! | `ablation` | ours — tree/selection/backend quality ablations | `cargo run -p ingrass-bench --release --bin ablation` |
//! | `compare` | ours — paired perfbench runs of two builds, judged against `BENCHMARK.json` | `cargo run -p ingrass-bench --release --bin compare -- --base <bin> --head <bin>` |
//!
//! The table/figure binaries accept `--scale <f64>` (graph size as a
//! fraction of the paper's |V|, default 1/200), `--seed <u64>`, and
//! `--cases <csv names>`. `compare` takes two perfbench binaries plus
//! `--pairs` and `--seed` — see its module docs.

pub mod json;

use ingrass::{InGrassEngine, SetupConfig, UpdateConfig};
use ingrass_baselines::{random_update_to_condition, GrassSparsifier};
use ingrass_gen::{paper_suite, InsertionStream, TestCase};
use ingrass_graph::{DynGraph, Graph};
use ingrass_metrics::{estimate_condition_number, ConditionOptions, SparsifierDensity};
use std::time::Instant;

/// Command-line options shared by the table binaries.
#[derive(Debug, Clone)]
pub struct HarnessOptions {
    /// Graph size as a fraction of the paper's node counts.
    pub scale: f64,
    /// Master seed.
    pub seed: u64,
    /// Which suite cases to run.
    pub cases: Vec<TestCase>,
    /// Initial off-tree density of `H(0)`.
    pub initial_density: f64,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        HarnessOptions {
            scale: 1.0 / 200.0,
            seed: 42,
            cases: paper_suite(),
            initial_density: 0.10,
        }
    }
}

impl HarnessOptions {
    /// Parses `--scale`, `--seed`, `--cases`, `--density` from the process
    /// arguments (no external CLI dependency).
    ///
    /// # Panics
    /// Panics with a usage message on malformed arguments.
    pub fn from_args() -> Self {
        let mut opts = HarnessOptions::default();
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--scale" => {
                    opts.scale = args
                        .get(i + 1)
                        .and_then(|s| s.parse().ok())
                        .expect("--scale requires a positive number");
                    i += 2;
                }
                "--seed" => {
                    opts.seed = args
                        .get(i + 1)
                        .and_then(|s| s.parse().ok())
                        .expect("--seed requires an integer");
                    i += 2;
                }
                "--density" => {
                    opts.initial_density = args
                        .get(i + 1)
                        .and_then(|s| s.parse().ok())
                        .expect("--density requires a number in (0,1)");
                    i += 2;
                }
                "--cases" => {
                    let list = args.get(i + 1).expect("--cases requires a csv list");
                    opts.cases = paper_suite()
                        .into_iter()
                        .filter(|c| list.split(',').any(|n| n.eq_ignore_ascii_case(c.name())))
                        .collect();
                    assert!(!opts.cases.is_empty(), "no cases matched {list}");
                    i += 2;
                }
                other => {
                    panic!("unknown argument {other} (expected --scale/--seed/--cases/--density)")
                }
            }
        }
        opts
    }
}

/// Everything measured for one suite case over the 10-iteration update
/// experiment (the columns of paper Tables II/III and Fig. 4).
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// Case identifier.
    pub case: TestCase,
    /// Nodes / edges of the generated stand-in graph.
    pub nodes: usize,
    /// Edges of the generated stand-in graph.
    pub edges: usize,
    /// Off-tree density of `H(0)`.
    pub density_initial: f64,
    /// Off-tree density if every stream edge were kept.
    pub density_all: f64,
    /// Condition measure `λmax(L_H⁺L_G)` of `H(0)` against `G(0)` (the
    /// target every method must restore).
    pub kappa_initial: f64,
    /// Condition measure of the *stale* `H(0)` against the updated graph —
    /// the paper's "κ → perturbed" column.
    pub kappa_stale: f64,
    /// GRASS re-run: final off-tree density for the target.
    pub grass_density: f64,
    /// GRASS re-run: condition measure achieved.
    pub grass_kappa: f64,
    /// Total time of 10 GRASS re-sparsifications (seconds).
    pub grass_time: f64,
    /// inGRASS: one-time setup seconds.
    pub ingrass_setup_time: f64,
    /// inGRASS: final off-tree density.
    pub ingrass_density: f64,
    /// inGRASS: condition measure achieved (λmax).
    pub ingrass_kappa: f64,
    /// inGRASS: honest two-sided κ (λmax/λmin) — reweighting pushes λmin
    /// below 1; reported for transparency (the `ingrass_kappa_two_sided`
    /// column the `table2` binary writes to `table2.csv`).
    pub ingrass_kappa_two_sided: f64,
    /// Total time of the 10 inGRASS update batches (seconds).
    pub ingrass_time: f64,
    /// Random baseline: off-tree density needed for the target.
    pub random_density: f64,
    /// GRASS single from-scratch sparsification time (Table I column).
    pub grass_single_time: f64,
}

impl CaseResult {
    /// The headline `GRASS-T / inGRASS-T` speedup.
    pub fn speedup(&self) -> f64 {
        if self.ingrass_time > 0.0 {
            self.grass_time / self.ingrass_time
        } else {
            f64::INFINITY
        }
    }
}

/// Runs the full 10-iteration comparison for one case on the given graph.
///
/// The protocol mirrors the paper:
/// 1. `H(0)` = GRASS at `initial_density`; the target condition measure is
///    `λmax(L_{H(0)}⁺ L_{G(0)})`.
/// 2. A seeded stream sized to +24 % off-tree edges arrives over 10
///    batches.
/// 3. **GRASS** re-sparsifies the updated graph from scratch each
///    iteration (timed); its final density for the target comes from one
///    condition-number search on the final graph.
/// 4. **inGRASS** runs setup once (timed separately) and filters each
///    batch incrementally (timed).
/// 5. **Random** includes random stream edges until the target is met.
///
/// # Panics
/// Panics if any pipeline stage fails (benchmark binaries surface the
/// failure rather than reporting bogus rows).
pub fn run_case(case: TestCase, g0: &Graph, opts: &HarnessOptions) -> CaseResult {
    let density = SparsifierDensity::new(g0.num_nodes());
    // The fast estimator profile keeps 14-case runs tractable; the values
    // are accurate to ~1 %, far below the cross-method differences reported.
    let cond = ConditionOptions::fast();
    let cond_fast = ConditionOptions::fast();
    let grass = GrassSparsifier::default();

    // Initial sparsifier + target.
    let t = Instant::now();
    let h0 = grass
        .by_offtree_density(g0, opts.initial_density)
        .expect("initial sparsification");
    let grass_single_time = t.elapsed().as_secs_f64();
    let kappa_initial = estimate_condition_number(g0, &h0.graph, &cond)
        .expect("initial condition estimate")
        .lambda_max;

    // Insertion stream and cumulative graphs.
    let stream = InsertionStream::paper_default(g0, opts.seed ^ 0x57ea);
    let mut g_cum = DynGraph::from_graph(g0);
    let mut g_per_iter: Vec<Graph> = Vec::with_capacity(stream.batches().len());
    let mut all_new: Vec<(usize, usize, f64)> = Vec::new();
    for batch in stream.batches() {
        for &(u, v, w) in batch {
            g_cum
                .add_edge(u.into(), v.into(), w)
                .expect("stream edges are valid");
            all_new.push((u, v, w));
        }
        g_per_iter.push(g_cum.to_graph());
    }
    let g_final = g_per_iter.last().expect("at least one batch").clone();
    let density_all = density.report(h0.graph.num_edges() + stream.total_edges(), g0.num_edges());
    let kappa_stale = estimate_condition_number(&g_final, &h0.graph, &cond)
        .expect("stale condition estimate")
        .lambda_max;

    // GRASS: density needed on the final graph (one search), then 10 timed
    // re-sparsifications at that density — the paper's per-iteration rerun.
    let searched = grass
        .to_condition(&g_final, kappa_initial, &cond_fast)
        .expect("grass condition search");
    let grass_offtree_density = {
        let off = g_final.num_edges() - (g_final.num_nodes() - 1);
        searched.offtree_added as f64 / off as f64
    };
    let grass_kappa = estimate_condition_number(&g_final, &searched.graph, &cond)
        .expect("grass final estimate")
        .lambda_max;
    let mut grass_time = 0.0;
    for g_t in &g_per_iter {
        let t = Instant::now();
        let _ = grass
            .by_offtree_density(g_t, grass_offtree_density)
            .expect("grass rerun");
        grass_time += t.elapsed().as_secs_f64();
    }
    let grass_density = density.report_graphs(&searched.graph, g0).off_tree;

    // inGRASS: setup once, stream the batches.
    let t = Instant::now();
    let mut engine = InGrassEngine::setup(&h0.graph, &SetupConfig::default().with_seed(opts.seed))
        .expect("ingrass setup");
    let ingrass_setup_time = t.elapsed().as_secs_f64();
    let ucfg = UpdateConfig {
        target_condition: kappa_initial,
        ..Default::default()
    };
    let mut ingrass_time = 0.0;
    for batch in stream.batches() {
        let t = Instant::now();
        engine.insert_batch(batch, &ucfg).expect("ingrass update");
        ingrass_time += t.elapsed().as_secs_f64();
    }
    let h_in = engine.sparsifier_graph();
    let ingrass_est =
        estimate_condition_number(&g_final, &h_in, &cond).expect("ingrass final estimate");
    let ingrass_density = density.report_graphs(&h_in, g0).off_tree;

    // Random baseline.
    let random = random_update_to_condition(
        &g_final,
        &h0.graph,
        &all_new,
        kappa_initial,
        &cond_fast,
        opts.seed ^ 0xda7a,
    )
    .expect("random baseline");
    let random_density = density.report_graphs(&random.sparsifier, g0).off_tree;

    CaseResult {
        case,
        nodes: g0.num_nodes(),
        edges: g0.num_edges(),
        density_initial: density.report_graphs(&h0.graph, g0).off_tree,
        density_all: density_all.off_tree,
        kappa_initial,
        kappa_stale,
        grass_density,
        grass_kappa,
        grass_time,
        ingrass_setup_time,
        ingrass_density,
        ingrass_kappa: ingrass_est.lambda_max,
        ingrass_kappa_two_sided: ingrass_est.kappa,
        ingrass_time,
        random_density,
        grass_single_time,
    }
}

/// Writes rows as CSV next to the binary's working directory.
///
/// # Panics
/// Panics on I/O errors (benchmark context).
pub fn write_csv(path: &str, header: &str, rows: &[String]) {
    use std::io::Write;
    let mut f = std::fs::File::create(path).expect("create csv");
    writeln!(f, "{header}").expect("write csv");
    for r in rows {
        writeln!(f, "{r}").expect("write csv");
    }
    eprintln!("wrote {path}");
}

/// Human-readable engineering format for seconds.
pub fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.2} s")
    } else if s >= 1e-3 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{:.0} µs", s * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_secs_ranges() {
        assert_eq!(fmt_secs(2.5), "2.50 s");
        assert_eq!(fmt_secs(0.0025), "2.50 ms");
        assert_eq!(fmt_secs(0.0000025), "2 µs"); // {:.0} uses banker-style rounding
    }

    #[test]
    fn run_case_produces_consistent_row() {
        let opts = HarnessOptions {
            scale: 0.002,
            ..Default::default()
        };
        let case = TestCase::FeSphere;
        let g0 = case.build(opts.scale, opts.seed);
        let row = run_case(case, &g0, &opts);
        assert_eq!(row.nodes, g0.num_nodes());
        assert!(row.kappa_initial > 1.0);
        assert!(row.kappa_stale >= row.kappa_initial * 0.9);
        assert!(row.density_all > row.density_initial);
        assert!(row.ingrass_density <= row.density_all);
        assert!(row.random_density <= 1.0);
        assert!(row.speedup() > 1.0, "speedup {}", row.speedup());
    }
}
