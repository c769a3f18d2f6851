//! Deterministic perf harness: runs a fixed scenario matrix (suite case ×
//! resistance backend, setup + update phases), records wall times,
//! per-phase breakdowns, condition number and off-tree density, and writes
//! a schema-versioned `BENCH_<n>.json` at the repo root — the perf
//! trajectory every later change is judged against.
//!
//! ```text
//! cargo run -p ingrass-bench --release --bin perf -- --scale tiny --seed 42
//! ```
//!
//! Flags:
//!
//! * `--scale tiny|small|paper` — scenario size (fractions 0.01 / 0.05 /
//!   1.0 of the paper's |V|; default `tiny`).
//! * `--seed <u64>` — master seed (default 42). Graphs, streams, and every
//!   estimator probe derive from it; two runs with equal flags and equal
//!   `INGRASS_THREADS` produce identical non-timing fields.
//! * `--threads <n>` — pin the worker width for the whole process (sets
//!   `INGRASS_THREADS`, so every ambient-width stage — embedders,
//!   wide-graph `edge_resistances`, `insert_batch` scoring — sees it).
//! * `--out <path>` — write the report there instead of the auto-numbered
//!   `BENCH_<n>.json` at the repo root.
//! * `--baseline <path>` — compare against a previous report and **exit
//!   non-zero** if any scenario's `setup_wall_s`/`update_wall_s` regressed
//!   more than the tolerance (the CI gate).
//! * `--tolerance <f>` — relative regression budget for `--baseline`
//!   (default 0.25 = 25 %, plus a 5 ms absolute floor against timer noise).
//!
//! The emitted JSON schema (`schema_version` 2) is documented in the README
//! ("Benchmarking & perf tracking"). Schema 1 additions were
//! backward-compatible: one `<case>/krylov/churn` scenario per case
//! exercising the operation-log engine under a mixed
//! insert/delete/reweight stream (drift-driven re-setups enabled), plus a
//! top-level `update_mix` metadata object with the churn ratios, plus one
//! `<case>/solve` scenario per case measuring the sparsifier-preconditioned
//! solve service (factorization wall time, cold vs warm batched PCG,
//! iteration counts against unpreconditioned CG), plus one `serve/<case>`
//! scenario per case measuring the concurrent serving layer (snapshot
//! publish latency per state-changing batch, admission-batched drain wall
//! time, mixed update+solve throughput). Schema 2 adds one
//! `recover/<case>` scenario per case measuring the persistence layer —
//! crash recovery (`PersistentEngine::open`: newest snapshot + WAL-tail
//! replay) against from-scratch engine setup on the same sparsifier — and
//! gates its `recover_wall_s`. Schema 3 adds one `shard/<case>` scenario
//! per case measuring the sharded multi-writer engine (`ShardedEngine`,
//! S=4) under a shard-skewed churn stream — summed per-shard update wall
//! vs the single-engine wall, work-imbalance ratio, boundary-graph size,
//! and stitched Schur-complement PCG iterations vs the mono
//! preconditioner — and gates `shard_update_wall_s` and
//! `shard_publish_wall_s`. Schema 4 adds one `traffic/<case>` scenario
//! per case measuring the serving front end (`ingrass-traffic`) under a
//! sustained 2× open-loop overload on a virtual clock — bounded
//! admission (cap + deadline shedding + weighted-fair dequeue) against
//! the unbounded mode on the same trace — and gates `traffic_p99_s` and
//! `shed_fraction`. Those two are deterministic virtual-clock metrics
//! (bit-exact at any machine speed and worker width), so the gate
//! compares them **without** the machine-speed calibration scaling it
//! applies to wall-clock keys. The gate refuses a baseline whose
//! `schema_version` differs from this binary's: a schema change without a
//! baseline regenerated in the same PR guards nothing.

use ingrass::{
    InGrassEngine, PhaseTimer, ResistanceBackend, SetupConfig, ShardedConfig, ShardedEngine,
    SnapshotEngine, UpdateConfig, UpdateOp,
};
use ingrass_baselines::GrassSparsifier;
use ingrass_bench::fmt_secs;
use ingrass_bench::json::{obj, scenario_metrics, Json};
use ingrass_gen::{
    ArrivalProcess, ChurnConfig, ChurnOp, ChurnStream, InsertionStream, ShardSkew, TestCase,
    WorkloadConfig, WorkloadTrace,
};
use ingrass_graph::{DynGraph, Graph};
use ingrass_metrics::{
    estimate_condition_number, ConditionOptions, ConditionTrajectory, LatencySummary,
    SparsifierDensity,
};
use ingrass_resistance::{JlConfig, KrylovConfig};
use ingrass_solve::{unpreconditioned_cg, ConcurrentSolveService, SolveConfig, SolveService};
use ingrass_store::{PersistentEngine, StorePolicy};
use ingrass_traffic::{run_open_loop, OpenLoopConfig, TrafficConfig};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

/// Bumped whenever a field changes meaning **or the gated-metric set
/// grows** (readers must check it; the gate refuses mismatched
/// baselines). 1 → 2: `recover/<case>` scenarios added and their
/// `recover_wall_s` joined the gated set — a schema-1 baseline can no
/// longer vouch for the full matrix. 2 → 3: `shard/<case>` scenarios
/// added (sharded multi-writer engine over a shard-skewed churn stream)
/// and their `shard_update_wall_s` / `shard_publish_wall_s` joined the
/// gated set. 3 → 4: `traffic/<case>` scenarios added (bounded vs
/// unbounded admission under 2× open-loop overload, virtual clock) and
/// their `traffic_p99_s` / `shed_fraction` joined the gated set —
/// compared unscaled, because they are machine-independent. 4 → 5: the
/// sharded engine's epoch-fenced commit protocol added
/// `shard_parallel_update_wall_s` (the coordinator's fan-out→fence span,
/// i.e. the slowest shard per batch) to the `shard/<case>` scenarios and
/// the gated set — on a single-CPU runner it tracks the summed per-shard
/// wall; real shard-parallel speedup only shows on multi-core hosts.
const SCHEMA_VERSION: f64 = 5.0;

/// Times a fixed integer-arithmetic kernel (~1.6·10⁸ wrapping ops) as a
/// machine-speed proxy. The regression gate scales baseline wall times by
/// the calibration ratio, so a baseline recorded on faster/slower hardware
/// still gates meaningfully (see `regressions`).
fn calibration_seconds() -> f64 {
    let timer = PhaseTimer::start();
    let mut acc: u64 = 0x9E37_79B9_7F4A_7C15;
    for i in 0..40_000_000u64 {
        acc = acc.wrapping_mul(0xBF58_476D_1CE4_E5B9) ^ (acc >> 31) ^ i;
    }
    std::hint::black_box(acc);
    timer.total().as_secs_f64()
}

/// The fixed case axis of the matrix: two FE meshes, a power grid, and the
/// Fig. 4 scalability representative (`delaunay_n18` is the base of the
/// paper's delaunay size sweep).
const CASES: [TestCase; 4] = [
    TestCase::Fe4elt2,
    TestCase::FeSphere,
    TestCase::G2Circuit,
    TestCase::DelaunayN18,
];

/// The backend axis: the paper's solve-free Krylov scheme, the JL/CG
/// high-accuracy alternative, and the zero-cost local floor.
const BACKENDS: [&str; 3] = ["krylov", "jl", "local"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scale {
    Tiny,
    Small,
    Paper,
}

impl Scale {
    fn parse(s: &str) -> Option<Scale> {
        match s {
            "tiny" => Some(Scale::Tiny),
            "small" => Some(Scale::Small),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Small => "small",
            Scale::Paper => "paper",
        }
    }

    /// Fraction of the paper's node counts fed to the suite generators.
    fn fraction(self) -> f64 {
        match self {
            Scale::Tiny => 0.01,
            Scale::Small => 0.05,
            Scale::Paper => 1.0,
        }
    }

    /// How many times the update stream is replayed inside the timed update
    /// phase. At small scales one pass costs tens of microseconds — far
    /// below the regression gate's 5 ms noise floor, which would leave the
    /// paper's headline incremental phase ungated; replaying lifts
    /// `update_wall_s` above the floor while staying deterministic (replayed
    /// edges are already indexed, so they merge/redistribute — the same
    /// code path a dense stream exercises).
    fn update_repeats(self) -> usize {
        match self {
            Scale::Tiny => 200,
            Scale::Small => 20,
            Scale::Paper => 1,
        }
    }
}

struct Args {
    scale: Scale,
    seed: u64,
    threads: Option<usize>,
    out: Option<PathBuf>,
    baseline: Option<PathBuf>,
    tolerance: f64,
}

fn parse_args() -> Args {
    let mut args = Args {
        scale: Scale::Tiny,
        seed: 42,
        threads: None,
        out: None,
        baseline: None,
        tolerance: 0.25,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let value = |i: usize| -> &str {
            argv.get(i + 1)
                .unwrap_or_else(|| panic!("{} requires a value", argv[i]))
        };
        match argv[i].as_str() {
            "--scale" => {
                args.scale = Scale::parse(value(i))
                    .unwrap_or_else(|| panic!("--scale must be tiny|small|paper"));
            }
            "--seed" => args.seed = value(i).parse().expect("--seed requires an integer"),
            "--threads" => {
                args.threads = Some(value(i).parse().expect("--threads requires an integer ≥ 1"));
            }
            "--out" => args.out = Some(PathBuf::from(value(i))),
            "--baseline" => args.baseline = Some(PathBuf::from(value(i))),
            "--tolerance" => {
                args.tolerance = value(i).parse().expect("--tolerance requires a number");
            }
            other => panic!(
                "unknown argument {other} (expected --scale/--seed/--threads/--out/--baseline/--tolerance)"
            ),
        }
        i += 2;
    }
    args
}

fn backend_config(name: &str, threads: Option<usize>) -> ResistanceBackend {
    match name {
        "krylov" => ResistanceBackend::Krylov(KrylovConfig {
            threads,
            ..KrylovConfig::default()
        }),
        "jl" => ResistanceBackend::Jl(JlConfig {
            threads,
            ..JlConfig::default()
        }),
        "local" => ResistanceBackend::LocalOnly,
        other => panic!("unknown backend {other}"),
    }
}

/// The backend-independent fixture of one case: the generated graph, its
/// GRASS initial sparsifier, the insertion stream, and the cumulative final
/// graph — computed once per case, shared by every backend scenario (the
/// GRASS sparsification is the expensive part at `--scale paper`). The
/// churn scenario adds a paper-shaped mixed stream and its final graph.
struct CaseFixture {
    g0: Graph,
    h0: Graph,
    stream: InsertionStream,
    g_final: Graph,
    churn: ChurnStream,
}

impl CaseFixture {
    fn build(case: TestCase, args: &Args) -> CaseFixture {
        let g0 = case.build(args.scale.fraction(), args.seed);
        let h0 = GrassSparsifier::default()
            .by_offtree_density(&g0, 0.10)
            .expect("initial sparsification")
            .graph;
        let stream = InsertionStream::paper_default(&g0, args.seed ^ 0x57ea);
        let mut g_cum = DynGraph::from_graph(&g0);
        for batch in stream.batches() {
            for &(u, v, w) in batch {
                g_cum
                    .add_edge(u.into(), v.into(), w)
                    .expect("stream edges are valid");
            }
        }
        let g_final = g_cum.to_graph();
        let churn = ChurnStream::paper_default(&g0, args.seed ^ 0xc4a2);
        CaseFixture {
            g0,
            h0,
            stream,
            g_final,
            churn,
        }
    }
}

/// Bridges generator churn ops into engine update ops (the facade crate
/// owns the public conversion; the bench binary avoids the extra edge).
fn to_update_ops(batch: &[ChurnOp]) -> Vec<UpdateOp> {
    batch
        .iter()
        .map(|op| match *op {
            ChurnOp::Insert(u, v, weight) => UpdateOp::Insert { u, v, weight },
            ChurnOp::Delete(u, v) => UpdateOp::Delete { u, v },
            ChurnOp::Reweight(u, v, weight) => UpdateOp::Reweight { u, v, weight },
        })
        .collect()
}

/// Runs the churn scenario of one case: operation-log engine (Krylov
/// backend, default drift policy) over the mixed stream, with the
/// condition-number trajectory tracked across batches and re-setups.
fn run_churn_scenario(case: TestCase, fixture: &CaseFixture, args: &Args) -> Json {
    let setup_cfg = SetupConfig::default()
        .with_seed(args.seed)
        .with_resistance(backend_config("krylov", args.threads));
    let mut engine = InGrassEngine::setup(&fixture.h0, &setup_cfg).expect("churn setup");
    let ucfg = UpdateConfig::default();

    let mut timer = PhaseTimer::start();
    timer.lap();
    let mut wall = std::time::Duration::ZERO;
    let mut trajectory = ConditionTrajectory::new();
    // Ground truth follows the stream prefix: batch `i`'s quality sample
    // compares H_i against G_i, not against the final graph (edges the
    // stream has not delivered yet are no fault of the sparsifier).
    let mut g_now = DynGraph::from_graph(&fixture.g0);
    for (i, batch) in fixture.churn.batches().iter().enumerate() {
        let ops = to_update_ops(batch);
        ingrass::replay_ops(&mut g_now, &ops).expect("churn stream is consistent");
        timer.lap();
        let report = engine.apply_batch(&ops, &ucfg).expect("churn update");
        wall += timer.lap();
        // Quality tracking happens outside the timed region.
        let est = estimate_condition_number(
            &g_now.to_graph(),
            &engine.sparsifier_graph(),
            &ConditionOptions::fast(),
        )
        .expect("churn condition estimate");
        trajectory.record(i, &est, report.resetup.is_some());
    }

    let density = SparsifierDensity::new(fixture.g0.num_nodes())
        .report_graphs(&engine.sparsifier_graph(), &fixture.g0)
        .off_tree;
    let ledger = engine.ledger();
    println!(
        "{:<14} {:<7} churn {:>10}  κ {:>8.2} (max {:>8.2})  resetups {}  density {:.4}",
        case.name(),
        "krylov",
        fmt_secs(wall.as_secs_f64()),
        trajectory.final_lambda_max().unwrap_or(f64::NAN),
        trajectory.max_lambda_max().unwrap_or(f64::NAN),
        engine.resetups(),
        density,
    );

    let trajectory_json: Vec<Json> = trajectory
        .points()
        .iter()
        .map(|p| {
            obj(vec![
                ("batch", Json::Num(p.batch as f64)),
                ("lambda_max", Json::Num(p.lambda_max)),
                ("kappa", Json::Num(p.kappa)),
                ("resetup", Json::Bool(p.resetup)),
            ])
        })
        .collect();
    obj(vec![
        ("id", Json::Str(format!("{}/krylov/churn", case.name()))),
        ("case", Json::Str(case.name().to_string())),
        ("backend", Json::Str("krylov".to_string())),
        ("kind", Json::Str("churn".to_string())),
        ("nodes", Json::Num(fixture.g0.num_nodes() as f64)),
        ("edges", Json::Num(fixture.g0.num_edges() as f64)),
        ("churn_wall_s", Json::Num(wall.as_secs_f64())),
        ("churn_ops", Json::Num(fixture.churn.total_ops() as f64)),
        ("churn_inserts", Json::Num(fixture.churn.inserts() as f64)),
        ("churn_deletes", Json::Num(fixture.churn.deletes() as f64)),
        (
            "churn_reweights",
            Json::Num(fixture.churn.reweights() as f64),
        ),
        ("churn_relinks", Json::Num(ledger.relinks() as f64)),
        ("churn_vacuous", Json::Num(ledger.vacuous() as f64)),
        ("churn_resetups", Json::Num(engine.resetups() as f64)),
        (
            "condition_churn_final",
            Json::Num(trajectory.final_lambda_max().unwrap_or(f64::NAN)),
        ),
        (
            "condition_churn_max",
            Json::Num(trajectory.max_lambda_max().unwrap_or(f64::NAN)),
        ),
        ("offtree_density_final", Json::Num(density)),
        ("condition_trajectory", Json::Arr(trajectory_json)),
    ])
}

/// Deterministic multi-RHS batch for the solve scenario: current
/// injections between seed-derived node pairs (the workload a Laplacian
/// solve service actually sees — potentials between terminals).
fn solve_rhs_batch(n: usize, seed: u64, count: usize) -> Vec<Vec<f64>> {
    (0..count)
        .map(|i| {
            let u = (ingrass_par::derive_seed(seed, 2 * i as u64) % n as u64) as usize;
            let mut v = (ingrass_par::derive_seed(seed, 2 * i as u64 + 1) % n as u64) as usize;
            if v == u {
                v = (v + 1) % n;
            }
            let mut b = vec![0.0; n];
            b[u] = 1.0;
            b[v] = -1.0;
            b
        })
        .collect()
}

/// Off-tree density of the solve scenario's sparsifier. Preconditioner
/// extraction wants a denser basis than the paper's 10 % update-phase
/// protocol: at 10 % the factor barely beats plain CG on well-conditioned
/// meshes (fe_sphere), while at 30 % the `O(√κ(L_H⁻¹L_G))` iteration bound
/// clears 3× across the whole suite and the factor still carries ~n fill.
const SOLVE_DENSITY: f64 = 0.30;

/// Runs the solve scenario of one case: factor the sparsifier, publish it
/// as a snapshot and serve a batched PCG solve on the *original*
/// Laplacian (cold: the first solve after the factorization), then the
/// same batch again on the same snapshot (warm). Unpreconditioned CG on
/// the same right-hand sides is the iteration baseline.
fn run_solve_scenario(case: TestCase, fixture: &CaseFixture, args: &Args) -> Json {
    let setup_cfg = SetupConfig::default()
        .with_seed(args.seed)
        .with_resistance(backend_config("krylov", args.threads));
    let h_solve = GrassSparsifier::default()
        .by_offtree_density(&fixture.g0, SOLVE_DENSITY)
        .expect("solve-grade sparsification")
        .graph;
    let engine = InGrassEngine::setup(&h_solve, &setup_cfg).expect("solve setup");
    let l_g = fixture.g0.laplacian();
    let n = fixture.g0.num_nodes();
    let rhss = solve_rhs_batch(n, args.seed ^ 0x50_1e, 4);

    // The factorization alone, timed on the engine; the publish below
    // builds the snapshot's own (identical) factor.
    let timer = PhaseTimer::start();
    engine.preconditioner().expect("solve factorization");
    let factor_wall = timer.total().as_secs_f64();
    let snap = SnapshotEngine::from_engine(engine)
        .expect("solve publish")
        .snapshot();

    let solve_cfg = SolveConfig::default();
    let mut service = SolveService::new(solve_cfg.clone());
    let (_, cold) = service.solve_batch(&snap, &l_g, &rhss).expect("cold solve");

    // Unpreconditioned baseline on identical systems (same budget and
    // tolerance). Convergence is recorded: a capped baseline would make
    // cg_iters_* and iter_ratio silent understatements.
    let timer = PhaseTimer::start();
    let cg_results: Vec<ingrass_linalg::CgResult> = rhss
        .iter()
        .map(|b| unpreconditioned_cg(&l_g, b, &solve_cfg.cg).1)
        .collect();
    let cg_wall = timer.total().as_secs_f64();
    let cg_iters: Vec<usize> = cg_results.iter().map(|r| r.iterations).collect();
    let cg_converged = cg_results.iter().all(|r| r.converged);

    let (_, warm) = service.solve_batch(&snap, &l_g, &rhss).expect("warm solve");

    let pcg_total: usize = cold.total_iterations();
    let cg_total: usize = cg_iters.iter().sum();
    let iter_ratio = cg_total as f64 / pcg_total.max(1) as f64;
    println!(
        "{:<14} solve   factor {:>10} cold {:>10} warm {:>10}  pcg {:>4} vs cg {:>5} iters ({:.1}x)",
        case.name(),
        fmt_secs(factor_wall),
        fmt_secs(cold.solve_seconds),
        fmt_secs(warm.solve_seconds),
        pcg_total,
        cg_total,
        iter_ratio,
    );

    obj(vec![
        ("id", Json::Str(format!("{}/solve", case.name()))),
        ("case", Json::Str(case.name().to_string())),
        ("backend", Json::Str("krylov".to_string())),
        ("kind", Json::Str("solve".to_string())),
        ("nodes", Json::Num(n as f64)),
        ("edges", Json::Num(fixture.g0.num_edges() as f64)),
        ("precond", Json::Str("cholesky".to_string())),
        ("sparsifier_offtree_density", Json::Num(SOLVE_DENSITY)),
        ("rhs_count", Json::Num(rhss.len() as f64)),
        ("factor_wall_s", Json::Num(factor_wall)),
        ("factor_nnz", Json::Num(cold.factor_nnz as f64)),
        ("solve_cold_wall_s", Json::Num(cold.solve_seconds)),
        ("solve_warm_wall_s", Json::Num(warm.solve_seconds)),
        ("pcg_iters_total", Json::Num(pcg_total as f64)),
        ("pcg_iters_max", Json::Num(cold.max_iterations() as f64)),
        ("cg_iters_total", Json::Num(cg_total as f64)),
        (
            "cg_iters_max",
            Json::Num(cg_iters.iter().copied().max().unwrap_or(0) as f64),
        ),
        ("cg_wall_s", Json::Num(cg_wall)),
        ("cg_converged", Json::Bool(cg_converged)),
        ("iter_ratio", Json::Num(iter_ratio)),
        (
            "pcg_converged",
            Json::Bool(cold.all_converged() && warm.all_converged()),
        ),
    ])
}

/// Right-hand sides per churn batch in the serve scenario.
const SERVE_RHS_PER_BATCH: usize = 2;

/// Runs the serve scenario of one case: the concurrent serving layer's
/// mixed update+solve loop, single-threaded and deterministic so the wall
/// times gate. A `SnapshotEngine` (solve-grade sparsifier, as in the solve
/// scenario) replays the paper-shaped churn stream; every state-changing
/// batch publishes an immutable snapshot (publish latency recorded), and
/// between batches a `ConcurrentSolveService` admission-batches seeded
/// terminal-pair requests against the current snapshot and drains them —
/// PCG on the *current* original Laplacian preconditioned by the
/// snapshot's factor.
fn run_serve_scenario(case: TestCase, fixture: &CaseFixture, args: &Args) -> Json {
    let setup_cfg = SetupConfig::default()
        .with_seed(args.seed)
        .with_resistance(backend_config("krylov", args.threads));
    let h_solve = GrassSparsifier::default()
        .by_offtree_density(&fixture.g0, SOLVE_DENSITY)
        .expect("serve-grade sparsification")
        .graph;
    let mut engine = SnapshotEngine::setup(&h_solve, &setup_cfg).expect("serve setup");
    let service = ConcurrentSolveService::new(SolveConfig::default());
    let n = fixture.g0.num_nodes();
    let ucfg = UpdateConfig::default();

    let mut g_live = DynGraph::from_graph(&fixture.g0);
    let mut publish = LatencySummary::new();
    let mut publish_series: Vec<f64> = Vec::new();
    let mut nnz_series: Vec<f64> = Vec::new();
    let mut flops_series: Vec<f64> = Vec::new();
    let mut drains = LatencySummary::new();
    let mut update_wall = std::time::Duration::ZERO;
    let mut churn_ops = 0usize;
    let mut solves = 0usize;
    let mut pcg_iters = 0usize;
    let mut all_converged = true;
    let mut timer = PhaseTimer::start();
    for (i, batch) in fixture.churn.batches().iter().enumerate() {
        let ops = to_update_ops(batch);
        ingrass::replay_ops(&mut g_live, &ops).expect("churn stream is consistent");
        churn_ops += ops.len();

        // Writer side: apply + publish (publish latency tracked per batch).
        timer.lap();
        let report = engine.apply_batch(&ops, &ucfg).expect("serve update");
        update_wall += timer.lap();
        if let Some(p) = report.publish {
            publish.record(p.publish_seconds);
            publish_series.push(p.publish_seconds);
            nnz_series.push(p.factor_nnz as f64);
            flops_series.push(p.factor_flops);
        }

        // Reader side: admission-batch requests against the snapshot just
        // published, paired with the current original Laplacian, and drain.
        let lap = Arc::new(g_live.to_graph().laplacian());
        let snap = engine.snapshot();
        for k in 0..SERVE_RHS_PER_BATCH {
            let stream = (i * SERVE_RHS_PER_BATCH + k) as u64;
            let u = (ingrass_par::derive_seed(args.seed ^ 0x5e21, 2 * stream) % n as u64) as usize;
            let mut v =
                (ingrass_par::derive_seed(args.seed ^ 0x5e21, 2 * stream + 1) % n as u64) as usize;
            if v == u {
                v = (v + 1) % n;
            }
            let mut b = vec![0.0; n];
            b[u] = 1.0;
            b[v] = -1.0;
            service.submit(&snap, &lap, b).expect("serve submit");
        }
        let round = service.drain();
        drains.record(round.solve_seconds);
        solves += round.served.len();
        pcg_iters += round.total_iterations();
        all_converged &= round.all_converged();
    }

    let wall = update_wall.as_secs_f64() + drains.total_seconds();
    let throughput = if wall > 0.0 {
        (churn_ops + solves) as f64 / wall
    } else {
        f64::INFINITY
    };

    // Flat-trend self-check: with incremental factor maintenance, per-epoch
    // publish latency must not compound with the epoch count (the
    // pre-incremental regime recomputed a fill-reducing ordering every
    // publish, so each epoch cost hundreds of times its numeric work and
    // the total climbed a cliff). The paper-shaped churn is insert-heavy,
    // so the sparsifier — and any exact factor of it — genuinely grows
    // across the run; latency proportional to the factor's numeric work
    // (the flops estimate, which fill makes superlinear in nnz) is the
    // physics of an exact method, not a maintenance regression. Compare
    // the mean of the last quartile of the per-epoch series against the
    // first, allow growth up to the factor-flops growth over the same
    // window plus 50 % headroom, and add an absolute floor so sub-5 ms
    // publishes never trip on scheduler noise.
    let quartile_means = |series: &[f64]| {
        let q = series.len() / 4;
        let first = series[..q].iter().sum::<f64>() / q as f64;
        let last = series[series.len() - q..].iter().sum::<f64>() / q as f64;
        (first, last)
    };
    let trend_ratio = if publish_series.len() >= 8 {
        let (first, last) = quartile_means(&publish_series);
        let (flops_first, flops_last) = quartile_means(&flops_series);
        let flops_ratio = if flops_first > 0.0 {
            flops_last / flops_first
        } else {
            1.0
        };
        const TREND_FLOOR_S: f64 = 0.005;
        assert!(
            last <= first * flops_ratio.max(1.0) * 1.5 + TREND_FLOOR_S,
            "{}: publish latency trends upward with epoch count beyond factor growth \
             (first-quartile mean {:.4}s, last-quartile mean {:.4}s, factor-flops growth {:.2}x)",
            case.name(),
            first,
            last,
            flops_ratio,
        );
        if first > 0.0 {
            last / first
        } else {
            1.0
        }
    } else {
        1.0
    };
    println!(
        "{:<14} serve   update {:>10} publish {:>10} (max {:>10}) solve {:>10}  {} solves, {:.0} op/s",
        case.name(),
        fmt_secs(update_wall.as_secs_f64()),
        fmt_secs(publish.total_seconds()),
        fmt_secs(publish.max_seconds()),
        fmt_secs(drains.total_seconds()),
        solves,
        throughput,
    );

    obj(vec![
        ("id", Json::Str(format!("serve/{}", case.name()))),
        ("case", Json::Str(case.name().to_string())),
        ("backend", Json::Str("krylov".to_string())),
        ("kind", Json::Str("serve".to_string())),
        ("nodes", Json::Num(n as f64)),
        ("edges", Json::Num(fixture.g0.num_edges() as f64)),
        ("sparsifier_offtree_density", Json::Num(SOLVE_DENSITY)),
        ("churn_ops", Json::Num(churn_ops as f64)),
        ("serve_update_wall_s", Json::Num(update_wall.as_secs_f64())),
        ("publish_count", Json::Num(publish.count() as f64)),
        ("publish_wall_s", Json::Num(publish.total_seconds())),
        ("publish_mean_s", Json::Num(publish.mean_seconds())),
        ("publish_max_s", Json::Num(publish.max_seconds())),
        (
            "publish_series_s",
            Json::Arr(publish_series.iter().map(|&s| Json::Num(s)).collect()),
        ),
        ("publish_trend_ratio", Json::Num(trend_ratio)),
        (
            "factor_nnz_series",
            Json::Arr(nnz_series.iter().map(|&s| Json::Num(s)).collect()),
        ),
        (
            "factor_flops_series",
            Json::Arr(flops_series.iter().map(|&s| Json::Num(s)).collect()),
        ),
        ("factor_updates", Json::Num(engine.factor_updates() as f64)),
        (
            "factor_refactors",
            Json::Num(engine.factor_refactors() as f64),
        ),
        ("serve_solves", Json::Num(solves as f64)),
        ("serve_solve_wall_s", Json::Num(drains.total_seconds())),
        ("serve_drain_max_s", Json::Num(drains.max_seconds())),
        ("serve_pcg_iters_total", Json::Num(pcg_iters as f64)),
        ("serve_all_converged", Json::Bool(all_converged)),
        ("serve_throughput_ops_per_s", Json::Num(throughput)),
        ("snapshots_published", Json::Num(engine.publishes() as f64)),
        ("resetups", Json::Num(engine.engine().resetups() as f64)),
    ])
}

/// Runs the recover scenario of one case. A durable store is populated —
/// engine setup, the full churn stream, a snapshot checkpoint after the
/// next-to-last batch so the last batch remains as a WAL tail — then the
/// process "dies" (the engine is dropped) and `PersistentEngine::open`
/// recovers: newest-snapshot decode plus WAL-tail replay.
///
/// The comparison point is everything recovery replaces: without the
/// store, the crashed process would re-sparsify the original graph,
/// re-run engine setup (paying the resistance embedding again), and
/// re-apply the full update history. `recover_wall_s` is gated; the
/// headline `recover_ratio_vs_from_scratch` is recovery over that
/// from-scratch rebuild (≤ 0.25 expected on every suite case — the
/// snapshot-cadence/recovery-time trade-off is discussed in the README).
fn run_recover_scenario(case: TestCase, fixture: &CaseFixture, args: &Args) -> Json {
    let setup_cfg = SetupConfig::default()
        .with_seed(args.seed)
        .with_resistance(backend_config("krylov", args.threads));
    let ucfg = UpdateConfig::default();
    let batches = fixture.churn.batches();

    // The from-scratch rebuild, timed end to end on the same inputs.
    let mut timer = PhaseTimer::start();
    let h_rebuilt = GrassSparsifier::default()
        .by_offtree_density(&fixture.g0, 0.10)
        .expect("recover re-sparsification")
        .graph;
    let mut scratch = SnapshotEngine::setup(&h_rebuilt, &setup_cfg).expect("recover setup");
    for batch in batches {
        scratch
            .apply_batch(&to_update_ops(batch), &ucfg)
            .expect("recover from-scratch replay");
    }
    let from_scratch_wall = timer.lap().as_secs_f64();
    drop(scratch);

    // Populate the store: same setup and history, checkpointed after the
    // next-to-last batch so recovery exercises both arms — snapshot decode
    // and WAL-tail replay.
    let dir = std::env::temp_dir().join(format!(
        "ingrass-perf-recover-{}-{}",
        case.name(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    // fsync off: the scenario times the read/replay path; sync-write noise
    // on CI runners is not what the gate should absorb. Automatic
    // checkpoints off so the snapshot/WAL split is the explicit one below.
    let policy = StorePolicy::default()
        .with_fsync(false)
        .with_snapshot_every(0);
    let mut persistent =
        PersistentEngine::create(&dir, &fixture.h0, &setup_cfg, policy).expect("recover store");
    let split = batches.len().saturating_sub(1);
    for batch in &batches[..split] {
        persistent
            .apply_batch(&to_update_ops(batch), &ucfg)
            .expect("recover churn (pre-checkpoint)");
    }
    persistent.snapshot_now().expect("recover checkpoint");
    for batch in &batches[split..] {
        persistent
            .apply_batch(&to_update_ops(batch), &ucfg)
            .expect("recover churn (WAL tail)");
    }
    let wal_seq = persistent.wal_seq();
    drop(persistent);

    timer.lap();
    let (recovered, report) = PersistentEngine::open(&dir, policy).expect("recover open");
    let recover_wall = timer.lap().as_secs_f64();
    assert_eq!(
        report.replayed_batches,
        (batches.len() - split) as u64,
        "recovery must replay exactly the WAL tail"
    );
    assert_eq!(recovered.wal_seq(), wal_seq, "recovery lost WAL records");
    let ratio = recover_wall / from_scratch_wall.max(f64::MIN_POSITIVE);
    let _ = std::fs::remove_dir_all(&dir);

    println!(
        "{:<14} recover {:>10} vs from-scratch {:>10} ({:.3}x)  snapshot seq {} + {} replayed",
        case.name(),
        fmt_secs(recover_wall),
        fmt_secs(from_scratch_wall),
        ratio,
        report.snapshot_sequence,
        report.replayed_batches,
    );

    obj(vec![
        ("id", Json::Str(format!("recover/{}", case.name()))),
        ("case", Json::Str(case.name().to_string())),
        ("backend", Json::Str("krylov".to_string())),
        ("kind", Json::Str("recover".to_string())),
        ("nodes", Json::Num(fixture.g0.num_nodes() as f64)),
        ("edges", Json::Num(fixture.g0.num_edges() as f64)),
        ("recover_wall_s", Json::Num(recover_wall)),
        ("from_scratch_wall_s", Json::Num(from_scratch_wall)),
        ("recover_ratio_vs_from_scratch", Json::Num(ratio)),
        ("recover_decode_replay_s", Json::Num(report.recover_seconds)),
        (
            "replayed_batches",
            Json::Num(report.replayed_batches as f64),
        ),
        (
            "snapshot_sequence",
            Json::Num(report.snapshot_sequence as f64),
        ),
        ("wal_seq", Json::Num(report.wal_seq as f64)),
    ])
}

/// Shard count of the `shard/<case>` scenarios.
const SHARD_COUNT: usize = 4;
/// Fraction of intra-cluster inserts biased onto the hottest shard.
const SHARD_HOT_FRACTION: f64 = 0.2;
/// Fraction of inserts forced across shard boundaries.
const SHARD_CROSS_FRACTION: f64 = 0.15;

/// Runs the shard scenario of one case: a `ShardedEngine` (S=4) and a
/// single `InGrassEngine` replay the same shard-skewed churn stream (the
/// skew derives from the sharded engine's own routing table: 20 % of
/// intra-cluster inserts biased onto one hot shard, 15 % of inserts forced
/// across shard boundaries). Tracked against the acceptance bars:
///
/// * `shard_update_wall_s` — per-shard update wall times *summed* (the
///   total work the shards did; the bar is ≤ 1.25× the single-engine
///   wall, checked inline above the 5 ms noise floor);
/// * `imbalance_ratio` — max/mean per-shard routed ops (bar ≤ 2.0,
///   checked inline — it is seed-deterministic);
/// * boundary-graph size and relink count;
/// * stitched Schur-complement PCG iterations against the mono
///   preconditioner on identical systems.
fn run_shard_scenario(case: TestCase, fixture: &CaseFixture, args: &Args) -> Json {
    let setup_cfg = SetupConfig::default()
        .with_seed(args.seed)
        .with_resistance(backend_config("krylov", args.threads));
    let mut sharded = ShardedEngine::setup(
        &fixture.h0,
        &setup_cfg,
        &ShardedConfig::default().with_shards(SHARD_COUNT),
    )
    .expect("shard setup");
    let mut mono = InGrassEngine::setup(&fixture.h0, &setup_cfg).expect("shard mono setup");

    // The skewed stream: labels are the sharded engine's own routing
    // table, so "hot shard" and "cross-shard" mean exactly what the
    // coordinator will see.
    let skew = ShardSkew {
        labels: sharded.routing().shard_of_slice().to_vec(),
        hot_fraction: SHARD_HOT_FRACTION,
        cross_fraction: SHARD_CROSS_FRACTION,
        hot_label: 0,
    };
    let churn = ChurnStream::generate_with_skew(
        &fixture.g0,
        &ChurnConfig::paper_shaped(&fixture.g0, args.seed ^ 0x5a4d),
        &skew,
    );
    let ucfg = UpdateConfig::default();

    let mut timer = PhaseTimer::start();
    let mut mono_wall = std::time::Duration::ZERO;
    let mut boundary_ops = 0usize;
    let mut intra_ops = 0usize;
    for batch in churn.batches() {
        let ops = to_update_ops(batch);
        timer.lap();
        mono.apply_batch(&ops, &ucfg).expect("shard mono update");
        mono_wall += timer.lap();
        let report = sharded.apply_batch(&ops, &ucfg).expect("shard update");
        boundary_ops += report.boundary_ops;
        intra_ops += report.intra_ops;
    }
    let publish_report = sharded.publish().expect("shard publish");
    let stats = publish_report.shard.expect("sharded publish carries stats");
    let shard_wall = stats.update.total_seconds();
    let parallel_wall = stats.parallel_update.total_seconds();
    let mono_wall_s = mono_wall.as_secs_f64();

    // Inline acceptance: the imbalance bar is deterministic; the wall bar
    // only gates above the noise floor (at --scale tiny both engines
    // finish in microseconds).
    assert!(
        stats.imbalance_ratio <= 2.0,
        "{}: shard work imbalance {:.3} exceeds 2.0 (max {} of {} ops)",
        case.name(),
        stats.imbalance_ratio,
        stats.max_shard_ops,
        stats.total_shard_ops,
    );
    const WALL_FLOOR_S: f64 = 0.005;
    if mono_wall_s > WALL_FLOOR_S {
        assert!(
            shard_wall <= 1.25 * mono_wall_s + WALL_FLOOR_S,
            "{}: summed per-shard update wall {:.4}s exceeds 1.25x the \
             single-engine wall {:.4}s",
            case.name(),
            shard_wall,
            mono_wall_s,
        );
    }
    // The fan-out→fence span can never beat the slowest shard, so it is
    // bounded below by (roughly) the summed wall divided by the shard
    // count; sanity-check the relation the commit protocol promises —
    // parallel span ≤ summed per-shard wall + fan-out overhead. A
    // wall-clock *speedup* assertion would only hold on a multi-core
    // runner (PR 2 precedent), so it stays out of the gate.
    if parallel_wall > WALL_FLOOR_S {
        assert!(
            parallel_wall <= shard_wall + 0.5 * WALL_FLOOR_S + 0.25 * shard_wall,
            "{}: fenced parallel span {:.4}s exceeds the summed per-shard \
             wall {:.4}s beyond fan-out overhead",
            case.name(),
            parallel_wall,
            shard_wall,
        );
    }

    // Stitched vs mono PCG on identical systems: the final churned graph's
    // Laplacian, preconditioned by the stitched Schur-complement factor
    // and by a fresh factor of the mono engine's sparsifier.
    let g_now = churn.apply_to(&fixture.g0).expect("churn replay");
    let lap = g_now.laplacian();
    let n = fixture.g0.num_nodes();
    let rhss = solve_rhs_batch(n, args.seed ^ 0x54a6, 4);
    let mut svc = SolveService::new(SolveConfig::default());
    let (_, stitched) = svc
        .solve_batch(&sharded.snapshot(), &lap, &rhss)
        .expect("stitched solve");
    let mono = SnapshotEngine::from_engine(mono).expect("shard mono publish");
    let (_, mono_solve) = svc
        .solve_batch(&mono.snapshot(), &lap, &rhss)
        .expect("shard mono solve");
    let stitched_iters = stitched.total_iterations();
    let mono_iters = mono_solve.total_iterations();

    println!(
        "{:<14} shard   update {:>10} (fence {:>10}) vs mono {:>10} ({:.2}x)  imbalance {:.2}  boundary {} edges  pcg {:>4} vs {:>4}",
        case.name(),
        fmt_secs(shard_wall),
        fmt_secs(parallel_wall),
        fmt_secs(mono_wall_s),
        shard_wall / mono_wall_s.max(f64::MIN_POSITIVE),
        stats.imbalance_ratio,
        stats.boundary_edges,
        stitched_iters,
        mono_iters,
    );

    obj(vec![
        ("id", Json::Str(format!("shard/{}", case.name()))),
        ("case", Json::Str(case.name().to_string())),
        ("backend", Json::Str("krylov".to_string())),
        ("kind", Json::Str("shard".to_string())),
        ("nodes", Json::Num(fixture.g0.num_nodes() as f64)),
        ("edges", Json::Num(fixture.g0.num_edges() as f64)),
        ("shards", Json::Num(stats.shards as f64)),
        ("hot_fraction", Json::Num(SHARD_HOT_FRACTION)),
        ("cross_fraction", Json::Num(SHARD_CROSS_FRACTION)),
        ("churn_ops", Json::Num(churn.total_ops() as f64)),
        ("intra_ops", Json::Num(intra_ops as f64)),
        ("boundary_ops", Json::Num(boundary_ops as f64)),
        ("shard_update_wall_s", Json::Num(shard_wall)),
        ("shard_parallel_update_wall_s", Json::Num(parallel_wall)),
        (
            "shard_parallel_speedup",
            Json::Num(shard_wall / parallel_wall.max(f64::MIN_POSITIVE)),
        ),
        ("mono_update_wall_s", Json::Num(mono_wall_s)),
        (
            "shard_wall_ratio_vs_mono",
            Json::Num(shard_wall / mono_wall_s.max(f64::MIN_POSITIVE)),
        ),
        ("imbalance_ratio", Json::Num(stats.imbalance_ratio)),
        ("max_shard_ops", Json::Num(stats.max_shard_ops as f64)),
        ("total_shard_ops", Json::Num(stats.total_shard_ops as f64)),
        ("boundary_edges", Json::Num(stats.boundary_edges as f64)),
        ("boundary_nodes", Json::Num(stats.boundary_nodes as f64)),
        (
            "boundary_relinks",
            Json::Num(sharded.boundary_relinks() as f64),
        ),
        (
            "shard_publish_wall_s",
            Json::Num(publish_report.publish_seconds),
        ),
        ("factor_nnz", Json::Num(publish_report.factor_nnz as f64)),
        ("stitched_pcg_iters_total", Json::Num(stitched_iters as f64)),
        ("mono_pcg_iters_total", Json::Num(mono_iters as f64)),
        (
            "stitched_iter_ratio",
            Json::Num(stitched_iters as f64 / mono_iters.max(1) as f64),
        ),
        (
            "stitched_converged",
            Json::Bool(stitched.all_converged() && mono_solve.all_converged()),
        ),
        ("resetups", Json::Num(sharded.epoch() as f64)),
    ])
}

/// Runs one (case, backend) scenario: inGRASS setup (timed, with the
/// engine's own phase breakdown) → the paper's 10-batch insertion stream
/// (timed) → final condition number and off-tree density against the
/// updated graph.
fn run_scenario(case: TestCase, fixture: &CaseFixture, backend: &str, args: &Args) -> Json {
    let CaseFixture {
        g0,
        h0,
        stream,
        g_final,
        ..
    } = fixture;
    let setup_cfg = SetupConfig::default()
        .with_seed(args.seed)
        .with_resistance(backend_config(backend, args.threads));

    let mut timer = PhaseTimer::start();
    let mut engine = InGrassEngine::setup(h0, &setup_cfg).expect("ingrass setup");
    let setup_wall = timer.lap();
    let report = engine.setup_report().clone();

    let ucfg = UpdateConfig::default();
    let repeats = args.scale.update_repeats();
    let (mut included, mut merged, mut redistributed) = (0usize, 0usize, 0usize);
    timer.lap();
    for _ in 0..repeats {
        for batch in stream.batches() {
            let r = engine.insert_batch(batch, &ucfg).expect("ingrass update");
            included += r.included;
            merged += r.merged;
            redistributed += r.redistributed;
        }
    }
    let update_wall = timer.lap();

    // Quality metrics on the final state (not part of either timed phase).
    let h_final = engine.sparsifier_graph();
    let cond = estimate_condition_number(g_final, &h_final, &ConditionOptions::fast())
        .expect("condition estimate");
    let density = SparsifierDensity::new(g0.num_nodes())
        .report_graphs(&h_final, g0)
        .off_tree;

    println!(
        "{:<14} {:<7} setup {:>10} (res {:>10}) update {:>10}  κ {:>8.2}  density {:.4}",
        case.name(),
        backend,
        fmt_secs(setup_wall.as_secs_f64()),
        fmt_secs(report.resistance_time.as_secs_f64()),
        fmt_secs(update_wall.as_secs_f64()),
        cond.lambda_max,
        density,
    );

    obj(vec![
        ("id", Json::Str(format!("{}/{}", case.name(), backend))),
        ("case", Json::Str(case.name().to_string())),
        ("backend", Json::Str(backend.to_string())),
        ("nodes", Json::Num(g0.num_nodes() as f64)),
        ("edges", Json::Num(g0.num_edges() as f64)),
        ("levels", Json::Num(report.levels as f64)),
        ("setup_wall_s", Json::Num(setup_wall.as_secs_f64())),
        (
            "setup_resistance_s",
            Json::Num(report.resistance_time.as_secs_f64()),
        ),
        ("setup_lrd_s", Json::Num(report.lrd_time.as_secs_f64())),
        (
            "setup_connectivity_s",
            Json::Num(report.connectivity_time.as_secs_f64()),
        ),
        ("update_wall_s", Json::Num(update_wall.as_secs_f64())),
        ("update_repeats", Json::Num(repeats as f64)),
        (
            "update_batches",
            Json::Num((stream.batches().len() * repeats) as f64),
        ),
        ("update_included", Json::Num(included as f64)),
        ("update_merged", Json::Num(merged as f64)),
        ("update_redistributed", Json::Num(redistributed as f64)),
        ("condition_final", Json::Num(cond.lambda_max)),
        ("offtree_density_final", Json::Num(density)),
    ])
}

/// Offered-load multiple over the front end's configured capacity in the
/// `traffic/<case>` scenarios: sustained 2× overload.
const TRAFFIC_OVERLOAD: f64 = 2.0;
/// Virtual trace horizon of the traffic scenarios (seconds).
const TRAFFIC_HORIZON_S: f64 = 2.5;
/// Bounded admission cap of the traffic scenarios.
const TRAFFIC_MAX_PENDING: usize = 32;
/// Per-request deadline of the traffic scenarios (virtual seconds).
const TRAFFIC_DEADLINE_S: f64 = 0.3;

/// Runs the traffic scenario of one case: the serving front end
/// (`ingrass-traffic`) replays the same seeded 2×-overload workload trace
/// (Poisson arrivals, hot-tenant skew, mixed reader solves + writer
/// churn) twice against a solve-grade `SnapshotEngine`, on a virtual
/// clock:
///
/// * **bounded** — admission cap, per-request deadline, weighted-fair
///   dequeue (tenant weights 2:1:1). Gated: `traffic_p99_s` (accepted
///   requests' queue wait + modeled service time) and `shed_fraction`.
///   Both are bit-deterministic at fixed seed — any machine, any worker
///   width — so the gate compares them unscaled.
/// * **unbounded** — the same trace with the cap and deadline off (the
///   pre-front-end regime, kept as a harness mode): nothing is shed and
///   the backlog at the horizon grows to roughly `(λ − C)·T`, recorded
///   as `unbounded_pending_at_horizon` next to the bounded cap.
fn run_traffic_scenario(case: TestCase, fixture: &CaseFixture, args: &Args) -> Json {
    let setup_cfg = SetupConfig::default()
        .with_seed(args.seed)
        .with_resistance(backend_config("krylov", args.threads));
    let h_solve = GrassSparsifier::default()
        .by_offtree_density(&fixture.g0, SOLVE_DENSITY)
        .expect("traffic-grade sparsification")
        .graph;
    let churn_batches: Vec<Vec<UpdateOp>> = fixture
        .churn
        .batches()
        .iter()
        .map(|b| to_update_ops(b))
        .collect();

    let bounded_cfg = OpenLoopConfig {
        traffic: TrafficConfig {
            max_pending: TRAFFIC_MAX_PENDING,
            deadline_s: TRAFFIC_DEADLINE_S,
            tenant_weights: vec![2.0, 1.0, 1.0],
        },
        ..Default::default()
    };
    let capacity_hz = bounded_cfg.capacity_hz();
    let offered_hz = capacity_hz * TRAFFIC_OVERLOAD;
    let trace = WorkloadTrace::generate(&WorkloadConfig {
        duration_s: TRAFFIC_HORIZON_S,
        arrivals: ArrivalProcess::Poisson {
            rate_hz: offered_hz,
        },
        tenants: 3,
        churn_fraction: 0.03,
        seed: args.seed ^ 0x7a11,
        ..Default::default()
    });

    let timer = PhaseTimer::start();
    let mut engine = SnapshotEngine::setup(&h_solve, &setup_cfg).expect("traffic setup");
    let bounded = run_open_loop(
        &mut engine,
        &churn_batches,
        trace.events(),
        TRAFFIC_HORIZON_S,
        &bounded_cfg,
    )
    .expect("bounded traffic run");

    let mut unbounded_cfg = bounded_cfg.clone();
    unbounded_cfg.traffic.max_pending = usize::MAX;
    unbounded_cfg.traffic.deadline_s = f64::INFINITY;
    unbounded_cfg.flush_after_horizon = false;
    let mut engine = SnapshotEngine::setup(&h_solve, &setup_cfg).expect("traffic setup");
    let unbounded = run_open_loop(
        &mut engine,
        &churn_batches,
        trace.events(),
        TRAFFIC_HORIZON_S,
        &unbounded_cfg,
    )
    .expect("unbounded traffic run");
    let wall = timer.total().as_secs_f64();

    // Inline acceptance bars — seed-deterministic, so they assert rather
    // than gate. Under sustained 2× overload the bounded front end sheds
    // roughly half the offered load (both loss modes occur), holds the
    // backlog at the cap, and keeps accepted-request p99 within
    // deadline + one cadence + max modeled service time; the unbounded
    // mode sheds nothing and its backlog grows far past the cap.
    let shed = bounded.shed_fraction();
    let p99 = bounded.p99_s();
    assert_eq!(
        bounded.non_converged,
        0,
        "{}: non-converged solves",
        case.name()
    );
    assert!(
        shed > 0.25 && shed < 0.75,
        "{}: shed fraction {shed} out of the 2x-overload band",
        case.name()
    );
    assert!(
        p99 > 0.0 && p99 < 1.0,
        "{}: accepted p99 {p99}s escaped the SLO bar",
        case.name()
    );
    assert!(
        bounded.traffic.rejected_full > 0 && bounded.traffic.shed_deadline > 0,
        "{}: overload must exercise both loss modes (full {}, deadline {})",
        case.name(),
        bounded.traffic.rejected_full,
        bounded.traffic.shed_deadline,
    );
    assert!(bounded.pending_at_horizon <= TRAFFIC_MAX_PENDING);
    assert_eq!(unbounded.traffic.rejected_full, 0);
    assert_eq!(unbounded.traffic.shed_deadline, 0);
    assert!(
        unbounded.pending_at_horizon > 3 * TRAFFIC_MAX_PENDING,
        "{}: unbounded backlog {} did not outgrow the bounded cap",
        case.name(),
        unbounded.pending_at_horizon,
    );

    println!(
        "{:<14} traffic p99 {:>10} p50 {:>10} shed {:>5.1}%  {:>4} done | unbounded backlog {:>4} ({})",
        case.name(),
        fmt_secs(p99),
        fmt_secs(bounded.accepted_latency.p50()),
        shed * 100.0,
        bounded.completed,
        unbounded.pending_at_horizon,
        fmt_secs(wall),
    );

    obj(vec![
        ("id", Json::Str(format!("traffic/{}", case.name()))),
        ("case", Json::Str(case.name().to_string())),
        ("backend", Json::Str("krylov".to_string())),
        ("kind", Json::Str("traffic".to_string())),
        ("nodes", Json::Num(fixture.g0.num_nodes() as f64)),
        ("edges", Json::Num(fixture.g0.num_edges() as f64)),
        ("capacity_hz", Json::Num(capacity_hz)),
        ("offered_hz", Json::Num(offered_hz)),
        ("horizon_s", Json::Num(TRAFFIC_HORIZON_S)),
        ("max_pending", Json::Num(TRAFFIC_MAX_PENDING as f64)),
        ("deadline_s", Json::Num(TRAFFIC_DEADLINE_S)),
        ("traffic_offered", Json::Num(bounded.traffic.offered as f64)),
        ("traffic_completed", Json::Num(bounded.completed as f64)),
        (
            "traffic_rejected_full",
            Json::Num(bounded.traffic.rejected_full as f64),
        ),
        (
            "traffic_shed_deadline",
            Json::Num(bounded.traffic.shed_deadline as f64),
        ),
        ("shed_fraction", Json::Num(shed)),
        ("traffic_p50_s", Json::Num(bounded.accepted_latency.p50())),
        ("traffic_p95_s", Json::Num(bounded.accepted_latency.p95())),
        ("traffic_p99_s", Json::Num(p99)),
        (
            "queue_wait_p99_s",
            Json::Num(bounded.traffic.queue_wait.p99()),
        ),
        (
            "per_tenant_dispatched",
            Json::Arr(
                bounded
                    .traffic
                    .per_tenant_dispatched
                    .iter()
                    .map(|&d| Json::Num(d as f64))
                    .collect(),
            ),
        ),
        ("drain_rounds", Json::Num(bounded.drain_rounds as f64)),
        (
            "churn_batches_applied",
            Json::Num(bounded.churn_batches_applied as f64),
        ),
        (
            "bounded_pending_at_horizon",
            Json::Num(bounded.pending_at_horizon as f64),
        ),
        (
            "unbounded_pending_at_horizon",
            Json::Num(unbounded.pending_at_horizon as f64),
        ),
        ("unbounded_completed", Json::Num(unbounded.completed as f64)),
        ("traffic_wall_s", Json::Num(wall)),
    ])
}

/// Next free `BENCH_<n>.json` slot at the repo root.
fn next_bench_path(root: &Path) -> PathBuf {
    let mut max_n = 0u64;
    if let Ok(entries) = std::fs::read_dir(root) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(num) = name
                .strip_prefix("BENCH_")
                .and_then(|s| s.strip_suffix(".json"))
            {
                if let Ok(n) = num.parse::<u64>() {
                    max_n = max_n.max(n + 1);
                }
            }
        }
    }
    root.join(format!("BENCH_{max_n}.json"))
}

/// Compares current timings against a baseline report. Returns the list of
/// human-readable regression lines (empty = gate passes).
///
/// Baseline times are first scaled by the `calibration_s` ratio of the two
/// reports (clamped to 4× either way), so a baseline recorded on different
/// hardware is normalized to this machine's speed before the tolerance is
/// applied. Reports without a calibration field compare unscaled.
fn regressions(current: &Json, baseline: &Json, tolerance: f64) -> Vec<String> {
    // Wall-clock gates, plus the traffic scenarios' virtual-clock SLO
    // keys below: quality metrics (condition, density) are
    // seed-deterministic and belong to correctness tests, not a perf gate.
    // The solve keys gate once a regenerated baseline carries `<case>/solve`
    // scenarios (solve latency is a tracked metric, not best-effort), and
    // likewise the serving keys once a baseline carries `serve/<case>`
    // scenarios (snapshot publish latency and drain throughput are the
    // serving layer's tracked metrics).
    const GATED: [&str; 11] = [
        "setup_wall_s",
        "update_wall_s",
        "factor_wall_s",
        "solve_cold_wall_s",
        "serve_update_wall_s",
        "publish_wall_s",
        "serve_solve_wall_s",
        "recover_wall_s",
        "shard_update_wall_s",
        "shard_parallel_update_wall_s",
        "shard_publish_wall_s",
    ];
    // Virtual-clock gates from the traffic scenarios: deterministic
    // functions of (seed, scale, config), identical at any machine speed
    // and worker width — so the machine-speed calibration ratio must NOT
    // touch them (scaling by hardware would loosen or falsely trip a bar
    // that hardware cannot move).
    const GATED_VIRTUAL: [&str; 2] = ["traffic_p99_s", "shed_fraction"];
    // Absolute floor absorbing scheduler/timer noise on sub-5 ms scenarios.
    const FLOOR_S: f64 = 0.005;
    let machine_scale = match (
        current.get("calibration_s").and_then(Json::as_f64),
        baseline.get("calibration_s").and_then(Json::as_f64),
    ) {
        (Some(cur_cal), Some(base_cal)) if base_cal > 0.0 && cur_cal > 0.0 => {
            (cur_cal / base_cal).clamp(0.25, 4.0)
        }
        _ => 1.0,
    };
    let cur = scenario_metrics(current);
    let base = scenario_metrics(baseline);
    let mut out = Vec::new();
    for (id, base_metrics) in &base {
        let Some(cur_metrics) = cur.get(id) else {
            out.push(format!("scenario {id} missing from current run"));
            continue;
        };
        let keyed_scales = GATED
            .iter()
            .map(|&k| (k, machine_scale))
            .chain(GATED_VIRTUAL.iter().map(|&k| (k, 1.0)));
        for (key, scale) in keyed_scales {
            let (Some(&b), Some(&c)) = (base_metrics.get(key), cur_metrics.get(key)) else {
                continue;
            };
            let b_scaled = b * scale;
            if c > b_scaled * (1.0 + tolerance) + FLOOR_S {
                out.push(format!(
                    "{id} {key}: {} → {} (> {:.0}% + {:.0} ms budget at machine scale {:.2})",
                    fmt_secs(b_scaled),
                    fmt_secs(c),
                    tolerance * 100.0,
                    FLOOR_S * 1e3,
                    scale,
                ));
            }
        }
    }
    out
}

fn main() -> ExitCode {
    let args = parse_args();
    if let Some(n) = args.threads {
        // Pin the width process-wide (still single-threaded here): the
        // embedder configs carry the explicit override, and every
        // ambient-width stage (wide-graph edge_resistances, insert_batch
        // scoring) reads this variable.
        std::env::set_var(ingrass_par::THREADS_ENV, n.to_string());
    }
    let threads_effective = args.threads.unwrap_or_else(ingrass_par::num_threads);
    let calibration_s = calibration_seconds();
    println!(
        "perf — scale {} (fraction {}), seed {}, {} worker thread(s), calibration {}",
        args.scale.name(),
        args.scale.fraction(),
        args.seed,
        threads_effective,
        fmt_secs(calibration_s),
    );

    let mut scenarios = Vec::new();
    for case in CASES {
        let fixture = CaseFixture::build(case, &args);
        for backend in BACKENDS {
            scenarios.push(run_scenario(case, &fixture, backend, &args));
        }
        scenarios.push(run_churn_scenario(case, &fixture, &args));
        scenarios.push(run_solve_scenario(case, &fixture, &args));
        scenarios.push(run_serve_scenario(case, &fixture, &args));
        scenarios.push(run_recover_scenario(case, &fixture, &args));
        scenarios.push(run_shard_scenario(case, &fixture, &args));
        scenarios.push(run_traffic_scenario(case, &fixture, &args));
    }

    let doc = obj(vec![
        ("schema_version", Json::Num(SCHEMA_VERSION)),
        ("generator", Json::Str("ingrass-bench perf".to_string())),
        ("scale", Json::Str(args.scale.name().to_string())),
        ("scale_fraction", Json::Num(args.scale.fraction())),
        ("seed", Json::Num(args.seed as f64)),
        ("threads", Json::Num(threads_effective as f64)),
        ("calibration_s", Json::Num(calibration_s)),
        (
            "update_mix",
            obj(vec![
                (
                    "delete_fraction",
                    Json::Num(ChurnConfig::PAPER_DELETE_FRACTION),
                ),
                (
                    "reweight_fraction",
                    Json::Num(ChurnConfig::PAPER_REWEIGHT_FRACTION),
                ),
                (
                    "insert_fraction",
                    Json::Num(
                        1.0 - ChurnConfig::PAPER_DELETE_FRACTION
                            - ChurnConfig::PAPER_REWEIGHT_FRACTION,
                    ),
                ),
            ]),
        ),
        ("scenarios", Json::Arr(scenarios)),
    ]);

    // crates/bench/../.. = repo root, regardless of the invocation cwd.
    let repo_root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out_path = args
        .out
        .clone()
        .unwrap_or_else(|| next_bench_path(&repo_root));
    std::fs::write(&out_path, doc.to_pretty()).expect("write bench json");
    println!("wrote {}", out_path.display());

    if let Some(baseline_path) = &args.baseline {
        let text = std::fs::read_to_string(baseline_path).expect("read baseline json");
        let baseline = Json::parse(&text).expect("parse baseline json");
        // The gate must never pass vacuously: a baseline this binary cannot
        // interpret (schema drift, truncated/renamed scenarios) guards
        // nothing, so it is an error, not a clean pass.
        let base_schema = baseline.get("schema_version").and_then(Json::as_f64);
        if base_schema != Some(SCHEMA_VERSION) {
            eprintln!(
                "baseline {}: schema_version {:?} does not match this binary's \
                 {SCHEMA_VERSION} — the schema changed without regenerating the \
                 baseline. Re-run the perf binary on the baseline machine and \
                 check the new BENCH_baseline.json in with the schema change \
                 (same PR), so every gated metric keeps a reference point.",
                baseline_path.display(),
                base_schema,
            );
            return ExitCode::FAILURE;
        }
        if scenario_metrics(&baseline).is_empty() {
            eprintln!(
                "baseline {}: no gateable scenarios found",
                baseline_path.display(),
            );
            return ExitCode::FAILURE;
        }
        let found = regressions(&doc, &baseline, args.tolerance);
        if !found.is_empty() {
            eprintln!("PERF REGRESSIONS vs {}:", baseline_path.display());
            for line in &found {
                eprintln!("  {line}");
            }
            return ExitCode::FAILURE;
        }
        println!(
            "perf gate passed vs {} (tolerance {:.0}%)",
            baseline_path.display(),
            args.tolerance * 100.0
        );
    }
    ExitCode::SUCCESS
}
