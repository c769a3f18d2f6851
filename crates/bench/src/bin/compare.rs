//! Paired comparison of two perfbench builds: the one judge of the
//! repository benchmark.
//!
//! ```text
//! cargo run -p ingrass-bench --release --bin compare -- \
//!     --base <perfbench binary> --head <perfbench binary> [--pairs k] [--seed n]
//! ```
//!
//! For every workload of `BENCHMARK.json`, the two binaries run in
//! alternation, `k` times each (default 3), at that file's `run_seconds`
//! and perfbench seed `n` (default 42). The order within a pair flips from
//! pair to pair, so host drift hits both sides alike. Each end-to-end
//! metric is judged on the two sides' medians against its bound:
//! `regressed` when the head is worse by more than the bound; otherwise
//! `unresolved` when the base's own interquartile range exceeds the bound
//! (relative to its median); `gain` with at least 10 pairs, at least 9 of
//! 10 won by the head and a median gap above the base's interquartile
//! range; `ok` otherwise. Then one traced one-cycle run per side
//! (`--seconds 0 --trace 1`) lists every work counter that differs.
//!
//! Exits 1 when a metric regressed, a head run failed a check or exited
//! non-zero, or the head failed a larger share of its attempted operations
//! than the base; 2 on a usage error.

use ingrass_bench::json::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Pairs needed before a `gain` can be claimed.
const GAIN_PAIRS: usize = 10;

/// Per-layer metrics that are neither times nor work counters: rounds
/// played follow the host's speed, and the other two are ratios of times.
const NOT_COUNTERS: [&str; 3] = [
    "bench.rounds",
    "trace.overhead_frac",
    "baselines.speedup_vs_grass",
];

/// One end-to-end metric's contract.
#[derive(Debug, Clone)]
struct Metric {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

/// What `BENCHMARK.json` defines.
#[derive(Debug)]
struct Spec {
    run_seconds: f64,
    workloads: Vec<String>,
    end_to_end: Vec<Metric>,
    /// Per-layer metrics that count work, so repeat exactly run to run.
    counters: Vec<String>,
}

impl Spec {
    fn parse(doc: &Json) -> Result<Spec, String> {
        let list = |key: &str| doc.get(key).and_then(Json::as_arr).unwrap_or(&[]);
        let spec = Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .unwrap_or(-1.0),
            workloads: list("workloads")
                .iter()
                .map(|w| text(w, "name").into())
                .collect(),
            end_to_end: list("end_to_end")
                .iter()
                .map(|m| Metric {
                    name: text(m, "name").into(),
                    higher_is_better: text(m, "better") == "higher",
                    bound: m.get("bound").and_then(Json::as_f64).unwrap_or(0.0),
                })
                .collect(),
            counters: list("per_layer")
                .iter()
                .filter(|m| text(m, "unit") != "s" && !NOT_COUNTERS.contains(&text(m, "name")))
                .map(|m| text(m, "name").into())
                .collect(),
        };
        if spec.run_seconds < 0.0
            || spec.workloads.is_empty()
            || spec.end_to_end.iter().any(|m| m.bound <= 0.0)
        {
            return Err("not a benchmark definition".into());
        }
        Ok(spec)
    }
}

/// A string member of a `BENCHMARK.json` entry, or `""`.
fn text<'a>(item: &'a Json, key: &str) -> &'a str {
    item.get(key).and_then(Json::as_str).unwrap_or("")
}

/// What one perfbench run reported.
#[derive(Debug, Clone, Default)]
struct Run {
    /// Exited zero and printed a result line with `correct: true`.
    passed: bool,
    attempted: f64,
    failed: f64,
    metrics: BTreeMap<String, f64>,
}

impl Run {
    /// Reads the result line (the last line of stdout). A run without one
    /// counts as failed with nothing attempted.
    fn parse(stdout: &str, exited_ok: bool) -> Run {
        let Some(doc) = stdout.lines().last().and_then(|l| Json::parse(l).ok()) else {
            return Run::default();
        };
        let num = |key: &str| doc.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        let mut metrics = BTreeMap::new();
        if let Some(Json::Obj(members)) = doc.get("metrics") {
            for (name, m) in members {
                if let Some(v) = m.get("value").and_then(Json::as_f64) {
                    metrics.insert(name.clone(), v);
                }
            }
        }
        Run {
            passed: exited_ok && doc.get("correct") == Some(&Json::Bool(true)),
            attempted: num("attempted"),
            failed: num("failed"),
            metrics,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Ok,
    Gain,
    Unresolved,
    Regressed,
}

/// One metric judged over the pairs of one workload.
#[derive(Debug)]
struct Judged {
    base: f64,
    head: f64,
    /// Base interquartile range over base median.
    spread: f64,
    /// Pairs in which the head was better.
    wins: usize,
    pairs: usize,
    verdict: Verdict,
}

/// Median and interquartile range (linear-interpolation quartiles).
fn median_iqr(samples: &[f64]) -> (f64, f64) {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let quantile = |q: f64| {
        let at = q * (v.len() - 1) as f64;
        let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
        v[lo] + (at - lo as f64) * (v[hi] - v[lo])
    };
    (quantile(0.5), quantile(0.75) - quantile(0.25))
}

/// Judges one metric over the pairs where both runs reported it, or
/// `None` when no pair did.
fn judge(m: &Metric, base_runs: &[Run], head_runs: &[Run]) -> Option<Judged> {
    let pairs: Vec<(f64, f64)> = base_runs
        .iter()
        .zip(head_runs)
        .filter_map(|(b, h)| Some((*b.metrics.get(&m.name)?, *h.metrics.get(&m.name)?)))
        .collect();
    if pairs.is_empty() {
        return None;
    }
    let (base, iqr) = median_iqr(&pairs.iter().map(|p| p.0).collect::<Vec<_>>());
    let (head, _) = median_iqr(&pairs.iter().map(|p| p.1).collect::<Vec<_>>());
    // How much better the head is, in the metric's own units.
    let sign = if m.higher_is_better { 1.0 } else { -1.0 };
    let better = |base: f64, head: f64| sign * (head - base);
    let wins = pairs.iter().filter(|&&(b, h)| better(b, h) > 0.0).count();
    let spread = iqr / base.abs().max(f64::MIN_POSITIVE);
    let won = pairs.len() >= GAIN_PAIRS && 10 * wins >= 9 * pairs.len();
    let verdict = if -better(base, head) > m.bound * base.abs() {
        Verdict::Regressed
    } else if spread > m.bound {
        Verdict::Unresolved
    } else if won && better(base, head) > iqr {
        Verdict::Gain
    } else {
        Verdict::Ok
    };
    let pairs = pairs.len();
    Some(Judged {
        base,
        head,
        spread,
        wins,
        pairs,
        verdict,
    })
}

/// Failed operations over attempted ones, summed over runs.
fn failed_share(runs: &[Run]) -> f64 {
    let attempted: f64 = runs.iter().map(|r| r.attempted).sum();
    runs.iter().map(|r| r.failed).sum::<f64>() / attempted.max(1.0)
}

/// Everything that fails the head on one workload.
fn problems(workload: &str, metrics: &[Metric], base: &[Run], head: &[Run]) -> Vec<String> {
    let mut out = Vec::new();
    let failed = head.iter().filter(|r| !r.passed).count();
    if failed > 0 {
        out.push(format!(
            "{workload}: {failed} of {} head runs failed a check or exited non-zero",
            head.len()
        ));
    }
    let (b, h) = (failed_share(base), failed_share(head));
    if h > b {
        out.push(format!(
            "{workload}: head failed {h:.4} of attempted operations, base {b:.4}"
        ));
    }
    for m in metrics {
        match judge(m, base, head) {
            Some(j) if j.verdict == Verdict::Regressed => out.push(format!(
                "{workload}: {} regressed {:.4e} -> {:.4e}",
                m.name, j.base, j.head
            )),
            None => out.push(format!("{workload}: {} missing", m.name)),
            _ => {}
        }
    }
    out
}

/// Counters whose values differ, bit for bit, between two traced runs.
fn counter_diffs<'a>(counters: &'a [String], base: &Run, head: &Run) -> Vec<(&'a str, f64, f64)> {
    let value = |r: &Run, c: &String| r.metrics.get(c).copied().unwrap_or(f64::NAN);
    counters
        .iter()
        .map(|c| (c.as_str(), value(base, c), value(head, c)))
        .filter(|&(_, b, h)| b.to_bits() != h.to_bits())
        .collect()
}

/// Runs one perfbench binary once, echoing its failed checks.
fn perfbench(bin: &Path, workload: &str, seed: u64, seconds: f64, trace: bool) -> Run {
    let (seed, seconds) = (seed.to_string(), seconds.to_string());
    let trace = if trace { "1" } else { "0" };
    let args = [
        "--workload",
        workload,
        "--seed",
        &seed,
        "--seconds",
        &seconds,
        "--trace",
        trace,
    ];
    match Command::new(bin).args(args).output() {
        Ok(out) => {
            for line in String::from_utf8_lossy(&out.stderr).lines() {
                if line.starts_with("FAILED") || line.contains("panicked") {
                    eprintln!("  {}: {line}", bin.display());
                }
            }
            Run::parse(&String::from_utf8_lossy(&out.stdout), out.status.success())
        }
        Err(e) => {
            eprintln!("  cannot run {}: {e}", bin.display());
            Run::default()
        }
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!(
        "{msg}\nusage: compare --base <perfbench binary> --head <perfbench binary> \
         [--pairs k] [--seed n]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut base, mut head, mut pairs, mut seed) = (None, None, Some(3usize), Some(42u64));
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return usage(&format!("{} needs a value", pair[0]));
        };
        match flag.as_str() {
            "--base" => base = Some(PathBuf::from(value)),
            "--head" => head = Some(PathBuf::from(value)),
            "--pairs" => pairs = value.parse().ok().filter(|&k| k > 0),
            "--seed" => seed = value.parse().ok(),
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(base), Some(head), Some(pairs), Some(seed)) = (base, head, pairs, seed) else {
        return usage("--base and --head are required; --pairs must be ≥ 1");
    };
    let spec_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    let spec = std::fs::read_to_string(&spec_path)
        .map_err(|e| e.to_string())
        .and_then(|text| Json::parse(&text))
        .and_then(|doc| Spec::parse(&doc));
    let spec = match spec {
        Ok(spec) => spec,
        Err(e) => return usage(&format!("{}: {e}", spec_path.display())),
    };

    let mut failures = Vec::new();
    for w in &spec.workloads {
        let (mut b_runs, mut h_runs) = (Vec::new(), Vec::new());
        for i in 0..pairs {
            let run = |bin: &Path| perfbench(bin, w, seed, spec.run_seconds, false);
            if i % 2 == 0 {
                b_runs.push(run(&base));
                h_runs.push(run(&head));
            } else {
                h_runs.push(run(&head));
                b_runs.push(run(&base));
            }
            eprintln!("{w}: pair {} of {pairs} done", i + 1);
        }
        println!(
            "\n{w}: {pairs} pairs of {} s runs, seed {seed}; failed/attempted base {:.4}, head {:.4}",
            spec.run_seconds,
            failed_share(&b_runs),
            failed_share(&h_runs)
        );
        println!(
            "{:<18} {:>12} {:>12} {:>8} {:>9} {:>6}  verdict",
            "metric", "base median", "head median", "change", "base IQR", "wins"
        );
        for m in &spec.end_to_end {
            // A metric no pair reported is listed by `problems` below.
            let Some(j) = judge(m, &b_runs, &h_runs) else {
                continue;
            };
            println!(
                "{:<18} {:>12.4e} {:>12.4e} {:>+7.1}% {:>8.1}% {:>3}/{:<2}  {}",
                m.name,
                j.base,
                j.head,
                100.0 * (j.head / j.base - 1.0),
                100.0 * j.spread,
                j.wins,
                j.pairs,
                format!("{:?}", j.verdict).to_lowercase()
            );
        }
        failures.extend(problems(w, &spec.end_to_end, &b_runs, &h_runs));

        let traced_b = perfbench(&base, w, seed, 0.0, true);
        let traced_h = perfbench(&head, w, seed, 0.0, true);
        if !traced_h.passed {
            failures.push(format!(
                "{w}: traced head run failed a check or exited non-zero"
            ));
        }
        let diffs = counter_diffs(&spec.counters, &traced_b, &traced_h);
        println!(
            "counters (one traced cycle per side): {} of {} differ",
            diffs.len(),
            spec.counters.len()
        );
        for (name, b, h) in diffs {
            println!("  {name:<24} {b:>16} -> {h}");
        }
    }

    println!(
        "\ncompare: {}",
        if failures.is_empty() { "pass" } else { "FAIL" }
    );
    for f in &failures {
        println!("  {f}");
    }
    ExitCode::from(u8::from(!failures.is_empty()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, higher is better, typical value)` of the synthetic metrics.
    const METRICS: [(&str, bool, f64); 3] = [
        ("setup_s", false, 0.03),
        ("write_ops_per_s", true, 8000.0),
        ("read_p50_s", false, 0.04),
    ];

    fn metrics() -> Vec<Metric> {
        let metric = |(name, higher_is_better, _): (&str, bool, f64)| Metric {
            name: name.to_string(),
            higher_is_better,
            bound: 0.25,
        };
        METRICS.into_iter().map(metric).collect()
    }

    /// `k` passing runs with ±1.5 % of deterministic jitter around the
    /// typical values, one metric scaled by `shift`.
    fn runs(k: usize, salt: u64, shift: Option<(&str, f64)>) -> Vec<Run> {
        let run = |i: usize| {
            let jitter = 1.0 + 0.03 * (((i as u64 * 7 + salt) % 5) as f64 / 4.0 - 0.5);
            let scaled = |name: &str, v: f64| {
                v * jitter * shift.filter(|s| s.0 == name).map_or(1.0, |s| s.1)
            };
            Run {
                passed: true,
                attempted: 1000.0,
                failed: 0.0,
                metrics: METRICS
                    .iter()
                    .map(|&(n, _, v)| (n.to_string(), scaled(n, v)))
                    .collect(),
            }
        };
        (0..k).map(run).collect()
    }

    fn verdicts(base: &[Run], head: &[Run]) -> Vec<Verdict> {
        metrics()
            .iter()
            .map(|m| judge(m, base, head).unwrap().verdict)
            .collect()
    }

    #[test]
    fn identical_runs_pass() {
        let (base, head) = (runs(3, 0, None), runs(3, 1, None));
        assert_eq!(verdicts(&base, &head), vec![Verdict::Ok; 3]);
        assert!(problems("shard", &metrics(), &base, &head).is_empty());
    }

    #[test]
    fn a_shift_flags_exactly_that_workload_and_metric() {
        let mut flagged = Vec::new();
        for w in ["serve-read", "shard"] {
            let shift = (w == "shard").then_some(("read_p50_s", 1.5));
            flagged.extend(problems(
                w,
                &metrics(),
                &runs(3, 0, None),
                &runs(3, 1, shift),
            ));
        }
        assert_eq!(flagged.len(), 1, "{flagged:?}");
        assert!(
            flagged[0].starts_with("shard: read_p50_s regressed"),
            "{flagged:?}"
        );
    }

    #[test]
    fn higher_is_better_metrics_are_judged_in_their_direction() {
        let base = runs(3, 0, None);
        let slower = runs(3, 1, Some(("write_ops_per_s", 1.0 / 1.5)));
        let want = vec![Verdict::Ok, Verdict::Regressed, Verdict::Ok];
        assert_eq!(verdicts(&base, &slower), want);
        for faster in [("write_ops_per_s", 1.5), ("read_p50_s", 1.0 / 1.5)] {
            assert_eq!(
                verdicts(&base, &runs(3, 1, Some(faster))),
                vec![Verdict::Ok; 3]
            );
        }
    }

    #[test]
    fn failed_checks_exits_and_failure_shares_fail() {
        let base = runs(3, 0, None);
        let mut incorrect = runs(3, 1, None);
        let line = r#"{"correct": false, "attempted": 1000, "failed": 0, "metrics": {}}"#;
        incorrect[1] = Run::parse(line, true);
        let mut crashed = runs(3, 1, None);
        crashed[2] = Run::parse("thread 'main' panicked", false);
        let mut failing = runs(3, 1, None);
        failing[0].failed = 1.0;
        for (what, head) in [
            ("incorrect", incorrect),
            ("crash", crashed),
            ("share", failing),
        ] {
            assert!(
                !problems("stream", &metrics(), &base, &head).is_empty(),
                "{what}"
            );
        }
        // The same failure share on both sides is no worse.
        let (mut base, mut head) = (runs(3, 0, None), runs(3, 1, None));
        base[0].failed = 1.0;
        head[2].failed = 1.0;
        assert!(problems("stream", &metrics(), &base, &head).is_empty());
    }

    #[test]
    fn a_wide_base_spread_is_unresolved_not_failed() {
        let (mut base, head) = (runs(3, 0, None), runs(3, 1, None));
        base[0].metrics.insert("setup_s".into(), 0.02);
        base[2].metrics.insert("setup_s".into(), 0.05);
        let judged = judge(&metrics()[0], &base, &head).unwrap();
        assert_eq!(judged.verdict, Verdict::Unresolved);
        assert!(problems("stream", &metrics(), &base, &head).is_empty());
    }

    #[test]
    fn a_gain_needs_ten_pairs() {
        let faster = Some(("read_p50_s", 0.7));
        let judged = |k| judge(&metrics()[2], &runs(k, 0, None), &runs(k, 1, faster)).unwrap();
        assert_eq!(judged(9).verdict, Verdict::Ok);
        assert_eq!((judged(10).verdict, judged(10).wins), (Verdict::Gain, 10));
    }

    #[test]
    fn counters_differ_bit_for_bit_or_when_missing() {
        let counters = ["solve.pcg_iters".to_string(), "shard.intra_ops".to_string()];
        let mut base = Run::default();
        base.metrics.insert(counters[0].clone(), 86.5);
        base.metrics.insert(counters[1].clone(), 12.0);
        let mut head = base.clone();
        assert!(counter_diffs(&counters, &base, &head).is_empty());
        head.metrics.insert(counters[0].clone(), 86.75);
        head.metrics.remove(&counters[1]);
        let diffs = counter_diffs(&counters, &base, &head);
        assert_eq!(
            (diffs.len(), diffs[0]),
            (2, ("solve.pcg_iters", 86.5, 86.75))
        );
    }

    #[test]
    fn reads_a_real_result_line_and_the_benchmark_definition() {
        let run = Run::parse(&format!("an earlier line\n{REAL_LINE}"), true);
        assert!(run.passed);
        assert_eq!(
            (run.attempted, run.failed, run.metrics.len()),
            (816.0, 0.0, 8)
        );
        assert_eq!(run.metrics["read_p50_s"], 0.0530992265);
        assert!(
            !Run::parse(REAL_LINE, false).passed,
            "a non-zero exit fails"
        );

        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
        let spec = Spec::parse(&Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap());
        let spec = spec.unwrap();
        assert_eq!((spec.workloads.len(), spec.end_to_end.len()), (4, 8));
        assert!(spec.counters.iter().any(|c| c == "solve.pcg_iters"));
        assert!(!spec
            .counters
            .iter()
            .any(|c| c.ends_with("_s") || c == "bench.rounds"));
        assert!(Spec::parse(&Json::parse("{}").unwrap()).is_err());
    }

    /// The result line of `perfbench --workload serve-read --seed 42
    /// --seconds 0 --trace 0`.
    const REAL_LINE: &str = r#"{"correct": true, "attempted": 816, "failed": 0, "metrics": {"setup_s": {"value": 0.040015646, "unit": "s"}, "write_p50_s": {"value": 0.0065962625, "unit": "s"}, "write_ops_per_s": {"value": 17287.715174718174, "unit": "1/s"}, "read_p50_s": {"value": 0.0530992265, "unit": "s"}, "read_p90_s": {"value": 0.101112163, "unit": "s"}, "recover_s": {"value": 0.0040314445, "unit": "s"}, "offtree_density": {"value": 0.10986605134467185, "unit": "ratio"}, "peak_rss_mb": {"value": 23.48828125, "unit": "MiB"}}}"#;
}
