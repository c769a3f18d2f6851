//! What every workload shares: the run tally, input helpers, and the
//! correctness checks that run outside the timed regions.

use crate::trace::{Closed, Tracer};
use ingrass::{SetupReport, SparsifierSnapshot, UpdateOp, UpdateReport};
use ingrass_gen::ChurnOp;
use ingrass_graph::{kruskal_tree, Graph, TreeObjective, TreePrecond};
use ingrass_linalg::{generalized_lanczos, pcg, CgOptions, CsrMatrix, LanczosOptions};
use ingrass_metrics::SparsifierDensity;
use ingrass_solve::ConcurrentSolveService;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Worker width of every parallel stage (the host has 2 CPUs).
pub const WIDTH: usize = 2;

/// Largest relative residual `‖L x − b‖ / ‖b‖` a served solve may have.
pub const RESIDUAL_MAX: f64 = 1e-6;

/// Set-ups of the serving stack per round; the last one serves the round.
pub const SETUPS: usize = 3;

/// Restarts from persisted state per round.
pub const RESTARTS: usize = 3;

/// Everything one run measured, plus its failure count.
#[derive(Debug, Default)]
pub struct Tally {
    /// Rounds played.
    pub rounds: usize,
    /// Set-up wall per set-up of the serving stack.
    pub setup: Vec<f64>,
    /// Latency per write call.
    pub write: Vec<f64>,
    /// Wall of the whole write path (write calls plus explicit publishes).
    pub write_wall: f64,
    /// Edit operations written.
    pub write_ops: u64,
    /// Latency per read request.
    pub read: Vec<f64>,
    /// Wall per restart from persisted state.
    pub recover: Vec<f64>,
    /// Edit operations per second of write-path wall, per round.
    pub write_rates: Vec<f64>,
    /// Off-tree density of each instance's final sparsifier.
    pub densities: Vec<f64>,
    /// Operations attempted (write calls, read requests, set-ups,
    /// restarts).
    pub attempted: u64,
    /// Failed operations plus failed checks.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Per-layer counters (summed, or overwritten by [`Tally::set`]).
    pub counters: BTreeMap<&'static str, f64>,
}

impl Tally {
    /// Counts a failed check.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    /// Counts a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    /// Adds to a counter.
    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.counters.entry(key).or_default() += v;
    }

    /// Overwrites a counter.
    pub fn set(&mut self, key: &'static str, v: f64) {
        self.counters.insert(key, v);
    }

    /// Raises a counter to at least `v`.
    pub fn max(&mut self, key: &'static str, v: f64) {
        let e = self.counters.entry(key).or_insert(v);
        *e = e.max(v);
    }

    /// Records one write call of `ops` operations.
    pub fn wrote(&mut self, c: Closed, ops: usize) {
        self.write.push(c.secs);
        self.write_wall += c.secs;
        self.write_ops += ops as u64;
        self.attempted += 1;
    }

    /// Records the outcome counts of one engine update report.
    pub fn update_counts(&mut self, r: &UpdateReport) {
        self.add("engine.included", r.included as f64);
        self.add("engine.merged", r.merged as f64);
        self.add("engine.redistributed", r.redistributed as f64);
        self.add("engine.deleted", r.deleted as f64);
        self.add("engine.relinked", r.relinked as f64);
        self.add("engine.vacuous", r.vacuous as f64);
        if r.resetup.is_some() {
            self.add("engine.resetups", 1.0);
        }
        self.check(r.total_processed() == r.batch_size, || {
            format!(
                "update report accounts for {} of {} ops",
                r.total_processed(),
                r.batch_size
            )
        });
    }
}

/// Attaches the engine set-up phases a [`SetupReport`] gives under the
/// engine set-up span `c`.
pub fn setup_phases(tr: &mut Tracer, t: &mut Tally, c: Closed, r: &SetupReport) {
    tr.derived(
        c,
        "resistance.embed",
        "resistance",
        r.resistance_time.as_secs_f64(),
    );
    tr.derived(c, "lrd.build", "lrd", r.lrd_time.as_secs_f64());
    tr.derived(
        c,
        "connectivity.build",
        "connectivity",
        r.connectivity_time.as_secs_f64(),
    );
    t.max("lrd.levels", r.levels as f64);
}

/// Engine update ops of one generator batch.
pub fn to_ops(batch: &[ChurnOp]) -> Vec<UpdateOp> {
    batch
        .iter()
        .map(|op| match *op {
            ChurnOp::Insert(u, v, weight) => UpdateOp::Insert { u, v, weight },
            ChurnOp::Delete(u, v) => UpdateOp::Delete { u, v },
            ChurnOp::Reweight(u, v, weight) => UpdateOp::Reweight { u, v, weight },
        })
        .collect()
}

/// SplitMix64: the benchmark's own seeded stream for request inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per `salt`.
    pub fn new(seed: u64, salt: u64) -> Rng {
        Rng(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Two distinct uniform nodes of an `n`-node graph.
    pub fn pair(&mut self, n: usize) -> (usize, usize) {
        let u = self.below(n);
        let v = (u + 1 + self.below(n - 1)) % n;
        (u, v)
    }
}

/// Unit current injected at one terminal and drawn at another: the
/// right-hand side of a terminal-pair potential solve.
pub fn terminal_rhs(n: usize, rng: &mut Rng) -> Vec<f64> {
    let (u, v) = rng.pair(n);
    let mut b = vec![0.0; n];
    b[u] = 1.0;
    b[v] = -1.0;
    b
}

/// `‖L x − b‖ / ‖b‖`.
pub fn rel_residual(lap: &CsrMatrix, x: &[f64], b: &[f64]) -> f64 {
    let lx = lap.matvec_alloc(x);
    let r: f64 = lx.iter().zip(b).map(|(a, c)| (a - c) * (a - c)).sum();
    let nb: f64 = b.iter().map(|c| c * c).sum();
    (r / nb).sqrt()
}

/// `λmax(L_H⁺ L_G)`: Lanczos on the pencil `(L_G, L_H)` with tree-PCG
/// solves in `L_H`, at the repository estimator's fast settings (the
/// forward half of `ingrass_metrics::estimate_condition_number`).
pub fn lambda_max(g: &Graph, h: &Graph) -> Result<f64, String> {
    let ones = vec![1.0; g.num_nodes()];
    let lg = g.laplacian();
    let lh = h.laplacian();
    let tree = kruskal_tree(h, TreeObjective::MaxWeight).map_err(|e| e.to_string())?;
    let pre = TreePrecond::new(&tree.tree);
    let cg = CgOptions::default().with_rel_tol(1e-6).with_max_iters(800);
    let solve = |rhs: &[f64], out: &mut [f64]| {
        out.iter_mut().for_each(|v| *v = 0.0);
        pcg(&lh, rhs, out, &pre, Some(&ones), &cg);
    };
    let opts = LanczosOptions::default()
        .with_max_iters(24)
        .with_tol(1e-3)
        .with_seed(20);
    generalized_lanczos(&lg, &lh, solve, Some(&ones), &opts)
        .map(|r| r.lambda_max)
        .map_err(|e| e.to_string())
}

/// Off-tree density of sparsifier `h` of graph `g`.
pub fn offtree_density(h: &Graph, g: &Graph) -> f64 {
    SparsifierDensity::new(g.num_nodes())
        .report_graphs(h, g)
        .off_tree
}

/// Records an instance's final-state off-tree density and, for the first
/// instance, `λmax(L_H⁺ L_G)` checked against `bound` (one estimate per
/// run: it costs seconds).
pub fn final_quality(t: &mut Tally, instance: usize, g: &Graph, h: &Graph, bound: f64) {
    t.densities.push(offtree_density(h, g));
    if instance > 0 {
        return;
    }
    match lambda_max(g, h) {
        Ok(k) => {
            t.set("quality.kappa", k);
            t.check(k.is_finite() && k <= bound, || {
                format!("kappa {k} of the final state exceeds its bound {bound}")
            });
        }
        Err(e) => t.fail(format!("kappa estimate failed: {e}")),
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Submits one closed-loop wave of terminal-pair solves against `snap`
/// (preconditioner) and `lap` (the system it was published for), drains
/// them, and records per-request submit-to-served latency plus the checks:
/// convergence and residual against `lap`.
pub fn serve_wave(
    tr: &mut Tracer,
    t: &mut Tally,
    svc: &ConcurrentSolveService,
    snap: &Arc<SparsifierSnapshot>,
    lap: &Arc<CsrMatrix>,
    rhss: &[Vec<f64>],
) {
    let mut pending = Vec::with_capacity(rhss.len());
    for (k, b) in rhss.iter().enumerate() {
        let b = b.clone();
        t.attempted += 1;
        tr.open("solve.submit", "solve");
        match svc.submit(snap, lap, b) {
            Ok(ticket) => pending.push((ticket.0, tr.close_for(&[ticket.0]), k)),
            Err(e) => {
                tr.close();
                t.fail(format!("solve submit rejected: {e}"));
            }
        }
    }
    if pending.is_empty() {
        return;
    }
    let tickets: Vec<u64> = pending.iter().map(|p| p.0).collect();
    tr.open("solve.drain", "solve");
    let round = svc.drain();
    let drained = tr.close_for(&tickets);
    t.add("solve.drains", 1.0);
    t.add("solve.groups", round.groups as f64);
    t.check(round.served.len() == pending.len(), || {
        format!(
            "drain served {} of {} requests",
            round.served.len(),
            pending.len()
        )
    });
    let n = lap.n_rows() as f64;
    let per_iter_flops =
        2.0 * lap.nnz() as f64 + 4.0 * snap.preconditioner().factor_nnz() as f64 + 10.0 * n;
    let per_iter_bytes =
        12.0 * lap.nnz() as f64 + 24.0 * snap.preconditioner().factor_nnz() as f64 + 80.0 * n;
    for s in &round.served {
        let Some(&(_, submitted, k)) = pending.iter().find(|p| p.0 == s.ticket.0) else {
            t.fail(format!("drain returned unknown ticket {}", s.ticket.0));
            continue;
        };
        t.read.push((drained.end - submitted.start).as_secs_f64());
        t.add(
            "solve.wait_s",
            (drained.start - submitted.end).as_secs_f64(),
        );
        let iters = s.result.iterations as f64;
        t.add("solve.pcg_iters", iters);
        t.add("solve.solves", 1.0);
        t.add("solve.flops_computed", iters * per_iter_flops);
        t.add("solve.bytes_computed", iters * per_iter_bytes);
        t.check(s.result.converged, || {
            format!("solve {} did not converge", s.ticket.0)
        });
        let res = rel_residual(lap, &s.x, &rhss[k]);
        t.check(res <= RESIDUAL_MAX, || {
            format!(
                "solve {} residual {res:.3e} above {RESIDUAL_MAX:.0e}",
                s.ticket.0
            )
        });
    }
}

/// Records the factor counters of one snapshot publish.
pub fn publish_counts(t: &mut Tally, p: &ingrass::PublishReport) {
    t.add("snapshot.publishes", 1.0);
    if p.factor_updated {
        t.add("snapshot.patched", 1.0);
    } else {
        t.add("snapshot.refactors", 1.0);
    }
    t.max("linalg.factor_nnz_max", p.factor_nnz as f64);
    t.set("linalg.factor_nnz_final", p.factor_nnz as f64);
    t.set("linalg.factor_flops", p.factor_flops);
}
