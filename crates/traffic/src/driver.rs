//! The open-loop drive loop: replays a [`WorkloadTrace`] against a
//! [`SnapshotEngine`] + [`ConcurrentSolveService`] pair through the
//! bounded admission queue, on a **virtual clock**.
//!
//! Arrivals happen at their trace timestamps; drains fire on a fixed
//! virtual cadence; a completed request's latency is its queue wait plus
//! a *modeled* service time that is a pure function of its PCG iteration
//! count. Because the iteration counts are bit-deterministic at any
//! worker width, every latency percentile the run reports is too — the
//! overload suite pins them exactly, which no wall-clock measurement
//! survives. Wall time is still recorded, as information.

use crate::queue::{AdmissionQueue, TrafficConfig, TrafficStats};
use ingrass::{SnapshotEngine, SparsifierSnapshot, UpdateConfig, UpdateOp};
use ingrass_gen::{TrafficEvent, TrafficEventKind};
use ingrass_linalg::CsrMatrix;
use ingrass_metrics::LatencyHistogram;
use ingrass_solve::{ConcurrentSolveService, ConcurrentSolveStats, SolveConfig, Ticket};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Errors of the drive loop.
#[derive(Debug, Clone, PartialEq)]
pub enum TrafficError {
    /// Applying a churn batch to the engine failed.
    Engine(String),
    /// Submitting a dispatched request to the solve service failed (a
    /// dimension bug — the front end never trips the service's own cap).
    Solve(String),
    /// The drive-loop configuration is invalid.
    Config(String),
}

impl fmt::Display for TrafficError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrafficError::Engine(m) => write!(f, "engine update failed: {m}"),
            TrafficError::Solve(m) => write!(f, "solve submission failed: {m}"),
            TrafficError::Config(m) => write!(f, "invalid open-loop config: {m}"),
        }
    }
}

impl std::error::Error for TrafficError {}

impl From<ingrass::InGrassError> for TrafficError {
    fn from(e: ingrass::InGrassError) -> Self {
        TrafficError::Engine(e.to_string())
    }
}

impl From<ingrass_solve::SolveError> for TrafficError {
    fn from(e: ingrass_solve::SolveError) -> Self {
        TrafficError::Solve(e.to_string())
    }
}

/// The virtual service-time model: what one solved request "costs" on
/// the virtual clock.
///
/// `service = base_s + iterations · per_iteration_s`. PCG iteration
/// counts are bit-deterministic (fixed seed, any worker width), so the
/// modeled latency distribution is too — the property the overload
/// suite's exact pins rely on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceModel {
    /// Fixed per-request overhead (virtual seconds).
    pub base_s: f64,
    /// Virtual seconds per PCG iteration.
    pub per_iteration_s: f64,
}

impl Default for ServiceModel {
    fn default() -> Self {
        ServiceModel {
            base_s: 1e-3,
            per_iteration_s: 5e-4,
        }
    }
}

impl ServiceModel {
    /// Virtual service time of a request that took `iterations` PCG
    /// iterations.
    pub fn service_s(&self, iterations: usize) -> f64 {
        self.base_s + iterations as f64 * self.per_iteration_s
    }
}

/// Configuration of [`run_open_loop`].
#[derive(Debug, Clone)]
pub struct OpenLoopConfig {
    /// Admission queue parameters (cap, deadline, tenant weights).
    pub traffic: TrafficConfig,
    /// Virtual drain cadence: a dispatch+drain round fires every this
    /// many virtual seconds.
    pub drain_every_s: f64,
    /// Requests dispatched (at most) per round — together with
    /// [`OpenLoopConfig::drain_every_s`] this fixes the service capacity
    /// at `drain_budget / drain_every_s` requests per virtual second.
    pub drain_budget: usize,
    /// The virtual service-time model.
    pub service: ServiceModel,
    /// Engine update configuration for churn batches.
    pub update: UpdateConfig,
    /// Whether to keep draining past the horizon until the queue empties
    /// (sheds expired requests on the way). The bounded front end flushes
    /// a residual of at most `max_pending`; switch this off to freeze an
    /// unbounded run's backlog at the horizon instead of solving it all.
    pub flush_after_horizon: bool,
}

impl Default for OpenLoopConfig {
    fn default() -> Self {
        OpenLoopConfig {
            traffic: TrafficConfig::default(),
            drain_every_s: 0.05,
            drain_budget: 4,
            service: ServiceModel::default(),
            update: UpdateConfig::default(),
            flush_after_horizon: true,
        }
    }
}

impl OpenLoopConfig {
    /// The service capacity the cadence and budget imply (requests per
    /// virtual second). Offered load above this is overload.
    pub fn capacity_hz(&self) -> f64 {
        self.drain_budget as f64 / self.drain_every_s
    }
}

/// What one [`run_open_loop`] run did.
#[derive(Debug, Clone)]
pub struct TrafficReport {
    /// Admission-queue counters (offers, rejections, sheds, per-tenant
    /// dispatch shares, queue-wait histogram).
    pub traffic: TrafficStats,
    /// The solve service's lifetime counters for the run.
    pub solve: ConcurrentSolveStats,
    /// Requests completed (dispatched *and* solved).
    pub completed: usize,
    /// Admission→completion virtual latency of completed requests
    /// (queue wait + modeled service time).
    pub accepted_latency: LatencyHistogram,
    /// Requests still queued when the trace horizon was reached — the
    /// backlog signal: bounded runs hold this at or below the cap,
    /// unbounded overload grows it linearly with the horizon.
    pub pending_at_horizon: usize,
    /// The trace horizon (virtual seconds).
    pub horizon_s: f64,
    /// Churn batches applied to the engine.
    pub churn_batches_applied: usize,
    /// Non-empty dispatch+drain rounds executed (including the
    /// post-horizon flush).
    pub drain_rounds: usize,
    /// Requests that failed to converge (should be zero — snapshots
    /// precondition their own systems exactly).
    pub non_converged: usize,
    /// Real wall time of the whole run (informational only; never gate
    /// on this across machines).
    pub wall_seconds: f64,
}

impl TrafficReport {
    /// Requests that never reached the solver, as a fraction of offers.
    pub fn shed_fraction(&self) -> f64 {
        self.traffic.shed_fraction()
    }

    /// p99 of the accepted-request latency (virtual seconds).
    pub fn p99_s(&self) -> f64 {
        self.accepted_latency.p99()
    }
}

/// A queued solve request: the RHS plus the snapshot pinned at admission.
struct SolveJob {
    snapshot: Arc<SparsifierSnapshot>,
    laplacian: Arc<CsrMatrix>,
    rhs: Vec<f64>,
}

/// Deterministic unit-dipole RHS for a workload key: `+1`/`−1` on a
/// scrambled node pair, so equal keys are identical (hot) queries.
fn rhs_for_key(n: usize, key: u64) -> Vec<f64> {
    let u = (ingrass_par::derive_seed(key, 0) % n as u64) as usize;
    let mut v = (ingrass_par::derive_seed(key, 1) % n as u64) as usize;
    if v == u {
        v = (u + 1) % n;
    }
    let mut b = vec![0.0; n];
    b[u] = 1.0;
    b[v] = -1.0;
    b
}

/// Replays `events` (a [`WorkloadTrace`]'s schedule) against `engine`
/// through a bounded admission queue and a fresh
/// [`ConcurrentSolveService`], on a virtual clock.
///
/// * Solve arrivals are offered to the queue, pinned to the snapshot
///   current at admission (snapshot isolation — exactly what a reader
///   thread would hold).
/// * Churn arrivals apply the next batch of `churn_batches` (cycled) to
///   the engine, publishing new snapshot versions mid-traffic. With no
///   batches supplied, churn arrivals are ignored.
/// * Every [`OpenLoopConfig::drain_every_s`] virtual seconds, up to
///   [`OpenLoopConfig::drain_budget`] requests are dispatched
///   weighted-fairly (expired ones shed) and solved.
///
/// Returns the run's [`TrafficReport`]. Everything in it except
/// `wall_seconds` is a deterministic function of `(events,
/// churn_batches, cfg, engine state)` — independent of machine speed and
/// worker width.
///
/// # Errors
/// [`TrafficError::Config`] for a non-positive cadence/budget/horizon;
/// [`TrafficError::Engine`] / [`TrafficError::Solve`] if a churn batch
/// or submission fails.
///
/// [`WorkloadTrace`]: ingrass_gen::WorkloadTrace
pub fn run_open_loop(
    engine: &mut SnapshotEngine,
    churn_batches: &[Vec<UpdateOp>],
    events: &[TrafficEvent],
    horizon_s: f64,
    cfg: &OpenLoopConfig,
) -> Result<TrafficReport, TrafficError> {
    if !(cfg.drain_every_s.is_finite() && cfg.drain_every_s > 0.0) {
        return Err(TrafficError::Config(
            "drain cadence must be positive".into(),
        ));
    }
    if cfg.drain_budget == 0 {
        return Err(TrafficError::Config(
            "drain budget must be at least 1".into(),
        ));
    }
    if !(horizon_s.is_finite() && horizon_s > 0.0) {
        return Err(TrafficError::Config("horizon must be positive".into()));
    }
    let wall = Instant::now();
    let n = engine.snapshot().num_nodes();
    let svc = ConcurrentSolveService::new(SolveConfig::default());
    let mut queue: AdmissionQueue<SolveJob> = AdmissionQueue::new(cfg.traffic.clone());
    let mut meta: HashMap<Ticket, (f64, f64)> = HashMap::new(); // ticket → (admitted, waited)
    let mut accepted_latency = LatencyHistogram::new();
    let mut completed = 0usize;
    let mut non_converged = 0usize;
    let mut churn_applied = 0usize;
    let mut drain_rounds = 0usize;

    // The snapshot a solve arrival pins: refreshed after every churn
    // publish, shared (same Arc) between arrivals in between — so the
    // admission groups under churn are exactly the published versions.
    let mut snap = engine.snapshot();
    let mut lap = snap.laplacian_arc();

    let do_round = |queue: &mut AdmissionQueue<SolveJob>,
                    now_s: f64,
                    meta: &mut HashMap<Ticket, (f64, f64)>,
                    accepted_latency: &mut LatencyHistogram,
                    completed: &mut usize,
                    non_converged: &mut usize,
                    drain_rounds: &mut usize|
     -> Result<(), TrafficError> {
        let dispatched = queue.dispatch(now_s, cfg.drain_budget);
        if dispatched.is_empty() {
            return Ok(());
        }
        *drain_rounds += 1;
        for d in dispatched {
            let ticket = svc.submit(&d.payload.snapshot, &d.payload.laplacian, d.payload.rhs)?;
            meta.insert(ticket, (d.admitted_at_s, d.waited_s));
        }
        let round = svc.drain();
        for s in &round.served {
            let (_admitted, waited) = meta
                .remove(&s.ticket)
                .expect("every served ticket was submitted this round");
            accepted_latency.record(waited + cfg.service.service_s(s.result.iterations));
            *completed += 1;
            if !s.result.converged {
                *non_converged += 1;
            }
        }
        Ok(())
    };

    let mut next_drain = cfg.drain_every_s;
    for e in events {
        while next_drain <= e.at_s && next_drain <= horizon_s {
            do_round(
                &mut queue,
                next_drain,
                &mut meta,
                &mut accepted_latency,
                &mut completed,
                &mut non_converged,
                &mut drain_rounds,
            )?;
            next_drain += cfg.drain_every_s;
        }
        match e.kind {
            TrafficEventKind::Solve { tenant, key } => {
                let job = SolveJob {
                    snapshot: Arc::clone(&snap),
                    laplacian: Arc::clone(&lap),
                    rhs: rhs_for_key(n, key),
                };
                // A full queue is an accounted outcome, not an error.
                let _ = queue.offer(tenant, e.at_s, job);
            }
            TrafficEventKind::Churn { batch } => {
                if !churn_batches.is_empty() {
                    let ops = &churn_batches[batch % churn_batches.len()];
                    engine.apply_batch(ops, &cfg.update)?;
                    churn_applied += 1;
                    snap = engine.snapshot();
                    lap = snap.laplacian_arc();
                }
            }
        }
    }
    while next_drain <= horizon_s {
        do_round(
            &mut queue,
            next_drain,
            &mut meta,
            &mut accepted_latency,
            &mut completed,
            &mut non_converged,
            &mut drain_rounds,
        )?;
        next_drain += cfg.drain_every_s;
    }
    let pending_at_horizon = queue.pending();

    if cfg.flush_after_horizon {
        let mut t = next_drain;
        while queue.pending() > 0 {
            do_round(
                &mut queue,
                t,
                &mut meta,
                &mut accepted_latency,
                &mut completed,
                &mut non_converged,
                &mut drain_rounds,
            )?;
            t += cfg.drain_every_s;
        }
    }

    Ok(TrafficReport {
        traffic: queue.stats().clone(),
        solve: svc.stats(),
        completed,
        accepted_latency,
        pending_at_horizon,
        horizon_s,
        churn_batches_applied: churn_applied,
        drain_rounds,
        non_converged,
        wall_seconds: wall.elapsed().as_secs_f64(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ingrass::SetupConfig;
    use ingrass_gen::{
        grid_2d, ArrivalProcess, ChurnOp, ChurnStream, WeightModel, WorkloadConfig, WorkloadTrace,
    };

    fn to_update_ops(batch: &[ChurnOp]) -> Vec<UpdateOp> {
        batch
            .iter()
            .map(|op| match *op {
                ChurnOp::Insert(u, v, w) => UpdateOp::Insert { u, v, weight: w },
                ChurnOp::Delete(u, v) => UpdateOp::Delete { u, v },
                ChurnOp::Reweight(u, v, w) => UpdateOp::Reweight { u, v, weight: w },
            })
            .collect()
    }

    fn setup(seed: u64) -> (SnapshotEngine, Vec<Vec<UpdateOp>>) {
        let g = grid_2d(8, 8, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, seed);
        let engine = SnapshotEngine::setup(&g, &SetupConfig::default()).unwrap();
        let churn = ChurnStream::generate(
            &g,
            &ingrass_gen::ChurnConfig {
                batches: 4,
                ops_per_batch: 3,
                seed,
                ..Default::default()
            },
        );
        let batches = churn.batches().iter().map(|b| to_update_ops(b)).collect();
        (engine, batches)
    }

    fn overload_trace(seed: u64) -> (WorkloadTrace, f64) {
        let horizon = 2.0;
        let trace = WorkloadTrace::generate(&WorkloadConfig {
            duration_s: horizon,
            arrivals: ArrivalProcess::Poisson { rate_hz: 160.0 },
            tenants: 3,
            churn_fraction: 0.03,
            seed,
            ..Default::default()
        });
        (trace, horizon)
    }

    fn bounded_cfg() -> OpenLoopConfig {
        OpenLoopConfig {
            traffic: TrafficConfig {
                max_pending: 32,
                deadline_s: 0.3,
                tenant_weights: vec![2.0, 1.0, 1.0],
            },
            drain_every_s: 0.05,
            drain_budget: 4, // capacity 80 req/s vs 160 offered → 2× overload
            ..Default::default()
        }
    }

    #[test]
    fn bounded_overload_sheds_and_keeps_latency_bounded() {
        let (mut engine, batches) = setup(11);
        let (trace, horizon) = overload_trace(11);
        let cfg = bounded_cfg();
        let report = run_open_loop(&mut engine, &batches, trace.events(), horizon, &cfg).unwrap();
        assert!(report.completed > 50, "completed {}", report.completed);
        assert_eq!(report.non_converged, 0);
        // 2× overload must shed roughly half the offered load.
        let shed = report.shed_fraction();
        assert!(shed > 0.3 && shed < 0.7, "shed fraction {shed}");
        assert!(report.pending_at_horizon <= cfg.traffic.max_pending);
        // Accepted latency is bounded by deadline + one cadence + max
        // service time — far below what the backlog would impose
        // unbounded.
        let p99 = report.p99_s();
        assert!(p99 > 0.0 && p99 < 1.0, "p99 {p99}");
        assert!(report.churn_batches_applied > 0);
        // Both rejection modes occur under sustained overload.
        assert!(report.traffic.rejected_full > 0);
        assert!(report.traffic.shed_deadline > 0);
    }

    #[test]
    fn unbounded_mode_grows_backlog_without_shedding() {
        let (mut engine, batches) = setup(11);
        let (trace, horizon) = overload_trace(11);
        let mut cfg = bounded_cfg();
        cfg.traffic.max_pending = usize::MAX;
        cfg.traffic.deadline_s = f64::INFINITY;
        cfg.flush_after_horizon = false;
        let report = run_open_loop(&mut engine, &batches, trace.events(), horizon, &cfg).unwrap();
        assert_eq!(report.traffic.rejected_full, 0);
        assert_eq!(report.traffic.shed_deadline, 0);
        // Offered ≈ 2× capacity: the backlog at the horizon is about
        // (λ − C)·T ≈ 160 requests — far above the bounded cap.
        assert!(
            report.pending_at_horizon > 3 * 32,
            "backlog {} did not grow",
            report.pending_at_horizon
        );
    }

    #[test]
    fn report_is_deterministic_at_fixed_seed_and_any_width() {
        let key = |r: &TrafficReport| {
            (
                r.completed,
                r.traffic.rejected_full,
                r.traffic.shed_deadline,
                r.pending_at_horizon,
                r.accepted_latency,
                r.traffic.per_tenant_dispatched.clone(),
            )
        };
        let run = || {
            let (mut engine, batches) = setup(23);
            let (trace, horizon) = overload_trace(23);
            run_open_loop(
                &mut engine,
                &batches,
                trace.events(),
                horizon,
                &bounded_cfg(),
            )
            .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(key(&a), key(&b));
        assert_eq!(a.p99_s(), b.p99_s());
    }

    #[test]
    fn drain_tick_on_the_exact_deadline_serves_under_the_virtual_clock() {
        // The virtual clock hands its tick times straight to
        // AdmissionQueue::dispatch, so the queue's inclusive-deadline
        // choice must hold here too: a request admitted at 0.0 with a
        // 0.25 s deadline is reached by the tick at exactly 0.25 (all
        // times exactly representable) and must complete, while a
        // request whose deadline falls strictly between ticks sheds.
        let (mut engine, _) = setup(7);
        let cfg = OpenLoopConfig {
            traffic: TrafficConfig {
                max_pending: 16,
                deadline_s: 0.25,
                tenant_weights: vec![1.0],
            },
            drain_every_s: 0.25,
            drain_budget: 1,
            flush_after_horizon: true,
            ..Default::default()
        };
        let solve = |at_s: f64| TrafficEvent {
            at_s,
            kind: TrafficEventKind::Solve { tenant: 0, key: 1 },
        };
        // "A" admitted at 0.0: deadline exactly on the first tick (0.25)
        // → served there (budget 1 leaves "B" queued). "B" admitted at
        // 0.125: deadline 0.375 < second tick 0.5 → shed.
        let events = [solve(0.0), solve(0.125)];
        let report = run_open_loop(&mut engine, &[], &events, 0.5, &cfg).unwrap();
        assert_eq!(report.completed, 1, "the exact-deadline request serves");
        assert_eq!(report.traffic.shed_deadline, 1);
        assert_eq!(report.traffic.rejected_full, 0);
        // Its queue wait is the full deadline: admitted 0.0, served 0.25.
        assert_eq!(report.traffic.queue_wait.count(), 1);
        assert!((report.traffic.queue_wait.quantile(1.0) - 0.25).abs() < 0.25 * 0.4);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let (mut engine, _) = setup(3);
        let bad = OpenLoopConfig {
            drain_budget: 0,
            ..Default::default()
        };
        assert!(matches!(
            run_open_loop(&mut engine, &[], &[], 1.0, &bad),
            Err(TrafficError::Config(_))
        ));
        let bad = OpenLoopConfig {
            drain_every_s: 0.0,
            ..Default::default()
        };
        assert!(matches!(
            run_open_loop(&mut engine, &[], &[], 1.0, &bad),
            Err(TrafficError::Config(_))
        ));
    }
}
