//! Concurrent, snapshot-isolated solve serving: admission-batching of
//! right-hand sides per snapshot, drained in parallel on the `ingrass-par`
//! pool.
//!
//! [`ConcurrentSolveService`] is the one solve entry point, built for many
//! readers:
//!
//! * **submission is `&self`** — any number of reader threads
//!   [`submit`](ConcurrentSolveService::submit) right-hand sides, each
//!   tagged with the [`ingrass::SparsifierSnapshot`] (and matching
//!   original-graph Laplacian) it should be answered against. Requests
//!   against the *same* snapshot coalesce into one admission group — the
//!   multi-RHS batch shape the PCG layer is built for;
//! * **draining is `&self` too** — [`drain`](ConcurrentSolveService::drain)
//!   takes the pending groups out under the lock, then solves them
//!   *outside* the lock: each group is cut into `min(threads, len)`
//!   contiguous blocks of requests, every block is one blocked PCG run
//!   ([`ingrass_linalg::pcg_block`] — one Laplacian product and one
//!   factor sweep per iteration for the whole block), and all groups'
//!   blocks share one [`ingrass_par::par_map_with`] at the configured
//!   width (the pool's dynamic cursor load-balances uneven groups).
//!   Submissions arriving during a drain simply land in the next round.
//!
//! Results are deterministic: every request starts from a zero initial
//! guess and the block kernel reproduces the single-request solve bit for
//! bit, so the answers are identical at any worker width, any block
//! composition and any submission interleaving — only the grouping (and
//! therefore throughput) depends on timing.
//!
//! Each request is preconditioned by its snapshot's own grounded factor.
//! Under the engine's incremental factor maintenance that factor is
//! usually *patched in place* (rank-1 up/downdates at publish time) rather
//! than rebuilt, but a snapshot pins whichever numbers it was published
//! with — serving never observes a half-applied update, and a patched
//! factor preconditions exactly like a fresh one.

use crate::service::{project, SolveConfig};
use ingrass::{PhaseTimer, SparsifierSnapshot};
use ingrass_linalg::{BlockPcg, CgOptions, CgResult, CsrMatrix, Preconditioner};
use ingrass_metrics::LatencyHistogram;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::{Arc, Mutex, MutexGuard};

/// Identifies one submitted request; [`Served`] results carry it back.
/// Tickets are handed out in admission order (0, 1, 2, …) per service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ticket(pub u64);

/// One answered request of a [`DrainReport`].
#[derive(Debug, Clone)]
pub struct Served {
    /// The ticket returned by [`ConcurrentSolveService::submit`].
    pub ticket: Ticket,
    /// Epoch of the snapshot the request was answered against.
    pub epoch: u64,
    /// Version of the snapshot the request was answered against.
    pub version: u64,
    /// The (zero-mean) solution potentials.
    pub x: Vec<f64>,
    /// The PCG outcome.
    pub result: CgResult,
}

/// What one [`ConcurrentSolveService::drain`] round did.
#[derive(Debug, Clone)]
pub struct DrainReport {
    /// Answered requests, sorted by ticket (admission order).
    pub served: Vec<Served>,
    /// Admission groups (distinct snapshots) the round covered.
    pub groups: usize,
    /// Wall seconds the round spent solving.
    pub solve_seconds: f64,
    /// Per-request solve wall time, as a log-scale histogram — the round's
    /// latency *distribution*, where [`DrainReport::solve_seconds`] is only
    /// the round's span. Requests are solved in blocks
    /// ([`ConcurrentSolveService::drain`]), so each request records the
    /// wall time of the block that answered it: one sample per request,
    /// equal within a block.
    pub request_latency: LatencyHistogram,
}

impl DrainReport {
    /// Whether every request in the round reached its tolerance.
    pub fn all_converged(&self) -> bool {
        self.served.iter().all(|s| s.result.converged)
    }

    /// PCG iterations summed over the round.
    pub fn total_iterations(&self) -> usize {
        self.served.iter().map(|s| s.result.iterations).sum()
    }
}

/// Lifetime counters of a [`ConcurrentSolveService`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ConcurrentSolveStats {
    /// Requests admitted.
    pub submitted: usize,
    /// Requests refused at the [`SolveConfig::max_pending`] cap — these
    /// were never queued and hold no ticket.
    pub rejected_full: usize,
    /// Requests answered.
    pub served: usize,
    /// Non-empty drain rounds.
    pub drains: usize,
    /// Admission groups solved across all rounds.
    pub groups_served: usize,
    /// PCG iterations summed over all answered requests.
    pub iterations_total: usize,
    /// Per-round solve wall time.
    pub drain_latency: LatencyHistogram,
    /// Per-request solve wall time across all rounds (the merge of every
    /// round's [`DrainReport::request_latency`]).
    pub request_latency: LatencyHistogram,
}

/// One block of a drained group's requests, solved as one blocked PCG run
/// ([`ingrass_linalg::BlockPcg`]): each right-hand side projected onto
/// `1⊥`, the constant deflated every iteration, every column starting from
/// zero, so each request's answer is bit-identical to solving it alone with
/// [`ingrass_linalg::pcg`], whatever the block size.
///
/// [`Block::new`] allocates everything the solve needs, so the draining
/// thread owns the memory and workers only compute.
struct Block {
    /// The projected right-hand sides; [`Block::solve`] overwrites them
    /// with the solutions.
    xs: Vec<Vec<f64>>,
    ones: Vec<f64>,
    pcg: BlockPcg,
}

impl Block {
    fn new(n: usize, rhss: &[Vec<f64>]) -> Self {
        Block {
            xs: rhss.iter().map(|b| project(b)).collect(),
            ones: vec![1.0; n],
            pcg: BlockPcg::new(n, rhss.len()),
        }
    }

    fn solve<M>(&mut self, laplacian: &CsrMatrix, precond: &M, cg: &CgOptions) -> Vec<CgResult>
    where
        M: Preconditioner + ?Sized,
    {
        self.pcg
            .solve(laplacian, &mut self.xs, precond, Some(&self.ones), cg)
    }
}

/// A pending admission group: requests against one snapshot/Laplacian pair.
struct Group {
    snapshot: Arc<SparsifierSnapshot>,
    laplacian: Arc<CsrMatrix>,
    rhss: Vec<Vec<f64>>,
    tickets: Vec<u64>,
}

/// Coalescing key of an admission group: the snapshot's published identity
/// plus the system matrix it is paired with (by allocation — two `Arc`s to
/// the same Laplacian share a pointer). Keyed lookup makes `submit`
/// O(1) in the number of pending groups where the old `Arc::ptr_eq` scan
/// was O(groups) — quadratic total when readers hold many distinct
/// snapshots.
type GroupKey = (u64, u64, u64, usize);

fn group_key(snapshot: &SparsifierSnapshot, laplacian: &Arc<CsrMatrix>) -> GroupKey {
    (
        snapshot.instance_id(),
        snapshot.epoch(),
        snapshot.version(),
        Arc::as_ptr(laplacian) as usize,
    )
}

struct Inner {
    /// Pending groups in admission order (drain order must not depend on
    /// map iteration order).
    groups: Vec<Group>,
    /// `GroupKey` → index into `groups`; rebuilt empty at every drain.
    index: HashMap<GroupKey, usize>,
    /// Requests admitted and not yet drained — maintained on
    /// submit/drain so `pending()` is O(1) instead of re-summing every
    /// group under the lock.
    pending: usize,
    next_ticket: u64,
    stats: ConcurrentSolveStats,
}

/// A thread-safe solve frontend over published sparsifier snapshots:
/// submissions coalesce per snapshot, drains answer them in parallel.
///
/// All methods take `&self`; share the service by reference (or `Arc`)
/// between reader threads and whoever drives the drain loop. The service
/// never touches an engine — every request names the immutable snapshot it
/// wants answered against, which is what makes serving safe while a writer
/// churns.
///
/// # Example
///
/// ```
/// use ingrass::{SnapshotEngine, SetupConfig};
/// use ingrass_solve::{ConcurrentSolveService, SolveConfig};
/// use ingrass_graph::Graph;
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let h0 = Graph::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)])?;
/// let engine = SnapshotEngine::setup(&h0, &SetupConfig::default())?;
/// let snap = engine.snapshot();
/// // Serve against the snapshot's own Laplacian (resistance workload);
/// // production pairs the snapshot with the original graph's Laplacian.
/// let lap = Arc::new(snap.graph().laplacian());
///
/// let service = ConcurrentSolveService::new(SolveConfig::default());
/// let t = service.submit(&snap, &lap, vec![1.0, 0.0, 0.0, -1.0])?;
/// let round = service.drain();
/// assert_eq!(round.served.len(), 1);
/// assert_eq!(round.served[0].ticket, t);
/// assert!(round.all_converged());
/// # Ok(())
/// # }
/// ```
pub struct ConcurrentSolveService {
    cfg: SolveConfig,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for ConcurrentSolveService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (pending, stats) = {
            let inner = self.lock();
            (inner.pending, inner.stats)
        };
        f.debug_struct("ConcurrentSolveService")
            .field("cfg", &self.cfg)
            .field("pending", &pending)
            .field("stats", &stats)
            .finish()
    }
}

impl ConcurrentSolveService {
    /// A service with the given configuration: `cg` are the PCG options
    /// of every request, `threads` the width a drain solves at, and
    /// `max_pending` the admission cap. The preconditioner is the
    /// snapshot's own factor.
    pub fn new(cfg: SolveConfig) -> Self {
        ConcurrentSolveService {
            cfg,
            inner: Mutex::new(Inner {
                groups: Vec::new(),
                index: HashMap::new(),
                pending: 0,
                next_ticket: 0,
                stats: ConcurrentSolveStats::default(),
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // Poisoning only means another caller panicked while queueing; the
        // queue itself is still structurally sound.
        match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Admits one right-hand side to be solved against `snapshot`
    /// (preconditioner) and `laplacian` (the system matrix — the original
    /// graph's Laplacian matching the snapshot's version). Requests naming
    /// the same snapshot coalesce into one admission group — located by a
    /// keyed map, so submission cost does not grow with the number of
    /// distinct pending snapshots.
    ///
    /// # Errors
    /// * [`crate::SolveError::Dimension`] if the Laplacian or right-hand
    ///   side shape disagrees with the snapshot's node count.
    /// * [`crate::SolveError::NonFinite`] if the right-hand side holds a
    ///   NaN or infinite entry; like the shape checks, this runs before the
    ///   queue is touched, so no ticket is consumed.
    /// * [`crate::SolveError::QueueFull`] if [`SolveConfig::max_pending`]
    ///   is set and that many requests are already pending; the request
    ///   is counted in [`ConcurrentSolveStats::rejected_full`] and never
    ///   queued (no ticket is consumed).
    pub fn submit(
        &self,
        snapshot: &Arc<SparsifierSnapshot>,
        laplacian: &Arc<CsrMatrix>,
        rhs: Vec<f64>,
    ) -> crate::Result<Ticket> {
        crate::service::check_operands(snapshot.num_nodes(), laplacian, &rhs)?;
        let mut inner = self.lock();
        if let Some(cap) = self.cfg.max_pending {
            if inner.pending >= cap {
                inner.stats.rejected_full += 1;
                return Err(crate::SolveError::QueueFull { max_pending: cap });
            }
        }
        let ticket = inner.next_ticket;
        inner.next_ticket += 1;
        inner.stats.submitted += 1;
        inner.pending += 1;
        let key = group_key(snapshot, laplacian);
        match inner.index.get(&key) {
            Some(&gi) => {
                let group = &mut inner.groups[gi];
                group.rhss.push(rhs);
                group.tickets.push(ticket);
            }
            None => {
                let gi = inner.groups.len();
                inner.groups.push(Group {
                    snapshot: Arc::clone(snapshot),
                    laplacian: Arc::clone(laplacian),
                    rhss: vec![rhs],
                    tickets: vec![ticket],
                });
                inner.index.insert(key, gi);
            }
        }
        Ok(Ticket(ticket))
    }

    /// Requests admitted but not yet drained (an O(1) counter read).
    pub fn pending(&self) -> usize {
        self.lock().pending
    }

    /// Lifetime counters (copied out under the lock).
    pub fn stats(&self) -> ConcurrentSolveStats {
        self.lock().stats
    }

    /// Answers every pending request and returns the round's results in
    /// admission (ticket) order.
    ///
    /// The pending groups are taken out under the lock; the solves run
    /// with the lock *released* — submitters are never blocked by a
    /// running drain. Each admission group is cut into `min(threads, len)`
    /// contiguous, near-equal blocks of requests, and the blocks of every
    /// group share one pass over the configured worker width
    /// (`SolveConfig::threads`, default the ambient `ingrass-par` width).
    /// A block is one blocked PCG run ([`ingrass_linalg::pcg_block`]): each
    /// iteration reads the Laplacian and the snapshot's factor once for
    /// all of its requests. Each request gets `1⊥` projection, constant
    /// deflation and the snapshot's exact factor as the preconditioner,
    /// and its answer is bit-identical to solving it alone, at any width
    /// and whatever shares its block. Non-convergence is reported per
    /// request, not as an error.
    ///
    /// If a solve **panics** mid-round, every taken-out group is put back
    /// at the front of the queue before the panic resumes: no admitted
    /// request is lost, [`ConcurrentSolveService::pending`] never
    /// undercounts, and the next drain serves the restored requests
    /// (still in ticket order).
    pub fn drain(&self) -> DrainReport {
        self.drain_with(|g, block| {
            block.solve(&g.laplacian, g.snapshot.preconditioner(), &self.cfg.cg)
        })
    }

    /// [`ConcurrentSolveService::drain`] with the per-block solver factored
    /// out, so tests can exercise the restore-on-panic path with an
    /// injected fault.
    fn drain_with<F>(&self, solve: F) -> DrainReport
    where
        F: Fn(&Group, &mut Block) -> Vec<CgResult> + Sync,
    {
        let groups: Vec<Group> = {
            let mut inner = self.lock();
            inner.index.clear();
            inner.pending = 0;
            std::mem::take(&mut inner.groups)
        };
        if groups.is_empty() {
            return DrainReport {
                served: Vec::new(),
                groups: 0,
                solve_seconds: 0.0,
                request_latency: LatencyHistogram::new(),
            };
        }

        // Cut every group into min(threads, len) contiguous blocks. They
        // are built here, on the draining thread, so their memory is this
        // thread's to reuse between rounds (see `BlockPcg`), and all
        // groups' blocks share one worker pool, so groups of any skew
        // spread over the workers instead of serializing per group.
        let threads = self.cfg.threads.unwrap_or_else(ingrass_par::num_threads);
        let mut blocks: Vec<(usize, Range<usize>, Block)> = groups
            .iter()
            .enumerate()
            .flat_map(|(gi, g)| {
                ingrass_par::split_even(g.rhss.len(), threads)
                    .into_iter()
                    .map(move |cols| {
                        let block = Block::new(g.laplacian.n_rows(), &g.rhss[cols.clone()]);
                        (gi, cols, block)
                    })
            })
            .collect();
        let timer = PhaseTimer::start();
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ingrass_par::par_map_mut_with(threads, &mut blocks, |(gi, _, block)| {
                let wall = PhaseTimer::start();
                let results = solve(&groups[*gi], block);
                (results, wall.total().as_secs_f64())
            })
        }));
        let solved = match run {
            Ok(solved) => solved,
            // A panicking solve served nobody: put every taken-out group
            // back (ahead of anything submitted meanwhile) so the queue
            // and the pending counter still account for every admitted
            // request, then let the panic continue.
            Err(payload) => {
                self.restore_groups(groups);
                std::panic::resume_unwind(payload);
            }
        };
        let solve_seconds = timer.total().as_secs_f64();

        let mut request_latency = LatencyHistogram::new();
        let mut served = Vec::with_capacity(blocks.iter().map(|(_, cols, _)| cols.len()).sum());
        for ((gi, cols, block), (results, wall)) in blocks.into_iter().zip(solved) {
            let g = &groups[gi];
            for ((ri, x), result) in cols.zip(block.xs).zip(results) {
                request_latency.record(wall);
                served.push(Served {
                    ticket: Ticket(g.tickets[ri]),
                    epoch: g.snapshot.epoch(),
                    version: g.snapshot.version(),
                    x,
                    result,
                });
            }
        }
        served.sort_by_key(|s| s.ticket);

        let mut inner = self.lock();
        inner.stats.served += served.len();
        inner.stats.drains += 1;
        inner.stats.groups_served += groups.len();
        inner.stats.iterations_total += served.iter().map(|s| s.result.iterations).sum::<usize>();
        inner.stats.drain_latency.record(solve_seconds);
        inner.stats.request_latency.merge(&request_latency);
        drop(inner);

        DrainReport {
            served,
            groups: groups.len(),
            solve_seconds,
            request_latency,
        }
    }

    /// Puts groups a failed drain round took out back into the queue, in
    /// front of anything submitted since the take (restored tickets are
    /// older), re-coalescing any group whose key was re-created by those
    /// newer submissions and rebuilding the key index and the pending
    /// counter.
    fn restore_groups(&self, restored: Vec<Group>) {
        let restored_requests: usize = restored.iter().map(|g| g.rhss.len()).sum();
        let mut inner = self.lock();
        let newer = std::mem::take(&mut inner.groups);
        inner.index.clear();
        inner.groups = restored;
        for g in newer {
            let key = group_key(&g.snapshot, &g.laplacian);
            // The index over the restored prefix is built lazily here: a
            // linear pass over what this round took out, once per drain
            // failure — not a hot path.
            let slot = inner
                .groups
                .iter()
                .position(|r| group_key(&r.snapshot, &r.laplacian) == key);
            match slot {
                Some(gi) => {
                    let target = &mut inner.groups[gi];
                    target.rhss.extend(g.rhss);
                    target.tickets.extend(g.tickets);
                }
                None => inner.groups.push(g),
            }
        }
        let index: HashMap<GroupKey, usize> = inner
            .groups
            .iter()
            .enumerate()
            .map(|(gi, g)| (group_key(&g.snapshot, &g.laplacian), gi))
            .collect();
        inner.index = index;
        inner.pending += restored_requests;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SolveError;
    use ingrass::{SetupConfig, SnapshotEngine, SparsifierSnapshot, UpdateConfig, UpdateOp};
    use ingrass_graph::Graph;

    fn ring(n: usize) -> Graph {
        let mut edges: Vec<(usize, usize, f64)> = (0..n)
            .map(|i| (i, (i + 1) % n, 1.0 + (i % 4) as f64))
            .collect();
        for i in 0..n / 2 {
            edges.push((i, i + n / 2, 0.5));
        }
        Graph::from_edges(n, &edges).unwrap()
    }

    fn pair_rhs(n: usize, u: usize, v: usize) -> Vec<f64> {
        let mut b = vec![0.0; n];
        b[u] = 1.0;
        b[v] = -1.0;
        b
    }

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn service_is_shareable_across_threads() {
        assert_send_sync::<ConcurrentSolveService>();
    }

    #[test]
    fn same_snapshot_requests_coalesce_into_one_group() {
        let engine = SnapshotEngine::setup(&ring(16), &SetupConfig::default()).unwrap();
        let snap = engine.snapshot();
        let lap = Arc::new(snap.graph().laplacian());
        let svc = ConcurrentSolveService::new(SolveConfig::default());
        let t0 = svc.submit(&snap, &lap, pair_rhs(16, 0, 8)).unwrap();
        let t1 = svc.submit(&snap, &lap, pair_rhs(16, 1, 9)).unwrap();
        assert_eq!((t0, t1), (Ticket(0), Ticket(1)));
        assert_eq!(svc.pending(), 2);
        let round = svc.drain();
        assert_eq!(round.groups, 1, "same snapshot must admission-batch");
        assert_eq!(round.served.len(), 2);
        assert!(round.all_converged());
        assert_eq!(svc.pending(), 0);
        let stats = svc.stats();
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.served, 2);
        assert_eq!(stats.drains, 1);
        assert_eq!(stats.groups_served, 1);
        assert_eq!(stats.drain_latency.count(), 1);
    }

    #[test]
    fn distinct_snapshots_are_grouped_apart_and_tagged() {
        let mut engine = SnapshotEngine::setup(&ring(16), &SetupConfig::default()).unwrap();
        let old = engine.snapshot();
        let old_lap = Arc::new(old.graph().laplacian());
        engine
            .apply_batch(
                &[UpdateOp::Insert {
                    u: 0,
                    v: 5,
                    weight: 1.5,
                }],
                &UpdateConfig::default(),
            )
            .unwrap();
        let new = engine.snapshot();
        let new_lap = Arc::new(new.graph().laplacian());
        assert!(new.version() > old.version());

        let svc = ConcurrentSolveService::new(SolveConfig::default());
        svc.submit(&old, &old_lap, pair_rhs(16, 0, 8)).unwrap();
        svc.submit(&new, &new_lap, pair_rhs(16, 2, 10)).unwrap();
        svc.submit(&old, &old_lap, pair_rhs(16, 3, 11)).unwrap();
        let round = svc.drain();
        assert_eq!(round.groups, 2);
        assert_eq!(round.served.len(), 3);
        // Ticket order is admission order, and each answer carries the
        // version of the snapshot it was served from.
        assert_eq!(round.served[0].version, old.version());
        assert_eq!(round.served[1].version, new.version());
        assert_eq!(round.served[2].version, old.version());
        assert!(round.all_converged());
    }

    #[test]
    fn drain_results_are_deterministic_at_any_width() {
        let engine = SnapshotEngine::setup(&ring(20), &SetupConfig::default()).unwrap();
        let snap = engine.snapshot();
        let lap = Arc::new(snap.graph().laplacian());
        let run = |threads: Option<usize>| {
            let svc = ConcurrentSolveService::new(SolveConfig {
                threads,
                ..Default::default()
            });
            for k in 0..5 {
                svc.submit(&snap, &lap, pair_rhs(20, k, 19 - k)).unwrap();
            }
            svc.drain()
                .served
                .into_iter()
                .map(|s| s.x)
                .collect::<Vec<_>>()
        };
        let one = run(Some(1));
        for w in [2, 4, 8] {
            assert_eq!(run(Some(w)), one, "width {w} diverged");
        }
    }

    #[test]
    fn dimension_mismatches_are_rejected_at_submission() {
        let engine = SnapshotEngine::setup(&ring(12), &SetupConfig::default()).unwrap();
        let snap = engine.snapshot();
        let lap = Arc::new(snap.graph().laplacian());
        let svc = ConcurrentSolveService::new(SolveConfig::default());
        assert!(matches!(
            svc.submit(&snap, &lap, vec![1.0, -1.0]),
            Err(SolveError::Dimension {
                what: "right-hand side",
                ..
            })
        ));
        let small = Arc::new(CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, 1.0)]));
        assert!(matches!(
            svc.submit(&snap, &small, pair_rhs(12, 0, 1)),
            Err(SolveError::Dimension {
                what: "laplacian",
                ..
            })
        ));
        assert_eq!(svc.pending(), 0, "rejected requests must not queue");
    }

    #[test]
    fn non_finite_rhs_is_rejected_before_admission() {
        let engine = SnapshotEngine::setup(&ring(12), &SetupConfig::default()).unwrap();
        let snap = engine.snapshot();
        let lap = Arc::new(snap.graph().laplacian());
        let svc = ConcurrentSolveService::new(SolveConfig::default());
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut b = pair_rhs(12, 0, 6);
            b[4] = bad;
            b[9] = f64::NAN;
            match svc.submit(&snap, &lap, b) {
                Err(SolveError::NonFinite { index, value }) => {
                    assert_eq!(index, 4, "names the first bad entry");
                    assert_eq!(value.to_bits(), bad.to_bits());
                }
                other => panic!("non-finite rhs admitted: {other:?}"),
            }
        }
        assert_eq!(svc.pending(), 0, "rejected requests must not queue");
        assert_eq!(svc.stats().submitted, 0);
        // No ticket was consumed.
        let t = svc.submit(&snap, &lap, pair_rhs(12, 0, 6)).unwrap();
        assert_eq!(t, Ticket(0));
    }

    /// Single-request reference: the serving recipe spelled out with the
    /// one-vector `pcg`.
    fn reference_solve(
        snap: &SparsifierSnapshot,
        lap: &CsrMatrix,
        rhs: &[f64],
        cg: &ingrass_linalg::CgOptions,
    ) -> (Vec<f64>, CgResult) {
        let n = lap.n_rows();
        let mean = rhs.iter().sum::<f64>() / n as f64;
        let b: Vec<f64> = rhs.iter().map(|v| v - mean).collect();
        let mut x = vec![0.0; n];
        let ones = vec![1.0; n];
        let res = ingrass_linalg::pcg(lap, &b, &mut x, snap.preconditioner(), Some(&ones), cg);
        (x, res)
    }

    #[test]
    fn blocked_drain_of_two_groups_matches_single_solves_at_any_width() {
        // The served system is denser than the sparsifier, so PCG takes
        // several (and differing) iterations per request.
        let n = 32;
        let h = ring(n);
        let mut edges: Vec<(usize, usize, f64)> = h
            .edges()
            .iter()
            .map(|e| (e.u.index(), e.v.index(), e.weight))
            .collect();
        edges.extend((0..n).map(|i| (i, (i + 5) % n, 0.3 + (i % 3) as f64 * 0.2)));
        let lap = Arc::new(Graph::from_edges(n, &edges).unwrap().laplacian());

        let mut engine = SnapshotEngine::setup(&h, &SetupConfig::default()).unwrap();
        let old = engine.snapshot();
        engine
            .apply_batch(
                &[UpdateOp::Insert {
                    u: 3,
                    v: 19,
                    weight: 1.25,
                }],
                &UpdateConfig::default(),
            )
            .unwrap();
        let new = engine.snapshot();
        assert!(new.version() > old.version());

        // Interleaved submissions, including an inconsistent (non-zero-sum)
        // right-hand side that the projection must handle identically.
        let requests: Vec<(Arc<SparsifierSnapshot>, Vec<f64>)> = (0..13)
            .map(|k| {
                let snap = if k % 3 == 1 { &new } else { &old };
                let mut b = pair_rhs(n, k, (7 * k + 4) % n);
                if k == 5 {
                    b.iter_mut().for_each(|v| *v += 0.5);
                }
                (Arc::clone(snap), b)
            })
            .collect();
        let cg = SolveConfig::default().cg;
        let want: Vec<(Vec<f64>, CgResult)> = requests
            .iter()
            .map(|(snap, b)| reference_solve(snap, &lap, b, &cg))
            .collect();
        assert!(want.iter().any(|(_, r)| r.iterations > 2));

        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        let check = |got: (&[f64], &CgResult), k: usize, what: &str| {
            let (x, res) = &want[k];
            assert_eq!(bits(got.0), bits(x), "{what}, request {k}: x");
            assert_eq!(
                (got.1.iterations, got.1.converged),
                (res.iterations, res.converged),
                "{what}, request {k}"
            );
            assert_eq!(
                got.1.residual_norm.to_bits(),
                res.residual_norm.to_bits(),
                "{what}, request {k}: residual"
            );
        };
        for threads in [1, 2, 4] {
            let svc = ConcurrentSolveService::new(SolveConfig {
                threads: Some(threads),
                ..Default::default()
            });
            for (snap, b) in &requests {
                svc.submit(snap, &lap, b.clone()).unwrap();
            }
            let round = svc.drain();
            assert_eq!(round.groups, 2);
            assert_eq!(round.served.len(), requests.len());
            assert_eq!(round.request_latency.count(), requests.len() as u64);
            for (k, s) in round.served.iter().enumerate() {
                assert_eq!(s.ticket, Ticket(k as u64));
                assert_eq!(s.version, requests[k].0.version());
                check((&s.x, &s.result), k, &format!("drain width {threads}"));
            }
        }
    }

    #[test]
    fn a_different_engine_at_the_same_epoch_is_not_served_the_old_factor() {
        // Two engines over different sparsifiers publish their set-up
        // snapshots at the same (epoch, version). Submitted with one
        // shared Laplacian `Arc`, only the instance id keeps their groups,
        // and so their factors, apart.
        let n = 32;
        let h_a = ring(n);
        let lap = Arc::new(h_a.laplacian());
        let mut edges: Vec<(usize, usize, f64)> = h_a
            .edges()
            .iter()
            .map(|e| (e.u.index(), e.v.index(), e.weight))
            .collect();
        edges.push((3, 19, 1.25));
        let h_b = Graph::from_edges(n, &edges).unwrap();
        let snap_a = SnapshotEngine::setup(&h_a, &SetupConfig::default())
            .unwrap()
            .snapshot();
        let snap_b = SnapshotEngine::setup(&h_b, &SetupConfig::default())
            .unwrap()
            .snapshot();
        assert_eq!(
            (snap_a.epoch(), snap_a.version()),
            (snap_b.epoch(), snap_b.version())
        );
        assert_ne!(snap_a.instance_id(), snap_b.instance_id());

        let svc = ConcurrentSolveService::new(SolveConfig::default());
        let b = pair_rhs(n, 0, 9);
        svc.submit(&snap_a, &lap, b.clone()).unwrap();
        svc.submit(&snap_b, &lap, b.clone()).unwrap();
        let round = svc.drain();
        assert_eq!(round.groups, 2, "one group per engine");
        let cg = SolveConfig::default().cg;
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        for (served, snap) in round.served.iter().zip([&snap_a, &snap_b]) {
            let (x, res) = reference_solve(snap, &lap, &b, &cg);
            assert_eq!(bits(&served.x), bits(&x), "answered with its own factor");
            assert_eq!(served.result.iterations, res.iterations);
        }
        assert_ne!(
            round.served[0].x, round.served[1].x,
            "the two sparsifiers must precondition differently"
        );
    }

    #[test]
    fn panicking_drain_restores_every_request() {
        let mut engine = SnapshotEngine::setup(&ring(16), &SetupConfig::default()).unwrap();
        let old = engine.snapshot();
        let old_lap = Arc::new(old.graph().laplacian());
        engine
            .apply_batch(
                &[UpdateOp::Insert {
                    u: 0,
                    v: 5,
                    weight: 1.5,
                }],
                &UpdateConfig::default(),
            )
            .unwrap();
        let new = engine.snapshot();
        let new_lap = Arc::new(new.graph().laplacian());

        let svc = ConcurrentSolveService::new(SolveConfig::default());
        svc.submit(&old, &old_lap, pair_rhs(16, 0, 8)).unwrap();
        svc.submit(&new, &new_lap, pair_rhs(16, 2, 10)).unwrap();
        svc.submit(&old, &old_lap, pair_rhs(16, 3, 11)).unwrap();
        assert_eq!(svc.pending(), 3);

        // A solver fault mid-round must not lose the admitted requests:
        // pre-fix, drain had already zeroed `pending` and dropped the
        // taken-out groups, so the three requests silently vanished.
        let fault = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            svc.drain_with(|_, _| panic!("injected solver fault"))
        }));
        assert!(fault.is_err(), "the injected panic must propagate");
        assert_eq!(svc.pending(), 3, "a failed round must restore the queue");
        let stats = svc.stats();
        assert_eq!((stats.served, stats.drains), (0, 0));

        // Restored groups keep coalescing: a new request for a restored
        // snapshot joins its group instead of forming a duplicate.
        svc.submit(&old, &old_lap, pair_rhs(16, 4, 12)).unwrap();
        assert_eq!(svc.pending(), 4);

        // The next healthy drain serves everything, still in ticket order.
        let round = svc.drain();
        assert_eq!(round.groups, 2, "restored + merged groups, no duplicates");
        assert_eq!(
            round.served.iter().map(|s| s.ticket).collect::<Vec<_>>(),
            vec![Ticket(0), Ticket(1), Ticket(2), Ticket(3)]
        );
        assert!(round.all_converged());
        assert_eq!(svc.pending(), 0);
    }

    #[test]
    fn panicking_drain_restores_ahead_of_newer_submissions() {
        // Width 1 keeps the injected panic on the calling thread; the
        // restore path is identical at any width because par_map_with
        // re-panics on the caller either way.
        let engine = SnapshotEngine::setup(&ring(16), &SetupConfig::default()).unwrap();
        let snap = engine.snapshot();
        let lap = Arc::new(snap.graph().laplacian());
        let svc = ConcurrentSolveService::new(SolveConfig {
            threads: Some(1),
            ..Default::default()
        });
        svc.submit(&snap, &lap, pair_rhs(16, 0, 8)).unwrap();
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            svc.drain_with(|_, _| panic!("boom"))
        }));
        // Submissions after the failure land behind the restored ticket.
        svc.submit(&snap, &lap, pair_rhs(16, 1, 9)).unwrap();
        assert_eq!(svc.pending(), 2);
        let round = svc.drain();
        assert_eq!(round.groups, 1);
        assert_eq!(
            round.served.iter().map(|s| s.ticket).collect::<Vec<_>>(),
            vec![Ticket(0), Ticket(1)]
        );
    }

    #[test]
    fn empty_drain_is_a_cheap_noop() {
        let svc = ConcurrentSolveService::new(SolveConfig::default());
        let round = svc.drain();
        assert!(round.served.is_empty());
        assert_eq!(round.groups, 0);
        assert_eq!(svc.stats().drains, 0, "empty rounds don't count");
    }

    #[test]
    fn serving_stays_exact_on_patched_factors_across_churn() {
        // Patch-friendly policy: the cap at its domain maximum plus a
        // pinned near-leaf filtering level keeps each op's delta fan-out
        // tiny (include/merge, not a cluster-wide redistribute), so these
        // 2-op batches stay on the rank-1 patch path the test is about.
        let mut engine = SnapshotEngine::setup(&ring(24), &SetupConfig::default())
            .unwrap()
            .with_factor_policy(ingrass::FactorPolicy {
                max_patch_fraction: 1.0,
                ..ingrass::FactorPolicy::default()
            })
            .unwrap();
        let svc = ConcurrentSolveService::new(SolveConfig::default());
        let ucfg = UpdateConfig::default().with_filtering_level_override(Some(1));
        let mut patched_publishes = 0;
        for step in 0..6usize {
            let report = engine
                .apply_batch(
                    &[
                        UpdateOp::Insert {
                            u: step,
                            v: (step + 11) % 24,
                            weight: 1.0 + step as f64 * 0.25,
                        },
                        UpdateOp::Reweight {
                            u: step,
                            v: step + 1,
                            weight: 2.0,
                        },
                    ],
                    &ucfg,
                )
                .unwrap();
            let publish = report.publish.expect("non-empty batch must publish");
            patched_publishes += usize::from(publish.factor_updated);
            let snap = engine.snapshot();
            let lap = Arc::new(snap.graph().laplacian());
            svc.submit(&snap, &lap, pair_rhs(24, step, (step + 12) % 24))
                .unwrap();
            let round = svc.drain();
            assert!(round.all_converged());
            // The snapshot's factor is an exact factorization of this very
            // Laplacian — patched or rebuilt, PCG must land almost at once.
            for s in &round.served {
                assert!(
                    s.result.iterations <= 2,
                    "patched factor lost exactness at step {step}: {} iterations",
                    s.result.iterations
                );
            }
        }
        assert!(
            patched_publishes >= 4,
            "churn this mild should patch the factor, not refactor \
             ({patched_publishes}/6 publishes patched)"
        );
    }

    #[test]
    fn queue_cap_rejects_flood_without_queueing() {
        let engine = SnapshotEngine::setup(&ring(16), &SetupConfig::default()).unwrap();
        let snap = engine.snapshot();
        let lap = Arc::new(snap.graph().laplacian());
        let svc = ConcurrentSolveService::new(SolveConfig {
            max_pending: Some(8),
            ..Default::default()
        });
        let mut accepted = 0;
        let mut rejected = 0;
        for k in 0..20 {
            match svc.submit(&snap, &lap, pair_rhs(16, k % 16, (k + 8) % 16)) {
                Ok(_) => accepted += 1,
                Err(SolveError::QueueFull { max_pending: 8 }) => rejected += 1,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert_eq!((accepted, rejected), (8, 12));
        assert_eq!(svc.pending(), 8, "rejected requests must never queue");
        let stats = svc.stats();
        assert_eq!(stats.submitted, 8);
        assert_eq!(stats.rejected_full, 12);

        // Draining frees the queue; admission resumes and rejected
        // requests consumed no tickets (the sequence stays contiguous).
        let round = svc.drain();
        assert_eq!(round.served.len(), 8);
        assert_eq!(round.served.last().unwrap().ticket, Ticket(7));
        let t = svc.submit(&snap, &lap, pair_rhs(16, 0, 8)).unwrap();
        assert_eq!(t, Ticket(8));
    }

    #[test]
    fn many_distinct_snapshots_submit_in_keyed_groups() {
        // Benchmark-shaped: readers holding many distinct snapshot
        // versions at once. The keyed index must coalesce per version
        // (old behavior preserved) without the O(groups) pointer scan.
        let mut engine = SnapshotEngine::setup(&ring(16), &SetupConfig::default()).unwrap();
        let svc = ConcurrentSolveService::new(SolveConfig::default());
        let mut snaps = Vec::new();
        for step in 0..12usize {
            engine
                .apply_batch(
                    &[UpdateOp::Insert {
                        u: step,
                        v: (step + 7) % 16,
                        weight: 1.0 + step as f64 * 0.1,
                    }],
                    &UpdateConfig::default(),
                )
                .unwrap();
            let snap = engine.snapshot();
            let lap = Arc::new(snap.graph().laplacian());
            snaps.push((snap, lap));
        }
        // Two submissions per snapshot, interleaved so coalescing cannot
        // rely on adjacency; plus one through a *cloned* Arc, which maps
        // to the same (instance, epoch, version) key.
        for (snap, lap) in &snaps {
            svc.submit(snap, lap, pair_rhs(16, 0, 8)).unwrap();
        }
        for (snap, lap) in &snaps {
            let snap2 = Arc::clone(snap);
            svc.submit(&snap2, lap, pair_rhs(16, 1, 9)).unwrap();
        }
        assert_eq!(svc.pending(), 24);
        let round = svc.drain();
        assert_eq!(round.groups, snaps.len(), "one group per snapshot version");
        assert_eq!(round.served.len(), 24);
        assert!(round.all_converged());
    }

    #[test]
    fn pending_counter_tracks_submit_and_drain() {
        let engine = SnapshotEngine::setup(&ring(16), &SetupConfig::default()).unwrap();
        let snap = engine.snapshot();
        let lap = Arc::new(snap.graph().laplacian());
        let svc = ConcurrentSolveService::new(SolveConfig::default());
        assert_eq!(svc.pending(), 0);
        for k in 1..=5 {
            svc.submit(&snap, &lap, pair_rhs(16, k, k + 8)).unwrap();
            assert_eq!(svc.pending(), k);
        }
        let round = svc.drain();
        assert_eq!(round.served.len(), 5);
        assert_eq!(svc.pending(), 0);
        // The round's per-request histogram saw exactly the served count.
        assert_eq!(round.request_latency.count(), 5);
        assert_eq!(svc.stats().request_latency.count(), 5);
        // Refills after a drain.
        svc.submit(&snap, &lap, pair_rhs(16, 2, 11)).unwrap();
        assert_eq!(svc.pending(), 1);
    }

    #[test]
    fn concurrent_submissions_all_get_answered() {
        let engine = SnapshotEngine::setup(&ring(20), &SetupConfig::default()).unwrap();
        let snap = engine.snapshot();
        let lap = Arc::new(snap.graph().laplacian());
        let svc = ConcurrentSolveService::new(SolveConfig::default());
        std::thread::scope(|s| {
            for t in 0..4 {
                let (svc, snap, lap) = (&svc, &snap, &lap);
                s.spawn(move || {
                    for k in 0..8 {
                        svc.submit(snap, lap, pair_rhs(20, (t + k) % 20, (t + k + 7) % 20))
                            .unwrap();
                    }
                });
            }
        });
        assert_eq!(svc.pending(), 32);
        let round = svc.drain();
        assert_eq!(round.served.len(), 32);
        assert!(round.all_converged());
        // Tickets are a permutation of 0..32, reported sorted.
        let tickets: Vec<u64> = round.served.iter().map(|s| s.ticket.0).collect();
        assert_eq!(tickets, (0..32).collect::<Vec<u64>>());
    }
}
