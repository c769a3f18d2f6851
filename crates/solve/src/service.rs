//! The single-caller solve service: batched PCG on the original Laplacian,
//! preconditioned by a published sparsifier snapshot.

use ingrass::{PhaseTimer, SparsifierSnapshot};
use ingrass_linalg::{CgOptions, CgResult, CsrMatrix};
use std::fmt;

/// Errors of the solve service.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    /// An operand's dimension disagrees with the snapshot's node count.
    Dimension {
        /// Expected dimension (the snapshot's node count).
        expected: usize,
        /// Dimension found.
        found: usize,
        /// Which operand was wrong.
        what: &'static str,
    },
    /// A right-hand side holds a NaN or infinite entry. PCG cannot make
    /// progress on it (it would stop after one iteration with an all-zero
    /// solution and a NaN residual), so it is refused before it is queued
    /// or solved.
    NonFinite {
        /// Position of the offending right-hand side in the batch (0 for
        /// a single submission).
        rhs: usize,
        /// Index of its first non-finite entry.
        index: usize,
        /// That entry's value.
        value: f64,
    },
    /// The admission queue is at its [`SolveConfig::max_pending`] cap;
    /// the request was rejected without being queued.
    QueueFull {
        /// The configured cap the queue is sitting at.
        max_pending: usize,
    },
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Dimension {
                expected,
                found,
                what,
            } => write!(
                f,
                "{what} has dimension {found}, snapshot expects {expected}"
            ),
            SolveError::NonFinite { rhs, index, value } => write!(
                f,
                "right-hand side {rhs} has non-finite entry {value} at index {index}"
            ),
            SolveError::QueueFull { max_pending } => {
                write!(f, "admission queue full ({max_pending} pending)")
            }
        }
    }
}

impl std::error::Error for SolveError {}

/// Folds solve-service errors into the workspace-level error (the impl
/// lives here, next to [`SolveError`], because of the orphan rule — see
/// [`ingrass::IngrassError`]).
impl From<SolveError> for ingrass::IngrassError {
    fn from(e: SolveError) -> Self {
        ingrass::IngrassError::Solve(e.to_string())
    }
}

/// Configuration of a [`SolveService`].
#[derive(Debug, Clone)]
pub struct SolveConfig {
    /// PCG options; the default targets `1e-8` relative residual with a
    /// 20 000-iteration budget (looser than [`CgOptions::default`] — solve
    /// traffic wants throughput, estimators want the last digits).
    pub cg: CgOptions,
    /// Worker threads for multi-RHS batches (`None` = the ambient
    /// `ingrass-par` width). Results are bit-identical at any width.
    pub threads: Option<usize>,
    /// Admission cap for [`crate::ConcurrentSolveService`]: once this many
    /// requests are pending, further submissions are rejected with
    /// [`SolveError::QueueFull`] instead of growing the queue without
    /// bound. `None` (the default, and the only mode the single-caller
    /// [`SolveService`] ever sees) admits everything.
    pub max_pending: Option<usize>,
}

impl Default for SolveConfig {
    fn default() -> Self {
        SolveConfig {
            cg: CgOptions::default()
                .with_rel_tol(1e-8)
                .with_max_iters(20_000),
            threads: None,
            max_pending: None,
        }
    }
}

/// Lifetime counters of a [`SolveService`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// `solve_batch` calls served.
    pub batches: usize,
    /// Individual right-hand sides solved.
    pub solves: usize,
    /// PCG iterations summed over all solves.
    pub iterations_total: usize,
}

/// What one [`SolveService::solve_batch`] call did.
#[derive(Debug, Clone)]
pub struct SolveReport {
    /// Epoch of the snapshot the batch was answered against.
    pub epoch: u64,
    /// Stored entries of the snapshot's factor, the preconditioner the
    /// batch ran with.
    pub factor_nnz: usize,
    /// Seconds spent in PCG for the whole batch.
    pub solve_seconds: f64,
    /// Per-right-hand-side PCG outcomes, in batch order.
    pub results: Vec<CgResult>,
}

impl SolveReport {
    /// Largest per-RHS iteration count in the batch.
    pub fn max_iterations(&self) -> usize {
        self.results.iter().map(|r| r.iterations).max().unwrap_or(0)
    }

    /// Iterations summed over the batch.
    pub fn total_iterations(&self) -> usize {
        self.results.iter().map(|r| r.iterations).sum()
    }

    /// Whether every right-hand side reached the tolerance.
    pub fn all_converged(&self) -> bool {
        self.results.iter().all(|r| r.converged)
    }
}

/// A Laplacian solve service that answers against published sparsifier
/// snapshots.
///
/// Every call names the immutable [`SparsifierSnapshot`] whose sparsifier
/// preconditions it, so the service borrows no engine and keeps no factor
/// between calls: a writer ([`ingrass::SnapshotEngine`] or
/// [`ingrass::ShardedEngine`]) mutates freely while a held snapshot keeps
/// answering for its own state. See the [crate-level docs](crate).
#[derive(Debug)]
pub struct SolveService {
    cfg: SolveConfig,
    stats: SolveStats,
}

impl SolveService {
    /// A service with the given configuration.
    pub fn new(cfg: SolveConfig) -> Self {
        SolveService {
            cfg,
            stats: SolveStats::default(),
        }
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &SolveStats {
        &self.stats
    }

    /// Solves `L_G x = b` for one right-hand side. Convenience wrapper over
    /// [`SolveService::solve_batch`].
    ///
    /// # Errors
    /// As for [`SolveService::solve_batch`].
    pub fn solve(
        &mut self,
        snapshot: &SparsifierSnapshot,
        laplacian: &CsrMatrix,
        b: &[f64],
    ) -> crate::Result<(Vec<f64>, SolveReport)> {
        let (mut xs, report) = self.solve_batch(snapshot, laplacian, &[b.to_vec()])?;
        Ok((xs.pop().expect("one rhs in, one solution out"), report))
    }

    /// Solves `L_G xᵢ = bᵢ` for a batch of right-hand sides with PCG,
    /// preconditioned by `snapshot`'s own exact factor of its sparsifier
    /// ([`SparsifierSnapshot::preconditioner`]) — free per call: the
    /// publish that produced the snapshot already paid for it.
    ///
    /// `laplacian` is the original graph's Laplacian *as of the state the
    /// caller wants answered* — typically the graph matching the
    /// snapshot's version (the concurrent serving layer keeps the pair
    /// together). Right-hand sides are interpreted as node current
    /// injections and projected onto `1⊥` (a Laplacian system is only
    /// consistent for zero-sum injections); solutions are zero-mean
    /// potentials. The batch runs as [`ingrass_linalg::pcg_multi`] on
    /// `min(threads, len)` blocks, and every answer is bit-identical to
    /// solving it alone, at any width. Non-convergence is reported per-RHS
    /// in [`SolveReport::results`], not as an error.
    ///
    /// # Errors
    /// [`SolveError::Dimension`] on operand/snapshot shape mismatch;
    /// [`SolveError::NonFinite`] if a right-hand side holds a NaN or
    /// infinite entry.
    pub fn solve_batch(
        &mut self,
        snapshot: &SparsifierSnapshot,
        laplacian: &CsrMatrix,
        rhss: &[Vec<f64>],
    ) -> crate::Result<(Vec<Vec<f64>>, SolveReport)> {
        let n = snapshot.num_nodes();
        check_operands(n, laplacian, rhss)?;
        let timer = PhaseTimer::start();
        let precond = snapshot.preconditioner();
        let projected: Vec<Vec<f64>> = rhss.iter().map(|b| project(b)).collect();
        let ones = vec![1.0; n];
        let threads = self.cfg.threads.unwrap_or_else(ingrass_par::num_threads);
        let (xs, results): (Vec<Vec<f64>>, Vec<CgResult>) = ingrass_linalg::pcg_multi(
            laplacian,
            &projected,
            precond,
            Some(&ones),
            &self.cfg.cg,
            threads,
        )
        .into_iter()
        .unzip();
        let solve_seconds = timer.total().as_secs_f64();
        self.stats.batches += 1;
        self.stats.solves += rhss.len();
        self.stats.iterations_total += results.iter().map(|r| r.iterations).sum::<usize>();
        let report = SolveReport {
            epoch: snapshot.epoch(),
            factor_nnz: precond.factor_nnz(),
            solve_seconds,
            results,
        };
        Ok((xs, report))
    }
}

/// Operand validation shared by every solve entry point (including the
/// concurrent service's admission path): shapes, and finite right-hand
/// sides.
pub(crate) fn check_operands(
    n: usize,
    laplacian: &CsrMatrix,
    rhss: &[Vec<f64>],
) -> crate::Result<()> {
    if laplacian.n_rows() != n || laplacian.n_cols() != n {
        return Err(SolveError::Dimension {
            expected: n,
            found: laplacian.n_rows().max(laplacian.n_cols()),
            what: "laplacian",
        });
    }
    for (rhs, b) in rhss.iter().enumerate() {
        if b.len() != n {
            return Err(SolveError::Dimension {
                expected: n,
                found: b.len(),
                what: "right-hand side",
            });
        }
        if let Some(index) = b.iter().position(|v| !v.is_finite()) {
            return Err(SolveError::NonFinite {
                rhs,
                index,
                value: b[index],
            });
        }
    }
    Ok(())
}

/// `b − mean(b)·1`: a right-hand side projected onto `1⊥`, where a
/// Laplacian system is consistent. Every solve path projects with this one
/// function, so their answers agree bit for bit.
pub(crate) fn project(b: &[f64]) -> Vec<f64> {
    let mean = b.iter().sum::<f64>() / b.len().max(1) as f64;
    b.iter().map(|v| v - mean).collect()
}

/// Plain (unpreconditioned) CG on a Laplacian system, with the same
/// consistency projection and constant-deflation the service applies — the
/// fair baseline the benches and acceptance tests compare
/// [`SolveService::solve_batch`] against.
pub fn unpreconditioned_cg(
    laplacian: &CsrMatrix,
    b: &[f64],
    opts: &CgOptions,
) -> (Vec<f64>, CgResult) {
    let n = laplacian.n_rows();
    assert_eq!(b.len(), n, "unpreconditioned_cg: b dimension");
    let ones = vec![1.0; n];
    let mut x = vec![0.0; n];
    let pre = ingrass_linalg::IdentityPrecond::new(n);
    let res = ingrass_linalg::pcg(laplacian, &project(b), &mut x, &pre, Some(&ones), opts);
    (x, res)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ingrass::{SetupConfig, SnapshotEngine};
    use ingrass_baselines::GrassSparsifier;
    use ingrass_gen::{grid_2d, WeightModel};
    use ingrass_graph::Graph;
    use std::sync::Arc;

    fn fixture(side: usize, seed: u64) -> (Graph, Arc<SparsifierSnapshot>) {
        let g = grid_2d(side, side, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, seed);
        let h0 = GrassSparsifier::default()
            .by_offtree_density(&g, 0.10)
            .unwrap()
            .graph;
        let engine = SnapshotEngine::setup(&h0, &SetupConfig::default()).unwrap();
        (g, engine.snapshot())
    }

    fn pair_rhs(n: usize, u: usize, v: usize) -> Vec<f64> {
        let mut b = vec![0.0; n];
        b[u] = 1.0;
        b[v] = -1.0;
        b
    }

    #[test]
    fn batch_solutions_match_single_solves() {
        let (g, snap) = fixture(8, 2);
        let l = g.laplacian();
        let n = g.num_nodes();
        let rhss = vec![pair_rhs(n, 0, 9), pair_rhs(n, 5, 40), pair_rhs(n, 11, 62)];
        let mut svc = SolveService::new(SolveConfig::default());
        let (xs, report) = svc.solve_batch(&snap, &l, &rhss).unwrap();
        assert_eq!(xs.len(), 3);
        assert_eq!(report.results.len(), 3);
        let mut svc2 = SolveService::new(SolveConfig::default());
        for (b, x_batch) in rhss.iter().zip(&xs) {
            let (x_single, _) = svc2.solve(&snap, &l, b).unwrap();
            for (a, b) in x_single.iter().zip(x_batch) {
                assert_eq!(a, b, "batch and single solves must agree bitwise");
            }
        }
    }

    #[test]
    fn solutions_satisfy_the_laplacian_equation() {
        let (g, snap) = fixture(9, 3);
        let l = g.laplacian();
        let n = g.num_nodes();
        let b = pair_rhs(n, 2, 70);
        let mut svc = SolveService::new(SolveConfig::default());
        let (x, report) = svc.solve(&snap, &l, &b).unwrap();
        assert!(report.all_converged());
        assert_eq!(report.factor_nnz, snap.preconditioner().factor_nnz());
        let r = l.matvec_alloc(&x);
        let err: f64 = r
            .iter()
            .zip(&b)
            .map(|(ri, bi)| (ri - bi).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-6, "residual {err}");
        // Zero-mean output (deflated solve).
        let mean: f64 = x.iter().sum::<f64>() / n as f64;
        assert!(mean.abs() < 1e-8);
    }

    #[test]
    fn a_different_engine_at_the_same_epoch_is_not_served_the_old_factor() {
        // The service keeps nothing between calls: after answering engine
        // A's snapshot, engine B's (also at epoch 0) is answered with B's
        // own factor, exactly as a fresh service would.
        let (g, snap_a) = fixture(10, 40);
        let (_, snap_b) = fixture(10, 41);
        assert_eq!((snap_a.epoch(), snap_b.epoch()), (0, 0));
        assert_ne!(snap_a.instance_id(), snap_b.instance_id());
        let l = g.laplacian();
        let b = pair_rhs(g.num_nodes(), 0, 9);
        let mut svc = SolveService::new(SolveConfig::default());
        let (x_a, _) = svc.solve(&snap_a, &l, &b).unwrap();
        let (x_b, r_b) = svc.solve(&snap_b, &l, &b).unwrap();
        let (x_fresh, r_fresh) = SolveService::new(SolveConfig::default())
            .solve(&snap_b, &l, &b)
            .unwrap();
        assert_eq!(x_b, x_fresh);
        assert_eq!(r_b.results, r_fresh.results);
        assert_eq!(r_b.factor_nnz, snap_b.preconditioner().factor_nnz());
        assert_ne!(
            x_a, x_b,
            "the two sparsifiers must precondition differently"
        );
    }

    #[test]
    fn dimension_mismatches_are_rejected() {
        let (g, snap) = fixture(6, 7);
        let l = g.laplacian();
        let n = g.num_nodes();
        let mut svc = SolveService::new(SolveConfig::default());
        let small = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, 1.0)]);
        assert!(matches!(
            svc.solve(&snap, &small, &pair_rhs(n, 0, 1)),
            Err(SolveError::Dimension {
                what: "laplacian",
                ..
            })
        ));
        assert!(matches!(
            svc.solve(&snap, &l, &[1.0, -1.0]),
            Err(SolveError::Dimension {
                what: "right-hand side",
                ..
            })
        ));
    }

    #[test]
    fn non_finite_rhs_is_rejected_by_batch_paths() {
        let (g, snap) = fixture(6, 10);
        let l = g.laplacian();
        let n = g.num_nodes();
        let mut bad = pair_rhs(n, 0, 5);
        bad[7] = f64::INFINITY;
        let batch = vec![pair_rhs(n, 1, 2), bad.clone()];
        let mut svc = SolveService::new(SolveConfig::default());
        assert_eq!(
            svc.solve_batch(&snap, &l, &batch).unwrap_err(),
            SolveError::NonFinite {
                rhs: 1,
                index: 7,
                value: f64::INFINITY,
            }
        );
        assert_eq!(
            svc.solve(&snap, &l, &bad).unwrap_err(),
            SolveError::NonFinite {
                rhs: 0,
                index: 7,
                value: f64::INFINITY,
            }
        );
        assert_eq!(svc.stats().solves, 0, "nothing was solved");
    }

    #[test]
    fn batch_width_does_not_change_answers() {
        let (g, snap) = fixture(9, 11);
        let l = g.laplacian();
        let n = g.num_nodes();
        let rhss: Vec<Vec<f64>> = (0..11).map(|k| pair_rhs(n, k, n - 1 - 2 * k)).collect();
        let solve = |threads| {
            let mut svc = SolveService::new(SolveConfig {
                threads: Some(threads),
                ..Default::default()
            });
            let (xs, report) = svc.solve_batch(&snap, &l, &rhss).unwrap();
            (xs, report.results)
        };
        let one = solve(1);
        for threads in [2, 3, 4, 16] {
            assert_eq!(solve(threads), one, "width {threads} diverged");
        }
    }

    #[test]
    fn empty_batch_is_served() {
        let (g, snap) = fixture(6, 8);
        let l = g.laplacian();
        let mut svc = SolveService::new(SolveConfig::default());
        let (xs, report) = svc.solve_batch(&snap, &l, &[]).unwrap();
        assert!(xs.is_empty());
        assert!(report.results.is_empty());
        assert_eq!(report.max_iterations(), 0);
        assert_eq!(svc.stats().batches, 1);
    }

    #[test]
    fn inconsistent_rhs_is_projected() {
        let (g, snap) = fixture(6, 9);
        let l = g.laplacian();
        let n = g.num_nodes();
        // Constant offset on top of a valid injection pair.
        let b: Vec<f64> = pair_rhs(n, 0, n - 1).iter().map(|v| v + 3.0).collect();
        let mut svc = SolveService::new(SolveConfig::default());
        let (x, r) = svc.solve(&snap, &l, &b).unwrap();
        assert!(r.all_converged());
        let lx = l.matvec_alloc(&x);
        // The solution solves the projected system.
        assert!((lx[0] - 1.0).abs() < 1e-6 && (lx[n - 1] + 1.0).abs() < 1e-6);
    }
}
