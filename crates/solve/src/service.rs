//! The solve recipe's shared pieces: configuration, errors, the operand
//! check every submission passes, the `1⊥` projection every right-hand side
//! gets, and the plain-CG baseline.

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
            SolveError::NonFinite { index, value } => write!(
                f,
                "right-hand side has non-finite entry {value} at index {index}"
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

/// Configuration of a [`crate::ConcurrentSolveService`].
#[derive(Debug, Clone)]
pub struct SolveConfig {
    /// PCG options; the default targets `1e-8` relative residual with a
    /// 20 000-iteration budget (looser than [`CgOptions::default`] — solve
    /// traffic wants throughput, estimators want the last digits).
    pub cg: CgOptions,
    /// Worker threads a drain solves on (`None` = the ambient
    /// `ingrass-par` width). Results are bit-identical at any width.
    pub threads: Option<usize>,
    /// Admission cap: once this many requests are pending, further
    /// submissions are rejected with [`SolveError::QueueFull`] instead of
    /// growing the queue without bound. `None` (the default) admits
    /// everything.
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

/// Operand validation of one submission: shapes, and a finite right-hand
/// side.
pub(crate) fn check_operands(n: usize, laplacian: &CsrMatrix, b: &[f64]) -> crate::Result<()> {
    if laplacian.n_rows() != n || laplacian.n_cols() != n {
        return Err(SolveError::Dimension {
            expected: n,
            found: laplacian.n_rows().max(laplacian.n_cols()),
            what: "laplacian",
        });
    }
    if b.len() != n {
        return Err(SolveError::Dimension {
            expected: n,
            found: b.len(),
            what: "right-hand side",
        });
    }
    if let Some(index) = b.iter().position(|v| !v.is_finite()) {
        return Err(SolveError::NonFinite {
            index,
            value: b[index],
        });
    }
    Ok(())
}

/// `b − mean(b)·1`: a right-hand side projected onto `1⊥`, where a
/// Laplacian system is consistent. The drain and [`unpreconditioned_cg`]
/// project with this one function.
pub(crate) fn project(b: &[f64]) -> Vec<f64> {
    let mean = b.iter().sum::<f64>() / b.len().max(1) as f64;
    b.iter().map(|v| v - mean).collect()
}

/// Plain (unpreconditioned) CG on a Laplacian system, with the same
/// consistency projection and constant-deflation the service applies — the
/// fair baseline the acceptance tests compare
/// [`crate::ConcurrentSolveService::drain`] against.
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
    use crate::{ConcurrentSolveService, SolveConfig};
    use ingrass::{SetupConfig, SnapshotEngine, SparsifierSnapshot};
    use ingrass_baselines::GrassSparsifier;
    use ingrass_gen::{grid_2d, WeightModel};
    use ingrass_graph::Graph;
    use ingrass_linalg::{CgResult, CsrMatrix};
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

    /// One request through a fresh service's `submit` and `drain`.
    fn solve_one(
        snap: &Arc<SparsifierSnapshot>,
        l: &Arc<CsrMatrix>,
        b: &[f64],
    ) -> (Vec<f64>, CgResult) {
        let svc = ConcurrentSolveService::new(SolveConfig::default());
        svc.submit(snap, l, b.to_vec()).unwrap();
        let served = svc.drain().served.pop().expect("one request served");
        (served.x, served.result)
    }

    #[test]
    fn solutions_satisfy_the_laplacian_equation() {
        let (g, snap) = fixture(9, 3);
        let l = Arc::new(g.laplacian());
        let n = g.num_nodes();
        let b = pair_rhs(n, 2, 70);
        let (x, result) = solve_one(&snap, &l, &b);
        assert!(result.converged);
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
    fn inconsistent_rhs_is_projected() {
        let (g, snap) = fixture(6, 9);
        let l = Arc::new(g.laplacian());
        let n = g.num_nodes();
        // Constant offset on top of a valid injection pair.
        let b: Vec<f64> = pair_rhs(n, 0, n - 1).iter().map(|v| v + 3.0).collect();
        let (x, result) = solve_one(&snap, &l, &b);
        assert!(result.converged);
        let lx = l.matvec_alloc(&x);
        // The solution solves the projected system.
        assert!((lx[0] - 1.0).abs() < 1e-6 && (lx[n - 1] + 1.0).abs() < 1e-6);
    }
}
