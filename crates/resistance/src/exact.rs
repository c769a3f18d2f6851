//! Ground-truth effective resistance.

use crate::ResistanceEstimator;
use ingrass_graph::{kruskal_tree, Graph, GraphError, NodeId, TreeObjective, TreePrecond};
use ingrass_linalg::{pcg, CgOptions, CsrMatrix, DenseMatrix, LinalgError};

enum Backend {
    /// Precomputed dense pseudo-inverse of the Laplacian.
    Dense(DenseMatrix),
    /// One CG solve per query.
    Cg {
        laplacian: CsrMatrix,
        precond: TreePrecond,
        ones: Vec<f64>,
        opts: CgOptions,
    },
}

/// Exact effective resistance, used as the test oracle and as a reference
/// estimator in the resistance benches.
///
/// Two backends:
/// * [`ExactResistance::dense`] — `O(n³)` eigendecomposition once, `O(1)`
///   per query. Only for small graphs (n ≲ 2000).
/// * [`ExactResistance::via_cg`] — no precomputation beyond a spanning tree
///   preconditioner; each query runs one tree-preconditioned CG solve
///   `L x = b_pq` to high tolerance.
///
/// # Example
/// ```
/// use ingrass_graph::Graph;
/// use ingrass_resistance::{ExactResistance, ResistanceEstimator};
/// // Two parallel unit edges between the same endpoints: R = 1/2.
/// let g = Graph::from_edges(2, &[(0, 1, 2.0)]).unwrap();
/// let r = ExactResistance::dense(&g).unwrap();
/// assert!((r.resistance(0.into(), 1.into()) - 0.5).abs() < 1e-10);
/// ```
pub struct ExactResistance {
    backend: Backend,
}

impl std::fmt::Debug for ExactResistance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self.backend {
            Backend::Dense(_) => "dense",
            Backend::Cg { .. } => "cg",
        };
        f.debug_struct("ExactResistance")
            .field("backend", &name)
            .finish()
    }
}

impl ExactResistance {
    /// Dense-pseudo-inverse backend.
    ///
    /// # Errors
    /// Propagates eigensolver failures ([`LinalgError`]).
    pub fn dense(g: &Graph) -> Result<Self, LinalgError> {
        let l = DenseMatrix::from_csr(&g.laplacian());
        let (vals, vecs) = l.symmetric_eigen()?;
        let n = g.num_nodes();
        let lmax = vals.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let cutoff = 1e-10 * lmax.max(f64::MIN_POSITIVE);
        // pinv = V diag(1/λ) Vᵀ over the non-null eigenpairs.
        let mut pinv = DenseMatrix::zeros(n, n);
        for (k, &lam) in vals.iter().enumerate() {
            if lam.abs() <= cutoff {
                continue;
            }
            let inv = 1.0 / lam;
            for i in 0..n {
                let vik = vecs.get(i, k);
                if vik == 0.0 {
                    continue;
                }
                for j in 0..n {
                    pinv.add(i, j, inv * vik * vecs.get(j, k));
                }
            }
        }
        Ok(ExactResistance {
            backend: Backend::Dense(pinv),
        })
    }

    /// CG backend with a spanning-tree preconditioner.
    ///
    /// # Errors
    /// [`GraphError::Disconnected`] / [`GraphError::Empty`] if no spanning
    /// tree exists (resistance is infinite across components).
    pub fn via_cg(g: &Graph) -> Result<Self, GraphError> {
        let tree = kruskal_tree(g, TreeObjective::MaxWeight)?;
        Ok(ExactResistance {
            backend: Backend::Cg {
                laplacian: g.laplacian(),
                precond: TreePrecond::new(&tree.tree),
                ones: vec![1.0; g.num_nodes()],
                opts: CgOptions::default()
                    .with_rel_tol(1e-10)
                    .with_max_iters(5000),
            },
        })
    }
}

impl ResistanceEstimator for ExactResistance {
    fn resistance(&self, u: NodeId, v: NodeId) -> f64 {
        if u == v {
            return 0.0;
        }
        match &self.backend {
            Backend::Dense(pinv) => {
                pinv.get(u.index(), u.index()) + pinv.get(v.index(), v.index())
                    - 2.0 * pinv.get(u.index(), v.index())
            }
            Backend::Cg {
                laplacian,
                precond,
                ones,
                opts,
            } => {
                let n = laplacian.n_rows();
                let mut b = vec![0.0; n];
                b[u.index()] = 1.0;
                b[v.index()] = -1.0;
                let mut x = vec![0.0; n];
                pcg(laplacian, &b, &mut x, precond, Some(ones), opts);
                x[u.index()] - x[v.index()]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wheatstone() -> Graph {
        // Classic bridge: 0-1 (1Ω), 0-2 (1Ω), 1-3 (1Ω), 2-3 (1Ω), 1-2 (1Ω).
        // R(0,3) = 1 (by symmetry the bridge carries no current).
        Graph::from_edges(
            4,
            &[
                (0, 1, 1.0),
                (0, 2, 1.0),
                (1, 3, 1.0),
                (2, 3, 1.0),
                (1, 2, 1.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn dense_matches_series_parallel_rules() {
        let g = wheatstone();
        let r = ExactResistance::dense(&g).unwrap();
        assert!((r.resistance(0.into(), 3.into()) - 1.0).abs() < 1e-9);
        // R(0,1): 1Ω in parallel with (1 + series/parallel rest). By
        // symmetry of the square-with-diagonal: 1 ∥ (1 + 1∥(1+1)) = 1∥(5/3) = 5/8.
        assert!((r.resistance(0.into(), 1.into()) - 0.625).abs() < 1e-9);
    }

    #[test]
    fn cg_backend_agrees_with_dense() {
        let g = wheatstone();
        let dense = ExactResistance::dense(&g).unwrap();
        let cg = ExactResistance::via_cg(&g).unwrap();
        for u in 0..4u32 {
            for v in 0..4u32 {
                let a = dense.resistance(u.into(), v.into());
                let b = cg.resistance(u.into(), v.into());
                assert!((a - b).abs() < 1e-7, "({u},{v}): {a} vs {b}");
            }
        }
    }

    #[test]
    fn cycle_resistance_formula() {
        // On a unit cycle of n nodes, R(0, k) = k(n-k)/n.
        let n = 12;
        let edges: Vec<(usize, usize, f64)> = (0..n).map(|i| (i, (i + 1) % n, 1.0)).collect();
        let g = Graph::from_edges(n, &edges).unwrap();
        let r = ExactResistance::dense(&g).unwrap();
        for k in 1..n {
            let expect = (k * (n - k)) as f64 / n as f64;
            let got = r.resistance(0.into(), k.into());
            assert!((got - expect).abs() < 1e-9, "k={k}: {got} vs {expect}");
        }
    }

    #[test]
    fn rayleigh_monotonicity_under_extra_edge() {
        // Adding an edge can only decrease effective resistances.
        let g1 = Graph::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]).unwrap();
        let g2 =
            Graph::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)]).unwrap();
        let r1 = ExactResistance::dense(&g1).unwrap();
        let r2 = ExactResistance::dense(&g2).unwrap();
        for u in 0..4u32 {
            for v in (u + 1)..4 {
                assert!(
                    r2.resistance(u.into(), v.into()) <= r1.resistance(u.into(), v.into()) + 1e-9
                );
            }
        }
    }

    #[test]
    fn via_cg_rejects_disconnected() {
        let g = Graph::from_edges(4, &[(0, 1, 1.0), (2, 3, 1.0)]).unwrap();
        assert!(ExactResistance::via_cg(&g).is_err());
    }
}
