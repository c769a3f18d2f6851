//! Sparse and dense linear algebra substrate for the inGRASS reproduction.
//!
//! This crate provides the numerical kernels every other crate in the
//! workspace builds on:
//!
//! * [`CsrMatrix`] — compressed sparse row matrices (graph Laplacians and
//!   adjacency matrices live here), with fast symmetric mat-vec.
//! * [`DenseMatrix`] — small dense matrices with Cholesky factorisation and a
//!   cyclic-Jacobi symmetric eigensolver, used as ground truth in tests and
//!   for exact effective-resistance references on small graphs.
//! * [`pcg`] — preconditioned conjugate gradients with pluggable
//!   [`Preconditioner`]s (identity, Jacobi; the spanning-tree preconditioner
//!   lives in `ingrass-graph` because it needs a tree), and [`pcg_block`],
//!   its multi-right-hand-side form: one operator and one preconditioner
//!   pass per iteration for a whole block of columns ([`block`]), each
//!   column bit-identical to [`pcg`] on it alone.
//! * [`SparseCholesky`] / [`min_degree_order`] — sparse `L Lᵀ` factorisation
//!   with an AMD-lite fill-reducing ordering; a factor is itself a
//!   [`Preconditioner`], which is how `ingrass-solve` turns the sparsifier
//!   into a preconditioner for solves on the original graph.
//! * [`lanczos_extreme`] / [`generalized_lanczos`] — symmetric Lanczos for
//!   extreme eigenvalues of an operator or of a matrix pencil `(A, B)`; the
//!   pencil variant powers the relative condition number estimator
//!   `κ(L_G, L_H)` in `ingrass-metrics`.
//! * [`vector`] — the small set of BLAS-1 style helpers shared by the
//!   iterative methods.
//!
//! # Example
//!
//! Solve a small SPD system with CG and verify against dense Cholesky:
//!
//! ```
//! use ingrass_linalg::{CsrMatrix, DenseMatrix, pcg, CgOptions, JacobiPrecond};
//!
//! // 2x2 SPD matrix [[4, 1], [1, 3]].
//! let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 4.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 3.0)]);
//! let b = vec![1.0, 2.0];
//! let mut x = vec![0.0; 2];
//! let pre = JacobiPrecond::from_matrix(&a);
//! let res = pcg(&a, &b, &mut x, &pre, None, &CgOptions::default());
//! assert!(res.converged);
//!
//! let dense = DenseMatrix::from_csr(&a);
//! let exact = dense.solve_spd(&b).unwrap();
//! assert!((x[0] - exact[0]).abs() < 1e-8 && (x[1] - exact[1]).abs() < 1e-8);
//! ```

#![deny(missing_docs)]

pub mod block;
mod cg;
mod cg_block;
mod cholesky;
mod csr;
mod dense;
mod error;
mod lanczos;
mod op;
pub mod vector;

pub use cg::{pcg, CgOptions, CgResult, IdentityPrecond, JacobiPrecond, Preconditioner};
pub use cg_block::{pcg_block, BlockPcg};
pub use cholesky::{min_degree_order, min_degree_order_with_hints, CholeskyState, SparseCholesky};
pub use csr::CsrMatrix;
pub use dense::DenseMatrix;
pub use error::LinalgError;
pub use lanczos::{
    generalized_lanczos, lanczos_extreme, LanczosOptions, LanczosResult, PencilEigenResult,
};
pub use op::{FnOperator, LinearOperator, ShiftedOperator};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, LinalgError>;
