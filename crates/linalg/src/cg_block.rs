//! Blocked preconditioned conjugate gradients: [`crate::pcg`] over a block
//! of right-hand sides, bit-identical per column.

use crate::block::{sum_identity, tile, tile_mut, with_lanes, LANES};
use crate::cg::{CgOptions, CgResult, Preconditioner};
use crate::op::LinearOperator;
use crate::vector::{dot, norm2};

/// Preconditioned conjugate gradients on a block of right-hand sides:
/// solves `A xᵢ = bᵢ` for every column `i` from a zero initial guess.
/// On entry `bx[i]` holds `bᵢ`; on exit it holds `xᵢ` (the LAPACK
/// convention, so a block needs no second set of column vectors). Every
/// column gets exactly the iterates, exit and [`CgResult`] that
/// [`crate::pcg`] produces for `(bᵢ, x = 0)` alone, bit for bit, whatever
/// else shares the block.
///
/// Columns advance together in chunks of up to eight (a compile-time
/// width). Each iteration of a chunk does one
/// [`LinearOperator::apply_block`], one [`Preconditioner::apply_block`]
/// and a few fused vector passes for all of its columns. A column leaves
/// its chunk at the iteration where [`crate::pcg`] would return for it —
/// converged, `pᵀAp ≤ 0`, or the iteration cap — and the rest continue
/// without it. This allocates a fresh [`BlockPcg`] workspace; callers
/// that solve blocks on other threads build theirs up front instead.
///
/// # Panics
/// As [`crate::pcg`], for any column.
pub fn pcg_block<A, M, V>(
    a: &A,
    bx: &mut [V],
    precond: &M,
    deflate: Option<&[f64]>,
    opts: &CgOptions,
) -> Vec<CgResult>
where
    A: LinearOperator + ?Sized,
    M: Preconditioner + ?Sized,
    V: AsMut<[f64]>,
{
    BlockPcg::new(a.dim(), bx.len()).solve(a, bx, precond, deflate, opts)
}

/// The working memory of [`pcg_block`]: row-major `n × k` blocks for one
/// chunk of up to eight columns, plus the operators' scratch, reused
/// across chunks and calls.
///
/// [`BlockPcg::new`] allocates everything a chunk needs up front, so a
/// caller that hands blocks to worker threads can build their workspaces
/// on its own thread. Buffers then come from (and return to) the
/// calling thread's allocator pool, which the rest of its work reuses,
/// instead of pools of short-lived workers that keep freed memory after
/// the workers exit.
#[derive(Debug)]
pub struct BlockPcg {
    n: usize,
    x: Vec<f64>,
    r: Vec<f64>,
    p: Vec<f64>,
    /// `A·p` until `x` and `r` are updated, then `M⁻¹r` until `p` is —
    /// the two never live at once.
    q: Vec<f64>,
    op_scratch: Vec<f64>,
    pre_scratch: Vec<f64>,
}

impl BlockPcg {
    /// A workspace for blocks of dimension `n` with up to `width` columns
    /// (chunks are at most eight wide, so wider blocks need no more). The
    /// preconditioner scratch is reserved at one block, which covers the
    /// blocked Cholesky-based preconditioners.
    pub fn new(n: usize, width: usize) -> Self {
        let block = || vec![0.0; n * width.min(LANES)];
        BlockPcg {
            n,
            x: block(),
            r: block(),
            p: block(),
            q: block(),
            op_scratch: Vec::new(),
            pre_scratch: block(),
        }
    }

    /// [`pcg_block`] in this workspace, growing it first if `bx` is wider
    /// than it was built for.
    ///
    /// # Panics
    /// As [`pcg_block`]; also if `a.dim()` differs from the workspace
    /// dimension.
    pub fn solve<A, M, V>(
        &mut self,
        a: &A,
        bx: &mut [V],
        precond: &M,
        deflate: Option<&[f64]>,
        opts: &CgOptions,
    ) -> Vec<CgResult>
    where
        A: LinearOperator + ?Sized,
        M: Preconditioner + ?Sized,
        V: AsMut<[f64]>,
    {
        let n = self.n;
        assert_eq!(a.dim(), n, "pcg_block: operator dimension");
        assert_eq!(precond.dim(), n, "pcg_block: preconditioner dimension");
        for col in bx.iter_mut() {
            assert_eq!(col.as_mut().len(), n, "pcg_block: b dimension");
        }
        // `project_out` skips a numerically zero direction; decide that once.
        let deflate = deflate.and_then(|u| {
            assert_eq!(u.len(), n, "pcg_block: deflation vector dimension");
            let uu = dot(u, u);
            if uu <= f64::MIN_POSITIVE {
                None
            } else {
                Some(Deflation { u, uu })
            }
        });
        let len = n * bx.len().min(LANES);
        for v in [&mut self.x, &mut self.r, &mut self.p, &mut self.q] {
            if v.len() < len {
                v.resize(len, 0.0);
            }
        }

        let mut results = Vec::with_capacity(bx.len());
        for chunk in bx.chunks_mut(LANES) {
            self.solve_chunk(a, chunk, precond, deflate, opts, &mut results);
        }
        results
    }

    /// Runs one chunk to completion, appending its results in column
    /// order. Each step mirrors the matching step of [`crate::pcg`].
    fn solve_chunk<A, M, V>(
        &mut self,
        a: &A,
        x: &mut [V],
        precond: &M,
        deflate: Option<Deflation<'_>>,
        opts: &CgOptions,
        results: &mut Vec<CgResult>,
    ) where
        A: LinearOperator + ?Sized,
        M: Preconditioner + ?Sized,
        V: AsMut<[f64]>,
    {
        let n = self.n;
        let mut k = x.len();
        let mut lanes: Vec<Lane> = x
            .iter_mut()
            .enumerate()
            .map(|(col, b)| Lane {
                col,
                target: (opts.rel_tol * norm2(b.as_mut())).max(opts.abs_tol),
                rnorm: 0.0,
                rz: 0.0,
                pap: 0.0,
            })
            .collect();
        let mut out: Vec<Option<CgResult>> = vec![None; k];
        let mut acc = [0.0; LANES];
        let mut coef = [0.0; LANES];

        // x ← 0, r ← b − A·x.
        let nk = n * k;
        self.x[..nk].fill(0.0);
        a.apply_block(&self.x[..nk], &mut self.q[..nk], k, &mut self.op_scratch);
        for (c, col) in x.iter_mut().enumerate() {
            for (i, &bi) in col.as_mut().iter().enumerate() {
                self.r[i * k + c] = bi - self.q[i * k + c];
            }
        }
        match deflate {
            Some(d) => {
                with_lanes!(k, coefs(&self.x[..nk], d, &mut coef));
                with_lanes!(k, axpy_u(&mut self.x[..nk], d.u, &coef));
                with_lanes!(k, coefs(&self.r[..nk], d, &mut coef));
                with_lanes!(k, axpy_u_dot(&mut self.r[..nk], d.u, &coef, None, &mut acc));
            }
            None => with_lanes!(k, dots(&self.r[..nk], &self.r[..nk], &mut acc)),
        }
        for (lane, rr) in lanes.iter_mut().zip(&acc) {
            lane.rnorm = rr.sqrt();
        }
        self.retire(&mut k, &mut lanes, x, &mut out, |l| {
            (l.rnorm <= l.target).then_some(CgResult {
                iterations: 0,
                residual_norm: l.rnorm,
                converged: true,
            })
        });

        if k > 0 {
            self.precondition(precond, deflate, k, &mut coef, &mut acc);
            for (lane, &rz) in lanes.iter_mut().zip(&acc) {
                lane.rz = rz;
            }
            let nk = n * k;
            self.p[..nk].copy_from_slice(&self.q[..nk]);
        }

        for iter in 1..=opts.max_iters {
            if k == 0 {
                break;
            }
            let nk = n * k;
            a.apply_block(&self.p[..nk], &mut self.q[..nk], k, &mut self.op_scratch);
            match deflate {
                Some(d) => {
                    with_lanes!(k, coefs(&self.q[..nk], d, &mut coef));
                    let (ap, p) = (&mut self.q[..nk], &self.p[..nk]);
                    with_lanes!(k, axpy_u_dot(ap, d.u, &coef, Some(p), &mut acc));
                }
                None => with_lanes!(k, dots(&self.p[..nk], &self.q[..nk], &mut acc)),
            }
            for (lane, &pap) in lanes.iter_mut().zip(&acc) {
                lane.pap = pap;
            }
            // Operator (numerically) indefinite along p: stop that column.
            self.retire(&mut k, &mut lanes, x, &mut out, |l| {
                (l.pap <= 0.0 || !l.pap.is_finite()).then_some(CgResult {
                    iterations: iter,
                    residual_norm: l.rnorm,
                    converged: l.rnorm <= l.target,
                })
            });
            if k == 0 {
                break;
            }

            let nk = n * k;
            let mut alpha = [0.0; LANES];
            for (al, lane) in alpha.iter_mut().zip(&lanes) {
                *al = lane.rz / lane.pap;
            }
            let (xw, r) = (&mut self.x[..nk], &mut self.r[..nk]);
            let (p, ap) = (&self.p[..nk], &self.q[..nk]);
            let u = deflate.map(|d| d.u);
            with_lanes!(k, update_xr(&alpha, p, ap, xw, r, u, &mut acc));
            match deflate {
                Some(d) => {
                    for (cf, ru) in coef.iter_mut().zip(&acc).take(k) {
                        *cf = -(ru / d.uu);
                    }
                    with_lanes!(k, axpy_u_dot(&mut self.r[..nk], d.u, &coef, None, &mut acc));
                }
                None => with_lanes!(k, dots(&self.r[..nk], &self.r[..nk], &mut acc)),
            }
            for (lane, rr) in lanes.iter_mut().zip(&acc) {
                lane.rnorm = rr.sqrt();
            }
            self.retire(&mut k, &mut lanes, x, &mut out, |l| {
                (l.rnorm <= l.target).then_some(CgResult {
                    iterations: iter,
                    residual_norm: l.rnorm,
                    converged: true,
                })
            });
            if k == 0 {
                break;
            }

            self.precondition(precond, deflate, k, &mut coef, &mut acc);
            let mut beta = [0.0; LANES];
            for ((be, lane), &rz_next) in beta.iter_mut().zip(&mut lanes).zip(&acc) {
                *be = rz_next / lane.rz;
                lane.rz = rz_next;
            }
            let nk = n * k;
            with_lanes!(k, xpby(&beta, &self.q[..nk], &mut self.p[..nk]));
        }

        self.retire(&mut k, &mut lanes, x, &mut out, |l| {
            Some(CgResult {
                iterations: opts.max_iters,
                residual_norm: l.rnorm,
                converged: false,
            })
        });
        results.extend(out.into_iter().map(|r| r.expect("every column retired")));
    }

    /// `q ← M⁻¹r`, deflated, leaving `rᵀq` per column in `acc`.
    fn precondition<M: Preconditioner + ?Sized>(
        &mut self,
        precond: &M,
        deflate: Option<Deflation<'_>>,
        k: usize,
        coef: &mut [f64; LANES],
        acc: &mut [f64; LANES],
    ) {
        let nk = self.n * k;
        let (r, z) = (&self.r[..nk], &mut self.q[..nk]);
        precond.apply_block(r, z, k, &mut self.pre_scratch);
        match deflate {
            Some(d) => {
                with_lanes!(k, coefs(z, d, coef));
                with_lanes!(k, axpy_u_dot(z, d.u, coef, Some(r), acc));
            }
            None => with_lanes!(k, dots(r, z, acc)),
        }
    }

    /// Retires every column `verdict` returns a result for — its solution
    /// is copied out to the caller's vector — and packs the remaining
    /// columns of the blocks to the front.
    fn retire<V, F>(
        &mut self,
        k: &mut usize,
        lanes: &mut Vec<Lane>,
        x: &mut [V],
        out: &mut [Option<CgResult>],
        verdict: F,
    ) where
        V: AsMut<[f64]>,
        F: Fn(&Lane) -> Option<CgResult>,
    {
        let width = *k;
        let mut keep = [true; LANES];
        for (c, (kept, lane)) in keep.iter_mut().zip(lanes.iter()).enumerate() {
            if let Some(res) = verdict(lane) {
                *kept = false;
                for (i, v) in x[lane.col].as_mut().iter_mut().enumerate() {
                    *v = self.x[i * width + c];
                }
                out[lane.col] = Some(res);
            }
        }
        let keep = &keep[..width];
        if keep.iter().all(|&kept| kept) {
            return;
        }
        let nk = self.n * width;
        for v in [&mut self.x, &mut self.r, &mut self.p, &mut self.q] {
            compact(&mut v[..nk], keep);
        }
        let mut c = 0;
        lanes.retain(|_| {
            c += 1;
            keep[c - 1]
        });
        *k = lanes.len();
    }
}

/// The deflation direction `u` with its precomputed `uᵀu`.
#[derive(Clone, Copy)]
struct Deflation<'u> {
    u: &'u [f64],
    uu: f64,
}

/// Per-column scalars of a running chunk.
struct Lane {
    /// Index of the column within the chunk.
    col: usize,
    target: f64,
    rnorm: f64,
    rz: f64,
    pap: f64,
}

/// Drops the columns with `keep[c] == false` from a row-major block of
/// `keep.len()` columns, packing the rest to the front in place.
fn compact(v: &mut [f64], keep: &[bool]) {
    let mut to = 0;
    for (from, &kept) in (0..v.len()).zip(keep.iter().cycle()) {
        if kept {
            v[to] = v[from];
            to += 1;
        }
    }
}

// The vector passes below work on `W`-column blocks with `W` the live
// column count, and replay `vector::{dot, axpy}` per column.

/// `acc[c] ← Σᵢ a[i,c]·b[i,c]`.
fn dots<const W: usize>(a: &[f64], b: &[f64], acc: &mut [f64; LANES]) {
    let mut s = [sum_identity(); W];
    for i in 0..a.len() / W {
        let (ai, bi) = (tile::<W>(a, i * W), tile::<W>(b, i * W));
        for c in 0..W {
            s[c] += ai[c] * bi[c];
        }
    }
    acc[..W].copy_from_slice(&s);
}

/// `coef[c] ← −(vᵀu / uᵀu)`, the `project_out` coefficient per column.
fn coefs<const W: usize>(v: &[f64], d: Deflation<'_>, coef: &mut [f64; LANES]) {
    let mut s = [sum_identity(); W];
    for (i, &ui) in d.u.iter().enumerate() {
        let vi = tile::<W>(v, i * W);
        for c in 0..W {
            s[c] += vi[c] * ui;
        }
    }
    for c in 0..W {
        coef[c] = -(s[c] / d.uu);
    }
}

/// `v[i,c] += coef[c]·u[i]`.
fn axpy_u<const W: usize>(v: &mut [f64], u: &[f64], coef: &[f64; LANES]) {
    for (i, &ui) in u.iter().enumerate() {
        let vi = tile_mut::<W>(v, i * W);
        for c in 0..W {
            vi[c] += coef[c] * ui;
        }
    }
}

/// `v[i,c] += coef[c]·u[i]`, then `acc[c] ← Σᵢ w[i,c]·v[i,c]` over the
/// updated `v` (`w = v` when `None`).
fn axpy_u_dot<const W: usize>(
    v: &mut [f64],
    u: &[f64],
    coef: &[f64; LANES],
    w: Option<&[f64]>,
    acc: &mut [f64; LANES],
) {
    let mut s = [sum_identity(); W];
    for (i, &ui) in u.iter().enumerate() {
        let vi = tile_mut::<W>(v, i * W);
        for c in 0..W {
            vi[c] += coef[c] * ui;
        }
        let wi = match w {
            Some(w) => tile::<W>(w, i * W),
            None => &*vi,
        };
        for c in 0..W {
            s[c] += wi[c] * vi[c];
        }
    }
    acc[..W].copy_from_slice(&s);
}

/// `x += α·p` and `r += (−α)·ap` per column, then `acc[c] ← rᵀu` over
/// the updated `r` when deflating.
fn update_xr<const W: usize>(
    alpha: &[f64; LANES],
    p: &[f64],
    ap: &[f64],
    x: &mut [f64],
    r: &mut [f64],
    u: Option<&[f64]>,
    acc: &mut [f64; LANES],
) {
    let mut s = [sum_identity(); W];
    for i in 0..ap.len() / W {
        let (pi, api) = (tile::<W>(p, i * W), tile::<W>(ap, i * W));
        let xi = tile_mut::<W>(x, i * W);
        for c in 0..W {
            xi[c] += alpha[c] * pi[c];
        }
        let ri = tile_mut::<W>(r, i * W);
        for c in 0..W {
            ri[c] += -alpha[c] * api[c];
        }
        if let Some(u) = u {
            for c in 0..W {
                s[c] += ri[c] * u[i];
            }
        }
    }
    acc[..W].copy_from_slice(&s);
}

/// `p ← z + β·p` per column.
fn xpby<const W: usize>(beta: &[f64; LANES], z: &[f64], p: &mut [f64]) {
    for i in 0..z.len() / W {
        let zi = tile::<W>(z, i * W);
        let pi = tile_mut::<W>(p, i * W);
        for c in 0..W {
            pi[c] = zi[c] + beta[c] * pi[c];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{pcg, CsrMatrix, DenseMatrix, IdentityPrecond, JacobiPrecond, SparseCholesky};
    use proptest::prelude::*;

    /// Weighted path Laplacian on nodes `0..n-1` plus `shift·I` there, and
    /// a decoupled last node with diagonal `last` — negative `last` gives
    /// the operator a direction of negative curvature (`pᵀAp < 0`).
    fn path_plus(weights: &[f64], shift: f64, last: f64) -> CsrMatrix {
        let n = weights.len() + 2;
        let mut t = Vec::new();
        for (i, &w) in weights.iter().enumerate() {
            t.extend([(i, i, w), (i + 1, i + 1, w), (i, i + 1, -w), (i + 1, i, -w)]);
        }
        t.extend((0..n - 1).map(|i| (i, i, shift)));
        t.push((n - 1, n - 1, last));
        CsrMatrix::from_triplets(n, n, &t)
    }

    /// Solves every column with [`pcg`] from zero and with one
    /// [`pcg_block`] call, and asserts bit-identical `x` and results.
    fn assert_block_matches<M: Preconditioner>(
        a: &CsrMatrix,
        rhss: &[Vec<f64>],
        precond: &M,
        deflate: Option<&[f64]>,
        opts: &CgOptions,
    ) -> Vec<CgResult> {
        let mut xs = rhss.to_vec();
        let block = pcg_block(a, &mut xs, precond, deflate, opts);
        assert_eq!(block.len(), rhss.len());
        for (c, b) in rhss.iter().enumerate() {
            let mut x = vec![0.0; b.len()];
            let want = pcg(a, b, &mut x, precond, deflate, opts);
            let got = &block[c];
            assert_eq!(got.iterations, want.iterations, "column {c} iterations");
            assert_eq!(got.converged, want.converged, "column {c} converged");
            assert_eq!(
                got.residual_norm.to_bits(),
                want.residual_norm.to_bits(),
                "column {c} residual"
            );
            let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&xs[c]), bits(&x), "column {c} solution");
        }
        block
    }

    fn columns(raw: &[f64], n: usize, k: usize) -> Vec<Vec<f64>> {
        raw.chunks(n).take(k).map(<[f64]>::to_vec).collect()
    }

    #[test]
    fn every_exit_is_reproduced_in_one_block() {
        let weights: Vec<f64> = (0..14).map(|i| 0.5 + (i % 4) as f64).collect();
        let a = path_plus(&weights, 0.05, -1.0);
        let n = a.n_rows();
        let mut rhss = columns(
            &(0..5 * n)
                .map(|v| ((v * 37 % 11) as f64 - 5.0) / 5.0)
                .collect::<Vec<_>>(),
            n,
            5,
        );
        rhss[1] = vec![0.0; n]; // zero rhs: 0 iterations
        rhss[3] = (0..n).map(|i| f64::from(u8::from(i == n - 1))).collect(); // pᵀAp < 0
        let pre = IdentityPrecond::new(n);
        let mut exits = [false; 4]; // zero, pap, capped, converged
        for max_iters in [4, 500] {
            let opts = CgOptions::default().with_max_iters(max_iters);
            for r in assert_block_matches(&a, &rhss, &pre, None, &opts) {
                exits[0] |= r.iterations == 0;
                exits[1] |= !r.converged && r.iterations > 0 && r.iterations < max_iters;
                exits[2] |= !r.converged && r.iterations == max_iters;
                exits[3] |= r.converged && r.iterations > 0;
            }
        }
        assert_eq!(exits, [true; 4], "zero / pᵀAp / cap / converged all seen");
    }

    #[test]
    fn empty_block_and_zero_vector_deflation() {
        let a = path_plus(&[1.0, 2.0], 0.5, 1.0);
        let pre = IdentityPrecond::new(4);
        let mut none: Vec<Vec<f64>> = Vec::new();
        assert!(pcg_block(&a, &mut none, &pre, None, &CgOptions::default()).is_empty());
        // A zero deflation vector is skipped exactly as `project_out` does.
        let zero = vec![0.0; 4];
        let rhss = vec![vec![1.0, -2.0, 0.5, 3.0]];
        assert_block_matches(&a, &rhss, &pre, Some(&zero), &CgOptions::default());
    }

    #[test]
    fn blocked_operators_match_their_column_applies() {
        let weights: Vec<f64> = (0..19).map(|i| 0.25 + (i % 5) as f64).collect();
        let a = path_plus(&weights, 0.3, 1.5);
        let n = a.n_rows();
        let chol = SparseCholesky::factor(&a).unwrap();
        let dense = DenseMatrix::from_csr(&a).cholesky().unwrap();
        let mut scratch = Vec::new();
        for k in 1..=17 {
            let x: Vec<f64> = (0..n * k)
                .map(|v| ((v * 7919) % 113) as f64 - 56.0)
                .collect();
            let mut y_op = vec![0.0; n * k];
            a.apply_block(&x, &mut y_op, k, &mut scratch);
            let mut y_pre = vec![0.0; n * k];
            chol.apply_block(&x, &mut y_pre, k, &mut scratch);
            let mut y_dense = x.clone();
            dense.cholesky_solve_block_in_place(&mut y_dense, k);
            for c in 0..k {
                let col: Vec<f64> = (0..n).map(|i| x[i * k + c]).collect();
                let pick = |y: &[f64]| (0..n).map(|i| y[i * k + c].to_bits()).collect::<Vec<_>>();
                let bits = |v: Vec<f64>| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    pick(&y_op),
                    bits(a.matvec_alloc(&col)),
                    "k {k} col {c}: matvec"
                );
                assert_eq!(
                    pick(&y_pre),
                    bits(chol.solve(&col)),
                    "k {k} col {c}: cholesky"
                );
                assert_eq!(
                    pick(&y_dense),
                    bits(DenseMatrix::from_csr(&a).solve_spd(&col).unwrap()),
                    "k {k} col {c}: dense"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The block kernel reproduces `pcg` bit for bit per column for
        /// every block width 1..=17, with and without deflation, under the
        /// identity, Jacobi and sparse-Cholesky preconditioners. Each block
        /// holds a zero column and a negative-curvature column, and the
        /// iteration cap is low enough to cut some columns off.
        #[test]
        fn prop_block_matches_pcg_bitwise(
            weights in proptest::collection::vec(0.1f64..4.0, 14),
            shift in 0.0f64..0.5,
            raw in proptest::collection::vec(-1.0f64..1.0, 17 * 16),
            k in 1usize..=17,
            special in 0usize..17,
            max_iters in 1usize..40,
        ) {
            let a = path_plus(&weights, shift, -1.0);
            let n = a.n_rows();
            let mut rhss = columns(&raw, n, k);
            rhss[special % k] = vec![0.0; n];
            rhss[(special + 1) % k] = (0..n).map(|i| f64::from(u8::from(i == n - 1))).collect();
            let ones = vec![1.0; n];
            let opts = CgOptions::default().with_max_iters(max_iters);
            let spd = path_plus(&weights, shift + 0.5, 1.0);
            let chol = SparseCholesky::factor(&spd).unwrap();
            let jacobi = JacobiPrecond::from_matrix(&a);
            let identity = IdentityPrecond::new(n);
            for deflate in [None, Some(ones.as_slice())] {
                assert_block_matches(&a, &rhss, &identity, deflate, &opts);
                assert_block_matches(&a, &rhss, &jacobi, deflate, &opts);
                assert_block_matches(&a, &rhss, &chol, deflate, &opts);
            }
        }
    }
}
