//! Column blocks: `k` vectors of one dimension `n` stored row-major, so
//! entry `(i, c)` — component `i` of column `c` — lives at `i * k + c`.
//!
//! This is the layout of the multi-right-hand-side kernels
//! ([`crate::pcg_block`], [`crate::LinearOperator::apply_block`],
//! [`crate::Preconditioner::apply_block`]): one read of a matrix entry or
//! factor entry updates all `k` columns, and the per-column arithmetic is
//! independent, so it overlaps instead of waiting on one dependency chain.
//! Every blocked kernel performs, for each column, exactly the
//! floating-point operations of its one-vector counterpart in the same
//! order — only independent columns are interleaved — which is what makes
//! blocked results bit-identical per column.
//!
//! Inner loops run over register tiles of at most [`LANES`] (eight)
//! columns whose width is a compile-time constant, so the per-column
//! accumulators live in registers. The tile helpers are public so that
//! blocked kernels in other crates (the Krylov probe smoothing of
//! `ingrass-resistance`) are built the same way.

/// Widest register tile, in columns. Also the most columns
/// [`crate::pcg_block`] advances together.
pub const LANES: usize = 8;

/// `with_lanes!(w, f(args…))` calls `f::<W>(args…)` with the compile-time
/// tile width `W == w` (`1 ≤ w ≤` [`block::LANES`](crate::block::LANES)).
///
/// # Panics
/// Panics if `w` is 0 or wider than `LANES`.
#[macro_export]
macro_rules! with_lanes {
    ($w:expr, $f:ident($($arg:expr),* $(,)?)) => {
        match $w {
            1 => $f::<1>($($arg),*),
            2 => $f::<2>($($arg),*),
            3 => $f::<3>($($arg),*),
            4 => $f::<4>($($arg),*),
            5 => $f::<5>($($arg),*),
            6 => $f::<6>($($arg),*),
            7 => $f::<7>($($arg),*),
            8 => $f::<8>($($arg),*),
            w => unreachable!("register tile of {w} columns"),
        }
    };
}
pub use with_lanes;

/// The register tiles `(first column, width)` covering columns `0..k`.
pub(crate) fn tiles(k: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..k)
        .step_by(LANES)
        .map(move |c0| (c0, (k - c0).min(LANES)))
}

/// The `W` entries of `v` starting at `at`.
///
/// # Panics
/// Panics if `v` is shorter than `at + W`.
#[inline(always)]
pub fn tile<const W: usize>(v: &[f64], at: usize) -> &[f64; W] {
    v[at..at + W].try_into().expect("tile is W wide")
}

/// The `W` entries of `v` starting at `at`, mutably.
///
/// # Panics
/// Panics if `v` is shorter than `at + W`.
#[inline(always)]
pub fn tile_mut<const W: usize>(v: &mut [f64], at: usize) -> &mut [f64; W] {
    (&mut v[at..at + W]).try_into().expect("tile is W wide")
}

/// The value [`Iterator::sum`] folds from (`-0.0` on current toolchains,
/// `0.0` on older ones). Blocked accumulators start here, so a blocked dot
/// product replays [`crate::vector::dot`] bit for bit, down to the sign of
/// an all-zero sum.
#[inline(always)]
pub fn sum_identity() -> f64 {
    std::iter::empty::<f64>().sum()
}

/// The first `len` entries of a caller-owned scratch buffer, growing it
/// (zero-filled) only when it is too short — how the blocked kernels
/// reuse one allocation across calls.
pub fn scratch_slice(buf: &mut Vec<f64>, len: usize) -> &mut [f64] {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    &mut buf[..len]
}

/// Row `t` of `dst` ← row `rows[t]` of `src`, for every `t`; both are
/// blocks of `k` columns.
///
/// # Panics
/// Panics if a row index is out of range for `src`, or `dst` has fewer
/// than `rows.len()` rows.
pub fn gather_rows(src: &[f64], rows: &[u32], dst: &mut [f64], k: usize) {
    for (c0, w) in tiles(k) {
        with_lanes!(w, gather_tile(src, rows, dst, k, c0));
    }
}

/// Row `rows[t]` of `dst` ← row `t` of `src`, for every `t`; both are
/// blocks of `k` columns.
///
/// # Panics
/// Panics if a row index is out of range for `dst`, or `src` has fewer
/// than `rows.len()` rows.
pub fn scatter_rows(src: &[f64], rows: &[u32], dst: &mut [f64], k: usize) {
    for (c0, w) in tiles(k) {
        with_lanes!(w, scatter_tile(src, rows, dst, k, c0));
    }
}

fn gather_tile<const W: usize>(src: &[f64], rows: &[u32], dst: &mut [f64], k: usize, c0: usize) {
    for (t, &row) in rows.iter().enumerate() {
        *tile_mut::<W>(dst, t * k + c0) = *tile::<W>(src, row as usize * k + c0);
    }
}

fn scatter_tile<const W: usize>(src: &[f64], rows: &[u32], dst: &mut [f64], k: usize, c0: usize) {
    for (t, &row) in rows.iter().enumerate() {
        *tile_mut::<W>(dst, row as usize * k + c0) = *tile::<W>(src, t * k + c0);
    }
}

/// The provided `apply_block` of the operator traits: one column at a
/// time, gather → `apply` → scatter, through two `n`-long halves of
/// `scratch`.
pub(crate) fn per_column<F>(
    n: usize,
    src: &[f64],
    dst: &mut [f64],
    k: usize,
    scratch: &mut Vec<f64>,
    mut apply: F,
) where
    F: FnMut(&[f64], &mut [f64]),
{
    assert_eq!(src.len(), n * k, "apply_block: input block dimension");
    assert_eq!(dst.len(), n * k, "apply_block: output block dimension");
    let (col_in, col_out) = scratch_slice(scratch, 2 * n).split_at_mut(n);
    for c in 0..k {
        for (i, v) in col_in.iter_mut().enumerate() {
            *v = src[i * k + c];
        }
        apply(col_in, col_out);
        for (i, &v) in col_out.iter().enumerate() {
            dst[i * k + c] = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiles_cover_every_column_once() {
        for k in 0..30 {
            let mut next = 0;
            for (c0, w) in tiles(k) {
                assert_eq!(c0, next);
                assert!((1..=LANES).contains(&w));
                next += w;
            }
            assert_eq!(next, k);
        }
    }

    #[test]
    fn gather_then_scatter_round_trips_a_permutation() {
        let (n, k) = (5, 11);
        let src: Vec<f64> = (0..n * k).map(|v| v as f64).collect();
        let rows = [3u32, 0, 4, 1, 2];
        let mut mid = vec![0.0; n * k];
        gather_rows(&src, &rows, &mut mid, k);
        assert_eq!(&mid[..k], &src[3 * k..4 * k]);
        let mut back = vec![0.0; n * k];
        scatter_rows(&mid, &rows, &mut back, k);
        assert_eq!(back, src);
    }

    #[test]
    fn accumulators_start_where_sum_does() {
        // All-negative-zero products: the sign of the empty-prefix value
        // decides the sign of the result.
        let a = [-0.0f64, -0.0];
        let b = [1.0f64, 1.0];
        let mut acc = sum_identity();
        for (x, y) in a.iter().zip(&b) {
            acc += x * y;
        }
        assert_eq!(acc.to_bits(), crate::vector::dot(&a, &b).to_bits());
    }
}
