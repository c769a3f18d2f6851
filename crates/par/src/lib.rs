//! Deterministic parallel primitives for the inGRASS workspace.
//!
//! Every hot path in this workspace — Krylov probe smoothing, batched CG
//! right-hand sides, per-edge distortion scoring — is an
//! *index-parallel* map: item `i` is computed from `i` (and shared read-only
//! state) alone. This crate runs such maps across threads while keeping the
//! output **bit-for-bit identical to the serial loop at any thread count**:
//!
//! * work is distributed dynamically (an atomic cursor), but every result is
//!   placed back at its own index, so the output order never depends on
//!   scheduling;
//! * nothing is reduced across threads in non-deterministic order — callers
//!   that need randomness derive an independent seed per index with
//!   [`derive_seed`] instead of sharing one RNG stream.
//!
//! The thread count comes from [`num_threads`]: the `INGRASS_THREADS`
//! environment variable when set (and ≥ 1), otherwise
//! [`std::thread::available_parallelism`]. `INGRASS_THREADS=1` disables
//! threading entirely (no pool, no spawn — the exact serial loop).
//!
//! # Example
//!
//! ```
//! // Squares of 0..8, computed on however many threads the host has.
//! let sq = ingrass_par::par_map_range(8, |i| (i * i) as u64);
//! assert_eq!(sq, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

#![deny(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};

/// Environment variable overriding the worker thread count.
pub const THREADS_ENV: &str = "INGRASS_THREADS";

/// The parallel width to use: `INGRASS_THREADS` if set to an integer ≥ 1,
/// otherwise the host's available parallelism (1 if that is unknown).
///
/// Unparsable or zero values of the variable are ignored (falling back to
/// the host default) rather than panicking: the variable is an operator
/// knob, not an API.
pub fn num_threads() -> usize {
    if let Ok(raw) = std::env::var(THREADS_ENV) {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Derives an independent RNG seed for stream `stream` of a master seed.
///
/// SplitMix64 finalizer over `master ^ (stream + φ·(stream+1))` — streams of
/// the same master are decorrelated, and the mapping is stable across
/// platforms (it feeds the deterministic vendored `rand::StdRng`). Giving
/// each parallel probe its *own* seeded RNG (instead of sharing one stream)
/// is what makes parallel and serial execution bit-for-bit identical.
pub fn derive_seed(master: u64, stream: u64) -> u64 {
    let mut z = master.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream.wrapping_add(1)))
        ^ stream.rotate_left(32);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps `f` over `0..n` on `threads` workers; `out[i] = f(i)` exactly as the
/// serial loop would produce it.
///
/// `threads <= 1`, `n <= 1`, or a single available worker short-circuits to
/// the plain serial loop (no spawn). Otherwise `min(threads, n)` workers
/// pull indices from an atomic cursor (dynamic load balancing — CG solves
/// converge in wildly different iteration counts) and hand their
/// `(index, value)` pairs back at the join for in-order placement.
///
/// # Panics
/// Re-panics if `f` panics on any index (after all workers have stopped).
pub fn par_map_range_with<U, F>(threads: usize, n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let width = threads.min(n).max(1);
    if width == 1 {
        return (0..n).map(f).collect();
    }

    let cursor = AtomicUsize::new(0);
    let mut out: Vec<Option<U>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..width)
            .map(|_| {
                let (cursor, f) = (&cursor, &f);
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return done;
                        }
                        done.push((i, f(i)));
                    }
                })
            })
            .collect();
        // The caller sleeps until each worker is done instead of being
        // woken once per item: those wake-ups compete with the workers
        // for a core, which on a 2-CPU host cost a small map such as the
        // shard fence about 20 µs per call. A worker's panic is re-raised
        // here; the scope joins the other workers before it propagates.
        for worker in workers {
            match worker.join() {
                Ok(done) => {
                    for (i, v) in done {
                        out[i] = Some(v);
                    }
                }
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    out.into_iter()
        .map(|v| v.expect("every index was computed exactly once"))
        .collect()
}

/// [`par_map_range_with`] at the ambient [`num_threads`] width.
pub fn par_map_range<U, F>(n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    par_map_range_with(num_threads(), n, f)
}

/// Maps `f` over a slice on `threads` workers, preserving order.
pub fn par_map_with<T, U, F>(threads: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_range_with(threads, items.len(), |i| f(&items[i]))
}

/// Maps `f` over a mutable slice on `threads` workers, preserving order:
/// each item is lent to exactly one worker at a time.
///
/// For work whose state is built on the calling thread — buffers,
/// workspaces — and filled in by the workers.
pub fn par_map_mut_with<T, U, F>(threads: usize, items: &mut [T], f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(&mut T) -> U + Sync,
{
    let cells: Vec<std::sync::Mutex<&mut T>> =
        items.iter_mut().map(std::sync::Mutex::new).collect();
    par_map_with(threads, &cells, |cell| {
        // Each index is visited once, so the lock is never contended, and
        // a panic in `f` re-panics on the caller before any cell is reused.
        let mut item = cell.lock().expect("each item is mapped once");
        f(&mut item)
    })
}

/// Maps `f` over a slice at the ambient [`num_threads`] width, preserving
/// order.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_with(num_threads(), items, f)
}

/// Splits `0..len` into `min(parts, len)` contiguous ranges whose lengths
/// differ by at most one (the longer ones first) — the block partition a
/// solve drain, the Krylov probe smoothing and the stitched Schur columns
/// hand to their workers, so each worker advances one contiguous run of
/// columns together.
///
/// `parts == 0` is treated as 1; `len == 0` yields no ranges.
///
/// ```
/// assert_eq!(ingrass_par::split_even(7, 3), vec![0..3, 3..5, 5..7]);
/// assert_eq!(ingrass_par::split_even(2, 4), vec![0..1, 1..2]);
/// ```
pub fn split_even(len: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let parts = parts.clamp(1, len);
    let (base, extra) = (len / parts, len % parts);
    let mut start = 0;
    (0..parts)
        .map(|i| {
            let end = start + base + usize::from(i < extra);
            let range = start..end;
            start = end;
            range
        })
        .collect()
}

/// Below this many items, [`par_map_auto`] stays serial: its call sites do
/// microseconds of work per item (an O(dim) embedding distance, an
/// O(levels) hierarchy read), and spawning a worker costs tens of
/// microseconds — fanning out a small cheap map is a net loss.
pub const PAR_AUTO_THRESHOLD: usize = 8192;

/// [`par_map`] for *cheap* per-item maps: serial below
/// [`PAR_AUTO_THRESHOLD`] items, the ambient [`num_threads`] width above.
/// One shared threshold keeps every such call site's dispatch policy in
/// sync. The output is identical either way.
///
/// Above the threshold each worker maps one contiguous run of items
/// ([`split_even`]) instead of pulling items one at a time from a shared
/// cursor: for items this cheap, the cursor's contended atomic would cost
/// more than the map itself.
pub fn par_map_auto<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    if items.len() < PAR_AUTO_THRESHOLD {
        items.iter().map(f).collect()
    } else {
        let threads = num_threads();
        let runs = split_even(items.len(), threads);
        par_map_with(threads, &runs, |run| {
            items[run.clone()].iter().map(&f).collect::<Vec<U>>()
        })
        .into_iter()
        .flatten()
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// `INGRASS_THREADS` is process-global, and concurrent `setenv`/`getenv`
    /// is undefined behavior on glibc. Every test that *writes* the variable
    /// AND every test that *reads* it (anything going through the ambient
    /// [`num_threads`] width) must hold this lock, so the cargo test
    /// harness's own threading cannot interleave a write with a read.
    static ENV_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn par_map_matches_serial_at_every_width() {
        let serial: Vec<u64> = (0..257)
            .map(|i| (i as u64).wrapping_mul(2654435761))
            .collect();
        for threads in [1, 2, 3, 4, 8, 300] {
            let par = par_map_range_with(threads, 257, |i| (i as u64).wrapping_mul(2654435761));
            assert_eq!(par, serial, "width {threads} diverged");
        }
    }

    #[test]
    fn auto_map_matches_serial_on_both_sides_of_the_threshold() {
        let _guard = ENV_LOCK.lock().unwrap();
        for len in [
            0,
            5,
            PAR_AUTO_THRESHOLD - 1,
            PAR_AUTO_THRESHOLD,
            3 * PAR_AUTO_THRESHOLD + 7,
        ] {
            let items: Vec<u64> = (0..len as u64).collect();
            let f = |v: &u64| v.wrapping_mul(2654435761);
            let serial: Vec<u64> = items.iter().map(f).collect();
            assert_eq!(par_map_auto(&items, f), serial, "{len} items");
        }
    }

    #[test]
    fn zero_sized_input_yields_empty_vec() {
        let v: Vec<u32> = par_map_range_with(8, 0, |_| unreachable!("no items"));
        assert!(v.is_empty());
        let empty: [u8; 0] = [];
        let v: Vec<u32> = par_map_with(4, &empty, |_| unreachable!("no items"));
        assert!(v.is_empty());
    }

    #[test]
    fn split_even_covers_the_range_in_near_equal_runs() {
        for len in 0..40 {
            for parts in 0..10 {
                let ranges = split_even(len, parts);
                assert_eq!(ranges.len(), parts.max(1).min(len));
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next, "contiguous");
                    assert!(!r.is_empty());
                    next = r.end;
                }
                assert_eq!(next, len, "covers 0..{len}");
                let lens: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
                assert!(lens.windows(2).all(|w| w[0] >= w[1] && w[0] - w[1] <= 1));
            }
        }
    }

    #[test]
    fn mutable_map_lends_each_item_once() {
        for threads in [1, 2, 4] {
            let mut items: Vec<u64> = (0..37).collect();
            let out = par_map_mut_with(threads, &mut items, |v| {
                *v *= 3;
                *v + 1
            });
            assert_eq!(items, (0..37).map(|v| 3 * v).collect::<Vec<u64>>());
            assert_eq!(out, (0..37).map(|v| 3 * v + 1).collect::<Vec<u64>>());
        }
    }

    #[test]
    fn slice_map_borrows_items() {
        let words = ["a", "bb", "ccc"];
        assert_eq!(par_map_with(2, &words, |w| w.len()), vec![1, 2, 3]);
    }

    #[test]
    fn panic_in_one_item_propagates() {
        let result = std::panic::catch_unwind(|| {
            par_map_range_with(4, 64, |i| {
                if i == 13 {
                    panic!("unlucky index");
                }
                i
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn derive_seed_decorrelates_streams() {
        let s: Vec<u64> = (0..64).map(|i| derive_seed(42, i)).collect();
        let mut uniq = s.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), s.len(), "seed collision across streams");
        // Different masters give different streams.
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
        // Stable mapping (guards against accidental reshuffles breaking
        // recorded baselines).
        assert_eq!(derive_seed(42, 0), derive_seed(42, 0));
    }

    #[test]
    fn env_override_forces_single_thread() {
        let _guard = ENV_LOCK.lock().unwrap();
        std::env::set_var(THREADS_ENV, "1");
        assert_eq!(num_threads(), 1);
        std::env::set_var(THREADS_ENV, "6");
        assert_eq!(num_threads(), 6);
        std::env::remove_var(THREADS_ENV);
    }

    #[test]
    fn env_garbage_falls_back_to_host_width() {
        let _guard = ENV_LOCK.lock().unwrap();
        let host = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        for bad in ["0", "-3", "lots", ""] {
            std::env::set_var(THREADS_ENV, bad);
            assert_eq!(num_threads(), host, "value {bad:?} must be ignored");
        }
        std::env::remove_var(THREADS_ENV);
    }
}
