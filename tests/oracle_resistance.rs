//! Oracle suite: the Krylov effective-resistance estimator against exact
//! dense-pseudoinverse values on graphs of ≤ 200 nodes, and the exact
//! oracle against closed forms and its own CG backend.
//!
//! The Krylov embedding (the paper's solve-free scheme) is held to the
//! contract it actually provides: it is a *ranking* estimator. Its raw
//! values carry a large systematic scale-off, but after one robust
//! rescaling the node-pair resistances track the exact ones, and their
//! ordering (near pairs vs far pairs) is what the LRD decomposition
//! consumes — pinned as scale-corrected relative error plus Spearman rank
//! correlation over sampled pairs.
//!
//! Tolerances carry ≈ 1.5–2× headroom over the worst observation across
//! seeds 42 / 7 / 1337 (`INGRASS_TEST_SEED` varies them in CI), so an
//! estimator regression fails loudly while seed noise does not.

use ingrass_repro::prelude::*;
use ingrass_repro::test_seed;

/// The ≤ 200-node oracle fixtures: two mesh-likes, a scale-free graph, and
/// a cycle with a closed-form resistance.
fn fixtures(seed: u64) -> Vec<(&'static str, Graph, GraphClass)> {
    let cyc: Vec<(usize, usize, f64)> = (0..60).map(|i| (i, (i + 1) % 60, 1.0)).collect();
    vec![
        (
            "grid10",
            grid_2d(10, 10, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, seed),
            GraphClass::Mesh,
        ),
        (
            "delaunay150",
            delaunay(&DelaunayConfig {
                points: 150,
                seed,
                ..Default::default()
            })
            .expect("delaunay generator"),
            GraphClass::Mesh,
        ),
        (
            "ba180",
            barabasi_albert(&BaConfig {
                nodes: 180,
                attach: 3,
                seed,
                ..Default::default()
            }),
            GraphClass::ScaleFree,
        ),
        (
            "cycle60",
            Graph::from_edges(60, &cyc).expect("cycle"),
            GraphClass::Mesh,
        ),
    ]
}

/// Tolerance class: the Krylov ranking contract is weaker on scale-free
/// graphs (hub-dominated spectra), so those get looser pins.
#[derive(Clone, Copy, PartialEq)]
enum GraphClass {
    Mesh,
    ScaleFree,
}

fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty());
    v.sort_by(|a, b| a.total_cmp(b));
    v[v.len() / 2]
}

fn max(v: &[f64]) -> f64 {
    v.iter().fold(0.0f64, |m, &x| m.max(x))
}

fn spearman(a: &[f64], b: &[f64]) -> f64 {
    let rank = |v: &[f64]| {
        let mut idx: Vec<usize> = (0..v.len()).collect();
        idx.sort_by(|&i, &j| v[i].total_cmp(&v[j]));
        let mut r = vec![0.0; v.len()];
        for (k, &i) in idx.iter().enumerate() {
            r[i] = k as f64;
        }
        r
    };
    let (ra, rb) = (rank(a), rank(b));
    let n = a.len() as f64;
    let (ma, mb) = (ra.iter().sum::<f64>() / n, rb.iter().sum::<f64>() / n);
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for i in 0..a.len() {
        cov += (ra[i] - ma) * (rb[i] - mb);
        va += (ra[i] - ma).powi(2);
        vb += (rb[i] - mb).powi(2);
    }
    cov / (va.sqrt() * vb.sqrt()).max(f64::MIN_POSITIVE)
}

/// Deterministic node-pair sample (splitmix-style LCG so the suite has no
/// dependence on the estimators' own RNG streams).
fn sample_pairs(n: usize, seed: u64, count: usize) -> Vec<(usize, usize)> {
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (s >> 33) as usize
    };
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let (u, v) = (next() % n, next() % n);
        if u != v {
            out.push((u, v));
        }
    }
    out
}

#[test]
fn krylov_pair_resistances_track_exact_after_rescaling() {
    let seed = test_seed();
    for (name, g, class) in fixtures(seed) {
        let exact = ExactResistance::dense(&g).expect("dense pseudoinverse");
        let kr =
            KrylovEmbedder::build(&g, &KrylovConfig::default().with_seed(seed)).expect("krylov");
        let pairs = sample_pairs(g.num_nodes(), seed ^ 0x0a11, 300);
        let truth: Vec<f64> = pairs
            .iter()
            .map(|&(u, v)| exact.resistance(u.into(), v.into()))
            .collect();
        let est: Vec<f64> = pairs
            .iter()
            .map(|&(u, v)| kr.resistance(u.into(), v.into()))
            .collect();
        for (i, r) in est.iter().enumerate() {
            assert!(r.is_finite() && *r > 0.0, "{name} pair {i}: estimate {r}");
        }
        // One robust scale (median of exact/estimate) absorbs the
        // estimator's systematic offset; what must survive is the shape.
        let c = median(truth.iter().zip(&est).map(|(t, e)| t / e).collect());
        let errs: Vec<f64> = est
            .iter()
            .zip(&truth)
            .map(|(e, t)| (c * e - t).abs() / t)
            .collect();
        let (med, mx) = (median(errs.clone()), max(&errs));
        let rho = spearman(&est, &truth);
        // Observed across seeds 42/7/1337 — mesh: med ≤ 0.27, max ≤ 1.08,
        // ρ ≥ 0.53; scale-free: med ≤ 0.36, max ≤ 1.70, ρ ≥ 0.30.
        let (med_tol, max_tol, rho_min) = match class {
            GraphClass::Mesh => (0.45, 1.80, 0.40),
            GraphClass::ScaleFree => (0.60, 2.50, 0.15),
        };
        assert!(
            med < med_tol,
            "{name}: Krylov scaled median error {med:.3} ≥ {med_tol}"
        );
        assert!(
            mx < max_tol,
            "{name}: Krylov scaled max error {mx:.3} ≥ {max_tol}"
        );
        assert!(
            rho > rho_min,
            "{name}: Krylov rank correlation {rho:.3} ≤ {rho_min}"
        );
    }
}

#[test]
fn exact_oracle_reproduces_closed_forms() {
    // Anchor the oracle itself: cycle resistance R(0,k) = k(n−k)/n and
    // series path resistance, in exact closed form.
    let n = 60;
    let cyc: Vec<(usize, usize, f64)> = (0..n).map(|i| (i, (i + 1) % n, 1.0)).collect();
    let g = Graph::from_edges(n, &cyc).unwrap();
    let exact = ExactResistance::dense(&g).unwrap();
    for k in [1, 7, n / 2] {
        let expect = (k * (n - k)) as f64 / n as f64;
        let got = exact.resistance(0.into(), k.into());
        assert!(
            (got - expect).abs() < 1e-8,
            "cycle k={k}: {got} vs {expect}"
        );
    }
    let path: Vec<(usize, usize, f64)> = (0..9).map(|i| (i, i + 1, 2.0)).collect();
    let p = Graph::from_edges(10, &path).unwrap();
    let exact = ExactResistance::dense(&p).unwrap();
    assert!((exact.resistance(0.into(), 9.into()) - 4.5).abs() < 1e-9);
}

#[test]
fn cg_exact_backend_agrees_with_dense_on_oracle_fixtures() {
    let seed = test_seed();
    for (name, g, _) in fixtures(seed) {
        let dense = ExactResistance::dense(&g).expect("dense");
        let cg = ExactResistance::via_cg(&g).expect("cg backend");
        for &(u, v) in sample_pairs(g.num_nodes(), seed ^ 0xc6_u64, 25).iter() {
            let a = dense.resistance(u.into(), v.into());
            let b = cg.resistance(u.into(), v.into());
            assert!(
                (a - b).abs() < 1e-6 * (1.0 + a),
                "{name} ({u},{v}): dense {a} vs cg {b}"
            );
        }
    }
}
