//! The paper's 14-case benchmark suite, backed by the synthetic generators.

use crate::delaunay::{delaunay, DelaunayConfig, PointDistribution};
use crate::grid::{power_grid, PowerGridConfig};
use crate::mesh::{
    airfoil_mesh, ocean_mesh, sphere_mesh, AirfoilConfig, OceanConfig, SphereConfig,
};
use ingrass_graph::Graph;

/// One row of the paper's benchmark tables (Tables I/II), mapped onto the
/// synthetic generator of the same structural class.
///
/// `build(scale, seed)` produces a graph with roughly
/// `paper_nodes() × scale` nodes; `scale = 1.0` reproduces paper-size
/// graphs (millions of nodes — release builds only), the benchmark
/// harness defaults to `scale = 1/80`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TestCase {
    /// `G3_circuit` — 1.5 M-node power grid.
    G3Circuit,
    /// `G2_circuit` — 150 k-node power grid.
    G2Circuit,
    /// `fe_4elt2` — 11 k-node airfoil FE mesh.
    Fe4elt2,
    /// `fe_ocean` — 143 k-node ocean FE mesh.
    FeOcean,
    /// `fe_sphere` — 16 k-node sphere FE mesh.
    FeSphere,
    /// `delaunay_n18` — 2¹⁸ random points.
    DelaunayN18,
    /// `delaunay_n19` — 2¹⁹ random points.
    DelaunayN19,
    /// `delaunay_n20` — 2²⁰ random points.
    DelaunayN20,
    /// `delaunay_n21` — 2²¹ random points.
    DelaunayN21,
    /// `delaunay_n22` — 2²² random points.
    DelaunayN22,
    /// `M6` — 3.5 M-node wing mesh.
    M6,
    /// `333SP` — 3.7 M-node 2-D FE mesh.
    Sp333,
    /// `AS365` — 3.8 M-node 2-D FE mesh.
    As365,
    /// `NACA015` — 1 M-node airfoil mesh.
    Naca15,
}

/// All 14 cases in the order of the paper's Table I.
pub fn paper_suite() -> Vec<TestCase> {
    use TestCase::*;
    vec![
        G3Circuit,
        G2Circuit,
        Fe4elt2,
        FeOcean,
        FeSphere,
        DelaunayN18,
        DelaunayN19,
        DelaunayN20,
        DelaunayN21,
        DelaunayN22,
        M6,
        Sp333,
        As365,
        Naca15,
    ]
}

impl TestCase {
    /// The paper's name for this case.
    pub fn name(self) -> &'static str {
        match self {
            TestCase::G3Circuit => "G3_circuit",
            TestCase::G2Circuit => "G2_circuit",
            TestCase::Fe4elt2 => "fe_4elt2",
            TestCase::FeOcean => "fe_ocean",
            TestCase::FeSphere => "fe_sphere",
            TestCase::DelaunayN18 => "delaunay_n18",
            TestCase::DelaunayN19 => "delaunay_n19",
            TestCase::DelaunayN20 => "delaunay_n20",
            TestCase::DelaunayN21 => "delaunay_n21",
            TestCase::DelaunayN22 => "delaunay_n22",
            TestCase::M6 => "M6",
            TestCase::Sp333 => "333SP",
            TestCase::As365 => "AS365",
            TestCase::Naca15 => "NACA15",
        }
    }

    /// `|V|` of the original SuiteSparse matrix (paper Table I).
    pub fn paper_nodes(self) -> usize {
        match self {
            TestCase::G3Circuit => 1_500_000,
            TestCase::G2Circuit => 150_000,
            TestCase::Fe4elt2 => 11_000,
            TestCase::FeOcean => 140_000,
            TestCase::FeSphere => 16_000,
            TestCase::DelaunayN18 => 260_000,
            TestCase::DelaunayN19 => 520_000,
            TestCase::DelaunayN20 => 1_000_000,
            TestCase::DelaunayN21 => 2_100_000,
            TestCase::DelaunayN22 => 4_200_000,
            TestCase::M6 => 3_500_000,
            TestCase::Sp333 => 3_700_000,
            TestCase::As365 => 3_800_000,
            TestCase::Naca15 => 1_000_000,
        }
    }

    /// `|E|` of the original SuiteSparse matrix (paper Table I).
    pub fn paper_edges(self) -> usize {
        match self {
            TestCase::G3Circuit => 3_000_000,
            TestCase::G2Circuit => 290_000,
            TestCase::Fe4elt2 => 33_000,
            TestCase::FeOcean => 410_000,
            TestCase::FeSphere => 49_000,
            TestCase::DelaunayN18 => 650_000,
            TestCase::DelaunayN19 => 1_600_000,
            TestCase::DelaunayN20 => 3_100_000,
            TestCase::DelaunayN21 => 6_300_000,
            TestCase::DelaunayN22 => 13_000_000,
            TestCase::M6 => 11_000_000,
            TestCase::Sp333 => 11_000_000,
            TestCase::As365 => 11_000_000,
            TestCase::Naca15 => 3_100_000,
        }
    }

    /// GRASS runtime reported in paper Table I (seconds) — for the
    /// paper-vs-measured comparison the `table1` binary prints (its
    /// `paper_grass_s` column).
    pub fn paper_grass_seconds(self) -> f64 {
        match self {
            TestCase::G3Circuit => 18.7,
            TestCase::G2Circuit => 0.75,
            TestCase::Fe4elt2 => 0.053,
            TestCase::FeOcean => 1.12,
            TestCase::FeSphere => 0.08,
            TestCase::DelaunayN18 => 2.2,
            TestCase::DelaunayN19 => 6.2,
            TestCase::DelaunayN20 => 14.1,
            TestCase::DelaunayN21 => 28.5,
            TestCase::DelaunayN22 => 62.0,
            TestCase::M6 => 83.0,
            TestCase::Sp333 => 84.0,
            TestCase::As365 => 84.0,
            TestCase::Naca15 => 13.8,
        }
    }

    /// inGRASS setup time reported in paper Table I (seconds).
    pub fn paper_setup_seconds(self) -> f64 {
        match self {
            TestCase::G3Circuit => 13.7,
            TestCase::G2Circuit => 0.9,
            TestCase::Fe4elt2 => 0.06,
            TestCase::FeOcean => 1.01,
            TestCase::FeSphere => 0.17,
            TestCase::DelaunayN18 => 1.9,
            TestCase::DelaunayN19 => 4.0,
            TestCase::DelaunayN20 => 9.5,
            TestCase::DelaunayN21 => 19.0,
            TestCase::DelaunayN22 => 38.6,
            TestCase::M6 => 45.0,
            TestCase::Sp333 => 46.0,
            TestCase::As365 => 48.0,
            TestCase::Naca15 => 8.0,
        }
    }

    /// Speedup `GRASS-T / inGRASS-T` reported in paper Table II.
    pub fn paper_speedup(self) -> f64 {
        match self {
            TestCase::G3Circuit => 115.0,
            TestCase::G2Circuit => 71.0,
            TestCase::Fe4elt2 => 70.0,
            TestCase::FeOcean => 91.0,
            TestCase::FeSphere => 93.0,
            TestCase::DelaunayN18 => 122.0,
            TestCase::DelaunayN19 => 159.0,
            TestCase::DelaunayN20 => 164.0,
            TestCase::DelaunayN21 => 142.0,
            TestCase::DelaunayN22 => 151.0,
            TestCase::M6 => 218.0,
            TestCase::Sp333 => 210.0,
            TestCase::As365 => 197.0,
            TestCase::Naca15 => 145.0,
        }
    }

    /// Builds the synthetic stand-in graph with about
    /// `paper_nodes() × scale` nodes.
    ///
    /// # Panics
    /// Panics if `scale` is not positive and finite.
    pub fn build(self, scale: f64, seed: u64) -> Graph {
        assert!(scale > 0.0 && scale.is_finite(), "scale must be positive");
        let target = ((self.paper_nodes() as f64 * scale) as usize).max(256);
        match self {
            TestCase::G3Circuit | TestCase::G2Circuit => {
                let layers = 2usize;
                let side = ((target / layers) as f64).sqrt().ceil() as usize;
                power_grid(&PowerGridConfig {
                    width: side.max(4),
                    height: side.max(4),
                    layers,
                    seed,
                    ..Default::default()
                })
            }
            TestCase::Fe4elt2 | TestCase::Naca15 => airfoil_mesh(&AirfoilConfig {
                points: target,
                thickness: 0.15,
                seed,
            })
            .expect("airfoil generator produces valid graphs"),
            TestCase::FeOcean => ocean_mesh(&OceanConfig {
                points: target,
                islands: 6,
                seed,
            })
            .expect("ocean generator produces valid graphs"),
            TestCase::FeSphere => {
                let rings = ((target / 2) as f64).sqrt().ceil() as usize;
                sphere_mesh(&SphereConfig {
                    rings: rings.max(4),
                    segments: (2 * rings).max(6),
                    seed,
                })
            }
            TestCase::DelaunayN18
            | TestCase::DelaunayN19
            | TestCase::DelaunayN20
            | TestCase::DelaunayN21
            | TestCase::DelaunayN22 => delaunay(&DelaunayConfig {
                points: target,
                distribution: PointDistribution::Uniform,
                seed,
                ..Default::default()
            })
            .expect("delaunay generator produces valid graphs"),
            TestCase::M6 | TestCase::Sp333 | TestCase::As365 => delaunay(&DelaunayConfig {
                points: target,
                distribution: PointDistribution::CenterGraded,
                seed,
                ..Default::default()
            })
            .expect("delaunay generator produces valid graphs"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ingrass_graph::is_connected;

    #[test]
    fn suite_has_fourteen_cases_in_table_order() {
        let suite = paper_suite();
        assert_eq!(suite.len(), 14);
        assert_eq!(suite[0].name(), "G3_circuit");
        assert_eq!(suite[13].name(), "NACA15");
    }

    #[test]
    fn all_cases_build_connected_graphs_at_small_scale() {
        for case in paper_suite() {
            // Tiny scale keeps this test fast; every generator must still
            // deliver a connected graph of roughly the right size.
            let g = case.build(0.002, 42);
            assert!(is_connected(&g), "{} disconnected", case.name());
            assert!(g.num_nodes() >= 200, "{} too small", case.name());
            let ratio = g.num_edges() as f64 / g.num_nodes() as f64;
            let paper_ratio = case.paper_edges() as f64 / case.paper_nodes() as f64;
            assert!(
                (ratio - paper_ratio).abs() / paper_ratio < 0.6,
                "{}: ratio {ratio:.2} vs paper {paper_ratio:.2}",
                case.name()
            );
        }
    }

    #[test]
    fn scaled_sizes_track_targets() {
        let g = TestCase::FeSphere.build(0.05, 1);
        let target = (16_000.0f64 * 0.05) as usize;
        let n = g.num_nodes();
        assert!(
            n as f64 > 0.5 * target as f64 && (n as f64) < 2.0 * target as f64,
            "n={n} target={target}"
        );
    }

    #[test]
    fn paper_metadata_is_positive() {
        for case in paper_suite() {
            assert!(case.paper_nodes() > 0);
            assert!(case.paper_edges() > case.paper_nodes());
            assert!(case.paper_grass_seconds() > 0.0);
            assert!(case.paper_setup_seconds() > 0.0);
            assert!(case.paper_speedup() > 1.0);
        }
    }
}
