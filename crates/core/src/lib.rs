//! Minimal-delay degree-constrained overlay multicast tree construction.
//!
//! This crate implements the algorithms of *Overlay Multicast Trees of
//! Minimal Delay* (Riabov, Liu, Zhang):
//!
//! * [`Bisection`] / [`Bisection3`] — the constant-factor approximation
//!   of Section II (factor 5 at out-degree 4, factor 9 at out-degree 2,
//!   Theorem 1), in two and three dimensions;
//! * [`PolarGridBuilder`] — Algorithm `Polar_Grid` of Section III, the
//!   asymptotically optimal construction (Theorem 2), including the
//!   out-degree-2 wiring of Section IV-A and arbitrary convex regions /
//!   source placements of Section IV-C;
//! * [`bounds`] — the paper's analytic bounds: equations (1), (2), (5),
//!   (7), and the occupancy Lemmas 1–2;
//! * [`SphereGridBuilder`] — the three-dimensional version of
//!   Section IV-B evaluated in Figure 8 (out-degree 10, or 2);
//! * [`NdGridBuilder`] — the general-dimension variant Section IV-B
//!   sketches, made exact with sine-power quantile splits;
//! * [`MinDiameterBuilder`] — the minimum-diameter variant of the
//!   conclusion, rooting the grid at the smallest-enclosing-ball center;
//! * [`DynamicOverlay`] — join/leave maintenance with amortized rebuilds,
//!   simulating the decentralized version the conclusion calls for;
//! * [`HeteroGridBuilder`] — per-host fan-out capacities (relays carry the
//!   grid; constrained hosts attach greedily);
//! * [`PolarGrid2`] / [`SphereGrid3`] — the equal-measure grids
//!   themselves, exposed for inspection and tests.
//!
//! # Paper-to-code map
//!
//! | Paper artifact | Implementation | Certified by |
//! |---|---|---|
//! | Bisection algorithm (Section II, Fig. 1) | [`Bisection`], [`Bisection3`] | `exact::theorem1_factors_hold_empirically`, `tests/paper_claims.rs` |
//! | Theorem 1 (factors 5 / 9) | [`bounds::bisection_bound_deg4`] / [`bounds::bisection_bound_deg2`] | path bounds asserted per-tree in `bisect2d` tests |
//! | Polar grid construction (Section III-A, Fig. 2) | [`PolarGrid2`] | equal-area, nesting and locate tests in `grid2` |
//! | Property-3 `k` selection | `kselect` (internal) | exhaustive brute-force comparison in `kselect::brute_force_tests` |
//! | Lemmas 1–2 | [`bounds::empty_bucket_probability_bound`] | analytic tests + empirical occupancy test in `tests/paper_claims.rs` |
//! | Core + in-cell wiring (Sections III-B/C, IV-A) | [`PolarGridBuilder`] | builder-enforced degree budgets; equation-(7) bound asserted on every build in property tests |
//! | Theorem 2 (asymptotic optimality) | [`PolarGridBuilder`] | convergence tests (2-D, 3-D, n-D) |
//! | Section IV-B (3-D / higher dimensions) | [`SphereGridBuilder`], [`NdGridBuilder`] | equal-volume cell tests in `grid3`, quantile-uniformity tests in `ndim` |
//! | Section IV-C (convex regions) | active-cell rule in `kselect` | convex-region suites in `polar_grid` tests and `omt-experiments::convex` |
//! | Conclusion: minimum diameter | [`MinDiameterBuilder`] | diameter-ratio convergence tests |
//! | Conclusion: decentralized version | [`DynamicOverlay`] | every-event fuzz in `tests/churn_fuzz.rs`, pinned traces in `tests/churn_goldens.rs` |
//!
//! # Examples
//!
//! ```
//! use omt_core::PolarGridBuilder;
//! use omt_geom::{Disk, Point2, Region};
//! use omt_rng::rngs::SmallRng;
//! use omt_rng::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = SmallRng::seed_from_u64(11);
//! let hosts = Disk::unit().sample_n(&mut rng, 10_000);
//! let (tree, report) = PolarGridBuilder::new()
//!     .max_out_degree(6)
//!     .build_with_report(Point2::ORIGIN, &hosts)?;
//! assert!(tree.max_out_degree() <= 6);
//! // Delay sits between the trivial lower bound and equation (7).
//! assert!(report.lower_bound <= report.delay && report.delay <= report.bound);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod bisect2d;
mod bisect3d;
pub mod bounds;
mod cellview;
mod dynamic;
mod error;
mod fanout;
mod grid2;
mod grid3;
mod hetero;
mod kselect;
mod min_diameter;
mod ndim;
mod polar_grid;
mod sink;
mod sphere_grid;

pub use bisect2d::Bisection;
pub use bisect3d::Bisection3;
pub use cellview::{CellId, CellView};
pub use dynamic::{DynamicOverlay, HostId};
pub use error::BuildError;
pub use grid2::PolarGrid2;
pub use grid3::SphereGrid3;
pub use hetero::{HeteroGridBuilder, HeteroReport};
pub use min_diameter::{MinDiameterBuilder, MinDiameterReport};
pub use ndim::{NdGridBuilder, NdGridReport};
pub use polar_grid::{PolarGridBuilder, PolarGridReport, RepStrategy};
pub use sphere_grid::SphereGridBuilder;
