//! Convex regions: containment tests and uniform sampling.
//!
//! The asymptotic-optimality result of the paper holds for points uniformly
//! distributed in any convex region (Section IV-C). This module provides the
//! regions used across the experiment suite — disks, balls, boxes, convex
//! polygons, and annuli (the last one deliberately *non*-convex, as a
//! counterexample generator for tests).

use omt_rng::Rng;

use crate::point::{Point, Point2, Point3};
use crate::sample;

/// A region of `D`-dimensional space that supports containment tests and
/// uniform sampling.
///
/// The trait is object-safe: samplers take `&mut dyn Rng` so heterogeneous
/// collections of regions can share one RNG.
pub trait Region<const D: usize> {
    /// Whether `p` lies inside the region (boundary inclusion is
    /// implementation-defined and irrelevant for continuous sampling).
    fn contains(&self, p: &Point<D>) -> bool;

    /// Draws a point uniformly at random from the region.
    fn sample(&self, rng: &mut dyn Rng) -> Point<D>;

    /// A point inside the region suitable as a default source placement.
    fn reference_point(&self) -> Point<D>;

    /// Radius of a ball centered at [`Region::reference_point`] that contains
    /// the region. Used for sanity checks and bound scaling; it need not be
    /// tight, but implementations here return the exact circumradius.
    fn circumradius(&self) -> f64;

    /// Draws `n` points uniformly at random.
    fn sample_n(&self, rng: &mut dyn Rng, n: usize) -> Vec<Point<D>> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

/// The ball `{p : ‖p - center‖ ≤ radius}` in `D` dimensions.
///
/// # Examples
///
/// ```
/// use omt_geom::{Ball, Point2, Region};
/// use omt_rng::rngs::SmallRng;
/// use omt_rng::SeedableRng;
///
/// let disk = Ball::<2>::unit();
/// let mut rng = SmallRng::seed_from_u64(7);
/// let pts = disk.sample_n(&mut rng, 100);
/// assert!(pts.iter().all(|p| disk.contains(p)));
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Ball<const D: usize> {
    center: Point<D>,
    radius: f64,
}

/// The unit disk — the paper's primary experimental region.
pub type Disk = Ball<2>;

impl<const D: usize> Ball<D> {
    /// Creates a ball.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is negative or not finite.
    pub fn new(center: Point<D>, radius: f64) -> Self {
        assert!(radius >= 0.0 && radius.is_finite(), "bad radius {radius}");
        Self { center, radius }
    }

    /// The unit ball centered at the origin.
    pub fn unit() -> Self {
        Self {
            center: Point::ORIGIN,
            radius: 1.0,
        }
    }

    /// The center point.
    pub const fn center(&self) -> Point<D> {
        self.center
    }

    /// The radius.
    pub const fn radius(&self) -> f64 {
        self.radius
    }
}

impl<const D: usize> Region<D> for Ball<D> {
    fn contains(&self, p: &Point<D>) -> bool {
        p.distance_squared(&self.center) <= self.radius * self.radius
    }

    fn sample(&self, rng: &mut dyn Rng) -> Point<D> {
        self.center + sample::uniform_in_ball::<D>(rng, self.radius)
    }

    fn reference_point(&self) -> Point<D> {
        self.center
    }

    fn circumradius(&self) -> f64 {
        self.radius
    }
}

/// An axis-aligned box `[min, max]` in `D` dimensions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BoxRegion<const D: usize> {
    min: Point<D>,
    max: Point<D>,
}

impl<const D: usize> BoxRegion<D> {
    /// Creates a box from its minimum and maximum corners.
    ///
    /// # Panics
    ///
    /// Panics if `min[i] > max[i]` on any axis.
    pub fn new(min: Point<D>, max: Point<D>) -> Self {
        for i in 0..D {
            assert!(min[i] <= max[i], "inverted box extent on axis {i}");
        }
        Self { min, max }
    }

    /// The unit square/cube `[0, 1]^D`.
    pub fn unit() -> Self {
        Self {
            min: Point::ORIGIN,
            max: Point::new([1.0; D]),
        }
    }

    /// Minimum corner.
    pub const fn min(&self) -> Point<D> {
        self.min
    }

    /// Maximum corner.
    pub const fn max(&self) -> Point<D> {
        self.max
    }
}

impl<const D: usize> Region<D> for BoxRegion<D> {
    fn contains(&self, p: &Point<D>) -> bool {
        (0..D).all(|i| self.min[i] <= p[i] && p[i] <= self.max[i])
    }

    fn sample(&self, rng: &mut dyn Rng) -> Point<D> {
        sample::uniform_in_box(rng, &self.min, &self.max)
    }

    fn reference_point(&self) -> Point<D> {
        self.min.midpoint(&self.max)
    }

    fn circumradius(&self) -> f64 {
        self.min.distance(&self.max) * 0.5
    }
}

/// A convex polygon in the plane, given by vertices in counter-clockwise
/// order. Sampling uses an area-weighted fan triangulation from the first
/// vertex (exact for convex polygons).
#[derive(Clone, Debug, PartialEq)]
pub struct ConvexPolygon {
    vertices: Vec<Point2>,
    /// Cumulative triangle areas for the fan (for sampling).
    cumulative_areas: Vec<f64>,
    centroid: Point2,
}

impl ConvexPolygon {
    /// Creates a convex polygon from counter-clockwise vertices.
    ///
    /// # Errors
    ///
    /// Returns an error message if fewer than 3 vertices are given, the
    /// vertices are not in counter-clockwise convex position, or the polygon
    /// is degenerate (zero area).
    pub fn new(vertices: Vec<Point2>) -> Result<Self, String> {
        if vertices.len() < 3 {
            return Err(format!(
                "a polygon needs at least 3 vertices, got {}",
                vertices.len()
            ));
        }
        let n = vertices.len();
        for i in 0..n {
            let a = &vertices[i];
            let b = &vertices[(i + 1) % n];
            let c = &vertices[(i + 2) % n];
            if sample::triangle_signed_area(a, b, c) <= 0.0 {
                return Err(format!(
                    "vertices are not in counter-clockwise convex position at index {i}"
                ));
            }
        }
        let mut cumulative_areas = Vec::with_capacity(n - 2);
        let mut total = 0.0;
        let mut cx = 0.0;
        let mut cy = 0.0;
        for i in 1..n - 1 {
            let area = sample::triangle_signed_area(&vertices[0], &vertices[i], &vertices[i + 1]);
            total += area;
            let centroid = (vertices[0] + vertices[i] + vertices[i + 1]) / 3.0;
            cx += centroid.x() * area;
            cy += centroid.y() * area;
            cumulative_areas.push(total);
        }
        if total <= 0.0 {
            return Err("polygon has zero area".to_string());
        }
        Ok(Self {
            vertices,
            cumulative_areas,
            centroid: Point2::new([cx / total, cy / total]),
        })
    }

    /// A regular `n`-gon of the given circumradius centered at `center`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 3` or `radius <= 0`.
    pub fn regular(n: usize, center: Point2, radius: f64) -> Self {
        assert!(n >= 3, "a polygon needs at least 3 vertices");
        assert!(radius > 0.0, "radius must be positive");
        let vertices = (0..n)
            .map(|i| {
                let t = i as f64 / n as f64 * core::f64::consts::TAU;
                center + Point2::new([radius * t.cos(), radius * t.sin()])
            })
            .collect();
        Self::new(vertices).expect("regular polygons are convex")
    }

    /// The vertices, counter-clockwise.
    pub fn vertices(&self) -> &[Point2] {
        &self.vertices
    }

    /// Total area.
    pub fn area(&self) -> f64 {
        *self
            .cumulative_areas
            .last()
            .expect("nonempty by construction")
    }
}

impl Region<2> for ConvexPolygon {
    fn contains(&self, p: &Point2) -> bool {
        let n = self.vertices.len();
        (0..n).all(|i| {
            let a = &self.vertices[i];
            let b = &self.vertices[(i + 1) % n];
            sample::triangle_signed_area(a, b, p) >= -1e-12
        })
    }

    fn sample(&self, rng: &mut dyn Rng) -> Point2 {
        use omt_rng::RngExt;
        let total = self.area();
        let t: f64 = rng.random_range(0.0..total);
        let idx = self
            .cumulative_areas
            .partition_point(|&acc| acc <= t)
            .min(self.cumulative_areas.len() - 1);
        sample::uniform_in_triangle(
            rng,
            &self.vertices[0],
            &self.vertices[idx + 1],
            &self.vertices[idx + 2],
        )
    }

    fn reference_point(&self) -> Point2 {
        self.centroid
    }

    fn circumradius(&self) -> f64 {
        self.vertices
            .iter()
            .map(|v| v.distance(&self.centroid))
            .fold(0.0, f64::max)
    }
}

/// The deepest-interior point (pole of inaccessibility) of a convex
/// polygon, to within `tolerance`: the center of the largest inscribed
/// circle, found by the polylabel-style best-first quadtree search. This
/// is the representative-placement mode the generalization workload uses
/// for arbitrary convex regions with off-center sources: the returned
/// point maximizes the clearance to the region boundary, so a source (or
/// cell representative) placed there keeps the grid's active area
/// balanced.
///
/// For a convex polygon the interior depth of a point is exactly the
/// minimum signed distance to the edge lines, which is 1-Lipschitz — so
/// `depth(center) + half_diagonal` upper-bounds the depth anywhere in a
/// square search cell, and cells whose bound cannot beat the incumbent
/// are pruned.
///
/// `tolerance` is the accepted depth shortfall of the returned point.
/// Polygons with two parallel binding edges (any true trapezoid) have a
/// *plateau* — a whole segment of maximal-depth points — and bound
/// pruning cannot separate plateau cells from each other, so the work
/// scales as O(plateau length / tolerance). Pick the coarsest tolerance
/// the caller can stand (placement workloads use `1e-6`); nanometre
/// tolerances on plateaued shapes cost gigabytes, not nanometres.
///
/// # Panics
///
/// Panics if `tolerance` is not strictly positive and finite.
///
/// # Examples
///
/// ```
/// use omt_geom::{deepest_interior, ConvexPolygon, Point2};
///
/// let hex = ConvexPolygon::regular(6, Point2::new([2.0, -1.0]), 1.0);
/// let pole = deepest_interior(&hex, 1e-9);
/// assert!(pole.distance(&Point2::new([2.0, -1.0])) < 1e-6);
/// ```
pub fn deepest_interior(poly: &ConvexPolygon, tolerance: f64) -> Point2 {
    assert!(
        tolerance > 0.0 && tolerance.is_finite(),
        "tolerance must be positive and finite"
    );
    let vertices = poly.vertices();
    let depth = |p: &Point2| -> f64 {
        let n = vertices.len();
        let mut d = f64::INFINITY;
        for i in 0..n {
            let a = vertices[i];
            let b = vertices[(i + 1) % n];
            let e = b - a;
            let len = e.norm();
            // Signed distance to the edge line; positive inside (CCW).
            d = d.min((e.x() * (p.y() - a.y()) - e.y() * (p.x() - a.x())) / len);
        }
        d
    };
    let (mut min_x, mut min_y) = (f64::INFINITY, f64::INFINITY);
    let (mut max_x, mut max_y) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
    for v in vertices {
        min_x = min_x.min(v.x());
        min_y = min_y.min(v.y());
        max_x = max_x.max(v.x());
        max_y = max_y.max(v.y());
    }
    /// One square search cell, ordered by its depth upper bound (ties
    /// broken on coordinates so the heap order — and hence the returned
    /// pole — is deterministic).
    #[derive(PartialEq)]
    struct Cand {
        score: f64,
        x: f64,
        y: f64,
        half: f64,
    }
    impl Eq for Cand {}
    impl Ord for Cand {
        fn cmp(&self, other: &Self) -> core::cmp::Ordering {
            self.score
                .total_cmp(&other.score)
                .then(self.x.total_cmp(&other.x))
                .then(self.y.total_cmp(&other.y))
        }
    }
    impl PartialOrd for Cand {
        fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    let mut best_point = poly.reference_point();
    let mut best_depth = depth(&best_point);
    let half = ((max_x - min_x).max(max_y - min_y)) / 2.0;
    let mut heap = std::collections::BinaryHeap::new();
    let root = Point2::new([(min_x + max_x) / 2.0, (min_y + max_y) / 2.0]);
    heap.push(Cand {
        score: depth(&root) + half * core::f64::consts::SQRT_2,
        x: root.x(),
        y: root.y(),
        half,
    });
    while let Some(cand) = heap.pop() {
        if cand.score - best_depth <= tolerance {
            break; // the max-heap invariant: nothing left can improve
        }
        let h = cand.half / 2.0;
        for (dx, dy) in [(-h, -h), (h, -h), (-h, h), (h, h)] {
            let center = Point2::new([cand.x + dx, cand.y + dy]);
            let d = depth(&center);
            if d > best_depth {
                best_depth = d;
                best_point = center;
            }
            let score = d + h * core::f64::consts::SQRT_2;
            if score - best_depth > tolerance {
                heap.push(Cand {
                    score,
                    x: center.x(),
                    y: center.y(),
                    half: h,
                });
            }
        }
    }
    best_point
}

/// The annulus `{p : r_in ≤ ‖p - center‖ ≤ r_out}` — a deliberately
/// **non-convex** region (for `r_in > 0`), used by tests to probe behaviour
/// outside the theorem's hypotheses.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Annulus {
    center: Point2,
    r_in: f64,
    r_out: f64,
}

impl Annulus {
    /// Creates an annulus.
    ///
    /// # Panics
    ///
    /// Panics if `r_in < 0` or `r_in > r_out`.
    pub fn new(center: Point2, r_in: f64, r_out: f64) -> Self {
        assert!(
            0.0 <= r_in && r_in <= r_out,
            "invalid annulus radii [{r_in}, {r_out}]"
        );
        Self {
            center,
            r_in,
            r_out,
        }
    }

    /// Inner radius.
    pub const fn r_in(&self) -> f64 {
        self.r_in
    }

    /// Outer radius.
    pub const fn r_out(&self) -> f64 {
        self.r_out
    }
}

impl Region<2> for Annulus {
    fn contains(&self, p: &Point2) -> bool {
        let d2 = p.distance_squared(&self.center);
        self.r_in * self.r_in <= d2 && d2 <= self.r_out * self.r_out
    }

    fn sample(&self, rng: &mut dyn Rng) -> Point2 {
        use omt_rng::RngExt;
        // Inverse CDF on the squared radius for exact uniformity.
        let u: f64 = rng.random();
        let r2 = self.r_in * self.r_in + u * (self.r_out * self.r_out - self.r_in * self.r_in);
        let r = r2.sqrt();
        let theta = rng.random_range(0.0..core::f64::consts::TAU);
        self.center + Point2::new([r * theta.cos(), r * theta.sin()])
    }

    fn reference_point(&self) -> Point2 {
        // The center: note it is NOT inside the region when r_in > 0, which
        // is exactly the stress case tests want.
        self.center
    }

    fn circumradius(&self) -> f64 {
        self.r_out
    }
}

/// Convenience alias for boxed dynamic regions.
pub type DynRegion2 = Box<dyn Region<2>>;

/// Convenience alias for boxed dynamic 3-D regions.
pub type DynRegion3 = Box<dyn Region<3>>;

/// Offsets every sampled point of an inner region — used to test arbitrary
/// source placement (the source stays at the caller's chosen point while the
/// region shifts around it).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Translated<R, const D: usize> {
    inner: R,
    offset: Point<D>,
}

impl<R: Region<D>, const D: usize> Translated<R, D> {
    /// Wraps `inner`, translating it by `offset`.
    pub fn new(inner: R, offset: Point<D>) -> Self {
        Self { inner, offset }
    }
}

impl<R: Region<D>, const D: usize> Region<D> for Translated<R, D> {
    fn contains(&self, p: &Point<D>) -> bool {
        self.inner.contains(&(*p - self.offset))
    }

    fn sample(&self, rng: &mut dyn Rng) -> Point<D> {
        self.inner.sample(rng) + self.offset
    }

    fn reference_point(&self) -> Point<D> {
        self.inner.reference_point() + self.offset
    }

    fn circumradius(&self) -> f64 {
        self.inner.circumradius()
    }
}

// Point3 is used in the doc-aliases below; silence the otherwise-unused
// import in builds without doctests.
#[allow(unused)]
type _Assert3 = Point3;

#[cfg(test)]
mod tests {
    use super::*;
    use omt_rng::rngs::SmallRng;
    use omt_rng::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    #[test]
    fn ball_contains_its_samples() {
        let ball = Ball::<3>::new(Point::new([1.0, 2.0, 3.0]), 0.5);
        let mut rng = rng();
        for p in ball.sample_n(&mut rng, 500) {
            assert!(ball.contains(&p));
        }
    }

    #[test]
    fn disk_alias_is_two_dimensional() {
        let d = Disk::unit();
        assert!(d.contains(&Point2::new([0.5, 0.5])));
        assert!(!d.contains(&Point2::new([1.0, 1.0])));
        assert_eq!(d.circumradius(), 1.0);
        assert_eq!(d.reference_point(), Point2::ORIGIN);
    }

    #[test]
    fn box_contains_its_samples() {
        let b = BoxRegion::new(Point::new([-1.0, 0.0]), Point::new([1.0, 2.0]));
        let mut rng = rng();
        for p in b.sample_n(&mut rng, 500) {
            assert!(b.contains(&p));
        }
        assert_eq!(b.reference_point(), Point2::new([0.0, 1.0]));
        assert!((b.circumradius() - 2.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn polygon_rejects_bad_input() {
        assert!(ConvexPolygon::new(vec![Point2::ORIGIN, Point2::new([1.0, 0.0])]).is_err());
        // Clockwise square.
        let cw = vec![
            Point2::new([0.0, 0.0]),
            Point2::new([0.0, 1.0]),
            Point2::new([1.0, 1.0]),
            Point2::new([1.0, 0.0]),
        ];
        assert!(ConvexPolygon::new(cw).is_err());
        // Non-convex (dart).
        let dart = vec![
            Point2::new([0.0, 0.0]),
            Point2::new([2.0, 0.0]),
            Point2::new([0.5, 0.5]),
            Point2::new([0.0, 2.0]),
        ];
        assert!(ConvexPolygon::new(dart).is_err());
    }

    #[test]
    fn polygon_area_and_containment() {
        let square = ConvexPolygon::new(vec![
            Point2::new([0.0, 0.0]),
            Point2::new([2.0, 0.0]),
            Point2::new([2.0, 2.0]),
            Point2::new([0.0, 2.0]),
        ])
        .unwrap();
        assert!((square.area() - 4.0).abs() < 1e-12);
        assert!(square.contains(&Point2::new([1.0, 1.0])));
        assert!(!square.contains(&Point2::new([3.0, 1.0])));
        assert_eq!(square.reference_point(), Point2::new([1.0, 1.0]));
        let mut rng = rng();
        for p in square.sample_n(&mut rng, 500) {
            assert!(square.contains(&p));
        }
    }

    #[test]
    fn polygon_sampling_is_area_uniform() {
        // An L-shaped... no: convex only. Use a thin+wide triangle pair via a
        // right trapezoid and check the left half gets the right mass.
        let trap = ConvexPolygon::new(vec![
            Point2::new([0.0, 0.0]),
            Point2::new([2.0, 0.0]),
            Point2::new([2.0, 1.0]),
            Point2::new([0.0, 2.0]),
        ])
        .unwrap();
        let mut rng = rng();
        let n = 20_000;
        let left = trap
            .sample_n(&mut rng, n)
            .iter()
            .filter(|p| p.x() < 1.0)
            .count();
        // Area left of x=1: trapezoid with heights 2 and 1.5 -> 1.75 of 3.0.
        let frac = left as f64 / n as f64;
        assert!((frac - 1.75 / 3.0).abs() < 0.02, "fraction {frac}");
    }

    #[test]
    fn regular_polygon() {
        let hex = ConvexPolygon::regular(6, Point2::new([1.0, 1.0]), 2.0);
        assert_eq!(hex.vertices().len(), 6);
        assert!((hex.circumradius() - 2.0).abs() < 1e-9);
        // Hexagon area = 3*sqrt(3)/2 * r^2.
        assert!((hex.area() - 1.5 * 3.0_f64.sqrt() * 4.0).abs() < 1e-9);
    }

    #[test]
    fn annulus_samples_respect_radii() {
        let a = Annulus::new(Point2::ORIGIN, 0.5, 1.0);
        let mut rng = rng();
        for p in a.sample_n(&mut rng, 500) {
            assert!(a.contains(&p));
            let r = p.norm();
            assert!((0.5..=1.0 + 1e-12).contains(&r));
        }
        assert!(!a.contains(&Point2::ORIGIN));
    }

    #[test]
    fn annulus_is_radially_uniform() {
        let a = Annulus::new(Point2::ORIGIN, 0.0, 1.0);
        let mut rng = rng();
        let n = 20_000;
        let inner = a
            .sample_n(&mut rng, n)
            .iter()
            .filter(|p| p.norm() <= core::f64::consts::FRAC_1_SQRT_2)
            .count();
        let frac = inner as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.02, "fraction {frac}");
    }

    #[test]
    fn translated_region() {
        let shifted = Translated::new(Disk::unit(), Point2::new([10.0, 0.0]));
        assert!(shifted.contains(&Point2::new([10.5, 0.0])));
        assert!(!shifted.contains(&Point2::new([0.0, 0.0])));
        assert_eq!(shifted.reference_point(), Point2::new([10.0, 0.0]));
        let mut rng = rng();
        for p in shifted.sample_n(&mut rng, 200) {
            assert!(shifted.contains(&p));
        }
    }

    #[test]
    fn regions_are_object_safe() {
        let regions: Vec<DynRegion2> = vec![
            Box::new(Disk::unit()),
            Box::new(BoxRegion::<2>::unit()),
            Box::new(Annulus::new(Point2::ORIGIN, 0.2, 0.9)),
        ];
        let mut rng = rng();
        for r in &regions {
            let p = r.sample(&mut rng);
            assert!(r.contains(&p));
        }
    }

    #[test]
    fn deepest_interior_of_symmetric_shapes_is_the_center() {
        let square = ConvexPolygon::new(vec![
            Point2::new([0.0, 0.0]),
            Point2::new([2.0, 0.0]),
            Point2::new([2.0, 2.0]),
            Point2::new([0.0, 2.0]),
        ])
        .unwrap();
        let pole = deepest_interior(&square, 1e-9);
        assert!(pole.distance(&Point2::new([1.0, 1.0])) < 1e-6);
        let hex = ConvexPolygon::regular(6, Point2::new([-3.0, 0.5]), 2.0);
        let pole = deepest_interior(&hex, 1e-9);
        assert!(pole.distance(&Point2::new([-3.0, 0.5])) < 1e-6);
    }

    #[test]
    fn deepest_interior_beats_the_centroid_on_skewed_shapes() {
        // A sharp right trapezoid: the centroid is pulled toward the long
        // edge, while the pole of inaccessibility sits deeper.
        let trap = ConvexPolygon::new(vec![
            Point2::new([0.0, 0.0]),
            Point2::new([4.0, 0.0]),
            Point2::new([4.0, 0.2]),
            Point2::new([0.0, 1.6]),
        ])
        .unwrap();
        let pole = deepest_interior(&trap, 1e-9);
        assert!(trap.contains(&pole));
        let depth = |p: &Point2| {
            let vs = trap.vertices();
            (0..vs.len())
                .map(|i| {
                    let a = vs[i];
                    let b = vs[(i + 1) % vs.len()];
                    let e = b - a;
                    (e.x() * (p.y() - a.y()) - e.y() * (p.x() - a.x())) / e.norm()
                })
                .fold(f64::INFINITY, f64::min)
        };
        assert!(depth(&pole) >= depth(&trap.reference_point()) - 1e-9);
        assert!(depth(&pole) > 0.0);
    }
}
