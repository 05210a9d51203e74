//! Pinned construction goldens for every batch grid and bisection builder.
//!
//! Each configuration of the matrix below is pinned by three 64-bit words:
//!
//! * an **edge-set fingerprint** — FNV-1a over the tree's parent array
//!   (`u64::MAX` for the source), which fixes the whole tree: depths, hops
//!   and child lists are functions of the edge set and the input points;
//! * the **radius bits** (`f64::to_bits` of the tree radius);
//! * a **report fingerprint** — FNV-1a over every field of the
//!   `PolarGridReport` (0 for the bisection builders, which have none).
//!
//! The values were recorded from the array-of-structs construction path
//! while it still existed next to the structure-of-arrays store path, and
//! both paths produced them bit for bit. Every slice build (`build`,
//! `build_with_report`) and every store build (`build_store`,
//! `build_store_with_report`) is checked against the same entry, at every
//! thread count of the matrix, so numeric or structural drift anywhere in
//! the pipeline — polar conversion, partition, representative picks, core
//! wiring, in-cell bisection, the parallel direct fill — fails here.
//!
//! The matrix covers seeds × n × degrees {2, 4, 6} (2-D) and {2, 6, 10}
//! (3-D) × threads {1, 2, 4, 8}, every `RepStrategy`, the rings override,
//! an off-origin source, the degenerate inputs, the configurations of
//! `parallel_parity.rs`, and `Bisection` / `Bisection3` at degrees {2, 4}
//! and {2, 8}. The n = 100k and n = 1M cases are `#[ignore]`d (debug-build
//! cost) and run in release in the CI large-n job.

use omt_core::{
    Bisection, Bisection3, BuildError, PolarGridBuilder, PolarGridReport, RepStrategy,
    SphereGridBuilder,
};
use omt_geom::{Ball, Disk, Point2, Point3, PointStore2, PointStore3, Region};
use omt_rng::rngs::SmallRng;
use omt_rng::SeedableRng;
use omt_tree::{MulticastTree, ParentRef};

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// FNV-1a over little-endian 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn edge_fingerprint<const D: usize>(tree: &MulticastTree<D>) -> u64 {
    let mut h = Fnv::new();
    h.word(tree.len() as u64);
    for i in 0..tree.len() {
        h.word(match tree.parent(i) {
            ParentRef::Source => u64::MAX,
            ParentRef::Node(p) => p as u64,
        });
    }
    h.0
}

fn report_fingerprint(r: &PolarGridReport) -> u64 {
    let mut h = Fnv::new();
    for w in [
        u64::from(r.rings),
        r.delay.to_bits(),
        r.core_delay.to_bits(),
        r.bound.to_bits(),
        r.lower_bound.to_bits(),
        r.cells as u64,
        r.occupied_cells as u64,
    ] {
        h.word(w);
    }
    h.0
}

/// Checks one built tree (and its report, if any) against the pinned
/// entry for `label`.
fn check<const D: usize>(label: &str, tree: &MulticastTree<D>, report: Option<&PolarGridReport>) {
    let got = (
        edge_fingerprint(tree),
        tree.radius().to_bits(),
        report.map_or(0, report_fingerprint),
    );
    // The message carries the computed entry in table form.
    let entry = format!(
        "(\"{label}\", {:#018x}, {:#018x}, {:#018x})",
        got.0, got.1, got.2
    );
    let want = GOLDENS
        .iter()
        .find(|g| g.0 == label)
        .map(|g| (g.1, g.2, g.3))
        .unwrap_or_else(|| panic!("no golden for {label}; computed {entry}"));
    assert_eq!(
        got, want,
        "{label}: (edges, radius bits, report) drifted to {entry}"
    );
}

fn disk_points(n: usize, seed: u64) -> Vec<Point2> {
    Disk::unit().sample_n(&mut SmallRng::seed_from_u64(seed), n)
}

fn ball_points(n: usize, seed: u64) -> Vec<Point3> {
    Ball::<3>::unit().sample_n(&mut SmallRng::seed_from_u64(seed), n)
}

/// Builds `points` through both public entry points of `builder` and
/// checks each against the golden for `label`.
fn check_polar(label: &str, builder: PolarGridBuilder, source: Point2, points: &[Point2]) {
    let (slice, slice_report) = builder
        .build_with_report(source, points)
        .unwrap_or_else(|e| panic!("{label}: slice build: {e}"));
    let store = PointStore2::from_points(source, points);
    let (stored, stored_report) = builder
        .build_store_with_report(&store)
        .unwrap_or_else(|e| panic!("{label}: store build: {e}"));
    assert_eq!(slice, stored, "{label}: slice and store builds differ");
    check(label, &slice, Some(&slice_report));
    check(label, &stored, Some(&stored_report));
}

fn check_sphere(label: &str, builder: SphereGridBuilder, source: Point3, points: &[Point3]) {
    let (slice, slice_report) = builder
        .build_with_report(source, points)
        .unwrap_or_else(|e| panic!("{label}: slice build: {e}"));
    let store = PointStore3::from_points(source, points);
    let (stored, stored_report) = builder
        .build_store_with_report(&store)
        .unwrap_or_else(|e| panic!("{label}: store build: {e}"));
    assert_eq!(slice, stored, "{label}: slice and store builds differ");
    check(label, &slice, Some(&slice_report));
    check(label, &stored, Some(&stored_report));
}

fn polar_matrix(sizes: &[usize], seeds: &[u64], degrees: &[u32], threads: &[usize]) {
    for &n in sizes {
        for &seed in seeds {
            let points = disk_points(n, seed);
            for &deg in degrees {
                let label = format!("polar n={n} seed={seed} deg={deg}");
                for &t in threads {
                    let builder = PolarGridBuilder::new().max_out_degree(deg).threads(t);
                    check_polar(&label, builder, Point2::ORIGIN, &points);
                }
            }
        }
    }
}

fn sphere_matrix(sizes: &[usize], seeds: &[u64], degrees: &[u32], threads: &[usize]) {
    for &n in sizes {
        for &seed in seeds {
            let points = ball_points(n, seed);
            for &deg in degrees {
                let label = format!("sphere n={n} seed={seed} deg={deg}");
                for &t in threads {
                    let builder = SphereGridBuilder::new().max_out_degree(deg).threads(t);
                    check_sphere(&label, builder, Point3::ORIGIN, &points);
                }
            }
        }
    }
}

#[test]
fn polar_grid_matrix() {
    polar_matrix(&[1_000, 10_000], &[2004, 2005], &[2, 4, 6], &THREADS);
}

#[test]
#[ignore = "n = 100k; run in release (CI large-n job)"]
fn polar_grid_matrix_100k() {
    polar_matrix(&[100_000], &[2004, 2005], &[2, 4, 6], &THREADS);
}

#[test]
fn sphere_grid_matrix() {
    sphere_matrix(&[500, 4_000], &[2004, 2005], &[2, 6, 10], &THREADS);
}

#[test]
fn parallel_parity_configurations() {
    // The configurations `parallel_parity.rs` compares across thread
    // counts, pinned here at the sequential baseline and the ambient
    // default.
    polar_matrix(&[64, 257, 1_000, 4_096], &[2004, 2005, 7], &[2, 6], &[1]);
    polar_matrix(&[2_000], &[2004], &[6], &[1]);
    sphere_matrix(&[128, 1_000], &[2004, 11], &[2, 10], &[1]);
    let points = disk_points(1_500, 42);
    check_polar(
        "polar n=1500 seed=42 deg=2",
        PolarGridBuilder::new().max_out_degree(2),
        Point2::ORIGIN,
        &points,
    );
}

#[test]
fn off_origin_source() {
    let source = Point2::new([0.25, -0.4]);
    let points = disk_points(3_000, 7);
    for deg in [2, 4, 6] {
        let builder = PolarGridBuilder::new().max_out_degree(deg);
        check_polar(
            &format!("polar off-origin deg={deg}"),
            builder,
            source,
            &points,
        );
    }
    let source3 = Point3::new([0.3, -0.2, 0.1]);
    let points3 = ball_points(2_000, 11);
    for deg in [2, 10] {
        let builder = SphereGridBuilder::new().max_out_degree(deg);
        check_sphere(
            &format!("sphere off-origin deg={deg}"),
            builder,
            source3,
            &points3,
        );
    }
}

#[test]
fn rep_strategies() {
    let points = disk_points(2_000, 2004);
    let points3 = ball_points(1_500, 2004);
    for strategy in [
        RepStrategy::InnerArcMid,
        RepStrategy::MinRadius,
        RepStrategy::MaxRadius,
        RepStrategy::First,
    ] {
        for deg in [2, 6] {
            let builder = PolarGridBuilder::new()
                .max_out_degree(deg)
                .representative_strategy(strategy);
            let label = format!("polar {strategy:?} deg={deg}");
            check_polar(&label, builder, Point2::ORIGIN, &points);
        }
        for deg in [2, 10] {
            let builder = SphereGridBuilder::new()
                .max_out_degree(deg)
                .representative_strategy(strategy);
            let label = format!("sphere {strategy:?} deg={deg}");
            check_sphere(&label, builder, Point3::ORIGIN, &points3);
        }
    }
}

#[test]
fn rings_override() {
    let points = disk_points(2_000, 2005);
    let (_, auto) = PolarGridBuilder::new()
        .build_with_report(Point2::ORIGIN, &points)
        .unwrap();
    assert_eq!(auto.rings, 7, "automatic ring choice drifted");
    for k in [0, auto.rings - 1, auto.rings] {
        for deg in [2, 6] {
            let builder = PolarGridBuilder::new().max_out_degree(deg).rings(k);
            check_polar(
                &format!("polar rings={k} deg={deg}"),
                builder,
                Point2::ORIGIN,
                &points,
            );
        }
    }
}

#[test]
fn degenerate_inputs() {
    for deg in [2, 4, 6] {
        let builder = PolarGridBuilder::new().max_out_degree(deg);
        check_polar(
            &format!("polar empty deg={deg}"),
            builder,
            Point2::ORIGIN,
            &[],
        );
        let at = Point2::new([1.0, 1.0]);
        let coincident = vec![at; 37];
        check_polar(
            &format!("polar coincident deg={deg}"),
            builder,
            at,
            &coincident,
        );
        let mut dup = disk_points(50, 5);
        dup.extend(std::iter::repeat_n(dup[7], 40));
        check_polar(
            &format!("polar duplicates deg={deg}"),
            builder,
            Point2::ORIGIN,
            &dup,
        );
        let one = [Point2::new([0.3, 0.4])];
        check_polar(
            &format!("polar single deg={deg}"),
            builder,
            Point2::ORIGIN,
            &one,
        );
    }
    for deg in [2, 10] {
        let builder = SphereGridBuilder::new().max_out_degree(deg);
        check_sphere(
            &format!("sphere empty deg={deg}"),
            builder,
            Point3::ORIGIN,
            &[],
        );
        let at = Point3::new([0.5, 0.5, 0.5]);
        let coincident = vec![at; 19];
        check_sphere(
            &format!("sphere coincident deg={deg}"),
            builder,
            at,
            &coincident,
        );
    }
}

fn check_bisection(label: &str, deg: u32, source: Point2, points: &[Point2]) {
    let tree = Bisection::new(deg)
        .unwrap()
        .build(source, points)
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    check(label, &tree, None);
}

fn check_bisection3(label: &str, deg: u32, source: Point3, points: &[Point3]) {
    let tree = Bisection3::new(deg)
        .unwrap()
        .build(source, points)
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    check(label, &tree, None);
}

#[test]
fn bisection_matrix() {
    for deg in [2, 4] {
        for n in [1usize, 2, 3, 100, 1_000, 5_000] {
            for seed in [2004u64, 2005] {
                let points = disk_points(n, seed);
                let label = format!("bisection n={n} seed={seed} deg={deg}");
                check_bisection(&label, deg, Point2::ORIGIN, &points);
            }
        }
        let points = disk_points(1_000, 7);
        let label = format!("bisection off-origin deg={deg}");
        check_bisection(&label, deg, Point2::new([0.25, -0.4]), &points);
        let collinear: Vec<Point2> = (1..=40)
            .map(|i| Point2::new([i as f64 * 0.1, 0.0]))
            .collect();
        let label = format!("bisection collinear deg={deg}");
        check_bisection(&label, deg, Point2::ORIGIN, &collinear);
        let dup = vec![Point2::new([0.5, 0.5]); 50];
        check_bisection(
            &format!("bisection duplicates deg={deg}"),
            deg,
            Point2::ORIGIN,
            &dup,
        );
        let at = Point2::new([1.0, 1.0]);
        check_bisection(
            &format!("bisection coincident deg={deg}"),
            deg,
            at,
            &[at; 20],
        );
        check_bisection(
            &format!("bisection empty deg={deg}"),
            deg,
            Point2::ORIGIN,
            &[],
        );
    }
}

#[test]
fn bisection3_matrix() {
    for deg in [2, 8] {
        for n in [1usize, 2, 3, 100, 1_000, 5_000] {
            for seed in [2004u64, 2005] {
                let points = ball_points(n, seed);
                let label = format!("bisection3 n={n} seed={seed} deg={deg}");
                check_bisection3(&label, deg, Point3::ORIGIN, &points);
            }
        }
        let points = ball_points(1_000, 7);
        let label = format!("bisection3 off-origin deg={deg}");
        check_bisection3(&label, deg, Point3::new([0.3, -0.2, 0.1]), &points);
        let dup = vec![Point3::new([0.3, 0.3, 0.3]); 40];
        check_bisection3(
            &format!("bisection3 duplicates deg={deg}"),
            deg,
            Point3::ORIGIN,
            &dup,
        );
        let at = Point3::new([1.0, 1.0, 1.0]);
        check_bisection3(
            &format!("bisection3 coincident deg={deg}"),
            deg,
            at,
            &[at; 30],
        );
        check_bisection3(
            &format!("bisection3 empty deg={deg}"),
            deg,
            Point3::ORIGIN,
            &[],
        );
    }
}

/// Seeded golden radii on stores sampled straight from the region: pins
/// the exact bit pattern of the tree radius at every thread count so any
/// numeric drift anywhere in the pipeline (sampling, polar conversion,
/// partition, bisection, arena, the parallel direct fill) is caught, up to
/// n = 1M. Degrees 2 and 4 share a radius because both use the degree-2
/// core wiring and the binary bisection reaches the same deepest leaf.
fn check_golden_radii(n: usize, expected: [(u32, u64); 3]) {
    let mut rng = SmallRng::seed_from_u64(2004);
    let store = PointStore2::sample_region(Point2::ORIGIN, &Disk::unit(), &mut rng, n);
    for (deg, bits) in expected {
        for threads in THREADS {
            let tree = PolarGridBuilder::new()
                .max_out_degree(deg)
                .threads(threads)
                .build_store(&store)
                .unwrap();
            assert_eq!(
                tree.radius().to_bits(),
                bits,
                "n {n} deg {deg} threads {threads}: radius drifted to {:?}",
                tree.radius()
            );
        }
    }
}

#[test]
fn golden_radii_10k() {
    check_golden_radii(
        10_000,
        [
            (2, 0x3ff2_bef1_41df_70e8), // 1.1716167996556184
            (4, 0x3ff2_bef1_41df_70e8), // 1.1716167996556184
            (6, 0x3ff1_d3ac_fc37_3175), // 1.1141786434337437
        ],
    );
}

#[test]
#[ignore = "n = 100k; run in release (CI large-n job)"]
fn golden_radii_100k() {
    check_golden_radii(
        100_000,
        [
            (2, 0x3ff1_0cb5_b09a_12ed), // 1.0656029604444328
            (4, 0x3ff1_0cb5_b09a_12ed), // 1.0656029604444328
            (6, 0x3ff0_9589_4b92_e386), // 1.0365078880406329
        ],
    );
}

#[test]
#[ignore = "n = 1M; run in release (CI large-n job)"]
fn golden_radii_1m() {
    check_golden_radii(
        1_000_000,
        [
            (2, 0x3ff0_62aa_5aa0_2465), // 1.0240882434902912
            (4, 0x3ff0_62aa_5aa0_2465), // 1.0240882434902912
            (6, 0x3ff0_2c67_fc12_603a), // 1.0108413549951494
        ],
    );
}

#[test]
fn error_cases_match() {
    let points = disk_points(100, 1);
    let store = PointStore2::from_points(Point2::ORIGIN, &points);

    // Degree too small.
    assert!(matches!(
        PolarGridBuilder::new()
            .max_out_degree(1)
            .build_store(&store),
        Err(BuildError::DegreeTooSmall { got: 1, min: 2 })
    ));

    // Non-finite source.
    let bad_source = PointStore2::from_points(Point2::new([f64::NAN, 0.0]), &points);
    assert!(matches!(
        PolarGridBuilder::new().build_store(&bad_source),
        Err(BuildError::NonFiniteSource)
    ));

    // Non-finite point, reported at the same index by the slice and the
    // store call.
    let mut bad = points.clone();
    bad[41] = Point2::new([0.1, f64::INFINITY]);
    let bad_store = PointStore2::from_points(Point2::ORIGIN, &bad);
    let slice_err = PolarGridBuilder::new()
        .build(Point2::ORIGIN, &bad)
        .unwrap_err();
    let store_err = PolarGridBuilder::new().build_store(&bad_store).unwrap_err();
    assert!(matches!(
        slice_err,
        BuildError::NonFinitePoint { index: 41 }
    ));
    assert_eq!(slice_err, store_err);

    // Infeasible rings override.
    let (_, auto) = PolarGridBuilder::new()
        .build_with_report(Point2::ORIGIN, &points)
        .unwrap();
    assert!(matches!(
        PolarGridBuilder::new()
            .rings(auto.rings + 9)
            .build_store(&store),
        Err(BuildError::InfeasibleRings { .. })
    ));

    // 3-D error parity.
    let store3 = PointStore3::from_points(Point3::new([0.0, f64::NAN, 0.0]), &[]);
    assert!(matches!(
        SphereGridBuilder::new().build_store(&store3),
        Err(BuildError::NonFiniteSource)
    ));
}

/// `(label, edge-set fingerprint, radius bits, report fingerprint)`.
#[rustfmt::skip]
const GOLDENS: &[(&str, u64, u64, u64)] = &[
    ("bisection coincident deg=2", 0x5e486e405a45ed41, 0x0000000000000000, 0x0000000000000000),
    ("bisection coincident deg=4", 0x1e6993c75b235631, 0x0000000000000000, 0x0000000000000000),
    ("bisection collinear deg=2", 0x7b264624847d6305, 0x4010000000000000, 0x0000000000000000),
    ("bisection collinear deg=4", 0x25e930573334ac41, 0x4010000000000000, 0x0000000000000000),
    ("bisection duplicates deg=2", 0x770469c9a540f7a7, 0x3fe6a09e667f3bcd, 0x0000000000000000),
    ("bisection duplicates deg=4", 0x54a54f0d8847982f, 0x3fe6a09e667f3bcd, 0x0000000000000000),
    ("bisection empty deg=2", 0xa8c7f832281a39c5, 0x0000000000000000, 0x0000000000000000),
    ("bisection empty deg=4", 0xa8c7f832281a39c5, 0x0000000000000000, 0x0000000000000000),
    ("bisection n=1 seed=2004 deg=2", 0xc4777a6e69ba809c, 0x3fd706e582338fcd, 0x0000000000000000),
    ("bisection n=1 seed=2004 deg=4", 0xc4777a6e69ba809c, 0x3fd706e582338fcd, 0x0000000000000000),
    ("bisection n=1 seed=2005 deg=2", 0xc4777a6e69ba809c, 0x3fe8e2510208d5b0, 0x0000000000000000),
    ("bisection n=1 seed=2005 deg=4", 0xc4777a6e69ba809c, 0x3fe8e2510208d5b0, 0x0000000000000000),
    ("bisection n=100 seed=2004 deg=2", 0x3d870b20cbd1a742, 0x4012c529362784f7, 0x0000000000000000),
    ("bisection n=100 seed=2004 deg=4", 0xabcd3d676b774984, 0x400378bf3d9c3ce5, 0x0000000000000000),
    ("bisection n=100 seed=2005 deg=2", 0xaf665dd46f93d288, 0x4010a2befd65818e, 0x0000000000000000),
    ("bisection n=100 seed=2005 deg=4", 0xddc53c612d116f35, 0x4001cde0c2605870, 0x0000000000000000),
    ("bisection n=1000 seed=2004 deg=2", 0x88e5cd6ddc450dc3, 0x4015008564bf0a3a, 0x0000000000000000),
    ("bisection n=1000 seed=2004 deg=4", 0xc7b68e16c1da9d60, 0x4004abb3c8358623, 0x0000000000000000),
    ("bisection n=1000 seed=2005 deg=2", 0xdfbfffbccefc8df9, 0x40116e1e155f2a4f, 0x0000000000000000),
    ("bisection n=1000 seed=2005 deg=4", 0x92071743a48666ca, 0x4002b2470fb38ae6, 0x0000000000000000),
    ("bisection n=2 seed=2004 deg=2", 0x471adb1bfa7957b7, 0x3fd706e582338fcd, 0x0000000000000000),
    ("bisection n=2 seed=2004 deg=4", 0x471adb1bfa7957b7, 0x3fd706e582338fcd, 0x0000000000000000),
    ("bisection n=2 seed=2005 deg=2", 0x471adb1bfa7957b7, 0x3fe8e2510208d5b0, 0x0000000000000000),
    ("bisection n=2 seed=2005 deg=4", 0x471adb1bfa7957b7, 0x3fe8e2510208d5b0, 0x0000000000000000),
    ("bisection n=3 seed=2004 deg=2", 0x46c0034e64933916, 0x3fe9b4864bfc0be0, 0x0000000000000000),
    ("bisection n=3 seed=2004 deg=4", 0x46c0034e64933916, 0x3fe9b4864bfc0be0, 0x0000000000000000),
    ("bisection n=3 seed=2005 deg=2", 0xed55f26fe3d3df54, 0x3fe8e41d813e5cfc, 0x0000000000000000),
    ("bisection n=3 seed=2005 deg=4", 0xed55f26fe3d3df54, 0x3fe8e41d813e5cfc, 0x0000000000000000),
    ("bisection n=5000 seed=2004 deg=2", 0x68f2ad6f194c7077, 0x4012ea3adaa429f9, 0x0000000000000000),
    ("bisection n=5000 seed=2004 deg=4", 0x6a5c0fbd28c1f834, 0x4004d457833f0304, 0x0000000000000000),
    ("bisection n=5000 seed=2005 deg=2", 0x8ed9e2bcc8218007, 0x400dacd2dc4e41ee, 0x0000000000000000),
    ("bisection n=5000 seed=2005 deg=4", 0xce30e1569276c168, 0x40030230ef6ce797, 0x0000000000000000),
    ("bisection off-origin deg=2", 0xb3dcd2593f42d90d, 0x4013b37360c51d9f, 0x0000000000000000),
    ("bisection off-origin deg=4", 0x2e0fafb270df3180, 0x4002f4433d0361f9, 0x0000000000000000),
    ("bisection3 coincident deg=2", 0xf5104cc65905c66b, 0x0000000000000000, 0x0000000000000000),
    ("bisection3 coincident deg=8", 0xde473a993b446e5b, 0x0000000000000000, 0x0000000000000000),
    ("bisection3 duplicates deg=2", 0xded0812e1ebbce3d, 0x3fe0a0b02501c79a, 0x0000000000000000),
    ("bisection3 duplicates deg=8", 0x2e743a3139b3d0a4, 0x3fe0a0b02501c79a, 0x0000000000000000),
    ("bisection3 empty deg=2", 0xa8c7f832281a39c5, 0x0000000000000000, 0x0000000000000000),
    ("bisection3 empty deg=8", 0xa8c7f832281a39c5, 0x0000000000000000, 0x0000000000000000),
    ("bisection3 n=1 seed=2004 deg=2", 0xc4777a6e69ba809c, 0x3fefc84da2bdf823, 0x0000000000000000),
    ("bisection3 n=1 seed=2004 deg=8", 0xc4777a6e69ba809c, 0x3fefc84da2bdf823, 0x0000000000000000),
    ("bisection3 n=1 seed=2005 deg=2", 0xc4777a6e69ba809c, 0x3fcfe447e89e7d12, 0x0000000000000000),
    ("bisection3 n=1 seed=2005 deg=8", 0xc4777a6e69ba809c, 0x3fcfe447e89e7d12, 0x0000000000000000),
    ("bisection3 n=100 seed=2004 deg=2", 0x4110672f69cddf8d, 0x4015b6c6935b3ad5, 0x0000000000000000),
    ("bisection3 n=100 seed=2004 deg=8", 0x9dae627828aebfd9, 0x4003ed3e03eb2ab8, 0x0000000000000000),
    ("bisection3 n=100 seed=2005 deg=2", 0xe59a893d16295066, 0x401647510b5d31f4, 0x0000000000000000),
    ("bisection3 n=100 seed=2005 deg=8", 0x1a62927b6d869dc8, 0x4005822e7c195a34, 0x0000000000000000),
    ("bisection3 n=1000 seed=2004 deg=2", 0x78595c93d3a46d5b, 0x4018a5d477349488, 0x0000000000000000),
    ("bisection3 n=1000 seed=2004 deg=8", 0x8795d376ba53d854, 0x4005e94c4e6c2e6a, 0x0000000000000000),
    ("bisection3 n=1000 seed=2005 deg=2", 0xf1445f6bd4b7d12f, 0x40196fde2e2fad4c, 0x0000000000000000),
    ("bisection3 n=1000 seed=2005 deg=8", 0xda84ba48a27ee1b0, 0x400898e880d311c8, 0x0000000000000000),
    ("bisection3 n=2 seed=2004 deg=2", 0x471adb1bfa7957b7, 0x3fefc84da2bdf823, 0x0000000000000000),
    ("bisection3 n=2 seed=2004 deg=8", 0x471adb1bfa7957b7, 0x3fefc84da2bdf823, 0x0000000000000000),
    ("bisection3 n=2 seed=2005 deg=2", 0x471adb1bfa7957b7, 0x3fec0dd405657866, 0x0000000000000000),
    ("bisection3 n=2 seed=2005 deg=8", 0x471adb1bfa7957b7, 0x3fec0dd405657866, 0x0000000000000000),
    ("bisection3 n=3 seed=2004 deg=2", 0xcf9ab90269394a77, 0x4001056f51fe80fa, 0x0000000000000000),
    ("bisection3 n=3 seed=2004 deg=8", 0x94f573af3d45b68e, 0x3fefc84da2bdf823, 0x0000000000000000),
    ("bisection3 n=3 seed=2005 deg=2", 0xc15c71f60284aa94, 0x3ffff0f00ab486e1, 0x0000000000000000),
    ("bisection3 n=3 seed=2005 deg=8", 0x94f573af3d45b68e, 0x3fec0dd405657866, 0x0000000000000000),
    ("bisection3 n=5000 seed=2004 deg=2", 0x1672b503373f7ffa, 0x401a1c428814e6fd, 0x0000000000000000),
    ("bisection3 n=5000 seed=2004 deg=8", 0x264bb2e5ff383f0c, 0x400731f96c5e3e9c, 0x0000000000000000),
    ("bisection3 n=5000 seed=2005 deg=2", 0x21dcfd0e9fb3caea, 0x401b71c8fc10ca2c, 0x0000000000000000),
    ("bisection3 n=5000 seed=2005 deg=8", 0x419ae4a70e9825f1, 0x4006300798cd54c5, 0x0000000000000000),
    ("bisection3 off-origin deg=2", 0x4476cddfb9ed156a, 0x401ddc64e1aa23dc, 0x0000000000000000),
    ("bisection3 off-origin deg=8", 0x7e01d43d5af9c720, 0x401073b62bc83eb5, 0x0000000000000000),
    ("polar First deg=2", 0xe1147498aa697b4d, 0x3ffe32465510aca0, 0xb2db79eaaf8bae4a),
    ("polar First deg=6", 0x493bd4d60803354b, 0x3ff952d8e55bb099, 0x7e89930d673de4fb),
    ("polar InnerArcMid deg=2", 0x45a402c73492f290, 0x3ff7d7829878c226, 0x9940ead29572df65),
    ("polar InnerArcMid deg=6", 0x085a3ddf5dca8b29, 0x3ff3abb33ce7b62b, 0xd87d4aba6ab8f22c),
    ("polar MaxRadius deg=2", 0x9521f0274f79e416, 0x4000b89895a1ccac, 0xab535d60640c717f),
    ("polar MaxRadius deg=6", 0x013a7111f42c4005, 0x3ffbfb6d73d98e1e, 0x95c83bf6e9a304d2),
    ("polar MinRadius deg=2", 0x818eabba4553a0a0, 0x3ff7e1de04c83c3a, 0x9e55546edfd89d07),
    ("polar MinRadius deg=6", 0x2439b8e8267b0e08, 0x3ff4c5403e09b209, 0x8349a0d40e2a2b38),
    ("polar coincident deg=2", 0x65df0c1f8727be01, 0x0000000000000000, 0x5abdd517efb71765),
    ("polar coincident deg=4", 0xceda23220bb0cae8, 0x0000000000000000, 0x5abdd517efb71765),
    ("polar coincident deg=6", 0x5894915e3132b935, 0x0000000000000000, 0x5abdd517efb71765),
    ("polar duplicates deg=2", 0x09f099f961fb997e, 0x400773d2902e04d3, 0x0d1ace33e9612cf0),
    ("polar duplicates deg=4", 0x09f099f961fb997e, 0x400773d2902e04d3, 0x0d1ace33e9612cf0),
    ("polar duplicates deg=6", 0x980a674a5b865576, 0x3ffcf8340001e7dc, 0x57a698274d851387),
    ("polar empty deg=2", 0xa8c7f832281a39c5, 0x0000000000000000, 0x3bc30e0ee4c7cd44),
    ("polar empty deg=4", 0xa8c7f832281a39c5, 0x0000000000000000, 0x3bc30e0ee4c7cd44),
    ("polar empty deg=6", 0xa8c7f832281a39c5, 0x0000000000000000, 0x3bc30e0ee4c7cd44),
    ("polar n=1000 seed=2004 deg=2", 0x6314cc7420f1f0aa, 0x3ff78bef86eea375, 0x6211587f1161ea4c),
    ("polar n=1000 seed=2004 deg=4", 0x6314cc7420f1f0aa, 0x3ff78bef86eea375, 0x6211587f1161ea4c),
    ("polar n=1000 seed=2004 deg=6", 0xc82bdbe88f626f91, 0x3ff3c93bca506af2, 0xdb96bc60c5f3afee),
    ("polar n=1000 seed=2005 deg=2", 0x1427e57a864a152c, 0x3ff9dfb970a6edad, 0x4756f57dadeada73),
    ("polar n=1000 seed=2005 deg=4", 0x1427e57a864a152c, 0x3ff9dfb970a6edad, 0x4756f57dadeada73),
    ("polar n=1000 seed=2005 deg=6", 0x197483f2a911068b, 0x3ff48facf837ff0b, 0x27e8509740ce84ac),
    ("polar n=1000 seed=7 deg=2", 0x0eaf7f58fef1d0e4, 0x3ff91ee1c22402ef, 0x3d124467fd4e42d0),
    ("polar n=1000 seed=7 deg=6", 0x81023d740a176723, 0x3ff47b1a19d34c9a, 0xcdf2f08420d3584f),
    ("polar n=10000 seed=2004 deg=2", 0x849c2251a94eb0dc, 0x3ff2bef141df70e8, 0x7d957ceefd106da9),
    ("polar n=10000 seed=2004 deg=4", 0x849c2251a94eb0dc, 0x3ff2bef141df70e8, 0x7d957ceefd106da9),
    ("polar n=10000 seed=2004 deg=6", 0xd264ea850b3a74f7, 0x3ff1d3acfc373175, 0x940068b0655742cc),
    ("polar n=10000 seed=2005 deg=2", 0x8e91287f2c751d17, 0x3ff26efd71c8b50d, 0xcce9027ec8781886),
    ("polar n=10000 seed=2005 deg=4", 0x8e91287f2c751d17, 0x3ff26efd71c8b50d, 0xcce9027ec8781886),
    ("polar n=10000 seed=2005 deg=6", 0x7786152a92d0906d, 0x3ff197fb0a188eec, 0x84e37bbcfbcf6e99),
    ("polar n=100000 seed=2004 deg=2", 0xf3b4b42585962e28, 0x3ff10cb5b09a12ed, 0x58eb3ffb6d384904),
    ("polar n=100000 seed=2004 deg=4", 0xf3b4b42585962e28, 0x3ff10cb5b09a12ed, 0x58eb3ffb6d384904),
    ("polar n=100000 seed=2004 deg=6", 0x2b7f9d7c91ef3436, 0x3ff095894b92e386, 0x886528ee055b604f),
    ("polar n=100000 seed=2005 deg=2", 0x82f52f7450108e0a, 0x3ff154e4197c5116, 0x17ff3478d69fa279),
    ("polar n=100000 seed=2005 deg=4", 0x82f52f7450108e0a, 0x3ff154e4197c5116, 0x17ff3478d69fa279),
    ("polar n=100000 seed=2005 deg=6", 0x808a1690b6b7bff9, 0x3ff0a5be1502cb3c, 0x68dbcd38e6a7ff94),
    ("polar n=1500 seed=42 deg=2", 0x4a063900ffaad851, 0x3ff67ff859996b8d, 0x50f83833df6dd0f8),
    ("polar n=2000 seed=2004 deg=6", 0x085a3ddf5dca8b29, 0x3ff3abb33ce7b62b, 0xd87d4aba6ab8f22c),
    ("polar n=257 seed=2004 deg=2", 0x6c2bb78ddb42487f, 0x40027af0e771b23e, 0x501f73764f42491f),
    ("polar n=257 seed=2004 deg=6", 0xddba7d423783997d, 0x3ff7e183ac9bff09, 0xa5916c9185494819),
    ("polar n=257 seed=2005 deg=2", 0xb509749620dcfc85, 0x40024fcd16f39f66, 0x7c2f501b2df619aa),
    ("polar n=257 seed=2005 deg=6", 0xb076d852bdf33ae7, 0x3ff9b1a1d9ac00e8, 0xe012732a90c22eba),
    ("polar n=257 seed=7 deg=2", 0xdbf7e0e1e6733d7b, 0x40016571918c136a, 0x3fbbea7d9648f580),
    ("polar n=257 seed=7 deg=6", 0xa1afcd69cf7843ab, 0x3ff7334619feb579, 0xa4edda67676a556f),
    ("polar n=4096 seed=2004 deg=2", 0xa0aa4c91c98fb8fb, 0x3ff587023c9a2803, 0xc128fd3d0d411d93),
    ("polar n=4096 seed=2004 deg=6", 0xfc8de508b558295b, 0x3ff2f423737c09ef, 0x9a8ab7548204c511),
    ("polar n=4096 seed=2005 deg=2", 0x14d3cda2fc0d845c, 0x3ff5888911b96baf, 0x2a6dafe2142a55e6),
    ("polar n=4096 seed=2005 deg=6", 0x3126dc8c2fad30fe, 0x3ff25d40b5e768f4, 0x06109c4415ef2438),
    ("polar n=4096 seed=7 deg=2", 0xde2053c381f15859, 0x3ff51c0a9b96cc9e, 0x541bb3fa8b0748f2),
    ("polar n=4096 seed=7 deg=6", 0x1a12fdee1ae0b66d, 0x3ff28c54f4ac8de1, 0xd70b288e2fe6c266),
    ("polar n=64 seed=2004 deg=2", 0xbe77b74e60310f5e, 0x40079418cd41fbf4, 0x5a36a67343e177b1),
    ("polar n=64 seed=2004 deg=6", 0x947ea0625736f830, 0x400238dc19c903ad, 0xccb3ae96dd49312d),
    ("polar n=64 seed=2005 deg=2", 0xf79eabcf7bfd9038, 0x400ecbe122b13002, 0x005772a11017f7ab),
    ("polar n=64 seed=2005 deg=6", 0x4671f8438bae887c, 0x40002d946bf47bf0, 0x307d9712297e8e82),
    ("polar n=64 seed=7 deg=2", 0x73c00f03ec94c771, 0x4004940a5e73f1b6, 0xcb1727e1c9c61583),
    ("polar n=64 seed=7 deg=6", 0x5ddb2a948c777529, 0x3ffe61d7a4b81148, 0x37c5c2b9a05b16b9),
    ("polar off-origin deg=2", 0x753d11edeb8c2793, 0x3ffae352c7321b3a, 0xd88d94997e2df757),
    ("polar off-origin deg=4", 0x753d11edeb8c2793, 0x3ffae352c7321b3a, 0xd88d94997e2df757),
    ("polar off-origin deg=6", 0xf9c2dd059cc2f279, 0x3ff9a205b57057a6, 0x72adc2dbeb6b7340),
    ("polar rings=0 deg=2", 0x0e4cc1bfe8b82d32, 0x40160e1a504f19b0, 0xd5acf3232741823b),
    ("polar rings=0 deg=6", 0x35c325cd60b9fd86, 0x4009719b001b0c8f, 0xb1400ab5a4595509),
    ("polar rings=6 deg=2", 0x828da236dcf3646b, 0x3ff761486cb02258, 0x21ab10cc1f74339c),
    ("polar rings=6 deg=6", 0x76b21e69f199dc6f, 0x3ff3e212c42d62bd, 0xb67b9f31f7389af5),
    ("polar rings=7 deg=2", 0x841c20e533e54117, 0x3ff6e5897f886e65, 0xee4dfc1b8d38d2c0),
    ("polar rings=7 deg=6", 0xc1767553ca400e48, 0x3ff34da5c955e25b, 0x539cbeb79d718753),
    ("polar single deg=2", 0xc4777a6e69ba809c, 0x3fe0000000000000, 0x5d9f94f812fcbf44),
    ("polar single deg=4", 0xc4777a6e69ba809c, 0x3fe0000000000000, 0x5d9f94f812fcbf44),
    ("polar single deg=6", 0xc4777a6e69ba809c, 0x3fe0000000000000, 0x1b0e634f21bcb397),
    ("sphere First deg=10", 0xa7a1ca9fea840405, 0x40095bbfdac88150, 0x159045347f579c44),
    ("sphere First deg=2", 0x70fbc579fe7ac9e6, 0x401379b5094ea2a4, 0x0a5ebf9e61730cab),
    ("sphere InnerArcMid deg=10", 0x45c934ea5900090e, 0x4002a60f5487c8f1, 0x0a8781c986618137),
    ("sphere InnerArcMid deg=2", 0xb29fb5929485b45b, 0x400dd9651062cabc, 0xd3c0092fd51450db),
    ("sphere MaxRadius deg=10", 0xc727f9d37b53fd01, 0x400b840235bdae7f, 0x3be294fd168def3e),
    ("sphere MaxRadius deg=2", 0x25123a18a643b711, 0x4013ca489336d978, 0xedf254699d44044a),
    ("sphere MinRadius deg=10", 0x52fb0149f342ff0c, 0x40063bf0b05768fa, 0x59937836b940589a),
    ("sphere MinRadius deg=2", 0x1dc980575316bf6e, 0x400ffaefc0be7fc3, 0x32d5fbe86063ea6c),
    ("sphere coincident deg=10", 0xe2b9168ba0cda9e6, 0x0000000000000000, 0x5abdd517efb71765),
    ("sphere coincident deg=2", 0x73ed12e986529eae, 0x0000000000000000, 0x5abdd517efb71765),
    ("sphere empty deg=10", 0xa8c7f832281a39c5, 0x0000000000000000, 0x3bc30e0ee4c7cd44),
    ("sphere empty deg=2", 0xa8c7f832281a39c5, 0x0000000000000000, 0x3bc30e0ee4c7cd44),
    ("sphere n=1000 seed=11 deg=10", 0x9499a7f5bb4d03f6, 0x40029267aae2aeb2, 0xcdb9557e18be8de8),
    ("sphere n=1000 seed=11 deg=2", 0x3e5ab2b4767f270e, 0x4011a0bc5b90f72a, 0x7bd0d8b8063c1fb1),
    ("sphere n=1000 seed=2004 deg=10", 0x5870856237fcd762, 0x400580f9742d2b60, 0x2b639daff9ed51e9),
    ("sphere n=1000 seed=2004 deg=2", 0x65fff6493fff3caa, 0x4012156e1ec8e5c6, 0xa371880d100fb784),
    ("sphere n=128 seed=11 deg=10", 0x7cd1e6668f0261b8, 0x40083c59e8d538bd, 0xbed916b6602925c3),
    ("sphere n=128 seed=11 deg=2", 0x188a48782da4c23e, 0x4016e92773851039, 0xd6e06d1e2851deff),
    ("sphere n=128 seed=2004 deg=10", 0x71f32ed21a6c5076, 0x4007a984f7bbe2b5, 0xa1d0048fc16ecde2),
    ("sphere n=128 seed=2004 deg=2", 0x01d6aaa495fb9e3b, 0x401af66de4ff74eb, 0xbdd3c04c303586a3),
    ("sphere n=4000 seed=2004 deg=10", 0x3004238671a74ee0, 0x3fff23f422f4b7fe, 0x36ca821f786045c9),
    ("sphere n=4000 seed=2004 deg=2", 0x1aeb7604f579064e, 0x4009dc77ec027056, 0x3b9447d2fbec8686),
    ("sphere n=4000 seed=2004 deg=6", 0x1aeb7604f579064e, 0x4009dc77ec027056, 0x3b9447d2fbec8686),
    ("sphere n=4000 seed=2005 deg=10", 0x86c91d2b7f11d07c, 0x400220a84264b870, 0x2a035db34b704393),
    ("sphere n=4000 seed=2005 deg=2", 0xd5483bd63deb1f63, 0x400d22ef9b03d546, 0xaa10ff6947d2ce38),
    ("sphere n=4000 seed=2005 deg=6", 0xd5483bd63deb1f63, 0x400d22ef9b03d546, 0xaa10ff6947d2ce38),
    ("sphere n=500 seed=2004 deg=10", 0x2a2d96366895189c, 0x40052dbd7d033c82, 0x8b3b7a403abe2f62),
    ("sphere n=500 seed=2004 deg=2", 0xc2615e47a6a2ef0f, 0x4015066d65b5d882, 0x6eea83f84c58b167),
    ("sphere n=500 seed=2004 deg=6", 0xc2615e47a6a2ef0f, 0x4015066d65b5d882, 0x6eea83f84c58b167),
    ("sphere n=500 seed=2005 deg=10", 0xa861d96fe9541e30, 0x40039631ed96d226, 0x675f9ac3f94ec634),
    ("sphere n=500 seed=2005 deg=2", 0xc0e7902ec5b4c595, 0x4014980bc13eb883, 0xfd2a005e5f97ed2b),
    ("sphere n=500 seed=2005 deg=6", 0xc0e7902ec5b4c595, 0x4014980bc13eb883, 0xfd2a005e5f97ed2b),
    ("sphere off-origin deg=10", 0x99c4677c4249a8bb, 0x4003631402f78654, 0xad4c9ccdef571257),
    ("sphere off-origin deg=2", 0x4eeaffaaa61f0110, 0x400ec46e632891dc, 0xd751dc1c8b05f42e),
];
