//! Pinned per-event churn goldens for [`DynamicOverlay`].
//!
//! `churn_fuzz.rs` proves every intermediate overlay is a valid tree; this
//! suite proves the overlay a fixed membership trace produces agrees with
//! the one an *earlier* version produced. Each case replays a seeded trace
//! of joins and leaves one event at a time and pins five words:
//!
//! * a **tree fingerprint** — FNV-1a over the final snapshot's parent
//!   array (`u64::MAX` for the source) and the bits of every host's delay;
//! * the **radius bits** of the overlay's cached radius;
//! * the **source out-degree** of the final snapshot;
//! * the **orphan count** — the children of every departing host, summed
//!   over all leaves (read from a snapshot taken just before each leave);
//! * the **rebuild count** — how many full rebuilds the trace crossed.
//!
//! The rebuild count comes from a model of the overlay's amortized rule (a
//! rebuild fires once the churn since the last one exceeds half of
//! `max(live, 8)`; an explicit `rebuild` also counts). The model is
//! checked, not trusted: at every event where it predicts a rebuild, the
//! snapshot must equal a fresh [`PolarGridBuilder`] build over the live
//! membership in join order, which is exactly what a rebuild installs.
//!
//! The cases are seeds × degrees {2, 4, 6} × traces of 600 and 20 000
//! events, a wedge trace that repeatedly removes interior hosts while the
//! source is at its full out-degree, a mass-leave trace that empties
//! nine tenths of a 2 000-host overlay, and a deep-leave trace that
//! removes source children and grandchildren of a full-source 20 000-host
//! overlay at degrees 2 and 6. A mismatch prints the computed entry as a
//! Rust literal. The 20 000-event traces and the 20 000-host overlays take
//! a snapshot per leave and run only in release builds. Re-recording is only legitimate for a change
//! that is meant to alter churn behaviour, and CHANGES.md must say so.

use omt_core::{DynamicOverlay, HostId, PolarGridBuilder};
use omt_geom::Point2;
use omt_rng::rngs::SmallRng;
use omt_rng::{RngExt, SeedableRng};
use omt_tree::{MulticastTree, ParentRef};

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

fn parent_words(tree: &MulticastTree<2>) -> impl Iterator<Item = u64> + '_ {
    (0..tree.len()).map(|i| match tree.parent(i) {
        ParentRef::Source => u64::MAX,
        ParentRef::Node(p) => p as u64,
    })
}

/// An overlay under replay, with the live ids in join order (so index
/// `i` of `live` is host `i` of every snapshot) and the pinned tallies.
struct Replay {
    overlay: DynamicOverlay,
    degree: u32,
    live: Vec<HostId>,
    orphans: u64,
    rebuilds: u64,
    /// The rebuild model's churn counter.
    churn: usize,
}

impl Replay {
    fn new(degree: u32) -> Self {
        Self {
            overlay: DynamicOverlay::new(Point2::ORIGIN, degree).unwrap(),
            degree,
            live: Vec::new(),
            orphans: 0,
            rebuilds: 0,
            churn: 0,
        }
    }

    fn join(&mut self, p: Point2) {
        self.live.push(self.overlay.join(p));
        self.after_event();
    }

    /// Removes host `i` of the current snapshot order.
    fn leave(&mut self, i: usize) {
        let before = self.overlay.snapshot().unwrap();
        self.orphans += before.children(i).len() as u64;
        let id = self.live.remove(i);
        self.overlay.leave(id).unwrap();
        self.after_event();
    }

    fn rebuild(&mut self) {
        self.overlay.rebuild();
        self.churn = 0;
        self.rebuilds += 1;
        self.check_rebuilt();
    }

    /// Advances the rebuild model by one membership event.
    fn after_event(&mut self) {
        self.churn += 1;
        if self.churn * 2 > self.live.len().max(8) {
            self.churn = 0;
            self.rebuilds += 1;
            self.check_rebuilt();
        }
    }

    /// The overlay must hold exactly a fresh static build right now.
    fn check_rebuilt(&self) {
        let snap = self.overlay.snapshot().unwrap();
        if snap.is_empty() {
            return;
        }
        let fresh = PolarGridBuilder::new()
            .max_out_degree(self.degree)
            .build(Point2::ORIGIN, snap.points())
            .unwrap();
        assert!(
            parent_words(&snap).eq(parent_words(&fresh)),
            "rebuild model predicted a rebuild after {} events that did not happen",
            self.rebuilds
        );
    }

    /// `(tree fingerprint, radius bits, source out-degree, orphans,
    /// rebuilds)` of the final overlay, after a full validation.
    fn outcome(&self) -> (u64, u64, u32, u64, u64) {
        self.overlay.assert_invariants();
        let snap = self.overlay.snapshot().unwrap();
        snap.validate(Some(self.degree)).unwrap();
        assert_eq!(snap.len(), self.live.len());
        let mut h = Fnv::new();
        h.word(snap.len() as u64);
        for (i, w) in parent_words(&snap).enumerate() {
            h.word(w);
            h.word(snap.depth(i).to_bits());
        }
        (
            h.0,
            self.overlay.radius().to_bits(),
            snap.source_out_degree(),
            self.orphans,
            self.rebuilds,
        )
    }
}

fn disk_point(rng: &mut SmallRng) -> Point2 {
    Point2::new([rng.random_range(-1.0..1.0), rng.random_range(-1.0..1.0)])
}

/// A position inside a narrow angular wedge, leaving the rest of the disk
/// empty so probes on the far side attach straight to the source.
fn wedge_point(rng: &mut SmallRng) -> Point2 {
    let theta: f64 = rng.random_range(0.0..1.0);
    let r: f64 = rng.random_range(0.2..1.0);
    Point2::new([r * theta.cos(), r * theta.sin()])
}

/// Looks `label` up in [`GOLDENS`] and compares.
fn check(label: &str, got: (u64, u64, u32, u64, u64)) {
    let entry = format!(
        "(\"{label}\", {:#018x}, {:#018x}, {}, {}, {})",
        got.0, got.1, got.2, got.3, got.4
    );
    let want = GOLDENS
        .iter()
        .find(|g| g.0 == label)
        .map(|g| (g.1, g.2, g.3, g.4, g.5))
        .unwrap_or_else(|| panic!("no golden for {label}; computed {entry}"));
    assert_eq!(
        got, want,
        "{label}: (tree, radius bits, source degree, orphans, rebuilds) drifted to {entry}"
    );
}

/// The churn fuzz policy: joins : leaves ≈ 2 : 1, uniform over the
/// square, leave victims uniform over the live set.
fn random_trace(seed: u64, degree: u32, events: usize) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut r = Replay::new(degree);
    for _ in 0..events {
        if r.live.len() < 8 || rng.random::<f64>() < 2.0 / 3.0 {
            r.join(disk_point(&mut rng));
        } else {
            let i = rng.random_range(0..r.live.len());
            r.leave(i);
        }
    }
    assert!(r.rebuilds >= 5, "only {} rebuilds", r.rebuilds);
    check(
        &format!("random seed={seed} deg={degree} events={events}"),
        r.outcome(),
    );
}

/// The `churn` experiment's policy: membership held between 250 and
/// 1000 hosts, so a long trace keeps crossing rebuild boundaries at a
/// steady size instead of growing.
fn steady_trace(seed: u64, degree: u32, events: usize) {
    let target = 500;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut r = Replay::new(degree);
    for _ in 0..events {
        let n = r.live.len();
        if n < target / 2 || (n < target * 2 && rng.random::<f64>() < 0.55) {
            r.join(disk_point(&mut rng));
        } else {
            let i = rng.random_range(0..n);
            r.leave(i);
        }
    }
    assert!(r.rebuilds >= 20, "only {} rebuilds", r.rebuilds);
    check(
        &format!("steady seed={seed} deg={degree} events={events}"),
        r.outcome(),
    );
}

#[test]
fn short_traces() {
    for seed in [0xC0FFEE, 2004] {
        for degree in [2, 4, 6] {
            random_trace(seed, degree, 600);
        }
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "20k-event traces; run in release (scripts/verify.sh, CI dynamic-churn job)"
)]
fn long_traces() {
    for seed in [0xC0FFEE, 2004] {
        for degree in [2, 4, 6] {
            steady_trace(seed, degree, 20_000);
        }
    }
}

/// Joins probes on the far side of the wedge until the source is at its
/// full out-degree; returns whether it got there.
fn fill_source(r: &mut Replay) -> bool {
    let mut angle: f64 = 1.6;
    while angle < 6.0 {
        if r.overlay.snapshot().unwrap().source_out_degree() >= r.degree {
            return true;
        }
        r.join(Point2::new([0.9 * angle.cos(), 0.9 * angle.sin()]));
        angle += 0.37;
    }
    r.overlay.snapshot().unwrap().source_out_degree() >= r.degree
}

/// Removes an interior host (attached below another host, with children
/// of its own) while the source is full, so every orphan must be re-homed
/// without the source; returns whether the scenario fired.
fn interior_leave_under_full_source(r: &mut Replay) -> bool {
    if !fill_source(r) {
        return false;
    }
    let snap = r.overlay.snapshot().unwrap();
    let Some(victim) = (0..snap.len())
        .find(|&i| matches!(snap.parent(i), ParentRef::Node(_)) && !snap.children(i).is_empty())
    else {
        return false;
    };
    r.leave(victim);
    let after = r.overlay.snapshot().unwrap();
    assert!(after.source_out_degree() <= r.degree);
    true
}

#[test]
fn wedge_trace_with_full_source() {
    let degree = 2;
    let mut rng = SmallRng::seed_from_u64(0xFACE);
    let mut r = Replay::new(degree);
    let churn = |r: &mut Replay, rng: &mut SmallRng, steps: usize| {
        for _ in 0..steps {
            if r.live.len() < 8 || rng.random::<f64>() < 0.7 {
                r.join(wedge_point(rng));
            } else {
                let i = rng.random_range(0..r.live.len());
                r.leave(i);
            }
        }
    };
    churn(&mut r, &mut rng, 150);
    r.rebuild();
    let mut fired = u32::from(interior_leave_under_full_source(&mut r));
    for _ in 0..12 {
        churn(&mut r, &mut rng, 20);
        fired += u32::from(interior_leave_under_full_source(&mut r));
    }
    assert!(fired >= 8, "scenario fired only {fired} times");
    check("wedge full-source deg=2", r.outcome());
}

#[test]
fn mass_leave_trace() {
    for degree in [2, 6] {
        let mut rng = SmallRng::seed_from_u64(0xDEAD_0000 + u64::from(degree));
        let mut r = Replay::new(degree);
        for _ in 0..2_000 {
            r.join(disk_point(&mut rng));
        }
        for _ in 0..1_800 {
            let i = rng.random_range(0..r.live.len());
            r.leave(i);
        }
        for _ in 0..100 {
            r.join(disk_point(&mut rng));
        }
        check(&format!("mass-leave deg={degree}"), r.outcome());
    }
}

/// Removes source children and grandchildren of a 20 000-host overlay
/// whose source is full. A source child's orphans are re-homed against
/// subtrees of thousands of hosts with no room at the source, which runs
/// subtree exclusion and the global open-host fallback at scale; the
/// promoted orphan takes the vacated source slot, so the source stays
/// full for the next leave.
fn deep_leave_trace(degree: u32, leaves: usize) {
    let mut rng = SmallRng::seed_from_u64(0xDEE9_0000 + u64::from(degree));
    let mut r = Replay::new(degree);
    for _ in 0..20_000 {
        r.join(disk_point(&mut rng));
    }
    for k in 0..leaves {
        let snap = r.overlay.snapshot().unwrap();
        assert_eq!(snap.source_out_degree(), degree, "source not full");
        let tops: Vec<usize> = snap
            .source_children()
            .iter()
            .map(|&c| c as usize)
            .filter(|&c| !snap.children(c).is_empty())
            .collect();
        let top = tops[rng.random_range(0..tops.len())];
        let inner: Vec<usize> = snap
            .children(top)
            .iter()
            .map(|&c| c as usize)
            .filter(|&c| !snap.children(c).is_empty())
            .collect();
        let victim = if k % 2 == 0 || inner.is_empty() {
            top
        } else {
            inner[rng.random_range(0..inner.len())]
        };
        r.leave(victim);
    }
    check(&format!("deep-leave deg={degree}"), r.outcome());
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "20k-host overlays; run in release (scripts/verify.sh, CI dynamic-churn job)"
)]
fn deep_leaves_with_full_source() {
    for degree in [2, 6] {
        deep_leave_trace(degree, 300);
    }
}

/// `(label, tree fingerprint, radius bits, source out-degree, orphans,
/// rebuilds)`.
const GOLDENS: &[(&str, u64, u64, u32, u64, u64)] = &[
    (
        "random seed=12648430 deg=2 events=600",
        0x2104bb681a50b77f,
        0x4008f8e200817144,
        2,
        191,
        16,
    ),
    (
        "random seed=12648430 deg=4 events=600",
        0x039787677de5415b,
        0x40067e7d62335651,
        4,
        196,
        16,
    ),
    (
        "random seed=12648430 deg=6 events=600",
        0xe297a2a08ca0c4b2,
        0x4000370edfda067d,
        6,
        207,
        16,
    ),
    (
        "random seed=2004 deg=2 events=600",
        0x15b29c2f6a086aef,
        0x4004456ccce15d10,
        2,
        160,
        16,
    ),
    (
        "random seed=2004 deg=4 events=600",
        0x3a988fb99c089964,
        0x4004456ccce15d10,
        4,
        157,
        16,
    ),
    (
        "random seed=2004 deg=6 events=600",
        0xe499a6c91a5c2bf0,
        0x3ffc45a96d978152,
        6,
        146,
        16,
    ),
    (
        "steady seed=12648430 deg=2 events=20000",
        0xf9e485679c9c1f30,
        0x3ffefa6066eabbd4,
        2,
        9435,
        60,
    ),
    (
        "steady seed=12648430 deg=4 events=20000",
        0x604e21f52c3a3a20,
        0x3ffefa6066eabbd4,
        4,
        9546,
        60,
    ),
    (
        "steady seed=12648430 deg=6 events=20000",
        0x4df7875c875e0083,
        0x3ffb02fe43a73ed6,
        6,
        9426,
        60,
    ),
    (
        "steady seed=2004 deg=2 events=20000",
        0xbf2a220c3ce24fe2,
        0x4001be3705e50f28,
        2,
        9391,
        56,
    ),
    (
        "steady seed=2004 deg=4 events=20000",
        0xb7dff40e6ec62030,
        0x40003002afac2b28,
        4,
        9288,
        56,
    ),
    (
        "steady seed=2004 deg=6 events=20000",
        0x7a88f3161d0ad947,
        0x3ffd41e791a2a70a,
        6,
        9073,
        56,
    ),
    (
        "wedge full-source deg=2",
        0x7218c9faa4fba500,
        0x4009308bbbe3f150,
        2,
        138,
        11,
    ),
    (
        "mass-leave deg=2",
        0x462f833cb0b220e5,
        0x4008613e581e4183,
        2,
        1819,
        15,
    ),
    (
        "mass-leave deg=6",
        0x05b3f04e5fa0a129,
        0x40001b60490e70e5,
        6,
        1831,
        15,
    ),
    (
        "deep-leave deg=2",
        0xba01624edf3de10e,
        0x400fbad7ca6b42de,
        2,
        568,
        12,
    ),
    (
        "deep-leave deg=6",
        0x53656d9d67be2515,
        0x3ffc5b24017aeef0,
        6,
        1245,
        12,
    ),
];
