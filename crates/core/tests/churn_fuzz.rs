//! Every-event invariant fuzzing for [`DynamicOverlay`].
//!
//! Each workload replays a seeded membership trace (joins : leaves ≈ 2 : 1)
//! and, after **every** event, re-verifies the overlay's internal
//! invariants from scratch (`assert_invariants`: spanning, acyclic,
//! alive-consistency, degree ≤ budget including the source, cache and
//! index exactness) *and* materializes a full snapshot and validates it
//! with the tree crate's independent checker. Rebuild boundaries are
//! crossed naturally many times per trace, so every invariant is exercised
//! both before and after `maybe_rebuild` fires. `churn_goldens.rs` pins
//! what the overlay builds; this suite proves each step of it is valid.

use omt_core::{BuildError, DynamicOverlay};
use omt_geom::Point2;
use omt_rng::rngs::SmallRng;
use omt_rng::{RngExt, SeedableRng};
use omt_tree::ParentRef;

/// Replays `events` membership events at the given degree, validating the
/// overlay after every single one. Returns the number of leave events.
fn churn_and_validate(degree: u32, seed: u64, events: usize) -> usize {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut overlay = DynamicOverlay::new(Point2::ORIGIN, degree).unwrap();
    // Live ids in join order (ids are monotone, removal preserves order),
    // mirroring the snapshot's documented host order.
    let mut live = Vec::new();
    let mut leaves = 0;
    for _ in 0..events {
        if live.len() < 8 || rng.random::<f64>() < 2.0 / 3.0 {
            let p = Point2::new([rng.random_range(-1.0..1.0), rng.random_range(-1.0..1.0)]);
            live.push(overlay.join(p));
        } else {
            let i = rng.random_range(0..live.len());
            let id = live.remove(i);
            overlay.leave(id).unwrap();
            // A departed id must stay invalid forever (ids never recycle).
            assert!(matches!(
                overlay.leave(id),
                Err(BuildError::UnknownHost { .. })
            ));
            leaves += 1;
        }
        overlay.assert_invariants();
        let tree = overlay.snapshot().unwrap();
        tree.validate(Some(degree)).unwrap();
        assert_eq!(tree.len(), live.len());
        assert!(
            (overlay.radius() - tree.radius()).abs() <= 1e-9 * (1.0 + tree.radius()),
            "cached radius {} disagrees with snapshot radius {}",
            overlay.radius(),
            tree.radius()
        );
    }
    assert_eq!(overlay.len(), live.len());
    leaves
}

#[test]
fn every_event_invariants_degree_2() {
    let leaves = churn_and_validate(2, 0xC0FFEE_02, 2000);
    assert!(leaves > 400, "workload produced too few leaves: {leaves}");
}

#[test]
fn every_event_invariants_degree_4() {
    let leaves = churn_and_validate(4, 0xC0FFEE_04, 2000);
    assert!(leaves > 400, "workload produced too few leaves: {leaves}");
}

#[test]
fn every_event_invariants_degree_6() {
    let leaves = churn_and_validate(6, 0xC0FFEE_06, 2000);
    assert!(leaves > 400, "workload produced too few leaves: {leaves}");
}

/// Snapshot host `i` of an overlay whose live ids (join order) are
/// `live`: returns an interior host — attached below another host, with
/// children of its own — if one exists.
fn find_interior(tree: &omt_tree::MulticastTree<2>) -> Option<usize> {
    (0..tree.len())
        .find(|&i| matches!(tree.parent(i), ParentRef::Node(_)) && !tree.children(i).is_empty())
}

/// A workload position inside a narrow angular wedge, leaving the rest of
/// the disk empty so source-filling probes (see [`fill_source`]) work.
fn wedge_point(rng: &mut SmallRng) -> Point2 {
    let theta: f64 = rng.random_range(0.0..1.0);
    let r: f64 = rng.random_range(0.2..1.0);
    Point2::new([r * theta.cos(), r * theta.sin()])
}

/// Drives the source to its full out-degree budget by joining probe hosts
/// in the half-plane opposite the workload wedge: a join whose entire
/// ancestor-cell chain holds no open host attaches directly to the
/// source. Returns true once the source is full.
fn fill_source(
    overlay: &mut DynamicOverlay,
    live: &mut Vec<omt_core::HostId>,
    degree: u32,
) -> bool {
    let mut angle: f64 = 1.6;
    while angle < 6.0 {
        if overlay.snapshot().unwrap().source_out_degree() >= degree {
            return true;
        }
        live.push(overlay.join(Point2::new([0.9 * angle.cos(), 0.9 * angle.sin()])));
        angle += 0.37;
    }
    overlay.snapshot().unwrap().source_out_degree() >= degree
}

/// Regression for the degree-cap hole fixed in this change: the old
/// `find_parent_for_excluding` answered "attach to the source" whenever no
/// open candidate survived the banned-subtree filter, without checking
/// source capacity. Drive the overlay (public API only) into states where
/// the source is at its full out-degree budget, then remove an interior
/// host so its orphans must be re-homed — once right after an explicit
/// rebuild and repeatedly mid-churn, so the scenario is exercised on both
/// sides of a `maybe_rebuild` boundary.
#[test]
fn interior_leave_with_full_source_regression() {
    for degree in [2u32, 4, 6] {
        let mut exercised_fresh = 0;
        let mut exercised_churned = 0;
        for seed in 0..40u64 {
            let mut rng = SmallRng::seed_from_u64(0xFACE_0000 + seed * 31 + u64::from(degree));
            let mut overlay = DynamicOverlay::new(Point2::ORIGIN, degree).unwrap();
            let mut live = Vec::new();
            for _ in 0..150 {
                if live.len() < 8 || rng.random::<f64>() < 0.7 {
                    live.push(overlay.join(wedge_point(&mut rng)));
                } else {
                    let i = rng.random_range(0..live.len());
                    overlay.leave(live.remove(i)).unwrap();
                }
            }
            // Once on a freshly rebuilt overlay (churn counter just reset,
            // so the interior leave lands before the next rebuild
            // boundary) …
            overlay.rebuild();
            overlay.assert_invariants();
            if fill_source(&mut overlay, &mut live, degree)
                && interior_leave_under_full_source(&mut overlay, &mut live, degree)
            {
                exercised_fresh += 1;
            }
            // … and repeatedly mid-churn, with rebuilds triggering on
            // their own schedule between attempts.
            for _ in 0..5 {
                for _ in 0..20 {
                    if live.len() < 8 || rng.random::<f64>() < 0.7 {
                        live.push(overlay.join(wedge_point(&mut rng)));
                    } else {
                        let i = rng.random_range(0..live.len());
                        overlay.leave(live.remove(i)).unwrap();
                    }
                }
                if fill_source(&mut overlay, &mut live, degree)
                    && interior_leave_under_full_source(&mut overlay, &mut live, degree)
                {
                    exercised_churned += 1;
                }
            }
        }
        assert!(
            exercised_fresh >= 5 && exercised_churned >= 10,
            "degree {degree}: regression scenario under-exercised \
             (fresh {exercised_fresh}, churned {exercised_churned})"
        );
    }
}

/// If the source is currently full and an interior host exists, removes
/// that host and validates everything; returns whether the scenario fired.
fn interior_leave_under_full_source(
    overlay: &mut DynamicOverlay,
    live: &mut Vec<omt_core::HostId>,
    degree: u32,
) -> bool {
    let tree = overlay.snapshot().unwrap();
    if tree.source_out_degree() < degree {
        return false;
    }
    let Some(victim) = find_interior(&tree) else {
        return false;
    };
    // Snapshot order is join order, which `live` mirrors.
    let id = live.remove(victim);
    overlay.leave(id).unwrap();
    overlay.assert_invariants();
    let after = overlay.snapshot().unwrap();
    after.validate(Some(degree)).unwrap();
    assert!(
        after.source_out_degree() <= degree,
        "re-homing over-attached the source: {} > {degree}",
        after.source_out_degree()
    );
    true
}
