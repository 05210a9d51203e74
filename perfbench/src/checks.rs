//! Output checks. Each returns `Err(reason)` instead of panicking so a
//! broken output counts as a failed op rather than aborting the run.

use omt_core::{DynamicOverlay, PolarGridReport};
use omt_proto::ProtoReport;
use omt_tree::MulticastTree;

/// A tree over `n` hosts that validates under out-degree cap `cap` and
/// has a finite radius.
pub fn tree<const D: usize>(t: &MulticastTree<D>, n: usize, cap: u32) -> Result<(), String> {
    if t.len() != n {
        return Err(format!("tree spans {} hosts, expected {n}", t.len()));
    }
    t.validate(Some(cap)).map_err(|e| e.to_string())?;
    if !t.radius().is_finite() {
        return Err("non-finite radius".into());
    }
    Ok(())
}

/// A `Polar_Grid` report whose delay is the tree's radius and lies
/// between the star lower bound and the equation-(7) bound; the upper
/// bound is checked only where it is proven (`upper`).
pub fn report<const D: usize>(
    t: &MulticastTree<D>,
    r: &PolarGridReport,
    upper: bool,
) -> Result<(), String> {
    if r.delay != t.radius() {
        return Err(format!(
            "report delay {} != tree radius {}",
            r.delay,
            t.radius()
        ));
    }
    if r.lower_bound > r.delay {
        return Err(format!(
            "delay {} below the star bound {}",
            r.delay, r.lower_bound
        ));
    }
    if upper && r.delay > r.bound {
        return Err(format!(
            "delay {} above the eq-7 bound {}",
            r.delay, r.bound
        ));
    }
    Ok(())
}

/// A churned overlay: its snapshot validates under the overlay's cap and
/// the maintenance invariants hold.
pub fn overlay(o: &DynamicOverlay, snap: &MulticastTree<2>) -> Result<(), String> {
    tree(snap, o.len(), o.max_out_degree())?;
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| o.assert_invariants())).map_err(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()));
        format!("overlay invariant: {}", msg.unwrap_or_default())
    })
}

/// A healed protocol run: no orphans among the alive hosts, a valid
/// parent forest under `cap`, the cap respected everywhere, and every
/// scheduled crash applied.
pub fn proto(r: &ProtoReport, cap: u32, crashes: usize) -> Result<(), String> {
    if r.orphans != 0 {
        return Err(format!(
            "{} orphans among {} alive hosts",
            r.orphans, r.alive
        ));
    }
    let forest = r.forest.as_ref().ok_or("no parent forest")?;
    omt_tree::validate_parent_forest(forest, Some(cap)).map_err(|e| e.to_string())?;
    if r.max_out_degree > cap {
        return Err(format!("out-degree {} > cap {cap}", r.max_out_degree));
    }
    if r.departed != crashes {
        return Err(format!(
            "{} departed, {crashes} crashes scheduled",
            r.departed
        ));
    }
    if !(r.radius.is_finite() && r.stretch.is_finite()) {
        return Err("non-finite radius".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use omt_geom::Point2;
    use omt_tree::TreeBuilder;

    #[test]
    fn a_tree_over_its_degree_cap_fails_the_check() {
        let pts: Vec<Point2> = (1..=4).map(|i| Point2::new([f64::from(i), 0.0])).collect();
        let mut b = TreeBuilder::new(Point2::ORIGIN, pts);
        b.attach_to_source(0).unwrap();
        for c in 1..4 {
            b.attach(c, 0).unwrap();
        }
        let star = b.finish().unwrap();
        assert!(tree(&star, 4, 3).is_ok());
        let err = tree(&star, 4, 2).unwrap_err();
        assert!(err.contains("degree"), "{err}");
        assert!(tree(&star, 5, 3).is_err());
    }
}
