//! Acceptance test for the observability layer (`--features obs`): the
//! phase spans recorded while building a polar-grid tree must cover the
//! build wall-clock, and the counters/histograms must reflect the work
//! actually done.
//!
//! Run with `cargo test -p omt-core --features obs --test obs_trace`.
#![cfg(feature = "obs")]

use std::time::Instant;

use omt_core::{DynamicOverlay, PolarGridBuilder};
use omt_geom::{Disk, Point2, Region};
use omt_rng::rngs::SmallRng;
use omt_rng::SeedableRng;

/// One test function on purpose: the recording mode is process-global
/// (first decision wins), so all assertions share a single activation.
#[test]
fn phase_spans_cover_the_build_and_metrics_match_the_work() {
    if !omt_obs::enable_memory() {
        // An OMT_TRACE file sink was configured for this process; the
        // in-memory assertions below would not see the data.
        eprintln!("skipping: recording mode already fixed externally");
        return;
    }
    let n = 20_000;
    let mut rng = SmallRng::seed_from_u64(77);
    let pts = Disk::unit().sample_n(&mut rng, n);

    // Drop whatever earlier instrumented code put in this thread's
    // registry so the assertions see exactly one build.
    let _ = omt_obs::take_local();
    let wall = Instant::now();
    let tree = PolarGridBuilder::new().build(Point2::ORIGIN, &pts).unwrap();
    let wall_ns = wall.elapsed().as_nanos() as u64;
    assert_eq!(tree.len(), n);

    let reg = omt_obs::take_local();
    let build = reg.span("polar_grid/build").expect("build span missing");
    assert_eq!(build.count, 1);
    // The build span nests strictly inside the measured wall-clock.
    assert!(
        build.total_ns <= wall_ns,
        "span {} ns exceeds wall {} ns",
        build.total_ns,
        wall_ns
    );
    assert!(
        build.total_ns >= wall_ns / 2,
        "span {} ns implausibly small vs wall {} ns",
        build.total_ns,
        wall_ns
    );

    // The five phases tile the build span: together they must account
    // for at least 90% of it (the remainder is glue), and nesting means
    // they can never exceed it.
    let mut phase_sum = 0u64;
    for phase in [
        "polar_grid/partition",
        "polar_grid/reps",
        "polar_grid/core",
        "polar_grid/cells",
        "polar_grid/finish",
    ] {
        let s = reg.span(phase).unwrap_or_else(|| panic!("{phase} missing"));
        assert!(s.count >= 1, "{phase} never entered");
        phase_sum += s.total_ns;
    }
    assert!(
        phase_sum <= build.total_ns,
        "nested phases ({phase_sum} ns) exceed the build span ({} ns)",
        build.total_ns
    );
    assert!(
        phase_sum * 10 >= build.total_ns * 9,
        "phases cover only {phase_sum} of {} ns (< 90%)",
        build.total_ns
    );

    // Counters and histograms reflect the work done.
    assert_eq!(reg.counter("polar_grid/builds"), 1);
    let occupied = reg
        .hist("polar_grid/occupied_cells")
        .expect("occupancy histogram missing");
    assert_eq!(occupied.count, 1);
    assert!(occupied.sum >= 1, "at least one occupied cell");

    // A second build accumulates rather than overwrites.
    let _ = PolarGridBuilder::new().build(Point2::ORIGIN, &pts).unwrap();
    let reg2 = omt_obs::take_local();
    assert_eq!(reg2.counter("polar_grid/builds"), 1);
    assert_eq!(reg2.span("polar_grid/build").map(|s| s.count), Some(1));

    // A store build runs the same path and records the same spans.
    let mut rng = SmallRng::seed_from_u64(77);
    let store = omt_geom::PointStore2::sample_region(Point2::ORIGIN, &Disk::unit(), &mut rng, n);
    let tree = PolarGridBuilder::new().build_store(&store).unwrap();
    assert_eq!(tree.len(), n);
    let reg3 = omt_obs::take_local();
    assert_eq!(reg3.counter("polar_grid/builds"), 1);
    for phase in [
        "polar_grid/build",
        "polar_grid/partition",
        "polar_grid/reps",
    ] {
        assert_eq!(reg3.span(phase).map(|s| s.count), Some(1), "{phase}");
    }
}

#[test]
fn churn_metrics_count_joins_and_leaves() {
    if !omt_obs::enable_memory() {
        eprintln!("skipping: recording mode already fixed externally");
        return;
    }
    let mut rng = SmallRng::seed_from_u64(3);
    let mut overlay = DynamicOverlay::new(Point2::ORIGIN, 4).unwrap();
    let _ = omt_obs::take_local();
    let ids: Vec<_> = Disk::unit()
        .sample_n(&mut rng, 50)
        .into_iter()
        .map(|p| overlay.join(p))
        .collect();
    for id in ids.iter().take(20) {
        overlay.leave(*id).unwrap();
    }
    let reg = omt_obs::take_local();
    assert_eq!(reg.counter("dynamic/joins"), 50);
    assert_eq!(reg.counter("dynamic/leaves"), 20);
    assert_eq!(reg.span("dynamic/join").map(|s| s.count), Some(50));
    assert_eq!(reg.span("dynamic/leave").map(|s| s.count), Some(20));
    let chains = reg.hist("dynamic/chain_len").expect("chain_len missing");
    assert!(chains.count >= 50, "every join walks the parent chain");
    // Parent-search work: every join scans at least its own cell, and
    // the searches cost candidates.
    let cells = reg.counter("dynamic/cells_scanned");
    let probes = reg.counter("dynamic/cost_probes");
    assert!(cells >= 50, "cells_scanned {cells} below the join count");
    assert!(probes > 0, "no attach cost was evaluated");
}

/// The churn phase spans: the rebuild's sub-spans tile it, and a leave
/// records the orphan re-homing span exactly when it orphans hosts.
#[test]
fn churn_phase_spans_tile_the_rebuild() {
    if !omt_obs::enable_memory() {
        eprintln!("skipping: recording mode already fixed externally");
        return;
    }
    let mut rng = SmallRng::seed_from_u64(5);
    let mut overlay = DynamicOverlay::new(Point2::ORIGIN, 2).unwrap();
    let mut live: Vec<_> = Disk::unit()
        .sample_n(&mut rng, 20_000)
        .into_iter()
        .map(|p| overlay.join(p))
        .collect();
    let _ = omt_obs::take_local();
    overlay.rebuild();
    let reg = omt_obs::take_local();
    let rebuild = reg.span("dynamic/rebuild").expect("rebuild span missing");
    assert_eq!(rebuild.count, 1);
    let mut phase_sum = 0u64;
    for phase in [
        "dynamic/rebuild/order",
        "dynamic/rebuild/build",
        "dynamic/rebuild/index",
    ] {
        let s = reg.span(phase).unwrap_or_else(|| panic!("{phase} missing"));
        assert_eq!(s.count, 1, "{phase}");
        phase_sum += s.total_ns;
    }
    assert!(
        phase_sum <= rebuild.total_ns,
        "nested phases ({phase_sum} ns) exceed the rebuild span ({} ns)",
        rebuild.total_ns
    );
    assert!(
        phase_sum * 10 >= rebuild.total_ns * 9,
        "phases cover only {phase_sum} of {} ns (< 90%)",
        rebuild.total_ns
    );

    // Snapshot host i is live[i] (join order). An interior leave
    // re-homes its orphans; a leaf leave has none to re-home.
    let snap = overlay.snapshot().unwrap();
    let interior = (0..snap.len())
        .find(|&i| !snap.children(i).is_empty())
        .expect("an interior host");
    overlay.leave(live.remove(interior)).unwrap();
    let reg = omt_obs::take_local();
    assert_eq!(reg.span("dynamic/rehome").map(|s| s.count), Some(1));
    let snap = overlay.snapshot().unwrap();
    let leaf = (0..snap.len())
        .find(|&i| snap.children(i).is_empty())
        .expect("a leaf");
    overlay.leave(live.remove(leaf)).unwrap();
    let reg = omt_obs::take_local();
    assert_eq!(reg.span("dynamic/leave").map(|s| s.count), Some(1));
    assert!(
        reg.span("dynamic/rehome").is_none(),
        "a leaf leave re-homed"
    );
}
