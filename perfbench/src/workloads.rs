//! The four workloads. Each is a closed loop with one caller: an op is
//! issued only after the previous one returned and was timed; output
//! checks run after the op's clock stops.
//!
//! A run measures in *rounds*: a fixed list of ops on inputs made from
//! the seed during set-up, repeated whole until the next round would
//! overrun the time budget (at least one round). Faster code runs more
//! rounds of the same ops, never other ops, so the same seed measures the
//! same work on every commit. Set-up ends by resetting the peak-memory
//! mark, so `peak_rss_mb` covers the rounds. A traced run spends the first
//! half of its budget untraced and the second half traced, so it can
//! report its own tracing overhead.
//!
//! Every time that feeds an end-to-end metric is CPU time of the process
//! ([`cpu_ns`]), except `churn_steady`'s per-event times, which are too
//! short for that clock and use the monotonic clock. The budget itself,
//! the per-layer spans and `par.speedup_t2` use the wall clock.

use std::time::Instant;

use omt_core::{DynamicOverlay, HostId, PolarGridBuilder, SphereGridBuilder};
use omt_geom::{Ball, Disk, Point2, Point3, PointStore2, Region};
use omt_proto::{ProtoConfig, ProtoReport, ProtoSim};
use omt_rng::rngs::SmallRng;
use omt_rng::{RngExt, SeedableRng};
use omt_sim::{FaultPlan, Partition};

use crate::checks;
use crate::contract;
use crate::metrics::{cpu_ns, median, peak_rss_mb, percentile, reset_peak_rss, tail, Outcome};
use crate::trace::Tracer;

/// Input sizes. [`Scale::FULL`] is the benchmark; [`Scale::TINY`] keeps
/// the same code paths at a size for smoke tests.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Hosts per `bulk_store` build.
    pub bulk_n: usize,
    /// Requests per `session_mix` round (a multiple of 8).
    pub session_requests: usize,
    /// Smallest and largest `session_mix` request.
    pub session_sizes: (usize, usize),
    /// Points in each `session_mix` input pool (2-D and 3-D).
    pub session_pool: usize,
    /// Hosts in the prefilled `churn_steady` overlay.
    pub churn_n: usize,
    /// Membership events replayed on each `churn_steady` population.
    pub churn_events: usize,
    /// Hosts in a `proto_heal` run.
    pub proto_n: usize,
    /// Independent `proto_heal` runs per round.
    pub proto_instances: usize,
    /// `churn_steady` populations, each set up once.
    pub populations: usize,
    /// Times the other workloads repeat their set-up.
    pub setup_reps: usize,
    /// `snapshot()` calls per `churn_steady` population and round.
    pub snapshot_reps: usize,
}

impl Scale {
    /// The benchmark's sizes.
    pub const FULL: Self = Self {
        bulk_n: 2_000_000,
        session_requests: 1024,
        session_sizes: (1_000, 100_000),
        session_pool: 200_000,
        churn_n: 1_000_000,
        churn_events: 400_000,
        proto_n: 50_000,
        proto_instances: 4,
        populations: 3,
        setup_reps: 11,
        snapshot_reps: 2,
    };

    /// Smoke-test sizes.
    pub const TINY: Self = Self {
        bulk_n: 3_000,
        session_requests: 16,
        session_sizes: (50, 2_000),
        session_pool: 4_000,
        churn_n: 2_000,
        churn_events: 2_000,
        proto_n: 300,
        proto_instances: 2,
        populations: 2,
        setup_reps: 2,
        snapshot_reps: 2,
    };
}

/// One run's settings.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
}

/// Runs workload `name`, or returns `None` for an unknown name.
pub fn run(name: &str, cfg: &Config, tr: &mut Tracer) -> Option<Outcome> {
    let (wall0, cpu0) = (Instant::now(), cpu_ns());
    let mut out = match name {
        "bulk_store" => bulk_store(cfg, tr),
        "session_mix" => session_mix(cfg, tr),
        "churn_steady" => churn_steady(cfg, tr),
        "proto_heal" => proto_heal(cfg, tr),
        _ => return None,
    };
    out.set("peak_rss_mb", peak_rss_mb());
    out.note(format!(
        "clocks: {:.3} s wall, {:.3} s CPU",
        wall0.elapsed().as_secs_f64(),
        cpu_since(cpu0) / 1e9
    ));
    if cfg.trace {
        for (layer, ns) in tr.self_ns_by_layer() {
            out.set(&format!("layer.{layer}.self_ms"), ns as f64 / 1e6);
        }
    }
    Some(out)
}

/// An independent generator for input stream `stream` of seed `seed`.
fn rng(seed: u64, stream: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream)
}

fn ns_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// CPU nanoseconds since the [`cpu_ns`] reading `t`.
fn cpu_since(t: f64) -> f64 {
    cpu_ns() - t
}

/// Calls `round()` until the next round would overrun `seconds` (judged
/// by the last round's length), but at least once.
fn rounds(seconds: f64, mut round: impl FnMut()) {
    let start = Instant::now();
    loop {
        let t = Instant::now();
        round();
        let last = t.elapsed().as_secs_f64();
        if start.elapsed().as_secs_f64() + last > seconds {
            return;
        }
    }
}

/// Untraced: `measure` over the whole budget. Traced: an untraced half,
/// then a traced half; returns the tracing overhead in percent, judged
/// by the medians of the op times `measure` returns for each half.
fn halves(
    cfg: &Config,
    tr: &mut Tracer,
    mut measure: impl FnMut(&mut Tracer, f64) -> Vec<f64>,
) -> Option<f64> {
    if !cfg.trace {
        measure(tr, cfg.seconds);
        return None;
    }
    tr.set_on(false);
    let plain = median(&measure(tr, cfg.seconds / 2.0));
    tr.set_on(true);
    let traced = median(&measure(tr, cfg.seconds / 2.0));
    Some(100.0 * (traced / plain - 1.0))
}

/// The span `name`'s durations in ms, median.
fn span_median_ms(tr: &Tracer, name: &str) -> f64 {
    let d: Vec<f64> = tr.durations(name).iter().map(|&n| n as f64 / 1e6).collect();
    median(&d)
}

/// `bulk_store`: pack a 2M-host `PointStore2`, then build it through the
/// store path at two threads, degree 6 then 2 in every round.
fn bulk_store(cfg: &Config, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let n = cfg.scale.bulk_n;
    let mut setup = Vec::new();
    let mut pts = Vec::new();
    for _ in 0..cfg.scale.setup_reps {
        let t = cpu_ns();
        pts = tr.span("geom.sample", || {
            Disk::unit().sample_n(&mut rng(cfg.seed, 1), n)
        });
        setup.push(cpu_since(t) / 1e9);
    }
    out.set("setup_s", median(&setup));
    out.set("geom.sample_s", median(&setup));
    out.note(format!(
        "bulk_store: n={n} degrees 6,2 threads(2) via build_store_with_report"
    ));
    reset_peak_rss();

    let (mut pair_ns, mut pack_ns, mut deg6_ns) = (Vec::new(), Vec::new(), Vec::new());
    let (mut stretch, mut points, mut op_total) = (Vec::new(), 0.0, 0.0);
    let mut first_radius: Option<u64> = None;
    let overhead = halves(cfg, tr, |tr, seconds| {
        let mut half = Vec::new();
        rounds(seconds, || {
            let mut pair = 0.0;
            for d in [6u32, 2] {
                tr.next_op();
                let t = cpu_ns();
                let op = tr.begin("bench.op");
                let store = tr.span("geom.pack", || {
                    PointStore2::from_points(Point2::ORIGIN, &pts)
                });
                let pack = cpu_since(t);
                let tb = Instant::now();
                let built = tr.span("core.polar_build", || {
                    PolarGridBuilder::new()
                        .max_out_degree(d)
                        .threads(2)
                        .build_store_with_report(&store)
                });
                let build = ns_since(tb);
                tr.end(op);
                let op_ns = cpu_since(t);
                drop(store);
                pack_ns.push(pack);
                if d == 6 {
                    deg6_ns.push(build);
                }
                pair += op_ns / 2.0;
                op_total += op_ns;
                let checked = built.map_err(|e| e.to_string()).and_then(|(tree, rep)| {
                    checks::tree(&tree, n, d)?;
                    checks::report(&tree, &rep, true)?;
                    stretch.push(tree.radius() / rep.lower_bound);
                    first_radius.get_or_insert(tree.radius().to_bits());
                    points += n as f64;
                    Ok(())
                });
                out.check(&format!("bulk build deg {d}"), checked);
            }
            pair_ns.push(pair);
            half.push(pair);
        });
        half
    });
    let ops = 2.0 * pair_ns.len() as f64;
    out.set("op_p50_us", median(&pair_ns) / 1e3);
    out.set("op_p99_us", tail(&pair_ns) / 1e3);
    out.set("build_pts_per_s", points / (op_total / 1e9));
    out.set("events_per_s", ops / (op_total / 1e9));
    out.set("radius_stretch", median(&stretch));
    out.note(format!(
        "samples: {} rounds of a deg-6 + deg-2 pair (op = pair mean; op_p99 = largest)",
        pair_ns.len()
    ));
    out.note(format!(
        "fingerprint: first tree radius bits {:#018x}",
        first_radius.unwrap_or(0)
    ));

    if let Some(pct) = overhead {
        out.set("trace.overhead_pct", pct);
        out.set("geom.pack_ms", median(&pack_ns) / 1e6);
        out.set(
            "core.polar_build_ms",
            span_median_ms(tr, "core.polar_build"),
        );
        // One serial repeat of the degree-6 build gives the two-thread
        // speed-up and, by Amdahl's law at two threads, the serial share.
        let store = PointStore2::from_points(Point2::ORIGIN, &pts);
        let t = Instant::now();
        let built = tr.span("core.polar_build_t1", || {
            PolarGridBuilder::new()
                .max_out_degree(6)
                .threads(1)
                .build_store_with_report(&store)
        });
        let t1 = ns_since(t);
        let checked = built.map_err(|e| e.to_string()).and_then(|(tree, rep)| {
            checks::tree(&tree, n, 6)?;
            checks::report(&tree, &rep, true)?;
            if Some(tree.radius().to_bits()) != first_radius {
                return Err("one-thread radius differs from two-thread radius".into());
            }
            Ok(())
        });
        out.check("bulk build deg 6 threads(1)", checked);
        let speedup = t1 / median(&deg6_ns);
        out.set("par.speedup_t2", speedup);
        out.set("par.serial_frac", 2.0 / speedup - 1.0);
    }
    out
}

/// One `session_mix` request: `n` points from offset `off` of the pool of
/// dimension `dim`, built at out-degree `degree`.
#[derive(Clone, Copy, Debug)]
struct Request {
    dim: u8,
    degree: u32,
    n: usize,
    off: usize,
}

/// The `session_mix` requests: sizes stratified over a log-uniform range,
/// so every seed has the same size profile; in every eight consecutive
/// strata six requests are 2-D (degrees 6 and 2 alternating) and two are
/// 3-D (degrees 10 and 2); order shuffled.
fn session_requests(seed: u64, s: &Scale) -> Vec<Request> {
    let mut r = rng(seed, 100);
    let b = s.session_requests;
    let (lo, hi) = (s.session_sizes.0 as f64, s.session_sizes.1 as f64);
    let mut reqs = Vec::with_capacity(b);
    for g in 0..b / 8 {
        let mut kinds = [
            (2, 6),
            (2, 2),
            (2, 6),
            (2, 2),
            (2, 6),
            (2, 2),
            (3, 10),
            (3, 2),
        ];
        r.shuffle(&mut kinds);
        for (j, (dim, degree)) in kinds.into_iter().enumerate() {
            let u = ((g * 8 + j) as f64 + r.random::<f64>()) / b as f64;
            let n = (lo * (hi / lo).powf(u)).round() as usize;
            let off = r.random_range(0..=s.session_pool - n);
            reqs.push(Request {
                dim,
                degree,
                n,
                off,
            });
        }
    }
    r.shuffle(&mut reqs);
    reqs
}

/// `session_mix`: a stream of independent single-threaded tree requests
/// through the slice builders, 2-D and 3-D.
fn session_mix(cfg: &Config, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let s = cfg.scale;
    let mut setup = Vec::new();
    let (mut pool2, mut pool3, mut reqs) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..s.setup_reps {
        let t = cpu_ns();
        (pool2, pool3, reqs) = tr.span("geom.sample", || {
            let p2 = Disk::unit().sample_n(&mut rng(cfg.seed, 2), s.session_pool);
            let p3 = Ball::<3>::unit().sample_n(&mut rng(cfg.seed, 3), s.session_pool);
            (p2, p3, session_requests(cfg.seed, &s))
        });
        setup.push(cpu_since(t) / 1e9);
    }
    out.set("setup_s", median(&setup));
    out.set("geom.sample_s", median(&setup));
    out.note(format!(
        "session_mix: {} requests per round, sizes {}..{} log-uniform, threads(1)",
        s.session_requests, s.session_sizes.0, s.session_sizes.1
    ));
    reset_peak_rss();

    let (mut op_ns, mut points, mut stretch) = (Vec::new(), 0.0, Vec::new());
    let mut first_radius: Option<u64> = None;
    let mut round_no = 0;
    let overhead = halves(cfg, tr, |tr, seconds| {
        let mut half = Vec::new();
        rounds(seconds, || {
            for q in &reqs {
                tr.next_op();
                let t = cpu_ns();
                let op = tr.begin("bench.op");
                let checked = if q.dim == 2 {
                    let input = &pool2[q.off..q.off + q.n];
                    let built = tr.span("core.polar_build", || {
                        PolarGridBuilder::new()
                            .max_out_degree(q.degree)
                            .threads(1)
                            .build_with_report(Point2::ORIGIN, input)
                    });
                    tr.end(op);
                    half.push(cpu_since(t));
                    built.map_err(|e| e.to_string()).and_then(|(tree, rep)| {
                        checks::tree(&tree, q.n, q.degree)?;
                        checks::report(&tree, &rep, true)?;
                        Ok((tree.radius(), rep.lower_bound))
                    })
                } else {
                    let input = &pool3[q.off..q.off + q.n];
                    let built = tr.span("core.sphere_build", || {
                        SphereGridBuilder::new()
                            .max_out_degree(q.degree)
                            .threads(1)
                            .build_with_report(Point3::ORIGIN, input)
                    });
                    tr.end(op);
                    half.push(cpu_since(t));
                    built.map_err(|e| e.to_string()).and_then(|(tree, rep)| {
                        checks::tree(&tree, q.n, q.degree)?;
                        checks::report(&tree, &rep, false)?;
                        Ok((tree.radius(), rep.lower_bound))
                    })
                };
                let checked = checked.map(|(radius, lb)| {
                    points += q.n as f64;
                    first_radius.get_or_insert(radius.to_bits());
                    // Mean stretch over the first round only, so it does
                    // not depend on how many rounds fit the budget.
                    if round_no == 0 {
                        stretch.push(radius / lb);
                    }
                });
                out.check(&format!("{}-D request n={}", q.dim, q.n), checked);
            }
            round_no += 1;
        });
        op_ns.extend_from_slice(&half);
        half
    });
    let total_s = op_ns.iter().sum::<f64>() / 1e9;
    out.set("op_p50_us", median(&op_ns) / 1e3);
    out.set("op_p99_us", tail(&op_ns) / 1e3);
    out.set("build_pts_per_s", points / total_s);
    out.set("events_per_s", op_ns.len() as f64 / total_s);
    out.set(
        "radius_stretch",
        stretch.iter().sum::<f64>() / stretch.len().max(1) as f64,
    );
    out.note(format!(
        "samples: {} requests in {round_no} rounds",
        op_ns.len()
    ));
    out.note(format!(
        "fingerprint: first tree radius bits {:#018x}",
        first_radius.unwrap_or(0)
    ));
    if let Some(pct) = overhead {
        out.set("trace.overhead_pct", pct);
        out.set(
            "core.polar_build_ms",
            span_median_ms(tr, "core.polar_build"),
        );
        out.set(
            "core.sphere_build_ms",
            span_median_ms(tr, "core.sphere_build"),
        );
    }
    out
}

/// One replayed membership event.
#[derive(Clone, Copy, Debug)]
enum Event {
    Join(Point2),
    /// Leave of the live host at index `r % live` of the replay's list.
    Leave(u64),
}

/// One `churn_steady` population: the prefilled overlay, its host ids in
/// join order, and the trace replayed on it.
struct Population {
    base: DynamicOverlay,
    ids: Vec<HostId>,
    events: Vec<Event>,
}

/// Hosts of `churn_steady` population `j` and its trace of equal joins
/// and leaves in random order.
fn churn_inputs(seed: u64, j: usize, s: &Scale) -> (Vec<Point2>, Vec<Event>) {
    let mut r = rng(seed, 40 + j as u64);
    let pts = Disk::unit().sample_n(&mut r, s.churn_n);
    let mut joins: Vec<bool> = (0..s.churn_events).map(|i| i % 2 == 0).collect();
    r.shuffle(&mut joins);
    let events = joins
        .into_iter()
        .map(|j| {
            if j {
                Event::Join(Disk::unit().sample(&mut r))
            } else {
                Event::Leave(r.random::<u64>())
            }
        })
        .collect();
    (pts, events)
}

/// `churn_steady`: 1M-host degree-6 overlays, each set up from its own
/// population, then in every round each population's trace of equal joins
/// and leaves replayed on a fresh clone of it. A round covers every
/// population because the per-event cost differs between populations by
/// up to about 20%.
fn churn_steady(cfg: &Config, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let s = cfg.scale;
    let (mut setup, mut sample, mut prefill) = (Vec::new(), Vec::new(), Vec::new());
    let mut pops = Vec::new();
    for j in 0..s.populations {
        let t = cpu_ns();
        let (pts, events) = tr.span("geom.sample", || churn_inputs(cfg.seed, j, &s));
        sample.push(cpu_since(t) / 1e9);
        let tp = cpu_ns();
        let (base, ids) = tr.span("core.prefill", || {
            let mut o = DynamicOverlay::new(Point2::ORIGIN, 6).expect("degree 6 at the origin");
            let ids: Vec<HostId> = pts.iter().map(|&p| o.join(p)).collect();
            (o, ids)
        });
        prefill.push(cpu_since(tp) / 1e9);
        setup.push(cpu_since(t) / 1e9);
        pops.push(Population { base, ids, events });
    }
    out.set("setup_s", median(&setup));
    out.set("geom.sample_s", median(&sample));
    out.set("core.prefill_s", median(&prefill));
    out.note(format!(
        "churn_steady: {} populations of {} hosts at degree 6, {} events each per round (half joins)",
        s.populations, s.churn_n, s.churn_events
    ));
    reset_peak_rss();

    let (mut ev_ns, mut snap_ns, mut replay_cpu_ns) = (Vec::new(), Vec::new(), 0.0);
    // Per population, the stretch and radius bits of its first replay.
    let mut first: Vec<Option<(f64, u64)>> = vec![None; pops.len()];
    let mut n_rounds = 0;
    let overhead = halves(cfg, tr, |tr, seconds| {
        let mut half = Vec::new();
        rounds(seconds, || {
            for (j, pop) in pops.iter().enumerate() {
                let mut o = tr.span("core.clone", || pop.base.clone());
                let mut live = pop.ids.clone();
                let replay = cpu_ns();
                for ev in &pop.events {
                    tr.next_op();
                    match *ev {
                        Event::Join(p) => {
                            let t = Instant::now();
                            let id = tr.span("core.join", || o.join(p));
                            half.push(ns_since(t));
                            live.push(id);
                            out.check("join", Ok(()));
                        }
                        Event::Leave(r) => {
                            let id = live.swap_remove((r % live.len() as u64) as usize);
                            let t = Instant::now();
                            let left = tr.span("core.leave", || o.leave(id));
                            half.push(ns_since(t));
                            out.check("leave", left.map_err(|e| e.to_string()));
                        }
                    }
                }
                replay_cpu_ns += cpu_since(replay);
                let mut snap = None;
                for _ in 0..s.snapshot_reps {
                    let t = cpu_ns();
                    snap = Some(tr.span("core.snapshot", || o.snapshot()));
                    snap_ns.push(cpu_since(t));
                }
                let checked = snap
                    .expect("at least one snapshot")
                    .map_err(|e| e.to_string())
                    .and_then(|snap| {
                        checks::overlay(&o, &snap)?;
                        let star = snap.points().iter().map(|p| p.norm()).fold(0.0, f64::max);
                        first[j].get_or_insert((snap.radius() / star, snap.radius().to_bits()));
                        Ok(())
                    });
                out.check("churned overlay", checked);
            }
            n_rounds += 1;
        });
        ev_ns.extend_from_slice(&half);
        half
    });
    out.set("op_p50_us", median(&ev_ns) / 1e3);
    out.set("op_p99_us", tail(&ev_ns) / 1e3);
    out.set("events_per_s", ev_ns.len() as f64 / (replay_cpu_ns / 1e9));
    out.set(
        "build_pts_per_s",
        s.churn_n as f64 / (median(&snap_ns) / 1e9),
    );
    let stretch: Vec<f64> = first.iter().flatten().map(|&(st, _)| st).collect();
    out.set("radius_stretch", median(&stretch));
    out.note(format!(
        "samples: {} events in {n_rounds} rounds",
        ev_ns.len()
    ));
    for (j, f) in first.iter().enumerate() {
        out.note(format!(
            "fingerprint {j}: final overlay radius bits {:#018x}",
            f.map_or(0, |(_, bits)| bits)
        ));
    }

    if let Some(pct) = overhead {
        out.set("trace.overhead_pct", pct);
        let us =
            |name| -> Vec<f64> { tr.durations(name).iter().map(|&n| n as f64 / 1e3).collect() };
        let (join, leave) = (us("core.join"), us("core.leave"));
        out.set("core.join_us.p50", median(&join));
        out.set("core.join_us.p99", percentile(&join, 99.0));
        out.set("core.leave_us.p50", median(&leave));
        out.set("core.leave_us.p99", percentile(&leave, 99.0));
        let (js, ls) = (join.iter().sum::<f64>(), leave.iter().sum::<f64>());
        out.set("core.leave_share", ls / (js + ls));
        let mut o = pops[0].base.clone();
        let t = Instant::now();
        tr.span("core.rebuild", || o.rebuild());
        out.set("core.rebuild_ms", ns_since(t) / 1e6);
        let checked = o
            .snapshot()
            .map_err(|e| e.to_string())
            .and_then(|snap| checks::overlay(&o, &snap));
        out.check("rebuilt overlay", checked);
    }
    out
}

/// The `proto` experiment's fault mix (5% loss, 2% duplicates, jitter
/// 0.3, a partition from t=5 to t=15) plus the given crashes.
fn proto_config(n: usize, rings: u32, crashes: Vec<(f64, u32)>) -> ProtoConfig {
    let mut c = ProtoConfig::for_n(n, 6);
    c.rings = rings;
    c.hgrid = false;
    c.faults = FaultPlan {
        drop_p: 0.05,
        dup_p: 0.02,
        jitter: 0.3,
        fault_until: 25.0,
        partitions: vec![Partition {
            start: 5.0,
            end: 15.0,
            bit: 1,
        }],
    };
    c.quiet_after = c.faults.fault_until + 80.0;
    c.deadline = c.quiet_after + 340.0;
    c.crashes = crashes;
    c
}

/// One `proto_heal` instance: its hosts, configuration and seed.
struct Instance {
    pts: Vec<Point2>,
    cfg: ProtoConfig,
    seed: u64,
}

/// Hosts of `proto_heal` instance `j`, uniform in the disk, and crashes
/// of 1% of them at uniform times in the join window.
fn proto_inputs(seed: u64, j: usize, n: usize) -> (Vec<Point2>, Vec<(f64, u32)>) {
    let mut r = rng(seed, 50 + j as u64);
    let pts = Disk::unit().sample_n(&mut r, n);
    let mut ids: Vec<u32> = (1..=n as u32).collect();
    r.shuffle(&mut ids);
    let crashes = ids[..(n / 100).max(1)]
        .iter()
        .map(|&id| (r.random::<f64>() * 10.0, id))
        .collect();
    (pts, crashes)
}

/// `proto_heal`: the decentralized protocol over a faulty network to
/// quiescence, against a centralized build on the same hosts. A round runs
/// several independent instances because one protocol tree's radius
/// varies widely from seed to seed.
fn proto_heal(cfg: &Config, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let (n, k) = (cfg.scale.proto_n, cfg.scale.proto_instances);
    let central = PolarGridBuilder::new().max_out_degree(6).threads(1);
    let mut rings = Vec::new();
    let (mut setup, mut sample, mut new_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut ready = Vec::new();
    for _ in 0..cfg.scale.setup_reps {
        ready.clear();
        let (mut ts, mut tn) = (0.0, 0.0);
        for j in 0..k {
            let t = cpu_ns();
            let (pts, crashes) = tr.span("geom.sample", || proto_inputs(cfg.seed, j, n));
            ts += cpu_since(t) / 1e9;
            if rings.len() == j {
                // The protocol advertises the centralized build's ring
                // count, as the `proto` experiment does; this build is not
                // set-up time.
                let built = central.build_with_report(Point2::ORIGIN, &pts);
                rings.push(built.map_or(1, |(_, rep)| rep.rings));
            }
            let pcfg = proto_config(n, rings[j], crashes);
            let seed = cfg.seed.wrapping_add((j as u64) << 32);
            let t = cpu_ns();
            let sim = tr.span("proto.new", || {
                ProtoSim::new(pcfg.clone(), &pts, &pts, seed)
            });
            tn += cpu_since(t) / 1e9;
            ready.push((
                Instance {
                    pts,
                    cfg: pcfg,
                    seed,
                },
                sim,
            ));
        }
        sample.push(ts);
        new_s.push(tn);
        setup.push(ts + tn);
    }
    let (instances, sims): (Vec<Instance>, Vec<ProtoSim>) = ready.into_iter().unzip();
    let mut sims: Vec<Option<ProtoSim>> = sims.into_iter().map(Some).collect();
    out.set("setup_s", median(&setup));
    out.set("geom.sample_s", median(&sample));
    out.set("proto.new_s", median(&new_s));
    out.note(format!(
        "proto_heal: {k} instances of n={n} degree 6, fault mix + {} crashes each; central threads(1)",
        instances[0].cfg.crashes.len()
    ));
    reset_peak_rss();

    let (mut heal_ns, mut delivered, mut healed) = (Vec::new(), 0.0, 0.0);
    // Per instance, the first round's report and centralized radius.
    let mut first: Vec<(ProtoReport, f64)> = Vec::new();
    let overhead = halves(cfg, tr, |tr, seconds| {
        let mut half = Vec::new();
        rounds(seconds, || {
            for (j, inst) in instances.iter().enumerate() {
                let mut s = sims[j].take().unwrap_or_else(|| {
                    tr.span("proto.new", || {
                        ProtoSim::new(inst.cfg.clone(), &inst.pts, &inst.pts, inst.seed)
                    })
                });
                tr.next_op();
                let t = cpu_ns();
                let op = tr.begin("bench.op");
                let rep = tr.span("proto.run", || s.run());
                tr.end(op);
                half.push(cpu_since(t));
                drop(s);
                delivered += rep.net.delivered as f64;
                let checked = checks::proto(&rep, 6, inst.cfg.crashes.len());
                if checked.is_ok() {
                    healed += rep.alive as f64;
                }
                out.check("protocol heal", checked);
                let built = tr.span("core.polar_build", || {
                    central.build_with_report(Point2::ORIGIN, &inst.pts)
                });
                let mut central_radius = f64::NAN;
                let checked = built.map_err(|e| e.to_string()).and_then(|(tree, crep)| {
                    checks::tree(&tree, n, 6)?;
                    checks::report(&tree, &crep, true)?;
                    central_radius = tree.radius();
                    Ok(())
                });
                out.check("centralized build", checked);
                if first.len() == j {
                    first.push((rep, central_radius));
                }
            }
        });
        heal_ns.extend_from_slice(&half);
        half
    });
    let total_s = heal_ns.iter().sum::<f64>() / 1e9;
    out.set("op_p50_us", median(&heal_ns) / 1e3);
    out.set("op_p99_us", tail(&heal_ns) / 1e3);
    out.set("events_per_s", delivered / total_s);
    out.set("build_pts_per_s", healed / total_s);
    let per_instance = |f: &dyn Fn(&ProtoReport, f64) -> f64| -> Vec<f64> {
        first.iter().map(|(rep, c)| f(rep, *c)).collect()
    };
    out.set(
        "radius_stretch",
        median(&per_instance(&|rep, _| rep.stretch)),
    );
    out.note(format!(
        "samples: {} heals (op = one ProtoSim::run; op_p99 = largest)",
        heal_ns.len()
    ));
    for (j, (rep, _)) in first.iter().enumerate() {
        let net = rep.net;
        out.note(format!(
            "fingerprint {j}: orphans={} alive={} departed={} sent={} delivered={} dropped={} \
             severed={} duplicated={} timers={} radius_bits={:#018x} converge_bits={:#018x}",
            rep.orphans,
            rep.alive,
            rep.departed,
            net.sent,
            net.delivered,
            net.dropped,
            net.severed,
            net.duplicated,
            net.timers,
            rep.radius.to_bits(),
            rep.convergence_time.to_bits()
        ));
    }
    if let Some(pct) = overhead {
        out.set("trace.overhead_pct", pct);
        out.set("proto.heal_wall_s", span_median_ms(tr, "proto.run") / 1e3);
        out.set(
            "proto.factor",
            median(&per_instance(&|rep, c| rep.radius / c)),
        );
        out.set(
            "proto.converge_sim_s",
            median(&per_instance(&|rep, _| rep.convergence_time)),
        );
        let sum =
            |f: &dyn Fn(&ProtoReport) -> u64| first.iter().map(|(r, _)| f(r)).sum::<u64>() as f64;
        out.set("proto.msgs_per_host", sum(&|r| r.net.sent) / (k * n) as f64);
        out.set("sim.delivered", sum(&|r| r.net.delivered));
        out.set("sim.dropped", sum(&|r| r.net.dropped));
        out.set("sim.duplicated", sum(&|r| r.net.duplicated));
        out.set("sim.timers", sum(&|r| r.net.timers));
        out.set("sim.deliveries_per_s", delivered / total_s);
        out.set(
            "core.polar_build_ms",
            span_median_ms(tr, "core.polar_build"),
        );
        let count = |kind: &str| sum(&|r| r.msg_counts.get(kind).copied().unwrap_or(0));
        for (name, _) in contract::metrics("per_layer") {
            if let Some(kind) = name.strip_prefix("proto.msgs.") {
                out.set(&name, count(kind));
            }
        }
        out.set(
            "proto.join_accept_ratio",
            count("accept") / count("join_req"),
        );
    }
    out
}
