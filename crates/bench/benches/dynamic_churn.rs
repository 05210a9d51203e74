//! Dynamic membership benchmarks: join throughput, churn maintenance, and
//! the dissemination simulator's cost.
//!
//! The `dynamic_churn` group records the before/after event throughput of
//! the incremental `DynamicOverlay` maintenance (cached delays, open-host
//! index, source out-degree counter) against the pre-change implementation
//! (kept below as [`naive`]), replaying the *same* seeded event trace
//! (joins : leaves ≈ 2 : 1) on both at target sizes n ∈ {2k, 20k}.
//!
//! The same group also records *sustained* throughput at million scale:
//! a mixed 2 : 1 stream plus flash-crowd and mass-disconnect bursts over
//! an overlay prefilled to n = 1M live hosts (`--quick` shrinks the
//! prefill to 20k). Record it into the tracked results with:
//!
//! ```sh
//! OMT_BENCH_DIR=$PWD/results cargo bench -p omt-bench --bench dynamic_churn -- dynamic_churn
//! ```

use omt_bench::disk_points;
use omt_bench::harness::{BenchmarkId, Criterion, Throughput};
use omt_bench::{criterion_group, criterion_main};
use omt_core::{DynamicOverlay, HostId, PolarGridBuilder};
use omt_geom::Point2;
use omt_rng::rngs::SmallRng;
use omt_rng::{RngExt, SeedableRng};
use omt_sim::{simulate, SimConfig};

fn bench_dynamic(c: &mut Criterion) {
    let mut group = c.benchmark_group("dynamic");
    group.sample_size(10);
    for n in [500usize, 2_000] {
        let points = disk_points(n, 3);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("join_all", n), &points, |b, pts| {
            b.iter(|| {
                let mut overlay = DynamicOverlay::new(Point2::ORIGIN, 6).unwrap();
                for &p in pts {
                    overlay.join(p);
                }
                overlay.len()
            });
        });
    }
    // Simulation throughput over a 100k-node tree.
    let points = disk_points(100_000, 4);
    let tree = PolarGridBuilder::new()
        .build(Point2::ORIGIN, &points)
        .unwrap();
    group.throughput(Throughput::Elements(100_000));
    group.bench_function("simulate_100k", |b| {
        let cfg = SimConfig {
            serialization_delay: 0.001,
            ..SimConfig::default()
        };
        b.iter(|| simulate(&tree, &cfg).makespan);
    });
    group.finish();
}

/// One membership event of a pre-generated churn trace. Leave victims are
/// picked by reducing a random word modulo the current live count, so the
/// identical trace replays on both implementations.
#[derive(Clone, Copy)]
enum Event {
    Join(Point2),
    Leave(u64),
}

/// A seeded trace with joins : leaves ≈ 2 : 1.
fn event_plan(events: usize, seed: u64) -> Vec<Event> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..events)
        .map(|_| {
            if rng.random::<f64>() < 2.0 / 3.0 {
                let r = rng.random::<f64>().sqrt();
                let t: f64 = rng.random_range(0.0..core::f64::consts::TAU);
                Event::Join(Point2::new([r * t.cos(), r * t.sin()]))
            } else {
                Event::Leave(rng.random::<u64>())
            }
        })
        .collect()
}

fn run_current(base: &DynamicOverlay, live: &[HostId], plan: &[Event]) -> usize {
    let mut overlay = base.clone();
    let mut live = live.to_vec();
    for ev in plan {
        match *ev {
            Event::Join(p) => live.push(overlay.join(p)),
            Event::Leave(r) => {
                let i = (r as usize) % live.len();
                overlay.leave(live.swap_remove(i)).unwrap();
            }
        }
    }
    overlay.len()
}

fn run_naive(base: &naive::NaiveOverlay, live: &[u64], plan: &[Event]) -> usize {
    let mut overlay = base.clone();
    let mut live = live.to_vec();
    for ev in plan {
        match *ev {
            Event::Join(p) => live.push(overlay.join(p)),
            Event::Leave(r) => {
                let i = (r as usize) % live.len();
                overlay.leave(live.swap_remove(i));
            }
        }
    }
    live.len()
}

/// One membership event of a fully-resolved sustained-bench stream.
#[derive(Clone, Copy)]
enum ChurnEvent {
    Join(Point2),
    Leave(HostId),
}

/// A concrete, fully-resolved event stream for the sustained benches.
/// Leave victims are picked against a simulated replay of the prefilled
/// overlay, so the resulting `ChurnEvent` list (with real `HostId`s)
/// replays verbatim on every clone of it — host ids are deterministic
/// (monotone in join order).
fn mixed_plan(base: &DynamicOverlay, live: &[HostId], events: usize, seed: u64) -> Vec<ChurnEvent> {
    let mut sim = base.clone();
    let mut live = live.to_vec();
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..events)
        .map(|_| {
            if rng.random::<f64>() < 2.0 / 3.0 {
                let r = rng.random::<f64>().sqrt();
                let t: f64 = rng.random_range(0.0..core::f64::consts::TAU);
                let p = Point2::new([r * t.cos(), r * t.sin()]);
                live.push(sim.join(p));
                ChurnEvent::Join(p)
            } else {
                let i = rng.random_range(0..live.len());
                let id = live.swap_remove(i);
                sim.leave(id).expect("victim is live");
                ChurnEvent::Leave(id)
            }
        })
        .collect()
}

/// Flash crowd: a pure join burst.
fn flash_plan(events: usize, seed: u64) -> Vec<ChurnEvent> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..events)
        .map(|_| {
            let r = rng.random::<f64>().sqrt();
            let t: f64 = rng.random_range(0.0..core::f64::consts::TAU);
            ChurnEvent::Join(Point2::new([r * t.cos(), r * t.sin()]))
        })
        .collect()
}

/// Mass disconnect: distinct prefill hosts leaving back-to-back.
fn mass_plan(live: &[HostId], events: usize, seed: u64) -> Vec<ChurnEvent> {
    let mut pool = live.to_vec();
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..events.min(pool.len()))
        .map(|_| {
            let i = rng.random_range(0..pool.len());
            ChurnEvent::Leave(pool.swap_remove(i))
        })
        .collect()
}

/// Per-event replay of a resolved plan.
fn run_resolved(base: &DynamicOverlay, plan: &[ChurnEvent]) -> usize {
    let mut overlay = base.clone();
    for ev in plan {
        match *ev {
            ChurnEvent::Join(p) => {
                overlay.join(p);
            }
            ChurnEvent::Leave(id) => overlay.leave(id).expect("victim is live"),
        }
    }
    overlay.len()
}

fn bench_churn(c: &mut Criterion) {
    // Both bench sections must share this one group instance: two groups
    // with the same name would each write (and so overwrite) the same
    // BENCH_dynamic_churn.json on finish().
    let quick = c.is_quick();
    let mut group = c.benchmark_group("dynamic_churn");
    group.sample_size(10);
    for n in [2_000usize, 20_000] {
        let events = n / 2;
        let prefill = disk_points(n, 7);
        let plan = event_plan(events, 11 + n as u64);
        // Prefill both implementations once; every sample replays the same
        // trace on a clone of the prefilled overlay.
        let mut base_current = DynamicOverlay::new(Point2::ORIGIN, 6).unwrap();
        let live_current: Vec<HostId> = prefill.iter().map(|&p| base_current.join(p)).collect();
        let mut base_naive = naive::NaiveOverlay::new(Point2::ORIGIN, 6);
        let live_naive: Vec<u64> = prefill.iter().map(|&p| base_naive.join(p)).collect();
        group.throughput(Throughput::Elements(events as u64));
        group.bench_with_input(BenchmarkId::new("events", n), &plan, |b, plan| {
            b.iter(|| run_current(&base_current, &live_current, plan));
        });
        group.bench_with_input(BenchmarkId::new("events_naive", n), &plan, |b, plan| {
            b.iter(|| run_naive(&base_naive, &live_naive, plan));
        });
    }

    // Sustained throughput at million scale: events/s over a live overlay
    // of n = 1M hosts (`--quick`: 20k), mixed 2 : 1 join : leave, plus the
    // two stress scenarios (flash crowd, mass disconnect). Every
    // iteration replays on a clone of the prefilled base; peak RSS is
    // recorded per row by the harness.
    let (n, events) = if quick {
        (20_000usize, 4_000usize)
    } else {
        (1_000_000, 100_000)
    };
    let mut base = DynamicOverlay::new(Point2::ORIGIN, 6).unwrap();
    let live: Vec<HostId> = disk_points(n, 13).iter().map(|&p| base.join(p)).collect();
    group.sample_size(5);
    group.throughput(Throughput::Elements(events as u64));

    let sustained = mixed_plan(&base, &live, events, 17 + n as u64);
    group.bench_with_input(BenchmarkId::new("sustained", n), &sustained, |b, plan| {
        b.iter(|| run_resolved(&base, plan));
    });

    let flash = flash_plan(events, 19 + n as u64);
    group.bench_with_input(BenchmarkId::new("flash_crowd", n), &flash, |b, plan| {
        b.iter(|| run_resolved(&base, plan));
    });

    let mass = mass_plan(&live, events, 23 + n as u64);
    group.bench_with_input(BenchmarkId::new("mass_disconnect", n), &mass, |b, plan| {
        b.iter(|| run_resolved(&base, plan));
    });
    group.finish();
}

/// The pre-change `DynamicOverlay` maintenance code, preserved as the
/// baseline of the before/after comparison so both sides of
/// `BENCH_dynamic_churn.json` regenerate in one run on the same machine.
/// Join/leave/rebuild logic is copied from the old implementation
/// (O(n)-scan `slot_of`/`source_child_count`, `delay_of` parent walks
/// inside the comparators, no open-host index); the snapshot/validation
/// surface is dropped since the bench never calls it.
mod naive {
    use omt_core::{PolarGrid2, PolarGridBuilder};
    use omt_geom::{Point2, PolarPoint};
    use omt_tree::ParentRef;

    #[derive(Clone, Debug)]
    struct Host {
        position: Point2,
        parent: Option<u64>,
        children: Vec<u64>,
        alive: bool,
        id: u64,
    }

    #[derive(Clone, Debug)]
    pub struct NaiveOverlay {
        source: Point2,
        max_out_degree: u32,
        hosts: Vec<Host>,
        cell_members: Vec<Vec<u64>>,
        grid: Option<PolarGrid2>,
        live: usize,
        churn_since_rebuild: usize,
        next_id: u64,
    }

    impl NaiveOverlay {
        pub fn new(source: Point2, max_out_degree: u32) -> Self {
            assert!(max_out_degree >= 2 && source.is_finite());
            Self {
                source,
                max_out_degree,
                hosts: Vec::new(),
                cell_members: vec![Vec::new()],
                grid: None,
                live: 0,
                churn_since_rebuild: 0,
                next_id: 0,
            }
        }

        fn slot_of(&self, id: u64) -> Option<usize> {
            self.hosts.iter().position(|h| h.alive && h.id == id)
        }

        fn out_degree(&self, slot: usize) -> u32 {
            self.hosts[slot].children.len() as u32
        }

        fn source_child_count(&self) -> usize {
            self.hosts
                .iter()
                .filter(|h| h.alive && h.parent.is_none())
                .count()
        }

        fn delay_of(&self, slot: usize) -> f64 {
            let mut d = 0.0;
            let mut cur = slot;
            loop {
                match self.hosts[cur].parent {
                    None => {
                        d += self.hosts[cur].position.distance(&self.source);
                        break;
                    }
                    Some(p) => {
                        d += self.hosts[cur]
                            .position
                            .distance(&self.hosts[p as usize].position);
                        cur = p as usize;
                    }
                }
            }
            d
        }

        fn cell_of(&self, p: &Point2) -> usize {
            match &self.grid {
                None => 0,
                Some(grid) => {
                    let polar = PolarPoint::from_cartesian(&(*p - self.source));
                    let (ring, seg) = grid.cell_of(&polar);
                    ((1u64 << ring) - 1 + seg) as usize
                }
            }
        }

        pub fn join(&mut self, position: Point2) -> u64 {
            let id = self.next_id;
            self.next_id += 1;
            let slot = self.hosts.len() as u64;
            let parent = self.find_parent_for(&position);
            self.hosts.push(Host {
                position,
                parent,
                children: Vec::new(),
                alive: true,
                id,
            });
            if let Some(p) = parent {
                self.hosts[p as usize].children.push(slot);
            }
            let cell = self.cell_of(&position);
            self.cell_members[cell].push(slot);
            self.live += 1;
            self.churn_since_rebuild += 1;
            self.maybe_rebuild();
            id
        }

        fn find_parent_for(&self, position: &Point2) -> Option<u64> {
            let source_open = self.source_child_count() < self.max_out_degree as usize;
            let mut cell = self.cell_of(position);
            loop {
                let best = self.cell_members[cell]
                    .iter()
                    .copied()
                    .filter(|&s| {
                        self.hosts[s as usize].alive
                            && self.out_degree(s as usize) < self.max_out_degree
                    })
                    .min_by(|&a, &b| {
                        let da = self.delay_of(a as usize)
                            + self.hosts[a as usize].position.distance(position);
                        let db = self.delay_of(b as usize)
                            + self.hosts[b as usize].position.distance(position);
                        da.total_cmp(&db)
                    });
                if let Some(p) = best {
                    return Some(p);
                }
                if cell == 0 {
                    break;
                }
                let (ring, seg) = unflatten(cell);
                cell = if ring <= 1 {
                    0
                } else {
                    ((1u64 << (ring - 1)) - 1 + seg / 2) as usize
                };
            }
            if source_open {
                return None;
            }
            (0..self.hosts.len())
                .filter(|&s| self.hosts[s].alive && self.out_degree(s) < self.max_out_degree)
                .min_by(|&a, &b| {
                    let da = self.delay_of(a) + self.hosts[a].position.distance(position);
                    let db = self.delay_of(b) + self.hosts[b].position.distance(position);
                    da.total_cmp(&db)
                })
                .map(|s| s as u64)
        }

        pub fn leave(&mut self, id: u64) {
            let slot = self.slot_of(id).expect("live id");
            if let Some(p) = self.hosts[slot].parent {
                let p = p as usize;
                self.hosts[p].children.retain(|&c| c != slot as u64);
            }
            let children = std::mem::take(&mut self.hosts[slot].children);
            self.hosts[slot].alive = false;
            let cell = self.cell_of(&self.hosts[slot].position.clone());
            self.cell_members[cell].retain(|&s| s != slot as u64);
            self.live -= 1;
            if !children.is_empty() {
                let vacated_parent = self.hosts[slot].parent;
                let promoted = *children
                    .iter()
                    .min_by(|&&a, &&b| {
                        let da = self.hosts[a as usize]
                            .position
                            .distance(&self.hosts[slot].position);
                        let db = self.hosts[b as usize]
                            .position
                            .distance(&self.hosts[slot].position);
                        da.total_cmp(&db)
                    })
                    .expect("nonempty");
                self.hosts[promoted as usize].parent = vacated_parent;
                if let Some(p) = vacated_parent {
                    self.hosts[p as usize].children.push(promoted);
                }
                for c in children {
                    if c == promoted {
                        continue;
                    }
                    self.hosts[c as usize].parent = None;
                    let pos = self.hosts[c as usize].position;
                    let parent = self.find_parent_for_excluding(&pos, c);
                    self.hosts[c as usize].parent = parent;
                    if let Some(p) = parent {
                        self.hosts[p as usize].children.push(c);
                    }
                }
            }
            self.churn_since_rebuild += 1;
            self.maybe_rebuild();
        }

        fn find_parent_for_excluding(&self, position: &Point2, banned: u64) -> Option<u64> {
            let in_banned_subtree = |mut s: u64| -> bool {
                let mut hops = 0;
                loop {
                    if s == banned {
                        return true;
                    }
                    match self.hosts[s as usize].parent {
                        None => return false,
                        Some(p) => s = p,
                    }
                    hops += 1;
                    if hops > self.hosts.len() {
                        return true;
                    }
                }
            };
            let source_open = self.source_child_count() < self.max_out_degree as usize;
            let candidate = (0..self.hosts.len())
                .filter(|&s| {
                    self.hosts[s].alive
                        && self.out_degree(s) < self.max_out_degree
                        && !in_banned_subtree(s as u64)
                })
                .min_by(|&a, &b| {
                    let da = self.delay_of(a) + self.hosts[a].position.distance(position);
                    let db = self.delay_of(b) + self.hosts[b].position.distance(position);
                    da.total_cmp(&db)
                });
            match candidate {
                Some(s) => {
                    if source_open {
                        let direct = self.source.distance(position);
                        let via = self.delay_of(s) + self.hosts[s].position.distance(position);
                        if direct <= via {
                            return None;
                        }
                    }
                    Some(s as u64)
                }
                None => None,
            }
        }

        fn maybe_rebuild(&mut self) {
            if self.churn_since_rebuild * 2 <= self.live.max(8) {
                return;
            }
            self.rebuild();
        }

        fn rebuild(&mut self) {
            self.churn_since_rebuild = 0;
            let live_slots: Vec<usize> = (0..self.hosts.len())
                .filter(|&s| self.hosts[s].alive)
                .collect();
            let positions: Vec<Point2> =
                live_slots.iter().map(|&s| self.hosts[s].position).collect();
            if positions.is_empty() {
                self.hosts.clear();
                self.cell_members = vec![Vec::new()];
                self.grid = None;
                return;
            }
            let (tree, report) = PolarGridBuilder::new()
                .max_out_degree(self.max_out_degree)
                .build_with_report(self.source, &positions)
                .expect("live positions are finite");
            let mut new_hosts: Vec<Host> = Vec::with_capacity(positions.len());
            for (i, &old) in live_slots.iter().enumerate() {
                new_hosts.push(Host {
                    position: positions[i],
                    parent: match tree.parent(i) {
                        ParentRef::Source => None,
                        ParentRef::Node(p) => Some(p as u64),
                    },
                    children: tree.children(i).iter().map(|&c| u64::from(c)).collect(),
                    alive: true,
                    id: self.hosts[old].id,
                });
            }
            self.hosts = new_hosts;
            let grid = PolarGrid2::new(report.rings, {
                let rho = positions
                    .iter()
                    .map(|p| p.distance(&self.source))
                    .fold(0.0f64, f64::max);
                if rho > 0.0 {
                    rho * (1.0 + 1e-9)
                } else {
                    1.0
                }
            });
            let mut cell_members = vec![Vec::new(); ((1u64 << (report.rings + 1)) - 1) as usize];
            for (slot, host) in self.hosts.iter().enumerate() {
                let polar = PolarPoint::from_cartesian(&(host.position - self.source));
                let (ring, seg) = grid.cell_of(&polar);
                cell_members[((1u64 << ring) - 1 + seg) as usize].push(slot as u64);
            }
            self.grid = Some(grid);
            self.cell_members = cell_members;
        }
    }

    fn unflatten(idx: usize) -> (u32, u64) {
        let v = idx as u64 + 1;
        let ring = 63 - v.leading_zeros();
        (ring, v - (1u64 << ring))
    }
}

criterion_group!(benches, bench_dynamic, bench_churn);
criterion_main!(benches);
