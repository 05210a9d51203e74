//! Protocol goldens: fixed campaigns whose complete outcome is pinned.
//!
//! `fault_fuzz.rs` proves two runs of the *same* binary agree; this suite
//! proves a run agrees with a run of an *earlier* version. Each campaign
//! pins its network accounting, per-kind message counts, the bit patterns
//! of its radius and convergence time, and an FNV-1a hash of the final
//! forest, all recorded before the event engine's priority queue was
//! replaced. Any change to the delivery order — a single pair of
//! same-instant messages swapped — moves at least one of them.
//!
//! The campaigns run `proto_heal`'s fault mix (5% loss, 2% duplicates,
//! jitter 0.3, a partition over t ∈ [5, 15)) with crashes, graceful
//! leaves and stale coordinates, at n ∈ {300, 2000} and degrees {2, 6},
//! plus a faultless control.
//!
//! A mismatch prints the actual outcome as a Rust literal. Re-recording
//! is only legitimate for a change that is *meant* to alter protocol
//! behaviour, and CHANGES.md must say so.

use omt_geom::{Disk, Region};
use omt_net::CoordDrift;
use omt_proto::{ProtoConfig, ProtoReport, ProtoSim};
use omt_rng::rngs::SmallRng;
use omt_rng::SeedableRng;
use omt_sim::{FaultPlan, NetStats, Partition};

/// One fixed campaign.
struct Campaign {
    n: usize,
    degree: u32,
    seed: u64,
    faulty: bool,
    drift: CoordDrift,
    crashes: u32,
    leaves: u32,
}

/// The pinned outcome of one campaign.
struct Golden {
    net: NetStats,
    msg_counts: &'static [(&'static str, u64)],
    radius_bits: u64,
    convergence_bits: u64,
    forest_fnv: u64,
}

/// `proto_heal`'s fault mix.
fn heal_faults() -> FaultPlan {
    FaultPlan {
        drop_p: 0.05,
        dup_p: 0.02,
        jitter: 0.3,
        fault_until: 25.0,
        partitions: vec![Partition {
            start: 5.0,
            end: 15.0,
            bit: 1,
        }],
    }
}

impl Campaign {
    fn config(&self) -> ProtoConfig {
        let mut cfg = ProtoConfig::for_n(self.n, self.degree);
        if self.faulty {
            cfg.faults = heal_faults();
            cfg.quiet_after = cfg.faults.fault_until + 80.0;
            cfg.deadline = cfg.quiet_after + 340.0;
        }
        let n = self.n as u32;
        // Co-prime strides keep the crash and leave sets spread out; the
        // leave list drops any host that also crashes.
        cfg.crashes = (0..self.crashes)
            .map(|i| (3.0 + i as f64 * 0.61, 1 + (i * 37) % n))
            .collect();
        let crashed: Vec<u32> = cfg.crashes.iter().map(|&(_, id)| id).collect();
        cfg.leaves = (0..self.leaves)
            .map(|i| (12.0 + i as f64 * 0.83, 2 + (i * 53) % (n - 1)))
            .filter(|(_, id)| !crashed.contains(id))
            .collect();
        cfg
    }

    fn run(&self) -> ProtoReport {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let truth = Disk::unit().sample_n(&mut rng, self.n);
        let advertised = self.drift.apply(&truth, self.seed);
        ProtoSim::new(self.config(), &truth, &advertised, self.seed).run()
    }
}

/// FNV-1a over the alive ids and the forest's parent indices (`None`,
/// a child of the rendezvous, hashes as `u64::MAX`; a missing forest
/// hashes as the empty sequence after a marker).
fn forest_fnv(rep: &ProtoReport) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for &id in &rep.alive_ids {
        eat(id as u64);
    }
    match &rep.forest {
        None => eat(u64::MAX - 1),
        Some(f) => {
            for p in f {
                eat(p.map_or(u64::MAX, |i| i as u64));
            }
        }
    }
    h
}

fn check(c: &Campaign, want: &Golden) {
    let rep = c.run();
    let counts: Vec<(String, u64)> = rep
        .msg_counts
        .iter()
        .map(|(k, &v)| (k.clone(), v))
        .collect();
    let got_counts: Vec<(&str, u64)> = counts.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    let got = (
        rep.net,
        got_counts.as_slice(),
        rep.radius.to_bits(),
        rep.convergence_time.to_bits(),
        forest_fnv(&rep),
    );
    let expected = (
        want.net,
        want.msg_counts,
        want.radius_bits,
        want.convergence_bits,
        want.forest_fnv,
    );
    if got != expected {
        let n = rep.net;
        panic!(
            "campaign n={} deg={} seed={} diverged from its golden; actual:\n\
             Golden {{\n    net: NetStats {{ sent: {}, delivered: {}, dropped: {}, \
             severed: {}, duplicated: {}, timers: {} }},\n    msg_counts: &{:?},\n    \
             radius_bits: {:#018x}, // {}\n    convergence_bits: {:#018x}, // {}\n    \
             forest_fnv: {:#018x},\n}}",
            c.n,
            c.degree,
            c.seed,
            n.sent,
            n.delivered,
            n.dropped,
            n.severed,
            n.duplicated,
            n.timers,
            got_counts,
            rep.radius.to_bits(),
            rep.radius,
            rep.convergence_time.to_bits(),
            rep.convergence_time,
            forest_fnv(&rep),
        );
    }
}

const STALE: CoordDrift = CoordDrift {
    drift: 0.1,
    stale_fraction: 0.25,
};

#[test]
fn heal_300_deg2_crashes_and_leaves() {
    check(
        &Campaign {
            n: 300,
            degree: 2,
            seed: 1301,
            faulty: true,
            drift: CoordDrift::none(),
            crashes: 3,
            leaves: 6,
        },
        &Golden {
            net: NetStats {
                sent: 18746,
                delivered: 18139,
                dropped: 124,
                severed: 532,
                duplicated: 49,
                timers: 7333,
            },
            msg_counts: &[
                ("accept", 333),
                ("gossip", 4287),
                ("handoff", 1),
                ("join_req", 5502),
                ("leave", 1),
                ("not_child", 28),
                ("orphaned", 1),
                ("ping", 4287),
                ("pong", 4273),
                ("probe", 30),
                ("probe_ok", 3),
            ],
            radius_bits: 0x4026_7cfb_9170_d636, // 11.244106812500018
            convergence_bits: 0x4049_87cf_69ea_d166, // 51.06101726499291
            forest_fnv: 0x1cb4_7ac7_c069_322f,
        },
    );
}

#[test]
fn heal_300_deg6_stale_coordinates() {
    check(
        &Campaign {
            n: 300,
            degree: 6,
            seed: 1306,
            faulty: true,
            drift: STALE,
            crashes: 3,
            leaves: 6,
        },
        &Golden {
            net: NetStats {
                sent: 18634,
                delivered: 17936,
                dropped: 176,
                severed: 596,
                duplicated: 74,
                timers: 7014,
            },
            msg_counts: &[
                ("accept", 367),
                ("gossip", 4973),
                ("handoff", 1),
                ("join_req", 3376),
                ("leave", 3),
                ("not_child", 11),
                ("ping", 4973),
                ("pong", 4924),
                ("probe", 5),
                ("probe_ok", 1),
            ],
            radius_bits: 0x4010_7136_1a61_243c, // 4.110557949236917
            convergence_bits: 0x4046_ae7b_49a0_a268, // 45.36313743918873
            forest_fnv: 0x44a3_215f_0fd9_acab,
        },
    );
}

#[test]
fn heal_2000_deg2_crashes_and_leaves() {
    check(
        &Campaign {
            n: 2000,
            degree: 2,
            seed: 2002,
            faulty: true,
            drift: CoordDrift::none(),
            crashes: 20,
            leaves: 12,
        },
        &Golden {
            net: NetStats {
                sent: 145857,
                delivered: 140168,
                dropped: 1561,
                severed: 4731,
                duplicated: 603,
                timers: 49493,
            },
            msg_counts: &[
                ("accept", 2187),
                ("gossip", 29027),
                ("handoff", 1),
                ("join_req", 56496),
                ("leave", 1),
                ("not_child", 153),
                ("orphaned", 1),
                ("ping", 29027),
                ("pong", 28964),
            ],
            radius_bits: 0x4025_a97f_8637_4d0c, // 10.831051058054548
            convergence_bits: 0x404a_22be_5270_1ab0, // 52.2714331672081
            forest_fnv: 0x8293_1abe_c65e_deca,
        },
    );
}

#[test]
fn heal_2000_deg6_stale_coordinates() {
    check(
        &Campaign {
            n: 2000,
            degree: 6,
            seed: 2006,
            faulty: true,
            drift: STALE,
            crashes: 20,
            leaves: 12,
        },
        &Golden {
            net: NetStats {
                sent: 124290,
                delivered: 118741,
                dropped: 1100,
                severed: 4877,
                duplicated: 428,
                timers: 47971,
            },
            msg_counts: &[
                ("accept", 2280),
                ("gossip", 32393),
                ("handoff", 5),
                ("join_req", 24973),
                ("leave", 9),
                ("new_parent", 1),
                ("not_child", 75),
                ("orphaned", 7),
                ("ping", 32393),
                ("pong", 31954),
                ("probe", 176),
                ("probe_ok", 24),
            ],
            radius_bits: 0x4009_d676_ea50_5f72, // 3.229719000413689
            convergence_bits: 0x4048_84d0_47c4_8fcd, // 49.03760621164074
            forest_fnv: 0x6988_6d75_b52a_6620,
        },
    );
}

#[test]
fn faultless_2000_deg6_control() {
    check(
        &Campaign {
            n: 2000,
            degree: 6,
            seed: 2060,
            faulty: false,
            drift: CoordDrift::none(),
            crashes: 0,
            leaves: 0,
        },
        &Golden {
            net: NetStats {
                sent: 86256,
                delivered: 86256,
                dropped: 0,
                severed: 0,
                duplicated: 0,
                timers: 25661,
            },
            msg_counts: &[
                ("accept", 2649),
                ("gossip", 21000),
                ("join_req", 20044),
                ("not_child", 563),
                ("ping", 21000),
                ("pong", 21000),
            ],
            radius_bits: 0x400b_4970_4186_237e, // 3.410858642488562
            convergence_bits: 0x4031_5c5b_1a75_78ee, // 17.360765126876622
            forest_fnv: 0xff9b_b88d_27f1_c247,
        },
    );
}

#[test]
fn heal_300_deg6_heavy_departures() {
    check(
        &Campaign {
            n: 300,
            degree: 6,
            seed: 1360,
            faulty: true,
            drift: STALE,
            crashes: 12,
            leaves: 24,
        },
        &Golden {
            net: NetStats {
                sent: 16810,
                delivered: 16077,
                dropped: 142,
                severed: 652,
                duplicated: 61,
                timers: 6689,
            },
            msg_counts: &[
                ("accept", 328),
                ("gossip", 4432),
                ("handoff", 2),
                ("join_req", 3199),
                ("leave", 7),
                ("new_parent", 3),
                ("not_child", 7),
                ("ping", 4432),
                ("pong", 4359),
                ("probe", 35),
                ("probe_ok", 6),
            ],
            radius_bits: 0x4011_ec8d_8555_86d2, // 4.481008609147198
            convergence_bits: 0x4049_0f0d_ea51_5abe, // 50.117612161373
            forest_fnv: 0xf9bc_0a23_5b81_2c12,
        },
    );
}
