//! The event queue against a reference model.
//!
//! `HeapQueue` below is the engine's earlier `BinaryHeap` queue, kept
//! verbatim apart from its name: a max-heap of `(time, seq)`-inverted
//! entries carrying their payloads, with `pop_mailbox` draining the
//! instant and pushing other hosts' deliveries back. The property drives
//! it and `omt_sim::EventQueue` through the same interleaving of
//! `schedule`, `pop` and `pop_mailbox` and requires identical results at
//! every step: the same deliveries, in the same order, with bit-identical
//! times, and the same clock and pending count.
//!
//! The time generators aim at the places a radix queue can go wrong:
//! equal-time fan-in of 64 or more (seq tie-breaks, mailboxes split out of
//! a long ready run), `-0.0` next to `+0.0` (`total_cmp` puts `-0.0`
//! first, yet `==` calls them one instant), subnormals (keys differing
//! only in the lowest bits), times near `1e300` (the top buckets), and
//! pushes at exactly `now`, with few enough hosts that mailboxes
//! interleave.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use omt_rng::proptest::{any, collection, Strategy};
use omt_rng::{prop_assert, prop_assert_eq, props};
use omt_sim::engine::{Delivery, EventQueue, HostId};

struct Scheduled<M> {
    time: f64,
    seq: u64,
    dst: HostId,
    msg: M,
}

impl<M> PartialEq for Scheduled<M> {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl<M> Eq for Scheduled<M> {}
impl<M> PartialOrd for Scheduled<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Scheduled<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Inverted: the smallest (time, seq) must be the heap maximum.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The reference model: the engine's former `BinaryHeap` queue.
struct HeapQueue<M> {
    heap: BinaryHeap<Scheduled<M>>,
    seq: u64,
    now: f64,
}

impl<M> HeapQueue<M> {
    fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
            now: 0.0,
        }
    }

    fn now(&self) -> f64 {
        self.now
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn schedule(&mut self, time: f64, dst: HostId, msg: M) {
        assert!(time.is_finite(), "non-finite delivery time {time}");
        assert!(
            time >= self.now,
            "delivery at {time} scheduled before current time {}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Scheduled {
            time,
            seq,
            dst,
            msg,
        });
    }

    fn pop(&mut self) -> Option<Delivery<M>> {
        let s = self.heap.pop()?;
        self.now = s.time;
        Some(Delivery {
            time: s.time,
            dst: s.dst,
            msg: s.msg,
        })
    }

    fn pop_mailbox(&mut self, out: &mut Vec<Delivery<M>>) -> Option<(f64, HostId)> {
        let first = self.pop()?;
        let (time, dst) = (first.time, first.dst);
        out.push(first);
        let mut stash = Vec::new();
        while let Some(head) = self.heap.peek() {
            if head.time != time {
                break;
            }
            let s = self.heap.pop().expect("peeked");
            if s.dst == dst {
                out.push(Delivery {
                    time: s.time,
                    dst: s.dst,
                    msg: s.msg,
                });
            } else {
                stash.push(s);
            }
        }
        self.heap.extend(stash);
        Some((time, dst))
    }
}

/// What one pop returned: the batch key and the deliveries, with times as
/// bits, since `f64`'s `==` cannot tell `-0.0` from `+0.0`.
type Popped = (Option<(u64, HostId)>, Vec<(u64, HostId, u32)>);

/// The queue under test and the model, fed identical calls. Each
/// delivery's payload is its scheduling index.
struct Pair {
    fast: EventQueue<u32>,
    model: HeapQueue<u32>,
    id: u32,
}

impl Pair {
    fn new() -> Self {
        Self {
            fast: EventQueue::new(),
            model: HeapQueue::new(),
            id: 0,
        }
    }

    fn now(&self) -> f64 {
        self.model.now()
    }

    fn schedule(&mut self, t: f64, dst: HostId) {
        self.fast.schedule(t, dst, self.id);
        self.model.schedule(t, dst, self.id);
        self.id += 1;
    }

    /// One `pop_mailbox` (or `pop`) on both sides.
    fn pop(&mut self, mailbox: bool) -> (Popped, Popped) {
        fn bits(key: Option<(f64, HostId)>, ds: &[Delivery<u32>]) -> Popped {
            (
                key.map(|(t, h)| (t.to_bits(), h)),
                ds.iter()
                    .map(|d| (d.time.to_bits(), d.dst, d.msg))
                    .collect(),
            )
        }
        let (mut a, mut b) = (Vec::new(), Vec::new());
        let (ka, kb) = if mailbox {
            (
                self.fast.pop_mailbox(&mut a),
                self.model.pop_mailbox(&mut b),
            )
        } else {
            a.extend(self.fast.pop());
            b.extend(self.model.pop());
            let key = |ds: &[Delivery<u32>]| ds.first().map(|d| (d.time, d.dst));
            (key(&a), key(&b))
        };
        (bits(ka, &a), bits(kb, &b))
    }

    /// Clock and pending count agree.
    fn in_step(&self) -> bool {
        self.fast.now().to_bits() == self.model.now().to_bits()
            && self.fast.len() == self.model.len()
            && self.fast.is_empty() == (self.model.len() == 0)
    }
}

/// A delivery time derived from the current clock, a class and a raw
/// draw; always `>= now`, so `schedule` accepts it.
fn pick_time(now: f64, class: u8, r: u64) -> f64 {
    let t = match class % 8 {
        // Exactly now: joins the instant being delivered.
        0 | 1 => now,
        // The two zeros; `-0.0 >= +0.0` holds, so either is legal while
        // the clock reads zero.
        2 => -0.0,
        3 => 0.0,
        // Subnormals: keys differing in their lowest bits only.
        4 => f64::from_bits(1 + r % 64),
        // A few steps ahead on a coarse lattice, so later schedules
        // collide on the same instants.
        5 => now + (r % 4) as f64 * 0.25,
        // Near 1e300: the highest buckets.
        6 => f64::from_bits(1e300f64.to_bits() + r % 8),
        // The next representable time after now.
        _ => f64::from_bits(now.abs().to_bits() + 1 + r % 3),
    };
    if t >= now && t.is_finite() {
        t
    } else {
        now
    }
}

/// One step of a script: `(op, class, dst, r)`.
type Step = (u8, u8, u8, u64);

fn script() -> impl Strategy<Value = Vec<Step>> {
    collection::vec(
        (any::<u8>(), any::<u8>(), any::<u8>(), any::<u64>()),
        1..160,
    )
}

props! {
    #[cases(256)]
    fn radix_queue_matches_the_heap_model(steps in script()) {
        let mut q = Pair::new();
        for &(op, class, dst, r) in &steps {
            // Five hosts, so mailboxes interleave with other hosts'
            // deliveries at the same instant.
            let dst = HostId::from(dst % 5);
            match op % 8 {
                0..=2 => q.schedule(pick_time(q.now(), class, r), dst),
                3 => {
                    // Fan-in: 64–95 deliveries at one instant, spread
                    // over the hosts in a pattern drawn from `r`.
                    let t = pick_time(q.now(), class, r);
                    for i in 0..64 + (r % 32) as u32 {
                        q.schedule(t, (dst + (r >> (i % 48)) as u32 % 3) % 5);
                    }
                }
                op => {
                    let (a, b) = q.pop(op >= 6);
                    prop_assert_eq!(a, b);
                }
            }
            prop_assert!(q.in_step());
        }
        // Drain what is left, alternating the two pop flavours.
        for mailbox in [true, false].into_iter().cycle() {
            let (a, b) = q.pop(mailbox);
            let done = a.0.is_none();
            prop_assert_eq!(a, b);
            if done {
                break;
            }
        }
        prop_assert!(q.fast.is_empty());
    }
}

/// The queue's order under a long monotone run with a mailbox at every
/// step, well past the point where buckets are drained and refilled
/// many times over.
#[test]
fn long_monotone_run_matches_the_model() {
    let mut q = Pair::new();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..20_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        for k in 0..(x % 4) {
            let t = pick_time(q.now(), (x >> (8 * k)) as u8, x >> 32);
            q.schedule(t, (x >> (20 + k)) as HostId % 7);
        }
        let (a, b) = q.pop(true);
        assert_eq!(a, b);
        assert!(q.in_step());
    }
}

/// Thousands of keys pending at once: buckets fill and set aside many
/// full buffers, and one instant of 3000 deliveries makes a ready run
/// longer than a buffer.
#[test]
fn bulk_runs_cross_buffer_boundaries() {
    let mut q = Pair::new();
    for i in 0..6000u32 {
        q.schedule(2.0 + f64::from(i * 7919 % 6000) / 3000.0, i % 7);
    }
    for i in 0..3000u32 {
        q.schedule(3.0, i % 3);
        q.schedule(f64::from_bits(1e300f64.to_bits() + u64::from(i % 5)), i % 4);
    }
    for step in 1u32.. {
        let (a, b) = q.pop(step.is_multiple_of(2));
        let done = a.0.is_none();
        assert_eq!(a, b, "step {step}");
        if done {
            break;
        }
        if step.is_multiple_of(5) && q.now() < 1e300 {
            let now = q.now();
            q.schedule(now, step % 6);
            q.schedule(now + 0.5, step % 5);
        }
        assert!(q.in_step());
    }
    assert!(q.fast.is_empty());
}
