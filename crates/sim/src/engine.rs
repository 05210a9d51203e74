//! Deterministic discrete-event message engine with per-host mailboxes.
//!
//! The dissemination simulator in the crate root walks a *finished* tree;
//! this module is the substrate for protocols that must *build* the tree
//! through messages: a priority queue of scheduled deliveries with a total
//! deterministic order, and a mailbox view that hands a host every message
//! arriving at one instant as a single batch.
//!
//! # Ordering contract
//!
//! Deliveries pop in `(time, seq)` order: by `f64::total_cmp` on the
//! time, then by a sequence number assigned at scheduling time. Two
//! deliveries at the same timestamp therefore pop in the order they were
//! scheduled (FIFO), and a run is a pure function of its schedule calls.
//! `total_cmp` puts `-0.0` before `+0.0`; an *instant*, as
//! [`EventQueue::pop_mailbox`] groups it, is a set of times equal under
//! `==`, so a mailbox opened at `-0.0` also takes that host's `+0.0`
//! deliveries.
//!
//! # Why a radix queue is valid
//!
//! [`EventQueue::schedule`] rejects NaN, infinite and past times, so every
//! key pushed is at least the last key popped: the queue is *monotone*.
//! That is all a radix heap (Ahuja, Mehlhorn, Orlin and Tarjan, 1990)
//! needs. A time maps to a `u64` key that orders like it: every positive
//! time to its bit pattern, and both zeros to 0. A key lives in one of 64
//! buckets, the one of the highest bit in which it differs from the last
//! popped key; keys *equal* to that one form the *ready run*, the 65th
//! bucket, kept in pop order. A pop takes the head of the ready run. When
//! the run is empty, the lowest non-empty bucket (an occupancy mask finds
//! it) is emptied and its keys are redistributed against their minimum,
//! each landing in a lower bucket or in the new ready run. Each key moves
//! down at most 64 times, and in practice a handful. Redistribution keeps
//! scan order, and schedules append ever larger sequence numbers, so equal
//! keys stay FIFO with no sort.
//!
//! # Negative zero
//!
//! `-0.0 >= +0.0`, so `schedule` accepts `-0.0` while the clock reads
//! either zero, and `total_cmp` pops it before every `+0.0`. Key 0 can
//! only be scheduled before the clock leaves zero, while the ready run
//! holds key 0, so such keys always join the ready run directly, where a
//! `-0.0` is inserted after the pending `-0.0`s and before the `+0.0`s.
//!
//! # Layout
//!
//! Keys are 24 bytes (`time`, `seq`, `dst`, payload slot); payloads sit in
//! a slab with a free list, so redistribution never moves a message. A
//! bucket stores its keys in buffers of at most 1024 keys, and a drained
//! bucket keeps only the buffer it was filling, so a burst does not pin
//! its peak memory for the rest of the run.

use std::mem;

/// A host address in the engine. Address 0 is conventionally the protocol
/// rendezvous (the multicast source).
pub type HostId = u32;

/// One delivered message: arrival time, destination, payload.
#[derive(Clone, Debug, PartialEq)]
pub struct Delivery<M> {
    /// Arrival (delivery) time.
    pub time: f64,
    /// Destination host.
    pub dst: HostId,
    /// The payload.
    pub msg: M,
}

/// Keys per bucket buffer. A bucket fills one buffer of at most `CHUNK`
/// keys and sets it aside whole when full, so no key buffer ever exceeds
/// 24 KiB: large buffers of uneven sizes, grown and freed run after run,
/// fragment the allocator's heap and raise peak memory by about a tenth
/// in a 50k-host protocol run. A drained bucket frees its full buffers and
/// keeps the one it was filling; the ready run shrinks back to `CHUNK`
/// keys once consumed.
const CHUNK: usize = 1024;

/// A pending delivery: its time's bits, sequence number, destination and
/// payload slot.
#[derive(Clone, Copy)]
struct Key {
    bits: u64,
    seq: u64,
    dst: HostId,
    slot: u32,
}

impl Key {
    /// The radix key: orders like the time under `total_cmp`, except that
    /// both zeros map to 0 (see "Negative zero" above).
    #[inline]
    fn radix(&self) -> u64 {
        if self.bits == NEG_ZERO {
            0
        } else {
            self.bits
        }
    }
}

const NEG_ZERO: u64 = 1 << 63;

/// The bucket of radix key `k` relative to the last popped key `last`
/// (`k > last`): the highest bit in which they differ.
#[inline]
fn bucket(k: u64, last: u64) -> usize {
    63 - (k ^ last).leading_zeros() as usize
}

/// One radix bucket: full buffers of exactly [`CHUNK`] keys plus the
/// buffer being filled, oldest first.
#[derive(Default)]
struct Bucket {
    full: Vec<Vec<Key>>,
    open: Vec<Key>,
}

impl Bucket {
    #[inline]
    fn push(&mut self, key: Key) {
        if self.open.len() == CHUNK {
            let full = mem::replace(&mut self.open, Vec::with_capacity(CHUNK));
            self.full.push(full);
        }
        self.open.push(key);
    }

    fn iter(&self) -> impl Iterator<Item = &Key> {
        self.full.iter().flatten().chain(&self.open)
    }
}

/// A deterministic future-event queue.
///
/// # Examples
///
/// ```
/// use omt_sim::engine::EventQueue;
///
/// let mut q = EventQueue::new();
/// q.schedule(2.0, 7, "late");
/// q.schedule(1.0, 3, "early");
/// q.schedule(1.0, 3, "early-second"); // same instant: FIFO
/// assert_eq!(q.pop().unwrap().msg, "early");
/// assert_eq!(q.pop().unwrap().msg, "early-second");
/// assert_eq!(q.pop().unwrap().msg, "late");
/// assert!(q.pop().is_none());
/// ```
pub struct EventQueue<M> {
    /// `buckets[i]`: keys whose highest bit differing from `last` is `i`.
    buckets: [Bucket; 64],
    /// Bit `i` set iff `buckets[i]` is non-empty.
    occupied: u64,
    /// Keys equal to `last` in pop order, from `head` on.
    ready: Vec<Key>,
    head: usize,
    /// Radix key of the last refill's minimum (0 before any).
    last: u64,
    /// Payloads by slot; `None` while the slot is free.
    slab: Vec<Option<M>>,
    /// Free slots, the most recently freed last.
    free: Vec<u32>,
    seq: u64,
    now: f64,
}

impl<M> Default for EventQueue<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> EventQueue<M> {
    /// Creates an empty queue at time 0.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| Bucket::default()),
            occupied: 0,
            ready: Vec::new(),
            head: 0,
            last: 0,
            slab: Vec::new(),
            free: Vec::new(),
            seq: 0,
            now: 0.0,
        }
    }

    /// The time of the most recently popped delivery (0 before any pop).
    #[inline]
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Number of pending deliveries.
    #[inline]
    pub fn len(&self) -> usize {
        self.slab.len() - self.free.len()
    }

    /// Whether no deliveries are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedules a delivery at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is NaN, infinite, or before [`EventQueue::now`]
    /// (the past is immutable).
    pub fn schedule(&mut self, time: f64, dst: HostId, msg: M) {
        assert!(time.is_finite(), "non-finite delivery time {time}");
        assert!(
            time >= self.now,
            "delivery at {time} scheduled before current time {}",
            self.now
        );
        let slot = match self.free.pop() {
            Some(s) => {
                self.slab[s as usize] = Some(msg);
                s
            }
            None => {
                let s = u32::try_from(self.slab.len()).expect("over 2^32 pending deliveries");
                self.slab.push(Some(msg));
                s
            }
        };
        let key = Key {
            bits: time.to_bits(),
            seq: self.seq,
            dst,
            slot,
        };
        self.seq += 1;
        let k = key.radix();
        if k != self.last {
            let b = bucket(k, self.last);
            self.buckets[b].push(key);
            self.occupied |= 1 << b;
        } else if key.bits == NEG_ZERO {
            // The only key that can sort before pending equal-radix keys:
            // a -0.0 scheduled while +0.0 deliveries wait.
            let at = self.head + self.ready[self.head..].partition_point(|r| r.bits == NEG_ZERO);
            self.ready.insert(at, key);
        } else {
            self.ready.push(key);
        }
    }

    /// Pops the next delivery in `(time, seq)` order and advances the
    /// clock to it.
    pub fn pop(&mut self) -> Option<Delivery<M>> {
        if self.head == self.ready.len() && !self.refill() {
            return None;
        }
        let key = self.ready[self.head];
        self.head += 1;
        self.settle_ready();
        let d = self.take(key);
        self.now = d.time;
        Some(d)
    }

    /// Pops the next delivery **and** every further delivery addressed to
    /// the same host at the same instant — the host's mailbox for that
    /// tick — appending them to `out` in scheduling (FIFO) order. Returns
    /// the `(time, host)` of the batch, or `None` if the queue is empty.
    ///
    /// Deliveries to *other* hosts at the same instant stay queued: each
    /// host drains its own mailbox in the deterministic global order.
    pub fn pop_mailbox(&mut self, out: &mut Vec<Delivery<M>>) -> Option<(f64, HostId)> {
        let first = self.pop()?;
        let (time, dst) = (first.time, first.dst);
        out.push(first);
        // Every other pending delivery at this instant is in the ready
        // run: take this host's, close the gaps behind the rest.
        let mut kept = self.head;
        for i in self.head..self.ready.len() {
            let key = self.ready[i];
            if key.dst == dst {
                out.push(self.take(key));
            } else {
                self.ready[kept] = key;
                kept += 1;
            }
        }
        self.ready.truncate(kept);
        self.settle_ready();
        Some((time, dst))
    }

    /// Moves a key's payload out of the slab.
    #[inline]
    fn take(&mut self, key: Key) -> Delivery<M> {
        let msg = self.slab[key.slot as usize]
            .take()
            .expect("a queued key owns its slot");
        self.free.push(key.slot);
        Delivery {
            time: f64::from_bits(key.bits),
            dst: key.dst,
            msg,
        }
    }

    /// Resets a fully consumed ready run.
    #[inline]
    fn settle_ready(&mut self) {
        if self.head == self.ready.len() {
            self.ready.clear();
            self.head = 0;
            if self.ready.capacity() > CHUNK {
                self.ready.shrink_to(CHUNK);
            }
        }
    }

    /// Refills the (empty) ready run from the lowest non-empty bucket;
    /// `false` if every bucket is empty.
    fn refill(&mut self) -> bool {
        if self.occupied == 0 {
            return false;
        }
        let b = self.occupied.trailing_zeros() as usize;
        self.occupied &= !(1 << b);
        let mut src = mem::take(&mut self.buckets[b]);
        let min = src
            .iter()
            .map(Key::radix)
            .min()
            .expect("an occupied bucket has keys");
        self.last = min;
        for chunk in src.full.drain(..) {
            self.scatter(&chunk, min);
        }
        self.scatter(&src.open, min);
        src.open.clear();
        self.buckets[b] = src;
        debug_assert!(self.ready.windows(2).all(|w| w[0].seq < w[1].seq));
        true
    }

    /// Moves keys of a drained bucket to the ready run (radix `min`) or to
    /// the lower buckets, which are all empty. The scan keeps their order,
    /// so keys of equal radix stay in `seq` order in every bucket — later
    /// schedules append larger sequence numbers — and the new ready run is
    /// FIFO without a sort.
    #[inline]
    fn scatter(&mut self, keys: &[Key], min: u64) {
        for &key in keys {
            let k = key.radix();
            if k == min {
                self.ready.push(key);
            } else {
                let i = bucket(k, min);
                self.buckets[i].push(key);
                self.occupied |= 1 << i;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time_then_fifo() {
        let mut q = EventQueue::new();
        q.schedule(1.0, 0, 'b');
        q.schedule(0.5, 1, 'a');
        q.schedule(1.0, 0, 'c');
        let popped: String = std::iter::from_fn(|| q.pop()).map(|d| d.msg).collect();
        assert_eq!(popped, "abc");
    }

    #[test]
    fn mailbox_batches_same_instant_same_host_only() {
        let mut q = EventQueue::new();
        q.schedule(1.0, 5, 1);
        q.schedule(1.0, 9, 2); // other host, same instant
        q.schedule(1.0, 5, 3);
        q.schedule(2.0, 5, 4); // same host, later
        let mut box1 = Vec::new();
        assert_eq!(q.pop_mailbox(&mut box1), Some((1.0, 5)));
        assert_eq!(box1.iter().map(|d| d.msg).collect::<Vec<_>>(), [1, 3]);
        let mut box2 = Vec::new();
        assert_eq!(q.pop_mailbox(&mut box2), Some((1.0, 9)));
        assert_eq!(box2[0].msg, 2);
        let mut box3 = Vec::new();
        assert_eq!(q.pop_mailbox(&mut box3), Some((2.0, 5)));
        assert_eq!(box3[0].msg, 4);
        assert!(q.pop_mailbox(&mut Vec::new()).is_none());
    }

    #[test]
    fn clock_is_monotone() {
        let mut q = EventQueue::new();
        q.schedule(3.0, 0, ());
        q.schedule(3.0, 1, ());
        assert_eq!(q.now(), 0.0);
        q.pop();
        assert_eq!(q.now(), 3.0);
        // Scheduling at the current instant is allowed…
        q.schedule(3.0, 2, ());
        // …but the past is rejected.
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            q.schedule(2.9, 0, ());
        }));
        assert!(err.is_err());
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn rejects_nan_time() {
        EventQueue::new().schedule(f64::NAN, 0, ());
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn rejects_infinite_time() {
        EventQueue::new().schedule(f64::INFINITY, 0, ());
    }

    #[test]
    fn negative_zero_pops_first_and_shares_the_instant() {
        let mut q = EventQueue::new();
        q.schedule(0.0, 1, 'a');
        q.schedule(-0.0, 2, 'b');
        q.schedule(-0.0, 1, 'c');
        q.schedule(0.0, 1, 'd');
        // total_cmp: both -0.0 first (FIFO), then +0.0.
        assert_eq!(q.pop().unwrap().msg, 'b');
        assert!(q.now().is_sign_negative());
        // A mailbox opened at -0.0 takes the host's +0.0 deliveries too,
        // since -0.0 == +0.0.
        let mut batch = Vec::new();
        assert_eq!(q.pop_mailbox(&mut batch).map(|(_, h)| h), Some(1));
        let got: Vec<(bool, char)> = batch
            .iter()
            .map(|d| (d.time.is_sign_negative(), d.msg))
            .collect();
        assert_eq!(got, [(true, 'c'), (false, 'a'), (false, 'd')]);
        assert!(q.is_empty());
    }

    #[test]
    fn slots_are_reused() {
        let mut q = EventQueue::new();
        for round in 0..100 {
            let t = q.now() + 1.0;
            q.schedule(t, 0, round);
            q.schedule(t, 1, round);
            assert_eq!(q.len(), 2);
            assert_eq!(q.pop().unwrap().msg, round);
            assert_eq!(q.pop().unwrap().msg, round);
        }
        assert!(q.is_empty());
        assert_eq!(q.slab.len(), 2, "freed slots are reused");
    }
}
