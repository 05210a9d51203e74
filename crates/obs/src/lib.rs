//! Hermetic, dependency-free observability: span timers, counters and
//! log2-bucketed histograms with deterministic merge-at-join semantics.
//!
//! The workspace builds offline with no external crates, so this layer
//! replaces `tracing`/`metrics` with a few hundred lines of std. It is
//! designed around three constraints:
//!
//! 1. **Zero cost when off.** Unless the `enabled` cargo feature is set,
//!    every entry point ([`span`], [`counter`], [`observe`], [`flush`],
//!    [`take_local`], [`merge_into_local`]) is an empty
//!    `#[inline(always)]` function and [`SpanGuard`] is a zero-sized
//!    type without a `Drop` impl — instrumented code optimizes to the
//!    uninstrumented machine code. With the feature on, recording is
//!    additionally gated at runtime on the `OMT_TRACE` environment
//!    variable (one cached lookup, then a branch per event).
//!
//! 2. **Determinism.** Metrics accumulate in a thread-local [`Registry`]
//!    keyed by `&'static str` in `BTreeMap`s. Worker threads harvest
//!    their registry with [`take_local`] and hand it to the spawning
//!    thread, which folds it in with [`merge_into_local`]; because every
//!    merge is commutative and associative (sums, mins, maxes, bucket
//!    adds), the merged registry is identical regardless of thread
//!    scheduling. `omt-par` performs this harvest in worker-index order
//!    at its join point.
//!
//! 3. **Structured output.** [`Registry::to_jsonl`] serializes one JSON
//!    object per line (`span` / `counter` / `hist` records) in
//!    deterministic name order; [`flush`] appends them to the file named
//!    by `OMT_TRACE` (any value other than `0`/`1`/`true`/`mem` is
//!    treated as a path).
//!
//! `OMT_TRACE` values: unset, empty, or `0` — recording off; `1`,
//! `true`, or `mem` — record in memory (callers inspect or flush
//! programmatically); anything else — record and [`flush`] appends JSONL
//! to that path.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Number of histogram buckets: one for zero plus one per power of two
/// up to `2^63..`.
pub const HIST_BUCKETS: usize = 65;

/// Interns a dynamically built metric label, returning a `'static` string
/// usable as a [`span`]/[`counter`]/[`observe`] name.
///
/// Metric names are `&'static str` so the hot-path entry points never
/// allocate or hash strings. Call sites that need a small number of
/// runtime-derived names — per-worker counters, per-backend labels —
/// intern them **once at construction time** and store the result; the
/// first interning of each distinct label leaks its allocation
/// (deliberately: the set is expected to stay tiny and live for the
/// process), later calls return the cached pointer.
///
/// Available regardless of the `enabled` feature so call sites need no
/// `cfg`; without the feature the interned name simply feeds no-op sinks.
///
/// # Examples
///
/// ```
/// let a = omt_obs::intern("par/worker0/items");
/// let b = omt_obs::intern(&format!("par/worker{}/items", 0));
/// assert!(std::ptr::eq(a, b));
/// ```
///
/// # Panics
///
/// Panics if the global intern table's lock is poisoned (a prior panic
/// while interning).
#[must_use]
pub fn intern(label: &str) -> &'static str {
    use std::collections::BTreeSet;
    use std::sync::{Mutex, OnceLock};
    static TABLE: OnceLock<Mutex<BTreeSet<&'static str>>> = OnceLock::new();
    let table = TABLE.get_or_init(|| Mutex::new(BTreeSet::new()));
    let mut guard = table.lock().expect("intern table poisoned");
    if let Some(&found) = guard.get(label) {
        return found;
    }
    let leaked: &'static str = Box::leak(label.to_owned().into_boxed_str());
    guard.insert(leaked);
    leaked
}

/// Aggregate timing of one named span.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Number of completed spans.
    pub count: u64,
    /// Sum of elapsed nanoseconds.
    pub total_ns: u64,
    /// Shortest observed span, in nanoseconds.
    pub min_ns: u64,
    /// Longest observed span, in nanoseconds.
    pub max_ns: u64,
}

impl SpanStat {
    fn record(&mut self, ns: u64) {
        if self.count == 0 {
            self.min_ns = ns;
            self.max_ns = ns;
        } else {
            self.min_ns = self.min_ns.min(ns);
            self.max_ns = self.max_ns.max(ns);
        }
        self.count += 1;
        self.total_ns = self.total_ns.saturating_add(ns);
    }

    fn merge(&mut self, other: &SpanStat) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.count += other.count;
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

/// A log2-bucketed histogram of `u64` observations.
///
/// Bucket 0 holds zeros; bucket `k ≥ 1` holds values in
/// `[2^(k-1), 2^k)`. Exact `count` and `sum` ride along so means stay
/// accurate even though individual values are bucketed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observed values (saturating).
    pub sum: u64,
    buckets: [u64; HIST_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0,
            buckets: [0; HIST_BUCKETS],
        }
    }
}

/// Bucket index of a value: 0 for 0, otherwise `64 - leading_zeros`.
fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        (64 - value.leading_zeros()) as usize
    }
}

impl Histogram {
    /// Record one observation.
    pub fn observe(&mut self, value: u64) {
        self.buckets[bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Mean of the exact observed values, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Inclusive upper edge of the highest non-empty bucket
    /// (an upper bound on the maximum observation), or 0 when empty.
    pub fn max_bucket_edge(&self) -> u64 {
        for k in (0..HIST_BUCKETS).rev() {
            if self.buckets[k] > 0 {
                return if k == 0 {
                    0
                } else {
                    (1u64 << (k - 1)).saturating_mul(2) - 1
                };
            }
        }
        0
    }

    /// Non-empty `(bucket_index, count)` pairs in ascending order.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }

    fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
    }
}

/// A set of named metrics. Keys are `&'static str` and storage is
/// `BTreeMap`, so iteration (and therefore serialization) order is
/// deterministic, and [`Registry::merge`] is commutative and
/// associative.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Registry {
    spans: BTreeMap<&'static str, SpanStat>,
    counters: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, Histogram>,
}

impl Registry {
    /// True when no metric has been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.counters.is_empty() && self.hists.is_empty()
    }

    /// Fold `other` into `self`. Order of merges never changes the
    /// result: all underlying combines are sums / mins / maxes.
    pub fn merge(&mut self, other: &Registry) {
        for (name, stat) in &other.spans {
            self.spans.entry(name).or_default().merge(stat);
        }
        for (name, delta) in &other.counters {
            *self.counters.entry(name).or_default() += delta;
        }
        for (name, hist) in &other.hists {
            self.hists.entry(name).or_default().merge(hist);
        }
    }

    /// Record one completed span (used by the active [`SpanGuard`]).
    pub fn record_span(&mut self, name: &'static str, ns: u64) {
        self.spans.entry(name).or_default().record(ns);
    }

    /// Add `delta` to a counter.
    pub fn add_counter(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_default() += delta;
    }

    /// Record a histogram observation.
    pub fn record_observation(&mut self, name: &'static str, value: u64) {
        self.hists.entry(name).or_default().observe(value);
    }

    /// Look up a span's aggregate, if recorded.
    pub fn span(&self, name: &str) -> Option<&SpanStat> {
        self.spans.get(name)
    }

    /// A counter's value (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Look up a histogram, if recorded.
    pub fn hist(&self, name: &str) -> Option<&Histogram> {
        self.hists.get(name)
    }

    /// All spans in name order.
    pub fn spans(&self) -> impl Iterator<Item = (&'static str, &SpanStat)> + '_ {
        self.spans.iter().map(|(k, v)| (*k, v))
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(k, v)| (*k, *v))
    }

    /// All histograms in name order.
    pub fn hists(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.hists.iter().map(|(k, v)| (*k, v))
    }

    /// Serialize the whole registry as one compact JSON object
    /// (`{"spans":{...},"counters":{...},"hists":{...}}`), for embedding
    /// into other JSON documents such as the `BENCH_*.json` files.
    /// Deterministic: names are emitted in `BTreeMap` order.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":{");
        for (i, (name, s)) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}:{{\"count\":{},\"total_ns\":{},\"min_ns\":{},\"max_ns\":{}}}",
                json_str(name),
                s.count,
                s.total_ns,
                s.min_ns,
                s.max_ns,
            );
        }
        out.push_str("},\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{v}", json_str(name));
        }
        out.push_str("},\"hists\":{");
        for (i, (name, h)) in self.hists.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}:{{\"count\":{},\"sum\":{},\"buckets\":[",
                json_str(name),
                h.count,
                h.sum,
            );
            for (j, (k, c)) in h.nonzero_buckets().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{k},{c}]");
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }

    /// Serialize every metric as one JSON object per line, in
    /// deterministic (type, then name) order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (name, s) in &self.spans {
            let _ = writeln!(
                out,
                "{{\"type\":\"span\",\"name\":{},\"count\":{},\"total_ns\":{},\
                 \"min_ns\":{},\"max_ns\":{}}}",
                json_str(name),
                s.count,
                s.total_ns,
                s.min_ns,
                s.max_ns,
            );
        }
        for (name, v) in &self.counters {
            let _ = writeln!(
                out,
                "{{\"type\":\"counter\",\"name\":{},\"value\":{v}}}",
                json_str(name),
            );
        }
        for (name, h) in &self.hists {
            let mut buckets = String::new();
            for (i, (k, c)) in h.nonzero_buckets().enumerate() {
                if i > 0 {
                    buckets.push(',');
                }
                let _ = write!(buckets, "[{k},{c}]");
            }
            let _ = writeln!(
                out,
                "{{\"type\":\"hist\",\"name\":{},\"count\":{},\"sum\":{},\
                 \"buckets\":[{buckets}]}}",
                json_str(name),
                h.count,
                h.sum,
            );
        }
        out
    }
}

/// JSON string literal with the escapes the metric names can need.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(feature = "enabled")]
mod active {
    use super::Registry;
    use std::cell::RefCell;
    use std::fs::OpenOptions;
    use std::io::Write as _;
    use std::path::PathBuf;
    use std::sync::{Mutex, OnceLock};
    use std::time::Instant;

    /// Runtime mode, parsed once from `OMT_TRACE`.
    enum Mode {
        Off,
        Mem,
        File(PathBuf),
    }

    static MODE: OnceLock<Mode> = OnceLock::new();

    fn mode() -> &'static Mode {
        MODE.get_or_init(|| match std::env::var("OMT_TRACE") {
            Err(_) => Mode::Off,
            Ok(v) if v.is_empty() || v == "0" => Mode::Off,
            Ok(v)
                if v == "1" || v.eq_ignore_ascii_case("true") || v.eq_ignore_ascii_case("mem") =>
            {
                Mode::Mem
            }
            Ok(v) => Mode::File(PathBuf::from(v)),
        })
    }

    /// True when the feature is compiled in *and* `OMT_TRACE` enables
    /// recording at runtime.
    pub fn enabled() -> bool {
        !matches!(mode(), Mode::Off)
    }

    /// Force in-memory recording on, unless `OMT_TRACE` was already
    /// consulted (the first decision wins — the mode is process-global).
    /// Returns whether recording is enabled afterwards. Intended for
    /// tests, which cannot rely on the harness exporting `OMT_TRACE`.
    pub fn enable_memory() -> bool {
        !matches!(MODE.get_or_init(|| Mode::Mem), Mode::Off)
    }

    thread_local! {
        static LOCAL: RefCell<Registry> = RefCell::new(Registry::default());
    }

    /// Times a scope: created by [`span`], records elapsed nanoseconds
    /// into the thread-local registry on drop.
    pub struct SpanGuard {
        armed: Option<(&'static str, Instant)>,
    }

    impl Drop for SpanGuard {
        fn drop(&mut self) {
            if let Some((name, start)) = self.armed.take() {
                let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                LOCAL.with(|r| r.borrow_mut().record_span(name, ns));
            }
        }
    }

    /// Start timing a named scope. No-op unless [`enabled`].
    pub fn span(name: &'static str) -> SpanGuard {
        SpanGuard {
            armed: enabled().then(|| (name, Instant::now())),
        }
    }

    /// Add `delta` to a named counter. No-op unless [`enabled`].
    pub fn counter(name: &'static str, delta: u64) {
        if enabled() {
            LOCAL.with(|r| r.borrow_mut().add_counter(name, delta));
        }
    }

    /// Record `value` into a named histogram. No-op unless [`enabled`].
    pub fn observe(name: &'static str, value: u64) {
        if enabled() {
            LOCAL.with(|r| r.borrow_mut().record_observation(name, value));
        }
    }

    /// Take the calling thread's registry, leaving it empty. Worker
    /// threads call this just before finishing so the spawner can
    /// [`merge_into_local`](super::merge_into_local) their metrics.
    pub fn take_local() -> Registry {
        LOCAL.with(|r| std::mem::take(&mut *r.borrow_mut()))
    }

    /// Fold a harvested registry into the calling thread's registry.
    pub fn merge_into_local(other: Registry) {
        if other.is_empty() {
            return;
        }
        LOCAL.with(|r| r.borrow_mut().merge(&other));
    }

    /// Serializes the file-append path so concurrent flushes interleave
    /// whole snapshots, never partial lines.
    static SINK: Mutex<()> = Mutex::new(());

    /// Take the local registry and serialize it as JSONL, prefixed by a
    /// `{"type":"flush","context":...}` header line. When `OMT_TRACE`
    /// names a file, the snapshot is also appended there. Returns the
    /// serialized text, or `None` when recording is off or nothing was
    /// recorded.
    pub fn flush(context: &str) -> Option<String> {
        if !enabled() {
            return None;
        }
        let reg = take_local();
        if reg.is_empty() {
            return None;
        }
        let mut out = format!(
            "{{\"type\":\"flush\",\"context\":{}}}\n",
            super::json_str(context)
        );
        out.push_str(&reg.to_jsonl());
        if let Mode::File(path) = mode() {
            let _guard = SINK
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let write = OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .and_then(|mut f| f.write_all(out.as_bytes()));
            if let Err(e) = write {
                eprintln!("omt-obs: cannot append to {}: {e}", path.display());
            }
        }
        Some(out)
    }
}

#[cfg(feature = "enabled")]
pub use active::{
    counter, enable_memory, enabled, flush, merge_into_local, observe, span, take_local, SpanGuard,
};

#[cfg(not(feature = "enabled"))]
mod noop {
    use super::Registry;

    /// Zero-sized stand-in for the active span guard; has no `Drop`
    /// impl, so holding one costs nothing.
    pub struct SpanGuard;

    /// Always false: instrumentation is compiled out.
    #[inline(always)]
    pub fn enabled() -> bool {
        false
    }

    /// No-op; returns the zero-sized guard.
    #[inline(always)]
    pub fn span(_name: &'static str) -> SpanGuard {
        SpanGuard
    }

    /// No-op.
    #[inline(always)]
    pub fn counter(_name: &'static str, _delta: u64) {}

    /// No-op.
    #[inline(always)]
    pub fn observe(_name: &'static str, _value: u64) {}

    /// Always returns an empty registry.
    #[inline(always)]
    pub fn take_local() -> Registry {
        Registry::default()
    }

    /// No-op.
    #[inline(always)]
    pub fn merge_into_local(_other: Registry) {}

    /// Always `None`.
    #[inline(always)]
    pub fn flush(_context: &str) -> Option<String> {
        None
    }

    /// No-op; recording stays off. Returns false.
    #[inline(always)]
    pub fn enable_memory() -> bool {
        false
    }
}

#[cfg(not(feature = "enabled"))]
pub use noop::{
    counter, enable_memory, enabled, flush, merge_into_local, observe, span, take_local, SpanGuard,
};

/// Time the enclosing scope (or a named binding's scope):
/// `let _g = obs_span!("phase");`. Expands to [`span`], which is a
/// zero-sized no-op unless the `enabled` feature and `OMT_TRACE` are on.
#[macro_export]
macro_rules! obs_span {
    ($name:expr) => {
        $crate::span($name)
    };
}

/// Bump a named counter by 1 or by an explicit delta:
/// `obs_count!("polar_grid/builds");` or `obs_count!("splits", 4);`.
#[macro_export]
macro_rules! obs_count {
    ($name:expr) => {
        $crate::counter($name, 1)
    };
    ($name:expr, $delta:expr) => {
        $crate::counter($name, $delta)
    };
}

/// Record a value into a named log2 histogram:
/// `obs_observe!("bisect2d/depth", depth as u64);`.
#[macro_export]
macro_rules! obs_observe {
    ($name:expr, $value:expr) => {
        $crate::observe($name, $value)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_deduplicates_and_is_stable() {
        let a = intern("intern/test/label-a");
        let b = intern(&format!("intern/test/label-{}", 'a'));
        assert!(std::ptr::eq(a, b));
        let c = intern("intern/test/label-c");
        assert_ne!(a, c);
        // Interned names are usable as metric names in either mode.
        counter(a, 1);
    }

    #[test]
    fn bucket_edges() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn histogram_tracks_count_sum_and_buckets() {
        let mut h = Histogram::default();
        for v in [0u64, 1, 2, 3, 1024] {
            h.observe(v);
        }
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 1030);
        let buckets: Vec<_> = h.nonzero_buckets().collect();
        assert_eq!(buckets, vec![(0, 1), (1, 1), (2, 2), (11, 1)]);
        assert!(h.max_bucket_edge() >= 1024);
        assert!((h.mean() - 206.0).abs() < 1e-9);
    }

    #[test]
    fn merge_is_commutative() {
        let mut a = Registry::default();
        a.record_span("s", 10);
        a.add_counter("c", 2);
        a.record_observation("h", 7);

        let mut b = Registry::default();
        b.record_span("s", 30);
        b.record_span("t", 5);
        b.add_counter("c", 3);
        b.record_observation("h", 9);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.span("s").unwrap().count, 2);
        assert_eq!(ab.span("s").unwrap().total_ns, 40);
        assert_eq!(ab.span("s").unwrap().min_ns, 10);
        assert_eq!(ab.span("s").unwrap().max_ns, 30);
        assert_eq!(ab.counter("c"), 5);
        assert_eq!(ab.hist("h").unwrap().count, 2);
    }

    #[test]
    fn json_object_is_compact_and_deterministic() {
        let mut r = Registry::default();
        r.record_span("s", 5);
        r.add_counter("c", 2);
        r.record_observation("h", 4);
        let json = r.to_json();
        assert_eq!(
            json,
            "{\"spans\":{\"s\":{\"count\":1,\"total_ns\":5,\"min_ns\":5,\"max_ns\":5}},\
             \"counters\":{\"c\":2},\
             \"hists\":{\"h\":{\"count\":1,\"sum\":4,\"buckets\":[[3,1]]}}}"
        );
        assert_eq!(
            Registry::default().to_json(),
            "{\"spans\":{},\"counters\":{},\"hists\":{}}"
        );
    }

    #[test]
    fn jsonl_is_deterministic_and_one_object_per_line() {
        let mut r = Registry::default();
        r.record_span("b", 2);
        r.record_span("a", 1);
        r.add_counter("c", 4);
        r.record_observation("h", 3);
        let text = r.to_jsonl();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("\"name\":\"a\""));
        assert!(lines[1].contains("\"name\":\"b\""));
        assert!(lines[2].contains("\"type\":\"counter\""));
        assert!(lines[3].contains("\"type\":\"hist\""));
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
        assert_eq!(text, r.to_jsonl());
    }

    #[cfg(not(feature = "enabled"))]
    #[test]
    fn disabled_path_is_structurally_free() {
        // The guard is a ZST with no Drop; the registry entry points
        // degrade to constants. This is the compile-time half of the
        // "zero overhead when off" guarantee (the bench
        // `obs_overhead` is the timing half).
        assert_eq!(std::mem::size_of::<SpanGuard>(), 0);
        assert!(!std::mem::needs_drop::<SpanGuard>());
        assert!(!enabled());
        let _g = span("anything");
        counter("anything", 1);
        observe("anything", 1);
        assert!(take_local().is_empty());
        assert!(flush("ctx").is_none());
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn enabled_records_spans_counters_hists() {
        // Forcing memory mode only works if OMT_TRACE has not pinned
        // the mode to Off already; skip quietly in that case.
        if !enable_memory() {
            return;
        }
        let _ = take_local();
        {
            let _g = span("unit/span");
            std::hint::black_box(0u64);
        }
        counter("unit/counter", 3);
        observe("unit/hist", 17);
        let reg = take_local();
        let s = reg.span("unit/span").expect("span recorded");
        assert_eq!(s.count, 1);
        assert_eq!(reg.counter("unit/counter"), 3);
        assert_eq!(reg.hist("unit/hist").unwrap().count, 1);
        let text = reg.to_jsonl();
        assert!(text.contains("\"unit/span\""));
    }
}
