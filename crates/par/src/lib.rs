//! A dependency-free, std-thread work pool with **deterministic join
//! semantics**.
//!
//! The whole workspace is built on reproducibility: every experiment result
//! is pinned to a seed, and the golden-stream tests assert tree radii down
//! to the last bit. Parallelism must therefore never be allowed to change
//! *what* is computed — only *when*. This crate provides the one primitive
//! the hot paths need under that constraint:
//!
//! [`par_map_indexed`] maps a function over a work list on a fixed number
//! of std threads and collects the results **in index order**. Workers
//! claim indices from a shared atomic counter (so skewed item costs load-
//! balance), but each result is placed by its item index, never by
//! completion order. As long as the mapped function is a pure function of
//! `(index, item)` — which every call site in this workspace guarantees by
//! deriving per-item RNG streams from SplitMix64-finalized `(seed, index)`
//! pairs, exactly like `omt_experiments::workload::trial_rng` — the output
//! is bit-identical for every thread count, including 1.
//!
//! Thread-count policy lives in [`effective_threads`]: the `OMT_THREADS`
//! environment variable wins, otherwise the machine's available
//! parallelism; `OMT_THREADS=1` forces the plain sequential path (no
//! threads are spawned at all).
//!
//! # Examples
//!
//! ```
//! let squares = omt_par::par_map_indexed(&[1u64, 2, 3, 4], 4, |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The environment variable controlling the default worker count.
pub const THREADS_ENV: &str = "OMT_THREADS";

/// The worker count used when the caller does not pin one: `OMT_THREADS`
/// if set to a positive integer, otherwise the machine's available
/// parallelism (1 if that cannot be determined).
///
/// Unparsable or zero values of `OMT_THREADS` fall back to the available
/// parallelism rather than erroring: a misconfigured environment should
/// degrade to the default, not take the experiment down.
#[must_use]
pub fn effective_threads() -> usize {
    match std::env::var(THREADS_ENV) {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(t) if t >= 1 => t,
            _ => available_parallelism(),
        },
        Err(_) => available_parallelism(),
    }
}

/// The machine's available parallelism, defaulting to 1 when unknown.
#[must_use]
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Resolves an optional per-call-site thread override against the
/// environment default: `Some(t)` is clamped to at least 1, `None` asks
/// [`effective_threads`].
#[must_use]
pub fn resolve_threads(override_threads: Option<usize>) -> usize {
    override_threads.map_or_else(effective_threads, |t| t.max(1))
}

/// Maps `f` over `items` on up to `threads` worker threads and returns the
/// results in item order.
///
/// Guarantees:
///
/// * **Index-ordered join** — `result[i] == f(i, &items[i])` for every `i`,
///   regardless of which worker computed it or when it finished.
/// * **Sequential parity** — with `threads <= 1` (or a single item) no
///   thread is spawned and the items are mapped inline, in order. Because
///   placement is by index either way, a pure `f` yields bit-identical
///   output for every thread count.
/// * **Load balancing** — workers claim one index at a time from an atomic
///   cursor, so a few expensive items do not serialize behind a static
///   chunking.
/// * **Panic propagation** — a panic in any worker is resumed on the
///   calling thread after the remaining workers drain (the scope joins
///   them), so no result built from a partial map can escape.
///
/// `f` must derive any randomness it uses from `(index, item)` alone (e.g.
/// via a SplitMix64-finalized `(seed, index)` stream), never from shared
/// mutable state or execution order; otherwise determinism is forfeited —
/// by the caller, not the pool.
pub fn par_map_indexed<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_with(items, threads, || (), |(), i, t| f(i, t))
}

/// Maps `f` over `items` on up to `threads` worker threads, handing each
/// worker **exclusive mutable access** to the items it claims, and returns
/// the per-item results in item order.
///
/// The grid builders' partition pass uses it: each item is one disjoint
/// chunk of the per-point ring and path arrays, which the worker fills in
/// place. Items are claimed dynamically from an atomic cursor like
/// [`par_map_indexed`], so uneven items balance; every item is claimed
/// exactly once, so the mutable borrows never alias (enforced with a
/// per-item lock that is only ever taken uncontended).
///
/// The determinism contract is the same as [`par_map_indexed`]: the result
/// (and final state) of item `i` must be a pure function of `(i, items[i])`
/// at entry, never of scheduling. With `threads <= 1` the items are mapped
/// inline in order and no thread is spawned.
pub fn par_map_indexed_mut<T, R, F>(items: &mut [T], threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let n = items.len();
    let threads = threads.clamp(1, n.max(1));
    if threads == 1 {
        return items.iter_mut().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let _pool_span = omt_obs::span("par/map_mut");
    omt_obs::counter("par/maps", 1);
    omt_obs::counter("par/items", n as u64);
    // Each slot is locked exactly once, by the worker that claims its index
    // from the cursor — the mutex exists to hand out `&mut T` safely, not
    // to arbitrate contention.
    let slots: Vec<std::sync::Mutex<&mut T>> =
        items.iter_mut().map(std::sync::Mutex::new).collect();
    let cursor = AtomicUsize::new(0);
    let per_worker: Vec<(Vec<(usize, R)>, omt_obs::Registry)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let mut guard = slots[i].lock().expect("claimed exactly once");
                        out.push((i, f(i, &mut guard)));
                    }
                    omt_obs::observe("par/worker_items", out.len() as u64);
                    (out, omt_obs::take_local())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|payload| resume_unwind(payload)))
            .collect()
    });

    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (worker_results, registry) in per_worker {
        omt_obs::merge_into_local(registry);
        for (i, r) in worker_results {
            debug_assert!(results[i].is_none(), "index {i} computed twice");
            results[i] = Some(r);
        }
    }
    results
        .into_iter()
        .map(|s| s.expect("the cursor hands out every index exactly once"))
        .collect()
}

/// [`par_map_indexed_mut`] with per-worker scratch state: exclusive mutable
/// items **and** a reusable per-worker scratch value.
///
/// This is the direct-fill primitive for the parallel arena path: each item
/// is one counting-sort cell window (an exclusive `&mut` slice of the
/// member permutation) and the scratch is the bisection work stack reused
/// across every window a worker claims. `init` runs once per worker (once
/// total on the sequential path); items are claimed dynamically from an
/// atomic cursor, each exactly once, so the mutable borrows never alias.
///
/// The determinism contract combines those of [`par_map_indexed_mut`] and
/// [`par_map_with`]: the result (and final state) of item `i` must be a
/// pure function of `(i, items[i])` at entry — never of scheduling or of
/// scratch contents left by earlier items. With `threads <= 1` the items
/// are mapped inline in order and no thread is spawned.
pub fn par_map_with_mut<T, R, S, F, I>(items: &mut [T], threads: usize, init: I, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &mut T) -> R + Sync,
{
    let n = items.len();
    let threads = threads.clamp(1, n.max(1));
    if threads == 1 {
        let mut state = init();
        return items
            .iter_mut()
            .enumerate()
            .map(|(i, t)| f(&mut state, i, t))
            .collect();
    }

    let _pool_span = omt_obs::span("par/map_with_mut");
    omt_obs::counter("par/maps", 1);
    omt_obs::counter("par/items", n as u64);
    // As in `par_map_indexed_mut`: each slot is locked exactly once, by the
    // worker that claims its index from the cursor — the mutex hands out
    // `&mut T` safely, it never arbitrates contention.
    let slots: Vec<std::sync::Mutex<&mut T>> =
        items.iter_mut().map(std::sync::Mutex::new).collect();
    let cursor = AtomicUsize::new(0);
    let per_worker: Vec<(Vec<(usize, R)>, omt_obs::Registry)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init();
                    let mut out = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let mut guard = slots[i].lock().expect("claimed exactly once");
                        out.push((i, f(&mut state, i, &mut guard)));
                    }
                    omt_obs::observe("par/worker_items", out.len() as u64);
                    (out, omt_obs::take_local())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|payload| resume_unwind(payload)))
            .collect()
    });

    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (worker_results, registry) in per_worker {
        omt_obs::merge_into_local(registry);
        for (i, r) in worker_results {
            debug_assert!(results[i].is_none(), "index {i} computed twice");
            results[i] = Some(r);
        }
    }
    results
        .into_iter()
        .map(|s| s.expect("the cursor hands out every index exactly once"))
        .collect()
}

/// [`par_map_indexed`] with per-worker scratch state.
///
/// `init` runs once per worker (once total on the sequential path) and the
/// resulting state is threaded through every item that worker claims. This
/// exists for hot paths that reuse large scratch buffers — explicit work
/// stacks, partition scratch, per-cell index copies — across items instead
/// of reallocating them per item.
///
/// The determinism contract is the same as [`par_map_indexed`], with one
/// addition: `f` must treat the state as *scratch only*. The final result
/// for item `i` must be a pure function of `(index, item)` — never of
/// which worker ran it, or of what the scratch held from earlier items.
/// Every call site in this workspace guarantees this by fully overwriting
/// (or clearing) the scratch before use.
pub fn par_map_with<T, R, S, F, I>(items: &[T], threads: usize, init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    let n = items.len();
    let threads = threads.clamp(1, n.max(1));
    if threads == 1 {
        let mut state = init();
        return items
            .iter()
            .enumerate()
            .map(|(i, t)| f(&mut state, i, t))
            .collect();
    }

    let _pool_span = omt_obs::span("par/map");
    omt_obs::counter("par/maps", 1);
    omt_obs::counter("par/items", n as u64);
    let cursor = AtomicUsize::new(0);
    // Each worker returns its results plus its thread-local metric
    // registry, harvested just before the thread finishes.
    let per_worker: Vec<(Vec<(usize, R)>, omt_obs::Registry)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init();
                    let mut out = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        out.push((i, f(&mut state, i, &items[i])));
                    }
                    omt_obs::observe("par/worker_items", out.len() as u64);
                    (out, omt_obs::take_local())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|payload| resume_unwind(payload)))
            .collect()
    });

    // Deterministic join: place every result by its item index, and fold
    // worker registries into the caller's in worker-index order (the
    // merge is commutative, so scheduling cannot change the totals).
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (results, registry) in per_worker {
        omt_obs::merge_into_local(registry);
        for (i, r) in results {
            debug_assert!(slots[i].is_none(), "index {i} computed twice");
            slots[i] = Some(r);
        }
    }
    slots
        .into_iter()
        .map(|s| s.expect("the cursor hands out every index exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_index_order() {
        let items: Vec<usize> = (0..257).collect();
        for threads in [1, 2, 3, 8] {
            let out = par_map_indexed(&items, threads, |i, &x| {
                assert_eq!(i, x);
                x * 3 + 1
            });
            assert_eq!(out, items.iter().map(|x| x * 3 + 1).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_and_single_item() {
        let empty: Vec<u32> = vec![];
        assert_eq!(par_map_indexed(&empty, 8, |_, &x| x), Vec::<u32>::new());
        assert_eq!(par_map_indexed(&[7u32], 8, |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn more_threads_than_items() {
        let out = par_map_indexed(&[1u32, 2, 3], 64, |_, &x| x * 2);
        assert_eq!(out, vec![2, 4, 6]);
    }

    #[test]
    fn skewed_costs_still_join_in_order() {
        // Item 0 is far more expensive than the rest; its result must still
        // land first.
        let items: Vec<u64> = (0..32).collect();
        let out = par_map_indexed(&items, 4, |i, &x| {
            let spins = if i == 0 { 200_000 } else { 10 };
            let mut acc = x;
            for _ in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (x, acc)
        });
        for (i, (x, _)) in out.iter().enumerate() {
            assert_eq!(*x, i as u64);
        }
    }

    #[test]
    #[should_panic(expected = "worker boom")]
    fn worker_panics_propagate() {
        let items: Vec<usize> = (0..16).collect();
        let _ = par_map_indexed(&items, 4, |i, _| {
            if i == 5 {
                panic!("worker boom");
            }
            i
        });
    }

    #[test]
    fn map_mut_gives_each_item_exclusive_access() {
        for threads in [1, 2, 4, 8] {
            let mut items: Vec<Vec<u64>> = (0..33).map(|i| vec![i]).collect();
            let out = par_map_indexed_mut(&mut items, threads, |i, scratch| {
                assert_eq!(scratch[0], i as u64);
                scratch.push(i as u64 * 2);
                scratch.iter().sum::<u64>()
            });
            assert_eq!(out, (0..33).map(|i| i * 3).collect::<Vec<u64>>());
            // Mutations persist in the caller's items, in place.
            for (i, item) in items.iter().enumerate() {
                assert_eq!(item, &vec![i as u64, i as u64 * 2]);
            }
        }
    }

    #[test]
    fn map_mut_empty_and_single() {
        let mut empty: Vec<u32> = vec![];
        assert_eq!(
            par_map_indexed_mut(&mut empty, 8, |_, x| *x),
            Vec::<u32>::new()
        );
        let mut one = vec![7u32];
        assert_eq!(
            par_map_indexed_mut(&mut one, 8, |_, x| {
                *x += 1;
                *x
            }),
            vec![8]
        );
        assert_eq!(one, vec![8]);
    }

    #[test]
    #[should_panic(expected = "mut worker boom")]
    fn map_mut_worker_panics_propagate() {
        let mut items: Vec<usize> = (0..16).collect();
        let _ = par_map_indexed_mut(&mut items, 4, |i, _| {
            if i == 5 {
                panic!("mut worker boom");
            }
            i
        });
    }

    #[test]
    fn map_with_mut_combines_scratch_and_exclusive_items() {
        for threads in [1, 2, 4, 8] {
            // Items are disjoint windows of a conceptual array; each worker
            // reuses one scratch Vec across the windows it claims.
            let mut items: Vec<Vec<u64>> = (0..29).map(|i| vec![i, i + 1]).collect();
            let out = par_map_with_mut(
                &mut items,
                threads,
                Vec::<u64>::new,
                |scratch, i, window| {
                    scratch.clear();
                    scratch.extend_from_slice(window);
                    window.push(i as u64 * 10);
                    scratch.iter().sum::<u64>()
                },
            );
            assert_eq!(out, (0..29).map(|i| 2 * i + 1).collect::<Vec<u64>>());
            for (i, item) in items.iter().enumerate() {
                let i = i as u64;
                assert_eq!(item, &vec![i, i + 1, i * 10]);
            }
        }
    }

    #[test]
    fn map_with_mut_empty_and_single() {
        let mut empty: Vec<u32> = vec![];
        assert_eq!(
            par_map_with_mut(&mut empty, 8, || (), |(), _, x| *x),
            Vec::<u32>::new()
        );
        let mut one = vec![7u32];
        assert_eq!(
            par_map_with_mut(
                &mut one,
                8,
                || 1u32,
                |s, _, x| {
                    *x += *s;
                    *x
                }
            ),
            vec![8]
        );
        assert_eq!(one, vec![8]);
    }

    #[test]
    #[should_panic(expected = "with-mut worker boom")]
    fn map_with_mut_worker_panics_propagate() {
        let mut items: Vec<usize> = (0..16).collect();
        let _ = par_map_with_mut(
            &mut items,
            4,
            || (),
            |(), i, _| {
                if i == 5 {
                    panic!("with-mut worker boom");
                }
                i
            },
        );
    }

    #[test]
    fn resolve_threads_precedence() {
        assert_eq!(resolve_threads(Some(3)), 3);
        assert_eq!(resolve_threads(Some(0)), 1);
        assert!(resolve_threads(None) >= 1);
    }

    #[test]
    fn available_parallelism_is_positive() {
        assert!(available_parallelism() >= 1);
    }

    /// Worker-side metrics must all land in the caller's registry at the
    /// join point, regardless of which worker recorded them.
    #[cfg(feature = "obs")]
    #[test]
    fn worker_metrics_merge_at_join() {
        if !omt_obs::enable_memory() {
            return; // OMT_TRACE=0 pinned recording off for this process
        }
        let _ = omt_obs::take_local();
        let items: Vec<u64> = (0..64).collect();
        let out = par_map_indexed(&items, 4, |i, &x| {
            omt_obs::counter("par_test/claims", 1);
            omt_obs::observe("par_test/value", x);
            x + i as u64
        });
        assert_eq!(out.len(), 64);
        let reg = omt_obs::take_local();
        assert_eq!(reg.counter("par_test/claims"), 64);
        assert_eq!(reg.hist("par_test/value").unwrap().count, 64);
        assert_eq!(reg.counter("par/items"), 64);
        assert_eq!(reg.hist("par/worker_items").unwrap().count, 4);
    }
}
