//! # foc-parallel — deterministic parallel map over independent work items
//!
//! Theorem 5.5's evaluation localises to *independent* pieces — clusters
//! of a neighbourhood cover, elements of a support set — so the pipeline
//! parallelises embarrassingly. This crate provides the one primitive
//! the engines need: [`par_map_isolated`], an order-preserving,
//! dynamically load-balanced map over a slice that contains worker
//! panics.
//!
//! Scheduling is work-stealing in the only sense that matters for a
//! shared-memory fan-out: idle workers claim the next unclaimed batch
//! from a shared atomic cursor, so a thread stuck on a huge cluster
//! never blocks the others, and no static partition can go pathological.
//! Results are written back under their input index, which makes the
//! output **bit-identical to the sequential map regardless of thread
//! count or interleaving** — the property the engine's agreement suite
//! pins down. Errors are deterministic too: when several items fail, the
//! one with the smallest index wins, exactly as in a sequential
//! left-to-right loop.
//!
//! The build environment has no crates.io access, so this replaces the
//! `rayon` dependency the design called for; `std::thread::scope` plus
//! an atomic cursor covers the engines' coarse-grained needs without a
//! pool, and keeps the crate dependency-free.

#![warn(missing_docs)]

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use foc_obs::{names, pow2_buckets, Counter, Gauge, Histogram, Metrics};

/// A panic caught inside a worker closure, reported as data instead of
/// unwinding through (or aborting) the fan-out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPanic {
    /// The panic payload, rendered to a string (`&str` / `String`
    /// payloads verbatim, anything else a placeholder).
    pub payload: String,
    /// Index of the input item whose evaluation panicked.
    pub item_index: usize,
}

/// A worker failure: either the closure's own error, or a caught panic.
/// The *lowest-index* fault wins when
/// several items fail, so the surfaced fault is scheduling-independent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault<E> {
    /// The closure returned an error.
    Error(E),
    /// The closure panicked; the panic was caught and the remaining
    /// workers drained cleanly.
    Panic(WorkerPanic),
}

/// One result slot of the isolated fan-out: unfilled, or the item's
/// outcome.
type FaultSlot<R, E> = Mutex<Option<Result<R, Fault<E>>>>;

/// Renders a panic payload (as captured by `catch_unwind`) to a string.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Metric handles for one fan-out site: items processed, batches
/// claimed from the stealing cursor, the worker fan-out, and the
/// distribution of batches claimed per worker (the "steal" profile — a
/// flat distribution means the load balanced; a skewed one means a few
/// workers dragged the tail).
#[derive(Debug, Clone)]
pub struct ParMeter {
    /// Work items processed.
    pub items: Counter,
    /// Batches claimed from the shared cursor.
    pub batches: Counter,
    /// Largest worker fan-out used (running max).
    pub workers: Gauge,
    /// Batches claimed per worker, one observation per worker per
    /// fan-out.
    pub batches_per_worker: Histogram,
}

impl ParMeter {
    /// Resolves the meter's instruments from a registry (see
    /// [`foc_obs::names`]).
    pub fn from_metrics(m: &Metrics) -> ParMeter {
        ParMeter {
            items: m.counter(names::PARALLEL_ITEMS),
            batches: m.counter(names::PARALLEL_BATCHES),
            workers: m.gauge(names::PARALLEL_WORKERS),
            batches_per_worker: m.histogram(names::PARALLEL_BATCHES_PER_WORKER, &pow2_buckets(12)),
        }
    }
}

/// The hardware parallelism available to this process (≥ 1).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolves a configured thread count: `0` means "use the hardware",
/// anything else is taken literally (and clamped to ≥ 1).
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        available_threads()
    } else {
        requested
    }
}

/// Applies `f` to every item, in parallel over `threads` workers
/// (`0` = one per hardware thread), returning results in input order,
/// with **panic isolation** and **per-worker state**.
///
/// With a [`ParMeter`], every fan-out records items processed, batches
/// claimed and the per-worker batch distribution, on the sequential
/// path too. Metering never changes scheduling or results — the
/// instruments are relaxed atomics off the claim path.
///
/// A panic inside `f` is caught on the worker, the remaining
/// items are still evaluated (the other workers drain cleanly and every
/// thread is joined), and the panic surfaces to the caller as
/// [`Fault::Panic`] carrying the payload and the item index. When
/// several items fault, the lowest-index fault wins regardless of thread
/// count.
///
/// Each worker builds its state with `init` before its first item and
/// hands it to `f` for every item it claims, so scratch space is set up
/// once per worker rather than once per item. A worker whose item
/// panicked drops its state and builds a fresh one for its next item.
///
/// With `threads <= 1` (or fewer than two items) this is the sequential
/// left-to-right loop over one state, including early exit at the first
/// fault.
pub fn par_map_isolated<T, S, R, E, I, F>(
    items: &[T],
    threads: usize,
    meter: Option<&ParMeter>,
    init: I,
    f: F,
) -> Result<Vec<R>, Fault<E>>
where
    T: Sync,
    R: Send,
    E: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> Result<R, E> + Sync,
{
    let n = items.len();
    let threads = resolve_threads(threads).min(n.max(1));
    let run = |state: &mut Option<S>, i: usize, item: &T| -> Result<R, Fault<E>> {
        match catch_unwind(AssertUnwindSafe(|| {
            f(state.get_or_insert_with(&init), i, item)
        })) {
            Ok(Ok(v)) => Ok(v),
            Ok(Err(e)) => Err(Fault::Error(e)),
            Err(payload) => {
                *state = None;
                Err(Fault::Panic(WorkerPanic {
                    payload: panic_message(payload.as_ref()),
                    item_index: i,
                }))
            }
        }
    };
    if threads <= 1 || n <= 1 {
        if let Some(m) = meter {
            m.items.add(n as u64);
            m.batches.add(u64::from(n > 0));
            m.workers.set_max(1);
            if n > 0 {
                m.batches_per_worker.observe(1);
            }
        }
        let mut state = None;
        return items
            .iter()
            .enumerate()
            .map(|(i, t)| run(&mut state, i, t))
            .collect();
    }
    if let Some(m) = meter {
        m.items.add(n as u64);
        m.workers.set_max(threads as u64);
    }

    // Batched claiming: big enough to keep the cursor cool, small enough
    // that a skewed batch cannot serialise the tail.
    let batch = (n / (threads * 8)).max(1);
    let cursor = AtomicUsize::new(0);
    let slots: Vec<FaultSlot<R, E>> = (0..n).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut state = None;
                let mut claimed: u64 = 0;
                loop {
                    let start = cursor.fetch_add(batch, Ordering::Relaxed);
                    if start >= n {
                        break;
                    }
                    claimed += 1;
                    let end = (start + batch).min(n);
                    for (i, item) in items.iter().enumerate().take(end).skip(start) {
                        // `run` never unwinds, so the slot lock cannot be
                        // poisoned by a faulting item.
                        *slots[i].lock().expect("result slot poisoned") =
                            Some(run(&mut state, i, item));
                    }
                }
                if let Some(m) = meter {
                    m.batches.add(claimed);
                    m.batches_per_worker.observe(claimed);
                }
            });
        }
    });

    let mut out = Vec::with_capacity(n);
    let mut first_err: Option<Fault<E>> = None;
    for slot in slots {
        let res = slot
            .into_inner()
            .expect("result slot poisoned")
            .expect("item evaluated");
        match res {
            Ok(v) => out.push(v),
            Err(e) => {
                first_err = Some(e);
                break;
            }
        }
    }
    match first_err {
        Some(e) => Err(e),
        None => Ok(out),
    }
}

/// Runs one fallible closure with [`par_map_isolated`]-style panic
/// containment: a panic is caught and surfaced as [`Fault::Panic`]
/// (with `item_index == 0`) instead of unwinding into the caller.
///
/// This is the request-level isolation primitive: a server evaluates
/// each request under `run_isolated` so a poisoned query is answered
/// with an error while the serving thread survives.
pub fn run_isolated<R, E, F>(f: F) -> Result<R, Fault<E>>
where
    F: FnOnce() -> Result<R, E>,
{
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(e)) => Err(Fault::Error(e)),
        Err(payload) => Err(Fault::Panic(WorkerPanic {
            payload: panic_message(payload.as_ref()),
            item_index: 0,
        })),
    }
}

/// [`run_isolated`] with a panic-path hook: when the closure panics,
/// `on_panic` runs on the catching thread with the captured
/// [`WorkerPanic`] *before* the fault is returned to the caller. This
/// is where a serving process dumps its flight recorder — the evidence
/// (recent spans, the panic payload) is captured at the moment of
/// containment, not later when the error frame is assembled.
///
/// The hook only fires for panics; closure errors pass through
/// untouched. A panic *inside the hook itself* is not contained.
pub fn run_isolated_observed<R, E, F, H>(f: F, on_panic: H) -> Result<R, Fault<E>>
where
    F: FnOnce() -> Result<R, E>,
    H: FnOnce(&WorkerPanic),
{
    let r = run_isolated(f);
    if let Err(Fault::Panic(p)) = &r {
        on_panic(p);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// An infallible map through [`par_map_isolated`].
    fn map<T: Sync, R: Send>(
        items: &[T],
        threads: usize,
        f: impl Fn(usize, &T) -> R + Sync,
    ) -> Vec<R> {
        par_map_isolated(items, threads, None, || (), |_, i, t| Ok::<R, ()>(f(i, t))).unwrap()
    }

    #[test]
    fn matches_sequential_for_all_thread_counts() {
        let items: Vec<u64> = (0..257).collect();
        let want: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = map(&items, threads, |_, &x| x * x + 1);
            assert_eq!(got, want, "threads = {threads}");
        }
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let counters: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        let items: Vec<usize> = (0..100).collect();
        map(&items, 8, |i, _| counters[i].fetch_add(1, Ordering::SeqCst));
        for (i, c) in counters.iter().enumerate() {
            assert_eq!(c.load(Ordering::SeqCst), 1, "item {i}");
        }
    }

    #[test]
    fn lowest_index_error_wins() {
        let items: Vec<u32> = (0..100).collect();
        for threads in [1, 4, 16] {
            let got: Result<Vec<u32>, Fault<usize>> = par_map_isolated(
                &items,
                threads,
                None,
                || (),
                |_, i, &x| {
                    if x % 7 == 3 {
                        Err(i)
                    } else {
                        Ok(x)
                    }
                },
            );
            assert_eq!(got.unwrap_err(), Fault::Error(3), "threads = {threads}");
        }
    }

    #[test]
    fn sequential_path_stops_at_the_first_fault() {
        let ran = AtomicUsize::new(0);
        let items: Vec<u32> = (0..100).collect();
        let got: Result<Vec<u32>, Fault<u32>> = par_map_isolated(
            &items,
            1,
            None,
            || (),
            |_, _, &x| {
                ran.fetch_add(1, Ordering::SeqCst);
                if x == 10 {
                    Err(x)
                } else {
                    Ok(x)
                }
            },
        );
        assert_eq!(got.unwrap_err(), Fault::Error(10));
        assert_eq!(ran.load(Ordering::SeqCst), 11);
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(map(&empty, 8, |_, &x| x).is_empty());
        assert_eq!(map(&[5u32], 8, |_, &x| x + 1), vec![6]);
    }

    #[test]
    fn meter_accounts_for_every_item_and_batch() {
        let run = |threads: usize, meter: &ParMeter| {
            let items: Vec<u64> = (0..257).collect();
            let got: Result<Vec<u64>, Fault<()>> =
                par_map_isolated(&items, threads, Some(meter), || (), |_, _, &x| Ok(x + 1));
            assert_eq!(got.unwrap().len(), 257);
        };
        let m = foc_obs::Metrics::new();
        let meter = ParMeter::from_metrics(&m);
        run(4, &meter);
        assert_eq!(meter.items.get(), 257);
        assert!(meter.batches.get() >= 1);
        assert_eq!(meter.workers.get(), 4);
        // One observation per worker, each counting its claimed batches.
        assert_eq!(meter.batches_per_worker.count(), 4);
        assert_eq!(meter.batches_per_worker.sum(), meter.batches.get());

        // The sequential path accounts too: one worker, one batch.
        let m1 = foc_obs::Metrics::new();
        let meter1 = ParMeter::from_metrics(&m1);
        run(1, &meter1);
        assert_eq!(meter1.items.get(), 257);
        assert_eq!(meter1.workers.get(), 1);
        assert_eq!(meter1.batches.get(), 1);
        assert_eq!(meter1.batches_per_worker.count(), 1);
    }

    #[test]
    fn panic_is_isolated_at_every_thread_count() {
        let items: Vec<u32> = (0..64).collect();
        for threads in [1, 2, 8] {
            let got: Result<Vec<u32>, Fault<&str>> = par_map_isolated(
                &items,
                threads,
                None,
                || (),
                |_, _, &x| {
                    if x == 13 {
                        panic!("boom on {x}");
                    }
                    Ok(x)
                },
            );
            match got {
                Err(Fault::Panic(p)) => {
                    assert_eq!(p.item_index, 13, "threads = {threads}");
                    assert_eq!(p.payload, "boom on 13", "threads = {threads}");
                }
                other => panic!("expected caught panic at threads={threads}, got {other:?}"),
            }
        }
    }

    #[test]
    fn lowest_index_fault_wins_across_panics_and_errors() {
        let items: Vec<u32> = (0..100).collect();
        for threads in [1, 4, 16] {
            let got: Result<Vec<u32>, Fault<usize>> = par_map_isolated(
                &items,
                threads,
                None,
                || (),
                |_, i, &x| {
                    if x == 20 {
                        panic!("late panic");
                    }
                    if x == 5 {
                        return Err(i);
                    }
                    Ok(x)
                },
            );
            assert_eq!(got.unwrap_err(), Fault::Error(5), "threads = {threads}");
        }
    }

    #[test]
    fn parallel_workers_drain_after_a_panic() {
        // In the parallel path every claimed item is still evaluated after
        // a panic — workers drain instead of tearing the fan-out down.
        let ran = AtomicUsize::new(0);
        let items: Vec<u32> = (0..64).collect();
        let got: Result<Vec<u32>, Fault<&str>> = par_map_isolated(
            &items,
            8,
            None,
            || (),
            |_, _, &x| {
                ran.fetch_add(1, Ordering::SeqCst);
                if x == 0 {
                    panic!("first item");
                }
                Ok(x)
            },
        );
        assert!(matches!(got, Err(Fault::Panic(p)) if p.item_index == 0));
        assert_eq!(ran.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn worker_state_is_built_once_per_worker() {
        let items: Vec<u32> = (0..200).collect();
        for threads in [1, 2, 8] {
            let inits = AtomicUsize::new(0);
            let got: Result<Vec<(u32, usize)>, Fault<()>> = par_map_isolated(
                &items,
                threads,
                None,
                || {
                    inits.fetch_add(1, Ordering::SeqCst);
                    0usize
                },
                |seen, _, &x| {
                    *seen += 1;
                    Ok((x * 2, *seen))
                },
            );
            let got = got.unwrap();
            let values: Vec<u32> = got.iter().map(|&(v, _)| v).collect();
            assert_eq!(values, items.iter().map(|x| x * 2).collect::<Vec<_>>());
            let built = inits.load(Ordering::SeqCst);
            assert!(
                (1..=threads).contains(&built),
                "threads = {threads}: {built} states"
            );
            // Every state's item counter ends at the number of items it saw.
            let max_seen: usize = got.iter().map(|&(_, s)| s).max().unwrap();
            assert!(max_seen >= items.len() / threads, "threads = {threads}");
        }
    }

    #[test]
    fn a_panicking_item_gets_its_worker_a_fresh_state() {
        // 256 items claim in batches of 16 (2 threads) or 4 (8 threads),
        // starting at multiples of the batch, so the item after each
        // panicking `x ≡ 1 (mod 4)` runs next on the same worker.
        let items: Vec<u32> = (0..256).collect();
        for threads in [2, 8] {
            let reused = AtomicUsize::new(0);
            let got: Result<Vec<u32>, Fault<()>> = par_map_isolated(
                &items,
                threads,
                None,
                || false,
                |poisoned, _, &x| {
                    if *poisoned {
                        reused.fetch_add(1, Ordering::SeqCst);
                    }
                    if x % 4 == 1 {
                        *poisoned = true;
                        panic!("boom on {x}");
                    }
                    Ok(x)
                },
            );
            match got {
                Err(Fault::Panic(p)) => {
                    assert_eq!(p.item_index, 1, "threads = {threads}");
                    assert_eq!(p.payload, "boom on 1", "threads = {threads}");
                }
                other => panic!("expected the first panic, got {other:?}"),
            }
            assert_eq!(reused.load(Ordering::SeqCst), 0, "threads = {threads}");
        }
    }

    #[test]
    fn run_isolated_contains_a_panic_and_passes_results_through() {
        let ok: Result<u32, Fault<&str>> = run_isolated(|| Ok(7));
        assert_eq!(ok.unwrap(), 7);
        let err: Result<u32, Fault<&str>> = run_isolated(|| Err("bad"));
        assert_eq!(err.unwrap_err(), Fault::Error("bad"));
        let boom: Result<u32, Fault<&str>> = run_isolated(|| panic!("poisoned request"));
        match boom {
            Err(Fault::Panic(p)) => assert_eq!(p.payload, "poisoned request"),
            other => panic!("expected caught panic, got {other:?}"),
        }
    }

    #[test]
    fn run_isolated_observed_fires_the_hook_only_on_panic() {
        let fired = AtomicUsize::new(0);
        let ok: Result<u32, Fault<&str>> = run_isolated_observed(
            || Ok(7),
            |_| {
                fired.fetch_add(1, Ordering::SeqCst);
            },
        );
        assert_eq!(ok.unwrap(), 7);
        let err: Result<u32, Fault<&str>> = run_isolated_observed(
            || Err("bad"),
            |_| {
                fired.fetch_add(1, Ordering::SeqCst);
            },
        );
        assert_eq!(err.unwrap_err(), Fault::Error("bad"));
        assert_eq!(fired.load(Ordering::SeqCst), 0, "hook must not fire yet");
        let boom: Result<u32, Fault<&str>> = run_isolated_observed(
            || panic!("dump me"),
            |p| {
                assert_eq!(p.payload, "dump me");
                fired.fetch_add(1, Ordering::SeqCst);
            },
        );
        assert!(matches!(boom, Err(Fault::Panic(_))));
        assert_eq!(fired.load(Ordering::SeqCst), 1, "hook fires once per panic");
    }

    #[test]
    fn panic_message_renders_common_payloads() {
        assert_eq!(
            panic_message(&"static" as &(dyn std::any::Any + Send)),
            "static"
        );
        let s: Box<dyn std::any::Any + Send> = Box::new(String::from("owned"));
        assert_eq!(panic_message(s.as_ref()), "owned");
        let other: Box<dyn std::any::Any + Send> = Box::new(42u32);
        assert_eq!(panic_message(other.as_ref()), "non-string panic payload");
    }

    #[test]
    fn zero_threads_resolves_to_hardware() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
        let items: Vec<u32> = (0..10).collect();
        assert_eq!(map(&items, 0, |_, &x| x), items);
    }
}
