//! # refocus-par
//!
//! A zero-dependency scoped parallel runtime for the ReFOCUS simulator.
//!
//! The simulator's hot loops are *coarse-grained fan-outs* over independent
//! work items — output channels of a convolution, (severity, seed) cells of
//! a fault campaign, delay-line lengths of a DSE sweep. This crate
//! parallelizes exactly that shape:
//!
//! * [`par_map`] / [`par_map_indexed`] — map a function over a slice on a
//!   scoped work-stealing worker team, returning results in **input order**.
//! * [`catch_item`] — run one closure, turning a panic into an error
//!   message (the per-item isolation `refocus-arch`'s grid core builds on).
//!
//! ## Design
//!
//! Work items are pre-seeded round-robin into one double-ended queue per
//! worker; each worker drains its own queue from the front and, when empty,
//! **steals** from the back of the other queues. The calling thread
//! participates as worker 0, and the remaining workers are spawned with
//! [`std::thread::scope`], so closures may borrow from the caller's stack
//! without `unsafe` lifetime erasure. Spawning per scope (rather than
//! keeping a persistent pool) costs a few tens of microseconds — noise
//! against the millisecond-scale work items this workspace fans out — and
//! buys a runtime with no `unsafe`, no globals holding boxed tasks, and no
//! shutdown protocol.
//!
//! ## Determinism contract
//!
//! Results are written to per-item slots, so `par_map` output order equals
//! input order at every thread count. Work that consumes seeded random
//! streams must derive an *independent stream per work item from the item's
//! index* (see `refocus_photonics::faults::FaultInjector::for_work_item`),
//! never from shared mutable RNG state; then serial and parallel execution
//! are bit-identical and the thread count is purely a throughput knob.
//!
//! ## Nesting
//!
//! A `par_map` issued from inside a worker runs serially inline: the
//! outermost fan-out already owns every core, and serial nesting keeps the
//! worst case at `threads` live workers instead of `threads²`.
//!
//! ## Thread-count control
//!
//! Priority order: [`with_threads`] scoped override (per-thread, used by
//! the determinism tests) > the `REFOCUS_THREADS` environment variable >
//! [`std::thread::available_parallelism`].
//!
//! ## Panics
//!
//! A panicking work item aborts the scope: remaining queued items are
//! dropped, the team drains, and the first panic payload is re-raised on
//! the calling thread — `par_map` panics exactly like the serial loop
//! would, just possibly earlier.
//!
//! When one poisoned item must not kill the whole fan-out — a fault
//! campaign that should record the bad cell and keep sweeping — wrap the
//! item in [`catch_item`]: a panic becomes an `Err(message)` for that item
//! only, and every other item still completes.
//!
//! # Examples
//!
//! ```
//! let squares = refocus_par::par_map(&[1u64, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

thread_local! {
    /// Scoped thread-count override installed by [`with_threads`].
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    /// Set while this thread is executing work items for a parallel
    /// region; nested regions run serially.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// `REFOCUS_THREADS` parsed once per process (0 or garbage ⇒ unset).
fn env_threads() -> Option<usize> {
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("REFOCUS_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
    })
}

/// `available_parallelism()` resolved once per process. The raw call is
/// far from free — on cgroup-capable Linux it re-reads cgroup quota
/// files every time (~15µs measured) — and it used to run per parallel
/// region, which alone cost a small-grid campaign ~10% of its wall-clock
/// (the phantom "serial beats parallel" artifact diagnosed in
/// DESIGN.md §10 via the obs layer).
fn machine_threads() -> usize {
    static MACHINE: OnceLock<usize> = OnceLock::new();
    *MACHINE.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// The worker-team size the next parallel region on this thread will use:
/// the [`with_threads`] override if one is active, else `REFOCUS_THREADS`,
/// else the machine's available parallelism. Always ≥ 1.
pub fn max_threads() -> usize {
    if let Some(n) = THREAD_OVERRIDE.with(Cell::get) {
        return n.max(1);
    }
    if let Some(n) = env_threads() {
        return n;
    }
    machine_threads()
}

/// Runs `f` with the team size pinned to `threads` (min 1) for every
/// parallel region issued from this thread, restoring the previous setting
/// afterwards (exception-safe). This is how the determinism suite compares
/// thread counts 1/2/8 within one process.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(THREAD_OVERRIDE.with(|c| c.replace(Some(threads.max(1)))));
    f()
}

/// True while the current thread is itself a worker of an enclosing
/// parallel region (nested regions run serially).
pub fn in_parallel_region() -> bool {
    IN_WORKER.with(Cell::get)
}

/// Maps `f` over `items` on the worker team; results are returned in input
/// order regardless of which worker computed them.
///
/// # Panics
///
/// Re-raises the first panic any work item produced.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_indexed(items, |_, item| f(item))
}

/// [`par_map`] where `f` also receives the item's index — the hook for
/// deriving per-work-item random streams.
///
/// # Panics
///
/// Re-raises the first panic any work item produced.
pub fn par_map_indexed<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    run_region(items.len(), |i| {
        let r = f(i, &items[i]);
        *slots[i].lock().expect("result slot poisoned") = Some(r);
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every work item ran")
        })
        .collect()
}

/// Extracts a human-readable message from a panic payload: the `&str` or
/// `String` carried by `panic!`, or a placeholder for exotic payloads.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `f`, converting a panic into `Err(message)` instead of unwinding.
///
/// The building block for per-item isolation: a retry loop that must
/// survive a panicking attempt, or a fan-out that records a panicking
/// item and keeps going.
pub fn catch_item<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| panic_message(p.as_ref()))
}

/// Executes tasks `0..n` (each exactly once) on the worker team; serial
/// fallback when the team is size 1, the region is nested, or `n <= 1`.
fn run_region<F>(n: usize, task: F)
where
    F: Fn(usize) + Sync,
{
    if n == 0 {
        return;
    }
    let threads = max_threads().min(n);
    if threads <= 1 || in_parallel_region() {
        for i in 0..n {
            task(i);
        }
        return;
    }

    // Pre-seed the deques round-robin: worker w owns items w, w+T, w+2T, …
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..threads)
        .map(|w| Mutex::new(((w..n).step_by(threads)).collect()))
        .collect();
    let abort = AtomicBool::new(false);
    let first_panic: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);

    let worker = |me: usize| {
        struct WorkerGuard(bool);
        impl Drop for WorkerGuard {
            fn drop(&mut self) {
                IN_WORKER.with(|c| c.set(self.0));
            }
        }
        let _guard = WorkerGuard(IN_WORKER.with(|c| c.replace(true)));
        while !abort.load(Ordering::Relaxed) {
            // Own queue first (front: preserves the pre-seeded order)…
            let mut next = queues[me].lock().expect("queue poisoned").pop_front();
            if next.is_none() {
                // …then steal from the back of a victim's queue.
                for v in 1..threads {
                    let victim = (me + v) % threads;
                    next = queues[victim].lock().expect("queue poisoned").pop_back();
                    if next.is_some() {
                        break;
                    }
                }
            }
            let Some(i) = next else { return };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| task(i))) {
                let mut slot = first_panic.lock().expect("panic slot poisoned");
                if slot.is_none() {
                    *slot = Some(payload);
                }
                abort.store(true, Ordering::Relaxed);
                return;
            }
        }
    };

    std::thread::scope(|s| {
        let handles: Vec<_> = (1..threads).map(|w| s.spawn(move || worker(w))).collect();
        worker(0);
        // Join each worker explicitly: `scope` by itself only waits for
        // the worker *closures* to return, not for the OS threads to
        // terminate (rust-lang/rust#116237), so thread-local destructors
        // — e.g. the refocus-obs sink flush — could still be running
        // when the region "ends". `join` waits for full thread
        // termination, destructors included.
        for handle in handles {
            if let Err(payload) = handle.join() {
                // A worker closure itself panicked (task panics are
                // already caught above); re-raise like `scope` would.
                resume_unwind(payload);
            }
        }
    });

    if let Some(payload) = first_panic.into_inner().expect("panic slot poisoned") {
        resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    #[test]
    fn results_preserve_input_order() {
        let items: Vec<u64> = (0..257).collect();
        let got = with_threads(8, || par_map(&items, |&x| x * 3));
        let want: Vec<u64> = items.iter().map(|&x| x * 3).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn indexed_map_sees_correct_indices() {
        let items = vec!["a", "b", "c", "d"];
        let got = with_threads(4, || par_map_indexed(&items, |i, &s| format!("{i}:{s}")));
        assert_eq!(got, vec!["0:a", "1:b", "2:c", "3:d"]);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = vec![];
        assert_eq!(par_map(&empty, |&x| x), Vec::<u32>::new());
        assert_eq!(par_map(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn work_is_distributed_across_threads() {
        // With 10 ms work items and 4 workers each pre-seeded 4 items,
        // more than one OS thread ends up executing tasks even on one
        // core (worker 0 cannot finish 16 sleeps before the others run).
        let ids = Mutex::new(HashSet::new());
        let items: Vec<u32> = (0..16).collect();
        with_threads(4, || {
            par_map(&items, |_| {
                std::thread::sleep(Duration::from_millis(10));
                ids.lock().unwrap().insert(std::thread::current().id());
            })
        });
        assert!(ids.lock().unwrap().len() >= 2);
    }

    #[test]
    fn stealing_drains_an_imbalanced_load() {
        // One pathological item 100x the others: total runtime must be
        // bounded by the work, not by a worker idling — asserted simply by
        // all items completing and each exactly once.
        let counts: Vec<AtomicUsize> = (0..32).map(|_| AtomicUsize::new(0)).collect();
        let items: Vec<usize> = (0..32).collect();
        with_threads(4, || {
            par_map(&items, |&i| {
                let ms = if i == 0 { 50 } else { 1 };
                std::thread::sleep(Duration::from_millis(ms));
                counts[i].fetch_add(1, Ordering::Relaxed);
            })
        });
        for c in &counts {
            assert_eq!(c.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn panics_propagate_to_caller() {
        let items: Vec<u32> = (0..64).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            with_threads(4, || {
                par_map(&items, |&x| {
                    if x == 13 {
                        panic!("unlucky item");
                    }
                    x
                })
            })
        }));
        let payload = result.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "unlucky item");
    }

    #[test]
    fn nested_regions_run_serially_and_correctly() {
        let outer: Vec<u64> = (0..8).collect();
        let got = with_threads(4, || {
            par_map(&outer, |&o| {
                assert!(in_parallel_region());
                let inner: Vec<u64> = (0..8).collect();
                par_map(&inner, |&i| o * 100 + i).iter().sum::<u64>()
            })
        });
        let want: Vec<u64> = outer
            .iter()
            .map(|&o| (0..8).map(|i| o * 100 + i).sum())
            .collect();
        assert_eq!(got, want);
        assert!(!in_parallel_region());
    }

    #[test]
    fn with_threads_restores_on_exit_and_panic() {
        with_threads(3, || assert_eq!(max_threads(), 3));
        let before = max_threads();
        let _ = catch_unwind(AssertUnwindSafe(|| {
            with_threads(5, || -> () { panic!("boom") })
        }));
        assert_eq!(max_threads(), before);
        // Nested overrides shadow and restore.
        with_threads(2, || {
            assert_eq!(max_threads(), 2);
            with_threads(6, || assert_eq!(max_threads(), 6));
            assert_eq!(max_threads(), 2);
        });
    }

    #[test]
    fn catch_item_preserves_results_and_messages() {
        assert_eq!(catch_item(|| 7), Ok(7));
        assert_eq!(catch_item(|| -> i32 { panic!("boom") }), Err("boom".into()));
        assert_eq!(
            catch_item(|| -> i32 { std::panic::panic_any(format!("owned {}", 1)) }),
            Err("owned 1".into())
        );
    }

    #[test]
    fn serial_and_parallel_results_agree() {
        let items: Vec<u64> = (0..100).collect();
        let f = |&x: &u64| x.wrapping_mul(0x9E3779B97F4A7C15).rotate_left(17);
        let serial = with_threads(1, || par_map(&items, f));
        let parallel = with_threads(8, || par_map(&items, f));
        assert_eq!(serial, parallel);
    }
}
