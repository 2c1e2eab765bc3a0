//! The one grid-execution core behind every resilient runner.
//!
//! [`FaultCampaign`](crate::campaign::FaultCampaign) and the Table 4
//! [`dse`](crate::dse) sweep both evaluate a grid of independent items;
//! only the campaign journals its items (the sweep takes milliseconds).
//! [`run`] is the only place that:
//!
//! * replays items already recorded in a [`Checkpoint`] journal;
//! * enforces the [`RunBudget`] deadline and fresh-cell quota;
//! * isolates panics, turning one into [`SimError::WorkerPanic`] for its
//!   item only;
//! * retries transient failures ([`SimError::is_transient`]) with the
//!   attempt index;
//! * appends each freshly computed item to the journal.
//!
//! Items fan out onto the `refocus-par` pool and outcomes come back in
//! grid order, so a runner's report never depends on scheduling.
//!
//! [`simulate_suite`](crate::simulator::simulate_suite) is not a grid
//! runner: it has no journal, budget or retry, and a network costs less
//! than a parallel region, so it loops over its networks on the calling
//! thread with the same per-item panic isolation.

use crate::checkpoint::Checkpoint;
use crate::error::{FailureKind, SimError};
use serde::{Deserialize, Serialize};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The journal lock is held only around a lookup or an append, never
/// across a cell's computation, and no code panics while holding it.
const UNPOISONED: &str = "journal lock is never held across a panic";

/// Why an item was skipped without being attempted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SkipReason {
    /// The [`RunBudget::max_wall_clock`] deadline had passed.
    Deadline,
    /// The [`RunBudget::max_cells`] quota was already consumed.
    CellLimit,
}

/// Cooperative resource bounds for one grid invocation.
///
/// Bounds are checked *between* items — an item that has started always
/// runs to completion (or failure), so budget enforcement never tears a
/// measurement. The cell quota admits the same items on every run; which
/// items land beyond the deadline depends on scheduling, but item
/// *values* never do; a later resume from the journal completes the
/// remainder bit-identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunBudget {
    /// Wall-clock deadline for the whole invocation. Items not started
    /// before it passes are recorded as skipped.
    pub max_wall_clock: Option<Duration>,
    /// Maximum number of *freshly computed* items this invocation may
    /// run (journaled items replayed from a checkpoint are free): the
    /// first N items, in grid order, that the journal does not hold.
    /// Lets a caller run "N more cells" incrementally against one
    /// journal.
    pub max_cells: Option<usize>,
    /// How many times a transient failure ([`SimError::is_transient`])
    /// is retried before the item is recorded as failed.
    pub retries: u32,
}

impl Default for RunBudget {
    /// Unlimited time and cells, one retry per transient failure.
    fn default() -> Self {
        RunBudget {
            max_wall_clock: None,
            max_cells: None,
            retries: 1,
        }
    }
}

impl RunBudget {
    /// No deadline, no cell quota, no retries: every failure is final
    /// on its first occurrence.
    pub fn strict() -> Self {
        RunBudget {
            retries: 0,
            ..RunBudget::default()
        }
    }

    /// Replaces the wall-clock deadline.
    pub fn with_wall_clock(mut self, limit: Duration) -> Self {
        self.max_wall_clock = Some(limit);
        self
    }

    /// Replaces the fresh-cell quota.
    pub fn with_max_cells(mut self, cells: usize) -> Self {
        self.max_cells = Some(cells);
        self
    }

    /// Replaces the transient-failure retry count.
    pub fn with_retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }
}

/// What became of one grid item.
#[derive(Debug, PartialEq)]
pub enum Outcome<T> {
    /// Computed in this invocation or replayed from the journal.
    Done(T),
    /// The last attempt failed and no retry was left.
    Failed {
        /// Classification of the final error.
        kind: FailureKind,
        /// Rendered message of the final error.
        error: String,
        /// Attempts made, including the first.
        attempts: u32,
    },
    /// The budget did not let the item start.
    Skipped(SkipReason),
}

/// Evaluates `cell` over every item of `items` and returns one
/// [`Outcome`] per item, in grid order.
///
/// `cell(index, item, attempt)` computes one attempt of one item; it must
/// be a pure function of its arguments so that replays, retries and
/// thread counts never change a value. `key` names an item in the
/// journal and labels its `span` in traces; it is only called while a
/// journal is attached or a trace is recording. With a journal, items it
/// already holds are replayed without calling `cell` and without using
/// the budget, and each freshly computed item is appended to it; an
/// append that fails turns that item into a [`FailureKind::Checkpoint`]
/// failure.
pub fn run<I, T>(
    span: &'static str,
    items: &[I],
    key: impl Fn(&I) -> String + Sync,
    cell: impl Fn(usize, &I, u32) -> Result<T, SimError> + Sync,
    budget: &RunBudget,
    journal: Option<&mut Checkpoint<T>>,
) -> Vec<Outcome<T>>
where
    I: Sync,
    T: Clone + Send + Serialize + Deserialize,
{
    let deadline = budget.max_wall_clock.map(|limit| Instant::now() + limit);
    // Rank the items the journal does not hold in grid order, before any
    // worker starts, so the quota admits the same items at every thread
    // count. Journaled items replay before the quota is consulted.
    let admitted: Option<Vec<bool>> = budget.max_cells.map(|max| {
        let mut fresh = 0;
        items
            .iter()
            .map(|item| {
                if journal.as_ref().is_some_and(|j| j.contains(&key(item))) {
                    return true;
                }
                fresh += 1;
                fresh <= max
            })
            .collect()
    });
    let journal = journal.map(Mutex::new);

    refocus_par::par_map_indexed(items, |index, item| {
        let _cell = refocus_obs::span_with(span, || key(item));
        let journaled = journal.as_ref().map(|journal| (journal, key(item)));
        if let Some((journal, key)) = &journaled {
            if let Some(value) = journal.lock().expect(UNPOISONED).get(key) {
                refocus_obs::counter("grid.replayed", 1);
                return Outcome::Done(value.clone());
            }
        }
        if deadline.is_some_and(|deadline| Instant::now() >= deadline) {
            refocus_obs::counter("grid.skipped", 1);
            return Outcome::Skipped(SkipReason::Deadline);
        }
        if admitted.as_ref().is_some_and(|admitted| !admitted[index]) {
            refocus_obs::counter("grid.skipped", 1);
            return Outcome::Skipped(SkipReason::CellLimit);
        }

        let mut attempt = 0u32;
        let error = loop {
            let result =
                refocus_par::catch_item(|| cell(index, item, attempt)).unwrap_or_else(|message| {
                    Err(SimError::WorkerPanic {
                        item: index,
                        message,
                    })
                });
            match result {
                Ok(value) => {
                    let Some((journal, key)) = &journaled else {
                        return Outcome::Done(value);
                    };
                    match journal.lock().expect(UNPOISONED).append(key, value.clone()) {
                        Ok(()) => return Outcome::Done(value),
                        Err(e) => break SimError::from(e),
                    }
                }
                Err(e) if e.is_transient() && attempt < budget.retries => attempt += 1,
                Err(e) => break e,
            }
        };
        Outcome::Failed {
            kind: error.kind(),
            error: error.to_string(),
            attempts: attempt + 1,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    const THREADS: [usize; 3] = [1, 2, 8];

    fn scratch(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("refocus-grid-{name}-{}", std::process::id()));
        p
    }

    fn key(x: &u64) -> String {
        x.to_string()
    }

    /// A synthetic cell: item `x` at attempt `a` is worth `10 x + a`.
    fn tenfold(_: usize, x: &u64, attempt: u32) -> Result<u64, SimError> {
        Ok(10 * x + u64::from(attempt))
    }

    fn at_every_thread_count<R: PartialEq + std::fmt::Debug>(f: impl Fn() -> R) -> R {
        let reference = refocus_par::with_threads(1, &f);
        for threads in THREADS {
            assert_eq!(
                refocus_par::with_threads(threads, &f),
                reference,
                "{threads} threads"
            );
        }
        reference
    }

    #[test]
    fn outcomes_come_back_in_grid_order() {
        let items: Vec<u64> = (0..40).rev().collect();
        let got = at_every_thread_count(|| {
            run(
                "test.cell",
                &items,
                key,
                tenfold,
                &RunBudget::default(),
                None,
            )
        });
        let want: Vec<Outcome<u64>> = items.iter().map(|&x| Outcome::Done(10 * x)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn journaled_items_are_replayed_without_running_the_cell() {
        let items: Vec<u64> = (0..6).collect();
        for threads in THREADS {
            let path = scratch(&format!("replay-{threads}"));
            let mut journal = Checkpoint::create(&path, "grid-test").expect("journal creates");
            // A value no cell would compute proves the replay skipped it.
            journal.append("2", 999).expect("append");
            journal.append("4", 444).expect("append");
            let calls = AtomicU32::new(0);
            let got = refocus_par::with_threads(threads, || {
                run(
                    "test.cell",
                    &items,
                    key,
                    |i, x, a| {
                        calls.fetch_add(1, Ordering::Relaxed);
                        tenfold(i, x, a)
                    },
                    &RunBudget::strict().with_max_cells(4),
                    Some(&mut journal),
                )
            });
            assert_eq!(calls.load(Ordering::Relaxed), 4, "{threads} threads");
            let values: Vec<Outcome<u64>> = [0, 10, 999, 30, 444, 50]
                .into_iter()
                .map(Outcome::Done)
                .collect();
            assert_eq!(got, values, "{threads} threads");
            // Fresh items were appended: a second pass replays all six.
            let again = run(
                "test.cell",
                &items,
                key,
                |_, _, _| -> Result<u64, SimError> { panic!("every item is journaled") },
                &RunBudget::strict().with_max_cells(0),
                Some(&mut journal),
            );
            assert_eq!(again, values);
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn expired_deadline_skips_every_item() {
        let items: Vec<u64> = (0..5).collect();
        let budget = RunBudget::default().with_wall_clock(Duration::ZERO);
        let got = at_every_thread_count(|| run("test.cell", &items, key, tenfold, &budget, None));
        assert!(got
            .iter()
            .all(|o| *o == Outcome::Skipped(SkipReason::Deadline)));
    }

    #[test]
    fn quota_counts_only_fresh_items() {
        let items: Vec<u64> = (0..8).collect();
        for threads in THREADS {
            let path = scratch(&format!("quota-{threads}"));
            let mut journal = Checkpoint::create(&path, "grid-test").expect("journal creates");
            for x in [0u64, 1, 2] {
                journal.append(&key(&x), 10 * x).expect("append");
            }
            let got = refocus_par::with_threads(threads, || {
                run(
                    "test.cell",
                    &items,
                    key,
                    tenfold,
                    &RunBudget::default().with_max_cells(2),
                    Some(&mut journal),
                )
            });
            let done = got.iter().filter(|o| matches!(o, Outcome::Done(_))).count();
            let skipped = got
                .iter()
                .filter(|o| **o == Outcome::Skipped(SkipReason::CellLimit))
                .count();
            // Three replays are free; the quota admits two fresh items.
            assert_eq!((done, skipped), (5, 3), "{threads} threads");
            assert_eq!(journal.len(), 5);
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn quota_admits_the_first_fresh_items_in_grid_order() {
        // Reversed, so grid order differs from key order; items 5 and 3
        // (the first and third in the grid) are already journaled.
        let items: Vec<u64> = (0..6).rev().collect();
        let done = at_every_thread_count(|| {
            let path = scratch("quota-order");
            let mut journal = Checkpoint::create(&path, "grid-test").expect("journal creates");
            journal.append("5", 50).expect("append");
            journal.append("3", 30).expect("append");
            let got = run(
                "test.cell",
                &items,
                key,
                tenfold,
                &RunBudget::strict().with_max_cells(2),
                Some(&mut journal),
            );
            let _ = std::fs::remove_file(&path);
            items
                .iter()
                .zip(&got)
                .filter(|(_, o)| matches!(o, Outcome::Done(_)))
                .map(|(x, _)| key(x))
                .collect::<Vec<_>>()
        });
        // The two replays plus the first two fresh items, 4 and 2.
        assert_eq!(done, ["5", "4", "3", "2"]);
        // Without a journal the rank is the grid index.
        let got = at_every_thread_count(|| {
            run(
                "test.cell",
                &items,
                key,
                tenfold,
                &RunBudget::strict().with_max_cells(2),
                None,
            )
        });
        let mut want: Vec<Outcome<u64>> = vec![Outcome::Done(50), Outcome::Done(40)];
        want.resize_with(6, || Outcome::Skipped(SkipReason::CellLimit));
        assert_eq!(got, want);
    }

    #[test]
    fn transient_error_is_retried_with_attempt_one() {
        let items: Vec<u64> = (0..6).collect();
        let flaky = |i: usize, x: &u64, attempt: u32| {
            if *x == 3 && attempt == 0 {
                return Err(SimError::NonFinite {
                    stage: "test",
                    index: i,
                });
            }
            tenfold(i, x, attempt)
        };
        let got = at_every_thread_count(|| {
            run("test.cell", &items, key, flaky, &RunBudget::default(), None)
        });
        assert_eq!(got[3], Outcome::Done(31), "the retry ran as attempt 1");
        let strict = at_every_thread_count(|| {
            run("test.cell", &items, key, flaky, &RunBudget::strict(), None)
        });
        assert_eq!(
            strict[3],
            Outcome::Failed {
                kind: FailureKind::NonFinite,
                error: SimError::NonFinite {
                    stage: "test",
                    index: 3
                }
                .to_string(),
                attempts: 1,
            }
        );
    }

    #[test]
    fn permanent_error_fails_without_retry() {
        let items: Vec<u64> = (0..4).collect();
        let broken = |i: usize, x: &u64, attempt: u32| {
            if *x == 1 {
                return Err(SimError::EmptySuite);
            }
            tenfold(i, x, attempt)
        };
        let budget = RunBudget::default().with_retries(5);
        let got = at_every_thread_count(|| run("test.cell", &items, key, broken, &budget, None));
        assert_eq!(
            got[1],
            Outcome::Failed {
                kind: FailureKind::Empty,
                error: SimError::EmptySuite.to_string(),
                attempts: 1,
            }
        );
        assert_eq!(got[2], Outcome::Done(20));
    }

    #[test]
    fn panic_is_isolated_to_its_item() {
        // Reversed, so an item's index (2) differs from its value (13).
        let items: Vec<u64> = (0..16).rev().collect();
        let panicky = |i: usize, x: &u64, attempt: u32| {
            if *x == 13 {
                panic!("bad value {x}");
            }
            tenfold(i, x, attempt)
        };
        let got = at_every_thread_count(|| {
            run(
                "test.cell",
                &items,
                key,
                panicky,
                &RunBudget::default(),
                None,
            )
        });
        for (outcome, &x) in got.iter().zip(&items) {
            if x == 13 {
                assert_eq!(
                    *outcome,
                    Outcome::Failed {
                        kind: FailureKind::WorkerPanic,
                        error: "worker panicked on item 2: bad value 13".into(),
                        // Panics are transient: the default budget retried once.
                        attempts: 2,
                    }
                );
            } else {
                assert_eq!(*outcome, Outcome::Done(10 * x));
            }
        }
    }
}
