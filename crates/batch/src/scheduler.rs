//! A std-only task scheduler: one queue in predicted-cost order.
//!
//! The build environment has no crates.io access, so there is no rayon;
//! this is built from the standard library alone. The task indices are
//! sorted heaviest predicted cost first (a stable sort, so equal costs keep
//! task order), and every worker claims the next index from one atomic
//! cursor over that order. Each idle worker thus takes the heaviest task
//! not yet started: greedy list scheduling in predicted-cost order, so a
//! batch with a few heavy goals starts them at once instead of discovering
//! them last. No task ever enqueues another task, so a worker exits as
//! soon as the cursor passes the last task.
//!
//! Determinism: results are written into a slot per task index, so the
//! returned `Vec` is always in task order no matter which worker finished
//! what, when. Scheduling (which worker runs which task) is *not*
//! deterministic — tasks must not depend on execution order, only on their
//! own input. Proof search satisfies this: goals are independent.

use std::cmp::Reverse;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::thread;

use cycleq_trace::{lock_recover, metrics, Counter, Gauge};

/// Process-wide registry handles for scheduler activity.
#[derive(Debug, Clone)]
struct SchedulerMetrics {
    /// Tasks executed.
    tasks: Counter,
    /// Tasks currently queued across all live batch runs.
    queue_depth: Gauge,
    /// Tasks whose panic was caught and isolated into a [`TaskPanic`].
    task_panics: Counter,
}

fn scheduler_metrics() -> &'static SchedulerMetrics {
    static METRICS: OnceLock<SchedulerMetrics> = OnceLock::new();
    METRICS.get_or_init(|| SchedulerMetrics {
        tasks: metrics().counter(
            "cycleq_batch_tasks_total",
            "Batch tasks executed by the scheduler (including inline runs).",
        ),
        queue_depth: metrics().gauge(
            "cycleq_batch_queue_depth",
            "Batch tasks currently queued and not yet started, across live runs.",
        ),
        task_panics: metrics().counter(
            "cycleq_batch_task_panics_total",
            "Batch tasks that panicked and were isolated into per-task failures.",
        ),
    })
}

/// A task that panicked instead of returning; the scheduler turns the
/// unwind into this structured per-task failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskPanic {
    /// The panic payload, if it was a string (the common case for both
    /// `panic!` and assertion failures); a placeholder otherwise.
    pub message: String,
}

impl fmt::Display for TaskPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task panicked: {}", self.message)
    }
}

impl std::error::Error for TaskPanic {}

/// Extracts a human-readable message from a caught panic payload.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Starts one dequeued task under `catch_unwind`, counting it and any
/// panic it raises.
///
/// `AssertUnwindSafe` is sound here because a panicking task's result slot
/// is overwritten with the `Err` — no caller observes state the task left
/// half-updated through the scheduler, and shared state reached through
/// captured references is itself poison-recovering.
fn run_task<T, F>(task: F, worker: usize) -> Result<T, TaskPanic>
where
    F: FnOnce(usize) -> T,
{
    let m = scheduler_metrics();
    m.queue_depth.sub(1);
    m.tasks.inc();
    catch_unwind(AssertUnwindSafe(|| task(worker))).map_err(|payload| {
        m.task_panics.inc();
        TaskPanic {
            message: panic_message(payload.as_ref()),
        }
    })
}

/// Stack size for worker threads. Reduction and proof search recurse on
/// term structure, which for deep numeral towers can nest thousands of
/// frames; the default 2 MiB spawn stack is too tight, so workers get the
/// same order of headroom as the main thread.
const WORKER_STACK_BYTES: usize = 32 * 1024 * 1024;

/// The number of hardware threads, with a floor of 1 (used for `--jobs 0`
/// / "auto").
pub fn available_parallelism() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// A fixed-width executor for independent, indexed tasks.
#[derive(Copy, Clone, Debug)]
pub struct BatchScheduler {
    jobs: usize,
}

impl BatchScheduler {
    /// A scheduler running `jobs` workers; `0` means one worker per
    /// hardware thread.
    pub fn new(jobs: usize) -> BatchScheduler {
        BatchScheduler {
            jobs: if jobs == 0 {
                available_parallelism()
            } else {
                jobs
            },
        }
    }

    /// The worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Runs every task, all of equal predicted cost, and returns the
    /// results **in task order**.
    ///
    /// # Panics
    ///
    /// If a task panics, the panic is caught and isolated (every other task
    /// still runs to completion), then re-raised to the caller after the
    /// batch finishes. Use [`BatchScheduler::run_with_costs_catching`] to
    /// receive per-task failures instead.
    pub fn run<T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce(usize) -> T + Send,
    {
        let costs = vec![1; tasks.len()];
        self.run_with_costs_catching(tasks, &costs)
            .into_iter()
            .map(|r| r.unwrap_or_else(|p| panic!("batch {p}")))
            .collect()
    }

    /// Runs every task and returns the results **in task order**; a
    /// panicking task yields `Err(TaskPanic)` in its slot instead of
    /// re-raising, so the batch always completes and the caller decides
    /// how a faulted task degrades.
    ///
    /// Each task receives the index of the worker running it. Workers
    /// start tasks heaviest *predicted cost* first, each idle worker taking
    /// the next task in that order, so a few heavy goals start at once
    /// instead of behind a wall of cheap ones, which is what bounds the
    /// batch's tail latency. Costs are relative weights in arbitrary units
    /// (goal term size, …); only their order matters, and equal costs
    /// start in task order. With one worker — or a single task — every
    /// task runs inline on the calling thread, in task order: the
    /// sequential fallback involves no threads at all.
    ///
    /// # Panics
    ///
    /// A cost-length mismatch is a caller bug flagged by a `debug_assert`;
    /// release builds degrade gracefully (a missing cost counts as 1,
    /// extras are ignored) rather than killing a long-lived batch over a
    /// mispredicted hint.
    pub fn run_with_costs_catching<T, F>(
        &self,
        tasks: Vec<F>,
        costs: &[u64],
    ) -> Vec<Result<T, TaskPanic>>
    where
        T: Send,
        F: FnOnce(usize) -> T + Send,
    {
        debug_assert_eq!(
            costs.len(),
            tasks.len(),
            "one predicted cost per task required"
        );
        let n = tasks.len();
        let workers = self.jobs.min(n).max(1);
        scheduler_metrics().queue_depth.add(n as u64);
        if workers == 1 {
            return tasks.into_iter().map(|t| run_task(t, 0)).collect();
        }
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| Reverse(costs.get(i).copied().unwrap_or(1)));
        let tasks: Vec<Mutex<Option<F>>> = tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let slots: Vec<Mutex<Option<Result<T, TaskPanic>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        thread::scope(|scope| {
            for w in 0..workers {
                let (order, tasks, slots, cursor) = (&order, &tasks, &slots, &cursor);
                thread::Builder::new()
                    .name(format!("cycleq-batch-{w}"))
                    .stack_size(WORKER_STACK_BYTES)
                    .spawn_scoped(scope, move || {
                        cycleq_trace::set_thread_label(&format!("worker-{w}"));
                        // The cursor hands out each position once; past the
                        // last one, nothing is left to do.
                        while let Some(&i) = order.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                            let task = lock_recover(&tasks[i]).take();
                            let task = task.expect("each task is claimed once");
                            *lock_recover(&slots[i]) = Some(run_task(task, w));
                        }
                    })
                    .expect("spawn batch worker");
            }
        });
        slots
            .into_iter()
            .map(|s| {
                s.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .expect("scope joined, so every task ran")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn results_are_in_task_order() {
        // Make early tasks slow so completion order inverts task order.
        let out = BatchScheduler::new(4).run(
            (0..32)
                .map(|i| {
                    move |_w: usize| {
                        if i < 4 {
                            thread::sleep(Duration::from_millis(20));
                        }
                        i * 10
                    }
                })
                .collect(),
        );
        assert_eq!(out, (0..32).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn single_worker_runs_inline_in_order() {
        let order = Mutex::new(Vec::new());
        let out = BatchScheduler::new(1).run(
            (0..8)
                .map(|i| {
                    let order = &order;
                    move |w: usize| {
                        assert_eq!(w, 0);
                        order.lock().unwrap().push(i);
                        i
                    }
                })
                .collect(),
        );
        assert_eq!(out, (0..8).collect::<Vec<_>>());
        assert_eq!(*order.lock().unwrap(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_singleton_batches() {
        let none: Vec<i32> = BatchScheduler::new(4).run(Vec::<fn(usize) -> i32>::new());
        assert!(none.is_empty());
        let one = BatchScheduler::new(4).run(vec![|_w: usize| 42]);
        assert_eq!(one, vec![42]);
    }

    #[test]
    fn idle_workers_take_the_queued_tasks() {
        // The first task to start pins its worker until every other task
        // has finished, which is only possible if the other workers take
        // the tasks still queued. Pinning whichever task starts first,
        // rather than a fixed one, keeps the test independent of which
        // threads the OS happens to run.
        let workers_seen = Mutex::new(std::collections::BTreeSet::new());
        let done = AtomicUsize::new(0);
        let pinned = AtomicBool::new(false);
        BatchScheduler::new(3).run(
            (0..9)
                .map(|_| {
                    let workers_seen = &workers_seen;
                    let done = &done;
                    let pinned = &pinned;
                    move |w: usize| {
                        workers_seen.lock().unwrap().insert(w);
                        if !pinned.swap(true, Ordering::SeqCst) {
                            let deadline = std::time::Instant::now() + Duration::from_secs(10);
                            while done.load(Ordering::SeqCst) < 8 {
                                assert!(
                                    std::time::Instant::now() < deadline,
                                    "peers never took the queued tasks"
                                );
                                thread::sleep(Duration::from_millis(1));
                            }
                        }
                        done.fetch_add(1, Ordering::SeqCst);
                    }
                })
                .collect(),
        );
        assert_eq!(done.load(Ordering::SeqCst), 9);
        assert!(workers_seen.lock().unwrap().len() > 1);
    }

    /// Runs `n` tasks (task `i` returns `7·i`) under `costs` on `jobs`
    /// workers, unwrapping every result.
    fn run_costed(jobs: usize, n: u64, costs: &[u64]) -> Vec<u64> {
        BatchScheduler::new(jobs)
            .run_with_costs_catching((0..n).map(|i| move |_w: usize| i * 7).collect(), costs)
            .into_iter()
            .map(|r| r.expect("healthy task"))
            .collect()
    }

    #[test]
    fn cost_ordered_results_stay_in_task_order() {
        // Costs descending-by-index: the scheduler reorders *execution*,
        // never results.
        let costs: Vec<u64> = (0..32).map(|i| 32 - i).collect();
        assert_eq!(
            run_costed(4, 32, &costs),
            (0..32).map(|i| i * 7).collect::<Vec<_>>()
        );
    }

    #[test]
    fn tasks_start_in_descending_cost_order() {
        // Distinct costs, out of order. The first task to start pins its
        // worker until every other task has finished, so the other worker
        // starts all the rest, one after another, in the order the queue
        // hands them out. The pinned task is one of the first two handed
        // out, so it is one of the two heaviest.
        let costs: Vec<u64> = vec![3, 9, 1, 7, 5, 8, 2, 6, 4];
        let n = costs.len();
        let started = Mutex::new(Vec::new());
        let done = AtomicUsize::new(0);
        let pinned = Mutex::new(None);
        let out = BatchScheduler::new(2).run_with_costs_catching(
            costs
                .iter()
                .enumerate()
                .map(|(i, &cost)| {
                    let (started, done, pinned) = (&started, &done, &pinned);
                    move |w: usize| {
                        let first = {
                            let mut pinned = pinned.lock().unwrap();
                            let first = pinned.is_none();
                            if first {
                                *pinned = Some((w, cost));
                            }
                            first
                        };
                        if first {
                            let deadline = std::time::Instant::now() + Duration::from_secs(10);
                            while done.load(Ordering::SeqCst) < n - 1 {
                                assert!(
                                    std::time::Instant::now() < deadline,
                                    "the other worker never took the queued tasks"
                                );
                                thread::sleep(Duration::from_millis(1));
                            }
                        } else {
                            started.lock().unwrap().push((w, cost));
                        }
                        done.fetch_add(1, Ordering::SeqCst);
                        i
                    }
                })
                .collect(),
            &costs,
        );
        let out: Vec<usize> = out.into_iter().map(|r| r.expect("healthy task")).collect();
        assert_eq!(out, (0..n).collect::<Vec<_>>(), "results in task order");
        let (pinned_worker, pinned_cost) = pinned.into_inner().unwrap().expect("a task started");
        assert!(
            pinned_cost >= 8,
            "pinned task of cost {pinned_cost} started first"
        );
        let started = started.into_inner().unwrap();
        assert!(started.iter().all(|&(w, _)| w != pinned_worker));
        let mut expected: Vec<u64> = costs
            .iter()
            .copied()
            .filter(|&c| c != pinned_cost)
            .collect();
        expected.sort_unstable_by(|a, b| b.cmp(a));
        let order: Vec<u64> = started.iter().map(|&(_, c)| c).collect();
        assert_eq!(order, expected, "tasks started heaviest first");
    }

    /// A cost-length mismatch is a caller bug: debug builds assert.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "one predicted cost per task")]
    fn mismatched_costs_panic_in_debug() {
        let _ = run_costed(2, 4, &[1, 2]);
    }

    /// Release builds degrade gracefully on a cost-length mismatch: a
    /// missing cost counts as 1 and every task still runs to completion,
    /// in task order.
    #[cfg(not(debug_assertions))]
    #[test]
    fn mismatched_costs_pad_in_release() {
        assert_eq!(run_costed(2, 4, &[1, 2]), vec![0, 7, 14, 21]);
        assert_eq!(run_costed(2, 2, &[1, 2, 3, 4]), vec![0, 7]);
    }

    #[test]
    fn panicking_task_is_isolated() {
        for jobs in [1, 4] {
            let results = BatchScheduler::new(jobs).run_with_costs_catching(
                (0..8)
                    .map(|i| {
                        move |_w: usize| {
                            assert!(i != 3, "task 3 exploded");
                            i * 2
                        }
                    })
                    .collect(),
                &[1; 8],
            );
            assert_eq!(results.len(), 8, "jobs={jobs}");
            for (i, r) in results.iter().enumerate() {
                if i == 3 {
                    let p = r.as_ref().expect_err("task 3 must fail");
                    assert!(p.message.contains("task 3 exploded"), "{p}");
                } else {
                    assert_eq!(*r.as_ref().expect("healthy task"), i * 2);
                }
            }
        }
    }

    #[test]
    fn run_repanics_after_the_batch_completes() {
        // The re-raise happens only after every other task ran: the counter
        // must reach 7 even though one task panicked.
        let done = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            BatchScheduler::new(2).run(
                (0..8)
                    .map(|i| {
                        let done = &done;
                        move |_w: usize| {
                            assert!(i != 0, "first task exploded");
                            done.fetch_add(1, Ordering::SeqCst);
                        }
                    })
                    .collect(),
            )
        }));
        assert!(caught.is_err());
        assert_eq!(done.load(Ordering::SeqCst), 7);
    }

    #[test]
    fn jobs_zero_means_auto() {
        let s = BatchScheduler::new(0);
        assert!(s.jobs() >= 1);
        assert_eq!(s.jobs(), available_parallelism());
    }

    #[test]
    fn more_workers_than_tasks_is_fine() {
        let out = BatchScheduler::new(64).run((0..3).map(|i| move |_w: usize| i).collect());
        assert_eq!(out, vec![0, 1, 2]);
    }
}
