//! A std-only work-stealing task scheduler with cost-ordered seeding.
//!
//! The build environment has no crates.io access, so there is no rayon;
//! this is the classic scheme built from the standard library alone. Tasks
//! are seeded into one deque per worker — heaviest predicted cost first,
//! spread greedily across the least-loaded deques (longest-processing-time
//! order), so a batch with a few heavy goals starts them immediately
//! instead of discovering them last. Each worker drains its own deque from
//! the front and, when empty, steals from the *back* of its peers' deques
//! (back-stealing takes the work its owner would reach last, which keeps
//! contention on opposite ends of each deque). No task ever enqueues
//! another task, so a worker may exit as soon as every deque is empty.
//!
//! Determinism: results are written into a slot per task index, so the
//! returned `Vec` is always in task order no matter which worker finished
//! what, when. Scheduling (which worker runs which task) is *not*
//! deterministic — tasks must not depend on execution order, only on their
//! own input. Proof search satisfies this: goals are independent.

use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, OnceLock};
use std::thread;

use cycleq_trace::{lock_recover, metrics, Counter, Gauge};

/// Process-wide registry handles for scheduler activity.
#[derive(Debug, Clone)]
struct SchedulerMetrics {
    /// Tasks a worker popped from a peer's deque instead of its own.
    steals: Counter,
    /// Tasks executed (own pops + steals).
    tasks: Counter,
    /// Tasks currently queued across all live batch runs.
    queue_depth: Gauge,
    /// Tasks whose panic was caught and isolated into a [`TaskPanic`].
    task_panics: Counter,
}

fn scheduler_metrics() -> &'static SchedulerMetrics {
    static METRICS: OnceLock<SchedulerMetrics> = OnceLock::new();
    METRICS.get_or_init(|| SchedulerMetrics {
        steals: metrics().counter(
            "cycleq_batch_steals_total",
            "Batch tasks executed by a worker that stole them from a peer's queue.",
        ),
        tasks: metrics().counter(
            "cycleq_batch_tasks_total",
            "Batch tasks executed by the work-stealing scheduler (including inline runs).",
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

/// A task that panicked instead of returning; the scheduler's catching
/// entry points turn the unwind into this structured per-task failure.
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

/// LPT (longest-processing-time) seeding of `n` tasks onto `workers`
/// queues: heaviest task first, each to the least-loaded queue, ties broken
/// by queue index so uniform costs reproduce round-robin order exactly.
/// Returns each worker's task indices, front of the queue first.
///
/// Costs are a scheduling *hint*: a short slice is padded with the uniform
/// weight 1 and extras are ignored, rather than panicking in release.
fn lpt_seed(costs: &[u64], n: usize, workers: usize) -> Vec<Vec<usize>> {
    let cost_of = |i: usize| costs.get(i).copied().unwrap_or(1);
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(cost_of(i)));
    let mut queues = vec![Vec::new(); workers];
    let mut load = vec![0u64; workers];
    for i in order {
        let w = (0..workers)
            .min_by_key(|&w| (load[w], w))
            .expect("workers >= 1");
        load[w] = load[w].saturating_add(cost_of(i).max(1));
        queues[w].push(i);
    }
    queues
}

/// Runs one task under `catch_unwind`, counting caught panics.
///
/// `AssertUnwindSafe` is sound here because a panicking task's result slot
/// is overwritten with the `Err` — no caller observes state the task left
/// half-updated through the scheduler, and shared state reached through
/// captured references is itself poison-recovering.
fn run_task<T, F>(task: F, worker: usize, m: &SchedulerMetrics) -> Result<T, TaskPanic>
where
    F: FnOnce(usize) -> T,
{
    match catch_unwind(AssertUnwindSafe(|| task(worker))) {
        Ok(v) => Ok(v),
        Err(payload) => {
            m.task_panics.inc();
            Err(TaskPanic {
                message: panic_message(payload.as_ref()),
            })
        }
    }
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

/// A fixed-width work-stealing executor for independent, indexed tasks.
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

    /// Runs every task and returns the results **in task order**, seeding
    /// the worker queues in task order (equal predicted costs).
    ///
    /// Each task receives the index of the worker running it (workers own
    /// per-worker state such as a term store, so the index lets callers
    /// pre-allocate one slot per worker). With one worker — or a single
    /// task — everything runs inline on the calling thread, in order: the
    /// sequential fallback involves no threads at all.
    ///
    /// # Panics
    ///
    /// If a task panics, the panic is caught and isolated (every other task
    /// still runs to completion), then re-raised to the caller after the
    /// batch finishes. Use [`BatchScheduler::run_catching`] to receive
    /// per-task failures instead.
    pub fn run<T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce(usize) -> T + Send,
    {
        let costs = vec![1u64; tasks.len()];
        self.run_with_costs(tasks, &costs)
    }

    /// Like [`BatchScheduler::run`], but a panicking task yields
    /// `Err(TaskPanic)` in its slot instead of re-raising: the batch always
    /// completes, and the caller decides how a faulted task degrades.
    pub fn run_catching<T, F>(&self, tasks: Vec<F>) -> Vec<Result<T, TaskPanic>>
    where
        T: Send,
        F: FnOnce(usize) -> T + Send,
    {
        let costs = vec![1u64; tasks.len()];
        self.run_with_costs_catching(tasks, &costs)
    }

    /// Runs every task and returns the results **in task order**, seeding
    /// the worker queues by *predicted cost*: tasks are sorted
    /// heaviest-first (ties keep task order) and assigned greedily to the
    /// least-loaded queue, the classic longest-processing-time heuristic.
    /// A suite with a few heavy goals starts them immediately on separate
    /// workers instead of discovering them behind a wall of cheap ones,
    /// which is what bounds the batch's tail latency. Work stealing then
    /// mops up any misprediction.
    ///
    /// Costs are relative weights in arbitrary units (goal term size,
    /// milliseconds from a previous run, …); only their order and rough
    /// ratios matter. With uniform costs the seeding degenerates to the
    /// round-robin order [`BatchScheduler::run`] promises.
    ///
    /// # Panics
    ///
    /// Propagates task panics like [`BatchScheduler::run`]. A cost-length
    /// mismatch is a caller bug flagged by a `debug_assert`; release builds
    /// degrade gracefully (missing costs default to 1, extras are ignored)
    /// rather than killing a long-lived batch over a mispredicted hint.
    pub fn run_with_costs<T, F>(&self, tasks: Vec<F>, costs: &[u64]) -> Vec<T>
    where
        T: Send,
        F: FnOnce(usize) -> T + Send,
    {
        self.run_with_costs_catching(tasks, costs)
            .into_iter()
            .map(|r| match r {
                Ok(v) => v,
                Err(p) => panic!("batch {p}"),
            })
            .collect()
    }

    /// Like [`BatchScheduler::run_with_costs`], but with per-task panic
    /// isolation (see [`BatchScheduler::run_catching`]).
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
        let sched_metrics = scheduler_metrics();
        if workers == 1 {
            sched_metrics.queue_depth.add(n as u64);
            return tasks
                .into_iter()
                .map(|t| {
                    sched_metrics.queue_depth.sub(1);
                    sched_metrics.tasks.inc();
                    run_task(t, 0, sched_metrics)
                })
                .collect();
        }
        let mut slots_of: Vec<Option<F>> = tasks.into_iter().map(Some).collect();
        let queues: Vec<Mutex<VecDeque<(usize, F)>>> = lpt_seed(costs, n, workers)
            .into_iter()
            .map(|queue| {
                let seeded = queue
                    .into_iter()
                    .map(|i| (i, slots_of[i].take().expect("each task seeded once")));
                Mutex::new(seeded.collect())
            })
            .collect();
        let slots: Vec<Mutex<Option<Result<T, TaskPanic>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        sched_metrics.queue_depth.add(n as u64);
        thread::scope(|scope| {
            for w in 0..workers {
                let queues = &queues;
                let slots = &slots;
                thread::Builder::new()
                    .name(format!("cycleq-batch-{w}"))
                    .stack_size(WORKER_STACK_BYTES)
                    .spawn_scoped(scope, move || {
                        cycleq_trace::set_thread_label(&format!("worker-{w}"));
                        loop {
                            let (job, stolen) = {
                                let own = lock_recover(&queues[w]).pop_front();
                                match own {
                                    Some(job) => (Some(job), false),
                                    None => (
                                        (1..workers).find_map(|off| {
                                            lock_recover(&queues[(w + off) % workers]).pop_back()
                                        }),
                                        true,
                                    ),
                                }
                            };
                            match job {
                                Some((i, task)) => {
                                    sched_metrics.queue_depth.sub(1);
                                    sched_metrics.tasks.inc();
                                    if stolen {
                                        sched_metrics.steals.inc();
                                    }
                                    let out = run_task(task, w, sched_metrics);
                                    *lock_recover(&slots[i]) = Some(out);
                                }
                                // Every deque empty and tasks never spawn
                                // tasks: nothing left to do.
                                None => break,
                            }
                        }
                    })
                    .expect("spawn batch worker");
            }
        });
        slots
            .into_iter()
            .map(|s| {
                s.into_inner()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
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
    fn idle_workers_steal_from_loaded_ones() {
        // The first task to start pins its worker until every other task
        // has finished, which is only possible if the other workers steal
        // the tasks still queued behind it. Pinning whichever task starts
        // first, rather than a fixed one, keeps the test independent of
        // which threads the OS happens to run.
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
                                    "peers never stole the pinned worker's queued tasks"
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

    #[test]
    fn cost_ordered_results_stay_in_task_order() {
        // Costs descending-by-index: the scheduler reorders *execution*,
        // never results.
        let costs: Vec<u64> = (0..32).map(|i| 32 - i).collect();
        let out = BatchScheduler::new(4)
            .run_with_costs((0..32u64).map(|i| move |_w: usize| i * 7).collect(), &costs);
        assert_eq!(out, (0..32).map(|i| i * 7).collect::<Vec<_>>());
    }

    #[test]
    fn heavy_tasks_are_seeded_first() {
        // Task 30 is predicted heaviest, so it heads its own queue: a
        // worker picks it up first instead of discovering it last behind
        // the cheap tasks, which all go to the other queue.
        let heavy = 30usize;
        let mut costs = vec![1u64; 32];
        costs[heavy] = 1_000;
        let queues = lpt_seed(&costs, 32, 2);
        assert_eq!(queues[0], vec![heavy]);
        let cheap: Vec<usize> = (0..32).filter(|&i| i != heavy).collect();
        assert_eq!(queues[1], cheap);
    }

    #[test]
    fn uniform_costs_reproduce_round_robin_seeding() {
        assert_eq!(
            lpt_seed(&[1; 8], 8, 3),
            vec![vec![0, 3, 6], vec![1, 4, 7], vec![2, 5]]
        );
        // With one worker the inline path runs in task order either way;
        // this pins the delegation itself.
        let out = BatchScheduler::new(1).run((0..8).map(|i| move |_w: usize| i).collect());
        assert_eq!(out, (0..8).collect::<Vec<_>>());
    }

    /// A cost-length mismatch is a caller bug: debug builds assert.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "one predicted cost per task")]
    fn mismatched_costs_panic_in_debug() {
        let _ = BatchScheduler::new(2)
            .run_with_costs((0..4).map(|i| move |_w: usize| i).collect(), &[1, 2]);
    }

    /// Release builds degrade gracefully on a cost-length mismatch: the
    /// short slice is padded with uniform weights and every task still runs
    /// to completion, in task order.
    #[cfg(not(debug_assertions))]
    #[test]
    fn mismatched_costs_pad_in_release() {
        let out = BatchScheduler::new(2)
            .run_with_costs((0..4).map(|i| move |_w: usize| i).collect(), &[1, 2]);
        assert_eq!(out, vec![0, 1, 2, 3]);
        let out = BatchScheduler::new(2)
            .run_with_costs((0..2).map(|i| move |_w: usize| i).collect(), &[1, 2, 3, 4]);
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn panicking_task_is_isolated() {
        for jobs in [1, 4] {
            let results = BatchScheduler::new(jobs).run_catching(
                (0..8)
                    .map(|i| {
                        move |_w: usize| {
                            assert!(i != 3, "task 3 exploded");
                            i * 2
                        }
                    })
                    .collect(),
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
