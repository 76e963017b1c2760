//! Parallel goal batching for CycleQ.
//!
//! CycleQ goals are proved independently — the paper's evaluation (§6.1) is
//! per-goal wall clock over a suite — so a batch of goals is a flat list of
//! tasks, none of which ever enqueues another. [`BatchScheduler`] is a
//! std-only executor (`std::thread::scope` plus one atomic cursor, no
//! external crates) that fans indexed tasks out across `--jobs` workers and
//! returns results in *task order*, independent of completion order. Each
//! idle worker takes the heaviest predicted task not yet started
//! ([`BatchScheduler::run_with_costs_catching`]), so heavy goals start
//! first and bound the batch's tail latency.
//!
//! Tasks share no state through the scheduler: each goal's search owns its
//! term store and memo table, so a goal's verdict and counters are the same
//! whichever worker runs it. `cycleq::Session::prove_many_with` (every
//! prove call of a session), `cycleq_benchsuite::run_suite` and the CLI's
//! `lint` and `check` are its consumers.

mod scheduler;

pub use scheduler::{available_parallelism, panic_message, BatchScheduler, TaskPanic};
