//! Parallel goal batching for CycleQ.
//!
//! CycleQ goals are proved independently — the paper's evaluation (§6.1) is
//! per-goal wall clock over a suite — so a batch of goals is an
//! embarrassingly parallel workload. [`BatchScheduler`] is a std-only
//! work-stealing executor (`std::thread::scope` + per-worker deques, no
//! external crates) that fans indexed tasks out across `--jobs` workers and
//! returns results in *task order*, independent of completion order;
//! seeding is cost-ordered ([`BatchScheduler::run_with_costs`]) so
//! predicted-heavy goals start first and bound the batch's tail latency.
//!
//! Tasks share no state through the scheduler: each goal's search owns its
//! term store and memo table, so a goal's verdict and counters are the same
//! whichever worker runs it. `cycleq::Session::prove_all` and
//! `cycleq_benchsuite::run_suite` are the main consumers.

mod scheduler;

pub use scheduler::{available_parallelism, panic_message, BatchScheduler, TaskPanic};
