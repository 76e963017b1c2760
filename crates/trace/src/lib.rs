//! Unified observability for the CycleQ prover stack.
//!
//! This crate provides the span primitive every other `cycleq_*` crate
//! instruments itself with, and the values read out of it:
//!
//! 1. **Hierarchical spans** ([`span!`]) — lightweight timed scopes. When
//!    tracing is *disabled* (the default) a span costs a single relaxed
//!    atomic load — cheap enough to leave in the innermost normalization
//!    loop (pinned by the `trace_overhead` bench group). When enabled, a
//!    finished span adds its duration to a phase table held by the thread
//!    it ends on, and — while a collection started with [`start_collect`]
//!    is active — is also gathered into a [`Trace`] exportable as Chrome
//!    trace-event JSON (loadable in `chrome://tracing` or
//!    [Perfetto](https://ui.perfetto.dev)).
//! 2. **Phase times as values.** [`take_profile`] empties the calling
//!    thread's table into a [`Profile`], so whoever runs a piece of work
//!    gets that work's spans and no one else's. Counts and times travel in
//!    the values a call returns; an [`Exposition`] renders them, with a
//!    [`Profile`]'s log₂ [`Histogram`]s, in Prometheus text format.
//!
//! One robustness primitive rides along because this crate sits at the
//! bottom of the dependency graph: [`lock_recover`], poison-recovering
//! mutex acquisition (counted in the `cycleq_lock_poison_recoveries_total`
//! family), used by every shared lock in the stack instead of
//! `.expect("poisoned")`.
//!
//! The span taxonomy used by the prover stack:
//!
//! | span             | scope                                               |
//! |------------------|-----------------------------------------------------|
//! | `prove_goal`     | one goal end-to-end (all deepening rounds)          |
//! | `round`          | one iterative-deepening round                       |
//! | `expand`         | one proof-node expansion (nested under recursion)   |
//! | `normalize`      | one memoized normalization call                     |
//! | `closure_update` | one size-change closure update (edge or companion)  |
//! | `undo`           | one backtrack: closure and proof rewinds            |
//! | `check`          | one certificate / proof re-check                    |
//!
//! # Example
//!
//! ```
//! use std::time::Duration;
//!
//! // Counts and latencies are plain values, rendered on demand.
//! let mut latency = cycleq_trace::Histogram::default();
//! latency.observe(Duration::from_micros(120));
//! let mut out = cycleq_trace::Exposition::default();
//! out.counter("doc_requests_total", "Requests served.", "", 1);
//! out.histogram("doc_latency_seconds", "Request latency.", "", &latency);
//! let text = out.to_string();
//! assert!(text.contains("doc_requests_total 1\n"));
//! assert!(text.contains("# TYPE doc_latency_seconds histogram"));
//! ```

mod chrome;
mod registry;
mod span;
mod sync;

pub use chrome::Trace;
pub use registry::{take_profile, Exposition, Histogram, PhaseStat, Profile};
pub use span::{
    collecting, enabled, finish_collect, set_enabled, set_thread_label, span, start_collect,
    SpanGuard, SpanRecord,
};
pub use sync::{lock_recover, poison_recoveries};

/// Opens a timed span that ends when the returned guard is dropped.
///
/// The name must be a `&'static str` (span names are a closed vocabulary —
/// see the crate-level taxonomy table). When tracing is disabled this is a
/// single relaxed atomic load.
///
/// ```
/// cycleq_trace::set_enabled(true);
/// {
///     let _outer = cycleq_trace::span!("prove_goal");
///     let _inner = cycleq_trace::span!("normalize");
///     // ... guards add both phases to this thread's table ...
/// }
/// let profile = cycleq_trace::take_profile();
/// assert!(profile.phases().any(|p| p.phase == "normalize" && p.count >= 1));
/// cycleq_trace::set_enabled(false);
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
}
