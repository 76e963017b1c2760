//! Unified observability for the CycleQ prover stack.
//!
//! This crate provides the two primitives every other `cycleq_*` crate
//! instruments itself with:
//!
//! 1. **Hierarchical spans** ([`span!`]) — lightweight timed scopes recorded
//!    into thread-local buffers. When tracing is *disabled* (the default) a
//!    span costs a single relaxed atomic load — cheap enough to leave in the
//!    innermost normalization loop (pinned by the `trace_overhead` bench
//!    group). When enabled, finished spans feed a per-phase latency
//!    histogram, and — while a collection started with [`start_collect`] is
//!    active — are also gathered into a [`Trace`] exportable as Chrome
//!    trace-event JSON (loadable in `chrome://tracing` or
//!    [Perfetto](https://ui.perfetto.dev)).
//! 2. **A process-wide metrics registry** ([`metrics`]) of named counters,
//!    gauges, and log₂-bucketed latency histograms. A [`MetricsSnapshot`]
//!    captures all of them at once and renders Prometheus text exposition
//!    format — the payload a future `cycleq serve` daemon will expose.
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
//! // Counters and histograms work without enabling span timing.
//! let c = cycleq_trace::metrics().counter("doc_requests_total", "Requests served.");
//! c.inc();
//! let h = cycleq_trace::metrics().histogram("doc_latency_seconds", "Request latency.");
//! h.observe(Duration::from_micros(120));
//!
//! let snap = cycleq_trace::metrics().snapshot();
//! assert_eq!(snap.value("doc_requests_total"), Some(1));
//! assert!(snap.to_prometheus().contains("# TYPE doc_latency_seconds histogram"));
//! ```

mod chrome;
mod registry;
mod span;
mod sync;

pub use chrome::Trace;
pub use registry::{
    metrics, Counter, FamilySnapshot, Gauge, Histogram, HistogramSnapshot, MetricKind,
    MetricSample, MetricsSnapshot, PhaseStat, Profile, Registry, SampleValue,
};
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
///     // ... guards record both phases into `cycleq_phase_seconds` ...
/// }
/// let profile = cycleq_trace::metrics().snapshot().profile();
/// assert!(profile.phases.iter().any(|p| p.phase == "normalize" && p.count >= 1));
/// cycleq_trace::set_enabled(false);
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
}
