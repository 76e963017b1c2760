//! The builder-first engine facade: [`EngineBuilder`] → [`Engine`] → cheap
//! per-program [`Session`](crate::Session) handles.
//!
//! An [`Engine`] owns everything that is *program-independent*: the search
//! configuration, the worker count, the re-checking policy, and an optional
//! [`EventSink`] that streams [`ProveEvent`]s out of every prove call.
//! Loading a program through [`Engine::load`] yields a
//! [`Session`](crate::Session) — a cheap handle pairing the engine's
//! settings with one parsed program. One engine can serve many programs;
//! clones of an engine (and of its sessions) share settings by reference.
//!
//! Four cross-cutting mechanisms ride on the engine:
//!
//! - **Budgets and cancellation** ([`Budget`], [`CancelToken`]): every
//!   prove call accepts an external resource ceiling and a shareable
//!   cancellation token, polled at every DFS node and inside committed
//!   reduction chains. A batch deadline is *apportioned* into per-goal
//!   slices, so one explosive goal cannot starve its siblings.
//! - **Streaming events**: every prove call — a single goal is a batch of
//!   one — reports `GoalStarted` / `RoundDeepened` / `GoalFinished` /
//!   `BatchFinished` to the engine's sink from the worker threads, in
//!   completion order, while the final
//!   [`BatchReport`](crate::BatchReport) stays declaration-ordered.
//! - **Cost-ordered scheduling**: each idle worker takes the goal with the
//!   largest term size not yet started, so heavy goals start first.
//! - **Panic isolation**: a panic while proving one goal (a prover bug, or
//!   an event sink that panics) becomes that goal's
//!   [`Outcome::Panicked`](cycleq_search::Outcome::Panicked) verdict; the
//!   rest of the batch runs on unchanged.
//!
//! ```
//! use cycleq::{Engine, ProveEvent};
//! use std::sync::Arc;
//!
//! let engine = Engine::builder()
//!     .jobs(2)
//!     .on_event(|ev: &ProveEvent| {
//!         if let ProveEvent::GoalFinished { goal, status, .. } = ev {
//!             // streams in completion order while the batch runs
//!             let _ = (goal, status);
//!         }
//!     })
//!     .build();
//! let session = engine
//!     .load(
//!         "data Nat = Z | S Nat
//!          add :: Nat -> Nat -> Nat
//!          add Z y = y
//!          add (S x) y = S (add x y)
//!          goal zeroRight: add x Z === x
//!          goal comm: add x y === add y x",
//!     )
//!     .unwrap();
//! let report = session.prove_all();
//! assert!(report.all_proved());
//! ```

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use cycleq_batch::available_parallelism;
use cycleq_search::{Budget, CancelToken, SearchConfig};

use crate::{Error, Session, Verdict};

/// The compact verdict carried by [`ProveEvent::GoalFinished`]: enough for
/// a progress line, without dragging the proof across the thread boundary.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum GoalStatus {
    /// The goal was proved (and, if enabled, re-checked).
    Proved,
    /// The goal was refuted — a ground counterexample exists.
    Refuted,
    /// The search gave up: exhausted, timeout, node budget, or failed hint.
    GaveUp,
    /// The search was cancelled through its [`CancelToken`].
    Cancelled,
    /// The search panicked; the engine's panic boundary isolated it into a
    /// per-goal failure (see [`Outcome::Panicked`](cycleq_search::Outcome)).
    Panicked,
    /// A per-goal error (e.g. a proof that failed re-checking).
    Error,
}

impl GoalStatus {
    pub(crate) fn of(outcome: &Result<Verdict, Error>) -> GoalStatus {
        match outcome {
            Ok(v) if v.is_proved() => GoalStatus::Proved,
            Ok(v) if v.is_refuted() => GoalStatus::Refuted,
            Ok(v) if matches!(v.result.outcome, cycleq_search::Outcome::Cancelled) => {
                GoalStatus::Cancelled
            }
            Ok(v) if matches!(v.result.outcome, cycleq_search::Outcome::Panicked { .. }) => {
                GoalStatus::Panicked
            }
            Ok(_) => GoalStatus::GaveUp,
            Err(_) => GoalStatus::Error,
        }
    }
}

impl fmt::Display for GoalStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            GoalStatus::Proved => "proved",
            GoalStatus::Refuted => "refuted",
            GoalStatus::GaveUp => "gave-up",
            GoalStatus::Cancelled => "cancelled",
            GoalStatus::Panicked => "panicked",
            GoalStatus::Error => "error",
        })
    }
}

/// A progress event streamed out of a running prove call (a batch, or a
/// single goal as a batch of one).
///
/// Events are delivered **from the worker threads, in completion order**
/// (goals finish whenever they finish); the [`BatchReport`](crate::BatchReport)
/// returned at the end is still declaration-ordered. `index` is the goal's
/// position in the *request* (declaration order for
/// [`Session::prove_all`](crate::Session::prove_all)), so a sink can
/// correlate streamed events with the final report.
#[derive(Clone, Debug)]
pub enum ProveEvent {
    /// A worker picked the goal up and started searching.
    GoalStarted {
        /// Position in the request.
        index: usize,
        /// The goal's name.
        goal: String,
    },
    /// The goal's iterative-deepening search started another round.
    RoundDeepened {
        /// Position in the request.
        index: usize,
        /// The goal's name.
        goal: String,
        /// The new depth bound.
        depth: usize,
        /// Monotonic time since the goal's search began, covering every
        /// finished round — sinks need no wall-clock bookkeeping.
        elapsed: Duration,
    },
    /// The goal ran to a verdict (or a per-goal error).
    GoalFinished {
        /// Position in the request.
        index: usize,
        /// The goal's name.
        goal: String,
        /// The compact verdict.
        status: GoalStatus,
        /// Wall-clock time the goal occupied its worker.
        time: Duration,
    },
    /// Every goal of the batch finished.
    BatchFinished {
        /// Number of proved goals.
        proved: usize,
        /// Number of goals in the batch.
        total: usize,
        /// Wall clock of the whole batch.
        elapsed: Duration,
    },
}

/// A consumer of [`ProveEvent`]s.
///
/// Sinks are called from the batch's worker threads, so they must be
/// `Send + Sync` and should return quickly (a slow sink backpressures the
/// workers). Any `Fn(&ProveEvent) + Send + Sync` closure is a sink:
///
/// ```
/// use cycleq::{EventSink, ProveEvent};
/// use std::sync::{Arc, Mutex};
///
/// let log = Arc::new(Mutex::new(Vec::new()));
/// let sink = {
///     let log = log.clone();
///     move |ev: &ProveEvent| log.lock().unwrap().push(format!("{ev:?}"))
/// };
/// // `sink` implements EventSink and can be handed to EngineBuilder::on_event.
/// fn assert_sink<S: EventSink>(_: &S) {}
/// assert_sink(&sink);
/// ```
pub trait EventSink: Send + Sync {
    /// Delivers one event. Called from worker threads.
    fn event(&self, event: &ProveEvent);
}

impl<F> EventSink for F
where
    F: Fn(&ProveEvent) + Send + Sync,
{
    fn event(&self, event: &ProveEvent) {
        self(event)
    }
}

/// The program-independent settings shared by an [`Engine`] and every
/// [`Session`](crate::Session) it loads.
pub(crate) struct Settings {
    pub(crate) config: SearchConfig,
    pub(crate) jobs: usize,
    pub(crate) recheck: bool,
    pub(crate) sink: Option<Arc<dyn EventSink>>,
}

impl fmt::Debug for Settings {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Settings")
            .field("config", &self.config)
            .field("jobs", &self.jobs)
            .field("recheck", &self.recheck)
            .field("sink", &self.sink.is_some())
            .finish()
    }
}

impl Default for Settings {
    fn default() -> Settings {
        Settings {
            config: SearchConfig::default(),
            jobs: 1,
            recheck: true,
            sink: None,
        }
    }
}

/// Configures and builds an [`Engine`].
///
/// ```
/// use cycleq::{EngineBuilder, SearchConfig};
///
/// let engine = EngineBuilder::new()
///     .config(SearchConfig::default())
///     .jobs(4)
///     .recheck(true)
///     .build();
/// let session = engine
///     .load(
///         "data Nat = Z | S Nat
///          add :: Nat -> Nat -> Nat
///          add Z y = y
///          add (S x) y = S (add x y)
///          goal zeroLeft: add Z y === y",
///     )
///     .unwrap();
/// assert!(session.prove("zeroLeft").unwrap().is_proved());
/// ```
#[derive(Debug, Default)]
pub struct EngineBuilder {
    settings: Settings,
}

impl EngineBuilder {
    /// A builder with the default settings: default [`SearchConfig`], one
    /// worker, re-checking on, no event sink.
    pub fn new() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// Replaces the search configuration used by every session.
    pub fn config(mut self, config: SearchConfig) -> EngineBuilder {
        self.settings.config = config;
        self
    }

    /// Sets the worker count for batch proving (`0` = one worker per
    /// hardware thread).
    pub fn jobs(mut self, jobs: usize) -> EngineBuilder {
        self.settings.jobs = if jobs == 0 {
            available_parallelism()
        } else {
            jobs
        };
        self
    }

    /// Whether produced proofs are re-checked with the independent checker
    /// before being returned (on by default; disable for benchmarking raw
    /// search time).
    pub fn recheck(mut self, recheck: bool) -> EngineBuilder {
        self.settings.recheck = recheck;
        self
    }

    /// Attaches an [`EventSink`] — any `Fn(&ProveEvent) + Send + Sync`
    /// closure is one — that receives streaming [`ProveEvent`]s from every
    /// prove call of this engine's sessions.
    pub fn on_event(mut self, sink: impl EventSink + 'static) -> EngineBuilder {
        self.settings.sink = Some(Arc::new(sink));
        self
    }

    /// Builds the engine.
    pub fn build(self) -> Engine {
        Engine {
            settings: Arc::new(self.settings),
        }
    }
}

/// A long-lived proving engine: program-independent settings, shared by
/// every [`Session`](crate::Session) it loads. Cheap to clone.
///
/// See the [crate docs](crate) for the full picture.
#[derive(Clone, Debug)]
pub struct Engine {
    settings: Arc<Settings>,
}

impl Default for Engine {
    fn default() -> Engine {
        Engine::builder().build()
    }
}

impl Engine {
    /// Starts configuring an engine.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::new()
    }

    /// An engine with all-default settings.
    pub fn new() -> Engine {
        Engine::default()
    }

    /// Parses, type checks and loads a program, returning a cheap
    /// per-program [`Session`](crate::Session) handle that shares this
    /// engine's settings. One engine can hold sessions for many programs;
    /// sessions share nothing but those settings.
    ///
    /// # Errors
    ///
    /// Returns the first frontend error.
    pub fn load(&self, src: &str) -> Result<Session, Error> {
        let module = cycleq_lang::parse_module(src)?;
        Ok(Session::assemble(
            self.settings.clone(),
            module,
            Arc::from(src),
        ))
    }

    /// The search configuration sessions will use.
    pub fn config(&self) -> &SearchConfig {
        &self.settings.config
    }

    /// The batch worker count sessions will use.
    pub fn jobs(&self) -> usize {
        self.settings.jobs
    }

    /// A point-in-time snapshot of the process-wide metrics registry:
    /// every `cycleq_*` counter, gauge, and latency histogram the stack
    /// has recorded so far (search counters, size-change closure work,
    /// batch scheduling, re-check timing).
    ///
    /// The registry is process-global — the snapshot covers *all* engines
    /// and sessions, which is exactly the payload a metrics endpoint wants;
    /// use [`MetricsSnapshot::delta`](cycleq_trace::MetricsSnapshot::delta)
    /// to scope it to a window, or render it with
    /// [`MetricsSnapshot::to_prometheus`](cycleq_trace::MetricsSnapshot::to_prometheus).
    ///
    /// ```
    /// let engine = cycleq::Engine::new();
    /// let before = engine.metrics();
    /// // ... prove things ...
    /// let after = engine.metrics();
    /// let window = after.delta(&before);
    /// let _ = window.to_prometheus();
    /// ```
    pub fn metrics(&self) -> cycleq_trace::MetricsSnapshot {
        cycleq_trace::metrics().snapshot()
    }
}

/// Convenience: an unlimited [`Budget`] plus a fresh [`CancelToken`], for
/// call sites that only care about one of the two.
pub(crate) fn unbounded() -> (Budget, CancelToken) {
    (Budget::unlimited(), CancelToken::new())
}
