//! # CycleQ — an efficient basis for cyclic equational reasoning
//!
//! A from-scratch Rust implementation of the system described in
//! *Jones, Ong, Ramsay. "CycleQ: An Efficient Basis for Cyclic Equational
//! Reasoning" (PLDI 2022)*: a cyclic proof calculus for equational
//! properties of pure functional programs, a goal-directed proof search
//! with contextual substitution as its cut/matching rule, and incremental
//! global-correctness checking via size-change graphs.
//!
//! This crate is the facade over the workspace:
//!
//! | crate | contents |
//! |---|---|
//! | [`cycleq_term`] | terms, types, signatures, matching, unification (§2) |
//! | [`cycleq_rewrite`] | rewrite systems, memoised reduction, orders (§2, §4) |
//! | [`cycleq_sizechange`] | size-change graphs and closures (§5.2) |
//! | [`cycleq_proof`] | preproofs, the independent checker, rendering (§3) |
//! | [`cycleq_search`] | the CycleQ proof search (§5.1, §6) |
//! | [`cycleq_lang`] | the Haskell-like frontend (§6) |
//! | [`cycleq_analysis`] | static checks of the Remark 2.1 preconditions |
//! | `cycleq_ri` | rewriting induction and the Thm 4.3 translation (§4); not re-exported |
//! | [`cycleq_batch`] | parallel goal batching |
//!
//! # Quickstart
//!
//! ```
//! use cycleq::Session;
//!
//! let session = Session::from_source(
//!     "data Nat = Z | S Nat
//!      add :: Nat -> Nat -> Nat
//!      add Z y = y
//!      add (S x) y = S (add x y)
//!      goal comm: add x y === add y x",
//! )
//! .unwrap();
//! let verdict = session.prove("comm").unwrap();
//! assert!(verdict.is_proved());
//! println!("{}", verdict.render_proof().unwrap());
//! ```
//!
//! # The Engine API
//!
//! Long-lived embedders configure an [`Engine`] once and load cheap
//! per-program [`Session`] handles from it. Goals are independent, so a
//! multi-goal program proves as one parallel batch — results come back in
//! declaration order with aggregated statistics, each goal's verdict and
//! counters are the same at any worker count, and progress streams to an
//! optional [`EventSink`] in completion order:
//!
//! ```
//! use cycleq::Engine;
//!
//! let engine = Engine::builder().jobs(2).build();
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
//! assert_eq!(report.goals[0].goal, "zeroRight");
//! ```
//!
//! Searches accept external [`Budget`]s (wall-clock, nodes, fuel) and a
//! shareable [`CancelToken`], polled at every DFS node and inside committed
//! reduction chains, so an embedding service can abort a search mid-flight:
//!
//! ```
//! use cycleq::{Budget, CancelToken, Session};
//! use std::time::Duration;
//!
//! let session = Session::from_source(
//!     "data Nat = Z | S Nat
//!      add :: Nat -> Nat -> Nat
//!      add Z y = y
//!      add (S x) y = S (add x y)
//!      goal comm: add x y === add y x",
//! )
//! .unwrap();
//! let budget = Budget::unlimited().with_timeout(Duration::from_secs(5));
//! let cancel = CancelToken::new(); // cancel.cancel() aborts from any thread
//! let verdict = session.prove_with_budget("comm", &[], &budget, &cancel).unwrap();
//! assert!(verdict.is_proved());
//! ```

use std::collections::HashSet;
use std::error::Error as StdError;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, PoisonError};
use std::time::{Duration, Instant};

mod engine;

pub use engine::{Engine, EngineBuilder, EventSink, GoalStatus, ProveEvent};

/// Re-export of the observability crate: spans, per-thread phase
/// profiles, Chrome-trace collection, and Prometheus rendering. See the
/// README's *Observability* section.
pub use cycleq_trace as trace;
pub use cycleq_trace::{PhaseStat, Profile};

pub use cycleq_analysis::{
    analyze, analyze_source, analyze_with_fixes, apply_fixes, lang_error_diagnostic, unified_diff,
    Code, Diagnostic, Edit, EditKind, Fix, FixOutcome, Severity,
};
pub use cycleq_batch::{available_parallelism, BatchScheduler};
pub use cycleq_lang::{parse_module, GoalDef, LangError, Module};
pub use cycleq_proof::{
    check, check_global, cycle_witnesses, export_certificate, global_edges, program_fingerprint,
    render_dot, render_text, Certificate, CertificateError, CheckError, CheckReport, GlobalCheck,
    NodeId, Preproof, RuleApp,
};
pub use cycleq_rewrite::{CancelToken, Program};
pub use cycleq_search::{
    Budget, LemmaPolicy, Outcome, ProofResult, Prover, SearchConfig, SearchStats,
};
pub use cycleq_term::{Equation, Signature, Term, Type, VarStore, MAX_NESTING};

use engine::Settings;

mod prometheus;

/// Errors surfaced by a [`Session`].
#[derive(Clone, Debug)]
pub enum Error {
    /// The source failed to parse or type check.
    Lang(LangError),
    /// No goal with the given name exists.
    UnknownGoal(String),
    /// A produced proof failed the independent checker — indicates a bug.
    Check(cycleq_proof::CheckError),
    /// The verdict does not carry a proof (e.g. refuted or exhausted).
    NoProof,
    /// A certificate was rejected (bad format, tampering, or a failing
    /// proof).
    Certificate(CertificateError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Lang(e) => write!(f, "{e}"),
            Error::UnknownGoal(g) => write!(f, "unknown goal `{g}`"),
            Error::Check(e) => write!(f, "proof failed re-checking: {e}"),
            Error::NoProof => write!(f, "no proof available for this verdict"),
            Error::Certificate(e) => write!(f, "{e}"),
        }
    }
}

impl StdError for Error {}

impl From<LangError> for Error {
    fn from(e: LangError) -> Error {
        Error::Lang(e)
    }
}

/// The outcome of proving one goal, bundling the proof and statistics with
/// enough context to render them.
#[derive(Clone, Debug)]
pub struct Verdict {
    /// The goal's name.
    pub goal: String,
    /// The raw search result.
    pub result: ProofResult,
    /// The independent re-check's report, when the session rechecks proofs
    /// (the default) and the goal was proved. Carries the recheck's
    /// wall-clock time and reduct/memo counters.
    pub recheck: Option<CheckReport>,
    /// Signature snapshot for rendering.
    sig: Signature,
}

impl Verdict {
    /// Whether the goal was proved.
    pub fn is_proved(&self) -> bool {
        self.result.outcome.is_proved()
    }

    /// Whether the goal was refuted (a ground counterexample exists).
    pub fn is_refuted(&self) -> bool {
        matches!(self.result.outcome, Outcome::Refuted)
    }

    /// Renders the proof tree, with back edges labelled as in the paper's
    /// figures.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoProof`] when the verdict carries no proof.
    pub fn render_proof(&self) -> Result<String, Error> {
        match self.result.outcome {
            Outcome::Proved { root } => Ok(cycleq_proof::render_text(
                &self.result.proof,
                &self.sig,
                root,
            )),
            _ => Err(Error::NoProof),
        }
    }

    /// Renders the proof graph as Graphviz DOT.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoProof`] when the verdict carries no proof.
    pub fn render_dot(&self) -> Result<String, Error> {
        match self.result.outcome {
            Outcome::Proved { .. } => Ok(cycleq_proof::render_dot(&self.result.proof, &self.sig)),
            _ => Err(Error::NoProof),
        }
    }
}

/// A per-program proving handle: one parsed program plus the settings of
/// the [`Engine`] that loaded it.
///
/// Sessions are created by [`Engine::load`]; [`Session::from_source`]
/// remains as a one-liner for the default engine. Every prove call starts
/// from scratch: no search state survives between calls or is shared
/// between goals. Unless a wall-clock budget cuts a call short, proving a
/// goal twice gives the same verdict, proof and counters, through the
/// session or through any clone of it.
#[derive(Clone, Debug)]
pub struct Session {
    /// Program-independent settings inherited from the engine.
    settings: Arc<Settings>,
    module: Module,
    /// The program source as loaded, embedded into exported certificates so
    /// they are self-contained (and fingerprinted against tampering).
    source: Arc<str>,
    /// Phase-time profile of the most recent top-level prove call (single
    /// or batch), shared across clones. See [`Session::profile`].
    last_profile: Arc<std::sync::Mutex<Option<Profile>>>,
}

impl Session {
    /// Parses, type checks and loads a program through a default
    /// [`Engine`]. Equivalent to `Engine::new().load(src)`.
    ///
    /// # Errors
    ///
    /// Returns the first frontend error.
    pub fn from_source(src: &str) -> Result<Session, Error> {
        Engine::new().load(src)
    }

    pub(crate) fn assemble(settings: Arc<Settings>, module: Module, source: Arc<str>) -> Session {
        Session {
            settings,
            module,
            source,
            last_profile: Arc::new(std::sync::Mutex::new(None)),
        }
    }

    /// The configured worker count.
    pub fn jobs(&self) -> usize {
        self.settings.jobs
    }

    /// The per-phase time breakdown of the most recent top-level prove
    /// call through this session (single goal or batch; clones share it):
    /// exactly the spans of that call's goals, on whichever workers ran
    /// them, whatever other sessions prove at the same time.
    ///
    /// Phase timings come from the `cycleq_trace` span machinery, which is
    /// disabled by default: enable it with
    /// [`trace::set_enabled`]`(true)` (the CLI's
    /// `--trace-out`/`--metrics-out` and `suite --profile` do) — otherwise
    /// the returned profile has no phases. Returns `None` before the first
    /// prove call.
    pub fn profile(&self) -> Option<Profile> {
        cycleq_trace::lock_recover(&self.last_profile).clone()
    }

    /// The loaded module.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// The program (signature and rules).
    pub fn program(&self) -> &Program {
        &self.module.program
    }

    /// Runs the full static analysis over the loaded module: the
    /// soundness preconditions of Remark 2.1 (pattern coverage,
    /// orthogonality, the size-change termination pre-screen) plus the
    /// dead-code sweep, as structured [`Diagnostic`]s with stable codes
    /// and source lines. The fixes come from [`analyze`], which attaches
    /// them itself; the session holds the source, so a `CQ001` stub it
    /// already contains is withdrawn
    /// ([`cycleq_analysis::drop_existing_stub_fixes`]). Surfaced on the CLI
    /// as `cycleq lint`, and printed to stderr before every `cycleq prove`.
    pub fn analyze(&self) -> Vec<Diagnostic> {
        let mut diags = cycleq_analysis::analyze(&self.module);
        cycleq_analysis::drop_existing_stub_fixes(&self.source, &mut diags);
        diags
    }

    /// Analyzes the loaded source and applies every machine-applicable fix
    /// to a fixed point: joinable overlaps (`CQ002`) are completed into
    /// orthogonal systems, derivable missing clauses (`CQ001`) inserted,
    /// and unreachable equations (`CQ005`) deleted. Returns the repaired
    /// source, how many fixes were applied, and the diagnostics remaining
    /// against it. The session itself is not mutated — load the returned
    /// source to prove against the repaired program. Surfaced on the CLI
    /// as `cycleq lint --fix`.
    pub fn analyze_with_fixes(&self) -> FixOutcome {
        cycleq_analysis::analyze_with_fixes(&self.source)
    }

    /// Goal names in declaration order.
    pub fn goal_names(&self) -> Vec<&str> {
        self.module.goals.iter().map(|g| g.name.as_str()).collect()
    }

    /// Attempts to prove the named goal: a batch of one
    /// ([`Session::prove_many_with`]), so it streams its events to the
    /// engine's sink and records its profile as every batch goal does.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownGoal`] for unknown names and
    /// [`Error::Check`] if a produced proof fails re-checking (a bug).
    pub fn prove(&self, goal: &str) -> Result<Verdict, Error> {
        let (budget, cancel) = engine::unbounded();
        self.prove_with_budget(goal, &[], &budget, &cancel)
    }

    /// Attempts to prove the named goal under an external [`Budget`] and
    /// [`CancelToken`], first proving the named hint goals and making them
    /// available as `(Subst)` lemmas (§6.2). The budget applies on top of
    /// the engine configuration's own limits (the effective limit in each
    /// dimension is the tighter of the two).
    ///
    /// Cancelling the token from another thread — any clone observes the
    /// same flag — makes the search return promptly with a
    /// [`Outcome::Cancelled`] verdict; the partial preproof and the
    /// statistics gathered so far remain inspectable on the verdict.
    ///
    /// # Errors
    ///
    /// As [`Session::prove`]; hints must also name declared goals.
    pub fn prove_with_budget(
        &self,
        goal: &str,
        hints: &[&str],
        budget: &Budget,
        cancel: &CancelToken,
    ) -> Result<Verdict, Error> {
        let mut report = self.prove_many_with(&[goal], hints, budget, cancel)?;
        report
            .goals
            .pop()
            .expect("a batch of one reports one goal")
            .outcome
    }

    /// One goal of a batch: its search and the re-check of its proof,
    /// streaming its `GoalStarted` and `RoundDeepened` events to `sink`
    /// under its position `index` in the request. The search and those
    /// events run under `catch_unwind`, so a panic inside them (a prover
    /// bug, or a sink that panics) becomes a structured
    /// [`Outcome::Panicked`] verdict for this goal instead of tearing down
    /// the caller.
    fn prove_goal(
        &self,
        goal: &GoalDef,
        hints: &[&GoalDef],
        budget: &Budget,
        cancel: &CancelToken,
        index: usize,
        sink: Option<&Arc<dyn EventSink>>,
    ) -> Result<Verdict, Error> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut prover =
                Prover::with_config(&self.module.program, self.settings.config.clone());
            if let Some(sink) = sink {
                sink.event(&ProveEvent::GoalStarted {
                    index,
                    goal: goal.name.clone(),
                });
                let sink = Arc::clone(sink);
                let name = goal.name.clone();
                prover =
                    prover.with_round_observer(Arc::new(move |depth: usize, elapsed: Duration| {
                        sink.event(&ProveEvent::RoundDeepened {
                            index,
                            goal: name.clone(),
                            depth,
                            elapsed,
                        });
                    }));
            }
            let mut vars = goal.vars.clone();
            let hint_eqs: Vec<Equation> = hints.iter().map(|h| h.rename_into(&mut vars)).collect();
            let result =
                prover.prove_with_budget(goal.eq.clone(), vars, &hint_eqs, budget, Some(cancel));
            let recheck = match result.outcome {
                // The independent checker derives reducts on its own
                // hash-consed store, memoized across the proof's nodes.
                Outcome::Proved { .. } if self.settings.recheck => Some(
                    check(
                        &result.proof,
                        &self.module.program,
                        GlobalCheck::VariableTraces,
                    )
                    .map_err(Error::Check)?,
                ),
                _ => None,
            };
            Ok(Verdict {
                goal: goal.name.clone(),
                result,
                recheck,
                sig: self.module.program.sig.clone(),
            })
        }))
        .unwrap_or_else(|payload| {
            let message = cycleq_batch::panic_message(payload.as_ref());
            Ok(self.panicked_verdict(&goal.name, message))
        })
    }

    /// A synthetic verdict for a goal whose search panicked: the structured
    /// failure a panic boundary substitutes for the unwind.
    fn panicked_verdict(&self, goal: &str, message: String) -> Verdict {
        Verdict {
            goal: goal.to_string(),
            result: ProofResult {
                outcome: Outcome::Panicked { message },
                proof: Preproof::with_vars(VarStore::new()),
                stats: SearchStats::default(),
            },
            recheck: None,
            sig: self.module.program.sig.clone(),
        }
    }

    /// Serializes a proved verdict into a self-contained certificate: the
    /// program source (fingerprinted) and the proof's variables, nodes and
    /// rule instances. The text can be written to a file and later
    /// re-validated — on any machine, without the original session — via
    /// [`check_certificate`] or the `cycleq check` subcommand.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoProof`] when the verdict carries no proof.
    pub fn export_certificate(&self, verdict: &Verdict) -> Result<String, Error> {
        match verdict.result.outcome {
            Outcome::Proved { .. } => Ok(cycleq_proof::export_certificate(
                &verdict.goal,
                &self.source,
                &verdict.result.proof,
            )),
            _ => Err(Error::NoProof),
        }
    }

    /// Attempts to prove **every declared goal**, fanning the batch out
    /// across [`Session::jobs`] workers. Results come back in declaration
    /// order regardless of which worker finished when; each goal's search
    /// owns its term store and memo table, so workers share no search state
    /// and the worker count changes only the wall time. Streams
    /// [`ProveEvent`]s to the engine's sink, when one is configured.
    pub fn prove_all(&self) -> BatchReport {
        let (budget, cancel) = engine::unbounded();
        self.prove_all_with(&budget, &cancel)
    }

    /// [`Session::prove_all`] under an external batch [`Budget`] and
    /// [`CancelToken`]. See [`Session::prove_many_with`] for how a batch
    /// deadline is apportioned across goals.
    pub fn prove_all_with(&self, budget: &Budget, cancel: &CancelToken) -> BatchReport {
        let goals: Vec<&str> = self.module.goals.iter().map(|g| g.name.as_str()).collect();
        self.prove_many_with(&goals, &[], budget, cancel)
            .expect("declared goal names are always known")
    }

    /// Attempts to prove the named goals (each with the given hints),
    /// batched across [`Session::jobs`] workers, returning per-goal
    /// verdicts in the order the goals were requested. Every prove call of
    /// a session runs through here; a single goal is a batch of one.
    ///
    /// Each idle worker takes the goal with the largest term size not yet
    /// started, so heavy goals start first. Every goal streams
    /// `GoalStarted`, `RoundDeepened` and `GoalFinished` events to the
    /// engine's sink, and the batch ends with `BatchFinished`. Each goal
    /// empties the phase table of the thread it runs on before it starts
    /// and takes it when it ends, so the session's [`Session::profile`]
    /// becomes exactly the spans of this call's goals.
    ///
    /// Duplicate goal names in the request are **deduplicated, preserving
    /// the first occurrence**: proving a goal twice in one batch would do
    /// identical work for identical verdicts, so the report carries one
    /// entry per distinct goal, in first-occurrence order.
    ///
    /// The budget's node and fuel ceilings apply to **each goal**; its
    /// wall-clock ceiling bounds the **whole batch** and is apportioned
    /// into per-goal slices: a goal starting with `r` time remaining and
    /// `g` goals not yet started (out of `w` workers) receives
    /// `min(r, r·w/g)`. One explosive goal therefore exhausts only its
    /// slice, and cheap goals scheduled after it still get their share —
    /// the batch as a whole never overruns the deadline. Cancelling the
    /// token aborts every running and queued goal promptly; finished goals
    /// keep their verdicts and the rest report
    /// [`Outcome::Cancelled`]-carrying verdicts in the returned report.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownGoal`] when any requested goal or hint does
    /// not name a declared goal — validated up front, before any search
    /// runs. Per-goal failures (including a proof failing re-checking) are
    /// reported inside the corresponding [`GoalReport`], not as a batch
    /// error.
    pub fn prove_many_with(
        &self,
        goals: &[&str],
        hints: &[&str],
        budget: &Budget,
        cancel: &CancelToken,
    ) -> Result<BatchReport, Error> {
        let lookup = |name: &str| {
            self.module
                .goal(name)
                .ok_or_else(|| Error::UnknownGoal(name.to_string()))
        };
        let mut seen = HashSet::new();
        let mut defs = Vec::with_capacity(goals.len());
        for &name in goals {
            let def = lookup(name)?;
            if seen.insert(name) {
                defs.push(def);
            }
        }
        let hints = hints
            .iter()
            .map(|&name| lookup(name))
            .collect::<Result<Vec<_>, _>>()?;
        let total = defs.len();
        let costs: Vec<u64> = defs
            .iter()
            .map(|g| u64::try_from(g.eq.size()).unwrap_or(u64::MAX))
            .collect();
        let start = Instant::now();
        let batch_deadline = budget.timeout.map(|d| start + d);
        let scheduler = BatchScheduler::new(self.settings.jobs);
        let workers = scheduler.jobs().min(total.max(1)) as u32;
        let started = AtomicUsize::new(0);
        let profile = std::sync::Mutex::new(Profile::default());
        let sink = self.settings.sink.as_ref();
        let hints = &hints;
        let tasks: Vec<_> = defs
            .iter()
            .enumerate()
            .map(|(index, &goal)| {
                let (started, profile) = (&started, &profile);
                move |_worker: usize| {
                    let goal_start = Instant::now();
                    let goal_budget = match batch_deadline {
                        None => budget.clone(),
                        Some(deadline) => {
                            let remaining = deadline.saturating_duration_since(goal_start);
                            let not_started =
                                total.saturating_sub(started.load(Ordering::Relaxed)).max(1);
                            let slice = remaining
                                .checked_mul(workers)
                                .map(|r| r / u32::try_from(not_started).unwrap_or(u32::MAX))
                                .unwrap_or(remaining)
                                .min(remaining);
                            let mut b = budget.clone();
                            b.timeout = Some(slice);
                            b
                        }
                    };
                    started.fetch_add(1, Ordering::Relaxed);
                    // Whatever ran on this thread before is not this goal's.
                    let _ = cycleq_trace::take_profile();
                    let outcome = self.prove_goal(goal, hints, &goal_budget, cancel, index, sink);
                    cycleq_trace::lock_recover(profile).merge(&cycleq_trace::take_profile());
                    let report = GoalReport {
                        goal: goal.name.clone(),
                        outcome,
                        time: goal_start.elapsed(),
                    };
                    if let Some(sink) = sink {
                        sink.event(&ProveEvent::GoalFinished {
                            index,
                            goal: report.goal.clone(),
                            status: GoalStatus::of(&report.outcome),
                            time: report.time,
                        });
                    }
                    report
                }
            })
            .collect();
        // The scheduler is the outer panic boundary: `prove_goal` already
        // isolates panics inside the search and its events, so a
        // `TaskPanic` here means the panic escaped that inner boundary
        // (e.g. an event sink panicking on `GoalFinished`). It still
        // becomes a structured per-goal report rather than tearing down
        // the batch.
        let reports: Vec<GoalReport> = scheduler
            .run_with_costs_catching(tasks, &costs)
            .into_iter()
            .zip(&defs)
            .map(|(result, goal)| {
                result.unwrap_or_else(|panic| GoalReport {
                    goal: goal.name.clone(),
                    outcome: Ok(self.panicked_verdict(&goal.name, panic.message)),
                    time: Duration::ZERO,
                })
            })
            .collect();
        let mut stats = SearchStats::default();
        let mut recheck = Duration::ZERO;
        for r in &reports {
            if let Ok(v) = &r.outcome {
                stats.absorb(&v.result.stats);
                if let Some(c) = &v.recheck {
                    recheck += c.elapsed;
                }
            }
        }
        // Wall clock of the whole batch, not the sum of per-goal times:
        // with jobs > 1 the sum exceeds the wall clock by design.
        stats.elapsed = start.elapsed();
        let report = BatchReport {
            goals: reports,
            stats,
            jobs: scheduler.jobs(),
            recheck,
        };
        if let Some(sink) = sink {
            sink.event(&ProveEvent::BatchFinished {
                proved: report.proved(),
                total: report.goals.len(),
                elapsed: report.stats.elapsed,
            });
        }
        let profile = profile.into_inner().unwrap_or_else(PoisonError::into_inner);
        *cycleq_trace::lock_recover(&self.last_profile) = Some(profile);
        Ok(report)
    }
}

/// The outcome of one goal within a batch.
#[derive(Clone, Debug)]
pub struct GoalReport {
    /// The goal's name.
    pub goal: String,
    /// The verdict, or the per-goal error (e.g. a proof that failed
    /// re-checking).
    pub outcome: Result<Verdict, Error>,
    /// Wall-clock time this goal occupied its worker (parse excluded,
    /// search and re-check included).
    pub time: Duration,
}

impl GoalReport {
    /// The verdict, when the goal ran to a verdict.
    pub fn verdict(&self) -> Option<&Verdict> {
        self.outcome.as_ref().ok()
    }

    /// Whether the goal was proved (and, if enabled, re-checked).
    pub fn is_proved(&self) -> bool {
        self.verdict().is_some_and(Verdict::is_proved)
    }

    /// Whether the goal was refuted.
    pub fn is_refuted(&self) -> bool {
        self.verdict().is_some_and(Verdict::is_refuted)
    }

    /// Whether the goal's search panicked and was isolated by a panic
    /// boundary.
    pub fn is_panicked(&self) -> bool {
        self.verdict()
            .is_some_and(|v| matches!(v.result.outcome, Outcome::Panicked { .. }))
    }

    /// The independent re-check's report, when one ran for this goal.
    pub fn recheck(&self) -> Option<&CheckReport> {
        self.verdict().and_then(|v| v.recheck.as_ref())
    }
}

/// The outcome of validating one certificate ([`check_certificate`]).
#[derive(Clone, Debug)]
pub struct CertificateCheck {
    /// The goal name the certificate proves.
    pub goal: String,
    /// The checker's report for the embedded proof.
    pub report: CheckReport,
}

/// Validates certificate text end to end: parse (version, structure,
/// program fingerprint), re-elaborate the embedded program source, run
/// the embedded proof through the independent interned checker, and check
/// that the program declares the goal the certificate names and that the
/// proof states it. Nothing from the proving session is trusted — only
/// the bytes of the certificate.
///
/// The whole embedded source is parsed, so a syntax error or a term
/// nested deeper than [`MAX_NESTING`] anywhere in it rejects the
/// certificate, and so does a goal name declared twice. But only the
/// signature, the rules and the goal the certificate names are
/// elaborated ([`cycleq_lang::parse_module_for_goal`]): a resolution or
/// type error confined to another goal does not affect the check.
///
/// # Errors
///
/// [`Error::Certificate`] for parse/tamper/check failures and
/// [`Error::Lang`] when the embedded program or its named goal no longer
/// elaborates.
pub fn check_certificate(text: &str) -> Result<CertificateCheck, Error> {
    let cert = Certificate::parse(text).map_err(Error::Certificate)?;
    let module = cycleq_lang::parse_module_for_goal(cert.program_src(), cert.goal())?;
    let report = cert.verify(&module.program).map_err(Error::Certificate)?;
    cert.check_goal(module.goal(cert.goal()).map(|g| (&g.eq, &g.vars)))
        .map_err(Error::Certificate)?;
    Ok(CertificateCheck {
        goal: cert.goal().to_string(),
        report,
    })
}

/// The outcome of [`Session::prove_all`]/[`Session::prove_many_with`]:
/// deterministic, declaration-ordered per-goal reports plus aggregates.
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// Per-goal reports, in the order the goals were requested (declaration
    /// order for [`Session::prove_all`]) — independent of completion order.
    pub goals: Vec<GoalReport>,
    /// Search counters summed over all goals. `elapsed` is the wall clock
    /// of the whole batch; the gauges (`closure_graphs`,
    /// `interned_nodes`, `interned_graphs`) are summed across goals.
    pub stats: SearchStats,
    /// Worker threads used. Unless a wall-clock budget cuts a goal short,
    /// only the batch's wall time depends on it: the per-goal verdicts and
    /// counters are the same at any count.
    pub jobs: usize,
    /// Total time spent in the independent re-checker: the wall-clock
    /// times of the proved goals' re-checks, summed (zero when re-checking
    /// is disabled). With `jobs > 1` rechecks overlap, so the sum can
    /// exceed the batch's wall clock.
    pub recheck: Duration,
}

impl BatchReport {
    /// Number of proved goals.
    pub fn proved(&self) -> usize {
        self.goals.iter().filter(|g| g.is_proved()).count()
    }

    /// Whether every goal in the batch was proved.
    pub fn all_proved(&self) -> bool {
        self.goals.iter().all(GoalReport::is_proved)
    }

    /// Whether any goal was refuted (a ground counterexample exists).
    pub fn any_refuted(&self) -> bool {
        self.goals.iter().any(GoalReport::is_refuted)
    }

    /// Whether any goal ended without a proof or refutation (exhausted,
    /// timeout, node budget, failed hint, panicked, or a per-goal error).
    pub fn any_gave_up(&self) -> bool {
        self.goals.iter().any(|g| !g.is_proved() && !g.is_refuted())
    }

    /// Number of goals whose search panicked and was isolated by a panic
    /// boundary (their reports carry [`Outcome::Panicked`] verdicts).
    pub fn panicked(&self) -> usize {
        self.goals.iter().filter(|g| g.is_panicked()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cycleq_lang::LangErrorKind;

    const SRC: &str = "data Nat = Z | S Nat
add :: Nat -> Nat -> Nat
add Z y = y
add (S x) y = S (add x y)
goal comm: add x y === add y x
goal zeroRight: add x Z === x
goal wrong: add x Z === Z
";

    #[test]
    fn session_proves_and_renders() {
        let s = Session::from_source(SRC).unwrap();
        let v = s.prove("comm").unwrap();
        assert!(v.is_proved());
        let text = v.render_proof().unwrap();
        assert!(text.contains("[Case"));
        let dot = v.render_dot().unwrap();
        assert!(dot.starts_with("digraph"));
    }

    #[test]
    fn session_refutes() {
        let s = Session::from_source(SRC).unwrap();
        let v = s.prove("wrong").unwrap();
        assert!(v.is_refuted());
        assert!(v.render_proof().is_err());
    }

    #[test]
    fn proved_verdicts_carry_a_recheck_report() {
        let s = Session::from_source(SRC).unwrap();
        let v = s.prove("comm").unwrap();
        let recheck = v.recheck.expect("recheck is on by default");
        assert!(recheck.global_verified);
        assert!(recheck.nodes > 0);
        let refuted = s.prove("wrong").unwrap();
        assert!(refuted.recheck.is_none());
    }

    #[test]
    fn certificate_round_trips_through_check_certificate() {
        let s = Session::from_source(SRC).unwrap();
        let v = s.prove("comm").unwrap();
        let text = s.export_certificate(&v).unwrap();
        let checked = check_certificate(&text).unwrap();
        assert_eq!(checked.goal, "comm");
        assert!(checked.report.global_verified);
        assert_eq!(checked.report.nodes, v.result.proof.len());
    }

    #[test]
    fn export_certificate_requires_a_proof() {
        let s = Session::from_source(SRC).unwrap();
        let v = s.prove("wrong").unwrap();
        assert!(matches!(s.export_certificate(&v), Err(Error::NoProof)));
    }

    #[test]
    fn tampered_certificates_are_rejected() {
        let s = Session::from_source(SRC).unwrap();
        let v = s.prove("comm").unwrap();
        let text = s.export_certificate(&v).unwrap();
        // Tamper with the embedded program: fingerprint mismatch.
        let tampered = text.replace("add Z y = y", "add Z y = Z");
        assert!(matches!(
            check_certificate(&tampered),
            Err(Error::Certificate(
                CertificateError::FingerprintMismatch { .. }
            ))
        ));
        // Drop trailing lines: truncated.
        let lines: Vec<&str> = text.lines().collect();
        let partial = lines[..lines.len() - 3].join("\n");
        assert!(matches!(
            check_certificate(&partial),
            Err(Error::Certificate(CertificateError::Truncated))
        ));
    }

    #[test]
    fn certificates_are_bound_to_the_goal_they_name() {
        let s = Session::from_source(SRC).unwrap();
        let v = s.prove("zeroRight").unwrap();
        let text = s.export_certificate(&v).unwrap();
        assert_eq!(check_certificate(&text).unwrap().goal, "zeroRight");
        let forge = |goal: &str| text.replace("\ngoal zeroRight\n", &format!("\ngoal {goal}\n"));
        // Declared goals the proof does not state, true (`comm`) and false
        // (`wrong`): the goal line is outside the fingerprint.
        for other in ["comm", "wrong"] {
            let forged = forge(other);
            assert_ne!(forged, text);
            assert!(
                matches!(
                    check_certificate(&forged),
                    Err(Error::Certificate(CertificateError::GoalMismatch {
                        ref goal,
                        declared: true,
                    })) if goal == other
                ),
                "{other}"
            );
        }
        assert!(matches!(
            check_certificate(&forge("nowhere")),
            Err(Error::Certificate(CertificateError::GoalMismatch {
                declared: false,
                ..
            }))
        ));
    }

    /// `text` with its embedded program replaced by `src` and the
    /// fingerprint recomputed, as a forger would.
    fn with_program(text: &str, src: &str) -> String {
        let mut out = String::new();
        for line in text.lines() {
            if line.starts_with("fingerprint ") {
                out.push_str(&format!("fingerprint {:016x}", program_fingerprint(src)));
            } else if line.starts_with("program ") {
                out.push_str("program ");
                out.push_str(&src.replace('\\', "\\\\").replace('\n', "\\n"));
            } else {
                out.push_str(line);
            }
            out.push('\n');
        }
        out
    }

    #[test]
    fn modules_that_repeat_a_goal_name_fail_to_load() {
        let src = format!("{SRC}goal comm: add x Z === x\n");
        let err = Session::from_source(&src).unwrap_err();
        assert!(
            matches!(&err, Error::Lang(e) if e.kind == LangErrorKind::Duplicate("comm".into())),
            "{err}"
        );
        assert_eq!(err.to_string(), "line 8: duplicate declaration of `comm`");
    }

    #[test]
    fn certificates_whose_program_repeats_a_goal_name_are_refused() {
        let s = Session::from_source(SRC).unwrap();
        let v = s.prove("zeroRight").unwrap();
        let text = s.export_certificate(&v).unwrap();
        // Whether or not the repeated name is the goal the certificate
        // names.
        for repeated in ["zeroRight", "comm"] {
            let forged = with_program(&text, &format!("{SRC}goal {repeated}: x === x\n"));
            let err = check_certificate(&forged).unwrap_err();
            assert!(
                matches!(&err, Error::Lang(e) if e.kind == LangErrorKind::Duplicate(repeated.into())),
                "{repeated}: {err}"
            );
        }
    }

    #[test]
    fn certificate_checks_elaborate_only_the_goal_they_name() {
        let s = Session::from_source(SRC).unwrap();
        let v = s.prove("zeroRight").unwrap();
        let text = s.export_certificate(&v).unwrap();
        // An ill-typed goal other than the certificate's own is not
        // elaborated, so the certificate checks, although the program
        // does not load.
        let program = format!("{SRC}goal bad: S === Z\n");
        assert!(matches!(
            Session::from_source(&program),
            Err(Error::Lang(LangError {
                kind: LangErrorKind::Type(_),
                ..
            }))
        ));
        let checked = check_certificate(&with_program(&text, &program)).unwrap();
        assert_eq!(checked.goal, "zeroRight");
        // The certificate's own goal is elaborated.
        let program = SRC.replace(
            "goal zeroRight: add x Z === x",
            "goal zeroRight: add x Z === S",
        );
        let err = check_certificate(&with_program(&text, &program)).unwrap_err();
        assert!(
            matches!(
                &err,
                Error::Lang(LangError {
                    line: 6,
                    kind: LangErrorKind::Type(_),
                })
            ),
            "{err}"
        );
    }

    #[test]
    fn batch_report_accumulates_recheck_time() {
        let s = Session::from_source(SRC).unwrap();
        let report = s.prove_all();
        // At least `comm` and `zeroRight` are proved and rechecked; the
        // summed duration is whatever it is, but the reports must be there.
        assert!(report.goals.iter().any(|g| g.recheck().is_some()));
        assert!(report
            .goals
            .iter()
            .filter(|g| !g.is_proved())
            .all(|g| g.recheck().is_none()));
    }

    #[test]
    fn unknown_goals_error() {
        let s = Session::from_source(SRC).unwrap();
        assert!(matches!(s.prove("nope"), Err(Error::UnknownGoal(_))));
    }

    #[test]
    fn goal_names_in_order() {
        let s = Session::from_source(SRC).unwrap();
        assert_eq!(s.goal_names(), vec!["comm", "zeroRight", "wrong"]);
    }

    #[test]
    fn hints_are_imported_by_name() {
        let src = "data Nat = Z | S Nat
add :: Nat -> Nat -> Nat
add Z y = y
add (S x) y = S (add x y)
goal succRight: add x (S y) === S (add x y)
goal comm: add x y === add y x
";
        let s = Session::from_source(src).unwrap();
        let (budget, cancel) = engine::unbounded();
        let v = s
            .prove_with_budget("comm", &["succRight"], &budget, &cancel)
            .unwrap();
        assert!(v.is_proved());
    }

    #[test]
    fn prove_all_reports_every_goal_in_declaration_order() {
        for jobs in [1, 4] {
            let s = Engine::builder().jobs(jobs).build().load(SRC).unwrap();
            let report = s.prove_all();
            assert_eq!(report.jobs, jobs);
            let names: Vec<&str> = report.goals.iter().map(|g| g.goal.as_str()).collect();
            assert_eq!(names, vec!["comm", "zeroRight", "wrong"]);
            assert!(report.goals[0].is_proved());
            assert!(report.goals[1].is_proved());
            assert!(report.goals[2].is_refuted());
            assert_eq!(report.proved(), 2);
            assert!(!report.all_proved());
            assert!(report.any_refuted());
            assert!(!report.any_gave_up());
            assert!(report.stats.nodes_created > 0);
        }
    }

    /// `prove_many_with` without a budget or a token to cancel.
    fn prove_batch(s: &Session, goals: &[&str], hints: &[&str]) -> Result<BatchReport, Error> {
        let (budget, cancel) = engine::unbounded();
        s.prove_many_with(goals, hints, &budget, &cancel)
    }

    #[test]
    fn prove_many_validates_names_up_front() {
        let s = Session::from_source(SRC).unwrap();
        assert!(matches!(
            prove_batch(&s, &["comm", "nope"], &[]),
            Err(Error::UnknownGoal(n)) if n == "nope"
        ));
        assert!(matches!(
            prove_batch(&s, &["comm"], &["missingHint"]),
            Err(Error::UnknownGoal(_))
        ));
        let subset = prove_batch(&s, &["zeroRight"], &[]).unwrap();
        assert_eq!(subset.goals.len(), 1);
        assert!(subset.goals[0].is_proved());
    }

    #[test]
    fn jobs_zero_selects_hardware_parallelism() {
        let s = Engine::builder().jobs(0).build().load(SRC).unwrap();
        assert!(s.jobs() >= 1);
    }

    #[test]
    fn prove_many_dedupes_duplicate_goal_names_preserving_first_occurrence() {
        let s = Session::from_source(SRC).unwrap();
        let report = prove_batch(
            &s,
            &["zeroRight", "comm", "zeroRight", "comm", "zeroRight"],
            &[],
        )
        .unwrap();
        let names: Vec<&str> = report.goals.iter().map(|g| g.goal.as_str()).collect();
        assert_eq!(names, vec!["zeroRight", "comm"]);
        assert!(report.all_proved());
    }

    #[derive(Default)]
    struct Collect(std::sync::Mutex<Vec<ProveEvent>>);

    impl EventSink for Collect {
        fn event(&self, event: &ProveEvent) {
            self.0.lock().unwrap().push(event.clone());
        }
    }

    #[test]
    fn prove_all_streams_events_for_every_goal() {
        let sink = Arc::new(Collect::default());
        for jobs in [1, 4] {
            sink.0.lock().unwrap().clear();
            let events = sink.clone();
            let engine = Engine::builder()
                .jobs(jobs)
                .on_event(move |ev: &ProveEvent| events.event(ev))
                .build();
            let s = engine.load(SRC).unwrap();
            let report = s.prove_all();
            assert_eq!(report.proved(), 2);

            let log = sink.0.lock().unwrap();
            let started: Vec<usize> = log
                .iter()
                .filter_map(|e| match e {
                    ProveEvent::GoalStarted { index, .. } => Some(*index),
                    _ => None,
                })
                .collect();
            let finished: Vec<(usize, GoalStatus)> = log
                .iter()
                .filter_map(|e| match e {
                    ProveEvent::GoalFinished { index, status, .. } => Some((*index, *status)),
                    _ => None,
                })
                .collect();
            assert_eq!(started.len(), 3, "jobs={jobs}: {log:?}");
            assert_eq!(finished.len(), 3, "jobs={jobs}");
            // Every goal index appears exactly once in both streams.
            for idx in 0..3 {
                assert_eq!(started.iter().filter(|&&i| i == idx).count(), 1);
                assert_eq!(finished.iter().filter(|&(i, _)| *i == idx).count(), 1);
            }
            // Statuses agree with the declaration-ordered report.
            for (idx, status) in &finished {
                assert_eq!(
                    *status,
                    GoalStatus::of(&report.goals[*idx].outcome),
                    "jobs={jobs} goal {idx}"
                );
            }
            // The terminal event closes the stream with the batch totals.
            assert!(matches!(
                log.last(),
                Some(ProveEvent::BatchFinished {
                    proved: 2,
                    total: 3,
                    ..
                })
            ));
        }
    }

    #[test]
    fn a_single_prove_is_a_batch_of_one() {
        let sink = Arc::new(Collect::default());
        let events = sink.clone();
        let s = Engine::builder()
            .jobs(4)
            .on_event(move |ev: &ProveEvent| events.event(ev))
            .build()
            .load(SRC)
            .unwrap();
        assert!(s.prove("zeroRight").unwrap().is_proved());
        let log = sink.0.lock().unwrap();
        assert!(
            matches!(
                log.first(),
                Some(ProveEvent::GoalStarted { index: 0, goal }) if goal == "zeroRight"
            ),
            "{log:?}"
        );
        let finished: Vec<(usize, GoalStatus)> = log
            .iter()
            .filter_map(|e| match e {
                ProveEvent::GoalFinished {
                    index,
                    goal,
                    status,
                    ..
                } if goal == "zeroRight" => Some((*index, *status)),
                _ => None,
            })
            .collect();
        assert_eq!(finished, vec![(0, GoalStatus::Proved)], "{log:?}");
        assert!(
            matches!(
                log.last(),
                Some(ProveEvent::BatchFinished {
                    proved: 1,
                    total: 1,
                    ..
                })
            ),
            "{log:?}"
        );
    }

    #[test]
    fn cancelled_single_prove_reports_cancelled_outcome() {
        let s = Session::from_source(SRC).unwrap();
        let token = CancelToken::new();
        token.cancel();
        let v = s
            .prove_with_budget("comm", &[], &Budget::unlimited(), &token)
            .unwrap();
        assert_eq!(v.result.outcome, Outcome::Cancelled);
        assert!(!v.is_proved());
        assert!(!v.is_refuted());
    }

    #[test]
    fn repeated_prove_calls_are_independent() {
        // No search state outlives a prove call, so the second call redoes
        // the first exactly: same counters, same proof.
        let s = Session::from_source(SRC).unwrap();
        let first = s.prove("comm").unwrap();
        let second = s.prove("comm").unwrap();
        assert_eq!(first.result.stats.entries(), second.result.stats.entries());
        assert_eq!(
            first.render_proof().unwrap(),
            second.render_proof().unwrap()
        );
    }

    #[test]
    fn analyze_is_clean_on_the_quickstart_and_structured_on_violations() {
        let s = Session::from_source(SRC).unwrap();
        assert!(s.analyze().is_empty());
        let dodgy =
            Session::from_source("data Nat = Z | S Nat\nloop :: Nat -> Nat\nloop x = loop x\n")
                .unwrap();
        let ds = dodgy.analyze();
        assert!(ds.iter().any(|d| d.code == Code::SizeChange));
    }

    #[test]
    fn parse_errors_surface() {
        assert!(matches!(
            Session::from_source("data = |"),
            Err(Error::Lang(_))
        ));
    }
}
