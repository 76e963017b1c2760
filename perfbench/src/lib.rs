//! The CycleQ benchmark: seeded workloads that drive the public `cycleq`
//! API from one process, check every verdict against a committed table,
//! and measure end-to-end and per-layer metrics from outside the program.
//!
//! Every workload limits search by a node budget (no wall-clock timeout),
//! so verdicts do not depend on the machine. Times are CPU times, which
//! leave out waiting for a processor. See `README.md` for the workloads,
//! the seed semantics, the timing and the metric map.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads the CPU clocks of 64-bit Linux");

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cycleq::{
    Budget, CancelToken, Engine, Outcome, ProveEvent, SearchConfig, SearchStats, Session, Severity,
    Verdict,
};
use cycleq_benchsuite::{Expectation, Problem, ISAPLANNER, PRELUDE};

/// The committed expected-verdict table (`<workload> <budget> <problem>
/// <verdict>` per line).
const EXPECTED: &str = include_str!("../expected.txt");

/// `shallow`: the in-scope problems each decided in under 10 ms at 2000
/// nodes.
const SHALLOW_POOL: &[&str] = &[
    "IP01", "IP06", "IP07", "IP08", "IP10", "IP11", "IP12", "IP13", "IP17", "IP18", "IP19", "IP21",
    "IP22", "IP23", "IP24", "IP25", "IP28", "IP31", "IP32", "IP33", "IP34", "IP35", "IP36", "IP40",
    "IP41", "IP42", "IP43", "IP44", "IP45", "IP46", "IP50", "IP51", "IP55", "IP57", "IP58", "IP61",
    "IP64", "IP66", "IP67", "IP73", "IP80", "IP82", "IP83", "IP84", "M01", "M02", "M03", "M04",
    "M05", "M07", "M08", "F04", "F09",
];

/// `deep`: the heavy problems every seed runs.
const DEEP_FIXED: &[&str] = &["IP56", "IP79", "IP09", "M06", "M04", "IP49", "IP61", "IP14"];

/// `deep`: the give-up pool (in-scope IsaPlanner goals that reach 4000
/// nodes, IP74 excluded), in strata of similar cost. The seed picks one
/// goal from each stratum, so the sample's total cost barely depends on
/// the seed. Six goals are always sampled, so that the same requests set
/// the percentiles on every seed: the three cheapest (IP68, IP02, IP52),
/// which set the median latency, the two dearest (IP20, IP37), which set
/// p90 with IP56, and the one with the largest heap (IP03), which sets
/// peak memory. Every seeded goal costs more than the median and less
/// than p90.
const DEEP_GIVE_UP_STRATA: &[&[&str]] = &[
    &["IP68"],
    &["IP02"],
    &["IP52"],
    &["IP03"],
    &["IP37"],
    &["IP20"],
    &["IP53", "IP75"],
    &["IP72", "IP04"],
    &["IP78", "IP81", "IP38", "IP30"],
    &["IP15", "IP39", "IP29"],
];

/// Workers of the `batch` workload.
const BATCH_JOBS: usize = 2;

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Quick problems, one request each: load, analyze, prove, certificate.
    Shallow,
    /// Heavy problems plus a seeded sample of goals that give up.
    Deep,
    /// One module of all unhinted in-scope IsaPlanner goals, proved as a
    /// parallel batch with the shared normal-form cache.
    Batch,
}

impl Kind {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "shallow" => Some(Kind::Shallow),
            "deep" => Some(Kind::Deep),
            "batch" => Some(Kind::Batch),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Shallow => "shallow",
            Kind::Deep => "deep",
            Kind::Batch => "batch",
        }
    }

    /// The node budget every goal of the workload is searched under.
    pub fn node_budget(self) -> usize {
        match self {
            Kind::Shallow | Kind::Batch => 2000,
            Kind::Deep => 4000,
        }
    }
}

/// A goal to prove, with the verdict the table expects.
#[derive(Clone, Debug)]
pub struct Goal {
    /// The problem id, e.g. `IP56`.
    pub problem: &'static str,
    /// The goal's name inside its module.
    pub name: String,
    /// `proved`, `exhausted` or `node-budget`.
    pub expected: &'static str,
}

/// One single-goal request of `shallow` or `deep`.
#[derive(Clone, Debug)]
pub struct Request {
    /// The goal.
    pub goal: Goal,
    /// The module source: the problem's prelude plus its goal.
    pub source: Arc<str>,
}

/// The generated inputs of a workload.
#[derive(Clone, Debug)]
pub enum Inputs {
    /// Single-goal requests, sent one after another by one client.
    Requests(Vec<Request>),
    /// One module proved as a batch.
    Batch {
        /// The module source.
        source: Arc<str>,
        /// Its goals, in declaration order.
        goals: Vec<Goal>,
    },
}

/// A workload instance: everything the program sees, generated from a
/// workload name and a seed.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Which workload.
    pub kind: Kind,
    /// Batch workers (1 for the single-client workloads).
    pub jobs: usize,
    /// The generated inputs.
    pub inputs: Inputs,
}

impl Workload {
    /// Generates the workload's inputs from `seed`: the seed picks `deep`'s
    /// give-up sample and the order of requests (or of goal declarations).
    ///
    /// # Errors
    ///
    /// A problem missing from the suite or from the expected-verdict table.
    pub fn generate(kind: Kind, seed: u64) -> Result<Workload, String> {
        let mut rng = SplitMix64(seed);
        let table = expected_table()?;
        let expect = |id: &'static str| -> Result<Goal, String> {
            let problem = find_problem(id)?;
            let expected = table
                .get(&(kind.name(), kind.node_budget(), id))
                .copied()
                .ok_or_else(|| format!("no expected verdict for {} {id}", kind.name()))?;
            Ok(Goal {
                problem: problem.id,
                name: problem.goal_name(),
                expected,
            })
        };
        let mut ids: Vec<&'static str> = match kind {
            Kind::Shallow => SHALLOW_POOL.to_vec(),
            Kind::Deep => {
                let mut ids = DEEP_FIXED.to_vec();
                ids.extend(DEEP_GIVE_UP_STRATA.iter().map(|s| s[rng.below(s.len())]));
                ids
            }
            Kind::Batch => ISAPLANNER
                .iter()
                .filter(|p| p.expectation == Expectation::InScope)
                .map(|p| p.id)
                .collect(),
        };
        rng.shuffle(&mut ids);
        let inputs = match kind {
            Kind::Shallow | Kind::Deep => Inputs::Requests(
                ids.into_iter()
                    .map(|id| {
                        let source = find_problem(id)?
                            .source()
                            .ok_or_else(|| format!("{id} has no goal"))?;
                        Ok(Request {
                            goal: expect(id)?,
                            source: source.into(),
                        })
                    })
                    .collect::<Result<_, String>>()?,
            ),
            Kind::Batch => {
                let goals = ids.into_iter().map(expect).collect::<Result<_, _>>()?;
                batch_inputs(goals)?
            }
        };
        Ok(Workload {
            kind,
            jobs: if kind == Kind::Batch { BATCH_JOBS } else { 1 },
            inputs,
        })
    }

    /// Keeps only the first `n` requests (or batch goals): a reduced pass
    /// for tests.
    ///
    /// # Errors
    ///
    /// As [`Workload::generate`].
    pub fn truncated(mut self, n: usize) -> Result<Workload, String> {
        self.inputs = match self.inputs {
            Inputs::Requests(mut requests) => {
                requests.truncate(n);
                Inputs::Requests(requests)
            }
            Inputs::Batch { mut goals, .. } => {
                goals.truncate(n);
                batch_inputs(goals)?
            }
        };
        Ok(self)
    }

    /// Every distinct module source of the workload.
    pub fn sources(&self) -> Vec<&str> {
        match &self.inputs {
            Inputs::Requests(requests) => requests.iter().map(|r| &*r.source).collect(),
            Inputs::Batch { source, .. } => vec![source],
        }
    }
}

/// The `batch` module: the IsaPlanner prelude plus every goal, declared in
/// the given order.
fn batch_inputs(goals: Vec<Goal>) -> Result<Inputs, String> {
    let mut source = format!("{PRELUDE}\n");
    for g in &goals {
        let statement = find_problem(g.problem)?
            .goal
            .ok_or_else(|| format!("{} has no goal", g.problem))?;
        source.push_str(&format!("goal {}: {statement}\n", g.name));
    }
    Ok(Inputs::Batch {
        source: source.into(),
        goals,
    })
}

fn find_problem(id: &str) -> Result<&'static Problem, String> {
    cycleq_benchsuite::all_problems()
        .into_iter()
        .find(|p| p.id == id)
        .ok_or_else(|| format!("unknown problem {id}"))
}

type Table = HashMap<(&'static str, usize, &'static str), &'static str>;

fn expected_table() -> Result<Table, String> {
    let mut table = HashMap::new();
    for line in EXPECTED.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&'static str> = line.split_whitespace().collect();
        let [workload, budget, problem, verdict] = fields[..] else {
            return Err(format!("malformed expected-verdict line `{line}`"));
        };
        let budget = budget
            .parse()
            .map_err(|_| format!("bad node budget in `{line}`"))?;
        table.insert((workload, budget, problem), verdict);
    }
    Ok(table)
}

/// The verdict name the expected table uses, for the outcomes a workload
/// may legitimately end in. Any other outcome is a failure.
fn verdict_name(outcome: &Outcome) -> Option<&'static str> {
    match outcome {
        Outcome::Proved { .. } => Some("proved"),
        Outcome::Exhausted => Some("exhausted"),
        Outcome::NodeBudget => Some("node-budget"),
        _ => None,
    }
}

/// SplitMix64: a small, well-mixed generator, so the inputs of a seed are
/// the same on every platform.
#[derive(Debug)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        // n is tiny, so the modulo bias is negligible.
        (self.next() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

fn cpu_clock(clock: i32) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` for the call.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// CPU time the calling thread has used. Time spent waiting for a
/// processor (another process's turn, or a hypervisor's steal) does not
/// count.
pub fn thread_cpu() -> Duration {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time every thread of the process has used, ended threads included.
pub fn process_cpu() -> Duration {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// Seconds of the calling thread's CPU time since `start`.
fn cpu_since(start: Duration) -> f64 {
    (thread_cpu() - start).as_secs_f64()
}

/// Parses every program of the workload, which checks that the inputs
/// load; part of set-up.
///
/// # Errors
///
/// A program that fails to parse.
pub fn parse_inputs(workload: &Workload) -> Result<Vec<cycleq::Module>, String> {
    workload
        .sources()
        .into_iter()
        .map(|source| cycleq::parse_module(source).map_err(|e| e.to_string()))
        .collect()
}

/// Analyzes every parsed program once, before timing, and returns the CPU
/// seconds spent in `cycleq::analyze`.
///
/// # Errors
///
/// A program with an error diagnostic.
pub fn analyze_inputs(modules: &[cycleq::Module]) -> Result<f64, String> {
    let t = thread_cpu();
    for module in modules {
        let diagnostics = cycleq::analyze(module);
        if let Some(d) = diagnostics.iter().find(|d| d.severity == Severity::Error) {
            return Err(format!("input program has an error: {}", d.message));
        }
    }
    Ok(cpu_since(t))
}

/// Per-layer counts and times of one pass. The benchmark's own timers
/// around public calls read the thread's CPU clock; the program's own
/// spans (`closure_update_s`, `normalize_s`, `recheck_s`), the search's
/// `elapsed` and the `batch` times are wall times. Span totals are only
/// collected while tracing is enabled; everything else always is.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    /// CPU seconds in `Engine::load`.
    pub load_s: f64,
    /// CPU seconds in `Session::analyze`.
    pub session_analyze_s: f64,
    /// Diagnostics `Session::analyze` reported.
    pub diagnostics: u64,
    /// Search statistics summed over every goal.
    pub search: SearchStats,
    /// Total of the `closure_update` span.
    pub closure_update_s: f64,
    /// Total of the `normalize` span.
    pub normalize_s: f64,
    /// Total of the `check` span (the recheck of proved goals).
    pub recheck_s: f64,
    /// Proof nodes the recheck validated.
    pub recheck_nodes: u64,
    /// Reducts the recheck derived.
    pub reducts_checked: u64,
    /// CPU seconds in `Session::export_certificate`.
    pub export_s: f64,
    /// CPU seconds in `cycleq::check_certificate`.
    pub cert_check_s: f64,
    /// Seconds from the start to the end of proving: the batch call, or
    /// the whole pass for the single-client workloads.
    pub makespan_s: f64,
    /// Seconds workers spent on goals (`GoalReport::time`, or each
    /// request's wall time).
    pub busy_s: f64,
    /// Seconds goals waited between the batch start and their start.
    pub queue_wait_s: f64,
    /// Workers.
    pub jobs: usize,
}

impl Layers {
    /// Every per-layer metric this pass measured: `(name, unit, value)`.
    pub fn metrics(&self) -> Vec<(&'static str, &'static str, f64)> {
        let s = &self.search;
        let search_s = s.elapsed.as_secs_f64();
        let ratio = |hits: u64, misses: u64| {
            if hits + misses == 0 {
                0.0
            } else {
                hits as f64 / (hits + misses) as f64
            }
        };
        vec![
            ("core.load_s", "s", self.load_s),
            ("analysis.session_analyze_s", "s", self.session_analyze_s),
            ("analysis.diagnostics", "count", self.diagnostics as f64),
            ("search.s", "s", search_s),
            ("search.nodes", "count", s.nodes_created as f64),
            (
                "search.nodes_per_s",
                "1/s",
                if search_s > 0.0 {
                    s.nodes_created as f64 / search_s
                } else {
                    0.0
                },
            ),
            ("search.subst_attempts", "count", s.subst_attempts as f64),
            (
                "search.unsound_cycles_pruned",
                "count",
                s.unsound_cycles_pruned as f64,
            ),
            ("search.rounds", "count", s.rounds as f64),
            ("sizechange.closure_update_s", "s", self.closure_update_s),
            (
                "sizechange.compositions",
                "count",
                s.closure_compositions as f64,
            ),
            (
                "sizechange.memo_hits",
                "count",
                s.composition_memo_hits as f64,
            ),
            (
                "sizechange.memo_hit_ratio",
                "ratio",
                ratio(s.composition_memo_hits, s.closure_compositions),
            ),
            ("sizechange.subsumed", "count", s.graphs_subsumed as f64),
            (
                "sizechange.interned_graphs",
                "count",
                s.interned_graphs as f64,
            ),
            ("rewrite.normalize_s", "s", self.normalize_s),
            (
                "rewrite.reduce_memo_hits",
                "count",
                s.reduce_memo_hits as f64,
            ),
            ("rewrite.shared_hits", "count", s.shared_cache_hits as f64),
            (
                "rewrite.shared_misses",
                "count",
                s.shared_cache_misses as f64,
            ),
            (
                "rewrite.shared_hit_ratio",
                "ratio",
                ratio(s.shared_cache_hits, s.shared_cache_misses),
            ),
            ("term.interned_nodes", "count", s.interned_nodes as f64),
            ("proof.recheck_s", "s", self.recheck_s),
            ("proof.recheck_nodes", "count", self.recheck_nodes as f64),
            (
                "proof.reducts_checked",
                "count",
                self.reducts_checked as f64,
            ),
            ("proof.export_s", "s", self.export_s),
            ("proof.cert_check_s", "s", self.cert_check_s),
            ("batch.makespan_s", "s", self.makespan_s),
            ("batch.busy_s", "s", self.busy_s),
            (
                "batch.idle_s",
                "s",
                self.jobs as f64 * self.makespan_s - self.busy_s,
            ),
            ("batch.queue_wait_s", "s", self.queue_wait_s),
        ]
    }

    fn absorb_profile(&mut self, session: &Session) {
        if !cycleq::trace::enabled() {
            return;
        }
        let Some(profile) = session.profile() else {
            return;
        };
        for (phase, total) in [
            ("closure_update", &mut self.closure_update_s),
            ("normalize", &mut self.normalize_s),
            ("check", &mut self.recheck_s),
        ] {
            if let Some(stat) = profile.phase(phase) {
                *total += stat.total_seconds;
            }
        }
    }
}

/// What one pass over a workload's inputs measured.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// Wall time of the whole pass.
    pub wall: Duration,
    /// CPU time of the whole pass, summed over the process's threads.
    pub cpu: Duration,
    /// CPU time of every request (for `batch`, of every goal on its
    /// worker, between its `GoalStarted` and `GoalFinished` events), by
    /// problem.
    pub goal_times: Vec<(&'static str, Duration)>,
    /// CPU time of every `check_certificate` call, by problem.
    pub check_times: Vec<(&'static str, Duration)>,
    /// Goals attempted.
    pub attempted: usize,
    /// Goals proved.
    pub proved: usize,
    /// One message per failed goal.
    pub failures: Vec<String>,
    /// Per-layer counts and times.
    pub layers: Layers,
}

/// What the event sink saw of one batch goal.
#[derive(Clone, Copy, Debug)]
struct GoalClock {
    /// When `GoalStarted` arrived.
    started: Instant,
    /// The worker's CPU clock at `GoalStarted`.
    cpu_start: Duration,
    /// The worker's CPU time from `GoalStarted` to `GoalFinished`.
    cpu: Option<Duration>,
}

/// Runs passes over one workload through one engine.
#[derive(Debug)]
pub struct Runner {
    engine: Engine,
    workload: Workload,
    cancel: CancelToken,
    /// Batch goals by index, as the event sink saw them.
    clocks: Arc<Mutex<HashMap<usize, GoalClock>>>,
}

impl Runner {
    /// An engine configured for the workload: node budget, no wall-clock
    /// limit, recheck on, the shared cache on, and an event sink that
    /// reads the clocks at each goal's `GoalStarted` and `GoalFinished`.
    pub fn new(workload: Workload) -> Runner {
        let clocks = Arc::new(Mutex::new(HashMap::new()));
        let sink = clocks.clone();
        let engine = Engine::builder()
            .config(SearchConfig {
                max_nodes: workload.kind.node_budget(),
                timeout: None,
                ..SearchConfig::default()
            })
            .jobs(workload.jobs)
            .recheck(true)
            // The sink runs on the worker that proves the goal, so its
            // thread clock is that goal's.
            .on_event(move |event: &ProveEvent| match event {
                ProveEvent::GoalStarted { index, .. } => {
                    let clock = GoalClock {
                        started: Instant::now(),
                        cpu_start: thread_cpu(),
                        cpu: None,
                    };
                    cycleq::trace::lock_recover(&sink).insert(*index, clock);
                }
                ProveEvent::GoalFinished { index, .. } => {
                    let now = thread_cpu();
                    if let Some(clock) = cycleq::trace::lock_recover(&sink).get_mut(index) {
                        clock.cpu = Some(now - clock.cpu_start);
                    }
                }
                _ => {}
            })
            .build();
        Runner {
            engine,
            workload,
            cancel: CancelToken::new(),
            clocks,
        }
    }

    /// The token the safety net cancels; every search polls it, and a
    /// cancelled goal counts as a failure.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// One pass over every input of the workload.
    pub fn pass(&self) -> Pass {
        let mut pass = Pass {
            layers: Layers {
                jobs: self.workload.jobs,
                ..Layers::default()
            },
            ..Pass::default()
        };
        let start = Instant::now();
        let cpu_start = process_cpu();
        match &self.workload.inputs {
            Inputs::Requests(requests) => {
                for request in requests {
                    let t = Instant::now();
                    let cpu = thread_cpu();
                    let result =
                        catch_unwind(AssertUnwindSafe(|| self.request(request, &mut pass)));
                    pass.goal_times
                        .push((request.goal.problem, thread_cpu() - cpu));
                    pass.layers.busy_s += t.elapsed().as_secs_f64();
                    record(&mut pass, request.goal.problem, result);
                }
                pass.layers.makespan_s = start.elapsed().as_secs_f64();
            }
            Inputs::Batch { source, goals } => {
                let result =
                    catch_unwind(AssertUnwindSafe(|| self.batch(source, goals, &mut pass)));
                record(&mut pass, "batch", result);
                // A batch that failed as a whole still attempted every goal.
                pass.attempted = pass.attempted.max(goals.len());
            }
        }
        pass.cpu = process_cpu() - cpu_start;
        pass.wall = start.elapsed();
        pass
    }

    /// The CLI `prove` path for one goal, then a certificate round trip.
    fn request(&self, request: &Request, pass: &mut Pass) -> Result<(), String> {
        pass.attempted += 1;
        let t = thread_cpu();
        let session = self
            .engine
            .load(&request.source)
            .map_err(|e| e.to_string())?;
        pass.layers.load_s += cpu_since(t);
        let t = thread_cpu();
        let diagnostics = session.analyze();
        pass.layers.session_analyze_s += cpu_since(t);
        pass.layers.diagnostics += diagnostics.len() as u64;
        let verdict = session
            .prove_with_budget(&request.goal.name, &[], &Budget::unlimited(), &self.cancel)
            .map_err(|e| e.to_string())?;
        pass.layers.absorb_profile(&session);
        self.check(&session, &request.goal, &verdict, pass)
    }

    /// The CLI `prove --jobs N` path for one module, then a certificate
    /// round trip per proved goal.
    fn batch(&self, source: &str, goals: &[Goal], pass: &mut Pass) -> Result<(), String> {
        let t = thread_cpu();
        let session = self.engine.load(source).map_err(|e| e.to_string())?;
        pass.layers.load_s += cpu_since(t);
        let t = thread_cpu();
        let diagnostics = session.analyze();
        pass.layers.session_analyze_s += cpu_since(t);
        pass.layers.diagnostics += diagnostics.len() as u64;
        cycleq::trace::lock_recover(&self.clocks).clear();
        let start = Instant::now();
        let report = session.prove_all_with(&Budget::unlimited(), &self.cancel);
        pass.layers.makespan_s = start.elapsed().as_secs_f64();
        pass.layers.absorb_profile(&session);
        let clocks = std::mem::take(&mut *cycleq::trace::lock_recover(&self.clocks));
        pass.layers.queue_wait_s = clocks
            .values()
            .map(|c| c.started.saturating_duration_since(start).as_secs_f64())
            .sum();
        if report.goals.len() != goals.len() {
            return Err(format!(
                "batch reported {} goals, expected {}",
                report.goals.len(),
                goals.len()
            ));
        }
        for (index, (goal, g)) in goals.iter().zip(&report.goals).enumerate() {
            pass.attempted += 1;
            pass.layers.busy_s += g.time.as_secs_f64();
            let result = catch_unwind(AssertUnwindSafe(|| {
                if g.goal != goal.name {
                    return Err(format!(
                        "batch reported {} in place of {}",
                        g.goal, goal.name
                    ));
                }
                let cpu = clocks
                    .get(&index)
                    .and_then(|c| c.cpu)
                    .ok_or("no GoalStarted/GoalFinished event pair")?;
                pass.goal_times.push((goal.problem, cpu));
                let verdict = g.outcome.as_ref().map_err(|e| e.to_string())?;
                self.check(&session, goal, verdict, pass)
            }));
            record(pass, goal.problem, result);
        }
        Ok(())
    }

    /// Checks a verdict against the table and re-validates a proof through
    /// the recheck report and a certificate round trip.
    fn check(
        &self,
        session: &Session,
        goal: &Goal,
        verdict: &Verdict,
        pass: &mut Pass,
    ) -> Result<(), String> {
        pass.layers.search.absorb(&verdict.result.stats);
        let got = verdict_name(&verdict.result.outcome)
            .ok_or_else(|| format!("outcome {:?}", verdict.result.outcome))?;
        if got != goal.expected {
            return Err(format!("verdict {got}, expected {}", goal.expected));
        }
        if !verdict.is_proved() {
            return Ok(());
        }
        let recheck = verdict.recheck.as_ref().ok_or("proof was not rechecked")?;
        pass.layers.recheck_nodes += recheck.nodes as u64;
        pass.layers.reducts_checked += recheck.reducts_checked;
        let t = thread_cpu();
        let certificate = session
            .export_certificate(verdict)
            .map_err(|e| e.to_string())?;
        pass.layers.export_s += cpu_since(t);
        let t = thread_cpu();
        let checked = cycleq::check_certificate(&certificate).map_err(|e| e.to_string())?;
        let elapsed = thread_cpu() - t;
        pass.check_times.push((goal.problem, elapsed));
        pass.layers.cert_check_s += elapsed.as_secs_f64();
        if checked.goal != goal.name {
            return Err(format!("certificate proves {}", checked.goal));
        }
        pass.proved += 1;
        Ok(())
    }
}

/// Records a goal's failure, whether an error or a panic.
fn record(pass: &mut Pass, what: &str, result: std::thread::Result<Result<(), String>>) {
    let failure = match result {
        Ok(Ok(())) => return,
        Ok(Err(e)) => e,
        Err(payload) => match payload.downcast_ref::<&str>() {
            Some(s) => format!("panicked: {s}"),
            None => match payload.downcast_ref::<String>() {
                Some(s) => format!("panicked: {s}"),
                None => "panicked".to_string(),
            },
        },
    };
    pass.failures.push(format!("{what}: {failure}"));
}
