//! Goal-directed cyclic proof search (§5.1, §6).
//!
//! The search is a bounded depth-first search over the inference rules,
//! prioritised as in the paper: reduction, reflexivity, congruence, function
//! extensionality, substitution, case analysis. The first four always
//! simplify the goal without loss of generality and are therefore
//! *committed* — the search never backtracks past them. `(Subst)` and
//! `(Case)` are choice points.
//!
//! `(Subst)` acts as the matching function for cycle detection: the lemma is
//! always an existing node of the proof (restricted by
//! [`LemmaPolicy`](crate::LemmaPolicy) to `(Case)`-justified nodes, §5.1) or
//! a previously proven hint. These lemma targets are the *companions* of a
//! [`CompanionClosure`]: every other proof edge is a tree edge, which only
//! extends the summary graph of the path from the nearest companion above.
//! Whenever a `(Subst)` back edge is created, the closure between
//! companions is extended; if an idempotent self-loop without a strict
//! self-edge appears, the cycle can never satisfy the global condition and
//! the candidate is pruned immediately (§5.2). Every cycle passes through a
//! companion, so this verdict is the full closure's.
//!
//! The search runs on hash-consed terms from start to finish. Its nodes
//! hold only the [`TermId`]s of their two sides (an [`InternedPreproof`]):
//! the goal and the hints are interned once, every rule builds its premises
//! from ids, the function-extensionality test asks the signature before it
//! runs type inference, and edge graphs read the store's cached variable
//! sets. Owned equations are resolved once, in one pass over the surviving
//! nodes, when the (pre)proof leaves the [`Prover`] — also for the partial
//! preproof of a failed or interrupted search.

use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cycleq_proof::{edge_graph_id, InternedPreproof, NodeId, Preproof, RuleApp, Side, SubstApp};
use cycleq_rewrite::{CancelToken, Interrupted, MemoRewriter, NormalizedId, Program, RunLimits};
use cycleq_sizechange::{CompanionClosure, CompanionMark, Soundness};
use cycleq_term::{CanonKey, Equation, Head, IdSubst, TermId, TyUnifier, Type, VarId, VarStore};

use crate::budget::Budget;
use crate::config::{LemmaPolicy, SearchConfig, SearchStats};

/// Floor above which type variables are inference metavariables (below are
/// the rigid variables of the goal's polymorphic types).
const TYVAR_FLOOR: u32 = 100_000;

/// The verdict of a proof attempt.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Outcome {
    /// A cyclic proof was found; `root` is the goal's node.
    Proved {
        /// The node carrying the original goal.
        root: NodeId,
    },
    /// The goal was refuted: case analysis and reduction alone led to a
    /// constructor clash, so some ground instance of the goal is false.
    Refuted,
    /// The bounded search space was exhausted without a proof.
    Exhausted,
    /// The wall-clock budget ran out.
    Timeout,
    /// The node budget ran out.
    NodeBudget,
    /// The caller cancelled the search through its
    /// [`CancelToken`](cycleq_rewrite::CancelToken).
    Cancelled,
    /// A hint lemma could not be proved first.
    HintFailed {
        /// Index of the failing hint.
        index: usize,
    },
    /// The search panicked and was isolated by the engine's panic boundary
    /// (the search itself never constructs this variant).
    Panicked {
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl Outcome {
    /// Whether the outcome is a proof.
    pub fn is_proved(&self) -> bool {
        matches!(self, Outcome::Proved { .. })
    }
}

/// The result of a proof attempt: verdict, the (pre)proof built, and search
/// statistics.
#[derive(Clone, Debug)]
pub struct ProofResult {
    /// The verdict.
    pub outcome: Outcome,
    /// The proof on success; the partial preproof otherwise (diagnostics).
    pub proof: Preproof,
    /// Search counters.
    pub stats: SearchStats,
}

/// Called whenever the iterative-deepening loop starts another round, with
/// the new depth bound and the monotonic time elapsed since the prove call
/// began (covering every finished round); lets embedders stream
/// `RoundDeepened`-style progress events from a running search without
/// wall-clock bookkeeping of their own.
pub type RoundObserver = Arc<dyn Fn(usize, Duration) + Send + Sync>;

/// A cyclic equational prover for a fixed program.
#[derive(Clone)]
pub struct Prover<'a> {
    prog: &'a Program,
    config: SearchConfig,
    observer: Option<RoundObserver>,
}

impl fmt::Debug for Prover<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Prover")
            .field("config", &self.config)
            .field("observer", &self.observer.is_some())
            .finish_non_exhaustive()
    }
}

impl<'a> Prover<'a> {
    /// A prover with the default configuration.
    pub fn new(prog: &'a Program) -> Prover<'a> {
        Prover {
            prog,
            config: SearchConfig::default(),
            observer: None,
        }
    }

    /// A prover with an explicit configuration.
    pub fn with_config(prog: &'a Program, config: SearchConfig) -> Prover<'a> {
        Prover {
            prog,
            config,
            observer: None,
        }
    }

    /// Attaches a deepening-round observer, called with the new depth bound
    /// each time the search starts another iterative-deepening round beyond
    /// the first.
    pub fn with_round_observer(mut self, observer: RoundObserver) -> Prover<'a> {
        self.observer = Some(observer);
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &SearchConfig {
        &self.config
    }

    /// Attempts to prove `goal`, whose variables live in `vars`.
    pub fn prove(&self, goal: Equation, vars: VarStore) -> ProofResult {
        self.prove_with_budget(goal, vars, &[], &Budget::unlimited(), None)
    }

    /// Attempts to prove `goal` under an external [`Budget`] and optional
    /// [`CancelToken`], on top of the configuration's own limits (the
    /// effective limit in each dimension is the tighter of the two), after
    /// first proving each `hint` equation (over the same variable store)
    /// and making the proven hints available as `(Subst)` lemmas.
    ///
    /// Hints realise the paper's observation (§6.2) that problems such as
    /// IsaPlanner 47/54/65/69 become provable once the commutativity of
    /// `max`/`add` is supplied — here the hint itself is proved by the same
    /// engine, so the final proof is checkable end to end.
    ///
    /// Cancelling the token from another thread makes the search return
    /// [`Outcome::Cancelled`] promptly: the token is polled at every DFS
    /// node *and* inside committed reduction chains, so even a search stuck
    /// deep in one explosive normalisation notices within a few thousand
    /// contractions.
    pub fn prove_with_budget(
        &self,
        goal: Equation,
        vars: VarStore,
        hints: &[Equation],
        budget: &Budget,
        cancel: Option<&CancelToken>,
    ) -> ProofResult {
        let _span = cycleq_trace::span!("prove_goal");
        let start = Instant::now();
        let config_budget = Budget {
            timeout: self.config.timeout,
            max_nodes: Some(self.config.max_nodes),
            fuel: Some(self.config.reduction_fuel),
        };
        let effective = config_budget.min(budget);
        let mut limits = RunLimits::with_deadline(effective.timeout.map(|d| start + d));
        if let Some(token) = cancel {
            limits = limits.with_cancel(token.clone());
        }
        let max_nodes = effective.max_nodes.unwrap_or(usize::MAX);
        let fuel = effective.fuel.unwrap_or(usize::MAX);
        let mut depth = self.config.initial_depth.min(self.config.max_depth).max(1);
        let mut total = SearchStats::default();
        loop {
            // The node budget is a *per-call* ceiling: nodes created by
            // earlier deepening rounds count against it, so deepening can
            // never multiply the requested bound.
            let nodes_before = total.nodes_created;
            let round_span = cycleq_trace::span!("round");
            let round = self.prove_round(
                &goal,
                vars.clone(),
                hints,
                &limits,
                nodes_before,
                max_nodes,
                fuel,
                depth,
            );
            drop(round_span);
            total.absorb(&round.stats);
            total.rounds += 1;
            // Gauges, not counters: each deepening round re-interns into a
            // fresh store, so report the final round's sizes rather than
            // the sums `absorb` produced.
            total.closure_graphs = round.stats.closure_graphs;
            total.interned_nodes = round.stats.interned_nodes;
            total.interned_graphs = round.stats.interned_graphs;
            let deepen = matches!(round.outcome, Outcome::Exhausted)
                && round.stats.depth_limit_hits > 0
                && depth < self.config.max_depth;
            if !deepen {
                let mut stats = total;
                stats.elapsed = start.elapsed();
                return ProofResult {
                    outcome: round.outcome,
                    proof: round.search.resolve_proof(),
                    stats,
                };
            }
            depth = (depth + self.config.depth_step).min(self.config.max_depth);
            if let Some(observer) = &self.observer {
                observer(depth, start.elapsed());
            }
        }
    }

    /// One bounded-DFS round at a fixed depth limit.
    #[allow(clippy::too_many_arguments)]
    fn prove_round(
        &self,
        goal: &Equation,
        vars: VarStore,
        hints: &[Equation],
        limits: &RunLimits,
        nodes_before: usize,
        max_nodes: usize,
        fuel: usize,
        depth_limit: usize,
    ) -> Round<'_> {
        let rw = MemoRewriter::new(&self.prog.sig, &self.prog.trs).with_fuel(fuel);
        let mut search = Search {
            prog: self.prog,
            config: &self.config,
            depth_limit,
            proof: InternedPreproof::with_vars(vars),
            rw,
            closure: CompanionClosure::new(),
            lemmas: Vec::new(),
            path_keys: Vec::new(),
            stats: SearchStats::default(),
            limits: limits.clone(),
            nodes_before,
            max_nodes,
        };
        let mut outcome = None;
        for (i, hint) in hints.iter().enumerate() {
            let id = search.push_equation(hint);
            // A hint root is a lemma target, so it is a companion from the
            // start.
            search.make_companion(id);
            match search.solve(id, 0, true) {
                Ok(Solve::Solved) => search.lemmas.push(id),
                // A refuted hint says nothing about the goal.
                Ok(Solve::Failed) | Err(Stop::Refuted) => {
                    outcome = Some(Outcome::HintFailed { index: i });
                    break;
                }
                Err(stop) => {
                    outcome = Some(stop_outcome(stop));
                    break;
                }
            }
        }
        let root = search.push_equation(goal);
        let outcome = outcome.unwrap_or_else(|| match search.solve(root, 0, true) {
            Ok(Solve::Solved) => Outcome::Proved { root },
            Ok(Solve::Failed) => Outcome::Exhausted,
            Err(stop) => stop_outcome(stop),
        });
        let mut stats = std::mem::take(&mut search.stats);
        stats.closure_graphs = search.closure.num_graphs();
        stats.closure_compositions = search.closure.compositions();
        stats.composition_memo_hits = search.closure.memo_hits();
        stats.graphs_subsumed = search.closure.subsumed();
        stats.interned_graphs = search.closure.interned_graphs();
        stats.reduce_memo_hits = search.rw.memo_hits();
        stats.interned_nodes = search.rw.store().len();
        Round {
            outcome,
            stats,
            search,
        }
    }
}

/// What one deepening round leaves: its verdict and counters, and the
/// search itself, whose preproof is resolved only if the round is the last.
struct Round<'a> {
    outcome: Outcome,
    stats: SearchStats,
    search: Search<'a>,
}

fn stop_outcome(stop: Stop) -> Outcome {
    match stop {
        Stop::Timeout => Outcome::Timeout,
        Stop::Cancelled => Outcome::Cancelled,
        Stop::Budget => Outcome::NodeBudget,
        Stop::Refuted => Outcome::Refuted,
    }
}

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum Solve {
    Solved,
    Failed,
}

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum Stop {
    Timeout,
    Cancelled,
    Budget,
    Refuted,
}

type SolveResult = Result<Solve, Stop>;

struct Frame {
    proof: (usize, usize),
    closure: CompanionMark,
    lemmas: usize,
}

struct Search<'a> {
    prog: &'a Program,
    config: &'a SearchConfig,
    /// Depth bound of the current iterative-deepening round.
    depth_limit: usize,
    /// The preproof under construction. Each node holds the ids of its two
    /// sides in `rw`'s store and nothing owned; [`Search::resolve_proof`]
    /// builds the owned equations once, when the round's proof is returned.
    proof: InternedPreproof,
    /// The memoising rewriter; owns the term store every node equation of
    /// this round is interned into. Normal forms are cached across the
    /// whole round (including backtracking — the rewrite system never
    /// changes, so entries stay valid).
    rw: MemoRewriter<'a>,
    /// The size-change closure contracted onto companions: the lemma
    /// targets (hint roots, and `(Case)`-justified nodes or, under
    /// [`LemmaPolicy::AllNodes`], every justified node). It owns the
    /// round's [`cycleq_sizechange::GraphStore`], so compositions stay
    /// memoized across backtracking.
    closure: CompanionClosure<VarId, NodeId>,
    /// Lemma candidates: `(Case)`-justified ancestors/cousins plus proven
    /// hints, in creation order.
    lemmas: Vec<NodeId>,
    /// Canonical keys of the goals on the current DFS path; used to prune
    /// `(Subst)` continuations that recreate an ancestor goal verbatim.
    path_keys: Vec<CanonKey>,
    stats: SearchStats,
    /// External limits (deadline + cancellation), polled at every DFS node
    /// and inside committed reduction chains.
    limits: RunLimits,
    /// Nodes created by earlier deepening rounds of the same prove call;
    /// counted against [`Search::max_nodes`].
    nodes_before: usize,
    /// Effective per-call node budget (the tighter of config and external
    /// budget).
    max_nodes: usize,
}

impl<'a> Search<'a> {
    /// Pushes an open node for an owned equation (the goal or a hint),
    /// interning both sides into the round's store.
    fn push_equation(&mut self, eq: &Equation) -> NodeId {
        let l = self.rw.intern(eq.lhs());
        let r = self.rw.intern(eq.rhs());
        self.push_node((l, r))
    }

    /// Pushes an open node with the given interned sides.
    fn push_node(&mut self, sides: (TermId, TermId)) -> NodeId {
        self.stats.nodes_created += 1;
        self.proof.push_open(sides)
    }

    /// The interned sides of a node.
    fn node_ids(&self, node: NodeId) -> (TermId, TermId) {
        self.proof.node(node).eq
    }

    /// The free variables of a node's equation, sorted ascending: the union
    /// of the store's cached sets of its two sides.
    fn node_vars(&self, node: NodeId) -> Vec<VarId> {
        let (l, r) = self.node_ids(node);
        let store = self.rw.store();
        let mut vars = store.vars(l).to_vec();
        vars.extend_from_slice(store.vars(r));
        vars.sort_unstable();
        vars.dedup();
        vars
    }

    /// The round's preproof with every surviving node's sides resolved
    /// into an owned equation, in one pass.
    fn resolve_proof(self) -> Preproof {
        let store = self.rw.store();
        self.proof
            .map_equations(|(l, r)| Equation::new(store.resolve(l), store.resolve(r)))
    }

    /// Normalises with the round's memo table, honouring the wall-clock
    /// deadline and the cancellation token *inside* the reduction loop: a
    /// single long committed reduction chain can neither blow past
    /// `config.timeout` nor survive a cancellation.
    fn normalize_or_stop(&mut self, id: TermId) -> Result<NormalizedId, Stop> {
        self.rw
            .try_normalize_id(id, &self.limits)
            .map_err(|why| match why {
                Interrupted::Deadline => Stop::Timeout,
                Interrupted::Cancelled => Stop::Cancelled,
            })
    }

    fn mark(&self) -> Frame {
        Frame {
            proof: self.proof.mark(),
            closure: self.closure.mark(),
            lemmas: self.lemmas.len(),
        }
    }

    fn undo(&mut self, frame: Frame, node: NodeId) {
        let _span = cycleq_trace::span!("undo");
        self.proof.truncate(frame.proof);
        self.proof.reopen(node);
        self.closure.undo_to(frame.closure);
        self.lemmas.truncate(frame.lemmas);
    }

    /// Justifies `node` and, when that makes it a lemma candidate, makes it
    /// a companion before any edge leaves it.
    fn justify(&mut self, node: NodeId, rule: RuleApp, premises: Vec<NodeId>) {
        let companion = matches!(rule, RuleApp::Case { .. })
            || self.config.lemma_policy == LemmaPolicy::AllNodes;
        self.proof.justify(node, rule, premises);
        if companion {
            self.make_companion(node);
        }
    }

    /// Makes `node` a companion of the size-change closure.
    fn make_companion(&mut self, node: NodeId) {
        let _span = cycleq_trace::span!("closure_update");
        self.closure.companion(node);
    }

    /// Adds the size-change edge for premise `i` of `v` to the closure:
    /// premise 0 of a `(Subst)` is the back edge to its lemma, and every
    /// other premise is a fresh node, reached by a tree edge. The graph is
    /// built directly into the closure's store. Returns the verdict after
    /// the edge.
    fn add_proof_edge(&mut self, v: NodeId, i: usize) -> Soundness {
        let _span = cycleq_trace::span!("closure_update");
        let p = self.proof.node(v).premises[i];
        let (conc_vars, premise_vars) = (self.node_vars(v), self.node_vars(p));
        let node = self.proof.node(v);
        let g = edge_graph_id(
            &node.rule,
            i,
            &conc_vars,
            &premise_vars,
            self.closure.store_mut(),
        );
        if i == 0 && matches!(node.rule, RuleApp::Subst(_)) {
            self.closure.back_edge(v, p, g)
        } else {
            self.closure.tree_edge(v, p, g);
            self.closure.soundness()
        }
    }

    fn check_limits(&mut self) -> Result<(), Stop> {
        self.limits.check().map_err(|why| match why {
            Interrupted::Deadline => Stop::Timeout,
            Interrupted::Cancelled => Stop::Cancelled,
        })?;
        if self.nodes_before + self.stats.nodes_created > self.max_nodes {
            return Err(Stop::Budget);
        }
        Ok(())
    }

    fn solve(&mut self, node: NodeId, depth: usize, pure_path: bool) -> SolveResult {
        let _span = cycleq_trace::span!("expand");
        self.check_limits()?;
        let (lid, rid) = self.node_ids(node);

        // 1. (Reduce) — committed. Memoised, and deadline-checked inside
        //    the reduction loop.
        let ln = self.normalize_or_stop(lid)?;
        let rn = self.normalize_or_stop(rid)?;
        if !ln.in_normal_form || !rn.in_normal_form {
            // Suspected divergence; give up on this branch.
            return Ok(Solve::Failed);
        }
        if ln.id != lid || rn.id != rid {
            self.stats.rule_reduce += 1;
            let child = self.push_node((ln.id, rn.id));
            self.justify(node, RuleApp::Reduce, vec![child]);
            self.add_proof_edge(node, 0);
            return self.solve(child, depth, pure_path);
        }

        // 2. (Refl): hash-consing makes triviality an id comparison.
        if lid == rid {
            self.stats.rule_refl += 1;
            self.justify(node, RuleApp::Refl, vec![]);
            return Ok(Solve::Solved);
        }

        // 3. Constructor decomposition: clash refutation or congruence —
        //    committed.
        let sig = &self.prog.sig;
        let store = self.rw.store();
        if let (Some((k1, largs)), Some((k2, rargs))) = (
            store.as_constructor(lid, sig),
            store.as_constructor(rid, sig),
        ) {
            if k1 != k2 {
                // Constructors are free: no instance satisfies the equation.
                return if pure_path {
                    Err(Stop::Refuted)
                } else {
                    Ok(Solve::Failed)
                };
            }
            let sides: Vec<_> = largs.iter().copied().zip(rargs.iter().copied()).collect();
            let premises: Vec<NodeId> = sides.into_iter().map(|s| self.push_node(s)).collect();
            self.stats.rule_cong += 1;
            self.justify(node, RuleApp::Cong, premises.clone());
            for i in 0..premises.len() {
                self.add_proof_edge(node, i);
            }
            for p in premises {
                match self.solve(p, depth + 1, pure_path)? {
                    Solve::Solved => {}
                    Solve::Failed => return Ok(Solve::Failed),
                }
            }
            return Ok(Solve::Solved);
        }

        // 4. Function extensionality — committed when the goal has arrow
        //    type. The signature settles most goals without inference.
        //    Residual inference metavariables in the argument type are
        //    implicitly universally quantified and are generalised to fresh
        //    rigid type variables.
        if let Some(arg_ty) = self.funext_arg_type(lid) {
            let taken = self.node_vars(node);
            let x = self.proof.vars_mut().fresh_distinct("x", arg_ty, &taken);
            let xid = self.rw.store_mut().var(x);
            let prem_l = self.rw.store_mut().apply_args(lid, &[xid]);
            let prem_r = self.rw.store_mut().apply_args(rid, &[xid]);
            self.stats.rule_funext += 1;
            let child = self.push_node((prem_l, prem_r));
            self.justify(node, RuleApp::FunExt { fresh: x }, vec![child]);
            self.add_proof_edge(node, 0);
            return self.solve(child, depth + 1, pure_path);
        }

        if depth >= self.depth_limit {
            self.stats.depth_limit_hits += 1;
            return Ok(Solve::Failed);
        }

        self.path_keys.push(self.rw.store().canonical_key(lid, rid));
        let result = self.solve_choice_points(node, depth, lid, rid);
        self.path_keys.pop();
        result
    }

    /// The argument type of the side `lid` when it has arrow type: `None`
    /// at once when [`cycleq_term::TermStore::rules_out_arrow_type`] settles
    /// it from the signature, and otherwise by inference on the resolved
    /// side, with residual metavariables generalised.
    fn funext_arg_type(&self, lid: TermId) -> Option<Type> {
        let store = self.rw.store();
        if store.rules_out_arrow_type(lid, &self.prog.sig, self.proof.vars()) {
            return None;
        }
        let mut uni = TyUnifier::new(TYVAR_FLOOR);
        match store
            .resolve(lid)
            .infer_type(&self.prog.sig, self.proof.vars(), &mut uni)
        {
            Ok(Type::Arrow(arg, _)) => Some(generalize_metas(*arg, self.proof.vars())),
            _ => None,
        }
    }

    /// The backtrackable rules: `(Subst)` then `(Case)`, both running over
    /// interned terms.
    fn solve_choice_points(
        &mut self,
        node: NodeId,
        depth: usize,
        lid: TermId,
        rid: TermId,
    ) -> SolveResult {
        // 5. (Subst): try existing lemmas, most recent first.
        let candidates: Vec<NodeId> = match self.config.lemma_policy {
            LemmaPolicy::CaseOnly => self.lemmas.iter().rev().copied().collect(),
            LemmaPolicy::AllNodes => {
                let mut all: Vec<NodeId> = self
                    .proof
                    .nodes()
                    .filter(|(id, n)| *id != node && !matches!(n.rule, RuleApp::Open))
                    .map(|(id, _)| id)
                    .collect();
                all.reverse();
                all
            }
        };
        // Every subterm occurrence of both sides, listed once for all lemmas.
        let positions = if candidates.is_empty() {
            [Vec::new(), Vec::new()]
        } else {
            [
                self.rw.store().positions(lid),
                self.rw.store().positions(rid),
            ]
        };
        for lemma_id in candidates {
            if lemma_id == node {
                continue;
            }
            let (lemma_l, lemma_r) = self.node_ids(lemma_id);
            for flipped in [false, true] {
                let (from, to) = if flipped {
                    (lemma_r, lemma_l)
                } else {
                    (lemma_l, lemma_r)
                };
                // The pattern side must be a genuine pattern: not a bare
                // variable (would match everything), and binding every
                // variable of the replacement side.
                if self.rw.store().as_var(from).is_some()
                    || self.rw.store().head_sym(from).is_none()
                {
                    continue;
                }
                if !self.rw.store().vars_subset_of(to, from) {
                    continue;
                }
                let sides = [(Side::Lhs, lid), (Side::Rhs, rid)];
                for ((side, side_id), side_positions) in sides.into_iter().zip(&positions) {
                    for &(ref pos, sub) in side_positions {
                        if self.rw.store().as_var(sub).is_some() {
                            continue;
                        }
                        let Some(theta) = self.rw.store_mut().match_terms(from, sub) else {
                            continue;
                        };
                        let replacement = self.rw.store_mut().subst(to, &theta);
                        if replacement == sub {
                            continue;
                        }
                        self.stats.subst_attempts += 1;
                        let rewritten = self
                            .rw
                            .store_mut()
                            .replace_at(side_id, pos, replacement)
                            .expect("valid position");
                        let (cont_l, cont_r) = match side {
                            Side::Lhs => (rewritten, rid),
                            Side::Rhs => (lid, rewritten),
                        };
                        // Prune continuations that recreate a goal already on
                        // the DFS path (directly or after normalisation):
                        // re-deriving an ancestor goal by rewriting is a loop,
                        // not progress. Cycles must close via the lemma back
                        // edge instead.
                        let cont_key = self.rw.store().canonical_key(cont_l, cont_r);
                        if self.path_keys.contains(&cont_key) {
                            continue;
                        }
                        let nl = self.normalize_or_stop(cont_l)?;
                        let nr = self.normalize_or_stop(cont_r)?;
                        let norm_key = self.rw.store().canonical_key(nl.id, nr.id);
                        if self.path_keys.contains(&norm_key) {
                            continue;
                        }
                        let frame = self.mark();
                        let cont = self.push_node((cont_l, cont_r));
                        let theta_owned = theta.resolve(self.rw.store());
                        self.justify(
                            node,
                            RuleApp::Subst(SubstApp {
                                side,
                                pos: pos.clone(),
                                theta: theta_owned,
                                lemma_flipped: flipped,
                            }),
                            vec![lemma_id, cont],
                        );
                        if self.add_proof_edge(node, 0) == Soundness::Unsound {
                            self.stats.unsound_cycles_pruned += 1;
                            self.undo(frame, node);
                            continue;
                        }
                        self.add_proof_edge(node, 1);
                        match self.solve(cont, depth + 1, false)? {
                            Solve::Solved => return Ok(Solve::Solved),
                            Solve::Failed => self.undo(frame, node),
                        }
                    }
                }
            }
        }

        // 6. (Case): split on a variable blocking reduction.
        let mut cands = self.rw.case_candidates_id(lid);
        for v in self.rw.case_candidates_id(rid) {
            if !cands.contains(&v) {
                cands.push(v);
            }
        }
        let taken = if cands.is_empty() {
            Vec::new()
        } else {
            self.node_vars(node)
        };
        for v in cands {
            // The frame is taken first so that backtracking also frees the
            // branches' fresh variables.
            let frame = self.mark();
            let Some(branches) = self
                .proof
                .fresh_case_branches(&self.prog.sig, v, &taken)
                .filter(|branches| !branches.is_empty())
            else {
                continue;
            };
            self.stats.case_splits += 1;
            let mut premises = Vec::with_capacity(branches.len());
            for b in &branches {
                let pattern_args: Vec<TermId> = b
                    .fresh
                    .iter()
                    .map(|w| self.rw.store_mut().var(*w))
                    .collect();
                let pattern = self.rw.store_mut().node(Head::Sym(b.con), pattern_args);
                let theta = IdSubst::singleton(v, pattern);
                let branch_l = self.rw.store_mut().subst(lid, &theta);
                let branch_r = self.rw.store_mut().subst(rid, &theta);
                premises.push(self.push_node((branch_l, branch_r)));
            }
            self.justify(node, RuleApp::Case { var: v, branches }, premises.clone());
            for i in 0..premises.len() {
                self.add_proof_edge(node, i);
            }
            // The node is now (Case)-justified: it becomes a lemma candidate
            // for its own subtree — this is how cycles form.
            self.lemmas.push(node);
            let mut all = true;
            for p in &premises {
                match self.solve(*p, depth + 1, true)? {
                    Solve::Solved => {}
                    Solve::Failed => {
                        all = false;
                        break;
                    }
                }
            }
            if all {
                return Ok(Solve::Solved);
            }
            self.undo(frame, node);
        }

        Ok(Solve::Failed)
    }
}

/// Replaces inference metavariables (ids ≥ [`TYVAR_FLOOR`]) by fresh rigid
/// type variables above every rigid id currently used by the store.
fn generalize_metas(ty: Type, vars: &VarStore) -> Type {
    let metas: Vec<_> = ty
        .vars()
        .into_iter()
        .filter(|v| v.0 >= TYVAR_FLOOR)
        .collect();
    if metas.is_empty() {
        return ty;
    }
    let mut next = vars
        .iter()
        .flat_map(|(_, _, t)| t.vars())
        .filter(|v| v.0 < TYVAR_FLOOR)
        .map(|v| v.0 + 1)
        .max()
        .unwrap_or(0);
    let map: std::collections::BTreeMap<_, _> = metas
        .into_iter()
        .map(|m| {
            let rigid = cycleq_term::TyVarId(next);
            next += 1;
            (m, Type::Var(rigid))
        })
        .collect();
    ty.subst(&map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cycleq_proof::{check, GlobalCheck};
    use cycleq_rewrite::fixtures::nat_list_program;
    use cycleq_term::Term;

    fn prove_fixture(
        goal: impl FnOnce(&cycleq_rewrite::fixtures::ProgramFixture, &mut VarStore) -> Equation,
    ) -> (ProofResult, cycleq_rewrite::fixtures::ProgramFixture) {
        let p = nat_list_program();
        let mut vars = VarStore::new();
        let eq = goal(&p, &mut vars);
        let prover = Prover::new(&p.prog);
        let res = prover.prove(eq, vars);
        (res, p)
    }

    #[test]
    fn proves_ground_addition() {
        let (res, p) = prove_fixture(|p, _| {
            Equation::new(
                Term::apps(p.f.add, vec![p.f.num(2), p.f.num(2)]),
                p.f.num(4),
            )
        });
        assert!(res.outcome.is_proved(), "{:?}", res.outcome);
        check(&res.proof, &p.prog, GlobalCheck::VariableTraces).unwrap();
    }

    #[test]
    fn proves_add_zero_left() {
        // add Z y ≈ y reduces away.
        let (res, p) = prove_fixture(|p, vars| {
            let y = vars.fresh("y", p.f.nat_ty());
            Equation::new(
                Term::apps(p.f.add, vec![Term::sym(p.f.zero), Term::var(y)]),
                Term::var(y),
            )
        });
        assert!(res.outcome.is_proved());
        check(&res.proof, &p.prog, GlobalCheck::VariableTraces).unwrap();
    }

    #[test]
    fn proves_add_zero_right_by_induction() {
        // add x Z ≈ x needs a cycle.
        let (res, p) = prove_fixture(|p, vars| {
            let x = vars.fresh("x", p.f.nat_ty());
            Equation::new(
                Term::apps(p.f.add, vec![Term::var(x), Term::sym(p.f.zero)]),
                Term::var(x),
            )
        });
        assert!(res.outcome.is_proved(), "{:?}", res.outcome);
        let report = check(&res.proof, &p.prog, GlobalCheck::VariableTraces).unwrap();
        assert!(report.back_edges >= 1, "expected a cycle");
    }

    #[test]
    fn proves_commutativity_of_addition() {
        // The headline example (Fig. 4): no hints, no external lemmas.
        let (res, p) = prove_fixture(|p, vars| {
            let x = vars.fresh("x", p.f.nat_ty());
            let y = vars.fresh("y", p.f.nat_ty());
            Equation::new(
                Term::apps(p.f.add, vec![Term::var(x), Term::var(y)]),
                Term::apps(p.f.add, vec![Term::var(y), Term::var(x)]),
            )
        });
        assert!(res.outcome.is_proved(), "{:?}", res.outcome);
        let report = check(&res.proof, &p.prog, GlobalCheck::VariableTraces).unwrap();
        assert!(report.back_edges >= 2, "commutativity needs nested cycles");
    }

    #[test]
    fn proves_add_succ_right() {
        // add x (S y) ≈ S (add x y) — the lemma Cyclist needs as a hint.
        let (res, p) = prove_fixture(|p, vars| {
            let x = vars.fresh("x", p.f.nat_ty());
            let y = vars.fresh("y", p.f.nat_ty());
            Equation::new(
                Term::apps(p.f.add, vec![Term::var(x), p.f.s(Term::var(y))]),
                p.f.s(Term::apps(p.f.add, vec![Term::var(x), Term::var(y)])),
            )
        });
        assert!(res.outcome.is_proved(), "{:?}", res.outcome);
        check(&res.proof, &p.prog, GlobalCheck::VariableTraces).unwrap();
    }

    #[test]
    fn proves_associativity_of_addition() {
        let (res, p) = prove_fixture(|p, vars| {
            let x = vars.fresh("x", p.f.nat_ty());
            let y = vars.fresh("y", p.f.nat_ty());
            let z = vars.fresh("z", p.f.nat_ty());
            Equation::new(
                Term::apps(
                    p.f.add,
                    vec![
                        Term::apps(p.f.add, vec![Term::var(x), Term::var(y)]),
                        Term::var(z),
                    ],
                ),
                Term::apps(
                    p.f.add,
                    vec![
                        Term::var(x),
                        Term::apps(p.f.add, vec![Term::var(y), Term::var(z)]),
                    ],
                ),
            )
        });
        assert!(res.outcome.is_proved(), "{:?}", res.outcome);
        check(&res.proof, &p.prog, GlobalCheck::VariableTraces).unwrap();
    }

    #[test]
    fn proves_length_of_append() {
        // len (app xs ys) ≈ add (len xs) (len ys).
        let (res, p) = prove_fixture(|p, vars| {
            let nat_list = p.f.list_ty(p.f.nat_ty());
            let xs = vars.fresh("xs", nat_list.clone());
            let ys = vars.fresh("ys", nat_list);
            Equation::new(
                Term::apps(
                    p.f.len,
                    vec![Term::apps(p.f.app, vec![Term::var(xs), Term::var(ys)])],
                ),
                Term::apps(
                    p.f.add,
                    vec![
                        Term::apps(p.f.len, vec![Term::var(xs)]),
                        Term::apps(p.f.len, vec![Term::var(ys)]),
                    ],
                ),
            )
        });
        assert!(res.outcome.is_proved(), "{:?}", res.outcome);
        check(&res.proof, &p.prog, GlobalCheck::VariableTraces).unwrap();
    }

    #[test]
    fn refutes_false_ground_equation() {
        let (res, _) = prove_fixture(|p, _| {
            Equation::new(
                Term::apps(p.f.add, vec![p.f.num(1), p.f.num(1)]),
                p.f.num(3),
            )
        });
        assert_eq!(res.outcome, Outcome::Refuted);
    }

    #[test]
    fn refutes_false_open_equation() {
        // add x Z ≈ Z fails at x = S x'.
        let (res, _) = prove_fixture(|p, vars| {
            let x = vars.fresh("x", p.f.nat_ty());
            Equation::new(
                Term::apps(p.f.add, vec![Term::var(x), Term::sym(p.f.zero)]),
                Term::sym(p.f.zero),
            )
        });
        assert_eq!(res.outcome, Outcome::Refuted);
    }

    #[test]
    fn unprovable_within_budget_is_exhausted_or_times_out() {
        // add x y ≈ add y (S x) is false; refutation requires noticing
        // S-towers never match, which the clash finds quickly.
        let (res, _) = prove_fixture(|p, vars| {
            let x = vars.fresh("x", p.f.nat_ty());
            let y = vars.fresh("y", p.f.nat_ty());
            Equation::new(
                Term::apps(p.f.add, vec![Term::var(x), Term::var(y)]),
                Term::apps(p.f.add, vec![Term::var(y), p.f.s(Term::var(x))]),
            )
        });
        assert!(
            matches!(
                res.outcome,
                Outcome::Refuted | Outcome::Exhausted | Outcome::Timeout
            ),
            "{:?}",
            res.outcome
        );
    }

    #[test]
    fn hints_enable_and_are_checked() {
        // Prove add x (S y) ≈ S (add x y) as a hint, then use it.
        let p = nat_list_program();
        let mut vars = VarStore::new();
        let x = vars.fresh("x", p.f.nat_ty());
        let y = vars.fresh("y", p.f.nat_ty());
        let hint = Equation::new(
            Term::apps(p.f.add, vec![Term::var(x), p.f.s(Term::var(y))]),
            p.f.s(Term::apps(p.f.add, vec![Term::var(x), Term::var(y)])),
        );
        let goal = Equation::new(
            Term::apps(p.f.add, vec![Term::var(x), Term::var(y)]),
            Term::apps(p.f.add, vec![Term::var(y), Term::var(x)]),
        );
        let prover = Prover::new(&p.prog);
        let res = prover.prove_with_budget(goal, vars, &[hint], &Budget::unlimited(), None);
        assert!(res.outcome.is_proved(), "{:?}", res.outcome);
        check(&res.proof, &p.prog, GlobalCheck::VariableTraces).unwrap();
    }

    #[test]
    fn refuted_hint_fails_the_hint_not_the_goal() {
        // The hint add x Z ≈ Z is false, but that says nothing about the
        // goal add x Z ≈ x, which is true.
        let p = nat_list_program();
        let mut vars = VarStore::new();
        let x = vars.fresh("x", p.f.nat_ty());
        let add_x_zero = Term::apps(p.f.add, vec![Term::var(x), Term::sym(p.f.zero)]);
        let hint = Equation::new(add_x_zero.clone(), Term::sym(p.f.zero));
        let goal = Equation::new(add_x_zero, Term::var(x));
        let res =
            Prover::new(&p.prog).prove_with_budget(goal, vars, &[hint], &Budget::unlimited(), None);
        assert_eq!(res.outcome, Outcome::HintFailed { index: 0 });
    }

    #[test]
    fn committed_reduction_chain_respects_wall_clock_deadline() {
        // Regression test: the deadline used to be checked only between
        // rule applications, so a single committed reduction of a
        // non-terminating (or merely explosive) program could blow past
        // `config.timeout`. With effectively unlimited fuel, only the
        // in-reduction deadline check can stop this goal.
        use std::time::Duration;

        let (prog, lp, zero) = looping_program();
        let goal = Equation::new(Term::apps(lp, vec![Term::sym(zero)]), Term::sym(zero));
        let config = SearchConfig {
            reduction_fuel: usize::MAX,
            timeout: Some(Duration::from_millis(50)),
            ..SearchConfig::default()
        };
        let prover = Prover::with_config(&prog, config);
        let start = Instant::now();
        let res = prover.prove(goal, VarStore::new());
        assert_eq!(res.outcome, Outcome::Timeout);
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "deadline was not honoured inside the committed reduction: {:?}",
            start.elapsed()
        );
    }

    /// A program whose single rule loops forever: `loop x → loop x`.
    fn looping_program() -> (Program, cycleq_term::SymId, cycleq_term::SymId) {
        use cycleq_rewrite::Trs;
        use cycleq_term::{Signature, TypeScheme};

        let mut sig = Signature::new();
        let nat = sig.add_datatype("Nat", 0).unwrap();
        let zero = sig.add_constructor("Z", nat, vec![]).unwrap();
        let nat_ty = Type::data0(nat);
        let lp = sig
            .add_defined(
                "loop",
                TypeScheme::mono(Type::arrow(nat_ty.clone(), nat_ty.clone())),
            )
            .unwrap();
        let mut trs = Trs::new();
        let x = trs.vars_mut().fresh("x", nat_ty.clone());
        trs.add_rule(
            &sig,
            lp,
            vec![Term::var(x)],
            Term::apps(lp, vec![Term::var(x)]),
        )
        .unwrap();
        (Program::new(sig, trs), lp, zero)
    }

    #[test]
    fn cancellation_aborts_a_committed_reduction_promptly() {
        use std::time::Duration;

        // No timeout, effectively unlimited fuel: only the cancellation
        // token can stop this goal, and it must do so from another thread
        // while the search is deep inside a committed reduction chain.
        let (prog, lp, zero) = looping_program();
        let goal = Equation::new(Term::apps(lp, vec![Term::sym(zero)]), Term::sym(zero));
        let config = SearchConfig {
            reduction_fuel: usize::MAX,
            timeout: None,
            ..SearchConfig::default()
        };
        let token = CancelToken::new();
        let worker_token = token.clone();
        let prover = Prover::with_config(&prog, config);
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (res, waited) = std::thread::scope(|s| {
            let handle = s.spawn(move || {
                started_tx.send(()).expect("test thread gone");
                prover.prove_with_budget(
                    goal,
                    VarStore::new(),
                    &[],
                    &Budget::unlimited(),
                    Some(&worker_token),
                )
            });
            // Time the sleep from the moment the search is entered, not from
            // the spawn: under load the search thread may start late.
            started_rx.recv().expect("search thread gone");
            std::thread::sleep(Duration::from_millis(30));
            token.cancel();
            let cancelled_at = Instant::now();
            let res = handle.join().expect("search thread panicked");
            (res, cancelled_at.elapsed())
        });
        assert_eq!(res.outcome, Outcome::Cancelled);
        assert!(
            waited < Duration::from_millis(200),
            "cancellation latency too high: {waited:?}"
        );
        // The partial state is still inspectable: it records that the search
        // ran through the 30ms sleep (less a margin for the few instructions
        // between the handshake and the search's own clock starting).
        assert!(
            res.stats.elapsed >= Duration::from_millis(20),
            "partial stats lost the search time: {:?}",
            res.stats.elapsed
        );
    }

    #[test]
    fn budget_timeout_tightens_config_timeout() {
        use std::time::Duration;

        let (prog, lp, zero) = looping_program();
        let goal = Equation::new(Term::apps(lp, vec![Term::sym(zero)]), Term::sym(zero));
        // Config allows 30s; the per-call budget allows 50ms and must win.
        let config = SearchConfig {
            reduction_fuel: usize::MAX,
            timeout: Some(Duration::from_secs(30)),
            ..SearchConfig::default()
        };
        let prover = Prover::with_config(&prog, config);
        let budget = Budget::unlimited().with_timeout(Duration::from_millis(50));
        let start = Instant::now();
        let res = prover.prove_with_budget(goal, VarStore::new(), &[], &budget, None);
        assert_eq!(res.outcome, Outcome::Timeout);
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn budget_node_cap_stops_search() {
        let p = nat_list_program();
        let mut vars = VarStore::new();
        let x = vars.fresh("x", p.f.nat_ty());
        let y = vars.fresh("y", p.f.nat_ty());
        let goal = Equation::new(
            Term::apps(p.f.add, vec![Term::var(x), Term::var(y)]),
            Term::apps(p.f.add, vec![Term::var(y), Term::var(x)]),
        );
        let budget = Budget::unlimited().with_max_nodes(3);
        let res = Prover::new(&p.prog).prove_with_budget(goal, vars, &[], &budget, None);
        assert_eq!(res.outcome, Outcome::NodeBudget);
    }

    #[test]
    fn node_budget_is_a_per_call_ceiling_across_deepening_rounds() {
        // With a tiny initial depth the deepening loop runs many rounds;
        // the node budget must bound the *sum* of nodes across rounds, not
        // reset each round.
        let p = nat_list_program();
        let mut vars = VarStore::new();
        let x = vars.fresh("x", p.f.nat_ty());
        let y = vars.fresh("y", p.f.nat_ty());
        let goal = Equation::new(
            Term::apps(p.f.add, vec![Term::var(x), Term::var(y)]),
            Term::apps(p.f.add, vec![Term::var(y), Term::var(x)]),
        );
        let config = SearchConfig {
            initial_depth: 1,
            depth_step: 1,
            ..SearchConfig::default()
        };
        let cap = 40;
        let budget = Budget::unlimited().with_max_nodes(cap);
        let res =
            Prover::with_config(&p.prog, config).prove_with_budget(goal, vars, &[], &budget, None);
        assert_eq!(res.outcome, Outcome::NodeBudget);
        assert!(
            res.stats.nodes_created <= cap + 5,
            "budget multiplied across rounds: {} nodes for a cap of {cap}",
            res.stats.nodes_created
        );
    }

    #[test]
    fn round_observer_sees_deepening_rounds() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        let p = nat_list_program();
        let mut vars = VarStore::new();
        let x = vars.fresh("x", p.f.nat_ty());
        let y = vars.fresh("y", p.f.nat_ty());
        // Commutativity needs more than the initial depth of 1, so the
        // deepening loop must fire the observer at least once.
        let goal = Equation::new(
            Term::apps(p.f.add, vec![Term::var(x), Term::var(y)]),
            Term::apps(p.f.add, vec![Term::var(y), Term::var(x)]),
        );
        let config = SearchConfig {
            initial_depth: 1,
            depth_step: 1,
            ..SearchConfig::default()
        };
        let rounds = Arc::new(AtomicUsize::new(0));
        let seen = rounds.clone();
        let prover = Prover::with_config(&p.prog, config).with_round_observer(Arc::new(
            move |_depth, _elapsed| {
                seen.fetch_add(1, Ordering::Relaxed);
            },
        ));
        let res = prover.prove(goal, vars);
        assert!(res.outcome.is_proved(), "{:?}", res.outcome);
        assert!(rounds.load(Ordering::Relaxed) >= 1, "no deepening observed");
        assert_eq!(
            res.stats.rounds,
            rounds.load(Ordering::Relaxed) + 1,
            "every deepening adds a round on top of the first"
        );
    }

    #[test]
    fn stats_are_populated() {
        let (res, _) = prove_fixture(|p, vars| {
            let x = vars.fresh("x", p.f.nat_ty());
            Equation::new(
                Term::apps(p.f.add, vec![Term::var(x), Term::sym(p.f.zero)]),
                Term::var(x),
            )
        });
        assert!(res.stats.nodes_created > 0);
        assert!(res.stats.case_splits >= 1);
        assert!(res.stats.elapsed.as_nanos() > 0);
    }

    #[test]
    fn all_nodes_policy_also_proves() {
        let p = nat_list_program();
        let mut vars = VarStore::new();
        let x = vars.fresh("x", p.f.nat_ty());
        let goal = Equation::new(
            Term::apps(p.f.add, vec![Term::var(x), Term::sym(p.f.zero)]),
            Term::var(x),
        );
        let config = SearchConfig {
            lemma_policy: LemmaPolicy::AllNodes,
            ..SearchConfig::default()
        };
        let prover = Prover::with_config(&p.prog, config);
        let res = prover.prove(goal, vars);
        assert!(res.outcome.is_proved(), "{:?}", res.outcome);
        check(&res.proof, &p.prog, GlobalCheck::VariableTraces).unwrap();
    }
}
