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
//! a previously proven hint. Whenever a `(Subst)` back edge is created, the
//! incremental size-change closure is extended; if an idempotent self-loop
//! without a strict self-edge appears, the cycle can never satisfy the
//! global condition and the candidate is pruned immediately (§5.2).

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cycleq_proof::{edge_graph_id, CaseBranch, NodeId, Preproof, RuleApp, Side, SubstApp};
use cycleq_rewrite::{
    CancelToken, Interrupted, MemoRewriter, NormalizedId, Program, RunLimits, SharedNormalFormCache,
};
use cycleq_sizechange::{GraphId, IncrementalClosure, Mark, Soundness};
use cycleq_term::{
    CanonKey, Equation, Head, IdSubst, Term, TermId, TyUnifier, Type, VarId, VarStore,
};

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
    /// The search panicked and was isolated by the engine's fault boundary
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
    shared: Option<SharedNormalFormCache>,
    observer: Option<RoundObserver>,
}

impl fmt::Debug for Prover<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Prover")
            .field("config", &self.config)
            .field("shared", &self.shared.is_some())
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
            shared: None,
            observer: None,
        }
    }

    /// A prover with an explicit configuration.
    pub fn with_config(prog: &'a Program, config: SearchConfig) -> Prover<'a> {
        Prover {
            prog,
            config,
            shared: None,
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

    /// Attaches a program-scoped shared normal-form cache: every deepening
    /// round's rewriter consults and populates it, so reductions are shared
    /// across rounds, across goals and across worker threads. The cache
    /// must have been created for `prog` (see
    /// [`cycleq_rewrite::SharedNormalFormCache`]).
    pub fn with_shared_cache(mut self, cache: SharedNormalFormCache) -> Prover<'a> {
        self.shared = Some(cache);
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &SearchConfig {
        &self.config
    }

    /// Attempts to prove `goal`, whose variables live in `vars`.
    pub fn prove(&self, goal: Equation, vars: VarStore) -> ProofResult {
        self.prove_with_hints(goal, vars, &[])
    }

    /// Attempts to prove `goal` after first proving each `hint` equation
    /// (over the same variable store) and making the proven hints available
    /// as `(Subst)` lemmas.
    ///
    /// This realises the paper's observation (§6.2) that problems such as
    /// IsaPlanner 47/54/65/69 become provable once the commutativity of
    /// `max`/`add` is supplied — here the hint itself is proved by the same
    /// engine, so the final proof is checkable end to end.
    pub fn prove_with_hints(
        &self,
        goal: Equation,
        vars: VarStore,
        hints: &[Equation],
    ) -> ProofResult {
        self.prove_with_budget(goal, vars, hints, &Budget::unlimited(), None)
    }

    /// Attempts to prove `goal` under an external [`Budget`] and optional
    /// [`CancelToken`], on top of the configuration's own limits (the
    /// effective limit in each dimension is the tighter of the two).
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
            let (result, hit_depth_limit) = self.prove_round(
                goal.clone(),
                vars.clone(),
                hints,
                &limits,
                nodes_before,
                max_nodes,
                fuel,
                depth,
            );
            drop(round_span);
            total.absorb(&result.stats);
            total.rounds += 1;
            // Gauges, not counters: each deepening round re-interns into a
            // fresh store, so report the final round's sizes rather than
            // the sums `absorb` produced.
            total.closure_graphs = result.stats.closure_graphs;
            total.interned_nodes = result.stats.interned_nodes;
            total.interned_graphs = result.stats.interned_graphs;
            let deepen = matches!(result.outcome, Outcome::Exhausted)
                && hit_depth_limit
                && depth < self.config.max_depth;
            if !deepen {
                let mut stats = total;
                stats.elapsed = start.elapsed();
                return ProofResult {
                    outcome: result.outcome,
                    proof: result.proof,
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
        goal: Equation,
        vars: VarStore,
        hints: &[Equation],
        limits: &RunLimits,
        nodes_before: usize,
        max_nodes: usize,
        fuel: usize,
        depth_limit: usize,
    ) -> (ProofResult, bool) {
        let mut rw = MemoRewriter::new(&self.prog.sig, &self.prog.trs).with_fuel(fuel);
        if let Some(cache) = &self.shared {
            rw = rw.with_shared_cache(cache.clone());
        }
        let mut search = Search {
            prog: self.prog,
            config: &self.config,
            depth_limit,
            proof: Preproof::with_vars(vars),
            rw,
            closure: IncrementalClosure::new(),
            edge_memo: HashMap::new(),
            lemmas: Vec::new(),
            path_keys: Vec::new(),
            stats: SearchStats::default(),
            limits: limits.clone(),
            nodes_before,
            max_nodes,
        };
        let mut outcome = None;
        for (i, hint) in hints.iter().enumerate() {
            let id = search.push_node(hint.clone());
            match search.solve(id, 0, true) {
                Ok(Solve::Solved) => search.lemmas.push(id),
                Ok(Solve::Failed) => {
                    outcome = Some(Outcome::HintFailed { index: i });
                    break;
                }
                Err(stop) => {
                    outcome = Some(stop_outcome(stop));
                    break;
                }
            }
        }
        let root = search.push_node(goal);
        let outcome = outcome.unwrap_or_else(|| match search.solve(root, 0, true) {
            Ok(Solve::Solved) => Outcome::Proved { root },
            Ok(Solve::Failed) => Outcome::Exhausted,
            Err(stop) => stop_outcome(stop),
        });
        let mut stats = search.stats;
        stats.closure_graphs = search.closure.num_graphs();
        stats.closure_compositions = search.closure.compositions();
        stats.composition_memo_hits = search.closure.memo_hits();
        stats.graphs_subsumed = search.closure.subsumed();
        stats.interned_graphs = search.closure.interned_graphs();
        stats.reduce_memo_hits = search.rw.memo_hits();
        stats.shared_cache_hits = search.rw.shared_cache_hits();
        stats.shared_cache_misses = search.rw.shared_cache_misses();
        stats.interned_nodes = search.rw.store().len();
        let hit = stats.depth_limit_hits > 0;
        (
            ProofResult {
                outcome,
                proof: search.proof,
                stats,
            },
            hit,
        )
    }
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
    closure: Mark,
    lemmas: usize,
}

struct Search<'a> {
    prog: &'a Program,
    config: &'a SearchConfig,
    /// Depth bound of the current iterative-deepening round.
    depth_limit: usize,
    proof: Preproof,
    /// The memoising rewriter; owns the term store every node equation of
    /// this round is interned into. Normal forms are cached across the
    /// whole round (including backtracking — the rewrite system never
    /// changes, so entries stay valid).
    rw: MemoRewriter<'a>,
    /// The incremental size-change closure; owns the round's
    /// [`cycleq_sizechange::GraphStore`], so compositions stay memoized
    /// across backtracking.
    closure: IncrementalClosure<VarId, NodeId>,
    /// The interned edge graph per `(node, premise)` justification,
    /// invalidated on undo for reopened/truncated nodes (a re-justified
    /// node gets different edge graphs).
    edge_memo: HashMap<(NodeId, usize), GraphId>,
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
    /// Pushes an open node, interning both sides into the round's store.
    fn push_node(&mut self, eq: Equation) -> NodeId {
        let l = self.rw.intern(eq.lhs());
        let r = self.rw.intern(eq.rhs());
        self.push_node_ids(eq, (l, r))
    }

    /// Pushes an open node whose sides are already interned.
    fn push_node_ids(&mut self, eq: Equation, ids: (TermId, TermId)) -> NodeId {
        self.stats.nodes_created += 1;
        self.proof.push_open_interned(eq, ids)
    }

    /// The interned sides of a node (every node of this search has them).
    fn node_ids(&self, node: NodeId) -> (TermId, TermId) {
        self.proof
            .interned(node)
            .expect("search interns every node it pushes")
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
        let keep = frame.proof.0;
        self.proof.truncate(frame.proof);
        self.proof.reopen(node);
        self.closure.undo_to(frame.closure);
        self.lemmas.truncate(frame.lemmas);
        // Edge graphs are keyed by justification: entries of truncated
        // nodes (their ids will be reused) and of the reopened node (it
        // will be re-justified differently) are stale.
        self.edge_memo
            .retain(|&(n, _), _| n.index() < keep && n != node);
    }

    /// Adds the size-change edge for premise `i` of `v` to the incremental
    /// closure. The graph is built directly into the closure's store and
    /// memoised per `(node, premise)` justification for the lifetime of
    /// that justification.
    fn add_proof_edge(&mut self, v: NodeId, i: usize) -> Soundness {
        let _span = cycleq_trace::span!("closure_update");
        let g = match self.edge_memo.get(&(v, i)) {
            Some(&g) => g,
            None => {
                let g = edge_graph_id(&self.proof, v, i, self.closure.store_mut());
                self.edge_memo.insert((v, i), g);
                g
            }
        };
        let p = self.proof.node(v).premises[i];
        self.closure.add_edge_id(v, p, g)
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
            let child_eq = Equation::new(self.rw.resolve(ln.id), self.rw.resolve(rn.id));
            let child = self.push_node_ids(child_eq, (ln.id, rn.id));
            self.proof.justify(node, RuleApp::Reduce, vec![child]);
            self.add_proof_edge(node, 0);
            return self.solve(child, depth, pure_path);
        }

        // 2. (Refl): hash-consing makes triviality an id comparison.
        if lid == rid {
            self.stats.rule_refl += 1;
            self.proof.justify(node, RuleApp::Refl, vec![]);
            return Ok(Solve::Solved);
        }

        let eq = self.proof.node(node).eq.clone();

        // 3. Constructor decomposition: clash refutation or congruence —
        //    committed.
        let lc = eq.lhs().as_constructor(&self.prog.sig).map(|(k, _)| k);
        let rc = eq.rhs().as_constructor(&self.prog.sig).map(|(k, _)| k);
        if let (Some(k1), Some(k2)) = (lc, rc) {
            if k1 != k2 {
                // Constructors are free: no instance satisfies the equation.
                return if pure_path {
                    Err(Stop::Refuted)
                } else {
                    Ok(Solve::Failed)
                };
            }
            let n = eq.lhs().args().len();
            let largs = self.rw.store().args(lid).to_vec();
            let rargs = self.rw.store().args(rid).to_vec();
            let mut premises = Vec::with_capacity(n);
            for i in 0..n {
                let sub_eq = Equation::new(eq.lhs().args()[i].clone(), eq.rhs().args()[i].clone());
                premises.push(self.push_node_ids(sub_eq, (largs[i], rargs[i])));
            }
            self.stats.rule_cong += 1;
            self.proof.justify(node, RuleApp::Cong, premises.clone());
            for i in 0..n {
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
        //    type. Residual inference metavariables in the argument type are
        //    implicitly universally quantified and are generalised to fresh
        //    rigid type variables.
        let mut uni = TyUnifier::new(TYVAR_FLOOR);
        if let Ok(Type::Arrow(arg, _)) =
            eq.lhs()
                .infer_type(&self.prog.sig, self.proof.vars(), &mut uni)
        {
            let arg_ty = generalize_metas(*arg, self.proof.vars());
            let x = self.proof.vars_mut().fresh("x", arg_ty);
            let prem = Equation::new(
                Term::app(eq.lhs().clone(), Term::var(x)),
                Term::app(eq.rhs().clone(), Term::var(x)),
            );
            self.stats.rule_funext += 1;
            let child = self.push_node(prem);
            self.proof
                .justify(node, RuleApp::FunExt { fresh: x }, vec![child]);
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
                for side in [Side::Lhs, Side::Rhs] {
                    let side_id = match side {
                        Side::Lhs => lid,
                        Side::Rhs => rid,
                    };
                    for (pos, sub) in self.rw.store().positions(side_id) {
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
                            .replace_at(side_id, &pos, replacement)
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
                        let cont_eq =
                            Equation::new(self.rw.resolve(cont_l), self.rw.resolve(cont_r));
                        let cont = self.push_node_ids(cont_eq, (cont_l, cont_r));
                        let theta_owned = theta.resolve(self.rw.store());
                        self.proof.justify(
                            node,
                            RuleApp::Subst(SubstApp {
                                side,
                                pos: pos.clone(),
                                theta: theta_owned,
                                lemma_flipped: flipped,
                            }),
                            vec![lemma_id, cont],
                        );
                        let s0 = self.add_proof_edge(node, 0);
                        let s1 = self.add_proof_edge(node, 1);
                        if s0 == Soundness::Unsound || s1 == Soundness::Unsound {
                            self.stats.unsound_cycles_pruned += 1;
                            self.undo(frame, node);
                            continue;
                        }
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
        for v in cands {
            let vty = self.proof.vars().ty(v).clone();
            let Some((data, ty_args)) = vty.as_data() else {
                continue;
            };
            let ty_args = ty_args.to_vec();
            let cons: Vec<_> = self.prog.sig.constructors_of(data).to_vec();
            if cons.is_empty() {
                continue;
            }
            self.stats.case_splits += 1;
            let frame = self.mark();
            let mut branches = Vec::with_capacity(cons.len());
            let mut premises = Vec::with_capacity(cons.len());
            for &k in &cons {
                let inst = self
                    .prog
                    .sig
                    .sym(k)
                    .scheme()
                    .instantiate_with(&ty_args)
                    .expect("constructor scheme arity matches datatype");
                let (arg_tys, _) = inst.uncurry();
                let base = self.proof.vars().name(v).to_string();
                let fresh: Vec<VarId> = arg_tys
                    .iter()
                    .enumerate()
                    .map(|(i, t)| {
                        let name = if arg_tys.len() == 1 {
                            format!("{base}'")
                        } else {
                            format!("{base}'{}", i + 1)
                        };
                        self.proof.vars_mut().fresh(&name, (*t).clone())
                    })
                    .collect();
                let pattern_args: Vec<TermId> =
                    fresh.iter().map(|w| self.rw.store_mut().var(*w)).collect();
                let pattern = self.rw.store_mut().node(Head::Sym(k), pattern_args);
                let theta = IdSubst::singleton(v, pattern);
                let branch_l = self.rw.store_mut().subst(lid, &theta);
                let branch_r = self.rw.store_mut().subst(rid, &theta);
                let branch_eq = Equation::new(self.rw.resolve(branch_l), self.rw.resolve(branch_r));
                premises.push(self.push_node_ids(branch_eq, (branch_l, branch_r)));
                branches.push(CaseBranch { con: k, fresh });
            }
            self.proof
                .justify(node, RuleApp::Case { var: v, branches }, premises.clone());
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
        let res = prover.prove_with_hints(goal, vars, &[hint]);
        assert!(res.outcome.is_proved(), "{:?}", res.outcome);
        check(&res.proof, &p.prog, GlobalCheck::VariableTraces).unwrap();
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
    fn shared_cache_is_reused_across_goals_without_changing_outcomes() {
        let p = nat_list_program();
        let cache = SharedNormalFormCache::new();
        let goals = |vars: &mut VarStore| {
            let x = vars.fresh("x", p.f.nat_ty());
            let y = vars.fresh("y", p.f.nat_ty());
            vec![
                Equation::new(
                    Term::apps(p.f.add, vec![Term::var(x), Term::sym(p.f.zero)]),
                    Term::var(x),
                ),
                Equation::new(
                    Term::apps(p.f.add, vec![Term::var(x), p.f.s(Term::var(y))]),
                    p.f.s(Term::apps(p.f.add, vec![Term::var(x), Term::var(y)])),
                ),
                Equation::new(
                    Term::apps(p.f.add, vec![Term::var(x), Term::var(y)]),
                    Term::apps(p.f.add, vec![Term::var(y), Term::var(x)]),
                ),
            ]
        };
        let mut total_hits = 0;
        for (i, goal) in goals(&mut VarStore::new()).into_iter().enumerate() {
            let mut vars = VarStore::new();
            let eqs = goals(&mut vars);
            let plain = Prover::new(&p.prog).prove(eqs[i].clone(), vars.clone());
            let cached = Prover::new(&p.prog)
                .with_shared_cache(cache.clone())
                .prove(goal, vars);
            assert_eq!(plain.outcome, cached.outcome, "goal {i}");
            if cached.outcome.is_proved() {
                check(&cached.proof, &p.prog, GlobalCheck::VariableTraces).unwrap();
            }
            total_hits += cached.stats.shared_cache_hits;
        }
        assert!(
            total_hits > 0,
            "related goals over the same program must share reductions"
        );
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
