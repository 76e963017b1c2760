//! Memoised reduction over hash-consed terms: the one rewriter the search,
//! the proof checker, rewriting induction and structural induction run.
//!
//! [`MemoRewriter`] owns a [`TermStore`] and a persistent map from
//! [`TermId`] to its `R`-normal form. Because a program's rewrite system is
//! fixed for the lifetime of a prover run, normal forms never change and the
//! memo table is valid for as long as the rewriter lives. The search keeps
//! one rewriter per prove call, which its deepening rounds share; the
//! checker builds its own per proof.
//!
//! The reduction strategy is outermost with memoised argument
//! normalisation: contract root redexes until the root is stuck, normalise
//! the arguments (each memoised), and retry the root in case a previously
//! blocked rule was unblocked by an argument's constructor appearing. It is
//! "non-strict" in the sense of the paper's implementation note (§6): an
//! outermost redex is contracted even when inner arguments are stuck on
//! variables. On the complete, weakly-normalising, confluent systems of
//! Remark 2.1 this computes the semantic normal form `M ↓R` — the property
//! tests compare it with the leftmost-outermost
//! [`reference_normalize`](crate::fixtures::reference_normalize) — while
//! sharing all repeated work through the store.
//!
//! Each rewriter's table is its own: nothing is shared between rewriters
//! or threads, so what a search counts depends on its goal alone.
//!
//! The search is not the only client: the independent proof checker
//! (`cycleq_proof::check`) builds its *own* `MemoRewriter` from the
//! program for each proof, so its store never shares `TermId`s — or bugs —
//! with the one the search used. Nothing computed during search is trusted
//! during certification.
//!
//! Normalisation is triply bounded: by step fuel, by an
//! optional wall-clock deadline, and by an optional [`CancelToken`] — the
//! latter two carried in a [`RunLimits`]. The deadline is polled every few
//! contractions (an `Instant::now` call is not free); the token is polled
//! every contraction (one relaxed atomic load), so a prover's committed
//! reduction phase can never blow past its time budget on an explosive (or
//! non-terminating) input program, and an external caller can abort it
//! mid-chain.
//!
//! # Blocked variables
//!
//! The search's `(Case)` rule "always selects a variable preventing further
//! (non-strict) reduction, much like needed narrowing" (§6). A stuck,
//! fully-applied, defined-head subterm fails to match every rule for its
//! head; whenever a rule's pattern expects a constructor at a position where
//! the subject has a variable, that variable *blocks* the rule. Case
//! analysis on a blocking variable makes progress: at least one constructor
//! branch unblocks the rule. [`MemoRewriter::case_candidates_id`] and
//! [`MemoRewriter::root_case_candidates_id`] compute these variables.

use std::time::Instant;

use cycleq_term::{Head, IdHashMap, Signature, Term, TermId, TermStore, VarId};

use crate::limits::{Interrupted, RunLimits};
use crate::rule::Rule;
use crate::trs::Trs;

/// Default number of contractions allowed per normalisation.
pub const DEFAULT_FUEL: usize = 100_000;

/// The outcome of normalising an owned term.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Normalized {
    /// The final term.
    pub term: Term,
    /// The number of contractions performed.
    pub steps: usize,
    /// Whether a normal form was reached (`false` means fuel ran out).
    pub in_normal_form: bool,
}

/// The outcome of an interned normalisation.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct NormalizedId {
    /// The normal form (or the original id when fuel ran out).
    pub id: TermId,
    /// Contractions performed by this call (memo hits contribute zero).
    pub steps: usize,
    /// Whether a normal form was reached (`false` means fuel ran out).
    pub in_normal_form: bool,
}

/// Outcome of simulating one pattern column against a stuck subject.
#[derive(PartialEq, Eq, Debug, Clone, Copy)]
enum Sim {
    /// The pattern structurally matches.
    Match,
    /// A constructor clash: the rule can never apply to instances obtained
    /// by case analysis alone.
    Clash,
    /// Matching is stuck on a variable or inner redex.
    Blocked,
}

/// Why an in-flight normalisation stopped early.
enum Stop {
    Fuel,
    Interrupted(Interrupted),
}

/// Per-call budget: step fuel plus the external [`RunLimits`]. The
/// cancellation token is polled every contraction (one relaxed atomic
/// load); the deadline every few contractions, so the `Instant::now` cost
/// stays negligible.
struct RunBudget {
    fuel_left: usize,
    steps: usize,
    limits: RunLimits,
    tick: u32,
}

/// How many contractions may pass between deadline polls.
const DEADLINE_POLL_MASK: u32 = 63;

/// Upper bound on intermediate reducts remembered per `norm` frame for
/// back-filling the memo table. A non-terminating root loop (`loop x →
/// loop x`) spins until fuel or deadline stops it; without a cap its chain
/// of intermediates would grow with every contraction.
const CHAIN_MEMO_CAP: usize = 4_096;

impl RunBudget {
    fn new(fuel: usize, limits: RunLimits) -> RunBudget {
        RunBudget {
            fuel_left: fuel,
            steps: 0,
            limits,
            tick: 0,
        }
    }

    /// Accounts for one contraction.
    fn spend(&mut self) -> Result<(), Stop> {
        if self.fuel_left == 0 {
            return Err(Stop::Fuel);
        }
        self.fuel_left -= 1;
        self.steps += 1;
        self.tick = self.tick.wrapping_add(1);
        if self.limits.is_cancelled() {
            return Err(Stop::Interrupted(Interrupted::Cancelled));
        }
        if self.tick & DEADLINE_POLL_MASK == 0 {
            if let Some(d) = self.limits.deadline {
                if Instant::now() >= d {
                    return Err(Stop::Interrupted(Interrupted::Deadline));
                }
            }
        }
        Ok(())
    }
}

/// A memoising reduction engine for a program's rewrite system.
///
/// The type is stateful: it owns the term store and the normal-form table,
/// so callers keep one alive per program and thread it through their hot
/// loops.
#[derive(Clone, Debug)]
pub struct MemoRewriter<'a> {
    sig: &'a Signature,
    trs: &'a Trs,
    fuel: usize,
    store: TermStore,
    /// `t ↦ t↓R`, complete normal forms only (never partial reductions).
    memo: IdHashMap<TermId, TermId>,
    memo_hits: u64,
    /// Argument ids under construction, used as one stack by every
    /// recursive function here that interns nodes: each pushes above the
    /// length it found and cuts the stack back once its node is interned,
    /// so building a node allocates no vector of its own.
    args: Vec<TermId>,
    /// The reduction chains of the `norm` frames in progress, stacked the
    /// same way: each frame's chain lies above the length it found.
    chain: Vec<TermId>,
    /// The bindings of the rule pattern being matched.
    bind: Vec<(VarId, TermId)>,
}

impl<'a> MemoRewriter<'a> {
    /// Creates a memoising rewriter with the default fuel.
    pub fn new(sig: &'a Signature, trs: &'a Trs) -> MemoRewriter<'a> {
        MemoRewriter {
            sig,
            trs,
            fuel: DEFAULT_FUEL,
            store: TermStore::new(),
            memo: IdHashMap::default(),
            memo_hits: 0,
            args: Vec::new(),
            chain: Vec::new(),
            bind: Vec::new(),
        }
    }

    /// Overrides the per-normalisation fuel bound.
    pub fn with_fuel(mut self, fuel: usize) -> MemoRewriter<'a> {
        self.fuel = fuel;
        self
    }

    /// The underlying term store.
    pub fn store(&self) -> &TermStore {
        &self.store
    }

    /// Mutable access to the underlying term store (for interning goal
    /// terms into the same id space).
    pub fn store_mut(&mut self) -> &mut TermStore {
        &mut self.store
    }

    /// Interns an owned term.
    pub fn intern(&mut self, t: &Term) -> TermId {
        self.store.intern(t)
    }

    /// Resolves an id back to an owned term.
    pub fn resolve(&self, id: TermId) -> Term {
        self.store.resolve(id)
    }

    /// Number of normal forms currently memoised.
    pub fn memo_len(&self) -> usize {
        self.memo.len()
    }

    /// Number of memo-table hits since construction.
    pub fn memo_hits(&self) -> u64 {
        self.memo_hits
    }

    /// Attempts a root contraction, trying the head's rules in order.
    ///
    /// A head applied to more arguments than its clauses take (`f t1 … tm`
    /// with clause arity `n < m`, e.g. a point-free `twice f = comp f f`
    /// applied to `f` and `x`) contracts its prefix `f t1 … tn` and
    /// re-applies `t(n+1) … tm` to the contractum.
    pub fn step_root_id(&mut self, id: TermId) -> Option<TermId> {
        let head = self.store.head_sym(id)?;
        if !self.sig.is_defined(head) {
            return None;
        }
        let nargs = self.store.args(id).len();
        let mut bind = std::mem::take(&mut self.bind);
        let mut contractum = None;
        for rid in self.trs.rules_for(head) {
            let rule: &'a Rule = self.trs.rule(*rid);
            let arity = rule.params().len();
            if arity > nargs {
                continue;
            }
            bind.clear();
            let matches = rule.params().iter().enumerate().all(|(k, p)| {
                let s = self.store.args(id)[k];
                self.match_pattern(p, s, &mut bind)
            });
            if matches {
                let rhs = self.instantiate(rule.rhs(), &bind);
                // Re-apply the arguments past the clause's arity.
                let base = self.args.len();
                self.args.extend_from_slice(&self.store.args(id)[arity..]);
                contractum = Some(self.store.apply_args(rhs, &self.args[base..]));
                self.args.truncate(base);
                break;
            }
        }
        self.bind = bind;
        contractum
    }

    /// Matches an owned rule pattern against an interned subject, binding
    /// rule variables to subject ids. Mirrors [`cycleq_term::match_term`]
    /// (including the applied-variable prefix extension and non-linear
    /// agreement, which is id equality here).
    fn match_pattern(&mut self, pat: &Term, subj: TermId, bind: &mut Vec<(VarId, TermId)>) -> bool {
        match pat.head() {
            Head::Var(v) => {
                let k = pat.args().len();
                let m = self.store.args(subj).len();
                if m < k {
                    return false;
                }
                let split = m - k;
                let prefix = if split == m {
                    subj
                } else {
                    let shead = self.store.head(subj);
                    let base = self.args.len();
                    self.args.extend_from_slice(&self.store.args(subj)[..split]);
                    let prefix = self.store.node(shead, &self.args[base..]);
                    self.args.truncate(base);
                    prefix
                };
                match bind.iter().find(|(w, _)| *w == v) {
                    Some((_, bound)) if *bound != prefix => return false,
                    Some(_) => {}
                    None => bind.push((v, prefix)),
                }
                for (i, p) in pat.args().iter().enumerate() {
                    let s = self.store.args(subj)[split + i];
                    if !self.match_pattern(p, s, bind) {
                        return false;
                    }
                }
                true
            }
            Head::Sym(f) => {
                if self.store.head(subj) != Head::Sym(f)
                    || self.store.args(subj).len() != pat.args().len()
                {
                    return false;
                }
                for (i, p) in pat.args().iter().enumerate() {
                    let s = self.store.args(subj)[i];
                    if !self.match_pattern(p, s, bind) {
                        return false;
                    }
                }
                true
            }
        }
    }

    /// Instantiates an owned rule right-hand side under the binding,
    /// interning the result. Every rhs variable is bound (rule validation
    /// guarantees it).
    fn instantiate(&mut self, t: &Term, bind: &[(VarId, TermId)]) -> TermId {
        let base = self.args.len();
        for a in t.args() {
            let id = self.instantiate(a, bind);
            self.args.push(id);
        }
        let out = match t.head() {
            Head::Var(v) => {
                let bound = bind
                    .iter()
                    .find(|(w, _)| *w == v)
                    .map(|(_, b)| *b)
                    .expect("rule rhs variable is bound on the left");
                self.store.apply_args(bound, &self.args[base..])
            }
            Head::Sym(s) => self.store.node(Head::Sym(s), &self.args[base..]),
        };
        self.args.truncate(base);
        out
    }

    /// Reduces to normal form with the configured fuel and no external
    /// limits.
    pub fn normalize_id(&mut self, id: TermId) -> NormalizedId {
        self.try_normalize_id(id, &RunLimits::none())
            .expect("no limits were set")
    }

    /// Reduces to normal form, bounded by fuel *and* the external
    /// [`RunLimits`] (wall-clock deadline, cancellation token).
    ///
    /// # Errors
    ///
    /// Returns [`Interrupted`] the moment the deadline passes or the token
    /// is cancelled; fuel exhaustion is reported in-band via
    /// [`NormalizedId::in_normal_form`] being `false` (the id is returned
    /// unreduced — callers treat such branches as failed).
    pub fn try_normalize_id(
        &mut self,
        id: TermId,
        limits: &RunLimits,
    ) -> Result<NormalizedId, Interrupted> {
        let _span = cycleq_trace::span!("normalize");
        let mut budget = RunBudget::new(self.fuel, limits.clone());
        // A normalisation that stopped early left its frames' entries on
        // the stacks.
        self.args.clear();
        self.chain.clear();
        match self.norm(id, &mut budget) {
            Ok(nf) => Ok(NormalizedId {
                id: nf,
                steps: budget.steps,
                in_normal_form: true,
            }),
            Err(Stop::Fuel) => Ok(NormalizedId {
                id,
                steps: budget.steps,
                in_normal_form: false,
            }),
            Err(Stop::Interrupted(why)) => Err(why),
        }
    }

    /// Owned-term convenience wrapper: intern, normalise, resolve.
    ///
    /// On fuel exhaustion the returned term is the *input* term: partially
    /// contracted intermediates are never exposed, and callers treat the
    /// normalisation as failed.
    pub fn normalize(&mut self, t: &Term) -> Normalized {
        let id = self.intern(t);
        let n = self.normalize_id(id);
        Normalized {
            term: self.resolve(n.id),
            steps: n.steps,
            in_normal_form: n.in_normal_form,
        }
    }

    fn norm(&mut self, id: TermId, budget: &mut RunBudget) -> Result<TermId, Stop> {
        if let Some(&nf) = self.memo.get(&id) {
            self.memo_hits += 1;
            return Ok(nf);
        }
        // This frame's chain, above `chain_base`: ids known to reduce to
        // whatever normal form we end up at.
        let chain_base = self.chain.len();
        self.chain.push(id);
        let mut cur = id;
        loop {
            // Contract at the root until stuck.
            while let Some(next) = self.step_root_id(cur) {
                budget.spend()?;
                cur = next;
                if let Some(&nf) = self.memo.get(&cur) {
                    self.memo_hits += 1;
                    return Ok(self.finish(chain_base, nf));
                }
                if self.chain.len() - chain_base < CHAIN_MEMO_CAP {
                    self.chain.push(cur);
                }
            }
            // Root is stuck: normalise the arguments (each memoised),
            // retrying the root whenever an argument changed — a rule
            // blocked on an inner redex may now match.
            let head = self.store.head(cur);
            let base = self.args.len();
            let mut changed = false;
            for k in 0..self.store.args(cur).len() {
                let a = self.store.args(cur)[k];
                let na = self.norm(a, budget)?;
                changed |= na != a;
                self.args.push(na);
            }
            if !changed {
                self.args.truncate(base);
                return Ok(self.finish(chain_base, cur));
            }
            cur = self.store.node(head, &self.args[base..]);
            self.args.truncate(base);
            if let Some(&nf) = self.memo.get(&cur) {
                self.memo_hits += 1;
                return Ok(self.finish(chain_base, nf));
            }
            if self.chain.len() - chain_base < CHAIN_MEMO_CAP {
                self.chain.push(cur);
            }
            // Back to the top: if normalising the arguments unblocked the
            // root, the contraction loop takes the step (computing it once);
            // if the root is still stuck, the next argument pass is all memo
            // hits, `changed` stays false, and we finish.
        }
    }

    /// Records that every id on the frame's reduction chain, the one above
    /// `chain_base`, normalises to `nf`, and pops the chain.
    fn finish(&mut self, chain_base: usize, nf: TermId) -> TermId {
        for c in self.chain.drain(chain_base..) {
            self.memo.insert(c, nf);
        }
        self.memo.insert(nf, nf);
        nf
    }

    /// Variables blocking reduction of the term, ordered by preference:
    /// blockers of leftmost-outermost stuck redexes first, then by rule
    /// order.
    ///
    /// Returns an empty vector when the term has no stuck defined-head
    /// subterm whose matching failure is attributable to a variable (e.g. a
    /// goal that is already a constructor normal form, or one stuck only on
    /// applied higher-order variables).
    pub fn case_candidates_id(&mut self, t: TermId) -> Vec<VarId> {
        let mut out: Vec<VarId> = Vec::new();
        let mut stack = vec![t];
        while let Some(id) = stack.pop() {
            let args = self.store.args(id);
            let nargs = args.len();
            stack.extend(args.iter().rev());
            let Some(head) = self.store.head_sym(id) else {
                continue;
            };
            if !self.sig.is_defined(head) || self.trs.arity_of(head).is_none_or(|n| n > nargs) {
                continue;
            }
            // A reducible root has no candidates of its own, and its
            // arguments are still visited.
            for v in self.root_case_candidates_id(id) {
                if !out.contains(&v) {
                    out.push(v);
                }
            }
        }
        out
    }

    /// Variables blocking rule matching at the *root* of the term, in rule
    /// order. An over-applied head is analysed on the prefix its clauses
    /// take, as in [`MemoRewriter::step_root_id`].
    ///
    /// Returns an empty vector when the root is not a stuck, fully-applied,
    /// defined-head redex, or when its matching failures are attributable
    /// only to inner redexes or applied higher-order variables.
    pub fn root_case_candidates_id(&mut self, t: TermId) -> Vec<VarId> {
        let mut out: Vec<VarId> = Vec::new();
        let Some(head) = self.store.head_sym(t) else {
            return out;
        };
        if !self.sig.is_defined(head) {
            return out;
        }
        let nargs = self.store.args(t).len();
        let mut bind = std::mem::take(&mut self.bind);
        for rid in self.trs.rules_for(head) {
            let rule: &'a Rule = self.trs.rule(*rid);
            let arity = rule.params().len();
            if arity > nargs {
                continue;
            }
            bind.clear();
            let applies = (0..arity).all(|k| {
                let s = self.store.args(t)[k];
                self.match_pattern(&rule.params()[k], s, &mut bind)
            });
            if applies {
                // Reducible at the root: not stuck, nothing blocks.
                self.bind = bind;
                return Vec::new();
            }
            let mut blockers = Vec::new();
            let mut verdict = Sim::Match;
            for (k, p) in rule.params().iter().enumerate() {
                let s = self.store.args(t)[k];
                match self.simulate_rule(p, s, &mut blockers) {
                    Sim::Clash => {
                        verdict = Sim::Clash;
                        break;
                    }
                    Sim::Blocked => verdict = Sim::Blocked,
                    Sim::Match => {}
                }
            }
            if verdict == Sim::Blocked {
                for v in blockers {
                    if !out.contains(&v) {
                        out.push(v);
                    }
                }
            }
        }
        self.bind = bind;
        out
    }

    /// Simulates matching one pattern column against a subject, collecting
    /// the variables that block it.
    fn simulate_rule(&self, pat: &Term, arg: TermId, blockers: &mut Vec<VarId>) -> Sim {
        match pat.head() {
            Head::Var(_) => Sim::Match,
            Head::Sym(_) => {
                // Clashes against defined-head arguments are downgraded to
                // Blocked: the inner redex is analysed at its own position.
                if self
                    .store
                    .head_sym(arg)
                    .is_some_and(|h| self.sig.is_defined(h))
                {
                    return Sim::Blocked;
                }
                match (pat.head(), self.store.head(arg)) {
                    (Head::Sym(k), Head::Sym(k2))
                        if k == k2 && pat.args().len() == self.store.args(arg).len() =>
                    {
                        let mut out = Sim::Match;
                        for (i, p) in pat.args().iter().enumerate() {
                            let a = self.store.args(arg)[i];
                            match self.simulate_rule(p, a, blockers) {
                                Sim::Clash => return Sim::Clash,
                                Sim::Blocked => out = Sim::Blocked,
                                Sim::Match => {}
                            }
                        }
                        out
                    }
                    (Head::Sym(_), Head::Sym(_)) => Sim::Clash,
                    (Head::Sym(_), Head::Var(v)) => {
                        if self.store.args(arg).is_empty() && !blockers.contains(&v) {
                            blockers.push(v);
                        }
                        Sim::Blocked
                    }
                    _ => unreachable!("pattern head is a symbol"),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{nat_list_program, reference_normalize, ProgramFixture};
    use crate::limits::CancelToken;
    use crate::trs::Program;
    use cycleq_term::{Term, Type, TypeScheme, VarStore};
    use std::time::Duration;

    #[test]
    fn memoized_normalize_agrees_with_plain() {
        let p = nat_list_program();
        let mut memo = MemoRewriter::new(&p.prog.sig, &p.prog.trs);
        let t = Term::apps(p.f.add, vec![p.f.num(2), p.f.num(3)]);
        let plain = reference_normalize(&p.prog.sig, &p.prog.trs, &t, DEFAULT_FUEL);
        let fast = memo.normalize(&t);
        assert!(fast.in_normal_form);
        assert_eq!(fast.term, plain.term);
        assert_eq!(fast.term, p.f.num(5));
    }

    #[test]
    fn add_computes() {
        let p = nat_list_program();
        let mut memo = MemoRewriter::new(&p.prog.sig, &p.prog.trs);
        let t = Term::apps(p.f.add, vec![p.f.num(2), p.f.num(3)]);
        let n = memo.normalize(&t);
        assert!(n.in_normal_form);
        assert_eq!(n.term, p.f.num(5));
        assert_eq!(n.steps, 3); // two S-steps and one Z-step
    }

    #[test]
    fn reduction_happens_under_constructors() {
        let p = nat_list_program();
        let mut memo = MemoRewriter::new(&p.prog.sig, &p.prog.trs);
        let inner = Term::apps(p.f.add, vec![p.f.num(0), p.f.num(1)]);
        let n = memo.normalize(&p.f.s(inner));
        assert_eq!(n.term, p.f.num(2));
    }

    #[test]
    fn map_over_literal_list() {
        let p = nat_list_program();
        let mut memo = MemoRewriter::new(&p.prog.sig, &p.prog.trs);
        // map (add (S Z)) [0, 1] = [1, 2]
        let succ_fn = Term::apps(p.f.add, vec![p.f.num(1)]);
        let t = Term::apps(
            p.f.map,
            vec![succ_fn, p.f.list_t(vec![p.f.num(0), p.f.num(1)])],
        );
        let n = memo.normalize(&t);
        assert!(n.in_normal_form);
        assert_eq!(n.term, p.f.list_t(vec![p.f.num(1), p.f.num(2)]));
    }

    #[test]
    fn nonterminating_programs_run_out_of_fuel() {
        // `loop x → loop x` never reaches a normal form, and without the
        // fuel bound this normalisation would spin forever. User `.hs`
        // input is untrusted, so exhaustion must simply be reported.
        let mut sig = cycleq_term::Signature::new();
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
        let x = trs.vars_mut().fresh("x", nat_ty);
        trs.add_rule(
            &sig,
            lp,
            vec![Term::var(x)],
            Term::apps(lp, vec![Term::var(x)]),
        )
        .unwrap();
        let prog = Program::new(sig, trs);
        let mut memo = MemoRewriter::new(&prog.sig, &prog.trs).with_fuel(1_000);
        let spin = Term::apps(lp, vec![Term::sym(zero)]);
        let n = memo.normalize(&spin);
        assert!(!n.in_normal_form);
        assert_eq!(n.steps, 1_000);
        assert_eq!(n.term, spin);
        assert_eq!(memo.memo_len(), 0);
    }

    #[test]
    fn second_normalization_is_a_memo_hit() {
        let p = nat_list_program();
        let mut memo = MemoRewriter::new(&p.prog.sig, &p.prog.trs);
        let t = Term::apps(p.f.add, vec![p.f.num(4), p.f.num(4)]);
        let first = memo.normalize(&t);
        assert!(first.steps > 0);
        let hits_before = memo.memo_hits();
        let second = memo.normalize(&t);
        assert_eq!(second.steps, 0, "memo hit performs no contractions");
        assert_eq!(second.term, first.term);
        assert!(memo.memo_hits() > hits_before);
    }

    #[test]
    fn shared_subterms_are_normalized_once() {
        let p = nat_list_program();
        let mut memo = MemoRewriter::new(&p.prog.sig, &p.prog.trs);
        let redex = Term::apps(p.f.add, vec![p.f.num(3), p.f.num(3)]);
        let outer = Term::apps(p.f.add, vec![redex.clone(), redex.clone()]);
        let lone = memo.clone().normalize(&redex).steps;
        let both = memo.normalize(&outer);
        assert!(both.in_normal_form);
        assert_eq!(both.term, p.f.num(12));
        // The second occurrence of the shared redex costs nothing: the
        // total is one inner normalisation plus the outer addition.
        assert!(
            both.steps < 2 * lone + 8,
            "steps {} suggests the shared redex was reduced twice",
            both.steps
        );
    }

    #[test]
    fn open_terms_get_stuck_like_plain_rewriter() {
        let p = nat_list_program();
        let mut memo = MemoRewriter::new(&p.prog.sig, &p.prog.trs);
        let mut vars = VarStore::new();
        let x = vars.fresh("x", p.f.nat_ty());
        let t = Term::apps(p.f.add, vec![Term::var(x), p.f.num(1)]);
        let n = memo.normalize(&t);
        assert!(n.in_normal_form);
        assert_eq!(n.term, t, "stuck on the case variable x");
    }

    #[test]
    fn fuel_exhaustion_is_reported() {
        let p = nat_list_program();
        let mut memo = MemoRewriter::new(&p.prog.sig, &p.prog.trs).with_fuel(2);
        let t = Term::apps(p.f.add, vec![p.f.num(5), p.f.num(5)]);
        let n = memo.normalize(&t);
        assert!(!n.in_normal_form);
        // A partial reduction must never be memoised as a normal form.
        assert_eq!(memo.memo_len(), 0);
    }

    #[test]
    fn deadline_cuts_normalization_short() {
        let p = nat_list_program();
        let mut memo = MemoRewriter::new(&p.prog.sig, &p.prog.trs).with_fuel(usize::MAX);
        // Enough pending contractions that the periodic deadline poll fires
        // long before the reduction finishes.
        let t = Term::apps(p.f.add, vec![p.f.num(2_000), p.f.num(1)]);
        let id = memo.intern(&t);
        let already_passed = Instant::now() - Duration::from_millis(1);
        assert_eq!(
            memo.try_normalize_id(id, &RunLimits::with_deadline(Some(already_passed))),
            Err(Interrupted::Deadline)
        );
    }

    #[test]
    fn cancellation_cuts_normalization_short() {
        let p = nat_list_program();
        let mut memo = MemoRewriter::new(&p.prog.sig, &p.prog.trs).with_fuel(usize::MAX);
        let t = Term::apps(p.f.add, vec![p.f.num(2_000), p.f.num(1)]);
        let id = memo.intern(&t);
        let token = CancelToken::new();
        token.cancel();
        let limits = RunLimits::none().with_cancel(token);
        assert_eq!(
            memo.try_normalize_id(id, &limits),
            Err(Interrupted::Cancelled)
        );
        // Nothing partial was memoised by the aborted run.
        assert_eq!(memo.memo_len(), 0);
    }

    /// The blocked variables of an owned term.
    fn candidates(p: &ProgramFixture, t: &Term) -> Vec<VarId> {
        let mut memo = MemoRewriter::new(&p.prog.sig, &p.prog.trs);
        let id = memo.intern(t);
        memo.case_candidates_id(id)
    }

    #[test]
    fn stuck_add_blocks_on_first_argument() {
        let p = nat_list_program();
        let mut vars = VarStore::new();
        let x = vars.fresh("x", p.f.nat_ty());
        let y = vars.fresh("y", p.f.nat_ty());
        let t = Term::apps(p.f.add, vec![Term::var(x), Term::var(y)]);
        assert_eq!(candidates(&p, &t), vec![x]);
    }

    #[test]
    fn reducible_terms_have_no_candidates() {
        let p = nat_list_program();
        let t = Term::apps(p.f.add, vec![p.f.num(0), p.f.num(1)]);
        assert!(candidates(&p, &t).is_empty());
    }

    #[test]
    fn constructor_normal_forms_have_no_candidates() {
        let p = nat_list_program();
        let mut vars = VarStore::new();
        let x = vars.fresh("x", p.f.nat_ty());
        assert!(candidates(&p, &p.f.s(Term::var(x))).is_empty());
    }

    #[test]
    fn inner_stuck_redex_contributes_its_blocker() {
        let p = nat_list_program();
        let mut vars = VarStore::new();
        let x = vars.fresh("x", p.f.nat_ty());
        // add (add x Z) Z: outer is blocked on the inner redex; inner is
        // blocked on x. Only x should be reported.
        let inner = Term::apps(p.f.add, vec![Term::var(x), Term::sym(p.f.zero)]);
        let t = Term::apps(p.f.add, vec![inner, Term::sym(p.f.zero)]);
        assert_eq!(candidates(&p, &t), vec![x]);
    }

    #[test]
    fn leftmost_outermost_preference() {
        let p = nat_list_program();
        let mut vars = VarStore::new();
        let x = vars.fresh("x", p.f.nat_ty());
        let y = vars.fresh("y", p.f.nat_ty());
        // add x (add y Z): x blocks the outer redex, y the inner one.
        let inner = Term::apps(p.f.add, vec![Term::var(y), Term::sym(p.f.zero)]);
        let t = Term::apps(p.f.add, vec![Term::var(x), inner]);
        assert_eq!(candidates(&p, &t), vec![x, y]);
    }

    #[test]
    fn applied_variable_heads_are_not_candidates() {
        let p = nat_list_program();
        let mut vars = VarStore::new();
        let g = vars.fresh("g", Type::arrow(p.f.nat_ty(), p.f.nat_ty()));
        let xs = vars.fresh("xs", p.f.list_ty(p.f.nat_ty()));
        // map g xs: xs blocks; g does not (it is a function variable).
        let t = Term::apps(p.f.map, vec![Term::var(g), Term::var(xs)]);
        assert_eq!(candidates(&p, &t), vec![xs]);
    }
}
