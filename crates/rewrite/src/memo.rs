//! Memoised reduction over hash-consed terms.
//!
//! [`MemoRewriter`] owns a [`TermStore`] and a persistent map from
//! [`TermId`] to its `R`-normal form. Because a program's rewrite system is
//! fixed for the lifetime of a prover run, normal forms never change and the
//! memo table is valid for as long as the rewriter lives; a fresh rewriter
//! (and hence a fresh table) is created per [`crate::Program`].
//!
//! The reduction strategy is outermost with memoised argument
//! normalisation: contract root redexes until the root is stuck, normalise
//! the arguments (each memoised), and retry the root in case a previously
//! blocked rule was unblocked by an argument's constructor appearing. On
//! the complete, weakly-normalising, confluent systems of Remark 2.1 this
//! computes the same normal form as the plain leftmost-outermost
//! [`Rewriter`] — see the equivalence property tests — while sharing all
//! repeated work through the store.
//!
//! The search is not the only client: the independent proof checker
//! (`cycleq_proof::check`) builds its *own* `MemoRewriter` from the
//! program, so its store never shares `TermId`s — or bugs — with the one the
//! search used, and a single rewriter can be reused across the proofs of a
//! batch (`cycleq_proof::check_with`) to keep the reduct memo warm. Checkers must
//! not attach a [`SharedNormalFormCache`] that the search populated: the
//! whole point of the separate code path is that nothing computed during
//! search is trusted during certification.
//!
//! Normalisation is triply bounded: by step fuel (like [`Rewriter`]), by an
//! optional wall-clock deadline, and by an optional [`CancelToken`] — the
//! latter two carried in a [`RunLimits`]. The deadline is polled every few
//! contractions (an `Instant::now` call is not free); the token is polled
//! every contraction (one relaxed atomic load), so a prover's committed
//! reduction phase can never blow past its time budget on an explosive (or
//! non-terminating) input program, and an external caller can abort it
//! mid-chain.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use cycleq_term::{Head, IdSubst, Signature, SymId, Term, TermId, TermStore, VarId};

use crate::blocked::Sim;
use crate::limits::{Interrupted, RunLimits};
use crate::reduce::{Normalized, DEFAULT_FUEL};
use crate::rule::Rule;
use crate::shared_cache::SharedNormalFormCache;
use crate::trs::Trs;

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

/// Upper bound on the node count of a subject consulted against (and
/// published to) the shared cache. Every defined-headed subterm on the
/// cold path pays an O(size) canonical encoding before reducing, so a
/// nested defined spine costs O(depth × size) encoding on first contact;
/// bounding the participating subject size bounds that product to
/// something negligible while still covering every goal-sized term a
/// realistic suite normalises. (Deep numeral-tower intermediates exceed
/// the bound and simply skip the shared cache — their reductions are
/// cheap to replay locally relative to the transfer cost anyway.)
const MAX_SHARED_SUBJECT_NODES: usize = 512;

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
/// Unlike [`Rewriter`](crate::Rewriter) this type is stateful: it owns the term store and
/// the normal-form table, so callers keep one alive per program and thread
/// it through their hot loops.
#[derive(Clone, Debug)]
pub struct MemoRewriter<'a> {
    sig: &'a Signature,
    trs: &'a Trs,
    fuel: usize,
    store: TermStore,
    /// `t ↦ t↓R`, complete normal forms only (never partial reductions).
    memo: HashMap<TermId, TermId>,
    memo_hits: u64,
    /// Optional program-scoped cache shared with other rewriters (other
    /// workers, other `prove` calls). Consulted on local memo misses for
    /// defined-headed subjects; populated with every complete normal form
    /// computed here.
    shared: Option<SharedNormalFormCache>,
    shared_hits: u64,
    shared_misses: u64,
}

impl<'a> MemoRewriter<'a> {
    /// Creates a memoising rewriter with the default fuel.
    pub fn new(sig: &'a Signature, trs: &'a Trs) -> MemoRewriter<'a> {
        MemoRewriter {
            sig,
            trs,
            fuel: DEFAULT_FUEL,
            store: TermStore::new(),
            memo: HashMap::new(),
            memo_hits: 0,
            shared: None,
            shared_hits: 0,
            shared_misses: 0,
        }
    }

    /// Overrides the per-normalisation fuel bound.
    pub fn with_fuel(mut self, fuel: usize) -> MemoRewriter<'a> {
        self.fuel = fuel;
        self
    }

    /// Attaches a program-scoped [`SharedNormalFormCache`]: normal forms
    /// computed here become visible to every other rewriter holding a clone
    /// of the cache, and vice versa. The cache MUST belong to the same
    /// program as `trs` (see the `shared_cache` module docs).
    pub fn with_shared_cache(mut self, cache: SharedNormalFormCache) -> MemoRewriter<'a> {
        self.shared = Some(cache);
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

    /// Number of shared-cache hits scored by *this* rewriter.
    pub fn shared_cache_hits(&self) -> u64 {
        self.shared_hits
    }

    /// Number of shared-cache misses charged to *this* rewriter.
    pub fn shared_cache_misses(&self) -> u64 {
        self.shared_misses
    }

    /// Attempts a root contraction, trying the head's rules in order.
    pub fn step_root_id(&mut self, id: TermId) -> Option<TermId> {
        let head = self.store.head_sym(id)?;
        if !self.sig.is_defined(head) {
            return None;
        }
        let nargs = self.store.args(id).len();
        for rid in self.trs.rules_for(head) {
            let rule: &'a Rule = self.trs.rule(*rid);
            if rule.params().len() != nargs {
                continue;
            }
            let mut bind: Vec<(VarId, TermId)> = Vec::new();
            let mut ok = true;
            for (k, p) in rule.params().iter().enumerate() {
                let s = self.store.args(id)[k];
                if !self.match_pattern(p, s, &mut bind) {
                    ok = false;
                    break;
                }
            }
            if ok {
                return Some(self.instantiate(rule.rhs(), &bind));
            }
        }
        None
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
                    let pre: Vec<TermId> = self.store.args(subj)[..split].to_vec();
                    self.store.node(shead, pre)
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
        let args: Vec<TermId> = t.args().iter().map(|a| self.instantiate(a, bind)).collect();
        match t.head() {
            Head::Var(v) => {
                let bound = bind
                    .iter()
                    .find(|(w, _)| *w == v)
                    .map(|(_, b)| *b)
                    .expect("rule rhs variable is bound on the left");
                self.store.apply_args(bound, &args)
            }
            Head::Sym(s) => self.store.node(Head::Sym(s), args),
        }
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
    /// On fuel exhaustion the returned term is the *input* term (partially
    /// contracted intermediates are not exposed), unlike
    /// [`Rewriter::normalize`](crate::Rewriter::normalize); all callers
    /// ignore the term in that case.
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
        // Defined-headed subjects are worth consulting the shared cache
        // for; constructor/variable-headed ones only decompose into their
        // arguments, and encoding every node of a constructor spine would
        // make first contact with a deep term quadratic. Subjects above
        // `MAX_SHARED_SUBJECT_NODES` are skipped outright, which bounds
        // the analogous quadratic for nested *defined* spines too.
        //
        // A hit is returned without charging the budget: a cached entry is
        // a *true* normal form (only complete reductions are published),
        // and fuel exists to guard against divergence, not as a semantic
        // bound. At the fuel boundary this means a warm cache can succeed
        // where a cold run would give up — it can only ever prove more.
        let mut pending = None;
        if self.shared.is_some()
            && self.defined_head(id).is_some()
            && self.store.size(id) <= MAX_SHARED_SUBJECT_NODES
        {
            let cache = self.shared.clone().expect("just checked");
            let mut rename = BTreeMap::new();
            let key = self.store.canonical_words(id, &mut rename);
            if let Some(nf) = cache
                .lookup(&key)
                .and_then(|value| self.decode_shared_hit(id, &value, &rename))
            {
                return Ok(nf);
            }
            self.shared_misses += 1;
            // Keep the key and rename map: on completion the publish path
            // reuses them instead of re-encoding the subject.
            pending = Some((cache, key, rename));
        }
        let nf = self.norm_uncached(id, budget)?;
        if let Some((cache, key, rename)) = pending {
            self.shared_publish(cache, key, rename, id, nf);
        }
        Ok(nf)
    }

    /// Decodes a shared-cache value into this store against the subject's
    /// rename map, memoising it locally. `None` means the entry is
    /// undecodable here (a malformed or out-of-range encoding — treated as
    /// a miss). Note this is *not* a general defence against sharing one
    /// cache between different programs: an entry whose symbol indices
    /// happen to be valid in both signatures decodes to whatever those
    /// indices mean locally. Keeping the cache program-scoped is the
    /// caller's contract (see the `shared_cache` module docs; `Session`
    /// upholds it by construction).
    fn decode_shared_hit(
        &mut self,
        id: TermId,
        value: &[u32],
        rename: &BTreeMap<VarId, u32>,
    ) -> Option<TermId> {
        // Invert the subject's first-occurrence numbering; canonical codes
        // are contiguous from 0, so sorting by code yields the table.
        let mut pairs: Vec<(u32, VarId)> = rename.iter().map(|(v, c)| (*c, *v)).collect();
        pairs.sort_unstable();
        let inverse: Vec<VarId> = pairs.into_iter().map(|(_, v)| v).collect();
        let nf = self.store.decode_canonical(value, &inverse)?;
        self.shared_hits += 1;
        self.memo.insert(id, nf);
        self.memo.insert(nf, nf);
        Some(nf)
    }

    /// Publishes a freshly computed complete normal form to the shared
    /// cache, reusing the subject key and rename map built by the lookup.
    /// Partial (fuel-cut) reductions never reach this point.
    fn shared_publish(
        &mut self,
        cache: SharedNormalFormCache,
        key: Vec<u32>,
        mut rename: BTreeMap<VarId, u32>,
        id: TermId,
        nf: TermId,
    ) {
        if !SharedNormalFormCache::admits(self.store.size(id), self.store.size(nf)) {
            return;
        }
        let vars_in_subject = rename.len();
        let value = self.store.canonical_words(nf, &mut rename);
        // Rule right-hand sides introduce no fresh variables, so the normal
        // form's variables are always a subset of the subject's; if that
        // invariant ever broke the entry would be undecodable — drop it.
        if rename.len() != vars_in_subject {
            return;
        }
        cache.publish(key.into_boxed_slice(), value.into_boxed_slice());
    }

    fn norm_uncached(&mut self, id: TermId, budget: &mut RunBudget) -> Result<TermId, Stop> {
        // Ids known to reduce to whatever normal form we end up at.
        let mut chain = vec![id];
        let mut cur = id;
        loop {
            // Contract at the root until stuck.
            while let Some(next) = self.step_root_id(cur) {
                budget.spend()?;
                cur = next;
                if let Some(&nf) = self.memo.get(&cur) {
                    self.memo_hits += 1;
                    return Ok(self.finish(chain, nf));
                }
                if chain.len() < CHAIN_MEMO_CAP {
                    chain.push(cur);
                }
            }
            // Root is stuck: normalise the arguments (each memoised),
            // retrying the root whenever an argument changed — a rule
            // blocked on an inner redex may now match.
            let head = self.store.head(cur);
            let args: Vec<TermId> = self.store.args(cur).to_vec();
            let mut new_args = Vec::with_capacity(args.len());
            let mut changed = false;
            for a in &args {
                let na = self.norm(*a, budget)?;
                changed |= na != *a;
                new_args.push(na);
            }
            if !changed {
                return Ok(self.finish(chain, cur));
            }
            cur = self.store.node(head, new_args);
            if let Some(&nf) = self.memo.get(&cur) {
                self.memo_hits += 1;
                return Ok(self.finish(chain, nf));
            }
            if chain.len() < CHAIN_MEMO_CAP {
                chain.push(cur);
            }
            // Back to the top: if normalising the arguments unblocked the
            // root, the contraction loop takes the step (computing it once);
            // if the root is still stuck, the next argument pass is all memo
            // hits, `changed` stays false, and we finish.
        }
    }

    /// Records that every id on the reduction chain normalises to `nf`.
    fn finish(&mut self, chain: Vec<TermId>, nf: TermId) -> TermId {
        for c in chain {
            self.memo.insert(c, nf);
        }
        self.memo.insert(nf, nf);
        nf
    }

    /// Variables blocking reduction of the term, ordered by preference
    /// (blockers of leftmost-outermost stuck redexes first, then rule
    /// order) — the interned counterpart of [`crate::case_candidates`].
    pub fn case_candidates_id(&mut self, t: TermId) -> Vec<VarId> {
        let mut out: Vec<VarId> = Vec::new();
        let mut stack = vec![t];
        while let Some(id) = stack.pop() {
            let args: Vec<TermId> = self.store.args(id).to_vec();
            for &a in args.iter().rev() {
                stack.push(a);
            }
            let Some(head) = self.store.head_sym(id) else {
                continue;
            };
            if !self.sig.is_defined(head) || self.trs.arity_of(head) != Some(args.len()) {
                continue;
            }
            if self.step_root_id(id).is_some() {
                continue; // reducible, not stuck
            }
            for v in self.root_case_candidates_id(id) {
                if !out.contains(&v) {
                    out.push(v);
                }
            }
        }
        out
    }

    /// Variables blocking rule matching at the *root* of the term, in rule
    /// order — the interned counterpart of [`crate::root_case_candidates`].
    pub fn root_case_candidates_id(&mut self, t: TermId) -> Vec<VarId> {
        let mut out: Vec<VarId> = Vec::new();
        let Some(head) = self.store.head_sym(t) else {
            return out;
        };
        if !self.sig.is_defined(head) {
            return out;
        }
        let nargs = self.store.args(t).len();
        for rid in self.trs.rules_for(head) {
            let rule: &'a Rule = self.trs.rule(*rid);
            if rule.params().len() != nargs {
                continue;
            }
            let mut bind: Vec<(VarId, TermId)> = Vec::new();
            let applies = (0..nargs).all(|k| {
                let s = self.store.args(t)[k];
                self.match_pattern(&rule.params()[k], s, &mut bind)
            });
            if applies {
                // Reducible at the root: not stuck, nothing blocks.
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
        out
    }

    /// Simulates one pattern column; mirrors the owned analysis in
    /// `blocked.rs` over an interned subject.
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

    /// Applies a goal substitution to an interned term (delegates to the
    /// store; exposed here so prover loops need only one handle).
    pub fn subst(&mut self, id: TermId, theta: &IdSubst) -> TermId {
        self.store.subst(id, theta)
    }

    /// The head symbol of the signature's view of an id, when defined.
    pub fn defined_head(&self, id: TermId) -> Option<SymId> {
        self.store.head_sym(id).filter(|s| self.sig.is_defined(*s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::nat_list_program;
    use crate::limits::CancelToken;
    use crate::{case_candidates, Rewriter};
    use cycleq_term::{Term, VarStore};
    use std::time::Duration;

    #[test]
    fn memoized_normalize_agrees_with_plain() {
        let p = nat_list_program();
        let rw = Rewriter::new(&p.prog.sig, &p.prog.trs);
        let mut memo = MemoRewriter::new(&p.prog.sig, &p.prog.trs);
        let t = Term::apps(p.f.add, vec![p.f.num(2), p.f.num(3)]);
        let plain = rw.normalize(&t);
        let fast = memo.normalize(&t);
        assert!(fast.in_normal_form);
        assert_eq!(fast.term, plain.term);
        assert_eq!(fast.term, p.f.num(5));
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

    #[test]
    fn shared_cache_crosses_rewriter_boundaries() {
        let p = nat_list_program();
        let cache = SharedNormalFormCache::new();
        let t = Term::apps(p.f.add, vec![p.f.num(3), p.f.num(4)]);

        let mut producer =
            MemoRewriter::new(&p.prog.sig, &p.prog.trs).with_shared_cache(cache.clone());
        let first = producer.normalize(&t);
        assert!(first.steps > 0);
        assert_eq!(first.term, p.f.num(7));
        assert!(!cache.is_empty(), "normal forms were published");

        // A brand-new rewriter (fresh store, fresh memo) gets the normal
        // form from the shared cache without re-contracting anything.
        let mut consumer =
            MemoRewriter::new(&p.prog.sig, &p.prog.trs).with_shared_cache(cache.clone());
        let second = consumer.normalize(&t);
        assert_eq!(second.term, first.term);
        assert_eq!(second.steps, 0, "shared hit performs no contractions");
        assert!(consumer.shared_cache_hits() > 0);
    }

    #[test]
    fn shared_cache_hits_are_alpha_invariant() {
        let p = nat_list_program();
        let cache = SharedNormalFormCache::new();
        let mut vars = VarStore::new();
        let x = vars.fresh("x", p.f.nat_ty());
        let y = vars.fresh("y", p.f.nat_ty());

        // add (S x) y is stuck only after one contraction: S (add x y).
        let mut producer =
            MemoRewriter::new(&p.prog.sig, &p.prog.trs).with_shared_cache(cache.clone());
        let t1 = Term::apps(p.f.add, vec![p.f.s(Term::var(x)), Term::var(y)]);
        let n1 = producer.normalize(&t1);
        assert!(n1.in_normal_form);

        // The same goal up to renaming, in a different rewriter with
        // different VarIds, must hit and decode to *its* variables.
        let mut other_vars = VarStore::new();
        let a = other_vars.fresh("a", p.f.nat_ty());
        let b = other_vars.fresh("b", p.f.nat_ty());
        let mut consumer =
            MemoRewriter::new(&p.prog.sig, &p.prog.trs).with_shared_cache(cache.clone());
        let t2 = Term::apps(p.f.add, vec![p.f.s(Term::var(a)), Term::var(b)]);
        let n2 = consumer.normalize(&t2);
        assert!(consumer.shared_cache_hits() > 0, "α-renamed subject hits");
        assert_eq!(n2.steps, 0);
        assert_eq!(
            n2.term,
            p.f.s(Term::apps(p.f.add, vec![Term::var(a), Term::var(b)])),
            "decoded normal form uses the consumer's variables"
        );
    }

    #[test]
    fn partial_reductions_are_never_published() {
        let p = nat_list_program();
        let cache = SharedNormalFormCache::new();
        let mut memo = MemoRewriter::new(&p.prog.sig, &p.prog.trs)
            .with_fuel(2)
            .with_shared_cache(cache.clone());
        let t = Term::apps(p.f.add, vec![p.f.num(5), p.f.num(5)]);
        let n = memo.normalize(&t);
        assert!(!n.in_normal_form);
        assert!(
            cache.is_empty(),
            "a fuel-cut reduction must not poison the shared cache"
        );
    }

    #[test]
    fn shared_cached_normalize_agrees_with_plain() {
        let p = nat_list_program();
        let cache = SharedNormalFormCache::new();
        let rw = Rewriter::new(&p.prog.sig, &p.prog.trs);
        let mut vars = VarStore::new();
        let x = vars.fresh("x", p.f.nat_ty());
        let samples = vec![
            Term::apps(p.f.add, vec![p.f.num(2), p.f.num(3)]),
            Term::apps(p.f.add, vec![Term::var(x), p.f.num(1)]),
            Term::apps(p.f.add, vec![p.f.s(Term::var(x)), p.f.num(2)]),
            p.f.num(4),
        ];
        // Run every sample through two cache-sharing rewriters; both must
        // agree with the plain leftmost-outermost rewriter.
        for _ in 0..2 {
            let mut memo =
                MemoRewriter::new(&p.prog.sig, &p.prog.trs).with_shared_cache(cache.clone());
            for t in &samples {
                assert_eq!(memo.normalize(t).term, rw.normalize(t).term, "on {t:?}");
            }
        }
    }

    #[test]
    fn case_candidates_id_agrees_with_owned() {
        let p = nat_list_program();
        let mut vars = VarStore::new();
        let x = vars.fresh("x", p.f.nat_ty());
        let y = vars.fresh("y", p.f.nat_ty());
        let g = vars.fresh("g", cycleq_term::Type::arrow(p.f.nat_ty(), p.f.nat_ty()));
        let xs = vars.fresh("xs", p.f.list_ty(p.f.nat_ty()));
        let samples = vec![
            Term::apps(p.f.add, vec![Term::var(x), Term::var(y)]),
            Term::apps(p.f.add, vec![p.f.num(0), p.f.num(1)]),
            p.f.s(Term::var(x)),
            Term::apps(
                p.f.add,
                vec![
                    Term::apps(p.f.add, vec![Term::var(x), Term::sym(p.f.zero)]),
                    Term::sym(p.f.zero),
                ],
            ),
            Term::apps(
                p.f.add,
                vec![
                    Term::var(x),
                    Term::apps(p.f.add, vec![Term::var(y), Term::sym(p.f.zero)]),
                ],
            ),
            Term::apps(p.f.map, vec![Term::var(g), Term::var(xs)]),
        ];
        let mut memo = MemoRewriter::new(&p.prog.sig, &p.prog.trs);
        for t in samples {
            let id = memo.intern(&t);
            assert_eq!(
                memo.case_candidates_id(id),
                case_candidates(&p.prog.sig, &p.prog.trs, &t),
                "mismatch on {t:?}"
            );
        }
    }
}
