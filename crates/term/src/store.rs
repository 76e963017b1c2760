//! Hash-consed terms: a [`TermStore`] interner mapping each `(head, args)`
//! node to a compact [`TermId`].
//!
//! The prover performs the same handful of term operations millions of times
//! per goal — equality, substitution, matching, normalisation. On the
//! deep-owning [`Term`] representation every one of them walks (and usually
//! clones) the full spine. Interning gives:
//!
//! - O(1) structural equality and hashing (`TermId` is a `u32`);
//! - maximal sharing: a subterm appearing in many goals is stored once;
//! - per-node cached metadata (size, depth, groundness) computed exactly
//!   once per distinct term;
//! - a stable identity to memoise derived facts against — most importantly
//!   reduction normal forms (see `cycleq_rewrite`'s memoised rewriter).
//!
//! The owned [`Term`] API remains the boundary representation: the frontend
//! lowers to owned terms, pretty-printing and the independent proof checker
//! consume owned terms, and [`TermStore::intern`]/[`TermStore::resolve`]
//! convert at the edges. Ids are only meaningful relative to the store that
//! produced them; stores grow monotonically, so ids are never invalidated.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use crate::equation::CanonKey;
use crate::position::Position;
use crate::signature::{Signature, SymId};
use crate::term::{Head, Term};
use crate::var::VarId;

/// Identifies an interned term within a [`TermStore`].
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TermId(u32);

impl TermId {
    /// The raw index of the node.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One hash-consed node with its cached metadata.
#[derive(Clone, Debug)]
struct NodeData {
    head: Head,
    args: Box<[TermId]>,
    /// Number of nodes in the term.
    size: u32,
    /// Maximum nesting depth.
    depth: u32,
    /// Whether the term contains no variables.
    ground: bool,
    /// The free variables, sorted ascending (computed once per node).
    vars: Box<[VarId]>,
}

/// A hash-consing interner for spine-form terms.
///
/// Every distinct `(head, args)` pair is stored exactly once; interning the
/// same term twice returns the same [`TermId`], so id equality coincides
/// with structural equality.
#[derive(Clone, Debug, Default)]
pub struct TermStore {
    nodes: Vec<NodeData>,
    table: HashMap<(Head, Box<[TermId]>), TermId>,
}

impl TermStore {
    /// An empty store.
    pub fn new() -> TermStore {
        TermStore::default()
    }

    /// The number of distinct nodes interned so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Interns the node `head args…`, reusing an existing id when the same
    /// node was interned before.
    ///
    /// The hit path (by far the common case in a warmed-up prover) does not
    /// allocate: the lookup key is the moved-in arguments themselves.
    pub fn node(&mut self, head: Head, args: Vec<TermId>) -> TermId {
        let key = (head, args.into_boxed_slice());
        if let Some(&id) = self.table.get(&key) {
            return id;
        }
        let args = key.1.clone();
        let mut size: u32 = 1;
        let mut depth: u32 = 0;
        let mut vars: Vec<VarId> = match head {
            Head::Var(v) => vec![v],
            Head::Sym(_) => Vec::new(),
        };
        for &a in args.iter() {
            let n = &self.nodes[a.index()];
            size += n.size;
            depth = depth.max(n.depth);
            vars.extend_from_slice(&n.vars);
        }
        vars.sort_unstable();
        vars.dedup();
        let id = TermId(self.nodes.len() as u32);
        self.nodes.push(NodeData {
            head,
            args,
            size,
            depth: depth + 1,
            ground: vars.is_empty(),
            vars: vars.into_boxed_slice(),
        });
        self.table.insert(key, id);
        id
    }

    /// Interns the bare variable `v`.
    pub fn var(&mut self, v: VarId) -> TermId {
        self.node(Head::Var(v), Vec::new())
    }

    /// Interns the bare symbol `s`.
    pub fn sym(&mut self, s: SymId) -> TermId {
        self.node(Head::Sym(s), Vec::new())
    }

    /// Interns an owned term (and all of its subterms).
    ///
    /// Iterative (explicit stack), so arbitrarily deep terms — e.g. large
    /// numeral towers produced by reduction — cannot overflow the call
    /// stack at the conversion boundary.
    pub fn intern(&mut self, t: &Term) -> TermId {
        struct Frame<'t> {
            t: &'t Term,
            args: Vec<TermId>,
        }
        let mut stack = vec![Frame {
            t,
            args: Vec::with_capacity(t.args().len()),
        }];
        loop {
            let top = stack.last_mut().expect("stack starts non-empty");
            if top.args.len() == top.t.args().len() {
                let f = stack.pop().expect("just observed");
                let id = self.node(f.t.head(), f.args);
                match stack.last_mut() {
                    Some(parent) => parent.args.push(id),
                    None => return id,
                }
            } else {
                let next = &top.t.args()[top.args.len()];
                stack.push(Frame {
                    t: next,
                    args: Vec::with_capacity(next.args().len()),
                });
            }
        }
    }

    /// Reconstructs the owned term for an id (iterative, like
    /// [`TermStore::intern`]).
    pub fn resolve(&self, id: TermId) -> Term {
        struct Frame {
            id: TermId,
            args: Vec<Term>,
        }
        let mut stack = vec![Frame {
            id,
            args: Vec::with_capacity(self.args(id).len()),
        }];
        loop {
            let top = stack.last_mut().expect("stack starts non-empty");
            let node_args = &self.nodes[top.id.index()].args;
            if top.args.len() == node_args.len() {
                let f = stack.pop().expect("just observed");
                let t = Term::from_parts(self.head(f.id), f.args);
                match stack.last_mut() {
                    Some(parent) => parent.args.push(t),
                    None => return t,
                }
            } else {
                let next = node_args[top.args.len()];
                stack.push(Frame {
                    id: next,
                    args: Vec::with_capacity(self.args(next).len()),
                });
            }
        }
    }

    /// The head of the node.
    pub fn head(&self, id: TermId) -> Head {
        self.nodes[id.index()].head
    }

    /// The argument ids of the node.
    pub fn args(&self, id: TermId) -> &[TermId] {
        &self.nodes[id.index()].args
    }

    /// The head symbol, if the head is a symbol.
    pub fn head_sym(&self, id: TermId) -> Option<SymId> {
        match self.head(id) {
            Head::Sym(s) => Some(s),
            Head::Var(_) => None,
        }
    }

    /// Whether the node is a bare variable, and which.
    pub fn as_var(&self, id: TermId) -> Option<VarId> {
        let n = &self.nodes[id.index()];
        match n.head {
            Head::Var(v) if n.args.is_empty() => Some(v),
            _ => None,
        }
    }

    /// The cached node count of the term.
    pub fn size(&self, id: TermId) -> usize {
        self.nodes[id.index()].size as usize
    }

    /// The cached maximum nesting depth.
    pub fn depth(&self, id: TermId) -> usize {
        self.nodes[id.index()].depth as usize
    }

    /// The cached ground flag (no variables anywhere in the term).
    pub fn is_ground(&self, id: TermId) -> bool {
        self.nodes[id.index()].ground
    }

    /// Whether the head is a defined symbol of `sig`.
    pub fn is_defined_headed(&self, id: TermId, sig: &Signature) -> bool {
        matches!(self.head_sym(id), Some(s) if sig.is_defined(s))
    }

    /// The fully-applied constructor view: `Some((k, args))` when the head is
    /// a constructor applied to exactly as many arguments as its arity — the
    /// id-level counterpart of [`Term::as_constructor`].
    pub fn as_constructor(&self, id: TermId, sig: &Signature) -> Option<(SymId, &[TermId])> {
        let s = self.head_sym(id)?;
        if sig.is_constructor(s) && sig.constructor_arity(s) == self.args(id).len() {
            Some((s, self.args(id)))
        } else {
            None
        }
    }

    /// The free variables of the term, sorted ascending (cached — computed
    /// once when the node was interned).
    pub fn vars(&self, id: TermId) -> &[VarId] {
        &self.nodes[id.index()].vars
    }

    /// Collects the free variables of the term into `acc` (from the cached
    /// per-node set — no traversal).
    pub fn collect_vars(&self, id: TermId, acc: &mut BTreeSet<VarId>) {
        acc.extend(self.nodes[id.index()].vars.iter().copied());
    }

    /// Whether the variable occurs in the term (binary search over the
    /// cached sorted variable set).
    pub fn contains_var(&self, id: TermId, v: VarId) -> bool {
        self.nodes[id.index()].vars.binary_search(&v).is_ok()
    }

    /// Whether every free variable of `sub` also occurs in `sup` — a
    /// two-pointer merge over the cached sorted sets, no allocation.
    pub fn vars_subset_of(&self, sub: TermId, sup: TermId) -> bool {
        let a = &self.nodes[sub.index()].vars;
        let b = &self.nodes[sup.index()].vars;
        let mut j = 0;
        'outer: for v in a.iter() {
            while j < b.len() {
                match b[j].cmp(v) {
                    std::cmp::Ordering::Less => j += 1,
                    std::cmp::Ordering::Equal => continue 'outer,
                    std::cmp::Ordering::Greater => return false,
                }
            }
            return false;
        }
        true
    }

    /// Extends the spine of `id` with further argument ids.
    pub fn apply_args(&mut self, id: TermId, extra: &[TermId]) -> TermId {
        if extra.is_empty() {
            return id;
        }
        let n = &self.nodes[id.index()];
        let head = n.head;
        let mut args: Vec<TermId> = n.args.to_vec();
        args.extend_from_slice(extra);
        self.node(head, args)
    }

    /// All `(position, subterm)` pairs in preorder (the term itself first).
    ///
    /// Positions address the *tree* reading of the term: shared ids appear
    /// once per occurrence, exactly like [`Term::positions`].
    pub fn positions(&self, id: TermId) -> Vec<(Position, TermId)> {
        let mut out = Vec::with_capacity(self.size(id));
        let mut stack = vec![(Position::root(), id)];
        while let Some((pos, t)) = stack.pop() {
            let n = &self.nodes[t.index()];
            for (i, &a) in n.args.iter().enumerate().rev() {
                stack.push((pos.child(i as u32), a));
            }
            out.push((pos, t));
        }
        out
    }

    /// The subterm at a position, if the position is valid.
    pub fn at(&self, id: TermId, pos: &Position) -> Option<TermId> {
        let mut cur = id;
        for &i in pos.indices() {
            cur = *self.nodes[cur.index()].args.get(i as usize)?;
        }
        Some(cur)
    }

    /// Replaces the subterm at a position, rebuilding (and re-interning)
    /// only the spine above it.
    pub fn replace_at(
        &mut self,
        id: TermId,
        pos: &Position,
        replacement: TermId,
    ) -> Option<TermId> {
        self.replace_rec(id, pos.indices(), replacement)
    }

    fn replace_rec(&mut self, id: TermId, path: &[u32], replacement: TermId) -> Option<TermId> {
        match path.split_first() {
            None => Some(replacement),
            Some((&i, rest)) => {
                let n = &self.nodes[id.index()];
                let head = n.head;
                let mut args: Vec<TermId> = n.args.to_vec();
                let slot = args.get_mut(i as usize)?;
                *slot = self.replace_rec(*slot, rest, replacement)?;
                Some(self.node(head, args))
            }
        }
    }

    /// Applies a variable→id substitution, sharing work across repeated
    /// subterms via a per-call memo (the result of substituting a given
    /// node is computed once even when the node occurs many times).
    /// Subterms that contain no variable bound by `theta` are returned
    /// as they are, without a walk.
    pub fn subst(&mut self, id: TermId, theta: &IdSubst) -> TermId {
        if theta.is_empty() {
            return id;
        }
        let mut memo = HashMap::new();
        self.subst_memo(id, theta, &mut memo)
    }

    fn subst_memo(
        &mut self,
        id: TermId,
        theta: &IdSubst,
        memo: &mut HashMap<TermId, TermId>,
    ) -> TermId {
        // A subterm none of whose variables θ binds is its own image (ground
        // subterms included): hash-consing would rebuild exactly `id`.
        if self.vars(id).iter().all(|&v| theta.get(v).is_none()) {
            return id;
        }
        if let Some(&done) = memo.get(&id) {
            return done;
        }
        let n = &self.nodes[id.index()];
        let head = n.head;
        let args: Vec<TermId> = n.args.to_vec();
        let new_args: Vec<TermId> = args
            .iter()
            .map(|&a| self.subst_memo(a, theta, memo))
            .collect();
        let out = match head {
            Head::Var(v) => match theta.get(v) {
                // Splice the binding's spine, appending the instantiated
                // arguments (the applicative reading, as in `Subst::apply`).
                Some(bound) => self.apply_args(bound, &new_args),
                None => self.node(head, new_args),
            },
            Head::Sym(_) => self.node(head, new_args),
        };
        memo.insert(id, out);
        out
    }

    /// Matches `pattern` against `subject` at the id level, returning `θ`
    /// with `pattern·θ = subject` if one exists. Mirrors
    /// [`crate::match_term`], including the applied-pattern-variable prefix
    /// extension.
    pub fn match_terms(&mut self, pattern: TermId, subject: TermId) -> Option<IdSubst> {
        let mut theta = IdSubst::new();
        if self.match_into(pattern, subject, &mut theta) {
            Some(theta)
        } else {
            None
        }
    }

    fn match_into(&mut self, pattern: TermId, subject: TermId, theta: &mut IdSubst) -> bool {
        // Ground patterns match exactly themselves: id equality decides.
        if self.is_ground(pattern) {
            return pattern == subject;
        }
        let (phead, pargs_len) = {
            let n = &self.nodes[pattern.index()];
            (n.head, n.args.len())
        };
        match phead {
            Head::Var(v) => {
                let m = self.args(subject).len();
                if m < pargs_len {
                    return false;
                }
                let split = m - pargs_len;
                let prefix = if split == self.args(subject).len() {
                    subject
                } else {
                    let shead = self.head(subject);
                    let pre: Vec<TermId> = self.args(subject)[..split].to_vec();
                    self.node(shead, pre)
                };
                match theta.get(v) {
                    Some(bound) if bound != prefix => return false,
                    Some(_) => {}
                    None => theta.insert(v, prefix),
                }
                for k in 0..pargs_len {
                    let p = self.args(pattern)[k];
                    let s = self.args(subject)[split + k];
                    if !self.match_into(p, s, theta) {
                        return false;
                    }
                }
                true
            }
            Head::Sym(_) => {
                if self.head(subject) != phead || self.args(subject).len() != pargs_len {
                    return false;
                }
                for k in 0..pargs_len {
                    let p = self.args(pattern)[k];
                    let s = self.args(subject)[k];
                    if !self.match_into(p, s, theta) {
                        return false;
                    }
                }
                true
            }
        }
    }

    /// Encodes the term into the flat canonical integer sequence used for
    /// α-invariant keys; identical to [`Term::encode_canonical`].
    pub fn encode_canonical(
        &self,
        id: TermId,
        rename: &mut BTreeMap<VarId, u32>,
        out: &mut Vec<u32>,
    ) {
        let n = &self.nodes[id.index()];
        match n.head {
            Head::Var(v) => {
                let next = rename.len() as u32;
                let nn = *rename.entry(v).or_insert(next);
                out.push(0);
                out.push(nn);
            }
            Head::Sym(s) => {
                out.push(1);
                out.push(s.index() as u32);
            }
        }
        out.push(n.args.len() as u32);
        for &a in n.args.iter() {
            self.encode_canonical(a, rename, out);
        }
    }

    /// The α- and orientation-invariant key of the equation `a ≈ b`,
    /// agreeing with [`crate::Equation::canonical_key`] on the resolved
    /// terms.
    pub fn canonical_key(&self, a: TermId, b: TermId) -> CanonKey {
        let encode = |x: TermId, y: TermId| {
            let mut rename = BTreeMap::new();
            let mut out = Vec::new();
            self.encode_canonical(x, &mut rename, &mut out);
            out.push(u32::MAX); // separator
            self.encode_canonical(y, &mut rename, &mut out);
            out
        };
        let fwd = encode(a, b);
        let bwd = encode(b, a);
        CanonKey::from_words(fwd.min(bwd))
    }
}

/// A substitution over interned terms: a finite map `VarId → TermId`.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct IdSubst {
    map: BTreeMap<VarId, TermId>,
}

impl IdSubst {
    /// The empty (identity) substitution.
    pub fn new() -> IdSubst {
        IdSubst::default()
    }

    /// The singleton substitution `[t/v]`.
    pub fn singleton(v: VarId, t: TermId) -> IdSubst {
        let mut s = IdSubst::new();
        s.insert(v, t);
        s
    }

    /// Binds `v` to `t`, replacing any previous binding.
    pub fn insert(&mut self, v: VarId, t: TermId) {
        self.map.insert(v, t);
    }

    /// The binding of `v`, if any.
    pub fn get(&self, v: VarId) -> Option<TermId> {
        self.map.get(&v).copied()
    }

    /// Whether the substitution is the identity.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The number of bindings.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Iterates over the bindings in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (VarId, TermId)> + '_ {
        self.map.iter().map(|(v, t)| (*v, *t))
    }

    /// Resolves every binding into an owned [`crate::Subst`].
    pub fn resolve(&self, store: &TermStore) -> crate::Subst {
        self.iter().map(|(v, t)| (v, store.resolve(t))).collect()
    }
}

impl FromIterator<(VarId, TermId)> for IdSubst {
    fn from_iter<I: IntoIterator<Item = (VarId, TermId)>>(iter: I) -> IdSubst {
        IdSubst {
            map: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::NatList;
    use crate::{match_term, Equation, Subst, VarStore};

    #[test]
    fn interning_is_idempotent_and_shares() {
        let f = NatList::new();
        let mut store = TermStore::new();
        let t = Term::apps(f.add, vec![f.num(2), f.num(2)]);
        let a = store.intern(&t);
        let b = store.intern(&t);
        assert_eq!(a, b);
        // S Z and Z are shared between the two identical arguments: the
        // store holds Z, S Z, S (S Z), add _ _ — four nodes, not seven.
        assert_eq!(store.len(), 4);
        assert_eq!(store.resolve(a), t);
    }

    #[test]
    fn metadata_matches_owned_term() {
        let f = NatList::new();
        let mut vars = VarStore::new();
        let x = vars.fresh("x", f.nat_ty());
        let mut store = TermStore::new();
        let t = Term::apps(f.add, vec![Term::var(x), f.num(3)]);
        let id = store.intern(&t);
        assert_eq!(store.size(id), t.size());
        assert_eq!(store.depth(id), t.depth());
        assert_eq!(store.is_ground(id), t.is_ground());
        assert!(store.contains_var(id, x));
        let ground = store.intern(&f.num(3));
        assert!(store.is_ground(ground));
        assert!(!store.contains_var(ground, x));
    }

    #[test]
    fn positions_and_replace_agree_with_owned() {
        let f = NatList::new();
        let mut vars = VarStore::new();
        let x = vars.fresh("x", f.nat_ty());
        let mut store = TermStore::new();
        let t = Term::apps(f.add, vec![f.s(Term::var(x)), f.num(1)]);
        let id = store.intern(&t);
        let owned: Vec<_> = t.positions().map(|(p, s)| (p, s.clone())).collect();
        let interned = store.positions(id);
        assert_eq!(owned.len(), interned.len());
        for ((p1, s1), (p2, s2)) in owned.iter().zip(&interned) {
            assert_eq!(p1, p2);
            assert_eq!(&store.resolve(*s2), s1);
        }
        let z = store.sym(f.zero);
        for (pos, _) in &interned {
            let replaced = store.replace_at(id, pos, z).unwrap();
            let expected = t.replace_at(pos, Term::sym(f.zero)).unwrap();
            assert_eq!(store.resolve(replaced), expected);
        }
    }

    #[test]
    fn subst_agrees_with_owned_subst() {
        let f = NatList::new();
        let mut vars = VarStore::new();
        let x = vars.fresh("x", f.nat_ty());
        let y = vars.fresh("y", f.nat_ty());
        let mut store = TermStore::new();
        let t = Term::apps(f.add, vec![Term::var(x), f.s(Term::var(y))]);
        let id = store.intern(&t);
        let bound = f.num(2);
        let theta_owned = Subst::singleton(x, bound.clone());
        let bid = store.intern(&bound);
        let theta = IdSubst::singleton(x, bid);
        let out = store.subst(id, &theta);
        assert_eq!(store.resolve(out), theta_owned.apply(&t));
    }

    #[test]
    fn subst_splices_applied_variable_heads() {
        let f = NatList::new();
        let mut vars = VarStore::new();
        let g = vars.fresh("g", crate::Type::arrow(f.nat_ty(), f.nat_ty()));
        let x = vars.fresh("x", f.nat_ty());
        let mut store = TermStore::new();
        let t = Term::var_apps(g, vec![Term::var(x)]);
        let id = store.intern(&t);
        let bound = Term::apps(f.add, vec![Term::sym(f.zero)]);
        let bid = store.intern(&bound);
        let out = store.subst(id, &IdSubst::singleton(g, bid));
        assert_eq!(
            store.resolve(out),
            Term::apps(f.add, vec![Term::sym(f.zero), Term::var(x)])
        );
    }

    #[test]
    fn match_terms_agrees_with_owned_matching() {
        let f = NatList::new();
        let mut vars = VarStore::new();
        let x = vars.fresh("x", f.nat_ty());
        let y = vars.fresh("y", f.nat_ty());
        let mut store = TermStore::new();
        let pat = Term::apps(f.add, vec![Term::var(x), Term::var(y)]);
        let subj = Term::apps(f.add, vec![f.num(1), f.num(2)]);
        let pid = store.intern(&pat);
        let sid = store.intern(&subj);
        let theta = store.match_terms(pid, sid).unwrap();
        let owned = match_term(&pat, &subj).unwrap();
        assert_eq!(theta.resolve(&store), owned);
        assert_eq!(store.subst(pid, &theta), sid);
        // Non-matching pair fails in both worlds.
        let clash = store.intern(&Term::sym(f.nil));
        assert!(store.match_terms(pid, clash).is_none());
    }

    #[test]
    fn match_terms_applied_variable_prefix() {
        let f = NatList::new();
        let mut vars = VarStore::new();
        let g = vars.fresh("g", crate::Type::arrow(f.nat_ty(), f.nat_ty()));
        let x = vars.fresh("x", f.nat_ty());
        let mut store = TermStore::new();
        let pat = Term::var_apps(g, vec![Term::var(x)]);
        let subj = Term::apps(f.add, vec![Term::sym(f.zero), f.num(1)]);
        let pid = store.intern(&pat);
        let sid = store.intern(&subj);
        let theta = store.match_terms(pid, sid).unwrap();
        assert_eq!(
            store.resolve(theta.get(g).unwrap()),
            Term::apps(f.add, vec![Term::sym(f.zero)])
        );
        assert_eq!(store.subst(pid, &theta), sid);
    }

    #[test]
    fn canonical_key_agrees_with_equation() {
        let f = NatList::new();
        let mut vars = VarStore::new();
        let x = vars.fresh("x", f.nat_ty());
        let y = vars.fresh("y", f.nat_ty());
        let mut store = TermStore::new();
        let l = Term::apps(f.add, vec![Term::var(x), Term::var(y)]);
        let r = Term::apps(f.add, vec![Term::var(y), Term::var(x)]);
        let lid = store.intern(&l);
        let rid = store.intern(&r);
        let eq = Equation::new(l, r);
        assert_eq!(store.canonical_key(lid, rid), eq.canonical_key());
        assert_eq!(store.canonical_key(rid, lid), eq.canonical_key());
    }
}
