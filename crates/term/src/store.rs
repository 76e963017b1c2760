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
//! The hash-consing table and the substitution memo are keyed by ids, so
//! they hash with the seeded multiply-rotate [`crate::IdHasher`] rather
//! than SipHash. A node is looked up by its flat key (its head, then its
//! argument ids) written into a buffer the store keeps, so interning a
//! node that exists allocates nothing; only a new node allocates. Equations
//! are compared up to renaming and orientation on ids too
//! ([`TermStore::same_equation`]), without building canonical keys.
//!
//! The owned [`Term`] API remains the boundary representation: the frontend
//! lowers to owned terms, pretty-printing and the independent proof checker
//! consume owned terms, and [`TermStore::intern`]/[`TermStore::resolve`]
//! convert at the edges. Ids are only meaningful relative to the store that
//! produced them; stores grow monotonically, so ids are never invalidated.

use std::collections::{BTreeMap, BTreeSet};

use crate::hash::IdHashMap;
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
    /// Each node's id by its flat key: the two words of its head (see
    /// [`head_words`]), then its argument ids.
    table: IdHashMap<Box<[u32]>, TermId>,
    /// The flat key of the node being interned. Looking it up borrows it,
    /// so a node that exists is found without an allocation.
    key: Vec<u32>,
    /// [`TermStore::subst`]'s memo table, cleared on each call and kept
    /// for its capacity.
    subst_memo: IdHashMap<TermId, TermId>,
    /// [`TermStore::subst`]'s stack of instantiated arguments.
    subst_args: Vec<TermId>,
}

/// The two key words of a head: a tag, then the variable's or symbol's
/// index.
fn head_words(head: Head) -> [u32; 2] {
    match head {
        Head::Var(v) => [0, v.index() as u32],
        Head::Sym(s) => [1, s.index() as u32],
    }
}

/// The subterm occurrences of a term in preorder, the term itself first,
/// as [`TermStore::preorder`] lists them. Each occurrence records the
/// preorder index of its parent and its argument index there, so the
/// [`Position`] of an occurrence is built only when it is asked for.
#[derive(Clone, Debug, Default)]
pub struct Preorder {
    /// `(subterm, parent index, argument index)`; the root, at index 0,
    /// has neither and records zeros.
    occurrences: Vec<(TermId, u32, u32)>,
}

impl Preorder {
    /// The number of occurrences, which is the term's size.
    pub fn len(&self) -> usize {
        self.occurrences.len()
    }

    /// Whether there are no occurrences (only for the default value).
    pub fn is_empty(&self) -> bool {
        self.occurrences.is_empty()
    }

    /// The subterm at occurrence `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn term(&self, i: usize) -> TermId {
        self.occurrences[i].0
    }

    /// The subterms in preorder.
    pub fn terms(&self) -> impl Iterator<Item = TermId> + '_ {
        self.occurrences.iter().map(|&(t, _, _)| t)
    }

    /// The position of occurrence `i`, read off the parent links.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn position(&self, mut i: usize) -> Position {
        let mut path = Vec::new();
        while i > 0 {
            let (_, parent, arg) = self.occurrences[i];
            path.push(arg);
            i = parent as usize;
        }
        path.reverse();
        Position::from_indices(path)
    }
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
    /// Finding a node that exists, by far the common case in a warmed-up
    /// prover, allocates nothing: the key is written into a buffer the
    /// store keeps and looked up borrowed.
    pub fn node(&mut self, head: Head, args: &[TermId]) -> TermId {
        self.start_key(head);
        self.key.extend(args.iter().map(|a| a.0));
        self.intern_key(head)
    }

    /// Starts the key of a node headed by `head` in the key buffer.
    fn start_key(&mut self, head: Head) {
        self.key.clear();
        self.key.extend_from_slice(&head_words(head));
    }

    /// Starts the key of a node with the head of `id` and its first `n`
    /// arguments, and returns the head.
    fn start_spine_key(&mut self, id: TermId, n: usize) -> Head {
        let head = self.head(id);
        self.start_key(head);
        self.key
            .extend(self.nodes[id.index()].args[..n].iter().map(|a| a.0));
        head
    }

    /// Interns the node headed by `head` whose whole key the key buffer
    /// holds.
    fn intern_key(&mut self, head: Head) -> TermId {
        if let Some(&id) = self.table.get(self.key.as_slice()) {
            return id;
        }
        let args: Box<[TermId]> = self.key[2..].iter().map(|&a| TermId(a)).collect();
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
        self.table.insert(self.key.as_slice().into(), id);
        id
    }

    /// Interns the bare variable `v`.
    pub fn var(&mut self, v: VarId) -> TermId {
        self.node(Head::Var(v), &[])
    }

    /// Interns the bare symbol `s`.
    pub fn sym(&mut self, s: SymId) -> TermId {
        self.node(Head::Sym(s), &[])
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
                let id = self.node(f.t.head(), &f.args);
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
        let head = self.start_spine_key(id, self.args(id).len());
        self.key.extend(extra.iter().map(|a| a.0));
        self.intern_key(head)
    }

    /// Every subterm occurrence of the term in preorder, the term itself
    /// first.
    ///
    /// Occurrences address the *tree* reading of the term: shared ids
    /// appear once per occurrence, exactly like [`Term::positions`]. The
    /// listing is one vector filled in one pass: an occurrence's first
    /// argument follows it, and each further argument follows the cached
    /// size of the one before.
    pub fn preorder(&self, id: TermId) -> Preorder {
        let mut occurrences = vec![(id, 0, 0); self.size(id)];
        for i in 0..occurrences.len() {
            let mut next = i + 1;
            for (k, &a) in self.args(occurrences[i].0).iter().enumerate() {
                occurrences[next] = (a, i as u32, k as u32);
                next += self.size(a);
            }
        }
        Preorder { occurrences }
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
        let Some((&i, rest)) = path.split_first() else {
            return Some(replacement);
        };
        let child = *self.nodes[id.index()].args.get(i as usize)?;
        let child = self.replace_rec(child, rest, replacement)?;
        let head = self.start_spine_key(id, self.args(id).len());
        self.key[2 + i as usize] = child.0;
        Some(self.intern_key(head))
    }

    /// Applies a variable→id substitution, sharing work across repeated
    /// subterms via a memo table (the result of substituting a given node
    /// is computed once even when the node occurs many times). The table
    /// and the stack of instantiated arguments are the store's own,
    /// emptied on each call, so a call allocates only while they grow.
    /// Subterms that contain no variable bound by `theta` are returned
    /// as they are, without a walk.
    pub fn subst(&mut self, id: TermId, theta: &IdSubst) -> TermId {
        if theta.is_empty() {
            return id;
        }
        let mut memo = std::mem::take(&mut self.subst_memo);
        let mut args = std::mem::take(&mut self.subst_args);
        memo.clear();
        args.clear();
        let out = self.subst_rec(id, theta, &mut memo, &mut args);
        self.subst_memo = memo;
        self.subst_args = args;
        out
    }

    fn subst_rec(
        &mut self,
        id: TermId,
        theta: &IdSubst,
        memo: &mut IdHashMap<TermId, TermId>,
        args: &mut Vec<TermId>,
    ) -> TermId {
        // A subterm none of whose variables θ binds is its own image (ground
        // subterms included): hash-consing would rebuild exactly `id`.
        if self.vars(id).iter().all(|&v| theta.get(v).is_none()) {
            return id;
        }
        if let Some(&done) = memo.get(&id) {
            return done;
        }
        // The instantiated arguments go on the shared stack above `base`,
        // and the stack is cut back to `base` once the node is built.
        let base = args.len();
        for k in 0..self.nodes[id.index()].args.len() {
            let a = self.nodes[id.index()].args[k];
            let image = self.subst_rec(a, theta, memo, args);
            args.push(image);
        }
        let head = self.nodes[id.index()].head;
        let out = match head {
            Head::Var(v) => match theta.get(v) {
                // Splice the binding's spine, appending the instantiated
                // arguments (the applicative reading, as in `Subst::apply`).
                Some(bound) => self.apply_args(bound, &args[base..]),
                None => self.node(head, &args[base..]),
            },
            Head::Sym(_) => self.node(head, &args[base..]),
        };
        args.truncate(base);
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
                let prefix = if split == m {
                    subject
                } else {
                    let shead = self.start_spine_key(subject, split);
                    self.intern_key(shead)
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

    /// Whether the equations `a ≈ b` and `c ≈ d` are equal up to a
    /// bijective renaming of their variables, in either orientation.
    ///
    /// This is equality of the α- and orientation-invariant canonical keys
    /// of the two equations, decided on ids without building a key: equal
    /// id pairs agree at once, pairs whose cached sizes differ disagree at
    /// once, and otherwise one simultaneous walk per orientation grows the
    /// renaming in a small vector. Variable types play no part, as in the
    /// key.
    pub fn same_equation(&self, a: TermId, b: TermId, c: TermId, d: TermId) -> bool {
        if (a, b) == (c, d) || (a, b) == (d, c) {
            return true;
        }
        let mut rename = Vec::new();
        for (c, d) in [(c, d), (d, c)] {
            rename.clear();
            if self.size(a) == self.size(c)
                && self.size(b) == self.size(d)
                && self.alpha_walk(a, c, &mut rename)
                && self.alpha_walk(b, d, &mut rename)
            {
                return true;
            }
        }
        false
    }

    /// Walks `s` and `t` together, extending `rename`, a bijection between
    /// the variables of the one side and those of the other; `false` when
    /// no extension makes `t` the renamed `s`.
    fn alpha_walk(&self, s: TermId, t: TermId, rename: &mut Vec<(VarId, VarId)>) -> bool {
        let (ns, nt) = (&self.nodes[s.index()], &self.nodes[t.index()]);
        if ns.size != nt.size || ns.args.len() != nt.args.len() {
            return false;
        }
        // A ground term is a renaming only of itself.
        if ns.ground || nt.ground {
            return s == t;
        }
        match (ns.head, nt.head) {
            (Head::Sym(f), Head::Sym(g)) if f == g => {}
            (Head::Var(u), Head::Var(v)) => match rename.iter().find(|&&(x, y)| x == u || y == v) {
                Some(&pair) if pair != (u, v) => return false,
                Some(_) => {}
                None => rename.push((u, v)),
            },
            _ => return false,
        }
        ns.args
            .iter()
            .zip(nt.args.iter())
            .all(|(&x, &y)| self.alpha_walk(x, y, rename))
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
    use crate::{match_term, Subst, VarStore};

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
        let preorder = store.preorder(id);
        assert_eq!(owned.len(), preorder.len());
        let z = store.sym(f.zero);
        for (i, (pos, sub)) in owned.iter().enumerate() {
            assert_eq!(&preorder.position(i), pos);
            assert_eq!(&store.resolve(preorder.term(i)), sub);
            let replaced = store.replace_at(id, pos, z).unwrap();
            let expected = t.replace_at(pos, Term::sym(f.zero)).unwrap();
            assert_eq!(store.resolve(replaced), expected);
        }
    }

    #[test]
    fn node_finds_an_existing_node_without_growing() {
        let f = NatList::new();
        let mut store = TermStore::new();
        let id = store.intern(&Term::apps(f.add, vec![f.num(2), f.num(1)]));
        let len = store.len();
        let args = store.args(id).to_vec();
        assert_eq!(store.node(store.head(id), &args), id);
        assert_eq!(store.len(), len);
        // A bare variable and a bare symbol under the same index are
        // different nodes.
        let v = store.var(VarId::from_index(f.zero.index()));
        assert_ne!(v, store.sym(f.zero));
        assert_eq!(store.len(), len + 1);
    }

    #[test]
    fn consecutive_substs_do_not_reuse_stale_images() {
        let f = NatList::new();
        let mut vars = VarStore::new();
        let x = vars.fresh("x", f.nat_ty());
        let y = vars.fresh("y", f.nat_ty());
        let mut store = TermStore::new();
        // `S x` occurs in both terms, and twice in the first.
        let sx = f.s(Term::var(x));
        let t = Term::apps(f.add, vec![sx.clone(), sx.clone()]);
        let u = Term::apps(f.add, vec![sx, Term::var(y)]);
        let (tid, uid) = (store.intern(&t), store.intern(&u));
        for (term, id, bound) in [
            (&t, tid, f.num(2)),
            (&u, uid, f.num(0)),
            (&t, tid, Term::var(y)),
        ] {
            let theta = IdSubst::singleton(x, store.intern(&bound));
            let out = store.subst(id, &theta);
            assert_eq!(store.resolve(out), Subst::singleton(x, bound).apply(term));
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
    fn same_equation_decides_alpha_variants() {
        let f = NatList::new();
        let mut vars = VarStore::new();
        let x = vars.fresh("x", f.nat_ty());
        let y = vars.fresh("y", f.nat_ty());
        let z = vars.fresh("z", f.nat_ty());
        let mut store = TermStore::new();
        let mut id = |t: Term| store.intern(&t);
        let add = |a: VarId, b: VarId| Term::apps(f.add, vec![Term::var(a), Term::var(b)]);
        let (xy, yx, yz, zy, xx) = (
            id(add(x, y)),
            id(add(y, x)),
            id(add(y, z)),
            id(add(z, y)),
            id(add(x, x)),
        );
        let (sx, sy) = (id(f.s(Term::var(x))), id(f.s(Term::var(y))));
        let (vx, vy) = (id(Term::var(x)), id(Term::var(y)));
        // Identical pairs, flipped pairs and renamed pairs are the same
        // equation, whichever argument comes first.
        for (a, b, c, d) in [
            (xy, yx, xy, yx),
            (xy, yx, yx, xy),
            (xy, yx, yz, zy),
            (vx, sx, sy, vy),
        ] {
            assert!(store.same_equation(a, b, c, d));
            assert!(store.same_equation(c, d, a, b));
        }
        // The renaming must be a bijection across both sides: `add x y`
        // is not `add x x`, and `x ≈ S x` is not `x ≈ S y`.
        for (a, b, c, d) in [(xy, vx, xx, vx), (vx, sx, vx, sy), (xy, yx, xy, xy)] {
            assert!(!store.same_equation(a, b, c, d));
            assert!(!store.same_equation(c, d, a, b));
        }
    }
}
