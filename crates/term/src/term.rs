//! Applicative terms in spine form.
//!
//! A term `M, N ::= x | f ∈ Σ | M N` (§2) is represented as a head (variable
//! or symbol) applied to a vector of argument terms. Left-associated
//! application `((f a) b) c` is the spine `f [a, b, c]`.

use std::collections::BTreeSet;

use crate::pretty::TermDisplay;
use crate::signature::{Signature, SymId, SymKind};
use crate::store::{TermId, TermStore};
use crate::types::{TyUnifier, Type, TypeError};
use crate::var::{VarId, VarStore};

/// The head of a spine-form term: a variable or a function symbol.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Head {
    /// A term variable.
    Var(VarId),
    /// A function symbol (constructor or defined).
    Sym(SymId),
}

/// A term in spine form: `head` applied to `args`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Term {
    head: Head,
    args: Vec<Term>,
}

impl Term {
    /// The bare variable `x`.
    pub fn var(v: VarId) -> Term {
        Term {
            head: Head::Var(v),
            args: Vec::new(),
        }
    }

    /// The bare symbol `f`.
    pub fn sym(s: SymId) -> Term {
        Term {
            head: Head::Sym(s),
            args: Vec::new(),
        }
    }

    /// The symbol `f` applied to `args`.
    pub fn apps(s: SymId, args: Vec<Term>) -> Term {
        Term {
            head: Head::Sym(s),
            args,
        }
    }

    /// The variable `v` applied to `args` (e.g. `f x` where `f` is a
    /// higher-order variable).
    pub fn var_apps(v: VarId, args: Vec<Term>) -> Term {
        Term {
            head: Head::Var(v),
            args,
        }
    }

    /// A term from an explicit head and arguments.
    pub fn from_parts(head: Head, args: Vec<Term>) -> Term {
        Term { head, args }
    }

    /// Binary application `M N`, flattening into the spine.
    pub fn app(mut fun: Term, arg: Term) -> Term {
        fun.args.push(arg);
        fun
    }

    /// Applies `self` to further arguments, extending the spine.
    pub fn apply_args(mut self, extra: impl IntoIterator<Item = Term>) -> Term {
        self.args.extend(extra);
        self
    }

    /// The head of the term.
    pub fn head(&self) -> Head {
        self.head
    }

    /// The arguments of the term.
    pub fn args(&self) -> &[Term] {
        &self.args
    }

    /// Mutable access to the arguments (used by in-place rewriting).
    pub fn args_mut(&mut self) -> &mut [Term] {
        &mut self.args
    }

    /// Deconstructs the term into head and arguments.
    pub fn into_parts(self) -> (Head, Vec<Term>) {
        (self.head, self.args)
    }

    /// The head symbol, if the head is a symbol.
    pub fn head_sym(&self) -> Option<SymId> {
        match self.head {
            Head::Sym(s) => Some(s),
            Head::Var(_) => None,
        }
    }

    /// The head variable, if the head is a variable.
    pub fn head_var(&self) -> Option<VarId> {
        match self.head {
            Head::Var(v) => Some(v),
            Head::Sym(_) => None,
        }
    }

    /// Whether the term is a bare variable.
    pub fn as_var(&self) -> Option<VarId> {
        match self.head {
            Head::Var(v) if self.args.is_empty() => Some(v),
            _ => None,
        }
    }

    /// Whether the head is a constructor symbol.
    pub fn is_constructor_headed(&self, sig: &Signature) -> bool {
        matches!(self.head_sym(), Some(s) if sig.is_constructor(s))
    }

    /// Whether the head is a defined symbol.
    pub fn is_defined_headed(&self, sig: &Signature) -> bool {
        matches!(self.head_sym(), Some(s) if sig.is_defined(s))
    }

    /// The number of nodes in the term (head counts as one node per
    /// application spine).
    pub fn size(&self) -> usize {
        1 + self.args.iter().map(Term::size).sum::<usize>()
    }

    /// The maximum nesting depth.
    pub fn depth(&self) -> usize {
        1 + self.args.iter().map(Term::depth).max().unwrap_or(0)
    }

    /// Whether the term contains no variables.
    pub fn is_ground(&self) -> bool {
        self.head_var().is_none() && self.args.iter().all(Term::is_ground)
    }

    /// Collects the free variables into `acc`.
    pub fn collect_vars(&self, acc: &mut BTreeSet<VarId>) {
        if let Head::Var(v) = self.head {
            acc.insert(v);
        }
        for a in &self.args {
            a.collect_vars(acc);
        }
    }

    /// The set of free variables.
    pub fn vars(&self) -> BTreeSet<VarId> {
        let mut acc = BTreeSet::new();
        self.collect_vars(&mut acc);
        acc
    }

    /// Whether the variable occurs in the term.
    pub fn contains_var(&self, v: VarId) -> bool {
        match self.head {
            Head::Var(w) if w == v => true,
            _ => self.args.iter().any(|a| a.contains_var(v)),
        }
    }

    /// Whether the symbol occurs anywhere in the term.
    pub fn contains_sym(&self, s: SymId) -> bool {
        match self.head {
            Head::Sym(t) if t == s => true,
            _ => self.args.iter().any(|a| a.contains_sym(s)),
        }
    }

    /// Whether any defined symbol occurs in the term (patterns in rewrite
    /// rules must not contain defined symbols, §2).
    pub fn contains_defined(&self, sig: &Signature) -> bool {
        match self.head {
            Head::Sym(s) if sig.is_defined(s) => true,
            _ => self.args.iter().any(|a| a.contains_defined(sig)),
        }
    }

    /// Whether `self` is a subterm of `other` (`self ⊴ other`).
    pub fn is_subterm_of(&self, other: &Term) -> bool {
        self == other || other.args.iter().any(|a| self.is_subterm_of(a))
    }

    /// Whether `self` is a *proper* subterm of `other` (`self ◁ other`).
    pub fn is_proper_subterm_of(&self, other: &Term) -> bool {
        other.args.iter().any(|a| self.is_subterm_of(a))
    }

    /// Iterates over all subterms in preorder (the term itself first).
    pub fn subterms(&self) -> impl Iterator<Item = &Term> {
        let mut stack = vec![self];
        std::iter::from_fn(move || {
            let t = stack.pop()?;
            for a in t.args.iter().rev() {
                stack.push(a);
            }
            Some(t)
        })
    }

    /// Infers the type of the term. Polymorphic symbols are instantiated
    /// with fresh metavariables from `uni`, and each argument is applied
    /// through [`TyUnifier::apply`]; the result is resolved once, here.
    ///
    /// # Errors
    ///
    /// Returns a [`TypeError`] if the term is ill-typed with respect to the
    /// signature and the variable store.
    pub fn infer_type(
        &self,
        sig: &Signature,
        vars: &VarStore,
        uni: &mut TyUnifier,
    ) -> Result<Type, TypeError> {
        let ty = self.infer_unresolved(sig, vars, uni)?;
        Ok(uni.resolve(&ty))
    }

    fn infer_unresolved(
        &self,
        sig: &Signature,
        vars: &VarStore,
        uni: &mut TyUnifier,
    ) -> Result<Type, TypeError> {
        let mut cur = match self.head {
            Head::Var(v) => vars.ty(v).clone(),
            Head::Sym(s) => sig.sym(s).scheme().instantiate(&mut || uni.fresh()),
        };
        for arg in &self.args {
            let arg_ty = arg.infer_unresolved(sig, vars, uni)?;
            cur = uni.apply(cur, arg_ty)?;
        }
        Ok(cur)
    }

    /// The fully-applied constructor view: `Some((k, args))` when the head is
    /// a constructor applied to exactly as many arguments as its arity.
    pub fn as_constructor<'a>(&'a self, sig: &Signature) -> Option<(SymId, &'a [Term])> {
        let s = self.head_sym()?;
        match sig.sym(s).kind() {
            SymKind::Constructor(_) if sig.constructor_arity(s) == self.args.len() => {
                Some((s, &self.args))
            }
            _ => None,
        }
    }

    /// Renders the term against a signature and variable store.
    pub fn display<'a>(&'a self, sig: &'a Signature, vars: &'a VarStore) -> TermDisplay<'a> {
        TermDisplay::new(self, sig, vars)
    }

    /// Encodes the term into a flat integer sequence under a variable
    /// renaming, for the canonical key of the test oracle
    /// (`Equation::canonical_key`). Variables are numbered by first
    /// occurrence via `rename`.
    #[cfg(test)]
    pub(crate) fn encode_canonical(
        &self,
        rename: &mut std::collections::BTreeMap<VarId, u32>,
        out: &mut Vec<u32>,
    ) {
        match self.head {
            Head::Var(v) => {
                let next = rename.len() as u32;
                let n = *rename.entry(v).or_insert(next);
                out.push(0);
                out.push(n);
            }
            Head::Sym(s) => {
                out.push(1);
                out.push(s.index() as u32);
            }
        }
        out.push(self.args.len() as u32);
        for a in &self.args {
            a.encode_canonical(rename, out);
        }
    }
}

impl TermStore {
    /// Whether the signature alone shows that the interned term is not of
    /// arrow type: a conservative filter in front of [`Term::infer_type`]
    /// for the function-extensionality test. `true` means `infer_type` on
    /// the resolved term cannot return [`Type::Arrow`]; `false` means
    /// "unknown, infer".
    ///
    /// It walks the head's declared type (the symbol's scheme, or the
    /// variable's type) past the term's arguments:
    ///
    /// - a datatype result is not an arrow, whatever unification does;
    /// - a type-variable result that is also the declared type of argument
    ///   `i` is unified with that argument's type, so argument `i` decides
    ///   (`ite :: Bool -> a -> a -> a`);
    /// - anything else (an arrow, another type variable, or more arguments
    ///   than arrows) is unknown.
    ///
    /// It keeps no per-id answer on purpose: after backtracking, a
    /// [`VarStore`] hands a truncated variable's id to a variable of another
    /// type, so one id can change type within the life of a store.
    pub fn rules_out_arrow_type(&self, id: TermId, sig: &Signature, vars: &VarStore) -> bool {
        let mut id = id;
        loop {
            let args = self.args(id);
            let declared = match self.head(id) {
                Head::Var(v) => vars.ty(v),
                Head::Sym(s) => sig.sym(s).scheme().body(),
            };
            match declared.result_after(args.len()) {
                Some(Type::Data(..)) => return true,
                Some(result @ Type::Var(_)) => {
                    let (params, _) = declared.uncurry();
                    match params.iter().position(|&p| p == result) {
                        Some(i) => id = args[i],
                        None => return false,
                    }
                }
                _ => return false,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::NatList;

    #[test]
    fn app_flattens_spine() {
        let f = NatList::new();
        let t = Term::app(
            Term::app(Term::sym(f.add), Term::sym(f.zero)),
            Term::sym(f.zero),
        );
        assert_eq!(t.head_sym(), Some(f.add));
        assert_eq!(t.args().len(), 2);
    }

    #[test]
    fn size_and_depth() {
        let f = NatList::new();
        let mut vars = VarStore::new();
        let x = vars.fresh("x", f.nat_ty());
        // S (S x)
        let t = f.s(f.s(Term::var(x)));
        assert_eq!(t.size(), 3);
        assert_eq!(t.depth(), 3);
    }

    #[test]
    fn vars_collects_in_order() {
        let f = NatList::new();
        let mut vars = VarStore::new();
        let x = vars.fresh("x", f.nat_ty());
        let y = vars.fresh("y", f.nat_ty());
        let t = Term::apps(f.add, vec![Term::var(y), Term::var(x)]);
        let vs: Vec<_> = t.vars().into_iter().collect();
        assert_eq!(vs, vec![x, y]);
        assert!(t.contains_var(x));
    }

    #[test]
    fn subterm_order() {
        let f = NatList::new();
        let mut vars = VarStore::new();
        let x = vars.fresh("x", f.nat_ty());
        let sx = f.s(Term::var(x));
        assert!(Term::var(x).is_subterm_of(&sx));
        assert!(Term::var(x).is_proper_subterm_of(&sx));
        assert!(!sx.is_proper_subterm_of(&sx));
        assert!(sx.is_subterm_of(&sx));
    }

    #[test]
    fn subterms_preorder() {
        let f = NatList::new();
        let mut vars = VarStore::new();
        let x = vars.fresh("x", f.nat_ty());
        let y = vars.fresh("y", f.nat_ty());
        let t = Term::apps(f.add, vec![Term::var(x), f.s(Term::var(y))]);
        let sizes: Vec<usize> = t.subterms().map(Term::size).collect();
        assert_eq!(sizes, vec![4, 1, 2, 1]);
    }

    #[test]
    fn infer_type_of_add() {
        let f = NatList::new();
        let mut vars = VarStore::new();
        let x = vars.fresh("x", f.nat_ty());
        let t = Term::apps(f.add, vec![Term::var(x), Term::sym(f.zero)]);
        let mut uni = TyUnifier::new(100);
        let ty = t.infer_type(&f.sig, &vars, &mut uni).unwrap();
        assert_eq!(ty, f.nat_ty());
    }

    #[test]
    fn infer_type_partial_application() {
        let f = NatList::new();
        let vars = VarStore::new();
        let t = Term::apps(f.add, vec![Term::sym(f.zero)]);
        let mut uni = TyUnifier::new(100);
        let ty = t.infer_type(&f.sig, &vars, &mut uni).unwrap();
        assert_eq!(ty, Type::arrow(f.nat_ty(), f.nat_ty()));
    }

    #[test]
    fn infer_type_rejects_ill_typed() {
        let f = NatList::new();
        let vars = VarStore::new();
        // add Nil is ill-typed: Nil : List a, add expects Nat.
        let t = Term::apps(f.add, vec![Term::sym(f.nil)]);
        let mut uni = TyUnifier::new(100);
        assert!(t.infer_type(&f.sig, &vars, &mut uni).is_err());
    }

    #[test]
    fn infer_type_polymorphic_cons() {
        let f = NatList::new();
        let vars = VarStore::new();
        // Cons Z Nil : List Nat
        let t = Term::apps(f.cons, vec![Term::sym(f.zero), Term::sym(f.nil)]);
        let mut uni = TyUnifier::new(100);
        let ty = t.infer_type(&f.sig, &vars, &mut uni).unwrap();
        assert_eq!(ty, f.list_ty(f.nat_ty()));
    }

    #[test]
    fn rules_out_arrow_type_follows_declared_results() {
        let f = NatList::new();
        let mut vars = VarStore::new();
        let x = vars.fresh("x", f.nat_ty());
        let g = vars.fresh("g", Type::arrow(f.nat_ty(), f.nat_ty()));
        let mut store = TermStore::new();
        let mut rules_out = |t: &Term| {
            let id = store.intern(t);
            store.rules_out_arrow_type(id, &f.sig, &vars)
        };
        // Datatype results, saturated.
        assert!(rules_out(&Term::apps(
            f.add,
            vec![Term::var(x), Term::sym(f.zero)]
        )));
        assert!(rules_out(&Term::var_apps(g, vec![Term::var(x)])));
        // Partial applications are arrows: unknown.
        assert!(!rules_out(&Term::apps(f.add, vec![Term::var(x)])));
        assert!(!rules_out(&Term::var(g)));
        // `map g` returns `List a -> List b`; `Cons x Nil` returns data.
        assert!(!rules_out(&Term::apps(f.map, vec![Term::var(g)])));
        assert!(rules_out(&Term::apps(
            f.cons,
            vec![Term::var(x), Term::sym(f.nil)]
        )));
    }

    #[test]
    fn as_constructor_requires_full_application() {
        let f = NatList::new();
        let full = Term::apps(f.cons, vec![Term::sym(f.zero), Term::sym(f.nil)]);
        assert!(full.as_constructor(&f.sig).is_some());
        let partial = Term::apps(f.cons, vec![Term::sym(f.zero)]);
        assert!(partial.as_constructor(&f.sig).is_none());
        let defined = Term::apps(f.add, vec![Term::sym(f.zero), Term::sym(f.zero)]);
        assert!(defined.as_constructor(&f.sig).is_none());
    }

    #[test]
    fn encode_canonical_is_alpha_invariant() {
        let f = NatList::new();
        let mut vars = VarStore::new();
        let x = vars.fresh("x", f.nat_ty());
        let y = vars.fresh("y", f.nat_ty());
        let t1 = Term::apps(f.add, vec![Term::var(x), Term::var(x)]);
        let t2 = Term::apps(f.add, vec![Term::var(y), Term::var(y)]);
        let t3 = Term::apps(f.add, vec![Term::var(x), Term::var(y)]);
        let enc = |t: &Term| {
            let mut m = std::collections::BTreeMap::new();
            let mut out = Vec::new();
            t.encode_canonical(&mut m, &mut out);
            out
        };
        assert_eq!(enc(&t1), enc(&t2));
        assert_ne!(enc(&t1), enc(&t3));
    }

    #[test]
    fn encode_canonical_table_is_deterministic() {
        let f = NatList::new();
        let mut vars = VarStore::new();
        let x = vars.fresh("x", f.nat_ty());
        let t = Term::apps(f.add, vec![Term::var(x), f.num(1)]);
        let mut m1 = std::collections::BTreeMap::new();
        let mut o1 = Vec::new();
        t.encode_canonical(&mut m1, &mut o1);
        let mut m2 = std::collections::BTreeMap::new();
        let mut o2 = Vec::new();
        t.encode_canonical(&mut m2, &mut o2);
        assert_eq!(o1, o2);
    }
}
