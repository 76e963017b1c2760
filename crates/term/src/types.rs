//! Simple types over algebraic datatypes, with type variables for the
//! polymorphism supported by the CycleQ frontend (§6).
//!
//! Following §2 of the paper, types are `τ, σ ::= d ∈ D | τ → σ`; we extend
//! the grammar with type variables `a, b, …` and datatype parameters
//! (`List a`) so that polymorphic programs such as `map` can be expressed.
//! The *order* of a type is `ord(d) = 0` and
//! `ord(τ → σ) = max(ord(τ) + 1, ord(σ))`.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::rc::Rc;

use crate::pretty::TypeDisplay;
use crate::signature::{DataId, Signature};

/// A type variable, used both for polymorphic schemes and as a unification
/// metavariable during inference.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TyVarId(pub u32);

impl TyVarId {
    /// Renders the variable as `a`, `b`, …, `z`, `a1`, `b1`, … for display.
    pub fn display_name(self) -> String {
        let letter = (b'a' + (self.0 % 26) as u8) as char;
        let round = self.0 / 26;
        if round == 0 {
            letter.to_string()
        } else {
            format!("{letter}{round}")
        }
    }
}

/// A simple type: a type variable, a (possibly parameterised) datatype, or a
/// function type.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Type {
    /// A type variable.
    Var(TyVarId),
    /// A datatype applied to its type parameters, e.g. `List Nat`.
    Data(DataId, Vec<Type>),
    /// A function type `τ → σ`.
    Arrow(Box<Type>, Box<Type>),
}

impl Type {
    /// A nullary datatype such as `Nat`.
    pub fn data0(data: DataId) -> Type {
        Type::Data(data, Vec::new())
    }

    /// The function type `a → b`.
    pub fn arrow(a: Type, b: Type) -> Type {
        Type::Arrow(Box::new(a), Box::new(b))
    }

    /// Builds `τ0 → τ1 → … → ret` from argument types and a return type.
    pub fn arrows(args: Vec<Type>, ret: Type) -> Type {
        args.into_iter()
            .rev()
            .fold(ret, |acc, a| Type::arrow(a, acc))
    }

    /// The order of the type (§2): datatypes and type variables have order 0.
    ///
    /// Type variables are given order 0 because they can only be instantiated
    /// by datatypes in the programs we accept (constructor arguments must be
    /// at most first order).
    pub fn order(&self) -> usize {
        match self {
            Type::Var(_) | Type::Data(..) => 0,
            Type::Arrow(a, b) => (a.order() + 1).max(b.order()),
        }
    }

    /// Splits `τ0 → … → τn → ρ` into `([τ0, …, τn], ρ)` where `ρ` is not an
    /// arrow.
    pub fn uncurry(&self) -> (Vec<&Type>, &Type) {
        let mut args = Vec::new();
        let mut cur = self;
        while let Type::Arrow(a, b) = cur {
            args.push(a.as_ref());
            cur = b.as_ref();
        }
        (args, cur)
    }

    /// The number of arguments the type accepts before reaching a non-arrow
    /// result.
    pub fn arity(&self) -> usize {
        let mut n = 0;
        let mut cur = self;
        while let Type::Arrow(_, b) = cur {
            n += 1;
            cur = b.as_ref();
        }
        n
    }

    /// The result of applying a function of this type to `n` arguments.
    ///
    /// Returns `None` if the type has fewer than `n` arrows.
    pub fn result_after(&self, n: usize) -> Option<&Type> {
        let mut cur = self;
        for _ in 0..n {
            match cur {
                Type::Arrow(_, b) => cur = b.as_ref(),
                _ => return None,
            }
        }
        Some(cur)
    }

    /// Whether the type is a datatype (possibly applied), the only types that
    /// equations may relate and `Case` may analyse.
    pub fn as_data(&self) -> Option<(DataId, &[Type])> {
        match self {
            Type::Data(d, args) => Some((*d, args)),
            _ => None,
        }
    }

    /// Collects the type variables occurring in the type, in order of first
    /// occurrence.
    pub fn vars(&self) -> Vec<TyVarId> {
        fn go(ty: &Type, acc: &mut Vec<TyVarId>) {
            match ty {
                Type::Var(v) => {
                    if !acc.contains(v) {
                        acc.push(*v);
                    }
                }
                Type::Data(_, args) => args.iter().for_each(|a| go(a, acc)),
                Type::Arrow(a, b) => {
                    go(a, acc);
                    go(b, acc);
                }
            }
        }
        let mut acc = Vec::new();
        go(self, &mut acc);
        acc
    }

    /// Applies a type substitution.
    pub fn subst(&self, map: &BTreeMap<TyVarId, Type>) -> Type {
        match self {
            Type::Var(v) => map.get(v).cloned().unwrap_or(Type::Var(*v)),
            Type::Data(d, args) => Type::Data(*d, args.iter().map(|a| a.subst(map)).collect()),
            Type::Arrow(a, b) => Type::arrow(a.subst(map), b.subst(map)),
        }
    }

    /// Encodes the type into a flat integer sequence, used for memoisation
    /// keys. Distinct types have distinct encodings.
    pub fn encode(&self, out: &mut Vec<u32>) {
        match self {
            Type::Var(v) => {
                out.push(0);
                out.push(v.0);
            }
            Type::Data(d, args) => {
                out.push(1);
                out.push(d.index() as u32);
                out.push(args.len() as u32);
                args.iter().for_each(|a| a.encode(out));
            }
            Type::Arrow(a, b) => {
                out.push(2);
                a.encode(out);
                b.encode(out);
            }
        }
    }
}

/// A polymorphic type scheme `∀ a0 … a(n-1). τ` where the bound variables are
/// exactly `TyVarId(0) … TyVarId(n-1)` inside `body`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct TypeScheme {
    num_vars: u32,
    body: Type,
}

impl TypeScheme {
    /// A monomorphic scheme.
    pub fn mono(body: Type) -> TypeScheme {
        TypeScheme { num_vars: 0, body }
    }

    /// A scheme quantifying over `TyVarId(0) .. TyVarId(num_vars)`.
    pub fn poly(num_vars: u32, body: Type) -> TypeScheme {
        TypeScheme { num_vars, body }
    }

    /// The number of quantified variables.
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    /// The scheme body. Bound variables are `TyVarId(0..self.num_vars())`.
    pub fn body(&self) -> &Type {
        &self.body
    }

    /// Instantiates the scheme with fresh metavariables drawn from `fresh`,
    /// one per quantified variable in order.
    pub fn instantiate(&self, fresh: &mut impl FnMut() -> TyVarId) -> Type {
        if self.num_vars == 0 {
            return self.body.clone();
        }
        let args: Vec<Type> = (0..self.num_vars).map(|_| Type::Var(fresh())).collect();
        subst_bound(&self.body, &args)
    }

    /// Instantiates the scheme with the given type arguments.
    ///
    /// # Errors
    ///
    /// Fails if the number of arguments differs from the number of
    /// quantified variables.
    pub fn instantiate_with(&self, args: &[Type]) -> Result<Type, TypeError> {
        if args.len() != self.num_vars as usize {
            return Err(TypeError::SchemeArity {
                expected: self.num_vars as usize,
                got: args.len(),
            });
        }
        Ok(subst_bound(&self.body, args))
    }
}

/// Replaces each `TyVarId(i)` with `i < args.len()` by `args[i]`.
fn subst_bound(ty: &Type, args: &[Type]) -> Type {
    match ty {
        Type::Var(v) => args.get(v.0 as usize).cloned().unwrap_or(Type::Var(*v)),
        Type::Data(d, targs) => {
            Type::Data(*d, targs.iter().map(|a| subst_bound(a, args)).collect())
        }
        Type::Arrow(a, b) => Type::arrow(subst_bound(a, args), subst_bound(b, args)),
    }
}

/// Errors arising from type-level operations.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TypeError {
    /// Two types could not be unified. Both are resolved; variables with
    /// ids at or above `floor` are the unifier's metavariables.
    Mismatch {
        /// The type on the left of the failed step.
        left: Type,
        /// The type on the right of the failed step.
        right: Type,
        /// The unifier's first metavariable id.
        floor: u32,
    },
    /// The occurs check failed: `var` would appear inside its own solution
    /// `ty`, which is resolved. Variables with ids at or above `floor` are
    /// the unifier's metavariables.
    Occurs {
        /// The variable the unifier tried to solve.
        var: TyVarId,
        /// The type that contains it.
        ty: Type,
        /// The unifier's first metavariable id.
        floor: u32,
    },
    /// A type scheme was instantiated with the wrong number of arguments.
    SchemeArity {
        /// Number of quantified variables.
        expected: usize,
        /// Number of provided type arguments.
        got: usize,
    },
    /// A term applied more arguments than its head accepts.
    TooManyArguments,
}

impl TypeError {
    /// Renders the error with datatype names from `sig`. Metavariables are
    /// named `?a`, `?b`, … by first occurrence, so the text does not depend
    /// on how many of them the unifier allocated.
    pub fn display<'a>(&'a self, sig: &'a Signature) -> TypeErrorDisplay<'a> {
        TypeErrorDisplay {
            err: self,
            sig: Some(sig),
        }
    }
}

/// Displays a [`TypeError`], with datatype names when a signature is at
/// hand ([`TypeError::display`]) and datatype indices (`#0`) otherwise.
#[derive(Copy, Clone, Debug)]
pub struct TypeErrorDisplay<'a> {
    err: &'a TypeError,
    sig: Option<&'a Signature>,
}

impl fmt::Display for TypeErrorDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.err {
            TypeError::Mismatch { left, right, floor } => {
                let metas = metas_of(left, right, *floor);
                write!(
                    f,
                    "cannot unify `{}` with `{}`",
                    TypeDisplay::with_metas(left, self.sig, &metas),
                    TypeDisplay::with_metas(right, self.sig, &metas)
                )
            }
            TypeError::Occurs { var, ty, floor } => {
                let var = Type::Var(*var);
                let metas = metas_of(&var, ty, *floor);
                write!(
                    f,
                    "cannot construct the infinite type `{}` = `{}`",
                    TypeDisplay::with_metas(&var, self.sig, &metas),
                    TypeDisplay::with_metas(ty, self.sig, &metas)
                )
            }
            TypeError::SchemeArity { expected, got } => write!(
                f,
                "type scheme expects {expected} type argument(s) but got {got}"
            ),
            TypeError::TooManyArguments => {
                write!(f, "term applies more arguments than its type accepts")
            }
        }
    }
}

/// The metavariables (ids at or above `floor`) of `left` and then `right`,
/// by first occurrence.
fn metas_of(left: &Type, right: &Type, floor: u32) -> Vec<TyVarId> {
    let mut metas = left.vars();
    for v in right.vars() {
        if !metas.contains(&v) {
            metas.push(v);
        }
    }
    metas.retain(|v| v.0 >= floor);
    metas
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        TypeErrorDisplay {
            err: self,
            sig: None,
        }
        .fmt(f)
    }
}

impl Error for TypeError {}

/// What a variable is solved by: another variable, or a type shared with
/// every chain that reaches it.
#[derive(Clone, Debug)]
enum Solution {
    Var(TyVarId),
    Type(Rc<Type>),
}

/// A type reached by following variable solutions: the caller's own type,
/// a variable the walk ended at, or a solution shared with the unifier.
/// Either way the head is not a solved variable.
enum Walked<'a> {
    Given(&'a Type),
    Var(Type),
    Solved(Rc<Type>),
}

impl std::ops::Deref for Walked<'_> {
    type Target = Type;

    fn deref(&self) -> &Type {
        match self {
            Walked::Given(t) => t,
            Walked::Var(t) => t,
            Walked::Solved(t) => t,
        }
    }
}

impl Walked<'_> {
    /// The solution that binds a variable to this type, sharing it when the
    /// unifier already holds it.
    fn into_solution(self) -> Solution {
        match self {
            Walked::Given(&Type::Var(v)) | Walked::Var(Type::Var(v)) => Solution::Var(v),
            Walked::Given(t) => Solution::Type(Rc::new(t.clone())),
            Walked::Var(t) => Solution::Type(Rc::new(t)),
            Walked::Solved(t) => Solution::Type(t),
        }
    }
}

/// A first-order unifier for types, used by type inference in the frontend
/// and by the proof checker when validating equations.
///
/// Variables with ids below the construction-time `floor` are *rigid*
/// (program type variables); ids at or above it are inference
/// metavariables. When a rigid variable meets a metavariable, the
/// metavariable is the one eliminated, so rigid variables survive
/// unification whenever possible.
///
/// Representation: the solution of the metavariable `floor + i` sits in
/// slot `i` of a vector that [`TyUnifier::fresh`] extends. Solutions of
/// other variables (rigid ones, and ids this unifier never allocated) are
/// rare and live in a short list. A solution is kept as it was given,
/// unresolved, and a solved type is shared behind an `Rc`: following a
/// chain of solutions copies nothing, [`TyUnifier::unify`] compares the
/// heads it reaches that way, and the occurs check runs through the
/// solutions. Only [`TyUnifier::resolve`] builds a substituted type.
#[derive(Clone, Debug, Default)]
pub struct TyUnifier {
    metas: Vec<Option<Solution>>,
    others: Vec<(TyVarId, Solution)>,
    floor: u32,
}

impl TyUnifier {
    /// Creates a unifier whose fresh (meta)variables start at `floor`.
    pub fn new(floor: u32) -> TyUnifier {
        TyUnifier {
            metas: Vec::new(),
            others: Vec::new(),
            floor,
        }
    }

    /// Allocates a fresh metavariable.
    pub fn fresh(&mut self) -> TyVarId {
        let v = TyVarId(self.floor + self.metas.len() as u32);
        // A solution recorded before the id was allocated moves to its slot.
        let early = self
            .others
            .iter()
            .position(|(w, _)| *w == v)
            .map(|i| self.others.swap_remove(i).1);
        self.metas.push(early);
        v
    }

    fn solution(&self, v: TyVarId) -> Option<&Solution> {
        match v.0.checked_sub(self.floor) {
            Some(i) if (i as usize) < self.metas.len() => self.metas[i as usize].as_ref(),
            _ => self.others.iter().find(|(w, _)| *w == v).map(|(_, s)| s),
        }
    }

    fn bind(&mut self, v: TyVarId, s: Solution) {
        match v.0.checked_sub(self.floor) {
            Some(i) if (i as usize) < self.metas.len() => self.metas[i as usize] = Some(s),
            _ => self.others.push((v, s)),
        }
    }

    /// Follows `ty` through the solutions of its head variable.
    fn walk<'a>(&self, ty: &'a Type) -> Walked<'a> {
        let mut cur = Walked::Given(ty);
        loop {
            let Type::Var(v) = *cur else { return cur };
            match self.solution(v) {
                Some(Solution::Var(w)) => cur = Walked::Var(Type::Var(*w)),
                Some(Solution::Type(t)) => cur = Walked::Solved(Rc::clone(t)),
                None => return cur,
            }
        }
    }

    /// Whether the unsolved variable `v` occurs in `ty` under the current
    /// solutions.
    fn occurs(&self, v: TyVarId, ty: &Type) -> bool {
        match ty {
            Type::Var(w) => {
                *w == v
                    || match self.solution(*w) {
                        Some(Solution::Var(x)) => self.occurs(v, &Type::Var(*x)),
                        Some(Solution::Type(t)) => self.occurs(v, t),
                        None => false,
                    }
            }
            Type::Data(_, args) => args.iter().any(|a| self.occurs(v, a)),
            Type::Arrow(a, b) => self.occurs(v, a) || self.occurs(v, b),
        }
    }

    fn occurs_error(&self, var: TyVarId, ty: &Type) -> TypeError {
        TypeError::Occurs {
            var,
            ty: self.resolve(ty),
            floor: self.floor,
        }
    }

    fn mismatch(&self, left: &Type, right: &Type) -> TypeError {
        TypeError::Mismatch {
            left: self.resolve(left),
            right: self.resolve(right),
            floor: self.floor,
        }
    }

    /// Resolves a type to its current solved form.
    pub fn resolve(&self, ty: &Type) -> Type {
        match ty {
            Type::Var(v) => match self.solution(*v) {
                Some(Solution::Var(w)) => self.resolve(&Type::Var(*w)),
                Some(Solution::Type(t)) => self.resolve(t),
                None => Type::Var(*v),
            },
            Type::Data(d, args) => Type::Data(*d, args.iter().map(|a| self.resolve(a)).collect()),
            Type::Arrow(a, b) => Type::arrow(self.resolve(a), self.resolve(b)),
        }
    }

    /// Unifies two types, extending the current solution.
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::Mismatch`] for a constructor clash and
    /// [`TypeError::Occurs`] when the occurs check fails.
    pub fn unify(&mut self, a: &Type, b: &Type) -> Result<(), TypeError> {
        let a = self.walk(a);
        let b = self.walk(b);
        match (&*a, &*b) {
            (Type::Var(v), Type::Var(w)) if v == w => Ok(()),
            (&Type::Var(v), &Type::Var(w)) => {
                // Prefer eliminating the metavariable.
                if v.0 >= self.floor || w.0 < self.floor {
                    self.bind(v, Solution::Var(w));
                } else {
                    self.bind(w, Solution::Var(v));
                }
                Ok(())
            }
            (&Type::Var(v), _) => {
                if self.occurs(v, &b) {
                    return Err(self.occurs_error(v, &b));
                }
                self.bind(v, b.into_solution());
                Ok(())
            }
            (_, &Type::Var(w)) => {
                if self.occurs(w, &a) {
                    return Err(self.occurs_error(w, &a));
                }
                self.bind(w, a.into_solution());
                Ok(())
            }
            (Type::Data(d1, args1), Type::Data(d2, args2)) => {
                if d1 != d2 || args1.len() != args2.len() {
                    return Err(self.mismatch(&a, &b));
                }
                for (x, y) in args1.iter().zip(args2) {
                    self.unify(x, y)?;
                }
                Ok(())
            }
            (Type::Arrow(a1, b1), Type::Arrow(a2, b2)) => {
                self.unify(a1, a2)?;
                self.unify(b1, b2)
            }
            _ => Err(self.mismatch(&a, &b)),
        }
    }

    /// The type of a function of type `fun` applied to an argument of type
    /// `arg`: the function's domain is unified with `arg` and its codomain
    /// is returned, unresolved. An unsolved variable in function position
    /// is solved by `arg → ?r` for a fresh `?r`, which is returned.
    ///
    /// # Errors
    ///
    /// [`TypeError::Mismatch`] when `fun` is a datatype,
    /// [`TypeError::Occurs`] when the function's variable occurs in `arg`,
    /// and the errors of unifying the domain with `arg`.
    pub fn apply(&mut self, fun: Type, arg: Type) -> Result<Type, TypeError> {
        if let Type::Arrow(dom, cod) = fun {
            self.unify(&dom, &arg)?;
            return Ok(*cod);
        }
        let walked = self.walk(&fun);
        match &*walked {
            Type::Arrow(dom, cod) => {
                self.unify(dom, &arg)?;
                Ok(cod.as_ref().clone())
            }
            &Type::Var(v) => {
                // `?r` joins the occurs check: an id the unifier did not
                // allocate itself may already be in use.
                let r = self.fresh();
                let want = Type::arrow(arg, Type::Var(r));
                if self.occurs(v, &want) {
                    return Err(self.occurs_error(v, &want));
                }
                self.bind(v, Solution::Type(Rc::new(want)));
                Ok(Type::Var(r))
            }
            Type::Data(..) => {
                let r = self.fresh();
                Err(self.mismatch(&walked, &Type::arrow(arg, Type::Var(r))))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(i: usize) -> DataId {
        DataId::from_index(i)
    }

    #[test]
    fn order_of_base_types_is_zero() {
        assert_eq!(Type::data0(d(0)).order(), 0);
        assert_eq!(Type::Var(TyVarId(0)).order(), 0);
    }

    #[test]
    fn order_of_first_order_function() {
        let nat = Type::data0(d(0));
        let f = Type::arrow(nat.clone(), Type::arrow(nat.clone(), nat.clone()));
        assert_eq!(f.order(), 1);
    }

    #[test]
    fn order_of_second_order_function() {
        let nat = Type::data0(d(0));
        let f = Type::arrow(nat.clone(), nat.clone());
        let hof = Type::arrow(f, nat);
        assert_eq!(hof.order(), 2);
    }

    #[test]
    fn arrows_uncurry_round_trip() {
        let nat = Type::data0(d(0));
        let list = Type::Data(d(1), vec![Type::Var(TyVarId(0))]);
        let ty = Type::arrows(vec![nat.clone(), list.clone()], nat.clone());
        let (args, ret) = ty.uncurry();
        assert_eq!(args, vec![&nat, &list]);
        assert_eq!(ret, &nat);
        assert_eq!(ty.arity(), 2);
    }

    #[test]
    fn result_after_peels_arrows() {
        let nat = Type::data0(d(0));
        let ty = Type::arrows(vec![nat.clone(), nat.clone()], nat.clone());
        assert_eq!(ty.result_after(0), Some(&ty));
        assert_eq!(ty.result_after(2), Some(&nat));
        assert_eq!(ty.result_after(3), None);
    }

    #[test]
    fn scheme_instantiate_with_checks_arity() {
        let body = Type::arrow(Type::Var(TyVarId(0)), Type::Var(TyVarId(0)));
        let scheme = TypeScheme::poly(1, body);
        assert!(scheme.instantiate_with(&[]).is_err());
        let nat = Type::data0(d(0));
        let inst = scheme.instantiate_with(std::slice::from_ref(&nat)).unwrap();
        assert_eq!(inst, Type::arrow(nat.clone(), nat));
    }

    #[test]
    fn unify_binds_variables() {
        let mut u = TyUnifier::new(10);
        let a = Type::Var(TyVarId(0));
        let nat = Type::data0(d(0));
        u.unify(&a, &nat).unwrap();
        assert_eq!(u.resolve(&a), nat);
    }

    #[test]
    fn unify_occurs_check() {
        let mut u = TyUnifier::new(10);
        let a = Type::Var(TyVarId(0));
        let arrow = Type::arrow(a.clone(), Type::data0(d(0)));
        assert_eq!(
            u.unify(&a, &arrow),
            Err(TypeError::Occurs {
                var: TyVarId(0),
                ty: arrow,
                floor: 10,
            })
        );
    }

    #[test]
    fn unify_mismatched_datatypes_fails() {
        let mut u = TyUnifier::new(0);
        assert!(u.unify(&Type::data0(d(0)), &Type::data0(d(1))).is_err());
    }

    #[test]
    fn unify_through_chains() {
        let mut u = TyUnifier::new(10);
        let a = Type::Var(TyVarId(0));
        let b = Type::Var(TyVarId(1));
        u.unify(&a, &b).unwrap();
        u.unify(&b, &Type::data0(d(2))).unwrap();
        assert_eq!(u.resolve(&a), Type::data0(d(2)));
    }

    #[test]
    fn encode_is_injective_on_samples() {
        let nat = Type::data0(d(0));
        let list_nat = Type::Data(d(1), vec![nat.clone()]);
        let tys = [
            nat.clone(),
            list_nat.clone(),
            Type::arrow(nat.clone(), nat.clone()),
            Type::arrow(nat.clone(), list_nat.clone()),
            Type::Var(TyVarId(0)),
        ];
        let mut seen = std::collections::HashSet::new();
        for t in &tys {
            let mut enc = Vec::new();
            t.encode(&mut enc);
            assert!(seen.insert(enc), "duplicate encoding for {t:?}");
        }
    }

    #[test]
    fn tyvar_display_names() {
        assert_eq!(TyVarId(0).display_name(), "a");
        assert_eq!(TyVarId(25).display_name(), "z");
        assert_eq!(TyVarId(26).display_name(), "a1");
    }
}
