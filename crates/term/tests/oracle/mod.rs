//! The map-based type unifier and the inference it drove, kept as the test
//! oracle for the library's [`cycleq_term::TyUnifier`] and
//! [`cycleq_term::Term::infer_type`].
//!
//! It keeps its bindings in a `BTreeMap`, resolves both sides to fresh
//! copies before every step, and types each application by unifying the
//! function's type against a new `arg -> ?r`. `unifier.rs` pins the
//! library to the same outcomes: the same error kind at every step, and
//! the same solutions up to renaming of metavariables.

use std::collections::BTreeMap;

use cycleq_term::{Head, Signature, Term, TyVarId, Type, VarStore};

/// The oracle's failure, without payload: the differential tests compare
/// kinds only, because the two unifiers allocate metavariables differently.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Failure {
    /// A constructor clash.
    Mismatch,
    /// A variable would occur inside its own solution.
    Occurs,
}

/// The map-based unifier: variables below `floor` are rigid, the others
/// metavariables, and a metavariable is eliminated in favour of a rigid one.
#[derive(Clone, Debug, Default)]
pub struct MapUnifier {
    map: BTreeMap<TyVarId, Type>,
    floor: u32,
    next: u32,
}

impl MapUnifier {
    /// A unifier whose fresh metavariables start at `floor`.
    pub fn new(floor: u32) -> MapUnifier {
        MapUnifier {
            map: BTreeMap::new(),
            floor,
            next: floor,
        }
    }

    /// Allocates a fresh metavariable.
    pub fn fresh(&mut self) -> TyVarId {
        let v = TyVarId(self.next);
        self.next += 1;
        v
    }

    /// Resolves a type to its current solved form.
    pub fn resolve(&self, ty: &Type) -> Type {
        match ty {
            Type::Var(v) => match self.map.get(v) {
                Some(t) => self.resolve(&t.clone()),
                None => Type::Var(*v),
            },
            Type::Data(d, args) => Type::Data(*d, args.iter().map(|a| self.resolve(a)).collect()),
            Type::Arrow(a, b) => Type::arrow(self.resolve(a), self.resolve(b)),
        }
    }

    /// Unifies two types, extending the current solution.
    pub fn unify(&mut self, a: &Type, b: &Type) -> Result<(), Failure> {
        let a = self.resolve(a);
        let b = self.resolve(b);
        match (&a, &b) {
            (Type::Var(v), Type::Var(w)) if v == w => Ok(()),
            (Type::Var(v), Type::Var(w)) => {
                if v.0 >= self.floor || w.0 < self.floor {
                    self.map.insert(*v, b);
                } else {
                    self.map.insert(*w, a);
                }
                Ok(())
            }
            (Type::Var(v), _) => {
                if contains(&b, *v) {
                    return Err(Failure::Occurs);
                }
                self.map.insert(*v, b);
                Ok(())
            }
            (_, Type::Var(w)) => {
                if contains(&a, *w) {
                    return Err(Failure::Occurs);
                }
                self.map.insert(*w, a);
                Ok(())
            }
            (Type::Data(d1, args1), Type::Data(d2, args2)) => {
                if d1 != d2 || args1.len() != args2.len() {
                    return Err(Failure::Mismatch);
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
            _ => Err(Failure::Mismatch),
        }
    }
}

/// Whether `v` occurs in the (resolved) type.
fn contains(ty: &Type, v: TyVarId) -> bool {
    match ty {
        Type::Var(w) => *w == v,
        Type::Data(_, args) => args.iter().any(|a| contains(a, v)),
        Type::Arrow(a, b) => contains(a, v) || contains(b, v),
    }
}

/// Instantiates a scheme body over `TyVarId(0..num_vars)` with fresh
/// metavariables, through a map.
fn instantiate(num_vars: u32, body: &Type, uni: &mut MapUnifier) -> Type {
    let map: BTreeMap<TyVarId, Type> = (0..num_vars)
        .map(|i| (TyVarId(i), Type::Var(uni.fresh())))
        .collect();
    body.subst(&map)
}

/// Infers the type of `t`: every application unifies the function's type
/// with `arg -> ?r` for a fresh `?r`, and every subterm's type is resolved.
pub fn infer_type(
    t: &Term,
    sig: &Signature,
    vars: &VarStore,
    uni: &mut MapUnifier,
) -> Result<Type, Failure> {
    let mut cur = match t.head() {
        Head::Var(v) => vars.ty(v).clone(),
        Head::Sym(s) => {
            let scheme = sig.sym(s).scheme();
            instantiate(scheme.num_vars(), scheme.body(), uni)
        }
    };
    for arg in t.args() {
        let arg_ty = infer_type(arg, sig, vars, uni)?;
        let res = Type::Var(uni.fresh());
        uni.unify(&cur, &Type::arrow(arg_ty, res.clone()))?;
        cur = res;
    }
    Ok(uni.resolve(&cur))
}
