//! Equations: *unordered* pairs of terms of a common datatype (§2).
//!
//! Equations are written `M ≈ N` and are interchangeable with `N ≈ M`
//! (symmetry is built into the representation rather than being an inference
//! rule, Remark 3.1). Proof search compares equations up to renaming and
//! orientation on interned ids, with [`crate::TermStore::same_equation`].
//! Its test oracle, the owned canonical key, is compiled only for tests.

use std::collections::BTreeSet;
use std::fmt;

use crate::signature::Signature;
use crate::subst::Subst;
use crate::term::Term;
use crate::var::{VarId, VarStore};

/// An unordered equation between two terms.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Equation {
    lhs: Term,
    rhs: Term,
}

/// An α- and orientation-invariant fingerprint of an equation: the test
/// oracle of [`crate::TermStore::same_equation`].
#[cfg(test)]
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub(crate) struct CanonKey(Vec<u32>);

impl Equation {
    /// Creates the equation `lhs ≈ rhs`.
    pub fn new(lhs: Term, rhs: Term) -> Equation {
        Equation { lhs, rhs }
    }

    /// The left-hand side (of the stored orientation; equations are
    /// semantically unordered).
    pub fn lhs(&self) -> &Term {
        &self.lhs
    }

    /// The right-hand side.
    pub fn rhs(&self) -> &Term {
        &self.rhs
    }

    /// Both sides, in stored order.
    pub fn sides(&self) -> [&Term; 2] {
        [&self.lhs, &self.rhs]
    }

    /// The same equation with the stored orientation flipped.
    pub fn flipped(&self) -> Equation {
        Equation {
            lhs: self.rhs.clone(),
            rhs: self.lhs.clone(),
        }
    }

    /// Whether both sides are syntactically identical (dischargeable by
    /// `(Refl)`).
    pub fn is_trivial(&self) -> bool {
        self.lhs == self.rhs
    }

    /// The free variables of the equation — its type environment `Γ`, with
    /// types recovered from the proof's [`VarStore`].
    pub fn vars(&self) -> BTreeSet<VarId> {
        let mut acc = BTreeSet::new();
        self.lhs.collect_vars(&mut acc);
        self.rhs.collect_vars(&mut acc);
        acc
    }

    /// Applies a substitution to both sides.
    pub fn subst(&self, theta: &Subst) -> Equation {
        Equation {
            lhs: theta.apply(&self.lhs),
            rhs: theta.apply(&self.rhs),
        }
    }

    /// The total size of both sides.
    pub fn size(&self) -> usize {
        self.lhs.size() + self.rhs.size()
    }

    /// An α-invariant, orientation-invariant key: the lexicographically
    /// smaller of the canonical encodings of `(lhs, rhs)` and `(rhs, lhs)`.
    #[cfg(test)]
    pub(crate) fn canonical_key(&self) -> CanonKey {
        fn encode(a: &Term, b: &Term) -> Vec<u32> {
            let mut rename = std::collections::BTreeMap::new();
            let mut out = Vec::new();
            a.encode_canonical(&mut rename, &mut out);
            out.push(u32::MAX); // separator
            b.encode_canonical(&mut rename, &mut out);
            out
        }
        let fwd = encode(&self.lhs, &self.rhs);
        let bwd = encode(&self.rhs, &self.lhs);
        CanonKey(fwd.min(bwd))
    }

    /// Renders the equation against a signature and variable store.
    pub fn display<'a>(&'a self, sig: &'a Signature, vars: &'a VarStore) -> EquationDisplay<'a> {
        EquationDisplay {
            eq: self,
            sig,
            vars,
        }
    }
}

/// Displays an equation with names resolved; produced by
/// [`Equation::display`].
#[derive(Copy, Clone, Debug)]
pub struct EquationDisplay<'a> {
    eq: &'a Equation,
    sig: &'a Signature,
    vars: &'a VarStore,
}

impl fmt::Display for EquationDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ≈ {}",
            self.eq.lhs.display(self.sig, self.vars),
            self.eq.rhs.display(self.sig, self.vars)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::NatList;
    use crate::{TermStore, Type};
    use proptest::prelude::*;
    use proptest::test_runner::Config;

    /// Terms over `Z`, `S`, `add`, the variables `vs` and the function
    /// variable `g` applied to one argument.
    fn term(f: &NatList, vs: &[VarId], g: VarId) -> impl Strategy<Value = Term> {
        let (zero, succ, add) = (f.zero, f.succ, f.add);
        let vs = vs.to_vec();
        let leaf = prop_oneof![
            Just(Term::sym(zero)),
            (0..vs.len()).prop_map(move |i| Term::var(vs[i])),
        ];
        leaf.prop_recursive(4, 24, 2, move |inner| {
            prop_oneof![
                inner.clone().prop_map(move |t| Term::apps(succ, vec![t])),
                inner.clone().prop_map(move |t| Term::var_apps(g, vec![t])),
                (inner.clone(), inner).prop_map(move |(a, b)| Term::apps(add, vec![a, b])),
            ]
        })
    }

    fn cfg(cases: u32) -> Config {
        Config {
            cases,
            ..Config::default()
        }
    }

    #[test]
    fn canonical_key_invariant_under_renaming() {
        let f = NatList::new();
        let mut vars = VarStore::new();
        let vs: Vec<VarId> = (0..4)
            .map(|i| vars.fresh(&format!("x{i}"), f.nat_ty()))
            .collect();
        let g = vars.fresh("g", Type::arrow(f.nat_ty(), f.nat_ty()));
        // Rename every variable v_i to a fresh w_i (injectively).
        let mut renaming = Subst::new();
        for (i, v) in vs.iter().enumerate() {
            let w = vars.fresh(&format!("w{i}"), f.nat_ty());
            renaming.insert(*v, Term::var(w));
        }
        proptest!(cfg(128), |(t in term(&f, &vs, g))| {
            let t2 = renaming.apply(&t);
            let e1 = Equation::new(t.clone(), t.clone());
            let e2 = Equation::new(t2.clone(), t2);
            prop_assert_eq!(e1.canonical_key(), e2.canonical_key());
        });
    }

    /// The path check's oracle: `TermStore::same_equation` holds exactly
    /// when the owned canonical keys are equal, in both argument orders,
    /// on random pairs against an unrelated pair, an injectively renamed
    /// copy, the flipped pair and its renamed copy, and a non-injectively
    /// renamed copy (which turns `add x y` into `add x x`).
    #[test]
    fn same_equation_agrees_with_canonical_keys() {
        let f = NatList::new();
        let mut vars = VarStore::new();
        let vs: Vec<VarId> = (0..3)
            .map(|i| vars.fresh(&format!("x{i}"), f.nat_ty()))
            .collect();
        let fun = Type::arrow(f.nat_ty(), f.nat_ty());
        let g = vars.fresh("g", fun.clone());
        let h = vars.fresh("h", fun);
        let ws: Vec<VarId> = (0..3)
            .map(|i| vars.fresh(&format!("w{i}"), f.nat_ty()))
            .collect();
        // Injective: x_i ↦ w_{i+1 mod 3} and g ↦ h. Non-injective:
        // x_0, x_1 ↦ x_0 and x_2 ↦ x_1.
        let mut injective = Subst::singleton(g, Term::var(h));
        let mut collapse = Subst::new();
        for (i, &v) in vs.iter().enumerate() {
            injective.insert(v, Term::var(ws[(i + 1) % 3]));
            collapse.insert(v, Term::var(vs[i / 2]));
        }
        let t = || term(&f, &vs, g);
        proptest!(cfg(512), |(a in t(), b in t(), c in t(), d in t())| {
            let eq = Equation::new(a, b);
            let renamed = eq.subst(&injective);
            let candidates = [
                (Equation::new(c, d), None),
                (renamed.clone(), Some(true)),
                (eq.flipped(), Some(true)),
                (renamed.flipped(), Some(true)),
                (eq.subst(&collapse), None),
            ];
            let mut store = TermStore::new();
            let (l, r) = (store.intern(eq.lhs()), store.intern(eq.rhs()));
            for (other, expected) in candidates {
                let oracle = eq.canonical_key() == other.canonical_key();
                if let Some(expected) = expected {
                    prop_assert_eq!(oracle, expected);
                }
                let (ol, or) = (store.intern(other.lhs()), store.intern(other.rhs()));
                prop_assert_eq!(store.same_equation(l, r, ol, or), oracle);
                prop_assert_eq!(store.same_equation(ol, or, l, r), oracle);
            }
        });
    }

    #[test]
    fn canonical_key_is_orientation_invariant() {
        let f = NatList::new();
        let mut vars = VarStore::new();
        let x = vars.fresh("x", f.nat_ty());
        let y = vars.fresh("y", f.nat_ty());
        let e1 = Equation::new(
            Term::apps(f.add, vec![Term::var(x), Term::var(y)]),
            Term::apps(f.add, vec![Term::var(y), Term::var(x)]),
        );
        assert_eq!(e1.canonical_key(), e1.flipped().canonical_key());
    }

    #[test]
    fn canonical_key_is_alpha_invariant() {
        let f = NatList::new();
        let mut vars = VarStore::new();
        let x = vars.fresh("x", f.nat_ty());
        let y = vars.fresh("y", f.nat_ty());
        let e1 = Equation::new(Term::var(x), f.s(Term::var(x)));
        let e2 = Equation::new(Term::var(y), f.s(Term::var(y)));
        let e3 = Equation::new(Term::var(x), f.s(Term::var(y)));
        assert_eq!(e1.canonical_key(), e2.canonical_key());
        assert_ne!(e1.canonical_key(), e3.canonical_key());
    }

    #[test]
    fn distinct_equations_have_distinct_keys() {
        let f = NatList::new();
        let mut vars = VarStore::new();
        let x = vars.fresh("x", f.nat_ty());
        let e1 = Equation::new(Term::var(x), Term::sym(f.zero));
        let e2 = Equation::new(Term::var(x), f.s(Term::sym(f.zero)));
        assert_ne!(e1.canonical_key(), e2.canonical_key());
    }

    #[test]
    fn trivial_detection() {
        let f = NatList::new();
        let t = Term::sym(f.zero);
        assert!(Equation::new(t.clone(), t.clone()).is_trivial());
        assert!(!Equation::new(t.clone(), f.s(t)).is_trivial());
    }

    #[test]
    fn vars_unions_both_sides() {
        let f = NatList::new();
        let mut vars = VarStore::new();
        let x = vars.fresh("x", f.nat_ty());
        let y = vars.fresh("y", f.nat_ty());
        let e = Equation::new(Term::var(x), Term::var(y));
        assert_eq!(e.vars().len(), 2);
    }

    #[test]
    fn display_uses_unordered_symbol() {
        let f = NatList::new();
        let vars = VarStore::new();
        let e = Equation::new(Term::sym(f.zero), Term::sym(f.zero));
        assert_eq!(e.display(&f.sig, &vars).to_string(), "Z ≈ Z");
    }
}
