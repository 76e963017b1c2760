//! Shared fixtures: the [`cycleq_term::fixtures::NatList`] signature
//! equipped with the defining rules of Example 2.1 (`add`, `map`) plus `app`
//! and `len`, and [`reference_normalize`], the plain normaliser that tests
//! compare [`MemoRewriter`](crate::MemoRewriter) against.

use cycleq_term::fixtures::NatList;
use cycleq_term::{Signature, Term, TyVarId, Type};

use crate::memo::Normalized;
use crate::trs::{Program, Trs};

/// Normalises `t` by leftmost-outermost reduction, at most `fuel`
/// contractions, each by the first of the head's rules whose
/// [`Rule::apply_root`](crate::Rule::apply_root) succeeds.
///
/// This is the test oracle for [`MemoRewriter`](crate::MemoRewriter): no
/// store, no memo table, no shared cache. On fuel exhaustion it returns
/// the partial reduct with `in_normal_form: false`.
pub fn reference_normalize(sig: &Signature, trs: &Trs, t: &Term, fuel: usize) -> Normalized {
    fn step(sig: &Signature, trs: &Trs, t: &Term) -> Option<Term> {
        if let Some(head) = t.head_sym().filter(|h| sig.is_defined(*h)) {
            let mut rules = trs.rules_for(head).iter();
            if let Some(reduct) = rules.find_map(|id| trs.rule(*id).apply_root(t)) {
                return Some(reduct);
            }
        }
        t.args().iter().enumerate().find_map(|(i, a)| {
            let reduct = step(sig, trs, a)?;
            let mut args = t.args().to_vec();
            args[i] = reduct;
            Some(Term::from_parts(t.head(), args))
        })
    }
    let mut term = t.clone();
    let mut steps = 0;
    while steps < fuel {
        match step(sig, trs, &term) {
            Some(next) => {
                term = next;
                steps += 1;
            }
            None => {
                return Normalized {
                    term,
                    steps,
                    in_normal_form: true,
                }
            }
        }
    }
    Normalized {
        term,
        steps,
        in_normal_form: false,
    }
}

/// A ready-made program over the `NatList` fixture signature.
#[derive(Clone, Debug)]
pub struct ProgramFixture {
    /// The underlying signature fixture with symbol handles.
    pub f: NatList,
    /// The program (signature + rules).
    pub prog: Program,
}

/// Builds the fixture program:
///
/// ```text
/// add Z y     = y                     len Nil         = Z
/// add (S x) y = S (add x y)           len (Cons x xs) = S (len xs)
/// app Nil ys         = ys             map f Nil         = Nil
/// app (Cons x xs) ys = Cons x (app xs ys)
///                                     map f (Cons x xs) = Cons (f x) (map f xs)
/// ```
///
/// # Panics
///
/// Never panics in practice; the rules are statically valid.
pub fn nat_list_program() -> ProgramFixture {
    let f = NatList::new();
    let mut trs = Trs::new();
    let nat = f.nat_ty();
    let a = Type::Var(TyVarId(0));
    let b = Type::Var(TyVarId(1));
    let list_a = f.list_ty(a.clone());

    // add
    {
        let y = trs.vars_mut().fresh("y", nat.clone());
        trs.add_rule(
            &f.sig,
            f.add,
            vec![Term::sym(f.zero), Term::var(y)],
            Term::var(y),
        )
        .expect("valid rule");
        let x = trs.vars_mut().fresh("x", nat.clone());
        let y = trs.vars_mut().fresh("y", nat.clone());
        trs.add_rule(
            &f.sig,
            f.add,
            vec![f.s(Term::var(x)), Term::var(y)],
            f.s(Term::apps(f.add, vec![Term::var(x), Term::var(y)])),
        )
        .expect("valid rule");
    }
    // app
    {
        let ys = trs.vars_mut().fresh("ys", list_a.clone());
        trs.add_rule(
            &f.sig,
            f.app,
            vec![Term::sym(f.nil), Term::var(ys)],
            Term::var(ys),
        )
        .expect("valid rule");
        let x = trs.vars_mut().fresh("x", a.clone());
        let xs = trs.vars_mut().fresh("xs", list_a.clone());
        let ys = trs.vars_mut().fresh("ys", list_a.clone());
        trs.add_rule(
            &f.sig,
            f.app,
            vec![f.cons_t(Term::var(x), Term::var(xs)), Term::var(ys)],
            f.cons_t(
                Term::var(x),
                Term::apps(f.app, vec![Term::var(xs), Term::var(ys)]),
            ),
        )
        .expect("valid rule");
    }
    // len
    {
        trs.add_rule(&f.sig, f.len, vec![Term::sym(f.nil)], Term::sym(f.zero))
            .expect("valid rule");
        let x = trs.vars_mut().fresh("x", a.clone());
        let xs = trs.vars_mut().fresh("xs", list_a.clone());
        trs.add_rule(
            &f.sig,
            f.len,
            vec![f.cons_t(Term::var(x), Term::var(xs))],
            f.s(Term::apps(f.len, vec![Term::var(xs)])),
        )
        .expect("valid rule");
    }
    // map
    {
        let g = trs.vars_mut().fresh("f", Type::arrow(a.clone(), b.clone()));
        trs.add_rule(
            &f.sig,
            f.map,
            vec![Term::var(g), Term::sym(f.nil)],
            Term::sym(f.nil),
        )
        .expect("valid rule");
        let g = trs.vars_mut().fresh("f", Type::arrow(a.clone(), b));
        let x = trs.vars_mut().fresh("x", a);
        let xs = trs.vars_mut().fresh("xs", list_a);
        trs.add_rule(
            &f.sig,
            f.map,
            vec![Term::var(g), f.cons_t(Term::var(x), Term::var(xs))],
            f.cons_t(
                Term::var_apps(g, vec![Term::var(x)]),
                Term::apps(f.map, vec![Term::var(g), Term::var(xs)]),
            ),
        )
        .expect("valid rule");
    }

    let prog = Program::new(f.sig.clone(), trs);
    ProgramFixture { f, prog }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_normalize_contracts_leftmost_outermost() {
        let p = nat_list_program();
        let (sig, trs) = (&p.prog.sig, &p.prog.trs);
        let t = Term::apps(p.f.add, vec![p.f.num(2), p.f.num(0)]);
        // One step: S (add (S Z) Z), the outer redex contracted first.
        let partial = reference_normalize(sig, trs, &t, 1);
        assert!(!partial.in_normal_form);
        assert_eq!(
            partial.term,
            p.f.s(Term::apps(p.f.add, vec![p.f.num(1), p.f.num(0)]))
        );
        let full = reference_normalize(sig, trs, &t, 100);
        assert!(full.in_normal_form);
        assert_eq!((full.term, full.steps), (p.f.num(2), 3));
    }

    #[test]
    fn fixture_program_has_eight_rules() {
        let p = nat_list_program();
        assert_eq!(p.prog.trs.len(), 8);
        assert_eq!(p.prog.trs.rules_for(p.f.map).len(), 2);
    }
}
