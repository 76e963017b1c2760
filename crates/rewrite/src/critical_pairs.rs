//! Critical pairs: the local divergences of an overlapping rewrite system.
//!
//! Orthogonality (Remark 2.1) forbids overlaps outright, but when a system
//! *does* overlap the interesting question is whether each overlap is
//! harmless. A critical pair captures one overlap concretely: for rules
//! `a : l_a → r_a` and `b : l_b → r_b` (renamed apart) whose left-hand
//! sides unify under mgu `θ`, the *peak* `θ(l_b)` rewrites in one step two
//! different ways —
//!
//! - the **inner** step contracts it with `a`: `θ(r_a)`,
//! - the **outer** step contracts it with `b`: `θ(r_b)`.
//!
//! The pair of reducts is joinable iff both rewrite to a common term; a
//! system all of whose critical pairs are joinable is locally confluent
//! (Knuth–Bendix). Only *root* overlaps between clauses of the same
//! function can occur: [`Trs::add_rule`] rejects defined symbols in
//! patterns, so no proper subterm of a left-hand side unifies with another
//! left-hand side, and left-hand sides with different heads never unify.
//! The enumeration therefore pairs each clause with the later clauses of
//! its own function.
//!
//! Variable handling is chosen for downstream diagnostics: the *outer* rule
//! keeps its original variables (so rendered peaks use source names), while
//! the inner rule is renamed apart with primes (`x` → `x'`) only where its
//! names would collide.

use std::collections::BTreeSet;

use cycleq_term::{unify, Subst, Term, VarStore};

use crate::rule::RuleId;
use crate::trs::Trs;

/// One critical pair: a peak together with its two one-step reducts.
#[derive(Clone, Debug)]
pub struct CriticalPair {
    /// The later clause of the pair, renamed apart.
    pub inner: RuleId,
    /// The earlier clause of the pair, kept with its original variables.
    pub outer: RuleId,
    /// The overlapped instance `θ(l_outer)` both rules rewrite.
    pub peak: Term,
    /// The reduct of the inner step, `θ(r_inner)`.
    pub left: Term,
    /// The reduct of the outer step, `θ(r_outer)`.
    pub right: Term,
}

/// All critical pairs of a system, with the variable store their terms
/// live in (the rule store extended with the renamed-apart copies).
#[derive(Debug)]
pub struct CriticalPairs {
    /// Store resolving every variable in the pairs' terms. Outer-rule
    /// variables keep their original ids and names.
    pub vars: VarStore,
    /// The pairs, in (outer, inner) rule order.
    pub pairs: Vec<CriticalPair>,
}

/// Enumerates every critical pair of the system: one per unordered pair of
/// distinct clauses of the same function whose left-hand sides unify, with
/// the earlier clause as the outer one.
pub fn critical_pairs(trs: &Trs) -> CriticalPairs {
    let mut vars = trs.vars().clone();
    let mut pairs = Vec::new();
    for (outer, outer_rule) in trs.rules() {
        let lhs_outer = outer_rule.lhs_term();
        let taken: BTreeSet<&str> = outer_rule
            .lhs_vars()
            .iter()
            .map(|v| trs.vars().name(*v))
            .collect();
        for &inner in trs.rules_for(outer_rule.head()) {
            if inner <= outer {
                continue;
            }
            let (inner_params, inner_rhs) = rename_apart(trs, inner, &taken, &mut vars);
            let lhs_inner = Term::apps(outer_rule.head(), inner_params);
            let Ok(theta) = unify(&lhs_inner, &lhs_outer) else {
                continue;
            };
            pairs.push(CriticalPair {
                inner,
                outer,
                peak: theta.apply(&lhs_outer),
                left: theta.apply(&inner_rhs),
                right: theta.apply(outer_rule.rhs()),
            });
        }
    }
    CriticalPairs { vars, pairs }
}

/// Renames `rule`'s variables apart from `taken`, priming colliding names
/// (`x` → `x'` → `x''`) so rendered pairs stay readable.
fn rename_apart(
    trs: &Trs,
    rule: RuleId,
    taken: &BTreeSet<&str>,
    vars: &mut VarStore,
) -> (Vec<Term>, Term) {
    let r = trs.rule(rule);
    let mut rule_vars = BTreeSet::new();
    for p in r.params() {
        p.collect_vars(&mut rule_vars);
    }
    r.rhs().collect_vars(&mut rule_vars);
    let mut renaming = Subst::new();
    let mut used: BTreeSet<String> = BTreeSet::new();
    for v in rule_vars {
        let mut name = trs.vars().name(v).to_string();
        while taken.contains(name.as_str()) || used.contains(&name) {
            name.push('\'');
        }
        used.insert(name.clone());
        let ty = trs.vars().ty(v).clone();
        let fresh = vars.fresh(&name, ty);
        renaming.insert(v, Term::var(fresh));
    }
    let params = r.params().iter().map(|p| renaming.apply(p)).collect();
    (params, renaming.apply(r.rhs()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cycleq_term::fixtures::NatList;
    use cycleq_term::{SymId, Term, Type, TypeScheme};

    use crate::trs::Trs;

    fn defined(f: &mut NatList, name: &str, arity: usize) -> SymId {
        let nat = Type::data0(f.nat);
        let body = Type::arrows(vec![nat.clone(); arity], nat);
        f.sig
            .add_defined(name, TypeScheme::mono(body))
            .expect("fresh symbol")
    }

    /// The paper's fig. 2 `sub`: `sub Z y = Z` / `sub x Z = x` /
    /// `sub (S x) (S y) = sub x y`. One weak root overlap.
    fn fig2_sub() -> (NatList, SymId, Trs) {
        let mut f = NatList::new();
        let sub = defined(&mut f, "sub", 2);
        let mut trs = Trs::new();
        let y = trs.vars_mut().fresh("y", f.nat_ty());
        trs.add_rule(
            &f.sig,
            sub,
            vec![Term::sym(f.zero), Term::var(y)],
            Term::sym(f.zero),
        )
        .unwrap();
        let x = trs.vars_mut().fresh("x", f.nat_ty());
        trs.add_rule(
            &f.sig,
            sub,
            vec![Term::var(x), Term::sym(f.zero)],
            Term::var(x),
        )
        .unwrap();
        let x2 = trs.vars_mut().fresh("x", f.nat_ty());
        let y2 = trs.vars_mut().fresh("y", f.nat_ty());
        trs.add_rule(
            &f.sig,
            sub,
            vec![f.s(Term::var(x2)), f.s(Term::var(y2))],
            Term::apps(sub, vec![Term::var(x2), Term::var(y2)]),
        )
        .unwrap();
        (f, sub, trs)
    }

    #[test]
    fn fig2_sub_has_one_root_pair_with_joinable_reducts() {
        let (f, _sub, trs) = fig2_sub();
        let cps = critical_pairs(&trs);
        assert_eq!(cps.pairs.len(), 1, "exactly one overlap in fig. 2 sub");
        let cp = &cps.pairs[0];
        assert_ne!(cp.inner, cp.outer);
        // Peak is `sub Z Z`; both reducts are already `Z`.
        assert_eq!(cp.peak.display(&f.sig, &cps.vars).to_string(), "sub Z Z");
        assert_eq!(cp.left, Term::sym(f.zero));
        assert_eq!(cp.right, Term::sym(f.zero));
    }

    #[test]
    fn outer_rule_keeps_original_variable_names() {
        let mut f = NatList::new();
        let g = defined(&mut f, "g", 2);
        let mut trs = Trs::new();
        // g m Z = m  /  g Z n = n: root overlap whose peak is `g Z Z`.
        let m = trs.vars_mut().fresh("m", f.nat_ty());
        trs.add_rule(
            &f.sig,
            g,
            vec![Term::var(m), Term::sym(f.zero)],
            Term::var(m),
        )
        .unwrap();
        let n = trs.vars_mut().fresh("n", f.nat_ty());
        trs.add_rule(
            &f.sig,
            g,
            vec![Term::sym(f.zero), Term::var(n)],
            Term::var(n),
        )
        .unwrap();
        let cps = critical_pairs(&trs);
        assert_eq!(cps.pairs.len(), 1);
        let cp = &cps.pairs[0];
        assert_eq!(cp.peak.display(&f.sig, &cps.vars).to_string(), "g Z Z");
        assert_eq!(cp.left, Term::sym(f.zero));
        assert_eq!(cp.right, Term::sym(f.zero));
    }

    #[test]
    fn same_name_across_rules_is_primed_apart() {
        let mut f = NatList::new();
        let h = defined(&mut f, "h", 1);
        let mut trs = Trs::new();
        // h x = x  and  h (S x) = x: overlap at root; the inner copy of
        // `x` must be renamed `x'` so the peak renders unambiguously.
        let x1 = trs.vars_mut().fresh("x", f.nat_ty());
        trs.add_rule(&f.sig, h, vec![Term::var(x1)], Term::var(x1))
            .unwrap();
        let x2 = trs.vars_mut().fresh("x", f.nat_ty());
        trs.add_rule(&f.sig, h, vec![f.s(Term::var(x2))], Term::var(x2))
            .unwrap();
        let cps = critical_pairs(&trs);
        assert_eq!(cps.pairs.len(), 1);
        let cp = &cps.pairs[0];
        let peak = cp.peak.display(&f.sig, &cps.vars).to_string();
        // Outer rule is the first (`h x = x`): its var keeps the name `x`,
        // the inner rule's `x` is primed.
        assert_eq!(peak, "h (S x')");
    }

    #[test]
    fn orthogonal_system_has_no_pairs() {
        let f = NatList::new();
        let mut trs = Trs::new();
        // add Z y = y  /  add (S x) y = S (add x y): orthogonal.
        let y = trs.vars_mut().fresh("y", f.nat_ty());
        trs.add_rule(
            &f.sig,
            f.add,
            vec![Term::sym(f.zero), Term::var(y)],
            Term::var(y),
        )
        .unwrap();
        let x2 = trs.vars_mut().fresh("x", f.nat_ty());
        let y2 = trs.vars_mut().fresh("y", f.nat_ty());
        trs.add_rule(
            &f.sig,
            f.add,
            vec![f.s(Term::var(x2)), Term::var(y2)],
            f.s(Term::apps(f.add, vec![Term::var(x2), Term::var(y2)])),
        )
        .unwrap();
        let cps = critical_pairs(&trs);
        assert!(cps.pairs.is_empty());
    }
}
