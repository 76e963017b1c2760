//! `CQ003`: left-linearity.
//!
//! Remark 2.1 assumes the rewrite system is orthogonal — left-linear and
//! non-overlapping. This pass reports every clause whose left-hand side
//! fails [`cycleq_rewrite::Rule::is_left_linear`], names the repeated
//! variables, and points the finding at its clause line. (The overlap half
//! of orthogonality is handled by the critical-pair classifier in
//! [`crate::critical_pairs`], which distinguishes joinable `CQ002` from
//! non-joinable `CQ009` overlaps.)

use cycleq_lang::Module;
use cycleq_term::{Term, VarStore};

use crate::diagnostic::{Code, Diagnostic};

pub(crate) fn check(module: &Module) -> Vec<Diagnostic> {
    let sig = &module.program.sig;
    let trs = &module.program.trs;
    let mut out = Vec::new();
    for (id, rule) in trs.rules().filter(|(_, r)| !r.is_left_linear()) {
        let name = sig.sym(rule.head()).name();
        let repeated = repeated_vars(rule.params(), trs.vars());
        let mut d = Diagnostic::new(
            Code::NonLeftLinear,
            module.rule_line(id),
            format!(
                "clause for `{name}` is not left-linear: variable{} {} repeated in the left-hand side",
                if repeated.len() == 1 { "" } else { "s" },
                join_ticked(&repeated),
            ),
        );
        d = d.with_note(
            "a repeated pattern variable demands an equality test the rewrite \
             system cannot perform; orthogonality (Remark 2.1) requires each \
             variable to occur at most once",
        );
        out.push(d);
    }
    out
}

/// Names of variables occurring more than once across the parameter
/// patterns, in first-occurrence order.
fn repeated_vars(params: &[Term], vars: &VarStore) -> Vec<String> {
    let mut order = Vec::new();
    let mut counts: std::collections::HashMap<cycleq_term::VarId, usize> =
        std::collections::HashMap::new();
    for p in params {
        for t in p.subterms() {
            if let Some(v) = t.as_var() {
                let c = counts.entry(v).or_insert(0);
                *c += 1;
                if *c == 2 {
                    order.push(v);
                }
            }
        }
    }
    order
        .into_iter()
        .map(|v| vars.name(v).to_string())
        .collect()
}

fn join_ticked(names: &[String]) -> String {
    let ticked: Vec<String> = names.iter().map(|n| format!("`{n}`")).collect();
    ticked.join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use cycleq_lang::parse_module;

    #[test]
    fn orthogonal_programs_are_clean() {
        let m = parse_module(
            "data Nat = Z | S Nat\nsub :: Nat -> Nat -> Nat\nsub Z y = Z\nsub (S x) Z = S x\nsub (S x) (S y) = sub x y\n",
        )
        .unwrap();
        assert!(check(&m).is_empty());
    }

    #[test]
    fn overlapping_but_left_linear_clauses_are_not_cq003() {
        // Overlaps are the critical-pair pass's business; this pass must
        // stay quiet on them.
        let m = parse_module(
            "data Nat = Z | S Nat\nsub :: Nat -> Nat -> Nat\nsub Z y = Z\nsub x Z = x\nsub (S x) (S y) = sub x y\n",
        )
        .unwrap();
        assert!(check(&m).is_empty());
    }

    #[test]
    fn repeated_variable_is_named() {
        // The frontend rejects non-linear patterns, so build the module
        // through the rewrite layer directly.
        use cycleq_term::{fixtures::NatList, Term, Type, TypeScheme};
        let f = NatList::new();
        let mut sig = f.sig.clone();
        let eq = sig
            .add_defined(
                "eqSame",
                TypeScheme::mono(Type::arrows(vec![f.nat_ty(), f.nat_ty()], f.nat_ty())),
            )
            .unwrap();
        let mut trs = cycleq_rewrite::Trs::new();
        let x = trs.vars_mut().fresh("x", f.nat_ty());
        trs.add_rule(&sig, eq, vec![Term::var(x), Term::var(x)], Term::var(x))
            .unwrap();
        let module = Module {
            program: cycleq_rewrite::Program::new(sig, trs),
            goals: Vec::new(),
            rule_lines: Vec::new(),
            decl_lines: std::collections::HashMap::new(),
        };
        let ds = check(&module);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].code, Code::NonLeftLinear);
        assert_eq!(ds[0].line, None);
        assert!(ds[0].message.contains("`x`"), "{}", ds[0].message);
    }

    #[test]
    fn repeated_vars_names_same_and_cross_parameter_repetition_deduplicated() {
        // `g (Cons x x) y y x = Z`: `x` repeats *within* the first
        // parameter (and again across parameters), `y` repeats *across*
        // parameters. Both must be named, each exactly once, in
        // first-repetition order.
        use cycleq_term::{fixtures::NatList, Term, Type, TypeScheme};
        let f = NatList::new();
        let mut sig = f.sig.clone();
        let nat = f.nat_ty();
        let g = sig
            .add_defined(
                "g",
                TypeScheme::mono(Type::arrows(vec![nat.clone(); 4], nat.clone())),
            )
            .unwrap();
        let mut trs = cycleq_rewrite::Trs::new();
        let x = trs.vars_mut().fresh("x", nat.clone());
        let y = trs.vars_mut().fresh("y", nat);
        trs.add_rule(
            &sig,
            g,
            vec![
                Term::apps(f.cons, vec![Term::var(x), Term::var(x)]),
                Term::var(y),
                Term::var(y),
                Term::var(x),
            ],
            Term::sym(f.zero),
        )
        .unwrap();
        let module = Module {
            program: cycleq_rewrite::Program::new(sig, trs),
            goals: Vec::new(),
            rule_lines: Vec::new(),
            decl_lines: std::collections::HashMap::new(),
        };
        let ds = check(&module);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].code, Code::NonLeftLinear);
        assert!(
            ds[0].message.contains("`x`, `y`"),
            "both variables, in first-repetition order: {}",
            ds[0].message
        );
        assert_eq!(
            ds[0].message.matches("`x`").count(),
            1,
            "`x` repeats three times but must be named once: {}",
            ds[0].message
        );
        assert_eq!(ds[0].message.matches("`y`").count(), 1, "{}", ds[0].message);
    }
}
