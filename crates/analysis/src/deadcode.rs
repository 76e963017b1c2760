//! `CQ005`–`CQ007`: the dead-code sweep.
//!
//! Three cheap hygiene checks over the lowered module: equations that no
//! goal can ever exercise (`CQ005`, only meaningful when the module has
//! goals), symbols and constructors declared but never used (`CQ006`),
//! and pattern variables that shadow defined functions (`CQ007` — inside
//! the clause the name resolves to the variable, which is rarely what the
//! author meant).

use std::collections::BTreeSet;

use cycleq_lang::Module;
use cycleq_term::{SymId, SymKind, Term};

use crate::diagnostic::{Code, Diagnostic};
use crate::first_rule_line;
use crate::fix::deadcode_fix;

pub(crate) fn check(module: &Module) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    check_unreachable(module, &mut out);
    check_unused(module, &mut out);
    check_shadowing(module, &mut out);
    out
}

/// Defined symbols reachable from the goals, transitively through the
/// right-hand sides of their rules. Deleting a symbol outside this set
/// cannot change any goal's verdict, which is what makes the `CQ005` fix
/// safe.
fn reachable_defined(module: &Module) -> BTreeSet<SymId> {
    let sig = &module.program.sig;
    let trs = &module.program.trs;
    let mut reach: BTreeSet<SymId> = BTreeSet::new();
    let mut work: Vec<SymId> = Vec::new();
    let visit = |t: &Term, reach: &mut BTreeSet<SymId>, work: &mut Vec<SymId>| {
        for sub in t.subterms() {
            if let Some(s) = sub.head_sym() {
                if sig.is_defined(s) && reach.insert(s) {
                    work.push(s);
                }
            }
        }
    };
    for g in &module.goals {
        visit(g.eq.lhs(), &mut reach, &mut work);
        visit(g.eq.rhs(), &mut reach, &mut work);
    }
    while let Some(sym) = work.pop() {
        for id in trs.rules_for(sym) {
            visit(trs.rule(*id).rhs(), &mut reach, &mut work);
        }
    }
    reach
}

fn check_unreachable(module: &Module, out: &mut Vec<Diagnostic>) {
    if module.goals.is_empty() {
        // Without goals there is nothing to be reachable from; stay quiet
        // rather than flag the entire program.
        return;
    }
    let sig = &module.program.sig;
    let trs = &module.program.trs;
    let reach = reachable_defined(module);
    for (sym, decl) in sig.syms() {
        if decl.kind() != SymKind::Defined || reach.contains(&sym) {
            continue;
        }
        let n = trs.rules_for(sym).len();
        if n == 0 {
            continue; // CQ006's department.
        }
        let mut d = Diagnostic::new(
            Code::Unreachable,
            first_rule_line(module, sym).or_else(|| module.decl_line(decl.name())),
            format!(
                "`{}` and its {n} equation{} are unreachable from any goal",
                decl.name(),
                if n == 1 { "" } else { "s" }
            ),
        )
        .with_note("unreachable equations never participate in proof search");
        d.fix = deadcode_fix(module, sym);
        out.push(d);
    }
}

fn check_unused(module: &Module, out: &mut Vec<Diagnostic>) {
    let sig = &module.program.sig;
    let trs = &module.program.trs;
    // Every symbol occurring in a rule (patterns or right-hand side) or a
    // goal. A rule's own head is a definition, not a use.
    let mut used: BTreeSet<SymId> = BTreeSet::new();
    let mark = |t: &Term, used: &mut BTreeSet<SymId>| {
        for sub in t.subterms() {
            if let Some(s) = sub.head_sym() {
                used.insert(s);
            }
        }
    };
    for (_, rule) in trs.rules() {
        for p in rule.params() {
            mark(p, &mut used);
        }
        mark(rule.rhs(), &mut used);
    }
    for g in &module.goals {
        mark(g.eq.lhs(), &mut used);
        mark(g.eq.rhs(), &mut used);
    }
    for (sym, decl) in sig.syms() {
        if used.contains(&sym) {
            continue;
        }
        match decl.kind() {
            SymKind::Constructor(_) => out.push(
                Diagnostic::new(
                    Code::Unused,
                    module.decl_line(decl.name()),
                    format!("constructor `{}` is never used", decl.name()),
                )
                .with_note(
                    "it still counts towards pattern coverage; drop it or add the missing case",
                ),
            ),
            SymKind::Defined => {
                if trs.rules_for(sym).is_empty() {
                    out.push(Diagnostic::new(
                        Code::Unused,
                        module.decl_line(decl.name()),
                        format!(
                            "`{}` is declared but has no equations and is never used",
                            decl.name()
                        ),
                    ));
                }
            }
        }
    }
}

fn check_shadowing(module: &Module, out: &mut Vec<Diagnostic>) {
    let sig = &module.program.sig;
    let trs = &module.program.trs;
    for (id, rule) in trs.rules() {
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        for p in rule.params() {
            for t in p.subterms() {
                let Some(v) = t.as_var() else { continue };
                let vname = trs.vars().name(v);
                if !seen.insert(vname) {
                    continue;
                }
                if sig.sym_by_name(vname).is_some_and(|s| sig.is_defined(s)) {
                    out.push(
                        Diagnostic::new(
                            Code::Shadowed,
                            module.rule_line(id),
                            format!(
                                "pattern variable `{vname}` in the clause for `{}` shadows the function of the same name",
                                sig.sym(rule.head()).name()
                            ),
                        )
                        .with_note(format!(
                            "inside this clause `{vname}` refers to the variable, not the function"
                        )),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cycleq_lang::parse_module;

    const NAT: &str = "data Nat = Z | S Nat
add :: Nat -> Nat -> Nat
add Z y = y
add (S x) y = S (add x y)
";

    #[test]
    fn fully_used_program_with_goal_is_clean() {
        let m = parse_module(&format!("{NAT}goal zr: add x Z === x\n")).unwrap();
        assert!(check(&m).is_empty());
    }

    #[test]
    fn function_unreachable_from_goals_is_flagged() {
        let src = format!(
            "{NAT}mul :: Nat -> Nat -> Nat\nmul Z y = Z\nmul (S x) y = add y (mul x y)\ngoal zr: add x Z === x\n"
        );
        let m = parse_module(&src).unwrap();
        let ds = check(&m);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].code, Code::Unreachable);
        assert_eq!(ds[0].line, Some(6));
        assert!(ds[0].message.contains("`mul`"), "{}", ds[0].message);
    }

    #[test]
    fn no_goals_means_no_reachability_findings() {
        let m = parse_module(NAT).unwrap();
        assert!(check(&m).is_empty());
    }

    #[test]
    fn unused_constructor_is_flagged_at_its_data_line() {
        let src = "data Nat = Z | S Nat\ndata Color = Red | Green\nadd :: Nat -> Nat -> Nat\nadd Z y = y\nadd (S x) y = S (add x y)\n";
        let m = parse_module(src).unwrap();
        let ds = check(&m);
        let unused: Vec<_> = ds.iter().filter(|d| d.code == Code::Unused).collect();
        assert_eq!(unused.len(), 2, "{ds:?}");
        assert!(unused.iter().all(|d| d.line == Some(2)));
    }

    #[test]
    fn declared_but_undefined_function_is_flagged() {
        let src = format!("{NAT}ghost :: Nat -> Nat\n");
        let m = parse_module(&src).unwrap();
        let ds = check(&m);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].code, Code::Unused);
        assert!(ds[0].message.contains("`ghost`"));
    }

    #[test]
    fn shadowing_pattern_variable_is_flagged_once() {
        let src = format!("{NAT}twice :: Nat -> Nat\ntwice add = add\n");
        let m = parse_module(&src).unwrap();
        let ds = check(&m);
        let shadowed: Vec<_> = ds.iter().filter(|d| d.code == Code::Shadowed).collect();
        assert_eq!(shadowed.len(), 1, "{ds:?}");
        assert_eq!(shadowed[0].line, Some(6));
        assert!(shadowed[0].message.contains("`add`"));
    }
}
