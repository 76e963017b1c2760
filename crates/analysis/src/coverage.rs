//! `CQ001`: pattern coverage.
//!
//! Remark 2.1 assumes programs are *complete*: no closed defined-head term
//! is a normal form. A function whose clauses miss a constructor case is
//! partial — goals mentioning it can get stuck on the uncovered values,
//! and equational reasoning about the stuck terms is vacuous. The heavy
//! lifting is the pattern-matrix usefulness algorithm in
//! [`cycleq_rewrite::check_program`]; this pass attaches source locations,
//! renders the uncovered witness, and builds the fix that inserts the
//! missing clause (or a stub for it).

use cycleq_lang::Module;
use cycleq_rewrite::check_program;

use crate::diagnostic::{Code, Diagnostic};
use crate::first_rule_line;
use crate::fix::coverage_fix;

pub(crate) fn check(module: &Module) -> Vec<Diagnostic> {
    let sig = &module.program.sig;
    let trs = &module.program.trs;
    check_program(sig, trs)
        .into_iter()
        .map(|(sym, witness)| {
            let name = sig.sym(sym).name();
            let pats: Vec<String> = witness.iter().map(|w| w.display(sig)).collect();
            let line = first_rule_line(module, sym).or_else(|| module.decl_line(name));
            let mut d = Diagnostic::new(
                Code::NonExhaustive,
                line,
                format!(
                    "`{name}` is partial: no clause matches `{name} {}`",
                    pats.join(" ")
                ),
            )
            .with_note(
                "partial functions break the completeness assumption (Remark 2.1): \
                 terms built from the uncovered case are stuck normal forms",
            );
            d.fix = coverage_fix(module, sym, &witness);
            d
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cycleq_lang::parse_module;

    #[test]
    fn complete_programs_are_clean() {
        let m = parse_module(
            "data Nat = Z | S Nat\nadd :: Nat -> Nat -> Nat\nadd Z y = y\nadd (S x) y = S (add x y)\n",
        )
        .unwrap();
        assert!(check(&m).is_empty());
    }

    #[test]
    fn missing_case_is_reported_with_witness_and_line() {
        let m = parse_module("data Nat = Z | S Nat\npred :: Nat -> Nat\npred (S x) = x\n").unwrap();
        let ds = check(&m);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].code, Code::NonExhaustive);
        assert_eq!(ds[0].line, Some(3));
        assert!(ds[0].message.contains("`pred Z`"), "{}", ds[0].message);
    }
}
