//! Static analysis of CycleQ inputs.
//!
//! CycleQ's soundness (Remark 2.1) rests on preconditions of the input
//! program — a terminating, orthogonal (left-linear, non-overlapping),
//! complete constructor rewrite system — that the prover itself never
//! checks. Mirroring how E-Cyclist validates the *outputs* of cyclic
//! reasoning, this crate validates the *inputs*: [`analyze`] runs every
//! check over a lowered [`Module`] and returns structured [`Diagnostic`]s
//! with stable codes, severities, source lines and, where one exists, a
//! machine-applicable [`Fix`].
//!
//! | code    | severity | finding |
//! |---------|----------|---------|
//! | `CQ001` | warning  | non-exhaustive patterns (partial function)     |
//! | `CQ002` | error    | overlapping clause left-hand sides             |
//! | `CQ003` | error    | non-left-linear clause left-hand side          |
//! | `CQ004` | warning  | termination not established by size-change     |
//! | `CQ005` | warning  | equations unreachable from any goal            |
//! | `CQ006` | warning  | declared symbol or constructor never used      |
//! | `CQ007` | warning  | pattern variable shadows a defined function    |
//! | `CQ008` | error    | frontend failure surfaced through the linter   |
//! | `CQ009` | error    | non-joinable critical pair (order-sensitive)   |
//!
//! Overlaps are classified by joinability of their critical pairs:
//! `CQ002` instances whose critical pairs all converge are downgraded to
//! warnings (the system is weakly orthogonal), while diverging pairs are
//! promoted to the hard error `CQ009`. Each finding is computed once, by
//! the check that reports it, and that check also builds its fix (`CQ001`,
//! `CQ002`, `CQ005`); [`analyze_with_fixes`] applies the fixes to a fixed
//! point.
//!
//! The individual analyses reuse the engines the prover already trusts:
//! the pattern-matrix usefulness algorithm, critical pairs and
//! left-linearity from `cycleq_rewrite`, the memoized rewriter that joins
//! critical pairs, and the hash-consed, memoized size-change closure from
//! `cycleq_sizechange` — so a program that lints clean is exactly one the
//! paper's metatheory covers.

mod coverage;
mod critical_pairs;
mod deadcode;
mod diagnostic;
mod fix;
mod overlap;
mod termination;

pub use diagnostic::{Code, Diagnostic, Edit, EditKind, Fix, Severity};
pub use fix::{
    analyze_source, analyze_with_fixes, apply_fixes, drop_existing_stub_fixes, unified_diff,
    FixOutcome,
};

use cycleq_lang::{LangError, LangErrorKind, Module};
use cycleq_term::SymId;

/// Runs every analysis over a lowered module, attaching the fixes the
/// checks build to their diagnostics.
///
/// The fixes are computed from the module alone. A `CQ001` stub the source
/// already contains is still offered; [`analyze_source`] and callers that
/// hold the source withdraw it with [`drop_existing_stub_fixes`].
///
/// Diagnostics are sorted by source line (findings without a line sort
/// last), then by code, so output is deterministic across runs.
pub fn analyze(module: &Module) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    out.extend(coverage::check(module));
    out.extend(overlap::check(module));
    out.extend(critical_pairs::check(module));
    out.extend(termination::check(module));
    out.extend(deadcode::check(module));
    out.sort_by(|a, b| {
        (a.line.unwrap_or(u32::MAX), a.code, &a.message).cmp(&(
            b.line.unwrap_or(u32::MAX),
            b.code,
            &b.message,
        ))
    });
    out
}

/// Maps a frontend failure to a diagnostic so `cycleq lint` reports files
/// that do not even lower in the same structured format.
///
/// Non-linear patterns get `CQ003` — the frontend rejects them before the
/// rule-level left-linearity analysis can see them, but they are the same
/// finding. Everything else is the catch-all `CQ008`.
pub fn lang_error_diagnostic(err: &LangError) -> Diagnostic {
    let code = match &err.kind {
        LangErrorKind::NonLinearPattern(_) => Code::NonLeftLinear,
        _ => Code::Frontend,
    };
    Diagnostic::new(code, Some(err.line), err.kind.to_string())
}

/// The source line of `sym`'s first clause, when the module kept one.
pub(crate) fn first_rule_line(module: &Module, sym: SymId) -> Option<u32> {
    module
        .program
        .trs
        .rules_for(sym)
        .first()
        .and_then(|id| module.rule_line(*id))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cycleq_lang::{parse, parse_module};

    #[test]
    fn clean_program_has_no_diagnostics() {
        let m = parse_module(
            "data Nat = Z | S Nat\nadd :: Nat -> Nat -> Nat\nadd Z y = y\nadd (S x) y = S (add x y)\ngoal zr: add x Z === x\n",
        )
        .unwrap();
        assert!(analyze(&m).is_empty());
    }

    #[test]
    fn diagnostics_are_sorted_by_line() {
        // Unused constructor (line 2) and a partial, non-terminating
        // function (line 4 clause).
        let src = "data Nat = Z | S Nat\ndata Color = Red | Green\nspin :: Nat -> Nat\nspin (S x) = spin (S x)\n";
        let m = parse_module(src).unwrap();
        let ds = analyze(&m);
        assert!(!ds.is_empty());
        let lines: Vec<u32> = ds.iter().map(|d| d.line.unwrap_or(u32::MAX)).collect();
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted);
    }

    #[test]
    fn nonlinear_frontend_error_maps_to_cq003() {
        let err = cycleq_lang::lower(
            &parse("data Nat = Z | S Nat\nf :: Nat -> Nat -> Nat\nf x x = x\n").unwrap(),
        )
        .unwrap_err();
        let d = lang_error_diagnostic(&err);
        assert_eq!(d.code, Code::NonLeftLinear);
        assert_eq!(d.line, Some(3));
        assert!(d.is_error());
    }

    #[test]
    fn parse_failure_maps_to_cq008() {
        let err = parse("data Nat = Z |\n").unwrap_err();
        let d = lang_error_diagnostic(&err);
        assert_eq!(d.code, Code::Frontend);
        assert!(d.is_error());
    }
}
