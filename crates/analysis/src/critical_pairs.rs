//! `CQ002`/`CQ009`: critical-pair classification of overlapping clauses.
//!
//! An overlap check alone can only report *that* two clauses match the
//! same terms. This pass decides whether an overlap matters: it enumerates
//! the system's critical pairs ([`cycleq_rewrite::critical_pairs`], one per
//! overlapping pair of clauses of the same function) and normalizes both
//! reducts of each with the memoized rewriter.
//!
//! - The critical pair is **joinable** (both reducts reach the same normal
//!   form): the overlap is benign for results — the system is weakly
//!   orthogonal, like the paper's fig. 2 `sub` — and is reported as
//!   `CQ002` downgraded to a *warning*, with the converging normal form in
//!   the note and the fix that splits the more general clause
//!   ([`crate::fix`]).
//! - The critical pair is **non-joinable** (the reducts normalize to
//!   different terms, or fail to normalize within fuel): the system is
//!   definitively order-sensitive and gets the `CQ009` *error*, with the
//!   two diverging reducts in the note.

use cycleq_lang::Module;
use cycleq_rewrite::{critical_pairs, MemoRewriter, RuleId};
use cycleq_term::Term;

use crate::diagnostic::{Code, Diagnostic, Severity};
use crate::fix::overlap_fix;

/// Fuel for normalizing critical-pair reducts. Reducts are instantiated
/// clause right-hand sides — tiny terms — so this is generous; a reduct
/// that exhausts it is treated as non-joinable (conservative).
const JOIN_FUEL: usize = 10_000;

/// The joinability verdict for one pair of overlapping clauses.
struct OverlapVerdict {
    /// The earlier rule of the pair.
    a: RuleId,
    /// The later rule of the pair.
    b: RuleId,
    /// Whether the pair's critical pair is joinable.
    joinable: bool,
    /// The rendered peak.
    peak: String,
    /// The rendered normal form of the later clause's reduct.
    left_nf: String,
    /// The rendered normal form of the earlier clause's reduct (equals
    /// `left_nf` when `joinable`).
    right_nf: String,
    /// Whether both reducts actually reached normal forms within fuel.
    normalized: bool,
}

/// Computes the per-clause-pair joinability verdicts for the module.
fn overlap_verdicts(module: &Module) -> Vec<OverlapVerdict> {
    let sig = &module.program.sig;
    let trs = &module.program.trs;
    let cps = critical_pairs(trs);
    let render = |t: &Term| t.display(sig, &cps.vars).to_string();
    let mut rewriter = MemoRewriter::new(sig, trs).with_fuel(JOIN_FUEL);
    cps.pairs
        .iter()
        .map(|cp| {
            let l = rewriter.normalize(&cp.left);
            let r = rewriter.normalize(&cp.right);
            let normalized = l.in_normal_form && r.in_normal_form;
            OverlapVerdict {
                a: cp.outer,
                b: cp.inner,
                joinable: normalized && l.term == r.term,
                peak: render(&cp.peak),
                left_nf: render(&l.term),
                right_nf: render(&r.term),
                normalized,
            }
        })
        .collect()
}

pub(crate) fn check(module: &Module) -> Vec<Diagnostic> {
    let sig = &module.program.sig;
    let trs = &module.program.trs;
    let mut out = Vec::new();
    for v in overlap_verdicts(module) {
        let name = sig.sym(trs.rule(v.a).head()).name();
        let la = module.rule_line(v.a);
        let lb = module.rule_line(v.b);
        let position = match (la, lb) {
            (Some(la), Some(lb)) => format!("the clauses at lines {la} and {lb}"),
            _ => format!("clauses #{} and #{}", v.a.index(), v.b.index()),
        };
        if v.joinable {
            let mut d = Diagnostic::new(
                Code::Overlap,
                la.or(lb),
                format!("clauses for `{name}` overlap: {position} match the same terms"),
            )
            .with_severity(Severity::Warning)
            .with_note(format!(
                "both clauses rewrite `{}`; the critical pair is joinable — \
                 both reducts normalize to `{}` — so results do not depend \
                 on clause order",
                v.peak, v.left_nf
            ))
            .with_note(
                "the system is weakly orthogonal, not orthogonal (Remark 2.1); \
                 `cycleq lint --fix` can split the more general clause into \
                 non-overlapping cases",
            );
            d.fix = overlap_fix(module, v.a, v.b);
            out.push(d);
        } else {
            let diverge = if v.normalized {
                format!(
                    "the reducts normalize to `{}` and `{}`, which never meet",
                    v.left_nf, v.right_nf
                )
            } else {
                format!(
                    "the reducts `{}` and `{}` did not reach normal forms within \
                     the fuel bound",
                    v.left_nf, v.right_nf
                )
            };
            out.push(
                Diagnostic::new(
                    Code::NonJoinable,
                    la.or(lb),
                    format!(
                        "clauses for `{name}` have a non-joinable critical pair: \
                         {position} disagree on `{}`",
                        v.peak
                    ),
                )
                .with_note(diverge)
                .with_note(
                    "a non-joinable critical pair breaks confluence outright: goal \
                     verdicts depend on clause order (Remark 2.1 is violated); \
                     rewrite the clauses so the overlapping case agrees",
                ),
            );
        }
    }
    out
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
    fn joinable_weak_overlap_is_a_warning_with_converging_normal_form() {
        // The paper's fig. 2 `sub`: `sub Z y` and `sub x Z` both match
        // `sub Z Z`, where both return `Z` — a joinable weak overlap.
        let m = parse_module(
            "data Nat = Z | S Nat\nsub :: Nat -> Nat -> Nat\nsub Z y = Z\nsub x Z = x\nsub (S x) (S y) = sub x y\n",
        )
        .unwrap();
        let ds = check(&m);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].code, Code::Overlap);
        assert_eq!(ds[0].severity, Severity::Warning);
        assert_eq!(ds[0].line, Some(3));
        assert!(ds[0].message.contains("lines 3 and 4"), "{}", ds[0].message);
        assert!(
            ds[0]
                .notes
                .iter()
                .any(|n| n.contains("sub Z Z") && n.contains("normalize to `Z`")),
            "joinable note missing: {:?}",
            ds[0].notes
        );
    }

    #[test]
    fn non_joinable_overlap_is_cq009_with_both_reducts() {
        // `f x = Z` and `f Z = S Z` both match `f Z` but disagree there.
        let m =
            parse_module("data Nat = Z | S Nat\nf :: Nat -> Nat\nf x = Z\nf Z = S Z\n").unwrap();
        let ds = check(&m);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].code, Code::NonJoinable);
        assert_eq!(ds[0].severity, Severity::Error);
        assert_eq!(ds[0].line, Some(3));
        assert!(ds[0].message.contains("`f Z`"), "{}", ds[0].message);
        assert!(
            ds[0]
                .notes
                .iter()
                .any(|n| n.contains("`Z`") && n.contains("`S Z`")),
            "diverging reducts missing: {:?}",
            ds[0].notes
        );
    }

    #[test]
    fn critical_instance_uses_original_variable_names() {
        // Non-ground peak: `g x y` vs `g (S m) n` overlap on `g (S m) n`
        // — the note must show the clauses' own variable names, not
        // freshened scratch names.
        let m = parse_module(
            "data Nat = Z | S Nat\ng :: Nat -> Nat -> Nat\ng x y = x\ng (S m) n = S m\n",
        )
        .unwrap();
        let ds = check(&m);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].code, Code::Overlap, "{:?}", ds[0]);
        let note = &ds[0].notes[0];
        // The peak is an instance under the mgu, so it may mix variables
        // from both clauses (here `m` from the second, `y` from the
        // first) — but every name must come from the source.
        assert!(
            note.contains("g (S m)"),
            "peak does not use source names: {note}"
        );
        // Whichever rule ends up freshened, no internal scratch names
        // (v0, v1, …) may leak, and no gratuitous primes appear when the
        // clauses' names do not collide.
        assert!(!note.contains("v0") && !note.contains("v1"), "{note}");
        assert!(!note.contains('\''), "gratuitous primes: {note}");
    }
}
