//! Rewrite systems, reduction and term orders for CycleQ (§2, §4).
//!
//! A functional program is modelled as a [`Program`]: a
//! [`cycleq_term::Signature`] plus a [`Trs`] whose rules have the shape
//! `f M0 … Mn → N` with `f` defined and the `Mi` constructor patterns.
//! This crate provides:
//!
//! - [`MemoRewriter`]: memoised normalisation `↓R` on hash-consed terms,
//!   with fuel so non-terminating inputs fail gracefully, and the
//!   blocked-variable analysis driving the `(Case)` rule (§6); the one
//!   rewriter the proof search, the proof checker, rewriting induction and
//!   structural induction run;
//! - [`check_symbol`]/[`check_program`]: the pattern-completeness check
//!   backing the "complete" assumption of Remark 2.1;
//! - [`critical_pairs`]: the overlaps between clauses of the same
//!   function, whose joinability decides the confluence assumption of
//!   Remark 2.1 (left-linearity is [`Rule::is_left_linear`]);
//! - [`Lpo`] and friends: the reduction orders of §4.
//!
//! The remaining assumption of Remark 2.1, weak normalisation, is
//! established by the size-change termination pre-screen in
//! `cycleq_analysis` (`CQ004`), next to the other precondition checks.
//!
//! # Example
//!
//! ```
//! use cycleq_rewrite::{fixtures::nat_list_program, MemoRewriter};
//! use cycleq_term::Term;
//!
//! let p = nat_list_program();
//! let mut rw = MemoRewriter::new(&p.prog.sig, &p.prog.trs);
//! let two_plus_one = Term::apps(p.f.add, vec![p.f.num(2), p.f.num(1)]);
//! assert_eq!(rw.normalize(&two_plus_one).term, p.f.num(3));
//! ```

mod completeness;
mod critical_pairs;
mod limits;
mod memo;
mod orders;
mod rule;
mod shared_cache;
mod trs;

pub mod fixtures;

pub use completeness::{check_program, check_symbol, Completeness, WitnessPat};
pub use critical_pairs::{critical_pairs, CriticalPair, CriticalPairs};
pub use limits::{CancelToken, Interrupted, RunLimits};
pub use memo::{MemoRewriter, Normalized, NormalizedId, DEFAULT_FUEL};
pub use orders::{
    check_rules_decreasing, DecreasingOrder, Lpo, Precedence, SubtermOrder, TermOrder,
};
pub use rule::{Rule, RuleError, RuleId};
pub use shared_cache::{CacheStats, SharedNormalFormCache};
pub use trs::{Program, Trs};

/// Reduction by the plain leftmost-outermost normaliser,
/// [`fixtures::reference_normalize`], the oracle [`MemoRewriter`] is
/// checked against.
#[cfg(test)]
mod reduce {
    mod tests {
        use crate::fixtures::{nat_list_program, reference_normalize};
        use crate::DEFAULT_FUEL;
        use cycleq_term::{Term, VarStore};

        #[test]
        fn open_terms_get_stuck() {
            let p = nat_list_program();
            let mut vars = VarStore::new();
            let x = vars.fresh("x", p.f.nat_ty());
            let t = Term::apps(p.f.add, vec![Term::var(x), p.f.num(1)]);
            let n = reference_normalize(&p.prog.sig, &p.prog.trs, &t, DEFAULT_FUEL);
            assert!(n.in_normal_form);
            assert_eq!(n.term, t, "stuck on the case variable x");
        }

        #[test]
        fn fuel_exhaustion_is_reported() {
            let p = nat_list_program();
            let t = Term::apps(p.f.add, vec![p.f.num(5), p.f.num(5)]);
            let n = reference_normalize(&p.prog.sig, &p.prog.trs, &t, 2);
            assert!(!n.in_normal_form);
            assert_eq!(n.steps, 2);
        }
    }
}
