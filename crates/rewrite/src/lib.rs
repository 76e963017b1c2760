//! Rewrite systems, reduction, narrowing and term orders for CycleQ (§2,
//! §4).
//!
//! A functional program is modelled as a [`Program`]: a
//! [`cycleq_term::Signature`] plus a [`Trs`] whose rules have the shape
//! `f M0 … Mn → N` with `f` defined and the `Mi` constructor patterns.
//! This crate provides:
//!
//! - [`MemoRewriter`]: memoised normalisation on hash-consed terms, the
//!   engine the proof search and the proof checker run;
//! - [`Rewriter`]: leftmost-outermost reduction and normalisation `↓R` on
//!   owned terms, with fuel so non-terminating inputs fail gracefully;
//! - [`case_candidates`]: the needed-narrowing-style blocked-variable
//!   analysis driving the `(Case)` rule (§6);
//! - [`check_symbol`]/[`check_program`]: the pattern-completeness check
//!   backing the "complete" assumption of Remark 2.1;
//! - [`check_orthogonality`]: left-linearity + non-overlap, the syntactic
//!   confluence criterion for the confluence assumption of Remark 2.1;
//! - [`narrow_at`]: most-general-unifier narrowing, the engine of rewriting
//!   induction's `Expand` (Definition 4.1);
//! - [`Lpo`] and friends: the reduction orders of §4.
//!
//! The remaining assumption of Remark 2.1, weak normalisation, is
//! established by the size-change termination pre-screen in
//! `cycleq_analysis` (`CQ004`), next to the other precondition checks.
//!
//! # Example
//!
//! ```
//! use cycleq_rewrite::{fixtures::nat_list_program, Rewriter};
//! use cycleq_term::Term;
//!
//! let p = nat_list_program();
//! let rw = Rewriter::new(&p.prog.sig, &p.prog.trs);
//! let two_plus_one = Term::apps(p.f.add, vec![p.f.num(2), p.f.num(1)]);
//! assert_eq!(rw.normalize(&two_plus_one).term, p.f.num(3));
//! ```

mod blocked;
mod completeness;
mod critical_pairs;
mod limits;
mod memo;
mod narrow;
mod orders;
mod orthogonality;
mod reduce;
mod rule;
mod shared_cache;
mod trs;

pub mod fixtures;

pub use blocked::{case_candidates, root_case_candidates};
pub use completeness::{check_program, check_symbol, Completeness, WitnessPat};
pub use critical_pairs::{critical_pairs, CriticalPair, CriticalPairs};
pub use limits::{CancelToken, Interrupted, RunLimits};
pub use memo::{MemoRewriter, NormalizedId};
pub use narrow::{narrow_at, NarrowingStep};
pub use orders::{
    check_rules_decreasing, DecreasingOrder, Lpo, Precedence, SubtermOrder, TermOrder,
};
pub use orthogonality::{check_orthogonality, OrthogonalityReport};
pub use reduce::{Normalized, Rewriter, DEFAULT_FUEL};
pub use rule::{Rule, RuleError, RuleId};
pub use shared_cache::{CacheStats, SharedNormalFormCache};
pub use trs::{Program, Trs};
