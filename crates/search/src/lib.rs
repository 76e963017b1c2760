//! Goal-directed cyclic proof search for CycleQ (§5, §6).
//!
//! This crate implements the paper's proof-search algorithm on top of the
//! [`cycleq_proof`] calculus:
//!
//! - rules are applied in the priority order *reduce, refl, congruence,
//!   extensionality, subst, case*; the first four are committed (never
//!   backtracked), matching §6;
//! - `(Subst)` is used as the *matching function* for cycles: lemmas are
//!   existing `(Case)`-justified proof nodes (§5.1), configurable via
//!   [`LemmaPolicy`] for the ablation study;
//! - global correctness is maintained *incrementally*: every edge extends a
//!   size-change closure with undo, and a cycle that cannot satisfy
//!   Theorem 5.2 is pruned the moment it is formed (§5.2);
//! - constructor clashes refute goals outright when reached by invertible
//!   rules only, giving a disproof facility for free.
//!
//! # Example
//!
//! ```
//! use cycleq_rewrite::fixtures::nat_list_program;
//! use cycleq_search::Prover;
//! use cycleq_term::{Equation, Term, VarStore};
//!
//! let p = nat_list_program();
//! let mut vars = VarStore::new();
//! let x = vars.fresh("x", p.f.nat_ty());
//! let goal = Equation::new(
//!     Term::apps(p.f.add, vec![Term::var(x), Term::sym(p.f.zero)]),
//!     Term::var(x),
//! );
//! let result = Prover::new(&p.prog).prove(goal, vars);
//! assert!(result.outcome.is_proved());
//! ```

mod budget;
mod config;
mod induction;
mod prover;

pub use budget::Budget;
pub use config::{LemmaPolicy, SearchConfig, SearchStats};
pub use cycleq_rewrite::CancelToken;
pub use induction::{structural_induction, InductionError};
pub use prover::{Outcome, ProofResult, Prover, RoundObserver};
