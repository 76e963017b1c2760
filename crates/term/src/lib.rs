//! Terms, types, signatures, substitutions, matching and unification for the
//! CycleQ cyclic equational prover (PLDI 2022, §2).
//!
//! The formal setting is a higher-order rewriting system over simple types
//! built from a finite set of algebraic datatypes. Function symbols are
//! partitioned into *constructors* (at most first order) and *defined*
//! functions. Terms are applicative: variables, symbols, and application.
//!
//! This crate represents terms in *spine form*: a head (variable or symbol)
//! together with the vector of arguments it is applied to. Spine form makes
//! the operations the prover performs constantly — matching a rewrite rule
//! `f M0 … Mn`, locating the variable that blocks reduction, decomposing a
//! constructor equation — direct array operations instead of walks over
//! nested binary applications. The binary application view is still available
//! via [`Term::app`].
//!
//! # Example
//!
//! ```
//! use cycleq_term::{Signature, Type, Term, VarStore};
//!
//! let mut sig = Signature::new();
//! let nat = sig.add_datatype("Nat", 0).unwrap();
//! let zero = sig.add_constructor("Z", nat, vec![]).unwrap();
//! let succ = sig
//!     .add_constructor("S", nat, vec![Type::data0(nat)])
//!     .unwrap();
//!
//! let mut vars = VarStore::new();
//! let x = vars.fresh("x", Type::data0(nat));
//! let one = Term::apps(succ, vec![Term::sym(zero)]);
//! let sx = Term::apps(succ, vec![Term::var(x)]);
//! assert_eq!(sx.display(&sig, &vars).to_string(), "S x");
//! assert_eq!(one.size(), 2);
//! ```

mod equation;
mod hash;
mod matching;
mod position;
mod pretty;
mod signature;
mod store;
mod subst;
mod term;
mod types;
mod unify;
mod var;

pub mod fixtures;

pub use equation::Equation;
pub use hash::{IdBuildHasher, IdHashMap, IdHashSet, IdHasher};
pub use matching::match_term;
pub use position::{Position, Positions};
pub use pretty::{TermDisplay, TypeDisplay};
pub use signature::{DataDecl, DataId, Signature, SignatureError, SymDecl, SymId, SymKind};
pub use store::{IdSubst, Preorder, TermId, TermStore};
pub use subst::Subst;
pub use term::{Head, Term};
pub use types::{TyUnifier, TyVarId, Type, TypeError, TypeErrorDisplay, TypeScheme};
pub use unify::{unify, UnifyError};
pub use var::{VarId, VarStore};

/// The deepest nesting the frontend parser and the certificate reader
/// accept, in levels of [`Term::depth`]: a term or type whose tree is
/// deeper, or whose source nests more parentheses or arrows than this, is
/// refused as a frontend error or a malformed certificate. Much of the
/// pipeline (elaboration, search, checking, rendering, dropping a term)
/// recurses once per level, so without the bound a deeply nested input
/// would overflow the stack instead of being reported. The goals and
/// proofs of the paper nest a few dozen levels at most.
pub const MAX_NESTING: usize = 1000;
