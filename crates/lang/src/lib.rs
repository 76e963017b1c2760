//! A small functional-language frontend for CycleQ.
//!
//! The CycleQ paper's artifact is a GHC plugin consuming "a small subset of
//! Haskell, including top-level recursive functions, algebraic datatypes,
//! and polymorphism" (§6), with goal equations written using `≡`. This crate
//! provides an equivalent stand-alone frontend: a Haskell-like surface
//! syntax with `data` declarations, type signatures, pattern-matching
//! clauses and `goal … : s === t` declarations, lowered to the formal
//! rewrite systems of §2.
//!
//! # Example
//!
//! ```
//! let src = "
//! data Nat = Z | S Nat
//! add :: Nat -> Nat -> Nat
//! add Z y = y
//! add (S x) y = S (add x y)
//! goal comm: add x y === add y x
//! ";
//! let module = cycleq_lang::parse_module(src).expect("valid program");
//! assert_eq!(module.goals.len(), 1);
//! assert_eq!(module.program.trs.len(), 2);
//! ```

mod ast;
mod error;
mod lexer;
mod lower;
mod parser;
mod printer;
mod token;

pub use ast::{Decl, RawCon, RawTerm, RawType};
pub use error::{LangError, LangErrorKind};
pub use lower::{lower, GoalDef, Module};
pub use parser::parse;
pub use printer::{print_clause, print_module, print_program};

/// Parses and lowers a complete module in one step.
///
/// # Errors
///
/// Returns the first lexical, syntactic, resolution or type error.
pub fn parse_module(src: &str) -> Result<Module, LangError> {
    lower(&parse(src)?)
}

/// Parses a complete module, like [`parse_module`], but lowers only its
/// signature, its rules and the goal named `goal`: the returned
/// [`Module::goals`] holds that goal, or nothing when the module does not
/// declare it. A resolution or type error in any other goal goes
/// unreported; syntax errors and duplicate goal names anywhere do not.
///
/// # Errors
///
/// Returns the first lexical or syntactic error, or the first resolution
/// or type error in the program or in the named goal.
pub fn parse_module_for_goal(src: &str, goal: &str) -> Result<Module, LangError> {
    lower::lower_goals(&parse(src)?, Some(goal))
}
