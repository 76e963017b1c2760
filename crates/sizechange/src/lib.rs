//! Size-change graphs and the global-correctness machinery of CycleQ (§5.2).
//!
//! The global condition on cyclic preproofs — every infinite path has a
//! suffix carrying a trace with infinitely many progress points — is
//! undecidable in general. CycleQ restricts attention to *variable-based*
//! traces, for which the condition reduces to Lee, Jones and Ben-Amram's
//! size-change principle: annotate every proof edge with a size-change graph
//! (Definition 5.3), close the set of graphs under composition
//! (Definition 5.4), and require every idempotent self-loop graph to carry a
//! strict self-edge (Theorem 5.2).
//!
//! This crate is independent of the term language: graphs are generic over
//! the variable type `V` and the node type `N`, so the same machinery
//! verifies proofs (variables = term variables, nodes = proof vertices) and
//! program termination (variables = argument positions, nodes = function
//! symbols).
//!
//! Every closure is an [`IncrementalClosure`]: trail-based saturation over
//! the hash-consed [`GraphStore`] (per-graph bit planes, cached Theorem 5.2
//! flags, memoized composition, subsumption pruning — see [`store`] and the
//! exactness argument in [`incremental`]). Proof search adds edges one at
//! a time under checkpoint/undo, so unsound cycles are detected the moment
//! they are created and shared proof prefixes are never re-verified — the
//! paper's answer to the soundness-checking bottleneck observed in
//! Cyclist. The proof checker and the termination pre-screen feed a fixed
//! edge set through the same engine and read [`IncrementalClosure::soundness`]
//! once at the end.
//!
//! [`ScGraph`] stays as the owned, construction-facing graph (and the
//! executable specification the property tests compare the store
//! against); it lowers into a store via [`GraphStore::intern`].
//!
//! # Example
//!
//! ```
//! use cycleq_sizechange::{IncrementalClosure, Label, ScGraph, Soundness};
//!
//! // A single recursive function whose first argument strictly decreases.
//! let mut g = ScGraph::new();
//! g.insert(0u32, 0u32, Label::Strict);
//! assert_eq!(IncrementalClosure::new().add_edge("f", "f", g), Soundness::Sound);
//!
//! // A function that shuffles its arguments without decrease diverges.
//! let mut swap = ScGraph::new();
//! swap.insert(0u32, 1u32, Label::NonStrict);
//! swap.insert(1u32, 0u32, Label::NonStrict);
//! assert_eq!(IncrementalClosure::new().add_edge("f", "f", swap), Soundness::Unsound);
//! ```

mod graph;
mod idvec;
pub mod incremental;
mod metrics;
pub mod store;

pub use graph::{Label, ScGraph};
pub use incremental::{IncrementalClosure, Mark, Soundness};
pub use store::{GraphId, GraphStore};
