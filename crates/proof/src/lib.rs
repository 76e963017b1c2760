//! Cyclic preproofs, proof checking and the global correctness condition
//! for CycleQ (§3, §5).
//!
//! A [`Preproof`] is a finite set of vertices, each carrying an equation and
//! an instance of one of the inference rules (Definition 3.1): `(Refl)`,
//! `(Reduce)`, `(Subst)`, `(Case)`, plus the implementation's eager
//! congruence and extensionality rules (§6). Premises may reference *any*
//! vertex, so cycles are represented directly.
//!
//! Preproofs are not necessarily sound (Example 3.2); a preproof is a
//! *proof* when every infinite path has a suffix with an infinitely
//! progressing trace (Definition 3.6). Restricting to variable-based traces
//! makes the condition decidable via size-change graphs: [`edge_graph`]
//! annotates each proof edge (Definition 5.3) and [`check_global`] applies
//! Theorem 5.2.
//!
//! The [`check`] function is an independent checker validating both local
//! rule instances and the global condition; everything the search or the
//! rewriting-induction translation produces is re-checked here. It runs on
//! a private hash-consed store with reducts memoized across nodes, and
//! [`check_with`] reuses one rewriter across the proofs of a batch.
//! [`export_certificate`] serializes proofs into self-contained
//! [`Certificate`]s that can be re-validated offline (`cycleq check`).

mod certificate;
mod checker;
mod edges;
mod node;
mod preproof;
mod render;
mod transform;

pub use certificate::{export_certificate, program_fingerprint, Certificate, CertificateError};
pub use checker::{check, check_with, CheckError, CheckErrorKind, CheckReport, GlobalCheck};
pub use edges::{check_global, cycle_witnesses, edge_graph, edge_graph_id, global_edges};
pub use node::{CaseBranch, Node, NodeId, RuleApp, Side, SubstApp};
pub use preproof::{InternedPreproof, Preproof};
pub use render::{render_dot, render_text};
pub use transform::{count_redundant_lemmas, eliminate_redundant_lemmas, RedundancyReport};
