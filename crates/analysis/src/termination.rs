//! `CQ004`: the size-change termination pre-screen.
//!
//! Remark 2.1 assumes weak normalisation and notes that "although
//! undecidable, practical algorithms exist for verifying this property".
//! A definition like `loop x = loop x` silently burns the whole search
//! budget before the deadline machinery gives up; running the
//! Lee–Jones–Ben-Amram check over the program's call graph reports it
//! *before* search instead:
//!
//! - nodes are the defined symbols;
//! - for every rule `f p1 … pn → rhs` and every saturated call
//!   `g a1 … am` in `rhs`, a size-change graph records `i ≲ j` when `aj`
//!   is a proper subterm of `pi` and `i ≃ j` when `aj = pi`;
//! - the program terminates (hence normalises) if the closure satisfies
//!   Theorem 5.2's criterion.
//!
//! The graphs are fed through an [`IncrementalClosure`], so composition is
//! memoized and subsumed graphs are pruned — the same engine that checks
//! the proofs themselves.
//!
//! The analysis is sound but incomplete: a finding means "termination not
//! established", not "diverges", which is why `CQ004` is a warning.

use cycleq_lang::Module;
use cycleq_rewrite::Trs;
use cycleq_sizechange::{IncrementalClosure, Label, ScGraph, Soundness};
use cycleq_term::{Signature, SymId};

use crate::diagnostic::{Code, Diagnostic};
use crate::first_rule_line;

/// One call-graph edge: caller, callee, and the size-change graph over
/// their argument positions.
type CallEdge = (SymId, SymId, ScGraph<u32>);

/// Builds the call graph annotated with size-change graphs over argument
/// positions.
fn call_graphs(sig: &Signature, trs: &Trs) -> Vec<CallEdge> {
    let mut out = Vec::new();
    for (_, rule) in trs.rules() {
        let caller = rule.head();
        let params = rule.params();
        for call in rule.rhs().subterms() {
            let Some(callee) = call.head_sym() else {
                continue;
            };
            if !sig.is_defined(callee) {
                continue;
            }
            // Only saturated calls recurse through the rules; partial
            // applications are conservatively given an empty graph (no
            // trace information).
            let mut g = ScGraph::new();
            if trs.arity_of(callee) == Some(call.args().len()) {
                for (j, a) in call.args().iter().enumerate() {
                    for (i, p) in params.iter().enumerate() {
                        if a == p {
                            g.insert(i as u32, j as u32, Label::NonStrict);
                        } else if a.is_proper_subterm_of(p) {
                            g.insert(i as u32, j as u32, Label::Strict);
                        }
                    }
                }
            }
            out.push((caller, callee, g));
        }
    }
    out
}

/// The symbols to blame once the closure has failed: those with a
/// self-call whose graph has no strict edge — the simplest witnesses —
/// or, for purely indirect cycles, every caller in the call graph.
fn suspects(edges: &[CallEdge]) -> Vec<SymId> {
    let mut out: Vec<SymId> = Vec::new();
    for (f, g, graph) in edges {
        // A function's clauses need not be adjacent: keep the first
        // occurrence of each suspect, in rule order.
        if f == g && !graph.edges().any(|(_, _, l)| l == Label::Strict) && !out.contains(f) {
            out.push(*f);
        }
    }
    if out.is_empty() {
        out = edges.iter().map(|(f, _, _)| *f).collect();
        out.sort();
        out.dedup();
    }
    out
}

pub(crate) fn check(module: &Module) -> Vec<Diagnostic> {
    let sig = &module.program.sig;
    let edges = call_graphs(sig, &module.program.trs);
    let mut closure = IncrementalClosure::new();
    for (caller, callee, graph) in &edges {
        closure.add_edge(*caller, *callee, graph.clone());
    }
    if closure.soundness() == Soundness::Sound {
        return Vec::new();
    }
    let stats = format!(
        "size-change closure: {} graphs, {} compositions ({} memoized)",
        closure.num_graphs(),
        closure.compositions(),
        closure.memo_hits(),
    );
    suspects(&edges)
        .into_iter()
        .map(|sym| {
            let name = sig.sym(sym).name();
            let line = first_rule_line(module, sym).or_else(|| module.decl_line(name));
            Diagnostic::new(
                Code::SizeChange,
                line,
                format!("termination of `{name}` is not established by size-change analysis"),
            )
            .with_note(
                "no argument of the recursive call decreases along every cycle; \
                 search on goals involving this function may spin until the budget \
                 or deadline runs out",
            )
            .with_note(
                "the analysis is sound but incomplete: a genuinely terminating \
                 definition may need a measure beyond structural descent",
            )
            .with_note(stats.clone())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cycleq_lang::parse_module;

    #[test]
    fn structurally_recursive_programs_are_clean() {
        let m = parse_module(
            "data Nat = Z | S Nat\nadd :: Nat -> Nat -> Nat\nadd Z y = y\nadd (S x) y = S (add x y)\n",
        )
        .unwrap();
        assert!(check(&m).is_empty());
    }

    #[test]
    fn loop_is_flagged_before_search() {
        // `grow` recurses on a growing argument: no decrease anywhere either.
        for (name, rule) in [("loop", "loop x = loop x"), ("grow", "grow x = grow (S x)")] {
            let src = format!("data Nat = Z | S Nat\n{name} :: Nat -> Nat\n{rule}\n");
            let ds = check(&parse_module(&src).unwrap());
            assert_eq!(ds.len(), 1, "{name}");
            assert_eq!(ds[0].code, Code::SizeChange);
            assert_eq!(ds[0].line, Some(3));
            let msg = &ds[0].message;
            assert!(msg.contains(&format!("`{name}`")), "{msg}");
        }
    }

    #[test]
    fn interleaved_clauses_report_each_function_once() {
        let m = parse_module(
            "data Nat = Z | S Nat\nf :: Nat -> Nat\nh :: Nat -> Nat\nf Z = f Z\nh x = h x\nf (S x) = f (S x)\n",
        )
        .unwrap();
        let ds = check(&m);
        let names: Vec<&str> = ds
            .iter()
            .map(|d| {
                d.message
                    .split('`')
                    .nth(1)
                    .expect("message names the function")
            })
            .collect();
        assert_eq!(names, ["f", "h"]);
    }

    #[test]
    fn argument_swap_is_flagged() {
        let m = parse_module("data Nat = Z | S Nat\nswp :: Nat -> Nat -> Nat\nswp x y = swp y x\n")
            .unwrap();
        let ds = check(&m);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].code, Code::SizeChange);
    }

    #[test]
    fn mutual_recursion_through_subterms_is_clean() {
        let m = parse_module(
            "data Nat = Z | S Nat\ndata Bool = True | False\neven :: Nat -> Bool\neven Z = True\neven (S x) = odd x\nodd :: Nat -> Bool\nodd Z = False\nodd (S x) = even x\n",
        )
        .unwrap();
        assert!(check(&m).is_empty());
    }
}
