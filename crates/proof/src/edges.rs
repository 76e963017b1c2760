//! The canonical size-change graph of each proof edge (Definition 5.3) and
//! the global-correctness check (Theorem 5.2).

use cycleq_sizechange::{GraphId, GraphStore, IncrementalClosure, Label, ScGraph, Soundness};
use cycleq_term::{Equation, VarId};

use crate::node::{NodeId, RuleApp};
use crate::preproof::Preproof;

/// The labelled edges of the size-change graph annotating the edge from a
/// node justified by `rule` to its `premise_idx`-th premise, shared by
/// [`edge_graph`] and [`edge_graph_id`] (which documents the graph of each
/// rule). `conc_vars` and `premise_vars` are the free variables of the
/// conclusion and of the premise, each sorted ascending.
fn edge_triples(
    rule: &RuleApp,
    premise_idx: usize,
    conc_vars: &[VarId],
    premise_vars: &[VarId],
) -> Vec<(VarId, VarId, Label)> {
    let mut out = Vec::new();
    match rule {
        RuleApp::Open => panic!("edge_graph on an open node"),
        RuleApp::Subst(app) if premise_idx == 0 => {
            // Lemma edge: x ≃ y for θ(y) = x.
            for &y in premise_vars {
                match app.theta.get(y) {
                    Some(t) => {
                        if let Some(x) = t.as_var() {
                            out.push((x, y, Label::NonStrict));
                        }
                    }
                    // Unbound lemma variables are untouched by θ.
                    None => out.push((y, y, Label::NonStrict)),
                }
            }
        }
        RuleApp::Case { var, branches } => {
            for &z in conc_vars {
                if z != *var {
                    out.push((z, z, Label::NonStrict));
                }
            }
            for y in &branches[premise_idx].fresh {
                out.push((*var, *y, Label::Strict));
            }
        }
        _ => {
            // Continuation of (Subst), (Reduce), (Cong), (FunExt), (Refl):
            // identity on shared variables.
            for &z in conc_vars {
                if premise_vars.binary_search(&z).is_ok() {
                    out.push((z, z, Label::NonStrict));
                }
            }
        }
    }
    out
}

/// The free variables of an owned equation, sorted ascending.
fn sorted_vars(eq: &Equation) -> Vec<VarId> {
    eq.vars().into_iter().collect()
}

/// The size-change graph annotating the edge from `v` to its
/// `premise_idx`-th premise (Definition 5.3; see [`edge_graph_id`] for the
/// shape of each rule's graph).
///
/// # Panics
///
/// Panics if `premise_idx` is out of range for the node or the node is
/// `Open`.
pub fn edge_graph(proof: &Preproof, v: NodeId, premise_idx: usize) -> ScGraph<VarId> {
    let node = proof.node(v);
    let conc_vars = sorted_vars(&node.eq);
    let premise_vars = sorted_vars(&proof.node(node.premises[premise_idx]).eq);
    edge_triples(&node.rule, premise_idx, &conc_vars, &premise_vars)
        .into_iter()
        .collect()
}

/// The size-change graph annotating the edge from a node justified by
/// `rule` to its `premise_idx`-th premise (Definition 5.3), built directly
/// into a [`GraphStore`] with no owned intermediate. `conc_vars` and
/// `premise_vars` are the free variables of the conclusion and of the
/// premise, each sorted ascending: the proof search passes the union of
/// the cached variable sets of each node's interned sides
/// ([`cycleq_term::TermStore::vars`]), and [`check_global`] the variables
/// of the owned equations. The store's dedup table makes the recurring
/// graph shapes (identity graphs on the same variable sets, the
/// per-constructor `(Case)` graphs) a hash lookup after their first
/// construction.
///
/// - `(Subst)` lemma edge: a non-strict edge `x ≃ y` whenever `θ(y)` is the
///   variable `x` — variable traces survive instantiation only when the
///   instance is itself a variable.
/// - `(Case)` edge: a strict edge `x ≲ y` from the analysed variable to each
///   fresh constructor argument, and identity on all other variables.
/// - every other edge: identity on the variables common to conclusion and
///   premise.
///
/// # Panics
///
/// Panics if the rule is `Open`, or `premise_idx` is out of range for a
/// `(Case)`.
pub fn edge_graph_id(
    rule: &RuleApp,
    premise_idx: usize,
    conc_vars: &[VarId],
    premise_vars: &[VarId],
    store: &mut GraphStore<VarId>,
) -> GraphId {
    store.intern_edges(edge_triples(rule, premise_idx, conc_vars, premise_vars))
}

/// All annotated edges of the preproof, ready for closure computation.
pub fn global_edges(proof: &Preproof) -> Vec<(NodeId, NodeId, ScGraph<VarId>)> {
    let mut out = Vec::new();
    for (id, node) in proof.nodes() {
        for i in 0..node.premises.len() {
            out.push((id, node.premises[i], edge_graph(proof, id, i)));
        }
    }
    out
}

/// The global-correctness check (Theorem 5.2): every idempotent self-loop
/// in the closure of the proof's edge graphs must carry a strict self-edge.
///
/// The closure condition only inspects *self-loops*
/// `g ∈ closure(v, v)`, and every composition path from `v` back to `v`
/// stays, by definition, inside `v`'s strongly connected component. Edges
/// that cross between components can therefore never contribute to a
/// self-loop, so the closure may be computed per-SCC over each component's
/// internal edges only. On typical proofs the cyclic core is a small
/// fraction of the node count — the tree-shaped remainder (where the
/// closure's composition blow-up would otherwise spend its time) is
/// skipped entirely.
pub fn check_global(proof: &Preproof) -> Soundness {
    let sccs = tarjan_sccs(proof);
    // Component id per node, to recognise internal edges.
    let mut comp = vec![usize::MAX; proof.len()];
    for (c, members) in sccs.iter().enumerate() {
        for &v in members {
            comp[v.index()] = c;
        }
    }
    // One closure per SCC: only a component's internal edges go in, so
    // no composite crosses components, and a private closure keeps each
    // store and pair map the size of its component. Saturation is
    // incremental with subsumption pruning — inside a cyclic core the same
    // composite graphs recur constantly, and dropping dominated graphs
    // keeps the per-pair sets small.
    for (c, members) in sccs.iter().enumerate() {
        // A single node with no self-edge has no self-loops to check.
        if members.len() == 1 {
            let v = members[0];
            if !proof.node(v).premises.contains(&v) {
                continue;
            }
        }
        let mut closure = IncrementalClosure::new();
        for &v in members {
            let node = proof.node(v);
            let conc_vars = sorted_vars(&node.eq);
            for (i, &p) in node.premises.iter().enumerate() {
                if comp[p.index()] == c {
                    let premise_vars = sorted_vars(&proof.node(p).eq);
                    let g = edge_graph_id(
                        &node.rule,
                        i,
                        &conc_vars,
                        &premise_vars,
                        closure.store_mut(),
                    );
                    if closure.add_edge_id(v, p, g) == Soundness::Unsound {
                        return Soundness::Unsound;
                    }
                }
            }
        }
    }
    Soundness::Sound
}

/// Iterative Tarjan over the premise graph. Returns the strongly connected
/// components (each a list of node ids); order is irrelevant to the caller.
fn tarjan_sccs(proof: &Preproof) -> Vec<Vec<NodeId>> {
    const UNSEEN: u32 = u32::MAX;
    let n = proof.len();
    let mut index = vec![UNSEEN; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut next = 0u32;
    let mut sccs = Vec::new();
    // Explicit DFS frames: (node, next-premise-to-visit).
    let mut frames: Vec<(u32, usize)> = Vec::new();
    for root in 0..n {
        if index[root] != UNSEEN {
            continue;
        }
        frames.push((root as u32, 0));
        while let Some(&mut (v, ref mut i)) = frames.last_mut() {
            let vu = v as usize;
            if *i == 0 {
                index[vu] = next;
                low[vu] = next;
                next += 1;
                stack.push(v);
                on_stack[vu] = true;
            }
            let premises = &proof.node(NodeId::from_index(vu)).premises;
            if let Some(&p) = premises.get(*i) {
                *i += 1;
                let pu = p.index();
                if index[pu] == UNSEEN {
                    frames.push((pu as u32, 0));
                } else if on_stack[pu] {
                    low[vu] = low[vu].min(index[pu]);
                }
            } else {
                frames.pop();
                if let Some(&mut (parent, _)) = frames.last_mut() {
                    let pu = parent as usize;
                    low[pu] = low[pu].min(low[vu]);
                }
                if low[vu] == index[vu] {
                    let mut members = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w as usize] = false;
                        members.push(NodeId::from_index(w as usize));
                        if w == v {
                            break;
                        }
                    }
                    sccs.push(members);
                }
            }
        }
    }
    sccs
}

/// Extracts, for every back edge, one certificate of the cycles through its
/// target — a human-readable companion to the soundness verdict. Returns
/// `(node, graph)` pairs: the back edge's target and an idempotent
/// self-loop graph of the closure there that has a strict self-edge. A
/// back edge whose target has no such graph contributes no pair.
pub fn cycle_witnesses(proof: &Preproof) -> Vec<(NodeId, ScGraph<VarId>)> {
    let mut closure = IncrementalClosure::new();
    for (a, b, g) in global_edges(proof) {
        closure.add_edge(a, b, g);
    }
    let mut out = Vec::new();
    for (v, node) in proof.nodes() {
        for p in &node.premises {
            if proof.is_back_edge(v, *p) {
                // Check the cached strict-self flag first: idempotence is
                // only computed (uncached on this read-only path) for the
                // graphs that can actually be witnesses.
                if let Some(g) = closure
                    .between_ids(*p, *p)
                    .find(|&g| {
                        closure.store().has_strict_self_edge(g) && closure.store().is_idempotent(g)
                    })
                    .map(|g| closure.store().resolve(g))
                {
                    out.push((*p, g));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{CaseBranch, Side, SubstApp};
    use cycleq_rewrite::fixtures::nat_list_program;
    use cycleq_term::{Position, Subst, Term};

    /// Builds the two-node preproof of Example 3.2: `Cons x xs ≈ Nil`
    /// justified by rewriting with itself — a locally well-formed preproof
    /// that the global condition must reject.
    fn example_3_2() -> Preproof {
        let p = nat_list_program();
        let mut proof = Preproof::new();
        let x = proof.vars_mut().fresh("x", p.f.nat_ty());
        let xs = proof.vars_mut().fresh("xs", p.f.list_ty(p.f.nat_ty()));
        let lhs = p.f.cons_t(Term::var(x), Term::var(xs));
        let root = proof.push_open(Equation::new(lhs.clone(), Term::sym(p.f.nil)));
        let refl = proof.push_open(Equation::new(Term::sym(p.f.nil), Term::sym(p.f.nil)));
        proof.justify(refl, RuleApp::Refl, vec![]);
        // Rewrite the occurrence of `Cons x xs` (the whole lhs) using the
        // root itself as lemma, leaving `Nil ≈ Nil`.
        let mut theta = Subst::new();
        theta.insert(x, Term::var(x));
        theta.insert(xs, Term::var(xs));
        proof.justify(
            root,
            RuleApp::Subst(SubstApp {
                side: Side::Lhs,
                pos: Position::root(),
                theta,
                lemma_flipped: false,
            }),
            vec![root, refl],
        );
        proof
    }

    #[test]
    fn example_3_2_is_globally_unsound() {
        let proof = example_3_2();
        assert_eq!(check_global(&proof), Soundness::Unsound);
    }

    #[test]
    fn subst_lemma_edge_keeps_variable_bindings_only() {
        let proof = example_3_2();
        // Edge 0 of the root is the lemma self-edge with identity θ.
        let g = edge_graph(&proof, NodeId::from_index(0), 0);
        // Both x and xs are bound to themselves: two non-strict edges.
        assert_eq!(g.len(), 2);
        assert!(!g.has_strict_self_edge());
    }

    #[test]
    fn case_edges_are_strict_into_fresh_vars() {
        let p = nat_list_program();
        let mut proof = Preproof::new();
        let x = proof.vars_mut().fresh("x", p.f.nat_ty());
        let y = proof.vars_mut().fresh("y", p.f.nat_ty());
        let eq = Equation::new(
            Term::apps(p.f.add, vec![Term::var(x), Term::var(y)]),
            Term::var(y),
        );
        let root = proof.push_open(eq.clone());
        // Case on x: Z branch and S branch.
        let z_eq = Equation::new(
            Term::apps(p.f.add, vec![Term::sym(p.f.zero), Term::var(y)]),
            Term::var(y),
        );
        let xp = proof.vars_mut().fresh_distinct("x", p.f.nat_ty(), &[x]);
        let s_eq = Equation::new(
            Term::apps(p.f.add, vec![p.f.s(Term::var(xp)), Term::var(y)]),
            Term::var(y),
        );
        let zb = proof.push_open(z_eq);
        let sb = proof.push_open(s_eq);
        proof.justify(
            root,
            RuleApp::Case {
                var: x,
                branches: vec![
                    CaseBranch {
                        con: p.f.zero,
                        fresh: vec![],
                    },
                    CaseBranch {
                        con: p.f.succ,
                        fresh: vec![xp],
                    },
                ],
            },
            vec![zb, sb],
        );
        let g0 = edge_graph(&proof, root, 0);
        assert_eq!(g0.label(y, y), Some(Label::NonStrict));
        assert_eq!(g0.label(x, x), None, "analysed variable is consumed");
        let g1 = edge_graph(&proof, root, 1);
        assert_eq!(g1.label(x, xp), Some(Label::Strict));
        assert_eq!(g1.label(y, y), Some(Label::NonStrict));
    }

    #[test]
    fn scc_check_accepts_acyclic_proofs_without_closure_work() {
        // A pure tree (no back edges) has only trivial SCCs: sound by
        // construction, and the per-SCC loop must skip every component.
        let p = nat_list_program();
        let mut proof = Preproof::new();
        let leaf_eq = Equation::new(Term::sym(p.f.nil), Term::sym(p.f.nil));
        let leaf = proof.push_open(leaf_eq.clone());
        proof.justify(leaf, RuleApp::Refl, vec![]);
        let root = proof.push_open(leaf_eq);
        proof.justify(
            root,
            RuleApp::Subst(SubstApp {
                side: Side::Lhs,
                pos: Position::root(),
                theta: Subst::new(),
                lemma_flipped: false,
            }),
            vec![leaf, leaf],
        );
        assert_eq!(check_global(&proof), Soundness::Sound);
    }

    #[test]
    fn tarjan_groups_the_cycle_and_isolates_the_leaf() {
        let proof = example_3_2();
        let mut sccs = tarjan_sccs(&proof);
        for s in &mut sccs {
            s.sort_by_key(|v| v.index());
        }
        sccs.sort_by_key(|s| s[0].index());
        // Node 0 (root, self-premise) is its own SCC with a self-edge;
        // node 1 (refl) is a trivial SCC.
        assert_eq!(
            sccs,
            vec![vec![NodeId::from_index(0)], vec![NodeId::from_index(1)]]
        );
    }

    #[test]
    fn global_edges_counts_all_premises() {
        let proof = example_3_2();
        // Root has two premises; refl has none.
        assert_eq!(global_edges(&proof).len(), 2);
    }
}
