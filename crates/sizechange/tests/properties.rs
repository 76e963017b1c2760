//! Property tests for the size-change machinery: the interned engine must
//! agree with the owned [`ScGraph`] specification, subsumption pruning must
//! never change a verdict, undo must be exact, search-shaped traces with
//! long paths must saturate to the reference closure, and the closure
//! contracted onto companions must give the full closure's verdict.

use cycleq_sizechange::{
    CompanionClosure, GraphStore, IncrementalClosure, Label, ScGraph, Soundness,
};
use proptest::prelude::*;
use proptest::test_runner::Config;

const NODES: usize = 4;
const VARS: u32 = 3;

fn arb_graph() -> impl Strategy<Value = ScGraph<u32>> {
    proptest::collection::vec(
        (
            0..VARS,
            0..VARS,
            prop_oneof![Just(Label::NonStrict), Just(Label::Strict)],
        ),
        0..6,
    )
    .prop_map(|edges| edges.into_iter().collect())
}

fn arb_edges() -> impl Strategy<Value = Vec<(usize, usize, ScGraph<u32>)>> {
    proptest::collection::vec((0..NODES, 0..NODES, arb_graph()), 1..6)
}

fn cfg() -> Config {
    Config {
        cases: 96,
        ..Config::default()
    }
}

/// An independent reference saturation over owned [`ScGraph`]s — the
/// pre-store worklist algorithm, kept here as the oracle so the interned
/// engine behind [`IncrementalClosure`] is still checked against a second
/// implementation.
fn reference_closure(edges: &[(usize, usize, ScGraph<u32>)]) -> (Soundness, usize) {
    use std::collections::{BTreeMap, HashSet};
    let mut graphs: BTreeMap<(usize, usize), HashSet<ScGraph<u32>>> = BTreeMap::new();
    let mut worklist: Vec<(usize, usize, ScGraph<u32>)> = edges.to_vec();
    while let Some((a, b, g)) = worklist.pop() {
        if !graphs.entry((a, b)).or_default().insert(g.clone()) {
            continue;
        }
        for (&(c, d), set) in &graphs {
            if d == a {
                for h in set {
                    worklist.push((c, b, h.seq(&g)));
                }
            }
            if c == b {
                for h in set {
                    worklist.push((a, d, g.seq(h)));
                }
            }
        }
    }
    let bad = graphs.iter().any(|(&(a, b), set)| {
        a == b
            && set
                .iter()
                .any(|g| g.is_idempotent() && !g.has_strict_self_edge())
    });
    let total = graphs.values().map(HashSet::len).sum();
    let verdict = if bad {
        Soundness::Unsound
    } else {
        Soundness::Sound
    };
    (verdict, total)
}

#[test]
fn incremental_agrees_with_reference_closure() {
    proptest!(cfg(), |(edges in arb_edges())| {
        let mut inc = IncrementalClosure::new();
        let mut verdict = Soundness::Sound;
        for (a, b, g) in &edges {
            verdict = inc.add_edge(*a, *b, g.clone());
        }
        // The pruned engine must match the owned-graph oracle's verdict;
        // the unpruned engine must also match its graph count exactly.
        let (ref_verdict, ref_count) = reference_closure(&edges);
        prop_assert_eq!(verdict, ref_verdict);
        let mut unpruned = IncrementalClosure::without_subsumption();
        for (a, b, g) in &edges {
            unpruned.add_edge(*a, *b, g.clone());
        }
        prop_assert_eq!(unpruned.soundness(), ref_verdict);
        prop_assert_eq!(unpruned.num_graphs(), ref_count);
    });
}

/// The tentpole exactness property: cross-pair subsumption pruning keeps
/// the `Soundness` verdict identical to the unpruned closure after *every*
/// operation of a random add/undo sequence (see the proof sketch in
/// `cycleq_sizechange::incremental`).
#[test]
fn subsumption_preserves_verdict_at_every_step() {
    proptest!(cfg(), |(ops in proptest::collection::vec(
        (0..NODES, 0..NODES, arb_graph(), 0..256usize),
        1..12,
    ))| {
        let mut pruned = IncrementalClosure::new();
        let mut plain = IncrementalClosure::without_subsumption();
        let mut marks: Vec<_> = Vec::new();
        for (a, b, g, op) in ops {
            if op % 4 == 3 && !marks.is_empty() {
                let at = (op / 4) % marks.len();
                let (mp, mu) = marks[at];
                marks.truncate(at);
                pruned.undo_to(mp);
                plain.undo_to(mu);
            } else {
                marks.push((pruned.mark(), plain.mark()));
                let vp = pruned.add_edge(a, b, g.clone());
                let vu = plain.add_edge(a, b, g);
                prop_assert_eq!(vp, vu, "pruned and unpruned verdicts diverged");
            }
            prop_assert_eq!(pruned.soundness(), plain.soundness());
            prop_assert!(pruned.num_graphs() <= plain.num_graphs());
        }
    });
}

/// Node budget of [`search_shaped_closure_matches_reference`]'s traces.
const SEARCH_NODES: usize = 16;

/// The closure as proof search drives it: tree edges from an existing node
/// to a fresh one, back edges from a node to one created no later, and
/// marks and undos in between, so paths grow far longer than in the
/// random edge lists above. After every step the pruned verdict must be
/// the oracle's, and the unpruned closure must hold exactly the oracle's
/// graphs.
#[test]
fn search_shaped_closure_matches_reference() {
    proptest!(cfg(), |(steps in proptest::collection::vec(
        (0..8u8, 0..64usize, 0..64usize, arb_graph()),
        1..40,
    ))| {
        let mut pruned = IncrementalClosure::new();
        let mut plain = IncrementalClosure::without_subsumption();
        let mut edges: Vec<(usize, usize, ScGraph<u32>)> = Vec::new();
        // Node 0 is the goal; `nodes` counts the nodes created so far.
        let mut nodes = 1;
        let mut marks = Vec::new();
        for (kind, i, j, g) in steps {
            match kind {
                6 => marks.push((pruned.mark(), plain.mark(), edges.len(), nodes)),
                7 if !marks.is_empty() => {
                    let at = i % marks.len();
                    let (mp, mu, len, n) = marks[at];
                    marks.truncate(at);
                    pruned.undo_to(mp);
                    plain.undo_to(mu);
                    edges.truncate(len);
                    nodes = n;
                }
                // Kinds 0–4 add a tree edge while the node budget lasts;
                // 5, and 7 with no mark to return to, add a back edge.
                0..=4 if nodes == SEARCH_NODES => {}
                _ => {
                    let from = i % nodes;
                    let to = if kind < 5 {
                        nodes += 1;
                        nodes - 1
                    } else {
                        j % (from + 1)
                    };
                    pruned.add_edge(from, to, g.clone());
                    plain.add_edge(from, to, g.clone());
                    edges.push((from, to, g));
                }
            }
            let (ref_verdict, ref_count) = reference_closure(&edges);
            prop_assert_eq!(pruned.soundness(), ref_verdict);
            prop_assert_eq!(plain.soundness(), ref_verdict);
            prop_assert_eq!(plain.num_graphs(), ref_count);
        }
    });
}

/// Variables of [`arb_search_graph`]: two keep the reference closure of
/// long traces small.
const SEARCH_VARS: u32 = 2;

/// An edge graph shaped like the search's: each variable keeps, loses or
/// strictly decreases to itself, and a few other edges are added.
fn arb_search_graph() -> impl Strategy<Value = ScGraph<u32>> {
    (
        proptest::collection::vec(0..4u8, SEARCH_VARS as usize),
        proptest::collection::vec(
            (
                0..SEARCH_VARS,
                0..SEARCH_VARS,
                prop_oneof![Just(Label::NonStrict), Just(Label::Strict)],
            ),
            0..3,
        ),
    )
        .prop_map(|(own, other)| {
            let mut g: ScGraph<u32> = other.into_iter().collect();
            for (x, keep) in (0..SEARCH_VARS).zip(own) {
                match keep {
                    0 => {}
                    1 => g.insert(x, x, Label::Strict),
                    _ => g.insert(x, x, Label::NonStrict),
                }
            }
            g
        })
}

/// Whether a node of a [`companion_closure_matches_reference`] trace is a
/// companion; search decides it before the first edge leaves the node.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum Status {
    Undecided,
    Companion,
    Plain,
}

/// The contraction's exactness (see `cycleq_sizechange::companion`): on
/// traces shaped like proof search, the [`CompanionClosure`]'s verdict must
/// be the reference closure's over every edge added so far, after every
/// step. Tree edges go to fresh nodes; each node becomes a companion or
/// not before its first out-edge; back edges enter companions only; fresh
/// companion roots stand for hints; marks and undos come in between.
#[test]
fn companion_closure_matches_reference() {
    let config = Config {
        cases: 512,
        ..Config::default()
    };
    proptest!(config, |(steps in proptest::collection::vec(
        (0..10u8, 0..64usize, 0..64usize, 0..6u8, arb_search_graph()),
        1..40,
    ))| {
        let mut closure = CompanionClosure::new();
        let mut edges: Vec<(usize, usize, ScGraph<u32>)> = Vec::new();
        // Node 0 is the goal; `status.len()` counts the nodes created.
        let mut status = vec![Status::Undecided];
        let mut marks = Vec::new();
        let mut verdict = Soundness::Sound;
        // Decides `v`'s status unless it is decided already.
        let decide = |closure: &mut CompanionClosure<u32, usize>,
                      status: &mut Vec<Status>,
                      v: usize,
                      companion: bool| {
            if status[v] == Status::Undecided {
                status[v] = if companion {
                    closure.companion(v);
                    Status::Companion
                } else {
                    Status::Plain
                };
            }
        };
        for (kind, i, j, coin, g) in steps {
            let nodes = status.len();
            let edges_before = edges.len();
            match kind {
                // A tree edge to a fresh node.
                0..=3 if nodes < SEARCH_NODES => {
                    let from = i % nodes;
                    decide(&mut closure, &mut status, from, coin % 3 == 0);
                    let e = closure.store_mut().intern(&g);
                    closure.tree_edge(from, nodes, e);
                    status.push(Status::Undecided);
                    edges.push((from, nodes, g));
                }
                // A back edge into a companion.
                4 | 5 => {
                    let from = i % nodes;
                    decide(&mut closure, &mut status, from, coin % 3 == 0);
                    let companions: Vec<usize> =
                        (0..nodes).filter(|&v| status[v] == Status::Companion).collect();
                    if !companions.is_empty() {
                        let to = companions[j % companions.len()];
                        let e = closure.store_mut().intern(&g);
                        closure.back_edge(from, to, e);
                        edges.push((from, to, g));
                    }
                }
                // A fresh companion root, like a hint.
                6 if nodes < SEARCH_NODES => {
                    status.push(Status::Undecided);
                    decide(&mut closure, &mut status, nodes, true);
                }
                // A decision before any edge leaves the node.
                7 => decide(&mut closure, &mut status, i % nodes, coin % 2 == 0),
                8 => marks.push((closure.mark(), edges.len(), status.clone())),
                9 if !marks.is_empty() => {
                    let at = i % marks.len();
                    let (mark, len, before) = marks[at].clone();
                    marks.truncate(at);
                    closure.undo_to(mark);
                    edges.truncate(len);
                    status = before;
                    verdict = reference_closure(&edges).0;
                }
                _ => {}
            }
            if edges.len() > edges_before {
                verdict = reference_closure(&edges).0;
            }
            prop_assert_eq!(closure.soundness(), verdict);
        }
    });
}

#[test]
fn undo_is_exact() {
    proptest!(cfg(), |(prefix in arb_edges(), suffix in arb_edges())| {
        let mut inc = IncrementalClosure::new();
        for (a, b, g) in &prefix {
            inc.add_edge(*a, *b, g.clone());
        }
        let snapshot_count = inc.num_graphs();
        let snapshot_sound = inc.soundness();
        let mark = inc.mark();
        for (a, b, g) in &suffix {
            inc.add_edge(*a, *b, g.clone());
        }
        inc.undo_to(mark);
        prop_assert_eq!(inc.num_graphs(), snapshot_count);
        prop_assert_eq!(inc.soundness(), snapshot_sound);
        // And the state still behaves like a fresh closure of the prefix.
        let mut fresh = IncrementalClosure::new();
        for (a, b, g) in &prefix {
            fresh.add_edge(*a, *b, g.clone());
        }
        prop_assert_eq!(inc.num_graphs(), fresh.num_graphs());
    });
}

#[test]
fn insertion_order_does_not_change_the_verdict() {
    // With subsumption the *retained set* is order-dependent (a weaker
    // graph arriving first prunes more), but the verdict never is.
    proptest!(cfg(), |(edges in arb_edges())| {
        let mut fwd = IncrementalClosure::new();
        for (a, b, g) in &edges {
            fwd.add_edge(*a, *b, g.clone());
        }
        let mut rev = IncrementalClosure::new();
        for (a, b, g) in edges.iter().rev() {
            rev.add_edge(*a, *b, g.clone());
        }
        prop_assert_eq!(fwd.soundness(), rev.soundness());
    });
}

#[test]
fn composition_is_associative() {
    proptest!(cfg(), |(g in arb_graph(), h in arb_graph(), k in arb_graph())| {
        prop_assert_eq!(g.seq(&h).seq(&k), g.seq(&h.seq(&k)));
    });
}

#[test]
fn identity_is_neutral() {
    proptest!(cfg(), |(g in arb_graph())| {
        let id = ScGraph::identity(0..VARS);
        prop_assert_eq!(g.seq(&id), g.clone());
        prop_assert_eq!(id.seq(&g), g);
    });
}

#[test]
fn strict_edges_dominate_in_composition() {
    proptest!(cfg(), |(g in arb_graph(), h in arb_graph())| {
        let gh = g.seq(&h);
        for (x, z, l) in gh.edges() {
            // If the composite edge is strict, some witness hop is strict.
            if l == Label::Strict {
                let witness = g.edges().any(|(a, b, l1)| {
                    a == x
                        && h.edges().any(|(b2, c, l2)| {
                            b2 == b && c == z && (l1 == Label::Strict || l2 == Label::Strict)
                        })
                });
                prop_assert!(witness, "strict composite without strict witness");
            }
        }
    });
}

#[test]
fn interned_seq_matches_owned_seq() {
    proptest!(cfg(), |(g in arb_graph(), h in arb_graph())| {
        let mut store = GraphStore::new();
        let (ig, ih) = (store.intern(&g), store.intern(&h));
        let composed = store.seq(ig, ih);
        prop_assert_eq!(store.resolve(composed), g.seq(&h));
    });
}

#[test]
fn intern_roundtrip_preserves_edges_and_flags() {
    proptest!(cfg(), |(g in arb_graph())| {
        let mut store = GraphStore::new();
        let id = store.intern(&g);
        prop_assert_eq!(store.resolve(id), g.clone());
        prop_assert_eq!(store.has_strict_self_edge(id), g.has_strict_self_edge());
        prop_assert_eq!(store.is_idempotent(id), g.is_idempotent());
        // Interning is hash-consing: the same graph maps to the same id.
        prop_assert_eq!(store.intern(&g), id);
    });
}

#[test]
fn subsumption_test_matches_pointwise_label_order() {
    proptest!(cfg(), |(w in arb_graph(), g in arb_graph())| {
        let expected = w.edges().all(|(x, y, l)| {
            g.label(x, y).is_some_and(|lg| lg >= l)
        });
        let mut store = GraphStore::new();
        let (iw, ig) = (store.intern(&w), store.intern(&g));
        prop_assert_eq!(store.subsumes(iw, ig), expected);
    });
}
