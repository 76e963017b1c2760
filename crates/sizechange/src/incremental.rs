//! Incremental closure with checkpoint/undo, for verifying cycles *during*
//! proof search (§5.2), running entirely on interned [`GraphId`]s.
//!
//! The key observations, from the paper:
//!
//! 1. Goal-directed proof search is incremental: candidate proofs share a
//!    common prefix, so re-verifying the whole proof after every extension
//!    (as Cyclist does with Büchi inclusion) recomputes the same
//!    information over and over.
//! 2. "As soon as a cycle that does not satisfy the global condition is
//!    detected, there is no advantage to completing the proof."
//!
//! [`IncrementalClosure`] maintains the composition closure as edges are
//! added, records every insertion on a trail of ids so that backtracking
//! can restore any earlier state (no graph is ever cloned), and reports
//! immediately when an idempotent self-loop graph without a strict
//! self-edge appears. Because closures only ever grow along a search
//! branch, such a graph can never be repaired by adding more proof — the
//! branch can be pruned on the spot.
//!
//! All graphs live in an owned [`GraphStore`]: dedup makes membership an id
//! comparison, the Theorem 5.2 flags are O(1), and compositions are
//! memoized across the whole search — including across backtracking, since
//! the store is append-only and survives [`IncrementalClosure::undo_to`].
//!
//! # Subsumption pruning
//!
//! Write `w ⊑ g` when every edge of `w` occurs in `g` with an equal or
//! stronger label (pointwise `absent < ≃ < ≲`; see
//! [`GraphStore::subsumes`]). Composition is monotone in this order:
//! `w₁ ⊑ g₁` and `w₂ ⊑ g₂` imply `w₁;w₂ ⊑ g₁;g₂`, because every
//! composite edge of the weaker pair arises from a pair of hops that the
//! stronger pair also has, with labels at least as strong.
//!
//! On insertion of a graph `g` between **distinct** nodes `a ≠ b`, the
//! closure drops `g` when an already-retained graph `w` between `(a, b)`
//! has `w ⊑ g` — and in particular never expands `g`'s compositions.
//! Self-loop graphs (`a = b`) are **never** pruned. This asymmetry is what
//! makes the pruned verdict *exactly* equal to the unpruned one (pinned by
//! the `subsumption_preserves_verdict_at_every_step` property test):
//!
//! - **Pruned-unsound ⟹ unpruned-unsound.** Every retained graph is a
//!   genuine composite of inserted edges, so a retained bad graph (an
//!   idempotent self-loop without a strict self-edge) also belongs to the
//!   full closure.
//!
//! - **Unpruned-unsound ⟹ pruned-unsound.** First, a simulation
//!   invariant: *for every graph `s` of the full closure between `(a, b)`,
//!   some retained graph `p ⊑ s` exists between `(a, b)`.* By induction
//!   on the derivation of `s`: an inserted edge is either retained or
//!   dropped in favour of a retained `w ⊑ s`; and if `s = s₁;s₂`, the
//!   engine composed the retained witnesses `p₁ ⊑ s₁` and `p₂ ⊑ s₂` when
//!   the later of the two was inserted, producing `p₁;p₂ ⊑ s` (by
//!   monotonicity), which again is retained or dominated by a retained
//!   graph. Now let `B` be a bad idempotent of the full closure at
//!   `(v, v)` and `p ⊑ B` a retained witness. Because self-loops are never
//!   pruned, the retained set at `(v, v)` is closed under composition, so
//!   it contains every power `pⁿ`. The finite semigroup generated by `p`
//!   contains an idempotent power `p^N` (for `N = n!` with `n` the
//!   semigroup size, `p^N` is idempotent). By monotonicity
//!   `p^N ⊑ B^N = B`, so `p^N` has no strict self-edge — a retained bad
//!   idempotent, counted by the `bad` counter the moment it was inserted.
//!
//! The restriction to `a ≠ b` is essential, not an optimisation
//! shortfall: if self-loops were pruned too, the retained set at `(v, v)`
//! would no longer be composition-closed and the argument above collapses
//! into a regress — a retained `p ⊑ B` whose idempotent power is itself
//! pruned in favour of a weaker, possibly non-idempotent graph, which the
//! Theorem 5.2 test does not flag. Dropping a *stronger* graph is sound
//! precisely because badness is an *anti*-monotone property interrupted
//! by the idempotence side condition; keeping all self-loops discharges
//! that side condition by exhaustiveness.

use std::collections::BTreeMap;
use std::hash::Hash;

use crate::graph::ScGraph;
use crate::idvec::SmallIdVec;
use crate::store::{GraphId, GraphStore};

/// Result of the Theorem 5.2 check.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Soundness {
    /// Every idempotent self-loop graph in the closure has a strict
    /// self-edge: the preproof is a proof.
    Sound,
    /// Some idempotent self-loop graph has no strict self-edge: the global
    /// condition fails.
    Unsound,
}

/// A checkpoint into the trail of an [`IncrementalClosure`]; obtain with
/// [`IncrementalClosure::mark`] and restore with
/// [`IncrementalClosure::undo_to`].
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct Mark(pub(crate) usize);

/// The composition closure of a growing set of proof edges, with undo.
#[derive(Clone, Debug)]
pub struct IncrementalClosure<V, N> {
    store: GraphStore<V>,
    /// Retained graphs per node pair. A `BTreeMap` keeps saturation
    /// deterministic: with subsumption pruning the retained set depends on
    /// the order compositions are expanded, and a hash map's per-instance
    /// random iteration order would make two identical edge sequences
    /// retain different (though verdict-equivalent) sets.
    graphs: BTreeMap<(N, N), SmallIdVec>,
    /// Insertion log: (src, dst, graph, was_bad).
    trail: Vec<(N, N, GraphId, bool)>,
    /// Number of currently-present idempotent self-loops without a strict
    /// self-edge. Non-zero means the current preproof cannot satisfy the
    /// global condition.
    bad: usize,
    /// Running total of retained graphs — kept in sync by insert/undo so
    /// [`IncrementalClosure::num_graphs`] is O(1) instead of a sum over
    /// every node pair.
    live: usize,
    /// Whether cross-pair subsumption pruning is enabled (see module
    /// docs); on by default, disabled only by benchmarks and the
    /// differential property tests.
    subsumption: bool,
    /// Graphs dropped by subsumption (monotone counter; drops are not
    /// state, so undo does not rewind it).
    subsumed: u64,
}

impl<V, N> Default for IncrementalClosure<V, N> {
    fn default() -> Self {
        IncrementalClosure {
            store: GraphStore::default(),
            graphs: BTreeMap::new(),
            trail: Vec::new(),
            bad: 0,
            live: 0,
            subsumption: true,
            subsumed: 0,
        }
    }
}

impl<V, N> IncrementalClosure<V, N>
where
    V: Copy + Ord + Hash,
    N: Copy + Ord + Hash,
{
    /// Creates an empty closure (with subsumption pruning enabled).
    pub fn new() -> IncrementalClosure<V, N> {
        IncrementalClosure::default()
    }

    /// Creates an empty closure that retains every graph, exactly like the
    /// pre-subsumption engine. Used by benchmarks and by the property
    /// tests that pin the pruned verdict to the unpruned one.
    pub fn without_subsumption() -> IncrementalClosure<V, N> {
        IncrementalClosure {
            subsumption: false,
            ..IncrementalClosure::default()
        }
    }

    /// The graph store backing this closure. Useful for resolving ids
    /// returned by [`IncrementalClosure::between_ids`].
    pub fn store(&self) -> &GraphStore<V> {
        &self.store
    }

    /// Mutable access to the store, so callers can intern edge graphs
    /// directly (see `cycleq_proof::edge_graph_id`) and feed the ids to
    /// [`IncrementalClosure::add_edge_id`].
    pub fn store_mut(&mut self) -> &mut GraphStore<V> {
        &mut self.store
    }

    /// A checkpoint capturing the current state.
    pub fn mark(&self) -> Mark {
        Mark(self.trail.len())
    }

    /// Adds a proof edge and saturates the closure with it.
    ///
    /// Returns [`Soundness::Unsound`] if the closure now contains an
    /// idempotent self-loop graph without a strict self-edge; the search
    /// should undo to the last checkpoint and try a different step. The
    /// closure remains internally consistent either way.
    pub fn add_edge(&mut self, src: N, dst: N, graph: ScGraph<V>) -> Soundness {
        let id = self.store.intern(&graph);
        self.add_edge_id(src, dst, id)
    }

    /// [`IncrementalClosure::add_edge`] for a graph already interned in
    /// this closure's store.
    pub fn add_edge_id(&mut self, src: N, dst: N, graph: GraphId) -> Soundness {
        let mut worklist: Vec<(N, N, GraphId)> = vec![(src, dst, graph)];
        while let Some((a, b, g)) = worklist.pop() {
            if let Some(present) = self.graphs.get(&(a, b)) {
                if present.contains(g) {
                    continue;
                }
                if self.subsumption && a != b && present.iter().any(|&w| self.store.subsumes(w, g))
                {
                    // A retained weaker-or-equal graph dominates every
                    // composite `g` could produce (see module docs): drop
                    // `g` without expanding it.
                    self.subsumed += 1;
                    crate::metrics::store_metrics().subsumed.inc();
                    continue;
                }
            }
            let is_bad = a == b && self.store.is_bad_self_loop(g);
            if is_bad {
                self.bad += 1;
            }
            self.graphs.entry((a, b)).or_default().push(g);
            self.live += 1;
            self.trail.push((a, b, g, is_bad));
            for (&(c, d), set) in self.graphs.iter() {
                if d == a {
                    for &h in set.iter() {
                        worklist.push((c, b, self.store.seq(h, g)));
                    }
                }
                if c == b {
                    for &h in set.iter() {
                        worklist.push((a, d, self.store.seq(g, h)));
                    }
                }
            }
        }
        self.soundness()
    }

    /// The current verdict: sound unless some idempotent self-loop without a
    /// strict self-edge is present.
    pub fn soundness(&self) -> Soundness {
        if self.bad == 0 {
            Soundness::Sound
        } else {
            Soundness::Unsound
        }
    }

    /// A witness of unsoundness — a node and a resolved idempotent
    /// self-loop graph without a strict self-edge — if one is present.
    pub fn unsound_witness(&self) -> Option<(N, ScGraph<V>)> {
        self.graphs.iter().find_map(|(&(a, b), set)| {
            if a != b {
                return None;
            }
            // `add_edge_id` forced the idempotence flag of every self-loop
            // graph that lacks a strict self-edge, so this scan runs on
            // cached flags.
            set.iter()
                .find(|&&g| !self.store.has_strict_self_edge(g) && self.store.is_idempotent(g))
                .map(|&g| (a, self.store.resolve(g)))
        })
    }

    /// Restores the state captured by `mark`, removing every graph inserted
    /// since.
    ///
    /// # Panics
    ///
    /// Panics if `mark` does not come from this closure's past (the trail is
    /// shorter than the mark).
    pub fn undo_to(&mut self, mark: Mark) {
        assert!(mark.0 <= self.trail.len(), "mark is in the future");
        while self.trail.len() > mark.0 {
            let (a, b, g, was_bad) = self.trail.pop().expect("trail non-empty");
            if was_bad {
                self.bad -= 1;
            }
            if let Some(set) = self.graphs.get_mut(&(a, b)) {
                // Insertions per pair happen in trail order, so unwinding
                // the trail LIFO always removes the pair's most recent id.
                let popped = set.pop();
                debug_assert_eq!(popped, Some(g), "trail out of sync with pair set");
                self.live -= 1;
                if set.is_empty() {
                    self.graphs.remove(&(a, b));
                }
            }
        }
    }

    /// The total number of graphs currently retained — O(1), maintained by
    /// insert/undo rather than summed over node pairs.
    pub fn num_graphs(&self) -> usize {
        self.live
    }

    /// The graphs currently recorded between `a` and `b`, resolved to
    /// owned [`ScGraph`]s.
    pub fn between(&self, a: N, b: N) -> impl Iterator<Item = ScGraph<V>> + '_ {
        self.between_ids(a, b).map(|g| self.store.resolve(g))
    }

    /// The interned ids currently recorded between `a` and `b`.
    pub fn between_ids(&self, a: N, b: N) -> impl Iterator<Item = GraphId> + '_ {
        self.graphs
            .get(&(a, b))
            .into_iter()
            .flat_map(|set| set.iter().copied())
    }

    /// Graphs dropped by subsumption pruning so far (monotone; not
    /// rewound by undo).
    pub fn subsumed(&self) -> u64 {
        self.subsumed
    }

    /// Cold compositions performed by the backing store.
    pub fn compositions(&self) -> u64 {
        self.store.compositions()
    }

    /// Compositions served from the store's memo table.
    pub fn memo_hits(&self) -> u64 {
        self.store.memo_hits()
    }

    /// Distinct graphs interned in the backing store (live or not).
    pub fn interned_graphs(&self) -> usize {
        self.store.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Label;

    #[test]
    fn strict_loop_is_sound() {
        let mut c = IncrementalClosure::new();
        let g: ScGraph<u32> = [(0, 0, Label::Strict)].into_iter().collect();
        assert_eq!(c.add_edge(0usize, 0usize, g), Soundness::Sound);
    }

    #[test]
    fn nonstrict_loop_is_detected_immediately() {
        let mut c = IncrementalClosure::new();
        let g: ScGraph<u32> = [(0, 0, Label::NonStrict)].into_iter().collect();
        assert_eq!(c.add_edge(0usize, 0usize, g), Soundness::Unsound);
    }

    #[test]
    fn undo_restores_soundness() {
        let mut c = IncrementalClosure::new();
        let mark = c.mark();
        let g: ScGraph<u32> = [(0, 0, Label::NonStrict)].into_iter().collect();
        assert_eq!(c.add_edge(0usize, 0usize, g), Soundness::Unsound);
        c.undo_to(mark);
        assert_eq!(c.soundness(), Soundness::Sound);
        assert_eq!(c.num_graphs(), 0);
    }

    #[test]
    fn empty_loop_graph_is_unsound() {
        // A cycle with no trace information at all: the empty graph is
        // idempotent and has no strict self-edge.
        let mut c = IncrementalClosure::new();
        assert_eq!(
            c.add_edge(0usize, 0usize, ScGraph::<u32>::new()),
            Soundness::Unsound
        );
        assert!(c.unsound_witness().is_some());
    }

    #[test]
    fn multi_edge_cycle_composes_a_strict_loop() {
        // Build the add-commutativity-style shape: two nodes, tree edge with
        // a strict hop, back edge with a renaming.
        let case_edge: ScGraph<u32> = [(0, 0, Label::Strict), (1, 1, Label::NonStrict)]
            .into_iter()
            .collect();
        let back_edge: ScGraph<u32> = [(0, 0, Label::NonStrict), (1, 1, Label::NonStrict)]
            .into_iter()
            .collect();

        let mut inc = IncrementalClosure::new();
        assert_eq!(inc.add_edge(0usize, 1usize, case_edge), Soundness::Sound);
        assert_eq!(inc.add_edge(1usize, 0usize, back_edge), Soundness::Sound);
        // The composite loop at either node carries the strict hop.
        assert!(inc
            .between(0, 0)
            .any(|g| g.label(0, 0) == Some(Label::Strict)));
        assert!(inc.unsound_witness().is_none());
    }

    #[test]
    fn swap_cycle_without_decrease_is_unsound() {
        // The cycle permutes two variables with no decrease; its square is
        // the identity — idempotent with no strict edge.
        let swap: ScGraph<u32> = [(0, 1, Label::NonStrict), (1, 0, Label::NonStrict)]
            .into_iter()
            .collect();
        let mut c = IncrementalClosure::new();
        assert_eq!(c.add_edge(0usize, 0usize, swap), Soundness::Unsound);
    }

    #[test]
    fn swap_cycle_with_decrease_is_sound() {
        // Permutation with a strict hop: every idempotent iterate carries a
        // strict self-edge (classic LJB example).
        let swap: ScGraph<u32> = [(0, 1, Label::Strict), (1, 0, Label::NonStrict)]
            .into_iter()
            .collect();
        let mut c = IncrementalClosure::new();
        assert_eq!(c.add_edge(0usize, 0usize, swap), Soundness::Sound);
    }

    #[test]
    fn acyclic_edges_are_sound() {
        let g: ScGraph<u32> = [(0, 1, Label::NonStrict)].into_iter().collect();
        let mut c = IncrementalClosure::new();
        assert_eq!(c.add_edge(0usize, 1usize, g), Soundness::Sound);
        assert_eq!(c.num_graphs(), 1);
    }

    #[test]
    fn closure_contains_all_path_compositions() {
        let ab: ScGraph<u32> = [(0, 0, Label::NonStrict)].into_iter().collect();
        let bc: ScGraph<u32> = [(0, 0, Label::Strict)].into_iter().collect();
        let mut c = IncrementalClosure::new();
        c.add_edge(0usize, 1usize, ab);
        c.add_edge(1usize, 2usize, bc);
        let through: Vec<_> = c.between(0, 2).collect();
        assert_eq!(through.len(), 1);
        assert_eq!(through[0].label(0, 0), Some(Label::Strict));
    }

    #[test]
    fn incremental_detects_unsound_composite_cycle() {
        // Neither edge is a self-loop, but their composition is a loop with
        // no decrease.
        let fwd: ScGraph<u32> = [(0, 0, Label::NonStrict)].into_iter().collect();
        let back: ScGraph<u32> = [(0, 0, Label::NonStrict)].into_iter().collect();
        let mut inc = IncrementalClosure::new();
        assert_eq!(inc.add_edge(0usize, 1usize, fwd), Soundness::Sound);
        assert_eq!(inc.add_edge(1usize, 0usize, back), Soundness::Unsound);
    }

    #[test]
    fn nested_marks_unwind_in_order() {
        let mut c = IncrementalClosure::<u32, usize>::new();
        let g: ScGraph<u32> = [(0, 1, Label::NonStrict)].into_iter().collect();
        let m0 = c.mark();
        c.add_edge(0, 1, g.clone());
        let m1 = c.mark();
        c.add_edge(1, 2, g.clone());
        assert!(c.num_graphs() >= 2);
        c.undo_to(m1);
        assert_eq!(c.num_graphs(), 1);
        c.undo_to(m0);
        assert_eq!(c.num_graphs(), 0);
    }

    #[test]
    #[should_panic(expected = "mark is in the future")]
    fn future_marks_panic() {
        let mut c = IncrementalClosure::<u32, usize>::new();
        c.undo_to(Mark(5));
    }

    #[test]
    fn duplicate_edges_are_ignored() {
        let mut c = IncrementalClosure::new();
        let g: ScGraph<u32> = [(0, 0, Label::Strict)].into_iter().collect();
        c.add_edge(0usize, 0usize, g.clone());
        let n = c.num_graphs();
        c.add_edge(0usize, 0usize, g);
        assert_eq!(c.num_graphs(), n);
    }

    #[test]
    fn growth_only_monotone_unsound_stays_unsound() {
        let mut c = IncrementalClosure::new();
        let bad: ScGraph<u32> = ScGraph::new();
        assert_eq!(c.add_edge(0usize, 0usize, bad), Soundness::Unsound);
        let good: ScGraph<u32> = [(0, 0, Label::Strict)].into_iter().collect();
        // Adding a sound cycle elsewhere does not clear the verdict.
        assert_eq!(c.add_edge(1usize, 1usize, good), Soundness::Unsound);
    }

    #[test]
    fn subsumption_drops_dominated_cross_edges() {
        let mut c = IncrementalClosure::new();
        let weak: ScGraph<u32> = [(0, 1, Label::NonStrict)].into_iter().collect();
        let strong: ScGraph<u32> = [(0, 1, Label::Strict), (1, 1, Label::NonStrict)]
            .into_iter()
            .collect();
        c.add_edge(0usize, 1usize, weak);
        assert_eq!(c.num_graphs(), 1);
        c.add_edge(0usize, 1usize, strong);
        assert_eq!(c.num_graphs(), 1, "dominated graph must be dropped");
        assert_eq!(c.subsumed(), 1);
    }

    #[test]
    fn self_loops_are_never_subsumed() {
        let mut c = IncrementalClosure::new();
        let weak: ScGraph<u32> = [(0, 0, Label::Strict)].into_iter().collect();
        let strong: ScGraph<u32> = [(0, 0, Label::Strict), (1, 1, Label::Strict)]
            .into_iter()
            .collect();
        c.add_edge(0usize, 0usize, weak);
        c.add_edge(0usize, 0usize, strong);
        // Both retained (plus their compositions, which dedup to the same
        // ids here).
        assert!(c.between_ids(0, 0).count() >= 2);
        assert_eq!(c.subsumed(), 0);
    }

    #[test]
    fn undo_rewinds_live_counter_past_subsumption() {
        let mut c = IncrementalClosure::new();
        let weak: ScGraph<u32> = [(0, 1, Label::NonStrict)].into_iter().collect();
        c.add_edge(0usize, 1usize, weak);
        let mark = c.mark();
        let strong: ScGraph<u32> = [(0, 1, Label::Strict)].into_iter().collect();
        let other: ScGraph<u32> = [(2, 2, Label::Strict)].into_iter().collect();
        c.add_edge(0usize, 1usize, strong); // dropped by subsumption
        c.add_edge(2usize, 3usize, other); // retained
        assert_eq!(c.num_graphs(), 2);
        c.undo_to(mark);
        assert_eq!(c.num_graphs(), 1);
        assert_eq!(c.soundness(), Soundness::Sound);
    }

    #[test]
    fn composition_memo_survives_undo() {
        let mut c = IncrementalClosure::new();
        let fwd: ScGraph<u32> = [(0, 0, Label::Strict)].into_iter().collect();
        let back: ScGraph<u32> = [(0, 0, Label::NonStrict)].into_iter().collect();
        c.add_edge(0usize, 1usize, fwd.clone());
        let mark = c.mark();
        c.add_edge(1usize, 0usize, back.clone());
        let cold_after_first = c.compositions();
        c.undo_to(mark);
        // Replaying the same edge re-derives the same compositions from
        // the memo table: no new cold composition is needed.
        c.add_edge(1usize, 0usize, back);
        assert_eq!(c.compositions(), cold_after_first);
        assert!(c.memo_hits() > 0);
    }
}
