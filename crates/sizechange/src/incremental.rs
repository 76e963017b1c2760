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
//! # Left-linear saturation
//!
//! Every graph of the closure is the composite `e₁;…;eₖ` of a path of proof
//! edges. The engine derives each path once, by its *first* proof edge: as
//! `e₁` followed by a graph retained at `e₁`'s target. Two indices make
//! this local, and undo rewinds both:
//!
//! - `succ[a]` lists the nodes `d` with a retained pair `(a, d)`, in
//!   creation order;
//! - `edges_in[c]` lists the proof edges `(a, e)` entering `c`.
//!
//! Adding a proof edge `e : a → c` pushes `e` at `(a, c)`, and `e;h` for
//! every retained `h` at `(c, d)`, found through `succ[c]`. Retaining a
//! graph `g` at `(x, y)` pushes `e;g` at `(w, y)` for every `(w, e)` in
//! `edges_in[x]`; if `x = y`, it also pushes `g;h` and `h;g` for every
//! retained `h` at `(x, x)`, so that self-loop pairs stay closed under
//! composition. No step walks the whole pair map, and outside self-loop
//! pairs a retained graph is only ever composed with a proof edge on its
//! left: a chain of `n` edges costs `n(n−1)/2` compositions, where joining
//! every new graph on both sides re-derives each path once per way of
//! splitting it.
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
//!   some retained graph `p ⊑ s` exists between `(a, b)`.* Undo restores
//!   an earlier state exactly, and a retained graph leaves only by undo,
//!   so it suffices that adding edges preserves the invariant. The proof
//!   is by induction on the length of the path whose composite is `s`;
//!   a path is a proof edge `e : a → c` followed by a shorter path. If
//!   the shorter path is empty, `s = e` was pushed at `(a, c)` when `e`
//!   was added. Otherwise `s = e;s'` with `s'` the composite of the
//!   shorter path, between `(c, b)`, and by induction a retained
//!   `p' ⊑ s'` exists there. `e` and `p'` were composed when the later of
//!   the two arrived: through `succ[c]` if `p'` was retained first, and
//!   through `edges_in[c]` otherwise (which records `e` whether or not `e`
//!   itself was retained at `(a, c)`). Either way `e;p'` was pushed at
//!   `(a, b)`, and `e;p' ⊑ e;s' = s` by monotonicity. A pushed graph is
//!   retained, already present, or dropped in favour of a retained
//!   `w ⊑` it, so some retained `p ⊑ s` exists (`⊑` is transitive). Now
//!   let `B` be a bad idempotent of the full closure at `(v, v)` and
//!   `p ⊑ B` a retained witness. Because self-loops are never pruned and
//!   every retained self-loop at `(v, v)` is composed with every other on
//!   both sides (itself included), the retained set at `(v, v)` is closed
//!   under composition, so it contains every power `pⁿ`. The finite
//!   semigroup generated by `p` contains an idempotent power `p^N` (for
//!   `N = n!` with `n` the semigroup size, `p^N` is idempotent). By
//!   monotonicity `p^N ⊑ B^N = B`, so `p^N` has no strict self-edge — a
//!   retained bad idempotent, counted by the `bad` counter the moment it
//!   was inserted.
//!
//! Without pruning, the same induction with `=` for `⊑` shows that the
//! retained graphs are exactly the full closure.
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

use std::collections::hash_map::Entry;
use std::hash::Hash;

use cycleq_term::IdHashMap;

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
pub struct Mark {
    /// Length of the trail of retained graphs.
    retained: usize,
    /// Number of proof edges added.
    edges: usize,
}

/// The composition closure of a growing set of proof edges, with undo.
#[derive(Clone, Debug)]
pub struct IncrementalClosure<V, N> {
    store: GraphStore<V>,
    /// Retained graphs per node pair. It is only looked up by key:
    /// saturation reaches the pairs through `succ`, so the order of
    /// composition never depends on this map.
    graphs: IdHashMap<(N, N), SmallIdVec>,
    /// `succ[a]`: the nodes `d` with a retained pair `(a, d)`, in creation
    /// order (so undo pops them LIFO). The vectors, not the hash map,
    /// decide the order of composition, which keeps it deterministic.
    succ: IdHashMap<N, Vec<N>>,
    /// `edges_in[c]`: the proof edges `(a, e)` entering `c`, in the order
    /// they were added.
    edges_in: IdHashMap<N, Vec<(N, GraphId)>>,
    /// Insertion log: (src, dst, graph, was_bad).
    trail: Vec<(N, N, GraphId, bool)>,
    /// The target of every proof edge added, in order, for undo to pop
    /// `edges_in` by.
    edge_targets: Vec<N>,
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
            graphs: IdHashMap::default(),
            succ: IdHashMap::default(),
            edges_in: IdHashMap::default(),
            trail: Vec::new(),
            edge_targets: Vec::new(),
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
        Mark {
            retained: self.trail.len(),
            edges: self.edge_targets.len(),
        }
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
        // Left-linear saturation (see module docs): the new edge is joined
        // on its right with what is already retained at `dst`, and every
        // graph retained from here on is joined on its left with the proof
        // edges entering its source.
        self.edges_in.entry(dst).or_default().push((src, graph));
        self.edge_targets.push(dst);
        let mut worklist: Vec<(N, N, GraphId)> = vec![(src, dst, graph)];
        if let Some(targets) = self.succ.get(&dst) {
            for &d in targets {
                for &h in self.graphs[&(dst, d)].iter() {
                    worklist.push((src, d, self.store.seq(graph, h)));
                }
            }
        }
        while let Some((x, y, g)) = worklist.pop() {
            if !self.retain(x, y, g) {
                continue;
            }
            if let Some(entering) = self.edges_in.get(&x) {
                for &(w, e) in entering {
                    worklist.push((w, y, self.store.seq(e, g)));
                }
            }
            if x == y {
                for &h in self.graphs[&(x, x)].iter() {
                    worklist.push((x, x, self.store.seq(g, h)));
                    if h != g {
                        worklist.push((x, x, self.store.seq(h, g)));
                    }
                }
            }
        }
        self.soundness()
    }

    /// Records `g` at `(a, b)` unless it is already there or, between
    /// distinct nodes, dominated by a retained graph (see module docs).
    /// Returns whether `g` was retained.
    fn retain(&mut self, a: N, b: N, g: GraphId) -> bool {
        let set = match self.graphs.entry((a, b)) {
            Entry::Vacant(slot) => {
                self.succ.entry(a).or_default().push(b);
                slot.insert(SmallIdVec::default())
            }
            Entry::Occupied(slot) => {
                let set = slot.into_mut();
                if set.contains(g) {
                    return false;
                }
                if self.subsumption && a != b && set.iter().any(|&w| self.store.subsumes(w, g)) {
                    // A retained weaker-or-equal graph dominates every
                    // composite `g` could produce: drop `g` without
                    // expanding it.
                    self.subsumed += 1;
                    return false;
                }
                set
            }
        };
        set.push(g);
        let is_bad = a == b && self.store.is_bad_self_loop(g);
        if is_bad {
            self.bad += 1;
        }
        self.live += 1;
        self.trail.push((a, b, g, is_bad));
        true
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

    /// Restores the state captured by `mark`, removing every graph and
    /// proof edge inserted since.
    ///
    /// # Panics
    ///
    /// Panics if `mark` does not come from this closure's past (the trail is
    /// shorter than the mark).
    pub fn undo_to(&mut self, mark: Mark) {
        assert!(
            mark.retained <= self.trail.len() && mark.edges <= self.edge_targets.len(),
            "mark is in the future"
        );
        while self.trail.len() > mark.retained {
            let (a, b, g, was_bad) = self.trail.pop().expect("trail non-empty");
            if was_bad {
                self.bad -= 1;
            }
            if let Some(set) = self.graphs.get_mut(&(a, b)) {
                // Insertions per pair happen in trail order, so unwinding
                // the trail LIFO always removes the pair's most recent id,
                // and a source's pairs empty in the reverse of the order
                // they were created in.
                let popped = set.pop();
                debug_assert_eq!(popped, Some(g), "trail out of sync with pair set");
                self.live -= 1;
                if set.is_empty() {
                    self.graphs.remove(&(a, b));
                    let last = self.succ.get_mut(&a).and_then(Vec::pop);
                    debug_assert!(last == Some(b), "succ out of sync with pair map");
                }
            }
        }
        while self.edge_targets.len() > mark.edges {
            let c = self.edge_targets.pop().expect("edge log non-empty");
            let popped = self.edges_in.get_mut(&c).and_then(Vec::pop);
            debug_assert!(popped.is_some(), "edges_in out of sync with edge log");
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
        c.undo_to(Mark {
            retained: 5,
            edges: 0,
        });
    }

    #[test]
    fn chain_derives_each_path_once() {
        // Each of the 64·63/2 paths of length ≥ 2 along the chain is
        // composed once, by its first edge; joining every new graph on
        // both sides would re-derive each path once per way of splitting
        // it.
        let mut c = IncrementalClosure::<u32, usize>::new();
        let g: ScGraph<u32> = [(0, 0, Label::NonStrict)].into_iter().collect();
        for i in 0..64 {
            assert_eq!(c.add_edge(i, i + 1, g.clone()), Soundness::Sound);
        }
        assert_eq!(c.num_graphs(), 64 * 65 / 2);
        assert!(c.compositions() + c.memo_hits() <= 64 * 64 / 2);
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
