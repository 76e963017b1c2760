//! The size-change closure contracted onto *companion* nodes, which is the
//! closure proof search drives (§5.2).
//!
//! In a CycleQ preproof every cycle enters a companion. Under the default
//! lemma policy a companion is a `(Case)`-justified node or a proven hint's
//! root, the only targets a `(Subst)` lemma edge may have. Cyclic-proof
//! validators reason about bud–companion pairs in the same way. The full
//! closure keeps a graph for every path between any two proof nodes. The
//! [`CompanionClosure`] keeps graphs only between companions, and its
//! Theorem 5.2 verdict equals the full closure's after every step.
//!
//! # The contraction
//!
//! Proof search adds two kinds of proof edges. A *tree edge* `u → w` goes
//! to a fresh node `w`. A *back edge* `v → L` goes to an existing
//! companion `L`. Each node's companion status is decided before the first
//! edge leaves it. Write `c(v)` for the nearest companion strictly above
//! `v` in the tree, if there is one. Every node `v` with such a companion
//! keeps one *summary*: the composite graph of the tree path from `c(v)`
//! to `v`. A tree edge `e : u → w` gives `w` the summary `e` if `u` is a
//! companion and `summary(u);e` otherwise. That is one memoised
//! composition, and nothing is saturated. Only *cut edges* between
//! companions enter the inner [`IncrementalClosure`]:
//!
//! - when `v` becomes a companion, `c(v) → v` labelled `summary(v)`;
//! - for a back edge `e : v → L`, `v → L` labelled `e` if `v` is a
//!   companion, and otherwise `c(v) → L` labelled `summary(v);e`.
//!
//! A node with no companion above it and none at it gets no cut edge for
//! its back edge. It lies on no cycle, because a non-companion is entered
//! only by the tree edge from its parent, so no path from a cycle reaches
//! it.
//!
//! # Exactness
//!
//! Tree edges form a forest, because each one goes to a fresh node. So
//! every infinite path of proof edges takes infinitely many back edges, and
//! each back edge enters a companion. Cut the path at its visits to
//! companions. Between two consecutive visits `c` and `c'`, the path enters
//! only non-companions, and a non-companion is entered only by the tree
//! edge from its parent. The segment is therefore the tree path from `c`
//! down to some `w` with `c(w) = c`, or to `c` itself, followed by one edge
//! into `c'`. If that edge is a tree edge, then `c(c') = c` and the segment
//! is the cut edge `c → c'` labelled `summary(c')`. If it is a back edge
//! `e`, the segment is the cut edge added for `e`. Either way the
//! segment's composite graph labels a cut edge. Conversely, every cut edge
//! is the composite of such a segment. The infinite paths of the proof
//! graph past their first companion are then exactly the infinite paths of
//! the cut graph, with every run of edges composed into one graph.
//! Composition keeps threads exactly: `g;h` has an edge `x → z` if and only
//! if some thread `x → y → z` runs through `g` and `h`, and the edge is
//! strict if and only if some such thread has a strict hop. So a path
//! carries an infinitely progressing thread in one graph if and only if it
//! does in the other. Lee, Jones and Ben-Amram (POPL 2001, Theorem 4) show
//! that the closure test of Theorem 5.2 decides exactly this property of
//! infinite paths. The two closures therefore give the same verdict.
//!
//! The verdict equals the full closure's after every step, and not only
//! once the proof is finished, because the argument holds for every graph
//! the search has built. A new companion has no out-edges yet, so its cut
//! edge closes no cycle. A tree edge closes none either. Only back edges
//! can change the verdict, in both closures. Under
//! `LemmaPolicy::AllNodes` every justified node becomes a companion, every
//! summary is a single proof edge, and the inner closure holds the full
//! closure of the justified nodes. The `companion_closure_matches_reference`
//! property test pins the verdict after every step of search-shaped traces,
//! marks and undos included.

use std::hash::Hash;

use cycleq_term::{IdHashMap, IdHashSet};

use crate::incremental::{IncrementalClosure, Mark, Soundness};
use crate::store::{GraphId, GraphStore};

/// A checkpoint into a [`CompanionClosure`]; obtain with
/// [`CompanionClosure::mark`] and restore with
/// [`CompanionClosure::undo_to`].
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct CompanionMark {
    inner: Mark,
    log: usize,
}

/// One undoable change to the companion structure.
#[derive(Debug)]
enum Logged<N> {
    /// A tree edge gave this node its summary.
    Summary(N),
    /// This node became a companion.
    Companion(N),
}

/// The size-change closure of a proof graph contracted onto its companion
/// nodes, with undo (see the module docs).
#[derive(Debug)]
pub struct CompanionClosure<V, N> {
    /// The closure of the cut edges.
    inner: IncrementalClosure<V, N>,
    /// `summary(v)` for every node with a companion above it: `c(v)` and
    /// the composite graph of the tree path from `c(v)` to `v`.
    summaries: IdHashMap<N, (N, GraphId)>,
    companions: IdHashSet<N>,
    /// Every change to `summaries` and `companions`, for undo.
    log: Vec<Logged<N>>,
}

impl<V, N> Default for CompanionClosure<V, N> {
    fn default() -> Self {
        CompanionClosure {
            inner: IncrementalClosure::default(),
            summaries: IdHashMap::default(),
            companions: IdHashSet::default(),
            log: Vec::new(),
        }
    }
}

impl<V, N> CompanionClosure<V, N>
where
    V: Copy + Ord + Hash,
    N: Copy + Ord + Hash,
{
    /// Creates an empty closure with no companions.
    pub fn new() -> CompanionClosure<V, N> {
        CompanionClosure::default()
    }

    /// Mutable access to the store, so callers can intern edge graphs
    /// directly and pass the ids to the edge methods.
    pub fn store_mut(&mut self) -> &mut GraphStore<V> {
        self.inner.store_mut()
    }

    /// Makes `v` a companion, adding the cut edge from the companion above
    /// it, if any. No edge may have left `v` yet, so the cut edge closes no
    /// cycle and the verdict does not change. Calling it again for a
    /// companion changes nothing.
    pub fn companion(&mut self, v: N) {
        if self.companions.insert(v) {
            self.log.push(Logged::Companion(v));
            if let Some(&(c, summary)) = self.summaries.get(&v) {
                self.inner.add_edge_id(c, v, summary);
            }
        }
    }

    /// Records the tree edge `e : u → w` to the fresh node `w`. This
    /// composes at most one graph and never saturates, so the verdict does
    /// not change.
    pub fn tree_edge(&mut self, u: N, w: N, e: GraphId) {
        debug_assert!(
            !self.summaries.contains_key(&w) && !self.companions.contains(&w),
            "a tree edge must enter a fresh node"
        );
        let summary = if self.companions.contains(&u) {
            (u, e)
        } else if let Some(&(c, s)) = self.summaries.get(&u) {
            (c, self.inner.store_mut().seq(s, e))
        } else {
            return;
        };
        self.summaries.insert(w, summary);
        self.log.push(Logged::Summary(w));
    }

    /// Adds the back edge `e : v → l` into the companion `l` and saturates
    /// the closure with its cut edge.
    ///
    /// Returns [`Soundness::Unsound`] if the closure now contains an
    /// idempotent self-loop graph without a strict self-edge.
    pub fn back_edge(&mut self, v: N, l: N, e: GraphId) -> Soundness {
        debug_assert!(
            self.companions.contains(&l),
            "a back edge must enter a companion"
        );
        if self.companions.contains(&v) {
            self.inner.add_edge_id(v, l, e)
        } else if let Some(&(c, s)) = self.summaries.get(&v) {
            let cut = self.inner.store_mut().seq(s, e);
            self.inner.add_edge_id(c, l, cut)
        } else {
            self.soundness()
        }
    }

    /// A checkpoint capturing the current state.
    pub fn mark(&self) -> CompanionMark {
        CompanionMark {
            inner: self.inner.mark(),
            log: self.log.len(),
        }
    }

    /// Restores the state captured by `mark`: the cut edges, summaries
    /// and companions added since are removed.
    ///
    /// # Panics
    ///
    /// Panics if `mark` does not come from this closure's past.
    pub fn undo_to(&mut self, mark: CompanionMark) {
        assert!(mark.log <= self.log.len(), "mark is in the future");
        self.inner.undo_to(mark.inner);
        for change in self.log.drain(mark.log..).rev() {
            match change {
                Logged::Summary(w) => {
                    self.summaries.remove(&w);
                }
                Logged::Companion(v) => {
                    self.companions.remove(&v);
                }
            }
        }
    }

    /// The current verdict of the inner closure, which equals the full
    /// closure's (see the module docs).
    pub fn soundness(&self) -> Soundness {
        self.inner.soundness()
    }

    /// Graphs currently retained by the inner closure.
    pub fn num_graphs(&self) -> usize {
        self.inner.num_graphs()
    }

    /// Graphs the inner closure dropped by subsumption pruning so far.
    pub fn subsumed(&self) -> u64 {
        self.inner.subsumed()
    }

    /// Cold compositions performed by the backing store.
    pub fn compositions(&self) -> u64 {
        self.inner.compositions()
    }

    /// Compositions served from the store's memo table.
    pub fn memo_hits(&self) -> u64 {
        self.inner.memo_hits()
    }

    /// Distinct graphs interned in the backing store (live or not).
    pub fn interned_graphs(&self) -> usize {
        self.inner.interned_graphs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Label, ScGraph};

    fn graph(edges: &[(u32, u32, Label)]) -> ScGraph<u32> {
        edges.iter().copied().collect()
    }

    #[test]
    fn cycle_through_a_companion_is_checked_along_the_whole_path() {
        // 0 is a companion; 0 → 1 → 2 are tree edges; 2 → 0 closes the
        // cycle. Only the first hop decreases, so the cycle is sound, and
        // the verdict needs the summary of the whole path.
        let mut c = CompanionClosure::<u32, usize>::new();
        let strict = c.store_mut().intern(&graph(&[(0, 0, Label::Strict)]));
        let keep = c.store_mut().intern(&graph(&[(0, 0, Label::NonStrict)]));
        c.companion(0);
        c.tree_edge(0, 1, strict);
        c.tree_edge(1, 2, keep);
        assert_eq!(c.num_graphs(), 0, "tree edges retain nothing");
        assert_eq!(c.back_edge(2, 0, keep), Soundness::Sound);
        assert_eq!(c.num_graphs(), 1);
    }

    #[test]
    fn cycle_without_decrease_is_unsound() {
        let mut c = CompanionClosure::<u32, usize>::new();
        let keep = c.store_mut().intern(&graph(&[(0, 0, Label::NonStrict)]));
        c.companion(0);
        c.tree_edge(0, 1, keep);
        assert_eq!(c.back_edge(1, 0, keep), Soundness::Unsound);
    }

    #[test]
    fn new_companion_gets_the_cut_edge_from_above() {
        // 0 → 1 → 2 with 0 and 2 companions: the cut edge 0 → 2 carries
        // the strict hop of 0 → 1, so the cycle 2 → 0 → 1 → 2 is sound.
        let mut c = CompanionClosure::<u32, usize>::new();
        let strict = c.store_mut().intern(&graph(&[(0, 0, Label::Strict)]));
        let keep = c.store_mut().intern(&graph(&[(0, 0, Label::NonStrict)]));
        c.companion(0);
        c.tree_edge(0, 1, strict);
        c.tree_edge(1, 2, keep);
        c.companion(2);
        assert_eq!(c.num_graphs(), 1);
        assert_eq!(c.back_edge(2, 0, keep), Soundness::Sound);
    }

    #[test]
    fn back_edge_below_no_companion_adds_nothing() {
        // 1 has no companion above it: nothing reaches it from a cycle.
        let mut c = CompanionClosure::<u32, usize>::new();
        let empty = c.store_mut().intern(&ScGraph::new());
        c.companion(5);
        c.tree_edge(0, 1, empty);
        assert_eq!(c.back_edge(1, 5, empty), Soundness::Sound);
        assert_eq!(c.num_graphs(), 0);
    }

    #[test]
    fn undo_forgets_summaries_and_companions() {
        let mut c = CompanionClosure::<u32, usize>::new();
        let keep = c.store_mut().intern(&graph(&[(0, 0, Label::NonStrict)]));
        c.companion(0);
        let mark = c.mark();
        c.tree_edge(0, 1, keep);
        c.companion(1);
        assert_eq!(c.back_edge(1, 0, keep), Soundness::Unsound);
        c.undo_to(mark);
        assert_eq!(c.soundness(), Soundness::Sound);
        assert_eq!(c.num_graphs(), 0);
        // Node 1 is fresh again, so a tree edge may enter it, and node 0
        // is still a companion, so a back edge may enter it.
        c.tree_edge(0, 1, keep);
        assert_eq!(c.back_edge(1, 0, keep), Soundness::Unsound);
    }

    #[test]
    fn repeated_companion_calls_change_nothing() {
        let mut c = CompanionClosure::<u32, usize>::new();
        let keep = c.store_mut().intern(&graph(&[(0, 0, Label::NonStrict)]));
        c.companion(0);
        c.tree_edge(0, 1, keep);
        c.companion(1);
        let mark = c.mark();
        c.companion(1);
        assert_eq!(c.mark(), mark);
        assert_eq!(c.num_graphs(), 1);
    }
}
