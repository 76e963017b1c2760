//! Hash-consed size-change graphs: the [`GraphStore`] interner, a bit-plane
//! graph representation, and memoized composition.
//!
//! PR 2 fixed term explosion by interning terms once and memoising
//! reduction; this module applies the same cure to size-change graphs,
//! which profiling showed dominate the headline goals (163 graphs
//! materialised for ~34 interned proof nodes on `add_comm`). A graph is
//! interned once into a dense [`GraphId`]: equality becomes an id
//! comparison, the Theorem 5.2 ingredients (`has_strict_self_edge`,
//! `is_idempotent`) are computed once at intern time and cached on the
//! node, and composition is memoized in a `(GraphId, GraphId) → GraphId`
//! table whose cold path runs word-parallel OR over bit rows instead of
//! the old nested ordered-map loops.
//!
//! # Bit-plane layout
//!
//! Variables are assigned dense `u32` indices on first use, shared by every
//! graph in the store. A graph keeps its non-empty source rows (`srcs`,
//! sorted) and the sorted set of target variables with at least one
//! incoming edge (`cols`). Each row is `cols.len().div_ceil(64)` machine
//! words in two planes:
//!
//! - the **any** plane: bit `j` of row `i` is set when there is an edge
//!   `srcs[i] → cols[j]` of either label (`≃`-or-better);
//! - the **strict** plane: bit `j` is set when that edge is `≲`.
//!
//! The strict plane is bitwise contained in the any plane. Source-major
//! rows make composition `seq(a, b)` a scan of `a`'s set bits that ORs
//! whole rows of `b` into an accumulator; the label join needs no per-edge
//! branching because a strict hop in `a` simply promotes `b`'s any-row
//! into the strict accumulator.
//!
//! The representation is canonical — rows and columns without edges are
//! compacted away and both index lists are sorted — so structural equality
//! of the planes coincides with graph equality and the dedup table makes
//! interning idempotent. [`ScGraph`] remains the construction-facing API
//! (and the executable specification the property tests compare against);
//! it lowers into the store via [`GraphStore::intern`].

use std::collections::hash_map::Entry;
use std::fmt;
use std::hash::Hash;

use cycleq_term::IdHashMap;

use crate::graph::{Label, ScGraph};

/// Identifier of a graph interned in a [`GraphStore`].
///
/// Ids are dense and store-scoped; two ids from the same store are equal
/// exactly when the graphs are equal.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct GraphId(pub(crate) u32);

impl GraphId {
    /// The position of the graph in its store's intern order.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Canonical bit-plane representation of one graph (see module docs).
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
struct GraphData {
    /// Sorted dense indices of source variables with at least one edge.
    srcs: Box<[u32]>,
    /// Sorted dense indices of target variables with at least one edge.
    cols: Box<[u32]>,
    /// `srcs.len() × words()` row-major `≃`-or-better plane.
    any: Box<[u64]>,
    /// Same layout; bitwise contained in `any`.
    strict: Box<[u64]>,
}

#[inline]
fn bit(words: &[u64], j: usize) -> bool {
    words[j / 64] >> (j % 64) & 1 == 1
}

#[inline]
fn set_bit(words: &mut [u64], j: usize) {
    words[j / 64] |= 1 << (j % 64);
}

/// Whether every set bit of `w_row`, remapped through `col_map`, is also
/// set in `g_row`. Bails out on the first missing bit.
fn row_contained(w_row: &[u64], col_map: &[usize], g_row: &[u64]) -> bool {
    for (wi, &word) in w_row.iter().enumerate() {
        let mut m = word;
        while m != 0 {
            let j = wi * 64 + m.trailing_zeros() as usize;
            if !bit(g_row, col_map[j]) {
                return false;
            }
            m &= m - 1;
        }
    }
    true
}

/// Calls `f` with the index of every set bit of `words`.
fn for_each_bit(words: &[u64], mut f: impl FnMut(usize)) {
    for (wi, &w) in words.iter().enumerate() {
        let mut m = w;
        while m != 0 {
            f(wi * 64 + m.trailing_zeros() as usize);
            m &= m - 1;
        }
    }
}

impl GraphData {
    fn words(&self) -> usize {
        self.cols.len().div_ceil(64)
    }

    fn row_any(&self, i: usize) -> &[u64] {
        let w = self.words();
        &self.any[i * w..(i + 1) * w]
    }

    fn row_strict(&self, i: usize) -> &[u64] {
        let w = self.words();
        &self.strict[i * w..(i + 1) * w]
    }

    fn is_empty(&self) -> bool {
        self.srcs.is_empty()
    }

    fn has_strict_self_edge(&self) -> bool {
        self.srcs.iter().enumerate().any(|(i, &s)| {
            self.cols
                .binary_search(&s)
                .is_ok_and(|k| bit(self.row_strict(i), k))
        })
    }
}

/// Sequential composition of the raw planes: `compose(a, b)` is
/// `a : u → v` followed by `b : v → w` (the paper's `b ∘ a`,
/// Definition 5.2). The output is canonical.
fn compose(a: &GraphData, b: &GraphData) -> GraphData {
    if a.is_empty() || b.is_empty() {
        return GraphData::default();
    }
    let bw = b.words();
    // Accumulate rows over b's column universe.
    let mut rows: Vec<(u32, Vec<u64>, Vec<u64>)> = Vec::with_capacity(a.srcs.len());
    for (i, &s) in a.srcs.iter().enumerate() {
        let mut acc_any = vec![0u64; bw];
        let mut acc_strict = vec![0u64; bw];
        let a_strict = a.row_strict(i);
        for_each_bit(a.row_any(i), |j| {
            let mid = a.cols[j];
            if let Ok(bi) = b.srcs.binary_search(&mid) {
                let b_any = b.row_any(bi);
                if bit(a_strict, j) {
                    // Strict hop: every continuation is strict.
                    for (w, &v) in b_any.iter().enumerate() {
                        acc_any[w] |= v;
                        acc_strict[w] |= v;
                    }
                } else {
                    let b_strict = b.row_strict(bi);
                    for (w, &v) in b_any.iter().enumerate() {
                        acc_any[w] |= v;
                        acc_strict[w] |= b_strict[w];
                    }
                }
            }
        });
        if acc_any.iter().any(|&w| w != 0) {
            rows.push((s, acc_any, acc_strict));
        }
    }
    if rows.is_empty() {
        return GraphData::default();
    }
    // Column-reduce to restore canonicity.
    let mut used = vec![0u64; bw];
    for (_, acc_any, _) in &rows {
        for (w, &v) in acc_any.iter().enumerate() {
            used[w] |= v;
        }
    }
    let mut col_map = vec![usize::MAX; b.cols.len()];
    let mut cols = Vec::new();
    for_each_bit(&used, |j| {
        col_map[j] = cols.len();
        cols.push(b.cols[j]);
    });
    let nw = cols.len().div_ceil(64);
    let mut srcs = Vec::with_capacity(rows.len());
    let mut any = vec![0u64; rows.len() * nw];
    let mut strict = vec![0u64; rows.len() * nw];
    for (i, (s, acc_any, acc_strict)) in rows.iter().enumerate() {
        srcs.push(*s);
        let row = &mut any[i * nw..(i + 1) * nw];
        for_each_bit(acc_any, |j| set_bit(row, col_map[j]));
        let row = &mut strict[i * nw..(i + 1) * nw];
        for_each_bit(acc_strict, |j| set_bit(row, col_map[j]));
    }
    GraphData {
        srcs: srcs.into_boxed_slice(),
        cols: cols.into_boxed_slice(),
        any: any.into_boxed_slice(),
        strict: strict.into_boxed_slice(),
    }
}

#[derive(Clone)]
struct GraphNode {
    data: GraphData,
    strict_self: bool,
    /// Lazily computed by [`GraphStore::force_idempotent`]; `None` until a
    /// caller actually needs the flag (only self-loop graphs ever do).
    idempotent: Option<bool>,
}

/// An interner for size-change graphs with cached Theorem 5.2 flags and
/// memoized composition. See the module docs for the representation.
#[derive(Clone)]
pub struct GraphStore<V> {
    /// Dense index → variable.
    vars: Vec<V>,
    /// Variable → dense index.
    var_ids: IdHashMap<V, u32>,
    nodes: Vec<GraphNode>,
    dedup: IdHashMap<GraphData, GraphId>,
    seq_memo: IdHashMap<(GraphId, GraphId), GraphId>,
    compositions: u64,
    memo_hits: u64,
}

impl<V> Default for GraphStore<V> {
    fn default() -> Self {
        GraphStore {
            vars: Vec::new(),
            var_ids: IdHashMap::default(),
            nodes: Vec::new(),
            dedup: IdHashMap::default(),
            seq_memo: IdHashMap::default(),
            compositions: 0,
            memo_hits: 0,
        }
    }
}

impl<V> fmt::Debug for GraphStore<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GraphStore")
            .field("graphs", &self.nodes.len())
            .field("vars", &self.vars.len())
            .field("compositions", &self.compositions)
            .field("memo_hits", &self.memo_hits)
            .finish()
    }
}

impl<V> GraphStore<V>
where
    V: Copy + Ord + Hash,
{
    /// Creates an empty store.
    pub fn new() -> GraphStore<V> {
        GraphStore::default()
    }

    fn var_index(&mut self, v: V) -> u32 {
        match self.var_ids.entry(v) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let id = self.vars.len() as u32;
                self.vars.push(v);
                e.insert(id);
                id
            }
        }
    }

    /// Interns the graph given as labelled edges, joining duplicate labels
    /// for the same variable pair (a strict edge subsumes a non-strict
    /// one). This is the allocation-light path used to build edge graphs
    /// directly into the store.
    pub fn intern_edges<I>(&mut self, edges: I) -> GraphId
    where
        I: IntoIterator<Item = (V, V, Label)>,
    {
        let mut triples: Vec<(u32, u32, Label)> = edges
            .into_iter()
            .map(|(x, y, l)| (self.var_index(x), self.var_index(y), l))
            .collect();
        // Sort strict-first per pair so dedup keeps the label join.
        triples.sort_unstable_by_key(|&(x, y, l)| (x, y, std::cmp::Reverse(l)));
        triples.dedup_by_key(|&mut (x, y, _)| (x, y));
        self.intern_data(build_data(&triples))
    }

    /// Interns an owned [`ScGraph`].
    pub fn intern(&mut self, g: &ScGraph<V>) -> GraphId {
        self.intern_edges(g.edges())
    }

    fn intern_data(&mut self, data: GraphData) -> GraphId {
        if let Some(&id) = self.dedup.get(&data) {
            return id;
        }
        let strict_self = data.has_strict_self_edge();
        let id = GraphId(self.nodes.len() as u32);
        self.dedup.insert(data.clone(), id);
        self.nodes.push(GraphNode {
            data,
            strict_self,
            // Computed (and cached) on first demand: only graphs that land
            // on a self-loop pair ever need it, and eagerly self-composing
            // every cross-pair composite would double cold composition
            // work.
            idempotent: None,
        });
        id
    }

    /// Memoized sequential composition: `a : u → v` then `b : v → w`
    /// yields `u → w` (the paper's `b ∘ a`, Definition 5.2).
    pub fn seq(&mut self, a: GraphId, b: GraphId) -> GraphId {
        if let Some(&r) = self.seq_memo.get(&(a, b)) {
            self.memo_hits += 1;
            return r;
        }
        self.compositions += 1;
        let data = compose(&self.nodes[a.index()].data, &self.nodes[b.index()].data);
        let r = self.intern_data(data);
        self.seq_memo.insert((a, b), r);
        r
    }

    /// Whether `weak ⊑ strong`: every edge of `weak` is present in
    /// `strong` with an equal or stronger label (pointwise `≤` with
    /// `absent < ≃ < ≲`). This is the order under which composition is
    /// monotone; see the subsumption argument in
    /// [`crate::incremental`].
    pub fn subsumes(&self, weak: GraphId, strong: GraphId) -> bool {
        if weak == strong {
            return true;
        }
        let w = &self.nodes[weak.index()].data;
        let g = &self.nodes[strong.index()].data;
        if w.srcs.len() > g.srcs.len() || w.cols.len() > g.cols.len() {
            return false;
        }
        // Canonicity: every column of `w` carries an edge, so a column
        // missing from `g` refutes containment outright.
        let mut col_map = Vec::with_capacity(w.cols.len());
        for &c in w.cols.iter() {
            match g.cols.binary_search(&c) {
                Ok(k) => col_map.push(k),
                Err(_) => return false,
            }
        }
        let same_cols = w.cols == g.cols;
        for (i, &s) in w.srcs.iter().enumerate() {
            let Ok(gi) = g.srcs.binary_search(&s) else {
                return false;
            };
            let (w_any, w_strict) = (w.row_any(i), w.row_strict(i));
            let (g_any, g_strict) = (g.row_any(gi), g.row_strict(gi));
            if same_cols {
                // Word-parallel containment test.
                let any_ok = w_any.iter().zip(g_any).all(|(a, b)| a & !b == 0);
                let strict_ok = w_strict.iter().zip(g_strict).all(|(a, b)| a & !b == 0);
                if !any_ok || !strict_ok {
                    return false;
                }
            } else if !row_contained(w_any, &col_map, g_any)
                || !row_contained(w_strict, &col_map, g_strict)
            {
                return false;
            }
        }
        true
    }

    /// Whether the graph has a strict self-edge `x ≲ x` (cached at intern
    /// time).
    pub fn has_strict_self_edge(&self, id: GraphId) -> bool {
        self.nodes[id.index()].strict_self
    }

    /// Whether the graph is idempotent, `g.seq(g) == g`.
    ///
    /// Served from the cached flag when a `&mut` path
    /// ([`GraphStore::force_idempotent`], which the closure runs for every
    /// self-loop graph) has computed it; otherwise recomputed on the fly
    /// without caching — `compose` output is canonical, so the test is one
    /// self-composition plus a structural comparison.
    pub fn is_idempotent(&self, id: GraphId) -> bool {
        let n = &self.nodes[id.index()];
        n.idempotent.unwrap_or_else(|| {
            let d = &n.data;
            compose(d, d) == *d
        })
    }

    /// [`GraphStore::is_idempotent`], caching the flag on the node so
    /// every later query is O(1).
    pub fn force_idempotent(&mut self, id: GraphId) -> bool {
        let n = &self.nodes[id.index()];
        match n.idempotent {
            Some(v) => v,
            None => {
                let v = compose(&n.data, &n.data) == n.data;
                self.nodes[id.index()].idempotent = Some(v);
                v
            }
        }
    }

    /// The Theorem 5.2 violation test for a graph sitting on a self-loop:
    /// idempotent without a strict self-edge. Checks the cheap cached
    /// strict-self flag first, so idempotence is only computed (and
    /// cached) for graphs the flag does not already absolve.
    pub fn is_bad_self_loop(&mut self, id: GraphId) -> bool {
        !self.nodes[id.index()].strict_self && self.force_idempotent(id)
    }

    /// The edges of an interned graph as `(from, to, label)` triples.
    pub fn edges_of(&self, id: GraphId) -> Vec<(V, V, Label)> {
        let d = &self.nodes[id.index()].data;
        let mut out = Vec::new();
        for (i, &s) in d.srcs.iter().enumerate() {
            let from = self.vars[s as usize];
            let strict = d.row_strict(i);
            for_each_bit(d.row_any(i), |j| {
                let to = self.vars[d.cols[j] as usize];
                let label = if bit(strict, j) {
                    Label::Strict
                } else {
                    Label::NonStrict
                };
                out.push((from, to, label));
            });
        }
        out
    }

    /// Reconstructs the owned [`ScGraph`] for an id.
    pub fn resolve(&self, id: GraphId) -> ScGraph<V> {
        self.edges_of(id).into_iter().collect()
    }

    /// Number of distinct graphs interned.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether no graph has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Cold compositions performed (memo misses).
    pub fn compositions(&self) -> u64 {
        self.compositions
    }

    /// Compositions served from the memo table.
    pub fn memo_hits(&self) -> u64 {
        self.memo_hits
    }
}

/// Builds canonical planes from sorted, per-pair-unique dense triples.
fn build_data(triples: &[(u32, u32, Label)]) -> GraphData {
    if triples.is_empty() {
        return GraphData::default();
    }
    let mut srcs: Vec<u32> = triples.iter().map(|t| t.0).collect();
    srcs.dedup();
    let mut cols: Vec<u32> = triples.iter().map(|t| t.1).collect();
    cols.sort_unstable();
    cols.dedup();
    let nw = cols.len().div_ceil(64);
    let mut any = vec![0u64; srcs.len() * nw];
    let mut strict = vec![0u64; srcs.len() * nw];
    for &(x, y, l) in triples {
        let i = srcs.binary_search(&x).expect("source present");
        let k = cols.binary_search(&y).expect("column present");
        set_bit(&mut any[i * nw..(i + 1) * nw], k);
        if l == Label::Strict {
            set_bit(&mut strict[i * nw..(i + 1) * nw], k);
        }
    }
    GraphData {
        srcs: srcs.into_boxed_slice(),
        cols: cols.into_boxed_slice(),
        any: any.into_boxed_slice(),
        strict: strict.into_boxed_slice(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(edges: &[(u32, u32, Label)]) -> ScGraph<u32> {
        edges.iter().copied().collect()
    }

    #[test]
    fn interning_is_idempotent_and_structural() {
        let mut store = GraphStore::new();
        let a = store.intern(&graph(&[(0, 1, Label::Strict), (1, 1, Label::NonStrict)]));
        let b = store.intern(&graph(&[(1, 1, Label::NonStrict), (0, 1, Label::Strict)]));
        assert_eq!(a, b);
        assert_eq!(store.len(), 1);
        let c = store.intern(&graph(&[(0, 1, Label::NonStrict)]));
        assert_ne!(a, c);
    }

    #[test]
    fn duplicate_edges_join_labels() {
        let mut store = GraphStore::new();
        let a = store.intern_edges([
            (0u32, 1u32, Label::NonStrict),
            (0, 1, Label::Strict),
            (0, 1, Label::NonStrict),
        ]);
        assert_eq!(store.resolve(a).label(0, 1), Some(Label::Strict));
    }

    #[test]
    fn seq_matches_owned_composition() {
        let mut store = GraphStore::new();
        let g = graph(&[(0, 1, Label::NonStrict), (1, 1, Label::Strict)]);
        let h = graph(&[(1, 0, Label::NonStrict), (1, 1, Label::NonStrict)]);
        let (ig, ih) = (store.intern(&g), store.intern(&h));
        let composed = store.seq(ig, ih);
        assert_eq!(store.resolve(composed), g.seq(&h));
    }

    #[test]
    fn seq_is_memoized() {
        let mut store = GraphStore::new();
        let g = store.intern(&graph(&[(0, 0, Label::Strict)]));
        let h = store.intern(&graph(&[(0, 0, Label::NonStrict)]));
        let first = store.seq(g, h);
        let cold = store.compositions();
        let second = store.seq(g, h);
        assert_eq!(first, second);
        assert_eq!(store.compositions(), cold, "second call must hit the memo");
        assert_eq!(store.memo_hits(), 1);
    }

    #[test]
    fn flags_are_cached_correctly() {
        let mut store = GraphStore::new();
        let id = store.intern(&ScGraph::identity(0..3u32));
        assert!(store.is_idempotent(id));
        assert!(!store.has_strict_self_edge(id));
        assert!(store.is_bad_self_loop(id));
        let strict_loop = store.intern(&graph(&[(0, 0, Label::Strict)]));
        assert!(store.is_idempotent(strict_loop));
        assert!(store.has_strict_self_edge(strict_loop));
        assert!(!store.is_bad_self_loop(strict_loop));
        let swap = store.intern(&graph(&[
            (0, 1, Label::NonStrict),
            (1, 0, Label::NonStrict),
        ]));
        assert!(!store.is_idempotent(swap));
        let empty = store.intern(&ScGraph::new());
        assert!(store.is_bad_self_loop(empty));
    }

    #[test]
    fn subsumption_is_pointwise_label_order() {
        let mut store = GraphStore::new();
        let weak = store.intern(&graph(&[(0, 1, Label::NonStrict)]));
        let strong = store.intern(&graph(&[(0, 1, Label::Strict), (1, 2, Label::NonStrict)]));
        assert!(store.subsumes(weak, strong));
        assert!(!store.subsumes(strong, weak));
        let empty = store.intern(&ScGraph::new());
        assert!(store.subsumes(empty, weak));
        let other = store.intern(&graph(&[(2, 0, Label::NonStrict)]));
        assert!(!store.subsumes(other, strong));
        assert!(store.subsumes(weak, weak));
    }

    #[test]
    fn wide_graphs_cross_word_boundaries() {
        // 70 columns force two words per row.
        let mut store = GraphStore::new();
        let wide: ScGraph<u32> = (0..70u32)
            .map(|i| {
                (
                    0u32,
                    i,
                    if i % 2 == 0 {
                        Label::Strict
                    } else {
                        Label::NonStrict
                    },
                )
            })
            .collect();
        let back: ScGraph<u32> = (0..70u32).map(|i| (i, 0u32, Label::NonStrict)).collect();
        let (iw, ib) = (store.intern(&wide), store.intern(&back));
        let composed = store.seq(iw, ib);
        assert_eq!(store.resolve(composed), wide.seq(&back));
        assert!(store.has_strict_self_edge(composed));
    }
}
