//! Search configuration and statistics.

use std::time::Duration;

/// Which proof nodes may serve as `(Subst)` lemmas.
///
/// §5.1 identifies redundancies that let the search consider only
/// `(Case)`-justified nodes: lemmas justified by `(Refl)` are useless, those
/// justified by `(Reduce)` are subsumed by reducing the goal first, and
/// those justified by `(Subst)` can be replaced by their own lemma because
/// contexts and substitutions compose.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum LemmaPolicy {
    /// Only nodes justified by `(Case)` (the paper's default; in the proof
    /// of commutativity this shrinks the candidate set from 16 nodes to 3).
    #[default]
    CaseOnly,
    /// Every justified node. Kept for the §5.1 ablation benchmark.
    AllNodes,
}

/// Tunable limits and policies for proof search.
///
/// The search runs *iterative deepening*: bounded DFS at
/// [`SearchConfig::initial_depth`], increasing by
/// [`SearchConfig::depth_step`] up to [`SearchConfig::max_depth`] while the
/// previous round was cut by its depth bound. Deep bounds on a single DFS
/// pass let doomed branches blow up before the right alternative is tried;
/// iterative deepening keeps the cheap shallow proofs cheap.
#[derive(Clone, Debug)]
pub struct SearchConfig {
    /// Depth bound of the first deepening round.
    pub initial_depth: usize,
    /// Increment between deepening rounds.
    pub depth_step: usize,
    /// Maximum DFS depth (rule applications along a branch).
    pub max_depth: usize,
    /// Maximum number of proof nodes created in total per prove call
    /// (across backtracking *and* iterative-deepening rounds).
    pub max_nodes: usize,
    /// Reduction fuel per normalisation.
    pub reduction_fuel: usize,
    /// Which nodes may be used as lemmas.
    pub lemma_policy: LemmaPolicy,
    /// Wall-clock budget; `None` means unbounded.
    pub timeout: Option<Duration>,
}

impl Default for SearchConfig {
    fn default() -> SearchConfig {
        SearchConfig {
            initial_depth: 6,
            depth_step: 2,
            max_depth: 24,
            max_nodes: 1_000_000,
            reduction_fuel: 10_000,
            lemma_policy: LemmaPolicy::CaseOnly,
            timeout: Some(Duration::from_secs(5)),
        }
    }
}

/// Counters describing a finished search.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Proof nodes created, including backtracked ones.
    pub nodes_created: usize,
    /// Iterative-deepening rounds run (≥ 1 for any finished search).
    pub rounds: usize,
    /// `(Reduce)` applications committed (goal rewritten to normal form).
    pub rule_reduce: u64,
    /// `(Refl)` closures (goal discharged by syntactic identity).
    pub rule_refl: u64,
    /// `(Cong)` constructor decompositions committed.
    pub rule_cong: u64,
    /// `(FunExt)` applications committed on arrow-typed goals.
    pub rule_funext: u64,
    /// `(Case)` applications attempted.
    pub case_splits: usize,
    /// `(Subst)` candidate instances tried.
    pub subst_attempts: usize,
    /// `(Subst)` instances whose cycle failed the size-change check and
    /// were pruned immediately (§5.2).
    pub unsound_cycles_pruned: usize,
    /// Times the depth bound cut a branch.
    pub depth_limit_hits: usize,
    /// Size-change graphs between companions retained by the search's
    /// companion closure at the end of search (see
    /// `cycleq_sizechange::companion`; per-node path summaries are not
    /// counted).
    pub closure_graphs: usize,
    /// Cold size-change graph compositions performed by the companion
    /// closure's graph store (memo misses), path summaries included.
    pub closure_compositions: u64,
    /// Graph compositions served from that store's `(GraphId, GraphId)`
    /// memo table — including re-derivations after backtracking, since the
    /// store survives undo.
    pub composition_memo_hits: u64,
    /// Size-change graphs between companions dropped by cross-pair
    /// subsumption pruning (edge-wise dominated by an already-retained
    /// graph; see `cycleq_sizechange::incremental`).
    pub graphs_subsumed: u64,
    /// Distinct hash-consed size-change graphs interned during the search:
    /// edge graphs, path summaries and closure graphs.
    pub interned_graphs: usize,
    /// Normal forms served from the memoised rewriter's cache.
    pub reduce_memo_hits: u64,
    /// Always 0, as no normal form is shared between rewriters. Kept only
    /// because the benchmark reads it, and left out of
    /// [`SearchStats::entries`] and [`SearchStats::absorb`]; ROADMAP item 5
    /// deletes it together with the benchmark's `rewrite.shared_*` metrics.
    pub shared_cache_hits: u64,
    /// Always 0, like [`SearchStats::shared_cache_hits`], and deleted with
    /// it.
    pub shared_cache_misses: u64,
    /// Distinct hash-consed term nodes interned during the search.
    pub interned_nodes: usize,
    /// Wall-clock time spent.
    pub elapsed: Duration,
}

impl SearchStats {
    /// Adds every counter of `other` into `self` (including the gauges
    /// `closure_graphs`/`interned_nodes` and `elapsed`). Aggregators with
    /// gauge semantics — e.g. the prover's deepening loop, which reports
    /// the *final* round's gauge values — call this and then overwrite the
    /// gauge fields; keeping the summation in one place means a counter
    /// added to this struct is aggregated everywhere automatically.
    pub fn absorb(&mut self, other: &SearchStats) {
        self.nodes_created += other.nodes_created;
        self.rounds += other.rounds;
        self.rule_reduce += other.rule_reduce;
        self.rule_refl += other.rule_refl;
        self.rule_cong += other.rule_cong;
        self.rule_funext += other.rule_funext;
        self.case_splits += other.case_splits;
        self.subst_attempts += other.subst_attempts;
        self.unsound_cycles_pruned += other.unsound_cycles_pruned;
        self.depth_limit_hits += other.depth_limit_hits;
        self.closure_graphs += other.closure_graphs;
        self.closure_compositions += other.closure_compositions;
        self.composition_memo_hits += other.composition_memo_hits;
        self.graphs_subsumed += other.graphs_subsumed;
        self.interned_graphs += other.interned_graphs;
        self.reduce_memo_hits += other.reduce_memo_hits;
        self.interned_nodes += other.interned_nodes;
        self.elapsed += other.elapsed;
    }

    /// Keys with gauge semantics: they describe end-of-search sizes rather
    /// than monotone event counts (aggregators overwrite instead of sum,
    /// and the metrics registry exposes them as gauges).
    pub const GAUGE_KEYS: &'static [&'static str] =
        &["closure_graphs", "interned_graphs", "interned_nodes"];

    /// Every counter as a `(key, value)` list, in presentation order.
    ///
    /// This is the **single source of truth** for the stats surface: the
    /// CLI `--stats` line, the NDJSON `stats` object, and the
    /// `cycleq_search_*` metric families are all generated from it, so a
    /// field added here (and to [`SearchStats::absorb`]) is surfaced
    /// everywhere at once — `crates/cli/tests/stats_schema.rs` pins the
    /// key set across all three. `elapsed` is deliberately excluded (it is
    /// a duration, reported separately).
    pub fn entries(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("nodes_created", self.nodes_created as u64),
            ("rounds", self.rounds as u64),
            ("rule_reduce", self.rule_reduce),
            ("rule_refl", self.rule_refl),
            ("rule_cong", self.rule_cong),
            ("rule_funext", self.rule_funext),
            ("case_splits", self.case_splits as u64),
            ("subst_attempts", self.subst_attempts as u64),
            ("unsound_cycles_pruned", self.unsound_cycles_pruned as u64),
            ("depth_limit_hits", self.depth_limit_hits as u64),
            ("closure_graphs", self.closure_graphs as u64),
            ("closure_compositions", self.closure_compositions),
            ("composition_memo_hits", self.composition_memo_hits),
            ("graphs_subsumed", self.graphs_subsumed),
            ("interned_graphs", self.interned_graphs as u64),
            ("reduce_memo_hits", self.reduce_memo_hits),
            ("interned_nodes", self.interned_nodes as u64),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_case_only() {
        let c = SearchConfig::default();
        assert_eq!(c.lemma_policy, LemmaPolicy::CaseOnly);
        assert!(c.max_depth > 0);
        assert!(c.timeout.is_some());
    }
}
