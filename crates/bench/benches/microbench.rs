//! Micro-benchmarks of the substrate operations the prover performs
//! constantly: normalisation, matching, unification and size-change graph
//! composition/closure (with deterministic randomised workloads).

use criterion::{criterion_group, criterion_main, Criterion};
use cycleq_rewrite::fixtures::nat_list_program;
use cycleq_rewrite::MemoRewriter;
use cycleq_sizechange::{GraphStore, IncrementalClosure, Label, ScGraph};
use cycleq_term::{match_term, unify, Term, TermStore, VarStore};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_normalize(c: &mut Criterion) {
    let p = nat_list_program();
    // A balanced add-tree with 64 leaves of S^8 Z.
    fn tree(p: &cycleq_rewrite::fixtures::ProgramFixture, depth: usize) -> Term {
        if depth == 0 {
            p.f.num(8)
        } else {
            Term::apps(p.f.add, vec![tree(p, depth - 1), tree(p, depth - 1)])
        }
    }
    let t = tree(&p, 6);
    // "cold" pays interning and a fresh memo table per iteration (the
    // tree's repeated subterms are still shared within the run); "warm"
    // reuses the table across iterations, which is how the prover uses it
    // within one goal.
    c.bench_function("normalize_add_tree_64x8_interned_cold", |b| {
        b.iter(|| {
            let mut memo = MemoRewriter::new(&p.prog.sig, &p.prog.trs);
            let id = memo.intern(&t);
            let n = memo.normalize_id(id);
            assert!(n.in_normal_form);
            n.steps
        })
    });
    let mut warm = MemoRewriter::new(&p.prog.sig, &p.prog.trs);
    let warm_id = warm.intern(&t);
    c.bench_function("normalize_add_tree_64x8_interned_warm", |b| {
        b.iter(|| {
            let n = warm.normalize_id(warm_id);
            assert!(n.in_normal_form);
            n.id
        })
    });
}

fn bench_matching(c: &mut Criterion) {
    let p = nat_list_program();
    let mut vars = VarStore::new();
    let xs: Vec<_> = (0..6)
        .map(|i| vars.fresh(&format!("x{i}"), p.f.nat_ty()))
        .collect();
    // A pattern with 6 distinct variables over a deep term.
    fn pat(p: &cycleq_rewrite::fixtures::ProgramFixture, vs: &[cycleq_term::VarId]) -> Term {
        vs.iter().fold(Term::sym(p.f.zero), |acc, v| {
            Term::apps(p.f.add, vec![acc, Term::var(*v)])
        })
    }
    let pattern = pat(&p, &xs);
    let subject = {
        let mut s = cycleq_term::Subst::new();
        for (i, v) in xs.iter().enumerate() {
            s.insert(*v, p.f.num(i));
        }
        s.apply(&pattern)
    };
    c.bench_function("match_6_vars", |b| {
        b.iter(|| match_term(&pattern, &subject).expect("matches"))
    });
    let mut store = TermStore::new();
    let pid = store.intern(&pattern);
    let sid = store.intern(&subject);
    c.bench_function("match_6_vars_interned", |b| {
        b.iter(|| store.match_terms(pid, sid).expect("matches"))
    });
    c.bench_function("unify_with_instance", |b| {
        b.iter(|| unify(&pattern, &subject).expect("unifies"))
    });
}

fn bench_closure(c: &mut Criterion) {
    // Deterministic random call-graph of 6 nodes, 12 edges, 4 variables.
    let mut rng = StdRng::seed_from_u64(0xC1C1E);
    let mut edges = Vec::new();
    for _ in 0..12 {
        let a = rng.gen_range(0..6usize);
        let b = rng.gen_range(0..6usize);
        let mut g = ScGraph::new();
        for _ in 0..rng.gen_range(1..5) {
            let x = rng.gen_range(0..4u32);
            let y = rng.gen_range(0..4u32);
            let l = if rng.gen_bool(0.4) {
                Label::Strict
            } else {
                Label::NonStrict
            };
            g.insert(x, y, l);
        }
        edges.push((a, b, g));
    }
    c.bench_function("closure_random_12_edges", |b| {
        b.iter(|| {
            let mut cl = IncrementalClosure::new();
            for (src, dst, g) in &edges {
                cl.add_edge(*src, *dst, g.clone());
            }
            (cl.num_graphs(), cl.soundness())
        })
    });
}

/// The `add_comm`-shaped incremental workload: a two-node cycle whose
/// edges are repeatedly added and undone, as the prover does across
/// backtracking and deepening rounds. Compares the subsumption-pruned
/// engine against the prune-free one, and the memoized composition path
/// against a cold store.
fn bench_sizechange_closure(c: &mut Criterion) {
    // Deterministic edge pool shaped like the commutativity proof: two
    // nodes, forward edges with a strict hop, back edges that rename, over
    // 4 variables.
    let mut rng = StdRng::seed_from_u64(0xADDC0);
    let mut edges: Vec<(usize, usize, ScGraph<u32>)> = Vec::new();
    for i in 0..10 {
        let (a, b) = if i % 2 == 0 { (0, 1) } else { (1, 0) };
        let mut g = ScGraph::new();
        for _ in 0..rng.gen_range(2..5) {
            let x = rng.gen_range(0..4u32);
            let y = rng.gen_range(0..4u32);
            let l = if rng.gen_bool(0.5) {
                Label::Strict
            } else {
                Label::NonStrict
            };
            g.insert(x, y, l);
        }
        // Keep the cycle plausibly sound: every edge keeps a strict
        // self-trace on variable 0, like the analysed induction variable.
        g.insert(0, 0, Label::Strict);
        edges.push((a, b, g));
    }

    let mut group = c.benchmark_group("sizechange_closure");
    let rounds = 6;
    group.bench_function("incremental_add_undo", |b| {
        b.iter(|| {
            let mut inc = IncrementalClosure::new();
            for round in 0..rounds {
                let mark = inc.mark();
                for (a, b, g) in &edges {
                    inc.add_edge(*a, *b, g.clone());
                }
                if round < rounds - 1 {
                    inc.undo_to(mark);
                }
            }
            inc.num_graphs()
        })
    });
    group.bench_function("incremental_add_undo_no_subsumption", |b| {
        b.iter(|| {
            let mut inc = IncrementalClosure::without_subsumption();
            for round in 0..rounds {
                let mark = inc.mark();
                for (a, b, g) in &edges {
                    inc.add_edge(*a, *b, g.clone());
                }
                if round < rounds - 1 {
                    inc.undo_to(mark);
                }
            }
            inc.num_graphs()
        })
    });

    // Cold vs memoized composition on the graphs the workload produces.
    let pool: Vec<ScGraph<u32>> = edges.iter().map(|(_, _, g)| g.clone()).collect();
    group.bench_function("seq_cold", |b| {
        b.iter(|| {
            let mut store = GraphStore::new();
            let ids: Vec<_> = pool.iter().map(|g| store.intern(g)).collect();
            let mut acc = 0usize;
            for &x in &ids {
                for &y in &ids {
                    acc += store.seq(x, y).index();
                }
            }
            acc
        })
    });
    let mut warm = GraphStore::new();
    let warm_ids: Vec<_> = pool.iter().map(|g| warm.intern(g)).collect();
    // Populate the memo once; iterations below are pure hits.
    for &x in &warm_ids {
        for &y in &warm_ids {
            warm.seq(x, y);
        }
    }
    group.bench_function("seq_memoized", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for &x in &warm_ids {
                for &y in &warm_ids {
                    acc += warm.seq(x, y).index();
                }
            }
            acc
        })
    });
    group.bench_function("seq_owned_scgraph", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for x in &pool {
                for y in &pool {
                    acc += x.seq(y).len();
                }
            }
            acc
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_normalize,
    bench_matching,
    bench_closure,
    bench_sizechange_closure
);
criterion_main!(benches);
