//! Experiment E6 (§5.2): the cost of verifying the global correctness
//! condition.
//!
//! Cyclist re-verifies candidate proofs from scratch as they grow, which the
//! paper identifies as a dominant cost. We compare two regimes on the
//! edge lists of real proofs produced by the search:
//!
//! - `recheck_per_step`: a fresh closure after every added edge — the
//!   naive search-time discipline;
//! - `incremental`: one closure extended edge by edge, as the search
//!   maintains it (and as the checker builds it once over a finished
//!   proof).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cycleq::{NodeId, Session};
use cycleq_benchsuite::{MUTUAL_PRELUDE, PRELUDE};
use cycleq_sizechange::{IncrementalClosure, ScGraph, Soundness};
use cycleq_term::VarId;

type Edges = Vec<(NodeId, NodeId, ScGraph<VarId>)>;

/// The verdict on a closure extended by `edges` one at a time.
fn closure_of(edges: &[(NodeId, NodeId, ScGraph<VarId>)]) -> Soundness {
    let mut closure = IncrementalClosure::new();
    for (a, b, g) in edges {
        closure.add_edge(*a, *b, g.clone());
    }
    closure.soundness()
}

fn proof_edges(prelude: &str, goal: &str) -> Edges {
    let src = format!("{prelude}\ngoal g: {goal}\n");
    let session = Session::from_source(&src).unwrap();
    let v = session.prove("g").unwrap();
    assert!(v.is_proved(), "{goal}: {:?}", v.result.outcome);
    cycleq::global_edges(&v.result.proof)
}

fn bench(c: &mut Criterion) {
    let cases: Vec<(&str, Edges)> = vec![
        ("add_comm", proof_edges(PRELUDE, "add x y === add y x")),
        (
            "butlast_take",
            proof_edges(PRELUDE, "butlast xs === take (sub (len xs) (S Z)) xs"),
        ),
        ("mapE_id", proof_edges(MUTUAL_PRELUDE, "mapE id e === e")),
    ];
    let mut group = c.benchmark_group("cycle_verification");
    for (name, edges) in &cases {
        group.bench_with_input(
            BenchmarkId::new("recheck_per_step", name),
            edges,
            |b, edges| {
                b.iter(|| {
                    let mut verdict = None;
                    for i in 1..=edges.len() {
                        verdict = Some(closure_of(&edges[..i]));
                    }
                    verdict
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("incremental", name), edges, |b, edges| {
            b.iter(|| closure_of(edges))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
