//! Experiment E4: the individual goals the paper calls out.
//!
//! - Fig. 2 / IsaPlanner 50: `butLast xs ≈ take (len xs − S Z) xs`, which
//!   CycleQ proves in ~40 ms (HipSpec: ~40 s);
//! - Fig. 4: commutativity of addition, proved with no hints;
//! - Fig. 1: the mutual-induction functor law;
//! - Fig. 9: `map id xs ≈ xs`.

use criterion::{criterion_group, criterion_main, Criterion};
use cycleq::{Engine, Session};
use cycleq_benchsuite::{MUTUAL_PRELUDE, PRELUDE};

fn session(prelude: &str, goal: &str) -> Session {
    let src = format!("{prelude}\ngoal g: {goal}\n");
    Engine::builder().recheck(false).build().load(&src).unwrap()
}

fn bench(c: &mut Criterion) {
    let cases = [
        (
            "fig2_butlast_take_ip50",
            PRELUDE,
            "butlast xs === take (sub (len xs) (S Z)) xs",
        ),
        ("fig4_add_comm", PRELUDE, "add x y === add y x"),
        ("fig1_mapE_id", MUTUAL_PRELUDE, "mapE id e === e"),
        ("fig9_map_id", PRELUDE, "map id xs === xs"),
        (
            "ip01_take_drop",
            PRELUDE,
            "app (take n xs) (drop n xs) === xs",
        ),
    ];
    let mut group = c.benchmark_group("headline_goals");
    for (name, prelude, goal) in cases {
        let s = session(prelude, goal);
        group.bench_function(name, |b| {
            b.iter(|| {
                let v = s.prove("g").unwrap();
                assert!(v.is_proved(), "{name}: {:?}", v.result.outcome);
                v.result.proof.len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
