//! Cold proof checking on the headline proofs: [`cycleq::check`] with a
//! fresh checker-side rewriter per call — what a single `cycleq check` of
//! one certificate, or the re-check of one proved goal, pays.

use criterion::{criterion_group, criterion_main, Criterion};
use cycleq::{check, Engine, GlobalCheck};
use cycleq_benchsuite::{MUTUAL_PRELUDE, PRELUDE};

fn bench(c: &mut Criterion) {
    let cases = [
        ("fig4_add_comm", PRELUDE, "add x y === add y x"),
        ("fig9_map_id", PRELUDE, "map id xs === xs"),
        ("fig1_mapE_id", MUTUAL_PRELUDE, "mapE id e === e"),
        (
            "fig2_butlast_take_ip50",
            PRELUDE,
            "butlast xs === take (sub (len xs) (S Z)) xs",
        ),
    ];
    let mut group = c.benchmark_group("checker");
    for (name, prelude, goal) in cases {
        let src = format!("{prelude}\ngoal g: {goal}\n");
        let session = Engine::builder().recheck(false).build().load(&src).unwrap();
        let v = session.prove("g").unwrap();
        assert!(v.is_proved(), "{name}: {:?}", v.result.outcome);
        let proof = &v.result.proof;
        let prog = session.program();
        group.bench_function(format!("{name}_interned_cold"), |b| {
            b.iter(|| {
                check(proof, prog, GlobalCheck::VariableTraces)
                    .unwrap()
                    .nodes
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
