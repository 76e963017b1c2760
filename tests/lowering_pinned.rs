//! Pins what the frontend elaborates from every shipped source: the 81
//! benchmark-suite modules and `examples/*.hs`. For each module the rules,
//! the types inferred for their variables, the goal equations and the
//! goal variables' types are rendered in declaration order and hashed, so
//! a change to type inference that alters any elaborated type shows up
//! here.

use std::fmt::Write as _;

use cycleq::{parse_module, Module};
use cycleq_benchsuite::all_problems;

/// FNV-1a (64-bit), stable across platforms and builds.
fn fnv1a(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The module's rules and goals, with every variable's type. `decl_lines`
/// is left out: it is a `HashMap`, and it holds source lines, not
/// elaboration results.
fn render(m: &Module) -> String {
    let sig = &m.program.sig;
    let trs = &m.program.trs;
    let mut out = String::new();
    for (id, rule) in trs.rules() {
        let (lhs, rhs) = (rule.lhs_term(), rule.rhs());
        let _ = writeln!(
            out,
            "rule {}: {} = {}",
            id.index(),
            lhs.display(sig, trs.vars()),
            rhs.display(sig, trs.vars())
        );
    }
    for (v, name, ty) in trs.vars().iter() {
        let _ = writeln!(out, "  var {} {name} : {}", v.index(), ty.display(sig));
    }
    for g in &m.goals {
        let _ = writeln!(
            out,
            "goal {}: {} === {}",
            g.name,
            g.eq.lhs().display(sig, &g.vars),
            g.eq.rhs().display(sig, &g.vars)
        );
        for (v, name, ty) in g.vars.iter() {
            let _ = writeln!(out, "  var {} {name} : {}", v.index(), ty.display(sig));
        }
    }
    out
}

/// Every shipped source, named: the suite's modules in problem order, then
/// `examples/*.hs` by file name.
fn sources() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = all_problems()
        .into_iter()
        .filter_map(|p| Some((p.id.to_string(), p.source()?)))
        .collect();
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/examples");
    let mut examples: Vec<_> = std::fs::read_dir(dir)
        .expect("examples directory")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "hs"))
        .collect();
    examples.sort();
    for path in examples {
        let text = std::fs::read_to_string(&path).expect("readable example");
        out.push((path.display().to_string(), text));
    }
    out
}

#[test]
fn lowering_of_shipped_sources_is_pinned() {
    let sources = sources();
    assert_eq!(sources.len(), 82, "81 suite modules and one example");
    let mut all = String::new();
    for (name, src) in &sources {
        let m = parse_module(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let _ = writeln!(all, "== {}", name.rsplit('/').next().unwrap_or(name));
        all.push_str(&render(&m));
    }
    assert_eq!(
        (all.lines().count(), fnv1a(&all)),
        (16_956, 0xfc31_b305_71db_9ed3),
        "elaborated rules, goals or types changed"
    );
}
