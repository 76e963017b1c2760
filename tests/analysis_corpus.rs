//! Runs the static analyzer over every expressible problem in the benchmark
//! corpus and pins the outcome: the shipped programs must be free of
//! analysis *errors* (they are orthogonal, left-linear constructor systems),
//! and the warning counts are snapshotted so that a change to either the
//! corpus or the analyzer shows up here rather than as silent drift.

use std::collections::BTreeMap;

use cycleq::{analyze, parse_module, Severity};
use cycleq_benchsuite::all_problems;

#[test]
fn corpus_has_no_analysis_errors() {
    let mut checked = 0usize;
    for p in all_problems() {
        let Some(src) = p.source() else { continue };
        let module = parse_module(&src)
            .unwrap_or_else(|e| panic!("{}: frontend rejected corpus program: {e}", p.id));
        let errors: Vec<_> = analyze(&module)
            .into_iter()
            .filter(|d| d.severity == Severity::Error)
            .collect();
        assert!(errors.is_empty(), "{}: {errors:?}", p.id);
        checked += 1;
    }
    assert!(checked > 80, "corpus unexpectedly small: {checked}");
}

#[test]
fn corpus_warning_counts_are_pinned() {
    // The prelude deliberately declares more functions than any single goal
    // exercises, so CQ005 (unreachable-from-goal) fires on every problem;
    // everything else must stay quiet. If this snapshot moves, either the
    // corpus or an analysis changed — update it consciously.
    let mut by_code: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut fixed_by_code: BTreeMap<&'static str, usize> = BTreeMap::new();
    for p in all_problems() {
        let Some(src) = p.source() else { continue };
        let module = parse_module(&src).unwrap();
        for d in analyze(&module) {
            *by_code.entry(d.code.as_str()).or_default() += 1;
            if d.fix.is_some() {
                *fixed_by_code.entry(d.code.as_str()).or_default() += 1;
            }
        }
    }
    let snapshot: Vec<(&str, usize)> = by_code.into_iter().collect();
    assert_eq!(snapshot, vec![("CQ005", 2617)], "warning snapshot moved");
    // Plain `analyze` builds each fix with its diagnostic: every
    // unreachable-equation finding carries the deletion that repairs it.
    let fixed: Vec<(&str, usize)> = fixed_by_code.into_iter().collect();
    assert_eq!(fixed, vec![("CQ005", 2617)], "a CQ005 finding lost its fix");
}
