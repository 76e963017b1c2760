//! Pins the stats schema across its three surfaces — the `--stats` line,
//! the `--format json` stats object, and the metrics registry exported by
//! `--metrics-out` — against one expected key list. All three are generated
//! from `SearchStats::entries()`, so a key added or renamed in one place
//! must show up in all of them (and in this file) or these tests fail.

use std::path::PathBuf;
use std::process::{Command, Output};

/// The pinned `SearchStats::entries()` key list, in order.
const EXPECTED: [&str; 17] = [
    "nodes_created",
    "rounds",
    "rule_reduce",
    "rule_refl",
    "rule_cong",
    "rule_funext",
    "case_splits",
    "subst_attempts",
    "unsound_cycles_pruned",
    "depth_limit_hits",
    "closure_graphs",
    "closure_compositions",
    "composition_memo_hits",
    "graphs_subsumed",
    "interned_graphs",
    "reduce_memo_hits",
    "interned_nodes",
];

/// Keys exported as gauges (end-of-search sizes); the rest are counters.
const GAUGES: [&str; 3] = ["closure_graphs", "interned_graphs", "interned_nodes"];

fn quickstart() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/quickstart.hs")
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cycleq"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn stats_line_keys_match_the_pinned_schema_in_order() {
    let file = quickstart();
    let out = run(&["--no-proof", "--stats", file.to_str().unwrap(), "addComm"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let line = stdout
        .lines()
        .find(|l| l.trim_start().starts_with("stats:"))
        .unwrap_or_else(|| panic!("no stats line in:\n{stdout}"));
    let keys: Vec<&str> = line
        .trim_start()
        .strip_prefix("stats:")
        .unwrap()
        .split_whitespace()
        .map(|kv| kv.split('=').next().unwrap())
        .collect();
    let mut expected: Vec<&str> = EXPECTED.to_vec();
    expected.push("elapsed");
    assert_eq!(keys, expected, "stats line schema drifted");
}

#[test]
fn json_stats_object_keys_match_the_pinned_schema_in_order() {
    let file = quickstart();
    let out = run(&["--format", "json", file.to_str().unwrap(), "addComm"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let goal_line = stdout.lines().next().expect("one goal object");
    let at = goal_line
        .find("\"stats\":{")
        .unwrap_or_else(|| panic!("no stats object in {goal_line}"))
        + "\"stats\":{".len();
    let inner = &goal_line[at..at + goal_line[at..].find('}').expect("closed object")];
    let keys: Vec<&str> = inner
        .split(',')
        .map(|field| field.split(':').next().unwrap().trim_matches('"'))
        .collect();
    assert_eq!(keys, EXPECTED.to_vec(), "NDJSON stats schema drifted");
}

/// Extracts the value of one un-labeled sample line from Prometheus text.
fn prom_value(text: &str, name: &str) -> Option<u64> {
    text.lines().find_map(|l| {
        l.strip_prefix(name)
            .and_then(|rest| rest.strip_prefix(' '))
            .and_then(|v| v.parse().ok())
    })
}

#[test]
fn prometheus_families_cover_the_schema_and_match_summed_goal_stats() {
    let file = quickstart();
    let prom_path = std::env::temp_dir().join(format!("cycleq_schema_{}.prom", std::process::id()));
    let out = run(&[
        "--format",
        "json",
        "--jobs",
        "2",
        "--metrics-out",
        prom_path.to_str().unwrap(),
        file.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let prom = std::fs::read_to_string(&prom_path).expect("metrics file written");
    std::fs::remove_file(&prom_path).ok();

    // Every schema key surfaces as a registry family: counters summed
    // across goals as `cycleq_search_<key>_total`, gauges as
    // `cycleq_search_<key>`.
    for key in EXPECTED {
        let family = if GAUGES.contains(&key) {
            format!("cycleq_search_{key}")
        } else {
            format!("cycleq_search_{key}_total")
        };
        assert!(
            prom.contains(&format!("# TYPE {family} ")),
            "family {family} missing from:\n{prom}"
        );
    }
    // The fixed observability families are present too.
    let fixed = [
        "cycleq_goals_total",
        "cycleq_goal_seconds",
        "cycleq_check_seconds",
        "cycleq_check_reducts_total",
        "cycleq_check_memo_hits_total",
        "cycleq_sizechange_compositions_total",
        "cycleq_sizechange_memo_hits_total",
        "cycleq_sizechange_subsumed_total",
        "cycleq_batch_tasks_total",
        "cycleq_batch_queue_depth",
        "cycleq_batch_task_panics_total",
        "cycleq_goal_panics_total",
        "cycleq_lock_poison_recoveries_total",
        "cycleq_phase_seconds",
    ];
    for family in fixed {
        assert!(
            prom.contains(&format!("# TYPE {family} ")),
            "family {family} missing from:\n{prom}"
        );
    }
    // And nothing else: these are all the families a prove run exports.
    let exported = prom.lines().filter(|l| l.starts_with("# TYPE ")).count();
    assert_eq!(exported, EXPECTED.len() + fixed.len(), "in:\n{prom}");

    // Counters exported by the registry equal the per-goal NDJSON stats
    // summed over the batch — the same numbers, whichever surface you read.
    let goal_lines: Vec<&str> = stdout
        .lines()
        .filter(|l| l.contains("\"type\":\"goal\""))
        .collect();
    assert_eq!(goal_lines.len(), 3, "quickstart declares 3 goals");
    for key in EXPECTED {
        if GAUGES.contains(&key) {
            continue;
        }
        let summed: u64 = goal_lines
            .iter()
            .map(|l| {
                let needle = format!("\"{key}\":");
                let at = l.find(&needle).unwrap() + needle.len();
                let rest = &l[at..];
                rest[..rest.find([',', '}']).unwrap()]
                    .parse::<u64>()
                    .unwrap()
            })
            .sum();
        let exported = prom_value(&prom, &format!("cycleq_search_{key}_total"))
            .unwrap_or_else(|| panic!("no sample for {key} in:\n{prom}"));
        assert_eq!(exported, summed, "{key}: registry diverges from NDJSON");
    }
    assert_eq!(
        prom_value(&prom, "cycleq_batch_tasks_total"),
        Some(3),
        "one scheduler task per goal"
    );
}
