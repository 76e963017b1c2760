//! Integration tests shelling out to the compiled `cycleq` binary.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

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
fn proves_quickstart_goals_with_proof_and_stats() {
    let file = quickstart();
    let out = run(&["--stats", file.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    for goal in ["addZeroRight", "addSuccRight", "addComm"] {
        assert!(
            stdout.contains(&format!("goal {goal}: Proved")),
            "missing verdict in:\n{stdout}"
        );
    }
    // A non-empty rendered proof tree: case splits and a cycle-forming
    // (Subst) application must both appear.
    assert!(
        stdout.contains("[Case"),
        "no case split rendered:\n{stdout}"
    );
    assert!(
        stdout.contains("[Subst]"),
        "no back edge rendered:\n{stdout}"
    );
    assert!(
        stdout.contains("stats: nodes_created="),
        "no stats line:\n{stdout}"
    );
}

#[test]
fn selects_a_single_goal() {
    let file = quickstart();
    let out = run(&[file.to_str().unwrap(), "addComm"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("goal addComm: Proved"));
    assert!(!stdout.contains("addZeroRight"));
}

#[test]
fn dot_output_is_pipeable_graphviz() {
    let file = quickstart();
    let out = run(&["--dot", file.to_str().unwrap(), "addZeroRight"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.trim_start().starts_with("digraph"),
        "not DOT:\n{stdout}"
    );
    // Verdict annotations go to stderr so stdout pipes straight into `dot`.
    assert!(
        !stdout.contains("goal "),
        "non-DOT noise on stdout:\n{stdout}"
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("goal addZeroRight: Proved"));
}

/// Writes a fixture with one provable and one refutable goal, returning
/// its path.
fn mixed_goals_file(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("cycleq-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join(name);
    std::fs::write(
        &file,
        "data Nat = Z | S Nat\n\
         add :: Nat -> Nat -> Nat\n\
         add Z y = y\n\
         add (S x) y = S (add x y)\n\
         goal good: add Z y === y\n\
         goal wrong: add x Z === Z\n",
    )
    .unwrap();
    file
}

#[test]
fn refuted_goal_sets_distinct_exit_code() {
    let file = mixed_goals_file("wrong.hs");
    let out = run(&[file.to_str().unwrap(), "wrong"]);
    assert_eq!(out.status.code(), Some(3), "refuted goals exit with 3");
    assert!(String::from_utf8(out.stdout)
        .unwrap()
        .contains("goal wrong: Refuted"));
    // A refutation anywhere dominates the aggregate exit code.
    let out = run(&[file.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(3));
}

#[test]
fn exhausted_search_sets_gave_up_exit_code() {
    // A node budget of zero stops the search immediately (NodeBudget).
    let file = mixed_goals_file("budget.hs");
    let out = run(&["--max-nodes", "0", file.to_str().unwrap(), "good"]);
    assert_eq!(out.status.code(), Some(1), "gave-up goals exit with 1");
    assert!(String::from_utf8(out.stdout)
        .unwrap()
        .contains("goal good: GaveUp"));
}

#[test]
fn failed_hint_sets_gave_up_exit_code() {
    // addComm cannot be proved at depth 1, so supplying it as a hint fails
    // (HintFailed) before the main goal is attempted.
    let file = quickstart();
    let out = run(&[
        "--max-depth",
        "1",
        "--hints",
        "addComm",
        file.to_str().unwrap(),
        "addZeroRight",
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8(out.stdout)
        .unwrap()
        .contains("goal addZeroRight: GaveUp"));
}

#[test]
fn refuted_hint_is_a_failed_hint_not_a_refuted_goal() {
    // The hint `wrong` is false, so it fails; the true goal must not be
    // reported refuted because of it.
    let dir = std::env::temp_dir().join("cycleq-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("false-hint.hs");
    std::fs::write(
        &file,
        "data Nat = Z | S Nat\n\
         add :: Nat -> Nat -> Nat\n\
         add Z y = y\n\
         add (S x) y = S (add x y)\n\
         goal addZeroRight: add x Z === x\n\
         goal wrong: add x Z === Z\n",
    )
    .unwrap();
    let file = file.to_str().unwrap();
    let out = run(&["--hints", "wrong", file, "addZeroRight"]);
    assert_eq!(out.status.code(), Some(1), "a failed hint gives up");
    assert!(String::from_utf8(out.stdout)
        .unwrap()
        .contains("goal addZeroRight: GaveUp"));
    let out = run(&["--format", "json", "--hints", "wrong", file, "addZeroRight"]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let goal = stdout.lines().next().expect("a goal object");
    assert_eq!(
        json_value(goal, "verdict"),
        Some("hint-failed"),
        "in {goal}"
    );
}

#[test]
fn proved_goal_exits_zero_even_with_refutable_sibling_unselected() {
    let file = mixed_goals_file("good.hs");
    let out = run(&[file.to_str().unwrap(), "good"]);
    assert_eq!(out.status.code(), Some(0));
}

#[test]
fn parallel_jobs_match_sequential_verdicts_and_order() {
    let file = quickstart();
    let args = |jobs| {
        [
            "--no-proof",
            "--stats",
            "--jobs",
            jobs,
            file.to_str().unwrap(),
        ]
    };
    let sequential = run(&args("1"));
    let parallel = run(&args("4"));
    assert!(sequential.status.success());
    assert!(
        parallel.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&parallel.stderr)
    );
    let seq_out = String::from_utf8(sequential.stdout).unwrap();
    let par_out = String::from_utf8(parallel.stdout).unwrap();
    // Same verdict lines in the same (declaration) order.
    let verdicts = |s: &str| -> Vec<String> {
        s.lines()
            .filter(|l| l.starts_with("goal "))
            .map(str::to_string)
            .collect()
    };
    assert_eq!(verdicts(&seq_out), verdicts(&par_out));
    // Goals share no search state, so every counter is the worker count's
    // to ignore: only the times may differ.
    let stats = |s: &str| -> Vec<String> {
        s.lines()
            .filter(|l| l.starts_with("  stats:") || l.starts_with("  recheck:"))
            .map(|l| {
                l.split(' ')
                    .filter(|field| !field.starts_with("elapsed="))
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .collect()
    };
    assert_eq!(stats(&seq_out).len(), 6, "in:\n{seq_out}");
    assert_eq!(stats(&seq_out), stats(&par_out));
    assert!(
        par_out.contains("batch: proved 3/3 | jobs=4"),
        "missing summary:\n{par_out}"
    );
}

#[test]
fn explicit_jobs_one_still_prints_the_batch_summary() {
    // `--jobs N` promises a summary line for every N, including 1 (the
    // deterministic single-worker batch).
    let file = quickstart();
    let out = run(&["--no-proof", "--jobs", "1", file.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("batch: proved 3/3 | jobs=1"),
        "missing summary:\n{stdout}"
    );
}

#[test]
fn parallel_refuted_goal_keeps_distinct_exit_code() {
    let file = mixed_goals_file("wrong_parallel.hs");
    let out = run(&["--jobs", "2", file.to_str().unwrap()]);
    assert_eq!(
        out.status.code(),
        Some(3),
        "worst verdict dominates the batch exit code; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("goal good: Proved"));
    assert!(stdout.contains("goal wrong: Refuted"));
}

#[test]
fn parallel_gave_up_goal_keeps_exit_code_one() {
    let file = mixed_goals_file("budget_parallel.hs");
    let out = run(&[
        "--jobs",
        "2",
        "--max-nodes",
        "0",
        file.to_str().unwrap(),
        "good",
    ]);
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn missing_file_is_a_usage_error() {
    let out = run(&["/nonexistent/nope.hs"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn unknown_flag_prints_usage() {
    let out = run(&["--frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}

/// Minimal hand parser for one flat-ish NDJSON object: extracts the string
/// or number value of a top-level (or nested, since keys are unique in our
/// schema) key. Good enough to pin the `--format json` schema without a
/// JSON dependency.
fn json_value<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let at = line.find(&needle)? + needle.len();
    let rest = &line[at..];
    if let Some(stripped) = rest.strip_prefix('"') {
        let end = stripped.find('"')?;
        Some(&stripped[..end])
    } else {
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(&rest[..end])
    }
}

#[test]
fn json_format_emits_one_object_per_goal_plus_batch_summary() {
    let file = quickstart();
    let out = run(&["--format", "json", "--jobs", "2", file.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().filter(|l| !l.trim().is_empty()).collect();
    // quickstart.hs declares 3 goals: 3 goal objects + 1 batch object.
    assert_eq!(lines.len(), 4, "unexpected output:\n{stdout}");
    for line in &lines {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "not an NDJSON object: {line}"
        );
    }
    let mut goals_seen = Vec::new();
    for line in &lines[..3] {
        assert_eq!(json_value(line, "type"), Some("goal"), "in {line}");
        assert_eq!(json_value(line, "verdict"), Some("proved"), "in {line}");
        let ms: f64 = json_value(line, "time_ms").unwrap().parse().unwrap();
        assert!(ms >= 0.0);
        let nodes: u64 = json_value(line, "nodes_created").unwrap().parse().unwrap();
        assert!(nodes > 0, "in {line}");
        // Size-change engine counters: present and numeric in every goal
        // object (schema pinned).
        for key in [
            "closure_graphs",
            "closure_compositions",
            "composition_memo_hits",
            "graphs_subsumed",
            "interned_graphs",
        ] {
            let v: u64 = json_value(line, key)
                .unwrap_or_else(|| panic!("missing {key} in {line}"))
                .parse()
                .unwrap();
            let _ = v;
        }
        goals_seen.push(json_value(line, "goal").unwrap().to_string());
    }
    // Declaration order, independent of parallel completion order.
    assert_eq!(goals_seen, vec!["addZeroRight", "addSuccRight", "addComm"]);
    let batch = lines[3];
    assert_eq!(json_value(batch, "type"), Some("batch"));
    assert_eq!(json_value(batch, "proved"), Some("3"));
    assert_eq!(json_value(batch, "total"), Some("3"));
    assert_eq!(json_value(batch, "jobs"), Some("2"));
    let elapsed: f64 = json_value(batch, "elapsed_ms").unwrap().parse().unwrap();
    assert!(elapsed > 0.0);
    assert_eq!(json_value(batch, "panicked"), Some("0"));
    let recheck: f64 = json_value(batch, "recheck_ms").unwrap().parse().unwrap();
    assert!(recheck >= 0.0);
    assert!(!batch.contains("\"cache\""), "in {batch}");
}

#[test]
fn json_format_carries_granular_verdicts_and_worst_exit_code() {
    let file = mixed_goals_file("json-mixed.hs");
    let out = run(&["--format", "json", file.to_str().unwrap()]);
    assert_eq!(
        out.status.code(),
        Some(3),
        "refuted exit code survives json"
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 3);
    assert_eq!(json_value(lines[0], "verdict"), Some("proved"));
    assert_eq!(json_value(lines[1], "verdict"), Some("refuted"));
    assert_eq!(json_value(lines[2], "type"), Some("batch"));
    assert_eq!(json_value(lines[2], "proved"), Some("1"));
}

#[test]
fn json_format_rejects_dot() {
    let file = quickstart();
    let out = run(&["--format", "json", "--dot", file.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn stats_include_a_recheck_line_for_proved_goals() {
    let file = quickstart();
    let out = run(&["--no-proof", "--stats", file.to_str().unwrap(), "addComm"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("recheck: nodes="),
        "no recheck line:\n{stdout}"
    );
    assert!(
        stdout.contains("reducts=") && stdout.contains("memo_hits="),
        "recheck counters missing:\n{stdout}"
    );
}

#[test]
fn json_goal_objects_carry_recheck_keys() {
    let file = quickstart();
    let out = run(&["--format", "json", file.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    for line in &lines[..lines.len() - 1] {
        let ms: f64 = json_value(line, "recheck_ms").unwrap().parse().unwrap();
        assert!(ms >= 0.0, "in {line}");
        let reducts: u64 = json_value(line, "recheck_reducts")
            .unwrap()
            .parse()
            .unwrap();
        assert!(reducts > 0, "proved goals derive reducts, in {line}");
        let _: u64 = json_value(line, "recheck_memo_hits")
            .unwrap()
            .parse()
            .unwrap();
    }
    let batch = lines[lines.len() - 1];
    let ms: f64 = json_value(batch, "recheck_ms").unwrap().parse().unwrap();
    assert!(ms >= 0.0);
}

#[test]
fn batch_summary_includes_recheck_time() {
    let file = quickstart();
    let out = run(&["--no-proof", "--jobs", "2", file.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("| recheck="),
        "no recheck in summary:\n{stdout}"
    );
}

/// A fresh directory for emitted certificates, cleaned up from any
/// previous run of the same test.
fn cert_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("cycleq-cli-test-certs")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn emitted_certificates_validate_with_cycleq_check() {
    let file = quickstart();
    let dir = cert_dir("roundtrip");
    let out = run(&[
        "--no-proof",
        "--emit-certs",
        dir.to_str().unwrap(),
        file.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut certs: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path().to_str().unwrap().to_string())
        .collect();
    certs.sort();
    assert_eq!(certs.len(), 3, "one certificate per proved goal");
    let mut args = vec!["check", "--jobs", "2"];
    args.extend(certs.iter().map(String::as_str));
    let out = run(&args);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("check: valid 3/3 | jobs=2"),
        "missing summary:\n{stdout}"
    );
    assert!(stdout.contains("valid goal addComm"), "{stdout}");
}

#[test]
fn tampered_certificate_fails_check_with_exit_code_three() {
    let file = quickstart();
    let dir = cert_dir("tampered");
    let out = run(&[
        "--no-proof",
        "--emit-certs",
        dir.to_str().unwrap(),
        file.to_str().unwrap(),
        "addZeroRight",
    ]);
    assert!(out.status.success());
    let cert = dir.join("addZeroRight.cqc");
    let text = std::fs::read_to_string(&cert).unwrap();
    // Tamper with the embedded program source: fingerprint mismatch.
    std::fs::write(&cert, text.replace("add Z y = y", "add Z y = Z")).unwrap();
    let out = run(&["check", cert.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(3));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("INVALID"), "{stdout}");
    assert!(stdout.contains("fingerprint mismatch"), "{stdout}");
    assert!(stdout.contains("check: valid 0/1"), "{stdout}");
}

#[test]
fn forged_goal_line_fails_check_with_exit_code_three() {
    let file = quickstart();
    let dir = cert_dir("forged_goal");
    let out = run(&[
        "--no-proof",
        "--emit-certs",
        dir.to_str().unwrap(),
        file.to_str().unwrap(),
        "addZeroRight",
    ]);
    assert!(out.status.success());
    let cert = dir.join("addZeroRight.cqc");
    let text = std::fs::read_to_string(&cert).unwrap();
    // The goal line is outside the fingerprint: claim another goal.
    let forged = text.replace("\ngoal addZeroRight\n", "\ngoal addComm\n");
    assert_ne!(forged, text);
    std::fs::write(&cert, forged).unwrap();
    let out = run(&["check", cert.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(3));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("INVALID (no node of the proof states goal `addComm`)"),
        "{stdout}"
    );
    assert!(stdout.contains("check: valid 0/1"), "{stdout}");
}

/// `program` escaped onto one certificate line.
fn escape_program(program: &str) -> String {
    program.replace('\\', "\\\\").replace('\n', "\\n")
}

#[test]
fn deeply_nested_forged_program_is_invalid_not_a_crash() {
    // The fingerprint is an unkeyed hash, so a forger can embed a program
    // of their own. One nesting 300 000 parentheses deep must make its
    // certificate INVALID, while the other files still validate.
    let file = quickstart();
    let dir = cert_dir("deep_nesting");
    let out = run(&[
        "--no-proof",
        "--emit-certs",
        dir.to_str().unwrap(),
        file.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let source = std::fs::read_to_string(&file).unwrap();
    let deep = 300_000;
    let program = format!(
        "{}\ngoal deep: {}Z{} === Z\n",
        source.trim_end(),
        "(".repeat(deep),
        ")".repeat(deep)
    );
    let forged = dir.join("forged.cqc");
    let text = std::fs::read_to_string(dir.join("addZeroRight.cqc")).unwrap();
    let lines: Vec<String> = text
        .lines()
        .map(|line| {
            if line.starts_with("fingerprint ") {
                format!("fingerprint {:016x}", cycleq::program_fingerprint(&program))
            } else if line.starts_with("program ") {
                format!("program {}", escape_program(&program))
            } else {
                line.to_string()
            }
        })
        .collect();
    std::fs::write(&forged, lines.join("\n") + "\n").unwrap();
    let certs = [
        dir.join("addComm.cqc"),
        forged.clone(),
        dir.join("addSuccRight.cqc"),
    ];
    let mut args = vec!["check"];
    args.extend(certs.iter().map(|c| c.to_str().unwrap()));
    let out = run(&args);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(
        out.status.code(),
        Some(3),
        "stdout: {stdout}\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report: Vec<&str> = stdout.lines().collect();
    assert_eq!(report.len(), 4, "{stdout}");
    assert!(report[0].contains("addComm.cqc: valid"), "{stdout}");
    let goal_line = source.trim_end().lines().count() + 1;
    assert!(
        report[1].contains(&format!(
            "forged.cqc: INVALID (line {goal_line}: nesting deeper than {} levels)",
            cycleq::MAX_NESTING
        )),
        "{stdout}"
    );
    assert!(report[2].contains("addSuccRight.cqc: valid"), "{stdout}");
    assert!(
        report[3].starts_with("check: valid 2/3 | jobs=1"),
        "{stdout}"
    );
    // `cycleq lint` refuses the same source as a frontend error.
    let deep_source = dir.join("deep.hs");
    std::fs::write(&deep_source, &program).unwrap();
    let out = run(&["lint", deep_source.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(3));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("nesting deeper than"), "{stdout}");
}

#[test]
fn a_term_nested_to_the_bound_proves_and_checks() {
    // `S (S (… Z))` with `MAX_NESTING` levels: the deepest term the
    // frontend and the certificate reader accept still proves, exports
    // and checks on the main thread's stack.
    let dir = cert_dir("nesting_bound");
    std::fs::create_dir_all(&dir).unwrap();
    let mut term = "Z".to_string();
    for _ in 1..cycleq::MAX_NESTING {
        term = if term == "Z" {
            "S Z".to_string()
        } else {
            format!("S ({term})")
        };
    }
    let file = dir.join("deep.hs");
    std::fs::write(
        &file,
        format!("data Nat = Z | S Nat\ngoal deep: {term} === {term}\n"),
    )
    .unwrap();
    let out = run(&[
        "--no-proof",
        "--emit-certs",
        dir.to_str().unwrap(),
        file.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = run(&["check", dir.join("deep.cqc").to_str().unwrap()]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("check: valid 1/1"), "{stdout}");
}

#[test]
fn check_without_files_is_a_usage_error() {
    let out = run(&["check"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn check_reports_unreadable_file_per_file_and_exits_three() {
    let out = run(&["check", "/nonexistent/nope.cqc"]);
    assert_eq!(
        out.status.code(),
        Some(3),
        "unreadable cert = worst verdict"
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("INVALID") && stdout.contains("cannot read"),
        "{stdout}"
    );
    assert!(stdout.contains("check: valid 0/1"), "{stdout}");
}

#[test]
fn check_batch_survives_one_unreadable_file_among_good_ones() {
    // One bogus path mixed into a good parallel batch: the good files are
    // still validated (never aborted), and the exit code is the worst
    // verdict.
    let file = quickstart();
    let dir = cert_dir("mixed_batch");
    let out = run(&[
        "--no-proof",
        "--emit-certs",
        dir.to_str().unwrap(),
        file.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let mut certs: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path().to_str().unwrap().to_string())
        .collect();
    certs.sort();
    assert_eq!(certs.len(), 3);
    let mut args = vec!["check", "--jobs", "2"];
    args.extend(certs.iter().map(String::as_str));
    args.push("/nonexistent/nope.cqc");
    let out = run(&args);
    assert_eq!(
        out.status.code(),
        Some(3),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("check: valid 3/4 | jobs=2"),
        "good files must still validate:\n{stdout}"
    );
    assert!(
        stdout.contains("cert /nonexistent/nope.cqc: INVALID"),
        "{stdout}"
    );
}

#[test]
fn check_batch_survives_a_crafted_count_among_good_files() {
    // A count far past the tokens of its line must make that one file
    // INVALID, not abort the batch on a terabyte allocation.
    let file = quickstart();
    let dir = cert_dir("crafted_count");
    let out = run(&[
        "--no-proof",
        "--emit-certs",
        dir.to_str().unwrap(),
        file.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let crafted = dir.join("addZeroRight.cqc");
    let text = std::fs::read_to_string(&crafted).unwrap();
    let forged = text.replace("\nvar x 3 1 0 0\n", "\nvar x 1099511627776 1 0 0\n");
    assert_ne!(forged, text);
    std::fs::write(&crafted, forged).unwrap();
    let certs: Vec<String> = ["addComm", "addZeroRight", "addSuccRight"]
        .iter()
        .map(|goal| {
            dir.join(format!("{goal}.cqc"))
                .to_str()
                .unwrap()
                .to_string()
        })
        .collect();
    for jobs in ["1", "2"] {
        let mut args = vec!["check", "--jobs", jobs];
        args.extend(certs.iter().map(String::as_str));
        let out = run(&args);
        assert_eq!(
            out.status.code(),
            Some(3),
            "jobs={jobs} stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(
            stdout.contains(&format!(
                "cert {}: INVALID (malformed certificate",
                crafted.display()
            )),
            "{stdout}"
        );
        assert!(
            stdout.contains(&format!("check: valid 2/3 | jobs={jobs}")),
            "good files must still validate:\n{stdout}"
        );
    }
}

/// Writes a lint fixture to the temp dir, returning its path.
fn lint_file(name: &str, src: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("cycleq-cli-test-lint");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join(name);
    std::fs::write(&file, src).unwrap();
    file
}

#[test]
fn lint_reports_non_exhaustive_function_as_cq001_warning() {
    let file = lint_file(
        "partial.hs",
        "data Nat = Z | S Nat\npred :: Nat -> Nat\npred (S x) = x\ngoal p: pred (S Z) === Z\n",
    );
    let out = run(&["lint", file.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "warnings alone do not fail");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains(":3: warning[CQ001]:"),
        "missing CQ001 at line 3:\n{stdout}"
    );
    assert!(stdout.contains("`pred Z`"), "no witness:\n{stdout}");
    assert!(
        stdout.contains("lint: files=1 errors=0 warnings=1"),
        "bad summary:\n{stdout}"
    );
    // The same file under --deny-warnings fails with the gave-up code.
    let out = run(&["lint", "--deny-warnings", file.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn lint_reports_joinable_overlap_as_cq002_warning_with_both_lines() {
    // The paper's fig. 2 `sub` variant: `sub Z y` and `sub x Z` both
    // match `sub Z Z` — but the critical pair converges (both reducts
    // normalize to `Z`), so this is a warning, not an error.
    let file = lint_file(
        "overlap.hs",
        "data Nat = Z | S Nat\nsub :: Nat -> Nat -> Nat\nsub Z y = Z\nsub x Z = x\nsub (S x) (S y) = sub x y\n",
    );
    let out = run(&["lint", file.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "joinable overlaps are warnings");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains(":3: warning[CQ002]:"),
        "missing CQ002 at line 3:\n{stdout}"
    );
    assert!(
        stdout.contains("lines 3 and 4"),
        "offending positions missing:\n{stdout}"
    );
    assert!(
        stdout.contains("sub Z Z"),
        "critical instance missing:\n{stdout}"
    );
    assert!(
        stdout.contains("normalize to `Z`"),
        "converging normal form missing:\n{stdout}"
    );
    assert!(
        stdout.contains("lint: files=1 errors=0 warnings=1"),
        "{stdout}"
    );
}

#[test]
fn lint_reports_non_joinable_overlap_as_cq009_error() {
    // `f x = Z` vs `f Z = S Z` disagree on `f Z`: the reducts `Z` and
    // `S Z` are distinct normal forms, so no completion is sound.
    let file = lint_file(
        "nonjoinable.hs",
        "data Nat = Z | S Nat\nf :: Nat -> Nat\nf x = Z\nf Z = S Z\n",
    );
    let out = run(&["lint", file.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(3), "CQ009 is an error");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains(":3: error[CQ009]:"),
        "missing CQ009 at line 3:\n{stdout}"
    );
    assert!(
        stdout.contains("`S Z`") && stdout.contains("never meet"),
        "diverging reducts missing:\n{stdout}"
    );
    // `--fix` has nothing sound to offer and must not mask the error.
    let out = run(&["lint", "--fix", file.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(3), "--fix does not mask CQ009");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("fixed=0 errors=1"), "{stdout}");
}

#[test]
fn lint_fix_repairs_overlap_in_place_and_is_idempotent() {
    let file = lint_file(
        "fix_overlap.hs",
        "data Nat = Z | S Nat\nsub :: Nat -> Nat -> Nat\nsub Z y = Z\nsub x Z = x\nsub (S x) (S y) = sub x y\ngoal g1: sub x x === Z\n",
    );
    let out = run(&["lint", "--fix", file.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("lint: files=1 fixed=1 errors=0 warnings=0"),
        "bad summary:\n{stdout}"
    );
    let repaired = std::fs::read_to_string(&file).unwrap();
    assert!(
        repaired.contains("sub (S x) Z = S x") && !repaired.contains("sub x Z = x"),
        "bad repair:\n{repaired}"
    );
    // A second pass finds nothing left to fix and changes nothing.
    let out = run(&["lint", "--fix", file.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("fixed=0 errors=0 warnings=0"),
        "not idempotent:\n{stdout}"
    );
    assert_eq!(repaired, std::fs::read_to_string(&file).unwrap());
}

#[test]
fn lint_fix_dry_run_prints_diff_and_leaves_file_untouched() {
    let src = "data Nat = Z | S Nat\nsub :: Nat -> Nat -> Nat\nsub Z y = Z\nsub x Z = x\nsub (S x) (S y) = sub x y\n";
    let file = lint_file("fix_dry.hs", src);
    let out = run(&["lint", "--fix", "--dry-run", file.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("--- a/"), "diff header missing:\n{stdout}");
    assert!(stdout.contains("+++ b/"), "diff header missing:\n{stdout}");
    assert!(
        stdout.contains("-sub x Z = x") && stdout.contains("+sub (S x) Z = S x"),
        "diff body missing:\n{stdout}"
    );
    assert_eq!(
        std::fs::read_to_string(&file).unwrap(),
        src,
        "--dry-run must not write"
    );
    // --dry-run without --fix is a usage error.
    let out = run(&["lint", "--dry-run", file.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn lint_diagnostics_are_byte_identical_across_job_counts() {
    // Diagnostics are flattened and sorted by (file, line, code) before
    // printing, so scheduling across workers cannot reorder them. Pass
    // the files out of name order to exercise the sort.
    let b = lint_file(
        "par_sort_b.hs",
        "data Nat = Z | S Nat\npred :: Nat -> Nat\npred (S x) = x\ngoal p: pred (S Z) === Z\n",
    );
    let a = lint_file(
        "par_sort_a.hs",
        "data Nat = Z | S Nat\nsub :: Nat -> Nat -> Nat\nsub Z y = Z\nsub x Z = x\nsub (S x) (S y) = sub x y\n",
    );
    let args = [b.to_str().unwrap(), a.to_str().unwrap()];
    let strip_summary = |out: std::process::Output| -> String {
        String::from_utf8(out.stdout)
            .unwrap()
            .lines()
            .filter(|l| !l.starts_with("lint:"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let one = strip_summary(run(&["lint", "--jobs", "1", args[0], args[1]]));
    let four = strip_summary(run(&["lint", "--jobs", "4", args[0], args[1]]));
    assert_eq!(one, four, "diagnostics differ across job counts");
    // And the sort puts par_sort_a's findings before par_sort_b's even
    // though the files were passed the other way round.
    let ia = one.find("par_sort_a.hs").expect("a diagnostics present");
    let ib = one.find("par_sort_b.hs").expect("b diagnostics present");
    assert!(ia < ib, "not sorted by file:\n{one}");
}

#[test]
fn lint_reports_non_left_linear_clause_as_cq003_error() {
    let file = lint_file(
        "nonlinear.hs",
        "data Nat = Z | S Nat\neqSame :: Nat -> Nat -> Nat\neqSame x x = x\n",
    );
    let out = run(&["lint", file.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(3));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains(":3: error[CQ003]:"),
        "missing CQ003 at line 3:\n{stdout}"
    );
    assert!(
        stdout.contains("`x`"),
        "repeated variable unnamed:\n{stdout}"
    );
}

#[test]
fn lint_flags_size_change_divergence_as_cq004_before_any_search() {
    let file = lint_file(
        "loop.hs",
        "data Nat = Z | S Nat\nloop :: Nat -> Nat\nloop x = loop x\n",
    );
    let out = run(&["lint", file.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "CQ004 is a warning");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains(":3: warning[CQ004]:"),
        "missing CQ004 at line 3:\n{stdout}"
    );
    assert!(stdout.contains("`loop`"), "{stdout}");
    let out = run(&["lint", "--deny-warnings", file.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn lint_quickstart_is_clean_under_deny_warnings() {
    let file = quickstart();
    let out = run(&["lint", "--deny-warnings", file.to_str().unwrap()]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("lint: files=1 errors=0 warnings=0"),
        "{stdout}"
    );
}

#[test]
fn lint_json_emits_one_object_per_diagnostic_plus_summary() {
    let file = lint_file(
        "json.hs",
        "data Nat = Z | S Nat\nsub :: Nat -> Nat -> Nat\nsub Z y = Z\nsub x Z = x\nsub (S x) (S y) = sub x y\n",
    );
    let out = run(&["lint", "--format", "json", file.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "joinable overlap is a warning");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().filter(|l| !l.trim().is_empty()).collect();
    assert_eq!(lines.len(), 2, "one diagnostic + summary:\n{stdout}");
    for line in &lines {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
    }
    let diag = lines[0];
    assert_eq!(json_value(diag, "type"), Some("diagnostic"));
    assert_eq!(json_value(diag, "code"), Some("CQ002"));
    assert_eq!(json_value(diag, "severity"), Some("warning"));
    assert_eq!(json_value(diag, "line"), Some("3"));
    assert!(json_value(diag, "message").unwrap().contains("overlap"));
    assert!(diag.contains("\"notes\":["), "notes array missing: {diag}");
    // The joinable overlap carries its machine-applicable fix inline.
    assert!(diag.contains("\"fix\":{\"title\":"), "fix missing: {diag}");
    assert!(
        diag.contains(
            "\"edits\":[{\"line\":4,\"kind\":\"replace\",\"text\":\"sub (S x) Z = S x\"}]"
        ),
        "fix edits missing: {diag}"
    );
    let summary = lines[1];
    assert_eq!(json_value(summary, "type"), Some("lint"));
    assert_eq!(json_value(summary, "files"), Some("1"));
    assert_eq!(json_value(summary, "errors"), Some("0"));
    assert_eq!(json_value(summary, "warnings"), Some("1"));
}

#[test]
fn lint_runs_many_files_in_parallel_and_aggregates() {
    let clean = lint_file(
        "clean_par.hs",
        "data Nat = Z | S Nat\nadd :: Nat -> Nat -> Nat\nadd Z y = y\nadd (S x) y = S (add x y)\ngoal zr: add x Z === x\n",
    );
    let partial = lint_file(
        "partial_par.hs",
        "data Nat = Z | S Nat\npred :: Nat -> Nat\npred (S x) = x\ngoal p: pred (S Z) === Z\n",
    );
    let out = run(&[
        "lint",
        "--jobs",
        "2",
        clean.to_str().unwrap(),
        partial.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("lint: files=2 errors=0 warnings=1 | jobs=2"),
        "bad summary:\n{stdout}"
    );
    // Diagnostics name the file they came from.
    assert!(stdout.contains("partial_par.hs:3:"), "{stdout}");
    assert!(!stdout.contains("clean_par.hs:"), "{stdout}");
}

#[test]
fn lint_frontend_failure_is_a_cq008_error() {
    let file = lint_file("bad_syntax.hs", "data Nat = Z |\n");
    let out = run(&["lint", file.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(3));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("error[CQ008]:"), "{stdout}");
}

#[test]
fn lint_without_files_is_a_usage_error() {
    let out = run(&["lint"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn lint_reports_unreadable_file_per_file_and_exits_three() {
    let out = run(&["lint", "/nonexistent/nope.hs"]);
    assert_eq!(
        out.status.code(),
        Some(3),
        "unreadable file = worst verdict"
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn lint_batch_survives_one_unreadable_file_among_good_ones() {
    // One bogus path mixed into a good parallel batch: the readable files
    // are still linted (their diagnostics printed as usual) and only the
    // exit code reflects the failure.
    let partial = lint_file(
        "mixed_partial.hs",
        "data Nat = Z | S Nat\npred :: Nat -> Nat\npred (S x) = x\ngoal p: pred (S Z) === Z\n",
    );
    let clean = lint_file(
        "mixed_clean.hs",
        "data Nat = Z | S Nat\nadd :: Nat -> Nat -> Nat\nadd Z y = y\nadd (S x) y = S (add x y)\ngoal zr: add x Z === x\n",
    );
    let out = run(&[
        "lint",
        "--jobs",
        "2",
        clean.to_str().unwrap(),
        "/nonexistent/nope.hs",
        partial.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(3));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read `/nonexistent/nope.hs`"));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("mixed_partial.hs:3: warning[CQ001]:"),
        "readable files must still lint:\n{stdout}"
    );
    assert!(
        stdout.contains("lint: files=2 errors=0 warnings=1 | jobs=2"),
        "{stdout}"
    );
}

#[test]
fn prove_prints_diagnostics_to_stderr_without_failing() {
    // A goal over a size-change-suspect program still proves; the CQ004
    // warning surfaces on stderr before the verdict.
    let file = lint_file(
        "prove_warn.hs",
        "data Nat = Z | S Nat\nadd :: Nat -> Nat -> Nat\nadd Z y = y\nadd (S x) y = S (add x y)\nloop :: Nat -> Nat\nloop x = loop x\ngoal zr: add x Z === x\n",
    );
    let out = run(&["--no-proof", file.to_str().unwrap(), "zr"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "diagnostics must not affect the verdict; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("warning[CQ004]:") && stderr.contains("`loop`"),
        "no prove-time diagnostic:\n{stderr}"
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("goal zr: Proved"), "{stdout}");
}

#[test]
fn prove_on_clean_programs_prints_no_diagnostics() {
    let file = quickstart();
    let out = run(&["--no-proof", file.to_str().unwrap()]);
    assert!(out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        !stderr.contains("warning[") && !stderr.contains("error["),
        "clean program produced diagnostics:\n{stderr}"
    );
}

#[test]
fn prove_alias_and_trace_out_write_perfetto_loadable_json() {
    // `cycleq prove FILE --trace-out T --metrics-out M` is the documented
    // observability invocation; the trace must be Chrome trace-event JSON
    // with one complete (`ph:"X"`) prove_goal span per goal and per-thread
    // name metadata, and the exact event shape is pinned here.
    let file = quickstart();
    let dir = std::env::temp_dir().join("cycleq-cli-test-trace");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join(format!("t_{}.json", std::process::id()));
    let prom = dir.join(format!("m_{}.prom", std::process::id()));
    let out = run(&[
        "prove",
        file.to_str().unwrap(),
        "--no-proof",
        "--jobs",
        "2",
        "--trace-out",
        trace.to_str().unwrap(),
        "--metrics-out",
        prom.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("batch: proved 3/3"), "{stdout}");
    let text = std::fs::read_to_string(&trace).unwrap();
    assert!(text.starts_with("{\"traceEvents\":["), "{text}");
    assert!(text.trim_end().ends_with("],\"displayTimeUnit\":\"ms\"}"));
    // Complete-event shape, key order pinned.
    assert!(
        text.contains("\"cat\":\"cycleq\",\"ph\":\"X\",\"ts\":"),
        "no complete events: {text}"
    );
    assert_eq!(
        text.matches("\"name\":\"prove_goal\"").count(),
        3,
        "one complete prove_goal span per goal: {text}"
    );
    for phase in ["round", "expand", "normalize", "check"] {
        assert!(
            text.contains(&format!("\"name\":\"{phase}\"")),
            "phase {phase} missing from trace"
        );
    }
    // Per-process and per-thread track metadata for Perfetto.
    assert!(text.contains(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
         \"args\":{\"name\":\"cycleq\"}}"
    ));
    assert!(text.contains("\"name\":\"thread_name\""), "{text}");
    assert!(text.contains("worker-0"), "worker track missing: {text}");
    let metrics = std::fs::read_to_string(&prom).unwrap();
    assert!(metrics.contains("# TYPE cycleq_phase_seconds histogram"));
    std::fs::remove_file(&trace).ok();
    std::fs::remove_file(&prom).ok();
}

#[test]
fn batch_mode_streams_progress_lines_to_stderr() {
    // With `--jobs` and in the default mode alike: every prove run is one
    // batch, so every mode streams one progress line per finished goal.
    let file = quickstart();
    let file = file.to_str().unwrap();
    for args in [
        vec!["--no-proof", "--jobs", "2", file],
        vec!["--no-proof", file],
    ] {
        let out = run(&args);
        assert!(out.status.success(), "{args:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        for goal in ["addZeroRight", "addSuccRight", "addComm"] {
            assert_eq!(
                stderr.matches(&format!("goal {goal}: proved")).count(),
                1,
                "{args:?}: one progress line for {goal} in stderr:\n{stderr}"
            );
        }
        // Completion counter prefixes: [1] [2] [3] in some order-independent way.
        assert!(stderr.contains("[1]") && stderr.contains("[3]"), "{args:?}");
    }
}

/// Runs `cycleq` with one of its output streams a pipe whose read end is
/// closed right after spawn (a reader such as `head` that quit), and the
/// other captured. Every run below does milliseconds of work before its
/// first write to the closed stream, so that write finds the pipe closed.
fn run_with_closed_pipe(args: &[&str], close_stdout: bool) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_cycleq"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    if close_stdout {
        drop(child.stdout.take());
    } else {
        drop(child.stderr.take());
    }
    child.wait_with_output().expect("child exits")
}

#[test]
fn closed_stdout_exits_141_without_a_panic() {
    let file = quickstart();
    let file = file.to_str().unwrap();
    let dir = cert_dir("closed-stdout");
    let out = run(&["--no-proof", "--emit-certs", dir.to_str().unwrap(), file]);
    assert!(out.status.success());
    let certs: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path().to_str().unwrap().to_string())
        .collect();
    assert_eq!(certs.len(), 3);
    // Ten copies of each certificate and twenty of the program keep each
    // run busy before it prints its first line.
    let mut check = vec!["check"];
    let mut lint = vec!["lint"];
    for _ in 0..10 {
        check.extend(certs.iter().map(String::as_str));
    }
    for _ in 0..20 {
        lint.push(file);
    }
    for args in [check, lint, vec![file], vec!["--no-proof", file]] {
        let out = run_with_closed_pipe(&args, true);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(141), "{:?}: {stderr}", args[0]);
        assert!(!stderr.contains("panicked"), "{:?}: {stderr}", args[0]);
    }
}

#[test]
fn closed_stderr_changes_no_verdict() {
    let file = quickstart();
    let out = run_with_closed_pipe(&["--no-proof", file.to_str().unwrap()], false);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert_eq!(
        stdout.lines().collect::<Vec<_>>(),
        [
            "goal addZeroRight: Proved",
            "goal addSuccRight: Proved",
            "goal addComm: Proved"
        ]
    );
}
