//! Full benchmark-suite runner: prints the per-problem table, the §6.1
//! summary statistics, and (with `--csv`) machine-readable output.
//!
//! Usage:
//!
//! ```text
//! suite [--category isaplanner|mutual|figure] [--quick] [--jobs N]
//!       [--hints] [--csv] [--profile] [--timeout-ms N] [--emit-certs DIR]
//!       [--emit-sources DIR]
//! ```
//!
//! `--jobs N` fans problems out across N worker threads (0 = one per
//! hardware thread); output order stays declaration order. `--quick`
//! restricts the run to the fast figure + mutual-induction problems — the
//! combination `--quick --jobs 2` is the CI smoke test for the parallel
//! scheduler. `--emit-certs DIR` writes a `<id>.cqc` certificate for every
//! proved problem, producing the corpus that `cycleq check` re-validates in
//! CI. `--emit-sources DIR` skips the run entirely and instead dumps every
//! selected problem's module source as `<id>.hs` — the corpus that
//! `cycleq lint` sweeps in CI. `--profile` appends a per-problem
//! phase-time table (prove_goal / round / expand / normalize /
//! closure_update / undo / check), each row that problem's own spans at
//! any `--jobs`. Exits non-zero when any problem is refuted or errors (a
//! mis-encoded property), so CI catches those too.

use std::time::Duration;

use cycleq::SearchConfig;
use cycleq_benchsuite::{
    all_problems, csv, profile_table, run_suite, summarize, text_table, Category, RunConfig,
    RunStatus,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut category: Option<Category> = None;
    let mut with_hints = false;
    let mut as_csv = false;
    let mut quick = false;
    let mut profile = false;
    let mut jobs: usize = 1;
    let mut timeout_ms: u64 = 2000;
    let mut emit_certs: Option<std::path::PathBuf> = None;
    let mut emit_sources: Option<std::path::PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--category" => {
                i += 1;
                category = match args.get(i).map(String::as_str) {
                    Some("isaplanner") => Some(Category::IsaPlanner),
                    Some("mutual") => Some(Category::Mutual),
                    Some("figure") => Some(Category::Figure),
                    other => {
                        eprintln!("unknown category {other:?}");
                        std::process::exit(2);
                    }
                };
            }
            "--hints" => with_hints = true,
            "--csv" => as_csv = true,
            "--quick" => quick = true,
            "--profile" => profile = true,
            "--jobs" => {
                i += 1;
                jobs = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--jobs needs a number");
                    std::process::exit(2);
                });
            }
            "--timeout-ms" => {
                i += 1;
                timeout_ms = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--timeout-ms needs a number");
                    std::process::exit(2);
                });
            }
            "--emit-certs" => {
                i += 1;
                emit_certs = args.get(i).map(std::path::PathBuf::from).or_else(|| {
                    eprintln!("--emit-certs needs a directory");
                    std::process::exit(2);
                });
            }
            "--emit-sources" => {
                i += 1;
                emit_sources = args.get(i).map(std::path::PathBuf::from).or_else(|| {
                    eprintln!("--emit-sources needs a directory");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let problems: Vec<_> = all_problems()
        .into_iter()
        .filter(|p| category.is_none_or(|c| p.category == c))
        .filter(|p| !quick || p.category != Category::IsaPlanner)
        .collect();
    if let Some(dir) = &emit_sources {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create source directory {}: {e}", dir.display());
            std::process::exit(2);
        }
        let mut written = 0usize;
        for p in &problems {
            let Some(src) = p.source() else { continue };
            let path = dir.join(format!("{}.hs", p.id));
            if let Err(e) = std::fs::write(&path, src) {
                eprintln!("cannot write {}: {e}", path.display());
                std::process::exit(2);
            }
            written += 1;
        }
        println!("emitted {written} problem sources to {}", dir.display());
        return;
    }
    let config = RunConfig {
        search: SearchConfig {
            timeout: Some(Duration::from_millis(timeout_ms)),
            ..SearchConfig::default()
        },
        with_hints,
        recheck: true,
        jobs,
        emit_certs: emit_certs.clone(),
        profile,
    };
    if let Some(dir) = &emit_certs {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create certificate directory {}: {e}", dir.display());
            std::process::exit(2);
        }
    }
    let outcomes = run_suite(&problems, &config);
    if as_csv {
        print!("{}", csv(&outcomes));
    } else {
        print!("{}", text_table(&outcomes));
        let s = summarize(&outcomes);
        println!();
        println!(
            "attempted {} | proved {} | out-of-scope {} | <100ms {} | mean {:.2}ms | max {:.2}ms | jobs {}",
            s.attempted,
            s.proved,
            s.out_of_scope,
            s.proved_under_100ms,
            s.mean_proved_ms,
            s.max_proved_ms,
            config.jobs,
        );
        if profile {
            println!();
            print!("{}", profile_table(&outcomes));
        }
    }
    let broken = outcomes
        .iter()
        .any(|o| matches!(o.status, RunStatus::Refuted | RunStatus::Error(_)));
    if broken {
        eprintln!("error: a problem was refuted or failed to load — mis-encoded property?");
        std::process::exit(1);
    }
}
