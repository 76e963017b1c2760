//! Machine-applicable fixes: synthesis, application, and the fixed-point
//! re-lint driver behind `cycleq lint --fix`.
//!
//! Three diagnostics currently carry fixes:
//!
//! - **`CQ002` (joinable overlap)** — completion into an orthogonal
//!   system: the more general clause is split over the constructors of the
//!   overlapping variable's datatype, and split cases already subsumed by
//!   the other clause (same matching, convergent right-hand sides) are
//!   dropped. This is semantics-preserving exactly because the critical
//!   pairs converge: on the overlap the two clauses already agreed, and
//!   everywhere else the split clauses behave like the original. The
//!   paper's fig. 2 `sub x Z = x` becomes `sub (S x) Z = S x` (the
//!   `sub Z Z = Z` case is subsumed by `sub Z y = Z`).
//! - **`CQ001` (partial function)** — a missing clause is inserted for the
//!   coverage witness when a right-hand side is derivable (all existing
//!   clauses return the same ground constructor term); otherwise a
//!   commented stub marks the spot for the author.
//! - **`CQ005` (unreachable equations)** — the declaration and all its
//!   clauses are deleted. Verdict-preserving by construction: reachability
//!   is transitive from the goals, so a deleted rule can never fire in any
//!   goal's proof search.
//!
//! [`apply_fixes`] applies a batch of fixes in one bottom-up pass over the
//! original line numbering, skipping fixes that touch a line an earlier
//! fix already claimed; [`analyze_with_fixes`] iterates
//! analyze → apply until no applicable fix remains (a fixed point, pinned
//! by the idempotence tests and the CI autofix step).

use std::collections::BTreeSet;

use cycleq_lang::{parse_module, print_clause, Module};
use cycleq_rewrite::{check_program, MemoRewriter, Rule, RuleId, Trs, WitnessPat};
use cycleq_term::{match_term, unify, Signature, Subst, SymKind, Term, VarId};

use crate::critical_pairs::overlap_verdicts;
use crate::deadcode::reachable_defined;
use crate::diagnostic::{Code, Diagnostic, Edit, EditKind, Fix};
use crate::{analyze, first_rule_line, lang_error_diagnostic};

/// Fuel for the small normalizations fix synthesis performs (subsumption
/// checks on instantiated right-hand sides).
const FIX_FUEL: usize = 10_000;

/// How many analyze → apply rounds [`analyze_with_fixes`] runs before
/// giving up. Each round must apply at least one fix, so this only bounds
/// pathological repair chains, not honest convergence.
const MAX_ROUNDS: usize = 10;

/// Runs the frontend and the analyzer on raw source, attaching fixes.
///
/// Frontend failures come back as a single `CQ003`/`CQ008` diagnostic, so
/// callers get the same structured output for files that do not lower.
pub fn analyze_source(source: &str) -> Vec<Diagnostic> {
    match parse_module(source) {
        Ok(module) => {
            let mut diags = analyze(&module);
            attach_fixes(&module, source, &mut diags);
            diags
        }
        Err(err) => vec![lang_error_diagnostic(&err)],
    }
}

/// The result of [`analyze_with_fixes`].
#[derive(Clone, Debug)]
pub struct FixOutcome {
    /// The repaired source (equal to the input when nothing applied).
    pub source: String,
    /// How many fixes were applied across all rounds.
    pub applied: usize,
    /// How many analyze → apply rounds ran.
    pub iterations: usize,
    /// The diagnostics remaining against the repaired source.
    pub diagnostics: Vec<Diagnostic>,
}

/// Repeatedly analyzes `source` and applies every attached fix until no
/// applicable fix remains (or `MAX_ROUNDS` is hit). Returns the repaired
/// source together with the diagnostics that survive it.
pub fn analyze_with_fixes(source: &str) -> FixOutcome {
    let mut src = source.to_string();
    let mut applied = 0;
    let mut iterations = 0;
    loop {
        let diags = analyze_source(&src);
        let fixes: Vec<Fix> = diags.iter().filter_map(|d| d.fix.clone()).collect();
        if fixes.is_empty() || iterations >= MAX_ROUNDS {
            return FixOutcome {
                source: src,
                applied,
                iterations,
                diagnostics: diags,
            };
        }
        let (next, n) = apply_fixes(&src, &fixes);
        if n == 0 {
            return FixOutcome {
                source: src,
                applied,
                iterations,
                diagnostics: diags,
            };
        }
        src = next;
        applied += n;
        iterations += 1;
    }
}

/// Applies a batch of fixes to `source` in one pass, returning the new
/// source and how many fixes were applied.
///
/// All edits refer to the *original* line numbering; they are applied
/// bottom-up so earlier edits never shift later targets. A fix whose edits
/// touch a line already claimed by an earlier fix in the batch (or fall
/// outside the file) is skipped whole — it gets another chance on the next
/// [`analyze_with_fixes`] round, against fresh line numbers.
pub fn apply_fixes(source: &str, fixes: &[Fix]) -> (String, usize) {
    let mut lines: Vec<String> = source.lines().map(String::from).collect();
    let total = lines.len() as u32;
    let mut claimed: BTreeSet<u32> = BTreeSet::new();
    let mut edits: Vec<&Edit> = Vec::new();
    let mut applied = 0;
    for fix in fixes {
        let mut fix_lines: BTreeSet<u32> = BTreeSet::new();
        let ok = fix.edits.iter().all(|e| {
            let in_range = match e.kind {
                EditKind::Insert => e.line >= 1 && e.line <= total + 1,
                EditKind::Replace | EditKind::Delete => e.line >= 1 && e.line <= total,
            };
            in_range && !claimed.contains(&e.line) && fix_lines.insert(e.line)
        });
        if !ok {
            continue;
        }
        claimed.extend(fix_lines);
        edits.extend(fix.edits.iter());
        applied += 1;
    }
    edits.sort_by_key(|e| std::cmp::Reverse(e.line));
    for e in edits {
        let i = (e.line - 1) as usize;
        match e.kind {
            EditKind::Delete => {
                lines.remove(i);
            }
            EditKind::Replace => {
                lines.splice(i..=i, e.text.lines().map(String::from));
            }
            EditKind::Insert => {
                lines.splice(i..i, e.text.lines().map(String::from));
            }
        }
    }
    let mut out = lines.join("\n");
    if !out.is_empty() {
        out.push('\n');
    }
    (out, applied)
}

/// Synthesizes fixes for the module and attaches them to the matching
/// diagnostics in `diags`. `source` must be the text the module was
/// parsed from — fixes carry line edits against it.
pub fn attach_fixes(module: &Module, source: &str, diags: &mut [Diagnostic]) {
    overlap_fixes(module, diags);
    coverage_fixes(module, source, diags);
    deadcode_fixes(module, diags);
}

/// Attaches `fix` to the first fix-less diagnostic matching code, line and
/// message substring.
fn attach(diags: &mut [Diagnostic], code: Code, line: Option<u32>, needle: &str, fix: Fix) {
    if let Some(d) = diags
        .iter_mut()
        .find(|d| d.code == code && d.line == line && d.fix.is_none() && d.message.contains(needle))
    {
        d.fix = Some(fix);
    }
}

// ---------------------------------------------------------------------------
// CQ002: complete joinable overlaps into orthogonal systems.
// ---------------------------------------------------------------------------

fn overlap_fixes(module: &Module, diags: &mut [Diagnostic]) {
    for v in overlap_verdicts(module) {
        if !v.joinable {
            continue;
        }
        let (Some(la), Some(lb)) = (module.rule_line(v.a), module.rule_line(v.b)) else {
            continue;
        };
        // Prefer splitting the later clause (it usually is the catch-all,
        // as in fig. 2's `sub x Z = x`); fall back to the earlier one.
        let fix = if let Some(var) = first_bound_var(module, v.b, v.a) {
            split_fix(module, v.b, v.a, var, lb)
        } else if let Some(var) = first_bound_var(module, v.a, v.b) {
            split_fix(module, v.a, v.b, var, la)
        } else {
            // Neither side is more specific anywhere: the left-hand sides
            // are variants, and joinability says the results agree — the
            // later clause is redundant.
            Some(Fix {
                title: format!("delete the duplicate clause at line {lb}"),
                edits: vec![Edit {
                    line: lb,
                    kind: EditKind::Delete,
                    text: String::new(),
                }],
            })
        };
        let Some(fix) = fix else { continue };
        let needle = format!("lines {la} and {lb}");
        attach(diags, Code::Overlap, Some(la.min(lb)), &needle, fix);
    }
}

/// The first variable of `general`'s left-hand side that the mgu with
/// `other` binds to a constructor-headed term — i.e. a position where
/// `other` is strictly more specific, so splitting `general` there makes
/// progress towards orthogonality.
fn first_bound_var(module: &Module, general: RuleId, other: RuleId) -> Option<VarId> {
    let sig = &module.program.sig;
    let trs = &module.program.trs;
    if trs.rule(general).head() != trs.rule(other).head() {
        return None; // only root overlaps are completed
    }
    let mut scratch = trs.vars().clone();
    let (po, _) = trs.freshen_rule(other, &mut scratch);
    let lhs_g = trs.rule(general).lhs_term();
    let lhs_o = Term::apps(trs.rule(other).head(), po);
    let theta = unify(&lhs_g, &lhs_o).ok()?;
    trs.rule(general)
        .lhs_vars()
        .iter()
        .find(|v| theta.get(**v).is_some_and(|t| t.is_constructor_headed(sig)))
        .copied()
}

/// Splits `general`'s clause over the constructors of `split_var`'s
/// datatype, dropping split cases subsumed by `other` (matching left-hand
/// side and convergent right-hand sides).
fn split_fix(
    module: &Module,
    general: RuleId,
    other: RuleId,
    split_var: VarId,
    line_general: u32,
) -> Option<Fix> {
    let sig = &module.program.sig;
    let trs = &module.program.trs;
    let g = trs.rule(general);
    let name = sig.sym(g.head()).name();
    let (data, ty_args) = {
        let (d, a) = trs.vars().ty(split_var).as_data()?;
        (d, a.to_vec())
    };
    let base = trs.vars().name(split_var).to_string();
    let taken: BTreeSet<String> = g
        .lhs_vars()
        .iter()
        .filter(|v| **v != split_var)
        .map(|v| trs.vars().name(*v).to_string())
        .collect();
    let mut vars = trs.vars().clone();
    let mut rewriter = MemoRewriter::new(sig, trs).with_fuel(FIX_FUEL);
    let mut kept: Vec<String> = Vec::new();
    for &k in sig.constructors_of(data) {
        let inst = sig.sym(k).scheme().instantiate_with(&ty_args).ok()?;
        let (arg_tys, _) = inst.uncurry();
        let mut used = taken.clone();
        let args: Vec<Term> = arg_tys
            .iter()
            .enumerate()
            .map(|(i, t)| {
                // The split variable itself disappears, so a single
                // constructor argument can reuse its name.
                let mut n = if arg_tys.len() == 1 {
                    base.clone()
                } else {
                    format!("{base}{}", i + 1)
                };
                while used.contains(&n) {
                    n.push('\'');
                }
                used.insert(n.clone());
                Term::var(vars.fresh(&n, (*t).clone()))
            })
            .collect();
        let sigma = Subst::singleton(split_var, Term::apps(k, args));
        let new_params: Vec<Term> = g.params().iter().map(|p| sigma.apply(p)).collect();
        let new_rhs = sigma.apply(g.rhs());
        if subsumed(&mut rewriter, trs.rule(other), &new_params, &new_rhs) {
            continue;
        }
        kept.push(print_clause(sig, &vars, name, &new_params, &new_rhs));
    }
    let edits = if kept.is_empty() {
        vec![Edit {
            line: line_general,
            kind: EditKind::Delete,
            text: String::new(),
        }]
    } else {
        vec![Edit {
            line: line_general,
            kind: EditKind::Replace,
            text: kept.join("\n"),
        }]
    };
    Some(Fix {
        title: format!(
            "split the clause at line {line_general} over the constructors of `{}`",
            sig.data(data).name()
        ),
        edits,
    })
}

/// Whether the split clause `new_params = new_rhs` is already covered by
/// `other`: `other`'s left-hand side matches it and the two right-hand
/// sides normalize to the same term. Justified by joinability — on shared
/// instances the clauses agree, so dropping the duplicate cannot change
/// any result.
fn subsumed(
    rewriter: &mut MemoRewriter<'_>,
    other: &Rule,
    new_params: &[Term],
    new_rhs: &Term,
) -> bool {
    if other.params().len() != new_params.len() {
        return false;
    }
    let subject = Term::apps(other.head(), new_params.to_vec());
    let Some(sigma) = match_term(&other.lhs_term(), &subject) else {
        return false;
    };
    let theirs = rewriter.normalize(&sigma.apply(other.rhs()));
    let ours = rewriter.normalize(new_rhs);
    theirs.in_normal_form && ours.in_normal_form && theirs.term == ours.term
}

// ---------------------------------------------------------------------------
// CQ001: insert missing clauses (or stubs) for coverage witnesses.
// ---------------------------------------------------------------------------

fn coverage_fixes(module: &Module, source: &str, diags: &mut [Diagnostic]) {
    let sig = &module.program.sig;
    let trs = &module.program.trs;
    for (sym, witness) in check_program(sig, trs) {
        let name = sig.sym(sym).name();
        let Some(insert_at) = insertion_line(module, sym, name) else {
            continue;
        };
        let mut counter = 0usize;
        let pats: Vec<String> = witness
            .iter()
            .map(|w| render_witness(sig, w, &mut counter))
            .collect();
        let head = format!("{name} {}", pats.join(" "));
        let (title, text) = match common_ground_rhs(sig, trs, sym) {
            Some(rhs) => (
                format!(
                    "insert the missing clause `{head} = {}`",
                    rhs.display(sig, trs.vars())
                ),
                format!("{head} = {}", rhs.display(sig, trs.vars())),
            ),
            None => {
                let stub = format!("-- cycleq: missing case: {head} = ...");
                if source.lines().any(|l| l.trim() == stub) {
                    continue; // already stubbed; do not re-insert forever
                }
                (format!("insert a stub for the missing case `{head}`"), stub)
            }
        };
        let line = first_rule_line(module, sym).or_else(|| module.decl_line(name));
        attach(
            diags,
            Code::NonExhaustive,
            line,
            &format!("`{name}` is partial"),
            Fix {
                title,
                edits: vec![Edit {
                    line: insert_at,
                    kind: EditKind::Insert,
                    text,
                }],
            },
        );
    }
}

/// The line to insert a new clause at: just after the function's last
/// clause, or after its signature if it has none.
fn insertion_line(module: &Module, sym: cycleq_term::SymId, name: &str) -> Option<u32> {
    let trs = &module.program.trs;
    let last_rule = trs
        .rules_for(sym)
        .iter()
        .filter_map(|id| module.rule_line(*id))
        .max();
    last_rule.or_else(|| module.decl_line(name)).map(|l| l + 1)
}

/// When every clause of `sym` returns the same ground constructor term,
/// that term: the one right-hand side a completion can justify (the new
/// clause trivially joins with every existing one).
fn common_ground_rhs(sig: &Signature, trs: &Trs, sym: cycleq_term::SymId) -> Option<Term> {
    let mut rules = trs.rules_for(sym).iter();
    let first = trs.rule(*rules.next()?).rhs().clone();
    if !first.is_ground() || first.contains_defined(sig) {
        return None;
    }
    rules
        .all(|id| *trs.rule(*id).rhs() == first)
        .then_some(first)
}

/// Renders a coverage witness as a parseable pattern, naming wildcard
/// positions `x1`, `x2`, … (fresh per clause, skipping names that would
/// shadow a declared symbol).
fn render_witness(sig: &Signature, w: &WitnessPat, counter: &mut usize) -> String {
    match w {
        WitnessPat::Any => loop {
            *counter += 1;
            let n = format!("x{counter}");
            if sig.sym_by_name(&n).is_none() {
                return n;
            }
        },
        WitnessPat::Con(s, args) => {
            if args.is_empty() {
                sig.sym(*s).name().to_string()
            } else {
                let inner: Vec<String> = args
                    .iter()
                    .map(|a| render_witness(sig, a, counter))
                    .collect();
                format!("({} {})", sig.sym(*s).name(), inner.join(" "))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// CQ005: delete unreachable equations.
// ---------------------------------------------------------------------------

fn deadcode_fixes(module: &Module, diags: &mut [Diagnostic]) {
    if module.goals.is_empty() {
        return;
    }
    let sig = &module.program.sig;
    let trs = &module.program.trs;
    let reach = reachable_defined(module);
    for (sym, decl) in sig.syms() {
        if decl.kind() != SymKind::Defined || reach.contains(&sym) {
            continue;
        }
        let rules = trs.rules_for(sym);
        if rules.is_empty() {
            continue;
        }
        let mut lines: BTreeSet<u32> = BTreeSet::new();
        let Some(decl_line) = module.decl_line(decl.name()) else {
            continue;
        };
        lines.insert(decl_line);
        let mut complete = true;
        for id in rules {
            match module.rule_line(*id) {
                Some(l) => {
                    lines.insert(l);
                }
                None => complete = false,
            }
        }
        if !complete {
            continue;
        }
        let edits: Vec<Edit> = lines
            .into_iter()
            .map(|line| Edit {
                line,
                kind: EditKind::Delete,
                text: String::new(),
            })
            .collect();
        attach(
            diags,
            Code::Unreachable,
            first_rule_line(module, sym).or_else(|| module.decl_line(decl.name())),
            &format!("`{}`", decl.name()),
            Fix {
                title: format!(
                    "delete `{}` and its {} unreachable equation{}",
                    decl.name(),
                    rules.len(),
                    if rules.len() == 1 { "" } else { "s" }
                ),
                edits,
            },
        );
    }
}

// ---------------------------------------------------------------------------
// Unified diffs for `--fix --dry-run`.
// ---------------------------------------------------------------------------

/// Renders a unified diff (3 context lines) between two sources, with
/// `a/path` / `b/path` headers. Empty when the sources are equal.
pub fn unified_diff(old: &str, new: &str, path: &str) -> String {
    if old == new {
        return String::new();
    }
    let a: Vec<&str> = old.lines().collect();
    let b: Vec<&str> = new.lines().collect();
    // Line-level LCS (files are small; quadratic is fine).
    let mut lcs = vec![vec![0usize; b.len() + 1]; a.len() + 1];
    for i in (0..a.len()).rev() {
        for j in (0..b.len()).rev() {
            lcs[i][j] = if a[i] == b[j] {
                lcs[i + 1][j + 1] + 1
            } else {
                lcs[i + 1][j].max(lcs[i][j + 1])
            };
        }
    }
    // Walk the table into an edit script: (tag, a_index, b_index).
    #[derive(PartialEq)]
    enum Op {
        Keep,
        Del,
        Add,
    }
    let mut script: Vec<(Op, usize, usize)> = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] == b[j] {
            script.push((Op::Keep, i, j));
            i += 1;
            j += 1;
        } else if lcs[i + 1][j] >= lcs[i][j + 1] {
            script.push((Op::Del, i, j));
            i += 1;
        } else {
            script.push((Op::Add, i, j));
            j += 1;
        }
    }
    while i < a.len() {
        script.push((Op::Del, i, j));
        i += 1;
    }
    while j < b.len() {
        script.push((Op::Add, i, j));
        j += 1;
    }
    // Group changes into hunks with up to 3 lines of context.
    const CTX: usize = 3;
    let mut out = format!("--- a/{path}\n+++ b/{path}\n");
    let changed: Vec<usize> = script
        .iter()
        .enumerate()
        .filter(|(_, (op, _, _))| *op != Op::Keep)
        .map(|(k, _)| k)
        .collect();
    let mut k = 0;
    while k < changed.len() {
        let start = changed[k].saturating_sub(CTX);
        let mut end = changed[k] + CTX;
        let mut last = k;
        while last + 1 < changed.len() && changed[last + 1] <= end + CTX {
            last += 1;
            end = changed[last] + CTX;
        }
        let end = end.min(script.len() - 1);
        let (a_start, b_start) = (script[start].1, script[start].2);
        let mut body = String::new();
        let mut a_count = 0;
        let mut b_count = 0;
        for (op, ai, bi) in &script[start..=end] {
            match op {
                Op::Keep => {
                    body.push(' ');
                    body.push_str(a[*ai]);
                    a_count += 1;
                    b_count += 1;
                }
                Op::Del => {
                    body.push('-');
                    body.push_str(a[*ai]);
                    a_count += 1;
                }
                Op::Add => {
                    body.push('+');
                    body.push_str(b[*bi]);
                    b_count += 1;
                }
            }
            body.push('\n');
        }
        out.push_str(&format!(
            "@@ -{},{a_count} +{},{b_count} @@\n{body}",
            a_start + 1,
            b_start + 1
        ));
        k = last + 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostic::Severity;

    const FIG2: &str = "data Nat = Z | S Nat\n\
sub :: Nat -> Nat -> Nat\n\
sub Z y = Z\n\
sub x Z = x\n\
sub (S x) (S y) = sub x y\n\
goal g1: sub x x === Z\n";

    #[test]
    fn fig2_overlap_is_repaired_into_the_orthogonal_split() {
        let out = analyze_with_fixes(FIG2);
        assert!(out.applied >= 1, "{out:?}");
        assert!(
            out.source.contains("sub (S x) Z = S x"),
            "the catch-all must be narrowed to the S case:\n{}",
            out.source
        );
        assert!(
            !out.source.contains("sub x Z = x"),
            "the overlapping catch-all must be gone:\n{}",
            out.source
        );
        assert!(
            out.diagnostics.is_empty(),
            "the repaired program re-lints clean: {:?}",
            out.diagnostics
        );
    }

    #[test]
    fn fig2_fix_is_attached_to_the_cq002_diagnostic() {
        let diags = analyze_source(FIG2);
        let d = diags
            .iter()
            .find(|d| d.code == Code::Overlap)
            .expect("fig.2 has a joinable overlap");
        assert_eq!(d.severity, Severity::Warning);
        let fix = d.fix.as_ref().expect("joinable overlap carries a fix");
        assert!(fix.title.contains("split"), "{}", fix.title);
        assert_eq!(fix.edits.len(), 1);
        assert_eq!(fix.edits[0].line, 4);
        assert_eq!(fix.edits[0].kind, EditKind::Replace);
        assert_eq!(fix.edits[0].text, "sub (S x) Z = S x");
    }

    #[test]
    fn variant_clauses_delete_the_later_copy() {
        let src = "data Nat = Z | S Nat\nf :: Nat -> Nat\nf x = S x\nf y = S y\n";
        let out = analyze_with_fixes(src);
        assert_eq!(out.applied, 1, "{out:?}");
        assert!(out.source.contains("f x = S x"), "{}", out.source);
        assert!(!out.source.contains("f y = S y"), "{}", out.source);
        assert!(
            out.diagnostics.iter().all(|d| !d.is_error()),
            "{:?}",
            out.diagnostics
        );
    }

    #[test]
    fn non_joinable_overlap_gets_no_fix() {
        let src = "data Nat = Z | S Nat\nf :: Nat -> Nat\nf x = Z\nf Z = S Z\n";
        let diags = analyze_source(src);
        let d = diags
            .iter()
            .find(|d| d.code == Code::NonJoinable)
            .expect("diverging reducts are CQ009");
        assert!(d.fix.is_none(), "no sound completion exists: {d:?}");
    }

    #[test]
    fn partial_function_with_common_ground_rhs_gets_the_missing_clause() {
        let src = "data Nat = Z | S Nat\nisz :: Nat -> Nat\nisz Z = Z\n";
        let out = analyze_with_fixes(src);
        assert!(
            out.source.contains("isz (S x1) = Z"),
            "derivable right-hand side is inserted:\n{}",
            out.source
        );
        assert!(
            out.diagnostics
                .iter()
                .all(|d| d.code != Code::NonExhaustive),
            "{:?}",
            out.diagnostics
        );
    }

    #[test]
    fn partial_function_without_derivable_rhs_gets_a_stub_once() {
        let src = "data Nat = Z | S Nat\npred :: Nat -> Nat\npred (S x) = x\n";
        let out = analyze_with_fixes(src);
        let stub = "-- cycleq: missing case: pred Z = ...";
        assert_eq!(
            out.source.matches(stub).count(),
            1,
            "exactly one stub, never re-inserted:\n{}",
            out.source
        );
        assert!(
            out.diagnostics
                .iter()
                .any(|d| d.code == Code::NonExhaustive),
            "a stub does not silence CQ001: {:?}",
            out.diagnostics
        );
        // A second pass over the repaired source is a no-op.
        let again = analyze_with_fixes(&out.source);
        assert_eq!(again.applied, 0);
        assert_eq!(again.source, out.source);
    }

    #[test]
    fn unreachable_function_is_deleted_with_its_signature() {
        let src = "data Nat = Z | S Nat\n\
add :: Nat -> Nat -> Nat\n\
add Z y = y\n\
add (S x) y = S (add x y)\n\
mul :: Nat -> Nat -> Nat\n\
mul Z y = Z\n\
mul (S x) y = add y (mul x y)\n\
goal zr: add x Z === x\n";
        let out = analyze_with_fixes(src);
        assert!(out.applied >= 1, "{out:?}");
        assert!(!out.source.contains("mul"), "{}", out.source);
        assert!(out.source.contains("goal zr"), "{}", out.source);
        assert!(out.diagnostics.is_empty(), "{:?}", out.diagnostics);
    }

    #[test]
    fn apply_fixes_skips_conflicts_and_applies_bottom_up() {
        let src = "a\nb\nc\n";
        let fixes = vec![
            Fix {
                title: "replace b".into(),
                edits: vec![Edit {
                    line: 2,
                    kind: EditKind::Replace,
                    text: "B1\nB2".into(),
                }],
            },
            Fix {
                title: "conflicting delete of b".into(),
                edits: vec![Edit {
                    line: 2,
                    kind: EditKind::Delete,
                    text: String::new(),
                }],
            },
            Fix {
                title: "insert at top".into(),
                edits: vec![Edit {
                    line: 1,
                    kind: EditKind::Insert,
                    text: "top".into(),
                }],
            },
        ];
        let (out, applied) = apply_fixes(src, &fixes);
        assert_eq!(applied, 2, "the overlapping second fix is skipped");
        assert_eq!(out, "top\na\nB1\nB2\nc\n");
    }

    #[test]
    fn apply_fixes_insert_past_the_end_appends() {
        let (out, applied) = apply_fixes(
            "a\n",
            &[Fix {
                title: "append".into(),
                edits: vec![Edit {
                    line: 2,
                    kind: EditKind::Insert,
                    text: "b".into(),
                }],
            }],
        );
        assert_eq!(applied, 1);
        assert_eq!(out, "a\nb\n");
    }

    #[test]
    fn unified_diff_marks_changed_lines_with_context() {
        let old = "a\nb\nc\n";
        let new = "a\nx\nc\n";
        let d = unified_diff(old, new, "t.hs");
        assert!(d.starts_with("--- a/t.hs\n+++ b/t.hs\n"), "{d}");
        assert!(d.contains("\n-b\n"), "{d}");
        assert!(d.contains("\n+x\n"), "{d}");
        assert!(d.contains("\n a\n"), "{d}");
        assert_eq!(
            unified_diff(old, old, "t.hs"),
            "",
            "equal sources diff empty"
        );
    }
}
