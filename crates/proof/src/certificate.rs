//! Self-contained proof certificates.
//!
//! A certificate packages everything needed to re-validate a proof offline:
//! a versioned header with a fingerprint of the program source, the program
//! source itself, the proof's variables (names and types), and every node
//! (equation, rule instance, premises). `cycleq check` parses certificate
//! files and re-runs the independent checker ([`crate::check`]) against a
//! program re-elaborated from the embedded source — nothing from the
//! proving session is trusted. The size-change graphs of the global
//! condition (Definition 5.3) are not serialized: the checker derives them
//! from the proof.
//!
//! The format is line-oriented text, versioned by the first line. Terms are
//! serialized as self-delimiting prefix tokens (`v<idx>/<argc>` for a
//! variable head, `s<idx>/<argc>` for a symbol head, followed by exactly
//! `argc` subterm encodings), so no lengths or brackets are needed. Types
//! reuse [`cycleq_term::Type::encode`]'s flat `u32` words. The embedded
//! program and goal name are escaped onto one line each (`\\`, `\n`, and in
//! space-delimited positions `\s`). Counts read from the text never size
//! an allocation up front: vectors grow as their tokens arrive, so a forged
//! count ends in [`CertificateError::Truncated`] or
//! [`CertificateError::Malformed`], not in an allocation failure. Terms and
//! types nested deeper than [`MAX_NESTING`] levels are
//! [`CertificateError::Malformed`] too, not a stack overflow.
//!
//! Tampering is caught at distinct layers with distinct errors: a bumped
//! version is [`CertificateError::UnsupportedVersion`], missing trailing
//! lines are [`CertificateError::Truncated`], an edited program no longer
//! matches the header fingerprint ([`CertificateError::FingerprintMismatch`]),
//! a damaged proof fails the checker itself ([`CertificateError::Check`]),
//! and a goal line naming a goal the embedded program does not declare, or
//! one that no node of the proof states, is
//! [`CertificateError::GoalMismatch`] ([`Certificate::check_goal`]; the
//! fingerprint covers the program, not the goal line).

use std::error::Error;
use std::fmt;
use std::str::FromStr;

use cycleq_rewrite::Program;
use cycleq_term::{
    DataId, Equation, Head, Position, Subst, SymId, Term, TyVarId, Type, VarId, VarStore,
    MAX_NESTING,
};

use crate::checker::{check, CheckError, CheckReport, GlobalCheck};
use crate::node::{CaseBranch, NodeId, RuleApp, Side, SubstApp};
use crate::preproof::Preproof;

/// The only format version this build reads and writes.
const VERSION_LINE: &str = "cycleq-certificate v2";

/// Why a certificate was rejected before (or during) checking.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CertificateError {
    /// The version line names a format this build does not understand.
    UnsupportedVersion(String),
    /// The input ended before the terminal `end` line.
    Truncated,
    /// The embedded program does not hash to the header fingerprint.
    FingerprintMismatch { expected: u64, got: u64 },
    /// A structural parse failure (bad token, index out of range, …).
    Malformed(String),
    /// The proof itself failed the independent checker.
    Check(CheckError),
    /// The certificate does not prove the goal it names: the embedded
    /// program declares no goal of that name (`declared` is false), or no
    /// node of the proof states the declared goal's equation over its
    /// variables.
    GoalMismatch { goal: String, declared: bool },
}

impl fmt::Display for CertificateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertificateError::UnsupportedVersion(v) => {
                write!(f, "unsupported certificate version: {v:?}")
            }
            CertificateError::Truncated => write!(f, "certificate is truncated"),
            CertificateError::FingerprintMismatch { expected, got } => write!(
                f,
                "program fingerprint mismatch: header says {expected:016x}, source hashes to {got:016x}"
            ),
            CertificateError::Malformed(why) => write!(f, "malformed certificate: {why}"),
            CertificateError::Check(e) => write!(f, "proof check failed: {e}"),
            CertificateError::GoalMismatch {
                goal,
                declared: false,
            } => write!(f, "the embedded program declares no goal `{goal}`"),
            CertificateError::GoalMismatch {
                goal,
                declared: true,
            } => write!(f, "no node of the proof states goal `{goal}`"),
        }
    }
}

impl Error for CertificateError {}

/// FNV-1a (64-bit) over the program source bytes. Stable across platforms
/// and builds, cheap, and good enough to catch certificate/program skew —
/// this is a change detector, not a cryptographic commitment.
pub fn program_fingerprint(src: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in src.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn escape_line(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

fn escape_token(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            ' ' => out.push_str("\\s"),
            _ => out.push(c),
        }
    }
    out
}

fn unescape(s: &str) -> Result<String, CertificateError> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('s') => out.push(' '),
            other => {
                return Err(CertificateError::Malformed(format!(
                    "bad escape: \\{}",
                    other.map(String::from).unwrap_or_default()
                )))
            }
        }
    }
    Ok(out)
}

fn write_term(t: &Term, out: &mut String) {
    match t.head() {
        Head::Var(v) => out.push_str(&format!(" v{}/{}", v.index(), t.args().len())),
        Head::Sym(s) => out.push_str(&format!(" s{}/{}", s.index(), t.args().len())),
    }
    for a in t.args() {
        write_term(a, out);
    }
}

fn write_type(ty: &Type, out: &mut String) {
    let mut words = Vec::new();
    ty.encode(&mut words);
    out.push_str(&format!(" {}", words.len()));
    for w in words {
        out.push_str(&format!(" {w}"));
    }
}

fn write_rule(rule: &RuleApp, out: &mut String) {
    match rule {
        RuleApp::Open => out.push_str(" open"),
        RuleApp::Refl => out.push_str(" refl"),
        RuleApp::Reduce => out.push_str(" reduce"),
        RuleApp::Cong => out.push_str(" cong"),
        RuleApp::FunExt { fresh } => out.push_str(&format!(" funext {}", fresh.index())),
        RuleApp::Case { var, branches } => {
            out.push_str(&format!(" case {} {}", var.index(), branches.len()));
            for b in branches {
                out.push_str(&format!(" {} {}", b.con.index(), b.fresh.len()));
                for v in &b.fresh {
                    out.push_str(&format!(" {}", v.index()));
                }
            }
        }
        RuleApp::Subst(app) => {
            let side = match app.side {
                Side::Lhs => "L",
                Side::Rhs => "R",
            };
            out.push_str(&format!(" subst {side} {}", app.pos.indices().len()));
            for i in app.pos.indices() {
                out.push_str(&format!(" {i}"));
            }
            out.push_str(&format!(
                " {} {}",
                if app.lemma_flipped { 1 } else { 0 },
                app.theta.len()
            ));
            for (v, t) in app.theta.iter() {
                out.push_str(&format!(" {}", v.index()));
                write_term(t, out);
            }
        }
    }
}

/// Serializes a proof of `goal` over `program_src` into certificate text.
///
/// The proof should be closed; open nodes are serialized as-is and will be
/// rejected by the checker on the validating side.
pub fn export_certificate(goal: &str, program_src: &str, proof: &Preproof) -> String {
    let mut out = String::new();
    out.push_str(VERSION_LINE);
    out.push('\n');
    out.push_str(&format!(
        "fingerprint {:016x}\n",
        program_fingerprint(program_src)
    ));
    out.push_str(&format!("goal {}\n", escape_line(goal)));
    out.push_str(&format!("program {}\n", escape_line(program_src)));
    out.push_str(&format!("vars {}\n", proof.vars().len()));
    for (_, name, ty) in proof.vars().iter() {
        let mut line = format!("var {}", escape_token(name));
        write_type(ty, &mut line);
        out.push_str(&line);
        out.push('\n');
    }
    out.push_str(&format!("nodes {}\n", proof.len()));
    for (_, node) in proof.nodes() {
        let mut line = String::from("node");
        write_term(node.eq.lhs(), &mut line);
        write_term(node.eq.rhs(), &mut line);
        line.push_str(&format!(" prem {}", node.premises.len()));
        for p in &node.premises {
            line.push_str(&format!(" {}", p.index()));
        }
        line.push_str(" rule");
        write_rule(&node.rule, &mut line);
        out.push_str(&line);
        out.push('\n');
    }
    out.push_str("end\n");
    out
}

/// A parsed certificate, ready to be [`verified`](Certificate::verify).
#[derive(Clone, Debug)]
pub struct Certificate {
    goal: String,
    program_src: String,
    proof: Preproof,
}

/// A token cursor over one certificate line.
struct Cursor<'a> {
    toks: std::str::SplitAsciiWhitespace<'a>,
    line_no: usize,
}

impl<'a> Cursor<'a> {
    fn new(line: &'a str, line_no: usize) -> Cursor<'a> {
        Cursor {
            toks: line.split_ascii_whitespace(),
            line_no,
        }
    }

    fn bad(&self, why: &str) -> CertificateError {
        CertificateError::Malformed(format!("line {}: {}", self.line_no, why))
    }

    fn next(&mut self) -> Result<&'a str, CertificateError> {
        self.toks.next().ok_or_else(|| self.bad("missing token"))
    }

    /// One number token; a value out of `T`'s range is malformed.
    fn num<T: FromStr>(&mut self) -> Result<T, CertificateError> {
        let t = self.next()?;
        t.parse()
            .map_err(|_| self.bad(&format!("expected a number, got {t:?}")))
    }

    fn expect(&mut self, word: &str) -> Result<(), CertificateError> {
        let t = self.next()?;
        if t == word {
            Ok(())
        } else {
            Err(self.bad(&format!("expected {word:?}, got {t:?}")))
        }
    }

    fn finish(mut self) -> Result<(), CertificateError> {
        match self.toks.next() {
            None => Ok(()),
            Some(t) => Err(self.bad(&format!("trailing token {t:?}"))),
        }
    }

    /// One self-delimiting term encoding, nested `depth` levels deep
    /// (1 at the top); deeper than [`MAX_NESTING`] is malformed.
    fn term(&mut self, num_vars: usize, depth: usize) -> Result<Term, CertificateError> {
        if depth > MAX_NESTING {
            return Err(self.bad(&format!("term nests deeper than {MAX_NESTING} levels")));
        }
        let t = self.next()?;
        let (head, rest) = t
            .split_at_checked(1)
            .ok_or_else(|| self.bad("empty term token"))?;
        let (idx, argc) = rest
            .split_once('/')
            .ok_or_else(|| self.bad(&format!("bad term token {t:?}")))?;
        let idx: usize = idx
            .parse()
            .map_err(|_| self.bad(&format!("bad term token {t:?}")))?;
        let argc: usize = argc
            .parse()
            .map_err(|_| self.bad(&format!("bad term token {t:?}")))?;
        let head = match head {
            "v" => {
                if idx >= num_vars {
                    return Err(self.bad(&format!("variable index {idx} out of range")));
                }
                Head::Var(VarId::from_index(idx))
            }
            // Symbol indices are validated against the signature in
            // `verify`, once the embedded program has been elaborated.
            "s" => Head::Sym(SymId::from_index(idx)),
            _ => return Err(self.bad(&format!("bad term token {t:?}"))),
        };
        let mut args = Vec::new();
        for _ in 0..argc {
            args.push(self.term(num_vars, depth + 1)?);
        }
        Ok(Term::from_parts(head, args))
    }

    fn var_id(&mut self, num_vars: usize) -> Result<VarId, CertificateError> {
        let idx: usize = self.num()?;
        if idx >= num_vars {
            return Err(self.bad(&format!("variable index {idx} out of range")));
        }
        Ok(VarId::from_index(idx))
    }
}

/// Decodes one [`Type::encode`] word sequence nested `depth` levels deep
/// (1 at the top); deeper than [`MAX_NESTING`] is not a type.
fn decode_type(words: &mut std::slice::Iter<'_, u32>, depth: usize) -> Option<Type> {
    if depth > MAX_NESTING {
        return None;
    }
    match *words.next()? {
        0 => Some(Type::Var(TyVarId(*words.next()?))),
        1 => {
            let d = DataId::from_index(*words.next()? as usize);
            let argc = *words.next()?;
            let mut args = Vec::new();
            for _ in 0..argc {
                args.push(decode_type(words, depth + 1)?);
            }
            Some(Type::Data(d, args))
        }
        2 => {
            let a = decode_type(words, depth + 1)?;
            let b = decode_type(words, depth + 1)?;
            Some(Type::arrow(a, b))
        }
        _ => None,
    }
}

impl Certificate {
    /// Parses certificate text, validating structure and the program
    /// fingerprint. Symbol/datatype indices are validated later, in
    /// [`verify`](Certificate::verify), against the elaborated program.
    ///
    /// # Errors
    ///
    /// [`CertificateError::UnsupportedVersion`], [`CertificateError::Truncated`],
    /// [`CertificateError::FingerprintMismatch`], or
    /// [`CertificateError::Malformed`].
    pub fn parse(text: &str) -> Result<Certificate, CertificateError> {
        let mut lines = text.lines().enumerate();
        let mut next_line = move || lines.next().ok_or(CertificateError::Truncated);

        let (_, version) = next_line()?;
        if version != VERSION_LINE {
            return Err(CertificateError::UnsupportedVersion(version.to_string()));
        }

        let (n, line) = next_line()?;
        let mut c = Cursor::new(line, n + 1);
        c.expect("fingerprint")?;
        let fp_tok = c.next()?;
        let expected = u64::from_str_radix(fp_tok, 16)
            .map_err(|_| c.bad(&format!("bad fingerprint {fp_tok:?}")))?;
        c.finish()?;

        let (n, line) = next_line()?;
        let goal = unescape(line.strip_prefix("goal ").ok_or_else(|| {
            CertificateError::Malformed(format!("line {}: expected goal", n + 1))
        })?)?;

        let (n, line) = next_line()?;
        let program_src = unescape(line.strip_prefix("program ").ok_or_else(|| {
            CertificateError::Malformed(format!("line {}: expected program", n + 1))
        })?)?;

        let got = program_fingerprint(&program_src);
        if got != expected {
            return Err(CertificateError::FingerprintMismatch { expected, got });
        }

        let (n, line) = next_line()?;
        let mut c = Cursor::new(line, n + 1);
        c.expect("vars")?;
        let num_vars: usize = c.num()?;
        c.finish()?;
        let mut vars = VarStore::new();
        for _ in 0..num_vars {
            let (n, line) = next_line()?;
            // The name is the second whitespace-delimited token (spaces in
            // names are `\s`-escaped), followed by the encoded type.
            let mut c = Cursor::new(line, n + 1);
            c.expect("var")?;
            let name = unescape(c.next()?)?;
            let nwords: usize = c.num()?;
            let mut words = Vec::new();
            for _ in 0..nwords {
                words.push(c.num()?);
            }
            c.finish()?;
            let ty = decode_type(&mut words.iter(), 1)
                .ok_or_else(|| CertificateError::Malformed(format!("line {}: bad type", n + 1)))?;
            vars.fresh(&name, ty);
        }

        let (n, line) = next_line()?;
        let mut c = Cursor::new(line, n + 1);
        c.expect("nodes")?;
        let num_nodes: usize = c.num()?;
        c.finish()?;
        let mut proof = Preproof::with_vars(vars);
        let mut rules = Vec::new();
        for _ in 0..num_nodes {
            let (n, line) = next_line()?;
            let mut c = Cursor::new(line, n + 1);
            c.expect("node")?;
            let lhs = c.term(num_vars, 1)?;
            let rhs = c.term(num_vars, 1)?;
            c.expect("prem")?;
            let nprem: usize = c.num()?;
            let mut premises = Vec::new();
            for _ in 0..nprem {
                let p: usize = c.num()?;
                if p >= num_nodes {
                    return Err(c.bad(&format!("premise {p} out of range")));
                }
                premises.push(NodeId::from_index(p));
            }
            c.expect("rule")?;
            let rule = match c.next()? {
                "open" => RuleApp::Open,
                "refl" => RuleApp::Refl,
                "reduce" => RuleApp::Reduce,
                "cong" => RuleApp::Cong,
                "funext" => RuleApp::FunExt {
                    fresh: c.var_id(num_vars)?,
                },
                "case" => {
                    let var = c.var_id(num_vars)?;
                    let nbranches: usize = c.num()?;
                    let mut branches = Vec::new();
                    for _ in 0..nbranches {
                        let con = SymId::from_index(c.num()?);
                        let nfresh: usize = c.num()?;
                        let mut fresh = Vec::new();
                        for _ in 0..nfresh {
                            fresh.push(c.var_id(num_vars)?);
                        }
                        branches.push(CaseBranch { con, fresh });
                    }
                    RuleApp::Case { var, branches }
                }
                "subst" => {
                    let side = match c.next()? {
                        "L" => Side::Lhs,
                        "R" => Side::Rhs,
                        t => return Err(c.bad(&format!("bad side {t:?}"))),
                    };
                    let npos: usize = c.num()?;
                    let mut indices = Vec::new();
                    for _ in 0..npos {
                        indices.push(c.num()?);
                    }
                    let lemma_flipped = match c.num::<usize>()? {
                        0 => false,
                        1 => true,
                        f => return Err(c.bad(&format!("bad flip flag {f}"))),
                    };
                    let nbind: usize = c.num()?;
                    let mut theta = Subst::new();
                    for _ in 0..nbind {
                        let v = c.var_id(num_vars)?;
                        let t = c.term(num_vars, 1)?;
                        theta.insert(v, t);
                    }
                    RuleApp::Subst(SubstApp {
                        side,
                        pos: Position::from_indices(indices),
                        theta,
                        lemma_flipped,
                    })
                }
                t => return Err(c.bad(&format!("unknown rule {t:?}"))),
            };
            c.finish()?;
            proof.push_open(Equation::new(lhs, rhs));
            rules.push((rule, premises));
        }
        for (i, (rule, premises)) in rules.into_iter().enumerate() {
            if !matches!(rule, RuleApp::Open) {
                proof.justify(NodeId::from_index(i), rule, premises);
            }
        }

        let (_, line) = next_line()?;
        if line != "end" {
            return Err(CertificateError::Malformed(format!(
                "expected end, got {line:?}"
            )));
        }

        Ok(Certificate {
            goal,
            program_src,
            proof,
        })
    }

    /// The goal name the certificate claims to prove.
    pub fn goal(&self) -> &str {
        &self.goal
    }

    /// The embedded program source (already fingerprint-checked).
    pub fn program_src(&self) -> &str {
        &self.program_src
    }

    /// The deserialized preproof.
    pub fn proof(&self) -> &Preproof {
        &self.proof
    }

    /// Binds the certificate's goal name to its proof. `declared` is the
    /// named goal's equation and variable store as the embedded program
    /// declares them, or `None` when it declares no such goal. The search
    /// roots a proof at the goal's equation and starts the proof's variable
    /// store with the goal's variables, so the goal's variables must be a
    /// prefix of the proof's (same names, same types), and some node must
    /// state exactly the goal's equation.
    ///
    /// # Errors
    ///
    /// [`CertificateError::GoalMismatch`] when either does not hold.
    pub fn check_goal(
        &self,
        declared: Option<(&Equation, &VarStore)>,
    ) -> Result<(), CertificateError> {
        let mismatch = |declared| CertificateError::GoalMismatch {
            goal: self.goal.clone(),
            declared,
        };
        let (eq, vars) = declared.ok_or_else(|| mismatch(false))?;
        let proof_vars = self.proof.vars();
        let prefix = vars.len() <= proof_vars.len()
            && vars
                .iter()
                .all(|(v, name, ty)| proof_vars.name(v) == name && proof_vars.ty(v) == ty);
        if prefix && self.proof.nodes().any(|(_, node)| node.eq == *eq) {
            Ok(())
        } else {
            Err(mismatch(true))
        }
    }

    /// Re-validates the certificate against an elaborated program: symbol
    /// and datatype indices are bounds-checked, then the proof is run
    /// through the independent interned checker with the full global
    /// condition.
    ///
    /// # Errors
    ///
    /// [`CertificateError::Malformed`] for out-of-range indices and
    /// [`CertificateError::Check`] when the proof itself does not check.
    pub fn verify(&self, prog: &Program) -> Result<CheckReport, CertificateError> {
        let num_syms = prog.sig.num_syms();
        let bad_sym = |s: SymId| {
            CertificateError::Malformed(format!("symbol index {} out of range", s.index()))
        };
        let check_term = |t: &Term| -> Result<(), CertificateError> {
            let mut stack = vec![t];
            while let Some(t) = stack.pop() {
                if let Head::Sym(s) = t.head() {
                    if s.index() >= num_syms {
                        return Err(bad_sym(s));
                    }
                }
                stack.extend(t.args());
            }
            Ok(())
        };
        for (_, node) in self.proof.nodes() {
            check_term(node.eq.lhs())?;
            check_term(node.eq.rhs())?;
            match &node.rule {
                RuleApp::Case { branches, .. } => {
                    for b in branches {
                        if b.con.index() >= num_syms {
                            return Err(bad_sym(b.con));
                        }
                    }
                }
                RuleApp::Subst(app) => {
                    for (_, t) in app.theta.iter() {
                        check_term(t)?;
                    }
                }
                _ => {}
            }
        }
        let num_datas = prog.sig.num_datas();
        for (_, _, ty) in self.proof.vars().iter() {
            let mut stack = vec![ty];
            while let Some(ty) = stack.pop() {
                match ty {
                    Type::Var(_) => {}
                    Type::Data(d, args) => {
                        if d.index() >= num_datas {
                            return Err(CertificateError::Malformed(format!(
                                "datatype index {} out of range",
                                d.index()
                            )));
                        }
                        stack.extend(args);
                    }
                    Type::Arrow(a, b) => {
                        stack.push(a);
                        stack.push(b);
                    }
                }
            }
        }

        check(&self.proof, prog, GlobalCheck::VariableTraces).map_err(CertificateError::Check)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cycleq_rewrite::fixtures::nat_list_program;

    fn tiny_proof() -> (cycleq_rewrite::fixtures::ProgramFixture, Preproof) {
        let p = nat_list_program();
        let mut proof = Preproof::new();
        let conc = proof.push_open(Equation::new(
            Term::apps(p.f.add, vec![p.f.num(1), p.f.num(1)]),
            p.f.num(2),
        ));
        let prem = proof.push_open(Equation::new(p.f.num(2), p.f.num(2)));
        proof.justify(prem, RuleApp::Refl, vec![]);
        proof.justify(conc, RuleApp::Reduce, vec![prem]);
        (p, proof)
    }

    #[test]
    fn fingerprint_is_stable_and_input_sensitive() {
        assert_eq!(program_fingerprint(""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(program_fingerprint("a"), program_fingerprint("b"));
    }

    #[test]
    fn round_trip_preserves_proof_and_verifies() {
        let (p, proof) = tiny_proof();
        let text = export_certificate("demo", "-- not the real source", &proof);
        let cert = Certificate::parse(&text).unwrap();
        assert_eq!(cert.goal(), "demo");
        assert_eq!(cert.program_src(), "-- not the real source");
        assert_eq!(cert.proof().len(), proof.len());
        let report = cert.verify(&p.prog).unwrap();
        assert_eq!(report.nodes, 2);
    }

    #[test]
    fn escaping_round_trips_newlines_and_spaces() {
        let src = "data Nat = Z | S Nat\nadd Z y = y";
        assert_eq!(unescape(&escape_line(src)).unwrap(), src);
        assert_eq!(unescape(&escape_token("a b\\c")).unwrap(), "a b\\c");
    }

    #[test]
    fn wrong_version_is_rejected() {
        let (_, proof) = tiny_proof();
        let text = export_certificate("g", "p", &proof);
        let (first, body) = text.split_once('\n').unwrap();
        assert_eq!(first, "cycleq-certificate v2");
        // `v1` carried serialized edge graphs; it is refused, not upgraded.
        for version in ["cycleq-certificate v9", "cycleq-certificate v1"] {
            assert_eq!(
                Certificate::parse(&format!("{version}\n{body}")).unwrap_err(),
                CertificateError::UnsupportedVersion(version.into())
            );
        }
    }

    /// Parses without validating, so the rules need not check: a variable
    /// `x` split by `(Case)` into `Z` and `S x'`, whose successor branch
    /// carries a `(Subst)` at a non-root position.
    fn count_fixture() -> (String, usize) {
        let p = nat_list_program();
        let mut proof = Preproof::new();
        let x = proof.vars_mut().fresh("x", p.f.nat_ty());
        let xp = proof.vars_mut().fresh("x'", p.f.nat_ty());
        let root = proof.push_open(Equation::new(Term::var(x), Term::var(x)));
        let zb = proof.push_open(Equation::new(Term::sym(p.f.zero), Term::sym(p.f.zero)));
        let sb = proof.push_open(Equation::new(p.f.s(Term::var(xp)), p.f.s(Term::var(xp))));
        proof.justify(
            root,
            RuleApp::Case {
                var: x,
                branches: vec![
                    CaseBranch {
                        con: p.f.zero,
                        fresh: vec![],
                    },
                    CaseBranch {
                        con: p.f.succ,
                        fresh: vec![xp],
                    },
                ],
            },
            vec![zb, sb],
        );
        proof.justify(zb, RuleApp::Refl, vec![]);
        let mut theta = Subst::new();
        theta.insert(x, Term::var(xp));
        proof.justify(
            sb,
            RuleApp::Subst(SubstApp {
                side: Side::Lhs,
                pos: Position::from_indices(vec![0]),
                theta,
                lemma_flipped: false,
            }),
            vec![root, zb],
        );
        let text = export_certificate("g", "p", &proof);
        assert!(Certificate::parse(&text).is_ok());
        (text, p.f.succ.index())
    }

    #[test]
    fn crafted_counts_and_words_are_malformed() {
        let (text, succ) = count_fixture();
        // 2^40: sizing a vector by this count up front would ask for
        // terabytes and abort the process instead of returning an error.
        let huge = 1u64 << 40;
        let edits = [
            ("var x 3 1 0 0", format!("var x {huge} 1 0 0")),
            ("nodes 3", format!("nodes {huge}")),
            ("node v0/0", format!("node v0/{huge}")),
            (" prem 2 1 2 ", format!(" prem {huge} 1 2 ")),
            (" case 0 2 ", format!(" case 0 {huge} ")),
            (&*format!(" {succ} 1 1\n"), format!(" {succ} {huge} 1\n")),
            (" subst L 1 0 ", format!(" subst L {huge} 0 ")),
            // Past `u32::MAX`: a type word or position index that would
            // wrap to a valid one.
            ("var x 3 1 0 0", format!("var x 3 {} 0 0", (1u64 << 32) + 1)),
            (" subst L 1 0 ", format!(" subst L 1 {} ", 1u64 << 32)),
        ];
        for (from, to) in edits {
            assert_eq!(text.matches(from).count(), 1, "{from:?} in\n{text}");
            let crafted = text.replace(from, &to);
            assert!(
                matches!(
                    Certificate::parse(&crafted),
                    Err(CertificateError::Malformed(_))
                ),
                "{to:?} parsed"
            );
        }
    }

    #[test]
    fn nesting_beyond_the_bound_is_malformed() {
        let (text, succ) = count_fixture();
        let deep = 300_000;
        // `s<succ>/1` nests one level per token, so a term of `n` such
        // tokens around `v0/0` is `n + 1` levels deep; likewise a type of
        // `n` one-argument datatypes around `Nat`.
        let term = |n: usize| format!("node{} v0/0 v0/0", format!(" s{succ}/1").repeat(n));
        let ty = |n: usize| format!("var x {} {}1 0 0", 3 * n + 3, "1 0 1 ".repeat(n));
        let parse = |from: &str, to: String| {
            assert_eq!(text.matches(from).count(), 1, "{from:?} in\n{text}");
            Certificate::parse(&text.replacen(from, &to, 1))
        };
        for (from, to) in [("node v0/0 v0/0", term(deep)), ("var x 3 1 0 0", ty(deep))] {
            assert!(
                matches!(parse(from, to), Err(CertificateError::Malformed(_))),
                "{from:?} nested {deep} levels deep parsed"
            );
        }
        // At the bound, both still parse; one level more is malformed.
        assert!(parse("node v0/0 v0/0", term(MAX_NESTING - 1)).is_ok());
        assert!(parse("var x 3 1 0 0", ty(MAX_NESTING - 1)).is_ok());
        assert_eq!(
            parse("node v0/0 v0/0", term(MAX_NESTING)).unwrap_err(),
            CertificateError::Malformed(format!(
                "line 9: term nests deeper than {MAX_NESTING} levels"
            ))
        );
        assert!(matches!(
            parse("var x 3 1 0 0", ty(MAX_NESTING)),
            Err(CertificateError::Malformed(_))
        ));
    }

    #[test]
    fn truncation_is_rejected() {
        let (_, proof) = tiny_proof();
        let text = export_certificate("g", "p", &proof);
        let cut = &text[..text.len() - 5];
        assert!(matches!(
            Certificate::parse(cut),
            Err(CertificateError::Truncated) | Err(CertificateError::Malformed(_))
        ));
        // Cutting whole trailing lines is always Truncated.
        let lines: Vec<&str> = text.lines().collect();
        let partial = lines[..lines.len() - 2].join("\n");
        assert_eq!(
            Certificate::parse(&partial).unwrap_err(),
            CertificateError::Truncated
        );
    }

    #[test]
    fn tampered_program_is_a_fingerprint_mismatch() {
        let (_, proof) = tiny_proof();
        let text = export_certificate("g", "original program", &proof);
        let tampered = text.replace("original program", "patched program");
        assert!(matches!(
            Certificate::parse(&tampered),
            Err(CertificateError::FingerprintMismatch { .. })
        ));
    }

    #[test]
    fn corrupt_proof_fails_the_checker() {
        let (p, proof) = tiny_proof();
        // Rewrite the Reduce justification into Refl: the premise count no
        // longer matches, so the checker must reject the proof.
        let text = export_certificate("g", "p", &proof).replacen(" rule reduce", " rule refl", 1);
        let cert = Certificate::parse(&text).unwrap();
        assert!(matches!(
            cert.verify(&p.prog),
            Err(CertificateError::Check(_))
        ));
    }

    #[test]
    fn out_of_range_symbol_is_malformed() {
        let (p, proof) = tiny_proof();
        let text = export_certificate("g", "p", &proof);
        // Inflate the first symbol index (the conclusion's head, `add`) far
        // past the signature, keeping the token well-formed.
        let tampered = text.replacen("node s", "node s99", 1);
        let cert = Certificate::parse(&tampered).unwrap();
        assert!(matches!(
            cert.verify(&p.prog),
            Err(CertificateError::Malformed(_))
        ));
    }
}
