//! The owned-term proof checker, kept as the test oracle for the
//! library's interned [`cycleq_proof::check`].
//!
//! It validates the same rules in the same order, with the same error
//! kinds and messages, but walks owned [`Term`]s, renormalises every
//! `(Reduce)` side afresh with the leftmost-outermost
//! [`reference_normalize`] instead of the memoised rewriter, and checks the
//! global condition on the closure of *every* proof edge rather than per
//! strongly connected component. `differential.rs` pins the two checkers
//! to identical verdicts.

use std::time::Instant;

use cycleq_proof::{
    global_edges, CheckError, CheckErrorKind, CheckReport, GlobalCheck, NodeId, Preproof, RuleApp,
    Side,
};
use cycleq_rewrite::fixtures::reference_normalize;
use cycleq_rewrite::{Program, DEFAULT_FUEL};
use cycleq_sizechange::{IncrementalClosure, Soundness};
use cycleq_term::{Equation, Term, TyUnifier};

fn err(node: NodeId, kind: CheckErrorKind) -> CheckError {
    CheckError {
        node: Some(node),
        kind,
    }
}

fn eq_modulo_flip(a: &Equation, b: &Equation) -> bool {
    (a.lhs() == b.lhs() && a.rhs() == b.rhs()) || (a.lhs() == b.rhs() && a.rhs() == b.lhs())
}

/// The full-closure global check (Theorem 5.2): saturates the size-change
/// graphs of *every* proof edge, cyclic or not, and requires every
/// idempotent self-loop to carry a strict self-edge.
fn globally_sound(proof: &Preproof) -> bool {
    let mut closure = IncrementalClosure::new();
    for (a, b, g) in global_edges(proof) {
        closure.add_edge(a, b, g);
    }
    closure.soundness() == Soundness::Sound
}

/// Checks the preproof against the program on owned terms.
///
/// # Errors
///
/// Returns the first [`CheckError`] found: an ill-formed rule instance, an
/// ill-typed equation, or a global-condition failure.
pub fn check(
    proof: &Preproof,
    prog: &Program,
    mode: GlobalCheck,
) -> Result<CheckReport, CheckError> {
    let start = Instant::now();
    let mut back_edges = 0;
    let mut reducts_checked = 0u64;
    for (id, node) in proof.nodes() {
        for p in &node.premises {
            if p.index() >= proof.len() {
                return Err(err(id, CheckErrorKind::DanglingPremise));
            }
            if proof.is_back_edge(id, *p) {
                back_edges += 1;
            }
        }
        // Type check: the two sides must have unifiable types.
        {
            let mut uni = TyUnifier::new(10_000);
            let lt = node
                .eq
                .lhs()
                .infer_type(&prog.sig, proof.vars(), &mut uni)
                .map_err(|e| err(id, CheckErrorKind::IllTyped(e.to_string())))?;
            let rt = node
                .eq
                .rhs()
                .infer_type(&prog.sig, proof.vars(), &mut uni)
                .map_err(|e| err(id, CheckErrorKind::IllTyped(e.to_string())))?;
            uni.unify(&lt, &rt)
                .map_err(|e| err(id, CheckErrorKind::IllTyped(e.to_string())))?;
        }
        let premise_eq = |i: usize| &proof.node(node.premises[i]).eq;
        match &node.rule {
            RuleApp::Open => return Err(err(id, CheckErrorKind::OpenNode)),
            RuleApp::Refl => {
                if !node.premises.is_empty() {
                    return Err(err(
                        id,
                        CheckErrorKind::PremiseCount {
                            expected: 0,
                            got: node.premises.len(),
                        },
                    ));
                }
                if !node.eq.is_trivial() {
                    return Err(err(id, CheckErrorKind::NotReflexive));
                }
            }
            RuleApp::Reduce => {
                if node.premises.len() != 1 {
                    return Err(err(
                        id,
                        CheckErrorKind::PremiseCount {
                            expected: 1,
                            got: node.premises.len(),
                        },
                    ));
                }
                // Premise sides must be convertible to the conclusion sides.
                // For a confluent, weakly normalising system (Remark 2.1)
                // this is checked by comparing normal forms, which accepts
                // any `→R*` reduct regardless of the strategy that produced
                // it.
                let p = premise_eq(0);
                let nf = |t: &Term| reference_normalize(&prog.sig, &prog.trs, t, DEFAULT_FUEL).term;
                let (cl, cr) = (nf(node.eq.lhs()), nf(node.eq.rhs()));
                let (pl, pr) = (nf(p.lhs()), nf(p.rhs()));
                reducts_checked += 4;
                let straight = cl == pl && cr == pr;
                let flipped = cl == pr && cr == pl;
                if !straight && !flipped {
                    return Err(err(id, CheckErrorKind::NotAReduct));
                }
            }
            RuleApp::Cong => {
                let (k1, args1) = node
                    .eq
                    .lhs()
                    .as_constructor(&prog.sig)
                    .ok_or_else(|| err(id, CheckErrorKind::NotACongruence))?;
                let (k2, args2) = node
                    .eq
                    .rhs()
                    .as_constructor(&prog.sig)
                    .ok_or_else(|| err(id, CheckErrorKind::NotACongruence))?;
                if k1 != k2 || args1.len() != args2.len() {
                    return Err(err(id, CheckErrorKind::NotACongruence));
                }
                if node.premises.len() != args1.len() {
                    return Err(err(
                        id,
                        CheckErrorKind::PremiseCount {
                            expected: args1.len(),
                            got: node.premises.len(),
                        },
                    ));
                }
                for (i, (a, b)) in args1.iter().zip(args2).enumerate() {
                    let want = Equation::new(a.clone(), b.clone());
                    if !eq_modulo_flip(&want, premise_eq(i)) {
                        return Err(err(id, CheckErrorKind::NotACongruence));
                    }
                }
            }
            RuleApp::FunExt { fresh } => {
                if node.premises.len() != 1 {
                    return Err(err(
                        id,
                        CheckErrorKind::PremiseCount {
                            expected: 1,
                            got: node.premises.len(),
                        },
                    ));
                }
                if node.eq.lhs().contains_var(*fresh) || node.eq.rhs().contains_var(*fresh) {
                    return Err(err(id, CheckErrorKind::BadExtensionality));
                }
                let want = Equation::new(
                    Term::app(node.eq.lhs().clone(), Term::var(*fresh)),
                    Term::app(node.eq.rhs().clone(), Term::var(*fresh)),
                );
                if !eq_modulo_flip(&want, premise_eq(0)) {
                    return Err(err(id, CheckErrorKind::BadExtensionality));
                }
            }
            RuleApp::Case { var, branches } => {
                let var_ty = proof.vars().ty(*var).clone();
                let Some((data, ty_args)) = var_ty.as_data() else {
                    return Err(err(
                        id,
                        CheckErrorKind::BadCaseSplit(
                            "case variable is not of datatype type".into(),
                        ),
                    ));
                };
                let cons = prog.sig.constructors_of(data);
                if branches.len() != cons.len() || node.premises.len() != cons.len() {
                    return Err(err(
                        id,
                        CheckErrorKind::BadCaseSplit(format!(
                            "expected {} branches, got {}",
                            cons.len(),
                            branches.len()
                        )),
                    ));
                }
                for (i, (&k, branch)) in cons.iter().zip(branches).enumerate() {
                    if branch.con != k {
                        return Err(err(
                            id,
                            CheckErrorKind::BadCaseSplit(
                                "branch constructor order mismatch".into(),
                            ),
                        ));
                    }
                    if branch.fresh.len() != prog.sig.constructor_arity(k) {
                        return Err(err(
                            id,
                            CheckErrorKind::BadCaseSplit("fresh variable count mismatch".into()),
                        ));
                    }
                    // Fresh variables must not occur in the conclusion and
                    // must have the constructor's instantiated argument
                    // types.
                    let inst = prog
                        .sig
                        .sym(k)
                        .scheme()
                        .instantiate_with(ty_args)
                        .map_err(|e| err(id, CheckErrorKind::IllTyped(e.to_string())))?;
                    let (arg_tys, _) = inst.uncurry();
                    for (v, want_ty) in branch.fresh.iter().zip(arg_tys) {
                        if node.eq.lhs().contains_var(*v) || node.eq.rhs().contains_var(*v) {
                            return Err(err(
                                id,
                                CheckErrorKind::BadCaseSplit("case variable not fresh".into()),
                            ));
                        }
                        if proof.vars().ty(*v) != want_ty {
                            return Err(err(
                                id,
                                CheckErrorKind::BadCaseSplit("fresh variable type mismatch".into()),
                            ));
                        }
                    }
                    let pattern =
                        Term::apps(k, branch.fresh.iter().map(|v| Term::var(*v)).collect());
                    let theta = cycleq_term::Subst::singleton(*var, pattern);
                    let want = node.eq.subst(&theta);
                    if !eq_modulo_flip(&want, premise_eq(i)) {
                        return Err(err(
                            id,
                            CheckErrorKind::BadCaseSplit(format!("branch {i} equation mismatch")),
                        ));
                    }
                }
            }
            RuleApp::Subst(app) => {
                if node.premises.len() != 2 {
                    return Err(err(
                        id,
                        CheckErrorKind::PremiseCount {
                            expected: 2,
                            got: node.premises.len(),
                        },
                    ));
                }
                let lemma = premise_eq(0);
                let (from, to) = if app.lemma_flipped {
                    (lemma.rhs(), lemma.lhs())
                } else {
                    (lemma.lhs(), lemma.rhs())
                };
                let side_term = app.side.of(&node.eq);
                let Some(occurrence) = side_term.at(&app.pos) else {
                    return Err(err(id, CheckErrorKind::BadSubst("position invalid".into())));
                };
                if occurrence != &app.theta.apply(from) {
                    return Err(err(
                        id,
                        CheckErrorKind::BadSubst("occurrence is not the lemma instance".into()),
                    ));
                }
                let rewritten = side_term
                    .replace_at(&app.pos, app.theta.apply(to))
                    .expect("position validated above");
                let untouched = app.side.flip().of(&node.eq).clone();
                let want = match app.side {
                    Side::Lhs => Equation::new(rewritten, untouched),
                    Side::Rhs => Equation::new(untouched, rewritten),
                };
                if !eq_modulo_flip(&want, premise_eq(1)) {
                    return Err(err(
                        id,
                        CheckErrorKind::BadSubst("continuation equation mismatch".into()),
                    ));
                }
            }
        }
    }
    let global_verified = match mode {
        GlobalCheck::VariableTraces => {
            if !globally_sound(proof) {
                return Err(CheckError {
                    node: None,
                    kind: CheckErrorKind::GloballyUnsound,
                });
            }
            true
        }
        GlobalCheck::TrustConstruction => false,
    };
    Ok(CheckReport {
        nodes: proof.len(),
        back_edges,
        global_verified,
        reducts_checked,
        memo_hits: 0,
        elapsed: start.elapsed(),
    })
}
