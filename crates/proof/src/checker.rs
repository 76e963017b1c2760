//! The independent proof checker.
//!
//! The checker validates that every node of a [`Preproof`] is a well-formed
//! instance of its rule (local soundness, Definition 3.1) and that the
//! global condition holds (Theorem 5.2). It is deliberately a separate code
//! path from the search: a search bug cannot certify its own output.
//!
//! Every equation of the preproof is re-interned into a fresh store owned by
//! the checker — [`TermId`]s are *never* shared with the search's store, so a
//! corrupted search-side store cannot leak into certification. Within one
//! proof, though, reducts are shared: the [`MemoRewriter`]'s id-keyed memo
//! means a normal form derived while validating one `(Reduce)` node is free
//! for every later node that reaches the same term, which is what makes
//! re-checking large proofs cheap (cf. E-Cyclist's focus on validation cost).
//! The check relies on Remark 2.1: for confluent, weakly normalising
//! systems, comparing normal forms decides `→R*`-convertibility regardless
//! of strategy, and hash-consing makes the final comparison O(1) id
//! equality.
//!
//! An owned-term implementation of the same rules survives only as a test
//! oracle (`tests/oracle/`): same check order, same error kinds, same
//! messages, pinned verdict for verdict by the differential property tests
//! in `tests/differential.rs`.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::time::{Duration, Instant};

use cycleq_rewrite::{MemoRewriter, Program};
use cycleq_sizechange::Soundness;
use cycleq_term::{
    Head, IdSubst, Signature, TermId, TermStore, TyUnifier, TyVarId, Type, TypeError, TypeScheme,
    VarStore,
};

use crate::edges::check_global;
use crate::node::{NodeId, RuleApp, Side};
use crate::preproof::Preproof;

/// How the global condition should be established.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum GlobalCheck {
    /// Verify variable-based traces via size-change closure (decidable,
    /// §5.2). This is the mode used for everything the search produces.
    #[default]
    VariableTraces,
    /// Skip the trace check. Used for proofs whose global correctness is
    /// guaranteed by construction for an order beyond variable traces —
    /// e.g. translations of rewriting-induction derivations, which progress
    /// by the *reduction order* (Theorem 4.3) and may decrease in ways
    /// variable traces cannot see. Local well-formedness is still fully
    /// checked.
    TrustConstruction,
}

/// Why a proof was rejected.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CheckErrorKind {
    /// The node is unjustified.
    OpenNode,
    /// A premise id is out of range.
    DanglingPremise,
    /// Wrong number of premises for the rule.
    PremiseCount { expected: usize, got: usize },
    /// `(Refl)` on an equation whose sides differ.
    NotReflexive,
    /// `(Reduce)` premise is not a reduct of the conclusion.
    NotAReduct,
    /// Congruence on non-constructor or mismatched heads.
    NotACongruence,
    /// Extensionality premise malformed.
    BadExtensionality,
    /// `(Case)` branches don't cover the datatype, or a branch is
    /// malformed.
    BadCaseSplit(String),
    /// `(Subst)` instance malformed (occurrence or continuation mismatch).
    BadSubst(String),
    /// A node equation is ill-typed.
    IllTyped(String),
    /// The global condition failed (Theorem 5.2).
    GloballyUnsound,
}

/// A checking failure at a specific node.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CheckError {
    /// The offending node (`None` for global failures).
    pub node: Option<NodeId>,
    /// The failure.
    pub kind: CheckErrorKind,
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.node {
            Some(n) => write!(f, "node {}: {:?}", n.index(), self.kind),
            None => write!(f, "{:?}", self.kind),
        }
    }
}

impl Error for CheckError {}

/// Statistics from a successful check.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct CheckReport {
    /// Number of nodes checked.
    pub nodes: usize,
    /// Number of back edges (cycle-forming premises).
    pub back_edges: usize,
    /// Whether the global condition was verified (vs. trusted).
    pub global_verified: bool,
    /// Number of reducts derived while validating `(Reduce)` nodes (four
    /// normal forms per node: both conclusion and both premise sides).
    pub reducts_checked: u64,
    /// Normal forms answered from the checker's memo table: reducts are
    /// shared across the nodes of one proof.
    pub memo_hits: u64,
    /// Wall-clock time of the whole check.
    pub elapsed: Duration,
}

fn err(node: NodeId, kind: CheckErrorKind) -> CheckError {
    CheckError {
        node: Some(node),
        kind,
    }
}

/// A type error at `node`, its types named against `sig`.
fn ill_typed(node: NodeId, sig: &Signature, e: &TypeError) -> CheckError {
    err(node, CheckErrorKind::IllTyped(e.display(sig).to_string()))
}

fn pair_eq_modulo_flip(a: (TermId, TermId), b: (TermId, TermId)) -> bool {
    (a.0 == b.0 && a.1 == b.1) || (a.0 == b.1 && a.1 == b.0)
}

/// Types both sides of an equation on interned ids with [`ty_of_id`] and
/// unifies the results. False means the node must re-run the owned
/// inference, for the exact error text.
fn unifier_ty_check(
    store: &TermStore,
    sig: &Signature,
    vars: &VarStore,
    cache: &mut HashMap<TermId, TypeScheme>,
    cl: TermId,
    cr: TermId,
) -> bool {
    let mut uni = TyUnifier::new(10_000);
    ty_of_id(store, sig, vars, &mut uni, cache, cl)
        .and_then(|(lt, _)| {
            let (rt, _) = ty_of_id(store, sig, vars, &mut uni, cache, cr)?;
            uni.unify(&lt, &rt)
        })
        .is_ok()
}

/// The memoized id-level counterpart of `Term::infer_type`: the same
/// bottom-up inference, except that a subterm may be typed once per check
/// and afterwards served from `cache` as a canonical scheme. Returns the
/// type plus a *purity* flag: pure means every free variable of the
/// subterm has a ground declared type, so its inference touches no
/// metavariable shared with sibling subterms — its principal type is
/// context-free up to renaming of its own fresh metavariables, which is
/// exactly what the canonical scheme captures. Impure subterms (a free
/// variable with type variables in its declared type) are never cached:
/// their inference can constrain type variables shared across the
/// equation, and skipping it could accept what owned-term inference
/// rejects.
fn ty_of_id(
    store: &TermStore,
    sig: &Signature,
    vars: &VarStore,
    uni: &mut TyUnifier,
    cache: &mut HashMap<TermId, TypeScheme>,
    id: TermId,
) -> Result<(Type, bool), TypeError> {
    if let Some(c) = cache.get(&id) {
        return Ok((c.instantiate(&mut || uni.fresh()), true));
    }
    let (head_ty, mut pure) = match store.head(id) {
        Head::Var(v) => {
            let t = vars.ty(v).clone();
            let ground = t.vars().is_empty();
            (t, ground)
        }
        Head::Sym(s) => (sig.sym(s).scheme().instantiate(&mut || uni.fresh()), true),
    };
    let mut cur = head_ty;
    for i in 0..store.args(id).len() {
        let arg = store.args(id)[i];
        let (arg_ty, arg_pure) = ty_of_id(store, sig, vars, uni, cache, arg)?;
        pure &= arg_pure;
        cur = uni.apply(cur, arg_ty)?;
    }
    let ty = uni.resolve(&cur);
    if pure {
        let free = ty.vars();
        let canon = if free.is_empty() {
            ty.clone()
        } else {
            let map: std::collections::BTreeMap<TyVarId, Type> = free
                .iter()
                .enumerate()
                .map(|(i, &v)| (v, Type::Var(TyVarId(i as u32))))
                .collect();
            ty.subst(&map)
        };
        cache.insert(id, TypeScheme::poly(free.len() as u32, canon));
    }
    Ok((ty, pure))
}

/// Checks the preproof against the program on a freshly interned store.
///
/// `(Reduce)` validation runs on the id level with reducts memoized across
/// nodes.
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
    let _span = cycleq_trace::span!("check");
    let start = Instant::now();
    // A fresh store per call: independence from the search store is the
    // point.
    let mut rw = MemoRewriter::new(&prog.sig, &prog.trs);
    // Intern every node equation up front, into the checker's own store:
    // nothing the search interned is trusted here.
    let ids: Vec<(TermId, TermId)> = proof
        .nodes()
        .map(|(_, node)| (rw.intern(node.eq.lhs()), rw.intern(node.eq.rhs())))
        .collect();
    let mut back_edges = 0;
    let mut reducts_checked = 0u64;
    // Principal types per interned subterm, shared across nodes — the
    // nodes of a cyclic proof overlap heavily, so inference is mostly
    // cache hits after the first few nodes.
    let mut ty_cache: HashMap<TermId, TypeScheme> = HashMap::new();
    for (id, node) in proof.nodes() {
        for p in &node.premises {
            if p.index() >= proof.len() {
                return Err(err(id, CheckErrorKind::DanglingPremise));
            }
            if proof.is_back_edge(id, *p) {
                back_edges += 1;
            }
        }
        // Type check on the id level. Should it reject, the node is
        // re-checked with owned-term inference, whose error text the
        // report carries.
        let (cl, cr) = ids[id.index()];
        if !unifier_ty_check(rw.store(), &prog.sig, proof.vars(), &mut ty_cache, cl, cr) {
            let mut uni = TyUnifier::new(10_000);
            let lt = node
                .eq
                .lhs()
                .infer_type(&prog.sig, proof.vars(), &mut uni)
                .map_err(|e| ill_typed(id, &prog.sig, &e))?;
            let rt = node
                .eq
                .rhs()
                .infer_type(&prog.sig, proof.vars(), &mut uni)
                .map_err(|e| ill_typed(id, &prog.sig, &e))?;
            uni.unify(&lt, &rt)
                .map_err(|e| ill_typed(id, &prog.sig, &e))?;
        }
        let premise_ids = |i: usize| ids[node.premises[i].index()];
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
                if cl != cr {
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
                let (pl, pr) = premise_ids(0);
                let cl_nf = rw.normalize_id(cl).id;
                let cr_nf = rw.normalize_id(cr).id;
                let pl_nf = rw.normalize_id(pl).id;
                let pr_nf = rw.normalize_id(pr).id;
                reducts_checked += 4;
                let straight = cl_nf == pl_nf && cr_nf == pr_nf;
                let flipped = cl_nf == pr_nf && cr_nf == pl_nf;
                if !straight && !flipped {
                    return Err(err(id, CheckErrorKind::NotAReduct));
                }
            }
            RuleApp::Cong => {
                let store = rw.store();
                let Some((k1, args1)) = store.as_constructor(cl, &prog.sig) else {
                    return Err(err(id, CheckErrorKind::NotACongruence));
                };
                let Some((k2, args2)) = store.as_constructor(cr, &prog.sig) else {
                    return Err(err(id, CheckErrorKind::NotACongruence));
                };
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
                for (i, (&a, &b)) in args1.iter().zip(args2).enumerate() {
                    if !pair_eq_modulo_flip((a, b), premise_ids(i)) {
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
                let store = rw.store_mut();
                if store.contains_var(cl, *fresh) || store.contains_var(cr, *fresh) {
                    return Err(err(id, CheckErrorKind::BadExtensionality));
                }
                let v = store.var(*fresh);
                let want = (store.apply_args(cl, &[v]), store.apply_args(cr, &[v]));
                if !pair_eq_modulo_flip(want, premise_ids(0)) {
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
                    let inst = prog
                        .sig
                        .sym(k)
                        .scheme()
                        .instantiate_with(ty_args)
                        .map_err(|e| ill_typed(id, &prog.sig, &e))?;
                    let (arg_tys, _) = inst.uncurry();
                    let store = rw.store_mut();
                    for (v, want_ty) in branch.fresh.iter().zip(arg_tys) {
                        if store.contains_var(cl, *v) || store.contains_var(cr, *v) {
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
                    let fresh_ids: Vec<TermId> =
                        branch.fresh.iter().map(|v| store.var(*v)).collect();
                    let pattern = store.node(Head::Sym(k), fresh_ids);
                    let theta = IdSubst::singleton(*var, pattern);
                    let want = (store.subst(cl, &theta), store.subst(cr, &theta));
                    if !pair_eq_modulo_flip(want, premise_ids(i)) {
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
                let store = rw.store_mut();
                let (ll, lr) = premise_ids(0);
                let (from, to) = if app.lemma_flipped {
                    (lr, ll)
                } else {
                    (ll, lr)
                };
                let mut theta = IdSubst::new();
                for (v, t) in app.theta.iter() {
                    let bound = store.intern(t);
                    theta.insert(v, bound);
                }
                let side_id = match app.side {
                    Side::Lhs => cl,
                    Side::Rhs => cr,
                };
                let Some(occurrence) = store.at(side_id, &app.pos) else {
                    return Err(err(id, CheckErrorKind::BadSubst("position invalid".into())));
                };
                if occurrence != store.subst(from, &theta) {
                    return Err(err(
                        id,
                        CheckErrorKind::BadSubst("occurrence is not the lemma instance".into()),
                    ));
                }
                let to_inst = store.subst(to, &theta);
                let rewritten = store
                    .replace_at(side_id, &app.pos, to_inst)
                    .expect("position validated above");
                let untouched = match app.side {
                    Side::Lhs => cr,
                    Side::Rhs => cl,
                };
                let want = match app.side {
                    Side::Lhs => (rewritten, untouched),
                    Side::Rhs => (untouched, rewritten),
                };
                if !pair_eq_modulo_flip(want, premise_ids(1)) {
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
            if check_global(proof) == Soundness::Unsound {
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
        memo_hits: rw.memo_hits(),
        elapsed: start.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{CaseBranch, SubstApp};
    use cycleq_rewrite::fixtures::nat_list_program;
    use cycleq_term::{Equation, Position, Subst, Term};

    #[test]
    fn refl_node_checks() {
        let p = nat_list_program();
        let mut proof = Preproof::new();
        let id = proof.push_open(Equation::new(Term::sym(p.f.zero), Term::sym(p.f.zero)));
        proof.justify(id, RuleApp::Refl, vec![]);
        let report = check(&proof, &p.prog, GlobalCheck::VariableTraces).unwrap();
        assert_eq!(report.nodes, 1);
        assert_eq!(report.back_edges, 0);
        assert!(report.global_verified);
    }

    #[test]
    fn refl_on_unequal_sides_fails() {
        let p = nat_list_program();
        let mut proof = Preproof::new();
        let id = proof.push_open(Equation::new(Term::sym(p.f.zero), p.f.num(1)));
        proof.justify(id, RuleApp::Refl, vec![]);
        let e = check(&proof, &p.prog, GlobalCheck::VariableTraces).unwrap_err();
        assert_eq!(e.kind, CheckErrorKind::NotReflexive);
    }

    #[test]
    fn open_nodes_are_rejected() {
        let p = nat_list_program();
        let mut proof = Preproof::new();
        proof.push_open(Equation::new(Term::sym(p.f.zero), Term::sym(p.f.zero)));
        let e = check(&proof, &p.prog, GlobalCheck::VariableTraces).unwrap_err();
        assert_eq!(e.kind, CheckErrorKind::OpenNode);
    }

    #[test]
    fn reduce_node_checks() {
        let p = nat_list_program();
        let mut proof = Preproof::new();
        let conc = proof.push_open(Equation::new(
            Term::apps(p.f.add, vec![p.f.num(1), p.f.num(1)]),
            p.f.num(2),
        ));
        let prem = proof.push_open(Equation::new(p.f.num(2), p.f.num(2)));
        proof.justify(prem, RuleApp::Refl, vec![]);
        proof.justify(conc, RuleApp::Reduce, vec![prem]);
        let report = check(&proof, &p.prog, GlobalCheck::VariableTraces).unwrap();
        assert_eq!(report.nodes, 2);
        assert_eq!(report.back_edges, 0);
        assert_eq!(report.reducts_checked, 4);
    }

    #[test]
    fn reduce_to_non_reduct_fails() {
        let p = nat_list_program();
        let mut proof = Preproof::new();
        let conc = proof.push_open(Equation::new(
            Term::apps(p.f.add, vec![p.f.num(1), p.f.num(1)]),
            p.f.num(2),
        ));
        let prem = proof.push_open(Equation::new(p.f.num(3), p.f.num(2)));
        proof.justify(prem, RuleApp::Refl, vec![]); // also bogus, but reached later
        proof.justify(conc, RuleApp::Reduce, vec![prem]);
        let e = check(&proof, &p.prog, GlobalCheck::VariableTraces).unwrap_err();
        assert_eq!(e.kind, CheckErrorKind::NotAReduct);
    }

    #[test]
    fn ill_typed_equations_are_rejected() {
        let p = nat_list_program();
        let mut proof = Preproof::new();
        let id = proof.push_open(Equation::new(Term::sym(p.f.zero), Term::sym(p.f.nil)));
        proof.justify(id, RuleApp::Refl, vec![]);
        let e = check(&proof, &p.prog, GlobalCheck::VariableTraces).unwrap_err();
        assert!(matches!(e.kind, CheckErrorKind::IllTyped(_)));
    }

    #[test]
    fn example_3_2_rejected_globally_but_locally_fine() {
        // The self-justifying preproof from Example 3.2: locally well-formed
        // but globally unsound.
        let p = nat_list_program();
        let mut proof = Preproof::new();
        let x = proof.vars_mut().fresh("x", p.f.nat_ty());
        let xs = proof.vars_mut().fresh("xs", p.f.list_ty(p.f.nat_ty()));
        let lhs = p.f.cons_t(Term::var(x), Term::var(xs));
        let root = proof.push_open(Equation::new(lhs, Term::sym(p.f.nil)));
        let refl = proof.push_open(Equation::new(Term::sym(p.f.nil), Term::sym(p.f.nil)));
        proof.justify(refl, RuleApp::Refl, vec![]);
        let mut theta = Subst::new();
        theta.insert(x, Term::var(x));
        theta.insert(xs, Term::var(xs));
        proof.justify(
            root,
            RuleApp::Subst(SubstApp {
                side: Side::Lhs,
                pos: Position::root(),
                theta,
                lemma_flipped: false,
            }),
            vec![root, refl],
        );
        // Locally fine:
        assert!(check(&proof, &p.prog, GlobalCheck::TrustConstruction).is_ok());
        // Globally rejected:
        let e = check(&proof, &p.prog, GlobalCheck::VariableTraces).unwrap_err();
        assert_eq!(e.kind, CheckErrorKind::GloballyUnsound);
    }

    #[test]
    fn case_split_with_wrong_branch_count_fails() {
        let p = nat_list_program();
        let mut proof = Preproof::new();
        let x = proof.vars_mut().fresh("x", p.f.nat_ty());
        let eq = Equation::new(Term::var(x), Term::var(x));
        let root = proof.push_open(eq.clone());
        let only = proof.push_open(Equation::new(Term::sym(p.f.zero), Term::sym(p.f.zero)));
        proof.justify(only, RuleApp::Refl, vec![]);
        proof.justify(
            root,
            RuleApp::Case {
                var: x,
                branches: vec![CaseBranch {
                    con: p.f.zero,
                    fresh: vec![],
                }],
            },
            vec![only],
        );
        let e = check(&proof, &p.prog, GlobalCheck::VariableTraces).unwrap_err();
        assert!(matches!(e.kind, CheckErrorKind::BadCaseSplit(_)));
    }

    #[test]
    fn valid_case_split_checks() {
        let p = nat_list_program();
        let mut proof = Preproof::new();
        let x = proof.vars_mut().fresh("x", p.f.nat_ty());
        let eq = Equation::new(Term::var(x), Term::var(x));
        let root = proof.push_open(eq.clone());
        let zb = proof.push_open(Equation::new(Term::sym(p.f.zero), Term::sym(p.f.zero)));
        let xp = proof.vars_mut().fresh_distinct("x", p.f.nat_ty(), &[x]);
        let sb = proof.push_open(Equation::new(p.f.s(Term::var(xp)), p.f.s(Term::var(xp))));
        proof.justify(zb, RuleApp::Refl, vec![]);
        proof.justify(sb, RuleApp::Refl, vec![]);
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
        let report = check(&proof, &p.prog, GlobalCheck::VariableTraces).unwrap();
        assert_eq!(report.nodes, 3);
    }

    #[test]
    fn cong_decomposition_checks() {
        let p = nat_list_program();
        let mut proof = Preproof::new();
        let x = proof.vars_mut().fresh("x", p.f.nat_ty());
        let conc = proof.push_open(Equation::new(p.f.s(Term::var(x)), p.f.s(Term::var(x))));
        let prem = proof.push_open(Equation::new(Term::var(x), Term::var(x)));
        proof.justify(prem, RuleApp::Refl, vec![]);
        proof.justify(conc, RuleApp::Cong, vec![prem]);
        assert!(check(&proof, &p.prog, GlobalCheck::VariableTraces).is_ok());
    }

    #[test]
    fn cong_on_defined_heads_fails() {
        let p = nat_list_program();
        let mut proof = Preproof::new();
        let x = proof.vars_mut().fresh("x", p.f.nat_ty());
        let t = Term::apps(p.f.add, vec![Term::var(x), Term::var(x)]);
        let conc = proof.push_open(Equation::new(t.clone(), t.clone()));
        let prem = proof.push_open(Equation::new(Term::var(x), Term::var(x)));
        proof.justify(prem, RuleApp::Refl, vec![]);
        proof.justify(conc, RuleApp::Cong, vec![prem, prem]);
        let e = check(&proof, &p.prog, GlobalCheck::VariableTraces).unwrap_err();
        assert_eq!(e.kind, CheckErrorKind::NotACongruence);
    }
}
