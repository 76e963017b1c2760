//! Classical one-variable structural induction, translated into the cyclic
//! calculus (Appendix C, Example C.1, Figs. 8–9).
//!
//! A traditional proof by structural induction on `x` maps mechanically
//! onto a cyclic proof: `(Case)` on `x` at the root, and each use of the
//! induction hypothesis becomes `(Subst)` with the *root* as the lemma,
//! instantiated by `x ↦ y` for a recursive constructor argument `y`. The
//! resulting cycle has an obvious variable trace (`x, y, x, …`), so the
//! global condition holds by construction. [`structural_induction`] runs no
//! size-change check itself; callers re-check its proofs with
//! `cycleq_proof::check`, as the tests do with variable traces.
//!
//! The point of carrying this translation as a separate, deliberately
//! *restricted* tactic is the paper's motivation in reverse: everything
//! this tactic proves, the full cyclic search proves too, but not vice
//! versa. In particular it fails on the mutual-induction examples of §1,
//! because a fixed scheme over one datatype cannot use the companion
//! lemma about the other — whereas the unrestricted `(Subst)` rule can.

use cycleq_proof::{NodeId, Preproof, RuleApp, Side, SubstApp};
use cycleq_rewrite::{MemoRewriter, Program};
use cycleq_term::{match_term, Equation, Subst, Term, VarId, VarStore};

/// How many induction-hypothesis rewrites one branch path may chain before
/// the branch counts as stuck. Discharge is a fixed recipe, not a search:
/// without a cap the two orientations of the hypothesis can undo each
/// other forever, or each rewrite can grow the goal by one more
/// constructor or function application.
const MAX_IH_STEPS: usize = 4;

/// Why structural induction failed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum InductionError {
    /// The chosen variable is not of datatype type.
    NotADatatype,
    /// A branch goal could not be discharged by reduction, congruence and
    /// induction-hypothesis rewriting alone.
    BranchStuck {
        /// The constructor of the stuck branch.
        constructor: String,
    },
    /// Reduction ran out of fuel.
    Diverged,
}

/// Proves `goal` by structural induction on `var`, returning the cyclic
/// proof and its root.
///
/// The discharge procedure per branch is deliberately weak — normalise,
/// decompose constructors, rewrite with the induction hypothesis
/// (instances `x ↦ y` for the branch's recursive arguments `y`), repeat —
/// mirroring the mechanical translation of Fig. 8 into Fig. 9. A branch
/// path may use the hypothesis only a bounded number of times.
///
/// # Errors
///
/// Returns [`InductionError`] when the fixed scheme does not suffice; the
/// full cyclic search may still succeed.
pub fn structural_induction(
    prog: &Program,
    goal: Equation,
    vars: VarStore,
    var: VarId,
) -> Result<(Preproof, NodeId), InductionError> {
    let mut proof = Preproof::with_vars(vars);
    let vty = proof.vars().ty(var).clone();
    let Some(branches) = proof.fresh_case_branches(&prog.sig, var) else {
        return Err(InductionError::NotADatatype);
    };
    let root = proof.push_open(goal.clone());
    let mut premises = Vec::with_capacity(branches.len());
    let mut recursive_args: Vec<Vec<VarId>> = Vec::with_capacity(branches.len());
    for b in &branches {
        let pattern = Term::apps(b.con, b.fresh.iter().map(|w| Term::var(*w)).collect());
        premises.push(proof.push_open(goal.subst(&Subst::singleton(var, pattern))));
        let rec = b.fresh.iter().filter(|w| *proof.vars().ty(**w) == vty);
        recursive_args.push(rec.copied().collect());
    }
    let cons: Vec<_> = branches.iter().map(|b| b.con).collect();
    proof.justify(root, RuleApp::Case { var, branches }, premises.clone());

    let mut scheme = Scheme {
        prog,
        rw: MemoRewriter::new(&prog.sig, &prog.trs),
        proof,
        root,
        goal,
        var,
    };
    for ((premise, rec), k) in premises.into_iter().zip(recursive_args).zip(cons) {
        scheme.discharge(premise, &rec, 0).map_err(|e| match e {
            DischargeFail::Stuck => InductionError::BranchStuck {
                constructor: prog.sig.sym(k).name().to_string(),
            },
            DischargeFail::Diverged => InductionError::Diverged,
        })?;
    }
    Ok((scheme.proof, root))
}

enum DischargeFail {
    Stuck,
    Diverged,
}

/// One structural induction in progress: the proof so far, its root goal
/// and induction variable, and the rewriter every branch normalises with.
struct Scheme<'a> {
    prog: &'a Program,
    rw: MemoRewriter<'a>,
    proof: Preproof,
    root: NodeId,
    goal: Equation,
    var: VarId,
}

impl Scheme<'_> {
    /// Discharges one subgoal with reduce / refl / cong / IH-rewriting;
    /// `ih_steps` counts the hypothesis rewrites on the path to `node`.
    fn discharge(
        &mut self,
        node: NodeId,
        recursive: &[VarId],
        ih_steps: usize,
    ) -> Result<(), DischargeFail> {
        let eq = self.proof.node(node).eq.clone();
        // Reduce.
        let ln = self.rw.normalize(eq.lhs());
        let rn = self.rw.normalize(eq.rhs());
        if !ln.in_normal_form || !rn.in_normal_form {
            return Err(DischargeFail::Diverged);
        }
        if &ln.term != eq.lhs() || &rn.term != eq.rhs() {
            let child = self.proof.push_open(Equation::new(ln.term, rn.term));
            self.proof.justify(node, RuleApp::Reduce, vec![child]);
            return self.discharge(child, recursive, ih_steps);
        }
        // Refl.
        if eq.is_trivial() {
            self.proof.justify(node, RuleApp::Refl, vec![]);
            return Ok(());
        }
        // Cong.
        if let (Some((k1, _)), Some((k2, _))) = (
            eq.lhs().as_constructor(&self.prog.sig),
            eq.rhs().as_constructor(&self.prog.sig),
        ) {
            if k1 == k2 {
                let n = eq.lhs().args().len();
                let mut premises = Vec::with_capacity(n);
                for i in 0..n {
                    premises.push(self.proof.push_open(Equation::new(
                        eq.lhs().args()[i].clone(),
                        eq.rhs().args()[i].clone(),
                    )));
                }
                self.proof.justify(node, RuleApp::Cong, premises.clone());
                for p in premises {
                    self.discharge(p, recursive, ih_steps)?;
                }
                return Ok(());
            }
        }
        if ih_steps == MAX_IH_STEPS {
            return Err(DischargeFail::Stuck);
        }
        // Induction hypothesis: rewrite an occurrence of goal[y/x] (either
        // side) using the root as lemma.
        for &y in recursive {
            let ih = Subst::singleton(self.var, Term::var(y));
            for flipped in [false, true] {
                let (from_raw, to_raw) = if flipped {
                    (self.goal.rhs(), self.goal.lhs())
                } else {
                    (self.goal.lhs(), self.goal.rhs())
                };
                let from = ih.apply(from_raw);
                if from.as_var().is_some() || from.head_sym().is_none() {
                    continue;
                }
                let to = ih.apply(to_raw);
                if !to.vars().is_subset(&from.vars()) {
                    continue;
                }
                for side in [Side::Lhs, Side::Rhs] {
                    let side_term = side.of(&eq).clone();
                    for (pos, sub) in side_term.positions() {
                        if sub.as_var().is_some() {
                            continue;
                        }
                        let Some(extra) = match_term(&from, sub) else {
                            continue;
                        };
                        // The hypothesis is the goal at `x ↦ y` exactly: a
                        // match that instantiates `y` itself would use the
                        // goal at a term no smaller than `x` (at `y ↦ S y`,
                        // the goal itself) and close a circular proof.
                        if extra.get(y).is_some_and(|t| t.as_var() != Some(y)) {
                            continue;
                        }
                        // Full instantiation of the root: x ↦ y, then
                        // whatever the occurrence demands for the remaining
                        // variables. `then` also copies `extra`'s bindings;
                        // restrict to the root equation's variables.
                        let theta = ih.then(&extra).restricted_to(self.goal.vars());
                        let replacement = extra.apply(&to);
                        if &replacement == sub {
                            continue;
                        }
                        let rewritten = side_term
                            .replace_at(&pos, replacement)
                            .expect("valid position");
                        let cont_eq = match side {
                            Side::Lhs => Equation::new(rewritten, eq.rhs().clone()),
                            Side::Rhs => Equation::new(eq.lhs().clone(), rewritten),
                        };
                        let cont = self.proof.push_open(cont_eq);
                        self.proof.justify(
                            node,
                            RuleApp::Subst(SubstApp {
                                side,
                                pos,
                                theta,
                                lemma_flipped: flipped,
                            }),
                            vec![self.root, cont],
                        );
                        return self.discharge(cont, recursive, ih_steps + 1);
                    }
                }
            }
        }
        Err(DischargeFail::Stuck)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cycleq_proof::{check, GlobalCheck};
    use cycleq_rewrite::fixtures::nat_list_program;

    #[test]
    fn fig9_map_id_by_structural_induction() {
        // Example C.1: map id xs ≈ xs by induction on xs, using the fixture
        // `map` and an identity built from add Z (id is not in the
        // fixture): instead we prove add x Z ≈ x, the canonical Nat case.
        let p = nat_list_program();
        let mut vars = VarStore::new();
        let x = vars.fresh("x", p.f.nat_ty());
        let goal = Equation::new(
            Term::apps(p.f.add, vec![Term::var(x), Term::sym(p.f.zero)]),
            Term::var(x),
        );
        let (proof, _root) = structural_induction(&p.prog, goal, vars, x).unwrap();
        let report = check(&proof, &p.prog, GlobalCheck::VariableTraces).unwrap();
        assert!(report.back_edges >= 1, "the IH forms a cycle");
    }

    #[test]
    fn append_nil_by_induction_on_xs() {
        let p = nat_list_program();
        let mut vars = VarStore::new();
        let xs = vars.fresh("xs", p.f.list_ty(p.f.nat_ty()));
        let goal = Equation::new(
            Term::apps(p.f.app, vec![Term::var(xs), Term::sym(p.f.nil)]),
            Term::var(xs),
        );
        let (proof, _) = structural_induction(&p.prog, goal, vars, xs).unwrap();
        check(&proof, &p.prog, GlobalCheck::VariableTraces).unwrap();
    }

    #[test]
    fn associativity_by_induction_on_first_variable() {
        let p = nat_list_program();
        let mut vars = VarStore::new();
        let x = vars.fresh("x", p.f.nat_ty());
        let y = vars.fresh("y", p.f.nat_ty());
        let z = vars.fresh("z", p.f.nat_ty());
        let goal = Equation::new(
            Term::apps(
                p.f.add,
                vec![
                    Term::apps(p.f.add, vec![Term::var(x), Term::var(y)]),
                    Term::var(z),
                ],
            ),
            Term::apps(
                p.f.add,
                vec![
                    Term::var(x),
                    Term::apps(p.f.add, vec![Term::var(y), Term::var(z)]),
                ],
            ),
        );
        let (proof, _) = structural_induction(&p.prog, goal, vars, x).unwrap();
        check(&proof, &p.prog, GlobalCheck::VariableTraces).unwrap();
    }

    #[test]
    fn commutativity_defeats_plain_structural_induction() {
        // The fixed scheme cannot prove add x y ≈ add y x: the Z branch
        // leaves y ≈ add y Z, which needs a *nested* induction — the cyclic
        // search finds it (Fig. 4), the one-variable scheme does not.
        let p = nat_list_program();
        let mut vars = VarStore::new();
        let x = vars.fresh("x", p.f.nat_ty());
        let y = vars.fresh("y", p.f.nat_ty());
        let goal = Equation::new(
            Term::apps(p.f.add, vec![Term::var(x), Term::var(y)]),
            Term::apps(p.f.add, vec![Term::var(y), Term::var(x)]),
        );
        let err = structural_induction(&p.prog, goal, vars, x).unwrap_err();
        assert!(matches!(err, InductionError::BranchStuck { .. }), "{err:?}");
    }

    #[test]
    fn non_datatype_variables_are_rejected() {
        let p = nat_list_program();
        let mut vars = VarStore::new();
        let f = vars.fresh("f", cycleq_term::Type::arrow(p.f.nat_ty(), p.f.nat_ty()));
        let goal = Equation::new(Term::sym(p.f.zero), Term::sym(p.f.zero));
        assert_eq!(
            structural_induction(&p.prog, goal, vars, f).unwrap_err(),
            InductionError::NotADatatype
        );
    }
}
