//! Reddy-style rewriting induction (§4) and its translation to cyclic
//! proofs (Theorem 4.3).
//!
//! Rewriting induction manipulates pairs `(E, H)` of goal equations `E` and
//! hypothesis rewrite rules `H` (Fig. 5):
//!
//! - **Delete** removes a trivial equation `M = M`;
//! - **Simplify** rewrites a goal with `R ∪ H`;
//! - **Expand** orients a goal `M = N` by a reduction order (`N < M`),
//!   moves `M → N` into `H`, and replaces the goal by its overlaps with the
//!   program rules (Definition 4.1).
//!
//! The crate both *runs* this procedure (with [`cycleq_rewrite::Lpo`] as
//! the reduction order) and *constructs the corresponding cyclic preproof
//! as it goes*, realising the Theorem 4.3 translation: `Expand` becomes a
//! `(Case)`/`(Reduce)` tree, `Simplify` with a hypothesis becomes `(Subst)`
//! with the hypothesis's own vertex as the lemma, `Simplify` with `R`
//! becomes `(Reduce)`, and `Delete` becomes `(Refl)`.
//!
//! The headline limitation of §4 is demonstrated by
//! [`RiOutcome::FailedToOrient`]: inherently unorientable goals such as the
//! commutativity of addition are rejected, whereas CycleQ's cyclic search
//! proves them outright.
//!
//! # Example
//!
//! ```
//! use cycleq_lang::parse_module;
//! use cycleq_ri::{RiOutcome, RiProver};
//!
//! let m = parse_module(
//!     "data Nat = Z | S Nat
//!      add :: Nat -> Nat -> Nat
//!      add Z y = y
//!      add (S x) y = S (add x y)
//!      goal zeroRight: add x Z === x
//!      goal comm: add x y === add y x",
//! )
//! .unwrap();
//! let prover = RiProver::new(&m.program).unwrap();
//! let zr = m.goal("zeroRight").unwrap().clone();
//! assert!(matches!(prover.prove(zr.eq, zr.vars).outcome, RiOutcome::Proved { .. }));
//! let comm = m.goal("comm").unwrap().clone();
//! assert!(matches!(
//!     prover.prove(comm.eq, comm.vars).outcome,
//!     RiOutcome::FailedToOrient { .. }
//! ));
//! ```

use std::collections::VecDeque;

use cycleq_proof::{NodeId, Preproof, RuleApp, Side, SubstApp};
use cycleq_rewrite::{check_rules_decreasing, Lpo, MemoRewriter, Program, RuleId, TermOrder};
use cycleq_term::{match_term, Equation, Position, Subst, Term, VarId, VarStore};

/// Limits for the rewriting-induction loop.
#[derive(Clone, Debug)]
pub struct RiConfig {
    /// Maximum number of `Expand` applications.
    pub max_expansions: usize,
    /// Maximum number of goal-processing iterations.
    pub max_iterations: usize,
    /// Reduction fuel per normalisation. A `Simplify` normalisation that
    /// runs out of it ends the run with [`RiOutcome::Budget`].
    pub reduction_fuel: usize,
}

impl Default for RiConfig {
    fn default() -> RiConfig {
        RiConfig {
            max_expansions: 64,
            max_iterations: 10_000,
            reduction_fuel: 10_000,
        }
    }
}

/// Counters for a finished run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RiStats {
    /// `Expand` applications.
    pub expansions: usize,
    /// Hypothesis rewrite steps performed during `Simplify`.
    pub hyp_steps: usize,
    /// `Delete` applications.
    pub deletions: usize,
    /// Proof nodes created.
    pub nodes: usize,
}

/// The verdict of a rewriting-induction run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RiOutcome {
    /// All goals discharged; `root` carries the original goal.
    Proved {
        /// The vertex of the original goal in the constructed preproof.
        root: NodeId,
    },
    /// A goal could not be oriented by the reduction order — the inherent
    /// §4 limitation (e.g. commutativity).
    FailedToOrient {
        /// The unorientable goal.
        goal: Equation,
    },
    /// A goal could neither be simplified, deleted, nor expanded.
    Stuck {
        /// The stuck goal.
        goal: Equation,
    },
    /// The expansion or iteration budget ran out, or a normalisation ran
    /// out of [`RiConfig::reduction_fuel`].
    Budget,
}

impl RiOutcome {
    /// Whether the run produced a proof.
    pub fn is_proved(&self) -> bool {
        matches!(self, RiOutcome::Proved { .. })
    }
}

/// The result of a run: verdict, the translated cyclic preproof, and stats.
#[derive(Clone, Debug)]
pub struct RiResult {
    /// The verdict.
    pub outcome: RiOutcome,
    /// The preproof built by the Theorem 4.3 translation (partial on
    /// failure).
    pub proof: Preproof,
    /// Counters.
    pub stats: RiStats,
}

/// A rewriting-induction prover over a program whose rules are orientable
/// by the default LPO.
#[derive(Clone, Debug)]
pub struct RiProver<'a> {
    prog: &'a Program,
    order: Lpo,
    config: RiConfig,
}

/// A hypothesis: an oriented equation `lhs → rhs` together with its proof
/// vertex (the expanded node, used as the `(Subst)` lemma).
#[derive(Clone, Debug)]
struct Hyp {
    lhs: Term,
    rhs: Term,
    node: NodeId,
    flipped: bool,
}

impl<'a> RiProver<'a> {
    /// Creates a prover with the default configuration, verifying that the
    /// program's rules are strictly decreasing under the default LPO (the
    /// precondition for it to be a reduction order for `R`, §4).
    ///
    /// # Errors
    ///
    /// Returns the first rule that is not LPO-decreasing.
    pub fn new(prog: &'a Program) -> Result<RiProver<'a>, RuleId> {
        Self::with_config(prog, RiConfig::default())
    }

    /// As [`RiProver::new`] with an explicit configuration.
    ///
    /// # Errors
    ///
    /// Returns the first rule that is not LPO-decreasing.
    pub fn with_config(prog: &'a Program, config: RiConfig) -> Result<RiProver<'a>, RuleId> {
        let order = Lpo::from_signature(&prog.sig);
        check_rules_decreasing(&prog.trs, &order)?;
        Ok(RiProver {
            prog,
            order,
            config,
        })
    }

    /// Runs rewriting induction on `goal`, building the translated cyclic
    /// preproof along the way.
    pub fn prove(&self, goal: Equation, vars: VarStore) -> RiResult {
        let mut st = RiState {
            prog: self.prog,
            order: &self.order,
            config: &self.config,
            proof: Preproof::with_vars(vars),
            rw: MemoRewriter::new(&self.prog.sig, &self.prog.trs)
                .with_fuel(self.config.reduction_fuel),
            hyps: Vec::new(),
            goals: VecDeque::new(),
            stats: RiStats::default(),
        };
        let root = st.push_node(goal);
        st.goals.push_back(root);
        let outcome = st.run(root);
        RiResult {
            outcome,
            proof: st.proof,
            stats: st.stats,
        }
    }
}

struct RiState<'a> {
    prog: &'a Program,
    order: &'a Lpo,
    config: &'a RiConfig,
    proof: Preproof,
    /// The run's one rewriter. `Simplify` renormalises goals after every
    /// hypothesis step, so its memo table pays off immediately; `Expand`
    /// contracts redexes and finds blocking variables with it.
    rw: MemoRewriter<'a>,
    hyps: Vec<Hyp>,
    goals: VecDeque<NodeId>,
    stats: RiStats,
}

impl<'a> RiState<'a> {
    fn push_node(&mut self, eq: Equation) -> NodeId {
        self.stats.nodes += 1;
        self.proof.push_open(eq)
    }

    fn run(&mut self, root: NodeId) -> RiOutcome {
        let mut iterations = 0;
        while let Some(goal) = self.goals.pop_front() {
            iterations += 1;
            if iterations > self.config.max_iterations {
                return RiOutcome::Budget;
            }
            // (Simplify)*: rewrite with R ∪ H to a normal form, chaining
            // Reduce / Subst nodes.
            let Some(node) = self.simplify(goal) else {
                return RiOutcome::Budget;
            };
            let eq = self.proof.node(node).eq.clone();
            // (Delete).
            if eq.is_trivial() {
                self.stats.deletions += 1;
                self.proof.justify(node, RuleApp::Refl, vec![]);
                continue;
            }
            // (Expand): orient, then case/reduce at a basic position.
            let side = if self.order.gt(eq.lhs(), eq.rhs()) {
                Side::Lhs
            } else if self.order.gt(eq.rhs(), eq.lhs()) {
                Side::Rhs
            } else {
                return RiOutcome::FailedToOrient { goal: eq };
            };
            let (big, small) = match side {
                Side::Lhs => (eq.lhs().clone(), eq.rhs().clone()),
                Side::Rhs => (eq.rhs().clone(), eq.lhs().clone()),
            };
            let Some(pos) = self.expansion_position(&big) else {
                return RiOutcome::Stuck { goal: eq };
            };
            if self.stats.expansions >= self.config.max_expansions {
                return RiOutcome::Budget;
            }
            self.stats.expansions += 1;
            self.hyps.push(Hyp {
                lhs: big,
                rhs: small,
                node,
                flipped: side == Side::Rhs,
            });
            let mut leaves = Vec::new();
            if !self.expand(node, side, &pos, &mut leaves) {
                let eq = self.proof.node(node).eq.clone();
                return RiOutcome::Stuck { goal: eq };
            }
            for leaf in leaves {
                self.goals.push_back(leaf);
            }
        }
        RiOutcome::Proved { root }
    }

    /// The basic position to expand: the first (leftmost-outermost)
    /// defined-head position whose subterm either reduces at the root or is
    /// blocked by a case-analysable variable. Positions blocked only by an
    /// inner redex are skipped — the inner redex appears later in preorder.
    fn expansion_position(&mut self, big: &Term) -> Option<Position> {
        defined_positions(self.prog, big)
            .find(|(_, sub)| {
                let id = self.rw.intern(sub);
                self.rw.step_root_id(id).is_some()
                    || !self.rw.root_case_candidates_id(id).is_empty()
            })
            .map(|(pos, _)| pos)
    }

    /// Normalises a side; `None` when the normalisation runs out of
    /// `reduction_fuel`.
    fn normalize(&mut self, t: &Term) -> Option<Term> {
        let n = self.rw.normalize(t);
        n.in_normal_form.then_some(n.term)
    }

    /// Simplifies the goal node with `R ∪ H`, returning the final node of
    /// the Reduce/Subst chain, or `None` when a normalisation runs out of
    /// fuel.
    fn simplify(&mut self, mut node: NodeId) -> Option<NodeId> {
        loop {
            let eq = self.proof.node(node).eq.clone();
            // Maximal R-normalisation first (memoised across the run).
            let ln = self.normalize(eq.lhs())?;
            let rn = self.normalize(eq.rhs())?;
            if &ln != eq.lhs() || &rn != eq.rhs() {
                let child = self.push_node(Equation::new(ln, rn));
                self.proof.justify(node, RuleApp::Reduce, vec![child]);
                node = child;
                continue;
            }
            // One H step, if any.
            if let Some(next) = self.hyp_step(node, &eq) {
                node = next;
                continue;
            }
            return Some(node);
        }
    }

    /// Performs one hypothesis rewrite on either side, adding a `(Subst)`
    /// node whose lemma is the hypothesis's vertex.
    fn hyp_step(&mut self, node: NodeId, eq: &Equation) -> Option<NodeId> {
        for h in 0..self.hyps.len() {
            let (hl, hr, hnode, hflipped) = {
                let hyp = &self.hyps[h];
                (hyp.lhs.clone(), hyp.rhs.clone(), hyp.node, hyp.flipped)
            };
            for side in [Side::Lhs, Side::Rhs] {
                let side_term = side.of(eq).clone();
                for (pos, sub) in side_term.positions() {
                    if sub.as_var().is_some() {
                        continue;
                    }
                    let Some(theta) = match_term(&hl, sub) else {
                        continue;
                    };
                    let replacement = theta.apply(&hr);
                    if &replacement == sub {
                        continue;
                    }
                    self.stats.hyp_steps += 1;
                    let rewritten = side_term
                        .replace_at(&pos, replacement)
                        .expect("valid position");
                    let cont_eq = match side {
                        Side::Lhs => Equation::new(rewritten, eq.rhs().clone()),
                        Side::Rhs => Equation::new(eq.lhs().clone(), rewritten),
                    };
                    let cont = self.push_node(cont_eq);
                    // The hypothesis rewrites instances of the hyp node's
                    // bigger side; whether that is the node's stored lhs
                    // depends on the orientation chosen at Expand time.
                    self.proof.justify(
                        node,
                        RuleApp::Subst(SubstApp {
                            side,
                            pos,
                            theta,
                            lemma_flipped: hflipped,
                        }),
                        vec![hnode, cont],
                    );
                    return Some(cont);
                }
            }
        }
        None
    }

    /// Builds the `(Case)`/`(Reduce)` tree realising `Expand` at `pos` of
    /// `side`, collecting the expanded leaves. Returns `false` when a stuck
    /// subterm has no case-analysable blocking variable.
    fn expand(
        &mut self,
        node: NodeId,
        side: Side,
        pos: &Position,
        leaves: &mut Vec<NodeId>,
    ) -> bool {
        let eq = self.proof.node(node).eq.clone();
        let side_term = side.of(&eq).clone();
        let sub = self.rw.intern(side_term.at(pos).expect("valid position"));
        if let Some(reduct) = self.rw.step_root_id(sub) {
            // Reducible: one (Reduce) step at the expansion position.
            let reduct = self.rw.resolve(reduct);
            let stepped = side_term.replace_at(pos, reduct).expect("valid position");
            let child_eq = match side {
                Side::Lhs => Equation::new(stepped, eq.rhs().clone()),
                Side::Rhs => Equation::new(eq.lhs().clone(), stepped),
            };
            let child = self.push_node(child_eq);
            self.proof.justify(node, RuleApp::Reduce, vec![child]);
            leaves.push(child);
            return true;
        }
        // Stuck: case split on the first variable blocking the root.
        let Some(&v) = self.rw.root_case_candidates_id(sub).first() else {
            return false;
        };
        let taken: Vec<VarId> = eq.vars().into_iter().collect();
        let Some(branches) = self.proof.fresh_case_branches(&self.prog.sig, v, &taken) else {
            return false;
        };
        let mut premises = Vec::with_capacity(branches.len());
        for b in &branches {
            let pattern = Term::apps(b.con, b.fresh.iter().map(|w| Term::var(*w)).collect());
            let branch_eq = eq.subst(&Subst::singleton(v, pattern));
            premises.push(self.push_node(branch_eq));
        }
        self.proof
            .justify(node, RuleApp::Case { var: v, branches }, premises.clone());
        premises
            .into_iter()
            .all(|p| self.expand(p, side, pos, leaves))
    }
}

/// The positions of `t` whose subterm is headed by a fully applied defined
/// symbol (redex candidates, reducible or stuck), in preorder.
fn defined_positions<'t>(
    prog: &'t Program,
    t: &'t Term,
) -> impl Iterator<Item = (Position, &'t Term)> + 't {
    t.positions().filter(|(_, sub)| {
        sub.head_sym().is_some_and(|h| {
            prog.sig.is_defined(h) && prog.trs.arity_of(h) == Some(sub.args().len())
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cycleq_lang::parse_module;
    use cycleq_proof::{check, GlobalCheck};

    const NAT: &str = "data Nat = Z | S Nat
add :: Nat -> Nat -> Nat
add Z y = y
add (S x) y = S (add x y)
";

    fn run(src: &str, goal: &str) -> (RiResult, cycleq_lang::Module) {
        let m = parse_module(src).unwrap();
        let g = m.goal(goal).unwrap().clone();
        let prover = RiProver::new(&m.program).unwrap();
        let res = prover.prove(g.eq, g.vars);
        (res, m)
    }

    #[test]
    fn proves_add_zero_right() {
        let src = format!("{NAT}goal zr: add x Z === x\n");
        let (res, m) = run(&src, "zr");
        assert!(res.outcome.is_proved(), "{:?}", res.outcome);
        assert!(res.stats.expansions >= 1);
        assert!(res.stats.hyp_steps >= 1, "the IH must be used");
        // Locally well-formed by construction.
        check(&res.proof, &m.program, GlobalCheck::TrustConstruction).unwrap();
        // For this structural proof, variable traces also verify.
        check(&res.proof, &m.program, GlobalCheck::VariableTraces).unwrap();
    }

    #[test]
    fn proves_add_succ_right() {
        let src = format!("{NAT}goal sr: add x (S y) === S (add x y)\n");
        let (res, m) = run(&src, "sr");
        assert!(res.outcome.is_proved(), "{:?}", res.outcome);
        check(&res.proof, &m.program, GlobalCheck::TrustConstruction).unwrap();
    }

    #[test]
    fn proves_associativity() {
        let src = format!("{NAT}goal assoc: add (add x y) z === add x (add y z)\n");
        let (res, m) = run(&src, "assoc");
        assert!(res.outcome.is_proved(), "{:?}", res.outcome);
        check(&res.proof, &m.program, GlobalCheck::TrustConstruction).unwrap();
    }

    #[test]
    fn commutativity_fails_to_orient() {
        // The §4 limitation: x + y ≈ y + x is inherently unorientable.
        let src = format!("{NAT}goal comm: add x y === add y x\n");
        let (res, _) = run(&src, "comm");
        assert!(
            matches!(res.outcome, RiOutcome::FailedToOrient { .. }),
            "{:?}",
            res.outcome
        );
    }

    #[test]
    fn proves_list_append_nil() {
        let src = "data List a = Nil | Cons a (List a)
app :: List a -> List a -> List a
app Nil ys = ys
app (Cons x xs) ys = Cons x (app xs ys)
goal nilRight: app xs Nil === xs
";
        let (res, m) = run(src, "nilRight");
        assert!(res.outcome.is_proved(), "{:?}", res.outcome);
        check(&res.proof, &m.program, GlobalCheck::TrustConstruction).unwrap();
        check(&res.proof, &m.program, GlobalCheck::VariableTraces).unwrap();
    }

    #[test]
    fn trivial_goals_delete_immediately() {
        let src = format!("{NAT}goal triv: add x y === add x y\n");
        let (res, _) = run(&src, "triv");
        assert!(res.outcome.is_proved());
        assert_eq!(res.stats.expansions, 0);
        assert_eq!(res.stats.deletions, 1);
    }

    #[test]
    fn ground_goals_reduce_and_delete() {
        let src = format!("{NAT}goal two: add (S Z) (S Z) === S (S Z)\n");
        let (res, m) = run(&src, "two");
        assert!(res.outcome.is_proved());
        assert_eq!(res.stats.expansions, 0);
        check(&res.proof, &m.program, GlobalCheck::VariableTraces).unwrap();
    }

    #[test]
    fn defined_positions_requires_saturation() {
        let m = parse_module(NAT).unwrap();
        let sig = &m.program.sig;
        let add = sig.sym_by_name("add").unwrap();
        let zero = Term::sym(sig.sym_by_name("Z").unwrap());
        let partial = Term::apps(add, vec![zero.clone()]);
        assert_eq!(defined_positions(&m.program, &partial).count(), 0);
        let full = Term::apps(add, vec![zero.clone(), zero]);
        assert_eq!(defined_positions(&m.program, &full).count(), 1);
    }

    #[test]
    fn running_out_of_reduction_fuel_is_a_budget_failure() {
        // `add (S Z) (S Z)` needs two contractions, one more than the fuel
        // allows: the run stops instead of chaining partial reducts.
        let src = format!("{NAT}goal two: add (S Z) (S Z) === S (S Z)\n");
        let m = parse_module(&src).unwrap();
        let g = m.goal("two").unwrap().clone();
        let config = RiConfig {
            reduction_fuel: 1,
            ..RiConfig::default()
        };
        let prover = RiProver::with_config(&m.program, config).unwrap();
        let res = prover.prove(g.eq, g.vars);
        assert_eq!(res.outcome, RiOutcome::Budget);
    }

    #[test]
    fn budget_is_respected() {
        let src = format!("{NAT}goal zr: add x Z === x\n");
        let m = parse_module(&src).unwrap();
        let g = m.goal("zr").unwrap().clone();
        let run = |max_expansions| {
            let config = RiConfig {
                max_expansions,
                ..RiConfig::default()
            };
            let prover = RiProver::with_config(&m.program, config).unwrap();
            prover.prove(g.eq.clone(), g.vars.clone())
        };
        // No expansion is allowed, so none happens.
        let res = run(0);
        assert_eq!(res.outcome, RiOutcome::Budget);
        assert_eq!(res.stats.expansions, 0);
        // `zr` needs exactly one expansion (of `add x Z` on `x`).
        let res = run(1);
        assert!(matches!(res.outcome, RiOutcome::Proved { .. }), "{res:?}");
        assert_eq!(res.stats.expansions, 1);
    }
}
