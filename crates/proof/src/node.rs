//! Proof nodes: equations justified by instances of the inference rules of
//! Fig. 3, plus the implementation's congruence and extensionality rules
//! (§6).

use cycleq_term::{Equation, Position, Subst, SymId, VarId};

/// Identifies a vertex of a [`crate::Preproof`].
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The raw index of the node.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `NodeId` from a raw index. Only meaningful for ids obtained
    /// from the same preproof.
    pub fn from_index(i: usize) -> NodeId {
        NodeId(i as u32)
    }
}

/// Which side of an (internally ordered) equation a rule acted on.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Side {
    /// The stored left-hand side.
    Lhs,
    /// The stored right-hand side.
    Rhs,
}

impl Side {
    /// The other side.
    pub fn flip(self) -> Side {
        match self {
            Side::Lhs => Side::Rhs,
            Side::Rhs => Side::Lhs,
        }
    }

    /// Projects the chosen side of an equation.
    pub fn of(self, eq: &Equation) -> &cycleq_term::Term {
        match self {
            Side::Lhs => eq.lhs(),
            Side::Rhs => eq.rhs(),
        }
    }
}

/// One branch of a `(Case)` application.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CaseBranch {
    /// The constructor for this branch.
    pub con: SymId,
    /// The fresh variables standing for the constructor's arguments.
    pub fresh: Vec<VarId>,
}

/// Details of a `(Subst)` application (the cut, §5).
///
/// The conclusion is `C[Mθ] ≈ P`; the premises are the *lemma* `M ≈ N`
/// (premise 0) and the *continuation* `C[Nθ] ≈ P` (premise 1).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SubstApp {
    /// Which side of the conclusion contains the rewritten occurrence.
    pub side: Side,
    /// The position of the occurrence within that side (the context `C`).
    pub pos: Position,
    /// The matching substitution `θ`.
    pub theta: Subst,
    /// Whether the lemma was used right-to-left (the occurrence matched the
    /// lemma's stored right-hand side). Equations are unordered, so both
    /// orientations are legal (Remark 3.1).
    pub lemma_flipped: bool,
}

/// The inference rule justifying a node, with the data needed to re-check
/// the instance.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RuleApp {
    /// Not yet justified: a frontier goal during search. A preproof
    /// containing `Open` nodes is not checkable.
    Open,
    /// `(Refl)`: both sides are syntactically equal.
    Refl,
    /// `(Reduce)`: the single premise reduces both sides (`M →R* M'`,
    /// `N →R* N'`).
    Reduce,
    /// Congruence: `k M1 … Mn ≈ k N1 … Nn` decomposes into `Mi ≈ Ni`
    /// (derivable from `(Subst)`, applied eagerly by the implementation,
    /// §6).
    Cong,
    /// Function extensionality: `M ≈ N` at arrow type becomes
    /// `M x ≈ N x` for fresh `x` (§6).
    FunExt {
        /// The fresh variable applied to both sides.
        fresh: VarId,
    },
    /// `(Case)`: case analysis on a variable of datatype type; one premise
    /// per constructor.
    Case {
        /// The variable analysed.
        var: VarId,
        /// The branches, in the same order as the premises.
        branches: Vec<CaseBranch>,
    },
    /// `(Subst)`: contextual substitution of equals for equals; premises
    /// are `[lemma, continuation]`.
    Subst(SubstApp),
}

impl RuleApp {
    /// A short name for display.
    pub fn name(&self) -> &'static str {
        match self {
            RuleApp::Open => "Open",
            RuleApp::Refl => "Refl",
            RuleApp::Reduce => "Reduce",
            RuleApp::Cong => "Cong",
            RuleApp::FunExt { .. } => "FunExt",
            RuleApp::Case { .. } => "Case",
            RuleApp::Subst(_) => "Subst",
        }
    }
}

/// A vertex of a preproof: an equation, the rule justifying it, and its
/// premises (Definition 3.1).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Node<E = Equation> {
    /// The equation at this vertex: owned by default, the interned ids of
    /// its sides in an [`InternedPreproof`](crate::InternedPreproof).
    pub eq: E,
    /// The rule instance.
    pub rule: RuleApp,
    /// Premises, in rule order. For `(Subst)` this is `[lemma,
    /// continuation]`; premises may reference *any* vertex (cycles are
    /// formed by referencing earlier nodes).
    pub premises: Vec<NodeId>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use cycleq_term::fixtures::NatList;
    use cycleq_term::{Term, VarStore};

    #[test]
    fn side_projection_and_flip() {
        let f = NatList::new();
        let mut vars = VarStore::new();
        let x = vars.fresh("x", f.nat_ty());
        let eq = Equation::new(Term::var(x), Term::sym(f.zero));
        assert_eq!(Side::Lhs.of(&eq), &Term::var(x));
        assert_eq!(Side::Rhs.of(&eq), &Term::sym(f.zero));
        assert_eq!(Side::Lhs.flip(), Side::Rhs);
    }

    #[test]
    fn rule_names() {
        assert_eq!(RuleApp::Refl.name(), "Refl");
        assert_eq!(RuleApp::Open.name(), "Open");
    }
}
