//! Rewrite rules `f M0 … Mn → N` (§2).
//!
//! The left-hand side head must be a defined symbol, its arguments must be
//! patterns (no defined symbols), both sides must be of datatype type, and
//! every variable of the right-hand side must occur on the left. These
//! invariants are checked when a rule is added to a [`crate::Trs`].

use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;

use cycleq_term::{Signature, Subst, SymId, Term, VarId, VarStore};

/// Identifies a rule within a [`crate::Trs`].
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RuleId(pub(crate) u32);

impl RuleId {
    /// The raw index of the rule.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A rewrite rule `head params… → rhs`.
///
/// Rule variables are drawn from the owning [`crate::Trs`]'s variable store,
/// a namespace disjoint from any goal's variables. Reduction only ever
/// matches rule patterns *against* goal terms (one-sided), so no renaming is
/// needed; code that must rename rules apart (critical pairs, the overlap
/// fixes of `cycleq_analysis`) does so explicitly, e.g. via
/// [`crate::Trs::freshen_rule`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Rule {
    head: SymId,
    params: Vec<Term>,
    rhs: Term,
}

impl Rule {
    pub(crate) fn new(head: SymId, params: Vec<Term>, rhs: Term) -> Rule {
        Rule { head, params, rhs }
    }

    /// The defined symbol the rule rewrites.
    pub fn head(&self) -> SymId {
        self.head
    }

    /// The argument patterns `M0 … Mn`.
    pub fn params(&self) -> &[Term] {
        &self.params
    }

    /// The right-hand side.
    pub fn rhs(&self) -> &Term {
        &self.rhs
    }

    /// The full left-hand side term `f M0 … Mn`.
    pub fn lhs_term(&self) -> Term {
        Term::apps(self.head, self.params.to_vec())
    }

    /// The variables of the left-hand side.
    pub fn lhs_vars(&self) -> BTreeSet<VarId> {
        let mut acc = BTreeSet::new();
        for p in &self.params {
            p.collect_vars(&mut acc);
        }
        acc
    }

    /// Whether the left-hand side is linear (no repeated variables).
    pub fn is_left_linear(&self) -> bool {
        fn count(t: &Term, seen: &mut BTreeSet<VarId>) -> bool {
            if let Some(v) = t.head_var() {
                if !seen.insert(v) {
                    return false;
                }
            }
            t.args().iter().all(|a| count(a, seen))
        }
        let mut seen = BTreeSet::new();
        self.params.iter().all(|p| count(p, &mut seen))
    }

    /// Applies the rule at the root of `subject` if it matches, returning
    /// the contractum. A subject with more arguments than the rule's
    /// patterns contracts its prefix and keeps the remaining arguments
    /// applied to the contractum.
    pub fn apply_root(&self, subject: &Term) -> Option<Term> {
        let arity = self.params.len();
        if subject.head_sym() != Some(self.head) || subject.args().len() < arity {
            return None;
        }
        let mut theta = Subst::new();
        for (p, s) in self.params.iter().zip(subject.args()) {
            let bound = cycleq_term::match_term(p, s)?;
            // Merge, requiring agreement for non-linear patterns.
            for (v, t) in bound.iter() {
                match theta.get(v) {
                    Some(prev) if prev != t => return None,
                    Some(_) => {}
                    None => {
                        theta.insert(v, t.clone());
                    }
                }
            }
        }
        Some(
            theta
                .apply(&self.rhs)
                .apply_args(subject.args()[arity..].iter().cloned()),
        )
    }
}

/// Errors raised when installing a rule into a [`crate::Trs`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RuleError {
    /// The left-hand head is not a defined symbol.
    HeadNotDefined,
    /// A left-hand argument contains a defined symbol (not a pattern).
    DefinedSymbolInPattern,
    /// The right-hand side uses a variable not bound on the left.
    UnboundRhsVariable(VarId),
    /// The left-hand side applies the head to a number of arguments
    /// incompatible with previous rules for the same symbol.
    ArityMismatch {
        /// The head symbol.
        head: SymId,
        /// Arity used by earlier rules.
        expected: usize,
        /// Arity of the offending rule.
        got: usize,
    },
}

impl fmt::Display for RuleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuleError::HeadNotDefined => write!(f, "rule head must be a defined symbol"),
            RuleError::DefinedSymbolInPattern => {
                write!(f, "rule patterns must not contain defined symbols")
            }
            RuleError::UnboundRhsVariable(v) => {
                write!(
                    f,
                    "right-hand side variable v{} is not bound on the left",
                    v.index()
                )
            }
            RuleError::ArityMismatch { expected, got, .. } => {
                write!(
                    f,
                    "rule arity {got} disagrees with earlier rules' arity {expected}"
                )
            }
        }
    }
}

impl Error for RuleError {}

pub(crate) fn validate(
    sig: &Signature,
    head: SymId,
    params: &[Term],
    rhs: &Term,
) -> Result<(), RuleError> {
    if !sig.is_defined(head) {
        return Err(RuleError::HeadNotDefined);
    }
    for p in params {
        if p.contains_defined(sig) {
            return Err(RuleError::DefinedSymbolInPattern);
        }
    }
    let mut lhs_vars = BTreeSet::new();
    for p in params {
        p.collect_vars(&mut lhs_vars);
    }
    let rhs_vars = rhs.vars();
    if let Some(v) = rhs_vars.difference(&lhs_vars).next() {
        return Err(RuleError::UnboundRhsVariable(*v));
    }
    Ok(())
}

/// Renames the variables of `params`/`rhs` into `target`, returning the
/// renamed pair. Used to freshen rules before unification.
pub(crate) fn freshen(
    params: &[Term],
    rhs: &Term,
    rule_vars: &VarStore,
    target: &mut VarStore,
) -> (Vec<Term>, Term) {
    let mut renaming = Subst::new();
    let mut all_vars = BTreeSet::new();
    for p in params {
        p.collect_vars(&mut all_vars);
    }
    rhs.collect_vars(&mut all_vars);
    for v in all_vars {
        let fresh = target.fresh(rule_vars.name(v), rule_vars.ty(v).clone());
        renaming.insert(v, Term::var(fresh));
    }
    (
        params.iter().map(|p| renaming.apply(p)).collect(),
        renaming.apply(rhs),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cycleq_term::fixtures::NatList;

    #[test]
    fn apply_root_rewrites_matching_terms() {
        let f = NatList::new();
        let mut rule_vars = VarStore::new();
        let y = rule_vars.fresh("y", f.nat_ty());
        // add Z y → y
        let rule = Rule::new(f.add, vec![Term::sym(f.zero), Term::var(y)], Term::var(y));
        let subject = Term::apps(f.add, vec![Term::sym(f.zero), f.num(2)]);
        assert_eq!(rule.apply_root(&subject), Some(f.num(2)));
    }

    #[test]
    fn apply_root_fails_on_constructor_clash() {
        let f = NatList::new();
        let mut rule_vars = VarStore::new();
        let y = rule_vars.fresh("y", f.nat_ty());
        let rule = Rule::new(f.add, vec![Term::sym(f.zero), Term::var(y)], Term::var(y));
        let subject = Term::apps(f.add, vec![f.num(1), f.num(2)]);
        assert_eq!(rule.apply_root(&subject), None);
    }

    #[test]
    fn apply_root_fails_on_partial_application() {
        let f = NatList::new();
        let mut rule_vars = VarStore::new();
        let y = rule_vars.fresh("y", f.nat_ty());
        let rule = Rule::new(f.add, vec![Term::sym(f.zero), Term::var(y)], Term::var(y));
        let subject = Term::apps(f.add, vec![Term::sym(f.zero)]);
        assert_eq!(rule.apply_root(&subject), None);
    }

    #[test]
    fn apply_root_contracts_the_prefix_of_an_over_application() {
        let f = NatList::new();
        let mut rule_vars = VarStore::new();
        let g = rule_vars.fresh("g", cycleq_term::Type::arrow(f.nat_ty(), f.nat_ty()));
        // `add g → g` stands in for a clause with fewer patterns than its
        // type has arrows (`Rule::new` checks no types).
        let rule = Rule::new(f.add, vec![Term::var(g)], Term::var(g));
        let subject = Term::apps(f.add, vec![Term::sym(f.succ), Term::sym(f.zero)]);
        assert_eq!(rule.apply_root(&subject), Some(f.num(1)));
    }

    #[test]
    fn nonlinear_rule_requires_equal_arguments() {
        let f = NatList::new();
        let mut rule_vars = VarStore::new();
        let x = rule_vars.fresh("x", f.nat_ty());
        // eq-style rule: both params the same variable.
        let rule = Rule::new(f.add, vec![Term::var(x), Term::var(x)], Term::var(x));
        assert!(!rule.is_left_linear());
        let same = Term::apps(f.add, vec![f.num(1), f.num(1)]);
        let diff = Term::apps(f.add, vec![f.num(1), f.num(2)]);
        assert!(rule.apply_root(&same).is_some());
        assert!(rule.apply_root(&diff).is_none());
    }

    #[test]
    fn validate_rejects_defined_symbols_in_patterns() {
        let f = NatList::new();
        let mut rule_vars = VarStore::new();
        let y = rule_vars.fresh("y", f.nat_ty());
        let bad = Term::apps(f.add, vec![Term::sym(f.zero), Term::var(y)]);
        assert_eq!(
            validate(&f.sig, f.add, &[bad], &Term::var(y)),
            Err(RuleError::DefinedSymbolInPattern)
        );
    }

    #[test]
    fn validate_rejects_unbound_rhs_vars() {
        let f = NatList::new();
        let mut rule_vars = VarStore::new();
        let y = rule_vars.fresh("y", f.nat_ty());
        assert_eq!(
            validate(&f.sig, f.add, &[Term::sym(f.zero)], &Term::var(y)),
            Err(RuleError::UnboundRhsVariable(y))
        );
    }

    #[test]
    fn validate_rejects_constructor_heads() {
        let f = NatList::new();
        assert_eq!(
            validate(&f.sig, f.zero, &[], &Term::sym(f.zero)),
            Err(RuleError::HeadNotDefined)
        );
    }
}
