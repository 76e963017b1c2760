//! Term rewriting systems and programs.

use cycleq_term::{IdHashMap, Signature, SymId, Term, VarStore};

use crate::rule::{freshen, validate, Rule, RuleError, RuleId};

/// A set of rewrite rules `R`, indexed by head symbol.
///
/// The rules' variables live in the `Trs`'s own [`VarStore`], disjoint from
/// goal variables.
#[derive(Clone, Debug, Default)]
pub struct Trs {
    rules: Vec<Rule>,
    by_head: IdHashMap<SymId, Vec<RuleId>>,
    vars: VarStore,
}

impl Trs {
    /// An empty rewrite system.
    pub fn new() -> Trs {
        Trs::default()
    }

    /// The variable store holding rule variables; allocate rule variables
    /// here before building patterns.
    pub fn vars_mut(&mut self) -> &mut VarStore {
        &mut self.vars
    }

    /// The variable store holding rule variables.
    pub fn vars(&self) -> &VarStore {
        &self.vars
    }

    /// Installs the rule `head params… → rhs`.
    ///
    /// # Errors
    ///
    /// Rejects rules violating the shape requirements of §2 (defined head,
    /// constructor patterns, no unbound right-hand variables) and rules
    /// whose arity disagrees with earlier rules for the same symbol.
    pub fn add_rule(
        &mut self,
        sig: &Signature,
        head: SymId,
        params: Vec<Term>,
        rhs: Term,
    ) -> Result<RuleId, RuleError> {
        validate(sig, head, &params, &rhs)?;
        if let Some(ids) = self.by_head.get(&head) {
            if let Some(first) = ids.first() {
                let expected = self.rules[first.index()].params().len();
                if expected != params.len() {
                    return Err(RuleError::ArityMismatch {
                        head,
                        expected,
                        got: params.len(),
                    });
                }
            }
        }
        let id = RuleId(self.rules.len() as u32);
        self.rules.push(Rule::new(head, params, rhs));
        self.by_head.entry(head).or_default().push(id);
        Ok(id)
    }

    /// The rule with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this system.
    pub fn rule(&self, id: RuleId) -> &Rule {
        &self.rules[id.index()]
    }

    /// All rules, in insertion order.
    pub fn rules(&self) -> impl Iterator<Item = (RuleId, &Rule)> {
        self.rules
            .iter()
            .enumerate()
            .map(|(i, r)| (RuleId(i as u32), r))
    }

    /// The rules defining `head`.
    pub fn rules_for(&self, head: SymId) -> &[RuleId] {
        self.by_head.get(&head).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the system has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The number of value arguments rules for `head` expect, if any rules
    /// exist.
    pub fn arity_of(&self, head: SymId) -> Option<usize> {
        self.rules_for(head)
            .first()
            .map(|id| self.rule(*id).params().len())
    }

    /// Renames the rule's variables into `target`, returning fresh
    /// `(params, rhs)` suitable for unification against goal terms.
    pub fn freshen_rule(&self, id: RuleId, target: &mut VarStore) -> (Vec<Term>, Term) {
        let rule = self.rule(id);
        freshen(rule.params(), rule.rhs(), &self.vars, target)
    }
}

/// A program: a signature together with its rewrite system.
///
/// This is the input to every prover in the workspace; the frontend crate
/// lowers source text to a `Program`.
#[derive(Clone, Debug, Default)]
pub struct Program {
    /// The signature (datatypes and symbols).
    pub sig: Signature,
    /// The rewrite rules implementing the defined symbols.
    pub trs: Trs,
}

impl Program {
    /// Creates a program from parts.
    pub fn new(sig: Signature, trs: Trs) -> Program {
        Program { sig, trs }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cycleq_term::fixtures::NatList;

    fn add_rules(f: &NatList) -> Trs {
        let mut trs = Trs::new();
        let y = trs.vars_mut().fresh("y", f.nat_ty());
        trs.add_rule(
            &f.sig,
            f.add,
            vec![Term::sym(f.zero), Term::var(y)],
            Term::var(y),
        )
        .unwrap();
        let x = trs.vars_mut().fresh("x", f.nat_ty());
        let y2 = trs.vars_mut().fresh("y", f.nat_ty());
        trs.add_rule(
            &f.sig,
            f.add,
            vec![f.s(Term::var(x)), Term::var(y2)],
            f.s(Term::apps(f.add, vec![Term::var(x), Term::var(y2)])),
        )
        .unwrap();
        trs
    }

    #[test]
    fn rules_are_indexed_by_head() {
        let f = NatList::new();
        let trs = add_rules(&f);
        assert_eq!(trs.rules_for(f.add).len(), 2);
        assert_eq!(trs.rules_for(f.len).len(), 0);
        assert_eq!(trs.arity_of(f.add), Some(2));
        assert_eq!(trs.arity_of(f.len), None);
    }

    #[test]
    fn arity_mismatch_is_rejected() {
        let f = NatList::new();
        let mut trs = add_rules(&f);
        let err = trs.add_rule(&f.sig, f.add, vec![Term::sym(f.zero)], Term::sym(f.zero));
        assert!(matches!(err, Err(RuleError::ArityMismatch { .. })));
    }

    #[test]
    fn freshen_rule_renames_into_target() {
        let f = NatList::new();
        let trs = add_rules(&f);
        let mut goal_vars = VarStore::new();
        let before = goal_vars.len();
        let (params, rhs) = trs.freshen_rule(RuleId(1), &mut goal_vars);
        assert_eq!(goal_vars.len(), before + 2);
        // All variables in the freshened rule live in the goal store.
        let mut vars = std::collections::BTreeSet::new();
        for p in &params {
            p.collect_vars(&mut vars);
        }
        rhs.collect_vars(&mut vars);
        assert!(vars.iter().all(|v| v.index() < goal_vars.len()));
    }
}
