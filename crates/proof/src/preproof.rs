//! Cyclic preproofs (Definition 3.1) as a growable, truncatable arena.
//!
//! The arena supports the access patterns of goal-directed search: nodes are
//! pushed as goals are uncovered, justified in place once a rule applies,
//! and popped on backtracking together with the variables they introduced.

use cycleq_term::{Equation, Signature, TermId, VarId, VarStore};

use crate::node::{CaseBranch, Node, NodeId, RuleApp};

/// A cyclic preproof: a set of vertices with equations, rules and premises.
///
/// Cycles are represented directly (Definition 3.1): a premise may reference
/// any vertex, not only descendants.
///
/// The node equations are of type `E`: owned [`Equation`]s, the form every
/// consumer reads, by default. A store-backed builder instead uses
/// [`InternedPreproof`], whose equations are the interned `(lhs, rhs)` ids
/// of their sides relative to the builder's [`cycleq_term::TermStore`], so
/// it builds no owned term per node; [`Preproof::map_equations`] resolves
/// them in one pass over the surviving nodes when the proof leaves the
/// builder. The checker and every other consumer take a
/// `Preproof<Equation>` and re-check the owned terms, so a corrupted store
/// can never make a bad proof pass.
#[derive(Clone, Debug)]
pub struct Preproof<E = Equation> {
    nodes: Vec<Node<E>>,
    vars: VarStore,
}

/// A preproof whose node equations are the interned ids of their two sides:
/// the form the proof search builds (see [`Preproof`]).
pub type InternedPreproof = Preproof<(TermId, TermId)>;

impl<E> Default for Preproof<E> {
    fn default() -> Preproof<E> {
        Preproof::with_vars(VarStore::new())
    }
}

impl Preproof {
    /// An empty preproof.
    pub fn new() -> Preproof {
        Preproof::default()
    }
}

impl<E> Preproof<E> {
    /// A preproof whose variables start from an existing store (e.g. the
    /// goal's variables).
    pub fn with_vars(vars: VarStore) -> Preproof<E> {
        Preproof {
            nodes: Vec::new(),
            vars,
        }
    }

    /// The variable store owning every variable of every node equation.
    pub fn vars(&self) -> &VarStore {
        &self.vars
    }

    /// Mutable access to the variable store (for allocating fresh
    /// variables, e.g. the argument of a `(FunExt)` step with
    /// [`VarStore::fresh_distinct`]; `(Case)` splits use
    /// [`Preproof::fresh_case_branches`]).
    pub fn vars_mut(&mut self) -> &mut VarStore {
        &mut self.vars
    }

    /// Allocates the fresh variables of a `(Case)` split on `var`: one
    /// branch per constructor of `var`'s datatype, in declaration order,
    /// with one fresh variable per constructor argument, named `{var}'`
    /// for a single argument and `{var}'1`, `{var}'2`, … otherwise. A name
    /// that a variable of `taken` (the free variables of the split node's
    /// equation) already has is primed further (see
    /// [`VarStore::fresh_distinct`]).
    ///
    /// Returns `None` (allocating nothing) when `var` is not of datatype
    /// type, and no branches for a datatype without constructors.
    pub fn fresh_case_branches(
        &mut self,
        sig: &Signature,
        var: VarId,
        taken: &[VarId],
    ) -> Option<Vec<CaseBranch>> {
        let ty = self.vars.ty(var).clone();
        let (data, ty_args) = ty.as_data()?;
        let base = self.vars.name(var).to_string();
        let branches = sig
            .constructors_of(data)
            .iter()
            .map(|&con| {
                let inst = sig
                    .sym(con)
                    .scheme()
                    .instantiate_with(ty_args)
                    .expect("constructor scheme arity matches datatype");
                let (arg_tys, _) = inst.uncurry();
                let fresh = arg_tys
                    .iter()
                    .enumerate()
                    .map(|(i, t)| {
                        let name = if arg_tys.len() == 1 {
                            format!("{base}'")
                        } else {
                            format!("{base}'{}", i + 1)
                        };
                        self.vars.fresh_distinct(&name, (*t).clone(), taken)
                    })
                    .collect();
                CaseBranch { con, fresh }
            })
            .collect();
        Some(branches)
    }

    /// Adds an unjustified (open) node for the equation, returning its id.
    pub fn push_open(&mut self, eq: E) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            eq,
            rule: RuleApp::Open,
            premises: Vec::new(),
        });
        id
    }

    /// The same preproof with every node equation converted by `f`, in one
    /// pass in node order; rules, premises and variables are kept. This is
    /// how an [`InternedPreproof`] resolves its sides into owned
    /// equations.
    pub fn map_equations<F>(self, mut f: impl FnMut(E) -> F) -> Preproof<F> {
        Preproof {
            nodes: self
                .nodes
                .into_iter()
                .map(|n| Node {
                    eq: f(n.eq),
                    rule: n.rule,
                    premises: n.premises,
                })
                .collect(),
            vars: self.vars,
        }
    }

    /// Justifies a node with a rule instance and premises.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn justify(&mut self, id: NodeId, rule: RuleApp, premises: Vec<NodeId>) {
        let node = &mut self.nodes[id.index()];
        node.rule = rule;
        node.premises = premises;
    }

    /// Reverts a node to `Open`, dropping its premises (backtracking).
    pub fn reopen(&mut self, id: NodeId) {
        let node = &mut self.nodes[id.index()];
        node.rule = RuleApp::Open;
        node.premises = Vec::new();
    }

    /// The node with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn node(&self, id: NodeId) -> &Node<E> {
        &self.nodes[id.index()]
    }

    /// The number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the preproof has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Iterates over all nodes with their ids.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &Node<E>)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// Whether every node is justified (no `Open` rules).
    pub fn is_closed(&self) -> bool {
        self.nodes.iter().all(|n| !matches!(n.rule, RuleApp::Open))
    }

    /// A checkpoint for [`Preproof::truncate`]: the current node count and
    /// variable count.
    pub fn mark(&self) -> (usize, usize) {
        (self.nodes.len(), self.vars.len())
    }

    /// Pops nodes and variables back to a checkpoint from
    /// [`Preproof::mark`].
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint is in the future.
    pub fn truncate(&mut self, mark: (usize, usize)) {
        assert!(mark.0 <= self.nodes.len(), "preproof mark is in the future");
        self.nodes.truncate(mark.0);
        self.vars.truncate(mark.1);
    }

    /// The underlying graph's edges `(v, premise)` (Definition 3.1).
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes()
            .flat_map(|(id, n)| n.premises.iter().map(move |p| (id, *p)))
    }

    /// Whether the edge `(v, p)` is a *back edge*: its target was created
    /// no later than its source. Cycles in a preproof built by goal-directed
    /// search arise exactly from such edges.
    pub fn is_back_edge(&self, v: NodeId, p: NodeId) -> bool {
        p.index() <= v.index()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cycleq_term::fixtures::NatList;
    use cycleq_term::{Term, VarStore};

    fn trivial_eq(f: &NatList) -> Equation {
        Equation::new(Term::sym(f.zero), Term::sym(f.zero))
    }

    #[test]
    fn push_justify_and_read_back() {
        let f = NatList::new();
        let mut proof = Preproof::new();
        let id = proof.push_open(trivial_eq(&f));
        assert!(!proof.is_closed());
        proof.justify(id, RuleApp::Refl, vec![]);
        assert!(proof.is_closed());
        assert_eq!(proof.node(id).rule.name(), "Refl");
    }

    #[test]
    fn truncate_pops_nodes_and_vars() {
        let f = NatList::new();
        let mut proof = Preproof::new();
        proof.push_open(trivial_eq(&f));
        let mark = proof.mark();
        proof.push_open(trivial_eq(&f));
        proof.vars_mut().fresh("x", f.nat_ty());
        proof.truncate(mark);
        assert_eq!(proof.len(), 1);
        assert_eq!(proof.vars().len(), 0);
    }

    #[test]
    fn reopen_clears_premises() {
        let f = NatList::new();
        let mut proof = Preproof::new();
        let a = proof.push_open(trivial_eq(&f));
        let b = proof.push_open(trivial_eq(&f));
        proof.justify(a, RuleApp::Reduce, vec![b]);
        proof.reopen(a);
        assert!(matches!(proof.node(a).rule, RuleApp::Open));
        assert!(proof.node(a).premises.is_empty());
    }

    #[test]
    fn edges_and_back_edges() {
        let f = NatList::new();
        let mut proof = Preproof::new();
        let a = proof.push_open(trivial_eq(&f));
        let b = proof.push_open(trivial_eq(&f));
        proof.justify(a, RuleApp::Reduce, vec![b]);
        proof.justify(b, RuleApp::Reduce, vec![a]); // cycle
        let edges: Vec<_> = proof.edges().collect();
        assert_eq!(edges, vec![(a, b), (b, a)]);
        assert!(!proof.is_back_edge(a, b));
        assert!(proof.is_back_edge(b, a));
    }

    #[test]
    fn interned_ids_follow_nodes_through_truncate() {
        let f = NatList::new();
        let mut store = cycleq_term::TermStore::new();
        let z = store.intern(&Term::sym(f.zero));
        let sz = store.intern(&f.s(Term::sym(f.zero)));
        let mut proof = InternedPreproof::default();
        let a = proof.push_open((z, z));
        let mark = proof.mark();
        proof.push_open((sz, sz));
        proof.truncate(mark);
        assert_eq!(proof.len(), 1);
        // Re-pushing after truncation reuses the popped slot.
        let c = proof.push_open((z, sz));
        assert_eq!(c.index(), 1);
        proof.justify(a, RuleApp::Reduce, vec![c]);
        assert_eq!(proof.node(c).eq, (z, sz));
        // Resolution keeps ids, rules and premises, node for node.
        let owned = proof.map_equations(|(l, r)| Equation::new(store.resolve(l), store.resolve(r)));
        assert_eq!(owned.node(a).eq, trivial_eq(&f));
        assert_eq!(
            owned.node(c).eq,
            Equation::new(Term::sym(f.zero), f.s(Term::sym(f.zero)))
        );
        assert_eq!(owned.node(a).premises, vec![c]);
        assert!(matches!(owned.node(a).rule, RuleApp::Reduce));
    }

    #[test]
    fn with_vars_adopts_store() {
        let f = NatList::new();
        let mut vars = VarStore::new();
        vars.fresh("x", f.nat_ty());
        let proof: Preproof = Preproof::with_vars(vars);
        assert_eq!(proof.vars().len(), 1);
    }
}
