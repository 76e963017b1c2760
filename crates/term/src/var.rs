//! Term variables and the per-proof variable store.
//!
//! Every proof attempt owns a [`VarStore`] that allocates variable ids and
//! records their display names and types. The type environment `Γ` of an
//! equation (§2) is recovered as the free variables of its two sides, with
//! their types looked up in the store.

use crate::types::Type;

/// Identifies a term variable within a [`VarStore`].
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct VarId(u32);

impl VarId {
    /// Builds a `VarId` from a raw index. Only meaningful for ids obtained
    /// from the same store.
    pub fn from_index(i: usize) -> VarId {
        VarId(i as u32)
    }

    /// The raw index of the variable.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

#[derive(Clone, Debug)]
struct VarInfo {
    name: String,
    ty: Type,
}

/// Allocates term variables and records their names and types.
#[derive(Clone, Debug, Default)]
pub struct VarStore {
    vars: Vec<VarInfo>,
}

impl VarStore {
    /// Creates an empty store.
    pub fn new() -> VarStore {
        VarStore::default()
    }

    /// Allocates a fresh variable with the given display name and type.
    pub fn fresh(&mut self, name: &str, ty: Type) -> VarId {
        let id = VarId(self.vars.len() as u32);
        self.vars.push(VarInfo {
            name: name.to_string(),
            ty,
        });
        id
    }

    /// Allocates a fresh variable named `name`, with `'` appended as often
    /// as it takes to differ from the name of every variable in `taken`.
    /// A rule that introduces a variable passes the free variables of the
    /// node it applies to, so that no two variables of a node print alike.
    pub fn fresh_distinct(&mut self, name: &str, ty: Type, taken: &[VarId]) -> VarId {
        let mut name = name.to_string();
        while taken.iter().any(|&v| self.name(v) == name) {
            name.push('\'');
        }
        self.fresh(&name, ty)
    }

    /// The display name of a variable.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this store.
    pub fn name(&self, v: VarId) -> &str {
        &self.vars[v.index()].name
    }

    /// The type of a variable.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this store.
    pub fn ty(&self, v: VarId) -> &Type {
        &self.vars[v.index()].ty
    }

    /// Replaces the type of a variable.
    ///
    /// Used by type inference, which allocates variables with metavariable
    /// placeholders and writes back the solved types.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this store.
    pub fn set_ty(&mut self, v: VarId, ty: Type) {
        self.vars[v.index()].ty = ty;
    }

    /// The number of allocated variables.
    pub fn len(&self) -> usize {
        self.vars.len()
    }

    /// Whether no variables have been allocated.
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }

    /// Iterates over all variables with their ids.
    pub fn iter(&self) -> impl Iterator<Item = (VarId, &str, &Type)> {
        self.vars
            .iter()
            .enumerate()
            .map(|(i, info)| (VarId(i as u32), info.name.as_str(), &info.ty))
    }

    /// Truncates the store back to `len` variables, undoing allocations made
    /// since a checkpoint. Used by backtracking search.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds the current length.
    pub fn truncate(&mut self, len: usize) {
        assert!(len <= self.vars.len(), "cannot truncate VarStore upwards");
        self.vars.truncate(len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::DataId;

    #[test]
    fn fresh_allocates_sequential_ids() {
        let mut vars = VarStore::new();
        let nat = Type::data0(DataId::from_index(0));
        let x = vars.fresh("x", nat.clone());
        let y = vars.fresh("y", nat.clone());
        assert_ne!(x, y);
        assert_eq!(vars.name(x), "x");
        assert_eq!(vars.name(y), "y");
        assert_eq!(vars.ty(x), &nat);
        assert_eq!(vars.len(), 2);
    }

    #[test]
    fn fresh_distinct_primes_past_taken_names() {
        let mut vars = VarStore::new();
        let nat = Type::data0(DataId::from_index(0));
        let x = vars.fresh("x", nat.clone());
        let xp = vars.fresh("x'", nat.clone());
        let y = vars.fresh("y", nat.clone());
        let free = vars.fresh_distinct("z", nat.clone(), &[x, xp]);
        assert_eq!(vars.name(free), "z");
        let clash = vars.fresh_distinct("x'", nat.clone(), &[x, xp, y]);
        assert_eq!(vars.name(clash), "x''");
        // Only the names of `taken` count.
        let untaken = vars.fresh_distinct("x'", nat, &[y]);
        assert_eq!(vars.name(untaken), "x'");
    }

    #[test]
    fn truncate_undoes_allocations() {
        let mut vars = VarStore::new();
        let nat = Type::data0(DataId::from_index(0));
        vars.fresh("x", nat.clone());
        let mark = vars.len();
        vars.fresh("y", nat.clone());
        vars.fresh("z", nat);
        vars.truncate(mark);
        assert_eq!(vars.len(), 1);
    }

    #[test]
    #[should_panic(expected = "cannot truncate VarStore upwards")]
    fn truncate_upwards_panics() {
        let mut vars = VarStore::new();
        vars.truncate(1);
    }
}
