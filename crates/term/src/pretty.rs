//! Pretty-printing of terms and types against a signature and variable
//! store.

use std::fmt;

use crate::signature::Signature;
use crate::term::{Head, Term};
use crate::types::{TyVarId, Type};
use crate::var::VarStore;

/// Displays a term with symbol and variable names resolved.
///
/// Produced by [`Term::display`].
#[derive(Copy, Clone, Debug)]
pub struct TermDisplay<'a> {
    term: &'a Term,
    sig: &'a Signature,
    vars: &'a VarStore,
}

impl<'a> TermDisplay<'a> {
    pub(crate) fn new(term: &'a Term, sig: &'a Signature, vars: &'a VarStore) -> TermDisplay<'a> {
        TermDisplay { term, sig, vars }
    }
}

fn fmt_term(
    t: &Term,
    sig: &Signature,
    vars: &VarStore,
    parens: bool,
    f: &mut fmt::Formatter<'_>,
) -> fmt::Result {
    let head_name: &str = match t.head() {
        Head::Var(v) => vars.name(v),
        Head::Sym(s) => sig.sym(s).name(),
    };
    if t.args().is_empty() {
        return write!(f, "{head_name}");
    }
    if parens {
        write!(f, "(")?;
    }
    write!(f, "{head_name}")?;
    for a in t.args() {
        write!(f, " ")?;
        fmt_term(a, sig, vars, true, f)?;
    }
    if parens {
        write!(f, ")")?;
    }
    Ok(())
}

impl fmt::Display for TermDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_term(self.term, self.sig, self.vars, false, f)
    }
}

/// Displays a type with datatype names resolved.
///
/// Produced by [`Type::display`].
#[derive(Copy, Clone, Debug)]
pub struct TypeDisplay<'a> {
    ty: &'a Type,
    sig: Option<&'a Signature>,
    metas: &'a [TyVarId],
}

impl Type {
    /// Renders the type against a signature.
    pub fn display<'a>(&'a self, sig: &'a Signature) -> TypeDisplay<'a> {
        TypeDisplay {
            ty: self,
            sig: Some(sig),
            metas: &[],
        }
    }
}

impl<'a> TypeDisplay<'a> {
    /// Renders `ty` with the variables of `metas` named `?a`, `?b`, … by
    /// their position in `metas`, and datatypes by index (`#0`) when there
    /// is no signature.
    pub(crate) fn with_metas(
        ty: &'a Type,
        sig: Option<&'a Signature>,
        metas: &'a [TyVarId],
    ) -> TypeDisplay<'a> {
        TypeDisplay { ty, sig, metas }
    }

    fn fmt_type(&self, ty: &Type, parens: bool, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match ty {
            Type::Var(v) => match self.metas.iter().position(|m| m == v) {
                Some(i) => write!(f, "?{}", TyVarId(i as u32).display_name()),
                None => write!(f, "{}", v.display_name()),
            },
            Type::Data(d, args) => {
                if parens && !args.is_empty() {
                    write!(f, "(")?;
                }
                match self.sig {
                    Some(sig) => write!(f, "{}", sig.data(*d).name())?,
                    None => write!(f, "#{}", d.index())?,
                }
                for a in args {
                    write!(f, " ")?;
                    self.fmt_type(a, true, f)?;
                }
                if parens && !args.is_empty() {
                    write!(f, ")")?;
                }
                Ok(())
            }
            Type::Arrow(a, b) => {
                if parens {
                    write!(f, "(")?;
                }
                self.fmt_type(a, !matches!(a.as_ref(), Type::Var(_) | Type::Data(..)), f)?;
                write!(f, " -> ")?;
                self.fmt_type(b, false, f)?;
                if parens {
                    write!(f, ")")?;
                }
                Ok(())
            }
        }
    }
}

impl fmt::Display for TypeDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_type(self.ty, false, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::NatList;

    #[test]
    fn terms_print_with_minimal_parens() {
        let f = NatList::new();
        let mut vars = VarStore::new();
        let x = vars.fresh("x", f.nat_ty());
        let t = Term::apps(f.add, vec![f.s(Term::var(x)), Term::sym(f.zero)]);
        assert_eq!(t.display(&f.sig, &vars).to_string(), "add (S x) Z");
    }

    #[test]
    fn nullary_heads_have_no_parens() {
        let f = NatList::new();
        let vars = VarStore::new();
        assert_eq!(Term::sym(f.zero).display(&f.sig, &vars).to_string(), "Z");
    }

    #[test]
    fn types_print_arrows_right_associated() {
        let f = NatList::new();
        let ty = Type::arrows(vec![f.nat_ty(), f.nat_ty()], f.nat_ty());
        assert_eq!(ty.display(&f.sig).to_string(), "Nat -> Nat -> Nat");
    }

    #[test]
    fn function_argument_types_are_parenthesised() {
        let f = NatList::new();
        let fun = Type::arrow(f.nat_ty(), f.nat_ty());
        let ty = Type::arrow(fun, f.nat_ty());
        assert_eq!(ty.display(&f.sig).to_string(), "(Nat -> Nat) -> Nat");
    }

    #[test]
    fn applied_datatypes_print_with_arguments() {
        let f = NatList::new();
        let ty = f.list_ty(f.nat_ty());
        assert_eq!(ty.display(&f.sig).to_string(), "List Nat");
        let nested = f.list_ty(f.list_ty(Type::Var(TyVarId(0))));
        assert_eq!(nested.display(&f.sig).to_string(), "List (List a)");
    }
}
