//! Name resolution, type checking and lowering of raw declarations to a
//! [`Program`] plus goal equations.
//!
//! Clauses are checked against their declared signatures with *rigid*
//! quantified variables: a clause may not force a signature variable to a
//! concrete type (otherwise rewriting at other instances would be
//! ill-typed). Clause patterns take their types from the signature: each
//! is checked top-down against its declared argument type, so a pattern
//! variable gets its type without inference. The right-hand side is
//! inferred, since a polymorphic callee needs metavariables, and then
//! unified with the declared result type. Goal variables are implicitly
//! universally quantified; their types are inferred and residual
//! metavariables are generalised to fresh rigid type variables
//! (polymorphic goals such as `map id xs === xs`).

use std::collections::{HashMap, HashSet};

use cycleq_rewrite::{Program, RuleId, Trs};
use cycleq_term::{
    Equation, Signature, Subst, SymId, SymKind, Term, TyUnifier, TyVarId, Type, TypeError, VarId,
    VarStore,
};

use crate::ast::{Decl, RawTerm, RawType};
use crate::error::{LangError, LangErrorKind};

/// Type-variable ids at or above this value are inference metavariables.
const META_FLOOR: u32 = 100_000;

/// A named goal: an equation together with the store owning its variables.
#[derive(Clone, Debug)]
pub struct GoalDef {
    /// The goal's name.
    pub name: String,
    /// The equation to prove.
    pub eq: Equation,
    /// The store holding the goal's variables and their types.
    pub vars: VarStore,
    /// Source line of the declaration.
    pub line: u32,
}

impl GoalDef {
    /// Renames the goal's variables into `target`, returning the renamed
    /// equation. Used to import one goal as a hint lemma for another.
    pub fn rename_into(&self, target: &mut VarStore) -> Equation {
        let mut renaming = Subst::new();
        for (v, name, ty) in self.vars.iter() {
            let w = target.fresh(name, ty.clone());
            renaming.insert(v, Term::var(w));
        }
        self.eq.subst(&renaming)
    }
}

/// A lowered module: the program and its goals, plus the source map that
/// survives lowering (clause lines per rule, declaration lines per name)
/// so downstream diagnostics can point at the offending source line.
#[derive(Clone, Debug)]
pub struct Module {
    /// The signature and rewrite rules.
    pub program: Program,
    /// Goals in declaration order.
    pub goals: Vec<GoalDef>,
    /// Source line of the clause that produced each rule, indexed by
    /// [`RuleId`] (rules are numbered in declaration order).
    pub rule_lines: Vec<u32>,
    /// Declaration line per name: datatypes, constructors (at their `data`
    /// line) and function signatures.
    pub decl_lines: HashMap<String, u32>,
}

impl Module {
    /// Looks up a goal by name.
    pub fn goal(&self, name: &str) -> Option<&GoalDef> {
        self.goals.iter().find(|g| g.name == name)
    }

    /// The source line of the clause that produced `rule`, when known
    /// (rules added programmatically, outside the frontend, have none).
    pub fn rule_line(&self, rule: RuleId) -> Option<u32> {
        self.rule_lines.get(rule.index()).copied()
    }

    /// The declaration line of a datatype, constructor or function
    /// signature.
    pub fn decl_line(&self, name: &str) -> Option<u32> {
        self.decl_lines.get(name).copied()
    }
}

/// A type error at `line`, its types named against `sig`.
fn type_error(line: u32, sig: &Signature, e: &TypeError) -> LangError {
    LangError::new(line, LangErrorKind::Type(e.display(sig).to_string()))
}

fn type_spine(raw: &RawType) -> (&RawType, Vec<&RawType>) {
    let mut args = Vec::new();
    let mut cur = raw;
    while let RawType::App(f, a) = cur {
        args.push(a.as_ref());
        cur = f.as_ref();
    }
    args.reverse();
    (cur, args)
}

/// Resolves a raw type; lowercase identifiers are looked up in `tyvars`
/// (inserting fresh ids when `implicit` is set).
fn resolve_type(
    raw: &RawType,
    sig: &Signature,
    tyvars: &mut HashMap<String, TyVarId>,
    implicit: bool,
    line: u32,
) -> Result<Type, LangError> {
    match raw {
        RawType::Arrow(a, b) => Ok(Type::arrow(
            resolve_type(a, sig, tyvars, implicit, line)?,
            resolve_type(b, sig, tyvars, implicit, line)?,
        )),
        _ => {
            let (head, args) = type_spine(raw);
            match head {
                RawType::Ident(n) if n.chars().next().is_some_and(char::is_uppercase) => {
                    let data = sig
                        .data_by_name(n)
                        .ok_or_else(|| LangError::new(line, LangErrorKind::Unknown(n.clone())))?;
                    let arity = sig.data(data).arity() as usize;
                    if args.len() != arity {
                        return Err(LangError::new(
                            line,
                            LangErrorKind::Type(format!(
                                "`{n}` expects {arity} type argument(s), got {}",
                                args.len()
                            )),
                        ));
                    }
                    let mut targs = Vec::with_capacity(args.len());
                    for a in args {
                        targs.push(resolve_type(a, sig, tyvars, implicit, line)?);
                    }
                    Ok(Type::Data(data, targs))
                }
                RawType::Ident(n) => {
                    if !args.is_empty() {
                        return Err(LangError::new(
                            line,
                            LangErrorKind::Type(format!("type variable `{n}` cannot be applied")),
                        ));
                    }
                    match tyvars.get(n) {
                        Some(v) => Ok(Type::Var(*v)),
                        None if implicit => {
                            let v = TyVarId(tyvars.len() as u32);
                            tyvars.insert(n.clone(), v);
                            Ok(Type::Var(v))
                        }
                        None => Err(LangError::new(line, LangErrorKind::Unknown(n.clone()))),
                    }
                }
                RawType::Arrow(..) => {
                    // `(a -> b) c` — an applied arrow; reject.
                    Err(LangError::new(
                        line,
                        LangErrorKind::Type("function types cannot be applied".into()),
                    ))
                }
                RawType::App(..) => unreachable!("spine flattens applications"),
            }
        }
    }
}

/// Builds a term from raw syntax. `env` maps bound variable names;
/// `make_var` (when set) creates variables for unknown lowercase names
/// (goal mode). Resolution errors point at the offending identifier's own
/// source line.
fn build_term(
    raw: &RawTerm,
    sig: &Signature,
    env: &mut HashMap<String, VarId>,
    vars: &mut VarStore,
    uni: &mut TyUnifier,
    implicit_vars: bool,
) -> Result<Term, LangError> {
    let (head, raw_args) = raw.spine();
    let mut args = Vec::with_capacity(raw_args.len());
    for a in raw_args {
        args.push(build_term(a, sig, env, vars, uni, implicit_vars)?);
    }
    let RawTerm::Ident(name, iline) = head else {
        unreachable!("spine flattens applications")
    };
    let iline = *iline;
    if name.chars().next().is_some_and(char::is_uppercase) {
        let sym = sig
            .sym_by_name(name)
            .ok_or_else(|| LangError::new(iline, LangErrorKind::Unknown(name.clone())))?;
        return Ok(Term::apps(sym, args));
    }
    // Lowercase: bound variable shadows defined symbol.
    if let Some(v) = env.get(name) {
        return Ok(Term::from_parts(cycleq_term::Head::Var(*v), args));
    }
    if let Some(sym) = sig.sym_by_name(name) {
        return Ok(Term::apps(sym, args));
    }
    if implicit_vars {
        let v = vars.fresh(name, Type::Var(uni.fresh()));
        env.insert(name.clone(), v);
        return Ok(Term::from_parts(cycleq_term::Head::Var(v), args));
    }
    Err(LangError::new(iline, LangErrorKind::Unknown(name.clone())))
}

/// Checks a clause pattern against the type `want`, allocating its
/// variables at the types they are checked against and enforcing linearity
/// and constructor arity. A constructor at its own datatype is
/// instantiated with the datatype's arguments, so its sub-patterns are
/// checked against declared types. Anywhere else it is instantiated with
/// fresh metavariables. Either way its result type is unified with `want`
/// after its sub-patterns; in the second case that fails, or binds a
/// rigid variable, which the clause's rigidity check then reports. Type
/// errors point at the clause's `line`.
fn check_pattern(
    raw: &RawTerm,
    want: &Type,
    sig: &Signature,
    env: &mut HashMap<String, VarId>,
    vars: &mut VarStore,
    uni: &mut TyUnifier,
    line: u32,
) -> Result<Term, LangError> {
    let (head, raw_args) = raw.spine();
    let RawTerm::Ident(name, iline) = head else {
        unreachable!("spine flattens applications")
    };
    let iline = *iline;
    if !name.chars().next().is_some_and(char::is_uppercase) {
        if !raw_args.is_empty() {
            return Err(LangError::new(
                iline,
                LangErrorKind::Rule("pattern variables cannot be applied".into()),
            ));
        }
        if env.contains_key(name) {
            return Err(LangError::new(
                iline,
                LangErrorKind::NonLinearPattern(name.clone()),
            ));
        }
        let v = vars.fresh(name, want.clone());
        env.insert(name.clone(), v);
        return Ok(Term::var(v));
    }
    let sym = sig
        .sym_by_name(name)
        .ok_or_else(|| LangError::new(iline, LangErrorKind::Unknown(name.clone())))?;
    let decl = sig.sym(sym);
    let SymKind::Constructor(data) = decl.kind() else {
        return Err(LangError::new(
            iline,
            LangErrorKind::Rule(format!("`{name}` is not a constructor")),
        ));
    };
    let arity = sig.constructor_arity(sym);
    if raw_args.len() != arity {
        return Err(LangError::new(
            iline,
            LangErrorKind::PatternArity {
                constructor: name.clone(),
                expected: arity,
                got: raw_args.len(),
            },
        ));
    }
    let instance = match want {
        Type::Data(d, targs) if *d == data => decl
            .scheme()
            .instantiate_with(targs)
            .map_err(|e| type_error(line, sig, &e))?,
        _ => decl.scheme().instantiate(&mut || uni.fresh()),
    };
    let mut ty = &instance;
    let mut args = Vec::with_capacity(raw_args.len());
    for a in raw_args {
        let Type::Arrow(arg_ty, rest) = ty else {
            unreachable!("arity checked above")
        };
        args.push(check_pattern(a, arg_ty, sig, env, vars, uni, line)?);
        ty = rest;
    }
    uni.unify(ty, want).map_err(|e| type_error(line, sig, &e))?;
    Ok(Term::apps(sym, args))
}

/// Rewrites residual metavariables in `ty` to canonical rigid variables,
/// recording the renaming in `canon`.
fn generalize(ty: &Type, canon: &mut HashMap<TyVarId, TyVarId>) -> Type {
    match ty {
        Type::Var(v) if v.0 >= META_FLOOR => {
            let next = TyVarId(canon.len() as u32);
            Type::Var(*canon.entry(*v).or_insert(next))
        }
        Type::Var(v) => Type::Var(*v),
        Type::Data(d, args) => Type::Data(*d, args.iter().map(|a| generalize(a, canon)).collect()),
        Type::Arrow(a, b) => Type::arrow(generalize(a, canon), generalize(b, canon)),
    }
}

/// Lowers parsed declarations to a module.
///
/// # Errors
///
/// Returns the first resolution or type error.
pub fn lower(decls: &[Decl]) -> Result<Module, LangError> {
    lower_goals(decls, None)
}

/// Lowers the signature and the rules of `decls`, and its goals: all of
/// them, or with `only` just the goal of that name (none when the
/// declarations have no goal of that name). Goal names must be distinct
/// across all of `decls` either way.
pub(crate) fn lower_goals(decls: &[Decl], only: Option<&str>) -> Result<Module, LangError> {
    let mut sig = Signature::new();
    let mut decl_lines: HashMap<String, u32> = HashMap::new();
    // Pass 1a: datatypes (names only, so mutually recursive datatypes work).
    for d in decls {
        if let Decl::Data {
            name, params, line, ..
        } = d
        {
            sig.add_datatype(name, params.len() as u32)
                .map_err(|_| LangError::new(*line, LangErrorKind::Duplicate(name.clone())))?;
            decl_lines.insert(name.clone(), *line);
        }
    }
    // Pass 1b: constructors.
    for d in decls {
        if let Decl::Data {
            name,
            params,
            cons,
            line,
        } = d
        {
            let data = sig.data_by_name(name).expect("registered in pass 1a");
            let mut tyvars: HashMap<String, TyVarId> = params
                .iter()
                .enumerate()
                .map(|(i, p)| (p.clone(), TyVarId(i as u32)))
                .collect();
            for con in cons {
                let mut args = Vec::with_capacity(con.args.len());
                for a in &con.args {
                    args.push(resolve_type(a, &sig, &mut tyvars, false, *line)?);
                }
                sig.add_constructor(&con.name, data, args)
                    .map_err(|e| LangError::new(*line, LangErrorKind::Type(e.to_string())))?;
                decl_lines.insert(con.name.clone(), *line);
            }
        }
    }
    // Pass 2: signatures.
    for d in decls {
        if let Decl::Sig { name, ty, line } = d {
            let mut tyvars = HashMap::new();
            let body = resolve_type(ty, &sig, &mut tyvars, true, *line)?;
            let scheme = cycleq_term::TypeScheme::poly(tyvars.len() as u32, body);
            sig.add_defined(name, scheme)
                .map_err(|_| LangError::new(*line, LangErrorKind::Duplicate(name.clone())))?;
            decl_lines.insert(name.clone(), *line);
        }
    }
    // Pass 3: clauses.
    let mut trs = Trs::new();
    let mut rule_lines = Vec::new();
    for d in decls {
        if let Decl::Clause {
            name,
            params,
            rhs,
            line,
        } = d
        {
            let sym = sig
                .sym_by_name(name)
                .filter(|s| sig.is_defined(*s))
                .ok_or_else(|| {
                    LangError::new(*line, LangErrorKind::MissingSignature(name.clone()))
                })?;
            let rule = lower_clause(&mut trs, &sig, sym, params, rhs, *line)?;
            debug_assert_eq!(rule.index(), rule_lines.len());
            rule_lines.push(*line);
        }
    }
    // Pass 4: goals.
    let mut goals = Vec::new();
    let mut names = HashSet::new();
    for d in decls {
        if let Decl::Goal {
            name,
            lhs,
            rhs,
            line,
        } = d
        {
            if !names.insert(name.as_str()) {
                return Err(LangError::new(
                    *line,
                    LangErrorKind::Duplicate(name.clone()),
                ));
            }
            if only.is_none_or(|only| only == name) {
                goals.push(lower_goal(&sig, name, lhs, rhs, *line)?);
            }
        }
    }
    Ok(Module {
        program: Program::new(sig, trs),
        goals,
        rule_lines,
        decl_lines,
    })
}

fn lower_clause(
    trs: &mut Trs,
    sig: &Signature,
    sym: SymId,
    params: &[RawTerm],
    rhs: &RawTerm,
    line: u32,
) -> Result<RuleId, LangError> {
    let scheme = sig.sym(sym).scheme();
    let allowed = scheme.body().arity();
    if params.len() > allowed {
        return Err(LangError::new(
            line,
            LangErrorKind::Type(format!(
                "clause has {} patterns but the signature allows at most {allowed}",
                params.len()
            )),
        ));
    }
    let mut uni = TyUnifier::new(META_FLOOR);
    let mut env = HashMap::new();
    // Each pattern is checked against its declared argument type; what is
    // left of the signature is the right-hand side's type.
    let mut result_ty = scheme.body();
    let mut pattern_terms = Vec::with_capacity(params.len());
    for raw in params {
        let Type::Arrow(want, rest) = result_ty else {
            unreachable!("pattern count checked above")
        };
        pattern_terms.push(check_pattern(
            raw,
            want,
            sig,
            &mut env,
            trs.vars_mut(),
            &mut uni,
            line,
        )?);
        result_ty = rest;
    }
    let rhs_term = build_term(rhs, sig, &mut env, trs.vars_mut(), &mut uni, false)?;
    let rhs_ty = rhs_term
        .infer_type(sig, trs.vars(), &mut uni)
        .map_err(|e| type_error(line, sig, &e))?;
    uni.unify(&rhs_ty, result_ty)
        .map_err(|e| type_error(line, sig, &e))?;
    // Rigidity: signature variables must remain themselves. A constructor
    // pattern checked away from its own datatype fails or binds one, so
    // past this check every pattern variable has the signature type it
    // was checked against.
    for i in 0..scheme.num_vars() {
        let v = TyVarId(i);
        if uni.resolve(&Type::Var(v)) != Type::Var(v) {
            return Err(LangError::new(
                line,
                LangErrorKind::RigidEscape(format!(
                    "signature variable `{}` was instantiated",
                    v.display_name()
                )),
            ));
        }
    }
    trs.add_rule(sig, sym, pattern_terms, rhs_term)
        .map_err(|e| LangError::new(line, LangErrorKind::Rule(e.to_string())))
}

fn lower_goal(
    sig: &Signature,
    name: &str,
    lhs: &RawTerm,
    rhs: &RawTerm,
    line: u32,
) -> Result<GoalDef, LangError> {
    let mut uni = TyUnifier::new(META_FLOOR);
    let mut env = HashMap::new();
    let mut vars = VarStore::new();
    let lhs_term = build_term(lhs, sig, &mut env, &mut vars, &mut uni, true)?;
    let rhs_term = build_term(rhs, sig, &mut env, &mut vars, &mut uni, true)?;
    let lt = lhs_term
        .infer_type(sig, &vars, &mut uni)
        .map_err(|e| type_error(line, sig, &e))?;
    let rt = rhs_term
        .infer_type(sig, &vars, &mut uni)
        .map_err(|e| type_error(line, sig, &e))?;
    uni.unify(&lt, &rt).map_err(|e| type_error(line, sig, &e))?;
    // Solve and generalise goal variable types.
    let mut canon = HashMap::new();
    for idx in 0..vars.len() {
        let v = VarId::from_index(idx);
        let solved = uni.resolve(vars.ty(v));
        vars.set_ty(v, generalize(&solved, &mut canon));
    }
    Ok(GoalDef {
        name: name.to_string(),
        eq: Equation::new(lhs_term, rhs_term),
        vars,
        line,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    const NAT: &str = "data Nat = Z | S Nat
add :: Nat -> Nat -> Nat
add Z y = y
add (S x) y = S (add x y)
";

    fn module(src: &str) -> Module {
        lower(&parse(src).unwrap()).unwrap()
    }

    #[test]
    fn lowers_nat_program() {
        let m = module(NAT);
        assert_eq!(m.program.trs.len(), 2);
        let add = m.program.sig.sym_by_name("add").unwrap();
        assert_eq!(m.program.trs.rules_for(add).len(), 2);
    }

    #[test]
    fn lowers_polymorphic_lists() {
        let src = "data List a = Nil | Cons a (List a)
data Nat = Z | S Nat
len :: List a -> Nat
len Nil = Z
len (Cons x xs) = S (len xs)
";
        let m = module(src);
        let len = m.program.sig.sym_by_name("len").unwrap();
        assert_eq!(m.program.sig.sym(len).scheme().num_vars(), 1);
    }

    #[test]
    fn goal_variables_are_inferred() {
        let src = format!("{NAT}goal comm: add x y === add y x\n");
        let m = module(&src);
        let g = m.goal("comm").unwrap();
        assert_eq!(g.vars.len(), 2);
        let nat = m.program.sig.data_by_name("Nat").unwrap();
        for (_, _, ty) in g.vars.iter() {
            assert_eq!(ty, &Type::data0(nat));
        }
    }

    #[test]
    fn polymorphic_goal_types_are_generalised() {
        let src = "data List a = Nil | Cons a (List a)
app :: List a -> List a -> List a
app Nil ys = ys
app (Cons x xs) ys = Cons x (app xs ys)
goal nilRight: app xs Nil === xs
";
        let m = module(src);
        let g = m.goal("nilRight").unwrap();
        // xs : List a with a rigid (generalised).
        let (_, _, ty) = g.vars.iter().next().unwrap();
        match ty {
            Type::Data(_, args) => assert!(matches!(args[0], Type::Var(v) if v.0 < 100)),
            other => panic!("unexpected type {other:?}"),
        }
    }

    #[test]
    fn clause_without_signature_is_rejected() {
        let err = lower(&parse("data Nat = Z | S Nat\nf Z = Z\n").unwrap()).unwrap_err();
        assert!(matches!(err.kind, LangErrorKind::MissingSignature(_)));
    }

    #[test]
    fn non_linear_patterns_are_rejected() {
        let src = "data Nat = Z | S Nat
f :: Nat -> Nat -> Nat
f x x = x
";
        let err = lower(&parse(src).unwrap()).unwrap_err();
        assert!(matches!(err.kind, LangErrorKind::NonLinearPattern(_)));
    }

    #[test]
    fn pattern_arity_is_checked() {
        let src = "data Nat = Z | S Nat
f :: Nat -> Nat
f (S) = Z
";
        let err = lower(&parse(src).unwrap()).unwrap_err();
        assert!(matches!(err.kind, LangErrorKind::PatternArity { .. }));
    }

    #[test]
    fn ill_typed_rhs_is_rejected() {
        let src = "data Nat = Z | S Nat
data Bool = True | False
f :: Nat -> Nat
f x = True
";
        let err = lower(&parse(src).unwrap()).unwrap_err();
        assert!(matches!(err.kind, LangErrorKind::Type(_)));
    }

    #[test]
    fn type_errors_name_their_types() {
        let clause = "data Nat = Z | S Nat
data Bool = True | False
f :: Nat -> Nat
f x = True
";
        let err = lower(&parse(clause).unwrap()).unwrap_err();
        assert_eq!(
            err.to_string(),
            "line 4: type error: cannot unify `Bool` with `Nat`"
        );
        // Metavariables are named by first occurrence, not by id.
        let goal = "data Nat = Z | S Nat
data List a = Nil | Cons a (List a)
len :: List a -> Nat
len Nil = Z
len (Cons y ys) = S (len ys)
goal g: len x === x
";
        let err = lower(&parse(goal).unwrap()).unwrap_err();
        assert_eq!(
            err.to_string(),
            "line 6: type error: cannot unify `Nat` with `List ?a`"
        );
        // So are the metavariables of a failed occurs check.
        let occurs = "data Nat = Z | S Nat
goal g: x x === x
";
        let err = lower(&parse(occurs).unwrap()).unwrap_err();
        assert_eq!(
            err.to_string(),
            "line 2: type error: cannot construct the infinite type `?a` = `?a -> ?b`"
        );
    }

    #[test]
    fn clauses_less_polymorphic_than_signature_are_rejected() {
        let src = "data Nat = Z | S Nat
f :: a -> a
f x = Z
";
        let err = lower(&parse(src).unwrap()).unwrap_err();
        assert_eq!(
            err.to_string(),
            "line 3: clause is less polymorphic than its signature: \
             signature variable `a` was instantiated"
        );
    }

    #[test]
    fn ill_typed_patterns_name_their_types() {
        const NAT: &str = "data Nat = Z | S Nat\n";
        const BOOL: &str = "data Bool = True | False\n";
        const LIST: &str = "data List a = Nil | Cons a (List a)\n";
        let cases = [
            (
                [NAT, LIST].concat() + "f :: Nat -> Nat\nf Nil = Z\n",
                "line 4: type error: cannot unify `List ?a` with `Nat`",
            ),
            (
                [NAT, LIST].concat() + "f :: List Nat -> Nat\nf (Cons Nil xs) = Z\n",
                "line 4: type error: cannot unify `List ?a` with `Nat`",
            ),
            (
                [NAT, BOOL, LIST].concat() + "f :: Nat -> Nat\nf (Cons True Nil) = Z\n",
                "line 5: type error: cannot unify `List Bool` with `Nat`",
            ),
            (
                [NAT].concat() + "f :: a -> a\nf Z = Z\n",
                "line 3: clause is less polymorphic than its signature: \
                 signature variable `a` was instantiated",
            ),
            (
                [NAT, BOOL].concat() + "f :: Nat -> Bool -> Nat\nf True Z = Z\n",
                "line 4: type error: cannot unify `Bool` with `Nat`",
            ),
            // Two errors: a constructor at a rigid variable binds it, and
            // the next pattern's mismatch is reported first.
            (
                [NAT, BOOL].concat() + "f :: a -> Nat -> a\nf Z True = Z\n",
                "line 4: type error: cannot unify `Bool` with `Nat`",
            ),
        ];
        for (src, want) in cases {
            let err = lower(&parse(&src).unwrap()).unwrap_err();
            assert_eq!(err.to_string(), want, "{src}");
        }
    }

    #[test]
    fn unknown_identifiers_in_clause_rhs_are_rejected() {
        let src = "data Nat = Z | S Nat
f :: Nat -> Nat
f x = g x
";
        let err = lower(&parse(src).unwrap()).unwrap_err();
        assert!(matches!(err.kind, LangErrorKind::Unknown(_)));
    }

    #[test]
    fn goal_rename_into_fresh_store() {
        let src = format!("{NAT}goal zr: add x Z === x\n");
        let m = module(&src);
        let g = m.goal("zr").unwrap();
        let mut target = VarStore::new();
        target.fresh(
            "occupied",
            Type::data0(m.program.sig.data_by_name("Nat").unwrap()),
        );
        let eq = g.rename_into(&mut target);
        assert_eq!(target.len(), 1 + g.vars.len());
        // The renamed equation's variables live in the target store.
        for v in eq.vars() {
            assert!(v.index() < target.len());
        }
    }

    #[test]
    fn mutually_recursive_datatypes_lower() {
        // The paper's introduction example: annotated syntax trees.
        let src = "data Nat = Z | S Nat
data Term a = Var a | Cst Nat | App (Expr a) (Expr a)
data Expr a = MkE (Term a) Nat
";
        let m = module(src);
        assert_eq!(m.program.sig.num_datas(), 3);
        let term = m.program.sig.data_by_name("Term").unwrap();
        assert_eq!(m.program.sig.constructors_of(term).len(), 3);
    }

    #[test]
    fn higher_order_functions_lower() {
        let src = "data List a = Nil | Cons a (List a)
map :: (a -> b) -> List a -> List b
map f Nil = Nil
map f (Cons x xs) = Cons (f x) (map f xs)
goal mapId: map id xs === xs
id :: a -> a
id x = x
";
        let m = module(src);
        assert_eq!(m.goals.len(), 1);
    }
}
