//! End-to-end search tests reproducing the proofs shown as figures in the
//! paper, parsed through the frontend.

use cycleq_analysis::Code;
use cycleq_lang::parse_module;
use cycleq_proof::{check, GlobalCheck};
use cycleq_search::{Outcome, Prover, SearchConfig};

fn prove(src: &str, goal: &str) -> (cycleq_search::ProofResult, cycleq_lang::Module) {
    let module = parse_module(src).expect("valid program");
    // The figure programs meet Remark 2.1's preconditions: only the
    // dead-code sweep (CQ005–CQ007) may find anything to report.
    let findings: Vec<_> = cycleq_analysis::analyze(&module)
        .into_iter()
        .filter(|d| !matches!(d.code, Code::Unreachable | Code::Unused | Code::Shadowed))
        .collect();
    assert!(findings.is_empty(), "{findings:?}");
    let g = module.goal(goal).expect("goal exists").clone();
    let prover = Prover::new(&module.program);
    let res = prover.prove(g.eq, g.vars);
    (res, module)
}

/// Figure 9 / Example C.1: `map id xs ≈ xs`.
#[test]
fn fig9_map_id() {
    let src = "
data List a = Nil | Cons a (List a)
id :: a -> a
id x = x
map :: (a -> b) -> List a -> List b
map f Nil = Nil
map f (Cons x xs) = Cons (f x) (map f xs)
goal mapId: map id xs === xs
";
    let (res, module) = prove(src, "mapId");
    assert!(res.outcome.is_proved(), "{:?}", res.outcome);
    let report = check(&res.proof, &module.program, GlobalCheck::VariableTraces).unwrap();
    assert!(report.back_edges >= 1, "the proof is cyclic");
}

/// Figure 1: the mutual-induction example from the introduction —
/// `mapE id e ≈ e` over mutually recursive annotated syntax trees.
#[test]
fn fig1_mutual_induction_map_identity() {
    let src = "
data Nat = Z | S Nat
data Term a = Var a | Cst Nat | App (Expr a) (Expr a)
data Expr a = MkE (Term a) Nat
id :: a -> a
id x = x
mapT :: (a -> b) -> Term a -> Term b
mapT f (Var v) = Var (f v)
mapT f (Cst c) = Cst c
mapT f (App e1 e2) = App (mapE f e1) (mapE f e2)
mapE :: (a -> b) -> Expr a -> Expr b
mapE f (MkE t n) = MkE (mapT f t) n
goal mapEId: mapE id e === e
goal mapTId: mapT id t === t
";
    let (res, module) = prove(src, "mapEId");
    assert!(res.outcome.is_proved(), "{:?}", res.outcome);
    let report = check(&res.proof, &module.program, GlobalCheck::VariableTraces).unwrap();
    assert!(report.back_edges >= 1);

    // The Term-side law holds too.
    let g = module.goal("mapTId").unwrap().clone();
    let res = Prover::new(&module.program).prove(g.eq, g.vars);
    assert!(res.outcome.is_proved(), "{:?}", res.outcome);
}

/// Figure 2 / IsaPlanner prop 50:
/// `butLast xs ≈ take (len xs − S Z) xs`.
#[test]
fn fig2_butlast_take() {
    let src = "
data Nat = Z | S Nat
data List a = Nil | Cons a (List a)
sub :: Nat -> Nat -> Nat
sub Z y = Z
sub x Z = x
sub (S x) (S y) = sub x y
butLast :: List a -> List a
butLast Nil = Nil
butLast (Cons x Nil) = Nil
butLast (Cons x (Cons y ys)) = Cons x (butLast (Cons y ys))
len :: List a -> Nat
len Nil = Z
len (Cons x xs) = S (len xs)
take :: Nat -> List a -> List a
take Z xs = Nil
take (S n) Nil = Nil
take (S n) (Cons x xs) = Cons x (take n xs)
goal prop50: butLast xs === take (sub (len xs) (S Z)) xs
";
    // `sub x Z = x` overlaps `sub Z y = Z` at (Z, Z): a weak overlap where
    // both clauses agree, so the prover is still sound on it — but the
    // program is not orthogonal, and `fig2_sub_overlap_is_flagged` below
    // pins that the analyzer reports it.
    let module = parse_module(src).expect("valid program");
    let g = module.goal("prop50").expect("goal exists").clone();
    let res = Prover::new(&module.program).prove(g.eq, g.vars);
    assert!(res.outcome.is_proved(), "{:?}", res.outcome);
    check(&res.proof, &module.program, GlobalCheck::VariableTraces).unwrap();
}

/// Regression for the note on `fig2_butlast_take`: the paper's `sub` has a
/// weak overlap at `sub Z Z` (clauses 1 and 2 both match and agree), which
/// the static analyzer must flag as `CQ002` — downgraded to a warning,
/// since the critical pair is joinable (both reducts normalize to `Z`) —
/// and must not flag on the orthogonal reformulation that splits the
/// second clause on `S x`.
#[test]
fn fig2_sub_overlap_is_flagged() {
    let overlapping = "
data Nat = Z | S Nat
sub :: Nat -> Nat -> Nat
sub Z y = Z
sub x Z = x
sub (S x) (S y) = sub x y
goal triv: sub x x === Z
";
    let module = parse_module(overlapping).expect("valid program");
    let diags = cycleq_analysis::analyze(&module);
    let overlaps: Vec<_> = diags.iter().filter(|d| d.code == Code::Overlap).collect();
    assert_eq!(overlaps.len(), 1, "{diags:?}");
    assert!(
        !overlaps[0].is_error(),
        "the joinable overlap is a warning: {:?}",
        overlaps[0]
    );
    assert!(
        overlaps[0].message.contains("lines 4 and 5"),
        "{}",
        overlaps[0].message
    );
    assert!(
        overlaps[0].notes.iter().any(|n| n.contains("sub Z Z")),
        "{:?}",
        overlaps[0].notes
    );

    // The orthogonal variant computes the same function and is clean.
    let orthogonal = "
data Nat = Z | S Nat
sub :: Nat -> Nat -> Nat
sub Z y = Z
sub (S x) Z = S x
sub (S x) (S y) = sub x y
goal triv: sub x x === Z
";
    let module = parse_module(orthogonal).expect("valid program");
    let diags = cycleq_analysis::analyze(&module);
    assert!(diags.is_empty(), "{diags:?}");
}

/// Figure 4: commutativity of addition through the frontend.
#[test]
fn fig4_commutativity() {
    let src = "
data Nat = Z | S Nat
add :: Nat -> Nat -> Nat
add Z y = y
add (S x) y = S (add x y)
goal comm: add x y === add y x
";
    let (res, module) = prove(src, "comm");
    assert!(res.outcome.is_proved(), "{:?}", res.outcome);
    let report = check(&res.proof, &module.program, GlobalCheck::VariableTraces).unwrap();
    assert!(report.back_edges >= 2);
}

/// A conditional-flavoured problem CycleQ cannot solve (§6.2, problem 4):
/// the search must terminate with Exhausted rather than diverge.
#[test]
fn out_of_scope_conditional_reasoning_terminates() {
    let src = "
data Nat = Z | S Nat
data Bool = True | False
data List a = Nil | Cons a (List a)
ite :: Bool -> a -> a -> a
ite True x y = x
ite False x y = y
natEq :: Nat -> Nat -> Bool
natEq Z Z = True
natEq Z (S y) = False
natEq (S x) Z = False
natEq (S x) (S y) = natEq x y
count :: Nat -> List Nat -> Nat
count n Nil = Z
count n (Cons x xs) = ite (natEq n x) (S (count n xs)) (count n xs)
goal prop04: S (count n xs) === count n (Cons n xs)
";
    let module = parse_module(src).expect("valid program");
    let g = module.goal("prop04").unwrap().clone();
    let config = SearchConfig {
        timeout: Some(std::time::Duration::from_secs(2)),
        ..SearchConfig::default()
    };
    let res = Prover::with_config(&module.program, config).prove(g.eq, g.vars);
    assert!(
        matches!(
            res.outcome,
            Outcome::Exhausted | Outcome::Timeout | Outcome::NodeBudget
        ),
        "{:?}",
        res.outcome
    );
}

/// The printed proof of Fig. 4 mentions its cycle labels.
#[test]
fn fig4_proof_renders() {
    let src = "
data Nat = Z | S Nat
add :: Nat -> Nat -> Nat
add Z y = y
add (S x) y = S (add x y)
goal comm: add x y === add y x
";
    let (res, module) = prove(src, "comm");
    let Outcome::Proved { root } = res.outcome else {
        panic!("not proved")
    };
    let text = cycleq_proof::render_text(&res.proof, &module.program.sig, root);
    assert!(text.contains("[Case"));
    assert!(text.contains("≈"));
}
