//! The shared benchmark program: the standard IsaPlanner signature over
//! naturals, booleans, lists, pairs and binary trees.
//!
//! Definitions follow the usual TIP/IsaPlanner presentations, with two
//! standing substitutions documented in DESIGN.md:
//!
//! - partial functions (`last`) are totalised with a default (`Z`), as is
//!   conventional when encoding the suite for first-order provers;
//! - the literal lambdas of properties 35/36 (`λx. False`, `λx. True`)
//!   become the named combinators `constFalse`/`constTrue`, since the §2
//!   term language has no binders; the induced rewrite relation is
//!   identical.
//!
//! Conditionals are expressed through the defined function `ite`, which is
//! also how the suite naturally exhibits CycleQ's documented limitation on
//! problems needing hypothetical reasoning (§6.2).

/// The prelude source shared by every IsaPlanner problem.
pub const PRELUDE: &str = r#"
data Nat = Z | S Nat
data Bool = True | False
data List a = Nil | Cons a (List a)
data Pair a b = MkPair a b
data Tree a = Leaf | Node (Tree a) a (Tree a)

ite :: Bool -> a -> a -> a
ite True x y = x
ite False x y = y

not :: Bool -> Bool
not True = False
not False = True

id :: a -> a
id x = x

constTrue :: a -> Bool
constTrue x = True

constFalse :: a -> Bool
constFalse x = False

natEq :: Nat -> Nat -> Bool
natEq Z Z = True
natEq Z (S y) = False
natEq (S x) Z = False
natEq (S x) (S y) = natEq x y

le :: Nat -> Nat -> Bool
le Z y = True
le (S x) Z = False
le (S x) (S y) = le x y

lt :: Nat -> Nat -> Bool
lt x Z = False
lt Z (S y) = True
lt (S x) (S y) = lt x y

add :: Nat -> Nat -> Nat
add Z y = y
add (S x) y = S (add x y)

sub :: Nat -> Nat -> Nat
sub x Z = x
sub Z (S y) = Z
sub (S x) (S y) = sub x y

min :: Nat -> Nat -> Nat
min Z y = Z
min (S x) Z = Z
min (S x) (S y) = S (min x y)

max :: Nat -> Nat -> Nat
max Z y = y
max (S x) Z = S x
max (S x) (S y) = S (max x y)

len :: List a -> Nat
len Nil = Z
len (Cons x xs) = S (len xs)

app :: List a -> List a -> List a
app Nil ys = ys
app (Cons x xs) ys = Cons x (app xs ys)

rev :: List a -> List a
rev Nil = Nil
rev (Cons x xs) = app (rev xs) (Cons x Nil)

map :: (a -> b) -> List a -> List b
map f Nil = Nil
map f (Cons x xs) = Cons (f x) (map f xs)

filter :: (a -> Bool) -> List a -> List a
filter p Nil = Nil
filter p (Cons x xs) = ite (p x) (Cons x (filter p xs)) (filter p xs)

takeWhile :: (a -> Bool) -> List a -> List a
takeWhile p Nil = Nil
takeWhile p (Cons x xs) = ite (p x) (Cons x (takeWhile p xs)) Nil

dropWhile :: (a -> Bool) -> List a -> List a
dropWhile p Nil = Nil
dropWhile p (Cons x xs) = ite (p x) (dropWhile p xs) (Cons x xs)

take :: Nat -> List a -> List a
take Z xs = Nil
take (S n) Nil = Nil
take (S n) (Cons x xs) = Cons x (take n xs)

drop :: Nat -> List a -> List a
drop Z xs = xs
drop (S n) Nil = Nil
drop (S n) (Cons x xs) = drop n xs

count :: Nat -> List Nat -> Nat
count n Nil = Z
count n (Cons x xs) = ite (natEq n x) (S (count n xs)) (count n xs)

elem :: Nat -> List Nat -> Bool
elem n Nil = False
elem n (Cons x xs) = ite (natEq n x) True (elem n xs)

delete :: Nat -> List Nat -> List Nat
delete n Nil = Nil
delete n (Cons x xs) = ite (natEq n x) (delete n xs) (Cons x (delete n xs))

ins :: Nat -> List Nat -> List Nat
ins n Nil = Cons n Nil
ins n (Cons x xs) = ite (lt n x) (Cons n (Cons x xs)) (Cons x (ins n xs))

ins1 :: Nat -> List Nat -> List Nat
ins1 n Nil = Cons n Nil
ins1 n (Cons x xs) = ite (natEq n x) (Cons x xs) (Cons x (ins1 n xs))

insort :: Nat -> List Nat -> List Nat
insort n Nil = Cons n Nil
insort n (Cons x xs) = ite (le n x) (Cons n (Cons x xs)) (Cons x (insort n xs))

sort :: List Nat -> List Nat
sort Nil = Nil
sort (Cons x xs) = insort x (sort xs)

sorted :: List Nat -> Bool
sorted Nil = True
sorted (Cons x Nil) = True
sorted (Cons x (Cons y ys)) = ite (le x y) (sorted (Cons y ys)) False

last :: List Nat -> Nat
last Nil = Z
last (Cons x Nil) = x
last (Cons x (Cons y ys)) = last (Cons y ys)

butlast :: List a -> List a
butlast Nil = Nil
butlast (Cons x Nil) = Nil
butlast (Cons x (Cons y ys)) = Cons x (butlast (Cons y ys))

lastOfTwo :: List Nat -> List Nat -> Nat
lastOfTwo xs Nil = last xs
lastOfTwo xs (Cons y ys) = last (Cons y ys)

butlastConcat :: List a -> List a -> List a
butlastConcat xs Nil = butlast xs
butlastConcat xs (Cons y ys) = app xs (butlast (Cons y ys))

zip :: List a -> List b -> List (Pair a b)
zip Nil ys = Nil
zip (Cons x xs) Nil = Nil
zip (Cons x xs) (Cons y ys) = Cons (MkPair x y) (zip xs ys)

zipConcat :: a -> List a -> List b -> List (Pair a b)
zipConcat x xs Nil = Nil
zipConcat x xs (Cons y ys) = Cons (MkPair x y) (zip xs ys)

null :: List a -> Bool
null Nil = True
null (Cons x xs) = False

height :: Tree a -> Nat
height Leaf = Z
height (Node l x r) = S (max (height l) (height r))

mirror :: Tree a -> Tree a
mirror Leaf = Leaf
mirror (Node l x r) = Node (mirror r) x (mirror l)
"#;

/// The mutual-induction benchmark program: the annotated syntax trees of
/// the paper's introduction (§1), with mutually recursive `mapT`/`mapE`,
/// sizes, heights and an `App`-swapping involution.
pub const MUTUAL_PRELUDE: &str = r#"
data Nat = Z | S Nat
data Term a = Var a | Cst Nat | App (Expr a) (Expr a)
data Expr a = MkE (Term a) Nat

id :: a -> a
id x = x

add :: Nat -> Nat -> Nat
add Z y = y
add (S x) y = S (add x y)

max :: Nat -> Nat -> Nat
max Z y = y
max (S x) Z = S x
max (S x) (S y) = S (max x y)

mapT :: (a -> b) -> Term a -> Term b
mapT f (Var v) = Var (f v)
mapT f (Cst c) = Cst c
mapT f (App e1 e2) = App (mapE f e1) (mapE f e2)

mapE :: (a -> b) -> Expr a -> Expr b
mapE f (MkE t n) = MkE (mapT f t) n

sizeT :: Term a -> Nat
sizeT (Var v) = S Z
sizeT (Cst c) = S Z
sizeT (App e1 e2) = S (add (sizeE e1) (sizeE e2))

sizeE :: Expr a -> Nat
sizeE (MkE t n) = S (sizeT t)

heightT :: Term a -> Nat
heightT (Var v) = Z
heightT (Cst c) = Z
heightT (App e1 e2) = S (max (heightE e1) (heightE e2))

heightE :: Expr a -> Nat
heightE (MkE t n) = S (heightT t)

swapT :: Term a -> Term a
swapT (Var v) = Var v
swapT (Cst c) = Cst c
swapT (App e1 e2) = App (swapE e2) (swapE e1)

swapE :: Expr a -> Expr a
swapE (MkE t n) = MkE (swapT t) n
"#;

#[cfg(test)]
mod tests {
    use super::*;
    use cycleq::{analyze, Code, Diagnostic, Module};
    use cycleq_lang::parse_module;

    /// The analysis findings on the Remark 2.1 preconditions: everything
    /// but the dead-code sweep, since a prelude without goals leaves every
    /// definition unreachable.
    fn precondition_findings(m: &Module) -> Vec<Diagnostic> {
        analyze(m)
            .into_iter()
            .filter(|d| !matches!(d.code, Code::Unreachable | Code::Unused | Code::Shadowed))
            .collect()
    }

    #[test]
    fn prelude_parses_and_validates() {
        let m = parse_module(PRELUDE).unwrap();
        assert_eq!(precondition_findings(&m), vec![]);
        assert!(m.program.trs.len() > 50);
    }

    #[test]
    fn mutual_prelude_parses_and_validates() {
        let m = parse_module(MUTUAL_PRELUDE).unwrap();
        assert_eq!(precondition_findings(&m), vec![]);
        let term = m.program.sig.data_by_name("Term").unwrap();
        assert_eq!(m.program.sig.constructors_of(term).len(), 3);
    }

    #[test]
    fn prelude_functions_compute() {
        use cycleq_rewrite::MemoRewriter;
        use cycleq_term::Term;
        let m = parse_module(PRELUDE).unwrap();
        let sig = &m.program.sig;
        let mut rw = MemoRewriter::new(sig, &m.program.trs);
        let z = Term::sym(sig.sym_by_name("Z").unwrap());
        let s = |t: Term| Term::apps(sig.sym_by_name("S").unwrap(), vec![t]);
        let two = s(s(z.clone()));
        let three = s(s(s(z.clone())));
        // max 2 3 = 3
        let max = Term::apps(
            sig.sym_by_name("max").unwrap(),
            vec![two.clone(), three.clone()],
        );
        assert_eq!(rw.normalize(&max).term, three);
        // sub 2 3 = 0 (monus)
        let sub = Term::apps(
            sig.sym_by_name("sub").unwrap(),
            vec![two.clone(), three.clone()],
        );
        assert_eq!(rw.normalize(&sub).term, z);
        // sort [2, 3] is sorted
        let nil = Term::sym(sig.sym_by_name("Nil").unwrap());
        let cons = |h: Term, t: Term| Term::apps(sig.sym_by_name("Cons").unwrap(), vec![h, t]);
        let list = cons(three.clone(), cons(two.clone(), nil));
        let sorted_sort = Term::apps(
            sig.sym_by_name("sorted").unwrap(),
            vec![Term::apps(sig.sym_by_name("sort").unwrap(), vec![list])],
        );
        let tru = Term::sym(sig.sym_by_name("True").unwrap());
        assert_eq!(rw.normalize(&sorted_sort).term, tru);
    }
}
