//! A recursive-descent parser for the frontend language.

use crate::ast::{Decl, RawCon, RawTerm, RawType};
use crate::error::{LangError, LangErrorKind};
use crate::lexer::lex;
use crate::token::{Spanned, Token};
use cycleq_term::MAX_NESTING;

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
    /// Parenthesised and arrow levels open around the current token.
    open: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.toks.get(self.pos).map(|s| &s.token)
    }

    fn line(&self) -> u32 {
        // Clamp to the last token so end-of-input errors still carry the
        // line where input ran out (1 for empty input, never a bogus 0).
        self.toks
            .get(self.pos.min(self.toks.len().saturating_sub(1)))
            .map(|s| s.line)
            .unwrap_or(1)
    }

    /// Moves the current token out and advances. The parser never looks
    /// back, so the consumed slot keeps only a placeholder.
    fn next(&mut self) -> Option<Spanned> {
        let t = self.toks.get_mut(self.pos).map(|s| Spanned {
            token: std::mem::replace(&mut s.token, Token::Sep),
            line: s.line,
        });
        self.pos += 1;
        t
    }

    fn err(&self, expected: &str) -> LangError {
        match self.toks.get(self.pos) {
            Some(s) => LangError::new(
                s.line,
                LangErrorKind::UnexpectedToken {
                    found: s.token.to_string(),
                    expected: expected.to_string(),
                },
            ),
            None => LangError::new(self.line(), LangErrorKind::UnexpectedEof),
        }
    }

    /// Opens one more parenthesised or arrow level. The recursive
    /// productions open one per recursion, so [`MAX_NESTING`] bounds how
    /// deep the parser recurses.
    fn open(&mut self) -> Result<(), LangError> {
        self.open += 1;
        if self.open > MAX_NESTING {
            return Err(LangError::new(self.line(), LangErrorKind::TooDeep));
        }
        Ok(())
    }

    /// The depth of a tree node over children at most `depth` deep,
    /// refused beyond [`MAX_NESTING`]. Application spines are built in a
    /// loop, so this, not [`Parser::open`], bounds their trees.
    fn deeper(&self, depth: usize) -> Result<usize, LangError> {
        if depth >= MAX_NESTING {
            return Err(LangError::new(self.line(), LangErrorKind::TooDeep));
        }
        Ok(depth + 1)
    }

    fn expect(&mut self, want: &Token, expected: &str) -> Result<u32, LangError> {
        match self.peek() {
            Some(t) if t == want => Ok(self.next().expect("peeked").line),
            _ => Err(self.err(expected)),
        }
    }

    /// Consumes an uppercase name; any other token is reported, unconsumed.
    fn upper_name(&mut self, expected: &str) -> Result<String, LangError> {
        if !matches!(self.peek(), Some(Token::Upper(_))) {
            return Err(self.err(expected));
        }
        let Some(Spanned {
            token: Token::Upper(n),
            ..
        }) = self.next()
        else {
            unreachable!()
        };
        Ok(n)
    }

    /// Consumes a lowercase name and returns it with its line; any other
    /// token is reported, unconsumed.
    fn lower_name(&mut self, expected: &str) -> Result<(String, u32), LangError> {
        if !matches!(self.peek(), Some(Token::Lower(_))) {
            return Err(self.err(expected));
        }
        let Some(Spanned {
            token: Token::Lower(n),
            line,
        }) = self.next()
        else {
            unreachable!()
        };
        Ok((n, line))
    }

    fn eat_seps(&mut self) {
        while self.peek() == Some(&Token::Sep) {
            self.pos += 1;
        }
    }

    // type := btype ('->' type)?
    // Each production returns its tree and the tree's depth.
    fn parse_type(&mut self) -> Result<(RawType, usize), LangError> {
        let (lhs, lhs_depth) = self.parse_btype()?;
        if self.peek() != Some(&Token::Arrow) {
            return Ok((lhs, lhs_depth));
        }
        self.next();
        self.open()?;
        let (rhs, rhs_depth) = self.parse_type()?;
        self.open -= 1;
        let depth = self.deeper(lhs_depth.max(rhs_depth))?;
        Ok((RawType::Arrow(Box::new(lhs), Box::new(rhs)), depth))
    }

    // btype := atype+
    fn parse_btype(&mut self) -> Result<(RawType, usize), LangError> {
        let (mut t, mut depth) = self.parse_atype()?;
        while matches!(
            self.peek(),
            Some(Token::Upper(_) | Token::Lower(_) | Token::LParen)
        ) {
            let (arg, arg_depth) = self.parse_atype()?;
            depth = self.deeper(depth.max(arg_depth))?;
            t = RawType::App(Box::new(t), Box::new(arg));
        }
        Ok((t, depth))
    }

    fn parse_atype(&mut self) -> Result<(RawType, usize), LangError> {
        match self.peek() {
            Some(Token::Upper(_)) | Some(Token::Lower(_)) => {
                let Some(Spanned { token, .. }) = self.next() else {
                    unreachable!()
                };
                match token {
                    Token::Upper(n) | Token::Lower(n) => Ok((RawType::Ident(n), 1)),
                    _ => unreachable!(),
                }
            }
            Some(Token::LParen) => {
                self.next();
                self.open()?;
                let t = self.parse_type()?;
                self.expect(&Token::RParen, "`)`")?;
                self.open -= 1;
                Ok(t)
            }
            _ => Err(self.err("a type")),
        }
    }

    // term := aterm+
    fn parse_term(&mut self) -> Result<(RawTerm, usize), LangError> {
        let (mut t, mut depth) = self.parse_aterm("a term")?;
        while matches!(
            self.peek(),
            Some(Token::Upper(_) | Token::Lower(_) | Token::LParen)
        ) {
            let (arg, arg_depth) = self.parse_aterm("a term")?;
            depth = self.deeper(depth.max(arg_depth))?;
            t = RawTerm::App(Box::new(t), Box::new(arg));
        }
        Ok((t, depth))
    }

    // aterm := var | constructor | function | '(' term ')'. Clause
    // parameters are aterms too; `expected` names what a bad token
    // should have been.
    fn parse_aterm(&mut self, expected: &str) -> Result<(RawTerm, usize), LangError> {
        match self.peek() {
            Some(Token::Upper(_)) | Some(Token::Lower(_)) => {
                let Some(Spanned { token, line }) = self.next() else {
                    unreachable!()
                };
                match token {
                    Token::Upper(n) | Token::Lower(n) => Ok((RawTerm::Ident(n, line), 1)),
                    _ => unreachable!(),
                }
            }
            Some(Token::LParen) => {
                self.next();
                self.open()?;
                let t = self.parse_term()?;
                self.expect(&Token::RParen, "`)`")?;
                self.open -= 1;
                Ok(t)
            }
            _ => Err(self.err(expected)),
        }
    }

    fn parse_data(&mut self) -> Result<Decl, LangError> {
        let line = self.expect(&Token::Data, "`data`")?;
        let name = self.upper_name("a datatype name")?;
        let mut params = Vec::new();
        while let Some(Token::Lower(_)) = self.peek() {
            params.push(self.lower_name("a type parameter")?.0);
        }
        self.expect(&Token::Equals, "`=`")?;
        let mut cons = Vec::new();
        loop {
            let cname = self.upper_name("a constructor name")?;
            let mut args = Vec::new();
            while matches!(
                self.peek(),
                Some(Token::Upper(_) | Token::Lower(_) | Token::LParen)
            ) {
                args.push(self.parse_atype()?.0);
            }
            cons.push(RawCon { name: cname, args });
            if self.peek() == Some(&Token::Pipe) {
                self.next();
            } else {
                break;
            }
        }
        Ok(Decl::Data {
            name,
            params,
            cons,
            line,
        })
    }

    fn parse_goal(&mut self) -> Result<Decl, LangError> {
        let line = self.expect(&Token::Goal, "`goal`")?;
        let (name, _) = self.lower_name("a goal name")?;
        self.expect(&Token::Colon, "`:`")?;
        let (lhs, _) = self.parse_term()?;
        self.expect(&Token::EqEqEq, "`===`")?;
        let (rhs, _) = self.parse_term()?;
        Ok(Decl::Goal {
            name,
            lhs,
            rhs,
            line,
        })
    }

    fn parse_sig_or_clause(&mut self) -> Result<Decl, LangError> {
        let (name, line) = self.lower_name("a function name")?;
        if self.peek() == Some(&Token::ColonColon) {
            self.next();
            let (ty, _) = self.parse_type()?;
            return Ok(Decl::Sig { name, ty, line });
        }
        // Clause: patterns up to `=`.
        let mut params = Vec::new();
        while self.peek() != Some(&Token::Equals) {
            params.push(self.parse_aterm("a pattern")?.0);
        }
        self.expect(&Token::Equals, "`=`")?;
        let (rhs, _) = self.parse_term()?;
        Ok(Decl::Clause {
            name,
            params,
            rhs,
            line,
        })
    }

    fn parse_program(&mut self) -> Result<Vec<Decl>, LangError> {
        let mut decls = Vec::new();
        self.eat_seps();
        while self.pos < self.toks.len() {
            let decl = match self.peek() {
                Some(Token::Data) => self.parse_data()?,
                Some(Token::Goal) => self.parse_goal()?,
                Some(Token::Lower(_)) => self.parse_sig_or_clause()?,
                _ => return Err(self.err("a declaration")),
            };
            decls.push(decl);
            if self.pos < self.toks.len() {
                self.expect(&Token::Sep, "end of declaration")?;
            }
            self.eat_seps();
        }
        Ok(decls)
    }
}

/// Parses source text into raw declarations.
///
/// # Errors
///
/// Returns the first lexical or syntactic error with its line.
pub fn parse(src: &str) -> Result<Vec<Decl>, LangError> {
    let toks = lex(src)?;
    Parser {
        toks,
        pos: 0,
        open: 0,
    }
    .parse_program()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_data_with_params() {
        let decls = parse("data List a = Nil | Cons a (List a)\n").unwrap();
        match &decls[0] {
            Decl::Data {
                name, params, cons, ..
            } => {
                assert_eq!(name, "List");
                assert_eq!(params, &vec!["a".to_string()]);
                assert_eq!(cons.len(), 2);
                assert_eq!(cons[1].args.len(), 2);
            }
            other => panic!("expected data, got {other:?}"),
        }
    }

    #[test]
    fn parses_signature() {
        let decls = parse("add :: Nat -> Nat -> Nat\n").unwrap();
        assert!(matches!(&decls[0], Decl::Sig { name, .. } if name == "add"));
    }

    #[test]
    fn parses_clause_with_nested_pattern() {
        let decls = parse("add (S x) y = S (add x y)\n").unwrap();
        match &decls[0] {
            Decl::Clause { name, params, .. } => {
                assert_eq!(name, "add");
                assert_eq!(params.len(), 2);
                let (head, args) = params[0].spine();
                assert_eq!(head, &RawTerm::Ident("S".into(), 1));
                assert_eq!(args.len(), 1);
            }
            other => panic!("expected clause, got {other:?}"),
        }
    }

    #[test]
    fn parses_goal() {
        let decls = parse("goal comm: add x y === add y x\n").unwrap();
        assert!(matches!(&decls[0], Decl::Goal { name, .. } if name == "comm"));
    }

    #[test]
    fn parses_multiple_declarations() {
        let src = "data Nat = Z | S Nat\nadd :: Nat -> Nat -> Nat\nadd Z y = y\nadd (S x) y = S (add x y)\ngoal zr: add x Z === x\n";
        let decls = parse(src).unwrap();
        assert_eq!(decls.len(), 5);
    }

    #[test]
    fn reports_error_lines() {
        let err = parse("data Nat = Z\n???\n").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn errors_name_the_rejected_token() {
        for (src, message) in [
            (
                "data Nat = Z\ngoal Foo: Z === Z\n",
                "line 2: unexpected `Foo`, expected a goal name",
            ),
            (
                "data nat = Z | S nat\n",
                "line 1: unexpected `nat`, expected a datatype name",
            ),
            (
                "data Nat = Z | s Nat\n",
                "line 1: unexpected `s`, expected a constructor name",
            ),
        ] {
            assert_eq!(parse(src).unwrap_err().to_string(), message, "{src}");
        }
    }

    #[test]
    fn rejects_missing_rparen() {
        assert!(parse("f (S x = x\n").is_err());
    }

    /// Runs `f` on a thread with a main thread's 8 MiB of stack, which
    /// [`MAX_NESTING`] is sized for: a debug build recurses in larger frames
    /// than the test harness's 2 MiB threads hold at that depth.
    fn on_main_sized_stack(f: impl FnOnce() + Send + 'static) {
        std::thread::Builder::new()
            .stack_size(8 << 20)
            .spawn(f)
            .unwrap()
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
    }

    #[test]
    fn nesting_beyond_the_bound_is_an_error() {
        on_main_sized_stack(nesting_beyond_the_bound);
    }

    #[test]
    fn nesting_at_the_bound_parses() {
        on_main_sized_stack(nesting_at_the_bound);
    }

    fn nesting_beyond_the_bound() {
        // Parentheses, application spines and arrows each nest one level
        // deeper per step; 300 000 of them must be refused, not overflow
        // the stack.
        let deep = 300_000;
        let too_deep = [
            format!(
                "data Nat = Z\ngoal deep: {}Z{} === Z\n",
                "(".repeat(deep),
                ")".repeat(deep)
            ),
            format!("data Nat = Z\ngoal deep: f{} === Z\n", " Z".repeat(deep)),
            format!("data Nat = Z\nf :: {}Nat\n", "Nat -> ".repeat(deep)),
            format!(
                "data Nat = Z\nf :: {}Nat{}\n",
                "(".repeat(deep),
                ")".repeat(deep)
            ),
        ];
        for src in &too_deep {
            let err = parse(src).unwrap_err();
            assert_eq!(err.kind, LangErrorKind::TooDeep, "{}", &src[..40]);
            assert_eq!(
                err.to_string(),
                format!("line 2: nesting deeper than {MAX_NESTING} levels")
            );
        }
    }

    fn nesting_at_the_bound() {
        // A spine of `MAX_NESTING - 1` arguments is a tree `MAX_NESTING`
        // deep; one more argument is too deep.
        let spine = |args: usize| format!("goal g: f{} === Z\n", " Z".repeat(args));
        assert!(parse(&spine(MAX_NESTING - 1)).is_ok());
        assert_eq!(
            parse(&spine(MAX_NESTING)).unwrap_err().kind,
            LangErrorKind::TooDeep
        );
        // Parentheses open one level each.
        let parens = |n: usize| format!("goal g: {}Z{} === Z\n", "(".repeat(n), ")".repeat(n));
        assert!(parse(&parens(MAX_NESTING)).is_ok());
        assert_eq!(
            parse(&parens(MAX_NESTING + 1)).unwrap_err().kind,
            LangErrorKind::TooDeep
        );
    }

    #[test]
    fn semicolons_separate_declarations() {
        let decls = parse("a :: Nat; b :: Nat\n").unwrap();
        assert_eq!(decls.len(), 2);
    }
}
