//! A recursive-descent parser for the frontend language.

use crate::ast::{Decl, RawCon, RawTerm, RawType};
use crate::error::{LangError, LangErrorKind};
use crate::lexer::lex;
use crate::token::{Spanned, Token};

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
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

    fn expect(&mut self, want: &Token, expected: &str) -> Result<u32, LangError> {
        match self.peek() {
            Some(t) if t == want => Ok(self.next().expect("peeked").line),
            _ => Err(self.err(expected)),
        }
    }

    fn eat_seps(&mut self) {
        while self.peek() == Some(&Token::Sep) {
            self.pos += 1;
        }
    }

    // type := btype ('->' type)?
    fn parse_type(&mut self) -> Result<RawType, LangError> {
        let lhs = self.parse_btype()?;
        if self.peek() == Some(&Token::Arrow) {
            self.next();
            let rhs = self.parse_type()?;
            Ok(RawType::Arrow(Box::new(lhs), Box::new(rhs)))
        } else {
            Ok(lhs)
        }
    }

    // btype := atype+
    fn parse_btype(&mut self) -> Result<RawType, LangError> {
        let mut t = self.parse_atype()?;
        while matches!(
            self.peek(),
            Some(Token::Upper(_) | Token::Lower(_) | Token::LParen)
        ) {
            let arg = self.parse_atype()?;
            t = RawType::App(Box::new(t), Box::new(arg));
        }
        Ok(t)
    }

    fn parse_atype(&mut self) -> Result<RawType, LangError> {
        match self.peek() {
            Some(Token::Upper(_)) | Some(Token::Lower(_)) => {
                let Some(Spanned { token, .. }) = self.next() else {
                    unreachable!()
                };
                match token {
                    Token::Upper(n) | Token::Lower(n) => Ok(RawType::Ident(n)),
                    _ => unreachable!(),
                }
            }
            Some(Token::LParen) => {
                self.next();
                let t = self.parse_type()?;
                self.expect(&Token::RParen, "`)`")?;
                Ok(t)
            }
            _ => Err(self.err("a type")),
        }
    }

    // term := aterm+
    fn parse_term(&mut self) -> Result<RawTerm, LangError> {
        let mut t = self.parse_aterm()?;
        while matches!(
            self.peek(),
            Some(Token::Upper(_) | Token::Lower(_) | Token::LParen)
        ) {
            let arg = self.parse_aterm()?;
            t = RawTerm::App(Box::new(t), Box::new(arg));
        }
        Ok(t)
    }

    fn parse_aterm(&mut self) -> Result<RawTerm, LangError> {
        match self.peek() {
            Some(Token::Upper(_)) | Some(Token::Lower(_)) => {
                let Some(Spanned { token, line }) = self.next() else {
                    unreachable!()
                };
                match token {
                    Token::Upper(n) | Token::Lower(n) => Ok(RawTerm::Ident(n, line)),
                    _ => unreachable!(),
                }
            }
            Some(Token::LParen) => {
                self.next();
                let t = self.parse_term()?;
                self.expect(&Token::RParen, "`)`")?;
                Ok(t)
            }
            _ => Err(self.err("a term")),
        }
    }

    // pattern atoms for clause parameters: var, nullary constructor, or
    // parenthesised application.
    fn parse_pattern_atom(&mut self) -> Result<RawTerm, LangError> {
        match self.peek() {
            Some(Token::Lower(_)) | Some(Token::Upper(_)) => {
                let Some(Spanned { token, line }) = self.next() else {
                    unreachable!()
                };
                match token {
                    Token::Upper(n) | Token::Lower(n) => Ok(RawTerm::Ident(n, line)),
                    _ => unreachable!(),
                }
            }
            Some(Token::LParen) => {
                self.next();
                let t = self.parse_term()?;
                self.expect(&Token::RParen, "`)`")?;
                Ok(t)
            }
            _ => Err(self.err("a pattern")),
        }
    }

    fn parse_data(&mut self) -> Result<Decl, LangError> {
        let line = self.expect(&Token::Data, "`data`")?;
        let name = match self.next() {
            Some(Spanned {
                token: Token::Upper(n),
                ..
            }) => n,
            _ => return Err(self.err("a datatype name")),
        };
        let mut params = Vec::new();
        while let Some(Token::Lower(_)) = self.peek() {
            let Some(Spanned {
                token: Token::Lower(p),
                ..
            }) = self.next()
            else {
                unreachable!()
            };
            params.push(p);
        }
        self.expect(&Token::Equals, "`=`")?;
        let mut cons = Vec::new();
        loop {
            let cname = match self.next() {
                Some(Spanned {
                    token: Token::Upper(n),
                    ..
                }) => n,
                _ => return Err(self.err("a constructor name")),
            };
            let mut args = Vec::new();
            while matches!(
                self.peek(),
                Some(Token::Upper(_) | Token::Lower(_) | Token::LParen)
            ) {
                args.push(self.parse_atype()?);
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
        let name = match self.next() {
            Some(Spanned {
                token: Token::Lower(n),
                ..
            }) => n,
            _ => return Err(self.err("a goal name")),
        };
        self.expect(&Token::Colon, "`:`")?;
        let lhs = self.parse_term()?;
        self.expect(&Token::EqEqEq, "`===`")?;
        let rhs = self.parse_term()?;
        Ok(Decl::Goal {
            name,
            lhs,
            rhs,
            line,
        })
    }

    fn parse_sig_or_clause(&mut self) -> Result<Decl, LangError> {
        let (name, line) = match self.next() {
            Some(Spanned {
                token: Token::Lower(n),
                line,
            }) => (n, line),
            _ => return Err(self.err("a function name")),
        };
        if self.peek() == Some(&Token::ColonColon) {
            self.next();
            let ty = self.parse_type()?;
            return Ok(Decl::Sig { name, ty, line });
        }
        // Clause: patterns up to `=`.
        let mut params = Vec::new();
        while self.peek() != Some(&Token::Equals) {
            params.push(self.parse_pattern_atom()?);
        }
        self.expect(&Token::Equals, "`=`")?;
        let rhs = self.parse_term()?;
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
    Parser { toks, pos: 0 }.parse_program()
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
    fn rejects_missing_rparen() {
        assert!(parse("f (S x = x\n").is_err());
    }

    #[test]
    fn semicolons_separate_declarations() {
        let decls = parse("a :: Nat; b :: Nat\n").unwrap();
        assert_eq!(decls.len(), 2);
    }
}
