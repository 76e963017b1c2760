//! A hand-written lexer for the frontend language.
//!
//! Declarations are newline-terminated (`;` also works); `--` starts a
//! comment running to the end of the line. Blank lines are collapsed.

use crate::error::{LangError, LangErrorKind};
use crate::token::{Spanned, Token};

/// Tokenises the source.
///
/// # Errors
///
/// Returns a [`LangError`] on unexpected characters.
pub fn lex(src: &str) -> Result<Vec<Spanned>, LangError> {
    let mut out: Vec<Spanned> = Vec::new();
    let mut line: u32 = 1;
    let mut chars = src.chars().peekable();
    let push = |t: Token, line: u32, out: &mut Vec<Spanned>| {
        // Collapse separators and drop leading ones.
        if t == Token::Sep && out.last().map(|s| &s.token) == Some(&Token::Sep) {
            return;
        }
        if t == Token::Sep && out.is_empty() {
            return;
        }
        out.push(Spanned { token: t, line });
    };
    while let Some(&c) = chars.peek() {
        match c {
            '\n' => {
                chars.next();
                push(Token::Sep, line, &mut out);
                line += 1;
            }
            ' ' | '\t' | '\r' => {
                chars.next();
            }
            ';' => {
                chars.next();
                push(Token::Sep, line, &mut out);
            }
            '(' => {
                chars.next();
                push(Token::LParen, line, &mut out);
            }
            ')' => {
                chars.next();
                push(Token::RParen, line, &mut out);
            }
            '|' => {
                chars.next();
                push(Token::Pipe, line, &mut out);
            }
            ':' => {
                chars.next();
                if chars.peek() == Some(&':') {
                    chars.next();
                    push(Token::ColonColon, line, &mut out);
                } else {
                    push(Token::Colon, line, &mut out);
                }
            }
            '=' => {
                chars.next();
                if chars.peek() == Some(&'=') {
                    chars.next();
                    if chars.next() != Some('=') {
                        return Err(LangError::new(line, LangErrorKind::UnexpectedChar('=')));
                    }
                    push(Token::EqEqEq, line, &mut out);
                } else {
                    push(Token::Equals, line, &mut out);
                }
            }
            '-' => {
                chars.next();
                match chars.peek() {
                    Some('-') => {
                        // Comment to end of line.
                        for c in chars.by_ref() {
                            if c == '\n' {
                                push(Token::Sep, line, &mut out);
                                line += 1;
                                break;
                            }
                        }
                    }
                    Some('>') => {
                        chars.next();
                        push(Token::Arrow, line, &mut out);
                    }
                    other => {
                        return Err(LangError::new(
                            line,
                            LangErrorKind::UnexpectedChar(other.copied().unwrap_or('-')),
                        ))
                    }
                }
            }
            c if c.is_alphabetic() || c == '_' => {
                let mut name = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_alphanumeric() || c == '_' || c == '\'' {
                        name.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                let tok = match name.as_str() {
                    "data" => Token::Data,
                    "goal" => Token::Goal,
                    _ if name.chars().next().is_some_and(char::is_uppercase) => Token::Upper(name),
                    _ => Token::Lower(name),
                };
                push(tok, line, &mut out);
            }
            other => return Err(LangError::new(line, LangErrorKind::UnexpectedChar(other))),
        }
    }
    // Ensure a trailing separator for uniform parsing.
    push(Token::Sep, line, &mut out);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_data_declaration() {
        let toks = lex("data Nat = Z | S Nat\n").unwrap();
        let kinds: Vec<&Token> = toks.iter().map(|s| &s.token).collect();
        assert_eq!(
            kinds,
            vec![
                &Token::Data,
                &Token::Upper("Nat".into()),
                &Token::Equals,
                &Token::Upper("Z".into()),
                &Token::Pipe,
                &Token::Upper("S".into()),
                &Token::Upper("Nat".into()),
                &Token::Sep,
            ]
        );
    }

    #[test]
    fn lexes_signature_and_arrow() {
        let toks = lex("add :: Nat -> Nat -> Nat").unwrap();
        assert!(toks.iter().any(|s| s.token == Token::ColonColon));
        assert_eq!(toks.iter().filter(|s| s.token == Token::Arrow).count(), 2);
    }

    #[test]
    fn comments_are_skipped() {
        let toks = lex("-- a comment\nadd :: Nat -- trailing\n").unwrap();
        assert!(toks
            .iter()
            .all(|s| !matches!(s.token, Token::Upper(ref u) if u == "a")));
        assert!(toks.iter().any(|s| s.token == Token::Lower("add".into())));
    }

    #[test]
    fn blank_lines_collapse() {
        let toks = lex("a\n\n\nb\n").unwrap();
        let seps = toks.iter().filter(|s| s.token == Token::Sep).count();
        assert_eq!(seps, 2);
    }

    #[test]
    fn triple_equals_lexes() {
        let toks = lex("goal g: x === y\n").unwrap();
        assert!(toks.iter().any(|s| s.token == Token::EqEqEq));
        assert!(toks.iter().any(|s| s.token == Token::Colon));
    }

    #[test]
    fn primes_in_identifiers() {
        let toks = lex("x' y''\n").unwrap();
        assert_eq!(toks[0].token, Token::Lower("x'".into()));
        assert_eq!(toks[1].token, Token::Lower("y''".into()));
    }

    #[test]
    fn line_numbers_advance() {
        let toks = lex("a\nb\nc\n").unwrap();
        let c = toks
            .iter()
            .find(|s| s.token == Token::Lower("c".into()))
            .unwrap();
        assert_eq!(c.line, 3);
    }

    #[test]
    fn double_equals_is_an_error() {
        assert!(lex("x == y").is_err());
    }

    #[test]
    fn stray_unicode_is_an_error() {
        // `≡` is not alphabetic, so it cannot start an identifier.
        let err = lex("x ≡ y").unwrap_err();
        assert_eq!(err.line, 1);
        assert_eq!(err.kind, LangErrorKind::UnexpectedChar('≡'));
    }
}
