//! Frontend errors, with source line information.

use std::error::Error;
use std::fmt;

/// What went wrong.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LangErrorKind {
    /// An unexpected character in the source.
    UnexpectedChar(char),
    /// An unexpected token; the string describes what was expected.
    UnexpectedToken { found: String, expected: String },
    /// Unexpected end of input.
    UnexpectedEof,
    /// A name was declared twice.
    Duplicate(String),
    /// An identifier is not in scope.
    Unknown(String),
    /// A function clause appears without a preceding type signature.
    MissingSignature(String),
    /// A pattern repeats a variable.
    NonLinearPattern(String),
    /// A constructor pattern has the wrong number of arguments.
    PatternArity {
        constructor: String,
        expected: usize,
        got: usize,
    },
    /// A type error, rendered.
    Type(String),
    /// A clause violates the polymorphic signature (a rigid type variable
    /// was forced to a concrete type).
    RigidEscape(String),
    /// A term or type nests deeper than
    /// [`MAX_NESTING`](cycleq_term::MAX_NESTING) levels.
    TooDeep,
    /// A rewrite-rule shape violation from the rewrite layer.
    Rule(String),
}

/// A frontend error at a source line.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LangError {
    /// The 1-based line number.
    pub line: u32,
    /// The failure.
    pub kind: LangErrorKind,
}

impl LangError {
    pub(crate) fn new(line: u32, kind: LangErrorKind) -> LangError {
        LangError { line, kind }
    }
}

impl fmt::Display for LangError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.kind)
    }
}

impl fmt::Display for LangErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LangErrorKind::UnexpectedChar(c) => write!(f, "unexpected character `{c}`"),
            LangErrorKind::UnexpectedToken { found, expected } => {
                write!(f, "unexpected `{found}`, expected {expected}")
            }
            LangErrorKind::UnexpectedEof => write!(f, "unexpected end of input"),
            LangErrorKind::Duplicate(n) => write!(f, "duplicate declaration of `{n}`"),
            LangErrorKind::Unknown(n) => write!(f, "unknown identifier `{n}`"),
            LangErrorKind::MissingSignature(n) => {
                write!(f, "clause for `{n}` has no preceding type signature")
            }
            LangErrorKind::NonLinearPattern(v) => {
                write!(f, "pattern repeats variable `{v}`")
            }
            LangErrorKind::PatternArity {
                constructor,
                expected,
                got,
            } => write!(
                f,
                "constructor `{constructor}` expects {expected} pattern argument(s), got {got}"
            ),
            LangErrorKind::Type(msg) => write!(f, "type error: {msg}"),
            LangErrorKind::RigidEscape(msg) => {
                write!(f, "clause is less polymorphic than its signature: {msg}")
            }
            LangErrorKind::TooDeep => {
                write!(f, "nesting deeper than {} levels", cycleq_term::MAX_NESTING)
            }
            LangErrorKind::Rule(msg) => write!(f, "invalid rule: {msg}"),
        }
    }
}

impl Error for LangError {}
