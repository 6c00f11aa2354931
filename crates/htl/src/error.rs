//! Parse errors.

use std::fmt;

/// What a [`ParseError`] rejects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// Malformed input: an unexpected character, token or literal.
    Syntax,
    /// Input nested deeper than [`crate::MAX_FORMULA_DEPTH`].
    TooDeep,
}

/// An error produced while lexing or parsing HTL text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input where the error was detected.
    pub pos: usize,
    /// Human-readable description.
    pub msg: String,
    /// What the error rejects.
    pub kind: ParseErrorKind,
}

impl ParseError {
    pub(crate) fn new(pos: usize, msg: impl Into<String>) -> Self {
        ParseError {
            pos,
            msg: msg.into(),
            kind: ParseErrorKind::Syntax,
        }
    }

    pub(crate) fn too_deep(pos: usize) -> Self {
        ParseError {
            pos,
            msg: format!(
                "formula nests deeper than {} levels",
                crate::MAX_FORMULA_DEPTH
            ),
            kind: ParseErrorKind::TooDeep,
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for ParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_position_and_message() {
        let e = ParseError::new(17, "expected ')'");
        let s = e.to_string();
        assert!(s.contains("17"));
        assert!(s.contains("expected ')'"));
    }
}
