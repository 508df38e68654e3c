//! Error type shared across the solver stack.

use std::fmt;

/// Errors surfaced by the SMT front-end.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SmtError {
    /// An integer expression fell outside the difference-logic fragment
    /// (more than one positive or negative unit-coefficient variable).
    NotDifferenceLogic(String),
    /// A term of the wrong sort was used where a Boolean was expected.
    SortMismatch(String),
}

impl fmt::Display for SmtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SmtError::NotDifferenceLogic(m) => write!(f, "not difference logic: {m}"),
            SmtError::SortMismatch(m) => write!(f, "sort mismatch: {m}"),
        }
    }
}

impl std::error::Error for SmtError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SmtError::NotDifferenceLogic("x + y".into());
        assert!(e.to_string().contains("difference"));
    }
}
