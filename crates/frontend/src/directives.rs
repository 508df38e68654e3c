//! `// key: value` header directives.
//!
//! Corpus files carry machine-readable metadata in their leading comment
//! block — most importantly the verdict the checker is expected to
//! produce:
//!
//! ```text
//! // expect: violation
//! // delivery: unordered
//! program "fig1-assert" { … }
//! ```
//!
//! Unknown keys and free-form comment lines are ignored, so headers can
//! also hold prose. A `// delivery:` value that names no delivery model is
//! an error: dropping it would check the file under the wrong model.

use crate::diag::{render, Span};
use mcapi::error::McapiError;
use mcapi::types::DeliveryModel;
use std::fmt;

/// The verdict a corpus file expects from `mcapi-smc check`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Expect {
    /// No reachable assertion failure or deadlock.
    Safe,
    /// The checker must report a violation.
    Violation,
    /// The checker is allowed to give up (budget-bound scenarios).
    Unknown,
}

impl fmt::Display for Expect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Expect::Safe => "safe",
            Expect::Violation => "violation",
            Expect::Unknown => "unknown",
        })
    }
}

/// Parsed header directives of one source file.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Directives {
    /// `// expect: safe|violation|unknown`
    pub expect: Option<Expect>,
    /// `// delivery: unordered|pairwise-fifo|zero-delay`
    pub delivery: Option<DeliveryModel>,
    /// `// unroll: N` — sets the loop-unroll iteration bound for this
    /// file, replacing the default of 64 in either direction (the CLI's
    /// `--unroll` flag takes precedence).
    pub unroll: Option<usize>,
}

/// Parse a delivery-model tag (the CLI's spellings are accepted too).
pub fn parse_delivery(tag: &str) -> Option<DeliveryModel> {
    match tag {
        "unordered" => Some(DeliveryModel::Unordered),
        "fifo" | "pairwise-fifo" => Some(DeliveryModel::PairwiseFifo),
        "zero" | "zero-delay" => Some(DeliveryModel::ZeroDelay),
        _ => None,
    }
}

/// The leading comment block of `src`: every line before the first line
/// that is neither blank nor a `//` comment, with trailing blank lines
/// dropped. Returned verbatim (used by `fmt` to preserve headers).
pub fn leading_comment_block(src: &str) -> Vec<&str> {
    let mut block: Vec<&str> = Vec::new();
    for line in src.lines() {
        let t = line.trim_start();
        if t.starts_with("//") || t.is_empty() {
            block.push(line);
        } else {
            break;
        }
    }
    while block.last().is_some_and(|l| l.trim().is_empty()) {
        block.pop();
    }
    block
}

/// Extract directives from the leading comment block. An unknown
/// `// delivery:` value is a [`McapiError::Parse`] with a caret under the
/// value; other malformed values are ignored.
pub fn directives(src: &str) -> Result<Directives, McapiError> {
    let mut d = Directives::default();
    for line in leading_comment_block(src) {
        let Some(rest) = line.trim_start().strip_prefix("//") else {
            continue;
        };
        let Some((key, value)) = rest.split_once(':') else {
            continue;
        };
        let value = value.trim();
        match key.trim() {
            "expect" => {
                d.expect = match value {
                    "safe" => Some(Expect::Safe),
                    "violation" => Some(Expect::Violation),
                    "unknown" => Some(Expect::Unknown),
                    _ => d.expect,
                }
            }
            "delivery" => match parse_delivery(value) {
                Some(model) => d.delivery = Some(model),
                None => {
                    // `value` is a subslice of `src`: its offset locates the caret.
                    let start = value.as_ptr() as usize - src.as_ptr() as usize;
                    let message = format!(
                        "unknown delivery model `{value}` in the `// delivery:` header; \
                         expected unordered|fifo|zero"
                    );
                    let span = Span::new(start, start + value.len());
                    return Err(McapiError::Parse(render(src, span, &message)));
                }
            },
            "unroll" => d.unroll = value.parse().ok().or(d.unroll),
            _ => {}
        }
    }
    Ok(d)
}

/// Every `// expect-lint: <substring>` header line, in order. Each names
/// a finding the file exists to demonstrate: `mcapi-smc lint` (and the
/// corpus golden test) requires some finding's message to contain the
/// substring, and flags findings no header covers.
pub fn expect_lints(src: &str) -> Vec<String> {
    leading_comment_block(src)
        .iter()
        .filter_map(|line| line.trim_start().strip_prefix("//"))
        .filter_map(|rest| rest.split_once(':'))
        .filter(|(key, _)| key.trim() == "expect-lint")
        .map(|(_, value)| value.trim().to_string())
        .filter(|v| !v.is_empty())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_expect_lint_headers_in_order() {
        let src = "// expect: safe\n\
                   // expect-lint: can never be matched\n\
                   // expect-lint: never waited on\n\
                   //expect-lint:\n\
                   program p {}";
        assert_eq!(
            expect_lints(src),
            vec!["can never be matched", "never waited on"]
        );
        // `expect:` and `expect-lint:` are distinct keys.
        assert_eq!(directives(src).unwrap().expect, Some(Expect::Safe));
        assert!(expect_lints("program p {}").is_empty());
    }

    #[test]
    fn reads_expect_and_delivery() {
        let d = directives(
            "// A fine program.\n// expect: violation\n// delivery: zero-delay\nprogram p {}",
        )
        .unwrap();
        assert_eq!(d.expect, Some(Expect::Violation));
        assert_eq!(d.delivery, Some(DeliveryModel::ZeroDelay));
        assert_eq!(d.unroll, None);
    }

    #[test]
    fn reads_unroll_bound() {
        let d = directives("// unroll: 200\nprogram p {}").unwrap();
        assert_eq!(d.unroll, Some(200));
        // Malformed values are ignored, not a parse failure.
        let d = directives("// unroll: lots\nprogram p {}").unwrap();
        assert_eq!(d.unroll, None);
    }

    #[test]
    fn rejects_an_unknown_delivery_value() {
        let src = "// expect: safe\n// delivery: zero-dealy\nprogram p {}";
        let McapiError::Parse(d) = directives(src).unwrap_err() else {
            panic!("a header error is a parse diagnostic");
        };
        assert_eq!((d.line, d.col), (2, 14));
        assert!(d.message.contains("`zero-dealy`"), "{}", d.message);
        assert!(d.rendered.contains("^^^^^^^^^^"), "{}", d.rendered);
    }

    #[test]
    fn stops_at_first_code_line() {
        let d = directives("program p {}\n// expect: safe\n").unwrap();
        assert_eq!(d.expect, None);
    }

    #[test]
    fn ignores_unknown_keys_and_prose() {
        let d =
            directives("// note: race between t1 and t2\n// expect: safe\nprogram p {}").unwrap();
        assert_eq!(d.expect, Some(Expect::Safe));
        assert_eq!(d.delivery, None);
    }

    #[test]
    fn comment_block_drops_trailing_blanks() {
        let block = leading_comment_block("// a\n\n// b\n\n\nprogram p {}");
        assert_eq!(block, vec!["// a", "", "// b"]);
    }
}
