//! # frontend — the MCAPI-lite textual language
//!
//! The rest of the workspace builds programs through
//! [`mcapi::builder::ProgramBuilder`] or the hardcoded workload grid.
//! This crate adds a small textual language — **MCAPI-lite** — covering
//! everything [`mcapi::program::Op`] supports (threads, ports, `send` /
//! `send_i` / `recv` / `recv_i` with expressions, `wait`, assignment,
//! `assert`, `if`/`else`), so the checker and the portfolio driver can be
//! pointed at arbitrary `.mcapi` files.
//!
//! The pipeline: [`lexer`] → [`parser`] (spanned
//! [`ParseError`]s rendered with a source-line caret) → [`ast`] →
//! [`mod@lower`] (onto `ProgramBuilder`, reusing its validation) →
//! [`mcapi::program::Program`]. The [`mod@pretty`] printer inverts it:
//! `lower(parse(pretty(p)))` is structurally equal to `p` for any
//! builder-built program.
//!
//! ```
//! let source = r#"
//! program demo {
//!   thread server {
//!     var request;
//!     request = recv(0);
//!     send(client:0, request + 1);
//!   }
//!   thread client {
//!     var reply;
//!     send(server:0, 41);
//!     reply = recv(0);
//!     assert(reply == 42, "ping+1");
//!   }
//! }
//! "#;
//! let program = frontend::parse_program(source).unwrap();
//! assert_eq!(program.threads.len(), 2);
//!
//! // Canonical form round-trips to the same program.
//! let canon = frontend::pretty(&program);
//! assert_eq!(frontend::parse_program(&canon).unwrap(), program);
//! ```
//!
//! Errors point at the source:
//!
//! ```
//! let err = frontend::parse_program("program p { thread t0 { x = recv(0) } }").unwrap_err();
//! let rendered = err.to_string();
//! assert!(rendered.contains("expected `;`"));
//! assert!(rendered.contains("--> line 1"));
//! assert!(rendered.contains('^'));
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod diag;
pub mod directives;
pub mod lexer;
pub mod lint;
pub mod lower;
pub mod parser;
pub mod pretty;

pub use diag::{FrontendError, LowerError, ParseError, Span};
pub use directives::{
    directives, expect_lints, leading_comment_block, parse_delivery, Directives, Expect,
};
pub use lint::{check_expectations, lint_source, Expectations, LintFinding, LintReport};
pub use lower::{lower, lower_with};
pub use parser::parse;
pub use pretty::pretty;

use mcapi::error::McapiError;
use mcapi::program::{Program, UnrollConfig};

/// Parse and lower MCAPI-lite source into a compiled, validated
/// [`Program`]. Syntax and lowering failures arrive as
/// [`McapiError::Parse`] with a full caret diagnostic; validation
/// failures keep their usual [`McapiError::Validation`] shape.
///
/// `repeat` loops are unrolled under the file's `// unroll: N` header
/// bound when present, the default [`UnrollConfig`] otherwise. A header
/// naming an unknown delivery model is rejected ([`directives()`]). Callers
/// with an explicit bound (the CLI's `--unroll` flag) use
/// [`parse_program_with`].
pub fn parse_program(source: &str) -> Result<Program, McapiError> {
    let unroll = match directives(source)?.unroll {
        Some(n) => UnrollConfig::with_max_count(n),
        None => UnrollConfig::default(),
    };
    parse_program_with(source, &unroll)
}

/// [`parse_program`] with explicit loop-unroll bounds, ignoring any
/// `// unroll:` header.
pub fn parse_program_with(source: &str, unroll: &UnrollConfig) -> Result<Program, McapiError> {
    let file = parser::parse(source).map_err(|e| McapiError::Parse(e.diagnostic(source)))?;
    match lower::lower_with(&file, unroll) {
        Ok(p) => Ok(p),
        Err(FrontendError::Parse(e)) => Err(McapiError::Parse(e.diagnostic(source))),
        Err(FrontendError::Lower(e)) => Err(McapiError::Parse(e.diagnostic(source))),
        Err(FrontendError::Invalid(e)) => Err(e),
    }
}

/// Reformat MCAPI-lite source into canonical form, preserving the leading
/// comment block (where `// expect:` headers live). Idempotent:
/// `format_source(format_source(s)?)` returns the same text.
pub fn format_source(source: &str) -> Result<String, McapiError> {
    let program = parse_program(source)?;
    let header = leading_comment_block(source);
    let body = pretty(&program);
    if header.is_empty() {
        Ok(body)
    } else {
        Ok(format!("{}\n{}", header.join("\n"), body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEMO: &str = r#"// expect: safe
// a demo exchange
program demo {
  thread a { var x; send(b:0, 1); x = recv(0); }
  thread b { var y; y = recv(0); send(a:0, y + 1); }
}
"#;

    #[test]
    fn format_preserves_header_and_is_idempotent() {
        let once = format_source(DEMO).unwrap();
        assert!(once.starts_with("// expect: safe\n// a demo exchange\nprogram demo {"));
        let twice = format_source(&once).unwrap();
        assert_eq!(once, twice);
        // Directives survive formatting.
        assert_eq!(directives(&once).unwrap().expect, Some(Expect::Safe));
    }

    #[test]
    fn format_of_headerless_source_is_idempotent_too() {
        let src = "program p { thread t0 { var a; a = 1; } }";
        let once = format_source(src).unwrap();
        assert_eq!(once, format_source(&once).unwrap());
        assert!(once.starts_with("program p {"));
    }

    #[test]
    fn unroll_header_raises_the_bound_and_survives_fmt() {
        let src = "// unroll: 100\n// expect: safe\n\
                   program p { thread t0 { var x; x = 0; repeat 100 { x = x + 1; } } }";
        // Without the header the default bound (64) rejects the loop.
        let headerless = src.lines().skip(1).collect::<Vec<_>>().join("\n");
        assert!(parse_program(&headerless).is_err());
        let p = parse_program(src).unwrap();
        assert_eq!(p.threads[0].code.len(), 101);
        // fmt preserves the header, so the formatted file still parses.
        let once = format_source(src).unwrap();
        assert!(once.starts_with("// unroll: 100\n"), "{once}");
        assert_eq!(once, format_source(&once).unwrap());
        assert_eq!(parse_program(&once).unwrap(), p);
    }

    #[test]
    fn parse_program_reports_lower_errors_as_parse_diagnostics() {
        let err = parse_program("program p { thread t0 { x = 1; } }").unwrap_err();
        let McapiError::Parse(d) = err else {
            panic!("{err:?}")
        };
        assert!(d.message.contains("unknown variable `x`"));
        assert!(d.rendered.contains("x = 1;"), "{}", d.rendered);
    }

    #[test]
    fn roundtrip_covers_every_op_shape() {
        let src = r#"
program kitchen_sink {
  thread t0 {
    port 2;
    var v0, v1;
    req r0, r1;
    send(t1:0, 7);
    send_i(t1:0, (v0 + 3), r0);
    v0 = recv(0);
    v1, r1 = recv_i(2);
    wait(r0);
    wait(r1);
    v1 = (v0 - 2);
    if ((v0 < 5 && v1 != 0)) {
      assert((v0 == 1 || v1 >= -4), "msg");
    } else {
      if (!(v0 <= 0)) {
        v0 = 9;
      }
    }
    assert(true);
    assert(false, "never");
  }
  thread t1 {
    var w0;
    w0 = recv(0);
    send(t0:0, (w0 + 1));
    send(t0:2, 0);
  }
}
"#;
        let p = parse_program(src).unwrap();
        let canon = pretty(&p);
        let p2 = parse_program(&canon).unwrap();
        assert_eq!(p, p2, "canonical form must round-trip exactly:\n{canon}");
        // And the canonical text itself is a formatting fixpoint.
        assert_eq!(canon, pretty(&p2));
    }
}
