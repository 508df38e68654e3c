//! Reference verdicts per (program, delivery), committed as
//! `reference.tsv` and derived from the explicit ground-truth engine.

use driver::VerdictKind;
use std::collections::BTreeMap;

/// The committed table, embedded at build time.
const REFERENCE_TSV: &str = include_str!("../reference.tsv");

/// Expected verdicts keyed by `(program, delivery)`.
#[derive(Clone, Debug, Default)]
pub struct References(BTreeMap<(String, String), VerdictKind>);

impl References {
    /// Parse the tab-separated table:
    /// `program<TAB>delivery<TAB>verdict<TAB>source`, `#` comments and
    /// blank lines ignored. The source names the engine that derived the
    /// verdict.
    pub fn parse(text: &str) -> Result<References, String> {
        let mut map = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split('\t').collect();
            let [program, delivery, verdict, _source] = fields[..] else {
                return Err(format!("reference line {}: expected 4 fields", n + 1));
            };
            let verdict = match verdict {
                "safe" => VerdictKind::Safe,
                "violation" => VerdictKind::Violation,
                other => return Err(format!("reference line {}: verdict {other:?}", n + 1)),
            };
            if map
                .insert((program.to_string(), delivery.to_string()), verdict)
                .is_some()
            {
                return Err(format!("reference line {}: duplicate entry", n + 1));
            }
        }
        Ok(References(map))
    }

    /// The committed table.
    pub fn load() -> Result<References, String> {
        References::parse(REFERENCE_TSV)
    }

    /// The expected verdict, if the table has one.
    pub fn get(&self, program: &str, delivery: &str) -> Option<VerdictKind> {
        self.0
            .get(&(program.to_string(), delivery.to_string()))
            .copied()
    }

    /// Render `(program, delivery, verdict, source)` rows in the
    /// committed format.
    pub fn render(rows: &[(String, String, VerdictKind, &str)]) -> String {
        let mut out = String::from(
            "# program\tdelivery\tverdict\tsource: the explicit engine where it finishes,\n\
             # else symbolic-paths; cross-checked against every symbolic engine.\n\
             # Regenerate with `perfbench --derive-references`.\n",
        );
        for (program, delivery, verdict, source) in rows {
            let verdict = match verdict {
                VerdictKind::Violation => "violation",
                _ => "safe",
            };
            out.push_str(&format!("{program}\t{delivery}\t{verdict}\t{source}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_table_parses_and_round_trips() {
        let refs = References::load().unwrap();
        assert!(refs.0.len() >= 90, "{} rows", refs.0.len());
        let rows: Vec<_> = refs
            .0
            .iter()
            .map(|((p, d), v)| (p.clone(), d.clone(), *v, "explicit"))
            .collect();
        let again = References::parse(&References::render(&rows)).unwrap();
        assert_eq!(again.0, refs.0);
    }

    #[test]
    fn malformed_rows_are_rejected() {
        assert!(References::parse("fig1\tunordered\tsafe").is_err());
        assert!(References::parse("fig1\tunordered\tmaybe\texplicit").is_err());
        assert!(References::parse("a\tb\tsafe\tx\na\tb\tsafe\tx").is_err());
    }
}
