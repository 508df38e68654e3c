//! Experiment harness crate: the per-figure experiment binaries live in
//! `src/bin/` (`exp_*`); this library holds the markdown-table helpers
//! they share. Run one with
//! `cargo run --release -p bench --bin <name>`.

/// Format a markdown table row.
pub fn row(cells: &[String]) -> String {
    format!("| {} |", cells.join(" | "))
}

/// Format a markdown table header with separator.
pub fn header(cells: &[&str]) -> String {
    let head = format!("| {} |", cells.join(" | "));
    let sep = format!("|{}", "---|".repeat(cells.len()));
    format!("{head}\n{sep}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_formatting() {
        assert_eq!(row(&["a".into(), "b".into()]), "| a | b |");
        let h = header(&["x", "y"]);
        assert!(h.contains("| x | y |"));
        assert!(h.contains("|---|---|"));
    }
}
