//! The combined source pass: Layer-2 lint + Layer-3 concurrency +
//! stale-suppression audit, in one workspace walk.
//!
//! Both source layers share one [`crate::scanner::SourceFile`] parse per
//! file, and every suppression that fires marks its directive used. The
//! final sweep then reports `W131` for any justified `lint: allow(..)`
//! directive that no longer suppresses anything — a stale directive is a
//! standing invitation to reintroduce the bug it once excused.
//! Directives inside `#[cfg(test)]` regions and directives without a
//! reason (which never suppress anything: the finding they fail to waive
//! is still reported) are exempt.
//!
//! Output is deterministic: diagnostics are sorted by file, line, then
//! code via [`crate::diagnostic::sort_diagnostics`].

use crate::concurrency;
use crate::diagnostic::{codes, sort_diagnostics, Diagnostic};
use crate::lint;
use crate::scanner::{load_workspace, SourceFile};
use std::path::Path;

/// Runs every source layer over `crates/**/src/**/*.rs` under
/// `workspace_root` and returns the sorted findings.
pub fn analyze_sources(workspace_root: &Path) -> Vec<Diagnostic> {
    analyze_files(&load_workspace(workspace_root))
}

fn analyze_files(files: &[SourceFile]) -> Vec<Diagnostic> {
    let mut out = lint::lint_files(files);
    out.extend(concurrency::check_files(files));
    // Staleness is judged after every layer has had its chance to use a
    // directive — a directive is stale only if nothing fired under it.
    for file in files {
        for d in file.stale_directives() {
            out.push(
                Diagnostic::warning(
                    codes::CONC_STALE_ALLOW,
                    format!("{}:{}", file.display_path, d.line),
                    format!(
                        "`lint: allow({})` suppresses nothing — no {} finding occurs here",
                        d.code, d.code
                    ),
                )
                .with_help(
                    "delete the directive; a stale allow silently re-admits \
                     the pattern it once excused",
                ),
            );
        }
    }
    sort_diagnostics(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // The stale-directive sweep itself, exercised on in-memory sources
    // (the workspace-level integration lives in tests/static_analysis.rs).
    fn stale_codes(source: &str) -> Vec<Diagnostic> {
        analyze_files(&[SourceFile::parse("crates/exec/src/x.rs", "exec", source)])
    }

    #[test]
    fn used_directive_is_not_stale() {
        let src = "fn f(x: Option<u8>) -> u8 {\n\
                   // lint: allow(E104 value is checked by the caller)\n\
                   x.unwrap()\n\
                   }\n";
        let found = stale_codes(src);
        assert!(found.is_empty(), "{found:#?}");
    }

    #[test]
    fn unused_directive_is_stale() {
        let src = "fn f(x: u8) -> u8 {\n\
                   // lint: allow(E104 value is checked by the caller)\n\
                   x + 1\n\
                   }\n";
        let found = stale_codes(src);
        assert_eq!(found.len(), 1, "{found:#?}");
        assert_eq!(found[0].code, codes::CONC_STALE_ALLOW);
        assert!(found[0].location.ends_with(":2"), "{found:#?}");
    }
}
