//! The shared brace/item-aware source scanner underneath the
//! source-level analysis layers: the Layer-2 determinism lint
//! ([`crate::lint`]) and the Layer-3 concurrency pass
//! ([`crate::concurrency`]).
//!
//! A [`SourceFile`] is parsed once per analysis run and carries:
//!
//! * the comment/string-stripped lines ([`strip_source`] preserves line
//!   structure, so needle matching never fires inside prose);
//! * a per-line **test mask**: lines belonging to a `#[cfg(test)]` item
//!   are excluded from every source pass. The mask tracks brace depth,
//!   so code *after* a test module is scanned again — test modules are
//!   not assumed to close the file;
//! * a per-line `thread_local!` mask (a thread-local is per-thread by
//!   construction, so the lint's shared-state row exempts it);
//! * every `lint: allow(CODE reason)` directive (read from the raw
//!   lines), with usage tracking:
//!   a pass that suppresses a finding marks the directive used, and the
//!   stale-directive pass (`W131`) warns about the ones nothing used.
//!
//! Directive lines inside doc comments (`///`, `//!`) are prose, not
//! directives: they neither suppress findings nor count as stale.

use std::cell::Cell;
use std::fs;
use std::path::{Path, PathBuf};

/// True for bytes that can continue a Rust identifier.
pub(crate) fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Replaces comment bodies and string/char-literal contents with spaces,
/// preserving line structure, so needle matching never fires inside
/// prose. Handles nested block comments and raw strings.
pub fn strip_source(source: &str) -> String {
    #[derive(PartialEq)]
    enum State {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(usize),
    }
    let mut out = String::with_capacity(source.len());
    let chars: Vec<char> = source.chars().collect();
    let mut state = State::Code;
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        match state {
            State::Code => match c {
                '/' if next == Some('/') => {
                    state = State::LineComment;
                    out.push_str("  ");
                    i += 2;
                }
                '/' if next == Some('*') => {
                    state = State::BlockComment(1);
                    out.push_str("  ");
                    i += 2;
                }
                '"' => {
                    state = State::Str;
                    out.push('"');
                    i += 1;
                }
                'r' if matches!(next, Some('"') | Some('#')) => {
                    // Raw string: r"..." or r#"..."# etc.
                    let mut hashes = 0;
                    let mut j = i + 1;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if chars.get(j) == Some(&'"') {
                        state = State::RawStr(hashes);
                        for _ in i..=j {
                            out.push(' ');
                        }
                        i = j + 1;
                    } else {
                        out.push(c);
                        i += 1;
                    }
                }
                '\'' => {
                    // Char literal vs. lifetime: a literal closes with a
                    // quote one (escaped) char later.
                    if next == Some('\\') {
                        out.push_str("' '");
                        i += 2; // skip the backslash
                        while i < chars.len() && chars[i] != '\'' {
                            i += 1;
                        }
                        i += 1;
                    } else if chars.get(i + 2) == Some(&'\'') {
                        out.push_str("' '");
                        i += 3;
                    } else {
                        out.push(c);
                        i += 1;
                    }
                }
                c => {
                    out.push(c);
                    i += 1;
                }
            },
            State::LineComment => {
                if c == '\n' {
                    state = State::Code;
                    out.push('\n');
                } else {
                    out.push(' ');
                }
                i += 1;
            }
            State::BlockComment(depth) => {
                if c == '*' && next == Some('/') {
                    state = if depth == 1 {
                        State::Code
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    out.push_str("  ");
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    state = State::BlockComment(depth + 1);
                    out.push_str("  ");
                    i += 2;
                } else {
                    out.push(if c == '\n' { '\n' } else { ' ' });
                    i += 1;
                }
            }
            State::Str => match c {
                '\\' => {
                    // Keep a line-continuation's newline so raw and
                    // stripped line numbering stay aligned.
                    out.push(' ');
                    out.push(if chars.get(i + 1) == Some(&'\n') {
                        '\n'
                    } else {
                        ' '
                    });
                    i += 2;
                }
                '"' => {
                    state = State::Code;
                    out.push('"');
                    i += 1;
                }
                c => {
                    out.push(if c == '\n' { '\n' } else { ' ' });
                    i += 1;
                }
            },
            State::RawStr(hashes) => {
                if c == '"' && chars[i + 1..].iter().take(hashes).all(|&h| h == '#') {
                    state = State::Code;
                    for _ in 0..=hashes {
                        out.push(' ');
                    }
                    i += 1 + hashes;
                } else {
                    out.push(if c == '\n' { '\n' } else { ' ' });
                    i += 1;
                }
            }
        }
    }
    out
}

/// Marks every line that belongs to an item annotated with the given
/// attribute needle (e.g. `#[cfg(test)]`): the attribute line itself,
/// then — tracking brace depth — through the closing brace of the item
/// body (or the terminating `;` for brace-less items). Lines after the
/// item are *not* masked.
fn item_mask(stripped_lines: &[String], needle: &str) -> Vec<bool> {
    let mut mask = vec![false; stripped_lines.len()];
    let mut i = 0;
    while i < stripped_lines.len() {
        let Some(col) = stripped_lines[i].find(needle) else {
            i += 1;
            continue;
        };
        // Mask from the attribute through the end of the item it
        // annotates: the matching close of the first `{`, or a `;`
        // reached before any brace opened.
        let mut depth = 0usize;
        let mut entered = false;
        let mut j = i;
        let mut c = col + needle.len();
        'item: while j < stripped_lines.len() {
            mask[j] = true;
            let bytes = stripped_lines[j].as_bytes();
            while c < bytes.len() {
                match bytes[c] {
                    b'{' => {
                        depth += 1;
                        entered = true;
                    }
                    b'}' => {
                        depth = depth.saturating_sub(1);
                        if entered && depth == 0 {
                            break 'item;
                        }
                    }
                    b';' if !entered => break 'item,
                    _ => {}
                }
                c += 1;
            }
            j += 1;
            c = 0;
        }
        i = j + 1;
    }
    mask
}

/// One `lint: allow(CODE reason)` directive, with usage tracking.
#[derive(Debug)]
pub struct Directive {
    /// The diagnostic code the directive waives.
    pub code: String,
    /// 1-based line the directive sits on.
    pub line: usize,
    /// The directive carries a non-empty justification (mandatory for
    /// it to suppress anything).
    pub has_reason: bool,
    /// The directive sits inside a `#[cfg(test)]` region (test code is
    /// never scanned, so such directives are exempt from staleness).
    pub in_test: bool,
    used: Cell<bool>,
}

/// One parsed source file, shared by every source-level pass.
#[derive(Debug)]
pub struct SourceFile {
    /// Path shown in diagnostic locations (workspace-relative).
    pub display_path: String,
    /// The crate directory name under `crates/` (rule filters key on it).
    pub crate_name: String,
    /// Comment/string-stripped lines, one per source line.
    pub lines: Vec<String>,
    /// Per-line: the line belongs to a `#[cfg(test)]` item.
    pub test_mask: Vec<bool>,
    /// Per-line: the line belongs to a `thread_local!` block.
    pub thread_local_mask: Vec<bool>,
    directives: Vec<Directive>,
}

impl SourceFile {
    /// Parses `source` into stripped lines, item masks, and directives.
    pub fn parse(
        display_path: impl Into<String>,
        crate_name: impl Into<String>,
        source: &str,
    ) -> Self {
        let raw_lines: Vec<String> = source.lines().map(str::to_string).collect();
        let lines: Vec<String> = strip_source(source).lines().map(str::to_string).collect();
        let test_mask = item_mask(&lines, "#[cfg(test)]");
        let thread_local_mask = item_mask(&lines, "thread_local!");
        let directives = collect_directives(&raw_lines, &test_mask);
        SourceFile {
            display_path: display_path.into(),
            crate_name: crate_name.into(),
            lines,
            test_mask,
            thread_local_mask,
            directives,
        }
    }

    /// True when a justified allow directive for `code` sits on `line`
    /// (1-based) or the line above. Marks every matching directive used,
    /// so the stale-directive pass can warn about the others.
    pub fn allows(&self, code: &str, line: usize) -> bool {
        let mut hit = false;
        for d in &self.directives {
            if d.code == code && d.has_reason && (d.line == line || d.line + 1 == line) {
                d.used.set(true);
                hit = true;
            }
        }
        hit
    }

    /// The directives no pass has (yet) used to suppress a finding,
    /// excluding test-region ones and reason-less ones (a reason-less
    /// directive never suppresses, and the finding it fails to waive is
    /// still reported — that is signal enough).
    pub fn stale_directives(&self) -> impl Iterator<Item = &Directive> {
        self.directives
            .iter()
            .filter(|d| !d.used.get() && !d.in_test && d.has_reason)
    }
}

/// Extracts directives from raw lines. Doc-comment lines (`///`, `//!`)
/// are prose, not directives.
fn collect_directives(raw_lines: &[String], test_mask: &[bool]) -> Vec<Directive> {
    let mut out = Vec::new();
    for (idx, raw) in raw_lines.iter().enumerate() {
        let trimmed = raw.trim_start();
        if trimmed.starts_with("//!") || trimmed.starts_with("///") {
            continue;
        }
        let Some(pos) = raw.find("lint: allow(") else {
            continue;
        };
        let rest = &raw[pos + "lint: allow(".len()..];
        let code: String = rest
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric())
            .collect();
        if code.is_empty() {
            continue;
        }
        let has_reason = rest[code.len()..].find(')').is_some_and(|close| {
            rest[code.len()..code.len() + close]
                .chars()
                .any(char::is_alphanumeric)
        });
        out.push(Directive {
            code,
            line: idx + 1,
            has_reason,
            in_test: test_mask.get(idx).copied().unwrap_or(false),
            used: Cell::new(false),
        });
    }
    out
}

/// Recursively collects `.rs` files under `dir`, sorted for determinism.
pub fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Parses every `crates/<name>/src/**/*.rs` under `workspace_root`,
/// sorted by crate then path.
pub fn load_workspace(workspace_root: &Path) -> Vec<SourceFile> {
    let crates_dir = workspace_root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)
        .map(|entries| {
            entries
                .flatten()
                .map(|e| e.path())
                .filter(|p| p.is_dir())
                .collect()
        })
        .unwrap_or_default();
    crate_dirs.sort();

    let mut out = Vec::new();
    for crate_dir in crate_dirs {
        let crate_name = crate_dir
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        let mut files = Vec::new();
        rust_files(&crate_dir.join("src"), &mut files);
        for file in files {
            let Ok(source) = fs::read_to_string(&file) else {
                continue;
            };
            let display = file
                .strip_prefix(workspace_root)
                .unwrap_or(&file)
                .display()
                .to_string();
            out.push(SourceFile::parse(display, crate_name.clone(), &source));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strip_preserves_line_structure() {
        let src =
            "let a = 1; // trailing\nlet s = \"two\nlines\";\n/* block\nstill */ let b = 2;\n";
        let stripped = strip_source(src);
        assert_eq!(stripped.lines().count(), src.lines().count());
        assert!(!stripped.contains("trailing"));
        assert!(!stripped.contains("two"));
        assert!(stripped.contains("let b = 2;"));
    }

    #[test]
    fn test_mask_tracks_brace_depth() {
        let src = "fn a() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn t() { nested(); }\n\
                   }\n\
                   fn after() {}\n";
        let f = SourceFile::parse("x.rs", "sim", src);
        assert_eq!(
            f.test_mask,
            vec![false, true, true, true, true, false],
            "{:?}",
            f.test_mask
        );
    }

    #[test]
    fn braceless_test_item_masks_to_semicolon() {
        let src = "#[cfg(test)]\nuse helpers::fixture;\nfn live() {}\n";
        let f = SourceFile::parse("x.rs", "sim", src);
        assert_eq!(f.test_mask, vec![true, true, false]);
    }

    #[test]
    fn thread_local_mask_covers_the_block() {
        let src = "thread_local! {\n    static S: RefCell<u8> = RefCell::new(0);\n}\nfn f() {}\n";
        let f = SourceFile::parse("x.rs", "live", src);
        assert_eq!(f.thread_local_mask, vec![true, true, true, false]);
    }

    #[test]
    fn directives_are_collected_and_marked_used() {
        let src = "// lint: allow(E102 fixture clock)\nlet t = now();\n\
                   // lint: allow(E104 never used here)\nlet x = 1;\n";
        let f = SourceFile::parse("x.rs", "sim", src);
        assert!(f.allows("E102", 2));
        assert!(!f.allows("E103", 2));
        let stale: Vec<&str> = f.stale_directives().map(|d| d.code.as_str()).collect();
        assert_eq!(stale, vec!["E104"]);
    }

    #[test]
    fn reasonless_and_doc_comment_directives_do_not_count() {
        let src = "// lint: allow(E104)\nlet a = b.unwrap();\n\
                   //! prose: lint: allow(E102 syntax example)\n";
        let f = SourceFile::parse("x.rs", "sim", src);
        assert!(!f.allows("E104", 2));
        assert_eq!(f.stale_directives().count(), 0);
    }

    #[test]
    fn test_region_directives_are_not_stale() {
        let src =
            "#[cfg(test)]\nmod tests {\n    // lint: allow(E104 test fixture)\n    fn t() {}\n}\n";
        let f = SourceFile::parse("x.rs", "sim", src);
        assert_eq!(f.stale_directives().count(), 0);
    }
}
