//! Layer 2: token-level source lint for determinism, panic hygiene and
//! shared state.
//!
//! The simulator's headline guarantee is bit-identical replay from a
//! seed. That guarantee dies quietly the moment somebody iterates a
//! default-hasher map in a scheduling path, reads the wall clock, or
//! draws from the OS RNG — so those constructs are denied *textually*,
//! with no parser dependency (the registry is offline). The scanner
//! ([`crate::scanner`], shared with the Layer-3 concurrency pass) strips
//! comments and string/char literals and masks `#[cfg(test)]` items by
//! brace depth — code after a test module is still scanned — then this
//! pass matches per-line needles, one table row per rule:
//!
//! * `E101` — default-hasher `HashMap`/`HashSet` in the deterministic
//!   crates (`sim`, `exec`, `query`); use `BTreeMap`/`BTreeSet`.
//! * `E102` — `Instant::now`/`SystemTime` anywhere outside `bench`
//!   (which measures wall time) and `net` (a wall-clock socket
//!   runtime); simulated time comes from the engine.
//! * `E103` — `thread_rng`/`rand::random` anywhere outside `bench`;
//!   randomness comes from a seeded [`DetRng`](edgelet_util::rng).
//! * `E104` — `.unwrap()`/`.expect(` in `exec`/`sim` library code;
//!   return a typed error or justify with an allow directive.
//! * `W105` — `.clone()` of a message payload (`payload`/`bytes`
//!   variables) in `exec`/`sim`: the zero-copy fabric shares one buffer
//!   per fan-out via [`Payload::share`](edgelet_util::Payload::share);
//!   deep copies on the send path are a regression.
//! * `W133` — a channel constructed without a capacity bound
//!   (`mpsc::channel`, `unbounded(`): the code-level generalization of
//!   the config-level `W121` mailbox check.
//! * `E134` — unsynchronized shared mutable state: `static mut`
//!   anywhere; `Rc`/`RefCell`/`Cell` in a crate whose library code
//!   spawns or scopes threads, outside `thread_local!` blocks (which
//!   are per-thread by construction).
//!
//! A needle that starts or ends with an identifier character matches
//! only at a word boundary (`Rc<` is not `Arc<`). A finding on a line is
//! suppressed by a directive on the same or the preceding line:
//! `// lint: allow(E104 reason why this is infallible)`. The reason is
//! mandatory — a bare code does not suppress. Directives that no longer
//! suppress anything are themselves reported (`W131`) by the combined
//! source pass in [`crate::sourcepass`].

use crate::diagnostic::{codes, Diagnostic, Severity};
use crate::scanner::{is_ident, SourceFile};
use std::collections::BTreeSet;

/// Which crates a rule applies to (by directory name under `crates/`).
enum CrateFilter {
    /// Applies only to the listed crates.
    Only(&'static [&'static str]),
    /// Applies to every crate except the listed ones.
    Except(&'static [&'static str]),
    /// Applies to crates whose library code spawns or scopes threads,
    /// outside `thread_local!` blocks.
    Threaded,
}

struct Rule {
    code: &'static str,
    severity: Severity,
    needles: Vec<String>,
    filter: CrateFilter,
    /// The finding's message; `{}` stands for the matched needle.
    message: &'static str,
    help: &'static str,
}

/// The needles are assembled from fragments so this file never contains
/// the banned tokens itself.
fn rules() -> Vec<Rule> {
    let join = |parts: &[&str]| parts.concat();
    let shared_state = "unsynchronized shared mutable state in a thread-spawning crate: `{}`";
    let shared_state_help = "worker threads can reach this without a lock: use \
                             Arc<Mutex<..>>/atomics, or keep it inside thread_local!";
    vec![
        Rule {
            code: codes::LINT_HASHER,
            severity: Severity::Error,
            needles: vec![join(&["Hash", "Map"]), join(&["Hash", "Set"])],
            filter: CrateFilter::Only(&["sim", "exec", "query"]),
            message: "default-hasher collection in a deterministic crate: `{}`",
            help: "iteration order is randomized per process; use BTreeMap/BTreeSet",
        },
        Rule {
            code: codes::LINT_WALL_CLOCK,
            severity: Severity::Error,
            needles: vec![join(&["Ins", "tant::now"]), join(&["System", "Time"])],
            // `bench` measures wall time; `net` *is* a wall-clock
            // runtime (IO deadlines, reconnect backoff, handshake
            // sweeping) — its virtual-time discipline is enforced by
            // the cross-engine parity tests, not by this lint.
            filter: CrateFilter::Except(&["bench", "net"]),
            message: "wall-clock read: `{}`",
            help: "simulated time comes from the engine; wall clocks break replay",
        },
        Rule {
            code: codes::LINT_AMBIENT_RNG,
            severity: Severity::Error,
            needles: vec![join(&["thread", "_rng"]), join(&["rand::", "random"])],
            filter: CrateFilter::Except(&["bench"]),
            message: "ambient OS randomness: `{}`",
            help: "draw from a seeded DetRng forked per purpose",
        },
        Rule {
            code: codes::LINT_PANIC,
            severity: Severity::Error,
            needles: vec![join(&[".unw", "rap()"]), join(&[".exp", "ect("])],
            filter: CrateFilter::Only(&["exec", "sim"]),
            message: "panic path in library code: `{}`",
            help: "return a typed edgelet_util::Error, or justify with \
                   an allow directive",
        },
        Rule {
            code: codes::LINT_PAYLOAD_CLONE,
            severity: Severity::Warning,
            needles: vec![
                join(&["payload", ".clo", "ne()"]),
                join(&["bytes", ".clo", "ne()"]),
            ],
            filter: CrateFilter::Only(&["exec", "sim"]),
            message: "deep copy of a message payload: `{}`",
            help: "share the buffer instead: Payload::share is a \
                   reference-count bump, cloning the bytes re-copies them \
                   per recipient",
        },
        Rule {
            code: codes::CONC_UNBOUNDED_CHANNEL,
            severity: Severity::Warning,
            needles: vec![join(&["mpsc::", "channel"]), join(&["unbou", "nded("])],
            filter: CrateFilter::Except(&[]),
            message: "channel constructed without a capacity bound: `{}..`",
            help: "a producer can outrun its consumer without ever seeing \
                   backpressure; use a bounded channel (sync_channel) sized \
                   like the transport mailboxes",
        },
        Rule {
            code: codes::CONC_UNSYNC_SHARED_STATE,
            severity: Severity::Error,
            needles: vec![join(&["static", " mut "])],
            filter: CrateFilter::Except(&[]),
            message: shared_state,
            help: shared_state_help,
        },
        Rule {
            code: codes::CONC_UNSYNC_SHARED_STATE,
            severity: Severity::Error,
            needles: vec![
                join(&["R", "c<"]),
                join(&["RefC", "ell<"]),
                join(&["Ce", "ll<"]),
            ],
            filter: CrateFilter::Threaded,
            message: shared_state,
            help: shared_state_help,
        },
    ]
}

/// True when `needle` occurs in `line` at a word boundary on each side
/// where it starts or ends with an identifier character.
fn matches_at_boundary(line: &str, needle: &str) -> bool {
    let (bytes, n) = (line.as_bytes(), needle.as_bytes());
    let (open, close) = (is_ident(n[0]), is_ident(n[n.len() - 1]));
    line.match_indices(needle).any(|(p, _)| {
        let glued_before = open && p > 0 && is_ident(bytes[p - 1]);
        let glued_after = close && bytes.get(p + n.len()).copied().is_some_and(is_ident);
        !glued_before && !glued_after
    })
}

/// Lints parsed files, marking used suppression directives. A crate is
/// threaded when any of its files spawns or scopes a thread outside
/// test code.
pub(crate) fn lint_files(files: &[SourceFile]) -> Vec<Diagnostic> {
    let threaded: BTreeSet<&str> = files
        .iter()
        .filter(|f| {
            f.lines.iter().zip(&f.test_mask).any(|(line, masked)| {
                !masked && (line.contains("thread::spawn") || line.contains("thread::scope"))
            })
        })
        .map(|f| f.crate_name.as_str())
        .collect();
    let all = rules();
    let mut out = Vec::new();
    for file in files {
        let is_threaded = threaded.contains(file.crate_name.as_str());
        let rules: Vec<&Rule> = all
            .iter()
            .filter(|r| match r.filter {
                CrateFilter::Only(list) => list.contains(&file.crate_name.as_str()),
                CrateFilter::Except(list) => !list.contains(&file.crate_name.as_str()),
                CrateFilter::Threaded => is_threaded,
            })
            .collect();
        for (idx, line) in file.lines.iter().enumerate() {
            if file.test_mask[idx] {
                continue;
            }
            for rule in &rules {
                if matches!(rule.filter, CrateFilter::Threaded) && file.thread_local_mask[idx] {
                    continue;
                }
                let Some(needle) = rule.needles.iter().find(|n| matches_at_boundary(line, n))
                else {
                    continue;
                };
                if file.allows(rule.code, idx + 1) {
                    continue;
                }
                let location = format!("{}:{}", file.display_path, idx + 1);
                let message = rule.message.replace("{}", needle.trim_end());
                let diag = match rule.severity {
                    Severity::Error => Diagnostic::error(rule.code, location, message),
                    Severity::Warning => Diagnostic::warning(rule.code, location, message),
                };
                out.push(diag.with_help(rule.help));
            }
        }
    }
    out
}

/// Lints one file's source. `display_path` is used in locations;
/// `crate_name` selects which rules apply.
pub fn lint_source(display_path: &str, crate_name: &str, source: &str) -> Vec<Diagnostic> {
    lint_files(&[SourceFile::parse(display_path, crate_name, source)])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes_in(found: &[Diagnostic]) -> Vec<&'static str> {
        found.iter().map(|d| d.code).collect()
    }

    #[test]
    fn wall_clock_in_sim_is_caught() {
        let src = "fn t() -> std::time::Instant { std::time::Instant::now() }\n";
        let found = lint_source("crates/sim/src/x.rs", "sim", src);
        assert_eq!(codes_in(&found), vec![codes::LINT_WALL_CLOCK]);
        assert!(found[0].location.ends_with("x.rs:1"));
    }

    #[test]
    fn wall_clock_in_bench_is_allowed() {
        let src = "let t = std::time::Instant::now();\n";
        assert!(lint_source("crates/bench/src/x.rs", "bench", src).is_empty());
    }

    #[test]
    fn default_hasher_in_query_is_caught() {
        let src = "use std::collections::HashMap;\nlet m: HashMap<u8, u8> = HashMap::new();\n";
        let found = lint_source("crates/query/src/x.rs", "query", src);
        assert!(found.iter().all(|d| d.code == codes::LINT_HASHER));
        assert_eq!(found.len(), 2, "{found:?}");
    }

    #[test]
    fn default_hasher_in_store_is_not_checked() {
        let src = "use std::collections::HashMap;\n";
        assert!(lint_source("crates/store/src/x.rs", "store", src).is_empty());
    }

    #[test]
    fn ambient_rng_is_caught() {
        let src = "let x: u8 = rand::random();\nlet mut r = rand::thread_rng();\n";
        let found = lint_source("crates/util/src/x.rs", "util", src);
        assert_eq!(found.len(), 2, "{found:?}");
        assert!(found.iter().all(|d| d.code == codes::LINT_AMBIENT_RNG));
    }

    #[test]
    fn panics_in_exec_are_caught() {
        let src = "let a = b.unwrap();\nlet c = d.expect(\"always\");\n";
        let found = lint_source("crates/exec/src/x.rs", "exec", src);
        assert_eq!(found.len(), 2, "{found:?}");
        assert!(found.iter().all(|d| d.code == codes::LINT_PANIC));
        // The same source in a crate without the panic rule is clean.
        assert!(lint_source("crates/query/src/x.rs", "query", src).is_empty());
    }

    #[test]
    fn unwrap_with_arguments_is_not_a_panic() {
        // Sealer::unwrap(payload) is envelope opening, not Option::unwrap.
        let src = "let m = self.sealer.unwrap(payload)?;\n";
        assert!(lint_source("crates/exec/src/x.rs", "exec", src).is_empty());
    }

    #[test]
    fn comments_and_strings_do_not_match() {
        let src = "// Instant::now() is banned\nlet s = \"Instant::now()\";\n/* HashMap too */\n";
        assert!(lint_source("crates/sim/src/x.rs", "sim", src).is_empty());
    }

    #[test]
    fn test_module_is_skipped() {
        let src = "fn ok() {}\n#[cfg(test)]\nmod tests {\n    fn t() { b.unwrap(); }\n}\n";
        assert!(lint_source("crates/exec/src/x.rs", "exec", src).is_empty());
    }

    #[test]
    fn code_after_a_test_module_is_scanned_again() {
        // Regression: the old scanner assumed test modules close the
        // file and stopped at the first `#[cfg(test)]`.
        let src = "fn ok() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn t() { fixture(); }\n\
                   }\n\
                   fn late() { b.unwrap(); }\n";
        let found = lint_source("crates/exec/src/x.rs", "exec", src);
        assert_eq!(codes_in(&found), vec![codes::LINT_PANIC], "{found:?}");
        assert!(found[0].location.ends_with("x.rs:6"), "{found:?}");
    }

    #[test]
    fn allow_directive_with_reason_suppresses() {
        let same = "let a = b.unwrap(); // lint: allow(E104 checked two lines up)\n";
        assert!(lint_source("crates/exec/src/x.rs", "exec", same).is_empty());
        let prev = "// lint: allow(E104 invariant: pool sized to demand)\nlet a = b.unwrap();\n";
        assert!(lint_source("crates/exec/src/x.rs", "exec", prev).is_empty());
    }

    #[test]
    fn allow_directive_without_reason_does_not_suppress() {
        let src = "let a = b.unwrap(); // lint: allow(E104)\n";
        assert_eq!(lint_source("crates/exec/src/x.rs", "exec", src).len(), 1);
        // A directive for a different code does not suppress either.
        let wrong = "let a = b.unwrap(); // lint: allow(E102 not the clock)\n";
        assert_eq!(lint_source("crates/exec/src/x.rs", "exec", wrong).len(), 1);
    }

    #[test]
    fn payload_clone_in_exec_is_warned() {
        let src = "let copy = payload.clone();\nctx.send(to, bytes.clone());\n";
        let found = lint_source("crates/exec/src/x.rs", "exec", src);
        assert_eq!(found.len(), 2, "{found:?}");
        assert!(found.iter().all(|d| d.code == codes::LINT_PAYLOAD_CLONE
            && d.severity == crate::diagnostic::Severity::Warning));
        // The same source outside the zero-copy crates is not checked.
        assert!(lint_source("crates/store/src/x.rs", "store", src).is_empty());
        // Sharing is the sanctioned fan-out primitive.
        let ok = "ctx.send(to, bytes.share());\n";
        assert!(lint_source("crates/sim/src/x.rs", "sim", ok).is_empty());
    }

    #[test]
    fn payload_clone_allow_directive_suppresses() {
        let src = "// lint: allow(W105 corruption path must own a detached copy)\n\
                   let copy = payload.clone();\n";
        assert!(lint_source("crates/sim/src/x.rs", "sim", src).is_empty());
    }

    #[test]
    fn raw_strings_are_stripped() {
        let src = "let s = r#\"contains Instant::now() text\"#;\n";
        assert!(lint_source("crates/sim/src/x.rs", "sim", src).is_empty());
    }
}
