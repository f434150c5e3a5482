//! Layer 3: the lock model.
//!
//! The live runtime, the socket daemon, the sharded simulator and the
//! group-commit log put work on real threads behind mutexes. This pass
//! models every lock site in the workspace from source (the shared
//! [`crate::scanner`], no parser dependency) and reports:
//!
//! * `E130` — a **lock-order inversion**: two lock classes acquired in
//!   opposite orders on two code paths, directly or through a call
//!   (holding `a` while calling a function that acquires `b` orders
//!   `a -> b`). Two threads taking the two paths can deadlock holding
//!   one lock each. Only two-class cycles are searched.
//! * `E132` — a **lock held across a blocking or transport call**
//!   (`submit`, `send`, `recv`, `join`, sleep), directly or through a
//!   same-crate call that blocks: the holder stalls every thread
//!   contending for that lock behind the slow call.
//!   `Condvar::wait`/`wait_timeout` are deliberately *not* blocking
//!   needles — they release the guard while waiting.
//!
//! ## The model
//!
//! Functions are parsed by brace depth. A **lock class** is the last
//! identifier path segment of the lock expression, for both the
//! workspace's `lock(&m)` helper idiom and method-style `m.lock()`:
//! `lock(&self.0.in_flight)` and `lock(&lanes[lane])` acquire classes
//! `in_flight` and `lanes` (a stripe index is erased, so two stripes of
//! one class count as one lock). A guard is **held** only when a `let`
//! binds the lock call itself (`let g = lock(&m);`,
//! `let g = m.lock().unwrap();`); it lives to the end of its block or
//! an explicit `drop(g)`. Any other lock is a temporary, released by
//! the end of its statement, that orders nothing — including a value
//! computed from a guard (`let v = lock(&m).clone();`,
//! `let v = f(&*lock(&m));`). Per-function acquisition sets and
//! blocking reach a fixpoint over same-crate calls resolved by name
//! (same-named functions are unioned), and class graphs never cross
//! crate boundaries.
//!
//! Findings are suppressed exactly like lint findings: a justified
//! `lint: allow(E130 reason)` on the same or preceding line.

use crate::diagnostic::{codes, Diagnostic};
use crate::scanner::{is_ident, SourceFile};
use std::collections::{BTreeMap, BTreeSet};

/// Extracts the lock class from a lock expression: strip borrows and
/// derefs, erase stripe indices (`[..]`), and take the last non-numeric
/// path segment. `&self.0.in_flight` -> `in_flight`; `&lanes[lane]` ->
/// `lanes`.
fn class_of_expr(expr: &str) -> Option<String> {
    let e = expr.trim().trim_start_matches(&['&', '*'][..]).trim_start();
    let e = e.strip_prefix("mut ").unwrap_or(e).trim_start();
    let base = &e[..e.find('[').unwrap_or(e.len())];
    let seg = base
        .split('.')
        .rev()
        .map(str::trim)
        .find(|s| !s.is_empty() && !s.bytes().all(|b| b.is_ascii_digit()) && *s != "self")?;
    let class = leading_ident(seg);
    (!class.is_empty()).then(|| class.to_string())
}

/// Identifiers on a line, with their columns.
fn idents(line: &str) -> impl Iterator<Item = (usize, &str)> {
    let bytes = line.as_bytes();
    let mut i = 0;
    std::iter::from_fn(move || {
        while i < bytes.len() && !is_ident(bytes[i]) {
            i += 1;
        }
        let start = i;
        while i < bytes.len() && is_ident(bytes[i]) {
            i += 1;
        }
        (i > start).then(|| (start, &line[start..i]))
    })
}

/// The identifier `s` starts with (empty when it starts with none).
fn leading_ident(s: &str) -> &str {
    &s[..s.bytes().position(|b| !is_ident(b)).unwrap_or(s.len())]
}

/// Finds the `fn name` declared on this line, if any (`fn(` is a
/// function-pointer type, not a declaration).
fn fn_decl_name(line: &str) -> Option<String> {
    let mut words = idents(line);
    words.find(|&(col, w)| w == "fn" && line[col + 2..].starts_with(' '))?;
    words.next().map(|(_, name)| name.to_string())
}

/// The index of the `)` matching the `(` at `open`, or the line length
/// when it does not close on this line.
fn close_paren(bytes: &[u8], open: usize) -> usize {
    let mut depth = 0u32;
    for (j, &b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
    }
    bytes.len()
}

/// One lock acquisition on a line: the expression spans `start..end`
/// (poison-unwrapping adapters included), acquiring `class`.
struct LockSite {
    start: usize,
    end: usize,
    class: String,
}

/// Lock acquisitions on a line, for both the workspace's `lock(expr)`
/// helper idiom and method-style `x.lock()`.
fn find_locks(line: &str) -> Vec<LockSite> {
    let bytes = line.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while let Some(pos) = line[i..].find("lock(") {
        let p = i + pos;
        i = p + 5;
        if p > 0 && (is_ident(bytes[p - 1]) || bytes[p - 1] == b'.') {
            continue; // `.lock(`, `try_lock(`, `unlock(` are not the helper
        }
        let close = close_paren(bytes, p + 4);
        if let Some(class) = class_of_expr(&line[p + 5..close]) {
            out.push(LockSite {
                start: p,
                end: (close + 1).min(line.len()),
                class,
            });
        }
    }
    let mut i = 0;
    while let Some(pos) = line[i..].find(".lock()") {
        let p = i + pos;
        i = p + 7;
        let mut s = p;
        while s > 0 && (is_ident(bytes[s - 1]) || bytes[s - 1] == b'.') {
            s -= 1;
        }
        let Some(class) = class_of_expr(&line[s..p]) else {
            continue;
        };
        // A poison-handling `.unwrap…(..)`/`.expect(..)` still yields
        // the guard.
        let mut end = p + 7;
        let rest = &line[end..];
        if let Some(open) = rest
            .find('(')
            .filter(|_| rest.starts_with(".unwrap") || rest.starts_with(".expect"))
        {
            end = (close_paren(bytes, end + open) + 1).min(line.len());
        }
        out.push(LockSite {
            start: s,
            end,
            class,
        });
    }
    out.sort_by_key(|l| l.start);
    out
}

/// The variable a guard is bound to, when the statement is a `let`
/// binding the lock call itself: `let [mut] g = [&][*]LOCK;`. Any other
/// shape — a method called on the guard, the guard passed to a function,
/// a `_` pattern — leaves a temporary.
fn let_guard(line: &str, lock: &LockSite) -> Option<String> {
    if !line[lock.end..].trim_start().starts_with(';') {
        return None;
    }
    let prefix = &line[..lock.start];
    let at = prefix.rfind("let ")?;
    if at > 0 && is_ident(prefix.as_bytes()[at - 1]) {
        return None;
    }
    let (binding, init) = prefix[at + 4..].split_once('=')?;
    let wrapped = init
        .split(|c: char| c == '&' || c == '*' || c.is_whitespace())
        .any(|t| !t.is_empty() && t != "mut");
    let binding = binding.trim_start();
    let var = leading_ident(binding.strip_prefix("mut ").unwrap_or(binding));
    (!wrapped && !var.is_empty() && var != "_").then(|| var.to_string())
}

/// Calls on a line to functions defined in the same crate, resolved by
/// bare name. The `lock` helper is modeled as a direct acquisition, not
/// a call.
fn find_calls(line: &str, known: &BTreeSet<String>) -> Vec<(usize, String)> {
    idents(line)
        .filter(|&(col, name)| {
            let Some(args) = line[col + name.len()..].strip_prefix('(') else {
                return false;
            };
            // `OpenOptions::append(true)` is the file-open builder flag,
            // not a log append: a bool argument is never a record.
            let builder_flag =
                name == "append" && (args.starts_with("true") || args.starts_with("false"));
            name != "lock"
                && !builder_flag
                && known.contains(name)
                && !line[..col].trim_end().ends_with("fn")
        })
        .map(|(col, name)| (col, name.to_string()))
        .collect()
}

/// `drop(var)` sites: `(column, variable)`.
fn find_drops(line: &str) -> Vec<(usize, String)> {
    idents(line)
        .filter(|&(col, w)| w == "drop" && !line[..col].ends_with('.'))
        .filter_map(|(col, _)| {
            let var = leading_ident(line[col + 4..].strip_prefix('(')?);
            (!var.is_empty()).then(|| (col, var.to_string()))
        })
        .collect()
}

/// Blocking/transport needles: the call shapes a lock must not be held
/// across. `Condvar` waits release the guard, so `.wait(`/`.wait_timeout(`
/// are deliberately absent.
const BLOCKING: &[(&str, &str)] = &[
    (".submit(", "transport submit"),
    ("transport.drain(", "transport drain"),
    (".send(", "blocking send"),
    (".recv(", "blocking receive"),
    (".join(", "thread join"),
    ("thread::sleep", "sleep"),
];

/// First blocking needle on the line.
fn find_blocking(line: &str) -> Option<(usize, &'static str)> {
    BLOCKING
        .iter()
        .filter_map(|(needle, what)| Some((line.find(needle)?, *what)))
        .min_by_key(|(p, _)| *p)
}

/// A `let`-bound guard: lives until the block open at its binding closes
/// or an explicit `drop(var)`.
struct Guard {
    class: String,
    block_depth: i32,
    var: String,
}

/// A lock, call or blocking site, with the classes held at it.
struct Site<T> {
    what: T,
    line: usize,
    held: Vec<String>,
}

/// One function's summary: the classes it locks, the same-crate
/// functions it calls and the blocking calls it makes.
#[derive(Default)]
struct FnInfo {
    name: String,
    file: usize,
    locks: Vec<Site<String>>,
    calls: Vec<Site<String>>,
    blocking: Vec<Site<&'static str>>,
}

/// Parses every function body in `file` into lock/call/blocking
/// summaries, tracking guard scopes by brace depth.
fn parse_functions(file: &SourceFile, file_idx: usize, known: &BTreeSet<String>) -> Vec<FnInfo> {
    enum Ev {
        Lock(String, Option<String>),
        Drop(String),
        Call(String),
        Blocking(&'static str),
    }

    let mut out = Vec::new();
    let mut depth: i32 = 0;
    let mut pending: Option<String> = None;
    let mut current: Option<(FnInfo, i32, Vec<Guard>)> = None;
    for (idx, line) in file.lines.iter().enumerate() {
        let ln = idx + 1;
        let masked = file.test_mask[idx];
        if !masked && current.is_none() && pending.is_none() {
            pending = fn_decl_name(line);
        }

        // Semantic events at their columns, interleaved with the brace
        // scan below so guard scopes and same-line releases are
        // positionally exact.
        let mut events: Vec<(usize, Ev)> = Vec::new();
        if !masked {
            for lock in find_locks(line) {
                let var = let_guard(line, &lock);
                events.push((lock.start, Ev::Lock(lock.class, var)));
            }
            for (col, var) in find_drops(line) {
                events.push((col, Ev::Drop(var)));
            }
            for (col, callee) in find_calls(line, known) {
                events.push((col, Ev::Call(callee)));
            }
            if let Some((col, what)) = find_blocking(line) {
                events.push((col, Ev::Blocking(what)));
            }
            events.sort_by_key(|(col, _)| *col);
        }

        let mut events = events.into_iter().peekable();
        for (ci, b) in line.bytes().enumerate() {
            // Events fire at their column, before any brace that follows
            // them on the line.
            while let Some((_, ev)) = events.next_if(|(col, _)| *col == ci) {
                let Some((info, _, guards)) = current.as_mut() else {
                    continue;
                };
                let held = || guards.iter().map(|g| g.class.clone()).collect();
                match ev {
                    Ev::Lock(class, var) => {
                        info.locks.push(Site {
                            held: held(),
                            what: class.clone(),
                            line: ln,
                        });
                        // The scope a binding belongs to is the one open
                        // at its column; a temporary orders nothing.
                        if let Some(var) = var {
                            guards.push(Guard {
                                class,
                                block_depth: depth,
                                var,
                            });
                        }
                    }
                    Ev::Drop(var) => guards.retain(|g| g.var != var),
                    Ev::Call(callee) => info.calls.push(Site {
                        held: held(),
                        what: callee,
                        line: ln,
                    }),
                    Ev::Blocking(what) => info.blocking.push(Site {
                        held: held(),
                        what,
                        line: ln,
                    }),
                }
            }
            match b {
                b'{' => {
                    depth += 1;
                    if current.is_none() {
                        if let Some(name) = pending.take() {
                            let info = FnInfo {
                                name,
                                file: file_idx,
                                ..FnInfo::default()
                            };
                            current = Some((info, depth, Vec::new()));
                        }
                    }
                }
                b'}' => {
                    depth -= 1;
                    if let Some((_, body_depth, guards)) = current.as_mut() {
                        // A closing brace ends every guard bound in the
                        // block it closes.
                        guards.retain(|g| depth >= g.block_depth);
                        if depth < *body_depth {
                            let (info, _, _) = current.take().expect("current checked above");
                            out.push(info);
                        }
                    }
                }
                b';' if current.is_none() => pending = None, // trait method decl
                _ => {}
            }
        }
    }
    if let Some((info, _, _)) = current.take() {
        out.push(info);
    }
    out
}

/// An ordered-acquisition edge in the per-crate class graph.
struct EdgeInfo {
    file: usize,
    line: usize,
    via: Option<String>,
}

/// Runs the concurrency pass over one crate's files.
fn check_crate(files: &[&SourceFile]) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    // Every `fn` name declared outside test regions: the call targets
    // that resolve inside this crate.
    let known: BTreeSet<String> = files
        .iter()
        .flat_map(|f| {
            f.lines
                .iter()
                .zip(&f.test_mask)
                .filter(|(_, masked)| !**masked)
                .filter_map(|(line, _)| fn_decl_name(line))
        })
        .collect();
    let fns: Vec<FnInfo> = files
        .iter()
        .enumerate()
        .flat_map(|(i, file)| parse_functions(file, i, &known))
        .collect();

    // Fixpoint: per-name acquisition sets and blocking reachability,
    // propagated through same-crate calls (same-named fns are unioned —
    // conservative, never misses an order).
    let mut acquires: BTreeMap<&str, BTreeSet<String>> = BTreeMap::new();
    let mut blocks: BTreeMap<&str, &'static str> = BTreeMap::new();
    for f in &fns {
        acquires
            .entry(&f.name)
            .or_default()
            .extend(f.locks.iter().map(|l| l.what.clone()));
        if let Some(b) = f.blocking.first() {
            blocks.entry(&f.name).or_insert(b.what);
        }
    }
    let mut changed = true;
    while changed {
        changed = false;
        for f in &fns {
            for call in &f.calls {
                if let Some(set) = acquires.get(call.what.as_str()).cloned() {
                    let entry = acquires.entry(&f.name).or_default();
                    for c in set {
                        changed |= entry.insert(c);
                    }
                }
                if let Some(&what) = blocks.get(call.what.as_str()) {
                    if !blocks.contains_key(f.name.as_str()) {
                        blocks.insert(&f.name, what);
                        changed = true;
                    }
                }
            }
        }
    }

    // The class order graph: direct edges plus call-mediated ones.
    let mut adj: BTreeMap<&str, BTreeMap<&str, EdgeInfo>> = BTreeMap::new();
    for f in &fns {
        let direct = f
            .locks
            .iter()
            .flat_map(|l| l.held.iter().map(move |h| (h, &l.what, l.line, None)));
        let mediated = f.calls.iter().flat_map(|call| {
            let acq = acquires.get(call.what.as_str());
            call.held.iter().flat_map(move |h| {
                acq.into_iter()
                    .flatten()
                    .map(move |c| (h, c, call.line, Some(&call.what)))
            })
        });
        for (from, to, line, via) in direct.chain(mediated) {
            adj.entry(from.as_str())
                .or_default()
                .entry(to.as_str())
                .or_insert(EdgeInfo {
                    file: f.file,
                    line,
                    via: via.cloned(),
                });
        }
    }

    // E130: two classes ordered both ways.
    for (a, outs) in &adj {
        for (b, forward) in outs.iter().filter(|(b, _)| *b > a) {
            let Some(backward) = adj.get(b).and_then(|o| o.get(a)) else {
                continue;
            };
            let legs = [(a, b, forward), (b, a, backward)];
            if legs
                .iter()
                .any(|(_, _, e)| files[e.file].allows(codes::CONC_LOCK_ORDER_CYCLE, e.line))
            {
                continue;
            }
            let sites: Vec<String> = legs
                .iter()
                .map(|(from, to, e)| {
                    let via = e.via.as_ref().map(|v| format!(" via `{v}`"));
                    format!(
                        "`{from}` -> `{to}` at {}:{}{}",
                        files[e.file].display_path,
                        e.line,
                        via.unwrap_or_default()
                    )
                })
                .collect();
            let (file, line) = legs
                .iter()
                .map(|(_, _, e)| (&files[e.file].display_path, e.line))
                .min()
                .expect("two legs");
            out.push(
                Diagnostic::error(
                    codes::CONC_LOCK_ORDER_CYCLE,
                    format!("{file}:{line}"),
                    format!(
                        "lock-order cycle `{a}` -> `{b}` -> `{a}`: {}",
                        sites.join("; ")
                    ),
                )
                .with_help(
                    "two threads taking these paths deadlock holding one lock \
                     each; pick one global acquisition order (or drop the first \
                     guard before taking the second)",
                ),
            );
        }
    }

    // E132: a guard held across a blocking call, directly or through a
    // same-crate call that (transitively) blocks.
    let mut reported: BTreeSet<(usize, usize)> = BTreeSet::new();
    for f in &fns {
        let file = files[f.file];
        let direct = f
            .blocking
            .iter()
            .map(|b| (b.line, &b.held, b.what.to_string()));
        let mediated = f.calls.iter().filter_map(|c| {
            let what = blocks.get(c.what.as_str())?;
            let desc = format!("call to `{}` (which performs a {what})", c.what);
            Some((c.line, &c.held, desc))
        });
        for (line, held, desc) in direct.chain(mediated) {
            if held.is_empty()
                || !reported.insert((f.file, line))
                || file.allows(codes::CONC_LOCK_ACROSS_BLOCKING, line)
            {
                continue;
            }
            out.push(
                Diagnostic::error(
                    codes::CONC_LOCK_ACROSS_BLOCKING,
                    format!("{}:{line}", file.display_path),
                    format!("{desc} while holding lock `{}`", held.join("`, `")),
                )
                .with_help(
                    "every thread contending for this lock stalls behind the \
                     call; release the guard first (drop it or narrow its block)",
                ),
            );
        }
    }
    out
}

/// Runs the Layer-3 concurrency pass over a set of parsed files,
/// grouping them per crate (lock classes and call resolution never
/// cross crate boundaries).
pub fn check_files(files: &[SourceFile]) -> Vec<Diagnostic> {
    let mut by_crate: BTreeMap<&str, Vec<&SourceFile>> = BTreeMap::new();
    for f in files {
        by_crate.entry(f.crate_name.as_str()).or_default().push(f);
    }
    by_crate
        .values()
        .flat_map(|group| check_crate(group))
        .collect()
}

/// Checks one file's source — the fixture-test entry point.
pub fn check_source(display_path: &str, crate_name: &str, source: &str) -> Vec<Diagnostic> {
    check_files(&[SourceFile::parse(display_path, crate_name, source)])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes_in(found: &[Diagnostic]) -> Vec<&'static str> {
        found.iter().map(|d| d.code).collect()
    }

    const HELPER: &str =
        "use std::sync::{Mutex, MutexGuard};\n\
         fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> { m.lock().unwrap_or_else(|e| e.into_inner()) }\n";

    #[test]
    fn opposite_acquisition_orders_are_a_cycle() {
        let src = format!(
            "{HELPER}\
             struct S {{ a: Mutex<u32>, b: Mutex<u32> }}\n\
             impl S {{\n\
                 fn forward(&self) {{\n\
                     let ga = lock(&self.a);\n\
                     let gb = lock(&self.b);\n\
                     drop(gb);\n\
                     drop(ga);\n\
                 }}\n\
                 fn backward(&self) {{\n\
                     let gb = lock(&self.b);\n\
                     let ga = lock(&self.a);\n\
                     drop(ga);\n\
                     drop(gb);\n\
                 }}\n\
             }}\n"
        );
        let found = check_source("crates/live/src/x.rs", "live", &src);
        assert_eq!(
            codes_in(&found),
            vec![codes::CONC_LOCK_ORDER_CYCLE],
            "{found:#?}"
        );
        assert!(found[0].message.contains("`a` -> `b`"), "{found:#?}");
        assert!(found[0].message.contains("`b` -> `a`"), "{found:#?}");
    }

    #[test]
    fn a_value_computed_from_a_guard_is_not_held() {
        // The guard in each `let` is a temporary: the clone and the
        // encoded copy outlive it, so neither function holds one lock
        // while taking the other.
        let src = format!(
            "{HELPER}\
             struct S {{ record: Mutex<Vec<u8>>, ledger: Mutex<Vec<u8>> }}\n\
             impl S {{\n\
                 fn finish_report(&self) {{\n\
                     let rec = lock(&self.record).clone();\n\
                     let ledger = lock(&self.ledger);\n\
                 }}\n\
                 fn finish(&self) {{\n\
                     let ledger = encode(&*lock(&self.ledger));\n\
                     let rec = lock(&self.record);\n\
                 }}\n\
             }}\n"
        );
        let found = check_source("crates/exec/src/x.rs", "exec", &src);
        assert!(found.is_empty(), "{found:#?}");
    }

    #[test]
    fn call_mediated_cycle_is_found() {
        let src = format!(
            "{HELPER}\
             struct S {{ a: Mutex<u32>, b: Mutex<u32> }}\n\
             impl S {{\n\
                 fn forward(&self) {{\n\
                     let ga = lock(&self.a);\n\
                     self.takes_b();\n\
                     drop(ga);\n\
                 }}\n\
                 fn takes_b(&self) {{\n\
                     let _gb = lock(&self.b);\n\
                 }}\n\
                 fn backward(&self) {{\n\
                     let gb = lock(&self.b);\n\
                     let ga = lock(&self.a);\n\
                     drop(ga);\n\
                     drop(gb);\n\
                 }}\n\
             }}\n"
        );
        let found = check_source("crates/live/src/x.rs", "live", &src);
        assert_eq!(
            codes_in(&found),
            vec![codes::CONC_LOCK_ORDER_CYCLE],
            "{found:#?}"
        );
        assert!(found[0].message.contains("via `takes_b`"), "{found:#?}");
    }

    #[test]
    fn consistent_order_is_clean() {
        let src = format!(
            "{HELPER}\
             struct S {{ a: Mutex<u32>, b: Mutex<u32> }}\n\
             impl S {{\n\
                 fn one(&self) {{ let ga = lock(&self.a); let _gb = lock(&self.b); drop(ga); }}\n\
                 fn two(&self) {{ let ga = lock(&self.a); let _gb = lock(&self.b); drop(ga); }}\n\
             }}\n"
        );
        assert!(check_source("crates/live/src/x.rs", "live", &src).is_empty());
    }

    #[test]
    fn drop_releases_the_guard_before_the_second_lock() {
        let src = format!(
            "{HELPER}\
             struct S {{ a: Mutex<u32>, b: Mutex<u32> }}\n\
             impl S {{\n\
                 fn fwd(&self) {{ let ga = lock(&self.a); drop(ga); let _gb = lock(&self.b); }}\n\
                 fn bwd(&self) {{ let gb = lock(&self.b); drop(gb); let _ga = lock(&self.a); }}\n\
             }}\n"
        );
        assert!(check_source("crates/live/src/x.rs", "live", &src).is_empty());
    }

    #[test]
    fn block_scope_releases_the_guard() {
        let src = format!(
            "{HELPER}\
             struct S {{ a: Mutex<Vec<u8>>, b: Mutex<u32> }}\n\
             impl S {{\n\
                 fn fwd(&self) {{\n\
                     {{ let _ga = lock(&self.a); }}\n\
                     let _gb = lock(&self.b);\n\
                 }}\n\
                 fn bwd(&self) {{\n\
                     {{ let _gb = lock(&self.b); }}\n\
                     let _ga = lock(&self.a);\n\
                 }}\n\
             }}\n"
        );
        assert!(check_source("crates/live/src/x.rs", "live", &src).is_empty());
    }

    #[test]
    fn lock_held_across_submit_is_reported() {
        let src = format!(
            "{HELPER}\
             struct S {{ a: Mutex<u32> }}\n\
             impl S {{\n\
                 fn bad(&self, t: &dyn Transport, env: Envelope) {{\n\
                     let g = lock(&self.a);\n\
                     let _ = t.submit(env);\n\
                     drop(g);\n\
                 }}\n\
             }}\n"
        );
        let found = check_source("crates/live/src/x.rs", "live", &src);
        assert_eq!(
            codes_in(&found),
            vec![codes::CONC_LOCK_ACROSS_BLOCKING],
            "{found:#?}"
        );
        assert!(found[0].message.contains("`a`"), "{found:#?}");
    }

    #[test]
    fn submit_after_guard_release_is_clean() {
        let src = format!(
            "{HELPER}\
             struct S {{ a: Mutex<u32> }}\n\
             impl S {{\n\
                 fn good(&self, t: &dyn Transport, env: Envelope) {{\n\
                     {{ let _g = lock(&self.a); }}\n\
                     let _ = t.submit(env);\n\
                 }}\n\
             }}\n"
        );
        assert!(check_source("crates/live/src/x.rs", "live", &src).is_empty());
    }

    #[test]
    fn condvar_wait_is_not_blocking() {
        // Condvar::wait releases the guard — the QueryService shutdown
        // idiom must stay clean.
        let src = format!(
            "{HELPER}\
             struct S {{ in_flight: Mutex<usize>, idle: Condvar }}\n\
             impl S {{\n\
                 fn shutdown(&self) {{\n\
                     let mut n = lock(&self.in_flight);\n\
                     while *n > 0 {{\n\
                         n = self.idle.wait(n).unwrap_or_else(|e| e.into_inner());\n\
                     }}\n\
                 }}\n\
             }}\n"
        );
        assert!(check_source("crates/live/src/x.rs", "live", &src).is_empty());
    }

    #[test]
    fn transitively_blocking_call_under_lock_is_reported() {
        let src = format!(
            "{HELPER}\
             struct S {{ a: Mutex<u32> }}\n\
             impl S {{\n\
                 fn flush(&self, t: &dyn Transport, env: Envelope) {{\n\
                     let _ = t.submit(env);\n\
                 }}\n\
                 fn bad(&self, t: &dyn Transport, env: Envelope) {{\n\
                     let g = lock(&self.a);\n\
                     self.flush(t, env);\n\
                     drop(g);\n\
                 }}\n\
             }}\n"
        );
        let found = check_source("crates/live/src/x.rs", "live", &src);
        assert_eq!(
            codes_in(&found),
            vec![codes::CONC_LOCK_ACROSS_BLOCKING],
            "{found:#?}"
        );
        assert!(found[0].message.contains("`flush`"), "{found:#?}");
    }

    #[test]
    fn openoptions_append_builder_is_not_a_log_append() {
        // `OpenOptions::append(true)` must not resolve to a same-crate
        // `fn append` that blocks: the bool flag is a builder, not a
        // record write.
        let src = format!(
            "{HELPER}\
             struct S {{ a: Mutex<u32> }}\n\
             impl S {{\n\
                 fn append(&self, t: &dyn Transport, env: Envelope) {{\n\
                     let _ = t.submit(env);\n\
                 }}\n\
                 fn reopen(&self) {{\n\
                     let g = lock(&self.a);\n\
                     let f = std::fs::OpenOptions::new().append(true).open(\"w\");\n\
                     drop(g);\n\
                 }}\n\
             }}\n"
        );
        let found = check_source("crates/store/src/x.rs", "store", &src);
        assert!(found.is_empty(), "{found:#?}");
    }

    // W133 and E134 are rows of the lint's rule table; their fixtures
    // stay with the rest of the concurrency codes.
    #[test]
    fn unbounded_channel_is_warned_and_suppressible() {
        let src = "fn wire() { let (tx, rx) = std::sync::mpsc::channel::<u8>(); }\n";
        let found = crate::lint::lint_source("crates/util/src/x.rs", "util", src);
        assert_eq!(
            codes_in(&found),
            vec![codes::CONC_UNBOUNDED_CHANNEL],
            "{found:#?}"
        );
        let allowed = format!("// lint: allow(W133 test-only control channel)\n{src}");
        assert!(crate::lint::lint_source("crates/util/src/x.rs", "util", &allowed).is_empty());
    }

    #[test]
    fn shared_state_rules_apply_only_to_threaded_crates() {
        let src = "fn run() { std::thread::spawn(|| {}); }\n\
                   struct C { cache: RefCell<u32> }\n";
        let found = crate::lint::lint_source("crates/live/src/x.rs", "live", src);
        assert_eq!(
            codes_in(&found),
            vec![codes::CONC_UNSYNC_SHARED_STATE],
            "{found:#?}"
        );
        // The same cell in a single-threaded crate is fine.
        let solo = "struct C { cache: RefCell<u32> }\n";
        assert!(crate::lint::lint_source("crates/store/src/x.rs", "store", solo).is_empty());
        // thread_local! is per-thread by construction.
        let tls = "fn run() { std::thread::spawn(|| {}); }\n\
                   thread_local! {\n    static S: RefCell<u32> = RefCell::new(0);\n}\n";
        assert!(crate::lint::lint_source("crates/live/src/x.rs", "live", tls).is_empty());
    }

    #[test]
    fn static_mut_is_always_an_error() {
        let src = "static mut COUNTER: u64 = 0;\n";
        let found = crate::lint::lint_source("crates/store/src/x.rs", "store", src);
        assert_eq!(
            codes_in(&found),
            vec![codes::CONC_UNSYNC_SHARED_STATE],
            "{found:#?}"
        );
    }

    #[test]
    fn cycle_suppression_via_directive() {
        let src = format!(
            "{HELPER}\
             struct S {{ a: Mutex<u32>, b: Mutex<u32> }}\n\
             impl S {{\n\
                 fn forward(&self) {{\n\
                     let ga = lock(&self.a);\n\
                     // lint: allow(E130 startup-only path, never concurrent with backward)\n\
                     let gb = lock(&self.b);\n\
                     drop(gb);\n\
                     drop(ga);\n\
                 }}\n\
                 fn backward(&self) {{\n\
                     let gb = lock(&self.b);\n\
                     let ga = lock(&self.a);\n\
                     drop(ga);\n\
                     drop(gb);\n\
                 }}\n\
             }}\n"
        );
        assert!(check_source("crates/live/src/x.rs", "live", &src).is_empty());
    }
}
