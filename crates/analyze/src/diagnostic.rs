//! The shared diagnostic model of both analysis layers.
//!
//! Every finding — whether from the semantic plan/config analyzer or the
//! source-level determinism lint — is a [`Diagnostic`] with a stable code
//! (`E0xx` errors, `W0xx` warnings for the semantic layer; `E1xx` for the
//! source lint), a severity, a location, and a human message. Diagnostics
//! render either as compiler-style text or as a JSON array, so tools and
//! CI can consume them without parsing prose.

use std::fmt;

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory: the configuration is legal but probably not what the
    /// operator wants (thin contributor buckets, tight deadlines...).
    Warning,
    /// The plan or source violates a property the paper's guarantees rest
    /// on; execution (or merge) should be denied.
    Error,
}

impl Severity {
    /// Lowercase label used in renderings.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable code, e.g. `E010` (see [`codes`]).
    pub code: &'static str,
    /// Severity of the finding.
    pub severity: Severity,
    /// Where it was found: a plan path (`operators[3]`) or a source
    /// location (`crates/sim/src/engine.rs:106`).
    pub location: String,
    /// What is wrong.
    pub message: String,
    /// How to fix it (optional).
    pub help: Option<String>,
}

impl Diagnostic {
    /// Builds an error diagnostic.
    pub fn error(
        code: &'static str,
        location: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Self {
            code,
            severity: Severity::Error,
            location: location.into(),
            message: message.into(),
            help: None,
        }
    }

    /// Builds a warning diagnostic.
    pub fn warning(
        code: &'static str,
        location: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Self {
            code,
            severity: Severity::Warning,
            location: location.into(),
            message: message.into(),
            help: None,
        }
    }

    /// Attaches a help string.
    pub fn with_help(mut self, help: impl Into<String>) -> Self {
        self.help = Some(help.into());
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]: {} ({})",
            self.severity, self.code, self.message, self.location
        )?;
        if let Some(help) = &self.help {
            write!(f, "\n  help: {help}")?;
        }
        Ok(())
    }
}

/// True when any diagnostic is [`Severity::Error`].
pub fn has_errors(diagnostics: &[Diagnostic]) -> bool {
    diagnostics.iter().any(|d| d.severity == Severity::Error)
}

/// Compiler-style text rendering, one finding per paragraph, ending with a
/// one-line summary.
pub fn render_human(diagnostics: &[Diagnostic]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for d in diagnostics {
        let _ = writeln!(out, "{d}");
    }
    let errors = diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    let warnings = diagnostics.len() - errors;
    let _ = writeln!(
        out,
        "analysis: {errors} error{}, {warnings} warning{}",
        if errors == 1 { "" } else { "s" },
        if warnings == 1 { "" } else { "s" },
    );
    out
}

/// Sorts diagnostics into the pinned output order: by file (the
/// location's path part), then line number, then code. Locations
/// without a `path:line` shape (semantic plan paths like
/// `operators[3]`) sort by the whole location string with line 0; the
/// sort is stable, so same-key findings keep their pass order.
pub fn sort_diagnostics(diagnostics: &mut [Diagnostic]) {
    fn key(d: &Diagnostic) -> (String, u64, &'static str) {
        match d.location.rsplit_once(':') {
            Some((path, line)) if !line.is_empty() && line.bytes().all(|b| b.is_ascii_digit()) => {
                (path.to_string(), line.parse().unwrap_or(0), d.code)
            }
            _ => (d.location.clone(), 0, d.code),
        }
    }
    diagnostics.sort_by(|a, b| key(a).cmp(&key(b)));
}

/// JSON rendering: an array of objects with `code`, `severity`,
/// `location`, `message`, and (when present) `help` fields. Hand-rolled —
/// the workspace registry is offline, so no serde.
pub fn render_json(diagnostics: &[Diagnostic]) -> String {
    let mut out = String::from("[");
    for (i, d) in diagnostics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n  {");
        out.push_str(&format!("\"code\":{}", json_string(d.code)));
        out.push_str(&format!(
            ",\"severity\":{}",
            json_string(d.severity.label())
        ));
        out.push_str(&format!(",\"location\":{}", json_string(&d.location)));
        out.push_str(&format!(",\"message\":{}", json_string(&d.message)));
        if let Some(help) = &d.help {
            out.push_str(&format!(",\"help\":{}", json_string(help)));
        }
        out.push('}');
    }
    out.push_str("\n]\n");
    out
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The stable diagnostic codes, with their default severity and a short
/// summary. `docs/ANALYZER.md` carries the full table with example fixes.
pub mod codes {
    use super::Severity;

    /// Declares each code once: its constant, default severity and
    /// one-line summary.
    macro_rules! codes {
        ($($(#[$doc:meta])* $name:ident = $code:literal, $severity:ident, $summary:literal;)*) => {
            $($(#[$doc])* pub const $name: &str = $code;)*

            /// Every code with its default severity and one-line summary, in
            /// code order. Drives the documentation table and its test.
            pub const ALL: &[(&str, Severity, &str)] =
                &[$(($name, Severity::$severity, $summary)),*];
        };
    }

    codes! {
        /// Planning itself failed before a plan existed to analyze.
        PLANNING_FAILED = "E000", Error, "planning failed before analysis";
        /// Snapshot Builder coverage broken (missing/duplicate partitions).
        BUILDER_COVERAGE = "E001", Error, "snapshot-builder coverage broken";
        /// Computer grid broken (missing/duplicate/unknown-group computers).
        COMPUTER_GRID = "E002", Error, "computer grid broken";
        /// Combiner/Querier arity broken.
        COMBINER_ARITY = "E003", Error, "combiner/querier arity broken";
        /// A dataflow edge violates the QEP stage order or dangles.
        EDGE_ORDER = "E004", Error, "dataflow edge violates stage order";
        /// Contributor buckets do not match the partition count.
        CONTRIBUTOR_BUCKETS = "E005", Error, "contributor buckets mismatch partitions";
        /// A separated (quasi-identifier) attribute pair co-resides in one
        /// vertical group, i.e. on one Computer.
        VERTICAL_PRIVACY = "E010", Error, "separated attribute pair co-located";
        /// Horizontal partitioning violates the raw-tuple cap or cannot cover
        /// the snapshot.
        HORIZONTAL_CAP = "E011", Error, "raw-tuple cap violated or snapshot uncovered";
        /// A partition's contributor bucket cannot fill its quota.
        THIN_BUCKET = "W012", Warning, "contributor bucket below quota";
        /// Provisioned resiliency misses the validity target (binomial tail
        /// below target for Overcollection; replica survival for Backup).
        RESILIENCY_TARGET = "E020", Error, "provisioned validity below target";
        /// The Naive strategy is combined with a non-zero fault presumption.
        NAIVE_WITH_FAULTS = "W021", Warning, "naive strategy under fault presumption";
        /// Combiner replica pool may not survive the fault presumption.
        COMBINER_SURVIVAL = "W022", Warning, "combiner replicas may not survive";
        /// A device hosts more Data Processor operators than the liability
        /// bound allows (crowd-liability skew).
        LIABILITY_SKEW = "E030", Error, "device exceeds operator liability bound";
        /// Contributor assignment is heavily skewed across partitions.
        CONTRIBUTOR_SKEW = "W031", Warning, "contributor assignment skewed";
        /// The deadline is non-positive or below the critical-path floor.
        DEADLINE_INFEASIBLE = "E040", Error, "deadline below critical-path floor";
        /// The deadline leaves less than 2x the critical-path floor.
        DEADLINE_TIGHT = "W041", Warning, "deadline within 2x of the floor";
        /// A fault rule targets a device id outside the simulated world.
        FAULT_TARGET_OOB = "E060", Error, "fault rule targets a device outside the world";
        /// A fault rule can never match (empty time window or zero firing
        /// limit).
        FAULT_WINDOW_EMPTY = "E061", Error, "fault rule can never match";
        /// An injected delay (or the rule's activation) lands past the query
        /// deadline, so the fault cannot affect the outcome.
        FAULT_DELAY_BEYOND_DEADLINE = "W062", Warning, "fault lands past the query deadline";
        /// A fault rule is shadowed by an earlier unbounded rule with a
        /// wider matcher (first-firing-rule-wins makes it unreachable).
        FAULT_RULE_UNREACHABLE = "W063", Warning, "fault rule shadowed by an earlier wider rule";
        /// Default-hasher `HashMap`/`HashSet` in a deterministic crate.
        LINT_HASHER = "E101", Error, "default-hasher map/set in deterministic crate";
        /// Wall-clock (`Instant`/`SystemTime`) outside the bench crate.
        LINT_WALL_CLOCK = "E102", Error, "wall-clock read outside bench";
        /// Ambient randomness (`thread_rng`/`rand::random`).
        LINT_AMBIENT_RNG = "E103", Error, "ambient OS randomness";
        /// `unwrap`/`expect` in non-test `exec`/`sim` library code.
        LINT_PANIC = "E104", Error, "unwrap/expect in exec/sim library code";
        /// `.clone()` of a message payload (`payload`/`bytes`) in `exec`/`sim`
        /// send paths; share the buffer instead.
        LINT_PAYLOAD_CLONE = "W105", Warning, "payload deep-copied on a send path";
        /// The network model's minimum latency is zero, so the sharded
        /// engine's conservative lookahead window is empty and every run
        /// falls back to the global sequential executor.
        SIM_ZERO_LOOKAHEAD = "W110", Warning, "zero minimum latency disables the sharded engine";
        /// A live-runtime configuration that cannot make progress: zero
        /// worker threads, or a wall-clock deadline below the transport
        /// floor (the watchdog aborts before the first window barrier).
        LIVE_CONFIG_INFEASIBLE = "E120", Error, "live runtime cannot make progress";
        /// Live transport mailbox capacity so large it never exerts
        /// backpressure, leaving queue growth unbounded in practice.
        LIVE_UNBOUNDED_MAILBOX = "W121", Warning, "live mailbox capacity never exerts backpressure";
        /// Durability is enabled but the WAL directory is unset or
        /// unwritable: the first append would drain the service read-only.
        STORAGE_WAL_DIR = "E140", Error, "WAL directory unset or unwritable under durability";
        /// The checkpoint interval is zero: the WAL is never compacted and
        /// every restart replays the service's entire history.
        STORAGE_NO_CHECKPOINT = "W141", Warning, "zero checkpoint interval leaves replay unbounded";
        /// The configuration plans for crashes but durability is disabled:
        /// every crash loses ledgers, epochs, and in-flight queries.
        STORAGE_VOLATILE_UNDER_CRASHES = "W142", Warning, "crash-planning configuration without durability";
        /// The group-commit window eats a large share of the query's wall
        /// deadline slack: durable submits stall in the commit window.
        STORAGE_WINDOW_OVER_DEADLINE = "W143", Warning, "group-commit window eats the wall-deadline slack";
        /// The WAL segment size is below one checkpoint interval's churn:
        /// the log rotates several times per checkpoint for no compaction
        /// gain.
        STORAGE_SEGMENT_THRASH = "W144", Warning, "WAL segment size below checkpoint churn causes rotation thrash";
        /// The lock-order graph has a cycle: two lock classes are acquired
        /// in opposite orders on different code paths, so two threads can
        /// deadlock holding one each.
        CONC_LOCK_ORDER_CYCLE = "E130", Error, "lock-order cycle across code paths";
        /// A `lint: allow(...)` directive no longer suppresses any finding.
        CONC_STALE_ALLOW = "W131", Warning, "allow directive suppresses nothing";
        /// A lock guard is held across a blocking or transport call
        /// (`submit`, `send`, `recv`, `join`, sleep): the holder can stall
        /// every other thread contending for that lock.
        CONC_LOCK_ACROSS_BLOCKING = "E132", Error, "lock held across a blocking/transport call";
        /// A channel or mailbox is constructed without a capacity bound —
        /// the code-level generalization of `W121`.
        CONC_UNBOUNDED_CHANNEL = "W133", Warning, "channel constructed without a capacity bound";
        /// Shared mutable state (`static mut`, `Rc`, `RefCell`, `Cell`) in a
        /// thread-spawning crate, reachable without a lock or `Arc`.
        CONC_UNSYNC_SHARED_STATE = "E134", Error, "unsynchronized shared mutable state in a threaded crate";
        /// A multi-process deployment that cannot form: unresolvable listen
        /// or connect address, a daemon dialing its own endpoint, a
        /// declared transport contradicting the address scheme, or a zero
        /// remote worker count.
        NET_ENDPOINT_INVALID = "E150", Error, "multi-process deployment endpoint cannot form";
        /// TCP reconnects left on the default backoff bounds.
        NET_TCP_DEFAULT_BACKOFF = "W151", Warning, "TCP reconnect on default backoff bounds";
        /// A handshake timeout at or beyond the query deadline.
        NET_HANDSHAKE_OVER_DEADLINE = "W152", Warning, "handshake timeout at or beyond the query deadline";
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_render() {
        let d = Diagnostic::error(codes::VERTICAL_PRIVACY, "attr_groups[0]", "pair co-located")
            .with_help("add a separation");
        let text = d.to_string();
        assert!(text.contains("error[E010]"));
        assert!(text.contains("help: add a separation"));
        let all = vec![
            d,
            Diagnostic::warning(codes::THIN_BUCKET, "partition 3", "only 2 of 50"),
        ];
        let human = render_human(&all);
        assert!(human.contains("1 error, 1 warning"), "{human}");
        assert!(has_errors(&all));
        assert!(!has_errors(&all[1..]));
    }

    #[test]
    fn json_escapes_and_lists() {
        let all = vec![Diagnostic::error(
            codes::EDGE_ORDER,
            "edge (1, 2)",
            "a \"bad\"\nedge",
        )];
        let json = render_json(&all);
        assert!(json.contains("\"code\":\"E004\""));
        assert!(json.contains("\\\"bad\\\"\\nedge"));
        assert!(json.trim_start().starts_with('['));
        assert!(json.trim_end().ends_with(']'));
    }

    #[test]
    fn diagnostics_sort_by_file_line_code() {
        let mut diags = vec![
            Diagnostic::error("E132", "crates/b/src/x.rs:10", "b"),
            Diagnostic::error("E130", "crates/b/src/x.rs:10", "a"),
            Diagnostic::error("E101", "crates/b/src/x.rs:2", "c"),
            Diagnostic::error("E011", "operators[3]", "d"),
            Diagnostic::error("E102", "crates/a/src/y.rs:99", "e"),
        ];
        sort_diagnostics(&mut diags);
        let order: Vec<(&str, &str)> = diags
            .iter()
            .map(|d| (d.location.as_str(), d.code))
            .collect();
        assert_eq!(
            order,
            vec![
                ("crates/a/src/y.rs:99", "E102"),
                ("crates/b/src/x.rs:2", "E101"),
                ("crates/b/src/x.rs:10", "E130"),
                ("crates/b/src/x.rs:10", "E132"),
                ("operators[3]", "E011"),
            ]
        );
    }

    #[test]
    fn every_code_is_documented_in_the_analyzer_guide() {
        // CARGO_MANIFEST_DIR is crates/analyze; docs/ sits at the root.
        let doc_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("workspace root")
            .join("docs/ANALYZER.md");
        let doc = std::fs::read_to_string(&doc_path)
            .unwrap_or_else(|e| panic!("cannot read {doc_path:?}: {e}"));
        for (code, _, summary) in codes::ALL {
            assert!(
                doc.contains(&format!("| {code} |")),
                "diagnostic {code} ({summary}) is missing from docs/ANALYZER.md"
            );
        }
    }

    #[test]
    fn codes_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (code, severity, summary) in codes::ALL {
            assert!(seen.insert(*code), "duplicate code {code}");
            assert_eq!(code.len(), 4, "{code}");
            let expected = if code.starts_with('E') {
                Severity::Error
            } else {
                Severity::Warning
            };
            assert_eq!(*severity, expected, "{code}");
            assert!(!summary.is_empty());
        }
    }
}
