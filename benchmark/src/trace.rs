//! Spans: recorded into a pre-sized in-memory buffer around the calls
//! into each layer, written out when the run ends, and summarised into
//! per-name self times (a span's duration minus the part its children
//! cover).
//!
//! The benchmark is a closed loop with one client, so at any instant
//! the open spans of all threads form one stack: the client waits on
//! the serve loop, which waits on the daemon, which waits on the
//! worker. A new span's parent is therefore whatever span is innermost
//! open, whichever thread opened it.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// `parent` of a root span.
pub const NO_PARENT: i64 = -1;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.what`; the part before the first dot is the layer.
    pub name: String,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: i64,
    /// The query the span belongs to; spans of one query share it.
    pub query_id: u64,
}

#[derive(Default)]
struct Buffer {
    spans: Vec<Span>,
    open: Vec<usize>,
    query_id: u64,
}

/// The span recorder shared by every decorator of a traced run.
pub struct Tracer {
    origin: Instant,
    buffer: Mutex<Buffer>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    index: usize,
}

impl Tracer {
    /// A tracer with room for `capacity` spans before it reallocates.
    pub fn new(capacity: usize) -> Arc<Tracer> {
        Arc::new(Tracer {
            origin: Instant::now(),
            buffer: Mutex::new(Buffer {
                spans: Vec::with_capacity(capacity),
                ..Buffer::default()
            }),
        })
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn buffer(&self) -> std::sync::MutexGuard<'_, Buffer> {
        self.buffer.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Opens the root span of the next query.
    pub fn query(&self, name: &str) -> SpanGuard<'_> {
        self.buffer().query_id += 1;
        self.span(name)
    }

    /// Opens a span under the innermost open one.
    pub fn span(&self, name: &str) -> SpanGuard<'_> {
        let start_ns = self.now_ns();
        let mut buf = self.buffer();
        let index = buf.spans.len();
        let parent = buf.open.last().map_or(NO_PARENT, |&p| p as i64);
        let query_id = buf.query_id;
        buf.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent,
            query_id,
        });
        buf.open.push(index);
        SpanGuard {
            tracer: self,
            index,
        }
    }

    /// Records an already-measured child of the innermost open span:
    /// time a decorator accumulated over many calls too short to record
    /// one by one (actor callbacks, transport hops). It is laid at its
    /// parent's start; only its duration carries meaning.
    pub fn aggregate(&self, name: &str, total_ns: u64) {
        let mut buf = self.buffer();
        let Some(&parent) = buf.open.last() else {
            return;
        };
        let start_ns = buf.spans[parent].start_ns;
        let query_id = buf.query_id;
        buf.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns + total_ns,
            parent: parent as i64,
            query_id,
        });
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.buffer().spans.clone()
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end_ns = self.tracer.now_ns();
        let mut buf = self.tracer.buffer();
        buf.spans[self.index].end_ns = end_ns;
        // Guards drop innermost-first; tolerate a stray order rather
        // than corrupt the stack.
        if let Some(at) = buf.open.iter().rposition(|&i| i == self.index) {
            buf.open.truncate(at);
        }
    }
}

// ---- summary ----

/// Totals for one span name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NameTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of their durations, ns.
    pub total_ns: u64,
    /// Sum of their self times, ns.
    pub self_ns: u64,
}

/// Self time of every span: its duration minus its direct children's
/// durations (never below zero: an aggregate child may overshoot its
/// parent by clock granularity).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for span in spans {
        if span.parent >= 0 {
            let p = span.parent as usize;
            own[p] = own[p].saturating_sub(span.end_ns - span.start_ns);
        }
    }
    own
}

/// Per-name totals, in name order.
pub fn totals(spans: &[Span]) -> BTreeMap<String, NameTotals> {
    let own = self_times(spans);
    let mut by_name: BTreeMap<String, NameTotals> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(own) {
        let t = by_name.entry(span.name.clone()).or_default();
        t.count += 1;
        t.total_ns += span.end_ns - span.start_ns;
        t.self_ns += self_ns;
    }
    by_name
}

/// Index of the root span above each span. Parents are recorded before
/// their children, so one forward pass resolves every chain.
fn roots(spans: &[Span]) -> Vec<usize> {
    let mut root = Vec::with_capacity(spans.len());
    for (i, span) in spans.iter().enumerate() {
        root.push(if span.parent == NO_PARENT {
            i
        } else {
            root[span.parent as usize]
        });
    }
    root
}

/// Number of root spans per root name.
fn root_counts(spans: &[Span]) -> BTreeMap<&str, u64> {
    let mut counts = BTreeMap::new();
    for span in spans.iter().filter(|s| s.parent == NO_PARENT) {
        *counts.entry(span.name.as_str()).or_default() += 1;
    }
    counts
}

/// The root name set-up spans hang under; it is not a query.
pub const SETUP_ROOT: &str = "client.setup";

/// Milliseconds of one query that the trace attributes to a layer: the
/// self time of every non-root span, averaged per root of its kind and
/// summed over the kinds of query root (a workload traced through two
/// paths, engine and store, has two).
pub fn attributed_ms_per_query(spans: &[Span]) -> f64 {
    let own = self_times(spans);
    let root = roots(spans);
    let counts = root_counts(spans);
    let mut per_root_name: BTreeMap<&str, u64> = BTreeMap::new();
    for (i, span) in spans.iter().enumerate() {
        let root_name = spans[root[i]].name.as_str();
        if span.parent != NO_PARENT && root_name != SETUP_ROOT {
            *per_root_name.entry(root_name).or_default() += own[i];
        }
    }
    per_root_name
        .iter()
        .map(|(name, ns)| *ns as f64 / 1e6 / counts[name] as f64)
        .sum()
}

/// Share of the untraced client latency (`plain_ms`, mean per query)
/// that no span's self time accounts for, in percent.
pub fn unattributed_pct(spans: &[Span], plain_ms: f64) -> f64 {
    100.0 * (plain_ms - attributed_ms_per_query(spans)) / plain_ms
}

/// A trace as written to disk.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceFile {
    /// The workload traced.
    pub workload: String,
    /// Mean client latency of the untraced queries run beside the
    /// traced ones, ms: what the spans are expected to add up to.
    pub plain_query_mean_ms: f64,
    /// Every span of the run.
    pub spans: Vec<Span>,
}

/// The self-time table `--summarise` and every traced run print: one
/// row per span name (times per root of the span's kind: per query, or
/// per cold start under the set-up root), then one row per layer under
/// each kind of root.
pub fn render_summary(trace: &TraceFile) -> String {
    let spans = &trace.spans;
    let own = self_times(spans);
    let root = roots(spans);
    let counts = root_counts(spans);
    // (root name, span name) -> (count, total ns, self ns)
    let mut rows: BTreeMap<(&str, &str), (u64, u64, u64)> = BTreeMap::new();
    for (i, span) in spans.iter().enumerate() {
        let row = rows
            .entry((spans[root[i]].name.as_str(), span.name.as_str()))
            .or_default();
        row.0 += 1;
        row.1 += span.end_ns - span.start_ns;
        row.2 += own[i];
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<16} {:<28} {:>8} {:>13} {:>12}",
        "root", "span", "count", "total ms/root", "self ms/root"
    );
    let mut layers: BTreeMap<(&str, &str), f64> = BTreeMap::new();
    for ((root_name, name), (count, total_ns, self_ns)) in &rows {
        let per = counts[root_name] as f64;
        let (total_ms, self_ms) = (*total_ns as f64 / 1e6 / per, *self_ns as f64 / 1e6 / per);
        let _ = writeln!(
            out,
            "{root_name:<16} {name:<28} {count:>8} {total_ms:>13.4} {self_ms:>12.4}"
        );
        let layer = name.split('.').next().unwrap_or(name);
        *layers.entry((root_name, layer)).or_default() += self_ms;
    }
    let _ = writeln!(out, "{:<16} {:<28} {:>35}", "root", "layer", "self ms/root");
    for ((root_name, layer), self_ms) in layers {
        let _ = writeln!(out, "{root_name:<16} {layer:<28} {self_ms:>35.4}");
    }
    let _ = writeln!(
        out,
        "plain_query_mean_ms={:.4} attributed_ms_per_query={:.4} trace.unattributed_pct={:.3}",
        trace.plain_query_mean_ms,
        attributed_ms_per_query(spans),
        unattributed_pct(spans, trace.plain_query_mean_ms)
    );
    out
}

// ---- file format ----

/// Serialises a trace as JSON, one span object per line.
pub fn to_json(trace: &TraceFile) -> String {
    let mut out = format!(
        "{{\"workload\": \"{}\", \"plain_query_mean_ms\": {}, \"spans\": [\n",
        trace.workload, trace.plain_query_mean_ms
    );
    for (i, s) in trace.spans.iter().enumerate() {
        let sep = if i + 1 == trace.spans.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"query_id\": {}}}{sep}",
            s.name, s.start_ns, s.end_ns, s.parent, s.query_id
        );
    }
    out.push_str("]}\n");
    out
}

/// Reads back what [`to_json`] wrote (that layout only: a header line,
/// then one span per line with keys in that order).
pub fn from_json(text: &str) -> Result<TraceFile, String> {
    fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
        let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
        let end = rest.find([',', '}'])?;
        Some(rest[..end].trim_matches('"'))
    }
    let header = text.lines().next().unwrap_or_default();
    let (workload, plain_query_mean_ms) = field(header, "workload")
        .zip(field(header, "plain_query_mean_ms").and_then(|v| v.parse().ok()))
        .ok_or("not a trace file: no header line")?;
    let mut spans = Vec::new();
    for line in text.lines().filter(|l| l.starts_with("{\"name\"")) {
        let parse = || -> Option<Span> {
            Some(Span {
                name: field(line, "name")?.to_string(),
                start_ns: field(line, "start_ns")?.parse().ok()?,
                end_ns: field(line, "end_ns")?.parse().ok()?,
                parent: field(line, "parent")?.parse().ok()?,
                query_id: field(line, "query_id")?.parse().ok()?,
            })
        };
        spans.push(parse().ok_or_else(|| format!("malformed span line: {line}"))?);
    }
    // A parent must precede its child; the summary relies on it.
    let malformed = spans
        .iter()
        .enumerate()
        .any(|(i, s)| s.parent < NO_PARENT || s.parent >= i as i64 || s.end_ns < s.start_ns);
    if malformed {
        return Err("span file has a parent out of order or a negative duration".into());
    }
    Ok(TraceFile {
        workload: workload.to_string(),
        plain_query_mean_ms,
        spans,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: i64) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            query_id: 1,
        }
    }

    /// client.query 0..100
    ///   live.run_until 10..80
    ///     exec.actors (aggregate) 30 long
    ///     live.transport (aggregate) 15 long
    ///   exec.finish_report 80..95
    fn tree() -> Vec<Span> {
        vec![
            span("client.query", 0, 100, NO_PARENT),
            span("live.run_until", 10, 80, 0),
            span("exec.actors", 10, 40, 1),
            span("live.transport", 10, 25, 1),
            span("exec.finish_report", 80, 95, 0),
        ]
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // root: 100 - 70 - 15; run_until: 70 - 30 - 15; leaves keep all.
        assert_eq!(self_times(&tree()), vec![15, 25, 30, 15, 15]);
    }

    #[test]
    fn self_times_sum_to_the_root_duration() {
        let spans = tree();
        let sum: u64 = self_times(&spans).iter().sum();
        assert_eq!(sum, 100);
        // Everything but the root's own 15 ns is attributed.
        assert!((attributed_ms_per_query(&spans) - 85e-6).abs() < 1e-12);
        assert!((unattributed_pct(&spans, 100e-6) - 15.0).abs() < 1e-6);
    }

    #[test]
    fn an_overshooting_aggregate_clamps_at_zero() {
        let spans = vec![
            span("a.parent", 0, 10, NO_PARENT),
            span("b.child", 0, 12, 0),
        ];
        assert_eq!(self_times(&spans), vec![0, 12]);
    }

    #[test]
    fn totals_group_by_name_across_queries() {
        let mut spans = tree();
        let base = spans.len() as i64;
        spans.push(span("client.query", 200, 260, NO_PARENT));
        spans.push(span("live.run_until", 210, 250, base));
        let t = totals(&spans);
        assert_eq!(
            t["client.query"],
            NameTotals {
                count: 2,
                total_ns: 160,
                self_ns: 15 + 20
            }
        );
        assert_eq!(t["live.run_until"].self_ns, 25 + 40);
    }

    #[test]
    fn tracer_nests_spans_by_open_order() {
        let tracer = Tracer::new(8);
        {
            let _q = tracer.query("client.query");
            {
                let _r = tracer.span("live.run_until");
                tracer.aggregate("exec.actors", 5);
            }
            let _f = tracer.span("exec.finish_report");
        }
        let spans = tracer.spans();
        let parents: Vec<i64> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![NO_PARENT, 0, 1, 0]);
        assert!(spans
            .iter()
            .all(|s| s.query_id == 1 && s.end_ns >= s.start_ns));
        assert_eq!(spans[2].end_ns - spans[2].start_ns, 5);
    }

    #[test]
    fn attribution_averages_per_root_kind_and_skips_set_up() {
        let mut spans = vec![
            span(SETUP_ROOT, 0, 50, NO_PARENT),
            span("core.platform_build", 0, 40, 0),
        ];
        // Two engine-path queries (30 and 50 attributed), one
        // store-path query (8 attributed): 40 + 8 per query.
        for (start, child) in [(100u64, 30u64), (200, 50)] {
            let at = spans.len() as i64;
            spans.push(span("client.query", start, start + 60, NO_PARENT));
            spans.push(span("live.run_until", start, start + child, at));
        }
        let at = spans.len() as i64;
        spans.push(span("client.submit", 300, 400, NO_PARENT));
        spans.push(span("store.sync", 310, 318, at));
        assert!((attributed_ms_per_query(&spans) - 48e-6).abs() < 1e-12);
    }

    #[test]
    fn json_round_trips() {
        let trace = TraceFile {
            workload: "w".into(),
            plain_query_mean_ms: 6.25,
            spans: tree(),
        };
        assert_eq!(from_json(&to_json(&trace)).unwrap(), trace);
        assert!(render_summary(&trace).contains("live.run_until"));
        assert!(from_json("{\"name\": \"x\", \"start_ns\": 1}").is_err());
        let orphan = TraceFile {
            spans: vec![span("a.b", 0, 1, 7)],
            ..trace
        };
        assert!(from_json(&to_json(&orphan)).is_err());
    }
}
