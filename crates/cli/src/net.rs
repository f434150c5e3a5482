//! Multi-process deployment commands: `serve --listen`, `worker
//! --connect`, and `submit --connect`.
//!
//! The daemon does not ship worlds over the wire — it ships the *world
//! spec* (the `QueryArgs` surface, versioned text) and every process
//! builds the identical world from it via [`CliWorldBuilder`]. That
//! keeps the parity argument trivial: daemon, workers, and the
//! in-process fallback all call the same `build_world` +
//! `prepare_live_query` path with the same inputs, so they hold
//! bit-identical worlds by the construction contract of
//! [`edgelet_live::prepare_live_query`].
//!
//! Submission artifacts are JSON (socket clients are machine-facing):
//! result payload and ledger ride along hex-encoded so the parity
//! harness can byte-compare them against sim and in-process live runs
//! without file transfer.

use crate::args::{query_args, Flags, QueryArgs, ServeArgs, WorkerArgs};
use crate::commands::lint_verdict;
use edgelet_core::prelude::DeviceId;
use edgelet_core::util::{Error, Result};
use edgelet_live::{LiveRunOptions, PreparedQuery, SubmitError, SubmitOutcome};
use edgelet_net::{
    run_worker, Addr, CollectorTransport, Daemon, MsgStream, NetConfig, NetMsg, Role, SessionEnd,
    Stream, WorkerConfig, WorldBuilder,
};
use edgelet_sim::{FaultAction, FaultPlan, FaultRule, MsgMatch, SimTime};
use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

// ---- world-spec codec ----

const WORLDSPEC_HEADER: &str = "edgelet-worldspec-v2";
const WORLDSPEC_KEYS: [&str; 13] = [
    "seed",
    "contributors",
    "processors",
    "cardinality",
    "cap",
    "separate",
    "failure_p",
    "strategy",
    "network",
    "crash_p",
    "kmeans",
    "shards",
    "fault_plan",
];

/// Encodes the world-shaping subset of [`QueryArgs`] as versioned text,
/// one `key=value` line per [`WORLDSPEC_KEYS`] entry in that order.
/// Rendering-only knobs (`dot`) are excluded; `f64`s use Rust's
/// shortest-roundtrip `Display`, so encode∘decode is the identity and
/// two processes given the same bytes build the same world.
pub(crate) fn encode_world_spec(q: &QueryArgs) -> Vec<u8> {
    let none = || "none".to_string();
    let pairs: Vec<String> = q.separate.iter().map(|(a, b)| format!("{a}:{b}")).collect();
    let values: [String; 13] = [
        q.seed.to_string(),
        q.contributors.to_string(),
        q.processors.to_string(),
        q.cardinality.to_string(),
        q.cap.map_or_else(none, |c| c.to_string()),
        pairs.join(","),
        q.failure_p.to_string(),
        q.strategy.clone(),
        q.network.clone(),
        q.crash_p.to_string(),
        q.kmeans.map_or_else(none, |(k, h)| format!("{k},{h}")),
        q.shards.to_string(),
        q.fault_plan.clone().unwrap_or_else(none),
    ];
    let mut out = format!("{WORLDSPEC_HEADER}\n");
    for (key, value) in WORLDSPEC_KEYS.iter().zip(values) {
        let _ = writeln!(out, "{key}={value}");
    }
    out.into_bytes()
}

fn spec_err(what: impl std::fmt::Display) -> Error {
    Error::Decode(format!("world spec: {what}"))
}

/// Decodes [`encode_world_spec`] output, rejecting unknown versions,
/// unknown keys, duplicates, and missing keys — a daemon and a worker
/// disagreeing on the spec surface must fail loudly, not diverge. The
/// values are read by the command line's own [`query_args`]: each line
/// becomes the flag of the same name (`failure_p` is `--failure-p`,
/// `separate=a:b,c:d` is `--separate a:b --separate c:d`, `kmeans=none`
/// and `fault_plan=none` are no flag), so a peer can send nothing an
/// operator could not have typed.
pub(crate) fn decode_world_spec(bytes: &[u8]) -> Result<QueryArgs> {
    let text = std::str::from_utf8(bytes).map_err(|_| spec_err("not utf-8"))?;
    let mut lines = text.lines();
    if lines.next() != Some(WORLDSPEC_HEADER) {
        return Err(spec_err(format!("expected `{WORLDSPEC_HEADER}` header")));
    }
    let mut flags = Flags::default();
    let mut seen: Vec<&str> = Vec::new();
    for line in lines.filter(|line| !line.is_empty()) {
        let (k, v) = line
            .split_once('=')
            .ok_or_else(|| spec_err(format!("malformed line `{line}`")))?;
        if !WORLDSPEC_KEYS.contains(&k) {
            return Err(spec_err(format!("unknown key `{k}`")));
        }
        if seen.contains(&k) {
            return Err(spec_err(format!("duplicate key `{k}`")));
        }
        seen.push(k);
        let flag = k.replace('_', "-");
        match (k, v) {
            ("kmeans" | "fault_plan", "none") | ("separate", "") => {}
            ("separate", pairs) => pairs.split(',').for_each(|pair| flags.push(&flag, pair)),
            _ => flags.push(&flag, v),
        }
    }
    if let Some(missing) = WORLDSPEC_KEYS.iter().find(|k| !seen.contains(k)) {
        return Err(spec_err(format!("missing key `{missing}`")));
    }
    let q = query_args(&mut flags).map_err(spec_err)?;
    flags.finish("the world spec").map_err(spec_err)?;
    Ok(q)
}

// ---- the shared world builder ----

/// Builds a prepared live world from world-spec bytes — the one
/// construction path every process in a deployment shares. The
/// collector transport is a placeholder: `LiveEngine::into_parts`
/// (worker side) and the daemon's coordinator both discard it; nothing
/// submits an envelope during construction.
pub(crate) struct CliWorldBuilder;

impl WorldBuilder for CliWorldBuilder {
    fn build(&self, spec: &[u8], epoch: u64, workers: usize) -> Result<PreparedQuery> {
        let q = decode_world_spec(spec)?;
        let (platform, qspec, privacy, resilience) = crate::commands::build_world(&q)?;
        let workers = workers.max(1);
        edgelet_live::prepare_live_query(
            &platform,
            &qspec,
            &privacy,
            &resilience,
            Arc::new(CollectorTransport::new(workers)),
            &LiveRunOptions::new(workers, epoch),
        )
    }
}

// ---- fault-plan DSL ----

/// Parses the `--fault-plan` mini-DSL: rules separated by `;`,
/// fields by `,`; the first field is the action (`drop` | `delay` |
/// `dup`), the rest are `key=value` matchers:
///
/// `drop,from=3;dup,extra-ms=1,after-s=0.5;delay,extra-ms=2,to=7`
///
/// Keys: `extra-ms` (delay amount / duplicate extra latency), `from`,
/// `to` (device ids), `kind` (protocol kind), `after-s`, `until-s`
/// (virtual-time window). There is no `skip`, `limit` or `reorder`, so
/// every parsed plan is window-safe and runs on every host.
pub(crate) fn parse_fault_plan(raw: &str) -> Result<FaultPlan> {
    let bad = |what: String| Error::InvalidConfig(format!("--fault-plan: {what}"));
    let mut plan = FaultPlan::new();
    for rule_text in raw.split(';') {
        let rule_text = rule_text.trim();
        if rule_text.is_empty() {
            continue;
        }
        let mut fields = rule_text.split(',');
        let action_name = fields.next().unwrap_or_default().trim();
        let mut extra_ms: Option<u64> = None;
        let mut matcher = MsgMatch::default();
        for field in fields {
            let field = field.trim();
            let (k, v) = field
                .split_once('=')
                .ok_or_else(|| bad(format!("field `{field}` is not key=value")))?;
            let parse_u64 =
                |v: &str| -> Result<u64> { v.parse().map_err(|_| bad(format!("bad u64 `{v}`"))) };
            let parse_f64 =
                |v: &str| -> Result<f64> { v.parse().map_err(|_| bad(format!("bad f64 `{v}`"))) };
            let time = |v: &str| -> Result<SimTime> {
                Ok(SimTime::from_micros(
                    edgelet_sim::Duration::from_secs_f64(parse_f64(v)?).as_micros(),
                ))
            };
            match k {
                "extra-ms" => extra_ms = Some(parse_u64(v)?),
                "from" => matcher.from = Some(vec![DeviceId::new(parse_u64(v)?)]),
                "to" => matcher.to = Some(vec![DeviceId::new(parse_u64(v)?)]),
                "kind" => {
                    let kind: u16 = v.parse().map_err(|_| bad(format!("bad kind `{v}`")))?;
                    matcher.kinds = Some(vec![kind]);
                }
                "after-s" => matcher.after = Some(time(v)?),
                "until-s" => matcher.until = Some(time(v)?),
                other => return Err(bad(format!("unknown key `{other}`"))),
            }
        }
        let action = match action_name {
            "drop" => FaultAction::Drop,
            "delay" => {
                let ms = extra_ms
                    .ok_or_else(|| bad("`delay` needs extra-ms=<milliseconds>".to_string()))?;
                FaultAction::Delay(edgelet_sim::Duration::from_micros(ms * 1_000))
            }
            "dup" => FaultAction::Duplicate {
                extra_delay: edgelet_sim::Duration::from_micros(extra_ms.unwrap_or(0) * 1_000),
            },
            other => return Err(bad(format!("unknown action `{other}`"))),
        };
        plan = plan.rule(FaultRule {
            matcher,
            action,
            skip: 0,
            limit: None,
        });
    }
    if plan.rules.is_empty() {
        return Err(bad("empty plan".to_string()));
    }
    Ok(plan)
}

// ---- artifact JSON ----

fn hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        let _ = write!(s, "{b:02x}");
    }
    s
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// The verdict string a refused submission carries. `ShuttingDown` is
/// distinct (`rejected_draining`): a client hitting a daemon mid-drain
/// should retry elsewhere, while `rejected_readonly` means the durable
/// media failed and retrying the same daemon is pointless.
pub(crate) fn reject_verdict(e: &SubmitError) -> &'static str {
    match e {
        SubmitError::ShuttingDown => "rejected_draining",
        SubmitError::ReadOnly { .. } => "rejected_readonly",
        _ => "rejected",
    }
}

/// JSON artifact for a refused submission.
pub(crate) fn error_artifact(e: &SubmitError) -> String {
    refusal_artifact(reject_verdict(e), &e.to_string())
}

fn refusal_artifact(verdict: &str, reason: &str) -> String {
    let reason = json_escape(reason);
    format!("{{\"verdict\":\"{verdict}\",\"reason\":\"{reason}\"}}\n")
}

/// The opening of every executed submission's JSON verdict — `{` and
/// the nine fields the in-process `submit` and the daemon both report,
/// unclosed so that each appends what only it knows.
pub(crate) fn verdict_fields(o: &SubmitOutcome, workers: usize) -> String {
    let r = &o.run.report;
    format!(
        "{{\"verdict\":\"{}\",\"epoch\":{},\"completed\":{},\"valid\":{},\
         \"wall_aborted\":{},\"completion_secs\":{},\"messages_sent\":{},\
         \"bytes_sent\":{},\"workers\":{workers}",
        if o.succeeded() { "ok" } else { "miss" },
        o.epoch,
        r.completed,
        r.valid,
        o.wall_aborted,
        r.completion_secs
            .map(|t| format!("{t}"))
            .unwrap_or_else(|| "null".into()),
        r.messages_sent,
        r.bytes_sent,
    )
}

/// JSON artifact for an executed submission. Payload and ledger are
/// hex so the parity harness can byte-compare engines; `state_crc`
/// summarizes both for quick diffing.
fn run_artifact(o: &SubmitOutcome, transport: &str, workers: usize, fallbacks: u64) -> String {
    let r = &o.run.report;
    format!(
        "{},\"transport\":\"{transport}\",\"remote_fallbacks\":{fallbacks},\
         \"state_crc\":{},\"trace_digest\":{},\"result_payload\":{},\"ledger\":\"{}\"}}\n",
        verdict_fields(o, workers),
        edgelet_live::state_crc(&o.run),
        o.run
            .trace_digest
            .map(|d| format!("{d}"))
            .unwrap_or_else(|| "null".into()),
        r.result_payload
            .as_deref()
            .map(|p| format!("\"{}\"", hex(p)))
            .unwrap_or_else(|| "null".into()),
        hex(&edgelet_wire::to_bytes(&r.ledger)),
    )
}

// ---- commands ----

/// What the net-config lint is told about a parsed address: TCP or not,
/// or the parse error it reports as `E150`.
fn verdict(addr: &Result<Addr>) -> std::result::Result<bool, String> {
    addr.as_ref().map(Addr::is_tcp).map_err(ToString::to_string)
}

/// A line printed *now*, not at command exit: daemon/worker processes
/// are long-running and their supervisors (the CI smoke job, the
/// parity keystone) parse this line to learn the bound address.
fn announce(line: &str, out: &mut String) {
    println!("{line}");
    std::io::stdout().flush().ok();
    out.push_str(line);
    out.push('\n');
}

/// `edgelet serve --listen <addr>`: daemon mode. Hosts the live
/// [`edgelet_live::QueryService`] with the socket daemon installed as
/// its remote executor, accepts worker registrations, and serves
/// `--queries` socket submissions (each must carry the canonical world
/// spec). Shutdown drains late submissions with `rejected_draining`.
pub(crate) fn serve_listen(args: &ServeArgs) -> Result<(String, i32)> {
    let listen = args.listen.as_deref().expect("serve_listen needs --listen");
    let mut preamble = String::new();
    if let Some(v) = crate::commands::live_preflight(args, false, &mut preamble) {
        return Ok(v);
    }
    let (service, spec, privacy, resilience, _recovery) = crate::commands::live_service(args)?;
    let addr = Addr::parse(listen);
    let lint = edgelet_analyze::check_net_config(&edgelet_analyze::NetSurface {
        listen: Some((listen, verdict(&addr))),
        expected_workers: Some(args.expected_workers),
        handshake_timeout_ms: Some(args.handshake_timeout_ms),
        deadline_secs: Some(spec.deadline_secs),
        ..Default::default()
    });
    if let Some(v) = lint_verdict(&lint, false, &mut preamble) {
        service.shutdown();
        return Ok(v);
    }
    let world_spec = encode_world_spec(&args.query);
    let addr = addr?;
    let daemon = Arc::new(Daemon::start(
        &addr,
        NetConfig {
            expected_workers: args.expected_workers,
            handshake_timeout: Duration::from_millis(args.handshake_timeout_ms),
            world_spec: world_spec.clone(),
            ..NetConfig::default()
        },
        Arc::new(CliWorldBuilder),
    )?);
    service.set_remote(daemon.clone());
    let transport_label = if daemon.addr().is_tcp() { "tcp" } else { "uds" };
    let mut out = preamble;
    announce(
        &format!(
            "serve: listening on {} ({} expected workers, {} queries)",
            daemon.addr(),
            args.expected_workers,
            args.queries
        ),
        &mut out,
    );
    if !daemon.wait_workers(Duration::from_millis(args.handshake_timeout_ms)) {
        let _ = writeln!(
            out,
            "serve: {}/{} workers after handshake timeout; epochs may fall back in-process",
            daemon.registered_workers(),
            args.expected_workers
        );
    }
    let wall = args.wall_deadline_ms.map(Duration::from_millis);
    // What a submission is answered with: its run's artifact, or its refusal's.
    let answer = |result: &std::result::Result<SubmitOutcome, SubmitError>| {
        let fallbacks = service.remote_fallbacks();
        match result {
            Ok(o) => run_artifact(o, transport_label, args.expected_workers, fallbacks),
            Err(e) => error_artifact(e),
        }
        .into_bytes()
    };
    let mut served = 0usize;
    let mut failed = 0usize;
    while served < args.queries {
        let Some(sub) = daemon.next_submission(Duration::from_secs(600)) else {
            break;
        };
        if sub.spec != world_spec {
            let _ = writeln!(
                out,
                "serve: rejected a submission with a mismatched world spec"
            );
            sub.reject("world spec does not match this daemon's canonical world".into());
            continue;
        }
        let result = service.submit(&spec, &privacy, &resilience, wall);
        match &result {
            Ok(o) => {
                let ok = o.succeeded();
                failed += usize::from(!ok);
                let _ = writeln!(
                    out,
                    "query {served}: epoch={} {} completed={} valid={}",
                    o.epoch,
                    if ok { "ok" } else { "MISS" },
                    o.run.report.completed,
                    o.run.report.valid,
                );
            }
            Err(e) => {
                failed += 1;
                let _ = writeln!(out, "query {served}: FAILED {e}");
            }
        }
        sub.respond(answer(&result));
        served += 1;
    }
    // Graceful drain: stop admitting, then answer stragglers with the
    // draining verdict (through the real admission path, so the
    // rejection reason is the service's own).
    service.shutdown();
    while let Some(sub) = daemon.next_submission(Duration::from_millis(200)) {
        sub.respond(answer(&service.submit(&spec, &privacy, &resilience, wall)));
    }
    daemon.shutdown();
    let _ = writeln!(
        out,
        "serve: {served} queries via {transport_label}, {} registrations ({} rejected), \
         {} in-process fallbacks, {failed} failed; drained and shut down",
        daemon.total_registrations(),
        daemon.total_rejections(),
        service.remote_fallbacks(),
    );
    Ok((out, i32::from(failed > 0 || served < args.queries)))
}

/// `edgelet worker --connect <addr>`: runs role actors for a daemon's
/// epochs in this process, reconnecting with backoff until killed or
/// rejected (version mismatch, full fleet).
pub(crate) fn worker_command(w: &WorkerArgs) -> Result<(String, i32)> {
    let mut out = String::new();
    let addr = Addr::parse(&w.connect);
    let lint = edgelet_analyze::check_net_config(&edgelet_analyze::NetSurface {
        connect: Some((&w.connect, verdict(&addr))),
        explicit_backoff: w.backoff_initial_ms.is_some() && w.backoff_max_ms.is_some(),
        ..Default::default()
    });
    if let Some(v) = lint_verdict(&lint, false, &mut out) {
        return Ok(v);
    }
    if !out.is_empty() {
        // Warnings would otherwise sit unseen until the process dies.
        print!("{out}");
        std::io::stdout().flush().ok();
    }
    let mut cfg = WorkerConfig::new(addr?);
    if let Some(ms) = w.backoff_initial_ms {
        cfg.backoff_initial = Duration::from_millis(ms);
    }
    if let Some(ms) = w.backoff_max_ms {
        cfg.backoff_max = Duration::from_millis(ms);
    }
    announce(&format!("worker: serving {}", cfg.connect), &mut out);
    let stop = AtomicBool::new(false);
    match run_worker(&cfg, Arc::new(CliWorldBuilder), &stop) {
        Ok(()) => {
            let _ = writeln!(out, "worker: stopped");
            Ok((out, 0))
        }
        Err(SessionEnd::Rejected(reason)) => {
            let _ = writeln!(out, "worker: rejected by daemon: {reason}");
            Ok((out, 1))
        }
        Err(SessionEnd::Disconnected(reason)) => {
            let _ = writeln!(out, "worker: disconnected: {reason}");
            Ok((out, 1))
        }
    }
}

/// `edgelet submit --connect <addr>`: sends the world spec to a daemon
/// and prints the daemon's JSON artifact verbatim. Exit status follows
/// the artifact verdict.
pub(crate) fn submit_connect(args: &ServeArgs) -> Result<(String, i32)> {
    let connect = args
        .connect
        .as_deref()
        .expect("submit_connect needs --connect");
    let mut preamble = String::new();
    let addr = Addr::parse(connect);
    let lint = edgelet_analyze::check_net_config(&edgelet_analyze::NetSurface {
        connect: Some((connect, verdict(&addr))),
        // Clients do not reconnect; the backoff warning is not for them.
        explicit_backoff: true,
        ..Default::default()
    });
    if let Some(v) = lint_verdict(&lint, false, &mut preamble) {
        return Ok(v);
    }
    let addr = addr?;
    let mut stream = MsgStream::new(Stream::connect(&addr)?);
    stream.send(&NetMsg::hello(Role::Client))?;
    stream.send(&NetMsg::SubmitReq {
        spec: encode_world_spec(&args.query),
    })?;
    let timeout = args
        .wall_deadline_ms
        .map(|ms| Duration::from_millis(ms) + Duration::from_secs(30))
        .unwrap_or(Duration::from_secs(600));
    match stream.recv(Some(timeout))? {
        NetMsg::SubmitResp { artifact } => {
            let text = String::from_utf8(artifact)
                .map_err(|_| Error::Protocol("daemon artifact is not utf-8".into()))?;
            let ok = text.contains("\"verdict\":\"ok\"");
            Ok((format!("{preamble}{text}"), i32::from(!ok)))
        }
        NetMsg::Reject { reason } => Ok((preamble + &refusal_artifact("rejected", &reason), 1)),
        other => Err(Error::Protocol(format!(
            "unexpected daemon reply: {other:?}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgelet_live::{QueryService, ServiceConfig};

    fn tiny_query() -> QueryArgs {
        QueryArgs {
            contributors: 40,
            processors: 24,
            cardinality: 20,
            cap: Some(10),
            failure_p: 0.0,
            crash_p: 0.0,
            network: "reliable".into(),
            ..QueryArgs::default()
        }
    }

    #[test]
    fn world_spec_roundtrips() {
        let mut q = tiny_query();
        q.separate = vec![("age".into(), "sex".into()), ("bmi".into(), "gir".into())];
        q.kmeans = Some((4, 3));
        q.cap = None;
        q.failure_p = 0.123_456_789;
        let decoded = decode_world_spec(&encode_world_spec(&q)).unwrap();
        assert_eq!(decoded, q);
        let q = QueryArgs::default();
        assert_eq!(decode_world_spec(&encode_world_spec(&q)).unwrap(), q);
    }

    #[test]
    fn world_spec_bytes_are_pinned() {
        // Every process in a deployment compares these bytes; they may
        // not move with the code that writes them.
        let defaults = "edgelet-worldspec-v2\nseed=7\ncontributors=2000\nprocessors=150\n\
                        cardinality=300\ncap=75\nseparate=\nfailure_p=0.1\n\
                        strategy=overcollection\nnetwork=lossy:0.05\ncrash_p=0\nkmeans=none\n\
                        shards=1\nfault_plan=none\n";
        let q = QueryArgs::default();
        assert_eq!(encode_world_spec(&q), defaults.as_bytes());
        let q = QueryArgs {
            cap: None,
            separate: vec![("age".into(), "sex".into()), ("bmi".into(), "gir".into())],
            kmeans: Some((4, 3)),
            fault_plan: Some("drop,from=3;delay,extra-ms=50,kind=4".into()),
            ..q
        };
        let variant = "edgelet-worldspec-v2\nseed=7\ncontributors=2000\nprocessors=150\n\
                       cardinality=300\ncap=none\nseparate=age:sex,bmi:gir\nfailure_p=0.1\n\
                       strategy=overcollection\nnetwork=lossy:0.05\ncrash_p=0\nkmeans=4,3\n\
                       shards=1\nfault_plan=drop,from=3;delay,extra-ms=50,kind=4\n";
        assert_eq!(encode_world_spec(&q), variant.as_bytes());
        assert_eq!(decode_world_spec(variant.as_bytes()).unwrap(), q);
        // Version 1 text carries no plan; it does not decode as a world
        // without one.
        let v1 = defaults
            .replace("-v2", "-v1")
            .replace("fault_plan=none\n", "");
        assert!(decode_world_spec(v1.as_bytes()).is_err());
        // A socket peer gets the command line's validation, not a laxer one.
        for (good, bad) in [
            ("shards=1", "shards=0"),
            ("=overcollection", "=wat"),
            ("fault_plan=none", "fault_plan=reorder"),
        ] {
            let text = defaults.replace(good, bad);
            let err = decode_world_spec(text.as_bytes()).expect_err(bad);
            assert!(err.to_string().contains("world spec"), "{bad}: {err}");
        }
    }

    #[test]
    fn world_spec_rejects_malformed_input() {
        assert!(decode_world_spec(b"not-a-spec\nseed=1").is_err());
        let mut bytes = encode_world_spec(&QueryArgs::default());
        bytes.extend_from_slice(b"mystery=1\n");
        assert!(decode_world_spec(&bytes).is_err());
        let text = String::from_utf8(encode_world_spec(&QueryArgs::default())).unwrap();
        let missing: String =
            text.lines()
                .filter(|l| !l.starts_with("seed="))
                .fold(String::new(), |mut acc, l| {
                    acc.push_str(l);
                    acc.push('\n');
                    acc
                });
        assert!(decode_world_spec(missing.as_bytes()).is_err());
        let dup = format!("{text}seed=9\n");
        assert!(decode_world_spec(dup.as_bytes()).is_err());
    }

    #[test]
    fn fault_dsl_parses_rules() {
        let plan = parse_fault_plan("drop,from=3;dup,extra-ms=1,after-s=0.5;delay,extra-ms=2,to=7")
            .unwrap();
        assert_eq!(plan.rules.len(), 3);
        assert!(matches!(plan.rules[0].action, FaultAction::Drop));
        assert_eq!(plan.rules[0].matcher.from, Some(vec![DeviceId::new(3)]));
        match plan.rules[1].action {
            FaultAction::Duplicate { extra_delay } => assert_eq!(extra_delay.as_micros(), 1_000),
            ref other => panic!("expected Duplicate, got {other:?}"),
        }
        assert_eq!(
            plan.rules[1].matcher.after,
            Some(SimTime::from_micros(500_000))
        );
        match plan.rules[2].action {
            FaultAction::Delay(d) => assert_eq!(d.as_micros(), 2_000),
            ref other => panic!("expected Delay, got {other:?}"),
        }
        // Every DSL plan runs on every host.
        assert!(plan.is_window_safe());
    }

    #[test]
    fn fault_dsl_rejects_malformed_input() {
        assert!(parse_fault_plan("").is_err());
        assert!(parse_fault_plan("reorder").is_err());
        assert!(parse_fault_plan("drop,unknown=1").is_err());
        assert!(
            parse_fault_plan("delay,from=1").is_err(),
            "delay needs extra-ms"
        );
        assert!(parse_fault_plan("drop,from=x").is_err());
    }

    #[test]
    fn reject_verdicts_are_distinct() {
        assert_eq!(
            reject_verdict(&SubmitError::ShuttingDown),
            "rejected_draining"
        );
        assert_eq!(
            reject_verdict(&SubmitError::ReadOnly {
                reason: "wal gone".into()
            }),
            "rejected_readonly"
        );
        assert_eq!(
            reject_verdict(&SubmitError::AtCapacity { limit: 1 }),
            "rejected"
        );
        let text = error_artifact(&SubmitError::ShuttingDown);
        assert!(text.contains("\"verdict\":\"rejected_draining\""), "{text}");
    }

    #[test]
    fn draining_service_rejects_with_shutting_down() {
        // Satellite: the drain path must surface `rejected_draining`,
        // not `rejected_readonly`, through the real admission gate.
        let q = tiny_query();
        let (platform, spec, privacy, resilience) = crate::commands::build_world(&q).unwrap();
        let service = QueryService::new(
            platform,
            ServiceConfig {
                workers: 1,
                max_concurrent: 1,
                mailbox_capacity: 64,
            },
        );
        service.shutdown();
        let err = service
            .submit(&spec, &privacy, &resilience, None)
            .expect_err("draining service must refuse work");
        let artifact = error_artifact(&err);
        assert!(
            artifact.contains("\"verdict\":\"rejected_draining\""),
            "{artifact}"
        );
        assert!(!artifact.contains("rejected_readonly"), "{artifact}");
    }

    #[test]
    fn json_helpers_are_exact() {
        assert_eq!(hex(&[0x00, 0xff, 0x10]), "00ff10");
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn uds_end_to_end_tiny_world() {
        // One daemon + one worker + one socket submission, all in this
        // process: the full serve/worker/submit plumbing minus the
        // process boundary (the keystone covers that with real spawns).
        // With a plan, the worker faults its own slice and the artifact
        // is the in-process service's, byte for byte.
        for fault_plan in [None, Some("delay,extra-ms=50")] {
            let query = QueryArgs {
                fault_plan: fault_plan.map(String::from),
                ..tiny_query()
            };
            let artifact = submit_over_uds(&query);
            let (platform, spec, privacy, resilience) =
                crate::commands::build_world(&query).unwrap();
            let service = QueryService::new(
                platform,
                ServiceConfig {
                    workers: 1,
                    max_concurrent: 1,
                    mailbox_capacity: 64,
                },
            );
            let local = service.submit(&spec, &privacy, &resilience, None).unwrap();
            service.shutdown();
            assert_eq!(
                artifact,
                run_artifact(&local, "uds", 1, 0),
                "{fault_plan:?}"
            );
        }
    }

    /// Serves `query` from a daemon with one worker and answers one
    /// socket submission of it; returns the client's artifact.
    fn submit_over_uds(query: &QueryArgs) -> String {
        let sock =
            std::env::temp_dir().join(format!("edgelet-cli-e2e-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&sock);
        let listen = format!("uds:{}", sock.display());
        let serve_args = ServeArgs {
            query: query.clone(),
            workers: 1,
            queries: 1,
            max_concurrent: 1,
            listen: Some(listen.clone()),
            expected_workers: 1,
            ..ServeArgs::default()
        };
        let serve = std::thread::spawn(move || serve_listen(&serve_args));
        let addr = Addr::parse(&listen).unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let worker = {
            let (addr, stop) = (addr.clone(), stop.clone());
            std::thread::spawn(move || {
                run_worker(&WorkerConfig::new(addr), Arc::new(CliWorldBuilder), &stop)
            })
        };
        // Wait for the daemon to bind, then submit through the client path.
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while !sock.exists() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        let submit_args = ServeArgs {
            query: query.clone(),
            connect: Some(listen),
            ..ServeArgs::default()
        };
        let (artifact, status) = submit_connect(&submit_args).unwrap();
        assert_eq!(status, 0, "{artifact}");
        assert!(artifact.contains("\"verdict\":\"ok\""), "{artifact}");
        assert!(artifact.contains("\"transport\":\"uds\""), "{artifact}");
        assert!(artifact.contains("\"result_payload\":\""), "{artifact}");
        let (out, status) = serve.join().unwrap().unwrap();
        assert_eq!(status, 0, "{out}");
        stop.store(true, std::sync::atomic::Ordering::Release);
        worker.join().unwrap().unwrap();
        let _ = std::fs::remove_file(&sock);
        artifact
    }
}
