//! Command execution for the `edgelet` tool.

use crate::args::{ChaosArgs, Command, QueryArgs, ServeArgs, USAGE};
use edgelet_core::prelude::*;
use edgelet_core::query::{estimate, QueryPlan};
use edgelet_core::store::{csv, synth};
use edgelet_core::util::rng::DetRng;
use edgelet_core::util::{Error, Result};
use std::fmt::Write as _;

/// Executes one parsed command, returning the output text.
pub fn execute(cmd: Command) -> Result<String> {
    execute_with_status(cmd).map(|(text, _)| text)
}

/// Executes one parsed command, returning the output text and the process
/// exit status the tool should use: nonzero when `analyze` found
/// `Error`-severity diagnostics, zero otherwise.
pub fn execute_with_status(cmd: Command) -> Result<(String, i32)> {
    let text = match cmd {
        Command::Analyze {
            query,
            json,
            concurrency,
            workspace_root,
        } => return analyze_command(&query, json, concurrency, &workspace_root),
        Command::Chaos(args) => return chaos_command(&args),
        // `--listen` switches to daemon mode: same service, plus a
        // socket front-end for remote workers and submissions.
        Command::Serve(args) if args.listen.is_some() => return crate::net::serve_listen(&args),
        Command::Serve(args) => return serve_command(&args),
        // `--connect` sends the query to a daemon instead of running
        // it in-process.
        Command::Submit(args) if args.connect.is_some() => {
            return crate::net::submit_connect(&args)
        }
        Command::Submit(args) => return submit_command(&args),
        Command::Worker(args) => return crate::net::worker_command(&args),
        Command::Help => USAGE.to_string(),
        Command::Dataset { rows, seed } => {
            let mut rng = DetRng::new(seed);
            let store = synth::health_store(rows, &mut rng);
            csv::to_csv(&store)
        }
        Command::Plan(q) => {
            let (platform, spec, privacy, resilience) = build_world(&q)?;
            let plan = platform.plan_query(&spec, &privacy, &resilience)?;
            let mut out = String::new();
            if q.dot {
                out.push_str(&platform.render_plan_dot(&plan));
            } else {
                out.push_str(&platform.render_plan(&plan));
                let cost = estimate(&plan);
                let _ = writeln!(
                    out,
                    "predicted cost: <= {} messages ({} contribution round trips)",
                    cost.total_messages_max(),
                    cost.contribute_requests
                );
                for w in &plan.warnings {
                    let _ = writeln!(out, "warning: {w}");
                }
            }
            out
        }
        Command::Run(q) => {
            let (mut platform, spec, privacy, resilience) = build_world(&q)?;
            let run = platform.run_query(&spec, &privacy, &resilience)?;
            render_run(&run.plan, &run.report)
        }
    };
    Ok((text, 0))
}

/// `edgelet analyze`: plans the configured query and runs every semantic
/// pass over the result, then the source layers (lint + concurrency +
/// suppression audit) over the workspace named by `--workspace-root`.
/// Planner failures surface as an `E000` diagnostic rather than a hard
/// error, so the output shape is uniform.
fn analyze_command(
    q: &QueryArgs,
    json: bool,
    concurrency: bool,
    workspace_root: &str,
) -> Result<(String, i32)> {
    use edgelet_analyze::{analyze, AnalyzeOptions, Diagnostic};

    let (platform, spec, privacy, resilience) = build_world(q)?;
    let mut diagnostics = match platform.plan_query(&spec, &privacy, &resilience) {
        Ok(plan) => analyze(&plan, &privacy, &resilience, &AnalyzeOptions::default()),
        Err(e) => vec![Diagnostic::error(
            edgelet_analyze::diagnostic::codes::PLANNING_FAILED,
            "planner",
            format!("no plan satisfies this configuration: {e}"),
        )
        .with_help("relax the cap, deadline, or resiliency target, or enroll more processors")],
    };
    // Simulator-configuration checks (W110): a zero minimum latency
    // empties the sharded engine's lookahead window.
    let min_latency_us = parse_network(&q.network)?
        .to_model()
        .min_latency()
        .as_micros();
    diagnostics.extend(edgelet_analyze::check_sim_config(min_latency_us, q.shards));
    // Source layers: only meaningful when the root actually holds a
    // workspace to scan (running from an arbitrary cwd skips them).
    let root = std::path::Path::new(workspace_root);
    if root.join("crates").is_dir() {
        diagnostics.extend(edgelet_analyze::analyze_sources_with(
            root,
            edgelet_analyze::SourcePassOptions { concurrency },
        ));
    }
    edgelet_analyze::sort_diagnostics(&mut diagnostics);
    let text = if json {
        edgelet_analyze::render_json(&diagnostics)
    } else {
        edgelet_analyze::render_human(&diagnostics)
    };
    let status = i32::from(edgelet_analyze::has_errors(&diagnostics));
    Ok((text, status))
}

/// `edgelet chaos`: replays a corpus directory, or sweeps seeds × fault
/// plans through the trace oracles and reports failing triples.
fn chaos_command(args: &ChaosArgs) -> Result<(String, i32)> {
    use edgelet_chaos::{
        catalog, load_dir, run_campaign, CampaignConfig, ChaosScenario, FaultPlan,
    };

    let scenarios: Vec<ChaosScenario> = match &args.scenario {
        None => ChaosScenario::ALL.to_vec(),
        Some(name) => vec![ChaosScenario::from_name(name)
            .ok_or_else(|| Error::InvalidConfig(format!("unknown chaos scenario `{name}`")))?],
    };
    let mut out = String::new();

    // Replay mode: re-run every shipped repro and diff the oracle verdict.
    if let Some(dir) = &args.replay {
        let entries = load_dir(std::path::Path::new(dir))?;
        if entries.is_empty() {
            return Err(Error::InvalidConfig(format!(
                "no *.chaos entries under `{dir}`"
            )));
        }
        let mut mismatches = 0usize;
        for (name, entry) in &entries {
            let report = entry.replay_with_shards(args.shards)?;
            if report.matches {
                let _ = writeln!(
                    out,
                    "OK       {name} (digest {:#018x})",
                    report.trace_digest
                );
            } else {
                mismatches += 1;
                let _ = writeln!(
                    out,
                    "MISMATCH {name}: expected [{}], got [{}]",
                    entry.expect.join(","),
                    report.oracles.join(",")
                );
            }
        }
        let _ = writeln!(
            out,
            "corpus replay: {} entries, {mismatches} mismatching",
            entries.len()
        );
        return Ok((out, i32::from(mismatches > 0)));
    }

    // Pre-flight: lint the seed-0 plan catalog. A rule that cannot fire
    // silently tests nothing, so an infeasible plan fails the sweep
    // before any seed is spent.
    let mut lint = Vec::new();
    for &scenario in &scenarios {
        let session = scenario.open(0, FaultPlan::new());
        let (devices, deadline) = (session.device_count(), session.deadline_secs());
        for named in catalog(scenario, 0)? {
            for mut d in edgelet_analyze::check_fault_plan(&named.plan, devices, deadline) {
                d.location = format!("{}::{}: {}", scenario.name(), named.name, d.location);
                lint.push(d);
            }
        }
    }
    if let Some(verdict) = lint_verdict(&lint, false, &mut out) {
        return Ok(verdict);
    }

    let report = run_campaign(&CampaignConfig {
        seeds: args.seeds,
        scenarios,
        shrink: !args.no_shrink,
        shards: args.shards,
    })?;
    out.push_str(&report.summary());

    if let Some(dir) = &args.emit_corpus {
        let dir = std::path::Path::new(dir);
        std::fs::create_dir_all(dir)
            .map_err(|e| Error::InvalidConfig(format!("cannot create {}: {e}", dir.display())))?;
        for f in &report.failures {
            let path = dir.join(format!(
                "{}-seed{}-{}.chaos",
                f.scenario, f.seed, f.plan_name
            ));
            std::fs::write(&path, f.to_corpus_entry().to_text()).map_err(|e| {
                Error::InvalidConfig(format!("cannot write {}: {e}", path.display()))
            })?;
        }
        let _ = writeln!(
            out,
            "wrote {} corpus entries to {}",
            report.failures.len(),
            dir.display()
        );
    }
    Ok((out, i32::from(!report.failures.is_empty())))
}

/// `edgelet serve`: self-driving live-runtime demo. Builds one world,
/// starts an admission-controlled [`edgelet_live::QueryService`] over
/// it, drives `--queries` concurrent submissions from as many threads,
/// then drains gracefully. Exits nonzero if any query misses.
fn serve_command(args: &ServeArgs) -> Result<(String, i32)> {
    use edgelet_live::SubmitError;

    let mut preamble = String::new();
    if let Some(verdict) = live_preflight(args, false, &mut preamble) {
        return Ok(verdict);
    }
    let (service, spec, privacy, resilience, recovery) = live_service(args)?;
    if let Some(line) = recovery.as_ref().and_then(recovery_line) {
        preamble.push_str(&line);
    }
    let wall = args.wall_deadline_ms.map(std::time::Duration::from_millis);
    let mut results: Vec<(
        usize,
        std::result::Result<edgelet_live::SubmitOutcome, SubmitError>,
    )> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..args.queries)
            .map(|i| {
                let (service, spec, privacy, resilience) = (&service, &spec, &privacy, &resilience);
                scope.spawn(move || loop {
                    match service.submit(spec, privacy, resilience, wall) {
                        // The gate is full: this demo re-queues
                        // instead of failing, so every query runs.
                        Err(SubmitError::AtCapacity { .. }) => std::thread::yield_now(),
                        other => return (i, other),
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    results.sort_by_key(|(i, _)| *i);

    let mut out = preamble;
    let mut failed = 0usize;
    for (i, result) in &results {
        match result {
            Ok(o) => {
                let ok = o.succeeded();
                failed += usize::from(!ok);
                let _ = writeln!(
                    out,
                    "query {i}: epoch={} {} completed={} valid={} t={}s",
                    o.epoch,
                    if ok { "ok" } else { "MISS" },
                    o.run.report.completed,
                    o.run.report.valid,
                    o.run
                        .report
                        .completion_secs
                        .map(|t| format!("{t:.2}"))
                        .unwrap_or_else(|| "-".into()),
                );
            }
            Err(e) => {
                failed += 1;
                let _ = writeln!(out, "query {i}: FAILED {e}");
            }
        }
    }
    let rejected = service.transport().rejected_unknown_epoch();
    service.shutdown();
    let _ = writeln!(
        out,
        "serve: {} queries over {} workers (max {} concurrent), {failed} failed, \
         {rejected} cross-epoch envelopes rejected; shut down cleanly",
        args.queries, args.workers, args.max_concurrent
    );
    Ok((out, i32::from(failed > 0)))
}

/// `edgelet submit`: one query through the live runtime, with a
/// human or JSON verdict. Exits nonzero when the query misses its
/// deadline, is cut off by `--wall-deadline-ms`, or is refused
/// admission.
fn submit_command(args: &ServeArgs) -> Result<(String, i32)> {
    use edgelet_live::SubmitError;

    let mut preamble = String::new();
    if let Some(verdict) = live_preflight(args, args.json, &mut preamble) {
        return Ok(verdict);
    }
    let (service, spec, privacy, resilience, recovery) = live_service(args)?;
    if !args.json {
        if let Some(line) = recovery.as_ref().and_then(recovery_line) {
            preamble.push_str(&line);
        }
    }
    let wall = args.wall_deadline_ms.map(std::time::Duration::from_millis);
    let outcome = service.submit(&spec, &privacy, &resilience, wall);
    let (out, status) = match &outcome {
        Ok(o) => {
            let text = if args.json {
                // Durable runs carry their recovery provenance and a
                // state CRC so restart drills can diff verdicts.
                let mut text = crate::net::verdict_fields(o, args.workers);
                if args.durable {
                    let crc = edgelet_live::state_crc(&o.run);
                    let _ = write!(text, ",\"recovered\":{},\"state_crc\":{crc}", o.recovered);
                }
                text.push_str("}\n");
                text
            } else {
                let mut text = render_run(&o.run.plan, &o.run.report);
                let _ = writeln!(
                    text,
                    "live: epoch {} over {} workers, verdict {}{}",
                    o.epoch,
                    args.workers,
                    if o.succeeded() { "ok" } else { "miss" },
                    if o.recovered {
                        " (recovered intent, original epoch)"
                    } else {
                        ""
                    },
                );
                text
            };
            (text, i32::from(!o.succeeded()))
        }
        Err(SubmitError::Failed(e)) => {
            return Err(Error::InvalidConfig(format!("live query failed: {e}")))
        }
        Err(e) => (refusal_text(e, args.json), 1),
    };
    service.shutdown();
    Ok((format!("{preamble}{out}"), status))
}

/// What `submit` prints for a refused admission. The JSON is the
/// daemon's own artifact ([`crate::net::error_artifact`]), so one
/// refusal reads the same whichever way it was submitted. Draining is
/// distinct from read-only so that a client knows to retry elsewhere
/// rather than give up on this daemon's durable state, and read-only
/// from a capacity rejection so that operators (and the restart-smoke
/// CI job) can tell failed media from a full gate; see docs/RUNTIME.md.
fn refusal_text(e: &edgelet_live::SubmitError, json: bool) -> String {
    use edgelet_live::SubmitError;
    match e {
        _ if json => crate::net::error_artifact(e),
        SubmitError::ShuttingDown => "rejected (draining): service shutting down\n".to_string(),
        SubmitError::ReadOnly { reason } => format!("rejected (read-only): {reason}\n"),
        other => format!("rejected: {other}\n"),
    }
}

/// `E120`/`W121` plus `E140`/`W141`/`W142` preflight shared by `serve`
/// and `submit`: lints the live-runtime and durable-storage knobs
/// before any thread spawns. Error-severity diagnostics terminate with
/// a nonzero status; warnings render into `preamble` and the run
/// proceeds.
pub(crate) fn live_preflight(
    args: &ServeArgs,
    json: bool,
    preamble: &mut String,
) -> Option<(String, i32)> {
    let mut lint =
        edgelet_analyze::check_live_config(args.workers, args.wall_deadline_ms, args.mailbox_cap);
    let crash_risk = args.query.crash_p > 0.0 || args.crash_at.is_some();
    lint.extend(edgelet_analyze::check_storage_config(
        args.durable,
        args.wal_dir.as_deref().map(std::path::Path::new),
        args.checkpoint_every,
        crash_risk,
        args.commit_window_ms,
        args.wall_deadline_ms,
        args.segment_bytes,
    ));
    lint_verdict(&lint, json, preamble)
}

/// What a preflight's findings mean for the command: errors are its
/// whole output and a nonzero status; warnings render into `preamble`
/// and the command goes on.
pub(crate) fn lint_verdict(
    lint: &[edgelet_analyze::Diagnostic],
    json: bool,
    preamble: &mut String,
) -> Option<(String, i32)> {
    if lint.is_empty() {
        return None;
    }
    let text = if json {
        edgelet_analyze::render_json(lint)
    } else {
        edgelet_analyze::render_human(lint)
    };
    if edgelet_analyze::has_errors(lint) {
        return Some((text, 1));
    }
    preamble.push_str(&text);
    None
}

/// Builds the live service `serve`/`submit` share: the same world
/// construction as `run`, handed to a [`edgelet_live::QueryService`] —
/// volatile by default, WAL-anchored with `--durable` (in which case
/// the recovery report of the startup replay is returned too).
pub(crate) fn live_service(
    args: &ServeArgs,
) -> Result<(
    edgelet_live::QueryService,
    QuerySpec,
    PrivacyConfig,
    ResilienceConfig,
    Option<edgelet_live::RecoveryReport>,
)> {
    let (platform, spec, privacy, resilience) = build_world(&args.query)?;
    let config = edgelet_live::ServiceConfig {
        workers: args.workers,
        max_concurrent: args.max_concurrent,
        mailbox_capacity: args.mailbox_cap,
    };
    if !args.durable {
        if args.crash_at.is_some() {
            return Err(Error::InvalidConfig(
                "--crash-at requires --durable: a volatile service cannot \
                 recover what the scripted crash destroys"
                    .into(),
            ));
        }
        let service = edgelet_live::QueryService::new(platform, config);
        return Ok((service, spec, privacy, resilience, None));
    }
    let dir = args.wal_dir.as_ref().ok_or_else(|| {
        Error::InvalidConfig("--durable requires --wal-dir <dir> (see docs/STORAGE.md)".into())
    })?;
    let backend = edgelet_core::store::FileBackend::open(dir)
        .map_err(|e| Error::InvalidConfig(format!("cannot open WAL directory: {}", e.message())))?;
    let crash_at = match &args.crash_at {
        None => None,
        Some(name) => Some(
            edgelet_live::CrashPoint::parse(name)
                .ok_or_else(|| Error::InvalidConfig(format!("unknown crash point `{name}`")))?,
        ),
    };
    // The scripted crash is a *process* death, not a Rust panic: abort
    // so restart drills observe the same thing a power cut produces.
    let crash_handler: Option<edgelet_live::CrashHandler> = crash_at
        .map(|_| std::sync::Arc::new(|_point| std::process::abort()) as edgelet_live::CrashHandler);
    let (service, report) = edgelet_live::QueryService::with_durability(
        platform,
        config,
        std::sync::Arc::new(backend),
        edgelet_live::DurabilityConfig {
            checkpoint_every: args.checkpoint_every,
            commit_window: std::time::Duration::from_millis(args.commit_window_ms),
            segment_bytes: args.segment_bytes,
            crash_at,
            crash_handler,
        },
    );
    Ok((service, spec, privacy, resilience, Some(report)))
}

/// Renders a one-line summary of what startup recovery found, for the
/// human-facing preamble of a durable `serve`/`submit`.
fn recovery_line(report: &edgelet_live::RecoveryReport) -> Option<String> {
    if report.drained.is_some() || !report.recovered_anything() {
        return None;
    }
    Some(format!(
        "durable: recovered checkpoint={} wal_records={} repaired_tail={} pending_intents={}\n",
        report.checkpoint_loaded,
        report.records_replayed,
        report.repaired_tail.is_some(),
        report.pending.len(),
    ))
}

pub(crate) fn build_world(
    q: &QueryArgs,
) -> Result<(Platform, QuerySpec, PrivacyConfig, ResilienceConfig)> {
    let network = parse_network(&q.network)?;
    let mut platform = Platform::build(PlatformConfig {
        seed: q.seed,
        contributors: q.contributors,
        processors: q.processors,
        network,
        processor_crash_probability: q.crash_p,
        crash_at_start: q.crash_p > 0.0,
        shards: q.shards,
        fault_plan: q
            .fault_plan
            .as_deref()
            .map(crate::net::parse_fault_plan)
            .transpose()?,
        ..PlatformConfig::default()
    });

    let spec = match q.kmeans {
        None => platform.grouping_query(
            Predicate::cmp("age", CmpOp::Gt, Value::Int(65)),
            q.cardinality,
            &[&["sex"], &["gir"], &[]],
            vec![
                AggSpec::count_star(),
                AggSpec::over(AggKind::Avg, "bmi"),
                AggSpec::over(AggKind::Avg, "systolic_bp"),
            ],
        ),
        Some((k, heartbeats)) => platform.kmeans_query(
            Predicate::cmp("age", CmpOp::Gt, Value::Int(65)),
            q.cardinality,
            k,
            &["age", "bmi", "systolic_bp"],
            heartbeats,
            vec![AggSpec::count_star(), AggSpec::over(AggKind::Avg, "gir")],
        ),
    };

    let mut privacy = PrivacyConfig::none();
    if let Some(cap) = q.cap {
        privacy = privacy.with_max_tuples(cap);
    }
    for (a, b) in &q.separate {
        privacy = privacy.separate(a, b);
    }

    let strategy = match q.strategy.as_str() {
        "overcollection" => Strategy::Overcollection,
        "backup" => Strategy::Backup,
        "naive" => Strategy::Naive,
        other => return Err(Error::InvalidConfig(format!("unknown strategy `{other}`"))),
    };
    let resilience = ResilienceConfig {
        strategy,
        failure_probability: q.failure_p,
        ..ResilienceConfig::default()
    };
    Ok((platform, spec, privacy, resilience))
}

fn parse_network(raw: &str) -> Result<NetworkProfile> {
    match raw {
        "reliable" => Ok(NetworkProfile::Reliable),
        "internet" => Ok(NetworkProfile::Internet),
        _ => {
            if let Some(p) = raw.strip_prefix("lossy:") {
                let p: f64 = p.parse().map_err(|_| {
                    Error::InvalidConfig(format!("bad loss probability in `{raw}`"))
                })?;
                return Ok(NetworkProfile::Lossy {
                    drop_probability: p,
                });
            }
            if let Some(rest) = raw.strip_prefix("oppnet:") {
                let (median, p) = rest.split_once(',').ok_or_else(|| {
                    Error::InvalidConfig(format!(
                        "oppnet expects `oppnet:<median_s>,<p>`, got `{raw}`"
                    ))
                })?;
                return Ok(NetworkProfile::Opportunistic {
                    median_delay_secs: median
                        .parse()
                        .map_err(|_| Error::InvalidConfig(format!("bad median in `{raw}`")))?,
                    drop_probability: p
                        .parse()
                        .map_err(|_| Error::InvalidConfig(format!("bad loss in `{raw}`")))?,
                });
            }
            Err(Error::InvalidConfig(format!("unknown network `{raw}`")))
        }
    }
}

fn render_run(plan: &QueryPlan, r: &edgelet_core::exec::ExecutionReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "plan: n={} m={} backup_degree={} | {} operators | strategy {}",
        plan.n,
        plan.m,
        plan.backup_degree,
        plan.operators.len(),
        plan.strategy.name()
    );
    for w in &plan.warnings {
        let _ = writeln!(out, "warning: {w}");
    }
    let _ = writeln!(
        out,
        "completed={} valid={} t={}s | partitions {}/{} complete | replica {} won",
        r.completed,
        r.valid,
        r.completion_secs
            .map(|t| format!("{t:.2}"))
            .unwrap_or_else(|| "-".into()),
        r.partitions_complete,
        r.partitions_merged,
        r.winning_replica,
    );
    let _ = writeln!(
        out,
        "network: {} msgs, {} bytes, {} dropped, {} deferred | {} crashes, {} disconnections",
        r.messages_sent,
        r.bytes_sent,
        r.messages_dropped,
        r.messages_deferred,
        r.crashes,
        r.disconnections,
    );
    let _ = writeln!(
        out,
        "liability: max {} raw tuples/device, processor gini {:.3}",
        r.ledger.max_raw_tuples(),
        r.ledger.processor_gini(),
    );
    match &r.outcome {
        Some(QueryOutcome::Grouping(table)) => {
            let _ = writeln!(out, "\n{table}");
        }
        Some(QueryOutcome::KMeans {
            centroids,
            per_cluster,
        }) => {
            let _ = writeln!(out, "\ncentroids (age, bmi, systolic_bp):");
            for (i, (c, w)) in centroids
                .centroids
                .rows()
                .zip(&centroids.weights)
                .enumerate()
            {
                let coords: Vec<String> = c.iter().map(|x| format!("{x:.1}")).collect();
                let _ = writeln!(out, "  cluster {i}: [{}] weight {w:.0}", coords.join(", "));
            }
            if let Some(t) = per_cluster {
                let _ = writeln!(out, "\n{t}");
            }
        }
        None => {
            let _ = writeln!(out, "\n(no result before the deadline)");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(|x| x.to_string()).collect()
    }

    fn run_cli_text(s: &str) -> String {
        execute(parse(&argv(s)).unwrap()).unwrap()
    }

    #[test]
    fn help_renders() {
        assert!(run_cli_text("help").contains("USAGE"));
    }

    #[test]
    fn dataset_emits_csv() {
        let text = run_cli_text("dataset --rows 5 --seed 3");
        let mut lines = text.lines();
        assert_eq!(
            lines.next().unwrap(),
            "age,sex,bmi,systolic_bp,gir,region,diabetic"
        );
        assert_eq!(lines.count(), 5);
        // Deterministic.
        assert_eq!(text, run_cli_text("dataset --rows 5 --seed 3"));
    }

    #[test]
    fn plan_renders_qep_and_cost() {
        let text =
            run_cli_text("plan --contributors 800 --processors 120 --cardinality 200 --cap 50");
        assert!(text.contains("QEP"), "{text}");
        assert!(text.contains("predicted cost"), "{text}");
        let dot = run_cli_text(
            "plan --contributors 800 --processors 120 --cardinality 200 --cap 50 --dot",
        );
        assert!(dot.starts_with("digraph"), "{dot}");
    }

    #[test]
    fn run_executes_grouping_query() {
        let text = run_cli_text(
            "run --contributors 1500 --processors 120 --cardinality 200 --cap 50 \
             --network reliable",
        );
        assert!(text.contains("completed=true"), "{text}");
        assert!(text.contains("valid=true"), "{text}");
        assert!(text.contains("COUNT(*)=200"), "{text}");
    }

    #[test]
    fn run_output_is_shard_invariant() {
        let seq = run_cli_text(
            "run --contributors 600 --processors 80 --cardinality 120 --cap 40 \
             --network lossy:0.05 --shards 1",
        );
        let par = run_cli_text(
            "run --contributors 600 --processors 80 --cardinality 120 --cap 40 \
             --network lossy:0.05 --shards 4",
        );
        assert_eq!(seq, par);
    }

    #[test]
    fn run_executes_kmeans_query() {
        let text = run_cli_text(
            "run --contributors 1500 --processors 80 --cardinality 150 --cap 50 \
             --network reliable --kmeans 3,3",
        );
        assert!(text.contains("centroids"), "{text}");
        assert!(text.contains("cluster 0"), "{text}");
    }

    fn run_cli_status(s: &str) -> (String, i32) {
        execute_with_status(parse(&argv(s)).unwrap()).unwrap()
    }

    #[test]
    fn analyze_clean_configuration_exits_zero() {
        let (text, status) = run_cli_status(
            "analyze --contributors 1500 --processors 120 --cardinality 200 --cap 50",
        );
        assert_eq!(status, 0, "{text}");
        assert!(text.contains("analysis: 0 errors"), "{text}");
    }

    #[test]
    fn analyze_warns_on_naive_under_faults() {
        let (text, status) = run_cli_status(
            "analyze --contributors 1500 --processors 120 --cardinality 200 --cap 50 \
             --strategy naive --failure-p 0.2",
        );
        assert_eq!(status, 0, "{text}");
        assert!(text.contains("warning[W021]"), "{text}");
    }

    #[test]
    fn analyze_unplannable_configuration_exits_nonzero() {
        // A cap of 1 needs one partition per tuple: far more processors
        // than the crowd has, so planning fails and E000 is reported.
        let (text, status) =
            run_cli_status("analyze --contributors 1500 --processors 20 --cardinality 200 --cap 1");
        assert_eq!(status, 1, "{text}");
        assert!(text.contains("E000"), "{text}");
        let (json, status) = run_cli_status(
            "analyze --contributors 1500 --processors 20 --cardinality 200 --cap 1 \
             --format json",
        );
        assert_eq!(status, 1, "{json}");
        assert!(json.contains("\"code\":\"E000\""), "{json}");
        assert!(json.trim_start().starts_with('['), "{json}");
    }

    #[test]
    fn submit_runs_live_and_matches_run() {
        let world = "--contributors 1500 --processors 120 --cardinality 200 --cap 50 \
                     --network reliable";
        let (text, status) = run_cli_status(&format!("submit {world} --workers 2"));
        assert_eq!(status, 0, "{text}");
        assert!(text.contains("completed=true"), "{text}");
        assert!(text.contains("verdict ok"), "{text}");
        // The live verdict describes the exact run the simulator produces.
        let sim = run_cli_text(&format!("run {world}"));
        let sim_result = sim.lines().skip(1).collect::<Vec<_>>().join("\n");
        assert!(
            text.contains(&sim_result),
            "live output must embed the simulator-identical report\n\
             live:\n{text}\nsim:\n{sim}"
        );
    }

    #[test]
    fn submit_emits_json_verdict() {
        let (text, status) = run_cli_status(
            "submit --contributors 1500 --processors 120 --cardinality 200 --cap 50 \
             --network reliable --workers 2 --format json",
        );
        assert_eq!(status, 0, "{text}");
        assert!(text.trim_start().starts_with('{'), "{text}");
        assert!(text.contains("\"verdict\":\"ok\""), "{text}");
        assert!(text.contains("\"completed\":true"), "{text}");
    }

    #[test]
    fn submit_runs_the_fault_plan_it_is_given() {
        // The tiny world completes in 0.05 s of virtual time; holding
        // every message back 50 ms moves that, and `run` agrees.
        let world = "--contributors 40 --processors 24 --cardinality 20 --cap 10 \
                     --failure-p 0 --network reliable";
        let submit = |plan: &str| {
            let (text, status) =
                run_cli_status(&format!("submit {world} --workers 1 --format json {plan}"));
            assert_eq!(status, 0, "{text}");
            let tail = &text[text.find("\"completion_secs\":").expect("timed") + 18..];
            tail[..tail.find(',').expect("delimiter")]
                .parse::<f64>()
                .unwrap()
        };
        let (plain, delayed) = (submit(""), submit("--fault-plan delay,extra-ms=50"));
        assert!(delayed > plain, "{delayed} vs {plain}");
        let sim = run_cli_text(&format!("run {world} --fault-plan delay,extra-ms=50"));
        assert!(sim.contains(&format!("t={delayed:.2}s")), "{sim}");
    }

    #[test]
    fn serve_drives_concurrent_queries() {
        let (text, status) = run_cli_status(
            "serve --contributors 1500 --processors 120 --cardinality 200 --cap 50 \
             --network reliable --workers 2 --queries 3 --max-concurrent 2",
        );
        assert_eq!(status, 0, "{text}");
        assert!(text.contains("query 0: epoch="), "{text}");
        assert!(text.contains("3 queries"), "{text}");
        assert!(text.contains("0 failed"), "{text}");
        assert!(text.contains("0 cross-epoch envelopes rejected"), "{text}");
        assert!(text.contains("shut down cleanly"), "{text}");
    }

    #[test]
    fn live_preflight_reports_e120_and_w121() {
        // workers=0 and a sub-floor wall deadline are E120: no run starts.
        let (text, status) = run_cli_status("submit --workers 0");
        assert_eq!(status, 1, "{text}");
        assert!(text.contains("error[E120]"), "{text}");
        let (text, status) = run_cli_status("serve --wall-deadline-ms 0");
        assert_eq!(status, 1, "{text}");
        assert!(text.contains("error[E120]"), "{text}");
        let (json, status) = run_cli_status("submit --workers 0 --format json");
        assert_eq!(status, 1, "{json}");
        assert!(json.contains("\"code\":\"E120\""), "{json}");
        // An unbounded mailbox is W121: warn, then run anyway.
        let (text, status) = run_cli_status(
            "serve --contributors 1500 --processors 120 --cardinality 200 --cap 50 \
             --network reliable --workers 2 --queries 1 --mailbox-cap 1048576",
        );
        assert_eq!(status, 0, "{text}");
        assert!(text.contains("warning[W121]"), "{text}");
        assert!(text.contains("0 failed"), "{text}");
    }

    fn temp_wal(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("edgelet-cli-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn durable_submit_persists_and_restarts_byte_identically() {
        let dir = temp_wal("roundtrip");
        let world = format!(
            "submit --contributors 1500 --processors 120 --cardinality 200 --cap 50 \
             --network reliable --workers 2 --format json --durable --checkpoint-every 2 \
             --wal-dir {}",
            dir.display()
        );
        let (first, status) = run_cli_status(&world);
        assert_eq!(status, 0, "{first}");
        assert!(first.contains("\"verdict\":\"ok\""), "{first}");
        assert!(first.contains("\"recovered\":false"), "{first}");
        assert!(first.contains("\"state_crc\":"), "{first}");
        assert!(
            dir.join("wal.0000.log").is_file(),
            "the first WAL segment must be on disk"
        );
        // A second process over the same media replays the WAL and runs
        // a fresh epoch; the world is seed-deterministic, so the state
        // CRC (payload + ledger + trace digest) must be identical.
        let (second, status) = run_cli_status(&world);
        assert_eq!(status, 0, "{second}");
        let crc = |s: &str| {
            let tail = &s[s.find("\"state_crc\":").expect("crc field") + 12..];
            tail[..tail.find([',', '}']).expect("delimiter")].to_string()
        };
        assert_eq!(crc(&first), crc(&second), "{first}\n{second}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_flags_are_validated() {
        // --durable without --wal-dir is the E140 preflight.
        let (text, status) = run_cli_status("submit --workers 2 --durable");
        assert_eq!(status, 1, "{text}");
        assert!(text.contains("error[E140]"), "{text}");
        // --crash-at without --durable warns (W142), then hard-errors.
        let cmd = parse(&argv("submit --workers 2 --crash-at mid-query")).unwrap();
        let err = execute(cmd).expect_err("crash-at needs durability");
        assert!(err.to_string().contains("--durable"), "{err}");
        // A zero checkpoint interval warns but runs.
        let dir = temp_wal("nockpt");
        let (text, status) = run_cli_status(&format!(
            "submit --contributors 1500 --processors 120 --cardinality 200 --cap 50 \
             --network reliable --workers 2 --durable --checkpoint-every 0 --wal-dir {}",
            dir.display()
        ));
        assert_eq!(status, 0, "{text}");
        assert!(text.contains("warning[W141]"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_wal_drains_submit_to_the_readonly_verdict() {
        use edgelet_core::store::{DurableBackend, FaultyBackend, FileBackend};
        use edgelet_core::store::{DurableLog, RetryPolicy, StorageFaultAction, StorageFaultPlan};
        use std::sync::Arc;

        let dir = temp_wal("corrupt");
        {
            // Silently truncate the first record while a second lands
            // intact: unrepairable mid-log damage on disk.
            let file = FileBackend::open(&dir).expect("open WAL dir");
            let faulty: Arc<dyn DurableBackend> = Arc::new(FaultyBackend::new(
                file,
                StorageFaultPlan::new().with(1, StorageFaultAction::TruncatedRecord { keep: 4 }),
            ));
            let log = DurableLog::new(faulty, RetryPolicy::immediate(2));
            log.append(b"cut-short").expect("silent fault");
            log.append(b"acknowledged-after").expect("lands intact");
        }
        let (text, status) = run_cli_status(&format!(
            "submit --contributors 1500 --processors 120 --cardinality 200 --cap 50 \
             --network reliable --workers 2 --format json --durable --wal-dir {}",
            dir.display()
        ));
        assert_eq!(status, 1, "{text}");
        assert!(text.contains("\"verdict\":\"rejected_readonly\""), "{text}");
        assert!(text.contains("refusing to replay"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_refusal_is_the_daemons_artifact_and_valid_json() {
        use edgelet_live::SubmitError;
        // A storage error's text is not ours to choose: it must arrive
        // escaped, on the one line an artifact is.
        let e = SubmitError::ReadOnly {
            reason: "a\"b\\c\nd".into(),
        };
        let json = refusal_text(&e, true);
        assert_eq!(json, crate::net::error_artifact(&e));
        assert!(
            json.starts_with("{\"verdict\":\"rejected_readonly\",\"reason\":\""),
            "{json}"
        );
        assert!(json.contains("a\\\"b\\\\c\\nd"), "{json}");
        assert_eq!(json.find('\n'), Some(json.len() - 1), "{json}");
        // In-process and over a socket, a drain reads the same.
        let draining = refusal_text(&SubmitError::ShuttingDown, true);
        assert_eq!(
            draining,
            "{\"verdict\":\"rejected_draining\",\
             \"reason\":\"admission rejected: service shutting down\"}\n"
        );
        // The human wording is what it was.
        assert_eq!(
            refusal_text(&e, false),
            "rejected (read-only): a\"b\\c\nd\n"
        );
        assert_eq!(
            refusal_text(&SubmitError::ShuttingDown, false),
            "rejected (draining): service shutting down\n"
        );
        assert_eq!(
            refusal_text(&SubmitError::AtCapacity { limit: 2 }, false),
            "rejected: admission rejected: 2 queries already in flight\n"
        );
    }

    #[test]
    fn bad_network_is_rejected() {
        let err = execute(parse(&argv("run --network warp")).unwrap());
        assert!(err.is_err());
        assert!(parse_network("lossy:abc").is_err());
        assert!(parse_network("oppnet:60").is_err());
        assert!(parse_network("oppnet:60,0.1").is_ok());
    }
}
