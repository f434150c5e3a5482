//! `--trace 1`: the per-layer metrics. The workload runs three ways —
//! plain (the totals the spans must add up to, and the process
//! counters), through the decorated or decomposed path (the spans), and
//! unpinned — and then each layer's kernel runs alone.

use crate::inputs::{Inputs, Kind, PREWRITTEN_EPOCHS, REFERENCE_SPECS, WARMUP_QUERIES};
use crate::layers::{self, Probe, TimedTransport};
use crate::metrics::Values;
use crate::{isolated, out_dir, pin, procfs, report_correctness, stats, trace, Run, Stretch};
use std::sync::Arc;
use std::time::Instant;

/// Cold starts of a traced run: enough for a span mean; the gated
/// `setup_s` comes from the untraced run's own cold starts.
const TRACED_COLD_STARTS: usize = 5;

/// `num / den`, or 0 where the workload never exercised the layer.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Runs the traced phases and assembles every per-layer metric.
pub fn traced_run(
    run: &mut Run,
    pinning: &pin::Pinning,
    awake: Option<&pin::KeepAwake>,
) -> Result<(bool, u64, u64, Values), String> {
    let kind = run.inputs.kind;
    let seconds = run.args.seconds;
    // 300 plain + 300 traced + 200 unpinned queries at --seconds 30.
    let count = (10 * seconds).max(REFERENCE_SPECS);
    let unpinned_count = (20 * seconds / 3).max(20);
    let probe = Probe::new(64 * (count + WARMUP_QUERIES + TRACED_COLD_STARTS));

    // ---- set-up, spanned ----
    let probed_host = run.traced_cold_starts(TRACED_COLD_STARTS, &probe)?;

    // ---- plain: the untraced totals and the process counters ----
    let (mut host, _) = run.cold_start(None)?;
    run.drive(&mut |spec| host.query(spec), 0, WARMUP_QUERIES);
    let sample = || procfs::ProcSample::now(awake.map_or(0.0, pin::KeepAwake::cpu_ms));
    let before = sample();
    let plain = run.drive(&mut |spec| host.query(spec), WARMUP_QUERIES, count);
    let proc = sample().since(&before);
    let mut health = host.health();
    drop(host);

    // ---- traced: decorated host (net) or decomposed path (the rest) ----
    let mut traced_host = probed_host;
    let mut stored = Stretch::default();
    let traced = match kind {
        Kind::SimPollingChurn => {
            drop(traced_host);
            let platform = edgelet_core::Platform::build(run.inputs.world.clone());
            run.drive(
                &mut |spec| layers::sim_query(&probe, &platform, &run.inputs, spec),
                WARMUP_QUERIES,
                count,
            )
        }
        Kind::LiveKmeans | Kind::DurableGrouping => {
            let platform = edgelet_core::Platform::build(run.inputs.world.clone());
            let transport = TimedTransport::new(&probe);
            let mut epoch = 0;
            let engine = run.drive(
                &mut |spec| {
                    epoch += 1;
                    layers::live_query(&probe, &platform, &transport, &run.inputs, spec, epoch)
                },
                WARMUP_QUERIES,
                count,
            );
            if kind == Kind::DurableGrouping {
                // The store's share: real submits through the service
                // whose backend is decorated.
                stored = run.drive(&mut |spec| traced_host.query(spec), WARMUP_QUERIES, count);
                health = traced_host.health();
            }
            drop(traced_host);
            engine
        }
        Kind::NetGrouping => {
            run.drive(&mut |spec| traced_host.query(spec), 0, WARMUP_QUERIES);
            let stretch = run.drive(&mut |spec| traced_host.query(spec), WARMUP_QUERIES, count);
            let traced_health = traced_host.health();
            health.fallbacks += traced_health.fallbacks;
            drop(traced_host);
            stretch
        }
    };

    // ---- unpinned: what the pin excludes ----
    if let Some(original) = &pinning.original {
        original.apply();
    }
    let (mut host, _) = run.cold_start(None)?;
    run.drive(&mut |spec| host.query(spec), 0, WARMUP_QUERIES);
    let unpinned = run.drive(&mut |spec| host.query(spec), WARMUP_QUERIES, unpinned_count);
    drop(host);
    if pinning.pinned {
        pin::CpuSet::single(pinning.cpu).apply();
    }

    // ---- the host-free floor and traffic for the wire kernels ----
    let home = Arc::new(Inputs::generate(Kind::NetGrouping, run.args.seed));
    let mut home_platform = edgelet_core::Platform::build(home.world.clone());
    let same_world = {
        let spec = home.canonical_spec();
        let start = Instant::now();
        for _ in 0..REFERENCE_SPECS {
            home_platform
                .run_query(&spec, &home.privacy, &home.resilience)
                .map_err(|e| e.to_string())?;
        }
        start.elapsed().as_secs_f64() * 1e3 / REFERENCE_SPECS as f64
    };
    let mut captured = probe.captured();
    if captured.is_empty() {
        // This workload has no in-process transport to capture from;
        // take one home-world query's traffic instead.
        let side = Probe::new(64);
        let transport = TimedTransport::new(&side);
        layers::live_query(
            &side,
            &home_platform,
            &transport,
            &home,
            &home.canonical_spec(),
            1,
        )?;
        captured = side.captured();
    }

    // ---- correctness ----
    let differing = run.mismatches(WARMUP_QUERIES, &plain.leading)?
        + run.mismatches(WARMUP_QUERIES, &traced.leading)?
        + run.mismatches(WARMUP_QUERIES, &stored.leading)?;
    let correct = report_correctness(differing, &health);

    // ---- spans out, metrics up ----
    let file = trace::TraceFile {
        workload: run.args.workload.name.to_string(),
        plain_query_mean_ms: plain.latency_ms.iter().sum::<f64>() / plain.attempted as f64,
        spans: probe.tracer.spans(),
    };
    let path = out_dir().join(format!("trace-{}.json", file.workload));
    std::fs::write(&path, trace::to_json(&file)).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("spans={} written to {}", file.spans.len(), path.display());
    print!("{}", trace::render_summary(&file));

    let mut values = Values::default();
    let t = trace::totals(&file.spans);
    let mean_ms = |name: &str| {
        t.get(name)
            .map_or(0.0, |n| n.total_ns as f64 / 1e6 / n.count as f64)
    };
    let self_ms = |name: &str| {
        t.get(name)
            .map_or(0.0, |n| n.self_ns as f64 / 1e6 / n.count as f64)
    };
    let c = &probe.clocks;
    let per = |counter: &layers::Counter, n: u64| ratio(counter.get() as f64, n as f64);
    let queries = c.queries.get();

    values.set("core.platform_build_ms", mean_ms("core.platform_build"));
    values.set("query.plan_ms", mean_ms("query.plan"));
    values.set("query.plan_operators", per(&c.plan_operators, queries));
    values.set("exec.assemble_ms", mean_ms("exec.assemble"));
    values.set("exec.finish_report_ms", mean_ms("exec.finish_report"));
    values.set("exec.actor_calls", per(&c.actor_calls, queries));
    values.set(
        "exec.actor_ms",
        probe.actor_ns() as f64 / 1e6 / queries.max(1) as f64,
    );
    for (role, name) in layers::ROLE_NAMES.iter().enumerate() {
        values.set(
            &format!("exec.actor_ms.{name}"),
            per(&c.actor_ns[role], queries) / 1e6,
        );
    }
    values.set(
        "ml.isolated_lloyd_ns_per_point",
        isolated::lloyd_ns_per_point(),
    );
    values.set(
        "ml.isolated_grouping_ns_per_row",
        isolated::grouping_ns_per_row(),
    );
    values.set("crypto.isolated_aead_mib_per_s", isolated::aead_mib_per_s());

    let execute_secs = t
        .get("sim.execute")
        .map_or(0.0, |n| n.total_ns as f64 / 1e9);
    values.set("sim.execute_ms", mean_ms("sim.execute"));
    values.set("sim.engine_self_ms", self_ms("sim.execute"));
    values.set("sim.events_per_query", per(&c.sim_events, queries));
    values.set(
        "sim.events_per_s",
        ratio(c.sim_events.get() as f64, execute_secs),
    );
    values.set("sim.same_world_query_ms", same_world);

    let plain_p50 = stats::median(&plain.latency_ms);
    let traced_p50 = stats::median(&traced.latency_ms);
    let store_ms = (per(&c.append_ns, stored.attempted)
        + per(&c.sync_ns, stored.attempted)
        + per(&c.checkpoint_ns, stored.attempted))
        / 1e6;
    values.set("live.world_build_ms", mean_ms("live.world_build"));
    values.set("live.run_until_ms", mean_ms("live.run_until"));
    values.set("live.engine_self_ms", self_ms("live.run_until"));
    values.set("live.transport_submit_calls", per(&c.submit_calls, queries));
    values.set("live.transport_submit_us", per(&c.submit_ns, queries) / 1e3);
    values.set("live.transport_drain_calls", per(&c.drain_calls, queries));
    values.set("live.transport_drain_us", per(&c.drain_ns, queries) / 1e3);
    values.set(
        "live.submit_self_ms",
        match kind {
            // What `submit` adds around the decomposed pieces:
            // admission, epoch bookkeeping, the watchdog.
            Kind::LiveKmeans | Kind::DurableGrouping => plain_p50 - traced_p50 - store_ms,
            Kind::NetGrouping => self_ms("live.submit"),
            Kind::SimPollingChurn => 0.0,
        },
    );
    values.set("live.teardown_ms", mean_ms("live.teardown"));
    values.set(
        "live.unpinned_query_p50_ms",
        stats::median(&unpinned.latency_ms),
    );

    let (encode, decode) = isolated::wire_mib_per_s(&captured);
    values.set("wire.msgs_per_query", per(&c.messages_sent, queries));
    values.set(
        "wire.envelope_bytes_per_query",
        per(&c.envelope_bytes, queries),
    );
    values.set("wire.isolated_encode_mib_per_s", encode);
    values.set("wire.isolated_decode_mib_per_s", decode);

    let submits = stored.attempted;
    let recovery_ms = mean_ms("live.with_durability");
    values.set(
        "store.append_calls_per_query",
        per(&c.append_calls, submits),
    );
    values.set("store.append_us", per(&c.append_ns, submits) / 1e3);
    values.set("store.sync_calls_per_query", per(&c.sync_calls, submits));
    values.set("store.sync_us", per(&c.sync_ns, submits) / 1e3);
    values.set("store.wal_bytes_per_query", per(&c.append_bytes, submits));
    values.set("store.checkpoints_per_query", per(&c.checkpoints, submits));
    values.set(
        "store.checkpoint_ms",
        per(&c.checkpoint_ns, c.checkpoints.get()) / 1e6,
    );
    values.set("store.segments_rotated", c.rotations.get() as f64);
    values.set("store.isolated_commit_us", isolated::commit_us());
    values.set("store.recovery_ms", recovery_ms);
    values.set(
        "store.recovery_records_per_s",
        ratio(2.0 * PREWRITTEN_EPOCHS as f64, recovery_ms / 1e3),
    );

    let on_net = |v: f64| if kind == Kind::NetGrouping { v } else { 0.0 };
    values.set("net.submit_rtt_ms", on_net(mean_ms("client.query")));
    values.set(
        "net.client_hop_ms",
        on_net(mean_ms("client.query") - mean_ms("live.submit")),
    );
    values.set("net.try_run_ms", mean_ms("net.try_run"));
    values.set(
        "net.world_build_ms.daemon",
        mean_ms("net.world_build.daemon"),
    );
    values.set(
        "net.world_build_ms.worker",
        mean_ms("net.world_build.worker"),
    );
    values.set(
        "net.window_self_ms",
        mean_ms("net.try_run")
            - mean_ms("net.world_build.daemon")
            - mean_ms("net.world_build.worker"),
    );
    values.set("net.fallbacks", health.fallbacks as f64);
    let plain_n = plain.attempted as f64;
    values.set(
        "net.read_syscalls_per_query",
        proc.read_syscalls as f64 / plain_n,
    );
    values.set(
        "net.write_syscalls_per_query",
        proc.write_syscalls as f64 / plain_n,
    );
    values.set(
        "net.socket_bytes_per_query",
        proc.write_bytes as f64 / plain_n,
    );
    values.set(
        "net.isolated_ping_rtt_us",
        isolated::ping_rtt_us(&run.temp.fresh("ping"))?,
    );
    values.set("net.isolated_frame_mib_per_s", isolated::frame_mib_per_s());

    values.set("proc.cpu_ms_per_query", proc.cpu_ms / plain_n);
    values.set("proc.peak_rss_mib", procfs::peak_rss_mib());
    values.set(
        "proc.vol_ctx_switches_per_query",
        proc.vol_ctx_switches as f64 / plain_n,
    );
    values.set(
        "client.query_p90_ms",
        stats::quantile(&plain.latency_ms, 0.9),
    );
    values.set(
        "client.query_p99_ms",
        stats::quantile(&plain.latency_ms, 0.99),
    );
    // On the durable workload the traced path that is comparable with a
    // plain submit is the real submit through the decorated backend.
    let comparable_p50 = match kind {
        Kind::DurableGrouping => stats::median(&stored.latency_ms),
        _ => traced_p50,
    };
    values.set(
        "trace.overhead_pct",
        100.0 * (comparable_p50 - plain_p50) / plain_p50,
    );
    values.set(
        "trace.unattributed_pct",
        trace::unattributed_pct(&file.spans, file.plain_query_mean_ms),
    );

    let attempted = plain.attempted + traced.attempted + stored.attempted;
    let failed = plain.failed + traced.failed + stored.failed + differing;
    Ok((correct, attempted, failed, values))
}
