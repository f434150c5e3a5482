//! The repo's end-to-end query benchmark: four seeded workloads, one
//! pinned CPU that never halts, a closed loop with one client, a timed
//! window of short rounds of which the best counts.
//! `benchmark/README.md` has the metric glossary and the method.

mod hosts;
mod inputs;
mod isolated;
mod layers;
mod metrics;
mod pin;
mod procfs;
mod stats;
mod trace;
mod traced;

use hosts::{Host, Verdict};
use inputs::{
    Inputs, Kind, Workload, MIN_ROUNDS, REFERENCE_SPECS, ROUNDS_PER_COLD_START, WARMUP_QUERIES,
    WORKLOADS,
};
use layers::Probe;
use metrics::Values;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: usize,
    trace: bool,
}

enum Command {
    Run(Args),
    Summarise(PathBuf),
}

fn parse_args() -> Result<Command, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 30usize, false);
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--summarise" => return Ok(Command::Summarise(value()?.into())),
            "--workload" => {
                let name = value()?;
                let found = WORKLOADS.iter().find(|w| w.name == name);
                workload = Some(found.ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be between 1 and 600".into());
    }
    Ok(Command::Run(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    }))
}

/// `benchmark/out`, addressed relative to the working directory when it
/// lies below it: Unix socket paths are capped near 100 bytes.
fn out_dir() -> PathBuf {
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::env::current_dir()
        .ok()
        .and_then(|cwd| out.strip_prefix(cwd).ok().map(Path::to_path_buf))
        .unwrap_or(out)
}

/// The per-run temp dir for WAL directories and socket paths; removed
/// on drop, so also when a panic unwinds out of `main`.
struct TempRoot {
    dir: PathBuf,
    next: u64,
}

impl TempRoot {
    fn create() -> Result<TempRoot, String> {
        let dir = out_dir().join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(TempRoot { dir, next: 0 })
    }

    fn fresh(&mut self, stem: &str) -> PathBuf {
        self.next += 1;
        self.dir.join(format!("{stem}{}", self.next))
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|command| match command {
        Command::Summarise(path) => summarise(&path).map(|()| true),
        Command::Run(args) => run(&args),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn summarise(path: &Path) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let trace = trace::from_json(&text)?;
    println!("workload={}", trace.workload);
    print!("{}", trace::render_summary(&trace));
    Ok(())
}

/// One run's shared state.
struct Run<'a> {
    args: &'a Args,
    inputs: Arc<Inputs>,
    temp: TempRoot,
    /// The WAL every `durable_grouping` cold start recovers a copy of.
    wal_template: PathBuf,
}

/// What the closed-loop client saw over a stretch of the stream.
#[derive(Default)]
struct Stretch {
    attempted: u64,
    failed: u64,
    bytes_sent: u64,
    /// Client-observed latency of every query, ms.
    latency_ms: Vec<f64>,
    wall_secs: f64,
    /// The leading verdicts, for the reference check.
    leading: Vec<Verdict>,
}

impl Stretch {
    fn absorb(&mut self, other: Stretch) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.bytes_sent += other.bytes_sent;
        self.latency_ms.extend(other.latency_ms);
        self.wall_secs += other.wall_secs;
        let room = REFERENCE_SPECS.saturating_sub(self.leading.len());
        self.leading.extend(other.leading.into_iter().take(room));
    }
}

impl Run<'_> {
    /// Cold-starts the workload's host and returns it with the time the
    /// start took. Preparation (the WAL copy) is outside the timing.
    fn cold_start(&mut self, probe: Option<&Arc<Probe>>) -> Result<(Box<dyn Host>, f64), String> {
        let wal = self.temp.fresh("wal");
        if self.inputs.kind == Kind::DurableGrouping {
            hosts::copy_wal(&self.wal_template, &wal)?;
        }
        let socket = self.temp.fresh("s");
        let _root = probe.map(|p| p.tracer.query(trace::SETUP_ROOT));
        let start = Instant::now();
        let host = hosts::cold_start(&self.inputs, probe, &wal, socket)?;
        Ok((host, start.elapsed().as_secs_f64()))
    }

    /// Cold-starts `count` hosts under `probe`, each torn down before
    /// the next, and returns the last one.
    fn traced_cold_starts(
        &mut self,
        count: usize,
        probe: &Arc<Probe>,
    ) -> Result<Box<dyn Host>, String> {
        let mut host = None;
        for _ in 0..count {
            drop(host.take());
            host = Some(self.cold_start(Some(probe))?.0);
        }
        Ok(host.expect("count > 0"))
    }

    /// The closed loop: specs `[from, from + count)` of the stream, one
    /// at a time, each timed from the submit call to the verdict.
    fn drive(
        &self,
        query: &mut dyn FnMut(&edgelet_core::query::QuerySpec) -> Result<Verdict, String>,
        from: usize,
        count: usize,
    ) -> Stretch {
        let mut s = Stretch::default();
        let start = Instant::now();
        for i in from..from + count {
            let spec = self.inputs.spec(i);
            let submitted = Instant::now();
            let verdict = query(&spec);
            s.latency_ms.push(submitted.elapsed().as_secs_f64() * 1e3);
            s.attempted += 1;
            match verdict {
                Ok(v) => {
                    s.failed += u64::from(!v.ok);
                    s.bytes_sent += v.bytes_sent;
                    if s.leading.len() < REFERENCE_SPECS {
                        s.leading.push(v);
                    }
                }
                Err(e) => {
                    if s.failed == 0 {
                        println!("first failed submit (spec {i}): {e}");
                    }
                    s.failed += 1;
                }
            }
        }
        s.wall_secs = start.elapsed().as_secs_f64();
        s
    }

    /// The correctness reference: the stretch's leading specs again,
    /// through `Platform::run_query` on a fresh platform; payload,
    /// ledger and counts must be byte-identical (sim ≡ live ≡ net — and
    /// sim ≡ sim a second time). Returns the number that differ.
    fn mismatches(&self, from: usize, got: &[Verdict]) -> Result<u64, String> {
        let mut platform = edgelet_core::Platform::build(self.inputs.world.clone());
        let mut differing = 0;
        for (i, verdict) in got.iter().enumerate() {
            let run = platform
                .run_query(
                    &self.inputs.spec(from + i),
                    &self.inputs.privacy,
                    &self.inputs.resilience,
                )
                .map_err(|e| e.to_string())?;
            if Verdict::of(&run.report) != *verdict || run.report.valid != verdict.ok {
                differing += 1;
            }
        }
        Ok(differing)
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let pinning = pin::pin_to_highest_cpu();
    // Spawned after pinning, so it spins on the pinned CPU; stopped and
    // joined when `run` returns.
    let awake = pin::KeepAwake::start();
    println!(
        "workload={} seed={} seconds={} trace={} pinned={} pinned_cpu={} nproc={} keep_awake={}",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        pinning.pinned,
        pinning.cpu,
        pinning.nproc,
        awake.is_some()
    );
    let mut temp = TempRoot::create()?;
    let inputs = Arc::new(Inputs::generate(args.workload.kind, args.seed));
    let wal_template = temp.fresh("wal-template");
    if inputs.kind == Kind::DurableGrouping {
        hosts::write_wal_template(&inputs, &wal_template)?;
    }
    let mut run = Run {
        args,
        inputs,
        temp,
        wal_template,
    };
    let (correct, attempted, failed, values) = if args.trace {
        traced::traced_run(&mut run, &pinning, awake.as_ref())?
    } else {
        plain_run(&mut run)?
    };
    let defs: &[metrics::Def] = if args.trace {
        &metrics::PER_LAYER
    } else {
        &metrics::END_TO_END
    };
    for def in defs {
        println!(
            "{} {} {} ({} is better)",
            def.name,
            values.get(def.name),
            def.unit,
            def.better
        );
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        values.to_json(defs)
    );
    Ok(correct)
}

/// `--trace 0`: the gated end-to-end metrics, nothing instrumented.
///
/// The window is cut into rounds and lasts `--seconds`. Each round
/// yields one throughput and one median latency, and the run reports
/// its best round and its fastest cold start: interference from the
/// host's other tenants only ever slows a round, and it comes in spells
/// of seconds to minutes, so a median over a few long rounds moved by
/// 10-40 % between runs of unchanged code where the best of many short
/// rounds moved by 2-5 %.
fn plain_run(run: &mut Run) -> Result<(bool, u64, u64, Values), String> {
    let round = run.args.workload.round;
    let (mut host, first_start) = run.cold_start(None)?;
    let mut setups = vec![first_start];
    run.drive(&mut |spec| host.query(spec), 0, WARMUP_QUERIES);

    let mut window = Stretch::default();
    let (mut round_qps, mut round_p50) = (Vec::new(), Vec::new());
    let (mut fixed_bytes, mut fixed_queries) = (0, 0);
    let window_start = Instant::now();
    while round_qps.len() < MIN_ROUNDS
        || window_start.elapsed().as_secs_f64() < run.args.seconds as f64
    {
        let stretch = run.drive(
            &mut |spec| host.query(spec),
            WARMUP_QUERIES + round_qps.len() * round,
            round,
        );
        round_qps.push(stretch.attempted as f64 / stretch.wall_secs);
        round_p50.push(stats::median(&stretch.latency_ms));
        window.absorb(stretch);
        if round_qps.len() == MIN_ROUNDS {
            (fixed_bytes, fixed_queries) = (window.bytes_sent, window.attempted);
        }
        if round_qps.len() % ROUNDS_PER_COLD_START == 0 {
            let (spare, took) = run.cold_start(None)?;
            drop(spare);
            setups.push(took);
        }
    }
    let health = host.health();
    drop(host);
    let differing = run.mismatches(WARMUP_QUERIES, &window.leading)?;
    let correct = report_correctness(differing, &health);

    println!(
        "rounds={}x{round} samples={} cold_starts={}",
        round_qps.len(),
        window.latency_ms.len(),
        setups.len()
    );
    println!("round_queries_per_s {}", stats::spread_line(&round_qps));
    println!("round_p50_ms {}", stats::spread_line(&round_p50));
    println!("cold_start_s {}", stats::spread_line(&setups));
    println!(
        "client.query_p90_ms {} ms\nclient.query_p99_ms {} ms",
        stats::quantile(&window.latency_ms, 0.9),
        stats::quantile(&window.latency_ms, 0.99)
    );
    let mut values = Values::default();
    values.set("queries_per_s", stats::max(&round_qps));
    values.set("query_p50_ms", stats::min(&round_p50));
    values.set("setup_s", stats::min(&setups));
    values.set(
        "msg_bytes_per_query",
        fixed_bytes as f64 / fixed_queries as f64,
    );
    Ok((correct, window.attempted, window.failed + differing, values))
}

fn report_correctness(differing: u64, health: &hosts::Health) -> bool {
    if differing > 0 {
        println!("FAILED: {differing} reference specs differ from the simulator");
    }
    if health.fallbacks > 0 {
        println!("FAILED: {} epochs fell back in-process", health.fallbacks);
    }
    if let Some(reason) = &health.drained {
        println!("FAILED: durable service drained: {reason}");
    }
    differing == 0 && health.fallbacks == 0 && health.drained.is_none()
}
