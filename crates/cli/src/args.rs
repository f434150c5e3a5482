//! Hand-rolled argument parsing for the `edgelet` tool.

use edgelet_core::util::{Error, Result};
use std::collections::BTreeMap;

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `edgelet plan …`
    Plan(QueryArgs),
    /// `edgelet run …`
    Run(QueryArgs),
    /// `edgelet analyze …`
    Analyze {
        /// Scenario whose plan is analyzed.
        query: QueryArgs,
        /// Emit a JSON array instead of compiler-style text.
        json: bool,
        /// Run the Layer-3 concurrency pass over the workspace sources.
        concurrency: bool,
        /// Workspace to scan for the source layers (needs a `crates/`
        /// directory; silently skipped otherwise).
        workspace_root: String,
    },
    /// `edgelet dataset --rows N [--seed S]`
    Dataset {
        /// Rows to generate.
        rows: usize,
        /// Generator seed.
        seed: u64,
    },
    /// `edgelet chaos …`
    Chaos(ChaosArgs),
    /// `edgelet serve …` — live runtime, concurrent self-driving demo
    /// (or, with `--listen`, a socket daemon serving remote workers and
    /// client submissions).
    Serve(ServeArgs),
    /// `edgelet submit …` — live runtime, one query with a verdict
    /// (or, with `--connect`, a client submission to a daemon).
    Submit(ServeArgs),
    /// `edgelet worker --connect <addr>` — a worker process serving a
    /// daemon's epochs over a socket.
    Worker(WorkerArgs),
    /// `edgelet help` (or `--help`)
    Help,
}

/// Options for the live runtime (`serve` and `submit`).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// World and query shape (same flags as `run`).
    pub query: QueryArgs,
    /// Worker threads hosting the device population per query.
    pub workers: usize,
    /// Queries to drive through the service (`serve` only).
    pub queries: usize,
    /// Admission-control concurrency limit.
    pub max_concurrent: usize,
    /// Per-lane transport mailbox capacity (envelopes).
    pub mailbox_cap: usize,
    /// Wall-clock deadline per query, milliseconds (`None` = unbounded).
    pub wall_deadline_ms: Option<u64>,
    /// Emit a JSON verdict instead of human text (`submit` only).
    pub json: bool,
    /// Anchor service state in a WAL + checkpoint on disk.
    pub durable: bool,
    /// Directory holding the WAL and checkpoint (with `--durable`).
    pub wal_dir: Option<String>,
    /// Completions per checkpoint; 0 = never checkpoint.
    pub checkpoint_every: u64,
    /// Group-commit window in milliseconds; 0 = sync immediately.
    pub commit_window_ms: u64,
    /// WAL segment rotation threshold in bytes; 0 = never rotate.
    pub segment_bytes: u64,
    /// Scripted crash point (`after-admit` | `mid-query` |
    /// `before-checkpoint`): abort the process there, for restart
    /// drills. Requires `--durable`.
    pub crash_at: Option<String>,
    /// Daemon mode (`serve` only): bind this address (`uds:<path>` |
    /// `tcp:<host>:<port>`) and serve remote workers + submissions.
    pub listen: Option<String>,
    /// Client mode (`submit` only): send the query to a daemon at this
    /// address instead of running in-process.
    pub connect: Option<String>,
    /// Declared transport (`uds` | `tcp`); must match the address
    /// scheme (E150) — purely a guard against config drift.
    pub transport: Option<String>,
    /// Worker *processes* the daemon coordinates per epoch (`--listen`
    /// only; distinct from `--workers`, the in-process thread count
    /// used when no remote fleet is available).
    pub expected_workers: usize,
    /// Relay fault plan DSL (`--listen` only); see docs/NET.md.
    pub net_fault_plan: Option<String>,
    /// Handshake completion deadline, milliseconds (`--listen` only).
    pub handshake_timeout_ms: u64,
}

impl Default for ServeArgs {
    fn default() -> Self {
        Self {
            query: QueryArgs::default(),
            workers: 4,
            queries: 3,
            max_concurrent: 4,
            mailbox_cap: 4096,
            wall_deadline_ms: None,
            json: false,
            durable: false,
            wal_dir: None,
            checkpoint_every: 8,
            commit_window_ms: 0,
            segment_bytes: 4 << 20,
            crash_at: None,
            listen: None,
            connect: None,
            transport: None,
            expected_workers: 2,
            net_fault_plan: None,
            handshake_timeout_ms: 10_000,
        }
    }
}

/// Options for the `worker` subcommand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerArgs {
    /// The daemon's address (`uds:<path>` | `tcp:<host>:<port>`).
    pub connect: String,
    /// First reconnect delay, milliseconds (`None` = default 50).
    pub backoff_initial_ms: Option<u64>,
    /// Reconnect delay cap, milliseconds (`None` = default 2000).
    pub backoff_max_ms: Option<u64>,
}

/// Options for the `chaos` campaign runner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosArgs {
    /// Seeds `0..seeds` to sweep.
    pub seeds: u64,
    /// Restrict to one scenario (`grouping` | `kmeans`); `None` = all.
    pub scenario: Option<String>,
    /// Write shrunk failing repros as corpus entries into this directory.
    pub emit_corpus: Option<String>,
    /// Replay the corpus entries in this directory instead of sweeping.
    pub replay: Option<String>,
    /// Skip shrinking failing plans.
    pub no_shrink: bool,
    /// Simulator shard count for every run (verdicts are identical for
    /// every value; >1 exercises the parallel engine).
    pub shards: usize,
}

impl Default for ChaosArgs {
    fn default() -> Self {
        Self {
            seeds: 64,
            scenario: None,
            emit_corpus: None,
            replay: None,
            no_shrink: false,
            shards: 1,
        }
    }
}

/// Options shared by `plan` and `run`.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryArgs {
    /// World seed.
    pub seed: u64,
    /// Data contributors in the crowd.
    pub contributors: usize,
    /// Volunteer processors in the crowd.
    pub processors: usize,
    /// Snapshot cardinality C.
    pub cardinality: usize,
    /// Horizontal cap (max raw tuples per edgelet).
    pub cap: Option<usize>,
    /// Attribute pairs to separate, as `a:b`.
    pub separate: Vec<(String, String)>,
    /// Fault presumption rate.
    pub failure_p: f64,
    /// Strategy name: `overcollection` | `backup` | `naive`.
    pub strategy: String,
    /// Network: `reliable` | `internet` | `lossy:<p>` | `oppnet:<median_s>,<p>`.
    pub network: String,
    /// Actual crash probability injected on processors.
    pub crash_p: f64,
    /// Run K-Means instead of the survey query: `k,heartbeats`.
    pub kmeans: Option<(usize, usize)>,
    /// Emit Graphviz DOT instead of ASCII (plan only).
    pub dot: bool,
    /// Simulator shard count (results are bit-identical for every
    /// value; >1 runs event windows on worker threads).
    pub shards: usize,
}

impl Default for QueryArgs {
    fn default() -> Self {
        Self {
            seed: 7,
            contributors: 2_000,
            processors: 150,
            cardinality: 300,
            cap: Some(75),
            separate: Vec::new(),
            failure_p: 0.1,
            strategy: "overcollection".into(),
            network: "lossy:0.05".into(),
            crash_p: 0.0,
            kmeans: None,
            dot: false,
            shards: 1,
        }
    }
}

/// Usage text.
pub const USAGE: &str = "\
edgelet — resilient, privacy-preserving queries on personal devices

USAGE:
    edgelet plan  [OPTIONS]   inspect the QEP a configuration produces
    edgelet run   [OPTIONS]   execute on a simulated crowd
    edgelet analyze [OPTIONS] statically check the plan; exits nonzero on errors
    edgelet dataset --rows N [--seed S]   print synthetic health data (CSV)
    edgelet chaos   [OPTIONS] deterministic fault-injection campaign
    edgelet serve   [OPTIONS] live runtime: N concurrent queries, one device pool
                              (with --listen: socket daemon for remote workers)
    edgelet submit  [OPTIONS] live runtime: one query; exit nonzero on a miss
                              (with --connect: submit to a daemon over a socket)
    edgelet worker --connect ADDR   worker process serving a daemon's epochs
    edgelet help              this text

OPTIONS (plan/run/analyze):
    --seed N            world seed                       [default: 7]
    --contributors N    data contributors                [default: 2000]
    --processors N      volunteer processors             [default: 150]
    --cardinality C     snapshot cardinality             [default: 300]
    --cap N             max raw tuples per edgelet       [default: 75]
    --separate a:b      vertical separation (repeatable)
    --failure-p F       fault presumption rate           [default: 0.1]
    --strategy S        overcollection|backup|naive      [default: overcollection]
    --network NET       reliable|internet|lossy:<p>|oppnet:<median_s>,<p>
                                                         [default: lossy:0.05]
    --crash-p F         injected processor crash rate    [default: 0]
    --kmeans K,H        K-Means with K clusters, H heartbeats
    --shards N          simulator shards (identical results; >1 = parallel)
                                                         [default: 1]
    --dot               print Graphviz DOT (plan only)
    --format F          diagnostic output, human|json (analyze only)
                                                         [default: human]
    --workspace-root P  workspace to source-scan (analyze only; skipped
                        when P has no crates/ directory)  [default: .]
    --no-concurrency    skip the Layer-3 concurrency pass (analyze only)

OPTIONS (chaos):
    --seeds N           sweep seeds 0..N                 [default: 64]
    --scenario S        grouping|kmeans                  [default: all]
    --emit-corpus DIR   write shrunk failing repros as corpus entries
    --replay DIR        replay corpus entries instead of sweeping
    --no-shrink         keep failing plans unshrunk (fastest sweep)
    --shards N          simulator shards for every run   [default: 1]

OPTIONS (serve/submit — plus all plan/run world options):
    --workers N         worker threads per query         [default: 4]
    --queries N         concurrent queries to drive (serve only)
                                                         [default: 3]
    --max-concurrent N  admission-control limit          [default: 4]
    --mailbox-cap N     transport lane capacity          [default: 4096]
    --wall-deadline-ms N  per-query wall-clock budget    [default: none]
    --format F          verdict output, human|json (submit only)
                                                         [default: human]
    --durable           anchor ledgers/epochs in a WAL + checkpoint
    --wal-dir DIR       directory for the WAL (required with --durable)
    --checkpoint-every N  completions per checkpoint; 0 = never
                                                         [default: 8]
    --commit-window-ms N  group-commit coalescing window, ms; 0 = sync
                        each batch immediately           [default: 0]
    --segment-bytes N   WAL segment rotation threshold; 0 = one
                        unbounded segment          [default: 4194304]
    --crash-at POINT    abort at a scripted point for restart drills:
                        after-admit|mid-query|before-checkpoint
                        (requires --durable)

OPTIONS (multi-process deployment; addresses are uds:<path> | tcp:<host>:<port>):
    --listen ADDR       serve only: bind a daemon socket; epochs run on
                        remote worker processes when the fleet is full,
                        in-process otherwise
    --connect ADDR      submit: send the query to a daemon
                        worker: the daemon to serve
    --transport T       declared transport, uds|tcp; must match the
                        address scheme (E150 guard)
    --expected-workers N  worker processes per epoch (serve --listen)
                                                         [default: 2]
    --handshake-timeout-ms N  handshake deadline        [default: 10000]
    --net-fault-plan P  relay fault rules, e.g.
                        `drop,from=3;dup,extra-ms=1,after-s=0.5`
                        (see docs/NET.md)
    --backoff-initial-ms N  worker reconnect delay       [default: 50]
    --backoff-max-ms N      worker reconnect delay cap   [default: 2000]

Exit status is nonzero when the campaign found failing triples, a
replayed corpus entry's oracle verdict changed, or a live query missed
its deadline or was refused admission. See docs/FAULTS.md,
docs/RUNTIME.md.
";

/// Parses argv (without the program name).
pub fn parse(argv: &[String]) -> Result<Command> {
    let Some((sub, rest)) = argv.split_first() else {
        return Ok(Command::Help);
    };
    match sub.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "dataset" => {
            let flags = collect_flags(rest)?;
            let rows = flag_parse(&flags, "rows", 100usize)?;
            let seed = flag_parse(&flags, "seed", 7u64)?;
            Ok(Command::Dataset { rows, seed })
        }
        "chaos" => {
            let flags = collect_flags(rest)?;
            let mut c = ChaosArgs {
                seeds: flag_parse(&flags, "seeds", 64u64)?,
                no_shrink: flags.contains_key("no-shrink"),
                shards: shards_flag(&flags)?,
                ..ChaosArgs::default()
            };
            if let Some(values) = flags.get("scenario") {
                let s = single(values, "scenario")?;
                if !["grouping", "kmeans"].contains(&s.as_str()) {
                    return Err(Error::InvalidConfig(format!(
                        "--scenario expects grouping|kmeans, got `{s}`"
                    )));
                }
                c.scenario = Some(s.clone());
            }
            if let Some(values) = flags.get("emit-corpus") {
                c.emit_corpus = Some(single(values, "emit-corpus")?.clone());
            }
            if let Some(values) = flags.get("replay") {
                c.replay = Some(single(values, "replay")?.clone());
            }
            Ok(Command::Chaos(c))
        }
        "serve" | "submit" => {
            let flags = collect_flags(rest)?;
            let mut s = ServeArgs {
                query: query_args(&flags)?,
                workers: flag_parse(&flags, "workers", 4usize)?,
                queries: flag_parse(&flags, "queries", 3usize)?,
                max_concurrent: flag_parse(&flags, "max-concurrent", 4usize)?,
                mailbox_cap: flag_parse(&flags, "mailbox-cap", 4096usize)?,
                durable: flags.contains_key("durable"),
                checkpoint_every: flag_parse(&flags, "checkpoint-every", 8u64)?,
                commit_window_ms: flag_parse(&flags, "commit-window-ms", 0u64)?,
                segment_bytes: flag_parse(&flags, "segment-bytes", 4u64 << 20)?,
                ..ServeArgs::default()
            };
            if let Some(values) = flags.get("wal-dir") {
                s.wal_dir = Some(single(values, "wal-dir")?.clone());
            }
            if let Some(values) = flags.get("crash-at") {
                let p = single(values, "crash-at")?;
                if !["after-admit", "mid-query", "before-checkpoint"].contains(&p.as_str()) {
                    return Err(Error::InvalidConfig(format!(
                        "--crash-at expects after-admit|mid-query|before-checkpoint, got `{p}`"
                    )));
                }
                s.crash_at = Some(p.clone());
            }
            if let Some(values) = flags.get("wall-deadline-ms") {
                s.wall_deadline_ms = Some(parse_value(
                    single(values, "wall-deadline-ms")?,
                    "wall-deadline-ms",
                )?);
            }
            if let Some(values) = flags.get("format") {
                s.json = match single(values, "format")?.as_str() {
                    "json" => true,
                    "human" => false,
                    other => {
                        return Err(Error::InvalidConfig(format!(
                            "--format expects json|human, got `{other}`"
                        )))
                    }
                };
            }
            if let Some(values) = flags.get("listen") {
                s.listen = Some(single(values, "listen")?.clone());
            }
            if let Some(values) = flags.get("connect") {
                s.connect = Some(single(values, "connect")?.clone());
            }
            if let Some(values) = flags.get("transport") {
                let t = single(values, "transport")?;
                if !["uds", "tcp"].contains(&t.as_str()) {
                    return Err(Error::InvalidConfig(format!(
                        "--transport expects uds|tcp, got `{t}`"
                    )));
                }
                s.transport = Some(t.clone());
            }
            s.expected_workers = flag_parse(&flags, "expected-workers", 2usize)?;
            s.handshake_timeout_ms = flag_parse(&flags, "handshake-timeout-ms", 10_000u64)?;
            if let Some(values) = flags.get("net-fault-plan") {
                s.net_fault_plan = Some(single(values, "net-fault-plan")?.clone());
            }
            if sub == "serve" {
                if s.connect.is_some() {
                    return Err(Error::InvalidConfig(
                        "--connect is for `submit` and `worker`; a daemon listens (--listen)"
                            .into(),
                    ));
                }
            } else if s.listen.is_some() {
                return Err(Error::InvalidConfig(
                    "--listen is for `serve`; a client connects (--connect)".into(),
                ));
            }
            if sub == "serve" {
                Ok(Command::Serve(s))
            } else {
                Ok(Command::Submit(s))
            }
        }
        "worker" => {
            let flags = collect_flags(rest)?;
            let connect = flags
                .get("connect")
                .map(|v| single(v, "connect").cloned())
                .transpose()?
                .ok_or_else(|| Error::InvalidConfig("worker requires --connect <addr>".into()))?;
            let backoff_initial_ms = flags
                .get("backoff-initial-ms")
                .map(|v| parse_value(single(v, "backoff-initial-ms")?, "backoff-initial-ms"))
                .transpose()?;
            let backoff_max_ms = flags
                .get("backoff-max-ms")
                .map(|v| parse_value(single(v, "backoff-max-ms")?, "backoff-max-ms"))
                .transpose()?;
            Ok(Command::Worker(WorkerArgs {
                connect,
                backoff_initial_ms,
                backoff_max_ms,
            }))
        }
        "plan" | "run" | "analyze" => {
            let flags = collect_flags(rest)?;
            let q = query_args(&flags)?;
            match sub.as_str() {
                "plan" => Ok(Command::Plan(q)),
                "run" => Ok(Command::Run(q)),
                _ => {
                    let json = match flags.get("format") {
                        None => false,
                        Some(values) => match single(values, "format")?.as_str() {
                            "json" => true,
                            "human" => false,
                            other => {
                                return Err(Error::InvalidConfig(format!(
                                    "--format expects json|human, got `{other}`"
                                )))
                            }
                        },
                    };
                    let concurrency = !flags.contains_key("no-concurrency");
                    let workspace_root = flags
                        .get("workspace-root")
                        .map(|v| single(v, "workspace-root").cloned())
                        .transpose()?
                        .unwrap_or_else(|| ".".to_string());
                    Ok(Command::Analyze {
                        query: q,
                        json,
                        concurrency,
                        workspace_root,
                    })
                }
            }
        }
        other => Err(Error::InvalidConfig(format!(
            "unknown subcommand `{other}` (try `edgelet help`)"
        ))),
    }
}

/// Builds [`QueryArgs`] from the collected `plan`/`run`/`analyze` flags.
fn query_args(flags: &BTreeMap<String, Vec<String>>) -> Result<QueryArgs> {
    let mut q = QueryArgs {
        seed: flag_parse(flags, "seed", 7u64)?,
        contributors: flag_parse(flags, "contributors", 2_000usize)?,
        processors: flag_parse(flags, "processors", 150usize)?,
        cardinality: flag_parse(flags, "cardinality", 300usize)?,
        failure_p: flag_parse(flags, "failure-p", 0.1f64)?,
        crash_p: flag_parse(flags, "crash-p", 0.0f64)?,
        shards: shards_flag(flags)?,
        ..QueryArgs::default()
    };
    if let Some(values) = flags.get("cap") {
        let raw = single(values, "cap")?;
        q.cap = if raw == "none" {
            None
        } else {
            Some(parse_value(raw, "cap")?)
        };
    }
    if let Some(values) = flags.get("strategy") {
        let s = single(values, "strategy")?;
        if !["overcollection", "backup", "naive"].contains(&s.as_str()) {
            return Err(Error::InvalidConfig(format!("unknown strategy `{s}`")));
        }
        q.strategy = s.clone();
    }
    if let Some(values) = flags.get("network") {
        q.network = single(values, "network")?.clone();
    }
    if let Some(values) = flags.get("separate") {
        for v in values {
            let (a, b) = v.split_once(':').ok_or_else(|| {
                Error::InvalidConfig(format!("--separate expects a:b, got `{v}`"))
            })?;
            q.separate.push((a.to_string(), b.to_string()));
        }
    }
    if let Some(values) = flags.get("kmeans") {
        let v = single(values, "kmeans")?;
        let (k, h) = v
            .split_once(',')
            .ok_or_else(|| Error::InvalidConfig(format!("--kmeans expects K,H, got `{v}`")))?;
        q.kmeans = Some((parse_value(k, "kmeans K")?, parse_value(h, "kmeans H")?));
    }
    q.dot = flags.contains_key("dot");
    Ok(q)
}

/// Collects `--flag value` and bare `--flag` pairs; flags may repeat.
fn collect_flags(args: &[String]) -> Result<BTreeMap<String, Vec<String>>> {
    const BARE: &[&str] = &[
        "dot",
        "no-shrink",
        "concurrency",
        "no-concurrency",
        "durable",
    ];
    let mut out: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        let Some(name) = arg.strip_prefix("--") else {
            return Err(Error::InvalidConfig(format!(
                "expected a --flag, got `{arg}`"
            )));
        };
        if BARE.contains(&name) {
            out.entry(name.to_string()).or_default();
            i += 1;
            continue;
        }
        let Some(value) = args.get(i + 1) else {
            return Err(Error::InvalidConfig(format!("--{name} needs a value")));
        };
        out.entry(name.to_string()).or_default().push(value.clone());
        i += 2;
    }
    Ok(out)
}

fn single<'a>(values: &'a [String], name: &str) -> Result<&'a String> {
    match values {
        [one] => Ok(one),
        _ => Err(Error::InvalidConfig(format!(
            "--{name} given {} times, expected once",
            values.len()
        ))),
    }
}

/// Parses `--shards` (shared by `plan`/`run`/`analyze`/`chaos`),
/// rejecting 0 — the engine treats 0 as 1, but the CLI insists on an
/// honest value.
fn shards_flag(flags: &BTreeMap<String, Vec<String>>) -> Result<usize> {
    let shards = flag_parse(flags, "shards", 1usize)?;
    if shards == 0 {
        return Err(Error::InvalidConfig(
            "--shards must be at least 1".to_string(),
        ));
    }
    Ok(shards)
}

fn parse_value<T: std::str::FromStr>(raw: &str, what: &str) -> Result<T> {
    raw.parse()
        .map_err(|_| Error::InvalidConfig(format!("cannot parse `{raw}` for {what}")))
}

fn flag_parse<T: std::str::FromStr + Copy>(
    flags: &BTreeMap<String, Vec<String>>,
    name: &str,
    default: T,
) -> Result<T> {
    match flags.get(name) {
        None => Ok(default),
        Some(values) => parse_value(single(values, name)?, name),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(|x| x.to_string()).collect()
    }

    #[test]
    fn defaults_and_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
        assert_eq!(parse(&argv("--help")).unwrap(), Command::Help);
        // Moved to `edgelet-bench`'s `bench_report` and `experiments`
        // binaries; the CLI no longer knows them.
        for moved in ["bench", "experiments"] {
            assert!(parse(&argv(moved)).is_err(), "{moved}");
            assert!(!USAGE.contains(&format!("edgelet {moved}")), "{moved}");
        }
    }

    #[test]
    fn plan_with_options() {
        let cmd = parse(&argv(
            "plan --cardinality 500 --cap 100 --separate bmi:systolic_bp \
             --separate age:region --strategy backup --dot",
        ))
        .unwrap();
        let Command::Plan(q) = cmd else { panic!() };
        assert_eq!(q.cardinality, 500);
        assert_eq!(q.cap, Some(100));
        assert_eq!(q.separate.len(), 2);
        assert_eq!(q.separate[0], ("bmi".into(), "systolic_bp".into()));
        assert_eq!(q.strategy, "backup");
        assert!(q.dot);
    }

    #[test]
    fn run_with_kmeans_and_network() {
        let cmd = parse(&argv(
            "run --kmeans 3,6 --network oppnet:600,0.05 --crash-p 0.2 --cap none",
        ))
        .unwrap();
        let Command::Run(q) = cmd else { panic!() };
        assert_eq!(q.kmeans, Some((3, 6)));
        assert_eq!(q.network, "oppnet:600,0.05");
        assert_eq!(q.crash_p, 0.2);
        assert_eq!(q.cap, None);
        assert_eq!(q.shards, 1);
    }

    #[test]
    fn shards_flag_parses_and_rejects_zero() {
        let Command::Run(q) = parse(&argv("run --shards 4")).unwrap() else {
            panic!()
        };
        assert_eq!(q.shards, 4);
        let Command::Chaos(c) = parse(&argv("chaos --shards 2")).unwrap() else {
            panic!()
        };
        assert_eq!(c.shards, 2);
        assert!(parse(&argv("run --shards 0")).is_err());
        assert!(parse(&argv("chaos --shards 0")).is_err());
    }

    #[test]
    fn analyze_with_format() {
        let cmd = parse(&argv("analyze --cardinality 500 --format json")).unwrap();
        let Command::Analyze {
            query,
            json,
            concurrency,
            workspace_root,
        } = cmd
        else {
            panic!()
        };
        assert_eq!(query.cardinality, 500);
        assert!(json);
        assert!(concurrency);
        assert_eq!(workspace_root, ".");
        let cmd = parse(&argv("analyze")).unwrap();
        let Command::Analyze { json, .. } = cmd else {
            panic!()
        };
        assert!(!json);
        assert!(parse(&argv("analyze --format yaml")).is_err());
    }

    #[test]
    fn analyze_source_pass_flags() {
        let cmd = parse(&argv("analyze --no-concurrency --workspace-root /tmp/ws")).unwrap();
        let Command::Analyze {
            concurrency,
            workspace_root,
            ..
        } = cmd
        else {
            panic!()
        };
        assert!(!concurrency);
        assert_eq!(workspace_root, "/tmp/ws");
    }

    #[test]
    fn dataset_args() {
        let cmd = parse(&argv("dataset --rows 50 --seed 9")).unwrap();
        assert_eq!(cmd, Command::Dataset { rows: 50, seed: 9 });
    }

    #[test]
    fn chaos_args() {
        let cmd = parse(&argv("chaos")).unwrap();
        assert_eq!(cmd, Command::Chaos(ChaosArgs::default()));
        let cmd = parse(&argv(
            "chaos --seeds 16 --scenario kmeans --no-shrink --emit-corpus out/",
        ))
        .unwrap();
        let Command::Chaos(c) = cmd else { panic!() };
        assert_eq!(c.seeds, 16);
        assert_eq!(c.scenario.as_deref(), Some("kmeans"));
        assert_eq!(c.emit_corpus.as_deref(), Some("out/"));
        assert!(c.no_shrink);
        let cmd = parse(&argv("chaos --replay tests/chaos_corpus")).unwrap();
        let Command::Chaos(c) = cmd else { panic!() };
        assert_eq!(c.replay.as_deref(), Some("tests/chaos_corpus"));
        assert!(parse(&argv("chaos --scenario warp")).is_err());
        assert!(parse(&argv("chaos --seeds abc")).is_err());
    }

    #[test]
    fn serve_and_submit_args() {
        let cmd = parse(&argv("serve")).unwrap();
        assert_eq!(cmd, Command::Serve(ServeArgs::default()));
        let cmd = parse(&argv(
            "serve --queries 5 --workers 2 --max-concurrent 3 --mailbox-cap 128 \
             --contributors 600 --network reliable",
        ))
        .unwrap();
        let Command::Serve(s) = cmd else { panic!() };
        assert_eq!(s.queries, 5);
        assert_eq!(s.workers, 2);
        assert_eq!(s.max_concurrent, 3);
        assert_eq!(s.mailbox_cap, 128);
        assert_eq!(s.query.contributors, 600);
        let cmd = parse(&argv("submit --wall-deadline-ms 5000 --format json")).unwrap();
        let Command::Submit(s) = cmd else { panic!() };
        assert_eq!(s.wall_deadline_ms, Some(5000));
        assert!(s.json);
        assert!(parse(&argv("submit --format yaml")).is_err());
        // workers=0 parses; the E120 preflight rejects it at execution.
        let Command::Serve(s) = parse(&argv("serve --workers 0")).unwrap() else {
            panic!()
        };
        assert_eq!(s.workers, 0);
    }

    #[test]
    fn durability_args() {
        let Command::Submit(s) = parse(&argv("submit")).unwrap() else {
            panic!()
        };
        assert!(!s.durable && s.wal_dir.is_none() && s.crash_at.is_none());
        assert_eq!(s.checkpoint_every, 8);
        let Command::Submit(s) = parse(&argv(
            "submit --durable --wal-dir /tmp/wal --checkpoint-every 2 --crash-at mid-query",
        ))
        .unwrap() else {
            panic!()
        };
        assert!(s.durable);
        assert_eq!(s.wal_dir.as_deref(), Some("/tmp/wal"));
        assert_eq!(s.checkpoint_every, 2);
        assert_eq!(s.crash_at.as_deref(), Some("mid-query"));
        assert!(parse(&argv("submit --crash-at later")).is_err());
        // --crash-at without --durable parses; execution rejects it.
        let Command::Serve(s) = parse(&argv("serve --crash-at after-admit")).unwrap() else {
            panic!()
        };
        assert!(!s.durable && s.crash_at.is_some());
    }

    #[test]
    fn net_args() {
        // serve --listen with the daemon knobs.
        let Command::Serve(s) = parse(&argv(
            "serve --listen uds:/tmp/edgelet.sock --expected-workers 3 \
             --handshake-timeout-ms 500 --transport uds --net-fault-plan drop,from=3",
        ))
        .unwrap() else {
            panic!()
        };
        assert_eq!(s.listen.as_deref(), Some("uds:/tmp/edgelet.sock"));
        assert_eq!(s.expected_workers, 3);
        assert_eq!(s.handshake_timeout_ms, 500);
        assert_eq!(s.transport.as_deref(), Some("uds"));
        assert_eq!(s.net_fault_plan.as_deref(), Some("drop,from=3"));
        // submit --connect as a socket client.
        let Command::Submit(s) = parse(&argv("submit --connect tcp:127.0.0.1:7000")).unwrap()
        else {
            panic!()
        };
        assert_eq!(s.connect.as_deref(), Some("tcp:127.0.0.1:7000"));
        // Defaults stay compatible with the in-process mode.
        let Command::Serve(s) = parse(&argv("serve")).unwrap() else {
            panic!()
        };
        assert!(s.listen.is_none() && s.connect.is_none());
        assert_eq!(s.expected_workers, 2);
        // The wrong-direction flags are rejected at parse time.
        assert!(parse(&argv("serve --connect uds:/tmp/a.sock")).is_err());
        assert!(parse(&argv("submit --listen uds:/tmp/a.sock")).is_err());
        assert!(parse(&argv("serve --transport carrier-pigeon")).is_err());
    }

    #[test]
    fn worker_args() {
        let Command::Worker(w) = parse(&argv("worker --connect uds:/tmp/edgelet.sock")).unwrap()
        else {
            panic!()
        };
        assert_eq!(w.connect, "uds:/tmp/edgelet.sock");
        assert!(w.backoff_initial_ms.is_none() && w.backoff_max_ms.is_none());
        let Command::Worker(w) = parse(&argv(
            "worker --connect tcp:10.0.0.2:7000 --backoff-initial-ms 20 --backoff-max-ms 400",
        ))
        .unwrap() else {
            panic!()
        };
        assert_eq!(w.backoff_initial_ms, Some(20));
        assert_eq!(w.backoff_max_ms, Some(400));
        assert!(parse(&argv("worker")).is_err());
        assert!(parse(&argv("worker --connect a --backoff-max-ms soon")).is_err());
    }

    #[test]
    fn errors_are_helpful() {
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("plan --cap")).is_err());
        assert!(parse(&argv("plan cap 5")).is_err());
        assert!(parse(&argv("plan --strategy wat")).is_err());
        assert!(parse(&argv("plan --separate nope")).is_err());
        assert!(parse(&argv("run --kmeans 3")).is_err());
        assert!(parse(&argv("plan --cardinality abc")).is_err());
        assert!(parse(&argv("plan --seed 1 --seed 2")).is_err());
    }
}
