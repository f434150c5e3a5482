//! Hand-rolled argument parsing for the `edgelet` tool.
//!
//! Every flag is read through one [`Flags`], whose readers *consume*:
//! a subcommand takes the flags it knows out of the map (falling back
//! to the `Default` impls below, the only place a default is written)
//! and [`Flags::finish`] refuses whatever nobody took, so a misspelt
//! or misplaced knob — `run --sharsd 4`, `run --workers 2` — is an
//! error naming the flag instead of a run at the default. There is no
//! table of flags: [`USAGE`] documents them, the readers define them.

use edgelet_core::util::{Error, Result};
use std::collections::BTreeMap;
use std::str::FromStr;

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
    /// Worker *processes* the daemon coordinates per epoch (`--listen`
    /// only; distinct from `--workers`, the in-process thread count
    /// used when no remote fleet is available).
    pub expected_workers: usize,
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
            expected_workers: 2,
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
    /// Fault plan DSL text, as given (see docs/FAULTS.md): part of the
    /// world on every host.
    pub fault_plan: Option<String>,
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
            fault_plan: None,
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
    --fault-plan P      inject faults on every host, e.g.
                        `drop,from=3;dup,extra-ms=1,after-s=0.5`
                        (see docs/FAULTS.md)
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
    --expected-workers N  worker processes per epoch (serve --listen)
                                                         [default: 2]
    --handshake-timeout-ms N  handshake deadline        [default: 10000]
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
    if matches!(sub.as_str(), "help" | "--help" | "-h") {
        return Ok(Command::Help);
    }
    let mut f = Flags::collect(rest)?;
    let cmd = match sub.as_str() {
        "dataset" => Command::Dataset {
            rows: f.value("rows", 100)?,
            seed: f.value("seed", 7)?,
        },
        "chaos" => {
            let d = ChaosArgs::default();
            Command::Chaos(ChaosArgs {
                seeds: f.value("seeds", d.seeds)?,
                scenario: f.one_of("scenario", &["grouping", "kmeans"])?,
                emit_corpus: f.opt("emit-corpus")?,
                replay: f.opt("replay")?,
                no_shrink: f.bare("no-shrink")?,
                shards: f.shards(d.shards)?,
            })
        }
        // A daemon listens and a client connects: neither reads the
        // other's flag, so `finish` refuses it.
        "serve" => Command::Serve(ServeArgs {
            listen: f.opt("listen")?,
            ..serve_args(&mut f)?
        }),
        "submit" => Command::Submit(ServeArgs {
            connect: f.opt("connect")?,
            ..serve_args(&mut f)?
        }),
        "worker" => Command::Worker(WorkerArgs {
            connect: f
                .opt("connect")?
                .ok_or_else(|| invalid("worker requires --connect <addr>"))?,
            backoff_initial_ms: f.opt("backoff-initial-ms")?,
            backoff_max_ms: f.opt("backoff-max-ms")?,
        }),
        "plan" => Command::Plan(QueryArgs {
            dot: f.bare("dot")?,
            ..query_args(&mut f)?
        }),
        "run" => Command::Run(query_args(&mut f)?),
        "analyze" => Command::Analyze {
            query: query_args(&mut f)?,
            json: f.json()?,
            concurrency: !f.bare("no-concurrency")?,
            workspace_root: f.value("workspace-root", ".".to_string())?,
        },
        other => {
            return Err(invalid(format!(
                "unknown subcommand `{other}` (try `edgelet help`)"
            )))
        }
    };
    f.finish(sub)?;
    Ok(cmd)
}

/// Reads the flags `serve` and `submit` share: the world and the live
/// runtime's knobs.
fn serve_args(f: &mut Flags) -> Result<ServeArgs> {
    let d = ServeArgs::default();
    Ok(ServeArgs {
        query: query_args(f)?,
        workers: f.value("workers", d.workers)?,
        queries: f.value("queries", d.queries)?,
        max_concurrent: f.value("max-concurrent", d.max_concurrent)?,
        mailbox_cap: f.value("mailbox-cap", d.mailbox_cap)?,
        wall_deadline_ms: f.opt("wall-deadline-ms")?,
        json: f.json()?,
        durable: f.bare("durable")?,
        wal_dir: f.opt("wal-dir")?,
        checkpoint_every: f.value("checkpoint-every", d.checkpoint_every)?,
        commit_window_ms: f.value("commit-window-ms", d.commit_window_ms)?,
        segment_bytes: f.value("segment-bytes", d.segment_bytes)?,
        crash_at: f.one_of(
            "crash-at",
            &["after-admit", "mid-query", "before-checkpoint"],
        )?,
        expected_workers: f.value("expected-workers", d.expected_workers)?,
        handshake_timeout_ms: f.value("handshake-timeout-ms", d.handshake_timeout_ms)?,
        ..d
    })
}

/// Reads the world flags (`plan`/`run`/`analyze`/`serve`/`submit`) out
/// of `f`. The one way from text to [`QueryArgs`]: the world-spec
/// decoder feeds its `key=value` lines through here too, so a socket
/// peer is held to exactly what the command line accepts.
pub(crate) fn query_args(f: &mut Flags) -> Result<QueryArgs> {
    let d = QueryArgs::default();
    Ok(QueryArgs {
        seed: f.value("seed", d.seed)?,
        contributors: f.value("contributors", d.contributors)?,
        processors: f.value("processors", d.processors)?,
        cardinality: f.value("cardinality", d.cardinality)?,
        cap: match f.opt::<String>("cap")?.as_deref() {
            None => d.cap,
            Some("none") => None,
            Some(raw) => Some(parse_value(raw, "cap")?),
        },
        separate: f
            .many("separate")?
            .iter()
            .map(|v| {
                let (a, b) = halves(v, ':', "--separate expects a:b")?;
                Ok((a.to_string(), b.to_string()))
            })
            .collect::<Result<_>>()?,
        failure_p: f.value("failure-p", d.failure_p)?,
        strategy: f
            .one_of("strategy", &["overcollection", "backup", "naive"])?
            .unwrap_or(d.strategy),
        network: f.value("network", d.network)?,
        crash_p: f.value("crash-p", d.crash_p)?,
        kmeans: match f.opt::<String>("kmeans")? {
            None => d.kmeans,
            Some(raw) => {
                let (k, h) = halves(&raw, ',', "--kmeans expects K,H")?;
                Some((parse_value(k, "kmeans K")?, parse_value(h, "kmeans H")?))
            }
        },
        dot: d.dot,
        shards: f.shards(d.shards)?,
        fault_plan: match f.opt::<String>("fault-plan")? {
            // One line of the world spec carries it.
            Some(raw) if raw.contains(['\n', '\r']) => {
                return Err(invalid("--fault-plan must not contain a line break"))
            }
            Some(raw) => crate::net::parse_fault_plan(&raw).map(|_| Some(raw))?,
            None => d.fault_plan,
        },
    })
}

/// Splits `raw` at `sep`, or says what `shape` it should have had.
fn halves<'a>(raw: &'a str, sep: char, shape: &str) -> Result<(&'a str, &'a str)> {
    raw.split_once(sep)
        .ok_or_else(|| invalid(format!("{shape}, got `{raw}`")))
}

fn invalid(what: impl Into<String>) -> Error {
    Error::InvalidConfig(what.into())
}

fn parse_value<T: FromStr>(raw: &str, what: &str) -> Result<T> {
    raw.parse()
        .map_err(|_| invalid(format!("cannot parse `{raw}` for {what}")))
}

/// The flags of one invocation, by name, each with the values it was
/// given (none for a bare `--flag`). A token after `--name` is its
/// value unless it is itself a `--flag`; there is no list of which
/// flags are bare. Every reader *removes* what it reads, so whatever is
/// still here when the subcommand has read its fill was never looked
/// at, and [`Flags::finish`] refuses it by name.
#[derive(Debug, Default)]
pub(crate) struct Flags(BTreeMap<String, Vec<String>>);

impl Flags {
    fn collect(args: &[String]) -> Result<Flags> {
        let mut flags = Flags::default();
        let mut args = args.iter().peekable();
        while let Some(arg) = args.next() {
            let Some(name) = arg.strip_prefix("--") else {
                return Err(invalid(format!("expected a --flag, got `{arg}`")));
            };
            let value = args.next_if(|next| !next.starts_with("--"));
            let was_bare = flags.0.get(name).map(Vec::is_empty);
            if was_bare.is_some_and(|bare| bare != value.is_none()) {
                return Err(invalid(format!(
                    "--{name} given both with and without a value"
                )));
            }
            flags.values(name).extend(value.cloned());
        }
        Ok(flags)
    }

    fn values(&mut self, name: &str) -> &mut Vec<String> {
        self.0.entry(name.to_string()).or_default()
    }

    /// Adds one `name value` pair, as if `--name value` had been typed.
    pub(crate) fn push(&mut self, name: &str, value: &str) {
        self.values(name).push(value.to_string());
    }

    /// `--name V`, at most once.
    pub(crate) fn opt<T: FromStr>(&mut self, name: &str) -> Result<Option<T>> {
        let Some(values) = self.0.remove(name) else {
            return Ok(None);
        };
        match values.as_slice() {
            [] => Err(invalid(format!("--{name} needs a value"))),
            [raw] => parse_value(raw, name).map(Some),
            many => Err(invalid(format!(
                "--{name} given {} times, expected once",
                many.len()
            ))),
        }
    }

    /// `--name V` at most once, or `default`.
    pub(crate) fn value<T: FromStr>(&mut self, name: &str, default: T) -> Result<T> {
        Ok(self.opt(name)?.unwrap_or(default))
    }

    /// `--name V`, any number of times, in the order given.
    pub(crate) fn many(&mut self, name: &str) -> Result<Vec<String>> {
        match self.0.remove(name) {
            Some(values) if values.is_empty() => Err(invalid(format!("--{name} needs a value"))),
            values => Ok(values.unwrap_or_default()),
        }
    }

    /// A bare `--name`: present or not.
    pub(crate) fn bare(&mut self, name: &str) -> Result<bool> {
        match self.0.remove(name) {
            Some(values) if !values.is_empty() => Err(invalid(format!("--{name} takes no value"))),
            values => Ok(values.is_some()),
        }
    }

    /// `--name V` at most once, `V` being one of `choices`.
    pub(crate) fn one_of(&mut self, name: &str, choices: &[&str]) -> Result<Option<String>> {
        let chosen: Option<String> = self.opt(name)?;
        match &chosen {
            Some(v) if !choices.contains(&v.as_str()) => Err(invalid(format!(
                "--{name} expects {}, got `{v}`",
                choices.join("|")
            ))),
            _ => Ok(chosen),
        }
    }

    /// `--format json|human` (`analyze`, `serve`/`submit`): is it `json`?
    pub(crate) fn json(&mut self) -> Result<bool> {
        let format = self.one_of("format", &["json", "human"])?;
        Ok(format.as_deref() == Some("json"))
    }

    /// `--shards N` (`plan`/`run`/`analyze`/`chaos`), rejecting 0 — the
    /// engine treats 0 as 1, but the CLI insists on an honest value.
    pub(crate) fn shards(&mut self, default: usize) -> Result<usize> {
        match self.value("shards", default)? {
            0 => Err(invalid("--shards must be at least 1")),
            n => Ok(n),
        }
    }

    /// Refuses every flag no reader asked for: a misspelt knob must not
    /// run as if it had been set.
    pub(crate) fn finish(self, sub: &str) -> Result<()> {
        if self.0.is_empty() {
            return Ok(());
        }
        let unread: Vec<String> = self.0.keys().map(|name| format!("`--{name}`")).collect();
        let unread = unread.join(", ");
        Err(invalid(format!("`{sub}` takes no flag {unread}")))
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
             --handshake-timeout-ms 500 --fault-plan drop,from=3",
        ))
        .unwrap() else {
            panic!()
        };
        assert_eq!(s.listen.as_deref(), Some("uds:/tmp/edgelet.sock"));
        assert_eq!(s.expected_workers, 3);
        assert_eq!(s.handshake_timeout_ms, 500);
        assert_eq!(s.query.fault_plan.as_deref(), Some("drop,from=3"));
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
    fn a_flag_nobody_reads_is_refused_by_name() {
        // A typo, another subcommand's knob, a value missing or given
        // to a bare flag, a flag that no longer exists: the first seven
        // ran as if nothing had been typed before readers consumed.
        for (line, flag) in [
            ("run --sharsd 4", "--sharsd"),
            ("run --workers 2", "--workers"),
            ("run --dot", "--dot"),
            ("dataset --bogus 1", "--bogus"),
            ("chaos --cap 5", "--cap"),
            ("worker --connect a --seed 3", "--seed"),
            ("submit --failure-P 0.3", "--failure-P"),
            ("plan --cap", "--cap"),
            ("plan --separate", "--separate"),
            ("submit --durable yes", "--durable"),
            ("serve --transport uds", "--transport"),
            ("serve --net-fault-plan drop,from=3", "--net-fault-plan"),
        ] {
            let err = parse(&argv(line)).expect_err(line).to_string();
            assert!(err.contains(flag), "{line}: {err}");
        }
        let err = parse(&argv("run --sharsd 4 --workers 9"))
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("`run` takes no flag `--sharsd`, `--workers`"),
            "{err}"
        );
        // A flag is bare or valued by what follows it, not by a list.
        assert!(parse(&argv("plan --dot --cap 5")).is_ok());
        assert!(parse(&argv("plan --cap 5 --dot")).is_ok());
        assert!(parse(&argv("plan --seed --seed 3")).is_err());
    }

    #[test]
    fn a_fault_plan_is_one_valid_line() {
        let Command::Run(q) = parse(&argv("run --fault-plan delay,extra-ms=50")).unwrap() else {
            panic!()
        };
        assert_eq!(q.fault_plan.as_deref(), Some("delay,extra-ms=50"));
        // A line break would split the world-spec line that carries it.
        for plan in ["drop\nseed=3", "drop\r", "drop\n"] {
            let line = ["run", "--fault-plan", plan].map(String::from);
            let err = parse(&line).expect_err(plan).to_string();
            assert!(err.contains("line break"), "{plan:?}: {err}");
        }
        assert!(parse(&argv("run --fault-plan reorder")).is_err());
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
