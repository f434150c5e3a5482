//! Replayable repro corpus: one file per failing (or pinned-clean)
//! chaos run, line-oriented and diff-friendly.
//!
//! Format (`#` starts a comment, keys are `key = value`):
//!
//! ```text
//! # free-form description
//! version = 1
//! scenario = grouping
//! seed = 17
//! plan = dup-partials
//! expect = clean                      # or comma-separated oracle names
//! rule = duplicate kinds=4,6 from=* to=* skip=0 limit=* after_us=* until_us=* delay_us=5000
//! ```
//!
//! `rule` lines serialize the exact [`FaultRule`]s (one line per rule,
//! in evaluation order), so an entry replays bit-for-bit even if the
//! plan catalog evolves. Replaying runs the scenario under the stored
//! plan and compares the oracle signature against `expect` — a corpus
//! entry is a regression test for one invariant verdict.
//!
//! A *storage* entry carries `storage` lines instead of `rule` lines
//! (the two kinds are mutually exclusive — storage drills run the live
//! durable service over a clean network):
//!
//! ```text
//! storage = torn-tail at_append=2 keep=6
//! storage = failed-sync at_append=1 times=2
//! ```
//!
//! Replaying a storage entry runs the three-incarnation drill of
//! [`crate::storage`] (baseline, faulted, recovered) and compares the
//! recovered run's oracle signature — with the synthetic name
//! `storage-drained` for a deterministic drain — against `expect`.
//! Byte parity with the baseline is part of the verdict: a recovered
//! run that diverges never matches.

use crate::oracle::signature;
use crate::scenario::ChaosScenario;
use edgelet_sim::{Duration, FaultAction, FaultPlan, FaultRule, MsgMatch, SimTime};
use edgelet_store::{StorageFaultAction, StorageFaultPlan, StorageFaultRule};
use edgelet_util::ids::DeviceId;
use edgelet_util::{Error, Result};
use std::path::Path;

/// One corpus entry: a (scenario, seed, plan) triple plus the oracle
/// verdict it must replay to.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusEntry {
    /// Scenario name (see [`ChaosScenario::name`]).
    pub scenario: String,
    /// World seed.
    pub seed: u64,
    /// Human-facing plan name (informational; the `rule` lines are
    /// authoritative).
    pub plan_name: String,
    /// Sorted oracle names expected to fire; empty means clean.
    pub expect: Vec<String>,
    /// The exact fault plan to replay.
    pub plan: FaultPlan,
    /// Storage faults to inject instead (empty for network entries;
    /// mutually exclusive with `plan` rules at replay time).
    pub storage: StorageFaultPlan,
    /// WAL segment-size override for storage drills (`None` = service
    /// default), so entries can pin faults at rotation boundaries.
    pub segment_bytes: Option<u64>,
}

/// Outcome of replaying one corpus entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayReport {
    /// Oracle names that actually fired (sorted, deduplicated).
    pub oracles: Vec<String>,
    /// Trace digest of the replayed run.
    pub trace_digest: u64,
    /// Whether the verdict matches the entry's `expect` line.
    pub matches: bool,
}

fn invalid(msg: impl Into<String>) -> Error {
    Error::InvalidConfig(msg.into())
}

fn fmt_ids(ids: &Option<Vec<DeviceId>>) -> String {
    match ids {
        None => "*".into(),
        Some(v) => v
            .iter()
            .map(|d| d.raw().to_string())
            .collect::<Vec<_>>()
            .join(","),
    }
}

fn fmt_u16s(ks: &Option<Vec<u16>>) -> String {
    match ks {
        None => "*".into(),
        Some(v) => v
            .iter()
            .map(|k| k.to_string())
            .collect::<Vec<_>>()
            .join(","),
    }
}

fn fmt_opt_time(t: &Option<SimTime>) -> String {
    match t {
        None => "*".into(),
        Some(t) => t.as_micros().to_string(),
    }
}

fn fmt_rule(rule: &FaultRule) -> String {
    let (action, delay_us) = match rule.action {
        FaultAction::Drop => ("drop", 0),
        FaultAction::Delay(d) => ("delay", d.as_micros()),
        FaultAction::Duplicate { extra_delay } => ("duplicate", extra_delay.as_micros()),
        FaultAction::Reorder => ("reorder", 0),
        FaultAction::CrashSender => ("crash-sender", 0),
        FaultAction::CrashReceiver => ("crash-receiver", 0),
    };
    format!(
        "{action} kinds={} from={} to={} skip={} limit={} after_us={} until_us={} delay_us={delay_us}",
        fmt_u16s(&rule.matcher.kinds),
        fmt_ids(&rule.matcher.from),
        fmt_ids(&rule.matcher.to),
        rule.skip,
        rule.limit.map_or("*".into(), |l| l.to_string()),
        fmt_opt_time(&rule.matcher.after),
        fmt_opt_time(&rule.matcher.until),
    )
}

fn parse_opt<T, F: Fn(&str) -> Result<T>>(s: &str, f: F) -> Result<Option<Vec<T>>> {
    if s == "*" {
        return Ok(None);
    }
    s.split(',')
        .map(|p| f(p.trim()))
        .collect::<Result<Vec<T>>>()
        .map(Some)
}

fn parse_u64(s: &str, what: &str) -> Result<u64> {
    s.parse::<u64>()
        .map_err(|_| invalid(format!("corpus: bad {what} value {s:?}")))
}

fn parse_rule(line: &str) -> Result<FaultRule> {
    let mut parts = line.split_whitespace();
    let action_name = parts
        .next()
        .ok_or_else(|| invalid("corpus: empty rule line"))?;
    let mut kinds = None;
    let mut from = None;
    let mut to = None;
    let mut skip = 0u64;
    let mut limit = None;
    let mut after = None;
    let mut until = None;
    let mut delay_us = 0u64;
    for field in parts {
        let (key, value) = field
            .split_once('=')
            .ok_or_else(|| invalid(format!("corpus: bad rule field {field:?}")))?;
        match key {
            "kinds" => {
                kinds = parse_opt(value, |p| {
                    p.parse::<u16>()
                        .map_err(|_| invalid(format!("corpus: bad kind {p:?}")))
                })?
            }
            "from" => {
                from = parse_opt(value, |p| parse_u64(p, "device").map(DeviceId::new))?;
            }
            "to" => {
                to = parse_opt(value, |p| parse_u64(p, "device").map(DeviceId::new))?;
            }
            "skip" => skip = parse_u64(value, "skip")?,
            "limit" => {
                limit = if value == "*" {
                    None
                } else {
                    Some(parse_u64(value, "limit")?)
                }
            }
            "after_us" => {
                after = if value == "*" {
                    None
                } else {
                    Some(SimTime::from_micros(parse_u64(value, "after_us")?))
                }
            }
            "until_us" => {
                until = if value == "*" {
                    None
                } else {
                    Some(SimTime::from_micros(parse_u64(value, "until_us")?))
                }
            }
            "delay_us" => delay_us = parse_u64(value, "delay_us")?,
            other => return Err(invalid(format!("corpus: unknown rule field {other:?}"))),
        }
    }
    let action = match action_name {
        "drop" => FaultAction::Drop,
        "delay" => FaultAction::Delay(Duration::from_micros(delay_us)),
        "duplicate" => FaultAction::Duplicate {
            extra_delay: Duration::from_micros(delay_us),
        },
        "reorder" => FaultAction::Reorder,
        "crash-sender" => FaultAction::CrashSender,
        "crash-receiver" => FaultAction::CrashReceiver,
        other => return Err(invalid(format!("corpus: unknown action {other:?}"))),
    };
    Ok(FaultRule {
        matcher: MsgMatch {
            kinds,
            from,
            to,
            after,
            until,
        },
        action,
        skip,
        limit,
    })
}

fn fmt_storage_rule(rule: &StorageFaultRule) -> String {
    let param = match &rule.action {
        StorageFaultAction::TornTail { keep } | StorageFaultAction::TruncatedRecord { keep } => {
            format!("keep={keep}")
        }
        StorageFaultAction::FailedSync { times } => format!("times={times}"),
        StorageFaultAction::CorruptChecksum { byte } => format!("byte={byte}"),
    };
    format!(
        "{} at_append={} {param}",
        rule.action.name(),
        rule.at_append
    )
}

fn parse_storage_rule(line: &str) -> Result<StorageFaultRule> {
    let mut parts = line.split_whitespace();
    let action_name = parts
        .next()
        .ok_or_else(|| invalid("corpus: empty storage line"))?;
    let mut at_append = None;
    let mut keep = None;
    let mut times = None;
    let mut byte = None;
    for field in parts {
        let (key, value) = field
            .split_once('=')
            .ok_or_else(|| invalid(format!("corpus: bad storage field {field:?}")))?;
        match key {
            "at_append" => at_append = Some(parse_u64(value, "at_append")?),
            "keep" => keep = Some(parse_u64(value, "keep")?),
            "times" => times = Some(parse_u64(value, "times")?),
            "byte" => byte = Some(parse_u64(value, "byte")?),
            other => return Err(invalid(format!("corpus: unknown storage field {other:?}"))),
        }
    }
    let missing = |what: &str| invalid(format!("corpus: storage {action_name} missing {what}"));
    let action = match action_name {
        "torn-tail" => StorageFaultAction::TornTail {
            keep: keep.ok_or_else(|| missing("keep"))?,
        },
        "truncated-record" => StorageFaultAction::TruncatedRecord {
            keep: keep.ok_or_else(|| missing("keep"))?,
        },
        "failed-sync" => StorageFaultAction::FailedSync {
            times: u32::try_from(times.ok_or_else(|| missing("times"))?)
                .map_err(|_| invalid("corpus: storage times out of range"))?,
        },
        "corrupt-checksum" => StorageFaultAction::CorruptChecksum {
            byte: byte.ok_or_else(|| missing("byte"))?,
        },
        other => return Err(invalid(format!("corpus: unknown storage action {other:?}"))),
    };
    Ok(StorageFaultRule {
        at_append: at_append.ok_or_else(|| missing("at_append"))?,
        action,
    })
}

impl CorpusEntry {
    /// Serializes the entry (inverse of [`CorpusEntry::parse`]).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("version = 1\n");
        out.push_str(&format!("scenario = {}\n", self.scenario));
        out.push_str(&format!("seed = {}\n", self.seed));
        out.push_str(&format!("plan = {}\n", self.plan_name));
        out.push_str(&format!(
            "expect = {}\n",
            if self.expect.is_empty() {
                "clean".to_string()
            } else {
                self.expect.join(",")
            }
        ));
        for rule in &self.plan.rules {
            out.push_str(&format!("rule = {}\n", fmt_rule(rule)));
        }
        for rule in &self.storage.rules {
            out.push_str(&format!("storage = {}\n", fmt_storage_rule(rule)));
        }
        if let Some(bytes) = self.segment_bytes {
            out.push_str(&format!("segment_bytes = {bytes}\n"));
        }
        out
    }

    /// Parses an entry from its textual form.
    pub fn parse(text: &str) -> Result<CorpusEntry> {
        let mut scenario = None;
        let mut seed = None;
        let mut plan_name = None;
        let mut expect = None;
        let mut rules = Vec::new();
        let mut storage_rules = Vec::new();
        let mut segment_bytes = None;
        for raw in text.lines() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| invalid(format!("corpus: bad line {line:?}")))?;
            let (key, value) = (key.trim(), value.trim());
            match key {
                "version" => {
                    if value != "1" {
                        return Err(invalid(format!("corpus: unsupported version {value:?}")));
                    }
                }
                "scenario" => scenario = Some(value.to_string()),
                "seed" => seed = Some(parse_u64(value, "seed")?),
                "plan" => plan_name = Some(value.to_string()),
                "expect" => {
                    expect = Some(if value == "clean" {
                        Vec::new()
                    } else {
                        value.split(',').map(|s| s.trim().to_string()).collect()
                    })
                }
                "rule" => rules.push(parse_rule(value)?),
                "storage" => storage_rules.push(parse_storage_rule(value)?),
                "segment_bytes" => {
                    segment_bytes = Some(parse_u64(value, "segment_bytes")?);
                }
                other => return Err(invalid(format!("corpus: unknown key {other:?}"))),
            }
        }
        Ok(CorpusEntry {
            scenario: scenario.ok_or_else(|| invalid("corpus: missing scenario"))?,
            seed: seed.ok_or_else(|| invalid("corpus: missing seed"))?,
            plan_name: plan_name.ok_or_else(|| invalid("corpus: missing plan"))?,
            expect: expect.ok_or_else(|| invalid("corpus: missing expect"))?,
            plan: FaultPlan { rules },
            storage: StorageFaultPlan {
                rules: storage_rules,
            },
            segment_bytes,
        })
    }

    /// Replays the entry and compares the oracle verdict.
    pub fn replay(&self) -> Result<ReplayReport> {
        self.replay_with_shards(1)
    }

    /// [`CorpusEntry::replay`] under an explicit simulator shard count.
    /// The report is bit-identical for every value. Storage entries
    /// run the durability drill instead of the sharded simulator (the
    /// drill has no shard knob; the count is ignored).
    pub fn replay_with_shards(&self, shards: usize) -> Result<ReplayReport> {
        let scenario = ChaosScenario::from_name(&self.scenario)
            .ok_or_else(|| invalid(format!("corpus: unknown scenario {:?}", self.scenario)))?;
        if !self.storage.rules.is_empty() {
            if !self.plan.rules.is_empty() {
                return Err(invalid(
                    "corpus: an entry cannot mix rule and storage lines (storage \
                     drills run the durable live service over a clean network)",
                ));
            }
            let drill = crate::storage::run_storage_drill(
                scenario,
                self.seed,
                &self.storage,
                self.segment_bytes,
            )?;
            let matches = drill.acceptable() && drill.oracles == self.expect;
            return Ok(ReplayReport {
                oracles: drill.oracles,
                trace_digest: drill.trace_digest,
                matches,
            });
        }
        let (violations, trace_digest) =
            crate::campaign::run_one_sharded(scenario, self.seed, &self.plan, shards)?;
        let oracles = signature(&violations);
        let matches = oracles == self.expect;
        Ok(ReplayReport {
            oracles,
            trace_digest,
            matches,
        })
    }
}

/// Loads every `*.chaos` entry in a directory, sorted by file name.
pub fn load_dir(dir: &Path) -> Result<Vec<(String, CorpusEntry)>> {
    let mut out = Vec::new();
    let entries = std::fs::read_dir(dir)
        .map_err(|e| invalid(format!("corpus: cannot read {}: {e}", dir.display())))?;
    let mut paths: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "chaos"))
        .collect();
    paths.sort();
    for path in paths {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| invalid(format!("corpus: cannot read {}: {e}", path.display())))?;
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let entry =
            CorpusEntry::parse(&text).map_err(|e| invalid(format!("corpus: {name}: {e}")))?;
        out.push((name, entry));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plans::plan_for_seed;

    #[test]
    fn entries_round_trip_through_text() {
        for scenario in ChaosScenario::ALL {
            for seed in [2u64, 5, 6] {
                let named = plan_for_seed(scenario, seed).unwrap();
                let entry = CorpusEntry {
                    scenario: scenario.name().to_string(),
                    seed,
                    plan_name: named.name.to_string(),
                    expect: Vec::new(),
                    plan: named.plan,
                    storage: StorageFaultPlan::new(),
                    segment_bytes: None,
                };
                let parsed = CorpusEntry::parse(&entry.to_text()).unwrap();
                assert_eq!(parsed, entry);
            }
        }
    }

    #[test]
    fn comments_and_expect_lists_parse() {
        let text = "\
# a failing repro
version = 1
scenario = grouping
seed = 3
plan = hand-written
expect = zombie-send,liability-cap
rule = drop kinds=4 from=1,2 to=* skip=2 limit=1 after_us=1000 until_us=* delay_us=0
";
        let entry = CorpusEntry::parse(text).unwrap();
        assert_eq!(entry.expect, vec!["zombie-send", "liability-cap"]);
        assert_eq!(entry.plan.rules.len(), 1);
        assert_eq!(entry.plan.rules[0].skip, 2);
        assert_eq!(entry.plan.rules[0].limit, Some(1));
        let text2 = entry.to_text();
        assert_eq!(CorpusEntry::parse(&text2).unwrap(), entry);
    }

    #[test]
    fn storage_entries_round_trip_through_text() {
        let entry = CorpusEntry {
            scenario: "grouping".into(),
            seed: 5,
            plan_name: "storage-torn-tail".into(),
            expect: Vec::new(),
            plan: FaultPlan::new(),
            storage: StorageFaultPlan::new()
                .with(2, StorageFaultAction::TornTail { keep: 6 })
                .with(3, StorageFaultAction::TruncatedRecord { keep: 4 })
                .with(1, StorageFaultAction::FailedSync { times: 2 })
                .with(4, StorageFaultAction::CorruptChecksum { byte: 8 }),
            segment_bytes: Some(256),
        };
        let text = entry.to_text();
        assert!(
            text.contains("storage = torn-tail at_append=2 keep=6"),
            "{text}"
        );
        assert!(text.contains("segment_bytes = 256"), "{text}");
        assert_eq!(CorpusEntry::parse(&text).unwrap(), entry);
    }

    #[test]
    fn mixed_rule_and_storage_entries_refuse_to_replay() {
        let text = "\
version = 1
scenario = grouping
seed = 1
plan = mixed
expect = clean
rule = drop kinds=* from=* to=* skip=0 limit=* after_us=* until_us=* delay_us=0
storage = torn-tail at_append=2 keep=6
";
        let entry = CorpusEntry::parse(text).unwrap();
        assert!(entry.replay().is_err());
    }

    #[test]
    fn malformed_entries_are_rejected() {
        assert!(CorpusEntry::parse("scenario = grouping").is_err());
        assert!(CorpusEntry::parse(
            "version = 2\nscenario = g\nseed = 1\nplan = p\nexpect = clean"
        )
        .is_err());
        assert!(CorpusEntry::parse(
            "version = 1\nscenario = g\nseed = 1\nplan = p\nexpect = clean\nrule = explode"
        )
        .is_err());
        // Storage lines with unknown actions or missing parameters.
        for bad in [
            "storage = melt at_append=1",
            "storage = torn-tail keep=6",
            "storage = torn-tail at_append=2",
            "storage = failed-sync at_append=1 times=5000000000",
        ] {
            let text =
                format!("version = 1\nscenario = g\nseed = 1\nplan = p\nexpect = clean\n{bad}");
            assert!(CorpusEntry::parse(&text).is_err(), "{bad}");
        }
    }

    /// Regenerates the shipped corpus under `tests/chaos_corpus/` at the
    /// workspace root. Run after an intentional oracle or catalog change:
    ///
    /// ```text
    /// cargo test -p edgelet-chaos regenerate_corpus -- --ignored
    /// ```
    ///
    /// Every regenerated pin must come out clean — these entries exist to
    /// catch regressions of fixed invariants (e.g. the combiner ledger
    /// double-charge on duplicate partials), so a non-clean verdict at
    /// generation time means the codebase itself is broken.
    #[test]
    #[ignore = "writes tests/chaos_corpus; run explicitly after oracle/catalog changes"]
    fn regenerate_corpus() {
        use crate::campaign::run_one;
        use crate::plans::by_name;

        let pins: [(ChaosScenario, u64, &str, &str); 3] = [
            (
                ChaosScenario::Grouping,
                5,
                "dup-partials",
                "Pins the combiner idempotence guard: a duplicated grouping\n\
                 # partial must be merged and ledger-charged at most once, or the\n\
                 # liability-cap / combiner-aggregates-bound oracles fire.",
            ),
            (
                ChaosScenario::Grouping,
                7,
                "crash-combiner-on-first-partial",
                "Pins combiner failover: the primary dies on its first partial;\n\
                 # the backup replica must take over without ever being active\n\
                 # concurrently with a live lower rank (single-active-replica).",
            ),
            (
                ChaosScenario::KMeans,
                11,
                "crash-sender-on-final",
                "Pins crash semantics: a device crashed while sending the final\n\
                 # result must never transmit after its crash instant\n\
                 # (zombie-send).",
            ),
        ];
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/chaos_corpus");
        std::fs::create_dir_all(&dir).unwrap();
        for (scenario, seed, plan_name, comment) in pins {
            let named = by_name(scenario, seed, plan_name)
                .unwrap()
                .unwrap_or_else(|| panic!("no catalog plan `{plan_name}`"));
            let (violations, _digest) = run_one(scenario, seed, &named.plan).unwrap();
            let expect = signature(&violations);
            assert!(
                expect.is_empty(),
                "{}/{plan_name} pin must be clean, got {expect:?}",
                scenario.name()
            );
            let entry = CorpusEntry {
                scenario: scenario.name().to_string(),
                seed,
                plan_name: plan_name.to_string(),
                expect,
                plan: named.plan,
                storage: StorageFaultPlan::new(),
                segment_bytes: None,
            };
            let file = dir.join(format!("{}-{plan_name}-seed{seed}.chaos", scenario.name()));
            std::fs::write(&file, format!("# {comment}\n{}", entry.to_text())).unwrap();
        }

        // Storage pin: a torn tail on the completion append (the media
        // dies mid-write) must be repaired on restart, and the recovered
        // run must be byte-identical to the uninterrupted baseline and
        // oracle-clean.
        let storage = StorageFaultPlan::new().with(2, StorageFaultAction::TornTail { keep: 6 });
        let drill =
            crate::storage::run_storage_drill(ChaosScenario::Grouping, 5, &storage, None).unwrap();
        assert!(
            drill.parity && drill.oracles.is_empty() && drill.repaired_tail,
            "storage pin must be clean, got {drill:?}"
        );
        let entry = CorpusEntry {
            scenario: ChaosScenario::Grouping.name().to_string(),
            seed: 5,
            plan_name: "storage-torn-tail".to_string(),
            expect: Vec::new(),
            plan: FaultPlan::new(),
            storage,
            segment_bytes: None,
        };
        let comment = "Pins crash-restart durability: a WAL append torn mid-write\n\
                       # (power cut) is repaired on recovery and the interrupted query\n\
                       # finishes byte-identical to an uninterrupted run.";
        let file = dir.join("grouping-storage-torn-tail-seed5.chaos");
        std::fs::write(&file, format!("# {comment}\n{}", entry.to_text())).unwrap();

        // Segment-boundary pin: the same torn tail, but with 256-byte WAL
        // segments so the completion append lands in a freshly rotated
        // active segment. Recovery must leave the sealed segment intact,
        // repair only the active tail, and still reach byte parity.
        let storage = StorageFaultPlan::new().with(2, StorageFaultAction::TornTail { keep: 6 });
        let drill =
            crate::storage::run_storage_drill(ChaosScenario::Grouping, 5, &storage, Some(256))
                .unwrap();
        assert!(
            drill.parity && drill.oracles.is_empty() && drill.repaired_tail,
            "segment-boundary pin must be clean, got {drill:?}"
        );
        let entry = CorpusEntry {
            scenario: ChaosScenario::Grouping.name().to_string(),
            seed: 5,
            plan_name: "storage-segment-boundary".to_string(),
            expect: Vec::new(),
            plan: FaultPlan::new(),
            storage,
            segment_bytes: Some(256),
        };
        let comment = "Pins segment-boundary recovery: with 256-byte WAL segments the\n\
                       # torn completion append lands just after a rotation, so restart\n\
                       # must keep the sealed segment untouched, repair only the active\n\
                       # tail, and finish byte-identical to an uninterrupted run.";
        let file = dir.join("grouping-storage-segment-boundary-seed5.chaos");
        std::fs::write(&file, format!("# {comment}\n{}", entry.to_text())).unwrap();
    }

    #[test]
    fn baseline_entry_replays_clean() {
        let entry = CorpusEntry {
            scenario: "kmeans".into(),
            seed: 0,
            plan_name: "baseline".into(),
            expect: Vec::new(),
            plan: FaultPlan::new(),
            storage: StorageFaultPlan::new(),
            segment_bytes: None,
        };
        let report = entry.replay().unwrap();
        assert!(report.matches, "oracles fired: {:?}", report.oracles);
    }
}
