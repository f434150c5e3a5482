//! The metric tables: every name the benchmark prints, with its unit
//! and direction. `BENCHMARK.json` lists the same names; a test keeps
//! the two in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One metric's definition.
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: "higher",
    }
}

/// What a Querier or operator sees; printed by `--trace 0` and gated.
pub const END_TO_END: [Def; 4] = [
    higher("queries_per_s", "1/s"),
    lower("query_p50_ms", "ms"),
    lower("setup_s", "s"),
    lower("msg_bytes_per_query", "bytes"),
];

/// Single layers; printed by `--trace 1`, never gated.
pub const PER_LAYER: [Def; 64] = [
    lower("core.platform_build_ms", "ms"),
    lower("query.plan_ms", "ms"),
    lower("query.plan_operators", "count"),
    lower("exec.assemble_ms", "ms"),
    lower("exec.finish_report_ms", "ms"),
    lower("exec.actor_calls", "count"),
    lower("exec.actor_ms", "ms"),
    lower("exec.actor_ms.contributor", "ms"),
    lower("exec.actor_ms.builder", "ms"),
    lower("exec.actor_ms.computer", "ms"),
    lower("exec.actor_ms.combiner", "ms"),
    lower("exec.actor_ms.querier", "ms"),
    lower("ml.isolated_lloyd_ns_per_point", "ns"),
    lower("ml.isolated_grouping_ns_per_row", "ns"),
    higher("crypto.isolated_aead_mib_per_s", "MiB/s"),
    lower("sim.execute_ms", "ms"),
    lower("sim.engine_self_ms", "ms"),
    lower("sim.events_per_query", "count"),
    higher("sim.events_per_s", "1/s"),
    lower("sim.same_world_query_ms", "ms"),
    lower("live.world_build_ms", "ms"),
    lower("live.run_until_ms", "ms"),
    lower("live.engine_self_ms", "ms"),
    lower("live.transport_submit_calls", "count"),
    lower("live.transport_submit_us", "us"),
    lower("live.transport_drain_calls", "count"),
    lower("live.transport_drain_us", "us"),
    lower("live.submit_self_ms", "ms"),
    lower("live.teardown_ms", "ms"),
    lower("live.unpinned_query_p50_ms", "ms"),
    lower("wire.msgs_per_query", "count"),
    lower("wire.envelope_bytes_per_query", "bytes"),
    higher("wire.isolated_encode_mib_per_s", "MiB/s"),
    higher("wire.isolated_decode_mib_per_s", "MiB/s"),
    lower("store.append_calls_per_query", "count"),
    lower("store.append_us", "us"),
    lower("store.sync_calls_per_query", "count"),
    lower("store.sync_us", "us"),
    lower("store.wal_bytes_per_query", "bytes"),
    lower("store.checkpoints_per_query", "count"),
    lower("store.checkpoint_ms", "ms"),
    lower("store.segments_rotated", "count"),
    lower("store.isolated_commit_us", "us"),
    lower("store.recovery_ms", "ms"),
    higher("store.recovery_records_per_s", "1/s"),
    lower("net.submit_rtt_ms", "ms"),
    lower("net.client_hop_ms", "ms"),
    lower("net.try_run_ms", "ms"),
    lower("net.world_build_ms.daemon", "ms"),
    lower("net.world_build_ms.worker", "ms"),
    lower("net.window_self_ms", "ms"),
    lower("net.fallbacks", "count"),
    lower("net.read_syscalls_per_query", "count"),
    lower("net.write_syscalls_per_query", "count"),
    lower("net.socket_bytes_per_query", "bytes"),
    lower("net.isolated_ping_rtt_us", "us"),
    higher("net.isolated_frame_mib_per_s", "MiB/s"),
    lower("proc.cpu_ms_per_query", "ms"),
    lower("proc.peak_rss_mib", "MiB"),
    lower("proc.vol_ctx_switches_per_query", "count"),
    lower("client.query_p90_ms", "ms"),
    lower("client.query_p99_ms", "ms"),
    lower("trace.overhead_pct", "%"),
    lower("trace.unattributed_pct", "%"),
];

/// Measured values by metric name.
#[derive(Default)]
pub struct Values(BTreeMap<String, f64>);

impl Values {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    /// The value measured for `name`. Panics when a listed metric was
    /// never set: the tables and the measuring code have drifted apart.
    pub fn get(&self, name: &str) -> f64 {
        *self
            .0
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} is listed but was not measured"))
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}` for `defs`, in order.
    pub fn to_json(&self, defs: &[Def]) -> String {
        let mut out = String::from("{");
        for (i, def) in defs.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                def.name,
                self.get(def.name),
                def.unit
            );
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `{"name": .., "unit": .., "better": ..}` object of one
    /// top-level array of `BENCHMARK.json`.
    fn listed(json: &str, section: &str) -> Vec<(String, String, String)> {
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section is an array")];
        let value = |object: &str, key: &str| -> String {
            let rest = &object[object.find(&format!("\"{key}\"")).expect("key present")..];
            rest.split('"').nth(3).expect("string value").to_string()
        };
        body.split('{')
            .skip(1)
            .map(|o| (value(o, "name"), value(o, "unit"), value(o, "better")))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for (section, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let ours: Vec<_> = defs
                .iter()
                .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.to_string()))
                .collect();
            assert_eq!(listed(&json, section), ours, "{section}");
        }
        let workloads: Vec<&str> = crate::inputs::WORKLOADS.iter().map(|w| w.name).collect();
        for name in workloads {
            assert!(json.contains(&format!("\"name\": \"{name}\"")), "{name}");
        }
    }

    #[test]
    fn json_carries_values_in_table_order() {
        let mut v = Values::default();
        v.set("setup_s", 0.25);
        v.set("queries_per_s", 100.5);
        assert_eq!(
            v.to_json(&END_TO_END[..1]),
            "{\"queries_per_s\": {\"value\": 100.5, \"unit\": \"1/s\"}}"
        );
    }
}
