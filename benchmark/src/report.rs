//! Metric names, units and bounds — the one table `BENCHMARK.json` is generated from — and
//! the result a run prints.

use std::fmt::Write as _;

use crate::workload::specs;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One metric the benchmark reports.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may get worse.
    pub bound: Option<f64>,
}

const fn gated(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef { name, unit, better: Better::Lower, bound: Some(bound) }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Lower, bound: None }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Higher, bound: None }
}

/// What a user of the system sees, all lower-is-better, each with its regression bound.
///
/// Only what repeats on this host is gated.  Steady-state timings (`loadgen.server_cpu_*`,
/// `loadgen.notify_*`) are per-layer metrics: the same tile workload's CPU per report drifted
/// by a quarter between two sets of runs of identical code (see `README.md`).
pub const END_TO_END: &[MetricDef] = &[
    gated("setup_s", "s", 0.25),
    gated("packets_per_epoch", "count", 0.05),
    gated("wire_bytes_per_report", "bytes", 0.12),
    gated("server_rss_mb", "mb", 0.25),
];

/// Single-layer metrics, by crate.  Counts come from the measured run, times from the traced
/// run.  Directions say which way a change to that layer alone would count as better.
pub const PER_LAYER: &[MetricDef] = &[
    lower("net.self_ns_per_report", "ns"),
    higher("net.reports_per_tick", "count"),
    lower("net.bytes_in_per_report", "bytes"),
    lower("net.bytes_out_per_report", "bytes"),
    lower("net.outbox_peak_bytes", "bytes"),
    lower("net.paused", "count"),
    lower("net.closed_backpressure", "count"),
    lower("net.closed_error", "count"),
    lower("proto.decode_ns_per_request", "ns"),
    lower("proto.encode_ns_per_response", "ns"),
    lower("proto.request_bytes", "bytes"),
    lower("proto.response_bytes", "bytes"),
    lower("proto.packets_per_response", "count"),
    lower("proto.ns_per_report", "ns"),
    lower("sim.enqueue_ns_per_request", "ns"),
    lower("sim.process_ns_per_report", "ns"),
    lower("sim.tick_ns_per_session", "ns"),
    lower("sim.tick_ns_per_advanced", "ns"),
    lower("sim.server_self_ns_per_report", "ns"),
    lower("sim.engine_self_ns_per_report", "ns"),
    lower("sim.updated_share", "share"),
    lower("sim.starved_share", "share"),
    lower("sim.violators_per_update", "count"),
    lower("sim.register_ns_per_group", "ns"),
    lower("sim.deregister_ns_per_group", "ns"),
    lower("sim.world_change_ms", "ms"),
    lower("sim.invalidated_per_change", "count"),
    lower("core.self_ns_per_report", "ns"),
    lower("core.self_us_per_update", "us"),
    lower("core.compute_p50_us", "us"),
    lower("core.compute_p99_us", "us"),
    lower("core.updates_per_report", "share"),
    lower("core.rtree_queries_per_update", "count"),
    lower("core.verify_calls_per_update", "count"),
    lower("core.candidates_checked_per_update", "count"),
    higher("core.tiles_accepted_per_update", "count"),
    lower("core.tile_reject_share", "share"),
    higher("core.buffer_reuse_share", "share"),
    lower("core.region_values_per_update", "count"),
    lower("index.ns_per_report", "ns"),
    lower("index.gnn_ns_per_query", "ns"),
    lower("index.gnn_node_accesses", "count"),
    lower("index.candidate_ns_per_query", "ns"),
    lower("index.candidates_per_query", "count"),
    lower("index.bulk_load_ms", "ms"),
    lower("index.insert_ns", "ns"),
    lower("index.delete_ns", "ns"),
    lower("index.overlay_len", "count"),
    lower("index.compactions", "count"),
    higher("index.cache_hit_share", "share"),
    higher("index.cache_speedup", "ratio"),
    lower("pool.batches_per_tick", "count"),
    lower("pool.steals_per_tick", "count"),
    lower("pool.imbalance_per_tick", "count"),
    higher("pool.tick_speedup", "ratio"),
    lower("mobility.gen_s", "s"),
    lower("loadgen.input_mb", "mb"),
    lower("loadgen.cpu_share", "share"),
    lower("loadgen.send_lag_p50_ms", "ms"),
    lower("loadgen.send_lag_p99_ms", "ms"),
    higher("loadgen.sat_reports_per_s", "1/s"),
    lower("loadgen.client_bound", "count"),
    lower("loadgen.server_utilisation", "share"),
    lower("loadgen.server_cpu_us_per_report", "us"),
    lower("loadgen.notify_p50_ms", "ms"),
    lower("loadgen.notify_p90_ms", "ms"),
    lower("loadgen.notify_p99_ms", "ms"),
    lower("loadgen.notify_ptop_ms", "ms"),
    higher("loadgen.notifications_expected", "count"),
    higher("loadgen.notifications_received", "count"),
    lower("loadgen.failed_share", "share"),
    lower("trace.overhead_share", "share"),
    lower("trace.unattributed_share", "share"),
    lower("trace.rounds", "count"),
];

/// The command `BENCHMARK.json` names; the driver appends the run's arguments.
const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// How long one run measures, in seconds; fixes every workload's epoch counts.
pub const RUN_SECONDS: u32 = 20;

fn def_of(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|def| def.name == name)
}

/// The values one run measured, by metric name.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    /// Records a metric.  Only names of the tables above exist; a value that is not a finite
    /// number (a ratio over an empty sample) is recorded as 0.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = def_of(name).unwrap_or_else(|| panic!("{name} is not a metric of the benchmark"));
        let value = if value.is_finite() { value } else { 0.0 };
        match self.0.iter_mut().find(|(n, _)| *n == def.name) {
            Some((_, v)) => *v = value,
            None => self.0.push((def.name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// Prints every recorded metric by name with its unit.
    pub fn print(&self) {
        for (name, value) in &self.0 {
            let def = def_of(name).expect("set() checked the name");
            println!("{name:<36} {value:>16.4} {}", def.unit);
        }
    }
}

/// The last line of a run: exactly `correct`, `attempted`, `failed` and the metrics of the
/// mode (`--trace 0`: every end-to-end metric; `--trace 1`: every per-layer metric).
pub fn result_line(
    metrics: &Metrics,
    table: &[MetricDef],
    correct: bool,
    attempted: usize,
    failed: usize,
) -> String {
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, def) in table.iter().enumerate() {
        let value =
            metrics.get(def.name).unwrap_or_else(|| panic!("the run did not measure {}", def.name));
        let comma = if i == 0 { "" } else { ", " };
        write!(line, "{comma}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", def.name, def.unit)
            .expect("writing to a string");
    }
    line.push_str("}}");
    line
}

/// A result line read back.
#[derive(Debug, PartialEq)]
pub struct ParsedResult {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<(String, f64)>,
}

/// Reads a result line back: correctness, counts and every metric value.
pub fn parse_result_line(line: &str) -> Option<ParsedResult> {
    let field = |key: &str| {
        let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
        let rest = &line[at..];
        Some(&rest[..rest.find([',', '}'])?])
    };
    let correct = field("correct")? == "true";
    let attempted = field("attempted")?.parse().ok()?;
    let failed = field("failed")?.parse().ok()?;
    let mut metrics = Vec::new();
    let mut rest = &line[line.find("\"metrics\": {")? + 12..];
    while let Some(open) = rest.find("\": {\"value\": ") {
        let name = &rest[rest[..open].rfind('"')? + 1..open];
        let after = &rest[open + 13..];
        let value = after[..after.find(',')?].parse().ok()?;
        metrics.push((name.to_owned(), value));
        rest = after;
    }
    Some(ParsedResult { correct, attempted, failed, metrics })
}

/// `BENCHMARK.json`, generated from the tables so the two cannot drift apart.
pub fn manifest() -> String {
    let quoted =
        |items: &[&str]| items.iter().map(|s| format!("\"{s}\"")).collect::<Vec<_>>().join(", ");
    let better = |def: &MetricDef| match def.better {
        Better::Lower => "lower",
        Better::Higher => "higher",
    };
    let mut out = String::from("{\n");
    writeln!(out, "  \"command\": [{}],", quoted(&COMMAND)).expect("writing to a string");
    writeln!(out, "  \"paths\": [\"benchmark\"],").expect("writing to a string");
    writeln!(out, "  \"run_seconds\": {RUN_SECONDS},").expect("writing to a string");
    let workloads: Vec<String> = specs()
        .iter()
        .map(|spec| {
            let why = spec.why.split_whitespace().collect::<Vec<_>>().join(" ");
            format!("    {{\"name\": \"{}\", \"why\": \"{why}\"}}", spec.name)
        })
        .collect();
    writeln!(out, "  \"workloads\": [\n{}\n  ],", workloads.join(",\n"))
        .expect("writing to a string");
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|def| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                def.name,
                def.unit,
                better(def),
                def.bound.expect("end-to-end metrics are bounded")
            )
        })
        .collect();
    writeln!(out, "  \"end_to_end\": [\n{}\n  ],", end_to_end.join(",\n"))
        .expect("writing to a string");
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|def| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                def.name,
                def.unit,
                better(def)
            )
        })
        .collect();
    writeln!(out, "  \"per_layer\": [\n{}\n  ]", per_layer.join(",\n"))
        .expect("writing to a string");
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_checked_in_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let checked_in = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(checked_in, manifest(), "regenerate it with `mpn-benchmark manifest`");
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        names.extend(specs().iter().map(|s| s.name));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
        for name in names {
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(END_TO_END.iter().any(|d| d.name == "setup_s" && d.unit == "s"));
        assert!(PER_LAYER.len() <= 128 && specs().iter().all(|s| s.why.len() <= 200));
    }

    #[test]
    fn a_result_line_reads_back() {
        let mut metrics = Metrics::default();
        for def in END_TO_END {
            metrics.set(def.name, 1.25);
        }
        metrics.set("setup_s", 0.8127);
        metrics.set("packets_per_epoch", f64::NAN);
        let line = result_line(&metrics, END_TO_END, true, 1000, 0);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1000, \"failed\": 0, "));
        let parsed = parse_result_line(&line).expect("parses");
        assert!(parsed.correct);
        assert_eq!((parsed.attempted, parsed.failed), (1000, 0));
        assert_eq!(parsed.metrics.len(), END_TO_END.len());
        assert_eq!(parsed.metrics[0], ("setup_s".to_owned(), 0.8127));
        assert_eq!(parsed.metrics[1], ("packets_per_epoch".to_owned(), 0.0));
    }
}
