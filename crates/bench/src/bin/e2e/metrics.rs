//! The benchmark's metric glossary (name, unit, direction, bound,
//! definition) and the one-line JSON result every run ends with.
//!
//! `BENCHMARK.json` at the repo root lists the same names; the test at the
//! bottom of this file fails when the two drift apart.

use netsim::json;
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One glossary entry. `bound` is the relative worsening that counts as a
/// regression; only end-to-end metrics carry one.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
    pub definition: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    bound: f64,
    definition: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: Some(bound),
        definition,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    definition: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        definition,
    }
}

/// End-to-end metrics, reported per workload with tracing off. Timings are
/// at the reference speed (`sys::slowdown`; README, "The reference job").
///
/// Measured spread, `(Q3 - Q1) / median` of ten runs on ten seeds, as the
/// benchmark contract takes them, twice (seeds 201-210, then 301-310), at
/// the commit that added the benchmark, per workload of `BENCHMARK.json`
/// (`easylist_w1`, `smalllists_w1`, `dirty_full_w1`):
///
/// | metric              | first set, %    | second set, %   | medians moved, % |
/// |---------------------|-----------------|-----------------|------------------|
/// | `ns_per_record`     | 6.0   3.2   8.2 | 3.2   2.0   2.9 | -2.3  -2.9  -3.2 |
/// | `peak_rss_mb`       | 0.9   4.9   5.4 | 1.6   4.5   3.6 | -0.4  -2.6  -0.4 |
/// | `setup_s`           | 4.6  14.4   9.2 | 8.3   9.8  10.9 | -4.2  -2.5  -8.0 |
/// | raw median of reps  | 8.0   7.7  10.0 | 16.7 15.1   4.9 | -10.3 -8.0  -8.6 |
///
/// The time bounds stay at the contract's maximum although these spreads
/// would carry less: the host has worse hours than these two sets saw,
/// and a refused benchmark measures nothing. Memory moves with the users
/// and pages a seed draws. A regression smaller than a bound is for
/// `--sets K` and paired runs to resolve.
pub const END_TO_END: &[MetricDef] = &[
    e2e(
        "ns_per_record",
        "ns",
        0.25,
        "median over timed reps of classify_stream_file wall time / codec.records_read, each rep at the reference speed: divided by the mean of sys::slowdown() before and after it",
    ),
    e2e(
        "peak_rss_mb",
        "MiB",
        0.2,
        "VmHWM at exit of the measuring child (list load, compile, warm-up and timed reps only)",
    ),
    e2e(
        "setup_s",
        "s",
        0.25,
        "median over set-up repeats of fixture generation + encoding + list parse + compile, each repeat at the reference speed",
    ),
];

/// Failed operations / attempted. Reported beside the end-to-end metrics
/// but carried by the result line's `attempted`/`failed` counts: its
/// healthy value is 0 and its bound is absolute (any failure fails).
pub const FAIL_SHARE: MetricDef = e2e(
    "fail_share",
    "ratio",
    0.0,
    "failed operations / attempted; an operation is one rep or one checked replay",
);

use Better::{Higher, Lower};

/// Per-layer metrics, reported per workload by the traced run.
#[rustfmt::skip]
pub const PER_LAYER: &[MetricDef] = &[
    layer("netsim.decode_ns_per_record", "ns", Lower, "ChunkReader::next_chunk loop over the workload's trace file / records_read"),
    layer("netsim.decode_mb_per_s", "MB/s", Higher, "trace file bytes / decode span"),
    layer("netsim.records_read", "count", Higher, "records the chunked decode kept"),
    layer("netsim.records_skipped", "count", Lower, "lines the chunked decode skipped (bad JSON, schema, UTF-8, oversize)"),
    layer("netsim.encode_ns_per_record", "ns", Lower, "TraceWriter::write_record of every decoded record into a sink / records"),
    layer("http-model.url_parse_ns_per_url", "ns", Lower, "Url::parse of every request URL, rebuilt as a string / URLs"),
    layer("adscope.extract_ns_per_record", "ns", Lower, "extract_full self time / records"),
    layer("adscope.extract_quarantined", "count", Lower, "records extract_full quarantined (unparseable URL)"),
    layer("adscope.refmap_ns_per_record", "ns", Lower, "RefMap::process pass plus redirect backfill / records"),
    layer("adscope.refmap_miss_share", "ratio", Lower, "requests with no page context / requests"),
    layer("adscope.refmap_users", "count", Higher, "distinct (client IP, User-Agent) referrer maps"),
    layer("adscope.content_ns_per_record", "ns", Lower, "infer_category_traced pass / records"),
    layer("adscope.normalize_ns_per_record", "ns", Lower, "UrlNormalizer::from_engine + normalize pass / records"),
    layer("adscope.normalize_literals", "count", Lower, "query literals the normalizer protects"),
    layer("adscope.normalize_rewritten_share", "ratio", Higher, "requests whose query string was rewritten / requests"),
    layer("abp-filter.match_ns_per_request", "ns", Lower, "classify_traced_in + primary_rule pass / requests"),
    layer("abp-filter.rules", "count", Higher, "rules in the compiled engine"),
    layer("abp-filter.compile_ms", "ms", Lower, "CompiledEngine::compile of the workload's lists"),
    layer("abp-filter.arena_bytes", "bytes", Lower, "compiled engine arena size"),
    layer("abp-filter.candidates_per_request", "count", Lower, "abp_candidates_total delta over the match pass / requests"),
    layer("abp-filter.prefilter_reject_share", "ratio", Higher, "abp_prefilter_rejects_total / abp_candidates_total over the match pass"),
    layer("abp-filter.ad_share", "ratio", Higher, "ad requests / requests"),
    layer("adscope.assemble_ns_per_record", "ns", Lower, "building the ClassifiedRequest vector / records"),
    layer("adscope.window_ns_per_record", "ns", Lower, "window::aggregate + window::publish / records"),
    layer("adscope.population_ns_per_record", "ns", Lower, "PopulationSketches::observe pass / records"),
    layer("adscope.users_ns_per_record", "ns", Lower, "aggregate_users / records"),
    layer("obs.alert_eval_ms", "ms", Lower, "alerts::evaluate (AlertEngine::eval_report) of rule_pack over the run's windows"),
    layer("obs.render_metrics_ms", "ms", Lower, "Prometheus render of a stream run's registry"),
    layer("obs.series", "count", Lower, "series in that registry"),
    layer("adscope.materialized_ns_per_record", "ns", Lower, "median untraced classify_trace_in / records"),
    layer("adscope.sharded_ns_per_record", "ns", Lower, "median classify_trace_sharded_in at 2 threads / records"),
    layer("stream.w1_ns_per_record", "ns", Lower, "median classify_stream_file at threads=1 in the traced run, restricted to one CPU like the _w1 workloads / records"),
    layer("stream.w1_free_ns_per_record", "ns", Lower, "the same at threads=1 with router and worker free to use every CPU: the production placement, where hand-off and overlap show; bimodal on a 2-vCPU VM"),
    layer("stream.w1_free_cpu_over_wall", "ratio", Lower, "process CPU time / wall time over those free reps; above 1 when router and worker overlap"),
    layer("stream.w2_ns_per_record", "ns", Lower, "median classify_stream_file at threads=2 in the traced run / records"),
    layer("stream.scaling_x", "x", Higher, "stream.w1_ns_per_record / stream.w2_ns_per_record"),
    layer("stream.overhead_ns_per_record", "ns", Lower, "stream median at the workload's thread count - decode - materialized (1 worker) or sharded (2 workers)"),
    layer("stream.cpu_over_wall", "ratio", Lower, "process CPU time / wall time over the stream reps at the workload's thread count"),
    layer("stream.chunks", "count", Higher, "chunks one stream run processed"),
    layer("stream.send_stalls", "count", Lower, "adscope_stream_send_stalls_total of one stream run"),
    layer("stream.checkpoints", "count", Higher, "checkpoints the checkpoint probe wrote"),
    layer("stream.ckpt_bytes", "bytes", Lower, "size of the probe's last checkpoint file"),
    layer("stream.ckpt_ns_per_record", "ns", Lower, "median paired difference, probe with vs without checkpointing / records"),
    layer("stream.resume_ms", "ms", Lower, "wall time of the resume after a stop at half the chunks"),
    layer("stream.quarantined", "count", Lower, "records the probe quarantined"),
    layer("parallel.channel_roundtrip_ns", "ns", Lower, "bounded(1) ping-pong between two threads / round trips"),
    layer("ledger.sum_ns_per_record", "ns", Lower, "sum of the pipeline stages' self times / records"),
    layer("ledger.residual_share", "ratio", Lower, "(materialized - ledger sum) / materialized; target <= 0.05"),
    layer("ledger.trace_overhead_share", "ratio", Lower, "(traced staged replay - materialized) / materialized"),
    layer("harness.calib_ms", "ms", Lower, "fixed FNV-1a loop over 64 MiB before the measurements"),
    layer("harness.calib_after_ms", "ms", Lower, "the same loop after them"),
    layer("harness.reps", "count", Higher, "stream reps behind the workload's own median"),
    layer("harness.ns_per_record_q1", "ns", Lower, "first quartile of those reps"),
    layer("harness.ns_per_record_q3", "ns", Lower, "third quartile of those reps"),
];

/// What one run reports: the driver's counts plus named values.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, String)>,
}

impl RunResult {
    pub fn push(&mut self, def_set: &[MetricDef], name: &str, value: f64) {
        let def = def_set
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the glossary"));
        self.metrics
            .push((name.to_string(), value, def.unit.to_string()));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    pub fn fail_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Correct means every attempted operation succeeded and every value
    /// is a finite number.
    pub fn correct(&self) -> bool {
        self.attempted >= 1 && self.failed == 0 && self.metrics.iter().all(|m| m.1.is_finite())
    }

    /// The result line: one JSON object, values printed with every digit.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }

    /// Parse a result line back (a parent reads its child's last line).
    pub fn from_json(line: &str) -> Result<RunResult, String> {
        let v = json::parse(line)?;
        let count = |key: &str| {
            v.get(key)
                .and_then(json::Value::as_u64)
                .ok_or(format!("result line lacks {key}"))
        };
        let mut out = RunResult {
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics: Vec::new(),
        };
        let json::Value::Object(metrics) = v.get("metrics").ok_or("result line lacks metrics")?
        else {
            return Err("metrics is not an object".into());
        };
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(json::Value::as_f64)
                .ok_or(format!("{name} lacks a value"))?;
            let unit = m
                .get("unit")
                .and_then(json::Value::as_str)
                .ok_or(format!("{name} lacks a unit"))?;
            out.metrics
                .push((name.to_string(), value, unit.to_string()));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    fn name_ok(name: &str, max: usize) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn glossary_names_units_and_bounds_are_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER).chain([&FAIL_SHARE]) {
            assert!(name_ok(d.name, 64), "bad name {}", d.name);
            assert!(unit_ok(d.unit), "bad unit {} of {}", d.unit, d.name);
            assert!(seen.insert(d.name), "duplicate {}", d.name);
            assert!(!d.definition.is_empty());
        }
        for d in END_TO_END {
            let b = d.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{} bound {b}", d.name);
        }
        assert!(PER_LAYER.iter().all(|d| d.bound.is_none()));
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == Better::Lower));
    }

    #[test]
    fn result_line_round_trips_with_every_digit() {
        let mut r = RunResult {
            attempted: 7,
            failed: 0,
            metrics: Vec::new(),
        };
        for (i, d) in PER_LAYER.iter().enumerate() {
            r.push(
                PER_LAYER,
                d.name,
                1_234.567_891_234_5 / (i + 1) as f64 - 3.0,
            );
        }
        let line = r.to_json();
        assert!(!line.contains('\n'));
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 7, \"failed\": 0, "));
        let back = RunResult::from_json(&line).unwrap();
        assert_eq!(back, r);
        for (name, _, unit) in &back.metrics {
            let def = PER_LAYER.iter().find(|d| d.name == name).unwrap();
            assert_eq!(def.unit, unit);
            assert!(name_ok(name, 64) && unit_ok(unit));
        }
        // A failure or a non-finite value makes the run incorrect.
        r.failed = 1;
        assert!(r.to_json().starts_with("{\"correct\": false"));
        r.failed = 0;
        r.metrics[0].1 = f64::NAN;
        assert!(!r.correct());
        assert!(RunResult::from_json("{\"attempted\": 1}").is_err());
    }

    /// The repo root is the directory that holds `BENCHMARK.json`; walk up
    /// to it from whichever manifest built this test.
    fn repo_file(relative: &str) -> String {
        let mut dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        while !dir.join("BENCHMARK.json").is_file() {
            assert!(dir.pop(), "BENCHMARK.json not found above the manifest");
        }
        std::fs::read_to_string(dir.join(relative)).unwrap()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_glossary() {
        let text = repo_file("BENCHMARK.json");
        let b = json::parse(&text).unwrap();
        let rows = |key: &str| match b.get(key) {
            Some(json::Value::Array(rows)) => rows.clone(),
            other => panic!("{key} is not an array: {other:?}"),
        };
        let field =
            |row: &json::Value, key: &str| row.get(key).unwrap().as_str().unwrap().to_string();

        let declared: Vec<(String, String)> = rows("workloads")
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .filter(|w| w.contract)
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(declared, ours);
        assert!(ours.iter().all(|(_, why)| why.len() <= 200));

        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let rows = rows(key);
            assert_eq!(rows.len(), defs.len(), "{key} length");
            for (row, def) in rows.iter().zip(defs) {
                assert_eq!(field(row, "name"), def.name);
                assert_eq!(field(row, "unit"), def.unit, "{}", def.name);
                assert_eq!(field(row, "better"), def.better.as_str(), "{}", def.name);
                assert_eq!(row.get("bound").and_then(json::Value::as_f64), def.bound);
            }
        }
        assert_eq!(
            b.get("run_seconds").and_then(json::Value::as_f64),
            Some(crate::DEFAULT_SECONDS)
        );
    }
}
