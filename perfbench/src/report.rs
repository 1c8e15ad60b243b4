//! The metric catalogue and the result line.
//!
//! `--trace 0` runs report every [`END_TO_END`] metric, `--trace 1` runs
//! every [`PER_LAYER`] metric (0 where the workload does not exercise the
//! layer).  The last line of standard output is one JSON object; a table
//! with units, sample counts and the failure fraction goes to standard error.

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("throughput_qps", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics: `(name, unit)`.  Time labels follow the engine's span
/// labels (`grid_score`, `graph_build`, `solve`, `cache_lookup`) through the
/// module that owns the layer.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("datagen.build_s", "s"),
    ("geotext.index_build_s", "s"),
    ("geotext.grid_score_us", "us"),
    ("geotext.weighted_nodes", "count"),
    ("roadnet.region_view_us", "us"),
    ("roadnet.nodes_in_view", "count"),
    ("query_graph.build_us", "us"),
    ("query_graph.edges", "count"),
    ("tgen.solve_us", "us"),
    ("tgen.tuples_generated", "count"),
    ("tgen.pruned_pairs", "count"),
    ("tgen.kept_ratio", "ratio"),
    ("app.solve_us", "us"),
    ("app.kmst_calls", "count"),
    ("app.dp_tuples", "count"),
    ("greedy.solve_us", "us"),
    ("greedy.steps", "count"),
    ("arena.blocks", "count"),
    ("arena.recycled_ratio", "ratio"),
    ("tuple_array.frontier_peak", "count"),
    ("tuple_array.dominance_evictions", "count"),
    ("region.materialize_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.stale", "count"),
    ("cache.hit_us", "us"),
    ("cache.bytes", "bytes"),
    ("engine.delta_prepare_ratio", "ratio"),
    ("engine.grid_score_delta_us", "us"),
    ("json.decode_us", "us"),
    ("json.encode_us", "us"),
    ("json.response_bytes", "bytes"),
    ("http.overhead_p50_us", "us"),
    ("http.overhead_p99_us", "us"),
    ("scheduler.queue_wait_p50_us", "us"),
    ("scheduler.queue_wait_p99_us", "us"),
    ("scheduler.mean_batch_size", "count"),
    ("scheduler.shed", "count"),
    ("loadgen.late_ms_p99", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.coverage_ratio", "ratio"),
];

/// The outcome of one run.
#[derive(Debug, Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// Latency samples behind the percentiles (failed requests included).
    pub samples: usize,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
    /// Extra human-readable lines for the table.
    pub notes: Vec<String>,
}

impl RunResult {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        // Rust's shortest round-trip form keeps every measured digit.
        format!("{v:?}")
    } else {
        // Only a run whose every request failed has an infinite
        // percentile; JSON has no infinity, so report the largest float.
        format!("{:?}", f64::MAX)
    }
}

/// Prints the table to stderr and the result object as the last stdout line.
pub fn print(workload: &str, trace: bool, result: &RunResult) {
    let catalogue = if trace { PER_LAYER } else { END_TO_END };
    eprintln!(
        "# {workload} ({}): {} attempted, {} failed, failed_frac {}, {} latency samples",
        if trace { "traced" } else { "untraced" },
        result.attempted,
        result.failed,
        crate::stats::failed_frac(result.attempted, result.failed),
        result.samples
    );
    let mut metrics = Vec::with_capacity(catalogue.len());
    for &(name, unit) in catalogue {
        let value = result.values.get(name).copied().unwrap_or(0.0);
        eprintln!("  {name:<34} {value:>16.4} {unit}");
        metrics.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    for note in &result.notes {
        eprintln!("  {note}");
    }
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.attempted,
        result.failed,
        metrics.join(", ")
    );
}

/// Absolute peak resident set (`VmHWM`) of this process, MiB.  Fails when
/// `/proc` cannot be read: a silent 0 would pass every memory gate.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status for VmHWM: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("malformed VmHWM line '{line}': {e}"))?;
    if kib <= 0.0 {
        return Err(format!("VmHWM reads {kib} kB"));
    }
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcmsr_service::json::{parse, Json};

    /// The catalogue here and the one in `BENCHMARK.json` are the same list.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = parse(text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Json::as_str).expect("name").into(),
                        m.get("unit").and_then(Json::as_str).expect("unit").into(),
                    )
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(END_TO_END));
        assert_eq!(names("per_layer"), own(PER_LAYER));
    }

    #[test]
    fn peak_rss_is_read_from_proc() {
        let mib = peak_rss_mib().expect("VmHWM readable");
        assert!(mib > 1.0, "{mib}");
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(json_number(1.2034), "1.2034");
        assert_eq!(json_number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_number(3.0), "3.0");
    }
}
