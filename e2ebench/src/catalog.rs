//! The metric catalog: every name and unit the benchmark reports, in the
//! order `BENCHMARK.json` lists them.

use crate::report::Metric;
use std::collections::BTreeMap;

/// End-to-end metrics, reported by every workload's untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_mb_s", "MB/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("mix_error_pct", "%"),
    ("peak_rss_mb", "MB"),
];

/// End-to-end metrics whose traced-vs-untraced overhead a traced run
/// reports (the others are measured identically in both modes).
pub const TRACED_E2E: &[&str] = &[
    "throughput_mb_s",
    "latency_p50_ms",
    "latency_p99_ms",
    "query_p50_ms",
    "query_p99_ms",
];

/// Per-layer metrics, reported by every workload's traced run. A layer
/// the workload bypasses reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("perf.decode_ms", "ms"),
    ("perf.decode_bytes", "bytes"),
    ("perf.decode_records", "count"),
    ("perf.decoder_compactions", "count"),
    ("program.lookup_ns", "ns"),
    ("program.unmapped_frac", "ratio"),
    ("core.analyze_ms", "ms"),
    ("core.stream_ms", "ms"),
    ("core.stream_over_analyze", "ratio"),
    ("core.finish_ms", "ms"),
    ("core.mix_ms", "ms"),
    ("core.window_ms", "ms"),
    ("core.window_closes", "count"),
    ("core.pool_miss_frac", "ratio"),
    ("core.lbr_choice_share", "ratio"),
    ("core.lbr_derail_frac", "ratio"),
    ("core.err_ebs_pct", "%"),
    ("core.err_lbr_pct", "%"),
    ("core.hbbp_loses_count", "count"),
    ("store.append_ms", "ms"),
    ("store.bytes_per_user_byte", "ratio"),
    ("store.worker_sleeps_per_op", "ratio"),
    ("store.worker_ticks_per_op", "ratio"),
    ("store.worker_tick_scan_p50_us", "us"),
    ("store.worker_parks", "count"),
    ("store.worker_read_budget_exhausted", "count"),
    ("store.writer_commit_p50_us", "us"),
    ("store.writer_commit_p99_us", "us"),
    ("store.writer_batch_mean", "count"),
    ("store.writer_queue_depth_hwm", "count"),
    ("store.round_residual_ms", "ms"),
    ("recon.pass_ms", "ms"),
    ("recon.stage_sum_ms", "ms"),
    ("recon.residual_ms", "ms"),
    ("recon.round_analysis_ms", "ms"),
    ("recon.round_commit_ms", "ms"),
    ("trace.overhead_pct.throughput_mb_s", "%"),
    ("trace.overhead_pct.latency_p50_ms", "%"),
    ("trace.overhead_pct.latency_p99_ms", "%"),
    ("trace.overhead_pct.query_p50_ms", "%"),
    ("trace.overhead_pct.query_p99_ms", "%"),
];

/// The unit a catalog entry declares.
///
/// # Panics
///
/// Panics on a name outside the catalog.
pub fn unit(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalog"))
}

/// Metrics collected by name, emitted in catalog order.
#[derive(Debug, Default)]
pub struct Collected(BTreeMap<String, Metric>);

impl Collected {
    /// Record a metric whose headline is the median of `samples`.
    pub fn median(&mut self, name: &str, samples: &[f64]) {
        self.put(Metric::median(name, unit(name), samples));
    }

    /// Record a metric whose headline is the 99th percentile of `samples`.
    pub fn p99(&mut self, name: &str, samples: &[f64]) {
        self.put(Metric::p99(name, unit(name), samples));
    }

    /// Record a one-number metric.
    pub fn scalar(&mut self, name: &str, value: f64) {
        self.put(Metric::scalar(name, unit(name), value));
    }

    fn put(&mut self, m: Metric) {
        self.0.insert(m.name.clone(), m);
    }

    /// The headline value recorded under `name` (0 if absent).
    pub fn value(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |m| m.value)
    }

    /// Every `catalog` entry in order; absent ones read 0.
    pub fn ordered(mut self, catalog: &[(&str, &'static str)]) -> Vec<Metric> {
        catalog
            .iter()
            .map(|(n, u)| {
                self.0
                    .remove(*n)
                    .unwrap_or_else(|| Metric::scalar(n, u, 0.0))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The catalog and `BENCHMARK.json` name the same metrics with the
    /// same units, in the same order.
    #[test]
    fn catalog_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let end = json[start..].find(']').expect("section closes") + start;
            json[start..end]
                .split('{')
                .skip(1)
                .map(|entry| {
                    let field = |f: &str| {
                        let at = entry.find(&format!("\"{f}\"")).expect("field") + f.len() + 2;
                        let rest = &entry[at..];
                        let open = rest.find('"').expect("value") + 1;
                        let close = rest[open..].find('"').expect("value end") + open;
                        rest[open..close].to_owned()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(section("end_to_end"), own(END_TO_END));
        assert_eq!(section("per_layer"), own(PER_LAYER));
    }

    #[test]
    fn absent_metrics_read_zero_in_catalog_order() {
        let mut c = Collected::default();
        c.scalar("peak_rss_mb", 12.5);
        c.median("setup_s", &[3.0, 1.0, 2.0]);
        let out = c.ordered(END_TO_END);
        assert_eq!(out.len(), END_TO_END.len());
        assert_eq!((out[0].name.as_str(), out[0].value), ("setup_s", 2.0));
        assert_eq!(out[1].value, 0.0);
        assert_eq!(out[7].value, 12.5);
    }
}
