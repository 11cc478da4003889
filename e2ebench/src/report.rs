//! Metrics of one run and the lines the benchmark prints: a readable
//! table, a detail object (every metric's distribution, host facts) and,
//! last, the one-line result object.

use crate::stats::Summary;
use std::fmt::Write as _;

/// One reported metric: its headline value and the samples it was
/// derived from.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The headline value.
    pub value: f64,
    /// Distribution of the samples behind `value`, when it has one.
    pub summary: Option<Summary>,
}

impl Metric {
    /// A metric that is one measured or derived number.
    pub fn scalar(name: &str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.to_owned(),
            unit,
            value,
            summary: None,
        }
    }

    /// A metric whose headline is the median of `samples`.
    pub fn median(name: &str, unit: &'static str, samples: &[f64]) -> Metric {
        Metric::pick(name, unit, samples, |s| s.median)
    }

    /// A metric whose headline is the 99th percentile of `samples`.
    pub fn p99(name: &str, unit: &'static str, samples: &[f64]) -> Metric {
        Metric::pick(name, unit, samples, |s| s.p99)
    }

    fn pick(name: &str, unit: &'static str, samples: &[f64], f: fn(&Summary) -> f64) -> Metric {
        let summary = Summary::of(samples);
        Metric {
            name: name.to_owned(),
            unit,
            value: summary.as_ref().map_or(0.0, f),
            summary,
        }
    }
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (streams, queries, analyses).
    pub attempted: u64,
    /// Operations that failed or returned a wrong output.
    pub failed: u64,
    /// Why operations failed (first few).
    pub failures: Vec<String>,
    /// End-to-end metrics, in `BENCHMARK.json` order.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
    /// Facts about the run that are not metrics (sizes, counts, rates).
    pub facts: Vec<(String, String)>,
}

impl Outcome {
    /// Record a fact for the detail line.
    pub fn fact(&mut self, key: &str, value: impl std::fmt::Display) {
        self.facts.push((key.to_owned(), value.to_string()));
    }
}

/// A finite f64 as a JSON number with all its digits.
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_owned()
    }
}

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn summary_json(s: &Summary) -> String {
    format!(
        "{{\"n\": {}, \"min\": {}, \"q1\": {}, \"median\": {}, \"q3\": {}, \"p99\": {}, \"max\": {}}}",
        s.n,
        num(s.min),
        num(s.q1),
        num(s.median),
        num(s.q3),
        num(s.p99),
        num(s.max)
    )
}

/// The human-readable table of `metrics`.
pub fn table(metrics: &[Metric]) -> String {
    let mut out = String::new();
    for m in metrics {
        let _ = write!(
            out,
            "{:<40} {:>16} {:<6}",
            m.name,
            format!("{:.6}", m.value),
            m.unit
        );
        if let Some(s) = &m.summary {
            let _ = write!(
                out,
                "  n={} q1={:.6} median={:.6} q3={:.6} p99={:.6}",
                s.n, s.q1, s.median, s.q3, s.p99
            );
        }
        out.push('\n');
    }
    out
}

/// The detail object: every metric with its distribution, plus the run's
/// identity and facts.
pub fn detail_line(run: &[(&str, String)], outcome: &Outcome, metrics: &[Metric]) -> String {
    let mut out = String::from("{\"detail\": {");
    for (k, v) in run {
        let _ = write!(out, "{}: {}, ", string(k), v);
    }
    out.push_str("\"facts\": {");
    let facts: Vec<String> = outcome
        .facts
        .iter()
        .map(|(k, v)| format!("{}: {}", string(k), string(v)))
        .collect();
    out.push_str(&facts.join(", "));
    out.push_str("}, \"failures\": [");
    let failures: Vec<String> = outcome.failures.iter().map(|f| string(f)).collect();
    out.push_str(&failures.join(", "));
    out.push_str("], \"metrics\": {");
    let entries: Vec<String> = metrics
        .iter()
        .map(|m| {
            let dist = m.summary.as_ref().map_or("null".to_owned(), summary_json);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}, \"samples\": {}}}",
                string(&m.name),
                num(m.value),
                string(m.unit),
                dist
            )
        })
        .collect();
    out.push_str(&entries.join(", "));
    out.push_str("}}}");
    out
}

/// The result object the run ends with: exactly `correct`, `attempted`,
/// `failed` and `metrics` (name → value and unit).
pub fn result_line(outcome: &Outcome, metrics: &[Metric]) -> String {
    let entries: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                string(&m.name),
                num(m.value),
                string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted.max(1),
        outcome.failed,
        entries.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_four_keys() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        let metrics = [
            Metric::median("latency_p50_ms", "ms", &[1.0, 2.0, 4.0]),
            Metric::scalar("setup_s", "s", 0.25),
        ];
        assert_eq!(
            result_line(&o, &metrics),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_p50_ms\": {\"value\": 2.0, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        o.failed = 1;
        assert!(result_line(&o, &metrics).starts_with("{\"correct\": false,"));
    }

    #[test]
    fn headline_picks_from_the_summary() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(Metric::median("m", "ms", &samples).value, 50.5);
        assert!((Metric::p99("m", "ms", &samples).value - 99.01).abs() < 1e-12);
        assert_eq!(Metric::median("m", "ms", &[]).value, 0.0);
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(0.1), "0.1");
    }
}
