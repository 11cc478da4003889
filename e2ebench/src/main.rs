//! The HBBP end-to-end benchmark: one command per workload prints every
//! end-to-end metric (or, traced, every per-layer metric) and fails when
//! an output is wrong.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload offline_suite|fleet_ingest \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! The last line of standard output is the result object
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it
//! holds every metric's distribution, the seed, `nproc` and the git
//! revision. See `README.md` beside this file for the metric
//! definitions.

mod accuracy;
mod catalog;
mod fleet;
mod gates;
mod inputs;
mod offline;
mod probe;
mod report;
mod serve;
mod stats;

use catalog::Collected;
use report::{detail_line, result_line, string, table};
use std::process::ExitCode;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement time.
    pub seconds: f64,
    /// Traced run: report per-layer metrics.
    pub trace: bool,
}

const WORKLOADS: [&str; 2] = ["offline_suite", "fleet_ingest"];

fn usage() -> String {
    format!(
        "usage: e2ebench --workload {} [--seed N] [--seconds S] [--trace 0|1]",
        WORKLOADS.join("|")
    )
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

/// Sample series of the two interleaved measurement arms of a run: in a
/// traced run, alternate rounds are traced, so the tracing's own cost is
/// measured against untraced rounds of the same run.
#[derive(Default)]
pub struct Arms<T> {
    /// Untraced rounds (every round of an untraced run).
    pub plain: T,
    /// Traced rounds.
    pub traced: T,
}

impl<T> Arms<T> {
    /// The arm a round belongs to.
    pub fn arm(&mut self, traced: bool) -> &mut T {
        if traced {
            &mut self.traced
        } else {
            &mut self.plain
        }
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Seconds to milliseconds.
pub fn secs_ms(s: f64) -> f64 {
    s * 1e3
}

/// Record `trace.overhead_pct.<metric>`: how much worse each timing
/// metric read in the traced rounds than in the untraced ones, in
/// percent (negative: traced rounds happened to read better).
pub fn overhead_pct(layers: &mut Collected, plain: &Collected, traced: &Collected) {
    for name in catalog::TRACED_E2E {
        let (p, t) = (plain.value(name), traced.value(name));
        let worse = if *name == "throughput_mb_s" {
            p - t
        } else {
            t - p
        };
        let pct = if p == 0.0 { 0.0 } else { 100.0 * worse / p };
        layers.scalar(&format!("trace.overhead_pct.{name}"), pct);
    }
}

/// Peak resident memory of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The revision of a git checkout in the working directory itself (git
/// is kept from searching parent directories), or `unknown`.
fn git_revision() -> String {
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.as_os_str().to_owned()))
        .unwrap_or_default();
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "offline_suite" => offline::run(&args),
        _ => fleet::run(&args),
    };
    let metrics = if args.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    print!("{}", table(&outcome.end_to_end));
    if args.trace {
        print!("{}", table(&outcome.per_layer));
    }
    let run = [
        ("workload", string(&args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", report::num(args.seconds)),
        ("trace", args.trace.to_string()),
        ("nproc", nproc.to_string()),
        ("git_revision", string(&git_revision())),
    ];
    let mut all = outcome.end_to_end.clone();
    all.extend(outcome.per_layer.iter().cloned());
    println!("{}", detail_line(&run, &outcome, &all));
    println!("{}", result_line(&outcome, metrics));
    for f in &outcome.failures {
        eprintln!("e2ebench: FAILED: {f}");
    }
    if outcome.failed == 0 && outcome.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = parse(&argv(
            "--workload fleet_ingest --seed 7 --seconds 2.5 --trace 1",
        ))
        .unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (7, 2.5, true));
        assert!(parse(&argv("--workload nope")).is_err());
        assert!(parse(&argv("--workload fleet_ingest --trace 2")).is_err());
        assert!(parse(&argv("--workload fleet_ingest --seconds 0")).is_err());
        assert!(parse(&argv("--workload fleet_ingest --seed")).is_err());
    }

    #[test]
    fn overhead_is_signed_by_direction() {
        let mut plain = Collected::default();
        let mut traced = Collected::default();
        plain.scalar("throughput_mb_s", 100.0);
        traced.scalar("throughput_mb_s", 90.0);
        plain.scalar("latency_p50_ms", 2.0);
        traced.scalar("latency_p50_ms", 2.5);
        let mut layers = Collected::default();
        overhead_pct(&mut layers, &plain, &traced);
        assert_eq!(layers.value("trace.overhead_pct.throughput_mb_s"), 10.0);
        assert_eq!(layers.value("trace.overhead_pct.latency_p50_ms"), 25.0);
        assert_eq!(layers.value("trace.overhead_pct.query_p50_ms"), 0.0);
    }
}
