//! The analyze-hot-path trajectory bench: single-pass, index-based
//! analysis ([`Analyzer::analyze_fused`]) over the Tiny training suite's
//! recordings, plus the IP→block lookup layer on its own — including a
//! paired comparison of the locality cursor against the plain page-indexed
//! lookup on the EBS estimator's access pattern.
//!
//! Besides the usual `bench: … ns/iter` lines, a run writes
//! `BENCH_pipeline.json` to the workspace root
//! (`cargo bench -p hbbp-bench --bench pipeline`) so later changes have a
//! perf trajectory to beat. Set `PIPELINE_BENCH_QUICK=1` to evaluate a
//! two-workload subset (CI smoke mode; the JSON records which mode ran).

mod common;

use common::{quick_mode, results_block, write_workspace_root};
use criterion::{black_box, Criterion};
use hbbp_core::{Analyzer, HybridRule, SamplingPeriods};
use hbbp_perf::{PerfData, PerfSession};
use hbbp_program::ImageView;
use hbbp_sim::{Cpu, EventSpec};
use hbbp_workloads::{training_suite, Scale};
use std::time::Instant;

/// One workload's prepared analysis inputs.
struct Case {
    analyzer: Analyzer,
    data: PerfData,
    periods: SamplingPeriods,
}

fn build_cases(quick: bool) -> Vec<Case> {
    let mut suite = training_suite(Scale::Tiny);
    if quick {
        suite.truncate(2);
    }
    suite
        .iter()
        .map(|w| {
            let cpu = Cpu::with_seed(11);
            let instructions = cpu
                .run_clean(w.program(), w.layout(), w.oracle())
                .expect("clean run")
                .instructions;
            let periods = SamplingPeriods::scaled_for(instructions);
            let session = PerfSession::hbbp(cpu, periods.ebs, periods.lbr);
            let rec = session
                .record(w.program(), w.layout(), w.oracle())
                .expect("recording");
            let analyzer = Analyzer::from_images(&w.images(ImageView::Live), w.layout().symbols())
                .expect("discovery");
            Case {
                analyzer,
                data: rec.data,
                periods,
            }
        })
        .collect()
}

fn bench_pipeline(c: &mut Criterion, cases: &[Case]) {
    let rule = HybridRule::paper_default();

    let mut group = c.benchmark_group("pipeline");
    group.sample_size(20);
    group.bench_function("analyze_fused", |b| {
        b.iter(|| {
            let mut total = 0.0;
            for case in cases {
                total += case
                    .analyzer
                    .analyze_fused(&case.data, case.periods, &rule)
                    .hbbp
                    .bbec
                    .total();
            }
            black_box(total)
        })
    });
    group.finish();

    // The lookup layer on its own, on the EBS estimator's actual access
    // pattern (the eventing IPs of each recording, in arrival order): the
    // page-indexed lookup vs a locality cursor.
    let ips = ebs_ips(cases);
    let mut group = c.benchmark_group("blockmap");
    group.sample_size(20);
    group.bench_function("enclosing", |b| {
        b.iter(|| black_box(plain_hits(cases, &ips)))
    });
    group.bench_function("cursor_enclosing", |b| {
        b.iter(|| black_box(cursor_hits(cases, &ips)))
    });
    group.finish();
}

/// The eventing IPs of every case's EBS samples, tagged with the case
/// index, in arrival order.
fn ebs_ips(cases: &[Case]) -> Vec<(usize, u64)> {
    cases
        .iter()
        .enumerate()
        .flat_map(|(ci, case)| {
            case.data
                .samples_of(EventSpec::inst_retired_prec_dist())
                .map(move |s| (ci, s.ip))
        })
        .collect()
}

/// Resolve `ips` through each map's page-indexed `enclosing` — how the
/// EBS accumulator resolves a recording's samples.
fn plain_hits(cases: &[Case], ips: &[(usize, u64)]) -> usize {
    ips.iter()
        .filter(|&&(ci, ip)| cases[ci].analyzer.map().enclosing(ip).is_some())
        .count()
}

/// Resolve `ips` through one locality cursor per map, the alternative
/// the EBS accumulator's lookup is measured against.
fn cursor_hits(cases: &[Case], ips: &[(usize, u64)]) -> usize {
    let mut cursors: Vec<_> = cases.iter().map(|c| c.analyzer.map().cursor()).collect();
    ips.iter()
        .filter(|&&(ci, ip)| cursors[ci].enclosing(ip).is_some())
        .count()
}

/// Interleaved A/B timing: each round times both arms back to back,
/// alternating which goes first, so background machine load hits both
/// about equally and the per-pair comparison stays meaningful even when
/// absolute times wobble. Returns `(a_ns, b_ns)` per round.
fn paired(rounds: u32, mut a: impl FnMut(), mut b: impl FnMut()) -> Vec<(f64, f64)> {
    let time = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        t.elapsed().as_nanos() as f64
    };
    (0..rounds)
        .map(|round| {
            if round % 2 == 0 {
                let a_ns = time(&mut a);
                (a_ns, time(&mut b))
            } else {
                let b_ns = time(&mut b);
                (time(&mut a), b_ns)
            }
        })
        .collect()
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// The paired cursor-vs-plain lookup comparison as a JSON block (with a
/// trailing comma), plus a one-line summary.
fn cursor_block(pairs: &[(f64, f64)]) -> (String, String) {
    let n = pairs.len();
    let plain_wins = pairs
        .iter()
        .filter(|(cursor, plain)| plain < cursor)
        .count();
    let cursor_ns = median(pairs.iter().map(|p| p.0).collect());
    let plain_ns = median(pairs.iter().map(|p| p.1).collect());
    let ratio = median(pairs.iter().map(|(c, p)| c / p).collect());
    let block = format!(
        "  \"cursor_vs_enclosing\": {{ \"pairs\": {n}, \"enclosing_wins\": {plain_wins}, \
         \"cursor_median_ns\": {cursor_ns:.1}, \"enclosing_median_ns\": {plain_ns:.1}, \
         \"median_ratio_cursor_over_enclosing\": {ratio:.3} }},\n"
    );
    let summary = format!(
        "paired lookup: cursor {cursor_ns:.1} ns  enclosing {plain_ns:.1} ns  \
         (median ratio {ratio:.3}; enclosing faster in {plain_wins}/{n} pairs)"
    );
    (block, summary)
}

fn main() {
    let quick = quick_mode("PIPELINE_BENCH_QUICK");
    let cases = build_cases(quick);
    let mut criterion = Criterion::default();
    bench_pipeline(&mut criterion, &cases);
    let ips = ebs_ips(&cases);
    let pairs = paired(
        if quick { 4 } else { 10 },
        || {
            black_box(cursor_hits(&cases, &ips));
        },
        || {
            black_box(plain_hits(&cases, &ips));
        },
    );
    let (cursor, summary) = cursor_block(&pairs);
    println!("{summary}");
    let mut json = String::from("{\n  \"bench\": \"pipeline\",\n");
    json.push_str(&format!(
        "  \"suite\": \"training_suite(Tiny), {} workloads\",\n",
        cases.len()
    ));
    json.push_str(&format!("  \"quick_mode\": {quick},\n"));
    json.push_str(&cursor);
    json.push_str(&results_block(&criterion));
    json.push_str("\n}\n");
    write_workspace_root("BENCH_pipeline.json", &json);
}
