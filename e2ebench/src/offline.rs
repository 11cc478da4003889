//! `offline_suite`: the `hbbp analyze` default path over the fig2 suite,
//! single-threaded. Each recording is fed from memory through
//! `StreamDecoder::decode_into` into an unwindowed `OnlineAnalyzer`,
//! then `finish`, then `Analyzer::mix`; the suite repeats for the run.

use crate::accuracy::{Accuracy, Judged};
use crate::catalog::Collected;
use crate::gates::{same_analysis, same_mix, Gate};
use crate::inputs::{ebs_ips, offline_suite, SuiteEntry};
use crate::probe::{repeat, CountSink};
use crate::report::Outcome;
use crate::{overhead_pct, ratio, secs_ms, Args, Arms};
use hbbp_core::{Analysis, Analyzer, HybridRule, OnlineAnalyzer};
use hbbp_perf::StreamDecoder;
use hbbp_program::MnemonicMix;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Read size of `hbbp analyze`'s streaming path.
const CHUNK: usize = 64 * 1024;

/// Analyzer set-ups per run (the reported set-up time is their median).
const SETUP_REPS: usize = 41;

/// Untimed suite passes before measurement starts.
const WARMUP_PASSES: usize = 3;

/// Repetitions of each layer probe (the probe reports their median).
const PROBE_REPS: usize = 5;

/// One recording through the default path, with stage timestamps.
struct Streamed {
    analysis: Analysis,
    mix: MnemonicMix,
    /// Decode + push + finish, seconds.
    stream: f64,
    /// `OnlineAnalyzer::finish`, seconds.
    finish: f64,
    /// `Analyzer::mix`, seconds.
    mix_time: f64,
    /// Decoder compactions, analyzer pool hits and misses (traced only).
    counters: Option<(u64, u64, u64)>,
}

impl Streamed {
    fn total(&self) -> f64 {
        self.stream + self.mix_time
    }
}

fn stream_one(
    analyzer: &Analyzer,
    entry: &SuiteEntry,
    rule: &HybridRule,
    traced: bool,
) -> Result<Streamed, String> {
    let t0 = Instant::now();
    let mut online = OnlineAnalyzer::new(analyzer, entry.periods, rule.clone());
    let mut decoder = StreamDecoder::new();
    for chunk in entry.bytes.chunks(CHUNK) {
        decoder.feed(chunk);
        decoder
            .decode_into(&mut online)
            .map_err(|e| format!("{}: decode failed: {e}", entry.name))?;
    }
    let stats = decoder
        .finish()
        .map_err(|e| format!("{}: stream end: {e}", entry.name))?;
    let t1 = Instant::now();
    let outcome = online.finish();
    let t2 = Instant::now();
    let counters = traced.then_some((stats.compactions, outcome.pool_hits, outcome.pool_misses));
    let analysis = outcome
        .into_analysis()
        .ok_or_else(|| format!("{}: unwindowed run produced no analysis", entry.name))?;
    let mix = analyzer.mix(&analysis.hbbp.bbec);
    let t3 = Instant::now();
    Ok(Streamed {
        analysis,
        mix,
        stream: (t2 - t0).as_secs_f64(),
        finish: (t2 - t1).as_secs_f64(),
        mix_time: (t3 - t2).as_secs_f64(),
        counters,
    })
}

/// The streamed analysis and its mix must equal the batch analysis of
/// the same recording, bit for bit.
fn check_streamed(
    gate: &mut Gate,
    name: &str,
    s: &Streamed,
    want: &Analysis,
    want_mix: &MnemonicMix,
) {
    gate.check(
        same_analysis(&s.analysis, want) && same_mix(&s.mix, want_mix),
        || format!("{name}: streamed analysis differs from analyze_fused"),
    );
}

/// Per-pass sample series of one measurement arm.
#[derive(Default)]
struct PassSeries {
    throughput: Vec<f64>,
    latency: Vec<f64>,
    query: Vec<f64>,
    pass_ms: Vec<f64>,
    stream_ms: Vec<f64>,
    finish_ms: Vec<f64>,
    mix_ms: Vec<f64>,
}

/// Run the workload.
pub fn run(args: &Args) -> Outcome {
    let entries = offline_suite(args.seed);
    let rule = HybridRule::paper_default();
    let suite_bytes: usize = entries.iter().map(|e| e.bytes.len()).sum();
    let mut out = Outcome::default();
    out.fact("benchmarks", entries.len());
    out.fact("suite_bytes", suite_bytes);

    // Set-up: static block discovery for every benchmark's images.
    let mut setup = Vec::new();
    let mut analyzers = Vec::new();
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        analyzers = entries
            .iter()
            .map(|e| Analyzer::from_images(&e.images, e.workload.layout().symbols()))
            .collect::<Result<Vec<_>, _>>()
            .expect("discovery");
        setup.push(t0.elapsed().as_secs_f64());
    }

    // Expected outputs: the batch analysis of the same recordings (made
    // with the inputs) and its mix.
    let expected: Vec<(&Analysis, MnemonicMix)> = entries
        .iter()
        .zip(&analyzers)
        .map(|(e, a)| (&e.expected, a.mix(&e.expected.hbbp.bbec)))
        .collect();

    let mut gate = Gate::default();
    let pass = |traced: bool, gate: &mut Gate, last: &mut Vec<Analysis>| {
        let mut results = Vec::with_capacity(entries.len());
        for ((e, a), (want, want_mix)) in entries.iter().zip(&analyzers).zip(&expected) {
            match stream_one(a, e, &rule, traced) {
                Ok(s) => {
                    check_streamed(gate, &e.name, &s, want, want_mix);
                    results.push(s);
                }
                Err(msg) => gate.fail(msg),
            }
        }
        *last = results.iter().map(|s| s.analysis.clone()).collect();
        results
    };

    let mut last = Vec::new();
    for _ in 0..WARMUP_PASSES {
        pass(false, &mut Gate::default(), &mut last);
    }

    let mut arms: Arms<PassSeries> = Arms::default();
    let mut counters = (0u64, 0u64, 0u64);
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut i = 0usize;
    while Instant::now() < deadline || i < 4 {
        let traced = args.trace && i % 2 == 1;
        let results = pass(traced, &mut gate, &mut last);
        i += 1;
        if results.len() != entries.len() {
            continue;
        }
        let series = arms.arm(traced);
        let pass_s: f64 = results.iter().map(Streamed::total).sum();
        series.throughput.push(suite_bytes as f64 / pass_s / 1e6);
        series.pass_ms.push(pass_s * 1e3);
        series
            .stream_ms
            .push(secs_ms(results.iter().map(|s| s.stream).sum()));
        series
            .finish_ms
            .push(secs_ms(results.iter().map(|s| s.finish).sum()));
        series
            .mix_ms
            .push(secs_ms(results.iter().map(|s| s.mix_time).sum()));
        for s in &results {
            series.latency.push(secs_ms(s.total()));
            series.query.push(secs_ms(s.mix_time));
            if let Some((c, h, m)) = s.counters {
                counters = (counters.0 + c, counters.1 + h, counters.2 + m);
            }
        }
    }
    out.fact("passes", i);
    out.attempted = gate.checked;
    out.failed = gate.failed;
    out.failures = gate.messages;

    // Accuracy of the last pass's (gated) output against ground truth.
    let accuracy = Accuracy::of(
        entries
            .iter()
            .zip(&analyzers)
            .zip(&last)
            .map(|((e, a), an)| Judged {
                truth: &e.truth,
                reliable: !e.sde_unreliable,
                analyzer: a,
                analysis: an,
            }),
    );
    let plain = &arms.plain;
    let mut e2e = e2e_of(plain);
    e2e.median("setup_s", &setup);
    e2e.scalar("mix_error_pct", accuracy.hbbp_pct);
    e2e.scalar("peak_rss_mb", crate::peak_rss_mb());
    out.fact("reliable_benchmarks", accuracy.reliable);

    if args.trace {
        let mut layers = Collected::default();
        layer_probes(&mut layers, &entries, &analyzers, &rule);
        let traced = &arms.traced;
        layers.median("core.stream_ms", &traced.stream_ms);
        layers.median("core.finish_ms", &traced.finish_ms);
        layers.median("core.mix_ms", &traced.mix_ms);
        let analyze = layers.value("core.analyze_ms");
        layers.scalar(
            "core.stream_over_analyze",
            layers.value("core.stream_ms") / analyze,
        );
        let (compactions, hits, misses) = counters;
        let traced_passes = traced.pass_ms.len().max(1) as f64;
        layers.scalar(
            "perf.decoder_compactions",
            compactions as f64 / traced_passes,
        );
        layers.scalar("core.pool_miss_frac", ratio(misses, hits + misses));
        accuracy.report(&mut layers);

        // Reconcile the stages with the measured pass: decode alone, plus
        // batch analysis of pre-decoded data, plus the mix.
        let pass_ms = crate::stats::median(&plain.pass_ms);
        let stage_sum = layers.value("perf.decode_ms") + analyze + layers.value("core.mix_ms");
        layers.scalar("recon.pass_ms", pass_ms);
        layers.scalar("recon.stage_sum_ms", stage_sum);
        layers.scalar("recon.residual_ms", pass_ms - stage_sum);

        overhead_pct(&mut layers, &e2e_of(plain), &e2e_of(traced));
        out.per_layer = layers.ordered(crate::catalog::PER_LAYER);
    }
    out.end_to_end = e2e.ordered(crate::catalog::END_TO_END);
    out
}

/// The timing end-to-end metrics of one arm.
fn e2e_of(series: &PassSeries) -> Collected {
    let mut c = Collected::default();
    c.median("throughput_mb_s", &series.throughput);
    c.median("latency_p50_ms", &series.latency);
    c.p99("latency_p99_ms", &series.latency);
    c.median("query_p50_ms", &series.query);
    c.p99("query_p99_ms", &series.query);
    c
}

/// Layer probes on the suite's inputs, each timing one crate's public
/// functions from outside.
fn layer_probes(
    layers: &mut Collected,
    entries: &[SuiteEntry],
    analyzers: &[Analyzer],
    rule: &HybridRule,
) {
    // perf: decode into a sink that only counts.
    let decode = repeat(PROBE_REPS, || {
        let t0 = Instant::now();
        let mut sink = CountSink(0);
        for e in entries {
            let mut decoder = StreamDecoder::new();
            for chunk in e.bytes.chunks(CHUNK) {
                decoder.feed(chunk);
                decoder.decode_into(&mut sink).expect("decodable");
            }
            decoder.finish().expect("complete stream");
        }
        (secs_ms(t0.elapsed().as_secs_f64()), sink.0)
    });
    let decode_ms: Vec<f64> = decode.iter().map(|d| d.0).collect();
    layers.median("perf.decode_ms", &decode_ms);
    let bytes: usize = entries.iter().map(|e| e.bytes.len()).sum();
    layers.scalar("perf.decode_bytes", bytes as f64);
    layers.scalar("perf.decode_records", decode[0].1 as f64);

    // program and core, one benchmark at a time (decoded recordings are
    // too large to keep resident together): IP → block lookups of the
    // EBS samples in arrival order, and batch analysis of the decoded
    // recording.
    let (mut lookup_ns, mut lookups, mut unmapped, mut analyze_ms) = (0.0, 0usize, 0usize, 0.0);
    for (e, a) in entries.iter().zip(analyzers) {
        let data = e.decode();
        let analyze = repeat(PROBE_REPS, || {
            let t0 = Instant::now();
            black_box(a.analyze_fused(&data, e.periods, rule));
            secs_ms(t0.elapsed().as_secs_f64())
        });
        analyze_ms += crate::stats::median(&analyze);
        let ips = ebs_ips(&data);
        drop(data);
        let map = a.map();
        let lookup = repeat(PROBE_REPS, || {
            let t0 = Instant::now();
            for &ip in &ips {
                black_box(map.enclosing(ip));
            }
            t0.elapsed().as_secs_f64() * 1e9
        });
        lookup_ns += crate::stats::median(&lookup);
        lookups += ips.len();
        unmapped += ips
            .iter()
            .filter(|&&ip| map.enclosing(ip).is_none())
            .count();
    }
    layers.scalar("program.lookup_ns", lookup_ns / lookups.max(1) as f64);
    layers.scalar(
        "program.unmapped_frac",
        ratio(unmapped as u64, lookups as u64),
    );
    layers.scalar("core.analyze_ms", analyze_ms);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::suite_entry;

    /// The streamed-analysis gate passes on the real output and rejects a
    /// deliberately perturbed expected analysis or mix.
    #[test]
    fn streamed_gate_rejects_perturbed_expectations() {
        let e = suite_entry("mcf", 0);
        let a = Analyzer::from_images(&e.images, e.workload.layout().symbols()).unwrap();
        let rule = HybridRule::paper_default();
        let s = stream_one(&a, &e, &rule, true).expect("streams");
        let want_mix = a.mix(&e.expected.hbbp.bbec);
        let mut gate = Gate::default();
        check_streamed(&mut gate, &e.name, &s, &e.expected, &want_mix);
        assert_eq!((gate.checked, gate.failed), (1, 0));

        let mut nudged = e.expected.clone();
        let (addr, count) = nudged.lbr.bbec.iter().next().expect("LBR counts");
        nudged
            .lbr
            .bbec
            .set(addr, f64::from_bits(count.to_bits() + 1));
        check_streamed(&mut gate, &e.name, &s, &nudged, &want_mix);
        assert_eq!(gate.failed, 1, "a one-ulp LBR count must fail");

        let mut mix = MnemonicMix::new();
        for (k, v) in want_mix.iter() {
            mix.add(k, v * 2.0);
        }
        check_streamed(&mut gate, &e.name, &s, &e.expected, &mix);
        assert_eq!(gate.failed, 2, "a wrong mix must fail");
    }
}
