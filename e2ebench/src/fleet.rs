//! `fleet_ingest`: a closed loop of two collectors streaming the 8
//! distinct `phased_client` recordings, each under a fresh source id, to
//! an in-process daemon on `hbbp serve` defaults. A collector sends its
//! next stream only after the previous `INGESTED` reply. The run sends a
//! fixed number of streams, so stored bytes and memory do not depend on
//! the speed of the code under test.

use crate::accuracy::{Accuracy, Judged};
use crate::catalog::Collected;
use crate::gates::{expected_fold, same_mix, Acked, Gate};
use crate::inputs::{ebs_ips, fleet, Fleet, SERVE_PERIODS};
use crate::probe::{repeat, CountSink};
use crate::report::Outcome;
use crate::serve::{self, metrics, ObsDelta, Scratch, SHARDS, WINDOW};
use crate::stats::{median, windowed_p99};
use crate::{overhead_pct, ratio, secs_ms, Args, Arms};
use hbbp_core::{Analyzer, HybridRule, MixComparison, OnlineAnalyzer};
use hbbp_perf::{RecordView, StreamDecoder, ViewSink};
use hbbp_program::MnemonicMix;
use hbbp_store::{ProfileStore, StoreClient};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Daemon set-ups per run (the reported set-up time is their median).
pub const SETUP_REPS: usize = 61;

/// Collector threads (the reference host has two cores).
const COLLECTORS: usize = 2;

/// Streams per measured round; rounds alternate arms in a traced run.
const ROUND: usize = 128;

/// Streams sent per second of `--seconds` (a fixed count, not a time).
const STREAMS_PER_SECOND: f64 = 2500.0;

/// Streams per window of `latency_p99_ms`: the reported p99 is the
/// median of the windows' p99s, each with 20 samples beyond it.
const P99_WINDOW: usize = 16 * ROUND;

/// `STATS` replies per window of `query_p99_ms` (10 samples beyond each
/// window's p99).
const QUERY_P99_WINDOW: usize = 1000;

/// `STATS` queries between rounds (the workload's query metrics): an
/// operator polling the daemon while the fleet ingests.
const STATS_PER_ROUND: usize = 12;

/// Repetitions of each layer probe (the probe reports their median).
const PROBE_REPS: usize = 15;

/// One acknowledged (or failed) stream.
#[derive(Clone)]
struct Sent {
    /// Source id it was sent under.
    source: u32,
    /// Which of the distinct recordings it carried.
    stream: usize,
    /// Milliseconds from connect to the `INGESTED` reply.
    latency_ms: f64,
    /// Records the reply acknowledged, or the failure.
    reply: Result<u64, String>,
}

/// Send `count` streams under sources `first..first + count` from
/// [`COLLECTORS`] closed-loop collectors.
fn closed_loop(client: &StoreClient, fleet: &Fleet, first: u32, count: usize) -> Vec<Sent> {
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..COLLECTORS)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            return out;
                        }
                        let source = first + i as u32;
                        let stream = fleet.stream_of(source);
                        let t0 = Instant::now();
                        let reply = client
                            .stream_bytes(source, &fleet.streams[stream].bytes)
                            .map(|r| r.records)
                            .map_err(|e| e.to_string());
                        out.push(Sent {
                            source,
                            stream,
                            latency_ms: secs_ms(t0.elapsed().as_secs_f64()),
                            reply,
                        });
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("collector thread"))
            .collect()
    })
}

/// Check every reply's record count against its recording's.
fn check_replies(gate: &mut Gate, fleet: &Fleet, sent: &[Sent]) {
    for s in sent {
        match &s.reply {
            Ok(records) => {
                let want = fleet.streams[s.stream].records;
                gate.check(*records == want, || {
                    format!(
                        "source {}: INGESTED {records} records, sent {want}",
                        s.source
                    )
                });
            }
            Err(e) => gate.fail(format!("source {}: {e}", s.source)),
        }
    }
}

/// The mix of the canonical fold of every acknowledged source.
fn expected_mix(analyzer: &Analyzer, fleet: &Fleet, acked: &[u32]) -> MnemonicMix {
    let model: Vec<Acked<'_>> = acked
        .iter()
        .map(|&source| Acked {
            source,
            bbec: &fleet.stream(source).analysis.hbbp.bbec,
        })
        .collect();
    analyzer.mix(&expected_fold(&model, SHARDS))
}

/// Check the daemon's `MIX` against `want`, and return the daemon's mix.
fn check_mix(gate: &mut Gate, client: &StoreClient, want: &MnemonicMix) -> MnemonicMix {
    match client.query_mix() {
        Ok(got) => {
            gate.check(same_mix(&got, want), || {
                "daemon MIX differs from the canonical fold of the acknowledged streams".into()
            });
            got
        }
        Err(e) => {
            gate.fail(format!("MIX: {e}"));
            MnemonicMix::new()
        }
    }
}

/// Average weighted error (percent) of the daemon's aggregate mix
/// against the summed ground truth of every acknowledged stream.
fn fleet_mix_error_pct(fleet: &Fleet, acked: &[u32], got: &MnemonicMix) -> f64 {
    let mut truth = MnemonicMix::new();
    for &source in acked {
        truth.merge(&fleet.stream(source).truth);
    }
    100.0 * MixComparison::compare(&truth, got).avg_weighted_error()
}

/// Per-round sample series of one measurement arm.
#[derive(Default)]
struct RoundSeries {
    throughput: Vec<f64>,
    latency: Vec<f64>,
}

/// Run the workload.
pub fn run(args: &Args) -> Outcome {
    let fleet = fleet(args.seed);
    let scratch = Scratch::new("fleet_ingest");
    let (handle, setup) = serve::setup(&fleet, &scratch, SETUP_REPS);
    let dir = scratch.join(&format!("store-{}", SETUP_REPS - 1));
    let client = handle.client();
    let analyzer =
        Analyzer::from_images(&fleet.images, fleet.workload.layout().symbols()).expect("discovery");
    let mut out = Outcome::default();
    let mut gate = Gate::default();

    // Warm-up: every recording once (connections, analyzer pools, writer
    // threads, page cache), under the first sources.
    let warm = closed_loop(&client, &fleet, 0, fleet.streams.len());
    check_replies(&mut gate, &fleet, &warm);
    let mut acked: Vec<u32> = warm.iter().map(|s| s.source).collect();
    let mut next_source = warm.len() as u32;

    let rounds = ((STREAMS_PER_SECOND * args.seconds) / ROUND as f64)
        .ceil()
        .max(2.0) as usize;
    let mut arms: Arms<RoundSeries> = Arms::default();
    let mut obs = ObsDelta::default();
    let mut traced_streams = 0u64;
    let mut wire_bytes = fleet
        .streams
        .iter()
        .map(|s| s.bytes.len() as u64)
        .sum::<u64>();
    let mut queries = Vec::with_capacity(rounds * STATS_PER_ROUND);
    for r in 0..rounds {
        let traced = args.trace && r % 2 == 1;
        let before = traced.then(|| metrics(&client));
        let t0 = Instant::now();
        let sent = closed_loop(&client, &fleet, next_source, ROUND);
        next_source += ROUND as u32;
        let elapsed = t0.elapsed().as_secs_f64();
        if let Some(before) = before {
            obs.add(&before, &metrics(&client));
            traced_streams += sent.len() as u64;
        }
        check_replies(&mut gate, &fleet, &sent);
        let bytes: u64 = sent
            .iter()
            .filter(|s| s.reply.is_ok())
            .map(|s| fleet.streams[s.stream].bytes.len() as u64)
            .sum();
        wire_bytes += bytes;
        let series = arms.arm(traced);
        series.throughput.push(bytes as f64 / elapsed / 1e6);
        series.latency.extend(sent.iter().map(|s| s.latency_ms));
        acked.extend(sent.iter().filter(|s| s.reply.is_ok()).map(|s| s.source));
        for _ in 0..STATS_PER_ROUND {
            let t0 = Instant::now();
            let reply = client.stats();
            queries.push(secs_ms(t0.elapsed().as_secs_f64()));
            match reply {
                Ok(stats) => gate.check(stats.counts_frames == acked.len() as u64, || {
                    format!(
                        "STATS counts {} frames, acknowledged {}",
                        stats.counts_frames,
                        acked.len()
                    )
                }),
                Err(e) => gate.fail(format!("STATS: {e}")),
            }
        }
    }
    out.fact("streams", acked.len());
    out.fact("wire_bytes", wire_bytes);

    let want = expected_mix(&analyzer, &fleet, &acked);
    let daemon_mix = check_mix(&mut gate, &client, &want);
    let stored = serve::store_bytes(&dir);
    let rss = crate::peak_rss_mb();
    handle.shutdown().expect("daemon shutdown");

    let plain = &arms.plain;
    let mut e2e = e2e_of(plain);
    e2e.median("setup_s", &setup);
    e2e.median("query_p50_ms", &queries);
    e2e.median("query_p99_ms", &windowed_p99(&queries, QUERY_P99_WINDOW));
    e2e.scalar(
        "mix_error_pct",
        fleet_mix_error_pct(&fleet, &acked, &daemon_mix),
    );
    e2e.scalar("peak_rss_mb", rss);

    if args.trace {
        let mut layers = Collected::default();
        let replay = daemon_layers(
            &mut layers,
            &fleet,
            &analyzer,
            &scratch,
            &obs,
            traced_streams,
        );
        layers.scalar(
            "store.bytes_per_user_byte",
            stored as f64 / wire_bytes as f64,
        );
        reconcile_round(&mut layers, &replay, median(&arms.traced.latency));
        overhead_pct(&mut layers, &e2e_of(plain), &e2e_of(&arms.traced));
        out.per_layer = layers.ordered(crate::catalog::PER_LAYER);
    }
    out.attempted = gate.checked;
    out.failed = gate.failed;
    out.failures = gate.messages;
    out.end_to_end = e2e.ordered(crate::catalog::END_TO_END);
    out
}

/// The ingest end-to-end metrics of one arm.
fn e2e_of(series: &RoundSeries) -> Collected {
    let mut c = Collected::default();
    c.median("throughput_mb_s", &series.throughput);
    c.median("latency_p50_ms", &series.latency);
    c.median("latency_p99_ms", &windowed_p99(&series.latency, P99_WINDOW));
    c
}

/// What the single-threaded replay of the distinct streams measured.
struct Replay {
    /// Whole + windowed analysis of one stream (what `hbbpd` runs per
    /// connection), median milliseconds per stream.
    per_stream_ms: f64,
}

/// `latency_p50_ms` against the analysis share of a stream plus the
/// median group commit: the rest of a round is the daemon's own
/// handoffs, sockets and queueing.
fn reconcile_round(layers: &mut Collected, replay: &Replay, latency_p50_ms: f64) {
    let commit_ms = layers.value("store.writer_commit_p50_us") / 1e3;
    layers.scalar("recon.round_analysis_ms", replay.per_stream_ms);
    layers.scalar("recon.round_commit_ms", commit_ms);
    layers.scalar(
        "store.round_residual_ms",
        latency_p50_ms - replay.per_stream_ms - commit_ms,
    );
}

/// The daemon's per-connection sink: every view to the whole-stream
/// analyzer and, when present, the windowed one.
struct Fanout<'s, 'a> {
    whole: &'s mut OnlineAnalyzer<'a>,
    windowed: Option<&'s mut OnlineAnalyzer<'a>>,
}

impl ViewSink for Fanout<'_, '_> {
    fn view(&mut self, view: &RecordView<'_>) {
        if let Some(w) = self.windowed.as_deref_mut() {
            w.push_view(view);
        }
        self.whole.push_view(view);
    }
}

/// Per-stream timings of one replay pass over the distinct streams.
struct ReplayPass {
    stream_ms: f64,
    finish_ms: f64,
    mix_ms: f64,
    windows: usize,
}

/// Replay every distinct stream through a whole-stream analyzer and,
/// with `windowed`, the daemon's windowed one beside it.
fn replay_pass(
    fleet: &Fleet,
    analyzer: &Analyzer,
    rule: &HybridRule,
    windowed: bool,
) -> ReplayPass {
    let mut pass = ReplayPass {
        stream_ms: 0.0,
        finish_ms: 0.0,
        mix_ms: 0.0,
        windows: 0,
    };
    for s in &fleet.streams {
        let t0 = Instant::now();
        let mut whole = OnlineAnalyzer::new(analyzer, SERVE_PERIODS, rule.clone());
        let mut win = windowed.then(|| {
            OnlineAnalyzer::new(analyzer, SERVE_PERIODS, rule.clone()).with_window(WINDOW)
        });
        let mut decoder = StreamDecoder::new();
        decoder.feed(&s.bytes);
        let mut sink = Fanout {
            whole: &mut whole,
            windowed: win.as_mut(),
        };
        decoder.decode_into(&mut sink).expect("decodable");
        if let Some(w) = win.as_mut() {
            pass.windows += w.take_closed_windows().len();
        }
        decoder.finish().expect("complete stream");
        let t1 = Instant::now();
        if let Some(w) = win {
            pass.windows += w.finish().windows.len();
        }
        let analysis = whole.finish().into_analysis().expect("unwindowed");
        let t2 = Instant::now();
        black_box(analyzer.mix(&analysis.hbbp.bbec));
        let t3 = Instant::now();
        pass.stream_ms += secs_ms((t2 - t0).as_secs_f64());
        pass.finish_ms += secs_ms((t2 - t1).as_secs_f64());
        pass.mix_ms += secs_ms((t3 - t2).as_secs_f64());
    }
    pass
}

/// Layer probes of the daemon workload: decode, lookup and analysis over
/// the distinct streams, the windowed replay, segment-log appends, and
/// the registry deltas of the traced rounds.
fn daemon_layers(
    layers: &mut Collected,
    fleet: &Fleet,
    analyzer: &Analyzer,
    scratch: &Scratch,
    obs: &ObsDelta,
    ops: u64,
) -> Replay {
    let rule = HybridRule::paper_default();
    let n = fleet.streams.len() as f64;

    // perf: decode into a sink that only counts.
    let mut records = 0;
    let decode = repeat(PROBE_REPS, || {
        let t0 = Instant::now();
        let mut sink = CountSink(0);
        for s in &fleet.streams {
            let mut decoder = StreamDecoder::new();
            decoder.feed(&s.bytes);
            decoder.decode_into(&mut sink).expect("decodable");
            decoder.finish().expect("complete stream");
        }
        records = sink.0;
        secs_ms(t0.elapsed().as_secs_f64())
    });
    layers.median("perf.decode_ms", &decode);
    layers.scalar(
        "perf.decode_bytes",
        fleet.streams.iter().map(|s| s.bytes.len()).sum::<usize>() as f64,
    );
    layers.scalar("perf.decode_records", records as f64);
    layers.scalar(
        "perf.decoder_compactions",
        obs.counter("decoder.compactions") as f64 * n / ops.max(1) as f64,
    );

    // program: IP → block lookups of the EBS samples, in arrival order.
    let ips: Vec<Vec<u64>> = fleet.streams.iter().map(|s| ebs_ips(&s.data)).collect();
    let lookups: usize = ips.iter().map(Vec::len).sum();
    let map = analyzer.map();
    let lookup = repeat(PROBE_REPS, || {
        let t0 = Instant::now();
        for ip in ips.iter().flatten() {
            black_box(map.enclosing(*ip));
        }
        t0.elapsed().as_secs_f64() * 1e9 / lookups.max(1) as f64
    });
    layers.median("program.lookup_ns", &lookup);
    let unmapped = ips
        .iter()
        .flatten()
        .filter(|&&ip| map.enclosing(ip).is_none())
        .count();
    layers.scalar(
        "program.unmapped_frac",
        ratio(unmapped as u64, lookups as u64),
    );

    // core: batch analysis, the whole-only replay, and whole + windowed.
    let analyze = repeat(PROBE_REPS, || {
        let t0 = Instant::now();
        for s in &fleet.streams {
            black_box(analyzer.analyze_fused(&s.data, SERVE_PERIODS, &rule));
        }
        secs_ms(t0.elapsed().as_secs_f64())
    });
    layers.median("core.analyze_ms", &analyze);
    let whole: Vec<ReplayPass> = (0..PROBE_REPS)
        .map(|_| replay_pass(fleet, analyzer, &rule, false))
        .collect();
    let both: Vec<ReplayPass> = (0..PROBE_REPS)
        .map(|_| replay_pass(fleet, analyzer, &rule, true))
        .collect();
    let col = |v: &[ReplayPass], f: fn(&ReplayPass) -> f64| v.iter().map(f).collect::<Vec<_>>();
    layers.median("core.stream_ms", &col(&whole, |p| p.stream_ms));
    layers.median("core.finish_ms", &col(&whole, |p| p.finish_ms));
    layers.median("core.mix_ms", &col(&whole, |p| p.mix_ms));
    layers.scalar(
        "core.stream_over_analyze",
        layers.value("core.stream_ms") / layers.value("core.analyze_ms"),
    );
    let both_ms = median(&col(&both, |p| p.stream_ms));
    layers.scalar("core.window_ms", both_ms - layers.value("core.stream_ms"));
    layers.scalar("core.window_closes", both[0].windows as f64);
    let hits = obs.counter("analyzer.pool_hits");
    let misses = obs.counter("analyzer.pool_misses");
    layers.scalar("core.pool_miss_frac", ratio(misses, hits + misses));
    Accuracy::of(fleet.streams.iter().map(|s| Judged {
        truth: &s.truth,
        reliable: true,
        analyzer,
        analysis: &s.analysis,
    }))
    .report(layers);

    // store: one counts frame appended and committed at a time.
    let mut store =
        ProfileStore::open_with_identity(scratch.join("append.hbbp"), fleet.identity.clone())
            .expect("probe store");
    let mut append = Vec::new();
    for source in 0..(PROBE_REPS * fleet.streams.len()) as u32 {
        let s = fleet.stream(source);
        let bbec = s.analysis.hbbp.bbec.clone();
        let t0 = Instant::now();
        store
            .append_counts_deferred(source, s.analysis.ebs.samples_used, 0, bbec)
            .expect("append");
        store.commit().expect("commit");
        append.push(secs_ms(t0.elapsed().as_secs_f64()));
    }
    layers.median("store.append_ms", &append);

    // store: the registry over the traced rounds.
    let per_op = |name| obs.counter(name) as f64 / ops.max(1) as f64;
    layers.scalar("store.worker_sleeps_per_op", per_op("worker.sleeps"));
    layers.scalar("store.worker_ticks_per_op", per_op("worker.ticks"));
    layers.scalar(
        "store.worker_tick_scan_p50_us",
        obs.quantile("worker.tick_scan_us", 0.5),
    );
    layers.scalar("store.worker_parks", obs.counter("worker.parks") as f64);
    layers.scalar(
        "store.worker_read_budget_exhausted",
        obs.counter("worker.read_budget_exhausted") as f64,
    );
    layers.scalar(
        "store.writer_commit_p50_us",
        obs.quantile("writer.commit_us", 0.5),
    );
    layers.scalar(
        "store.writer_commit_p99_us",
        obs.quantile("writer.commit_us", 0.99),
    );
    layers.scalar("store.writer_batch_mean", obs.mean("writer.batch_messages"));
    layers.scalar(
        "store.writer_queue_depth_hwm",
        obs.high_water("writer.queue_depth") as f64,
    );
    Replay {
        per_stream_ms: both_ms / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both daemon gates pass on the daemon's real output and reject a
    /// deliberately perturbed expectation.
    #[test]
    fn daemon_gates_reject_perturbed_expectations() {
        let fleet = fleet(3);
        let scratch = Scratch::new("gate-test");
        let (handle, _) = serve::setup(&fleet, &scratch, 1);
        let client = handle.client();
        let analyzer = Analyzer::from_images(&fleet.images, fleet.workload.layout().symbols())
            .expect("discovery");
        let sent = closed_loop(&client, &fleet, 0, 12);
        let mut gate = Gate::default();
        check_replies(&mut gate, &fleet, &sent);
        assert_eq!((gate.checked, gate.failed), (12, 0));
        let acked: Vec<u32> = sent.iter().map(|s| s.source).collect();
        let want = expected_mix(&analyzer, &fleet, &acked);
        check_mix(&mut gate, &client, &want);
        assert_eq!(gate.failed, 0, "{:?}", gate.messages);

        // One acknowledged stream missing from the model.
        let fewer = expected_mix(&analyzer, &fleet, &acked[1..]);
        let mut g = Gate::default();
        check_mix(&mut g, &client, &fewer);
        assert_eq!(g.failed, 1);
        // One count one ulp off.
        let (m, c) = want.iter().next().expect("non-empty mix");
        let mut nudged = MnemonicMix::new();
        for (k, v) in want.iter() {
            nudged.add(
                k,
                if k == m {
                    f64::from_bits(c.to_bits() + 1)
                } else {
                    v
                },
            );
        }
        let mut g = Gate::default();
        check_mix(&mut g, &client, &nudged);
        assert_eq!(g.failed, 1);
        // A reply whose record count is off by one.
        let mut wrong = sent[0].clone();
        wrong.reply = Ok(wrong.reply.clone().unwrap() + 1);
        let mut g = Gate::default();
        check_replies(&mut g, &fleet, &[wrong]);
        assert_eq!(g.failed, 1);
        handle.shutdown().expect("shutdown");
    }
}
