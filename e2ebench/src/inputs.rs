//! Input generation — the load generator's work, never timed. Everything
//! here is a pure function of the workload seed: simulated recordings
//! (encoded to the wire format the system under test consumes), the
//! batch analyses the correctness gates compare against, and the
//! instrumentation ground truth the accuracy metrics use.

use hbbp_bench::runner::evaluate;
use hbbp_core::{Analysis, Analyzer, HbbpProfiler, HybridRule, SamplingPeriods};
use hbbp_instrument::Instrumenter;
use hbbp_perf::{PerfData, PerfSession};
use hbbp_program::{ImageView, MnemonicMix, TextImage};
use hbbp_sim::{Cpu, EventSpec};
use hbbp_store::StoreIdentity;
use hbbp_workloads::{phased_client, spec, Scale, Workload};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Threads generating inputs (the reference host has two cores).
const GEN_THREADS: usize = 2;

/// Hardware seed of the paper-figure experiments (`experiments fig2`'s
/// default): workload seed 0 reproduces fig2 exactly.
pub const FIG2_HW_SEED: u64 = 0xE4A;

/// Sampling periods of `hbbp serve` / `hbbp record` defaults.
pub const SERVE_PERIODS: SamplingPeriods = SamplingPeriods {
    ebs: 1009,
    lbr: 211,
};

/// Distinct collector recordings of the daemon workloads.
pub const FLEET_CLIENTS: u32 = 8;

/// One SPEC-like benchmark of the offline suite.
pub struct SuiteEntry {
    /// Benchmark name.
    pub name: String,
    /// The recording in the perf wire format (what `hbbp analyze` reads).
    pub bytes: Vec<u8>,
    /// Sampling periods the recording was collected with.
    pub periods: SamplingPeriods,
    /// Patched disk images the analyzer discovers blocks from.
    pub images: Vec<TextImage>,
    /// The workload (its layout carries the symbols discovery needs).
    pub workload: Workload,
    /// Batch analysis of the recording (`Analyzer::analyze_fused`).
    pub expected: Analysis,
    /// Instrumentation ground-truth instruction mix (user mode).
    pub truth: MnemonicMix,
    /// The instrumenter disagreed with PMU counting (fig2's exclusion).
    pub sde_unreliable: bool,
}

impl SuiteEntry {
    /// The recording decoded again (kept out of memory between uses:
    /// the suite's recordings are several hundred MB decoded).
    pub fn decode(&self) -> PerfData {
        hbbp_perf::codec::read(&self.bytes).expect("generated recording decodes")
    }
}

/// The fig2 suite (`spec::all(Scale::Tiny)`) profiled at the hardware
/// seed of workload seed `seed`, exactly as `experiments fig2` does.
/// Two threads profile one benchmark at a time each, so only two decoded
/// recordings are ever resident.
pub fn offline_suite(seed: u64) -> Vec<SuiteEntry> {
    par_map(spec::SPEC_NAMES.len(), |i| {
        suite_entry(spec::SPEC_NAMES[i], seed)
    })
}

/// One benchmark of the fig2 suite, profiled at workload seed `seed`.
pub fn suite_entry(name: &str, seed: u64) -> SuiteEntry {
    let workload = spec::workload_for(name, Scale::Tiny);
    let o = evaluate(
        &workload,
        FIG2_HW_SEED.wrapping_add(seed),
        &HybridRule::paper_default(),
    );
    let profile = o.profile;
    // The images fig2's profiler analyzed (kernel text patched from the
    // live image); they do not depend on the CPU seed.
    let images = HbbpProfiler::new(Cpu::with_seed(0)).analysis_images(&workload);
    SuiteEntry {
        name: o.name,
        bytes: hbbp_perf::codec::write(&profile.recording.data).to_vec(),
        periods: profile.periods,
        images,
        workload,
        expected: profile.analysis,
        truth: o.truth.mix,
        sde_unreliable: o.sde_unreliable,
    }
}

/// `(0..n).map(f)` on [`GEN_THREADS`] threads, results in index order.
fn par_map<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..GEN_THREADS {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let value = f(i);
                *slots[i].lock().expect("slot") = Some(value);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("slot")
                .expect("every index generated")
        })
        .collect()
}

/// One collector's recording in the daemon workloads.
pub struct FleetStream {
    /// The recording in the perf wire format (a `STREAM` payload).
    pub bytes: Vec<u8>,
    /// The same recording decoded.
    pub data: PerfData,
    /// Records in the recording (what `INGESTED` must report).
    pub records: u64,
    /// Batch analysis of the recording (`Analyzer::analyze_fused`).
    pub analysis: Analysis,
    /// Instrumentation ground-truth instruction mix.
    pub truth: MnemonicMix,
}

/// The daemon workloads' inputs: the 8 distinct `phased_client(Tiny, c)`
/// recordings, the address space they share, and the seeded order in
/// which collectors cycle through them.
pub struct Fleet {
    /// Client 0's workload: the program and layout every client shares.
    pub workload: Workload,
    /// Disk images the daemon's analyzer discovers blocks from.
    pub images: Vec<TextImage>,
    /// The store identity of the shared address space.
    pub identity: StoreIdentity,
    /// One recording per client.
    pub streams: Vec<FleetStream>,
    /// Source `s` carries recording `order[s % order.len()]`.
    pub order: Vec<usize>,
}

impl Fleet {
    /// The recording sent under `source`.
    pub fn stream_of(&self, source: u32) -> usize {
        self.order[source as usize % self.order.len()]
    }

    /// The stream sent under `source`.
    pub fn stream(&self, source: u32) -> &FleetStream {
        &self.streams[self.stream_of(source)]
    }
}

/// Record the daemon workloads' collectors. The recordings are those of
/// the store bench (`benches/store.rs`: hardware seed `40 + c`) for every
/// workload seed, so the fleet's accuracy does not move with the seed;
/// `seed` permutes the order the collectors cycle through them, which
/// changes arrival order, shard placement and fold order.
pub fn fleet(seed: u64) -> Fleet {
    let rule = HybridRule::paper_default();
    let workload = phased_client(Scale::Tiny, 0);
    let images = workload.images(ImageView::Disk);
    let analyzer = Analyzer::from_images(&images, workload.layout().symbols()).expect("discovery");
    let identity = StoreIdentity::of_workload(&workload, analyzer.map());
    let streams = par_map(FLEET_CLIENTS as usize, |c| {
        let c = c as u32;
        let w = phased_client(Scale::Tiny, c);
        let hw_seed = 40 + u64::from(c);
        let session = PerfSession::hbbp(
            Cpu::with_seed(hw_seed),
            SERVE_PERIODS.ebs,
            SERVE_PERIODS.lbr,
        )
        .with_pid(1000 + c);
        let rec = session
            .record(w.program(), w.layout(), w.oracle())
            .expect("recording");
        let truth = Instrumenter::new().run(w.program(), w.layout(), w.oracle());
        FleetStream {
            bytes: hbbp_perf::codec::write(&rec.data).to_vec(),
            records: rec.data.len() as u64,
            analysis: analyzer.analyze_fused(&rec.data, SERVE_PERIODS, &rule),
            data: rec.data,
            truth: truth.mix,
        }
    });
    Fleet {
        workload,
        images,
        identity,
        streams,
        order: permutation(FLEET_CLIENTS as usize, seed),
    }
}

/// splitmix64: a small seeded generator for schedules and orders.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A seeded permutation of `0..n` (Fisher-Yates).
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = SplitMix(seed);
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, (rng.next() % (i as u64 + 1)) as usize);
    }
    v
}

/// Instruction pointers of the EBS samples of `data`, in arrival order.
pub fn ebs_ips(data: &PerfData) -> Vec<u64> {
    let ebs = EventSpec::inst_retired_prec_dist();
    data.samples()
        .filter(|s| s.event == ebs)
        .map(|s| s.ip)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::permutation;

    #[test]
    fn permutations_are_seeded_and_complete() {
        let a = permutation(8, 1);
        assert_eq!(a, permutation(8, 1));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..8).collect::<Vec<_>>());
        assert!((0..16).any(|s| permutation(8, s) != a), "seeds differ");
    }
}
