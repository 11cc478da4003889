//! The in-process daemon the fleet workload drives: spawned on
//! `hbbp serve` defaults, with its set-up timed and its `hbbp-obs`
//! registry read through the public `METRICS` op.

use crate::inputs::{Fleet, SERVE_PERIODS};
use hbbp_core::{Analyzer, HybridRule, Window};
use hbbp_obs::{HistogramSample, Snapshot};
use hbbp_store::{DaemonConfig, DaemonHandle, StoreClient};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// `hbbp serve` default partition count.
pub const SHARDS: u32 = 4;

/// `hbbp serve` default timeline window.
pub const WINDOW: Window = Window::Samples(512);

/// A scratch directory inside the working directory, removed on drop.
pub struct Scratch(PathBuf);

impl Scratch {
    /// Create (or empty) `.e2ebench-tmp/<tag>-<pid>`.
    pub fn new(tag: &str) -> Scratch {
        let dir = PathBuf::from(".e2ebench-tmp").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch directory");
        Scratch(dir)
    }

    /// A subdirectory path (not created).
    pub fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent); // only if now empty
        }
    }
}

/// Spawn a daemon over `dir` the way `hbbp serve` does by default and
/// wait until it serves its first operation. Returns the handle and the
/// seconds from analyzer discovery to the first `STATS` reply.
pub fn spawn_timed(fleet: &Fleet, dir: &Path) -> (DaemonHandle, f64) {
    let t0 = Instant::now();
    let analyzer =
        Analyzer::from_images(&fleet.images, fleet.workload.layout().symbols()).expect("discovery");
    let handle = hbbp_store::spawn(DaemonConfig {
        analyzer,
        identity: fleet.identity.clone(),
        periods: SERVE_PERIODS,
        rule: HybridRule::paper_default(),
        window: Some(WINDOW),
        shards: SHARDS as usize,
        dir: dir.to_path_buf(),
        workers: 0,
        queue_depth: 0,
        metrics: true,
    })
    .expect("daemon spawn");
    handle.client().stats().expect("first STATS");
    (handle, t0.elapsed().as_secs_f64())
}

/// Set the daemon up `reps` times over fresh directories, shutting down
/// all but the last. Returns the live daemon and every set-up time.
pub fn setup(fleet: &Fleet, scratch: &Scratch, reps: usize) -> (DaemonHandle, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut live: Option<DaemonHandle> = None;
    for i in 0..reps {
        if let Some(h) = live.take() {
            h.shutdown().expect("set-up daemon shutdown");
        }
        let (h, t) = spawn_timed(fleet, &scratch.join(&format!("store-{i}")));
        times.push(t);
        live = Some(h);
    }
    (live.expect("at least one set-up"), times)
}

/// Bytes of every partition file under `dir`.
pub fn store_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// The change in the daemon's registry between two `METRICS` snapshots,
/// accumulated over any number of traced intervals.
#[derive(Debug, Default, Clone)]
pub struct ObsDelta {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Vec<u64>>,
    hist_sums: BTreeMap<String, (u64, u64)>,
    high_water: BTreeMap<String, u64>,
}

impl ObsDelta {
    /// Add the change from `before` to `after`.
    pub fn add(&mut self, before: &Snapshot, after: &Snapshot) {
        for c in &after.counters {
            let was = before
                .counters
                .iter()
                .find(|b| b.name == c.name && b.shard == c.shard)
                .map_or(0, |b| b.value);
            *self.counters.entry(c.name.clone()).or_default() += c.value.saturating_sub(was);
        }
        for h in &after.histograms {
            let was = before
                .histograms
                .iter()
                .find(|b| b.name == h.name && b.shard == h.shard);
            let buckets = self
                .histograms
                .entry(h.name.clone())
                .or_insert_with(|| vec![0; h.buckets.len()]);
            for (i, n) in h.buckets.iter().enumerate() {
                let old = was.and_then(|w| w.buckets.get(i)).copied().unwrap_or(0);
                buckets[i] += n.saturating_sub(old);
            }
            let sums = self.hist_sums.entry(h.name.clone()).or_default();
            sums.0 += h.count.saturating_sub(was.map_or(0, |w| w.count));
            sums.1 += h.sum.saturating_sub(was.map_or(0, |w| w.sum));
        }
        for g in &after.gauges {
            let hw = self.high_water.entry(g.name.clone()).or_default();
            *hw = (*hw).max(g.high_water);
        }
    }

    /// A counter's accumulated change.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Upper bound of a histogram's `q`-quantile over the accumulated
    /// observations (0 when none landed).
    pub fn quantile(&self, name: &str, q: f64) -> f64 {
        let Some(buckets) = self.histograms.get(name) else {
            return 0.0;
        };
        let (count, sum) = self.hist_sums.get(name).copied().unwrap_or((0, 0));
        HistogramSample {
            name: name.to_owned(),
            shard: None,
            count,
            sum,
            buckets: buckets.clone(),
        }
        .quantile_upper_bound(q)
        .map_or(0.0, |v| v as f64)
    }

    /// Mean of a histogram's accumulated observations (0 when none).
    pub fn mean(&self, name: &str) -> f64 {
        match self.hist_sums.get(name) {
            Some(&(count, sum)) if count > 0 => sum as f64 / count as f64,
            _ => 0.0,
        }
    }

    /// Highest high-water mark of a gauge across its instances.
    pub fn high_water(&self, name: &str) -> u64 {
        self.high_water.get(name).copied().unwrap_or(0)
    }
}

/// Read the registry through the public op.
pub fn metrics(client: &StoreClient) -> Snapshot {
    client.query_metrics().expect("METRICS")
}
