//! Per-shard single-writer ingest queues.
//!
//! Each store shard is owned outright by one writer thread — no
//! `Mutex<ProfileStore>` anywhere. Workers parse and analyze streams,
//! then hand *completed* results (window batches, counts frames) over a
//! **bounded** queue; the writer drains whatever has accumulated and
//! group-commits the whole batch as a single file write
//! ([`ProfileStore::commit`]). An ingest reply (the assigned `seq`) is
//! released only after the commit that made its frame durable, so a
//! client that has its `INGESTED` reply knows the counts frame is in
//! the log. Every reply unparks the worker waiting on it ([`Reply`]),
//! so a handoff costs a wakeup, not a poll interval.
//!
//! Queries are serialized through the same queue, which gives them
//! read-your-writes consistency per shard for free: the writer commits
//! everything buffered before serving a snapshot.
//!
//! The writers also keep the daemon-wide [`SourceRegistry`] in step
//! with their partitions' counts frames, so `STATS` answers its
//! distinct-source count without scanning any frame.
//!
//! Shutdown: the writer exits when every sender is gone (workers drop
//! their clones as they drain), after committing its tail — the
//! drain-on-shutdown path.

use crate::frame::WindowRecord;
use crate::store::{ProfileStore, Snapshot};
use hbbp_obs::{Counter, Gauge, Histogram, Metrics};
use hbbp_program::Bbec;
use std::collections::{HashMap, HashSet};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Mutex;
use std::thread::Thread;
use std::time::Instant;

/// A reply channel that wakes its consumer: the worker that created it
/// parks between ticks, and [`Reply::send`] unparks it right after the
/// value lands, so the worker sees the reply on its next tick instead
/// of after an idle timeout.
pub(crate) struct Reply<T> {
    tx: Sender<T>,
    waker: Thread,
}

impl<T> Reply<T> {
    /// A reply that wakes the calling thread.
    pub(crate) fn to_current(tx: Sender<T>) -> Reply<T> {
        Reply {
            tx,
            waker: std::thread::current(),
        }
    }

    /// Deliver `value` (a gone receiver is ignored — its connection was
    /// dropped), then unpark the waiting thread.
    fn send(&self, value: T) {
        let _ = self.tx.send(value);
        self.waker.unpark();
    }
}

impl<T> Clone for Reply<T> {
    fn clone(&self) -> Reply<T> {
        Reply {
            tx: self.tx.clone(),
            waker: self.waker.clone(),
        }
    }
}

/// The daemon-wide set of distinct counts-frame sources: each source id
/// maps to the number of partitions whose counts frames hold it. Shard
/// writers enter and leave sources as their partitions change; `STATS`
/// reads the size, which is exactly the number of distinct source ids
/// across all partitions — wherever a source sits, and with
/// [`crate::COMPACTED_SOURCE`] counted once.
#[derive(Default)]
pub(crate) struct SourceRegistry {
    partitions: Mutex<HashMap<u32, u32>>,
}

impl SourceRegistry {
    /// Distinct sources across all partitions.
    pub(crate) fn len(&self) -> usize {
        self.lock().len()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<u32, u32>> {
        // A panicking writer cannot leave the map half-updated (each
        // update is one insert or remove), so a poisoned lock is safe.
        self.partitions
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn enter(&self, source: u32) {
        *self.lock().entry(source).or_insert(0) += 1;
    }

    fn leave(&self, source: u32) {
        let mut partitions = self.lock();
        if let Some(n) = partitions.get_mut(&source) {
            *n -= 1;
            if *n == 0 {
                partitions.remove(&source);
            }
        }
    }
}

/// One writer's view of its partition's distinct counts sources, kept
/// in step with the shared [`SourceRegistry`].
struct PartitionSources<'r> {
    registry: &'r SourceRegistry,
    held: HashSet<u32>,
}

impl<'r> PartitionSources<'r> {
    /// Enter every distinct source already in `store`'s counts frames.
    fn open(registry: &'r SourceRegistry, store: &ProfileStore) -> PartitionSources<'r> {
        let mut sources = PartitionSources {
            registry,
            held: HashSet::new(),
        };
        sources.reconcile(store);
        sources
    }

    /// A counts frame for `source` landed in the partition.
    fn note(&mut self, source: u32) {
        if self.held.insert(source) {
            self.registry.enter(source);
        }
    }

    /// Re-derive the held set from the partition's counts frames (after
    /// a rewrite such as `COMPACT`), entering and leaving the difference.
    fn reconcile(&mut self, store: &ProfileStore) {
        let now: HashSet<u32> = store.counts().iter().map(|c| c.source).collect();
        for &gone in self.held.difference(&now) {
            self.registry.leave(gone);
        }
        for &new in now.difference(&self.held) {
            self.registry.enter(new);
        }
        self.held = now;
    }
}

/// Messages a shard writer consumes, in arrival order.
pub(crate) enum WriterMsg {
    /// Closed timeline windows from an in-flight stream (fire and
    /// forget: the timeline is an observability stream).
    Windows(Vec<WindowRecord>),
    /// A completed stream's counts frame; `reply` carries the assigned
    /// `seq`, sent only after the group commit that durably wrote it.
    Counts {
        /// Collector source id.
        source: u32,
        /// EBS samples the stream contributed.
        ebs_samples: u64,
        /// LBR samples the stream contributed.
        lbr_samples: u64,
        /// The whole-stream analysis (bit-exact `f64` counts).
        bbec: Bbec,
        /// Where the committed `seq` (or error) goes.
        reply: Reply<Result<u32, String>>,
    },
    /// A consistent view of the shard (pending appends committed first).
    /// The shard index is echoed back so gathering workers can fold
    /// partitions in index order — compacted fold frames all share the
    /// same `(source, seq)` key, so arrival order must not leak into the
    /// canonical aggregate.
    Snapshot(usize, Reply<(usize, Snapshot)>),
    /// Shard statistics (pending appends committed first).
    Stats(Reply<ShardStats>),
    /// Compact the shard's log (pending appends absorbed by the rewrite).
    Compact(Reply<Result<(), String>>),
}

/// One shard's contribution to [`crate::wire::DaemonStats`] (the
/// distinct-source count comes from the [`SourceRegistry`]).
pub(crate) struct ShardStats {
    pub counts_frames: u64,
    pub window_frames: u64,
    pub bytes: u64,
}

/// Upper bound on messages folded into one group commit — bounds reply
/// latency under a sustained ingest firehose.
const MAX_BATCH: usize = 512;

/// The shard writer: drain the queue, apply appends deferred, group
/// commit, release replies. Runs until every sender is dropped.
pub(crate) fn writer_loop(
    mut store: ProfileStore,
    rx: Receiver<WriterMsg>,
    metrics: Metrics,
    shard: usize,
    registry: &SourceRegistry,
) {
    let mut sources = PartitionSources::open(registry, &store);
    // Ingest replies withheld until the commit that makes them true.
    let mut uncommitted: Vec<(Reply<Result<u32, String>>, u32)> = Vec::new();
    let mut batch: Vec<WriterMsg> = Vec::new();
    // Deferred appends are pending (the commit will actually write).
    let mut dirty = false;
    while let Ok(first) = rx.recv() {
        batch.push(first);
        while batch.len() < MAX_BATCH {
            match rx.try_recv() {
                Ok(msg) => batch.push(msg),
                Err(_) => break,
            }
        }
        // The sending worker raised the queue-depth gauge per message;
        // lower it as the batch leaves the queue.
        for _ in 0..batch.len() {
            metrics.gauge_shard_dec(Gauge::WriterQueueDepth, shard);
        }
        metrics.observe(Histogram::WriterBatchMessages, batch.len() as u64);
        for msg in batch.drain(..) {
            match msg {
                WriterMsg::Windows(records) => {
                    metrics.add(Counter::WriterWindowsAppended, records.len() as u64);
                    dirty = true;
                    for w in records {
                        // Cannot fail: the store was opened with an
                        // identity; I/O is deferred to the commit.
                        let _ = store.append_window_deferred(w);
                    }
                }
                WriterMsg::Counts {
                    source,
                    ebs_samples,
                    lbr_samples,
                    bbec,
                    reply,
                } => match store.append_counts_deferred(source, ebs_samples, lbr_samples, bbec) {
                    Ok(seq) => {
                        metrics.inc(Counter::WriterCountsAppended);
                        dirty = true;
                        sources.note(source);
                        uncommitted.push((reply, seq));
                    }
                    Err(e) => reply.send(Err(e.to_string())),
                },
                WriterMsg::Snapshot(shard, reply) => {
                    commit(&mut store, &mut uncommitted, &metrics, &mut dirty);
                    reply.send((shard, store.snapshot()));
                }
                WriterMsg::Stats(reply) => {
                    commit(&mut store, &mut uncommitted, &metrics, &mut dirty);
                    reply.send(ShardStats {
                        counts_frames: store.counts().len() as u64,
                        window_frames: store.windows().len() as u64,
                        bytes: store.file_bytes(),
                    });
                }
                WriterMsg::Compact(reply) => {
                    commit(&mut store, &mut uncommitted, &metrics, &mut dirty);
                    let result = store.compact().map_err(|e| e.to_string());
                    // Compaction folds the partition's sources into
                    // `COMPACTED_SOURCE`; the registry follows before the
                    // reply releases the client.
                    sources.reconcile(&store);
                    reply.send(result);
                }
            }
        }
        // Group commit: one file write for every append in the batch,
        // then release the ingest replies it covers.
        commit(&mut store, &mut uncommitted, &metrics, &mut dirty);
    }
    // Drain on shutdown: all senders gone, every queued message already
    // consumed by the loop above — just make sure the tail is written.
    let _ = store.commit();
}

fn commit(
    store: &mut ProfileStore,
    uncommitted: &mut Vec<(Reply<Result<u32, String>>, u32)>,
    metrics: &Metrics,
    dirty: &mut bool,
) {
    let result = if *dirty {
        *dirty = false;
        let bytes_before = store.file_bytes();
        let started = Instant::now();
        let result = store.commit().map_err(|e| e.to_string());
        metrics.inc(Counter::WriterCommits);
        metrics.observe(
            Histogram::WriterCommitUs,
            started.elapsed().as_micros() as u64,
        );
        metrics.add(
            Counter::WriterBytesCommitted,
            store.file_bytes().saturating_sub(bytes_before),
        );
        result
    } else {
        // Nothing deferred: the commit is a no-op and not worth a
        // latency observation.
        store.commit().map_err(|e| e.to_string())
    };
    for (reply, seq) in uncommitted.drain(..) {
        reply.send(result.clone().map(|()| seq));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{ModuleSpan, StoreIdentity};
    use crate::store::COMPACTED_SOURCE;
    use hbbp_program::Ring;
    use std::path::PathBuf;
    use std::sync::mpsc::TryRecvError;
    use std::sync::Arc;
    use std::time::Duration;

    fn store(name: &str) -> ProfileStore {
        let dir = std::env::temp_dir().join(format!("hbbp-writer-unit-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path: PathBuf = dir.join(name);
        let _ = std::fs::remove_file(&path);
        let identity = StoreIdentity {
            program: "p".into(),
            block_count: 1,
            modules: vec![ModuleSpan {
                name: "p.bin".into(),
                base: 0x400000,
                len: 0x1000,
                ring: Ring::User,
            }],
        };
        ProfileStore::open_with_identity(path, identity).expect("open")
    }

    fn bbec() -> Bbec {
        [(0x400000u64, 1.0)].into_iter().collect()
    }

    /// Park for up to 30 s at a time until `rx` yields. The reply's
    /// unpark is the only thing that can end a park early (bar spurious
    /// wakeups, which just loop), so a missing wakeup shows as a 30 s
    /// wait rather than as a flaky race.
    fn park_for<T>(rx: &Receiver<T>) -> (T, Duration) {
        let started = Instant::now();
        loop {
            std::thread::park_timeout(Duration::from_secs(30));
            match rx.try_recv() {
                Ok(value) => return (value, started.elapsed()),
                Err(TryRecvError::Empty) => {
                    assert!(started.elapsed() < Duration::from_secs(60), "no reply")
                }
                Err(TryRecvError::Disconnected) => panic!("writer dropped the reply"),
            }
        }
    }

    #[test]
    fn writer_replies_unpark_the_requesting_thread() {
        let registry = Arc::new(SourceRegistry::default());
        let (tx, rx) = std::sync::mpsc::sync_channel(4);
        let writer = {
            let store = store("wake.hbbp");
            let registry = Arc::clone(&registry);
            std::thread::spawn(move || writer_loop(store, rx, Metrics::disabled(), 0, &registry))
        };

        // An ingest reply, released by the group commit.
        let (reply_tx, reply_rx) = std::sync::mpsc::channel();
        tx.send(WriterMsg::Counts {
            source: 7,
            ebs_samples: 1,
            lbr_samples: 1,
            bbec: bbec(),
            reply: Reply::to_current(reply_tx),
        })
        .expect("send counts");
        let (seq, waited) = park_for(&reply_rx);
        assert_eq!(seq, Ok(0));
        assert!(
            waited < Duration::from_secs(5),
            "ingest reply took {waited:?}"
        );

        // A query reply.
        let (reply_tx, reply_rx) = std::sync::mpsc::channel();
        tx.send(WriterMsg::Stats(Reply::to_current(reply_tx)))
            .expect("send stats");
        let (stats, waited) = park_for(&reply_rx);
        assert_eq!(stats.counts_frames, 1);
        assert!(
            waited < Duration::from_secs(5),
            "stats reply took {waited:?}"
        );
        assert_eq!(registry.len(), 1);

        drop(tx);
        writer
            .join()
            .expect("writer exits once its senders are gone");
    }

    #[test]
    fn registry_counts_each_source_once_across_partitions() {
        let registry = SourceRegistry::default();
        let mut a = store("registry-a.hbbp");
        let mut b = store("registry-b.hbbp");
        a.append_counts(1, 1, 1, bbec()).unwrap();
        b.append_counts(1, 1, 1, bbec()).unwrap();
        b.append_counts(2, 1, 1, bbec()).unwrap();
        let mut sa = PartitionSources::open(&registry, &a);
        let mut sb = PartitionSources::open(&registry, &b);
        assert_eq!(registry.len(), 2, "source 1 sits in both partitions");

        sa.note(3);
        sa.note(3);
        assert_eq!(registry.len(), 3);

        // Compacting one partition: its sources fold into the reserved
        // id, and source 1 stays because the other partition holds it.
        a.append_counts(3, 1, 1, bbec()).unwrap();
        a.compact().unwrap();
        sa.reconcile(&a);
        assert_eq!(registry.len(), 3, "{{1, 2, COMPACTED_SOURCE}}");
        b.compact().unwrap();
        sb.reconcile(&b);
        assert_eq!(registry.len(), 1);
        assert_eq!(
            *registry.lock().keys().next().unwrap(),
            COMPACTED_SOURCE,
            "only the folds remain"
        );
    }
}
