//! The per-node Injector (§3, §4.1).
//!
//! Applies one sub-batch to the node's slice of the hybrid store. This
//! module is the *single-shard* injection path (every key owned
//! locally), used by single-node deployments, tests and baselines; the
//! distributed engine routes each key update to its owner shard itself
//! (see `wukong-core`'s batch-processing path) because one triple's four
//! key updates may live on three different nodes.
//!
//! Timeless tuples go into the persistent shard (their timestamps dropped,
//! their append receipts becoming a stream-index batch), timing tuples go
//! into the stream's transient ring. Injection and indexing times are
//! kept separate because Table 6 reports them separately.

use crate::dispatcher::SubBatch;
use std::time::Instant;
use wukong_rdf::{StreamTuple, Timestamp};
use wukong_store::{
    IndexBatch, PersistentShard, SnapshotId, StreamIndex, TransientSlice, TransientStore,
};

/// Per-stream stores of one node (transient ring + stream index).
#[derive(Debug)]
pub struct NodeStreamStore {
    /// Timing-data ring buffer.
    pub transient: TransientStore,
    /// Timeless-data stream index.
    pub index: StreamIndex,
}

impl NodeStreamStore {
    /// Creates the per-stream stores with a transient memory budget.
    pub fn new(transient_budget_bytes: usize) -> Self {
        NodeStreamStore {
            transient: TransientStore::new(transient_budget_bytes),
            index: StreamIndex::new(),
        }
    }
}

/// Cost and volume accounting for one injected sub-batch.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct InjectStats {
    /// Timeless tuples absorbed into the persistent store.
    pub timeless: usize,
    /// Timing tuples stored in the transient ring.
    pub timing: usize,
    /// Tuples the adaptor discarded as irrelevant to any query.
    pub discarded: usize,
    /// Far-future timestamp jumps the adaptor coalesced into bounded
    /// heartbeat runs (bad clocks; see `Adaptor::MAX_EMPTY_RUN`).
    pub clock_anomalies: usize,
    /// Nanoseconds spent appending to the persistent + transient stores.
    pub inject_ns: u64,
    /// Nanoseconds spent building and appending the stream index.
    pub index_ns: u64,
}

impl InjectStats {
    /// Accumulates another sub-batch's stats.
    pub fn add(&mut self, other: &InjectStats) {
        self.timeless += other.timeless;
        self.timing += other.timing;
        self.discarded += other.discarded;
        self.clock_anomalies += other.clock_anomalies;
        self.inject_ns += other.inject_ns;
        self.index_ns += other.index_ns;
    }
}

/// The injector of one node.
#[derive(Debug, Default)]
pub struct Injector;

impl Injector {
    /// Applies `sub` (a batch slice with timestamp `ts`) under snapshot
    /// `sn`, returning the stream-index batch built from the appends plus
    /// cost accounting.
    ///
    /// The returned [`IndexBatch`] is what locality-aware partitioning
    /// replicates to subscriber nodes (§4.2) — the caller pushes it into
    /// this node's [`NodeStreamStore`] and ships copies elsewhere.
    pub fn apply(
        &self,
        shard: &PersistentShard,
        store: &mut NodeStreamStore,
        sub: &SubBatch,
        ts: Timestamp,
        sn: SnapshotId,
    ) -> (IndexBatch, InjectStats) {
        self.apply_merging(shard, store, sub, ts, sn, None)
    }

    /// Like [`Injector::apply`], consolidating touched cells' snapshot
    /// intervals up to `merge_upto` while appending (§4.3's injection-time
    /// snapshot recycling).
    pub fn apply_merging(
        &self,
        shard: &PersistentShard,
        store: &mut NodeStreamStore,
        sub: &SubBatch,
        ts: Timestamp,
        sn: SnapshotId,
        merge_upto: Option<SnapshotId>,
    ) -> (IndexBatch, InjectStats) {
        self.apply_split(
            shard,
            &mut store.transient,
            &mut store.index,
            sub,
            ts,
            sn,
            merge_upto,
        )
    }

    /// The workhorse: like [`Injector::apply_merging`] but over separately
    /// borrowed transient/index structures (the engine keeps them behind
    /// independent locks).
    #[allow(clippy::too_many_arguments)]
    pub fn apply_split(
        &self,
        shard: &PersistentShard,
        transient: &mut TransientStore,
        index: &mut StreamIndex,
        sub: &SubBatch,
        ts: Timestamp,
        sn: SnapshotId,
        merge_upto: Option<SnapshotId>,
    ) -> (IndexBatch, InjectStats) {
        let mut stats = InjectStats::default();

        // Persistent store: timeless tuples only.
        let timeless: Vec<_> = sub
            .tuples
            .iter()
            .filter(|t| t.is_timeless())
            .map(|t| t.triple)
            .collect();
        let t0 = Instant::now();
        let receipts = shard.inject_batch_merging(&timeless, sn, merge_upto);
        stats.timeless = timeless.len();

        // Transient store: timing tuples.
        let timing: Vec<StreamTuple> = sub
            .tuples
            .iter()
            .filter(|t| !t.is_timeless())
            .copied()
            .collect();
        stats.timing = timing.len();
        transient.push_batch(TransientSlice::from_batch(ts, &timing));
        stats.inject_ns = t0.elapsed().as_nanos() as u64;

        // Stream index from the persistent appends.
        let t1 = Instant::now();
        let batch = IndexBatch::from_receipts(ts, &receipts);
        index.push_batch(batch.clone());
        stats.index_ns = t1.elapsed().as_nanos() as u64;

        (batch, stats)
    }

    /// Replays a replicated index batch from another node (the replica
    /// side of locality-aware partitioning).
    pub fn apply_replica(&self, store: &mut NodeStreamStore, batch: IndexBatch) {
        store.index.push_batch(batch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wukong_obs::BatchId;
    use wukong_rdf::{Dir, Key, Pid, Triple, Vid};

    fn timeless(s: u64, p: u64, o: u64, ts: Timestamp) -> StreamTuple {
        StreamTuple::timeless(Triple::new(Vid(s), Pid(p), Vid(o)), ts)
    }

    fn timing(s: u64, p: u64, o: u64, ts: Timestamp) -> StreamTuple {
        StreamTuple::timing(Triple::new(Vid(s), Pid(p), Vid(o)), ts)
    }

    #[test]
    fn splits_timeless_and_timing() {
        let shard = PersistentShard::new(4);
        let mut store = NodeStreamStore::new(1 << 20);
        let sub = SubBatch {
            batch: BatchId::mint(0, 100),
            node: 0,
            tuples: vec![timeless(1, 2, 3, 50), timing(4, 5, 6, 60)],
            checksum: 0,
        };
        let (batch, stats) = Injector.apply(&shard, &mut store, &sub, 100, SnapshotId(1));
        assert_eq!(stats.timeless, 1);
        assert_eq!(stats.timing, 1);
        assert!(batch.entry_count() >= 2); // out, in and index keys

        // Timeless landed in the persistent store…
        assert!(shard.exists_at(Vid(1), Pid(2), Vid(3), SnapshotId(1)));
        // …timing did not, but is in the transient ring.
        assert!(!shard.exists_at(Vid(4), Pid(5), Vid(6), SnapshotId(1)));
        assert_eq!(
            store
                .transient
                .neighbors_in(Key::new(Vid(4), Pid(5), Dir::Out), 100, 100),
            vec![Vid(6)]
        );
    }

    #[test]
    fn stream_index_resolves_window() {
        let shard = PersistentShard::new(4);
        let mut store = NodeStreamStore::new(1 << 20);
        for (ts, o) in [(100u64, 10u64), (200, 11), (300, 12)] {
            let sub = SubBatch {
                batch: BatchId::mint(0, ts),
                node: 0,
                tuples: vec![timeless(1, 2, o, ts - 10)],
                checksum: 0,
            };
            Injector.apply(&shard, &mut store, &sub, ts, SnapshotId(1));
        }
        // Window [150, 250] sees only the middle batch through the index.
        let key = Key::new(Vid(1), Pid(2), Dir::Out);
        let mut out = Vec::new();
        // The replica path reads through the shard's partitions.
        for (_, fp) in store.index.pointers_in(key, 150, 250) {
            shard.read_range(key, fp.start, fp.len, &mut out);
        }
        assert_eq!(out, vec![Vid(11)]);
    }

    #[test]
    fn replica_replay_matches_source() {
        let shard = PersistentShard::new(4);
        let mut src = NodeStreamStore::new(1 << 20);
        let mut dst = NodeStreamStore::new(1 << 20);
        let sub = SubBatch {
            batch: BatchId::mint(0, 100),
            node: 0,
            tuples: vec![timeless(1, 2, 3, 90)],
            checksum: 0,
        };
        let (batch, _) = Injector.apply(&shard, &mut src, &sub, 100, SnapshotId(1));
        Injector.apply_replica(&mut dst, batch);
        assert_eq!(dst.index.batch_count(), 1);
        let key = Key::new(Vid(1), Pid(2), Dir::Out);
        assert_eq!(dst.index.count_in(key, 100, 100), 1);
    }

    #[test]
    fn stats_accumulate() {
        let mut a = InjectStats {
            timeless: 1,
            timing: 2,
            discarded: 1,
            clock_anomalies: 0,
            inject_ns: 10,
            index_ns: 20,
        };
        a.add(&InjectStats {
            timeless: 3,
            timing: 4,
            discarded: 2,
            clock_anomalies: 1,
            inject_ns: 30,
            index_ns: 40,
        });
        assert_eq!(a.timeless, 4);
        assert_eq!(a.timing, 6);
        assert_eq!(a.discarded, 3);
        assert_eq!(a.clock_anomalies, 1);
        assert_eq!(a.inject_ns, 40);
        assert_eq!(a.index_ns, 60);
    }
}
