//! The per-node Injector (§3, §4.1).
//!
//! Applies one sub-batch to the node's slice of the hybrid store.
//! Timeless tuples go into the persistent shard (their timestamps dropped,
//! their append receipts becoming a stream-index batch), timing tuples go
//! into the stream's transient ring. Injection and indexing times are
//! kept separate because Table 6 reports them separately.
//!
//! There is one install path, in two phases (DESIGN.md §5, "The write
//! path"). [`install_sub_batch`] applies the data-key updates of
//! [`wukong_store::key_updates`] that one node owns, through
//! [`PersistentShard::install_owned`]; their first-edge events become
//! the index-vertex updates that [`apply_index_updates`] lands on the
//! index keys' owners, because one triple's four key updates may live on
//! three different nodes. Both phases fold their append receipts straight
//! into the node's [`StreamIndex`], under the batch it holds open until
//! the seal. The
//! distributed engine (`wukong-core`'s one install stage, shared by batch
//! processing and catch-up replay) runs phase 1 per node and phase 2
//! across nodes, once per sub-batch: a whole batch, or each piece of a
//! batch installing while it fills, all folding into one [`Installed`]
//! share and one open index batch per node until the batch seals;
//! [`Injector::apply`] is the same two calls with every key owned
//! locally, for tests and benchmarks.

use crate::dispatcher::SubBatch;
use std::time::Instant;
use wukong_rdf::{Key, KeySet, StreamTuple, Timestamp, Vid};
use wukong_store::base::AppendReceipt;
use wukong_store::stream_index::Sealed;
use wukong_store::{
    PersistentShard, ShardMap, SnapshotId, StreamIndex, TransientSlice, TransientStore,
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
    /// Pieces the batches installed in: one per batch sealed whole, more
    /// for a batch installed while it filled.
    pub pieces: usize,
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
        self.pieces += other.pieces;
    }
}

/// One node's share of a batch while it installs, one sub-batch (the
/// whole batch, or a piece of it cut while it fills) at a time: the
/// transient slice the sub-batches fold into until the batch seals, and
/// the volume and time they took. (Their index entries fold into the
/// node's stream index, in its open batch.)
#[derive(Debug, Default)]
pub struct Installed {
    /// The node's open transient slice.
    pub slice: TransientSlice,
    /// The slice's index-vertex dedup set (see
    /// [`TransientSlice::extend_filtered`]), kept until the batch seals.
    seen: KeySet,
    /// Volume and the two timed phases of this node's share.
    pub stats: InjectStats,
    /// First-edge events of the latest sub-batch's appends, in append
    /// order: the index-vertex updates phase 2 routes to their owners.
    pub index_updates: Vec<(Key, Vid)>,
    /// The latest sub-batch's append receipts (a buffer kept across the
    /// batch's sub-batches).
    receipts: Vec<AppendReceipt>,
}

impl Installed {
    /// Seals the share: the finished transient slice, for the stream's
    /// ring, and the share's stats.
    pub fn seal(self) -> (TransientSlice, InjectStats) {
        (self.slice, self.stats)
    }
}

/// Phase 1 of installing one sub-batch on one node: appends the timeless
/// tuples' data keys that `owns` selects to `shard` under snapshot `sn`
/// (consolidating touched cells up to `merge_upto`), folds the append
/// receipts into `index`'s open batch at `ts` and the timing tuples'
/// owned entries into the share's open transient slice. A batch's
/// sub-batches all go into one `open` share and one open index batch, so
/// the batch keeps one index batch and one slice however many pieces it
/// installed in.
///
/// What costs once per sub-batch, not per tuple: the shard's batch lock
/// and the triple count ([`PersistentShard::install_owned`]), one
/// receipts buffer sized up front, and one clock read per timed phase
/// (injection, then indexing — Table 6's columns).
#[allow(clippy::too_many_arguments)]
pub fn install_sub_batch(
    shard: &PersistentShard,
    owns: impl Fn(Key) -> bool,
    tuples: &[StreamTuple],
    ts: Timestamp,
    sn: SnapshotId,
    merge_upto: Option<SnapshotId>,
    index: &mut StreamIndex,
    open: &mut Installed,
) {
    let t0 = Instant::now();
    open.slice.timestamp = ts;
    let timeless = tuples.iter().filter(|t| t.is_timeless());
    // Two data-key appends per timeless tuple at most — exact when this
    // node owns every key.
    open.receipts.clear();
    open.receipts.reserve(2 * timeless.clone().count());
    open.stats.timeless += shard.install_owned(
        timeless.map(|t| t.triple),
        &owns,
        sn,
        merge_upto,
        &mut open.receipts,
        &mut open.index_updates,
    );
    let before = open.slice.tuple_count();
    let timing = tuples.iter().filter(|t| !t.is_timeless());
    open.slice.extend_filtered(timing, &owns, &mut open.seen);
    open.stats.timing += open.slice.tuple_count() - before;
    let t1 = Instant::now();
    open.stats.inject_ns += (t1 - t0).as_nanos() as u64;

    index.open(ts);
    index.record_all(&open.receipts);
    open.stats.index_ns += t1.elapsed().as_nanos() as u64;
}

/// Phase 2 of installing one sub-batch per node: lands every node's
/// first-edge index-vertex updates on the index key's owner, in node
/// order (the order fixes the index vertices' neighbour order), folding
/// each append into the owner's open index batch (`indexes[n]` is node
/// `n`'s stream index, its batch opened by phase 1). An owner with
/// `delivered[node]` unset never received the sub-batch and misses the
/// update too — recovery replays the whole batch, regenerating it.
/// `installed[n]` is node `n`'s open share. Callers install one sub-batch
/// at a time (the engine's pipeline lock), so each call's appends to an
/// index key are one run. Returns the nanoseconds spent.
pub fn apply_index_updates<'a, I: std::ops::DerefMut<Target = StreamIndex>>(
    shards: &ShardMap,
    shard_of: impl Fn(u16) -> &'a PersistentShard,
    indexes: &mut [I],
    installed: &mut [Installed],
    delivered: &[bool],
    sn: SnapshotId,
    merge_upto: Option<SnapshotId>,
) -> u64 {
    let t0 = Instant::now();
    for share in installed.iter_mut() {
        for (key, v) in std::mem::take(&mut share.index_updates) {
            let owner = shards.node_of_key(key);
            if !delivered[owner as usize] {
                continue;
            }
            let (offset, _) = shard_of(owner).append_owned(key, v, sn, merge_upto);
            indexes[owner as usize].record(AppendReceipt { key, offset });
        }
    }
    t0.elapsed().as_nanos() as u64
}

/// The injector of one node.
#[derive(Debug, Default)]
pub struct Injector;

impl Injector {
    /// Applies `sub` (a batch slice with timestamp `ts`) under snapshot
    /// `sn` with every key owned locally, sealing the batch into
    /// `store`'s transient ring and stream index; returns what the seal
    /// published — what locality-aware partitioning replicates to
    /// subscriber nodes (§4.2) — plus cost accounting.
    pub fn apply(
        &self,
        shard: &PersistentShard,
        store: &mut NodeStreamStore,
        sub: &SubBatch,
        ts: Timestamp,
        sn: SnapshotId,
    ) -> (Sealed, InjectStats) {
        let mut inst = Installed::default();
        let index = &mut store.index;
        install_sub_batch(shard, |_| true, &sub.tuples, ts, sn, None, index, &mut inst);
        inst.stats.inject_ns += apply_index_updates(
            &ShardMap::new(1),
            |_| shard,
            &mut [&mut *index],
            std::slice::from_mut(&mut inst),
            &[true],
            sn,
            None,
        );
        let (slice, mut stats) = inst.seal();
        store.transient.push_batch(slice);
        let t1 = Instant::now();
        let sealed = index.seal();
        stats.index_ns += t1.elapsed().as_nanos() as u64;
        (sealed, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wukong_obs::BatchId;
    use wukong_rdf::{Dir, Key, Pid, Triple, Vid};
    use wukong_store::IndexBatch;

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
        assert!(batch.entries >= 2); // out, in and index keys

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

    /// The install path against the per-tuple primitives it replaced:
    /// one `BaseStore::insert_at` per timeless tuple, one
    /// `IndexBatch::from_receipts` over all of a batch's receipts and one
    /// owner-filtered `TransientSlice` per node — with the batch
    /// installed whole and in pieces.
    #[test]
    fn install_matches_the_per_tuple_primitives() {
        use crate::{dispatch, Batch};
        use wukong_rdf::StreamId;
        use wukong_store::BaseStore;

        let mut rng = proptest::TestRng::for_test("install_vs_primitives");
        for (nodes, piece) in [
            (1u16, usize::MAX),
            (4, usize::MAX),
            (8, usize::MAX),
            (1, 7),
            (4, 16),
        ] {
            for merging in [false, true] {
                let map = ShardMap::new(nodes);
                let shards: Vec<PersistentShard> =
                    (0..nodes).map(|_| PersistentShard::new(4)).collect();
                let mut oracle = BaseStore::new();
                let mut keys: Vec<Key> = Vec::new();
                for round in 1..=6u64 {
                    let (ts, sn) = (round * 100, SnapshotId(round));
                    let merge = (merging && round > 2).then(|| SnapshotId(round - 2));
                    // Few vertices and predicates: keys repeat within and
                    // across batches, and first-edge events thin out.
                    let tuples: Vec<StreamTuple> = (0..rng.usize_in(0, 120))
                        .map(|_| {
                            let (s, p, o) =
                                (rng.below(12) + 1, rng.below(4) + 1, rng.below(12) + 20);
                            if rng.chance(1, 3) {
                                timing(s, p, o, ts)
                            } else {
                                timeless(s, p, o, ts)
                            }
                        })
                        .collect();
                    let batch = Batch::sealed(StreamId(0), ts, tuples, 0);

                    let mut receipts = Vec::new();
                    for t in batch.timeless() {
                        oracle.insert_at(t.triple, sn, &mut receipts);
                    }
                    let mut want_index = StreamIndex::new();
                    want_index.push_batch(IndexBatch::from_receipts(ts, &receipts));
                    let timing: Vec<StreamTuple> = batch.timing().copied().collect();

                    // Every piece runs both phases before the next one.
                    let mut installed: Vec<Installed> =
                        (0..nodes).map(|_| Installed::default()).collect();
                    let mut indexes: Vec<StreamIndex> =
                        (0..nodes).map(|_| StreamIndex::new()).collect();
                    for chunk in batch.tuples.chunks(piece.min(batch.tuples.len()).max(1)) {
                        let part = Batch::sealed(StreamId(0), ts, chunk.to_vec(), 0);
                        for sub in dispatch(&part, &map) {
                            install_sub_batch(
                                &shards[sub.node as usize],
                                map.owner_filter(sub.node),
                                &sub.tuples,
                                ts,
                                sn,
                                merge,
                                &mut indexes[sub.node as usize],
                                &mut installed[sub.node as usize],
                            );
                        }
                        apply_index_updates(
                            &map,
                            |n| &shards[n as usize],
                            &mut indexes.iter_mut().collect::<Vec<_>>(),
                            &mut installed,
                            &vec![true; nodes as usize],
                            sn,
                            merge,
                        );
                    }

                    // Same fat pointers once sealed, each on its key's
                    // owner only.
                    let sealed: usize = indexes.iter_mut().map(|i| i.seal().entries).sum();
                    let want_entries: usize = want_index.batch_sizes().iter().map(|(_, n)| n).sum();
                    assert_eq!(sealed, want_entries);
                    for r in &receipts {
                        let owner = map.node_of_key(r.key) as usize;
                        let runs = |i: &StreamIndex| i.pointers_in(r.key, ts, ts);
                        assert_eq!(runs(&indexes[owner]), runs(&want_index), "{:?}", r.key);
                        keys.push(r.key);
                    }
                    // Same volume, every tuple counted on exactly one node.
                    let timeless: usize = installed.iter().map(|i| i.stats.timeless).sum();
                    assert_eq!(timeless, batch.timeless().count());
                    // Same transient neighbours and bytes, per owner.
                    for (n, inst) in installed.iter().enumerate() {
                        let slice = &inst.slice;
                        let want = TransientSlice::from_batch_filtered(
                            ts,
                            &timing,
                            map.owner_filter(n as u16),
                        );
                        assert_eq!(slice.heap_bytes(), want.heap_bytes());
                        for t in &timing {
                            for k in [
                                t.triple.out_key(),
                                t.triple.in_key(),
                                Key::index(t.triple.p, Dir::Out),
                                Key::index(t.triple.p, Dir::In),
                            ] {
                                assert_eq!(slice.neighbors(k), want.neighbors(k), "{k:?}");
                            }
                        }
                    }

                    // Same cells. Injection-time merging only moves *when*
                    // an old snapshot's appends become visible to older
                    // readers, so merged runs compare the current view;
                    // index vertices of a multi-node install hold the same
                    // vertices in node order rather than tuple order.
                    keys.sort_unstable();
                    keys.dedup();
                    let views = if merging { sn.0..=sn.0 } else { 0..=sn.0 };
                    for at in views.map(SnapshotId) {
                        for &k in &keys {
                            let mut got = shards[map.node_of_key(k) as usize].neighbors_at(k, at);
                            let mut want = oracle.neighbors_at(k, at);
                            if k.is_index() && nodes > 1 {
                                got.sort_unstable();
                                want.sort_unstable();
                            }
                            assert_eq!(got, want, "{k:?} at {at:?}, {nodes} nodes");
                        }
                    }
                }
                let counted: u64 = shards.iter().map(PersistentShard::triple_count).sum();
                assert_eq!(counted, oracle.triple_count());
            }
        }
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
    fn apply_seals_what_replication_ships() {
        let shard = PersistentShard::new(4);
        let mut src = NodeStreamStore::new(1 << 20);
        let sub = SubBatch {
            batch: BatchId::mint(0, 100),
            node: 0,
            tuples: vec![timeless(1, 2, 3, 90)],
            checksum: 0,
        };
        let (sealed, _) = Injector.apply(&shard, &mut src, &sub, 100, SnapshotId(1));
        // Out-key, in-key and both index vertices: four keys, one run each.
        assert_eq!((sealed.entries, sealed.wire_bytes), (4, 4 * 32));
        assert_eq!(src.index.batch_count(), 1);
        let key = Key::new(Vid(1), Pid(2), Dir::Out);
        assert_eq!(src.index.count_in(key, 100, 100), 1);
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
            pieces: 1,
        };
        a.add(&InjectStats {
            timeless: 3,
            timing: 4,
            discarded: 2,
            clock_anomalies: 1,
            inject_ns: 30,
            index_ns: 40,
            pieces: 3,
        });
        assert_eq!(a.timeless, 4);
        assert_eq!(a.timing, 6);
        assert_eq!(a.discarded, 3);
        assert_eq!(a.clock_anomalies, 1);
        assert_eq!(a.inject_ns, 40);
        assert_eq!(a.index_ns, 60);
        assert_eq!(a.pieces, 4);
    }
}
