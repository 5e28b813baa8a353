//! One node's shard of the continuous persistent store (§4.1).
//!
//! The shard statically partitions its key space (the paper assigns one
//! partition per injector thread "which can avoid using locks during
//! injection"; here every partition has a reader/writer lock so concurrent
//! queries read while an injector writes). Keys partition by vertex —
//! keeping a vertex's `in` and `out` lists together — and index-vertex
//! keys spread by raw key hash.
//!
//! Batches install one at a time per shard (the paper's per-node Injector
//! drains Dispatcher output sequentially). [`PersistentShard::install_owned`]
//! is the shard's one multi-key write: it applies the data-key updates of
//! [`key_updates`] that the shard owns and hands their first-edge
//! index-vertex updates back to the caller, which lands them on the index
//! keys' owners. [`PersistentShard::append_owned`] is the one-key write
//! under it, for callers that route every key themselves (the cluster's
//! base load).

use crate::base::{key_updates, AppendReceipt, BaseStore, ValueCell};
use crate::snapshot::SnapshotId;
use parking_lot::{Mutex, RwLock};
use wukong_rdf::{Dir, Key, Pid, Triple, Vid};

/// A lock-partitioned store shard.
pub struct PersistentShard {
    parts: Vec<RwLock<BaseStore>>,
    /// Serialises installs: at most one stream batch, or one piece of a
    /// batch installing while it fills, appends at a time, so each
    /// install's appends to a key are contiguous. A batch installed in
    /// pieces may still leave several runs on a key when another
    /// stream's piece lands between two of its own (the stream index
    /// keeps them all).
    batch_lock: Mutex<()>,
}

impl PersistentShard {
    /// Creates a shard with `partitions` key-space partitions.
    ///
    /// # Panics
    ///
    /// Panics if `partitions` is zero.
    pub fn new(partitions: usize) -> Self {
        assert!(partitions > 0, "a shard needs at least one partition");
        PersistentShard {
            parts: (0..partitions)
                .map(|_| RwLock::new(BaseStore::new()))
                .collect(),
            batch_lock: Mutex::new(()),
        }
    }

    /// The partition holding `key` (see [`PersistentShard::read_partition`]).
    /// On every lookup's path, and called from other crates.
    #[inline]
    pub fn partition_of(&self, key: Key) -> usize {
        let h = if key.is_index() {
            key.raw()
        } else {
            key.vid().0
        };
        (h.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 16) as usize % self.parts.len()
    }

    /// Loads one triple of the initial dataset (snapshot 0): an
    /// [`PersistentShard::inject_batch`] of one.
    pub fn load_base(&self, t: Triple) {
        self.inject_batch(std::slice::from_ref(&t), SnapshotId::BASE);
    }

    /// Appends one owned key update, for callers that route key updates
    /// to owner shards themselves (the distributed injection path, where
    /// a triple's four key updates may land on different shards).
    ///
    /// Returns the logical offset and whether the key was empty before —
    /// the first-edge signal that drives index-vertex maintenance.
    pub fn append_owned(
        &self,
        key: Key,
        v: Vid,
        sn: SnapshotId,
        merge_upto: Option<SnapshotId>,
    ) -> (u32, bool) {
        self.parts[self.partition_of(key)]
            .write()
            .append_edge_merging(key, v, sn, merge_upto)
    }

    /// Counts one triple against this shard (the distributed path counts
    /// a triple on its subject key's owner only).
    pub fn count_triple(&self) {
        self.parts[0].write().note_triples(1);
    }

    /// Installs a whole batch under snapshot `sn` with every key owned
    /// here: [`PersistentShard::install_owned`], then the index-vertex
    /// updates it hands back. Returns the receipts, data keys first.
    pub fn inject_batch(&self, triples: &[Triple], sn: SnapshotId) -> Vec<AppendReceipt> {
        let mut receipts = Vec::with_capacity(triples.len() * 2);
        let mut index_updates = Vec::new();
        self.install_owned(
            triples.iter().copied(),
            |_| true,
            sn,
            None,
            &mut receipts,
            &mut index_updates,
        );
        for (key, v) in index_updates {
            let (offset, _) = self.append_owned(key, v, sn, None);
            receipts.push(AppendReceipt { key, offset });
        }
        receipts
    }

    /// The shard's one multi-key write: applies the data-key updates of
    /// [`key_updates`] for `triples` that `owns` selects, pushing one
    /// receipt per append and one `(index key, vertex)` pair per
    /// first-edge event for the caller to route to the index key's
    /// owner. Returns the triples counted here (a triple counts on its
    /// subject key's owner).
    ///
    /// Once per call instead of once per tuple: the batch lock (installs
    /// on one shard are serialised, so one call's appends to a key are
    /// contiguous) and the triple count. Each append still takes its
    /// partition's write lock on its own, so concurrent readers wait for
    /// one append at most.
    pub fn install_owned(
        &self,
        triples: impl Iterator<Item = Triple>,
        owns: impl Fn(Key) -> bool,
        sn: SnapshotId,
        merge_upto: Option<SnapshotId>,
        receipts: &mut Vec<AppendReceipt>,
        index_updates: &mut Vec<(Key, Vid)>,
    ) -> usize {
        let _batch = self.batch_lock.lock();
        let mut counted = 0;
        for t in triples {
            for u in key_updates(t) {
                if !owns(u.key) {
                    continue;
                }
                counted += usize::from(u.counts_triple());
                let (offset, first) = self.append_owned(u.key, u.neighbor, sn, merge_upto);
                receipts.push(AppendReceipt { key: u.key, offset });
                if first {
                    index_updates.push((u.index, u.index_neighbor));
                }
            }
        }
        if counted > 0 {
            self.parts[0].write().note_triples(counted as u64);
        }
        counted
    }

    /// Runs `f` on `key`'s value cell under its partition's read lock:
    /// one lock and one hash probe, however many snapshot views or
    /// fat-pointer ranges `f` then slices out of the cell.
    pub fn with_cell<R>(&self, key: Key, f: impl FnOnce(Option<&ValueCell>) -> R) -> R {
        f(self.parts[self.partition_of(key)].read().cell(key))
    }

    /// Partition `part` under its read lock, for readers that serve many
    /// keys from one acquisition. A reader holding several partitions must
    /// have taken them in ascending index order, each once (the lock is
    /// not re-entrant); writers hold one partition at a time, so they
    /// never wait on a reader that waits on them.
    pub fn read_partition(&self, part: usize) -> impl std::ops::Deref<Target = BaseStore> + '_ {
        self.parts[part].read()
    }

    /// Collects the neighbours of `key` visible at snapshot `sn`.
    pub fn neighbors_at(&self, key: Key, sn: SnapshotId) -> Vec<Vid> {
        self.parts[self.partition_of(key)]
            .read()
            .neighbors_at(key, sn)
    }

    /// Visits the neighbours of `key` visible at snapshot `sn`.
    pub fn for_each_neighbor(&self, key: Key, sn: SnapshotId, f: impl FnMut(Vid)) {
        self.parts[self.partition_of(key)]
            .read()
            .for_each_neighbor(key, sn, f)
    }

    /// Length of `key`'s neighbour list at snapshot `sn`.
    pub fn len_at(&self, key: Key, sn: SnapshotId) -> usize {
        self.parts[self.partition_of(key)].read().len_at(key, sn)
    }

    /// Reads a fat-pointer range of `key`.
    pub fn read_range(&self, key: Key, start: u32, len: u32, out: &mut Vec<Vid>) {
        self.parts[self.partition_of(key)]
            .read()
            .read_range(key, start, len, out)
    }

    /// Whether `(s, p, o)` is visible at snapshot `sn`.
    pub fn exists_at(&self, s: Vid, p: Pid, o: Vid, sn: SnapshotId) -> bool {
        let out_key = Key::new(s, p, Dir::Out);
        // Both keys may live in different partitions; take each read lock
        // in turn (queries never hold two partition locks at once).
        let out_len = self.len_at(out_key, sn);
        let in_key = Key::new(o, p, Dir::In);
        let in_len = self.len_at(in_key, sn);
        let (key, needle) = if out_len <= in_len {
            (out_key, o)
        } else {
            (in_key, s)
        };
        self.with_cell(key, |cell| {
            cell.is_some_and(|c| c.visible(sn).contains(&needle))
        })
    }

    /// Consolidates snapshots ≤ `upto` in every partition.
    pub fn consolidate(&self, upto: SnapshotId) {
        for p in &self.parts {
            p.write().consolidate(upto);
        }
    }

    /// Largest number of snapshots any cell retains, across partitions.
    pub fn max_retained_snapshots(&self) -> usize {
        self.parts
            .iter()
            .map(|p| p.read().max_retained_snapshots())
            .max()
            .unwrap_or(0)
    }

    /// Total triples inserted into this shard.
    pub fn triple_count(&self) -> u64 {
        self.parts.iter().map(|p| p.read().triple_count()).sum()
    }

    /// Approximate heap bytes of the shard.
    pub fn heap_bytes(&self) -> usize {
        self.parts.iter().map(|p| p.read().heap_bytes()).sum()
    }

    /// Visits every key in the shard (statistics, checkpointing).
    pub fn for_each_key(&self, mut f: impl FnMut(Key, usize)) {
        for p in &self.parts {
            p.read().for_each_key(|k, c| f(k, c.total_len()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64, p: u64, o: u64) -> Triple {
        Triple::new(Vid(s), Pid(p), Vid(o))
    }

    #[test]
    fn shard_mirrors_base_store_semantics() {
        let shard = PersistentShard::new(8);
        shard.load_base(t(1, 4, 5));
        shard.load_base(t(1, 4, 6));
        let sn = SnapshotId::BASE;
        assert_eq!(
            shard.neighbors_at(Key::new(Vid(1), Pid(4), Dir::Out), sn),
            vec![Vid(5), Vid(6)]
        );
        assert_eq!(
            shard.neighbors_at(Key::index(Pid(4), Dir::In), sn),
            vec![Vid(5), Vid(6)]
        );
        assert!(shard.exists_at(Vid(1), Pid(4), Vid(5), sn));
        assert_eq!(shard.triple_count(), 2);
    }

    #[test]
    fn batch_receipts_are_contiguous_per_key() {
        let shard = PersistentShard::new(4);
        let batch: Vec<Triple> = (0..10).map(|i| t(i + 1, 3, 99)).collect();
        let receipts = shard.inject_batch(&batch, SnapshotId(1));
        // All ten appends to [99|3|in] must form offsets 0..10.
        let key = Key::new(Vid(99), Pid(3), Dir::In);
        let mut offs: Vec<u32> = receipts
            .iter()
            .filter(|r| r.key == key)
            .map(|r| r.offset)
            .collect();
        offs.sort_unstable();
        assert_eq!(offs, (0..10).collect::<Vec<u32>>());
    }

    #[test]
    fn concurrent_injection_keeps_index_duplicate_free() {
        use std::sync::Arc;
        let shard = Arc::new(PersistentShard::new(8));
        // 4 threads × 100 one-triple installs, all sharing predicate 7 and
        // object 500, each landing its own index-vertex updates.
        let handles: Vec<_> = (0..4)
            .map(|th| {
                let shard = Arc::clone(&shard);
                std::thread::spawn(move || {
                    let (mut rc, mut index_updates) = (Vec::new(), Vec::new());
                    for i in 0..100u64 {
                        let tr = t(th * 100 + i + 1, 7, 500);
                        let sn = SnapshotId(1);
                        shard.install_owned(
                            [tr].into_iter(),
                            |_| true,
                            sn,
                            None,
                            &mut rc,
                            &mut index_updates,
                        );
                        for (key, v) in index_updates.drain(..) {
                            shard.append_owned(key, v, sn, None);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Object 500 gained 400 in-edges but appears once in the in-index.
        let sn = SnapshotId(1);
        assert_eq!(shard.len_at(Key::new(Vid(500), Pid(7), Dir::In), sn), 400);
        let idx = shard.neighbors_at(Key::index(Pid(7), Dir::In), sn);
        assert_eq!(idx.iter().filter(|&&v| v == Vid(500)).count(), 1);
        // Each distinct subject appears exactly once in the out-index.
        let out_idx = shard.neighbors_at(Key::index(Pid(7), Dir::Out), sn);
        assert_eq!(out_idx.len(), 400);
        let mut sorted = out_idx.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 400);
    }

    #[test]
    fn disjoint_owner_filtered_appends_match_serial() {
        use crate::sharding::ShardMap;
        use std::sync::Arc;
        // The parallel-ingest contract: worker tasks apply owner-disjoint
        // key sets through `append_owned(&self)` concurrently, and every
        // key's list comes out exactly as a serial application — each key
        // is written by one task only, in that task's order.
        let triples: Vec<Triple> = (0..200u64)
            .map(|i| t(i % 50 + 1, i % 5 + 1, i + 2))
            .collect();
        let serial = PersistentShard::new(8);
        for &tr in &triples {
            serial.append_owned(tr.out_key(), tr.o, SnapshotId(1), None);
            serial.append_owned(tr.in_key(), tr.s, SnapshotId(1), None);
        }
        let shard = Arc::new(PersistentShard::new(8));
        let handles: Vec<_> = (0..4u16)
            .map(|n| {
                let shard = Arc::clone(&shard);
                let triples = triples.clone();
                std::thread::spawn(move || {
                    let map = ShardMap::new(4);
                    let owns = map.owner_filter(n);
                    for tr in triples {
                        if owns(tr.out_key()) {
                            shard.append_owned(tr.out_key(), tr.o, SnapshotId(1), None);
                        }
                        if owns(tr.in_key()) {
                            shard.append_owned(tr.in_key(), tr.s, SnapshotId(1), None);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for &tr in &triples {
            for key in [tr.out_key(), tr.in_key()] {
                assert_eq!(
                    shard.neighbors_at(key, SnapshotId(1)),
                    serial.neighbors_at(key, SnapshotId(1)),
                    "{key:?}"
                );
            }
        }
    }

    #[test]
    fn consolidation_bounds_snapshots() {
        let shard = PersistentShard::new(2);
        for sn in 1..=5u64 {
            shard.inject_batch(&[t(1, 2, 100 + sn)], SnapshotId(sn));
        }
        assert!(shard.max_retained_snapshots() >= 5);
        shard.consolidate(SnapshotId(4));
        assert_eq!(shard.max_retained_snapshots(), 1);
        // Visibility of the still-gated snapshot is preserved.
        let key = Key::new(Vid(1), Pid(2), Dir::Out);
        assert_eq!(shard.len_at(key, SnapshotId(4)), 4);
        assert_eq!(shard.len_at(key, SnapshotId(5)), 5);
    }

    #[test]
    #[should_panic(expected = "at least one partition")]
    fn zero_partitions_rejected() {
        let _ = PersistentShard::new(0);
    }
}
