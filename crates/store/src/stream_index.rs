//! The stream index (§4.2, Fig. 8).
//!
//! After the persistent store absorbs a stream's timeless tuples, the data
//! of one window is sprinkled across the whole store; walking full values
//! to find the tuples of a window would cost O(stored data). The stream
//! index is the fast path: per stream, one map from every key the live
//! batches appended to onto the key's newest *run* — a batch's appends to
//! the key, as a [`FatPointer`] into the persistent value — and from each
//! run back to the key's previous one, in timestamp order. A window lookup
//! is one hash probe and a walk over the key's in-window runs, however
//! many batches the window spans — "the search space is extremely
//! decreased and independent to the size of stored data".
//!
//! Runs live in their batch's array, each with its key: GC walks a retired
//! batch's array and drops the keys whose newest run it held (a cost per
//! retired batch, not per retained key), and a window index-vertex scan
//! walks the in-window arrays. A batch installing in pieces fills its
//! array as they install, hidden from reads until it seals.
//!
//! Fat pointers here are `(logical offset, length)` pairs rather than raw
//! addresses (the paper uses a 96-bit address+size pointer): the
//! persistent store is append-only per key, so logical offsets are stable
//! even across snapshot consolidation, which gives the same O(1) range
//! access without unsafe memory.

use std::cell::Cell;
use std::collections::hash_map::Entry;
use std::collections::VecDeque;
use wukong_rdf::{Dir, Key, KeyMap, KeySet, Pid, Timestamp, Vid};

use crate::base::{AppendReceipt, BaseStore};

/// A `(start, len)` range within one key's logical neighbour sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FatPointer {
    /// Logical offset of the first neighbour this batch appended.
    pub start: u32,
    /// Number of neighbours appended by this batch.
    pub len: u32,
}

/// Where a run sits: its batch's sequence number and its entry there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Link {
    batch: u32,
    entry: u32,
}

/// The link before a key's oldest run.
const NONE: Link = Link {
    batch: u32::MAX,
    entry: u32::MAX,
};

/// One run of a key, in its batch's array.
#[derive(Debug, Clone, Copy)]
struct Run {
    key: Key,
    fp: FatPointer,
    /// The key's previous run.
    prev: Link,
}

/// A batch's runs, in append order.
#[derive(Debug)]
struct Batch {
    timestamp: Timestamp,
    runs: Vec<Run>,
    /// Distinct keys among the runs.
    keys: usize,
    /// Retired batches stay as tombstones until they reach the front.
    live: bool,
}

/// A whole batch's append receipts, gathered apart from any index and
/// pushed into one with [`StreamIndex::push_batch`] (tests, benchmarks).
#[derive(Debug, Clone, Default)]
pub struct IndexBatch {
    /// Batch timestamp.
    pub timestamp: Timestamp,
    receipts: Vec<AppendReceipt>,
}

impl IndexBatch {
    /// Gathers a batch from the injector's append receipts.
    pub fn from_receipts(timestamp: Timestamp, receipts: &[AppendReceipt]) -> Self {
        IndexBatch {
            timestamp,
            receipts: receipts.to_vec(),
        }
    }

    /// Number of distinct keys the batch appended to.
    pub fn entry_count(&self) -> usize {
        self.receipts
            .iter()
            .map(|r| r.key)
            .collect::<KeySet>()
            .len()
    }
}

/// What sealing a batch published.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sealed {
    /// Keys the batch appended to.
    pub entries: usize,
    /// The batch's index entries as replication ships them: 32 bytes a key
    /// (the key, its first run, table overhead) and 16 a further run,
    /// those in a buffer grown by doubling from four.
    pub wire_bytes: usize,
}

thread_local! {
    /// A window read's runs of one key: gathered newest first along the
    /// key's chain, handed out oldest first.
    static WINDOW: Cell<Vec<(Timestamp, FatPointer)>> = const { Cell::new(Vec::new()) };
}

/// The stream index of one stream (on one node or replica).
///
/// Batches are numbered in the order they open; a catch-up replay's batch
/// takes the next number however old its timestamp, and its runs slot
/// into their keys' chains by timestamp.
#[derive(Debug, Default)]
pub struct StreamIndex {
    /// Every live key's newest run.
    newest: KeyMap<Link>,
    /// Batches by sequence number, from `first`.
    batches: VecDeque<Batch>,
    first: u32,
    /// The open batch, hidden from reads until it seals.
    open: Option<u32>,
    retired: u64,
}

/// The run at `link` with its batch's timestamp, if its batch is live.
fn run_at(batches: &VecDeque<Batch>, first: u32, link: Link) -> Option<(Timestamp, &Run)> {
    let b = batches.get(link.batch.wrapping_sub(first) as usize)?;
    Some((b.timestamp, b.runs.get(link.entry as usize)?)).filter(|_| b.live)
}

impl StreamIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    fn batch_mut(&mut self, seq: u32) -> &mut Batch {
        &mut self.batches[seq.wrapping_sub(self.first) as usize]
    }

    /// Opens a batch at `ts` for [`Self::record`], unless one at `ts` is
    /// already open; one batch is open at a time.
    pub fn open(&mut self, ts: Timestamp) {
        if let Some(seq) = self.open {
            assert_eq!(self.batch_mut(seq).timestamp, ts, "one open batch");
            return;
        }
        self.open = Some(self.first.wrapping_add(self.batches.len() as u32));
        self.batches.push_back(Batch {
            timestamp: ts,
            runs: Vec::new(),
            keys: 0,
            live: true,
        });
    }

    /// Folds one append receipt of the open batch into its key's runs: a
    /// receipt right behind the batch's newest run of the key extends it,
    /// any other adds a run, behind every run of the key with an equal or
    /// older timestamp. A key's receipts arrive in offset order — installs
    /// are serialised, and each key has one writer.
    pub fn record(&mut self, r: AppendReceipt) {
        let seq = self.open.expect("record into an open batch");
        let StreamIndex {
            newest, batches, ..
        } = self;
        let first = self.first;
        let ts = batches[seq.wrapping_sub(first) as usize].timestamp;
        let slot = newest.entry(r.key).or_insert(NONE);
        // Walk back from the key's newest run to the one the new run goes
        // behind; `after` is the run that will link to it (none: the new
        // run is the newest). Only a replay at an old timestamp walks.
        let (mut after, mut prev) = (None, *slot);
        while prev.batch != seq {
            match run_at(batches, first, prev) {
                Some((at, run)) if at > ts => (after, prev) = (Some(prev), run.prev),
                _ => break,
            }
        }
        let open = &mut batches[seq.wrapping_sub(first) as usize];
        if prev.batch == seq {
            let last = &mut open.runs[prev.entry as usize].fp;
            if r.offset == last.start + last.len {
                last.len += 1;
                return;
            }
            debug_assert!(
                r.offset > last.start + last.len,
                "receipts out of offset order"
            );
        } else {
            open.keys += 1;
        }
        let link = Link {
            batch: seq,
            entry: open.runs.len() as u32,
        };
        let fp = FatPointer {
            start: r.offset,
            len: 1,
        };
        open.runs.push(Run {
            key: r.key,
            fp,
            prev,
        });
        match after {
            Some(a) => {
                batches[a.batch.wrapping_sub(first) as usize].runs[a.entry as usize].prev = link
            }
            None => *slot = link,
        }
    }

    /// Folds a sub-batch's receipts into the open batch (see
    /// [`Self::record`]), its run array sized up front: a timeless tuple
    /// leaves two receipts and stream batches repeat keys, so about half
    /// the receipts start a run.
    pub fn record_all(&mut self, receipts: &[AppendReceipt]) {
        let seq = self.open.expect("record into an open batch");
        self.batch_mut(seq).runs.reserve(receipts.len() / 2);
        for &r in receipts {
            self.record(r);
        }
    }

    /// Seals the open batch, publishing its runs to every read, and
    /// returns what it published; nothing if no batch is open.
    pub fn seal(&mut self) -> Sealed {
        let Some(seq) = self.open.take() else {
            return Sealed::default();
        };
        let batch = self.batch_mut(seq);
        batch.runs.shrink_to_fit();
        let spill = match batch.runs.len() - batch.keys {
            0 => 0,
            n => n.next_power_of_two().max(4),
        };
        Sealed {
            entries: batch.keys,
            wire_bytes: batch.keys * 32 + spill * 16,
        }
    }

    /// Drops the open batch unpublished, as if none of its receipts had
    /// been recorded: each of its runs, newest first, leaves its key's
    /// chain (a key left without runs leaves the map), and the batch stays
    /// behind as a tombstone. Nothing if no batch is open. A node that
    /// missed a piece of its batch discards what the other pieces
    /// indexed.
    pub fn discard(&mut self) {
        let Some(seq) = self.open.take() else {
            return;
        };
        let batch = self.batch_mut(seq);
        batch.live = false;
        let runs = std::mem::take(&mut batch.runs);
        for (entry, run) in (0..runs.len() as u32).zip(&runs).rev() {
            let gone = Link { batch: seq, entry };
            let Entry::Occupied(mut slot) = self.newest.entry(run.key) else {
                unreachable!("a recorded key has a newest run");
            };
            if *slot.get() == gone {
                if run.prev == NONE {
                    slot.remove();
                } else {
                    slot.insert(run.prev);
                }
                continue;
            }
            // A newer batch's run links back to this one.
            let mut at = *slot.get();
            loop {
                let b = &mut self.batches[at.batch.wrapping_sub(self.first) as usize];
                let newer = &mut b.runs[at.entry as usize];
                if newer.prev == gone {
                    newer.prev = run.prev;
                    break;
                }
                at = newer.prev;
            }
        }
    }

    /// Installs a whole batch as [`Self::open`], [`Self::record_all`] and
    /// [`Self::seal`] would, beside the open batch if there is one (which
    /// must be at another timestamp): a catch-up replay at an old
    /// timestamp slots in behind newer batches.
    pub fn push_batch(&mut self, batch: IndexBatch) {
        let parked = self.open.take();
        self.open(batch.timestamp);
        let clash = parked.is_some_and(|seq| self.batch_mut(seq).timestamp == batch.timestamp);
        assert!(!clash, "a whole batch at the open batch's timestamp");
        self.record_all(&batch.receipts);
        self.seal();
        self.open = parked;
    }

    /// Retires every sealed batch older than `expiry` (exclusive),
    /// mirroring the transient store's GC: drops the keys whose newest
    /// run a retired batch held, and the batch's runs. Returns the number
    /// retired.
    pub(crate) fn retire_expired(&mut self, expiry: Timestamp) -> usize {
        let mut n = 0;
        for i in 0..self.batches.len() {
            let seq = self.first.wrapping_add(i as u32);
            let b = &mut self.batches[i];
            if !b.live || b.timestamp >= expiry || self.open == Some(seq) {
                continue;
            }
            b.live = false;
            for (entry, run) in (0..).zip(std::mem::take(&mut b.runs)) {
                // Drop the key if this was its newest run.
                if let Entry::Occupied(e) = self.newest.entry(run.key) {
                    if *e.get() == (Link { batch: seq, entry }) {
                        e.remove();
                    }
                }
            }
            self.retired += 1;
            n += 1;
        }
        while self.batches.front().is_some_and(|b| !b.live) {
            self.batches.pop_front();
            self.first = self.first.wrapping_add(1);
        }
        n
    }

    /// Hands `f` `key`'s runs in `[lo, hi]`, oldest first, each with its
    /// batch timestamp: one probe, then a walk back along the key's chain
    /// to the window's start.
    pub fn with_pointers_in<R>(
        &self,
        key: Key,
        lo: Timestamp,
        hi: Timestamp,
        f: impl FnOnce(&[(Timestamp, FatPointer)]) -> R,
    ) -> R {
        let mut runs = WINDOW.take();
        runs.clear();
        let mut link = *self.newest.get(&key).unwrap_or(&NONE);
        while let Some((ts, run)) = run_at(&self.batches, self.first, link) {
            if ts < lo {
                break;
            }
            if ts <= hi && self.open != Some(link.batch) {
                runs.push((ts, run.fp));
            }
            link = run.prev;
        }
        runs.reverse();
        let out = f(&runs);
        WINDOW.set(runs);
        out
    }

    /// Every run of `key` in the batches in `[lo, hi]`, each with its
    /// batch timestamp: oldest batch first, a batch's runs in append
    /// order.
    ///
    /// This is the delta-scan primitive of the incremental execution
    /// mode: a firing over a window that overlaps its predecessor asks
    /// only for the inserted suffix `(prev_end, new_end]` and the
    /// expired prefix `[prev_start, new_start)`, and tags every binding
    /// row with the timestamps of its contributing edges so expired rows
    /// can later be retracted without a rescan.
    pub fn pointers_in(
        &self,
        key: Key,
        lo: Timestamp,
        hi: Timestamp,
    ) -> Vec<(Timestamp, FatPointer)> {
        self.with_pointers_in(key, lo, hi, <[_]>::to_vec)
    }

    /// Visits what `key` gained in `[lo, hi]`, run by run with each run's
    /// batch timestamp, reading the ranges out of `store` via the fat
    /// pointers. Only a key with an in-window run costs the store probe,
    /// and it costs one: every pointer reads from the same cell.
    fn for_each_run_in(
        &self,
        store: &BaseStore,
        key: Key,
        lo: Timestamp,
        hi: Timestamp,
        mut visit: impl FnMut(Timestamp, &[Vid]),
    ) {
        self.with_pointers_in(key, lo, hi, |runs| {
            if runs.is_empty() {
                return;
            }
            if let Some(cell) = store.cell(key) {
                for &(ts, fp) in runs {
                    visit(ts, cell.range(fp.start, fp.len));
                }
            }
        });
    }

    /// Collects `key`'s neighbours appended by batches in `[lo, hi]`.
    pub fn neighbors_in(
        &self,
        store: &BaseStore,
        key: Key,
        lo: Timestamp,
        hi: Timestamp,
        out: &mut Vec<Vid>,
    ) {
        self.for_each_run_in(store, key, lo, hi, |_, run| out.extend_from_slice(run));
    }

    /// Collects `key`'s neighbours appended in `[lo, hi]` together with
    /// their batch timestamps — the timed twin of [`Self::neighbors_in`].
    pub fn neighbors_timed_in(
        &self,
        store: &BaseStore,
        key: Key,
        lo: Timestamp,
        hi: Timestamp,
        out: &mut Vec<(Vid, Timestamp)>,
    ) {
        self.for_each_run_in(store, key, lo, hi, |ts, run| {
            out.extend(run.iter().map(|&v| (v, ts)))
        });
    }

    /// Total neighbours `key` gained in `[lo, hi]` (for planner costs).
    pub fn count_in(&self, key: Key, lo: Timestamp, hi: Timestamp) -> usize {
        self.with_pointers_in(key, lo, hi, |runs| {
            runs.iter().map(|(_, fp)| fp.len as usize).sum()
        })
    }

    /// Visits the vertices that gained a `pid` edge in direction `dir`
    /// during `[lo, hi]` — the window equivalent of an index-vertex scan.
    ///
    /// Enumerating touched keys, rather than following the index vertex's
    /// own fat pointers, is what makes window scans *complete*: a vertex
    /// whose first `pid` edge predates the window never re-enters the
    /// persistent index, but its key is touched by every batch that
    /// appends to it. A vertex acting in several batches of one window is
    /// visited once per batch; callers deduplicate.
    pub fn for_each_vertex_in(
        &self,
        pid: Pid,
        dir: Dir,
        lo: Timestamp,
        hi: Timestamp,
        mut f: impl FnMut(Vid),
    ) {
        for (seq, b) in self.sealed() {
            if b.timestamp < lo || b.timestamp > hi {
                continue;
            }
            // A key's second run in a batch links back to its first.
            for run in b.runs.iter().filter(|r| r.prev.batch != seq) {
                let k = run.key;
                if !k.is_index() && k.pid() == pid && k.dir() == dir {
                    f(k.vid());
                }
            }
        }
    }

    /// Collects what [`Self::for_each_vertex_in`] visits.
    pub fn vertices_in(
        &self,
        pid: Pid,
        dir: Dir,
        lo: Timestamp,
        hi: Timestamp,
        out: &mut Vec<Vid>,
    ) {
        self.for_each_vertex_in(pid, dir, lo, hi, |v| out.push(v));
    }

    /// Number of live (sealed) batches.
    pub fn batch_count(&self) -> usize {
        self.sealed().count()
    }

    /// The live sealed batches with their sequence numbers.
    fn sealed(&self) -> impl Iterator<Item = (u32, &Batch)> {
        let open = self.open;
        (self.first..)
            .zip(&self.batches)
            .filter(move |(seq, b)| b.live && open != Some(*seq))
    }

    /// Every live batch's timestamp and key count, in timestamp order.
    pub fn batch_sizes(&self) -> Vec<(Timestamp, usize)> {
        let mut out: Vec<(Timestamp, usize)> =
            self.sealed().map(|(_, b)| (b.timestamp, b.keys)).collect();
        out.sort_by_key(|&(ts, _)| ts);
        out
    }

    /// Batches retired so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Heap bytes of the whole index: every key's map entry (the map's
    /// unoccupied buckets are not counted) and the batches' run arrays
    /// (the ring of batch headers is not counted either: a few words a
    /// live batch).
    pub fn heap_bytes(&self) -> usize {
        let runs: usize = self.batches.iter().map(|b| b.runs.capacity()).sum();
        self.newest.len() * std::mem::size_of::<(Key, Link)>() + runs * std::mem::size_of::<Run>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SnapshotId;
    use wukong_rdf::Triple;

    fn t(s: u64, p: u64, o: u64) -> Triple {
        Triple::new(Vid(s), Pid(p), Vid(o))
    }

    /// Injects a batch of triples and indexes it, like the Injector does.
    fn inject(
        store: &mut BaseStore,
        index: &mut StreamIndex,
        ts: Timestamp,
        sn: SnapshotId,
        triples: &[Triple],
    ) {
        let mut rc = Vec::new();
        for &tr in triples {
            store.insert_at(tr, sn, &mut rc);
        }
        index.push_batch(IndexBatch::from_receipts(ts, &rc));
    }

    #[test]
    fn owner_partitioned_batches_cover_the_global_build() {
        use crate::sharding::ShardMap;
        // Parallel ingest builds one IndexBatch per node from that node's
        // own receipts. Per-node batches must be key-disjoint and, taken
        // together, reproduce the single batch a serial injector would
        // have built from the concatenated receipts.
        let receipts: Vec<AppendReceipt> = (0..120u64)
            .map(|i| AppendReceipt {
                key: Key::new(
                    Vid(i % 17 + 1),
                    Pid(i % 5 + 1),
                    if i % 2 == 0 { Dir::Out } else { Dir::In },
                ),
                offset: (i / 17) as u32,
            })
            .collect();
        let index_of = |rc: &[AppendReceipt]| {
            let mut idx = StreamIndex::new();
            idx.push_batch(IndexBatch::from_receipts(900, rc));
            idx
        };
        let whole = index_of(&receipts);
        let map = ShardMap::new(4);
        let parts: Vec<StreamIndex> = (0..4u16)
            .map(|n| {
                let owns = map.owner_filter(n);
                index_of(
                    &receipts
                        .iter()
                        .filter(|r| owns(r.key))
                        .copied()
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        assert_eq!(
            parts.iter().map(|p| p.batch_sizes()[0].1).sum::<usize>(),
            whole.batch_sizes()[0].1,
            "node batches must be key-disjoint and jointly complete"
        );
        for r in &receipts {
            let node = map.node_of_key(r.key) as usize;
            let runs = |idx: &StreamIndex| idx.pointers_in(r.key, 0, 999);
            assert_eq!(runs(&parts[node]), runs(&whole), "{:?}", r.key);
        }
    }

    #[test]
    fn a_key_costs_two_words_and_a_run_three() {
        assert_eq!(std::mem::size_of::<(Key, Link)>(), 16);
        assert_eq!(std::mem::size_of::<Run>(), 24);
    }

    #[test]
    fn fig8_window_lookup() {
        // Fig. 8: likes of T-15(7) arrive at 0806 (Erik,Tony,Bruce), 0810
        // (Clint,Steve) and 0812 (Thor). A window [0807, 0811] must return
        // exactly Clint and Steve via the stream index.
        let li = 3;
        let mut store = BaseStore::new();
        let mut idx = StreamIndex::new();
        inject(
            &mut store,
            &mut idx,
            806,
            SnapshotId(1),
            &[t(2, li, 7), t(9, li, 7), t(10, li, 7)],
        );
        inject(
            &mut store,
            &mut idx,
            810,
            SnapshotId(1),
            &[t(12, li, 7), t(13, li, 7)],
        );
        inject(&mut store, &mut idx, 812, SnapshotId(2), &[t(14, li, 7)]);

        let key = Key::new(Vid(7), Pid(li), Dir::In);
        let mut out = Vec::new();
        idx.neighbors_in(&store, key, 807, 811, &mut out);
        assert_eq!(out, vec![Vid(12), Vid(13)]);

        // The full value holds all six likers; the index walked only two.
        assert_eq!(store.len_at(key, SnapshotId(2)), 6);
        assert_eq!(idx.count_in(key, 807, 811), 2);
    }

    #[test]
    fn pointers_survive_consolidation() {
        let mut store = BaseStore::new();
        let mut idx = StreamIndex::new();
        inject(&mut store, &mut idx, 100, SnapshotId(1), &[t(1, 2, 3)]);
        inject(&mut store, &mut idx, 200, SnapshotId(2), &[t(1, 2, 4)]);
        store.consolidate(SnapshotId(2));

        let key = Key::new(Vid(1), Pid(2), Dir::Out);
        let mut out = Vec::new();
        idx.neighbors_in(&store, key, 200, 200, &mut out);
        assert_eq!(out, vec![Vid(4)]);
    }

    #[test]
    fn retire_drops_old_batches_only() {
        let mut store = BaseStore::new();
        let mut idx = StreamIndex::new();
        for (i, ts) in [100u64, 200, 300].iter().enumerate() {
            inject(
                &mut store,
                &mut idx,
                *ts,
                SnapshotId(1),
                &[t(1, 2, 50 + i as u64)],
            );
        }
        assert_eq!(idx.retire_expired(250), 2);
        assert_eq!(idx.batch_count(), 1);

        let key = Key::new(Vid(1), Pid(2), Dir::Out);
        // The retired window no longer resolves through the index…
        let mut out = Vec::new();
        idx.neighbors_in(&store, key, 0, 249, &mut out);
        assert!(out.is_empty());
        // …but the data itself is still in the persistent store.
        assert_eq!(store.len_at(key, SnapshotId(1)), 3);
    }

    #[test]
    fn multi_append_batch_coalesces_to_one_pointer() {
        let mut store = BaseStore::new();
        let mut idx = StreamIndex::new();
        // Three likes of the same tweet in one batch → one fat pointer of
        // length 3 on the in-key.
        inject(
            &mut store,
            &mut idx,
            100,
            SnapshotId(1),
            &[t(1, 2, 9), t(3, 2, 9), t(4, 2, 9)],
        );
        let key = Key::new(Vid(9), Pid(2), Dir::In);
        let ptrs = idx.pointers_in(key, 100, 100);
        assert_eq!(ptrs, vec![(100, FatPointer { start: 0, len: 3 })]);
    }

    #[test]
    fn timed_scan_matches_untimed_and_tags_batch_timestamps() {
        let li = 3;
        let mut store = BaseStore::new();
        let mut idx = StreamIndex::new();
        inject(
            &mut store,
            &mut idx,
            806,
            SnapshotId(1),
            &[t(2, li, 7), t(9, li, 7)],
        );
        inject(
            &mut store,
            &mut idx,
            810,
            SnapshotId(1),
            &[t(12, li, 7), t(13, li, 7)],
        );
        inject(&mut store, &mut idx, 812, SnapshotId(2), &[t(14, li, 7)]);

        let key = Key::new(Vid(7), Pid(li), Dir::In);
        // The inserted suffix of a slide from [801, 810] to [803, 812].
        let mut timed = Vec::new();
        idx.neighbors_timed_in(&store, key, 811, 812, &mut timed);
        assert_eq!(timed, vec![(Vid(14), 812)]);

        // Over the full range, the timed scan is the untimed scan plus
        // per-edge batch timestamps, in the same order.
        let mut untimed = Vec::new();
        idx.neighbors_in(&store, key, 0, 999, &mut untimed);
        timed.clear();
        idx.neighbors_timed_in(&store, key, 0, 999, &mut timed);
        assert_eq!(timed.iter().map(|&(v, _)| v).collect::<Vec<_>>(), untimed);
        assert_eq!(
            timed.iter().map(|&(_, ts)| ts).collect::<Vec<_>>(),
            vec![806, 806, 810, 810, 812]
        );
    }

    #[test]
    fn contiguous_range_invariant_survives_consolidation() {
        // Delta scans resolve fat pointers against the *consolidated*
        // store; that is only sound because (a) a batch's runs of one key
        // cover exactly its appends to that key and (b) logical offsets
        // are stable across snapshot consolidation. Pin both halves:
        // interleave two keys so receipt offsets per key are non-trivial,
        // consolidate, and check every pointer still resolves to its own
        // batch's edges.
        let mut store = BaseStore::new();
        let mut idx = StreamIndex::new();
        inject(
            &mut store,
            &mut idx,
            100,
            SnapshotId(1),
            &[t(1, 2, 10), t(5, 2, 11), t(1, 2, 12), t(5, 2, 13)],
        );
        inject(
            &mut store,
            &mut idx,
            200,
            SnapshotId(2),
            &[t(1, 2, 14), t(5, 2, 15), t(1, 2, 16)],
        );
        store.consolidate(SnapshotId(2));

        let k1 = Key::new(Vid(1), Pid(2), Dir::Out);
        let k5 = Key::new(Vid(5), Pid(2), Dir::Out);
        // Per-batch pointers are contiguous per key…
        let ptrs = idx.pointers_in(k1, 0, 999);
        assert_eq!(
            ptrs,
            vec![
                (100, FatPointer { start: 0, len: 2 }),
                (200, FatPointer { start: 2, len: 2 }),
            ]
        );
        // …and resolve, post-consolidation, to exactly their batch's edges.
        let mut out = Vec::new();
        idx.neighbors_timed_in(&store, k1, 200, 200, &mut out);
        assert_eq!(out, vec![(Vid(14), 200), (Vid(16), 200)]);
        out.clear();
        idx.neighbors_timed_in(&store, k5, 100, 100, &mut out);
        assert_eq!(out, vec![(Vid(11), 100), (Vid(13), 100)]);
        out.clear();
        idx.neighbors_timed_in(&store, k5, 200, 200, &mut out);
        assert_eq!(out, vec![(Vid(15), 200)]);
    }

    #[test]
    fn non_contiguous_receipts_for_one_key_become_two_runs() {
        // A receipt set with a hole (offsets 0 and 2, nothing at 1: another
        // batch appended in between) keeps both runs, oldest first, and
        // costs the batch one more run.
        let key = Key::new(Vid(1), Pid(2), Dir::Out);
        let receipts = [
            AppendReceipt { key, offset: 0 },
            AppendReceipt { key, offset: 2 },
            AppendReceipt { key, offset: 3 },
        ];
        let batch = IndexBatch::from_receipts(100, &receipts);
        assert_eq!(batch.entry_count(), 1);
        let mut idx = StreamIndex::new();
        idx.push_batch(batch);
        assert_eq!(
            idx.pointers_in(key, 0, 999),
            vec![
                (100, FatPointer { start: 0, len: 1 }),
                (100, FatPointer { start: 2, len: 2 })
            ]
        );
        let mut contiguous = StreamIndex::new();
        contiguous.push_batch(IndexBatch::from_receipts(100, &receipts[1..]));
        assert_eq!(
            idx.heap_bytes(),
            contiguous.heap_bytes() + std::mem::size_of::<Run>()
        );
    }

    /// Two streams' batches install in pieces that interleave on shared
    /// keys (a user's out-key, the predicate's index vertex): no piece
    /// shows before its batch seals, each batch's window read returns
    /// exactly its own appends, in order, `count_in` agrees, and the
    /// extra runs show in `heap_bytes`.
    #[test]
    fn interleaved_pieces_leave_several_runs_per_key() {
        let mut store = BaseStore::new();
        let mut index = [StreamIndex::new(), StreamIndex::new()];
        let mut want: [Vec<Vid>; 2] = Default::default();
        let key = Key::new(Vid(1), Pid(2), Dir::Out);
        // Pieces A, B, A, B, A of subject 1's `2`-edges to fresh objects.
        for piece in 0..5u64 {
            let s = (piece % 2) as usize;
            let mut rc = Vec::new();
            for i in 0..3 {
                let o = 10 * piece + i + 10;
                store.insert_at(t(1, 2, o), SnapshotId(1), &mut rc);
                want[s].push(Vid(o));
            }
            index[s].open(100);
            for r in rc {
                index[s].record(r);
            }
            assert_eq!(index[s].count_in(key, 0, 999), 0, "open pieces stay hidden");
        }
        let sealed: Vec<Sealed> = index.iter_mut().map(StreamIndex::seal).collect();
        assert_eq!(index[0].pointers_in(key, 1, 100).len(), 3);
        assert_eq!(index[1].pointers_in(key, 1, 100).len(), 2);
        // Both keys a piece shares with the other batch spilled: the
        // subject's out-key and the in-index vertex (every object is new),
        // two further runs each in A and one each in B.
        for (idx, (sealed, extra)) in index.iter().zip(sealed.iter().zip([4, 2])) {
            assert_eq!(idx.batches[0].runs.len(), sealed.entries + extra);
            let spill = if extra > 0 { 4 } else { 0 };
            assert_eq!(sealed.wire_bytes, sealed.entries * 32 + spill * 16);
            assert_eq!(
                idx.heap_bytes(),
                idx.newest.len() * 16 + (sealed.entries + extra) * std::mem::size_of::<Run>()
            );
        }

        for (idx, want) in index.iter().zip(&want) {
            let mut got = Vec::new();
            idx.neighbors_in(&store, key, 1, 100, &mut got);
            assert_eq!(&got, want);
            assert_eq!(idx.count_in(key, 1, 100), want.len());
            let mut objects = Vec::new();
            idx.neighbors_in(&store, Key::index(Pid(2), Dir::In), 1, 100, &mut objects);
            assert_eq!(&objects, want, "first-edge index appends, per batch");
        }
    }

    /// A discarded open batch leaves the index as if it had never opened,
    /// even where whole batches pushed beside it, one newer and one
    /// older, chain through its runs: every key's runs, the key map and
    /// the live batches equal those of an index that saw only the other
    /// batches, and the next batch opens.
    #[test]
    fn discarded_open_batch_leaves_no_trace() {
        let mut store = BaseStore::new();
        let mut appends = |triples: &[Triple]| {
            let mut rc = Vec::new();
            for &tr in triples {
                store.insert_at(tr, SnapshotId(1), &mut rc);
            }
            rc
        };
        let (mut idx, mut clean) = (StreamIndex::new(), StreamIndex::new());
        let push = |both: [&mut StreamIndex; 2], ts, rc: &[AppendReceipt]| {
            for i in both {
                i.push_batch(IndexBatch::from_receipts(ts, rc));
            }
        };
        push(
            [&mut idx, &mut clean],
            100,
            &appends(&[t(1, 2, 10), t(3, 2, 11)]),
        );
        let piece = appends(&[t(1, 2, 20), t(4, 2, 21)]);
        idx.open(200);
        idx.record_all(&piece);
        push([&mut idx, &mut clean], 300, &appends(&[t(1, 2, 30)]));
        push([&mut idx, &mut clean], 150, &appends(&[t(1, 2, 15)]));
        let piece = appends(&[t(1, 2, 22), t(5, 2, 23)]);
        idx.record_all(&piece);
        idx.discard();

        let mut keys: Vec<Key> = [1, 3, 4, 5, 10, 11, 20, 30]
            .iter()
            .flat_map(|&v| [Dir::Out, Dir::In].map(|d| Key::new(Vid(v), Pid(2), d)))
            .collect();
        keys.extend([Dir::Out, Dir::In].map(|d| Key::index(Pid(2), d)));
        for key in keys {
            assert_eq!(
                idx.pointers_in(key, 0, 999),
                clean.pointers_in(key, 0, 999),
                "{key:?}"
            );
        }
        assert_eq!(idx.newest.len(), clean.newest.len());
        assert_eq!(idx.batch_sizes(), clean.batch_sizes());
        idx.open(400);
        assert_eq!(idx.seal(), Sealed::default());
    }

    #[test]
    fn push_batch_keeps_time_order_for_replay() {
        // Catch-up replay re-inserts shed tuples at their original (now
        // old) timestamps: appends land at fresh logical offsets, but the
        // index batch must slot into time order so window scans that
        // binary-search on timestamps still see it.
        let mut store = BaseStore::new();
        let mut idx = StreamIndex::new();
        inject(&mut store, &mut idx, 100, SnapshotId(1), &[t(1, 2, 10)]);
        inject(&mut store, &mut idx, 300, SnapshotId(1), &[t(1, 2, 30)]);

        // Replay a batch at the (old) timestamp 200.
        let mut rc = Vec::new();
        store.insert_at(t(1, 2, 20), SnapshotId(2), &mut rc);
        idx.push_batch(IndexBatch::from_receipts(200, &rc));

        let key = Key::new(Vid(1), Pid(2), Dir::Out);
        let mut out = Vec::new();
        idx.neighbors_in(&store, key, 150, 250, &mut out);
        assert_eq!(out, vec![Vid(20)], "window scan finds the replayed batch");
        out.clear();
        idx.neighbors_in(&store, key, 0, 999, &mut out);
        assert_eq!(out, vec![Vid(10), Vid(20), Vid(30)], "time order restored");

        // Equal timestamps keep arrival order; a replay at the newest
        // timestamp appends.
        let mut rc = Vec::new();
        store.insert_at(t(1, 2, 31), SnapshotId(2), &mut rc);
        idx.push_batch(IndexBatch::from_receipts(300, &rc));
        out.clear();
        idx.neighbors_in(&store, key, 300, 300, &mut out);
        assert_eq!(out, vec![Vid(30), Vid(31)]);

        // GC still retires from the front across replayed batches.
        assert_eq!(idx.retire_expired(250), 2);
        assert_eq!(idx.batch_count(), 2);
    }

    #[test]
    fn index_smaller_than_data() {
        // Table 7's premise: the index is a small fraction of raw data.
        let mut store = BaseStore::new();
        let mut idx = StreamIndex::new();
        for batch in 0..10u64 {
            let triples: Vec<_> = (0..100).map(|i| t(batch * 100 + i, 2, 7)).collect();
            inject(&mut store, &mut idx, batch * 100, SnapshotId(1), &triples);
        }
        assert!(idx.heap_bytes() < store.heap_bytes());
    }
}
