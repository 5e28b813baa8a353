//! The stream index (§4.2, Fig. 8).
//!
//! After the persistent store absorbs a stream's timeless tuples, the data
//! of one window is sprinkled across the whole store; walking full values
//! to find the tuples of a window would cost O(stored data). The stream
//! index is the fast path: per stream, a time-ordered sequence of
//! [`IndexBatch`]es, each mapping the keys a batch appended to onto a
//! [`FatPointer`] into the persistent value. A window lookup then touches
//! only the batches inside the window — "the search space is extremely
//! decreased and independent to the size of stored data".
//!
//! Fat pointers here are `(logical offset, length)` pairs rather than raw
//! addresses (the paper uses a 96-bit address+size pointer): the
//! persistent store is append-only per key, so logical offsets are stable
//! even across snapshot consolidation, which gives the same O(1) range
//! access without unsafe memory.

use std::collections::VecDeque;
use wukong_rdf::{Dir, Key, KeyMap, Pid, Timestamp, Vid};

use crate::base::{AppendReceipt, BaseStore};

/// A `(start, len)` range within one key's logical neighbour sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FatPointer {
    /// Logical offset of the first neighbour this batch appended.
    pub start: u32,
    /// Number of neighbours appended by this batch.
    pub len: u32,
}

/// Set on the `len` of a key's inline run when the key has earlier runs
/// in [`IndexBatch`]'s spill list (no run reaches 2³¹ appends).
const SPILLED: u32 = 1 << 31;

/// The stream-index entries of one stream batch.
///
/// A key's appends by one batch usually form one run of its logical
/// sequence, but a batch installed in pieces (DESIGN.md §5) can have
/// another stream's piece append to the same key between two of its own,
/// leaving several runs. The newest run of every key stays inline in the
/// map, so a lookup is still one probe; the earlier runs of such keys sit
/// in a side list that only a key marked [`SPILLED`] consults.
#[derive(Debug, Clone, Default)]
pub struct IndexBatch {
    /// Batch timestamp.
    pub timestamp: Timestamp,
    entries: KeyMap<FatPointer>,
    /// Earlier runs of the keys whose inline run is marked [`SPILLED`],
    /// in append order.
    spilled: Vec<(Key, FatPointer)>,
}

impl IndexBatch {
    /// Builds an index batch from the injector's append receipts.
    pub fn from_receipts(timestamp: Timestamp, receipts: &[AppendReceipt]) -> Self {
        let mut batch = IndexBatch {
            timestamp,
            ..IndexBatch::default()
        };
        batch.reserve_for(receipts.len());
        for r in receipts {
            batch.record(*r);
        }
        batch
    }

    /// Sizes the map for a batch of `receipts` data-key receipts in all,
    /// before they are recorded; a batch installed in pieces calls this
    /// with its running total before each piece, and so ends with the
    /// same table as a whole-batch build. A timeless tuple leaves two
    /// receipts and stream batches repeat keys, so about half the
    /// receipts name a new key: reserved for that many, the map usually
    /// fills without rehashing. Index batches stay resident for as long
    /// as a window reaches back; reserving for every receipt measured
    /// +1 % `rss_peak_mb` and a slower build, the table's fresh pages
    /// costing more than the rehashes.
    pub fn reserve_for(&mut self, receipts: usize) {
        let keys = receipts / 2;
        self.entries
            .reserve(keys.saturating_sub(self.entries.len()));
    }

    /// Folds one more append receipt of this batch into its key's newest
    /// run: a receipt right behind the run extends it, any other opens a
    /// new run and spills the old one. A key's receipts arrive in offset
    /// order — installs are serialised, and each key has one writer.
    pub fn record(&mut self, r: AppendReceipt) {
        use std::collections::hash_map::Entry;
        match self.entries.entry(r.key) {
            Entry::Vacant(e) => {
                e.insert(FatPointer {
                    start: r.offset,
                    len: 1,
                });
            }
            Entry::Occupied(mut e) => {
                let run = e.get_mut();
                let len = run.len & !SPILLED;
                if r.offset == run.start + len {
                    run.len += 1;
                } else {
                    debug_assert!(r.offset > run.start + len, "receipts out of offset order");
                    self.spilled.push((
                        r.key,
                        FatPointer {
                            start: run.start,
                            len,
                        },
                    ));
                    *run = FatPointer {
                        start: r.offset,
                        len: 1 | SPILLED,
                    };
                }
            }
        }
    }

    /// `key`'s runs in this batch, oldest first: none if the batch never
    /// appended to it, and one unless another batch's piece appended to
    /// it between two of this batch's.
    pub fn runs(&self, key: Key) -> impl Iterator<Item = FatPointer> + '_ {
        Runs::new(std::iter::once(self), key).map(|(_, run)| run)
    }

    /// Visits every key this batch appended to.
    pub fn for_each_key(&self, mut f: impl FnMut(Key)) {
        for k in self.entries.keys() {
            f(*k);
        }
    }

    /// Number of indexed keys.
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }

    /// Approximate heap bytes of this batch's entries and spilled runs.
    pub fn heap_bytes(&self) -> usize {
        self.entries.len() * (std::mem::size_of::<Key>() + std::mem::size_of::<FatPointer>() + 16)
            + self.spilled.capacity() * std::mem::size_of::<(Key, FatPointer)>()
    }
}

/// Every run of one key in a sequence of batches, each with its batch's
/// timestamp: one map probe per batch, and a scan of the batch's spill
/// list only when the key's inline run is marked [`SPILLED`]. A window
/// read calls `next` once per in-window batch, so this is written out
/// rather than composed from adaptors.
struct Runs<'a, I> {
    batches: I,
    key: Key,
    /// The current batch's spill list still to scan for `key`.
    spilled: std::slice::Iter<'a, (Key, FatPointer)>,
    /// The current batch's inline run, yielded after its spilled runs.
    newest: Option<(Timestamp, FatPointer)>,
}

impl<'a, I: Iterator<Item = &'a IndexBatch>> Runs<'a, I> {
    fn new(batches: I, key: Key) -> Self {
        Runs {
            batches,
            key,
            spilled: [].iter(),
            newest: None,
        }
    }
}

impl<'a, I: Iterator<Item = &'a IndexBatch>> Iterator for Runs<'a, I> {
    type Item = (Timestamp, FatPointer);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        if let Some((ts, _)) = self.newest {
            let key = self.key;
            if let Some(&(_, run)) = self.spilled.find(|(k, _)| *k == key) {
                return Some((ts, run));
            }
            return self.newest.take();
        }
        for b in self.batches.by_ref() {
            let Some(&run) = b.entries.get(&self.key) else {
                continue;
            };
            if run.len & SPILLED == 0 {
                return Some((b.timestamp, run));
            }
            self.spilled = b.spilled.iter();
            let len = run.len & !SPILLED;
            self.newest = Some((
                b.timestamp,
                FatPointer {
                    start: run.start,
                    len,
                },
            ));
            return self.next();
        }
        None
    }
}

/// The time-ordered stream index of one stream (on one node or replica).
#[derive(Debug, Default)]
pub struct StreamIndex {
    batches: VecDeque<IndexBatch>,
    retired: u64,
}

impl StreamIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a batch at its time-ordered position, behind every batch
    /// with an equal or older timestamp: an in-order push appends at the
    /// new side, and a catch-up replay at its original timestamp slots in
    /// behind newer batches. The deque stays sorted, so the
    /// `partition_point` window scans remain correct.
    pub fn push_batch(&mut self, batch: IndexBatch) {
        let pos = self
            .batches
            .partition_point(|b| b.timestamp <= batch.timestamp);
        self.batches.insert(pos, batch);
    }

    /// Retires every batch older than `expiry` (exclusive), mirroring the
    /// transient store's GC. Returns the number retired.
    pub(crate) fn retire_expired(&mut self, expiry: Timestamp) -> usize {
        let mut n = 0;
        while let Some(front) = self.batches.front() {
            if front.timestamp >= expiry {
                break;
            }
            self.batches.pop_front();
            self.retired += 1;
            n += 1;
        }
        n
    }

    /// The batches whose timestamp lies in `[lo, hi]`, oldest first.
    pub fn batches_in(&self, lo: Timestamp, hi: Timestamp) -> impl Iterator<Item = &IndexBatch> {
        let start = self.batches.partition_point(|b| b.timestamp < lo);
        self.batches
            .range(start..)
            .take_while(move |b| b.timestamp <= hi)
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
    ) -> impl Iterator<Item = (Timestamp, FatPointer)> + '_ {
        Runs::new(self.batches_in(lo, hi), key)
    }

    /// Visits what `key` gained in `[lo, hi]`, run by run with each run's
    /// batch timestamp, reading the ranges out of `store` via the fat
    /// pointers. Only a key some in-window batch touched costs the store
    /// probe, and it costs one: every pointer reads from the same cell.
    fn for_each_run_in(
        &self,
        store: &BaseStore,
        key: Key,
        lo: Timestamp,
        hi: Timestamp,
        mut visit: impl FnMut(Timestamp, &[Vid]),
    ) {
        let mut pointers = self.pointers_in(key, lo, hi).peekable();
        if pointers.peek().is_none() {
            return;
        }
        if let Some(cell) = store.cell(key) {
            for (ts, fp) in pointers {
                visit(ts, cell.range(fp.start, fp.len));
            }
        }
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
        self.pointers_in(key, lo, hi)
            .map(|(_, fp)| fp.len as usize)
            .sum()
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
        for b in self.batches_in(lo, hi) {
            b.for_each_key(|k| {
                if !k.is_index() && k.pid() == pid && k.dir() == dir {
                    f(k.vid());
                }
            });
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

    /// Number of live batches.
    pub fn batch_count(&self) -> usize {
        self.batches.len()
    }

    /// Batches retired so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Approximate heap bytes of the whole index.
    pub fn heap_bytes(&self) -> usize {
        self.batches.iter().map(IndexBatch::heap_bytes).sum()
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
        let global = IndexBatch::from_receipts(900, &receipts);
        let map = ShardMap::new(4);
        let per_node: Vec<IndexBatch> = (0..4u16)
            .map(|n| {
                let owns = map.owner_filter(n);
                let rc: Vec<AppendReceipt> =
                    receipts.iter().filter(|r| owns(r.key)).copied().collect();
                IndexBatch::from_receipts(900, &rc)
            })
            .collect();
        assert_eq!(
            per_node.iter().map(IndexBatch::entry_count).sum::<usize>(),
            global.entry_count(),
            "node batches must be key-disjoint and jointly complete"
        );
        global.for_each_key(|k| {
            let node = map.node_of_key(k) as usize;
            let runs = |b: &IndexBatch| b.runs(k).collect::<Vec<_>>();
            assert_eq!(runs(&per_node[node]), runs(&global), "{k:?}");
        });
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
        let ptrs: Vec<_> = idx.pointers_in(key, 100, 100).collect();
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
        let ptrs: Vec<_> = idx.pointers_in(k1, 0, 999).collect();
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
        // costs one spilled run.
        let key = Key::new(Vid(1), Pid(2), Dir::Out);
        let receipts = [
            AppendReceipt { key, offset: 0 },
            AppendReceipt { key, offset: 2 },
            AppendReceipt { key, offset: 3 },
        ];
        let batch = IndexBatch::from_receipts(100, &receipts);
        assert_eq!(
            batch.runs(key).collect::<Vec<_>>(),
            vec![
                FatPointer { start: 0, len: 1 },
                FatPointer { start: 2, len: 2 }
            ]
        );
        assert_eq!(batch.entry_count(), 1);
        let contiguous = IndexBatch::from_receipts(100, &receipts[1..]);
        assert!(batch.heap_bytes() >= contiguous.heap_bytes() + 16);
    }

    /// Two streams' batches install in pieces that interleave on shared
    /// keys (a user's out-key, the predicate's index vertex): each batch's
    /// window read returns exactly its own appends, in order, `count_in`
    /// agrees, and the spilled runs show in `heap_bytes`.
    #[test]
    fn interleaved_pieces_leave_several_runs_per_key() {
        let mut store = BaseStore::new();
        let (mut a, mut b) = (IndexBatch::default(), IndexBatch::default());
        (a.timestamp, b.timestamp) = (100, 100);
        let mut want: [Vec<Vid>; 2] = Default::default();
        // Pieces A, B, A, B, A of subject 1's `2`-edges to fresh objects.
        for piece in 0..5u64 {
            let (open, mine) = if piece % 2 == 0 {
                (&mut a, &mut want[0])
            } else {
                (&mut b, &mut want[1])
            };
            let mut rc = Vec::new();
            for i in 0..3 {
                let o = 10 * piece + i + 10;
                store.insert_at(t(1, 2, o), SnapshotId(1), &mut rc);
                mine.push(Vid(o));
            }
            for r in rc {
                open.record(r);
            }
        }
        let key = Key::new(Vid(1), Pid(2), Dir::Out);
        assert_eq!(a.runs(key).count(), 3);
        assert_eq!(b.runs(key).count(), 2);
        // Both keys a piece shares with the other batch spilled: the
        // subject's out-key and the in-index vertex (every object is new).
        let single =
            (std::mem::size_of::<Key>() + std::mem::size_of::<FatPointer>() + 16) * a.entry_count();
        assert!(a.heap_bytes() >= single + 4 * std::mem::size_of::<(Key, FatPointer)>());

        let mut index = [StreamIndex::new(), StreamIndex::new()];
        index[0].push_batch(a);
        index[1].push_batch(b);
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
