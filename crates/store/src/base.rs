//! The Wukong-style base graph store (§4.1, Fig. 6).
//!
//! The store keys key/value pairs by `[vid | pid | dir]` and stores the
//! neighbouring vertex IDs as the value. *Index vertices* (vertex 0)
//! provide the reverse mapping from an edge label to every vertex carrying
//! such an edge, so queries can start from a predicate alone.
//!
//! The continuous persistent store extends the same structure with
//! incremental, snapshot-numbered appends: each value is a [`ValueCell`],
//! one contiguous, append-only neighbour list plus the start offsets of
//! the snapshots still retained for it (§4.3, "bounded snapshot
//! scalarization"). A reader at snapshot `sn` sees the prefix that ends
//! at the first retained snapshot above `sn`; the Injector recycles an
//! expired snapshot by dropping its mark, never by moving data. Values
//! are append-only, which gives every neighbour a *stable logical offset*
//! within its key — the property the stream index's fat pointers rely on
//! (§4.2) — and that offset is simply the neighbour's position in the
//! list.

use crate::snapshot::SnapshotId;
use wukong_rdf::{Dir, Key, KeyMap, Pid, Triple, Vid};

/// Neighbours a cell's first buffer holds: three words fill the smallest
/// block the allocator hands out (a 32-byte chunk on 64-bit glibc), where
/// `Vec`'s own first step of four would take the next size up for the
/// same one to three neighbours most keys ever have.
const FIRST_CAPACITY: usize = 3;

/// Where a retained snapshot's appends begin in a cell's values.
type Mark = (SnapshotId, u32);

/// A cell's retained-snapshot marks, oldest first.
///
/// Almost every cell retains at most one snapshot (the one being
/// inserted), so that many live inline; only a key written under
/// several live snapshots spills to the heap, and it returns inline as
/// soon as consolidation leaves it one mark again.
#[derive(Debug, Default, Clone)]
enum Marks {
    #[default]
    None,
    One(Mark),
    /// Two or more. Boxed so the enum stays 16 bytes — the spill is rare,
    /// the cell sits in every map entry.
    #[allow(clippy::box_collection)]
    Spilled(Box<Vec<Mark>>),
}

impl Marks {
    fn as_slice(&self) -> &[Mark] {
        match self {
            Marks::None => &[],
            Marks::One(m) => std::slice::from_ref(m),
            Marks::Spilled(v) => v,
        }
    }

    fn push(&mut self, m: Mark) {
        match self {
            Marks::None => *self = Marks::One(m),
            Marks::One(first) => *self = Marks::Spilled(Box::new(vec![*first, m])),
            Marks::Spilled(v) => v.push(m),
        }
    }

    /// Drops every mark with snapshot ≤ `upto` (a prefix: marks are
    /// snapshot-ordered).
    fn drop_upto(&mut self, upto: SnapshotId) {
        let n = self
            .as_slice()
            .iter()
            .take_while(|(s, _)| *s <= upto)
            .count();
        let kept = &self.as_slice()[n..];
        match (n, kept) {
            (0, _) => {}
            (_, []) => *self = Marks::None,
            (_, [last]) => *self = Marks::One(*last),
            _ => {
                if let Marks::Spilled(v) = self {
                    v.drain(..n);
                }
            }
        }
    }
}

/// One key's value: its neighbours in append order, plus where each
/// retained snapshot's appends begin.
///
/// Values ahead of the first mark are visible at every snapshot (initial
/// load and consolidated appends); a mark `(sn, start)` gates
/// `values[start..]` behind snapshot `sn`.
#[derive(Debug, Default, Clone)]
pub struct ValueCell {
    values: Vec<Vid>,
    marks: Marks,
}

impl ValueCell {
    /// Total logical length (all snapshots).
    pub fn total_len(&self) -> usize {
        self.values.len()
    }

    /// Logical length visible at snapshot `sn`: up to the first retained
    /// snapshot above `sn`.
    pub fn len_at(&self, sn: SnapshotId) -> usize {
        let hidden = self.marks.as_slice().iter().find(|(s, _)| *s > sn);
        hidden.map_or(self.values.len(), |&(_, start)| start as usize)
    }

    /// Appends one neighbour under snapshot `sn`, returning its logical
    /// offset.
    ///
    /// Appends must arrive in non-decreasing snapshot order; the injector
    /// guarantees this because a key partition is owned by one thread and
    /// batches of one stream are inserted in order (§4.1).
    fn append(&mut self, v: Vid, sn: SnapshotId) -> u32 {
        let off = self.values.len() as u32;
        // Snapshot-0 data ahead of every mark is visible to everyone
        // already, so the initial load needs no mark at all.
        let newest = self
            .marks
            .as_slice()
            .last()
            .map_or(SnapshotId::BASE, |m| m.0);
        if newest != sn {
            debug_assert!(newest < sn, "appends must be snapshot-ordered");
            self.marks.push((sn, off));
        }
        if self.values.capacity() == 0 {
            self.values.reserve_exact(FIRST_CAPACITY);
        }
        self.values.push(v);
        off
    }

    /// Makes every append under a snapshot ≤ `upto` visible at every
    /// snapshot, by dropping those snapshots' marks ("overwrite the
    /// snapshot number 2 by 4", §4.3). No data moves, so logical offsets
    /// are unchanged.
    ///
    /// The caller (the coordinator) must guarantee that no in-flight query
    /// reads at a snapshot older than `upto`.
    fn consolidate(&mut self, upto: SnapshotId) {
        self.marks.drop_upto(upto);
    }

    /// Number of snapshots currently retained, i.e. of marks: snapshot-0
    /// data needs none and counts as none, consolidated data likewise.
    pub fn retained_snapshots(&self) -> usize {
        self.marks.as_slice().len()
    }

    /// The neighbours visible at snapshot `sn`, in logical order.
    pub fn visible(&self, sn: SnapshotId) -> &[Vid] {
        &self.values[..self.len_at(sn)]
    }

    /// The logical range `[start, start + len)`.
    ///
    /// Ranges come from stream-index fat pointers and always lie within the
    /// already-written part of the cell; out-of-range requests are clipped.
    pub fn range(&self, start: u32, len: u32) -> &[Vid] {
        let from = (start as usize).min(self.values.len());
        let to = from.saturating_add(len as usize).min(self.values.len());
        &self.values[from..to]
    }

    /// Heap bytes this cell owns: the value buffer and, when spilled, the
    /// mark list with its boxed header.
    pub fn heap_bytes(&self) -> usize {
        let spilled = match &self.marks {
            Marks::Spilled(v) => {
                std::mem::size_of::<Vec<Mark>>() + v.capacity() * std::mem::size_of::<Mark>()
            }
            _ => 0,
        };
        self.values.capacity() * std::mem::size_of::<Vid>() + spilled
    }
}

/// One data-key update of a triple, with the index-vertex update it
/// causes when it is the data key's first edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyUpdate {
    /// The data key: `[s | p | out]` or `[o | p | in]`.
    pub key: Key,
    /// The neighbour appended to `key`.
    pub neighbor: Vid,
    /// The index vertex `[0 | p | dir]` of `key`'s predicate and direction.
    pub index: Key,
    /// The vertex appended to `index`: `key`'s own vertex.
    pub index_neighbor: Vid,
}

impl KeyUpdate {
    /// Whether the triple counts where this update's key lives: a triple
    /// counts once, on its out key's owner.
    pub fn counts_triple(&self) -> bool {
        self.key.dir() == Dir::Out
    }
}

/// The one rule for writing a triple (§4.1, Fig. 6): `[s | p | out] += o`
/// and `[o | p | in] += s`, and — only on a vertex's *first* edge with that
/// predicate and direction — `[0 | p | out] += s` or `[0 | p | in] += o`.
/// That keeps index lists duplicate-free without extra memory (Fig. 6's
/// `⟨Logan, po, T-15⟩` injection). Every write path loops over these two
/// updates; each decides for itself what "first" means (the key was
/// empty, or first seen in a transient slice) and where a key lives.
pub fn key_updates(t: Triple) -> [KeyUpdate; 2] {
    [
        KeyUpdate {
            key: t.out_key(),
            neighbor: t.o,
            index: Key::index(t.p, Dir::Out),
            index_neighbor: t.s,
        },
        KeyUpdate {
            key: t.in_key(),
            neighbor: t.s,
            index: Key::index(t.p, Dir::In),
            index_neighbor: t.o,
        },
    ]
}

/// Where an append landed: key plus logical offset range.
///
/// Receipts feed the stream index: appends by one stream batch to one key
/// are contiguous in that key's logical sequence (nothing else writes the
/// key partition meanwhile), so a batch compresses to one `(start, len)`
/// fat pointer per key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendReceipt {
    /// The key appended to.
    pub key: Key,
    /// Logical offset of the appended neighbour.
    pub offset: u32,
}

/// The in-memory key/value graph store of one shard (or partition).
#[derive(Debug, Default)]
pub struct BaseStore {
    map: KeyMap<ValueCell>,
    triple_count: u64,
}

impl BaseStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of triples inserted (each triple counts once, although it
    /// updates up to four keys).
    pub fn triple_count(&self) -> u64 {
        self.triple_count
    }

    /// Inserts a triple into the initial (base, snapshot-0) dataset.
    pub fn insert_base(&mut self, t: Triple) {
        self.insert_at(t, SnapshotId::BASE, &mut Vec::new());
    }

    /// Appends one neighbour to `key` under snapshot `sn`.
    ///
    /// Returns the logical offset of the append and whether the key was
    /// empty beforehand (used for duplicate-free index maintenance: a
    /// vertex joins the `[0|p|d]` index exactly when its own `[v|p|d]` key
    /// goes from empty to non-empty).
    pub fn append_edge(&mut self, key: Key, v: Vid, sn: SnapshotId) -> (u32, bool) {
        self.append_edge_merging(key, v, sn, None)
    }

    /// Like [`BaseStore::append_edge`], additionally consolidating this
    /// cell's snapshots up to `merge_upto` first.
    ///
    /// This is the paper's injection-time recycling of expired snapshots
    /// ("The Injector can continue to absorb the streaming data and
    /// overwrite the snapshot number 2 by 4", §4.3): consolidation work is
    /// amortised over appends, touching only written cells.
    pub fn append_edge_merging(
        &mut self,
        key: Key,
        v: Vid,
        sn: SnapshotId,
        merge_upto: Option<SnapshotId>,
    ) -> (u32, bool) {
        let cell = self.map.entry(key).or_default();
        if let Some(upto) = merge_upto {
            cell.consolidate(upto);
        }
        let off = cell.append(v, sn);
        (off, off == 0)
    }

    /// Counts `n` triples at once (the shard layer counts a triple once
    /// although its key updates may span partitions).
    pub(crate) fn note_triples(&mut self, n: u64) {
        self.triple_count += n;
    }

    /// Inserts a triple under snapshot `sn`, pushing append receipts: the
    /// two data-key updates of [`key_updates`], then the index-vertex
    /// update each first edge causes.
    pub fn insert_at(&mut self, t: Triple, sn: SnapshotId, receipts: &mut Vec<AppendReceipt>) {
        self.triple_count += 1;
        let updates = key_updates(t);
        let firsts = updates.map(|u| {
            let (offset, first) = self.append_edge(u.key, u.neighbor, sn);
            receipts.push(AppendReceipt { key: u.key, offset });
            first
        });
        for (u, first) in updates.iter().zip(firsts) {
            if first {
                let (offset, _) = self.append_edge(u.index, u.index_neighbor, sn);
                receipts.push(AppendReceipt {
                    key: u.index,
                    offset,
                });
            }
        }
    }

    /// Visits every key in the store (for statistics and checkpointing).
    pub fn for_each_key(&self, mut f: impl FnMut(Key, &ValueCell)) {
        for (k, c) in &self.map {
            f(*k, c);
        }
    }

    /// The value cell of `key`, if the store holds one — the one hash
    /// probe a read needs; every range or snapshot view is then a slice
    /// of the cell.
    pub fn cell(&self, key: Key) -> Option<&ValueCell> {
        self.map.get(&key)
    }

    /// The neighbours of `key` visible at snapshot `sn` (empty if absent).
    pub fn visible(&self, key: Key, sn: SnapshotId) -> &[Vid] {
        self.map.get(&key).map_or(&[], |c| c.visible(sn))
    }

    /// Visits the neighbours of `key` visible at snapshot `sn`.
    pub fn for_each_neighbor(&self, key: Key, sn: SnapshotId, f: impl FnMut(Vid)) {
        self.visible(key, sn).iter().copied().for_each(f);
    }

    /// Collects the neighbours of `key` visible at snapshot `sn`.
    pub fn neighbors_at(&self, key: Key, sn: SnapshotId) -> Vec<Vid> {
        self.visible(key, sn).to_vec()
    }

    /// Length of `key`'s neighbour list at snapshot `sn` (0 if absent).
    pub fn len_at(&self, key: Key, sn: SnapshotId) -> usize {
        self.visible(key, sn).len()
    }

    /// Reads the logical range of `key` designated by a fat pointer.
    pub fn read_range(&self, key: Key, start: u32, len: u32, out: &mut Vec<Vid>) {
        if let Some(cell) = self.map.get(&key) {
            out.extend_from_slice(cell.range(start, len));
        }
    }

    /// Whether triple `(s, p, o)` is visible at snapshot `sn`.
    ///
    /// Scans the smaller of the two adjacency lists.
    pub fn exists_at(&self, s: Vid, p: Pid, o: Vid, sn: SnapshotId) -> bool {
        let outs = self.visible(Key::new(s, p, Dir::Out), sn);
        let ins = self.visible(Key::new(o, p, Dir::In), sn);
        if outs.len() <= ins.len() {
            outs.contains(&o)
        } else {
            ins.contains(&s)
        }
    }

    /// Drops every cell's snapshot marks ≤ `upto`, making those appends
    /// visible at every snapshot. The caller must guarantee that no
    /// in-flight query reads at a snapshot older than `upto` (see the
    /// cell-level method).
    pub fn consolidate(&mut self, upto: SnapshotId) {
        for cell in self.map.values_mut() {
            cell.consolidate(upto);
        }
    }

    /// Largest number of snapshots retained by any cell.
    pub fn max_retained_snapshots(&self) -> usize {
        self.map
            .values()
            .map(ValueCell::retained_snapshots)
            .max()
            .unwrap_or(0)
    }

    /// Heap bytes of the whole store: what every cell owns plus its map
    /// entry (the map's unoccupied buckets are not counted).
    pub fn heap_bytes(&self) -> usize {
        let entry = std::mem::size_of::<(Key, ValueCell)>();
        self.map
            .values()
            .map(|c| c.heap_bytes() + entry)
            .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(s: u64, p: u64, o: u64) -> Triple {
        Triple::new(Vid(s), Pid(p), Vid(o))
    }

    #[test]
    fn fig6_base_layout() {
        // Fig. 6: Logan(1) posts T-13(5), T-14(6); index [0|po|in] holds
        // the posted tweets, [0|po|out] holds the posters.
        let po = Pid(4);
        let mut st = BaseStore::new();
        st.insert_base(t(1, 4, 5));
        st.insert_base(t(1, 4, 6));

        let sn = SnapshotId::BASE;
        assert_eq!(
            st.neighbors_at(Key::new(Vid(1), po, Dir::Out), sn),
            vec![Vid(5), Vid(6)]
        );
        assert_eq!(
            st.neighbors_at(Key::index(po, Dir::In), sn),
            vec![Vid(5), Vid(6)]
        );
        // Logan appears once in the subject index despite two posts.
        assert_eq!(st.neighbors_at(Key::index(po, Dir::Out), sn), vec![Vid(1)]);
    }

    #[test]
    fn fig6_injection_updates_all_keys() {
        // Adding ⟨Logan(1), po(4), T-15(7)⟩ under snapshot 1 must append
        // to [1|4|out], create [7|4|in] and extend the in-index.
        let mut st = BaseStore::new();
        st.insert_base(t(1, 4, 5));
        st.insert_base(t(1, 4, 6));

        let mut rc = Vec::new();
        st.insert_at(t(1, 4, 7), SnapshotId(1), &mut rc);

        // Old snapshot readers do not see the new tweet.
        assert_eq!(
            st.neighbors_at(Key::new(Vid(1), Pid(4), Dir::Out), SnapshotId::BASE),
            vec![Vid(5), Vid(6)]
        );
        // Snapshot-1 readers do.
        assert_eq!(
            st.neighbors_at(Key::new(Vid(1), Pid(4), Dir::Out), SnapshotId(1)),
            vec![Vid(5), Vid(6), Vid(7)]
        );
        assert_eq!(
            st.neighbors_at(Key::new(Vid(7), Pid(4), Dir::In), SnapshotId(1)),
            vec![Vid(1)]
        );
        assert_eq!(
            st.neighbors_at(Key::index(Pid(4), Dir::In), SnapshotId(1)),
            vec![Vid(5), Vid(6), Vid(7)]
        );
        // Receipts: out append at offset 2, in append at offset 0, index
        // append at offset 2. Subject index untouched (not Logan's first
        // po-out edge).
        assert_eq!(rc.len(), 3);
        assert_eq!(rc[0].offset, 2);
        assert_eq!(rc[1].offset, 0);
        assert_eq!(rc[2].offset, 2);
    }

    #[test]
    fn read_range_spans_base_and_intervals() {
        let mut st = BaseStore::new();
        st.insert_base(t(1, 4, 5));
        let mut rc = Vec::new();
        st.insert_at(t(1, 4, 6), SnapshotId(1), &mut rc);
        st.insert_at(t(1, 4, 7), SnapshotId(2), &mut rc);

        let key = Key::new(Vid(1), Pid(4), Dir::Out);
        let mut out = Vec::new();
        st.read_range(key, 0, 3, &mut out);
        assert_eq!(out, vec![Vid(5), Vid(6), Vid(7)]);

        out.clear();
        st.read_range(key, 1, 2, &mut out);
        assert_eq!(out, vec![Vid(6), Vid(7)]);

        // Clipped, not panicking, when the range overruns.
        out.clear();
        st.read_range(key, 2, 10, &mut out);
        assert_eq!(out, vec![Vid(7)]);
    }

    #[test]
    fn consolidation_preserves_offsets_and_visibility() {
        let mut st = BaseStore::new();
        st.insert_base(t(1, 4, 5));
        let mut rc = Vec::new();
        st.insert_at(t(1, 4, 6), SnapshotId(1), &mut rc);
        st.insert_at(t(1, 4, 7), SnapshotId(2), &mut rc);

        let key = Key::new(Vid(1), Pid(4), Dir::Out);
        st.consolidate(SnapshotId(1));

        // Offsets are stable across consolidation.
        let mut out = Vec::new();
        st.read_range(key, 1, 1, &mut out);
        assert_eq!(out, vec![Vid(6)]);
        // Snapshot-2 data still gated.
        assert_eq!(st.len_at(key, SnapshotId(1)), 2);
        assert_eq!(st.len_at(key, SnapshotId(2)), 3);
        assert!(st.max_retained_snapshots() <= 1);
    }

    #[test]
    fn exists_checks_either_direction() {
        let mut st = BaseStore::new();
        st.insert_base(t(1, 2, 3));
        let sn = SnapshotId::BASE;
        assert!(st.exists_at(Vid(1), Pid(2), Vid(3), sn));
        assert!(!st.exists_at(Vid(3), Pid(2), Vid(1), sn));
        assert!(!st.exists_at(Vid(1), Pid(9), Vid(3), sn));
    }

    #[test]
    fn snapshot_gating_of_exists() {
        let mut st = BaseStore::new();
        let mut rc = Vec::new();
        st.insert_at(t(1, 2, 3), SnapshotId(5), &mut rc);
        assert!(!st.exists_at(Vid(1), Pid(2), Vid(3), SnapshotId(4)));
        assert!(st.exists_at(Vid(1), Pid(2), Vid(3), SnapshotId(5)));
    }

    /// The layout `ValueCell` had before it became one contiguous value:
    /// a base segment plus one heap segment per retained snapshot, merged
    /// into the base by copying. Kept as the oracle the contiguous cell is
    /// compared against.
    #[derive(Default)]
    struct SegmentedCell {
        base: Vec<Vid>,
        intervals: Vec<(SnapshotId, Vec<Vid>)>,
    }

    impl SegmentedCell {
        fn segments(&self) -> impl Iterator<Item = &[Vid]> {
            let intervals = self.intervals.iter().map(|(_, seg)| seg.as_slice());
            std::iter::once(self.base.as_slice()).chain(intervals)
        }

        fn total_len(&self) -> usize {
            self.segments().map(<[Vid]>::len).sum()
        }

        fn append(&mut self, v: Vid, sn: SnapshotId) -> u32 {
            let off = self.total_len() as u32;
            match self.intervals.last_mut() {
                Some((last_sn, seg)) if *last_sn == sn => seg.push(v),
                _ => self.intervals.push((sn, vec![v])),
            }
            off
        }

        fn consolidate(&mut self, upto: SnapshotId) {
            let n = self
                .intervals
                .iter()
                .take_while(|(s, _)| *s <= upto)
                .count();
            for (_, seg) in self.intervals.drain(..n) {
                self.base.extend(seg);
            }
        }

        fn visible(&self, sn: SnapshotId) -> Vec<Vid> {
            let mut out = self.base.clone();
            for (_, seg) in self.intervals.iter().take_while(|(s, _)| *s <= sn) {
                out.extend_from_slice(seg);
            }
            out
        }

        fn range(&self, start: u32, len: u32) -> Vec<Vid> {
            let (mut skip, mut take) = (start as usize, len as usize);
            let mut out = Vec::new();
            for seg in self.segments() {
                let from = skip.min(seg.len());
                skip -= from;
                let part = &seg[from..(from + take).min(seg.len())];
                take -= part.len();
                out.extend_from_slice(part);
            }
            out
        }

        /// Intervals the contiguous cell keeps a mark for: all but a
        /// snapshot-0 one, whose data it stores unmarked.
        fn marked_snapshots(&self) -> usize {
            let marked = |(s, _): &&(SnapshotId, Vec<Vid>)| *s != SnapshotId::BASE;
            self.intervals.iter().filter(marked).count()
        }
    }

    /// Every read of `cell` against the oracle: lengths and views at
    /// snapshots `0..=top`, ranges at every `(start, len)` — across every
    /// snapshot boundary and past the end.
    fn assert_reads_match(cell: &ValueCell, oracle: &SegmentedCell, top: u64) {
        assert_eq!(cell.total_len(), oracle.total_len());
        assert_eq!(cell.retained_snapshots(), oracle.marked_snapshots());
        for sn in (0..=top).map(SnapshotId) {
            let want = oracle.visible(sn);
            assert_eq!(cell.visible(sn), want, "visible at {sn:?}");
            assert_eq!(cell.len_at(sn), want.len(), "len at {sn:?}");
        }
        let total = cell.total_len() as u32;
        for start in 0..=total + 1 {
            for len in 0..=total + 2 {
                let want = oracle.range(start, len);
                assert_eq!(cell.range(start, len), want, "range ({start}, {len})");
            }
        }
    }

    #[test]
    fn slice_walks_match_the_old_segment_vector() {
        // A cell with initial data and snapshots of uneven length
        // (including no initial data at all), probed at every (start, len)
        // and at every snapshot, before and after consolidation.
        let mut next = 100u64;
        for base_len in [0usize, 1, 3] {
            let (mut cell, mut oracle) = (ValueCell::default(), SegmentedCell::default());
            let mut append = |cell: &mut ValueCell, oracle: &mut SegmentedCell, sn| {
                assert_eq!(cell.append(Vid(next), sn), oracle.append(Vid(next), sn));
                next += 1;
            };
            for _ in 0..base_len {
                append(&mut cell, &mut oracle, SnapshotId::BASE);
            }
            assert_reads_match(&cell, &oracle, 1);
            for (sn, n) in [(1u64, 2usize), (2, 1), (4, 4), (5, 1)] {
                for _ in 0..n {
                    append(&mut cell, &mut oracle, SnapshotId(sn));
                }
            }
            for consolidate_upto in [None, Some(0u64), Some(1), Some(3), Some(5)] {
                if let Some(upto) = consolidate_upto {
                    cell.consolidate(SnapshotId(upto));
                    oracle.consolidate(SnapshotId(upto));
                }
                assert_reads_match(&cell, &oracle, 6);
            }
        }
    }

    /// One step of a cell's life.
    #[derive(Debug, Clone)]
    enum Op {
        /// Append under the snapshot this many above the newest one used.
        Append(u64),
        /// Consolidate up to this many below the newest snapshot used.
        Consolidate(u64),
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0..3u64).prop_map(Op::Append),
            (0..3u64).prop_map(Op::Append),
            (0..4u64).prop_map(Op::Consolidate),
        ]
    }

    proptest! {
        /// Any interleaving of appends at non-decreasing snapshots and
        /// consolidations reads exactly like the segmented layout, at every
        /// step.
        #[test]
        fn contiguous_cell_reads_like_the_segmented_one(
            ops in proptest::collection::vec(arb_op(), 1..24),
        ) {
            let (mut cell, mut oracle) = (ValueCell::default(), SegmentedCell::default());
            let mut newest = 0u64;
            for (i, op) in ops.into_iter().enumerate() {
                match op {
                    Op::Append(ahead) => {
                        newest += ahead;
                        let (v, sn) = (Vid(1_000 + i as u64), SnapshotId(newest));
                        prop_assert_eq!(cell.append(v, sn), oracle.append(v, sn));
                    }
                    Op::Consolidate(behind) => {
                        let upto = SnapshotId(newest.saturating_sub(behind));
                        cell.consolidate(upto);
                        oracle.consolidate(upto);
                    }
                }
                assert_reads_match(&cell, &oracle, newest + 1);
            }
        }
    }

    #[test]
    fn cell_stays_within_six_words() {
        // The cell sits in every map entry; `state_mb` counts it per key.
        assert!(std::mem::size_of::<ValueCell>() <= 48);
    }

    #[test]
    fn heap_bytes_grows_with_data() {
        let mut st = BaseStore::new();
        let empty = st.heap_bytes();
        for i in 0..100 {
            st.insert_base(t(1, 2, 10 + i));
        }
        assert!(st.heap_bytes() > empty);
    }
}
