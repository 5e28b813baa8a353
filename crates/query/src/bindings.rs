//! Binding tables for graph exploration.
//!
//! Graph exploration carries a table of partial variable bindings from
//! step to step; each expansion step consumes one column and may bind
//! another. Rows are fixed-width (one slot per query variable) with an
//! explicit *unbound* sentinel, which keeps row handling branch-light and
//! lets the fork-join driver repartition rows cheaply.
//!
//! Each row also carries a [`RowTag`] in a column beside its slots:
//! nothing (`()`) for recompute and fork-join, its death timestamp for
//! delta maintenance. The untagged column stores nothing, so an untagged
//! table costs what it did before rows had tags.

use crate::exec::ScanMemo;
use std::fmt::Debug;
use wukong_rdf::{Timestamp, Vid};

/// Sentinel marking an unbound variable slot.
pub const UNBOUND: Vid = Vid(u64::MAX);

/// What a binding row carries besides its variable slots — and with it,
/// how a step reads the edges the row consumes
/// ([`crate::exec::EdgeReads`]).
pub trait RowTag: Copy + Debug + Default + Eq {
    /// One neighbour as a step reads it for such rows.
    type Edge: Copy;
    /// What a step's reads keep between lookups (one per
    /// [`crate::executor::StepScratch`]).
    type Reads: Default + Debug;
    /// The seed row's tag.
    const SEED: Self;
    /// The neighbour `edge` names, and the tag of a row once it consumed
    /// the edge.
    fn consume(self, edge: Self::Edge) -> (Vid, Self);
}

/// Recompute and fork-join rows: a plain neighbour, read into a reused
/// buffer.
impl RowTag for () {
    type Edge = Vid;
    type Reads = Vec<Vid>;
    const SEED: Self = ();

    #[inline]
    fn consume(self, edge: Vid) -> (Vid, ()) {
        (edge, ())
    }
}

/// Delta-maintained rows carry their *death*: the first window end at
/// which the row stops being derivable. Edges are read with their expiry
/// (`ts + RANGE` of their stream, [`ScanMemo`]), and a row that consumes
/// one keeps the earlier of the two. The seed row never expires.
impl RowTag for Timestamp {
    type Edge = (Vid, Timestamp);
    type Reads = ScanMemo;
    const SEED: Self = Timestamp::MAX;

    #[inline]
    fn consume(self, (n, expiry): (Vid, Timestamp)) -> (Vid, Timestamp) {
        (n, self.min(expiry))
    }
}

/// A table of partial bindings: `len()` rows of `width` slots, each with
/// its tag. A zero-sized tag (`()`) has one value, so its column stores
/// nothing and an untagged table does no per-row tag work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BindingTable<T = ()> {
    width: usize,
    rows: Vec<Vid>,
    tags: Vec<T>,
}

impl BindingTable {
    /// Creates a table with a single all-unbound seed row.
    pub fn seed(width: usize) -> Self {
        Self::seed_tagged(width)
    }

    /// Creates an empty table (no rows) of the given width.
    pub fn empty(width: usize) -> Self {
        Self::empty_tagged(width)
    }

    /// Wraps an already width-strided flat buffer as a table (one move,
    /// no per-row copying — the bulk-ingest twin of [`Self::push_row`]).
    ///
    /// # Panics
    ///
    /// Panics if `rows.len()` is not a multiple of the effective width.
    pub(crate) fn from_flat(width: usize, rows: Vec<Vid>) -> Self {
        let width = width.max(1);
        assert_eq!(rows.len() % width, 0, "flat buffer is not width-strided");
        let tags = Vec::new();
        BindingTable { width, rows, tags }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != width`.
    pub fn push_row(&mut self, row: &[Vid]) {
        self.push_tagged(row, ());
    }

    /// Appends `base` with slot `var` replaced by `value`.
    pub fn push_bound(&mut self, base: &[Vid], var: u8, value: Vid) {
        self.push_bound_tagged(base, (), var, value);
    }

    /// Sorts rows lexicographically (unbound slots sort last — the
    /// sentinel is the maximum id). Execution strategies (in-place,
    /// fork-join, incremental delta maintenance) produce the same result
    /// *multiset* in different row orders; canonicalizing before
    /// projection makes row order, float-aggregation order, and
    /// `LIMIT` truncation identical across all of them.
    pub(crate) fn sort_rows(&mut self) {
        // Exploration from a sorted subject list over append-ordered
        // values very often arrives sorted already; one linear pass then
        // replaces the sort and the copy.
        if self.iter().zip(self.iter().skip(1)).all(|(a, b)| a <= b) {
            return;
        }
        let mut chunks: Vec<&[Vid]> = self.rows.chunks_exact(self.width).collect();
        chunks.sort_unstable();
        self.rows = chunks.concat();
    }

    /// Approximate wire size when shipped between nodes (fork-join cost).
    pub fn wire_bytes(&self) -> usize {
        self.rows.len() * std::mem::size_of::<Vid>()
    }
}

impl<T: RowTag> BindingTable<T> {
    /// Whether the tag column holds one tag per row: a zero-sized tag has
    /// one value, [`RowTag::SEED`], and its column stays empty.
    const STORES_TAGS: bool = std::mem::size_of::<T>() != 0;

    /// [`BindingTable::seed`] for any tag: the one row is tagged
    /// [`RowTag::SEED`].
    pub(crate) fn seed_tagged(width: usize) -> Self {
        let mut t = Self::empty_tagged(width);
        t.rows = vec![UNBOUND; t.width];
        t.push_tag(T::SEED);
        t
    }

    /// [`BindingTable::empty`] for any tag.
    pub(crate) fn empty_tagged(width: usize) -> Self {
        BindingTable {
            width: width.max(1),
            rows: Vec::new(),
            tags: Vec::new(),
        }
    }

    /// Number of variable slots per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len() / self.width
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The `i`-th row.
    pub fn row(&self, i: usize) -> &[Vid] {
        &self.rows[i * self.width..(i + 1) * self.width]
    }

    /// The `i`-th row's tag.
    pub(crate) fn tag(&self, i: usize) -> T {
        if Self::STORES_TAGS {
            self.tags[i]
        } else {
            T::SEED
        }
    }

    fn push_tag(&mut self, tag: T) {
        if Self::STORES_TAGS {
            self.tags.push(tag);
        }
    }

    /// Appends a row tagged `tag`.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != width`.
    pub(crate) fn push_tagged(&mut self, row: &[Vid], tag: T) {
        assert_eq!(row.len(), self.width, "row width mismatch");
        self.rows.extend_from_slice(row);
        self.push_tag(tag);
    }

    /// Appends `base` with slot `var` replaced by `value`, tagged `tag`.
    pub(crate) fn push_bound_tagged(&mut self, base: &[Vid], tag: T, var: u8, value: Vid) {
        let start = self.rows.len();
        self.rows.extend_from_slice(base);
        self.rows[start + var as usize] = value;
        self.push_tag(tag);
    }

    /// Appends `base` with two distinct slots replaced, tagged `tag`.
    pub(crate) fn push_bound2_tagged(&mut self, base: &[Vid], tag: T, a: (u8, Vid), b: (u8, Vid)) {
        let start = self.rows.len();
        self.rows.extend_from_slice(base);
        self.rows[start + a.0 as usize] = a.1;
        self.rows[start + b.0 as usize] = b.1;
        self.push_tag(tag);
    }

    /// Appends every row of `other`, tags included.
    pub(crate) fn append(&mut self, other: &Self) {
        debug_assert_eq!(self.width, other.width, "appended width mismatch");
        self.rows.extend_from_slice(&other.rows);
        self.tags.extend_from_slice(&other.tags);
    }

    /// Drops every row, keeping the allocation — lets a caller reuse one
    /// table as the output of step after step.
    pub fn clear(&mut self) {
        self.rows.clear();
        self.tags.clear();
    }

    /// Retains only rows for which `keep(row, tag)` returns true,
    /// compacting in place.
    pub fn retain(&mut self, mut keep: impl FnMut(&[Vid], T) -> bool) {
        let width = self.width;
        let mut kept = 0;
        for i in 0..self.len() {
            let at = i * width;
            if keep(&self.rows[at..at + width], self.tag(i)) {
                if kept != i {
                    self.rows.copy_within(at..at + width, kept * width);
                    if Self::STORES_TAGS {
                        self.tags[kept] = self.tags[i];
                    }
                }
                kept += 1;
            }
        }
        self.rows.truncate(kept * width);
        self.tags.truncate(kept);
    }

    /// Iterates over rows.
    pub fn iter(&self) -> impl Iterator<Item = &[Vid]> + Clone {
        self.rows.chunks_exact(self.width)
    }

    /// Iterates over rows with their tags.
    pub(crate) fn iter_tagged(&self) -> impl Iterator<Item = (&[Vid], T)> {
        self.iter().enumerate().map(|(i, row)| (row, self.tag(i)))
    }

    /// The rows without their tags.
    pub(crate) fn untagged(&self) -> BindingTable {
        BindingTable::from_flat(self.width, self.rows.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_has_one_unbound_row() {
        let t = BindingTable::seed(3);
        assert_eq!(t.len(), 1);
        assert_eq!(t.row(0), &[UNBOUND, UNBOUND, UNBOUND]);
    }

    #[test]
    fn push_bound_replaces_one_slot() {
        let mut t = BindingTable::empty(2);
        t.push_bound(&[UNBOUND, UNBOUND], 1, Vid(42));
        assert_eq!(t.row(0), &[UNBOUND, Vid(42)]);
        t.push_bound(t.row(0).to_vec().as_slice(), 0, Vid(7));
        assert_eq!(t.row(1), &[Vid(7), Vid(42)]);
    }

    #[test]
    fn retain_filters_rows() {
        let mut t = BindingTable::empty(1);
        for i in 0..10 {
            t.push_row(&[Vid(i)]);
        }
        t.retain(|r, ()| r[0].0 % 2 == 0);
        assert_eq!(t.len(), 5);
        assert!(t.iter().all(|r| r[0].0 % 2 == 0));
    }

    #[test]
    fn zero_width_is_clamped() {
        // Queries with only constant patterns still need a seed row.
        let t = BindingTable::seed(0);
        assert_eq!(t.len(), 1);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn wrong_width_panics() {
        let mut t = BindingTable::empty(2);
        t.push_row(&[Vid(1)]);
    }

    /// A cheap deterministic sequence for the random tables below.
    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        *state >> 33
    }

    /// A `rows`-row table over a small value domain (so whole rows
    /// repeat) with [`UNBOUND`] mixed in.
    fn random_table(seed: &mut u64, width: usize, rows: usize) -> BindingTable {
        let mut t = BindingTable::empty(width);
        for _ in 0..rows {
            let row: Vec<Vid> = (0..width)
                .map(|_| match lcg(seed) % 5 {
                    0 => UNBOUND,
                    v => Vid(v),
                })
                .collect();
            t.push_row(&row);
        }
        t
    }

    /// The pre-rewrite `sort_rows`: always sorts row references and
    /// gathers them into a fresh buffer.
    fn sort_rows_oracle(t: &BindingTable) -> BindingTable {
        let mut chunks: Vec<&[Vid]> = t.rows.chunks_exact(t.width).collect();
        chunks.sort_unstable();
        BindingTable::from_flat(t.width, chunks.concat())
    }

    /// The pre-rewrite `retain`: copies the kept rows into a fresh buffer.
    fn retain_oracle(t: &BindingTable, mut keep: impl FnMut(&[Vid]) -> bool) -> BindingTable {
        let mut out = BindingTable::empty(t.width);
        for row in t.iter().filter(|r| keep(r)) {
            out.push_row(row);
        }
        out
    }

    #[test]
    fn sort_rows_matches_the_full_sort() {
        // Every table is also re-sorted once sorted (the early return).
        let mut seed = 7;
        for width in 1..=4 {
            for rows in [0, 1, 2, 3, 17, 200] {
                let mut t = random_table(&mut seed, width, rows);
                let want = sort_rows_oracle(&t);
                t.sort_rows();
                assert_eq!(t, want, "width {width}, {rows} rows");
                t.sort_rows();
                assert_eq!(t, want, "width {width}, {rows} rows, already sorted");
            }
        }
    }

    #[test]
    fn in_place_retain_matches_the_copying_one() {
        let mut seed = 11;
        for width in 1..=4 {
            for rows in [0, 1, 2, 50] {
                let t = random_table(&mut seed, width, rows);
                type Keep = fn(&[Vid]) -> bool;
                let predicates: [Keep; 4] = [
                    |_| true,
                    |_| false,
                    |r| r[0] != UNBOUND,
                    |r| r.iter().map(|v| v.0 % 7).sum::<u64>() % 2 == 0,
                ];
                for (i, keep) in predicates.into_iter().enumerate() {
                    let mut got = t.clone();
                    got.retain(|r, ()| keep(r));
                    assert_eq!(got, retain_oracle(&t, keep), "width {width}, predicate {i}");
                }
            }
        }
    }

    #[test]
    fn push_bound2_replaces_two_slots() {
        let mut t = BindingTable::empty(3);
        t.push_bound2_tagged(&[UNBOUND, Vid(5), UNBOUND], (), (2, Vid(9)), (0, Vid(1)));
        assert_eq!(t.row(0), &[Vid(1), Vid(5), Vid(9)]);
    }

    #[test]
    fn tags_follow_their_rows() {
        // Death-tagged rows: retain, append and the untagged copy keep
        // each tag with its row.
        let mut t = BindingTable::<Timestamp>::seed_tagged(2);
        assert_eq!(t.tag(0), Timestamp::MAX);
        for i in 0..6 {
            t.push_bound_tagged(&[Vid(i), UNBOUND], 100 + i, 1, Vid(i * 10));
        }
        t.retain(|row, death| row[0] == UNBOUND || death % 2 == 0);
        assert_eq!(t.len(), 4);
        let deaths: Vec<Timestamp> = t.iter_tagged().map(|(_, d)| d).collect();
        assert_eq!(deaths, [Timestamp::MAX, 100, 102, 104]);
        assert_eq!(t.row(2), &[Vid(2), Vid(20)]);
        let mut u = BindingTable::<Timestamp>::empty_tagged(2);
        u.append(&t);
        assert_eq!(u, t);
        let plain = t.untagged();
        assert_eq!(plain.len(), 4);
        assert!(plain.iter().eq(t.iter()));
        assert_eq!(Timestamp::MAX.consume((Vid(3), 150)), (Vid(3), 150));
        assert_eq!(120u64.consume((Vid(3), 150)), (Vid(3), 120));
    }

    #[test]
    fn clear_keeps_the_width() {
        let mut t = BindingTable::seed(2);
        t.clear();
        assert!(t.is_empty());
        t.push_row(&[Vid(1), Vid(2)]);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn sort_rows_is_lexicographic_with_unbound_last() {
        let mut t = BindingTable::empty(2);
        t.push_row(&[Vid(2), Vid(1)]);
        t.push_row(&[UNBOUND, Vid(0)]);
        t.push_row(&[Vid(2), Vid(0)]);
        t.push_row(&[Vid(1), Vid(9)]);
        t.sort_rows();
        assert_eq!(t.row(0), &[Vid(1), Vid(9)]);
        assert_eq!(t.row(1), &[Vid(2), Vid(0)]);
        assert_eq!(t.row(2), &[Vid(2), Vid(1)]);
        assert_eq!(t.row(3), &[UNBOUND, Vid(0)]);
    }
}
