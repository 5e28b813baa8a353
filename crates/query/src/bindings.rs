//! Binding tables for graph exploration.
//!
//! Graph exploration carries a table of partial variable bindings from
//! step to step; each expansion step consumes one column and may bind
//! another. Rows are fixed-width (one slot per query variable) with an
//! explicit *unbound* sentinel, which keeps row handling branch-light and
//! lets the fork-join driver repartition rows cheaply.

use wukong_rdf::Vid;

/// Sentinel marking an unbound variable slot.
pub const UNBOUND: Vid = Vid(u64::MAX);

/// A table of partial bindings: `rows.len()` rows, each `width` slots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BindingTable {
    width: usize,
    rows: Vec<Vid>,
}

impl BindingTable {
    /// Creates a table with a single all-unbound seed row.
    pub fn seed(width: usize) -> Self {
        BindingTable {
            width: width.max(1),
            rows: vec![UNBOUND; width.max(1)],
        }
    }

    /// Creates an empty table (no rows) of the given width.
    pub fn empty(width: usize) -> Self {
        BindingTable {
            width: width.max(1),
            rows: Vec::new(),
        }
    }

    /// Wraps an already width-strided flat buffer as a table (one move,
    /// no per-row copying — the bulk-ingest twin of [`Self::push_row`]).
    ///
    /// # Panics
    ///
    /// Panics if `rows.len()` is not a multiple of the effective width.
    pub fn from_flat(width: usize, rows: Vec<Vid>) -> Self {
        let width = width.max(1);
        assert_eq!(rows.len() % width, 0, "flat buffer is not width-strided");
        BindingTable { width, rows }
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

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != width`.
    pub fn push_row(&mut self, row: &[Vid]) {
        assert_eq!(row.len(), self.width, "row width mismatch");
        self.rows.extend_from_slice(row);
    }

    /// Appends `base` with slot `var` replaced by `value`.
    pub fn push_bound(&mut self, base: &[Vid], var: u8, value: Vid) {
        let start = self.rows.len();
        self.rows.extend_from_slice(base);
        self.rows[start + var as usize] = value;
    }

    /// Appends `base` with two distinct slots replaced.
    pub fn push_bound2(&mut self, base: &[Vid], a: (u8, Vid), b: (u8, Vid)) {
        let start = self.rows.len();
        self.rows.extend_from_slice(base);
        self.rows[start + a.0 as usize] = a.1;
        self.rows[start + b.0 as usize] = b.1;
    }

    /// Drops every row, keeping the allocation — lets a caller reuse one
    /// table as the output of step after step.
    pub fn clear(&mut self) {
        self.rows.clear();
    }

    /// Retains only rows for which `keep` returns true, compacting in
    /// place.
    pub fn retain(&mut self, mut keep: impl FnMut(&[Vid]) -> bool) {
        let width = self.width;
        let mut kept = 0;
        for i in 0..self.len() {
            let at = i * width;
            if keep(&self.rows[at..at + width]) {
                if kept != at {
                    self.rows.copy_within(at..at + width, kept);
                }
                kept += width;
            }
        }
        self.rows.truncate(kept);
    }

    /// Iterates over rows.
    pub fn iter(&self) -> impl Iterator<Item = &[Vid]> + Clone {
        self.rows.chunks_exact(self.width)
    }

    /// Sorts rows lexicographically (unbound slots sort last — the
    /// sentinel is the maximum id). Execution strategies (in-place,
    /// fork-join, incremental delta maintenance) produce the same result
    /// *multiset* in different row orders; canonicalizing before
    /// projection makes row order, float-aggregation order, and
    /// `LIMIT` truncation identical across all of them.
    pub fn sort_rows(&mut self) {
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
        t.retain(|r| r[0].0 % 2 == 0);
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
                    got.retain(keep);
                    assert_eq!(got, retain_oracle(&t, keep), "width {width}, predicate {i}");
                }
            }
        }
    }

    #[test]
    fn push_bound2_replaces_two_slots() {
        let mut t = BindingTable::empty(3);
        t.push_bound2(&[UNBOUND, Vid(5), UNBOUND], (2, Vid(9)), (0, Vid(1)));
        assert_eq!(t.row(0), &[Vid(1), Vid(5), Vid(9)]);
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
