//! Execution-time abstractions: data access and literal resolution.
//!
//! The executor is written against [`GraphAccess`], so identical plans run
//! over a single-node store, the distributed Wukong+S engine (which adds
//! RDMA charges and the stream-index fast path), and the baselines.

use crate::ast::GraphName;
use crate::bindings::RowTag;
use wukong_net::TaskTimer;
use wukong_rdf::{Key, KeyMap, StreamId, Timestamp, Vid};
use wukong_store::SnapshotId;

/// A resolved window over one of the query's streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowInstance {
    /// The engine-wide stream identifier.
    pub stream: StreamId,
    /// Window start (inclusive).
    pub lo: Timestamp,
    /// Window end (inclusive).
    pub hi: Timestamp,
}

/// Everything one execution of a query needs besides the plan: the stable
/// snapshot for stored-graph reads and the concrete window of each stream
/// (indexed like [`crate::ast::Query::streams`]).
#[derive(Debug, Clone)]
pub struct ExecContext {
    /// Stable snapshot number for stored-graph patterns (§4.3).
    pub sn: SnapshotId,
    /// Per-stream window instances.
    pub windows: Vec<WindowInstance>,
}

impl ExecContext {
    /// A context for purely stored-graph (one-shot) queries.
    pub fn stored(sn: SnapshotId) -> Self {
        ExecContext {
            sn,
            windows: Vec::new(),
        }
    }

    /// The window instance for a query-local stream index.
    pub fn window(&self, stream_idx: usize) -> WindowInstance {
        self.windows[stream_idx]
    }
}

/// Data-source reference carried by plan steps (mirrors
/// [`GraphName`] but named for its execution role).
pub type PatternSource = GraphName;

/// Read access to streaming and stored graph data.
///
/// Implementations decide *where* the data lives (local shard, remote
/// shard via one-sided read, stream index replica) and charge `timer`
/// accordingly; the executor only reasons about keys and windows.
pub trait GraphAccess {
    /// Appends the neighbours of `key` in `src` to `out`.
    ///
    /// For [`GraphName::Stored`], visibility is `ctx.sn`. For
    /// [`GraphName::Stream`], the result is the union of the stream's
    /// timeless data (via the stream index) and timing data (via the
    /// transient store) within the window.
    fn neighbors(
        &self,
        key: Key,
        src: PatternSource,
        ctx: &ExecContext,
        timer: &mut TaskTimer,
        out: &mut Vec<Vid>,
    );

    /// Reads the neighbours of every key of `keys` in `src`, handing them
    /// to `visit(i, run)` for `keys[i]`: key by key in slice order, each
    /// key's neighbours in [`GraphAccess::neighbors`] order, split into
    /// any number of runs (none for a key without neighbours).
    ///
    /// Same reads and same charges, in the same order, as calling
    /// [`GraphAccess::neighbors`] per key — which is the default.
    /// Implementations that know where the keys live may overlap the
    /// lookups' memory latency; the executor calls this for expansions of
    /// at least [`crate::executor::BATCH_MIN_ANCHORS`] anchors.
    fn neighbors_batch(
        &self,
        keys: &[Key],
        src: PatternSource,
        ctx: &ExecContext,
        timer: &mut TaskTimer,
        visit: &mut dyn FnMut(usize, &[Vid]),
    ) {
        let mut buf = Vec::new();
        for (i, &key) in keys.iter().enumerate() {
            buf.clear();
            self.neighbors(key, src, ctx, timer, &mut buf);
            visit(i, &buf);
        }
    }

    /// Estimated neighbour count of `key` in `src` (planner oracle).
    fn estimate(&self, key: Key, src: PatternSource, ctx: &ExecContext) -> usize;

    /// How many times `key`'s neighbour list in `src` contains `v`.
    ///
    /// Occurrence counts give SPARQL bag semantics: a duplicated edge
    /// multiplies result rows the same way regardless of the plan's join
    /// order. The default scans [`GraphAccess::neighbors`]; engines may
    /// override with an indexed test.
    fn count_occurrences(
        &self,
        key: Key,
        v: Vid,
        src: PatternSource,
        ctx: &ExecContext,
        timer: &mut TaskTimer,
    ) -> usize {
        let mut buf = Vec::new();
        self.neighbors(key, src, ctx, timer, &mut buf);
        buf.iter().filter(|&&x| x == v).count()
    }
}

/// [`GraphAccess`] that can also report *when* each stream edge arrived.
///
/// Delta maintenance tags every binding row with its death, folded from
/// the batch timestamps of its contributing edges, so that a later firing
/// can retract exactly the rows whose edges slid out of the window. The
/// one step kernel reads these through [`EdgeReads`] for death-tagged
/// rows. Implementations return one `(neighbour, timestamp)` pair per
/// edge *occurrence* — duplicated edges appear once per occurrence, which
/// is what preserves SPARQL bag semantics under delta maintenance.
///
/// Stream sources only: a stored edge has no arrival time, so no
/// timestamp could retract it correctly, and
/// [`crate::incremental::incrementalizable`] keeps stored-graph patterns
/// off the maintained path. Implementations may panic on
/// [`GraphName::Stored`].
pub trait TimedGraphAccess: GraphAccess {
    /// Appends `(neighbour, batch timestamp)` pairs of `key` in stream
    /// source `src`.
    fn neighbors_timed(
        &self,
        key: Key,
        src: PatternSource,
        ctx: &ExecContext,
        timer: &mut TaskTimer,
        out: &mut Vec<(Vid, Timestamp)>,
    );
}

/// How a step reads the edges its rows consume, for rows tagged `T`: what
/// [`crate::executor::execute_step_into`] reads through.
///
/// Untagged rows (recompute, fork-join) keep the plain [`GraphAccess`]
/// reads: a contains-check counts occurrences, an expansion reads one
/// neighbour list, a wide expansion one batch. Death-tagged rows (delta
/// maintenance) read every edge with its expiry through a [`ScanMemo`].
pub trait EdgeReads<T: RowTag>: GraphAccess {
    /// Calls `each` for every edge of `key` in `src` — only those to `to`
    /// when it is given — in [`GraphAccess::neighbors`] order.
    #[allow(clippy::too_many_arguments)]
    fn edges(
        &self,
        key: Key,
        to: Option<Vid>,
        src: PatternSource,
        ctx: &ExecContext,
        timer: &mut TaskTimer,
        reads: &mut T::Reads,
        each: impl FnMut(T::Edge),
    );

    /// [`GraphAccess::neighbors_batch`]: `visit(i, run)` for `keys[i]`,
    /// key by key in slice order.
    fn edges_batch(
        &self,
        keys: &[Key],
        src: PatternSource,
        ctx: &ExecContext,
        timer: &mut TaskTimer,
        reads: &mut T::Reads,
        visit: &mut dyn FnMut(usize, &[T::Edge]),
    );
}

impl<A: GraphAccess> EdgeReads<()> for A {
    #[inline]
    fn edges(
        &self,
        key: Key,
        to: Option<Vid>,
        src: PatternSource,
        ctx: &ExecContext,
        timer: &mut TaskTimer,
        buf: &mut Vec<Vid>,
        mut each: impl FnMut(Vid),
    ) {
        match to {
            Some(v) => (0..self.count_occurrences(key, v, src, ctx, timer)).for_each(|_| each(v)),
            None => {
                buf.clear();
                self.neighbors(key, src, ctx, timer, buf);
                buf.iter().for_each(|&n| each(n));
            }
        }
    }

    #[inline]
    fn edges_batch(
        &self,
        keys: &[Key],
        src: PatternSource,
        ctx: &ExecContext,
        timer: &mut TaskTimer,
        _: &mut Vec<Vid>,
        visit: &mut dyn FnMut(usize, &[Vid]),
    ) {
        self.neighbors_batch(keys, src, ctx, timer, visit)
    }
}

/// The death-tagged reads of one step: each key's edges, read once
/// through [`TimedGraphAccess::neighbors_timed`] and kept with their
/// expiry, `ts + RANGE` of the step's stream — the first window end that
/// no longer holds the edge.
///
/// Join fan-in makes many input rows share one anchor vertex, and the
/// slice is fixed for a whole step, so same-key scans repeat verbatim.
/// Fixed per-scan costs — lock acquisition, batch-list bisection, remote
/// read charging — dominate small delta slices, so the memo turns
/// per-*row* scan pricing into per-*key* pricing. The immutable firing
/// snapshot is what makes replaying a cached result sound; bag
/// multiplicities are preserved because results are replayed per input
/// row, never deduplicated. Valid for one step only: the maintained path
/// restarts it with the next step's RANGE before each step.
#[derive(Debug, Default)]
pub struct ScanMemo {
    range: Timestamp,
    map: KeyMap<(usize, usize)>,
    arena: Vec<(Vid, Timestamp)>,
}

impl ScanMemo {
    /// Forgets the previous step's reads; the next step's stream has RANGE
    /// `range`.
    pub(crate) fn start(&mut self, range: Timestamp) {
        self.range = range;
        self.map.clear();
        self.arena.clear();
    }

    fn scan(
        &mut self,
        key: Key,
        src: PatternSource,
        ctx: &ExecContext,
        access: &impl TimedGraphAccess,
        timer: &mut TaskTimer,
    ) -> &[(Vid, Timestamp)] {
        let (s, e) = match self.map.get(&key) {
            Some(&run) => run,
            None => {
                let s = self.arena.len();
                access.neighbors_timed(key, src, ctx, timer, &mut self.arena);
                let range = self.range;
                self.arena[s..]
                    .iter_mut()
                    .for_each(|(_, ts)| *ts = ts.saturating_add(range));
                self.map.insert(key, (s, self.arena.len()));
                (s, self.arena.len())
            }
        };
        &self.arena[s..e]
    }
}

impl<A: TimedGraphAccess> EdgeReads<Timestamp> for A {
    fn edges(
        &self,
        key: Key,
        to: Option<Vid>,
        src: PatternSource,
        ctx: &ExecContext,
        timer: &mut TaskTimer,
        memo: &mut ScanMemo,
        mut each: impl FnMut((Vid, Timestamp)),
    ) {
        let run = memo.scan(key, src, ctx, self, timer).iter();
        run.filter(|e| to.is_none_or(|v| e.0 == v))
            .for_each(|&e| each(e));
    }

    fn edges_batch(
        &self,
        keys: &[Key],
        src: PatternSource,
        ctx: &ExecContext,
        timer: &mut TaskTimer,
        memo: &mut ScanMemo,
        visit: &mut dyn FnMut(usize, &[(Vid, Timestamp)]),
    ) {
        for (i, &key) in keys.iter().enumerate() {
            visit(i, memo.scan(key, src, ctx, self, timer));
        }
    }
}

/// Resolves entity IDs to numeric literal values for `FILTER` and
/// numeric aggregates.
pub trait LiteralResolver {
    /// The numeric value of `v`, if it denotes one.
    fn numeric(&self, v: Vid) -> Option<f64>;

    /// The display name of `v` (drives `ORDER BY`'s lexical comparison).
    fn display(&self, _v: Vid) -> Option<String> {
        None
    }
}

/// A resolver backed by the string server: an entity is numeric when its
/// name parses as a number (the workload generators intern sensor
/// readings by their decimal text).
pub struct StringLiteralResolver<'a>(pub &'a wukong_rdf::StringServer);

impl LiteralResolver for StringLiteralResolver<'_> {
    fn numeric(&self, v: Vid) -> Option<f64> {
        self.0.entity_name(v).ok()?.parse().ok()
    }

    fn display(&self, v: Vid) -> Option<String> {
        self.0.entity_name(v).ok()
    }
}

/// A resolver for tests and engines without string data: no entity is
/// numeric.
pub struct NoLiterals;

impl LiteralResolver for NoLiterals {
    fn numeric(&self, _v: Vid) -> Option<f64> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_literal_resolver_parses_numbers() {
        let ss = wukong_rdf::StringServer::new();
        let n = ss.intern_entity("12.5").unwrap();
        let e = ss.intern_entity("Logan").unwrap();
        let r = StringLiteralResolver(&ss);
        assert_eq!(r.numeric(n), Some(12.5));
        assert_eq!(r.numeric(e), None);
        assert_eq!(r.numeric(Vid(999_999)), None);
    }
}
