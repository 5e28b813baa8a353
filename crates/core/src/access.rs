//! In-place execution's data access (§5, "Leveraging RDMA").
//!
//! [`NodeAccess`] implements [`GraphAccess`] for a query executing
//! entirely on its home node: local data is read directly, remote stored
//! data costs two one-sided reads (lookup + value), and remote streaming
//! data costs a single read thanks to the locally replicated stream index.

use crate::cluster::{Cluster, StreamState};
use std::sync::Arc;
use wukong_net::{NodeId, TaskTimer};
use wukong_query::exec::{ExecContext, GraphAccess, PatternSource, TimedGraphAccess};
use wukong_query::GraphName;
use wukong_rdf::{Key, Timestamp, Vid};
use wukong_store::SnapshotId;

/// Keys per chunk of a batched stored-graph read: several times the
/// lookups a core keeps in flight, few enough that a chunk's guards, cells
/// and lock order live in fixed arrays on the stack.
const LOOKUP_CHUNK: usize = 32;

/// Graph access for a task pinned to one node.
pub struct NodeAccess<'a> {
    cluster: &'a Cluster,
    home: NodeId,
    /// The cluster's stream table, taken once per query rather than once
    /// per lookup.
    streams: Arc<[Arc<StreamState>]>,
}

impl<'a> NodeAccess<'a> {
    /// Creates access for a task on `home`.
    pub fn new(cluster: &'a Cluster, home: NodeId) -> Self {
        NodeAccess {
            cluster,
            home,
            streams: cluster.streams(),
        }
    }

    /// The home node.
    pub fn home(&self) -> NodeId {
        self.home
    }

    /// The state and `[lo, hi]` of query-local stream `i`'s window.
    fn window(&self, i: usize, ctx: &ExecContext) -> (&StreamState, Timestamp, Timestamp) {
        let w = ctx.window(i);
        (&self.streams[w.stream.0 as usize], w.lo, w.hi)
    }

    /// The stored-graph read of [`GraphAccess::neighbors_batch`]:
    /// `visit(i, run)` sees the neighbours of `keys[i]`, key by key in
    /// slice order, and every key is charged exactly as its own
    /// [`Cluster::for_each_stored_slice`] would be, in the same order —
    /// rows, fabric counters and charged time cannot tell the two apart.
    ///
    /// What differs is when the memory is touched. A lookup is three
    /// dependent cache misses (hash group, bucket, values) fenced by its
    /// lock's atomic operations, so one-at-a-time reads never overlap.
    /// Here a chunk of [`LOOKUP_CHUNK`] keys takes each partition it
    /// touches once — ascending `(node, partition)`, the reader half of
    /// the lock order in [`PersistentShard::read_partition`] — then probes
    /// all its cells, then loads the first word of each cell's values (the
    /// cache line its read starts on), and only then visits: every stage
    /// is a run of independent loads the core can keep in flight together.
    ///
    /// Lives here rather than beside `for_each_stored_slice`: placed in
    /// `cluster.rs` it re-partitioned the crate's codegen units and the
    /// per-key window read — untouched source — came out 5–8 % slower on
    /// the L2–L4 probes (gone with `codegen-units = 1` on both sides).
    ///
    /// [`PersistentShard::read_partition`]: wukong_store::PersistentShard::read_partition
    fn stored_batch(
        &self,
        keys: &[Key],
        sn: SnapshotId,
        timer: &mut TaskTimer,
        visit: &mut dyn FnMut(usize, &[Vid]),
    ) {
        let cluster = self.cluster;
        for (c, chunk) in keys.chunks(LOOKUP_CHUNK).enumerate() {
            // Where each key lives, and the chunk's keys ordered by that.
            let mut place = [(0u16, 0usize); LOOKUP_CHUNK];
            for (at, &key) in place.iter_mut().zip(chunk) {
                let owner = cluster.owner(key).0;
                *at = (owner, cluster.shard(owner).partition_of(key));
            }
            let mut by_place: [usize; LOOKUP_CHUNK] = std::array::from_fn(|j| j);
            let by_place = &mut by_place[..chunk.len()];
            by_place.sort_unstable_by_key(|&j| place[j]);

            // One guard per distinct place, taken in ascending order;
            // `guard_of[j]` is the one over key `j`.
            let mut guards: [Option<_>; LOOKUP_CHUNK] = std::array::from_fn(|_| None);
            let mut guard_of = [0usize; LOOKUP_CHUNK];
            let mut taken = 0;
            for (i, &j) in by_place.iter().enumerate() {
                if i == 0 || place[by_place[i - 1]] != place[j] {
                    let (node, part) = place[j];
                    guards[taken] = Some(cluster.shard(node).read_partition(part));
                    taken += 1;
                }
                guard_of[j] = taken - 1;
            }

            let mut runs: [&[Vid]; LOOKUP_CHUNK] = [&[]; LOOKUP_CHUNK];
            for (j, &key) in chunk.iter().enumerate() {
                let store = guards[guard_of[j]].as_ref().expect("taken above");
                runs[j] = store.visible(key, sn);
            }
            let warmed = runs
                .iter()
                .fold(0, |w, run| w ^ run.first().map_or(0, |v| v.0));
            std::hint::black_box(warmed);

            for (j, run) in runs[..chunk.len()].iter().enumerate() {
                visit(c * LOOKUP_CHUNK + j, run);
                cluster.charge_stored_read(self.home, NodeId(place[j].0), run.len(), timer);
            }
        }
    }
}

impl GraphAccess for NodeAccess<'_> {
    fn neighbors(
        &self,
        key: Key,
        src: PatternSource,
        ctx: &ExecContext,
        timer: &mut TaskTimer,
        out: &mut Vec<Vid>,
    ) {
        match src {
            GraphName::Stored => {
                self.cluster
                    .stored_neighbors(self.home, key, ctx.sn, timer, out);
            }
            GraphName::Stream(i) => {
                let (stream, lo, hi) = self.window(i, ctx);
                self.cluster
                    .stream_neighbors(self.home, stream, key, lo, hi, timer, out);
            }
        }
    }

    /// Stored-graph keys are read chunk by chunk with their lookups
    /// overlapped; window reads go key by key, visited in place under the
    /// owner's locks instead of through a buffer.
    fn neighbors_batch(
        &self,
        keys: &[Key],
        src: PatternSource,
        ctx: &ExecContext,
        timer: &mut TaskTimer,
        visit: &mut dyn FnMut(usize, &[Vid]),
    ) {
        match src {
            GraphName::Stored => self.stored_batch(keys, ctx.sn, timer, visit),
            GraphName::Stream(i) => {
                let (stream, lo, hi) = self.window(i, ctx);
                for (k, &key) in keys.iter().enumerate() {
                    let visit = |_, run: &[Vid]| visit(k, run);
                    self.cluster
                        .for_each_stream_slice(self.home, stream, key, lo, hi, timer, visit);
                }
            }
        }
    }

    fn estimate(&self, key: Key, src: PatternSource, ctx: &ExecContext) -> usize {
        match src {
            GraphName::Stored => self.cluster.stored_len(key, ctx.sn),
            GraphName::Stream(i) => {
                let (stream, lo, hi) = self.window(i, ctx);
                self.cluster.stream_len(stream, key, lo, hi)
            }
        }
    }

    /// Counts under the owner's lock instead of materialising the list:
    /// same reads, same charges, no buffer.
    fn count_occurrences(
        &self,
        key: Key,
        v: Vid,
        src: PatternSource,
        ctx: &ExecContext,
        timer: &mut TaskTimer,
    ) -> usize {
        let mut n = 0;
        let mut count = |run: &[Vid]| n += run.iter().filter(|&&x| x == v).count();
        match src {
            GraphName::Stored => {
                self.cluster
                    .for_each_stored_slice(self.home, key, ctx.sn, timer, count);
            }
            GraphName::Stream(i) => {
                let (stream, lo, hi) = self.window(i, ctx);
                self.cluster.for_each_stream_slice(
                    self.home,
                    stream,
                    key,
                    lo,
                    hi,
                    timer,
                    |_, run| count(run),
                );
            }
        }
        n
    }
}

impl TimedGraphAccess for NodeAccess<'_> {
    fn neighbors_timed(
        &self,
        key: Key,
        src: PatternSource,
        ctx: &ExecContext,
        timer: &mut TaskTimer,
        out: &mut Vec<(Vid, Timestamp)>,
    ) {
        let GraphName::Stream(i) = src else {
            unreachable!("timed reads are stream-only (TimedGraphAccess)");
        };
        let (stream, lo, hi) = self.window(i, ctx);
        self.cluster
            .stream_neighbors_timed(self.home, stream, key, lo, hi, timer, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use wukong_query::exec::WindowInstance;
    use wukong_rdf::{Dir, Pid, StreamId, StreamTuple, Triple};
    use wukong_store::SnapshotId;
    use wukong_stream::{dispatch, Batch, Injector, NodeStreamStore, StreamSchema};

    #[test]
    fn stream_and_stored_access_compose() {
        let cluster = Cluster::new(&EngineConfig::single_node());
        // Stored: 1-fo-2. Stream: 1-po-3 at ts 80 (batch 100).
        cluster.load_base_triple(Triple::new(Vid(1), Pid(2), Vid(2)));
        let sidx = cluster.add_stream(StreamSchema::timeless(StreamId(0), "S", 100));
        let stream = cluster.stream(sidx);

        let batch = Batch::sealed(
            StreamId(0),
            100,
            vec![StreamTuple::timeless(
                Triple::new(Vid(1), Pid(4), Vid(3)),
                80,
            )],
            0,
        );
        let subs = dispatch(&batch, cluster.shard_map());
        let mut store = NodeStreamStore::new(1 << 20);
        Injector.apply(cluster.shard(0), &mut store, &subs[0], 100, SnapshotId(1));
        *stream.indexes[0].write() = store.index;

        let access = NodeAccess::new(&cluster, NodeId(0));
        let ctx = ExecContext {
            sn: SnapshotId(1),
            windows: vec![WindowInstance {
                stream: StreamId(0),
                lo: 1,
                hi: 100,
            }],
        };
        let mut timer = TaskTimer::start();
        let mut out = Vec::new();
        access.neighbors(
            Key::new(Vid(1), Pid(4), Dir::Out),
            GraphName::Stream(0),
            &ctx,
            &mut timer,
            &mut out,
        );
        assert_eq!(out, vec![Vid(3)]);
        out.clear();
        access.neighbors(
            Key::new(Vid(1), Pid(2), Dir::Out),
            GraphName::Stored,
            &ctx,
            &mut timer,
            &mut out,
        );
        assert_eq!(out, vec![Vid(2)]);
        assert_eq!(
            access.estimate(
                Key::new(Vid(1), Pid(4), Dir::Out),
                GraphName::Stream(0),
                &ctx
            ),
            1
        );

        // The timed path sees the same stream edges, each tagged with its
        // contributing batch timestamp.
        let mut timed = Vec::new();
        access.neighbors_timed(
            Key::new(Vid(1), Pid(4), Dir::Out),
            GraphName::Stream(0),
            &ctx,
            &mut timer,
            &mut timed,
        );
        assert_eq!(timed, vec![(Vid(3), 100)]);
    }

    /// [`NodeAccess`] minus its overrides: counting falls back to the
    /// trait's default, which materialises the list, and a batch of keys
    /// to one `neighbors` call per key.
    struct Defaults<'a>(NodeAccess<'a>);

    impl GraphAccess for Defaults<'_> {
        fn neighbors(
            &self,
            key: Key,
            src: PatternSource,
            ctx: &ExecContext,
            timer: &mut TaskTimer,
            out: &mut Vec<Vid>,
        ) {
            self.0.neighbors(key, src, ctx, timer, out)
        }

        fn estimate(&self, key: Key, src: PatternSource, ctx: &ExecContext) -> usize {
            self.0.estimate(key, src, ctx)
        }
    }

    /// One `neighbors_batch` call: the `(key index, neighbour)` rows in
    /// visit order, the fabric operations it caused and the ns it charged.
    fn read_batch(
        cluster: &Cluster,
        access: &dyn GraphAccess,
        keys: &[Key],
        src: PatternSource,
        ctx: &ExecContext,
    ) -> (Vec<(usize, Vid)>, wukong_net::MetricsSnapshot, u64) {
        let before = cluster.fabric().metrics();
        let mut timer = TaskTimer::start();
        let mut rows = Vec::new();
        access.neighbors_batch(keys, src, ctx, &mut timer, &mut |i, run| {
            rows.extend(run.iter().map(|&v| (i, v)))
        });
        let ops = before.delta(&cluster.fabric().metrics());
        (rows, ops, timer.charged_ns())
    }

    #[test]
    fn counting_under_the_lock_matches_the_default_and_its_charges() {
        // Two nodes, so half the keys are remote and every read charges
        // the fabric; duplicated edges in the stored graph, the stream's
        // timeless part and its timing part.
        let cluster = Cluster::new(&EngineConfig {
            nodes: 2,
            ..EngineConfig::single_node()
        });
        for (s, o) in [(1, 2), (1, 2), (1, 3), (2, 3), (3, 1), (3, 1), (3, 1)] {
            cluster.load_base_triple(Triple::new(Vid(s), Pid(2), Vid(o)));
        }
        let mut schema = StreamSchema::timeless(StreamId(0), "S", 100);
        schema.timing_predicates.insert(Pid(5));
        let sidx = cluster.add_stream(schema);
        let stream = cluster.stream(sidx);
        let mut stores: Vec<NodeStreamStore> =
            (0..2).map(|_| NodeStreamStore::new(1 << 20)).collect();
        for ts in [100u64, 200, 300] {
            let mut tuples = Vec::new();
            for (s, o) in [(1, 7), (1, 7), (2, 7), (3, 8)] {
                tuples.push(StreamTuple::timeless(
                    Triple::new(Vid(s), Pid(4), Vid(o)),
                    ts - 1,
                ));
                tuples.push(StreamTuple::timing(
                    Triple::new(Vid(s), Pid(5), Vid(o)),
                    ts - 1,
                ));
            }
            let batch = Batch::sealed(StreamId(0), ts, tuples, 0);
            for sub in dispatch(&batch, cluster.shard_map()) {
                let store = &mut stores[sub.node as usize];
                let sn = SnapshotId(ts / 100);
                Injector.apply(cluster.shard(sub.node), store, &sub, ts, sn);
            }
        }
        for (node, store) in stores.into_iter().enumerate() {
            *stream.transients[node].write() = store.transient;
            *stream.indexes[node].write() = store.index;
        }

        let ctx = ExecContext {
            sn: SnapshotId(3),
            windows: vec![WindowInstance {
                stream: StreamId(0),
                lo: 101,
                hi: 300,
            }],
        };
        let mut nonzero = 0;
        for home in [NodeId(0), NodeId(1)] {
            let lean = NodeAccess::new(&cluster, home);
            let default = Defaults(NodeAccess::new(&cluster, home));
            for (pid, src) in [
                (2, GraphName::Stored),
                (4, GraphName::Stream(0)),
                (5, GraphName::Stream(0)),
            ] {
                for v in 1..=4 {
                    for dir in [Dir::Out, Dir::In] {
                        let key = Key::new(Vid(v), Pid(pid), dir);
                        for needle in [1, 2, 3, 7, 8, 9] {
                            let before = cluster.fabric().metrics();
                            let mut t1 = TaskTimer::start();
                            let got = lean.count_occurrences(key, Vid(needle), src, &ctx, &mut t1);
                            let mid = cluster.fabric().metrics();
                            let mut t2 = TaskTimer::start();
                            let want =
                                default.count_occurrences(key, Vid(needle), src, &ctx, &mut t2);
                            let after = cluster.fabric().metrics();
                            assert_eq!(got, want, "{key:?} contains {needle} from {home:?}");
                            assert_eq!(t1.charged_ns(), t2.charged_ns(), "{key:?} charges");
                            assert_eq!(before.delta(&mid), mid.delta(&after), "{key:?} reads");
                            nonzero += usize::from(got > 0);
                        }
                    }
                }
            }
        }
        assert!(nonzero > 20, "the probes must hit present edges");

        // A batch of keys over each source — window reads included — reads
        // like one default `neighbors` call per key.
        for home in [NodeId(0), NodeId(1)] {
            let lean = NodeAccess::new(&cluster, home);
            let default = Defaults(NodeAccess::new(&cluster, home));
            for (pid, src) in [
                (2, GraphName::Stored),
                (4, GraphName::Stream(0)),
                (5, GraphName::Stream(0)),
            ] {
                let keys: Vec<Key> = (0..70)
                    .map(|i| {
                        let dir = if i % 3 == 0 { Dir::In } else { Dir::Out };
                        Key::new(Vid(i % 5 + 1), Pid(pid), dir)
                    })
                    .collect();
                let got = read_batch(&cluster, &lean, &keys, src, &ctx);
                let want = read_batch(&cluster, &default, &keys, src, &ctx);
                assert_eq!(got, want, "predicate {pid} from {home:?}");
                assert!(got.0.len() > 70 && got.1.one_sided_reads > 0);
            }
        }
    }

    #[test]
    fn batched_stored_reads_match_per_key_reads_and_their_charges() {
        // Vertices 1..=60 with uneven degrees and duplicate edges in the
        // initial data, then three snapshots of appends, so a read at
        // snapshot 2 crosses retained marks and stops below the newest
        // one. Vertices above 60 have no cell at all.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        let mut next = move |n: u64| rng.gen_range(0..n);
        for nodes in [1usize, 2] {
            let cluster = Cluster::new(&EngineConfig {
                nodes,
                ..EngineConfig::single_node()
            });
            for _ in 0..400 {
                let t = Triple::new(Vid(next(60) + 1), Pid(2), Vid(next(60) + 1));
                cluster.load_base_triple(t);
            }
            for sn in 1..=3u64 {
                for _ in 0..150 {
                    let t = Triple::new(Vid(next(60) + 1), Pid(2), Vid(next(60) + 1));
                    for (key, v) in [(t.out_key(), t.o), (t.in_key(), t.s)] {
                        let owner = cluster.owner(key);
                        cluster
                            .shard(owner.0)
                            .append_owned(key, v, SnapshotId(sn), None);
                    }
                }
            }
            let ctx = ExecContext::stored(SnapshotId(2));
            let (mut hits, mut partial) = (0, 0);
            for home in (0..nodes).map(|n| NodeId(n as u16)) {
                let batched = NodeAccess::new(&cluster, home);
                let per_key = Defaults(NodeAccess::new(&cluster, home));
                for size in [0usize, 1, 31, 32, 33, 1_000] {
                    // Present, missing and repeated keys, both directions.
                    let keys: Vec<Key> = (0..size)
                        .map(|_| {
                            let dir = if next(2) == 0 { Dir::Out } else { Dir::In };
                            Key::new(Vid(next(80) + 1), Pid(2), dir)
                        })
                        .collect();
                    let got = read_batch(&cluster, &batched, &keys, GraphName::Stored, &ctx);
                    let want = read_batch(&cluster, &per_key, &keys, GraphName::Stored, &ctx);
                    assert_eq!(got, want, "{size} keys from {home:?} of {nodes}");
                    assert!(got.0.windows(2).all(|w| w[0].0 <= w[1].0), "key order");
                    hits += got.0.len();
                    if nodes > 1 && size > 0 {
                        assert!(got.1.one_sided_reads > 0, "remote keys are charged");
                    }
                    // The newest snapshot stays invisible at snapshot 2.
                    partial += keys
                        .iter()
                        .filter(|&&k| {
                            let all = cluster.stored_len(k, SnapshotId(3));
                            cluster.stored_len(k, SnapshotId(2)) < all
                        })
                        .count();
                }
            }
            assert!(
                hits > 1_000 && partial > 100,
                "{hits} rows, {partial} cut reads"
            );
        }
    }
}
