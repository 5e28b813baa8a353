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
        match src {
            GraphName::Stored => {
                // The stored graph never expires: tag 0 keeps stored
                // contributions permanently inside any window.
                self.cluster
                    .for_each_stored_slice(self.home, key, ctx.sn, timer, |seg| {
                        out.extend(seg.iter().map(|&v| (v, 0)))
                    });
            }
            GraphName::Stream(i) => {
                let (stream, lo, hi) = self.window(i, ctx);
                self.cluster
                    .stream_neighbors_timed(self.home, stream, key, lo, hi, timer, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use wukong_query::exec::WindowInstance;
    use wukong_rdf::{Dir, Pid, StreamId, StreamTuple, Triple};
    use wukong_store::SnapshotId;
    use wukong_store::StreamIndex;
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
        let (ib, _) = Injector.apply(cluster.shard(0), &mut store, &subs[0], 100, SnapshotId(1));
        stream.indexes[0].write().push_batch(ib);

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

        // The timed path sees the same edges, each tagged with its
        // contributing batch timestamp (stored edges tag 0: permanent).
        let mut timed = Vec::new();
        access.neighbors_timed(
            Key::new(Vid(1), Pid(4), Dir::Out),
            GraphName::Stream(0),
            &ctx,
            &mut timer,
            &mut timed,
        );
        assert_eq!(timed, vec![(Vid(3), 100)]);
        timed.clear();
        access.neighbors_timed(
            Key::new(Vid(1), Pid(2), Dir::Out),
            GraphName::Stored,
            &ctx,
            &mut timer,
            &mut timed,
        );
        assert_eq!(timed, vec![(Vid(2), 0)]);
    }

    /// [`NodeAccess`] minus its `count_occurrences` override: counting
    /// falls back to the trait's default, which materialises the list.
    struct DefaultCount<'a>(NodeAccess<'a>);

    impl GraphAccess for DefaultCount<'_> {
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
                let node = sub.node as usize;
                let (ib, _) = Injector.apply_split(
                    cluster.shard(sub.node),
                    &mut stream.transients[node].write(),
                    &mut StreamIndex::new(),
                    &sub,
                    ts,
                    SnapshotId(ts / 100),
                    None,
                );
                stream.indexes[node].write().push_batch(ib);
            }
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
            let default = DefaultCount(NodeAccess::new(&cluster, home));
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
    }
}
