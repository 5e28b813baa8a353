//! The cluster: store shards, per-stream state, and the fabric.
//!
//! One [`Cluster`] models the whole deployment inside one process. Each
//! node owns a [`PersistentShard`]; each registered stream owns, per node,
//! a transient ring (timing data lives with the owner of its keys) and a
//! stream index keyed by *origin* node.
//!
//! A note on replication: because every simulated node shares the process
//! address space, stream-index replicas are not physically copied — one
//! canonical index per `(stream, origin)` pair serves all readers. What
//! locality-aware partitioning (§4.2) actually changes is *cost*: with
//! replication on, injection charges one fabric message per subscriber and
//! queries read the index locally (one RDMA read for remote values); with
//! it off, queries on non-owner nodes charge the extra index read the
//! paper describes ("the partitioned stream index would incur an
//! additional RDMA read"). Memory accounting multiplies index bytes by the
//! replica count, so Table 7 reflects real replication cost.

use crate::config::EngineConfig;
use parking_lot::RwLock;
use std::collections::HashSet;
use std::sync::Arc;
use wukong_net::{Fabric, NodeId, TaskTimer, WorkerPool};
use wukong_rdf::{Key, StringServer, Timestamp, Triple, Vid};
use wukong_store::{
    key_updates, PersistentShard, ShardMap, SnapshotId, StreamIndex, TransientStore,
};
use wukong_stream::StreamSchema;

/// Per-stream cluster state.
///
/// The per-node vectors are guarded by per-node locks, so parallel
/// ingest tasks — each confined to one node by its owner filter — never
/// contend on (or even share) a lock: task `m` writes only
/// `transients[m]` and `indexes[m]`.
pub struct StreamState {
    /// The stream's schema (batch interval, timing predicates, …).
    pub schema: StreamSchema,
    /// Timing data per owner node.
    pub transients: Vec<RwLock<TransientStore>>,
    /// Stream index per *origin* node: `indexes[m]` holds the entries for
    /// appends that happened on node `m`'s shard.
    pub indexes: Vec<RwLock<StreamIndex>>,
    /// Nodes that registered continuous queries over this stream —
    /// replication targets under locality-aware partitioning.
    pub subscribers: RwLock<HashSet<u16>>,
    /// Raw stream bytes received so far (Table 7 accounting).
    pub raw_bytes: RwLock<u64>,
}

impl StreamState {
    fn new(schema: StreamSchema, nodes: usize, transient_budget: usize) -> Self {
        StreamState {
            schema,
            transients: (0..nodes)
                .map(|_| RwLock::new(TransientStore::new(transient_budget)))
                .collect(),
            indexes: (0..nodes)
                .map(|_| RwLock::new(StreamIndex::new()))
                .collect(),
            subscribers: RwLock::new(HashSet::new()),
            raw_bytes: RwLock::new(0),
        }
    }

    /// Heap bytes of one copy of this stream's index (all origins).
    pub fn index_bytes(&self) -> usize {
        self.indexes.iter().map(|i| i.read().heap_bytes()).sum()
    }

    /// Heap bytes of the timing rings across nodes.
    pub fn transient_bytes(&self) -> usize {
        self.transients.iter().map(|t| t.read().used_bytes()).sum()
    }
}

/// All shared state of a Wukong+S deployment.
pub struct Cluster {
    shards: Vec<PersistentShard>,
    shard_map: ShardMap,
    fabric: Fabric,
    strings: Arc<StringServer>,
    /// Registered streams, republished as a fresh slice on every
    /// registration so a query takes the whole table with one lock and
    /// one reference-count bump ([`Cluster::streams`]).
    streams: RwLock<Arc<[Arc<StreamState>]>>,
    transient_budget: usize,
    /// Whether stream indexes replicate to subscriber nodes (§4.2).
    pub replicate_indexes: bool,
    obs: Arc<wukong_obs::Registry>,
    /// One worker pool per node (query firings, fork-join partitions,
    /// ingest application). All pools record into the registry's shared
    /// pool counters.
    pools: Vec<WorkerPool>,
}

/// A cheap, cloneable handle onto a deployment's shared observability
/// surfaces: the staged-latency [`Registry`](wukong_obs::Registry) and
/// the fabric operation counters. Benchmarks hold one of these across an
/// experiment and diff snapshots around the measured interval.
#[derive(Clone)]
pub struct ClusterHandle {
    cluster: Arc<Cluster>,
}

impl ClusterHandle {
    /// Wraps a shared cluster.
    pub fn new(cluster: Arc<Cluster>) -> Self {
        ClusterHandle { cluster }
    }

    /// The staged-latency registry.
    pub fn obs(&self) -> &Arc<wukong_obs::Registry> {
        self.cluster.obs()
    }

    /// Point-in-time copy of every stage/latency series.
    pub fn obs_snapshot(&self) -> wukong_obs::RegistrySnapshot {
        self.cluster.obs().snapshot()
    }

    /// Point-in-time copy of the fabric operation counters.
    pub fn fabric_metrics(&self) -> wukong_net::MetricsSnapshot {
        self.cluster.fabric().metrics()
    }

    /// Point-in-time copy of the fault/recovery counters.
    pub fn fault_counters(&self) -> wukong_obs::FaultSnapshot {
        self.cluster.obs().faults().snapshot()
    }

    /// The always-on flight recorder (causal span events, black-box
    /// dumps). Benchmarks snapshot it after a run to serialise traces.
    pub fn trace(&self) -> &Arc<wukong_obs::TraceRecorder> {
        self.cluster.obs().trace()
    }

    /// Point-in-time copy of the flight recorder: merged events, firing
    /// lineage metadata, and any anomaly dumps captured so far.
    pub fn trace_snapshot(&self) -> wukong_obs::TraceSnapshot {
        self.cluster.obs().trace().snapshot()
    }
}

impl Cluster {
    /// Builds the cluster for `config`.
    pub fn new(config: &EngineConfig) -> Self {
        Self::new_with_strings(config, Arc::new(StringServer::new()))
    }

    /// Builds the cluster sharing an existing string server (recovery: the
    /// ID mapping is part of the reloaded initial data, §4.1).
    ///
    /// # Panics
    ///
    /// Panics if `config.nodes` is zero or does not fit the 16-bit node
    /// IDs of the shard map, if `config.partitions_per_shard` is zero, or
    /// if `config.gc_every_batches` is zero (a GC that never runs).
    pub fn new_with_strings(config: &EngineConfig, strings: Arc<StringServer>) -> Self {
        let node_count = u16::try_from(config.nodes)
            .expect("EngineConfig::nodes must fit the shard map's 16-bit node IDs (≤ 65535)");
        assert!(
            config.gc_every_batches > 0,
            "EngineConfig::gc_every_batches must be at least 1 (0 would never collect)"
        );
        let obs = Arc::new(wukong_obs::Registry::new());
        let mut fabric = Fabric::new(config.nodes, config.network);
        if let Some(plan) = &config.fault_plan {
            fabric.install_faults(plan.clone(), Arc::clone(obs.faults()));
        }
        let pools = (0..config.nodes)
            .map(|_| WorkerPool::new(config.worker_threads, Arc::clone(obs.pool())))
            .collect();
        Cluster {
            shards: (0..config.nodes)
                .map(|_| PersistentShard::new(config.partitions_per_shard))
                .collect(),
            shard_map: ShardMap::new(node_count),
            fabric,
            strings,
            streams: RwLock::new(Arc::from([])),
            transient_budget: config.transient_budget_bytes,
            replicate_indexes: config.replicate_stream_indexes,
            obs,
            pools,
        }
    }

    /// The observability registry (staged latency histograms).
    pub fn obs(&self) -> &Arc<wukong_obs::Registry> {
        &self.obs
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.shards.len()
    }

    /// The shared string server.
    pub fn strings(&self) -> &Arc<StringServer> {
        &self.strings
    }

    /// The vertex → node shard map.
    pub fn shard_map(&self) -> &ShardMap {
        &self.shard_map
    }

    /// The fabric (for metrics and cost charging).
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// A node's shard.
    pub fn shard(&self, node: u16) -> &PersistentShard {
        &self.shards[node as usize]
    }

    /// A node's worker pool.
    pub fn pool(&self, node: NodeId) -> &WorkerPool {
        &self.pools[node.idx()]
    }

    /// The owner node of `key`.
    pub fn owner(&self, key: Key) -> NodeId {
        NodeId(self.shard_map.node_of_key(key))
    }

    /// Loads one triple of the initial dataset, routing each of its key
    /// updates to the owning node's shard (no key is stored twice). Each
    /// data key's index-vertex update lands right behind it, triple by
    /// triple, so index lists keep the triples' order on any node count.
    pub fn load_base_triple(&self, t: Triple) {
        let sn = SnapshotId::BASE;
        for u in key_updates(t) {
            let shard = &self.shards[self.shard_map.node_of_key(u.key) as usize];
            if u.counts_triple() {
                shard.count_triple();
            }
            let (_, first) = shard.append_owned(u.key, u.neighbor, sn, None);
            if first {
                let owner = &self.shards[self.shard_map.node_of_key(u.index) as usize];
                owner.append_owned(u.index, u.index_neighbor, sn, None);
            }
        }
    }

    /// Registers a stream, returning its cluster-wide index.
    pub fn add_stream(&self, schema: StreamSchema) -> usize {
        let mut streams = self.streams.write();
        let idx = streams.len();
        let state = Arc::new(StreamState::new(
            schema,
            self.nodes(),
            self.transient_budget,
        ));
        *streams = streams.iter().cloned().chain([state]).collect();
        idx
    }

    /// The state of stream `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is not a registered stream.
    pub fn stream(&self, idx: usize) -> Arc<StreamState> {
        Arc::clone(&self.streams.read()[idx])
    }

    /// Number of registered streams.
    pub(crate) fn stream_count(&self) -> usize {
        self.streams.read().len()
    }

    /// Snapshot of all stream states, indexed like [`Cluster::stream`].
    pub fn streams(&self) -> Arc<[Arc<StreamState>]> {
        Arc::clone(&self.streams.read())
    }

    /// Shows `visit` the stored-graph neighbours of `key` at `sn` for a
    /// task on `home` — one slice, the key's value up to `sn` — charging
    /// remote access as two one-sided reads (key lookup + value read, §5).
    ///
    /// The owner partition's read lock is taken and the key's cell looked
    /// up once; `visit` runs under that lock.
    pub(crate) fn for_each_stored_slice(
        &self,
        home: NodeId,
        key: Key,
        sn: SnapshotId,
        timer: &mut TaskTimer,
        visit: impl FnOnce(&[Vid]),
    ) {
        let owner = self.owner(key);
        let read = self.shards[owner.idx()].with_cell(key, |cell| {
            let seen = cell.map_or(&[][..], |c| c.visible(sn));
            visit(seen);
            seen.len()
        });
        self.charge_stored_read(home, owner, read, timer);
    }

    /// What one stored-graph read of `read` neighbours costs a task on
    /// `home`: nothing on the owner, two one-sided reads elsewhere.
    pub(crate) fn charge_stored_read(
        &self,
        home: NodeId,
        owner: NodeId,
        read: usize,
        timer: &mut TaskTimer,
    ) {
        if owner != home {
            // Lookup read (key + fat pointer) …
            self.fabric.charge_read(home, owner, 24, timer);
            // … then the value read.
            let bytes = read * std::mem::size_of::<Vid>();
            self.fabric.charge_read(home, owner, bytes.max(8), timer);
        }
    }

    /// Reads the stored-graph neighbours of `key` at `sn` into `out`
    /// (see [`Cluster::for_each_stored_slice`]).
    pub fn stored_neighbors(
        &self,
        home: NodeId,
        key: Key,
        sn: SnapshotId,
        timer: &mut TaskTimer,
        out: &mut Vec<Vid>,
    ) {
        self.for_each_stored_slice(home, key, sn, timer, |seg| out.extend_from_slice(seg));
    }

    /// Stored-graph cardinality of `key` at `sn` (planner oracle — metadata
    /// lookups are not charged).
    pub fn stored_len(&self, key: Key, sn: SnapshotId) -> usize {
        self.shards[self.owner(key).idx()].len_at(key, sn)
    }

    /// Visits the streaming-data neighbours of `key` in `stream` within
    /// `[lo, hi]`, run by run with each run's batch timestamp: timeless
    /// tuples through the stream index, timing tuples from the transient
    /// ring.
    ///
    /// One call takes the owner's index lock and probes it once, and —
    /// only once `key` turns out to have an in-window run — the owner
    /// partition's read lock and the key's value cell, exactly once;
    /// every in-window fat pointer is then served from that cell.
    ///
    /// With index replication the index itself is local; only remote
    /// *values* cost a read. Without replication, a non-owner node charges
    /// an additional read for the index lookup (§4.2). The timestamps ride
    /// along with index metadata that is already replicated (or already
    /// paid for by that extra read), so they add no fabric traffic.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn for_each_stream_slice(
        &self,
        home: NodeId,
        stream: &StreamState,
        key: Key,
        lo: Timestamp,
        hi: Timestamp,
        timer: &mut TaskTimer,
        mut visit: impl FnMut(Timestamp, &[Vid]),
    ) {
        let owner = self.owner(key);
        let remote = owner != home;

        if remote && !self.replicate_indexes {
            // The index lives only with the owner: one extra read.
            self.fabric.charge_read(home, owner, 24, timer);
        }

        if key.is_index() {
            // Window index-vertex scan: enumerate the vertices whose
            // `[v|p|d]` keys were touched by in-window batches, across
            // every origin's index (a window's actors shard over the
            // whole cluster). The indexes are locally replicated, so the
            // scan itself costs no fabric reads; vertices whose first
            // `p`-edge predates the window are still found because every
            // append touches the vertex's own key. A scan yields vertices,
            // not edges, so its runs carry the window end as timestamp.
            for index in &stream.indexes {
                index
                    .read()
                    .for_each_vertex_in(key.pid(), key.dir(), lo, hi, |v| visit(hi, &[v]));
            }
        } else {
            // Timeless: stream index → fat pointers → persistent values.
            let mut read = 0;
            let index = stream.indexes[owner.idx()].read();
            // One hash probe finds every in-window run of the key.
            self.obs.plan().record_window_probes(1);
            index.with_pointers_in(key, lo, hi, |pointers| {
                if pointers.is_empty() {
                    return;
                }
                self.shards[owner.idx()].with_cell(key, |cell| {
                    let Some(cell) = cell else { return };
                    for &(ts, fp) in pointers {
                        let run = cell.range(fp.start, fp.len);
                        read += run.len();
                        visit(ts, run);
                    }
                });
            });
            if remote && read > 0 {
                let bytes = read * std::mem::size_of::<Vid>();
                self.fabric.charge_read(home, owner, bytes, timer);
            }
        }

        // Timing: transient ring on the owner (index keys included — the
        // per-slice predicate index lives with the index key's owner).
        // Each slice is one batch, tagged with the batch timestamp.
        let mut read = 0;
        stream.transients[owner.idx()]
            .read()
            .for_each_slice_in(lo, hi, |s| {
                let run = s.neighbors(key);
                if !run.is_empty() {
                    read += run.len();
                    visit(s.timestamp, run);
                }
            });
        if remote && read > 0 {
            let bytes = read * std::mem::size_of::<Vid>();
            self.fabric.charge_read(home, owner, bytes, timer);
        }
    }

    /// Reads the streaming-data neighbours of `key` in `stream` within
    /// `[lo, hi]` into `out` (see [`Cluster::for_each_stream_slice`]).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn stream_neighbors(
        &self,
        home: NodeId,
        stream: &StreamState,
        key: Key,
        lo: Timestamp,
        hi: Timestamp,
        timer: &mut TaskTimer,
        out: &mut Vec<Vid>,
    ) {
        self.for_each_stream_slice(home, stream, key, lo, hi, timer, |_, run| {
            out.extend_from_slice(run)
        });
    }

    /// Reads the streaming-data neighbours of `key` within `[lo, hi]`
    /// *with* each edge's contributing batch timestamp, for the
    /// delta-maintenance path: the tag is what lets a maintained firing
    /// later retract exactly the rows whose support expired.
    ///
    /// Index keys are not supported: the incremental executor enumerates
    /// index subjects untimed and tags only their expansion edges.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn stream_neighbors_timed(
        &self,
        home: NodeId,
        stream: &StreamState,
        key: Key,
        lo: Timestamp,
        hi: Timestamp,
        timer: &mut TaskTimer,
        out: &mut Vec<(Vid, Timestamp)>,
    ) {
        debug_assert!(
            !key.is_index(),
            "timed scans enumerate edges, not index vertices"
        );
        self.for_each_stream_slice(home, stream, key, lo, hi, timer, |ts, run| {
            out.extend(run.iter().map(|&v| (v, ts)))
        });
    }

    /// Streaming-data cardinality estimate for the planner (uncharged).
    pub(crate) fn stream_len(
        &self,
        stream: &StreamState,
        key: Key,
        lo: Timestamp,
        hi: Timestamp,
    ) -> usize {
        let owner = self.owner(key);
        let mut n = 0;
        if key.is_index() {
            for index in &stream.indexes {
                index
                    .read()
                    .for_each_vertex_in(key.pid(), key.dir(), lo, hi, |_| n += 1);
            }
        } else {
            n += stream.indexes[owner.idx()].read().count_in(key, lo, hi);
        }
        n + stream.transients[owner.idx()].read().count_in(key, lo, hi)
    }

    /// Total persistent-store bytes across shards.
    pub fn store_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.heap_bytes()).sum()
    }

    /// Total triples across shards (counts a triple once per owning shard).
    pub fn triple_count(&self) -> u64 {
        self.shards.iter().map(|s| s.triple_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wukong_rdf::{Dir, Pid, StreamId};

    fn config(nodes: usize) -> EngineConfig {
        EngineConfig {
            nodes,
            ..EngineConfig::single_node()
        }
    }

    #[test]
    #[should_panic(expected = "EngineConfig::nodes")]
    fn boot_rejects_more_nodes_than_the_shard_map_addresses() {
        Cluster::new(&config(usize::from(u16::MAX) + 1));
    }

    #[test]
    #[should_panic(expected = "EngineConfig::gc_every_batches")]
    fn boot_rejects_a_gc_interval_of_zero() {
        Cluster::new(&EngineConfig {
            gc_every_batches: 0,
            ..config(1)
        });
    }

    #[test]
    fn base_load_routes_to_owners() {
        let c = Cluster::new(&config(4));
        let ss = c.strings().clone();
        let t = Triple::new(
            ss.intern_entity("Logan").unwrap(),
            ss.intern_predicate("fo").unwrap(),
            ss.intern_entity("Erik").unwrap(),
        );
        c.load_base_triple(t);
        let mut out = Vec::new();
        let mut timer = TaskTimer::start();
        c.stored_neighbors(
            NodeId(0),
            t.out_key(),
            SnapshotId::BASE,
            &mut timer,
            &mut out,
        );
        assert_eq!(out, vec![t.o]);
    }

    #[test]
    fn remote_stored_read_charges_two_reads() {
        let c = Cluster::new(&config(2));
        // Find a vertex owned by node 1 and read it from node 0.
        let mut v = 1u64;
        while c.shard_map().node_of_vertex(Vid(v)) != 1 {
            v += 1;
        }
        let t = Triple::new(Vid(v), Pid(1), Vid(v));
        c.load_base_triple(t);
        let key = Key::new(Vid(v), Pid(1), Dir::Out);
        let mut out = Vec::new();
        let mut timer = TaskTimer::start();
        let before = c.fabric().metrics();
        c.stored_neighbors(NodeId(0), key, SnapshotId::BASE, &mut timer, &mut out);
        let delta = before.delta(&c.fabric().metrics());
        assert_eq!(delta.one_sided_reads, 2);
        assert!(timer.charged_ns() > 0);

        // The same read from the owner is free.
        let mut timer2 = TaskTimer::start();
        let before = c.fabric().metrics();
        c.stored_neighbors(NodeId(1), key, SnapshotId::BASE, &mut timer2, &mut out);
        let delta = before.delta(&c.fabric().metrics());
        assert_eq!(delta.one_sided_reads, 0);
        assert_eq!(timer2.charged_ns(), 0);
    }

    #[test]
    fn stream_registration_grows_state() {
        let c = Cluster::new(&config(2));
        assert_eq!(c.stream_count(), 0);
        let i = c.add_stream(StreamSchema::timeless(StreamId(0), "S", 100));
        assert_eq!(i, 0);
        assert_eq!(c.stream_count(), 1);
        let s = c.stream(0);
        assert_eq!(s.transients.len(), 2);
        assert_eq!(s.indexes.len(), 2);
    }

    #[test]
    fn lock_once_window_reads_match_the_store_layer_index() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        use std::collections::BTreeMap;
        use wukong_store::base::AppendReceipt;
        use wukong_store::{BaseStore, IndexBatch};
        // The same batches go into a plain `BaseStore` + `StreamIndex`
        // (read pointer by pointer through `StreamIndex::neighbors_in`)
        // and into a cluster (read through the lock-once, cell-once
        // path): in time order first, then as catch-up replays that
        // `push_batch` slots between batches already pushed, with a
        // consolidation in between so ranges straddle dropped marks.
        let c = Cluster::new(&config(1));
        let sidx = c.add_stream(StreamSchema::timeless(StreamId(0), "S", 100));
        let stream = c.stream(sidx);
        let mut base = BaseStore::new();
        let mut reference = StreamIndex::new();

        let mut rng = StdRng::seed_from_u64(5);
        let mut next = move |n: u64| rng.gen_range(0..n);
        let mut sn = 0u64;
        let mut feed = |ts: u64, next: &mut dyn FnMut(u64) -> u64| {
            sn += 1;
            let triples: Vec<Triple> = (0..next(12))
                .map(|_| Triple::new(Vid(next(6) + 1), Pid(next(2) + 1), Vid(next(9) + 20)))
                .collect();
            let mut receipts = Vec::new();
            for &t in &triples {
                base.insert_at(t, SnapshotId(sn), &mut receipts);
            }
            let mirrored = c.shard(0).inject_batch(&triples, SnapshotId(sn));
            // Both stores append at the same offsets: every key's receipts,
            // all `IndexBatch::from_receipts` reads of them, agree in order.
            let per_key = |rs: &[AppendReceipt]| {
                let mut keys: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
                for r in rs {
                    keys.entry(r.key.raw()).or_default().push(r.offset);
                }
                keys
            };
            assert_eq!(per_key(&mirrored), per_key(&receipts));
            reference.push_batch(IndexBatch::from_receipts(ts, &receipts));
            stream.indexes[0]
                .write()
                .push_batch(IndexBatch::from_receipts(ts, &mirrored));
            if sn == 12 {
                base.consolidate(SnapshotId(8));
                c.shard(0).consolidate(SnapshotId(8));
            }
        };
        for b in 1..=20u64 {
            feed(b * 100, &mut next);
        }
        for ts in [250, 250, 1_000, 1_950, 2_000] {
            feed(ts, &mut next);
        }

        let mut timer = TaskTimer::start();
        for v in 1..=6 {
            for p in 1..=2 {
                for dir in [Dir::Out, Dir::In] {
                    let key = Key::new(Vid(v), Pid(p), dir);
                    for _ in 0..20 {
                        let lo = next(2_200);
                        let hi = lo + next(1_200);
                        let (mut got, mut want) = (Vec::new(), Vec::new());
                        c.stream_neighbors(NodeId(0), &stream, key, lo, hi, &mut timer, &mut got);
                        reference.neighbors_in(&base, key, lo, hi, &mut want);
                        assert_eq!(got, want, "{key:?} in [{lo}, {hi}]");
                        assert_eq!(c.stream_len(&stream, key, lo, hi), want.len());

                        let mut timed = Vec::new();
                        c.stream_neighbors_timed(
                            NodeId(0),
                            &stream,
                            key,
                            lo,
                            hi,
                            &mut timer,
                            &mut timed,
                        );
                        let mut timed_want = Vec::new();
                        reference.neighbors_timed_in(&base, key, lo, hi, &mut timed_want);
                        assert_eq!(timed, timed_want, "{key:?} in [{lo}, {hi}], timed");
                    }
                }
            }
        }
        // A window scan of the index vertex sees every touched subject.
        let mut got = Vec::new();
        let index_key = Key::index(Pid(1), Dir::Out);
        c.stream_neighbors(
            NodeId(0),
            &stream,
            index_key,
            0,
            2_000,
            &mut timer,
            &mut got,
        );
        let mut want = Vec::new();
        reference.vertices_in(Pid(1), Dir::Out, 0, 2_000, &mut want);
        assert_eq!(got, want);
        assert_eq!(c.stream_len(&stream, index_key, 0, 2_000), want.len());
        assert!(!want.is_empty());
    }
}
