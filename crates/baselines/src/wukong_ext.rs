//! Wukong/Ext: the intuitive extension of static Wukong (§6.2, Table 4).
//!
//! Wukong/Ext "directly inserts both streaming data and their timestamps
//! into the underlying store", with two consequences the paper measures:
//!
//! 1. No stream index: extracting a window means walking a key's *whole*
//!    timestamp log and filtering — O(everything ever appended to the
//!    key) instead of O(window).
//! 2. No GC: "deletion is costly and non-trivial after data and
//!    timestamps are coupled together", so timestamps accumulate forever
//!    and memory grows with stream lifetime.
//!
//! The implementation shares the cluster substrate (shards, sharding,
//! fabric) with Wukong+S; only the stream access path differs — which is
//! precisely the ablation the Table 4 comparison makes.

use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;
use wukong_core::cluster::Cluster;
use wukong_core::EngineConfig;
use wukong_net::{NodeId, TaskTimer};
use wukong_query::exec::{
    ExecContext, GraphAccess, PatternSource, StringLiteralResolver, WindowInstance,
};
use wukong_query::{
    execute, parse_query, plan_query, GraphName, Query, QueryError, QueryKind, ResultSet,
};
use wukong_rdf::{Key, StreamId, StringServer, Timestamp, Triple, Vid};
use wukong_store::SnapshotId;

/// Per-node timestamp logs: key → every (neighbour, timestamp) append.
type TsLog = HashMap<Key, Vec<(Vid, Timestamp)>>;

/// The Wukong/Ext engine.
pub struct WukongExt {
    cluster: Cluster,
    logs: Vec<RwLock<TsLog>>,
    stream_names: Vec<String>,
    registered: Vec<(Query, Vec<usize>)>,
}

impl WukongExt {
    /// Boots a Wukong/Ext deployment on `nodes` nodes.
    pub fn new(nodes: usize, strings: Arc<StringServer>) -> Self {
        let cfg = EngineConfig {
            nodes,
            ..EngineConfig::single_node()
        };
        WukongExt {
            cluster: Cluster::new_with_strings(&cfg, strings),
            logs: (0..nodes).map(|_| RwLock::new(TsLog::new())).collect(),
            stream_names: Vec::new(),
            registered: Vec::new(),
        }
    }

    /// The underlying cluster.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Loads initial stored data.
    pub fn load_base(&self, triples: impl IntoIterator<Item = Triple>) {
        for t in triples {
            self.cluster.load_base_triple(t);
        }
    }

    /// Registers a stream by name.
    pub fn register_stream(&mut self, name: impl Into<String>) -> StreamId {
        self.stream_names.push(name.into());
        StreamId((self.stream_names.len() - 1) as u16)
    }

    /// Ingests one stream tuple: both the data *and its timestamp* go
    /// into the store-side structures; nothing ever leaves.
    pub fn ingest(&self, _stream: StreamId, triple: Triple, ts: Timestamp) {
        // The data enters the persistent store (all visible: Wukong/Ext
        // has no snapshot machinery either).
        let (owners, len) = self.cluster.shard_map().owners_of_triple(&triple);
        for &n in &owners[..len] {
            self.cluster.shard(n).load_base(triple);
        }
        // The timestamps couple into per-key logs on the owning nodes.
        let out_key = triple.out_key();
        let in_key = triple.in_key();
        for (key, v) in [(out_key, triple.o), (in_key, triple.s)] {
            let node = self.cluster.shard_map().node_of_key(key);
            self.logs[node as usize]
                .write()
                .entry(key)
                .or_default()
                .push((v, ts));
        }
    }

    /// Registers a continuous query.
    pub fn register_continuous(&mut self, text: &str) -> Result<usize, QueryError> {
        let query = parse_query(self.cluster.strings(), text)?;
        if query.kind != QueryKind::Continuous {
            return Err(QueryError::Unsupported(
                "wukong/ext runs continuous queries".into(),
            ));
        }
        if !query.optional.is_empty()
            || !query.group_by.is_empty()
            || !query.union_groups.is_empty()
            || !query.not_exists.is_empty()
            || !query.construct.is_empty()
        {
            return Err(QueryError::Unsupported(
                "the wukong/ext baseline evaluates basic graph patterns only (no OPTIONAL/GROUP BY)".into(),
            ));
        }
        let mut stream_map = Vec::new();
        for (name, _) in &query.streams {
            let idx = self
                .stream_names
                .iter()
                .position(|n| n == name)
                .ok_or_else(|| QueryError::Unresolved(format!("stream {name}")))?;
            stream_map.push(idx);
        }
        self.registered.push((query, stream_map));
        Ok(self.registered.len() - 1)
    }

    /// Executes registered query `id` with windows ending at `now`.
    pub fn execute(&self, id: usize, now: Timestamp) -> (ResultSet, f64) {
        let (query, _) = &self.registered[id];
        let windows = query
            .streams
            .iter()
            .map(|(_, spec)| WindowInstance {
                stream: StreamId(0), // unused: the log is stream-agnostic
                lo: now.saturating_sub(spec.range_ms) + 1,
                hi: now,
            })
            .collect();
        let ctx = ExecContext {
            sn: SnapshotId::BASE,
            windows,
        };
        let access = ExtAccess {
            ext: self,
            home: NodeId(0),
        };
        let plan = plan_query(query, &access, &ctx);
        let lit = StringLiteralResolver(self.cluster.strings());
        let mut timer = TaskTimer::start();
        let rs = execute(query, &plan, &ctx, &access, &lit, &mut timer);
        let ms = timer.total_ms();
        (rs, ms)
    }
}

/// Graph access with the Wukong/Ext stream path: full-log scans.
struct ExtAccess<'a> {
    ext: &'a WukongExt,
    home: NodeId,
}

impl GraphAccess for ExtAccess<'_> {
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
                self.ext
                    .cluster
                    .stored_neighbors(self.home, key, SnapshotId::BASE, timer, out);
            }
            GraphName::Stream(i) => {
                let w = ctx.window(i);
                if key.is_index() {
                    // No per-window index either: enumerate the persistent
                    // index (every vertex ever) and keep those with any
                    // in-window activity — the expensive path.
                    let mut all = Vec::new();
                    self.ext.cluster.stored_neighbors(
                        self.home,
                        key,
                        SnapshotId::BASE,
                        timer,
                        &mut all,
                    );
                    for v in all {
                        let vkey = Key::new(v, key.pid(), key.dir().flip()).vid();
                        // Rebuild the data key in the index's direction.
                        let _ = vkey;
                        let data_key = Key::new(v, key.pid(), key.dir());
                        let node = self.ext.cluster.shard_map().node_of_key(data_key);
                        let log = self.ext.logs[node as usize].read();
                        if let Some(entries) = log.get(&data_key) {
                            if entries.iter().any(|(_, ts)| *ts >= w.lo && *ts <= w.hi) {
                                out.push(v);
                            }
                        }
                        if NodeId(node) != self.home {
                            self.ext.cluster.fabric().charge_read(
                                self.home,
                                NodeId(node),
                                16,
                                timer,
                            );
                        }
                    }
                } else {
                    // Walk the key's entire timestamp log, filter by the
                    // window (O(all appends), the §6.2 cost).
                    let node = self.ext.cluster.shard_map().node_of_key(key);
                    let log = self.ext.logs[node as usize].read();
                    let mut scanned = 0usize;
                    if let Some(entries) = log.get(&key) {
                        for (v, ts) in entries {
                            scanned += 1;
                            if *ts >= w.lo && *ts <= w.hi {
                                out.push(*v);
                            }
                        }
                    }
                    if NodeId(node) != self.home {
                        // The whole log crosses the wire, not just the window.
                        self.ext.cluster.fabric().charge_read(
                            self.home,
                            NodeId(node),
                            scanned * 16,
                            timer,
                        );
                    }
                }
            }
        }
    }

    fn estimate(&self, key: Key, src: PatternSource, _ctx: &ExecContext) -> usize {
        match src {
            GraphName::Stored => self.ext.cluster.stored_len(key, SnapshotId::BASE),
            GraphName::Stream(_) => {
                let node = self.ext.cluster.shard_map().node_of_key(key);
                self.ext.logs[node as usize]
                    .read()
                    .get(&key)
                    .map(Vec::len)
                    .unwrap_or(0)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_filtering_via_log_scan() {
        let strings = Arc::new(StringServer::new());
        let mut ext = WukongExt::new(2, Arc::clone(&strings));
        let tr = |a: &str, p: &str, b: &str| {
            Triple::new(
                strings.intern_entity(a).unwrap(),
                strings.intern_predicate(p).unwrap(),
                strings.intern_entity(b).unwrap(),
            )
        };
        ext.load_base([tr("Logan", "fo", "Erik")]);
        let po = ext.register_stream("PO");
        ext.ingest(po, tr("Erik", "po", "T-1"), 100);
        ext.ingest(po, tr("Erik", "po", "T-2"), 5_000);

        let id = ext
            .register_continuous(
                "REGISTER QUERY q SELECT ?Z FROM PO [RANGE 1s STEP 1s] \
                 WHERE { GRAPH PO { Erik po ?Z } }",
            )
            .unwrap();
        let (rs, _) = ext.execute(id, 5_000);
        // Only T-2 is inside the window ending at 5000.
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(strings.entity_name(rs.rows[0][0]).unwrap(), "T-2");
        // Both appends live in the logs forever (no GC).
        let log_entries = |ext: &WukongExt| {
            ext.logs
                .iter()
                .map(|l| l.read().values().map(Vec::len).sum::<usize>())
                .sum::<usize>()
        };
        assert_eq!(log_entries(&ext), 4);
        let (rs2, _) = ext.execute(id, 100_000);
        assert!(rs2.is_empty());
        assert_eq!(log_entries(&ext), 4);
    }

    #[test]
    fn index_scan_over_stream_window() {
        let strings = Arc::new(StringServer::new());
        let mut ext = WukongExt::new(1, Arc::clone(&strings));
        let tr = |a: &str, p: &str, b: &str| {
            Triple::new(
                strings.intern_entity(a).unwrap(),
                strings.intern_predicate(p).unwrap(),
                strings.intern_entity(b).unwrap(),
            )
        };
        let po = ext.register_stream("PO");
        ext.ingest(po, tr("A", "po", "T-1"), 100);
        ext.ingest(po, tr("B", "po", "T-2"), 900);
        let id = ext
            .register_continuous(
                "REGISTER QUERY q SELECT ?X ?Z FROM PO [RANGE 500ms STEP 500ms] \
                 WHERE { GRAPH PO { ?X po ?Z } }",
            )
            .unwrap();
        let (rs, _) = ext.execute(id, 1_000);
        assert_eq!(rs.rows.len(), 1); // only B's post is in [501, 1000]
    }
}
