//! The Wukong+S engine: registration, ingestion, triggering, execution.
//!
//! One [`WukongS`] value is a whole deployment. All methods take `&self`;
//! internal locks keep the streaming pipeline serialised while queries
//! execute concurrently against the shared hybrid store — the paper's
//! decentralised architecture where "all streaming and stored data will be
//! shared by concurrent queries" (§2.2).
//!
//! The engine is three modules behind this one (DESIGN.md §5 "Engine
//! layout"):
//!
//! * `ingest` — the `Pipeline` and everything that runs under its lock:
//!   sealing, shedding, catch-up, dispatch/install, GC;
//! * `firing` — registration, the per-query `QueryState`, planning, the
//!   strategy choice and the **one** evaluation path every registered
//!   firing, [`WukongS::execute_registered`] probe and one-shot runs;
//! * `durability` — checkpoints, recovery and the invariant scrubber.
//!
//! Lock order is **pipeline → query state** (see `firing`).

mod durability;
mod firing;
mod ingest;

use crate::cluster::Cluster;
use crate::config::EngineConfig;
use bytes::Bytes;
use firing::Registered;
use ingest::Pipeline;
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use wukong_net::NodeId;
use wukong_obs::trace::{BatchId, TraceRecorder};
use wukong_obs::StageTrace;
use wukong_query::{parse_query, PlanCache, Query, QueryError, QueryKind, ResultSet, Term};
use wukong_rdf::{StreamId, StringServer, Timestamp, Triple};
use wukong_store::StatsEpoch;
use wukong_stream::StreamSchema;

/// Handle of a registered continuous query.
pub type ContinuousId = usize;

/// Operational snapshot of a running deployment (see [`WukongS::stats`]).
#[derive(Debug, Clone)]
pub struct DeploymentStats {
    /// Simulated cluster nodes.
    pub nodes: usize,
    /// Registered streams.
    pub streams: usize,
    /// Live (non-retired) continuous queries.
    pub continuous_queries: usize,
    /// Triples in the persistent store (initial + absorbed).
    pub stored_triples: u64,
    /// Persistent-store heap bytes across shards.
    pub store_bytes: usize,
    /// Stream-index heap bytes (one canonical copy).
    pub stream_index_bytes: usize,
    /// Transient-ring heap bytes across nodes.
    pub transient_bytes: usize,
    /// Raw (textual) stream bytes received so far.
    pub raw_stream_bytes: usize,
    /// The stable snapshot number.
    pub stable_sn: wukong_store::SnapshotId,
    /// Stream batches processed in total.
    pub batches_processed: u64,
    /// Fabric operation counters.
    pub fabric: wukong_net::MetricsSnapshot,
}

/// What a recovery replayed and restored (see
/// [`WukongS::recover_with_report`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    /// Wall-clock duration of the whole recovery path, ms.
    pub recovery_ms: f64,
    /// Logged batches re-enqueued from the checkpoint chain.
    pub replayed_batches: u64,
    /// Continuous queries re-registered from the query log.
    pub replayed_queries: u64,
    /// Batches / sub-batches suppressed as duplicates during replay.
    pub dedup_suppressed: u64,
    /// The stable snapshot number after replay.
    pub restored_stable_sn: u64,
    /// Integrity violations the recovery path detected and routed around
    /// (e.g. a corrupted durable checkpoint rejected by its section
    /// checksums, forcing the pristine upstream copy — DESIGN.md §13).
    pub integrity_violations: u64,
    /// Shards that were in quarantine when the rebuild started; recovery
    /// replays their pristine logged batches, so the rebuilt engine
    /// starts with none.
    pub quarantined_shards: u64,
    /// Causal IDs of every batch the replay re-enqueued, in replay
    /// order. Batch IDs are a pure function of `(stream, timestamp)`,
    /// so these join directly against pre-crash flight-recorder traces.
    pub replayed_batch_ids: Vec<BatchId>,
}

/// The deadline-aware degradation state machine (DESIGN.md §11).
///
/// Only meaningful when [`EngineConfig::ingest_budget`] is set; an
/// unbounded engine stays in `Normal` forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverloadState {
    /// Keeping up: no pending shed tuples, firings inside the budget.
    #[default]
    Normal,
    /// Overloaded: the shedder has dropped tuples (or firings sustainedly
    /// missed the latency budget) and one-shot admission is closed.
    Shedding,
    /// Transient: replaying the retained shed suffix. Observable only
    /// through counters — the replay runs synchronously under the
    /// pipeline lock and lands back in `Normal`.
    CatchUp,
}

/// One execution of a continuous query.
#[derive(Debug, Clone)]
pub struct Firing {
    /// The registered query that fired.
    pub query: ContinuousId,
    /// Its `REGISTER QUERY` name, if any (shared with the registration).
    pub name: Option<Arc<str>>,
    /// End timestamp (inclusive) of the fired windows.
    pub window_end: Timestamp,
    /// The results.
    pub results: ResultSet,
    /// Total latency: real compute + charged network time, ms.
    pub latency_ms: f64,
    /// Staged breakdown of this firing's latency (the disjoint query
    /// stages sum to `latency_ms`; fork-join sub-spans overlap).
    pub stages: StageTrace,
}

/// A Wukong+S deployment.
pub struct WukongS {
    cfg: EngineConfig,
    cluster: Arc<Cluster>,
    pipeline: Mutex<Pipeline>,
    registry: RwLock<Vec<Arc<Registered>>>,
    next_home: AtomicUsize,
    checkpoints: Mutex<Vec<Bytes>>,
    /// Plan memo keyed on `(normalized text, stats epoch)`; consulted by
    /// registration-time planning, re-planning, and one-shot admission
    /// while [`EngineConfig::adaptive`] is on.
    plan_cache: PlanCache,
    /// The store-statistics epoch: bumped deterministically every
    /// `STATS_EPOCH_BATCHES` processed batches per stream, invalidating
    /// cached plans built from older cardinalities.
    stats_epoch: StatsEpoch,
}

impl WukongS {
    /// Boots a deployment.
    pub fn new(cfg: EngineConfig) -> Self {
        Self::with_strings(cfg, Arc::new(StringServer::new()))
    }

    /// Boots a deployment sharing an existing string server (workload
    /// generators intern their entities before the engine exists).
    pub fn with_strings(cfg: EngineConfig, strings: Arc<StringServer>) -> Self {
        let cluster = Arc::new(Cluster::new_with_strings(&cfg, strings));
        cluster.obs().trace().set_enabled(cfg.trace);
        WukongS {
            cluster,
            pipeline: Mutex::new(Pipeline::new(&cfg)),
            registry: RwLock::new(Vec::new()),
            next_home: AtomicUsize::new(0),
            checkpoints: Mutex::new(Vec::new()),
            plan_cache: PlanCache::default(),
            stats_epoch: StatsEpoch::new(),
            cfg,
        }
    }

    /// The engine's string server (intern data and query names here).
    pub fn strings(&self) -> &Arc<StringServer> {
        self.cluster.strings()
    }

    /// The underlying cluster (metrics, memory accounting).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// A cloneable handle onto the deployment's observability surfaces
    /// (staged-latency registry + fabric counters); outlives `&self`
    /// borrows, so monitors can hold it across an experiment.
    pub fn handle(&self) -> crate::cluster::ClusterHandle {
        crate::cluster::ClusterHandle::new(Arc::clone(&self.cluster))
    }

    /// The configuration this deployment runs under.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The deployment's flight recorder (always present; event capture
    /// is gated by [`EngineConfig::trace`]).
    fn tracer(&self) -> &Arc<TraceRecorder> {
        self.cluster.obs().trace()
    }

    /// Loads initial stored data (snapshot 0).
    pub fn load_base(&self, triples: impl IntoIterator<Item = Triple>) {
        for t in triples {
            self.cluster.load_base_triple(t);
        }
    }

    /// Registers a stream; the returned ID doubles as the cluster stream
    /// index (any ID in `schema` is overwritten).
    pub fn register_stream(&self, mut schema: StreamSchema) -> StreamId {
        let mut pl = self.pipeline.lock();
        let idx = self.cluster.stream_count();
        schema.id = StreamId(idx as u16);
        let cidx = self.cluster.add_stream(schema.clone());
        debug_assert_eq!(cidx, idx);
        pl.add_stream(schema);
        StreamId(idx as u16)
    }

    /// Registers a continuous query from C-SPARQL text.
    ///
    /// The query's `FROM <name> [RANGE … STEP …]` clauses must reference
    /// streams previously registered via [`WukongS::register_stream`]
    /// (matched by schema name).
    pub fn register_continuous(&self, text: &str) -> Result<ContinuousId, QueryError> {
        self.register_with_target(text, None)
    }

    /// Registers a continuous `CONSTRUCT` query whose firings instantiate
    /// the template and feed the derived stream `target` — C-SPARQL's
    /// stream-composition pattern: downstream queries consume `target`
    /// like any other stream.
    ///
    /// The emitted tuples carry the firing's window-end timestamp.
    pub fn register_construct(
        &self,
        text: &str,
        target: StreamId,
    ) -> Result<ContinuousId, QueryError> {
        if target.0 as usize >= self.cluster.stream_count() {
            return Err(QueryError::Unresolved(format!(
                "derived stream {target:?} is not registered"
            )));
        }
        self.register_with_target(text, Some(target))
    }

    /// Resolves a stream name against the registered schemas.
    fn resolve_stream(&self, name: &str) -> Result<usize, QueryError> {
        let streams = self.cluster.streams();
        streams
            .iter()
            .position(|s| s.schema.name == name)
            .ok_or_else(|| QueryError::Unresolved(format!("stream {name}")))
    }

    fn register_with_target(
        &self,
        text: &str,
        target: Option<StreamId>,
    ) -> Result<ContinuousId, QueryError> {
        let query = parse_query(self.strings(), text)?;
        if target.is_some() && query.construct.is_empty() {
            return Err(QueryError::Unsupported(
                "register_construct needs a CONSTRUCT query".into(),
            ));
        }
        if query.kind != QueryKind::Continuous {
            return Err(QueryError::Unsupported(
                "use one_shot() for non-registered queries".into(),
            ));
        }
        if !query.touches_stream() {
            return Err(QueryError::Unsupported(
                "a continuous query must read at least one stream".into(),
            ));
        }
        let stream_map = query
            .streams
            .iter()
            .map(|(name, _)| self.resolve_stream(name))
            .collect::<Result<Vec<usize>, _>>()?;

        // Home node: in-place execution dispatches a query to the node
        // owning its constant anchor ("Wukong+S mainly uses a single
        // thread on a single machine to handle a query", §5), so
        // selective queries complete without remote reads; unanchored
        // queries spread round-robin.
        let home = self.home_for(&query);
        for &s in &stream_map {
            self.cluster.stream(s).subscribers.write().insert(home.0);
        }

        // Window state anchored at the current stable position.
        let stable = self.pipeline.lock().coordinator.stable_vts().clone();
        let registered_at = stream_map.iter().map(|&s| stable.get(s)).min().unwrap_or(0);
        let mut registry = self.registry.write();
        let id = registry.len();
        registry.push(Arc::new(Registered::new(
            id,
            text,
            query,
            stream_map,
            home,
            target,
            registered_at,
        )));
        Ok(id)
    }

    /// The node a query executes on: the owner of its first constant
    /// anchor, or round-robin when nothing anchors it.
    fn home_for(&self, query: &Query) -> NodeId {
        for p in &query.patterns {
            for term in [p.s, p.o] {
                if let Term::Const(c) = term {
                    return NodeId(self.cluster.shard_map().node_of_vertex(c));
                }
            }
        }
        NodeId((self.next_home.fetch_add(1, Ordering::Relaxed) % self.cluster.nodes()) as u16)
    }

    /// Runs a batch of independent one-shot queries on node 0's worker
    /// pool. Each query takes its own visibility snapshot exactly as
    /// [`WukongS::one_shot`] does, but with no stream batches arriving
    /// between queries (the caller holds the timeline) every member sees
    /// the same stable SN, and the result vector is ordered like `texts`
    /// regardless of `worker_threads`.
    pub fn one_shot_batch(&self, texts: &[&str]) -> Vec<Result<(ResultSet, f64), QueryError>> {
        self.cluster
            .pool(NodeId(0))
            .map(texts.to_vec(), |_, text| self.one_shot(text))
    }

    /// A consolidated operational snapshot of the deployment.
    pub fn stats(&self) -> DeploymentStats {
        let pl = self.pipeline.lock();
        let mut stream_index_bytes = 0;
        let mut transient_bytes = 0;
        let mut raw_stream_bytes = 0;
        for s in self.cluster.streams().iter() {
            stream_index_bytes += s.index_bytes();
            transient_bytes += s.transient_bytes();
            raw_stream_bytes += *s.raw_bytes.read() as usize;
        }
        DeploymentStats {
            nodes: self.cluster.nodes(),
            streams: self.cluster.stream_count(),
            continuous_queries: self.continuous_count(),
            stored_triples: self.cluster.triple_count(),
            store_bytes: self.cluster.store_bytes(),
            stream_index_bytes,
            transient_bytes,
            raw_stream_bytes,
            stable_sn: pl.coordinator.stable_sn(),
            batches_processed: pl.batches_processed(),
            fabric: self.cluster.fabric().metrics(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wukong_rdf::ntriples;

    pub(super) fn engine_with_stream() -> (WukongS, StreamId) {
        let engine = WukongS::new(EngineConfig::single_node());
        let ss = engine.strings();
        engine.load_base(ntriples::parse_document(ss, "Logan fo Erik\n").expect("parses"));
        let s = engine.register_stream(StreamSchema::timeless(StreamId(9), "PO", 100));
        // The engine assigns stream IDs itself.
        assert_eq!(s, StreamId(0));
        (engine, s)
    }

    #[test]
    fn register_rejects_wrong_kinds() {
        let (engine, _) = engine_with_stream();
        // One-shot text on the continuous path.
        assert!(matches!(
            engine.register_continuous("SELECT ?X WHERE { Logan fo ?X }"),
            Err(QueryError::Unsupported(_))
        ));
        // Continuous text on the one-shot path.
        assert!(matches!(
            engine.one_shot(
                "REGISTER QUERY q SELECT ?X FROM PO [RANGE 1s STEP 1s] \
                 WHERE { GRAPH PO { ?X po ?Z } }"
            ),
            Err(QueryError::Unsupported(_))
        ));
        // Continuous query over an unregistered stream.
        assert!(matches!(
            engine.register_continuous(
                "REGISTER QUERY q SELECT ?X FROM Nope [RANGE 1s STEP 1s] \
                 WHERE { GRAPH Nope { ?X po ?Z } }"
            ),
            Err(QueryError::Unresolved(_))
        ));
        // A continuous query must read at least one stream.
        assert!(matches!(
            engine.register_continuous(
                "REGISTER QUERY q SELECT ?X FROM PO [RANGE 1s STEP 1s] \
                 WHERE { Logan fo ?X }"
            ),
            Err(QueryError::Unsupported(_))
        ));
    }

    #[test]
    fn dynamic_stream_registration_mid_flight() {
        let (engine, po) = engine_with_stream();
        let ss = engine.strings().clone();
        let t = ntriples::parse_tuple(&ss, "Logan po T-1 50", 1).expect("tuple");
        engine.ingest(po, t.triple, t.timestamp);
        engine.advance_time(500);
        assert_eq!(engine.stable_ts(po), 500);

        // Register a second stream while the first is live (§4.3: "very
        // flexible to handle dynamic streams").
        let li = engine.register_stream(StreamSchema::timeless(StreamId(0), "LI", 100));
        assert_eq!(li, StreamId(1));
        let t = ntriples::parse_tuple(&ss, "Erik li T-1 550", 1).expect("tuple");
        engine.ingest(li, t.triple, t.timestamp);
        engine.advance_time(1_000);
        assert_eq!(engine.stable_ts(po), 1_000);
        assert_eq!(engine.stable_ts(li), 1_000);

        // A query joining both streams works.
        let id = engine
            .register_continuous(
                "REGISTER QUERY q SELECT ?X ?Y ?Z \
                 FROM PO [RANGE 2s STEP 100ms] FROM LI [RANGE 2s STEP 100ms] \
                 WHERE { GRAPH PO { ?X po ?Z } . GRAPH LI { ?Y li ?Z } }",
            )
            .expect("register");
        let (rs, _) = engine.execute_registered(id);
        assert_eq!(rs.rows.len(), 1);
    }

    #[test]
    fn fire_ready_catches_up_all_pending_windows() {
        let (engine, po) = engine_with_stream();
        let ss = engine.strings().clone();
        engine
            .register_continuous(
                "REGISTER QUERY q SELECT ?Z FROM PO [RANGE 1s STEP 200ms] \
                 WHERE { GRAPH PO { Logan po ?Z } }",
            )
            .expect("register");
        let t = ntriples::parse_tuple(&ss, "Logan po T-1 100", 1).expect("tuple");
        engine.ingest(po, t.triple, t.timestamp);
        engine.advance_time(1_000);
        // 5 step-200ms windows became ready in one advance.
        let firings = engine.fire_ready();
        assert_eq!(firings.len(), 5);
        assert!(firings.iter().all(|f| f.results.rows.len() == 1));
        // Nothing left to fire until time advances again.
        assert!(engine.fire_ready().is_empty());
    }

    #[test]
    fn construct_feeds_a_derived_stream() {
        // Pipeline: raw posts → CONSTRUCT "influences" edges → a second
        // continuous query consumes the derived stream.
        let (engine, po) = engine_with_stream();
        let ss = engine.strings().clone();
        let derived = engine.register_stream(StreamSchema::timeless(StreamId(0), "Derived", 100));

        engine
            .register_construct(
                "REGISTER QUERY build SELECT ?X                  CONSTRUCT { Erik influences ?X }                  FROM PO [RANGE 1s STEP 100ms]                  WHERE { GRAPH PO { ?X po ?Z } . ?X fo Erik }",
                derived,
            )
            .expect_err("CONSTRUCT replaces SELECT");
        let cid = engine
            .register_construct(
                "REGISTER QUERY build                  CONSTRUCT { Erik influences ?X }                  FROM PO [RANGE 1s STEP 100ms]                  WHERE { GRAPH PO { ?X po ?Z } . ?X fo Erik }",
                derived,
            )
            .expect("construct registers");
        let did = engine
            .register_continuous(
                "REGISTER QUERY consume SELECT ?W                  FROM Derived [RANGE 5s STEP 100ms]                  WHERE { GRAPH Derived { Erik influences ?W } }",
            )
            .expect("consumer registers");

        // Logan follows Erik and posts; the pipeline derives
        // ⟨Erik influences Logan⟩.
        let t = ntriples::parse_tuple(&ss, "Logan po T-1 50", 1).expect("tuple");
        engine.ingest(po, t.triple, t.timestamp);
        engine.advance_time(200);
        let firings = engine.fire_ready();
        assert!(firings
            .iter()
            .any(|f| f.query == cid && !f.results.is_empty()));

        // The derived tuple becomes visible after its batch stabilises.
        engine.advance_time(400);
        let (rs, _) = engine.execute_registered(did);
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(ss.entity_name(rs.rows[0][0]).unwrap(), "Logan");

        // Constructed data is also absorbed into the stored graph.
        let (rs, _) = engine
            .one_shot("SELECT ?W WHERE { Erik influences ?W }")
            .expect("runs");
        assert_eq!(rs.rows.len(), 1);

        // Targeting an unregistered stream fails.
        assert!(engine
            .register_construct(
                "REGISTER QUERY x CONSTRUCT { a b ?X } FROM PO [RANGE 1s STEP 1s]                  WHERE { GRAPH PO { ?X po ?Z } }",
                StreamId(99),
            )
            .is_err());
    }

    #[test]
    fn unregister_stops_firing_and_releases_subscriptions() {
        let (engine, po) = engine_with_stream();
        let ss = engine.strings().clone();
        let q = "REGISTER QUERY q SELECT ?Z FROM PO [RANGE 1s STEP 100ms]                  WHERE { GRAPH PO { Logan po ?Z } }";
        let id = engine.register_continuous(q).expect("register");
        assert_eq!(engine.continuous_count(), 1);
        assert!(!engine.cluster().stream(0).subscribers.read().is_empty());

        let t = ntriples::parse_tuple(&ss, "Logan po T-1 50", 1).expect("tuple");
        engine.ingest(po, t.triple, t.timestamp);
        engine.advance_time(500);
        assert!(!engine.fire_ready().is_empty());

        engine.unregister_continuous(id);
        assert_eq!(engine.continuous_count(), 0);
        assert_eq!(engine.stats().continuous_queries, 0, "retired is not live");
        assert!(engine.cluster().stream(0).subscribers.read().is_empty());
        engine.advance_time(1_000);
        assert!(engine.fire_ready().is_empty(), "retired queries never fire");
        let (rs, _) = engine.execute_registered(id);
        assert!(rs.is_empty());

        // Checkpoints no longer persist it.
        let cp = crate::checkpoint::Checkpoint::decode(&engine.checkpoint()).expect("decodes");
        assert!(cp.queries.is_empty());

        // Re-registering works and fires again.
        let id2 = engine.register_continuous(q).expect("register");
        let t = ntriples::parse_tuple(&ss, "Logan po T-2 1050", 1).expect("tuple");
        engine.ingest(po, t.triple, t.timestamp);
        engine.advance_time(2_000);
        let firings = engine.fire_ready();
        assert!(firings
            .iter()
            .any(|f| f.query == id2 && !f.results.is_empty()));
    }

    #[test]
    fn windowed_one_shot_reads_current_window() {
        // The time-scoped one-shot of footnote 10: run once over the
        // stream's current window.
        let (engine, po) = engine_with_stream();
        let ss = engine.strings().clone();
        for (name, ts) in [("T-1", 50u64), ("T-2", 950)] {
            let t = ntriples::parse_tuple(&ss, &format!("Logan po {name} {ts}"), 1).expect("tuple");
            engine.ingest(po, t.triple, t.timestamp);
        }
        engine.advance_time(1_000);

        // A 500 ms window at the stable VTS (1000) sees only T-2.
        let (rs, _) = engine
            .one_shot(
                "SELECT ?Z FROM PO [RANGE 500ms STEP 500ms]                  WHERE { GRAPH PO { Logan po ?Z } }",
            )
            .expect("windowed one-shot runs");
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(ss.entity_name(rs.rows[0][0]).unwrap(), "T-2");

        // A GRAPH clause naming an unwindowed graph falls back to the
        // stored graph (parser semantics), where both absorbed posts are
        // visible — same as the plain stored-graph one-shot.
        let (rs, _) = engine
            .one_shot("SELECT ?Z WHERE { GRAPH PO { Logan po ?Z } }")
            .expect("runs over the stored graph");
        assert_eq!(rs.rows.len(), 2);
        let (rs, _) = engine
            .one_shot("SELECT ?Z WHERE { Logan po ?Z }")
            .expect("runs");
        assert_eq!(rs.rows.len(), 2);
    }

    #[test]
    fn stats_reflect_activity() {
        let (engine, po) = engine_with_stream();
        let ss = engine.strings().clone();
        let before = engine.stats();
        assert_eq!(before.streams, 1);
        assert_eq!(before.nodes, 1);
        let t = ntriples::parse_tuple(&ss, "Logan po T-1 50", 1).expect("tuple");
        engine.ingest(po, t.triple, t.timestamp);
        engine.advance_time(500);
        let after = engine.stats();
        assert!(after.stored_triples > before.stored_triples);
        assert!(after.batches_processed >= 5);
        assert!(after.raw_stream_bytes > 0);
        assert!(after.stable_sn > before.stable_sn);

        // `continuous_queries` counts live queries, like `continuous_count`.
        let q = |n: &str| {
            format!(
                "REGISTER QUERY {n} SELECT ?Z FROM PO [RANGE 1s STEP 1s] \
                 WHERE {{ GRAPH PO {{ Logan po ?Z }} }}"
            )
        };
        let ids: Vec<_> = ["a", "b", "c"]
            .iter()
            .map(|n| engine.register_continuous(&q(n)).expect("register"))
            .collect();
        engine.unregister_continuous(ids[1]);
        assert_eq!(engine.continuous_count(), 2);
        assert_eq!(engine.stats().continuous_queries, 2);
    }

    #[test]
    fn overload_sheds_marks_firings_and_catches_up() {
        let mut cfg = EngineConfig::single_node()
            .with_ingest_budget(Some(wukong_stream::IngestBudget::tuples(8)));
        // Keep the wall-clock latency trip out of this test: only the
        // deterministic queue-overflow path should drive the states.
        cfg.overload.latency_budget_ms = 1e9;
        let engine = WukongS::new(cfg);
        let ss = engine.strings().clone();
        let po = engine.register_stream(StreamSchema::timeless(StreamId(0), "PO", 100));
        engine
            .register_continuous(
                "REGISTER QUERY q SELECT ?X FROM PO [RANGE 1s STEP 200ms] \
                 WHERE { GRAPH PO { ?X po ?Z } }",
            )
            .expect("register");

        // A 20-tuple burst lands in one 100 ms interval — 2.5× budget.
        for i in 0..20u64 {
            let t = ntriples::parse_tuple(&ss, &format!("u{i} po T-{i} {}", 110 + i), 1)
                .expect("tuple");
            engine.ingest(po, t.triple, t.timestamp);
        }
        engine.advance_time(1_000);
        // Liveness: the VTS advanced right through the overload.
        assert_eq!(engine.stable_ts(po), 1_000);
        assert_eq!(engine.overload_state(), OverloadState::Shedding);
        assert_eq!(engine.total_shed(), 20, "drop-oldest empties the burst");
        assert_eq!(engine.shed_outstanding(), 20);

        // Exact staleness: every firing whose window covers the shed
        // batch carries the precise marker.
        let firings = engine.fire_ready();
        assert!(!firings.is_empty());
        let degraded: Vec<_> = firings.iter().filter_map(|f| f.results.degraded).collect();
        assert_eq!(degraded.len(), firings.len());
        assert!(degraded
            .iter()
            .all(|d| d.tuples_shed == 20 && d.windows_affected == 1));

        // Admission control: one-shots are rejected while shedding.
        assert!(matches!(
            engine.one_shot("SELECT ?X WHERE { ?X po T-0 }"),
            Err(QueryError::Overloaded(_))
        ));

        // The quiet period passes → catch-up replays the shed suffix.
        engine.advance_time(2_400);
        assert_eq!(engine.overload_state(), OverloadState::Normal);
        assert_eq!(engine.shed_outstanding(), 0);
        assert_eq!(engine.shed_log().len(), 1, "the log is append-only");
        let (rs, _) = engine
            .one_shot("SELECT ?X WHERE { ?X po T-7 }")
            .expect("admitted again after catch-up");
        assert_eq!(rs.rows.len(), 1, "the replayed tuple is in the store");

        // Post-catch-up firings are whole again: no markers.
        let firings = engine.fire_ready();
        assert!(!firings.is_empty());
        assert!(firings.iter().all(|f| f.results.degraded.is_none()));

        let snap = engine.handle().obs().overload().snapshot();
        assert_eq!(snap.tuples_shed, 20);
        assert_eq!(snap.catchup_replayed_tuples, 20);
        assert_eq!(snap.catchup_replays, 1);
        assert!(snap.admission_rejected >= 1);
        // Normal→Shedding, Shedding→CatchUp, CatchUp→Normal.
        assert_eq!(snap.state_transitions, 3);
    }

    #[test]
    fn unbounded_engine_never_sheds_or_rejects() {
        // No budget ⇒ the whole overload subsystem is inert: this is the
        // byte-identity guarantee for every pre-existing workload.
        let (engine, po) = engine_with_stream();
        let ss = engine.strings().clone();
        for i in 0..200u64 {
            let t = ntriples::parse_tuple(&ss, &format!("u{i} po T-{i} {}", 110 + i), 1)
                .expect("tuple");
            engine.ingest(po, t.triple, t.timestamp);
        }
        engine.advance_time(1_000);
        assert_eq!(engine.overload_state(), OverloadState::Normal);
        assert_eq!(engine.total_shed(), 0);
        assert!(engine.shed_log().is_empty());
        assert!(engine.one_shot("SELECT ?X WHERE { ?X po T-0 }").is_ok());
        let snap = engine.handle().obs().overload().snapshot();
        assert_eq!(snap, Default::default());
    }

    #[test]
    fn one_shot_plans_come_from_the_cache_under_adaptive() {
        let engine = WukongS::new(EngineConfig::single_node().with_adaptive(true));
        let ss = engine.strings();
        engine.load_base(ntriples::parse_document(ss, "Logan fo Erik\n").expect("parses"));
        let (a, _) = engine.one_shot("SELECT ?X WHERE { Logan fo ?X }").unwrap();
        // Same text, different whitespace: one plan, one cache hit.
        let (b, _) = engine
            .one_shot("SELECT ?X  WHERE  { Logan fo ?X }")
            .unwrap();
        assert_eq!(a.rows, b.rows);
        assert_eq!(engine.plan_cache.misses(), 1);
        assert_eq!(engine.plan_cache.hits(), 1);
        let snap = engine.handle().obs().plan().snapshot();
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.cache_misses, 1);

        // A static engine never touches the cache.
        let control = WukongS::new(EngineConfig::single_node());
        let ss = control.strings();
        control.load_base(ntriples::parse_document(ss, "Logan fo Erik\n").expect("parses"));
        let (c, _) = control.one_shot("SELECT ?X WHERE { Logan fo ?X }").unwrap();
        assert_eq!(a.rows, c.rows);
        assert!(control.plan_cache.is_empty());
    }

    /// Drives the drifted-selectivity scenario: the plan is derived when
    /// the anchor matches one tuple per window, then the anchor's
    /// fan-out explodes. Returns every firing's sorted rows.
    fn drift_workload(cfg: EngineConfig) -> (WukongS, Vec<Vec<Vec<wukong_rdf::Vid>>>) {
        let engine = WukongS::new(cfg);
        let ss = engine.strings().clone();
        let po = engine.register_stream(StreamSchema::timeless(StreamId(0), "PO", 100));
        engine
            .register_continuous(
                "REGISTER QUERY q SELECT ?Z FROM PO [RANGE 300ms STEP 100ms] \
                 WHERE { GRAPH PO { Logan po ?Z } }",
            )
            .expect("register");
        let mut fired = Vec::new();
        for round in 0..8u64 {
            let n = if round == 0 { 1 } else { 40 };
            for k in 0..n {
                let line = format!("Logan po T-{round}-{k} {}", round * 100 + 50);
                let t = ntriples::parse_tuple(&ss, &line, 1).expect("tuple");
                engine.ingest(po, t.triple, t.timestamp);
            }
            engine.advance_time((round + 1) * 100);
            for f in engine.fire_ready() {
                let mut rows = f.results.rows.clone();
                rows.sort();
                fired.push(rows);
            }
        }
        (engine, fired)
    }

    #[test]
    fn drift_trips_a_replan_without_changing_any_firing() {
        let (adaptive, fired_a) = drift_workload(EngineConfig::single_node().with_adaptive(true));
        let (static_, fired_s) = drift_workload(EngineConfig::single_node());
        // Identical firing sequence — re-planning is result-transparent.
        assert_eq!(fired_a, fired_s);
        assert!(!fired_a.is_empty());

        let snap = adaptive.handle().obs().plan().snapshot();
        // The 40×-per-window regime vs the estimate frozen at one tuple
        // drifts every firing after the first; three consecutive trips.
        assert!(snap.feedback_firings > 0, "feedback observed: {snap:?}");
        assert!(snap.drifted_firings >= 3, "drift detected: {snap:?}");
        assert!(snap.replans >= 1, "detector tripped: {snap:?}");
        // The static engine's adaptive counters stay silent (only the
        // unconditional modeled-work metric accumulates).
        let control = static_.handle().obs().plan().snapshot();
        assert_eq!(control.replans, 0);
        assert_eq!(control.feedback_firings, 0);
        assert_eq!(control.cache_hits + control.cache_misses, 0);
        assert!(control.edges_traversed > 0);
    }

    #[test]
    fn force_replan_is_transparent_and_rebuilds_delta_state() {
        // Maintained query (incremental on): force a mid-stream plan
        // switch and compare every subsequent firing against a control
        // engine that never re-plans.
        let run = |replan_at: Option<u64>| {
            let engine = WukongS::new(EngineConfig::single_node().with_incremental(true));
            let ss = engine.strings().clone();
            let po = engine.register_stream(StreamSchema::timeless(StreamId(0), "PO", 100));
            let id = engine
                .register_continuous(
                    "REGISTER QUERY q SELECT ?Z FROM PO [RANGE 300ms STEP 100ms] \
                     WHERE { GRAPH PO { Logan po ?Z } }",
                )
                .expect("register");
            let mut fired = Vec::new();
            for round in 0..6u64 {
                for k in 0..3u64 {
                    let line = format!("Logan po T-{round}-{k} {}", round * 100 + 50);
                    let t = ntriples::parse_tuple(&ss, &line, 1).expect("tuple");
                    engine.ingest(po, t.triple, t.timestamp);
                }
                engine.advance_time((round + 1) * 100);
                if replan_at == Some(round) {
                    engine.force_replan(id);
                }
                for f in engine.fire_ready() {
                    let mut rows = f.results.rows.clone();
                    rows.sort();
                    fired.push((f.window_end, rows));
                }
            }
            (engine, fired)
        };
        let (engine, with_switch) = run(Some(3));
        let (_, control) = run(None);
        assert_eq!(with_switch, control);
        let snap = engine.handle().obs().plan().snapshot();
        assert_eq!(snap.replans, 1);
        assert_eq!(snap.delta_rebuilds, 1, "retained state dropped: {snap:?}");
    }

    /// The lock-free consolidation clamp against the locked scan it
    /// replaced (which also checks every cursor mirror against its cursor).
    #[track_caller]
    fn assert_clamp_matches_locked_scan(engine: &WukongS) -> Option<wukong_store::SnapshotId> {
        let pl = engine.pipeline.lock();
        let clamp = engine.min_assigned_sn(&pl.coordinator);
        assert_eq!(clamp, engine.min_assigned_sn_locked(&pl.coordinator));
        clamp
    }

    #[test]
    fn lock_free_clamp_tracks_every_cursor_move() {
        use wukong_obs::trace::Marker;
        let cfg = EngineConfig {
            fault_tolerance: true,
            ..EngineConfig::single_node()
        };
        let engine = WukongS::new(cfg.clone());
        let ss = engine.strings().clone();
        let schemas = [
            StreamSchema::timeless(StreamId(0), "PO", 100),
            StreamSchema::timeless(StreamId(1), "LI", 100),
        ];
        let po = engine.register_stream(schemas[0].clone());
        engine.register_stream(schemas[1].clone());
        assert_eq!(assert_clamp_matches_locked_scan(&engine), None, "no query");

        // Different stream sets and steps, so which query holds the
        // minimum changes from round to round; two share a pair.
        let query = |name: &str, from: &str, body: &str| {
            format!("REGISTER QUERY {name} SELECT ?X {from} WHERE {{ {body} }}")
        };
        let (po_w, li_w) = ("FROM PO [RANGE 1s STEP", "FROM LI [RANGE 1s STEP");
        let (po_p, li_p) = ("GRAPH PO { ?X po ?Z }", "GRAPH LI { ?Y li ?Z }");
        let texts = [
            query("a", &format!("{po_w} 100ms]"), po_p),
            query("b", &format!("{po_w} 100ms]"), po_p),
            query("c", &format!("{po_w} 300ms]"), po_p),
            query("d", &format!("{li_w} 200ms]"), li_p),
            query(
                "e",
                &format!("{po_w} 500ms] {li_w} 500ms]"),
                &format!("{po_p} . {li_p}"),
            ),
        ];
        let mut ids = Vec::new();
        for text in &texts[..4] {
            ids.push(engine.register_continuous(text).expect("register"));
            assert_clamp_matches_locked_scan(&engine);
        }

        let mut clamps = std::collections::BTreeSet::new();
        for round in 0..30u64 {
            // Only PO carries tuples; LI trails one interval behind on
            // heartbeats, so PO windows become ready while their epoch
            // is still open — held firings, cursors that stay put.
            let line = format!("u{round} po T-{round} {}", round * 100 + 150);
            let t = ntriples::parse_tuple(&ss, &line, 1).expect("tuple");
            engine.ingest(po, t.triple, t.timestamp);
            assert_clamp_matches_locked_scan(&engine);
            engine.fire_ready();
            clamps.extend(assert_clamp_matches_locked_scan(&engine));
            if round % 3 == 2 {
                engine.advance_time((round + 1) * 100);
                assert_clamp_matches_locked_scan(&engine);
                engine.fire_ready();
                clamps.extend(assert_clamp_matches_locked_scan(&engine));
            }
            match round {
                10 => ids.push(engine.register_continuous(&texts[4]).expect("register")),
                15 => engine.unregister_continuous(ids[0]),
                20 => engine.unregister_continuous(ids[2]),
                _ => {}
            }
            assert_clamp_matches_locked_scan(&engine);
        }
        assert!(clamps.len() > 10, "the clamp must move: {clamps:?}");
        let held = engine.tracer().merged_events();
        assert!(
            held.iter().any(|e| e.marker() == Some(Marker::Hold)),
            "the schedule must hold a ready window"
        );

        // Recovery re-registers the live queries and skips their cursors
        // to the checkpointed horizon (`resume_windows`).
        engine.checkpoint();
        let recovered = WukongS::recover(cfg, [], schemas.to_vec(), &ss, &engine.checkpoints())
            .expect("recovers");
        assert_eq!(recovered.continuous_count(), 3);
        let resumed = assert_clamp_matches_locked_scan(&recovered);
        assert!(resumed > Some(wukong_store::SnapshotId(1)), "{resumed:?}");
        recovered.advance_time(3_500);
        recovered.fire_ready();
        assert_clamp_matches_locked_scan(&recovered);
    }

    #[test]
    fn quiet_streams_do_not_block_visibility() {
        // Two streams; only one ever produces tuples. Heartbeats must
        // keep the silent stream's VTS advancing so batches of the busy
        // stream become stable (the injector-stall scenario of Fig. 11).
        let engine = WukongS::new(EngineConfig::single_node());
        let ss = engine.strings().clone();
        let po = engine.register_stream(StreamSchema::timeless(StreamId(0), "PO", 100));
        let _li = engine.register_stream(StreamSchema::timeless(StreamId(0), "LI", 100));
        for i in 0..20u64 {
            let t = ntriples::parse_tuple(&ss, &format!("u{i} po T-{i} {}", i * 100 + 50), 1)
                .expect("tuple");
            engine.ingest(po, t.triple, t.timestamp);
        }
        engine.advance_time(2_000);
        assert_eq!(engine.stable_ts(po), 2_000);
        assert!(engine.stable_sn().0 >= 19);
    }
}
