//! The firing scheduler: registration, per-query state, planning, the
//! strategy choice, and the **one** evaluation path ([`WukongS::evaluate`])
//! behind every registered firing, [`WukongS::execute_registered`] probe
//! and one-shot.
//!
//! Each registered query owns one `Mutex<QueryState>`. Lock order is
//! pipeline → query state: the guard is never held across
//! [`WukongS::ingest`], `degrade_and_track` (both take the pipeline lock)
//! or a worker-pool region — a CONSTRUCT firing re-enters `ingest`, whose
//! catch-up path locks the state of every query reading a replayed
//! stream. The per-batch install path takes no query lock: it reads each
//! query's `next_fire` mirror (DESIGN.md §5 "The cursor mirror").

use super::{ContinuousId, Firing, OverloadState, WukongS};
use crate::access::NodeAccess;
use crate::checkpoint::LoggedQuery;
use crate::config::ExecMode;
use crate::forkjoin;
use crate::scrub::ScrubViolation;
use parking_lot::Mutex;
use std::borrow::Borrow;
use std::collections::{BTreeSet, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use wukong_net::{NodeId, TaskTimer};
use wukong_obs::trace::{self, BatchId, FiringId, Marker, TraceRecorder};
use wukong_obs::{Stage, StageTrace};
use wukong_query::exec::{ExecContext, GraphAccess, StringLiteralResolver, WindowInstance};
use wukong_query::{
    parse_query, plan_query, Degraded, DeltaState, Plan, PlanFeedback, Query, QueryError,
    QueryKind, ResultSet, Term,
};
use wukong_rdf::{Dir, Key, StreamId, Timestamp, Triple, Vid};
use wukong_store::SnapshotId;
use wukong_stream::window::StreamWindow;
use wukong_stream::{Coordinator, Vts, WindowState};

/// A registered continuous query: what never changes after registration,
/// plus the one lock around everything that does.
pub(super) struct Registered {
    text: String,
    query: Query,
    /// Query-local stream index → cluster stream index.
    stream_map: Vec<usize>,
    /// The registered RANGE per query-local stream, in window order —
    /// fired instance spans can be clamped at the stream epoch and must
    /// not shorten row expiry.
    ranges: Vec<Timestamp>,
    home: NodeId,
    /// The obs series / flight-recorder class: the `REGISTER QUERY` name,
    /// or `query-{id}`.
    class: Arc<str>,
    /// For CONSTRUCT queries: the derived stream firings feed.
    construct_target: Option<StreamId>,
    /// Set when the query is unregistered; retired queries stop firing
    /// and no longer pin GC horizons or index replication.
    retired: AtomicBool,
    /// Mirror of `state.window.next_fire()`, so the install path can clamp
    /// consolidation without taking a query lock. Written only where the
    /// cursor moves and only under the pipeline lock
    /// ([`Registered::publish_cursor`]); read under it too, which is what
    /// orders the accesses — the atomic itself publishes nothing.
    next_fire: AtomicU64,
    state: Mutex<QueryState>,
}

/// Everything mutable about one registered query, taken once per query
/// per scheduling round.
struct QueryState {
    window: WindowState,
    plan: Option<Arc<Plan>>,
    /// Cardinality feedback for the current plan (adaptive mode only):
    /// frozen per-step estimates plus the drift streak. Reset whenever
    /// the plan is (re)derived.
    feedback: Option<PlanFeedback>,
    /// Delta-maintenance state (materialized binding rows tagged with
    /// their contributing batch timestamps), populated only while the
    /// engine runs this query incrementally. `None` means the next
    /// maintained firing rebuilds from scratch — the initial value, and
    /// what recovery restores by re-registering queries fresh.
    delta: Option<DeltaState>,
    /// Rows emitted by the previous firing (IStream semantics: each
    /// firing emits only results that were not in the previous window).
    last_emitted: HashSet<Vec<Vid>>,
}

/// One window batch ready to fire: the fired window instances at their
/// *assigned* snapshot, and the causal ID minted for the firing.
struct ReadyFiring {
    ctx: ExecContext,
    fid: FiringId,
    /// Window-extraction time already spent on this firing's behalf before
    /// its timer starts: the batch's plan resolution, on its first firing.
    extract_ns: u64,
}

/// How one evaluation runs (§5 "Leveraging RDMA", plus delta maintenance).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Strategy {
    /// Graph exploration on the home node, one-sided reads for remote keys.
    InPlace,
    /// Scatter the step loop over every node, gather at the home node.
    ForkJoin,
    /// Retract / derive against the query's retained delta state.
    Maintain,
}

/// What [`WukongS::evaluate`] produced.
struct Evaluated {
    results: ResultSet,
    /// Real compute + charged network time, ms.
    latency_ms: f64,
    stages: StageTrace,
    /// `(input rows, output rows)` per plan step of an in-place run;
    /// empty otherwise (fork-join runs feed no drift detector, maintained
    /// firings skip the step loop).
    fanout: Vec<(u64, u64)>,
}

/// A `(cluster stream, lo, hi)` window, as [`WindowState::fire`] yields it.
fn instance((s, lo, hi): (usize, Timestamp, Timestamp)) -> WindowInstance {
    let stream = StreamId(s as u16);
    WindowInstance { stream, lo, hi }
}

/// The window over cluster stream `s` of length `range_ms` ending at `hi`.
fn window_at(s: usize, range_ms: Timestamp, hi: Timestamp) -> WindowInstance {
    instance((s, hi.saturating_sub(range_ms) + 1, hi))
}

/// The snapshot the SN-VTS plan assigned to the execution of windows over
/// cluster `streams` ending at `hi` (the max epoch over the streams);
/// `None` while no plan covers it yet.
fn assigned_sn(coordinator: &Coordinator, streams: &[usize], hi: Timestamp) -> Option<SnapshotId> {
    let epochs = streams
        .iter()
        .filter_map(|&s| coordinator.snapshot_at(s, hi));
    epochs.max()
}

impl Registered {
    /// A fresh registration, its window cursor anchored at `registered_at`.
    pub(super) fn new(
        id: ContinuousId,
        text: &str,
        query: Query,
        stream_map: Vec<usize>,
        home: NodeId,
        construct_target: Option<StreamId>,
        registered_at: Timestamp,
    ) -> Self {
        let windows = query.streams.iter().zip(&stream_map);
        let windows = windows.map(|((_, w), &s)| StreamWindow {
            stream: s,
            range_ms: w.range_ms,
            step_ms: w.step_ms,
        });
        let window = WindowState::new(windows.collect(), registered_at);
        Registered {
            text: text.to_owned(),
            ranges: query.streams.iter().map(|(_, w)| w.range_ms).collect(),
            home,
            class: query
                .name
                .clone()
                .unwrap_or_else(|| format!("query-{id}"))
                .into(),
            construct_target,
            retired: AtomicBool::new(false),
            next_fire: AtomicU64::new(window.next_fire()),
            state: Mutex::new(QueryState {
                window,
                plan: None,
                feedback: None,
                delta: None,
                last_emitted: HashSet::new(),
            }),
            stream_map,
            query,
        }
    }

    fn is_live(&self) -> bool {
        !self.retired.load(Ordering::Relaxed)
    }

    /// Re-publishes the window cursor after it moved. The caller holds the
    /// pipeline lock (and `st`'s guard), so `min_assigned_sn` — which runs
    /// under the pipeline lock — never sees the mirror behind the cursor.
    fn publish_cursor(&self, st: &QueryState) {
        self.next_fire
            .store(st.window.next_fire(), Ordering::Relaxed);
    }

    /// The query's *current* windows: each ends at its stream's stable
    /// VTS entry, read at snapshot `sn`.
    fn current_windows(&self, stable: &Vts, sn: SnapshotId) -> ExecContext {
        let windows = self
            .stream_map
            .iter()
            .zip(&self.ranges)
            .map(|(&s, &range)| window_at(s, range, stable.get(s)))
            .collect();
        ExecContext { sn, windows }
    }
}

impl QueryState {
    /// Drops retained delta state; `true` if there was any.
    fn drop_delta(&mut self) -> bool {
        self.delta.take().is_some()
    }
}

/// What `ingest` and `durability` ask of the query side. Callers may hold
/// the pipeline lock (pipeline → query state).
impl WukongS {
    /// The lowest assigned snapshot of any live query's un-fired window —
    /// consolidation must not merge past it. Runs once per installed
    /// batch under the pipeline lock and takes no query lock: it reads the
    /// cursor mirrors, and probes the plan once per distinct `(streams,
    /// cursor)` pair — standing queries share a handful of them.
    pub(super) fn min_assigned_sn(&self, coordinator: &Coordinator) -> Option<SnapshotId> {
        /// Pairs remembered per scan; a registry with more distinct ones
        /// probes the overflow per query rather than search a long list.
        const MEMO: usize = 16;
        let registry = self.registry.read();
        let mut seen: [(&[usize], Timestamp); MEMO] = [(&[], 0); MEMO];
        let mut known = 0;
        let mut min = None;
        for r in registry.iter().filter(|r| r.is_live()) {
            let pair = (&r.stream_map[..], r.next_fire.load(Ordering::Relaxed));
            if seen[..known].contains(&pair) {
                continue;
            }
            if known < MEMO {
                seen[known] = pair;
                known += 1;
            }
            let sn = assigned_sn(coordinator, pair.0, pair.1);
            min = min.into_iter().chain(sn).min();
        }
        min
    }

    /// [`WukongS::min_assigned_sn`] as it was before the cursor mirror:
    /// every live query's window read under its own lock. Also checks
    /// each mirror against its cursor.
    #[cfg(test)]
    pub(super) fn min_assigned_sn_locked(&self, coordinator: &Coordinator) -> Option<SnapshotId> {
        let registry = self.registry.read();
        let live = registry.iter().filter(|r| r.is_live());
        live.filter_map(|r| {
            let hi = r.state.lock().window.next_fire();
            assert_eq!(r.next_fire.load(Ordering::Relaxed), hi, "{}", r.class);
            assigned_sn(coordinator, &r.stream_map, hi)
        })
        .min()
    }

    /// The widest RANGE any live query declares over cluster stream `s`
    /// (`None`: nobody reads it).
    pub(super) fn widest_range(&self, s: usize) -> Option<Timestamp> {
        let registry = self.registry.read();
        let readers = registry
            .iter()
            .filter(|r| r.is_live() && r.stream_map.contains(&s));
        readers.map(|r| r.query.max_range_ms()).max()
    }

    /// Drops the delta state of every live query reading one of
    /// `streams`; returns how many had any.
    pub(super) fn drop_delta_reading(&self, streams: &BTreeSet<usize>) -> usize {
        let registry = self.registry.read();
        let readers = registry
            .iter()
            .filter(|r| r.is_live() && r.stream_map.iter().any(|s| streams.contains(s)));
        readers.filter(|r| r.state.lock().drop_delta()).count()
    }

    /// The live registrations, in registration order, as checkpointed.
    pub(super) fn logged_queries(&self) -> Vec<LoggedQuery> {
        let registry = self.registry.read();
        let live = registry.iter().filter(|r| r.is_live());
        live.map(|r| LoggedQuery {
            text: r.text.clone(),
            construct_target: r.construct_target.map(|t| t.0),
        })
        .collect()
    }

    /// Skips every firing cursor past windows `resume` has entirely passed.
    pub(super) fn resume_windows(&self, resume: &Vts) {
        let _pipeline = self.pipeline.lock();
        for r in self.registry.read().iter() {
            let mut st = r.state.lock();
            st.window.catch_up(resume);
            r.publish_cursor(&st);
        }
    }

    /// The query half of the invariant scrubber: every row a maintained
    /// query retains must die strictly after its last fired window.
    pub(super) fn check_death_bounds(&self, out: &mut Vec<ScrubViolation>) {
        for r in self.registry.read().iter().filter(|r| r.is_live()) {
            let st = r.state.lock();
            let Some(delta) = st.delta.as_ref() else {
                continue;
            };
            let hi = delta.windows().iter().map(|w| w.hi).max().unwrap_or(0);
            let rows = delta.rows();
            for i in (0..rows.len()).filter(|&i| rows.death(i) <= hi) {
                out.push(ScrubViolation::DeathBound {
                    query: r.class.to_string(),
                    death: rows.death(i),
                    hi,
                });
            }
        }
    }
}

impl WukongS {
    /// Unregisters a continuous query: it stops firing, stops pinning GC
    /// horizons, and its home node drops stream-index subscriptions no
    /// other query of that node still needs.
    pub fn unregister_continuous(&self, id: ContinuousId) {
        let registry = self.registry.read();
        let Some(r) = registry.get(id) else { return };
        r.retired.store(true, Ordering::Relaxed);
        for &s in &r.stream_map {
            let still_needed = registry.iter().any(|other| {
                other.is_live() && other.home == r.home && other.stream_map.contains(&s)
            });
            if !still_needed {
                self.cluster.stream(s).subscribers.write().remove(&r.home.0);
            }
        }
    }

    /// Number of live (non-retired) continuous queries.
    pub fn continuous_count(&self) -> usize {
        self.registry.read().iter().filter(|r| r.is_live()).count()
    }

    /// Plans `query`, through the plan cache while
    /// [`crate::EngineConfig::adaptive`] is on: within one statistics
    /// epoch the cached plan is what the planner would rebuild, and
    /// results are plan-independent either way.
    fn cached_plan(
        &self,
        text: &str,
        query: &Query,
        access: &NodeAccess<'_>,
        ctx: &ExecContext,
    ) -> Plan {
        if !self.cfg.adaptive {
            return plan_query(query, access, ctx);
        }
        let epoch = self.stats_epoch.current();
        let hit = self.plan_cache.get(text, epoch);
        self.cluster.obs().plan().record_cache(hit.is_some());
        hit.unwrap_or_else(|| {
            let plan = plan_query(query, access, ctx);
            self.plan_cache.insert(text, epoch, plan.clone());
            plan
        })
    }

    /// `r`'s current plan, derived against `ctx` on first use.
    fn plan_for(&self, r: &Registered, st: &mut QueryState, ctx: &ExecContext) -> Arc<Plan> {
        if let Some(plan) = &st.plan {
            return Arc::clone(plan);
        }
        let access = NodeAccess::new(&self.cluster, r.home);
        let plan = Arc::new(self.cached_plan(&r.text, &r.query, &access, ctx));
        if self.cfg.adaptive {
            st.feedback = Some(PlanFeedback::for_plan(&plan));
        }
        st.plan = Some(Arc::clone(&plan));
        plan
    }

    /// The network cost model behind adaptive execution-mode selection:
    /// modeled nanoseconds of in-place remote reads vs fork-join
    /// scatter/gather for this plan, under
    /// [`crate::EngineConfig::network`].
    ///
    /// In place, a `(nodes-1)/nodes` fraction of each step's estimated
    /// expansions lands on a remote shard and costs one one-sided read.
    /// Fork-join scatters each step's frontier to every node and gathers
    /// it back: two messages per node carrying that node's share of the
    /// rows. Both are *models* over the plan's frozen estimates, so the
    /// decision is deterministic and shared-nothing of wall clock.
    fn forkjoin_pays_off(&self, plan: &Plan) -> bool {
        const ROW_BYTES: usize = 16;
        let nodes = self.cluster.nodes() as u128;
        let net = &self.cfg.network;
        let mut inplace: u128 = 0;
        let mut forkjoin: u128 = 0;
        for s in &plan.steps {
            let est = s.estimate as u64;
            inplace += est as u128 * net.read_cost(ROW_BYTES) as u128 * (nodes - 1) / nodes;
            let share = ((est as usize).saturating_mul(ROW_BYTES) / nodes as usize).max(ROW_BYTES);
            forkjoin += 2 * nodes * net.message_cost(share) as u128;
        }
        forkjoin < inplace
    }

    /// How an evaluation of `query` under `plan` runs; pure. `firing` is
    /// true only for a scheduled firing of a registered query — probes
    /// and one-shots never advance retained delta state.
    ///
    /// Delta maintenance wins whenever it applies: the mode is on, the
    /// query is incrementalizable, and no fault plan is installed (faults
    /// can drop or degrade a firing's reads, which must not poison
    /// retained state — recompute is self-healing). Otherwise one node
    /// runs in place and a cluster follows `exec_mode`.
    fn choose_strategy(&self, query: &Query, plan: &Plan, firing: bool) -> Strategy {
        if firing
            && self.cfg.incremental
            && self.cfg.fault_plan.is_none()
            && wukong_query::incrementalizable(query)
        {
            return Strategy::Maintain;
        }
        let forkjoin = self.cluster.nodes() > 1
            && match self.cfg.exec_mode {
                ExecMode::InPlace => false,
                ExecMode::ForkJoin => true,
                ExecMode::Auto if self.cfg.adaptive => self.forkjoin_pays_off(plan),
                ExecMode::Auto => {
                    plan.has_index_scan() || plan.steps.first().is_some_and(|s| s.estimate > 10_000)
                }
            };
        if forkjoin {
            Strategy::ForkJoin
        } else {
            Strategy::InPlace
        }
    }

    /// The one evaluation path: times window extraction (`resolve`: what
    /// the caller still has to do to produce the plan and the strategy —
    /// planning included — plus the nanoseconds it already spent on it)
    /// and the chosen executor inside one end-to-end timer, and records
    /// the staged trace under `class`. `delta` is the retained state and
    /// registered ranges a [`Strategy::Maintain`] evaluation chains from.
    /// Spans attribute to whatever recorder the caller installed (none:
    /// no-ops). Safe to call from pool workers: everything read is the
    /// pre-taken context or interior-locked cluster state.
    fn evaluate<P: Borrow<Plan>>(
        &self,
        query: &Query,
        home: NodeId,
        class: &str,
        ctx: &ExecContext,
        delta: Option<(&mut Option<DeltaState>, &[Timestamp])>,
        resolve: impl FnOnce() -> (P, Strategy, u64),
    ) -> Evaluated {
        let mut timer = TaskTimer::start();
        let mut stages = StageTrace::new();
        let mut fanout = Vec::new();
        let t0 = timer.total_ns();
        let we_span = trace::scoped_span(Stage::WindowExtract);
        let (plan, strategy, spent_ns) = resolve();
        drop(we_span);
        timer.charge(spent_ns);
        stages.add(Stage::WindowExtract, timer.total_ns().saturating_sub(t0));
        let plan = plan.borrow();
        let obs = self.cluster.obs();
        let lit = StringLiteralResolver(self.strings());
        if strategy != Strategy::Maintain
            && self.cfg.adaptive
            && self.cfg.exec_mode == ExecMode::Auto
        {
            obs.plan().record_mode(strategy == Strategy::ForkJoin);
        }
        let results = match strategy {
            Strategy::InPlace | Strategy::ForkJoin => {
                // One step loop either way; fork-join only swaps in its
                // partitioned expansion of each step.
                let access = NodeAccess::new(&self.cluster, home);
                let mut unreachable = Vec::new();
                let mut fork = (strategy == Strategy::ForkJoin).then(|| {
                    let cores = self.cfg.cores_per_query;
                    forkjoin::partitioned(&self.cluster, home, cores, ctx, &mut unreachable)
                });
                let mut results = wukong_query::execute_with_fanout(
                    query,
                    plan,
                    ctx,
                    &access,
                    &lit,
                    &mut timer,
                    &mut stages,
                    &mut fanout,
                    fork.as_mut().map(|f| f as wukong_query::Fork),
                );
                drop(fork);
                forkjoin::mark_unreachable(&self.cluster, unreachable, &mut results);
                // The modeled work metric, recorded for every in-place
                // execution (a forked one reports no fan-out) so static
                // and adaptive runs expose comparable plan-quality numbers.
                obs.plan()
                    .record_edges(fanout.iter().map(|&(_, out)| out).sum());
                results
            }
            Strategy::Maintain => {
                // Retract the expired prefix of the retained rows, derive
                // the inserted suffix from the delta slices, finalize the
                // state — instead of re-running the full scan/join.
                let (state, ranges) = delta.expect("only firings that own delta state maintain");
                let access = NodeAccess::new(&self.cluster, home);
                let (results, stats) = wukong_query::incremental::maintain(
                    query,
                    plan,
                    state,
                    ctx,
                    ranges,
                    &access,
                    &lit,
                    &mut timer,
                    &mut stages,
                );
                obs.incremental().record_maintained(
                    stats.rebuilt,
                    stats.rows_reused,
                    stats.rows_recomputed,
                    stats.rows_retracted,
                );
                results
            }
        };
        let total_ns = timer.total_ns();
        obs.record_query(class, &stages, total_ns);
        Evaluated {
            results,
            latency_ms: total_ns as f64 / 1e6,
            stages,
            fanout,
        }
    }

    /// Synthesizes a feedback observation for a maintained firing by
    /// probing the store for each step's *current* anchor cardinality —
    /// delta maintenance skips the step loop, so probing is the only way
    /// estimate drift stays observable. Constant anchors and index scans
    /// probe the same keys the planner estimated (index probes apply the
    /// planner's 4× multiplier so an unchanged store reads as on-model);
    /// variable-anchored steps have no probeable key and report no
    /// observation (`(0, 0)` is skipped by the detector).
    fn probe_fanout(&self, home: NodeId, plan: &Plan, ctx: &ExecContext) -> Vec<(u64, u64)> {
        let access = NodeAccess::new(&self.cluster, home);
        plan.steps
            .iter()
            .map(|step| {
                let p = &step.pattern;
                let probe = |key: Key| access.estimate(key, p.graph, ctx) as u64;
                match step.anchoring() {
                    Some((Term::Const(c), _, dir)) => (1, probe(Key::new(c, p.p, dir))),
                    Some((Term::Var(_), ..)) => (0, 0),
                    None => (1, probe(Key::index(p.p, Dir::Out)).max(1).saturating_mul(4)),
                }
            })
            .collect()
    }

    /// Feeds one firing's fan-out into the query's drift detector.
    /// Returns `true` when the detector trips (the caller re-plans).
    /// Serialized by the caller in window order, so trip points are
    /// deterministic.
    fn observe_feedback(&self, st: &mut QueryState, fanout: &[(u64, u64)]) -> bool {
        let Some(fb) = st.feedback.as_mut() else {
            return false;
        };
        let before = fb.drifted_firings();
        let trip = fb.observe(fanout, &wukong_query::DriftPolicy::default());
        self.cluster
            .obs()
            .plan()
            .record_feedback(fb.drifted_firings() > before);
        trip
    }

    /// Re-derives `r`'s plan against current statistics (a drift trip, or
    /// the [`WukongS::force_replan`] test hook). The new plan lands in
    /// the cache at the current epoch, feedback restarts clean, and any
    /// retained delta state is dropped — the next maintained firing
    /// rebuilds under the new plan, recomputing PR-4 death timestamps
    /// from the same contributing edges, so the firing sequence is
    /// unchanged. The re-planning pause is traced as [`Stage::Replan`]
    /// under the query's class, outside any firing's end-to-end latency.
    fn replan(&self, r: &Registered, st: &mut QueryState, ctx: &ExecContext, fid: FiringId) {
        let t0 = std::time::Instant::now();
        let access = NodeAccess::new(&self.cluster, r.home);
        let plan = plan_query(&r.query, &access, ctx);
        self.plan_cache
            .insert(&r.text, self.stats_epoch.current(), plan.clone());
        st.feedback = Some(PlanFeedback::for_plan(&plan));
        st.plan = Some(Arc::new(plan));
        let obs = self.cluster.obs();
        if st.drop_delta() {
            obs.plan().record_delta_rebuild();
        }
        obs.plan().record_replan();
        obs.record_query_stage(&r.class, Stage::Replan, t0.elapsed().as_nanos() as u64);
        // A drift trip is an anomaly worth a black box: the dump carries
        // the firing whose feedback tripped it (NONE for forced re-plans).
        self.tracer().anomaly(Marker::Replan, fid, BatchId::NONE, 0);
    }

    /// Forces an immediate re-plan of registered query `id` against the
    /// current stable snapshot — the hook behind the planner equivalence
    /// battery: a mid-stream plan switch must not change any subsequent
    /// firing. Works regardless of [`crate::EngineConfig::adaptive`].
    pub fn force_replan(&self, id: ContinuousId) {
        let r = Arc::clone(&self.registry.read()[id]);
        if !r.is_live() {
            return;
        }
        let (stable, sn) = self.pipeline.lock().coordinator.visibility();
        let ctx = r.current_windows(&stable, sn);
        self.replan(&r, &mut r.state.lock(), &ctx, FiringId::NONE);
    }

    /// The batch-grid lineage of one firing: every sealed batch a fired
    /// window consumed, enumerated as the multiples of each stream's
    /// batch interval inside `[lo, hi]`. Batch IDs are a pure function of
    /// `(stream, timestamp)`, so the lineage is exact without retaining
    /// any per-batch state — and identical across recovery replays.
    fn lineage_of(&self, windows: &[WindowInstance]) -> Vec<BatchId> {
        let streams = self.cluster.streams();
        // A window's first grid point and the grid's step.
        let grid = |w: &WindowInstance| {
            let interval = streams[w.stream.0 as usize].schema.batch_interval_ms;
            let interval = interval.max(1);
            (w.lo.div_ceil(interval) * interval, interval)
        };
        // One past the cap is enough for `mint_firing` to set the
        // truncation flag; no point enumerating further.
        let cap = TraceRecorder::LINEAGE_CAP + 1;
        let points = |w: &WindowInstance| match grid(w) {
            (first, _) if first > w.hi => 0,
            (first, interval) => ((w.hi - first) / interval + 1) as usize,
        };
        let total: usize = windows.iter().map(points).sum();
        let mut out = Vec::with_capacity(total.min(cap));
        for w in windows {
            let (first, interval) = grid(w);
            let room = cap - out.len();
            let grid_points = (first..=w.hi).step_by(interval as usize).take(room);
            out.extend(grid_points.map(|ts| BatchId::mint(w.stream.0, ts)));
        }
        out
    }

    /// Fires every continuous query whose next windows are covered by the
    /// stable VTS — the data-driven execution model (§4.3).
    ///
    /// Queries fire in registration order (CONSTRUCT-derived data feeds
    /// downstream consumers deterministically), but one query's batch of
    /// ready windows executes *in parallel* on its home node's worker
    /// pool, all against the same visibility snapshot. Firing order,
    /// result rows, and CONSTRUCT emissions are identical for any
    /// `worker_threads` value (DESIGN.md §9).
    pub fn fire_ready(&self) -> Vec<Firing> {
        let (stable, quarantined) = {
            let pl = self.pipeline.lock();
            (pl.coordinator.stable_vts().clone(), pl.quarantined_nodes())
        };
        let registry: Vec<Arc<Registered>> = self.registry.read().clone();
        let tracer = Arc::clone(self.tracer());
        let mut out = Vec::new();
        for (id, r) in registry.iter().enumerate().filter(|(_, r)| r.is_live()) {
            // Gather every window batch this query can fire, each tagged
            // with its *assigned* snapshot — the epoch the SN-VTS plan
            // gave the window's end, not the stable SN of the moment the
            // firing happens to run. Faults delay firings; executing at
            // the fire-time snapshot would make rows depend on *when* the
            // window fired (more data visible at a later SN), a silent
            // divergence no marker explains. Assigned-snapshot execution
            // makes every firing's rows a pure function of the window
            // (DESIGN.md §13). A window whose epoch has not retired yet
            // is held for a later round: its snapshot is still being
            // inserted, so reading it would race the injectors.
            let pl = self.pipeline.lock();
            let mut st = r.state.lock();
            let cur_sn = pl.coordinator.stable_sn();
            let mut ready = Vec::with_capacity(st.window.ready_count(&stable));
            while st.window.ready(&stable) {
                let sn = assigned_sn(&pl.coordinator, &r.stream_map, st.window.next_fire())
                    .unwrap_or(cur_sn);
                if sn > cur_sn {
                    // Window held: its assigned epoch has not retired
                    // yet. A point marker records the hold so stalled
                    // firings are visible in the flight recorder.
                    tracer.marker(Marker::Hold, FiringId::NONE, BatchId::NONE, sn.0);
                    break;
                }
                let windows = st.window.fire().into_iter().map(instance).collect();
                let ctx = ExecContext { sn, windows };
                ready.push(ReadyFiring {
                    ctx,
                    fid: FiringId::NONE,
                    extract_ns: 0,
                });
            }
            r.publish_cursor(&st);
            drop(pl);
            let Some(first) = ready.first_mut() else {
                continue;
            };
            // One plan and one strategy for the whole batch (re-plans land
            // in the emit loop). Dispatch depends on the strategy, so this
            // runs ahead of the first firing's timer and is charged to its
            // window extraction — where a cold query's planning counts.
            let t_plan = std::time::Instant::now();
            let plan = self.plan_for(r, &mut st, &first.ctx);
            let strategy = self.choose_strategy(&r.query, &plan, true);
            first.extract_ns = t_plan.elapsed().as_nanos() as u64;
            // Mint causal firing IDs serially, in window order, before
            // any parallel execution — IDs (and dump lineage) are
            // deterministic at every worker count. Minting happens even
            // with tracing off so results never depend on the flag.
            for f in &mut ready {
                let ws = &f.ctx.windows;
                let windows = ws.iter().map(|w| (w.stream.0, w.lo, w.hi)).collect();
                let class = Arc::clone(&r.class);
                f.fid = tracer.mint_firing(class, windows, f.ctx.sn.0, self.lineage_of(ws));
            }
            let run_one =
                |f: ReadyFiring, delta: Option<(&mut Option<DeltaState>, &[Timestamp])>| {
                    let run = trace::with_recorder(&tracer, f.fid, BatchId::NONE, || {
                        let resolved = || (&*plan, strategy, f.extract_ns);
                        self.evaluate(&r.query, r.home, &r.class, &f.ctx, delta, resolved)
                    });
                    (f, run)
                };
            let executed: Vec<(ReadyFiring, Evaluated)> = if strategy == Strategy::Maintain {
                // Delta maintenance chains state from window to window,
                // so a maintained query's batch runs serially in window
                // order — identical at any worker count — under the
                // query-state guard it was drained with.
                let (delta, ranges) = (&mut st.delta, &r.ranges[..]);
                let runs = ready
                    .into_iter()
                    .map(|f| run_one(f, Some((&mut *delta, ranges))));
                let runs = runs.collect();
                drop(st);
                runs
            } else {
                drop(st);
                if self.cfg.incremental {
                    // The mode is on but this query recomputes (plan not
                    // incrementalizable, or a fault plan is installed).
                    let inc = self.cluster.obs().incremental();
                    ready.iter().for_each(|_| inc.record_fallback());
                }
                self.cluster
                    .pool(r.home)
                    .map(ready, |_, f| run_one(f, None))
            };
            // CONSTRUCT feeding, firing emission, and cardinality
            // feedback stay serialized on the coordinator side, in
            // window order — feedback order (and thus every re-plan
            // point) is independent of the worker count. The query-state
            // guard is re-taken per step and never held across
            // `degrade_and_track` or the CONSTRUCT `ingest`.
            let mut replanned_in_batch = false;
            for (f, mut run) in executed {
                let window_end = f.ctx.windows.first().map(|w| w.hi).unwrap_or(0);
                if self.cfg.adaptive && !replanned_in_batch {
                    // Firings executed after a mid-batch re-plan still
                    // ran the *old* plan; observing them against the new
                    // estimates would be meaningless, so feedback skips
                    // the rest of this batch.
                    let observed = if strategy == Strategy::Maintain {
                        self.probe_fanout(r.home, &plan, &f.ctx)
                    } else {
                        std::mem::take(&mut run.fanout)
                    };
                    if !observed.is_empty() {
                        let mut st = r.state.lock();
                        if self.observe_feedback(&mut st, &observed) {
                            self.replan(r, &mut st, &f.ctx, f.fid);
                            replanned_in_batch = true;
                        }
                    }
                }
                self.degrade_and_track(&f.ctx.windows, &mut run.results, run.latency_ms, f.fid);
                tracer.debug_assert_depth_zero(&r.class);
                // CONSTRUCT firings feed their derived stream with
                // IStream semantics: only rows new relative to the
                // previous firing are instantiated, so sliding windows do
                // not re-emit their overlap.
                if let Some(target) = r.construct_target {
                    for t in Self::istream_triples(r, &run.results) {
                        self.ingest(target, t, window_end);
                    }
                }
                if !quarantined.is_empty() {
                    // Containment marker: the firing executed against a
                    // visibility snapshot pinned below every quarantined
                    // shard's poisoned point, and says so (DESIGN.md §13).
                    run.results.quarantined_shards = quarantined.clone();
                }
                out.push(Firing {
                    query: id,
                    // A named query's class *is* its name.
                    name: r.query.name.as_ref().map(|_| Arc::clone(&r.class)),
                    window_end,
                    results: run.results,
                    latency_ms: run.latency_ms,
                    stages: run.stages,
                });
            }
        }
        #[cfg(debug_assertions)]
        self.assert_scrub_clean("fire_ready");
        out
    }

    /// Instantiates `r`'s CONSTRUCT template over the rows of `results`
    /// the previous firing did not emit, and remembers this firing's rows.
    /// The query-state lock is released before the caller ingests.
    fn istream_triples(r: &Registered, results: &ResultSet) -> Vec<Triple> {
        let mut st = r.state.lock();
        let mut triples = Vec::new();
        for row in results
            .rows
            .iter()
            .filter(|row| !st.last_emitted.contains(*row))
        {
            for t in &r.query.construct {
                let resolve = |term: Term| match term {
                    Term::Const(c) => Some(c),
                    Term::Var(v) => {
                        let col = r
                            .query
                            .select
                            .iter()
                            .position(|&s| s == v)
                            .expect("template vars are selected");
                        let val = row[col];
                        (val.0 != u64::MAX).then_some(val)
                    }
                };
                if let (Some(ts), Some(to)) = (resolve(t.s), resolve(t.o)) {
                    triples.push(Triple::new(ts, t.p, to));
                }
            }
        }
        st.last_emitted = results.rows.iter().cloned().collect();
        triples
    }

    /// Exact staleness accounting for one firing: if any consumed window
    /// covers a batch the shedder dropped tuples from (and has not yet
    /// replayed), the firing's result carries a `degraded` marker with
    /// the precise shed count and window tally. Also feeds the firing's
    /// latency to the degradation state machine.
    fn degrade_and_track(
        &self,
        windows: &[WindowInstance],
        results: &mut ResultSet,
        latency_ms: f64,
        fid: FiringId,
    ) {
        let mut pl = self.pipeline.lock();
        let mut tuples_shed = 0u64;
        let mut windows_affected = 0u32;
        let mut windows_aged = 0u32;
        for w in windows {
            let n = pl.shedder.outstanding_in(w.stream, w.lo, w.hi);
            if n > 0 {
                tuples_shed += n;
                windows_affected += 1;
            }
            // Aging: a window that reaches below any node's transient
            // eviction watermark fired too far behind stream time (an
            // outage, a recovery replay, a clock jump) and may be
            // missing aged-out rows. On-cadence firings never trip this
            // — GC keeps `gc_slack_ms` of headroom behind the widest
            // window — so the marker singles out exactly the delayed
            // firings whose retention ran out.
            let stream = self.cluster.stream(w.stream.0 as usize);
            if (0..self.cluster.nodes()).any(|n| stream.transients[n].read().evicted_upto() > w.lo)
            {
                windows_aged += 1;
            }
        }
        if tuples_shed > 0 || windows_aged > 0 {
            results.degraded = Some(Degraded {
                tuples_shed,
                windows_affected,
                windows_aged,
            });
            self.cluster.obs().overload().inc_degraded_firing();
        }
        self.track_latency(&mut pl, latency_ms, fid);
    }

    /// Executes a registered query once against its *current* windows
    /// without advancing its firing cursor — the building block of the
    /// throughput experiments, where emulated clients re-execute shared
    /// query classes as fast as the engine allows (§6.6).
    /// Executing a retired query returns an empty result.
    pub fn execute_registered(&self, id: ContinuousId) -> (ResultSet, f64) {
        let r = Arc::clone(&self.registry.read()[id]);
        if !r.is_live() {
            return (ResultSet::empty(Vec::new()), 0.0);
        }
        let (stable, sn) = self.pipeline.lock().coordinator.visibility();
        let ctx = r.current_windows(&stable, sn);
        let run = trace::with_recorder(self.tracer(), FiringId::NONE, BatchId::NONE, || {
            self.evaluate(&r.query, r.home, &r.class, &ctx, None, || {
                let plan = self.plan_for(&r, &mut r.state.lock(), &ctx);
                let strategy = self.choose_strategy(&r.query, &plan, false);
                (plan, strategy, 0)
            })
        });
        (run.results, run.latency_ms)
    }

    /// Runs a one-shot query immediately over the stable snapshot.
    ///
    /// One-shot queries normally read only the stored graph; a one-shot
    /// may however declare stream windows (`FROM <stream> [RANGE … STEP …]`)
    /// to read the *current* window of a stream once — the time-scoped
    /// one-shot of the paper's footnote 10 (Time-ontology support). Such
    /// windows end at the stream's stable VTS entry.
    pub fn one_shot(&self, text: &str) -> Result<(ResultSet, f64), QueryError> {
        let query = parse_query(self.strings(), text)?;
        if query.kind != QueryKind::OneShot {
            return Err(QueryError::Unsupported(
                "use register_continuous() for REGISTER QUERY".into(),
            ));
        }

        let (ctx, quarantined) = {
            let pl = self.pipeline.lock();
            // Admission control: while the engine sheds load, one-shot
            // work is turned away before continuous queries degrade —
            // one-shots have no freshness contract and can retry later
            // (DESIGN.md §11). Unbounded engines never reject.
            if self.cfg.ingest_budget.is_some() && pl.overload != OverloadState::Normal {
                self.cluster.obs().overload().inc_admission_rejected();
                return Err(QueryError::Overloaded(
                    "the engine is shedding load; retry after catch-up".into(),
                ));
            }
            if query.streams.is_empty() && query.touches_stream() {
                return Err(QueryError::MissingWindow(
                    "one-shot GRAPH <stream> patterns need FROM windows".into(),
                ));
            }
            // Declared windows end at the stable VTS.
            let stable = pl.coordinator.stable_vts();
            let mut windows = Vec::with_capacity(query.streams.len());
            for (name, spec) in &query.streams {
                let s = self.resolve_stream(name)?;
                windows.push(window_at(s, spec.range_ms, stable.get(s)));
            }
            let sn = pl.coordinator.stable_sn();
            (ExecContext { sn, windows }, pl.quarantined_nodes())
        };
        let home = self.home_for(&query);
        let class = query.name.as_deref().unwrap_or("one-shot");
        // No recorder scope: a light one-shot pays for no spans. Bursts
        // re-submit identical texts many times a second, hence the cache.
        let mut run = self.evaluate(&query, home, class, &ctx, None, || {
            let access = NodeAccess::new(&self.cluster, home);
            let plan = self.cached_plan(text, &query, &access, &ctx);
            let strategy = self.choose_strategy(&query, &plan, false);
            (plan, strategy, 0)
        });
        if !quarantined.is_empty() {
            run.results.quarantined_shards = quarantined;
        }
        Ok((run.results, run.latency_ms))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use wukong_net::FaultPlan;
    use wukong_stream::StreamSchema;

    /// A query naming more distinct variables than `Query::var_count`
    /// can count is an error, not a panic in the planner.
    #[test]
    fn one_shot_rejects_too_many_variables() {
        let engine = WukongS::new(EngineConfig::single_node());
        let chain: Vec<String> = (1..257).map(|i| format!("?V{} p ?V{i}", i - 1)).collect();
        let text = format!("SELECT ?V0 WHERE {{ {} }}", chain.join(" . "));
        let got = engine.one_shot(&text);
        assert!(matches!(got, Err(QueryError::Unsupported(_))), "{got:?}");
    }

    /// Every `ExecMode × adaptive × incremental × fault plan × nodes {1, 8}
    /// × {incrementalizable, not}` cell, for firings and for probes.
    #[test]
    fn choose_strategy_reproduces_the_decision_table() {
        use Strategy::{ForkJoin, InPlace, Maintain};
        // An unanchored stream-only query plans an index scan; joining the
        // stored graph makes the second one non-incrementalizable.
        let streaming = "REGISTER QUERY a SELECT ?X ?Z FROM PO [RANGE 1s STEP 1s] \
                         WHERE { GRAPH PO { ?X po ?Z } }";
        let joined = "REGISTER QUERY b SELECT ?X ?Z FROM PO [RANGE 1s STEP 1s] \
                      WHERE { GRAPH PO { ?X po ?Z } . ?X fo ?Y }";
        let modes = [ExecMode::InPlace, ExecMode::ForkJoin, ExecMode::Auto];
        for (mode, nodes) in modes.into_iter().flat_map(|m| [(m, 1), (m, 8)]) {
            for bits in 0..8u8 {
                let (adaptive, incremental, faulty) = (bits & 1 != 0, bits & 2 != 0, bits & 4 != 0);
                let engine = WukongS::new(EngineConfig {
                    exec_mode: mode,
                    adaptive,
                    incremental,
                    fault_plan: faulty.then(|| FaultPlan::seeded(7)),
                    ..EngineConfig::cluster(nodes)
                });
                engine.register_stream(StreamSchema::timeless(StreamId(0), "PO", 100));
                // Without delta maintenance: the cost model never pays for
                // scatter/gather on an empty store's tiny estimates; the
                // static heuristic forks every index scan.
                let recompute = match (nodes, mode, adaptive) {
                    (1, _, _) | (_, ExecMode::InPlace, _) | (_, ExecMode::Auto, true) => InPlace,
                    (_, ExecMode::ForkJoin, _) | (_, ExecMode::Auto, false) => ForkJoin,
                };
                for (text, incrementalizable) in [(streaming, true), (joined, false)] {
                    let query = parse_query(engine.strings(), text).expect("parses");
                    assert_eq!(wukong_query::incrementalizable(&query), incrementalizable);
                    let ctx = ExecContext {
                        sn: SnapshotId(0),
                        windows: vec![window_at(0, 1_000, 1_000)],
                    };
                    let access = NodeAccess::new(&engine.cluster, NodeId(0));
                    let plan = plan_query(&query, &access, &ctx);
                    assert!(plan.has_index_scan());
                    let firing = if incremental && !faulty && incrementalizable {
                        Maintain
                    } else {
                        recompute
                    };
                    let case =
                        format!("{mode:?} nodes={nodes} bits={bits:03b} {incrementalizable}");
                    assert_eq!(
                        engine.choose_strategy(&query, &plan, true),
                        firing,
                        "{case}"
                    );
                    assert_eq!(
                        engine.choose_strategy(&query, &plan, false),
                        recompute,
                        "{case}"
                    );
                }
            }
        }
    }
}
