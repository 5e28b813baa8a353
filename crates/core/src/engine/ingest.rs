//! The ingest pipeline: the [`Pipeline`] and everything that runs under its
//! lock — adaptor sealing, bounded-ingest shedding, catch-up replay,
//! dispatch → install → index, coordinator bookkeeping and GC.
//!
//! The query side is consulted through three named questions only
//! (answered in `firing`): `min_assigned_sn`, `widest_range` and
//! `drop_delta_reading`.

use super::{OverloadState, WukongS};
use crate::checkpoint::LoggedBatch;
use crate::scrub::ScrubViolation;
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;
use wukong_net::{NodeId, TaskTimer};
use wukong_obs::trace::{self, BatchId, FiringId, Marker};
use wukong_obs::{Stage, StageTrace};
use wukong_rdf::{StreamId, StreamTuple, Timestamp, Triple};
use wukong_store::stream_index::Sealed;
use wukong_store::{gc, SnapshotId};
use wukong_stream::{
    apply_index_updates, dispatch, install_sub_batch, Adaptor, Batch, Coordinator, InjectStats,
    Installed, ShedRecord, Shedder, StreamSchema, SubBatch,
};

/// Simulated per-batch logging delay under fault tolerance (§6.8 measures
/// ≈ 0.3 ms per batch on the paper's testbed).
const LOGGING_DELAY_NS: u64 = 300_000;

/// Tuples per piece. An engine without an ingest budget installs each
/// open batch a piece at a time while it fills, so sealing installs at
/// most `PIECE_TUPLES - 1` tuples per stream (DESIGN.md §5).
const PIECE_TUPLES: usize = 128;

/// How many processed batches of one stream advance the statistics epoch
/// (the plan cache's freshness key). Batch processing is deterministic,
/// so epoch advancement — and therefore every cache hit/miss and re-plan
/// point — replays identically under the same workload.
const STATS_EPOCH_BATCHES: u64 = 32;

/// Seed of the sample-within-batch shed mask. Shed decisions are a pure
/// function of (seed, stream, batch timestamp), so every run reproduces
/// the same shed log bit for bit.
const SHED_SEED: u64 = 42;

/// The streaming pipeline's state, guarded by one mutex on [`WukongS`].
pub(super) struct Pipeline {
    adaptors: Vec<Adaptor>,
    /// The SN-VTS coordinator; sibling modules read visibility, the
    /// stable VTS and the snapshot plan off it.
    pub(super) coordinator: Coordinator,
    /// Stalled batches and pieces per stream, FIFO (injection order
    /// within a stream is a consistency requirement, §4.3).
    pending: Vec<VecDeque<Batch>>,
    /// Per stream, the batch whose pieces are installing.
    open: Vec<OpenBatch>,
    /// Per stream, the tuples of pieces enqueued ahead of their batch's
    /// seal, for the batch's one log entry (fault tolerance).
    unlogged: Vec<Vec<StreamTuple>>,
    /// Coalesced clock jumps per stream, FIFO: `(after, to)` pairs from
    /// the adaptor, applied to the coordinator once the batch ending
    /// `after` is inserted on every node (see `drain_pending`).
    clock_jumps: Vec<VecDeque<(Timestamp, Timestamp)>>,
    batches_done: Vec<u64>,
    inject_stats: Vec<InjectStats>,
    /// Injection-time consolidation horizon (stable SN − 1).
    merge_upto: Option<SnapshotId>,
    /// The newest snapshot any batch has been installed under; the floor
    /// for `catch_up`'s replay (see there).
    newest_install_sn: SnapshotId,
    /// Batches logged since the last checkpoint (fault tolerance).
    log: Vec<LoggedBatch>,
    /// Bounded-ingest shedder (inert while `ingest_budget` is `None`).
    pub(super) shedder: Shedder,
    /// Degradation state machine (DESIGN.md §11).
    pub(super) overload: OverloadState,
    /// Consecutive continuous firings over the latency budget.
    miss_streak: u32,
    /// Stream time when a latency-miss streak tripped the state machine
    /// (shed-driven trips anchor on the shedder's `last_shed_ts`).
    tripped_at: Option<Timestamp>,
    /// Per-node quarantine flags (DESIGN.md §13): a node whose sub-batch
    /// failed its install-site checksum stops installing and reporting —
    /// its local VTS pins exactly like a dead node's, so no firing ever
    /// advances past the poisoned point — until rebuild-from-checkpoint.
    quarantined: Vec<bool>,
    /// Conservation ledger, ingest side: tuples that entered the
    /// pipeline (scrubber invariant, DESIGN.md §13).
    ledger_in: u64,
    /// Conservation ledger, egress side: tuples handed to per-node
    /// install (or consumed by dedup/rejection) by `process_batch`.
    ledger_installed: u64,
    /// Per-node local VTS entries at the previous scrub pass, for the
    /// monotonicity check.
    scrub_last: Vec<Vec<Timestamp>>,
}

/// What one stream's batch has installed so far: each node's open
/// stream-index batch and transient slice, which the batch's seal moves
/// into the stream's rings, which nodes received every piece so far, and
/// the per-piece times Table 6 reports once for the batch, as their sums.
#[derive(Default)]
struct OpenBatch {
    nodes: Vec<Installed>,
    /// Per node, whether it received, passed the checksum of and
    /// installed every piece so far: the AND over the pieces. A node that
    /// misses one installs no later piece, and the seal drops its share.
    delivered: Vec<bool>,
    dispatch_ns: u64,
    /// Phase 2's time (part of injection).
    phase2_ns: u64,
}

impl OpenBatch {
    fn new(nodes: usize) -> Self {
        OpenBatch {
            nodes: (0..nodes).map(|_| Installed::default()).collect(),
            delivered: vec![true; nodes],
            dispatch_ns: 0,
            phase2_ns: 0,
        }
    }
}

impl Pipeline {
    /// An empty pipeline for a deployment configured by `cfg`.
    pub(super) fn new(cfg: &crate::config::EngineConfig) -> Self {
        Pipeline {
            adaptors: Vec::new(),
            coordinator: Coordinator::new(cfg.nodes, Vec::new(), cfg.staleness),
            pending: Vec::new(),
            open: Vec::new(),
            unlogged: Vec::new(),
            clock_jumps: Vec::new(),
            batches_done: Vec::new(),
            inject_stats: Vec::new(),
            merge_upto: None,
            newest_install_sn: SnapshotId::BASE,
            log: Vec::new(),
            shedder: Shedder::new(cfg.shed_policy, SHED_SEED),
            overload: OverloadState::Normal,
            miss_streak: 0,
            tripped_at: None,
            quarantined: vec![false; cfg.nodes],
            ledger_in: 0,
            ledger_installed: 0,
            scrub_last: vec![Vec::new(); cfg.nodes],
        }
    }

    /// Adds the per-stream pipeline state for a newly registered stream.
    pub(super) fn add_stream(&mut self, schema: StreamSchema) {
        self.coordinator.add_stream(schema.batch_interval_ms);
        self.adaptors.push(Adaptor::new(schema));
        self.pending.push(Default::default());
        self.open.push(OpenBatch::new(self.coordinator.nodes()));
        self.unlogged.push(Vec::new());
        self.clock_jumps.push(Default::default());
        self.batches_done.push(0);
        self.inject_stats.push(InjectStats::default());
    }

    /// Stream batches processed in total.
    pub(super) fn batches_processed(&self) -> u64 {
        self.batches_done.iter().sum()
    }

    /// Shards currently in quarantine, ascending.
    pub(super) fn quarantined_nodes(&self) -> Vec<u16> {
        self.quarantined
            .iter()
            .enumerate()
            .filter(|(_, &q)| q)
            .map(|(n, _)| n as u16)
            .collect()
    }

    /// The batches logged since the last drained checkpoint; `drain`
    /// empties the log (a durable checkpoint), otherwise it is copied.
    pub(super) fn logged(&mut self, drain: bool) -> Vec<LoggedBatch> {
        if drain {
            std::mem::take(&mut self.log)
        } else {
            self.log.clone()
        }
    }

    /// The pipeline half of [`WukongS::scrub`]: VTS monotonicity since
    /// the previous pass, stable ≤ min-local, tuple conservation.
    pub(super) fn check_invariants(&mut self, out: &mut Vec<ScrubViolation>) {
        let nodes = self.coordinator.nodes();
        for n in 0..nodes {
            let now = self.coordinator.local_vts(n).entries().to_vec();
            for (s, (&was, &cur)) in self.scrub_last[n].iter().zip(&now).enumerate() {
                if cur < was {
                    out.push(ScrubViolation::VtsRegression {
                        node: n as u16,
                        stream: s as u16,
                        was,
                        now: cur,
                    });
                }
            }
            self.scrub_last[n] = now;
        }
        for s in 0..self.coordinator.streams() {
            let stable = self.coordinator.stable_vts().get(s);
            let min_local = (0..nodes)
                .map(|n| self.coordinator.local_vts(n).get(s))
                .min()
                .unwrap_or(stable);
            if stable > min_local {
                out.push(ScrubViolation::StableAhead {
                    stream: s as u16,
                    stable,
                    min_local,
                });
            }
        }
        let pending: u64 = self
            .pending
            .iter()
            .flat_map(|q| q.iter())
            .map(|b| b.tuples.len() as u64)
            .sum();
        let shed = self.shedder.total_shed();
        if self.ledger_in != self.ledger_installed + pending + shed {
            out.push(ScrubViolation::ConservationMismatch {
                ingested: self.ledger_in,
                installed: self.ledger_installed,
                pending,
                shed,
            });
        }
    }

    /// Adaptors resume strictly after the batches a recovery replayed.
    pub(super) fn resume_adaptors(&mut self) {
        for (i, a) in self.adaptors.iter_mut().enumerate() {
            a.fast_forward(self.coordinator.stable_vts().get(i));
        }
    }
}

impl WukongS {
    /// Feeds one raw tuple into a stream, pumping any batches it seals.
    ///
    /// Streams share one time axis: observing time `ts` on any stream
    /// also heartbeats every other stream up to `ts` minus one of its
    /// batch intervals (the skew allowance), so quiet streams — e.g. a
    /// derived stream that has not emitted yet — keep sealing empty
    /// batches and never stall the SN-VTS plan (Fig. 11's injector
    /// stall). Tuples arriving within the allowance still land in an
    /// open batch.
    ///
    /// The open batch installs while it fills: every `PIECE_TUPLES`-th
    /// tuple hands the pipeline a piece, which installs at the batch's
    /// announced snapshot and stays invisible until the batch seals
    /// (DESIGN.md §5). Under a fault plan each piece is delivered,
    /// checked and deduplicated on its own, and a node reports the batch
    /// only if it installed every piece. An engine with an ingest budget
    /// cuts no pieces: the shedder sees whole, uninstalled batches
    /// (DESIGN.md §11).
    pub fn ingest(&self, stream: StreamId, triple: Triple, ts: Timestamp) {
        // Observed time drives the fault schedule: kills/restarts planned
        // at or before `ts` apply before this tuple's batches dispatch.
        self.cluster.fabric().advance_clock(ts);
        let mut pl = self.pipeline.lock();
        let s = stream.0 as usize;
        let mut sealed = pl.adaptors[s].push(triple, ts);
        for (i, a) in pl.adaptors.iter_mut().enumerate() {
            if i != s {
                let horizon = ts.saturating_sub(a.schema().batch_interval_ms);
                sealed.extend(a.advance_to(horizon));
            }
        }
        if self.cfg.ingest_budget.is_none() {
            sealed.extend(pl.adaptors[s].take_piece(PIECE_TUPLES));
        }
        self.pump(&mut pl, sealed);
    }

    /// The shared tail of `ingest` and `advance_time`: enqueue what sealed
    /// in cross-stream time order (snapshot assignment depends on it) and
    /// drive the pipeline until no stream can make progress.
    fn pump(&self, pl: &mut Pipeline, mut sealed: Vec<Batch>) {
        self.drain_adaptor_work(pl);
        sealed.sort_by_key(|b| b.timestamp);
        for b in sealed {
            self.enqueue_batch(pl, b);
        }
        self.drain_pending(pl);
        self.maybe_catch_up(pl);
    }

    /// Drains each adaptor's accumulated windowing/sealing time into its
    /// stream's `Adaptor` stage histogram, and its coalesced clock-jump
    /// count into the stream's injection stats.
    /// Runs on every ingested tuple, so it allocates nothing.
    fn drain_adaptor_work(&self, pl: &mut Pipeline) {
        for (i, a) in pl.adaptors.iter_mut().enumerate() {
            pl.inject_stats[i].clock_anomalies += a.take_clock_anomalies();
            pl.clock_jumps[i].extend(a.take_clock_jumps());
            let ns = a.take_work_ns();
            if ns > 0 {
                self.cluster
                    .obs()
                    .record_stream_stage(&a.schema().name, Stage::Adaptor, ns);
            }
        }
    }

    /// Advances every stream's clock to `ts`, sealing quiet batches (the
    /// heartbeat that keeps the VTS — and therefore visibility — moving).
    pub fn advance_time(&self, ts: Timestamp) {
        self.cluster.fabric().advance_clock(ts);
        let mut pl = self.pipeline.lock();
        let mut sealed = Vec::new();
        for a in &mut pl.adaptors {
            sealed.extend(a.advance_to(ts));
        }
        self.pump(&mut pl, sealed);
    }

    /// Raw arrival volume of a batch in its textual RDF form (Table 7
    /// compares the index against the data as it arrives on the wire:
    /// N-Triples-style lines with IRI framing and a timestamp).
    fn textual_bytes(&self, batch: &Batch) -> u64 {
        // Brackets, separators, timestamp digits.
        const FRAMING: u64 = 24;
        // Workload generators intern short local names; on the wire each
        // term carries its namespace IRI (LSBench's raw data averages
        // ~174 B/triple: 3.75 B triples = 653 GB raw, 6.1).
        const IRI_PREFIX: u64 = 30;
        // Both name tables locked once for the batch; lengths only.
        let names = self.strings().name_lens();
        let len = |l: Option<usize>| l.map_or(8, |l| l as u64);
        batch
            .tuples
            .iter()
            .map(|t| {
                len(names.entity(t.triple.s))
                    + len(names.predicate(t.triple.p))
                    + len(names.entity(t.triple.o))
                    + 3 * IRI_PREFIX
                    + FRAMING
            })
            .sum()
    }

    fn enqueue_batch(&self, pl: &mut Pipeline, batch: Batch) {
        let s = batch.stream.0 as usize;
        // First causal appearance of this batch's ID: a zero-width
        // Adaptor span marking seal → pipeline entry.
        let _seal_span = self
            .tracer()
            .span(Stage::Adaptor, FiringId::NONE, batch.id());
        // Log on arrival, not on processing: a batch stalled behind a
        // dead node's VTS entry must already be in the durable log, or a
        // crash during the outage loses it (§5 logs each batch as it
        // enters the pipeline). A batch is logged once, whole, when it
        // seals: its pieces' tuples wait for that, so a crash loses an
        // unsealed batch's pieces exactly as it loses the adaptor's
        // buffer.
        if self.cfg.fault_tolerance {
            let unlogged = &mut pl.unlogged[s];
            unlogged.extend_from_slice(&batch.tuples);
            if batch.last {
                let tuples = std::mem::take(unlogged);
                pl.log.push(LoggedBatch {
                    stream: s as u16,
                    timestamp: batch.timestamp,
                    tuples,
                });
                pl.inject_stats[s].inject_ns += LOGGING_DELAY_NS;
            }
        }
        pl.ledger_in += batch.tuples.len() as u64;
        pl.pending[s].push_back(batch);

        // Bounded ingest: enforce the per-stream budget over the pending
        // queue. Shed decisions are a pure function of queue occupancy
        // and the configured seed — never wall-clock latency — so the
        // shed log and every degraded marker are byte-identical across
        // runs and worker counts (DESIGN.md §11).
        let Some(budget) = self.cfg.ingest_budget else {
            return;
        };
        let t0 = std::time::Instant::now();
        let shed_log_before = pl.shedder.log().len();
        let shed = pl.shedder.enforce(&mut pl.pending[s], &budget);
        if shed > 0 {
            let overload = self.cluster.obs().overload();
            match pl.shedder.policy() {
                wukong_stream::ShedPolicy::DropOldestWindow => overload.inc_shed_drop_oldest(),
                wukong_stream::ShedPolicy::SampleWithinBatch => overload.inc_shed_sampled(),
            }
            overload.add_tuples_shed(shed);
            // Every shed event is a point marker joined on the victim
            // batch's causal ID; the episode *start* (the Normal →
            // Shedding transition) is the anomaly that freezes the
            // recorder into a black-box dump.
            let tracer = self.tracer();
            for rec in &pl.shedder.log()[shed_log_before..] {
                tracer.marker(Marker::Shed, FiringId::NONE, rec.batch, rec.tuples_shed);
            }
            if pl.overload == OverloadState::Normal {
                pl.overload = OverloadState::Shedding;
                overload.inc_state_transition();
                let first = pl.shedder.log()[shed_log_before..]
                    .first()
                    .map(|r| r.batch)
                    .unwrap_or(BatchId::NONE);
                tracer.anomaly(Marker::Shed, FiringId::NONE, first, shed);
            }
            let name = self.cluster.stream(s).schema.name.clone();
            self.cluster.obs().record_stream_stage(
                &name,
                Stage::Shed,
                t0.elapsed().as_nanos() as u64,
            );
        }
    }

    /// The engine-wide stream time: the furthest any stream's stable VTS
    /// entry has reached. Drives the deterministic catch-up trigger.
    fn stream_now(pl: &Pipeline) -> Timestamp {
        pl.coordinator
            .stable_vts()
            .entries()
            .iter()
            .copied()
            .max()
            .unwrap_or(0)
    }

    /// Leaves `Shedding` once the overload subsides: when stream time
    /// passes the last shed (or latency trip) by the configured quiet
    /// period and every node is reachable, replay the retained shed
    /// suffix and return to `Normal`. The trigger reads only stream time
    /// and shedder state, so it fires at the same point in every run.
    fn maybe_catch_up(&self, pl: &mut Pipeline) {
        if self.cfg.ingest_budget.is_none() || pl.overload != OverloadState::Shedding {
            return;
        }
        let now = Self::stream_now(pl);
        // The later of the last shed and the latency trip; a tripped
        // state without a recorded cause cannot linger.
        let anchor = pl.shedder.last_shed_ts().max(pl.tripped_at).unwrap_or(0);
        if now < anchor.saturating_add(self.cfg.overload.catchup_quiet_ms) {
            return;
        }
        // A replay inserts on every node; a dead or unreachable node
        // would miss its share, so wait the outage out.
        let fabric = self.cluster.fabric();
        if (0..self.cluster.nodes()).any(|n| !fabric.is_up(NodeId(n as u16))) {
            return;
        }
        self.catch_up(pl);
    }

    /// Shed-then-catch-up recovery: re-inserts every retained shed tuple
    /// at its original timestamp through the live path's install stage
    /// (`install_batch`, replication charges included). The coordinator,
    /// its at-least-once dedup, and the durable log are all bypassed —
    /// these batches already passed the pipeline once; this is repair,
    /// not re-ingestion. After the replay, windows covering the shed
    /// suffix are whole again: their firings byte-match a
    /// never-overloaded run (DESIGN.md §11).
    ///
    /// The replay becomes visible at the newest snapshot any live batch
    /// has been installed under, which is the stable snapshot or a
    /// planned one above it. Live batches keep installing under planned
    /// snapshots while the engine sheds, so a key they share with a shed
    /// tuple already holds appends newer than the stable snapshot; a
    /// replay tagged with the stable one would land behind them, out of
    /// snapshot order, and leave a mark consolidation cannot reach. A
    /// reader sees the same prefix either way: appends behind a newer
    /// mark are hidden until that snapshot is stable.
    fn catch_up(&self, pl: &mut Pipeline) {
        let t0 = std::time::Instant::now();
        let _span = self
            .tracer()
            .span(Stage::CatchUp, FiringId::NONE, BatchId::NONE);
        let overload = self.cluster.obs().overload();
        pl.overload = OverloadState::CatchUp;
        overload.inc_state_transition();

        let retained = pl.shedder.take_retained();
        let sn = pl.coordinator.stable_sn().max(pl.newest_install_sn);
        let nodes = self.cluster.nodes();
        let fabric = self.cluster.fabric();
        let mut scratch = TaskTimer::start();
        let mut replayed = 0u64;
        let mut touched: BTreeSet<usize> = BTreeSet::new();
        let everywhere = vec![true; nodes];
        for (stream_id, ts, tuples) in retained {
            let s = stream_id.0 as usize;
            touched.insert(s);
            replayed += tuples.len() as u64;
            let batch = Batch::sealed(stream_id, ts, tuples, 0);
            *self.cluster.stream(s).raw_bytes.write() += self.textual_bytes(&batch);
            let subs = dispatch(&batch, self.cluster.shard_map());
            let entry = NodeId((s % nodes) as u16);
            for sub in &subs {
                if sub.node != entry.0 && !sub.tuples.is_empty() {
                    fabric.charge_message(entry, NodeId(sub.node), sub.wire_bytes(), &mut scratch);
                }
            }
            // Every node is up (see `maybe_catch_up`), so every node
            // installs. The stats are dropped: Table 6 reports live
            // batches only.
            let mut open = OpenBatch::new(nodes).nodes;
            self.install_batch(pl, &batch, &subs, &everywhere, entry, sn, &mut open);
            self.seal_batch(s, batch.id(), open, &everywhere);
        }

        // A replay rewrites window history behind any maintained query
        // reading a replayed stream: its retained delta rows were derived
        // from the shed (incomplete) windows. Drop the state so the next
        // firing rebuilds from the now-complete store — recompute and
        // incremental stay byte-identical across the shed gap.
        if self.cfg.incremental {
            for _ in 0..self.drop_delta_reading(&touched) {
                overload.inc_incremental_rebuild();
            }
        }

        overload.inc_catchup_replay();
        overload.add_replayed_tuples(replayed);
        pl.overload = OverloadState::Normal;
        pl.miss_streak = 0;
        pl.tripped_at = None;
        overload.inc_state_transition();
        self.cluster.obs().record_stream_stage(
            "catch-up",
            Stage::CatchUp,
            t0.elapsed().as_nanos() as u64,
        );
    }

    /// The consolidation horizon actually applied to installs: the raw
    /// stable-SN horizon, clamped at every un-fired window's *assigned*
    /// snapshot. Consolidation drops a key's snapshot marks, which makes
    /// those appends visible at **every** snapshot — so merging past a
    /// window's assigned snapshot would inflate its historical read and
    /// its rows would stop being a pure function of the window (the
    /// assigned-snapshot firing contract, DESIGN.md §13). On-cadence
    /// windows sit at most one epoch behind the horizon, so the clamp
    /// costs nothing in steady state; it only holds consolidation back
    /// while an outage or a recovery replay has delayed firings.
    fn clamped_merge(&self, pl: &Pipeline) -> Option<SnapshotId> {
        let raw = pl.merge_upto?;
        // A firing reads at the max assigned epoch over its streams;
        // merging up to exactly that snapshot keeps the visible set
        // unchanged (merged tags ⊆ tags the read covers).
        Some(
            self.min_assigned_sn(&pl.coordinator)
                .map_or(raw, |sn| raw.min(sn)),
        )
    }

    /// Processes pending batches until no stream can make progress.
    fn drain_pending(&self, pl: &mut Pipeline) {
        loop {
            let mut progressed = false;
            for s in 0..pl.pending.len() {
                progressed |= self.apply_clock_jumps(pl, s);
                while let Some(front) = pl.pending[s].front() {
                    let sn = pl.coordinator.snapshot_for(s, front.timestamp);
                    match sn {
                        Some(sn) => {
                            let batch = pl.pending[s].pop_front().expect("front checked");
                            self.process_batch(pl, batch, sn);
                            progressed = true;
                        }
                        None => break,
                    }
                }
            }
            if !progressed {
                return;
            }
        }
    }

    /// Applies stream `s`'s coalesced clock jumps that have become safe:
    /// a jump `(after, to)` promises the adaptor sealed nothing strictly
    /// between `after` and `to`, so once the batch ending `after` is
    /// inserted on **every** node (a dead node catches up via log
    /// replay first — jumping its VTS over a batch it missed would make
    /// the redelivery dedup swallow real data), the skipped grid points
    /// are vacuously-empty insertions and the VTS may cross the gap.
    /// This is what un-stalls the SN-VTS plan after a quiet gap: its
    /// targets inside the gap can never be reached batch-by-batch.
    fn apply_clock_jumps(&self, pl: &mut Pipeline, s: usize) -> bool {
        let mut progressed = false;
        while let Some(&(after, to)) = pl.clock_jumps[s].front() {
            let reached =
                (0..pl.coordinator.nodes()).all(|n| pl.coordinator.local_vts(n).get(s) >= after);
            if !reached {
                break;
            }
            pl.clock_jumps[s].pop_front();
            let ev = pl.coordinator.advance_gap(s, to);
            if let Some(upto) = ev.consolidate_upto {
                pl.merge_upto = Some(upto);
            }
            progressed = true;
        }
        progressed
    }

    /// Processes one batch or piece at its announced snapshot `sn`: the
    /// batch checksum, the at-least-once suppression, then delivery and
    /// install into the stream's open batch (`deliver_piece`). The
    /// batch's last piece seals the open batch and reports it on every
    /// node that installed all of its pieces.
    fn process_batch(&self, pl: &mut Pipeline, batch: Batch, sn: SnapshotId) {
        let s = batch.stream.0 as usize;
        let bid = batch.id();
        let tracer = Arc::clone(self.tracer());
        // Scoped context for the whole batch path: fabric-level events
        // (dead-node drops, retry exhaustion) attribute to this batch.
        let _scope = trace::install_recorder(&tracer, FiringId::NONE, bid);
        // Conservation ledger: the batch leaves the pending queues here —
        // installed, dedup-suppressed, or rejected alike — so the egress
        // side counts before any early return (scrubber invariant,
        // DESIGN.md §13).
        pl.ledger_installed += batch.tuples.len() as u64;
        if !batch.verify() {
            // Batch-site integrity: a payload that no longer matches its
            // sealed checksum must never install anywhere. The whole batch
            // is lost on every node — its earlier pieces too — which
            // stalls the stream's VTS at the previous batch (detection
            // before emission), and recovery replays the pristine logged
            // copy.
            self.cluster.obs().integrity().inc_checksum_fail_batch();
            tracer.anomaly(Marker::ChecksumFail, FiringId::NONE, bid, 0);
            pl.open[s].delivered.fill(false);
        } else if batch.timestamp > 0 && pl.coordinator.stable_vts().get(s) >= batch.timestamp {
            // At-least-once suppression: a batch at or below the stream's
            // stable timestamp is already inserted on every node, so a
            // redelivery (upstream retry, log replay into a live engine)
            // must be a no-op.
            self.cluster.obs().faults().inc_dedup_suppressed();
            return;
        } else {
            self.deliver_piece(pl, &batch, sn);
        }
        pl.inject_stats[s].pieces += 1;
        if !batch.last {
            return;
        }
        let nodes = self.cluster.nodes();
        let OpenBatch {
            nodes: shares,
            delivered,
            dispatch_ns,
            phase2_ns,
        } = std::mem::replace(&mut pl.open[s], OpenBatch::new(nodes));
        let mut total = self.seal_batch(s, bid, shares, &delivered);
        total.inject_ns += phase2_ns;

        // Record this batch's staged breakdown under its stream's series.
        // Injection includes the fault-tolerance logging delay (it is
        // part of the injection path's latency, §6.8).
        let mut batch_trace = StageTrace::new();
        batch_trace.add(Stage::Dispatch, dispatch_ns);
        let logged_ns = if self.cfg.fault_tolerance {
            LOGGING_DELAY_NS
        } else {
            0
        };
        batch_trace.add(Stage::Injection, logged_ns + total.inject_ns);
        batch_trace.add(Stage::StreamIndex, total.index_ns);
        let stream = self.cluster.stream(s);
        self.cluster
            .obs()
            .record_stream(&stream.schema.name, &batch_trace);

        // Coordinator bookkeeping: per-node insertion reports. A node
        // that missed any piece of the batch reports nothing — its local
        // VTS stalls, the stable VTS (elementwise min) stalls with it,
        // and visibility correctly excludes the partial insertion.
        pl.inject_stats[s].add(&total);
        for node in (0..nodes).filter(|&n| delivered[n]) {
            let ev = pl.coordinator.on_batch_inserted(node, s, batch.timestamp);
            if let Some(upto) = ev.consolidate_upto {
                pl.merge_upto = Some(upto);
            }
        }

        // Periodic GC of this stream's transient slices and index batches.
        pl.batches_done[s] += 1;
        if pl.batches_done[s].is_multiple_of(self.cfg.gc_every_batches) {
            self.collect_garbage(pl, s);
        }
        // Advance the statistics epoch on the same deterministic cadence:
        // enough batches have landed that cached plans may be stale.
        if pl.batches_done[s].is_multiple_of(STATS_EPOCH_BATCHES) {
            self.stats_epoch.bump();
        }
    }

    /// Dispatches one verified batch or piece and installs it into the
    /// stream's open batch on every node that has received all of the
    /// batch's pieces so far and receives this one whole: a node missing
    /// from the open batch's mask, quarantined, dead, failing the
    /// install-site checksum or already holding the batch installs
    /// nothing and leaves the mask.
    fn deliver_piece(&self, pl: &mut Pipeline, batch: &Batch, sn: SnapshotId) {
        let s = batch.stream.0 as usize;
        let bid = batch.id();
        let tracer = self.tracer();
        let stream = self.cluster.stream(s);
        *stream.raw_bytes.write() += self.textual_bytes(batch);
        pl.inject_stats[s].discarded += batch.discarded;

        // Dispatch: the stream enters at one node; each non-empty remote
        // sub-batch costs a message (background cost, counted in fabric
        // metrics but not on any query's latency). Under a fault plan the
        // entry point fails over to the next live node, sub-batches go
        // through the lossy at-least-once path (dropped copies are
        // retransmitted, duplicate copies suppressed), and sub-batches
        // for dead nodes are lost until recovery replays the log.
        let dispatch_start = std::time::Instant::now();
        let dispatch_span = tracer.span(Stage::Dispatch, FiringId::NONE, bid);
        let mut subs = dispatch(batch, self.cluster.shard_map());
        let fabric = self.cluster.fabric();
        let nodes = self.cluster.nodes();
        let mut entry_idx = s % nodes;
        if !fabric.is_up(NodeId(entry_idx as u16)) {
            if let Some(live) = (0..nodes)
                .map(|k| (entry_idx + k) % nodes)
                .find(|&n| fabric.is_up(NodeId(n as u16)))
            {
                entry_idx = live;
            }
        }
        let entry = NodeId(entry_idx as u16);
        let mut scratch = TaskTimer::start();
        // Which nodes actually receive (and therefore insert and report)
        // this batch. An empty sub-batch "arrives" implicitly — no
        // message — but still only on live nodes that received the
        // batch's earlier pieces.
        let mut open = std::mem::take(&mut pl.open[s]);
        let (shares, delivered) = (&mut open.nodes, &mut open.delivered);
        for (node, q) in pl.quarantined.iter().enumerate() {
            if *q {
                delivered[node] = false;
            }
        }
        for sub in &subs {
            let to = NodeId(sub.node);
            if !delivered[sub.node as usize] {
                // Quarantined destination, or one that missed an earlier
                // piece: treated exactly like a dead node — no send, no
                // install, no report (DESIGN.md §13).
                continue;
            }
            delivered[sub.node as usize] = fabric.is_up(to);
            if sub.tuples.is_empty() {
                continue;
            }
            // One charged message without a fault plan; a dead node gets
            // 0 copies (the drop is counted), a duplicating link 2.
            let copies = fabric.send_at_least_once(entry, to, sub.wire_bytes(), &mut scratch);
            if copies > 1 {
                self.cluster
                    .obs()
                    .faults()
                    .add_dedup_suppressed(u64::from(copies - 1));
            }
        }
        let dispatch_ns = dispatch_start.elapsed().as_nanos() as u64;
        drop(dispatch_span);

        // In-flight corruption (chaos): an active corruption rule may
        // flip one bit in a delivered remote sub-batch between the wire
        // and the store. Only delivered non-empty remote subs are
        // candidates, so every injected flip meets the install-site
        // check below — the 100%-detection gate in `exp_chaos`.
        if let Some(fs) = fabric.fault_state() {
            for sub in subs.iter_mut() {
                let node = sub.node as usize;
                if node == entry_idx || sub.tuples.is_empty() || !delivered[node] {
                    continue;
                }
                if let Some(bits) = fs.corrupt_message(entry, NodeId(sub.node)) {
                    let i = (bits >> 8) as usize % sub.tuples.len();
                    sub.tuples[i].triple.o.0 ^= 1 << (bits & 63);
                }
            }
        }
        // Install-site integrity: a sub-batch that fails its
        // dispatch-time checksum must never reach the store. The
        // receiving shard enters quarantine — it stops installing and
        // reporting, so its local VTS pins exactly like a dead node's
        // and no firing advances past the poisoned point — until
        // rebuild-from-checkpoint replays the pristine logged batches.
        for sub in &subs {
            let node = sub.node as usize;
            if delivered[node] && !sub.verify() {
                let integrity = self.cluster.obs().integrity();
                integrity.inc_checksum_fail_message();
                tracer.marker(Marker::ChecksumFail, FiringId::NONE, sub.batch, node as u64);
                if !pl.quarantined[node] {
                    pl.quarantined[node] = true;
                    integrity.inc_quarantine();
                    tracer.anomaly(Marker::Quarantine, FiringId::NONE, sub.batch, node as u64);
                }
                delivered[node] = false;
            }
        }

        // Dedup against each node's local VTS reads coordinator state, so
        // it stays here, ahead of the shared install stage.
        for sub in &subs {
            let node = sub.node as usize;
            if delivered[node] && pl.coordinator.already_inserted(node, s, batch.timestamp) {
                // Redelivered while another node's outage stalls the
                // stable VTS: this node already holds the batch.
                self.cluster.obs().faults().inc_dedup_suppressed();
                delivered[node] = false;
            }
        }
        open.phase2_ns += self.install_batch(pl, batch, &subs, delivered, entry, sn, shares);
        open.dispatch_ns += dispatch_ns;
        pl.open[s] = open;
    }

    /// The install stage of one sub-batch set — a whole batch, or one
    /// piece of a batch installing while it fills — for live batches
    /// (`process_batch`) and catch-up replay alike: each node with
    /// `delivered[n]` set installs its sub-batch under `sn` into its open
    /// share `open[n]`, then index-vertex updates land on their owners'
    /// shares. Returns phase 2's nanoseconds; `seal_batch` publishes the
    /// shares once the batch's last sub-batch set is in.
    ///
    /// Each node applies only the key updates it owns; first-edge events
    /// produce index-vertex updates that phase 2 routes to the index
    /// key's owner (a triple's four key updates may live on three
    /// different nodes). Phase 1 runs on the `entry` node's worker pool:
    /// node ownership filters are disjoint, so concurrent sub-batch
    /// application touches disjoint shards and shares — race-free by
    /// construction, identical receipts for any thread count.
    #[allow(clippy::too_many_arguments)]
    fn install_batch(
        &self,
        pl: &mut Pipeline,
        batch: &Batch,
        subs: &[SubBatch],
        delivered: &[bool],
        entry: NodeId,
        sn: SnapshotId,
        open: &mut [Installed],
    ) -> u64 {
        let ts = batch.timestamp;
        let merge = self.clamped_merge(pl);
        pl.newest_install_sn = pl.newest_install_sn.max(sn);

        let _inject_span = self
            .tracer()
            .span(Stage::Injection, FiringId::NONE, batch.id());
        let stream = self.cluster.stream(batch.stream.0 as usize);
        let indexes = &stream.indexes;
        let shares: Vec<(&SubBatch, &mut Installed)> = subs.iter().zip(open.iter_mut()).collect();
        self.cluster.pool(entry).map(shares, |_, (sub, share)| {
            let node = sub.node;
            if delivered[node as usize] {
                install_sub_batch(
                    self.cluster.shard(node),
                    self.cluster.shard_map().owner_filter(node),
                    &sub.tuples,
                    ts,
                    sn,
                    merge,
                    &mut indexes[node as usize].write(),
                    share,
                );
            }
        });
        // Phase 2: index-vertex updates land on their owners.
        let mut owners: Vec<_> = indexes.iter().map(|i| i.write()).collect();
        apply_index_updates(
            self.cluster.shard_map(),
            |n| self.cluster.shard(n),
            &mut owners,
            open,
            delivered,
            sn,
            merge,
        )
    }

    /// Publishes an installed batch's structures, once per batch: seals
    /// each delivered node's open index batch and moves its transient
    /// slice into the stream's ring (both insert in time order, so a
    /// replay at an original timestamp slots in behind newer batches) and
    /// charges one replication message per (origin, subscriber) pair for
    /// each non-empty index batch (§4.2). A node not `delivered` drops
    /// its share: its open index batch is discarded and its slice
    /// dropped, so no read ever sees what its earlier pieces installed.
    /// Returns the delivered shares' injection stats.
    fn seal_batch(
        &self,
        s: usize,
        bid: BatchId,
        open: Vec<Installed>,
        delivered: &[bool],
    ) -> InjectStats {
        let stream = self.cluster.stream(s);
        let index_span = self.tracer().span(Stage::StreamIndex, FiringId::NONE, bid);
        let push_start = std::time::Instant::now();
        let mut total = InjectStats::default();
        let mut replicated = Vec::with_capacity(open.len());
        for (node, share) in open.into_iter().enumerate() {
            let (slice, stats) = share.seal();
            let mut sealed = Sealed::default();
            if delivered[node] {
                total.add(&stats);
                stream.transients[node].write().push_batch(slice);
                sealed = stream.indexes[node].write().seal();
            } else {
                stream.indexes[node].write().discard();
            }
            replicated.push((sealed.entries, sealed.wire_bytes));
        }
        total.index_ns += push_start.elapsed().as_nanos() as u64;
        drop(index_span);

        // Replication of index batches to subscriber nodes (§4.2): one
        // message per (origin, subscriber) pair carrying the entries.
        if self.cluster.replicate_indexes {
            let fabric = self.cluster.fabric();
            let mut scratch = TaskTimer::start();
            let subscribers = stream.subscribers.read().clone();
            for (m, &(entries, bytes)) in replicated.iter().enumerate() {
                if entries == 0 {
                    continue;
                }
                for &q in &subscribers {
                    if q as usize != m && fabric.is_up(NodeId(q)) {
                        fabric.charge_message(NodeId(m as u16), NodeId(q), bytes, &mut scratch);
                    }
                }
            }
        }
        total
    }

    fn collect_garbage(&self, pl: &Pipeline, s: usize) {
        let stable_ts = pl.coordinator.stable_vts().get(s);
        // With no registered query over the stream the expiry horizon is
        // undefined — keep everything (the transient ring's budget still
        // bounds memory) so a query registered later, or re-registered
        // after recovery, finds its window intact.
        let Some(max_range) = self.widest_range(s) else {
            return;
        };
        let expiry = gc::expiry_horizon(stable_ts, [max_range + self.cfg.gc_slack_ms]);
        let stream = self.cluster.stream(s);
        let t0 = std::time::Instant::now();
        for n in 0..self.cluster.nodes() {
            let mut transient = stream.transients[n].write();
            let mut index = stream.indexes[n].write();
            gc::sweep(&mut transient, &mut index, expiry);
        }
        self.cluster.obs().record_stream_stage(
            &stream.schema.name,
            Stage::Gc,
            t0.elapsed().as_nanos() as u64,
        );
    }

    /// Advances the latency-miss streak of the degradation state machine
    /// with one continuous firing's latency — the only wall-clock input,
    /// and it only ever *opens* shedding (admission control), never
    /// drives a shed decision, so determinism holds.
    pub(super) fn track_latency(&self, pl: &mut Pipeline, latency_ms: f64, fid: FiringId) {
        // The latency-miss streak may *open* shedding, which only makes
        // sense when an ingest budget bounds what shedding admits — an
        // unbudgeted engine marks degradation but never sheds.
        if self.cfg.ingest_budget.is_none() {
            return;
        }
        if latency_ms > self.cfg.overload.latency_budget_ms {
            pl.miss_streak += 1;
            // Deadline degradation: the firing overran its latency
            // budget. The anomaly's dump links the firing's full lineage
            // so the slow path is reconstructible after the fact.
            self.tracer().anomaly(
                Marker::DeadlineMiss,
                fid,
                BatchId::NONE,
                (latency_ms * 1_000.0) as u64,
            );
            if pl.miss_streak >= crate::OverloadPolicy::TRIP_AFTER_MISSES
                && pl.overload == OverloadState::Normal
            {
                pl.overload = OverloadState::Shedding;
                pl.tripped_at = Some(Self::stream_now(pl));
                self.cluster.obs().overload().inc_state_transition();
            }
        } else {
            pl.miss_streak = 0;
        }
    }

    /// Recovery replay of one logged batch: re-enqueue it and drain.
    /// `replay_high` holds each stream's highest replayed batch timestamp.
    pub(super) fn replay_logged(
        &self,
        pl: &mut Pipeline,
        lb: LoggedBatch,
        replay_high: &mut Vec<Timestamp>,
    ) -> BatchId {
        // The log is the complete sealed-batch sequence, so a hole
        // between consecutive logged timestamps proves the adaptor sealed
        // nothing in between — it coalesced the gap into a clock jump.
        // The jump itself is adaptor runtime state and died with the
        // crash; re-synthesize it here, or the post-gap batch heads the
        // FIFO pending queue forever (`snapshot_for` can never reach it)
        // and the replayed VTS deadlocks below the gap.
        let s = lb.stream as usize;
        let interval = pl.adaptors[s].schema().batch_interval_ms;
        if replay_high.len() <= s {
            replay_high.resize(s + 1, 0);
        }
        let last = replay_high[s];
        if lb.timestamp > last + interval {
            pl.clock_jumps[s].push_back((last, lb.timestamp - interval));
        }
        replay_high[s] = replay_high[s].max(lb.timestamp);
        let batch = Batch::sealed(StreamId(lb.stream), lb.timestamp, lb.tuples, 0);
        let id = batch.id();
        self.enqueue_batch(pl, batch);
        // Drain after *every* replayed batch, not once per checkpoint:
        // the log preserves ingestion order, and draining in that order
        // retires the SN-VTS plan's epochs along the exact trajectory of
        // the original run — which is what keeps every batch's (and
        // therefore every window's) snapshot assignment identical across
        // the crash (DESIGN.md §13).
        self.drain_pending(pl);
        id
    }

    /// The stable snapshot number (what one-shot queries read).
    pub fn stable_sn(&self) -> SnapshotId {
        self.pipeline.lock().coordinator.stable_sn()
    }

    /// The stable VTS entry for `stream` (continuous-query visibility).
    pub fn stable_ts(&self, stream: StreamId) -> Timestamp {
        let pl = self.pipeline.lock();
        pl.coordinator.stable_vts().get(stream.0 as usize)
    }

    /// Accumulated injection statistics and batch count for `stream`
    /// (Table 6).
    pub fn injection_stats(&self, stream: StreamId) -> (InjectStats, u64) {
        let pl = self.pipeline.lock();
        let s = stream.0 as usize;
        (pl.inject_stats[s], pl.batches_done[s])
    }

    /// The degradation state machine's current state.
    pub fn overload_state(&self) -> OverloadState {
        self.pipeline.lock().overload
    }

    /// The append-only shed log — the determinism witness: same seed,
    /// same spike ⇒ byte-identical logs across runs and worker counts.
    pub fn shed_log(&self) -> Vec<ShedRecord> {
        self.pipeline.lock().shedder.log().to_vec()
    }

    /// Total tuples ever shed (including any later replayed).
    pub fn total_shed(&self) -> u64 {
        self.pipeline.lock().shedder.total_shed()
    }

    /// Shed tuples not yet restored by a catch-up replay — the exact
    /// staleness currently visible to degraded firings.
    pub fn shed_outstanding(&self) -> u64 {
        self.pipeline.lock().shedder.outstanding_total()
    }

    /// Shards currently quarantined by an install-site checksum failure
    /// (DESIGN.md §13). A quarantined shard installs and reports nothing
    /// — its local VTS pins like a dead node's — until
    /// rebuild-from-checkpoint clears it.
    pub fn quarantined_nodes(&self) -> Vec<u16> {
        self.pipeline.lock().quarantined_nodes()
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::engine_with_stream;
    use super::*;
    use crate::EngineConfig;
    use wukong_rdf::{ntriples, Dir, Key};

    /// Two pieces of an open batch install (the store counts their
    /// triples), yet a one-shot, a probe of the standing query and a
    /// firing round return exactly what they returned before those
    /// tuples; the seal then publishes the whole batch at once.
    #[test]
    fn installed_pieces_stay_invisible_until_their_batch_seals() {
        let (engine, po) = engine_with_stream();
        let ss = engine.strings().clone();
        let feed = |range: std::ops::Range<u64>, base: u64| {
            for i in range {
                let line = format!("u{} po T-{i} {}", i % 5, base + i % 90);
                let t = ntriples::parse_tuple(&ss, &line, 1).expect("tuple");
                engine.ingest(po, t.triple, t.timestamp);
            }
        };
        let id = engine
            .register_continuous(
                "REGISTER QUERY posts SELECT ?X ?Z FROM PO [RANGE 200ms STEP 100ms] \
                 WHERE { GRAPH PO { ?X po ?Z } }",
            )
            .expect("register");
        let oneshot = "SELECT ?Z WHERE { u1 po ?Z }";
        feed(0..40, 1);
        engine.advance_time(100);
        assert_eq!(engine.fire_ready().len(), 1);
        let (seen, _) = engine.one_shot(oneshot).expect("one-shot");
        let (probed, _) = engine.execute_registered(id);
        assert_eq!((seen.rows.len(), probed.rows.len()), (8, 40));

        let stored = engine.stats().stored_triples;
        feed(40..(40 + 2 * PIECE_TUPLES as u64 + 10), 101);
        assert_eq!(
            engine.stats().stored_triples - stored,
            2 * PIECE_TUPLES as u64,
            "two pieces installed"
        );
        assert_eq!(engine.one_shot(oneshot).expect("one-shot").0, seen);
        assert_eq!(engine.execute_registered(id).0, probed);
        assert!(engine.fire_ready().is_empty());
        assert_eq!(engine.scrub(), Vec::new());

        engine.advance_time(200);
        let fired = engine.fire_ready();
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].results.rows.len(), 40 + 2 * PIECE_TUPLES + 10);
        let (now, _) = engine.one_shot(oneshot).expect("one-shot");
        assert_eq!(now.rows.len(), (40 + 2 * PIECE_TUPLES + 10) / 5);
    }

    #[test]
    fn stats_epoch_advances_with_batch_processing() {
        let (engine, po) = engine_with_stream();
        let ss = engine.strings().clone();
        assert_eq!(engine.stats_epoch.current(), 0);
        // One sealed batch per 100 ms interval; 32 batches bump once.
        for i in 0..STATS_EPOCH_BATCHES {
            let t = ntriples::parse_tuple(&ss, &format!("u{i} po T-{i} {}", i * 100 + 50), 1)
                .expect("tuple");
            engine.ingest(po, t.triple, t.timestamp);
        }
        engine.advance_time(STATS_EPOCH_BATCHES * 100);
        assert_eq!(engine.stats_epoch.current(), 1);
    }

    /// Catch-up must not append behind a newer snapshot: a burst on one
    /// key is shed, live batches keep appending to the same key under
    /// planned snapshots (PO runs one interval ahead of the quiet GPS
    /// stream, so its newest batch is installed above the stable
    /// snapshot), and the replay then lands on that key.
    #[test]
    fn catch_up_keeps_a_keys_appends_snapshot_ordered() {
        let mut cfg = EngineConfig::single_node()
            .with_ingest_budget(Some(wukong_stream::IngestBudget::tuples(8)));
        cfg.overload.latency_budget_ms = 1e9;
        cfg.overload.catchup_quiet_ms = 300;
        let engine = WukongS::new(cfg);
        let ss = engine.strings().clone();
        let po = engine.register_stream(StreamSchema::timeless(StreamId(0), "PO", 100));
        engine.register_stream(StreamSchema::timeless(StreamId(1), "GPS", 100));
        let feed = |line: String| {
            let t = ntriples::parse_tuple(&ss, &line, 1).expect("tuple");
            engine.ingest(po, t.triple, t.timestamp);
        };
        // 20 posts by one user in one interval: 2.5x the budget.
        for i in 0..20u64 {
            feed(format!("u0 po T-{i} {}", 110 + i));
        }
        // One more post per interval, each installed under the snapshot
        // planned for it, until the quiet period has passed. Stop right
        // there: later consolidation would drop the marks under test.
        let replays = || engine.handle().obs().overload().snapshot().catchup_replays;
        let mut live = 0;
        while replays() == 0 {
            assert!(live < 10, "the quiet period never passed");
            live += 1;
            feed(format!("u0 po L-{live} {}", (live + 1) * 100 + 50));
        }
        assert_eq!(engine.total_shed(), 20);
        assert_eq!(engine.shed_outstanding(), 0);
        assert_eq!(engine.scrub(), Vec::new());

        // Every retained mark of the key gates its own prefix: an
        // out-of-order mark (snapshot 6 after 7) would hide behind the
        // newer one and gate nothing.
        let u0 = ss.intern_entity("u0").expect("interns");
        let posts = ss.intern_predicate("po").expect("interns");
        let newest = engine.pipeline.lock().newest_install_sn;
        engine
            .cluster()
            .shard(0)
            .with_cell(Key::new(u0, posts, Dir::Out), |cell| {
                let cell = cell.expect("u0 posted");
                // The newest live post is still in its open batch.
                assert_eq!(cell.total_len() as u64, 20 + live - 1, "burst replayed");
                let mut prefixes: Vec<usize> = (0..=newest.0)
                    .map(|sn| cell.len_at(SnapshotId(sn)))
                    .collect();
                prefixes.dedup();
                assert!(prefixes.windows(2).all(|w| w[0] < w[1]));
                assert_eq!(cell.retained_snapshots() + 1, prefixes.len());
            });
    }

    /// What a replay leaves in the store, right after it: each touched
    /// key's total length and the snapshots its visible prefix grows at
    /// (`sn:len`), then each node's non-empty transient slices and index
    /// batches of `stream` as (timestamp, count).
    fn replayed_state(engine: &WukongS, stream: usize, keys: &[(String, Key)]) -> String {
        let newest = engine.pipeline.lock().newest_install_sn;
        let cluster = engine.cluster();
        let mut out = Vec::new();
        for (name, key) in keys {
            let key = *key;
            let owner = cluster.owner(key).0;
            let marks = cluster.shard(owner).with_cell(key, |cell| {
                let cell = cell.expect("touched");
                let mut marks = format!("{name} {}", cell.total_len());
                let mut last = None;
                for sn in 0..=newest.0 {
                    let len = cell.len_at(SnapshotId(sn));
                    if last != Some(len) {
                        marks += &format!(" {sn}:{len}");
                        last = Some(len);
                    }
                }
                marks
            });
            out.push(marks);
        }
        let state = cluster.stream(stream);
        for n in 0..cluster.nodes() {
            let mut slices = Vec::new();
            state.transients[n]
                .read()
                .for_each_slice_in(0, Timestamp::MAX, |s| {
                    if s.tuple_count() > 0 {
                        slices.push((s.timestamp, s.tuple_count()));
                    }
                });
            let batches: Vec<(Timestamp, usize)> = state.indexes[n]
                .read()
                .batch_sizes()
                .into_iter()
                .filter(|&(_, keys)| keys > 0)
                .collect();
            out.push(format!("node {n} slices {slices:?} index {batches:?}"));
        }
        out.join("\n")
    }

    /// Shed-then-catch-up on two nodes over a mixed stream (`at` is a
    /// timing predicate), with the budget and quiet period of
    /// `catch_up_keeps_a_keys_appends_snapshot_ordered`: pins every
    /// firing's rows, the shed log, and the store the replay leaves.
    #[test]
    fn two_node_catch_up_is_pinned() {
        let mut cfg = EngineConfig::cluster(2)
            .with_ingest_budget(Some(wukong_stream::IngestBudget::tuples(8)));
        cfg.overload.latency_budget_ms = 1e9;
        cfg.overload.catchup_quiet_ms = 300;
        let engine = WukongS::new(cfg);
        let ss = engine.strings().clone();
        let mut schema = StreamSchema::timeless(StreamId(0), "PO", 100);
        let at = ss.intern_predicate("at").expect("interns");
        schema.timing_predicates.insert(at);
        let po = engine.register_stream(schema);
        engine.register_stream(StreamSchema::timeless(StreamId(1), "GPS", 100));
        for text in [
            "REGISTER QUERY posts SELECT ?X ?Z FROM PO [RANGE 600ms STEP 200ms] \
             WHERE { GRAPH PO { ?X po ?Z } }",
            "REGISTER QUERY places SELECT ?X ?L FROM PO [RANGE 600ms STEP 200ms] \
             WHERE { GRAPH PO { ?X at ?L } }",
        ] {
            engine.register_continuous(text).expect("register");
        }
        let feed = |line: String| {
            let t = ntriples::parse_tuple(&ss, &line, 1).expect("tuple");
            engine.ingest(po, t.triple, t.timestamp);
        };
        let name = |v| ss.entity_name(v).expect("interned");
        let mut fired = Vec::new();
        let mut fire = || {
            for f in engine.fire_ready() {
                let mark = if f.results.degraded.is_some() {
                    "*"
                } else {
                    ""
                };
                let mut line = format!("q{}@{}{mark}", f.query, f.window_end);
                for row in &f.results.rows {
                    let names: Vec<String> = row.iter().map(|&v| name(v)).collect();
                    line += &format!(" {}", names.join("/"));
                }
                fired.push(line);
            }
        };

        // A ten-tuple burst in one interval, half of it timing data.
        for i in 0..10u64 {
            let (p, o) = if i % 2 == 0 { ("po", "T") } else { ("at", "P") };
            feed(format!("u{} {p} {o}-{i} {}", i % 3, 110 + i));
        }
        let replays = || engine.handle().obs().overload().snapshot().catchup_replays;
        // The keys the replay appends to: the burst's posts.
        let posts = ss.intern_predicate("po").expect("interns");
        let key = |name: &str, dir| {
            let v = ss.intern_entity(name).expect("interns");
            (
                format!("{name}{}", if dir == Dir::Out { ">" } else { "<" }),
                Key::new(v, posts, dir),
            )
        };
        let mut keys = vec![
            ("po>".to_string(), Key::index(posts, Dir::Out)),
            ("po<".to_string(), Key::index(posts, Dir::In)),
        ];
        keys.extend(["u0", "u1", "u2"].map(|u| key(u, Dir::Out)));
        keys.extend((0..10).step_by(2).map(|i| key(&format!("T-{i}"), Dir::In)));
        let mut replayed = String::new();
        for k in 1..=9u64 {
            let ts = k * 100 + 150;
            for line in [
                format!("u{} po L-{k} {ts}", k % 3),
                format!("u{} at P-{} {ts}", k % 3, k % 4),
            ] {
                feed(line);
                if replays() == 1 && replayed.is_empty() {
                    replayed = replayed_state(&engine, po.0 as usize, &keys);
                }
            }
            fire();
        }
        engine.advance_time(1_400);
        fire();
        let shed: Vec<(u16, Timestamp, u64)> = engine
            .shed_log()
            .iter()
            .map(|r| (r.stream.0, r.batch_ts, r.tuples_shed))
            .collect();

        assert_eq!(replays(), 1);
        assert_eq!(
            format!("{}\nshed {shed:?}\n{replayed}", fired.join("\n")),
            "q0@200*\n\
             q1@200*\n\
             q0@400 u0/T-0 u0/T-6 u1/T-4 u1/L-1 u2/T-2 u2/T-8 u2/L-2\n\
             q1@400 u0/P-3 u0/P-9 u1/P-1 u1/P-1 u1/P-7 u2/P-5 u2/P-2\n\
             q0@600 u0/T-0 u0/T-6 u0/L-3 u1/T-4 u1/L-1 u1/L-4 u2/T-2 u2/T-8 u2/L-2\n\
             q1@600 u0/P-3 u0/P-3 u0/P-9 u1/P-1 u1/P-1 u1/P-7 u1/P-0 u2/P-5 u2/P-2\n\
             q0@800 u0/L-3 u0/L-6 u1/L-1 u1/L-4 u2/L-2 u2/L-5\n\
             q1@800 u0/P-3 u0/P-2 u1/P-1 u1/P-0 u2/P-1 u2/P-2\n\
             q0@1000 u0/L-3 u0/L-6 u1/L-4 u1/L-7 u2/L-5 u2/L-8\n\
             q0@1200 u0/L-6 u0/L-9 u1/L-7 u2/L-5 u2/L-8\n\
             q0@1400 u0/L-9 u1/L-7 u2/L-8\n\
             q1@1000 u0/P-3 u0/P-2 u1/P-3 u1/P-0 u2/P-1 u2/P-0\n\
             q1@1200 u0/P-1 u0/P-2 u1/P-3 u2/P-1 u2/P-0\n\
             q1@1400 u0/P-1 u1/P-3 u2/P-0\n\
             shed [(0, 200, 10)]\n\
             po> 3 0:1 4:2 5:3\n\
             po< 8 0:1 4:2 5:8\n\
             u0> 3 0:0 5:3\n\
             u1> 2 0:1 5:2\n\
             u2> 3 0:0 4:1 5:3\n\
             T-0< 1 0:0 5:1\n\
             T-2< 1 0:0 5:1\n\
             T-4< 1 0:0 5:1\n\
             T-6< 1 0:0 5:1\n\
             T-8< 1 0:0 5:1\n\
             node 0 slices [(200, 5), (300, 1), (400, 1), (500, 1)] \
             index [(200, 5), (300, 2), (400, 2), (500, 3)]\n\
             node 1 slices [(200, 5), (300, 1), (400, 1), (500, 1)] \
             index [(200, 4), (300, 2), (400, 2), (500, 1)]"
        );
    }

    /// A replay is charged like a live batch: its dispatch messages, plus
    /// one replication message per (origin ≠ subscriber) pair for each
    /// replayed non-empty index batch (§4.2).
    #[test]
    fn catch_up_charges_index_replication() {
        let mut cfg = EngineConfig::cluster(2)
            .with_ingest_budget(Some(wukong_stream::IngestBudget::tuples(8)));
        cfg.overload.latency_budget_ms = 1e9;
        // Never by itself: the test replays by hand.
        cfg.overload.catchup_quiet_ms = u64::MAX;
        assert!(cfg.replicate_stream_indexes);
        let engine = WukongS::new(cfg);
        let ss = engine.strings().clone();
        let po = engine.register_stream(StreamSchema::timeless(StreamId(0), "PO", 100));
        // Unanchored queries take their homes round-robin: both nodes
        // subscribe.
        for name in ["a", "b"] {
            engine
                .register_continuous(&format!(
                    "REGISTER QUERY {name} SELECT ?X FROM PO [RANGE 1s STEP 100ms] \
                     WHERE {{ GRAPH PO {{ ?X po ?Z }} }}"
                ))
                .expect("register");
        }
        let stream = engine.cluster().stream(po.0 as usize);
        let subscribers = stream.subscribers.read().clone();
        assert_eq!(subscribers.len(), 2);

        // A twelve-post burst in the interval ending at 200, shed whole.
        let burst: Vec<wukong_rdf::StreamTuple> = (0..12u64)
            .map(|i| {
                ntriples::parse_tuple(&ss, &format!("u{i} po T-{i} {}", 110 + i), 1).expect("tuple")
            })
            .collect();
        for t in &burst {
            engine.ingest(po, t.triple, t.timestamp);
        }
        engine.advance_time(500);
        let shed: Vec<_> = engine.shed_log().iter().map(|r| r.batch_ts).collect();
        assert_eq!((engine.total_shed(), shed), (12, vec![200]));

        // The replay enters at the stream's entry node, 0.
        let batch = Batch::sealed(po, 200, burst, 0);
        let dispatched = dispatch(&batch, engine.cluster().shard_map())
            .iter()
            .filter(|sub| sub.node != 0 && !sub.tuples.is_empty())
            .count() as u64;
        let nonempty_at_200 = |n: usize| {
            stream.indexes[n]
                .read()
                .batch_sizes()
                .into_iter()
                .filter(|&(ts, keys)| ts == 200 && keys > 0)
                .count() as u64
        };
        let before: Vec<u64> = (0..2).map(nonempty_at_200).collect();
        let fabric = engine.cluster().fabric();
        let start = fabric.metrics();
        engine.catch_up(&mut engine.pipeline.lock());
        let messages = start.delta(&fabric.metrics()).messages;

        let replicated: u64 = (0..2)
            .map(|n| {
                let others = subscribers.iter().filter(|&&q| q as usize != n).count() as u64;
                (nonempty_at_200(n) - before[n]) * others
            })
            .sum();
        assert!(dispatched > 0 && replicated > 0);
        assert_eq!(messages, dispatched + replicated);
        assert_eq!(engine.shed_outstanding(), 0);
    }

    /// A two-node engine under `plan` with one timeless stream and a
    /// standing query over it. `users[n]` and `posts[n]` live on node `n`
    /// and the post predicate's index vertices on node 0, so a tuple
    /// among node-0 names sends node 1 nothing. The batch ending at 100
    /// posts the first 20 posts of each node, later batches the rest.
    struct TwoNodes {
        engine: WukongS,
        stream: StreamId,
        po: wukong_rdf::Pid,
        users: [Vec<wukong_rdf::Vid>; 2],
        posts: [Vec<wukong_rdf::Vid>; 2],
    }

    impl TwoNodes {
        fn new(plan: wukong_net::FaultPlan) -> Self {
            let engine = WukongS::new(EngineConfig {
                fault_plan: Some(plan),
                ..EngineConfig::cluster(2)
            });
            let ss = engine.strings().clone();
            let stream = engine.register_stream(StreamSchema::timeless(StreamId(0), "PO", 100));
            let cluster = engine.cluster();
            let po = (0..)
                .map(|j| ss.intern_predicate(&format!("po{j}")).expect("interns"))
                .find(|&p| {
                    [Dir::Out, Dir::In]
                        .iter()
                        .all(|&d| cluster.owner(Key::index(p, d)).0 == 0)
                })
                .expect("a predicate on node 0");
            let names = |prefix: &str, node: u16| -> Vec<wukong_rdf::Vid> {
                (0..)
                    .map(|i| ss.intern_entity(&format!("{prefix}{i}")).expect("interns"))
                    .filter(|&v| cluster.owner(Key::new(v, po, Dir::Out)).0 == node)
                    .take(40)
                    .collect()
            };
            let users = [names("u", 0), names("u", 1)];
            let posts = [names("t", 0), names("t", 1)];
            let text = format!(
                "REGISTER QUERY posts SELECT ?X ?Z FROM PO [RANGE 100ms STEP 100ms] \
                 WHERE {{ GRAPH PO {{ ?X {} ?Z }} }}",
                ss.predicate_name(po).expect("interned")
            );
            engine.register_continuous(&text).expect("register");
            TwoNodes {
                engine,
                stream,
                po,
                users,
                posts,
            }
        }

        /// Feeds `n` posts into the interval ending at `end`, spread over
        /// it; from the `mixed_from`-th on, every other one is between
        /// node-1 names.
        fn feed(&self, end: Timestamp, n: u64, mixed_from: u64) {
            for i in 0..n {
                let node = usize::from(i >= mixed_from && i % 2 == 0);
                let u = self.users[node][(i % 20) as usize];
                let o = self.posts[node][(i * 7 % 20) as usize + if end == 100 { 0 } else { 20 }];
                let ts = end - 99 + i * 99 / n;
                self.engine
                    .ingest(self.stream, Triple::new(u, self.po, o), ts);
            }
            self.engine.advance_time(end);
        }

        /// A 400-tuple batch ending at 200 installed in pieces, of which
        /// node 1 missed one: node 0 reported the batch and node 1 did
        /// not, the stable VTS stalls at 100 through two more batches, no
        /// firing over the batch is emitted unmarked, and no read returns
        /// what the batch installed on node 1 (its index holds no batch at
        /// 200, and no row names a post of a later batch) while a read at
        /// the stable snapshot returns batch 100's `batch_100` posts, all
        /// of them unless a node is unreachable.
        fn assert_batch_200_dropped_on_node_1(&self, batch_100: usize) {
            let engine = &self.engine;
            let (stats, batches) = engine.injection_stats(self.stream);
            assert_eq!(
                (stats.pieces, batches),
                (1 + 4, 2),
                "batch 200 in four pieces"
            );
            let local = |n| engine.pipeline.lock().coordinator.local_vts(n).get(0);
            assert_eq!((local(0), local(1)), (200, 100));
            self.feed(300, 10, 0);
            self.feed(400, 10, 0);
            assert_eq!(engine.stable_ts(self.stream), 100);
            for f in engine.fire_ready() {
                let r = &f.results;
                let marked = !r.unreachable_shards.is_empty() || !r.quarantined_shards.is_empty();
                assert!(
                    f.window_end < 200 || marked,
                    "unmarked firing at {}",
                    f.window_end
                );
            }
            let index = &engine.cluster().stream(0).indexes;
            assert!(index[0]
                .read()
                .batch_sizes()
                .iter()
                .any(|&(ts, _)| ts == 200));
            assert!(index[1]
                .read()
                .batch_sizes()
                .iter()
                .all(|&(ts, _)| ts != 200));
            let later: Vec<_> = self.posts.iter().flat_map(|p| &p[20..]).collect();
            let po = engine.strings().predicate_name(self.po).expect("interned");
            let (seen, _) = engine
                .one_shot(&format!("SELECT ?X ?Z WHERE {{ ?X {po} ?Z }}"))
                .expect("one-shot");
            for (read, _) in [engine.execute_registered(0), (seen, 0.0)] {
                assert!(read.rows.len() == batch_100 || !read.unreachable_shards.is_empty());
                assert!(read.rows.iter().all(|row| !later.contains(&&row[1])));
            }
            assert_eq!(engine.scrub(), Vec::new());
        }
    }

    /// Node 1 dies between the pieces of a batch it had started to
    /// install: it drops its share at the seal and does not report it.
    #[test]
    fn a_node_killed_between_pieces_does_not_report_the_batch() {
        let t = TwoNodes::new(wukong_net::FaultPlan::seeded(1).kill_at(NodeId(1), 150));
        t.feed(100, 10, 0);
        assert_eq!(t.engine.fire_ready().len(), 1);
        t.feed(200, 400, 0);
        // Node 1 installed the first piece before it died.
        let user = Key::new(t.users[1][0], t.po, Dir::Out);
        assert!(t.engine.cluster().shard(1).with_cell(user, |c| c.is_some()));
        t.assert_batch_200_dropped_on_node_1(10);
        assert_eq!(t.engine.handle().fault_counters().node_kills, 1);
    }

    /// The middle piece of a batch arrives corrupted on node 1 (its first
    /// piece sent node 1 nothing): node 1 is quarantined, drops its share
    /// and does not report the batch.
    #[test]
    fn a_corrupted_middle_piece_quarantines_and_drops_the_share() {
        let t = TwoNodes::new(wukong_net::FaultPlan::seeded(1).corrupt_messages(1.0));
        t.feed(100, 10, 400);
        assert_eq!(t.engine.fire_ready().len(), 1);
        t.feed(200, 400, 200);
        assert_eq!(t.engine.quarantined_nodes(), vec![1]);
        let integrity = t.engine.handle().obs().integrity().snapshot();
        assert_eq!(integrity.checksum_fail_message, 1);
        t.assert_batch_200_dropped_on_node_1(10);
    }

    /// FNV-1a over a result's rows, row by row.
    fn rows_digest(rows: &[Vec<wukong_rdf::Vid>]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for row in rows {
            for v in row.iter().map(|v| v.0).chain([u64::MAX]) {
                h = (h ^ v).wrapping_mul(0x1_0000_01b3);
            }
        }
        h
    }

    /// A high-rate run on `nodes` nodes: two timeless streams that share
    /// the `li` predicate on the same user keys (PO also posts with `po`,
    /// PH only likes) and one timing stream, each batch well over three
    /// times 128 tuples, fed stream by stream within each interval. Every
    /// tuple past the first 384 of a PO batch is a `po` post, so the
    /// batches' appends to any key stay contiguous however they are
    /// grouped. Returns one line per firing (query, window end, row
    /// count, row digest), per round the one-shots' row counts and
    /// digests and the store, stream-index and transient bytes, and each
    /// stream's injection counts.
    fn high_rate_run(nodes: usize) -> String {
        let cfg = if nodes == 1 {
            EngineConfig::single_node()
        } else {
            EngineConfig::cluster(nodes)
        };
        let engine = WukongS::new(cfg);
        let ss = engine.strings().clone();
        let base: String = (0..40)
            .map(|i| format!("u{i} fo u{}\n", (i * 7 + 3) % 40))
            .collect();
        engine.load_base(ntriples::parse_document(&ss, &base).expect("parses"));
        let po = engine.register_stream(StreamSchema::timeless(StreamId(0), "PO", 100));
        let ph = engine.register_stream(StreamSchema::timeless(StreamId(1), "PH", 100));
        let mut gps = StreamSchema::timeless(StreamId(2), "GPS", 100);
        gps.timing_predicates
            .insert(ss.intern_predicate("at").expect("interns"));
        let gps = engine.register_stream(gps);
        for text in [
            "REGISTER QUERY liked SELECT ?P FROM PO [RANGE 300ms STEP 100ms] \
             WHERE { GRAPH PO { u3 li ?P } }",
            "REGISTER QUERY photos SELECT ?H FROM PH [RANGE 300ms STEP 100ms] \
             WHERE { GRAPH PH { u3 li ?H } }",
            "REGISTER QUERY seen SELECT ?L FROM GPS [RANGE 200ms STEP 100ms] \
             WHERE { GRAPH GPS { u5 at ?L } }",
            "REGISTER QUERY likers SELECT ?X ?H FROM PH [RANGE 100ms STEP 100ms] \
             WHERE { GRAPH PH { ?X li ?H } }",
            "REGISTER QUERY near SELECT ?X ?P ?L FROM PO [RANGE 200ms STEP 100ms] \
             FROM GPS [RANGE 200ms STEP 100ms] \
             WHERE { GRAPH PO { ?X po ?P } GRAPH GPS { ?X at ?L } }",
        ] {
            engine.register_continuous(text).expect("register");
        }
        let oneshots = [
            "SELECT ?P WHERE { u3 li ?P }",
            "SELECT ?Y ?P WHERE { u3 fo ?Y . ?Y li ?P }",
            "SELECT ?X WHERE { ?X po p7 }",
        ];
        let feed = |stream: StreamId, line: String| {
            let t = ntriples::parse_tuple(&ss, &line, 1).expect("tuple");
            engine.ingest(stream, t.triple, t.timestamp);
        };
        let mut out = Vec::new();
        for k in 0..6u64 {
            let ts = |i: u64, n: u64| k * 100 + 1 + i * 99 / n;
            for i in 0..460u64 {
                let u = (i * 13 + k) % 40;
                let line = if i < 384 && i % 3 != 0 {
                    format!("u{u} li p{} {}", (i * 7 + k * 31) % 200, ts(i, 460))
                } else {
                    format!("u{u} po p{} {}", (i * 11 + k * 17) % 200, ts(i, 460))
                };
                feed(po, line);
            }
            for i in 0..430u64 {
                let line = format!(
                    "u{} li h{} {}",
                    (i * 7 + k) % 40,
                    (i + k * 53) % 300,
                    ts(i, 430)
                );
                feed(ph, line);
            }
            for i in 0..420u64 {
                let line = format!(
                    "u{} at l{} {}",
                    (i * 3 + k) % 40,
                    (i * 5 + k) % 60,
                    ts(i, 420)
                );
                feed(gps, line);
            }
            engine.advance_time((k + 1) * 100);
            for f in engine.fire_ready() {
                let rows = &f.results.rows;
                out.push(format!(
                    "q{}@{} {} {:016x}",
                    f.query,
                    f.window_end,
                    rows.len(),
                    rows_digest(rows)
                ));
            }
            let mut line = format!("round {k}:");
            for text in oneshots {
                let (rs, _) = engine.one_shot(text).expect("one-shot");
                line += &format!(" {} {:016x}", rs.rows.len(), rows_digest(&rs.rows));
            }
            let st = engine.stats();
            line += &format!(
                " store {} index {} transient {}",
                st.store_bytes, st.stream_index_bytes, st.transient_bytes
            );
            out.push(line);
        }
        for s in [po, ph, gps] {
            let (st, batches) = engine.injection_stats(s);
            out.push(format!(
                "stream {}: {batches} batches, {} timeless, {} timing, {} discarded, {} anomalies",
                s.0, st.timeless, st.timing, st.discarded, st.clock_anomalies
            ));
        }
        out.join("\n")
    }

    /// Pins a high-rate run's results and state on one and two nodes:
    /// every firing's rows, the one-shots between rounds, the store,
    /// stream-index and transient bytes, and the injection counts. How a
    /// batch's tuples are grouped on their way into the store must not
    /// move any of it. The two runs differ only in the timing count: a
    /// timing tuple counts once on every node it is routed to.
    #[test]
    fn high_rate_runs_are_pinned() {
        const PINNED: &str = "\
            q0@100 6 ffa3b458d8eefecd\n\
            q1@100 11 4ee7e5b62e235ccd\n\
            q2@100 11 c7bc63db625d6e67\n\
            q3@100 430 c0478e6508cfa94e\n\
            q4@100 2142 96d2d5749ee56d34\n\
            round 0: 17 4758ee263dd3dde5 17 c5c5da963f0ca6fd 2 d44c07bbf8f476f9 \
            store 82352 index 31160 transient 13632\n\
            q0@200 12 45b56654a581eddc\n\
            q1@200 22 49e069bc41349c23\n\
            q2@200 21 6b1fa20ca1ac00df\n\
            q3@200 430 f003510c96a0efc5\n\
            q4@200 8567 eed14289270bc5b9\n\
            round 1: 34 49d81f806a4a944a 35 0d23b24f33aa703f 3 76b2f9cc6d8acb58 \
            store 139024 index 50520 transient 27264\n\
            q0@300 18 9e451b652ac57d5c\n\
            q1@300 33 673f948271d9869f\n\
            q2@300 21 303d265ac63b55d6\n\
            q3@300 430 c4f6f8577d912072\n\
            q4@300 8567 19bb285dfb5021ea\n\
            round 2: 51 aa030b0a69e495be 53 8b14899bc9840c21 3 76b2f9cc6d8acb58 \
            store 166464 index 69096 transient 40896\n\
            q0@400 18 5a2977b10a87dbe6\n\
            q1@400 33 fce313aec25ba159\n\
            q2@400 22 d99268c8e3a6cbc4\n\
            q3@400 430 2bc5f403aa78f60c\n\
            q4@400 8567 aa7cc4621c04f22e\n\
            round 3: 68 75f98027ce3b0826 71 c120a3cb0f679c26 4 4b6e050ecea15a1c \
            store 177840 index 87672 transient 54528\n\
            q0@500 18 53850f837cd953a3\n\
            q1@500 33 b1ce4d2a81cf4bbf\n\
            q2@500 21 77dfcf5b93d3ca97\n\
            q3@500 430 c644ac4741017777\n\
            q4@500 8567 1771db347d752a88\n\
            round 4: 85 405cb437ea519726 89 dbd780b041368d56 6 679da3a03471f208 \
            store 197952 index 106248 transient 68160\n\
            q0@600 18 b4ee28788f904114\n\
            q1@600 32 525639981ffcf963\n\
            q2@600 21 a0652fbdf6ebf719\n\
            q3@600 430 fd4aba88ddb7abe3\n\
            q4@600 8567 5f76c77bbe7c1388\n\
            round 5: 101 150623878d31d31d 106 58ae0284c9f2fe89 7 1d2c88c9abd963d1 \
            store 236688 index 124824 transient 81792\n\
            stream 0: 6 batches, 2760 timeless, 0 timing, 0 discarded, 0 anomalies\n\
            stream 1: 6 batches, 2580 timeless, 0 timing, 0 discarded, 0 anomalies\n\
            stream 2: 6 batches, 0 timeless, TIMING timing, 0 discarded, 0 anomalies";
        for (nodes, timing) in [(1, "2520"), (2, "5040")] {
            assert_eq!(
                high_rate_run(nodes),
                PINNED.replace("TIMING", timing),
                "{nodes} nodes"
            );
        }
    }
}
