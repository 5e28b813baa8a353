//! Durability: checkpoints, rebuild-from-checkpoint recovery, and the
//! invariant scrubber that audits the other two modules' state.

use super::{RecoveryReport, WukongS};
use crate::checkpoint::{Checkpoint, CheckpointError};
use crate::config::EngineConfig;
use crate::scrub::ScrubViolation;
use bytes::Bytes;
use std::sync::Arc;
use wukong_obs::trace::{BatchId, FiringId, Marker};
use wukong_obs::Stage;
use wukong_rdf::{StreamId, StringServer, Triple};
use wukong_stream::{StreamSchema, Vts};

impl WukongS {
    /// The invariant scrubber (DESIGN.md §13): re-checks, between
    /// firings, invariants the design argues hold by construction —
    /// per-node VTS monotonicity since the previous scrub, the stable
    /// VTS never ahead of the element-wise minimum of the local VTS, the
    /// ingest conservation ledger (`ingested = installed + pending +
    /// shed`), and every maintained query's death-timestamp bound
    /// (`death > hi` for each retained row). Violations are returned and
    /// counted into [`wukong_obs::IntegrityCounters`]; a clean engine
    /// reports none under any fault schedule. Debug builds run it after
    /// every [`WukongS::fire_ready`] and every recovery.
    pub fn scrub(&self) -> Vec<ScrubViolation> {
        let mut out = Vec::new();
        self.pipeline.lock().check_invariants(&mut out);
        // Death bounds read per-query state outside the pipeline lock.
        self.check_death_bounds(&mut out);
        if !out.is_empty() {
            self.cluster
                .obs()
                .integrity()
                .add_scrub_violations(out.len() as u64);
            // Scrub violations reuse the checksum-failure anomaly class:
            // both are state-integrity breaches, and the dump captures
            // whatever the recorder saw leading up to the breach.
            self.tracer().anomaly(
                Marker::ChecksumFail,
                FiringId::NONE,
                BatchId::NONE,
                out.len() as u64,
            );
        }
        out
    }

    /// Debug builds audit the engine after every scheduling round and
    /// every recovery, so every test doubles as an invariant test.
    #[cfg(debug_assertions)]
    pub(super) fn assert_scrub_clean(&self, after: &str) {
        let violations = self.scrub();
        assert!(violations.is_empty(), "scrub after {after}: {violations:?}");
    }

    /// Encodes the durable state: live queries, per-node VTS, and every
    /// batch logged since the last drained checkpoint. `drain` empties
    /// the log (the next checkpoint continues the chain).
    fn snapshot_checkpoint(&self, drain: bool) -> Bytes {
        let mut pl = self.pipeline.lock();
        let cp = Checkpoint {
            local_vts: (0..self.cluster.nodes())
                .map(|n| pl.coordinator.local_vts(n).entries().to_vec())
                .collect(),
            queries: self.logged_queries(),
            batches: pl.logged(drain),
        };
        let bytes = cp.encode();
        if drain {
            self.checkpoints.lock().push(bytes.clone());
        }
        bytes
    }

    /// Takes a checkpoint: registered queries, per-node VTS, and every
    /// batch since the previous checkpoint. Returns the encoded bytes
    /// (also retained internally for [`WukongS::recover`]).
    pub fn checkpoint(&self) -> Bytes {
        self.snapshot_checkpoint(true)
    }

    /// All checkpoints taken so far.
    pub fn checkpoints(&self) -> Vec<Bytes> {
        self.checkpoints.lock().clone()
    }

    /// Like [`WukongS::checkpoint`] but *non-draining*: encodes every
    /// batch logged since the last drained checkpoint while leaving the
    /// internal log untouched. This is the durable state a crash sees —
    /// the about-to-die engine is never told anything happened.
    pub(crate) fn tail_checkpoint(&self) -> Bytes {
        self.snapshot_checkpoint(false)
    }

    /// Rebuilds a deployment after a failure: reload the initial data,
    /// re-register the streams, re-register the last checkpoint's
    /// continuous queries, replay the checkpoints in order, then catch
    /// the windows up to the restored stable VTS (at-least-once: the
    /// window *at* the horizon may re-fire, §5).
    pub fn recover(
        cfg: EngineConfig,
        base: impl IntoIterator<Item = Triple>,
        schemas: Vec<StreamSchema>,
        strings: &Arc<StringServer>,
        checkpoints: &[Bytes],
    ) -> Result<Self, CheckpointError> {
        Self::recover_with_report(cfg, base, schemas, strings, checkpoints).map(|(e, _)| e)
    }

    /// [`WukongS::recover`] plus a [`RecoveryReport`] of what the replay
    /// did; the end-to-end wall time is also recorded under the
    /// `recovery` series of the new deployment's obs registry.
    pub fn recover_with_report(
        cfg: EngineConfig,
        base: impl IntoIterator<Item = Triple>,
        schemas: Vec<StreamSchema>,
        strings: &Arc<StringServer>,
        checkpoints: &[Bytes],
    ) -> Result<(Self, RecoveryReport), CheckpointError> {
        let t0 = std::time::Instant::now();
        let chain = checkpoints
            .iter()
            .map(|bytes| Checkpoint::decode(bytes))
            .collect::<Result<Vec<_>, _>>()?;
        // Share the original string server: IDs in checkpoints refer to it
        // (in production it is reloaded as part of the initial dataset).
        let engine = WukongS::with_strings(cfg, Arc::clone(strings));
        let recovery_span = engine
            .tracer()
            .span(Stage::Recovery, FiringId::NONE, BatchId::NONE);
        engine.load_base(base);
        for schema in schemas {
            engine.register_stream(schema);
        }
        let mut report = RecoveryReport::default();
        let before = engine.cluster.obs().faults().snapshot();

        // Re-register the continuous queries *before* replaying data so
        // the garbage collector's expiry horizons respect their windows
        // (the query-registration log is replayed first, §5). Every
        // checkpoint carries the full live set, so the last one *is* the
        // set to restore — in order, duplicates included, and without
        // queries unregistered since an earlier checkpoint.
        for q in chain.last().map_or(&[][..], |cp| &cp.queries[..]) {
            engine
                .register_with_target(&q.text, q.construct_target.map(StreamId))
                .map_err(|e| CheckpointError::BadQuery(e.to_string()))?;
            report.replayed_queries += 1;
        }
        // The stable VTS the crashed engine had actually reached, as
        // persisted in the last checkpoint's per-node entries. Replay may
        // push the *new* stable VTS far beyond it (a dead node's stall
        // disappears once every replayed batch lands on live nodes), and
        // catching windows up to the replayed VTS would silently skip
        // every firing the outage had delayed — a lost-firing bug.
        let mut cp_stable: Option<Vts> = None;
        let mut replay_high = Vec::new();
        for cp in chain {
            if !cp.local_vts.is_empty() {
                let locals: Vec<Vts> = cp.local_vts.into_iter().map(Vts::from_entries).collect();
                cp_stable = Some(Vts::stable(locals.iter()));
            }
            let mut pl = engine.pipeline.lock();
            for lb in cp.batches {
                report.replayed_batches += 1;
                let id = engine.replay_logged(&mut pl, lb, &mut replay_high);
                report.replayed_batch_ids.push(id);
            }
        }
        // Windows resume at the *checkpointed* stable VTS, not the
        // replayed one: the window at the horizon may re-fire
        // (at-least-once, §5), and every window the crash or an outage
        // delayed fires on the next `fire_ready()`.
        let streams = {
            let mut pl = engine.pipeline.lock();
            pl.resume_adaptors();
            pl.coordinator.stable_vts().len()
        };
        let mut resume = cp_stable.unwrap_or_else(|| Vts::new(streams));
        resume.grow(streams);
        engine.resume_windows(&resume);

        let counters = engine.cluster.obs().faults();
        report.dedup_suppressed = before.delta(&counters.snapshot()).dedup_suppressed;
        report.restored_stable_sn = engine.stable_sn().0;
        counters.inc_recovery();
        counters.add_replayed_batches(report.replayed_batches);
        let ns = t0.elapsed().as_nanos() as u64;
        report.recovery_ms = ns as f64 / 1e6;
        engine
            .cluster
            .obs()
            .record_stream_stage("recovery", Stage::Recovery, ns);
        drop(recovery_span);
        #[cfg(debug_assertions)]
        engine.assert_scrub_clean("recovery");
        Ok((engine, report))
    }
}
