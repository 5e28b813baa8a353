//! End-to-end crash recovery (§5).
//!
//! [`RecoveryManager`] packages the full recovery path over a running
//! deployment: capture the durable state a crash would leave behind
//! (drained checkpoints plus a non-draining tail of the current log),
//! boot a fresh engine, replay the checkpoint chain, re-register the
//! continuous queries, restore the vector timestamps, and resume the
//! windows at the checkpointed stable VTS so no delayed firing is lost
//! (at-least-once: the firing *at* the horizon may repeat, never vanish).
//!
//! The manager owns the immutable inputs recovery needs — configuration,
//! initial stored data, stream schemas, the shared string server — so a
//! drill is a one-liner for benches and tests.

use crate::checkpoint::CheckpointError;
use crate::config::EngineConfig;
use crate::engine::{RecoveryReport, WukongS};
use bytes::Bytes;
use std::sync::Arc;
use wukong_net::NodeId;
use wukong_rdf::{StringServer, Triple};
use wukong_stream::StreamSchema;

/// Drives checkpoint-and-log recovery for one deployment lineage.
pub struct RecoveryManager {
    cfg: EngineConfig,
    base: Vec<Triple>,
    schemas: Vec<StreamSchema>,
    strings: Arc<StringServer>,
}

impl RecoveryManager {
    /// Captures the recovery inputs: the deployment's configuration, its
    /// initial stored data, the stream schemas in registration order, and
    /// the shared string server checkpointed IDs refer to.
    pub fn new(
        cfg: EngineConfig,
        base: Vec<Triple>,
        schemas: Vec<StreamSchema>,
        strings: Arc<StringServer>,
    ) -> Self {
        RecoveryManager {
            cfg,
            base,
            schemas,
            strings,
        }
    }

    /// One capture of the checkpoint chain. With `corrupt` set, an active
    /// checkpoint-corruption rule may bit-rot each non-empty checkpoint on
    /// the "durable medium" — the fault model of DESIGN.md §13, applied at
    /// capture time so the running engine never sees the damage.
    fn capture(&self, engine: &WukongS, corrupt: bool) -> Vec<Bytes> {
        let mut cps = engine.checkpoints();
        cps.push(engine.tail_checkpoint());
        if corrupt {
            if let Some(fs) = engine.cluster().fabric().fault_state() {
                for cp in cps.iter_mut() {
                    if cp.is_empty() {
                        continue;
                    }
                    if let Some(bits) = fs.corrupt_checkpoint() {
                        let mut raw = cp.to_vec();
                        let bit = (bits as usize) % (raw.len() * 8);
                        raw[bit / 8] ^= 1 << (bit % 8);
                        *cp = Bytes::from(raw);
                    }
                }
            }
        }
        cps
    }

    /// The durable state a crash of `engine` would leave behind: every
    /// drained checkpoint plus a tail checkpoint of the un-drained log.
    /// Subject to bit-rot when the fault plan corrupts checkpoints.
    pub fn durable_state(&self, engine: &WukongS) -> Vec<Bytes> {
        self.capture(engine, true)
    }

    /// Boots a fresh engine from durable state. The recovered deployment
    /// runs fault-free: the fault plan (and any dead node) died with the
    /// failed process.
    pub fn recover(&self, durable: &[Bytes]) -> Result<(WukongS, RecoveryReport), CheckpointError> {
        let mut cfg = self.cfg.clone();
        cfg.fault_plan = None;
        WukongS::recover_with_report(
            cfg,
            self.base.iter().copied(),
            self.schemas.clone(),
            &self.strings,
            durable,
        )
    }

    /// Integrity-checked recovery: try the (possibly bit-rotted) durable
    /// chain first; if its section checksums reject it, fall back to the
    /// pristine upstream copy. Detection is never silent — the recovered
    /// engine's integrity counters and the report both record it.
    fn recover_verified(
        &self,
        durable: &[Bytes],
        backup: &[Bytes],
    ) -> Result<(WukongS, RecoveryReport), CheckpointError> {
        match self.recover(durable) {
            Ok(ok) => Ok(ok),
            Err(_) => {
                let (engine, mut report) = self.recover(backup)?;
                engine
                    .cluster()
                    .obs()
                    .integrity()
                    .inc_checksum_fail_checkpoint();
                report.integrity_violations += 1;
                Ok((engine, report))
            }
        }
    }

    /// The drill: optionally kill `node` on the running engine, capture
    /// the durable state exactly as the crash would see it, recover a
    /// fresh engine from it, and account any quarantined shards the
    /// rebuild cleared.
    ///
    /// Two copies are captured, neither draining the log: the pristine
    /// upstream copy (§5 assumes stream sources can re-serve history)
    /// first, then the durable one, which an active checkpoint-corruption
    /// rule may bit-rot; recovery falls back to the first when the second
    /// fails its section checksums. Without such a rule no corruption
    /// draw is made and the two are equal. The recovered engine starts
    /// with no quarantine: recovery replays the pristine *logged*
    /// batches — corruption happened on the wire after logging — so the
    /// rebuilt shards are whole.
    pub fn drill(
        &self,
        engine: &WukongS,
        node: Option<NodeId>,
    ) -> Result<(WukongS, RecoveryReport), CheckpointError> {
        let quarantined = engine.quarantined_nodes();
        if let Some(n) = node {
            engine.cluster().fabric().kill_node(n);
        }
        let backup = self.capture(engine, false);
        let durable = self.durable_state(engine);
        let t0 = std::time::Instant::now();
        let (recovered, mut report) = self.recover_verified(&durable, &backup)?;
        report.quarantined_shards = quarantined.len() as u64;
        if !quarantined.is_empty() {
            let integrity = recovered.cluster().obs().integrity();
            integrity.inc_rebuild();
            integrity.add_rebuild_ns(t0.elapsed().as_nanos() as u64);
        }
        Ok((recovered, report))
    }
}
