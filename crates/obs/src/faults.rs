//! Fault and recovery counters.
//!
//! The fault-injection layer (in `wukong-net`) and the recovery path (in
//! `wukong-core`) both record into one shared [`FaultCounters`] so a
//! single snapshot answers "what went wrong and what did the engine do
//! about it" for an experiment interval. The counters follow the same
//! monotonic snapshot/delta discipline as `FabricMetrics`.

use crate::family::{bump, counter_family};
use std::sync::atomic::Ordering;

counter_family! {
    /// Monotonic counters of injected faults and the engine's reactions.
    FaultCounters => FaultSnapshot {
        /// Messages dropped by lossy links or dead destinations.
        msgs_dropped,
        /// Messages delivered twice by duplicating links.
        msgs_duplicated,
        /// Messages delivered late by delaying links.
        msgs_delayed,
        /// Drops repaired by the at-least-once retransmit layer.
        retransmits,
        /// RPC waits that expired before a reply arrived.
        rpc_timeouts,
        /// RPC attempts made after a timeout.
        rpc_retries,
        /// Queries answered with partial results.
        degraded_answers,
        /// Duplicated/replayed batches suppressed by VTS dedup.
        dedup_suppressed,
        /// Logged batches replayed during recovery.
        replayed_batches,
        /// Completed checkpoint-and-log recoveries.
        recoveries,
        /// Nodes killed by the fault schedule or a drill.
        node_kills,
        /// Dead nodes restarted.
        node_restarts,
        /// Fabric operations charged extra by slow-node (gray failure) rules.
        ops_slowed,
        /// In-flight message payloads that had a bit flipped.
        msgs_corrupted,
        /// Captured checkpoint images that had a bit flipped.
        checkpoints_corrupted,
    }
}

impl FaultCounters {
    bump! {
        /// A message was dropped by a lossy link or a dead destination.
        inc_dropped => msgs_dropped,
        /// A message was delivered twice by a duplicating link.
        inc_duplicated => msgs_duplicated,
        /// A message was delivered late by a delaying link.
        inc_delayed => msgs_delayed,
        /// A dropped message was re-sent by the at-least-once layer.
        inc_retransmit => retransmits,
        /// An RPC wait expired before the reply arrived.
        inc_rpc_timeout => rpc_timeouts,
        /// An RPC was retried after a timeout.
        inc_rpc_retry => rpc_retries,
        /// A query answered with partial results (unreachable shards).
        inc_degraded => degraded_answers,
        /// A duplicated or replayed batch was suppressed by VTS dedup.
        inc_dedup_suppressed => dedup_suppressed,
        /// A logged batch was replayed during recovery.
        inc_replayed_batch => replayed_batches,
        /// A full checkpoint-and-log recovery completed.
        inc_recovery => recoveries,
        /// A node was killed by the fault schedule or a drill.
        inc_kill => node_kills,
        /// A dead node was restarted.
        inc_restart => node_restarts,
        /// A fabric operation was charged extra by a slow-node rule.
        inc_slowed => ops_slowed,
        /// A bit was flipped in an in-flight message payload.
        inc_corrupt_msg => msgs_corrupted,
        /// A bit was flipped in a captured checkpoint image.
        inc_corrupt_checkpoint => checkpoints_corrupted,
    }

    /// Adds `n` suppressed duplicates at once.
    pub fn add_dedup_suppressed(&self, n: u64) {
        self.dedup_suppressed.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds `n` replayed batches at once.
    pub fn add_replayed_batches(&self, n: u64) {
        self.replayed_batches.fetch_add(n, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_delta() {
        let c = FaultCounters::default();
        c.inc_dropped();
        c.inc_dropped();
        c.inc_retransmit();
        c.inc_recovery();
        c.add_dedup_suppressed(3);
        let before = c.snapshot();
        c.inc_dropped();
        c.add_replayed_batches(5);
        let d = before.delta(&c.snapshot());
        assert_eq!(d.msgs_dropped, 1);
        assert_eq!(d.replayed_batches, 5);
        assert_eq!(d.retransmits, 0);
        assert_eq!(before.msgs_dropped, 2);
        assert_eq!(before.dedup_suppressed, 3);
        assert_eq!(before.recoveries, 1);
    }

    #[test]
    fn entries_cover_every_field() {
        let c = FaultCounters::default();
        c.inc_dropped();
        c.inc_duplicated();
        c.inc_delayed();
        c.inc_retransmit();
        c.inc_rpc_timeout();
        c.inc_rpc_retry();
        c.inc_degraded();
        c.inc_dedup_suppressed();
        c.inc_replayed_batch();
        c.inc_recovery();
        c.inc_kill();
        c.inc_restart();
        c.inc_slowed();
        c.inc_corrupt_msg();
        c.inc_corrupt_checkpoint();
        let s = c.snapshot();
        crate::family::assert_entries_cover_every_field::<15>(&s, s.entries());
    }
}
