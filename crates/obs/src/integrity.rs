//! State-integrity counters.
//!
//! The checksum-verification sites (batch seal → dispatch → install),
//! the invariant scrubber, and the quarantine/rebuild path all record
//! into one shared [`IntegrityCounters`] so a single snapshot answers
//! "was any corruption detected, where, and what did recovery cost".
//! Counters follow the same monotonic snapshot/delta discipline as
//! [`FaultCounters`](crate::FaultCounters).

use crate::family::{bump, counter_family};
use std::sync::atomic::Ordering;

counter_family! {
    /// Monotonic counters of detected corruption and its repair.
    IntegrityCounters => IntegritySnapshot {
        /// Sealed batches rejected at the engine boundary (site: batch).
        checksum_fail_batch,
        /// Sub-batches rejected at store install (site: message).
        checksum_fail_message,
        /// Checkpoint sections rejected during decode (site: checkpoint).
        checksum_fail_checkpoint,
        /// Violated engine invariants found by the scrubber.
        scrub_violations,
        /// Shard transitions into the Quarantined state.
        quarantines,
        /// Quarantined shards rebuilt from checkpoint + log replay.
        rebuilds,
        /// Total nanoseconds spent in quarantine rebuilds.
        rebuild_ns,
    }
}

impl IntegrityCounters {
    bump! {
        /// A sealed batch failed checksum verification at the engine boundary.
        inc_checksum_fail_batch => checksum_fail_batch,
        /// A dispatched sub-batch failed checksum verification at store install.
        inc_checksum_fail_message => checksum_fail_message,
        /// A checkpoint section failed checksum verification during decode.
        inc_checksum_fail_checkpoint => checksum_fail_checkpoint,
        /// The invariant scrubber found a violated engine invariant.
        inc_scrub_violation => scrub_violations,
        /// A shard transitioned into the Quarantined state.
        inc_quarantine => quarantines,
        /// A quarantined shard was rebuilt from checkpoint + log replay.
        inc_rebuild => rebuilds,
    }

    /// Adds `n` scrubber violations at once.
    pub fn add_scrub_violations(&self, n: u64) {
        self.scrub_violations.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds `ns` nanoseconds of quarantine-rebuild work.
    pub fn add_rebuild_ns(&self, ns: u64) {
        self.rebuild_ns.fetch_add(ns, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_delta() {
        let c = IntegrityCounters::default();
        c.inc_checksum_fail_batch();
        c.inc_checksum_fail_message();
        c.inc_checksum_fail_message();
        c.inc_quarantine();
        let before = c.snapshot();
        c.inc_checksum_fail_checkpoint();
        c.inc_rebuild();
        c.add_rebuild_ns(1_500);
        c.add_scrub_violations(2);
        let d = before.delta(&c.snapshot());
        assert_eq!(d.checksum_fail_checkpoint, 1);
        assert_eq!(d.rebuilds, 1);
        assert_eq!(d.rebuild_ns, 1_500);
        assert_eq!(d.scrub_violations, 2);
        assert_eq!(d.checksum_fail_message, 0);
        assert_eq!(before.checksum_fail_message, 2);
        assert_eq!(before.quarantines, 1);
        let s = c.snapshot();
        let failures = s.checksum_fail_batch + s.checksum_fail_message + s.checksum_fail_checkpoint;
        assert_eq!(failures, 4);
    }

    #[test]
    fn entries_cover_every_field() {
        let c = IntegrityCounters::default();
        c.inc_checksum_fail_batch();
        c.inc_checksum_fail_message();
        c.inc_checksum_fail_checkpoint();
        c.inc_scrub_violation();
        c.inc_quarantine();
        c.inc_rebuild();
        c.add_rebuild_ns(7);
        let s = c.snapshot();
        crate::family::assert_entries_cover_every_field::<7>(&s, s.entries());
    }
}
