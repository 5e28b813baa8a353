//! Overload-management counters.
//!
//! The overload subsystem (bounded ingest + deterministic shedding +
//! shed-then-catch-up recovery, in `wukong-core`/`wukong-stream`) records
//! into one shared [`OverloadCounters`] so a single snapshot answers
//! "how hard was the engine pushed and what did it give up" for an
//! experiment interval. Same monotonic snapshot/delta discipline as
//! [`crate::FaultCounters`].

use crate::family::{bump, counter_family};
use std::sync::atomic::Ordering;

counter_family! {
    /// Monotonic counters of load shedding, admission control, and catch-up.
    OverloadCounters => OverloadSnapshot {
        /// Shed events under the drop-oldest-window policy.
        sheds_drop_oldest,
        /// Shed events under the sample-within-batch policy.
        sheds_sampled,
        /// Tuples dropped by the shed policy (before any catch-up replay).
        tuples_shed,
        /// One-shot queries rejected by admission control.
        admission_rejected,
        /// Degradation state-machine transitions.
        state_transitions,
        /// Completed catch-up replay episodes.
        catchup_replays,
        /// Tuples re-inserted by catch-up replays.
        catchup_replayed_tuples,
        /// Firings that carried a `degraded` staleness marker.
        degraded_firings,
        /// Incremental state rebuilds forced by a shed gap.
        incremental_rebuilds,
    }
}

impl OverloadCounters {
    bump! {
        /// A full queue shed the oldest pending window's tuples.
        inc_shed_drop_oldest => sheds_drop_oldest,
        /// A full queue deterministically sampled tuples out of a batch.
        inc_shed_sampled => sheds_sampled,
        /// A one-shot query was rejected by admission control.
        inc_admission_rejected => admission_rejected,
        /// The degradation state machine changed state.
        inc_state_transition => state_transitions,
        /// A catch-up replay episode completed.
        inc_catchup_replay => catchup_replays,
        /// A firing carried a `degraded` staleness marker.
        inc_degraded_firing => degraded_firings,
        /// A shed gap forced an incremental query to rebuild its state.
        inc_incremental_rebuild => incremental_rebuilds,
    }

    /// Adds `n` shed tuples at once.
    pub fn add_tuples_shed(&self, n: u64) {
        self.tuples_shed.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds `n` tuples re-inserted by a catch-up replay.
    pub fn add_replayed_tuples(&self, n: u64) {
        self.catchup_replayed_tuples.fetch_add(n, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_delta() {
        let c = OverloadCounters::default();
        c.inc_shed_drop_oldest();
        c.add_tuples_shed(40);
        c.inc_state_transition();
        let before = c.snapshot();
        c.inc_shed_sampled();
        c.add_tuples_shed(10);
        c.inc_catchup_replay();
        c.add_replayed_tuples(50);
        let d = before.delta(&c.snapshot());
        assert_eq!(d.sheds_drop_oldest, 0);
        assert_eq!(d.sheds_sampled, 1);
        assert_eq!(d.tuples_shed, 10);
        assert_eq!(d.catchup_replayed_tuples, 50);
        assert_eq!(before.tuples_shed, 40);
    }

    #[test]
    fn entries_cover_every_field() {
        let c = OverloadCounters::default();
        c.inc_shed_drop_oldest();
        c.inc_shed_sampled();
        c.add_tuples_shed(1);
        c.inc_admission_rejected();
        c.inc_state_transition();
        c.inc_catchup_replay();
        c.add_replayed_tuples(1);
        c.inc_degraded_firing();
        c.inc_incremental_rebuild();
        let s = c.snapshot();
        crate::family::assert_entries_cover_every_field::<9>(&s, s.entries());
    }
}
