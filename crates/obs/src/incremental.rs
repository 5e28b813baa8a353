//! Delta-maintenance counters.
//!
//! The incremental execution mode's economics are "rows reused vs rows
//! recomputed": a high reuse ratio is what turns window overlap into
//! latency savings. The engine records every continuous-query firing
//! here — which path it took (incremental, full rebuild, or recompute
//! fallback) and how many state rows each maintained firing carried
//! over, re-derived, and retracted. The bench harness diffs snapshots
//! around an experiment, like the fabric / fault / pool counters.

use crate::family::counter_family;
use std::sync::atomic::Ordering;

counter_family! {
    /// Monotonic counters of incremental-execution activity.
    IncrementalCounters => IncrementalSnapshot {
        /// Firings maintained by delta application over retained state.
        incremental_firings,
        /// Firings that rebuilt state from scratch (first firing of a query,
        /// post-recovery, or non-monotone window movement).
        rebuild_firings,
        /// Firings that ran the full recompute path instead.
        fallback_firings,
        /// State rows carried over across maintained firings.
        rows_reused,
        /// Rows newly derived by delta application or rebuild.
        rows_recomputed,
        /// State rows dropped because a contributing edge expired.
        rows_retracted,
    }
}

impl IncrementalCounters {
    /// Records one maintained firing: `rebuilt` says whether state was
    /// rebuilt from scratch, the row counts say what the maintenance did.
    pub fn record_maintained(&self, rebuilt: bool, reused: u64, recomputed: u64, retracted: u64) {
        if rebuilt {
            self.rebuild_firings.fetch_add(1, Ordering::Relaxed);
        } else {
            self.incremental_firings.fetch_add(1, Ordering::Relaxed);
        }
        self.rows_reused.fetch_add(reused, Ordering::Relaxed);
        self.rows_recomputed
            .fetch_add(recomputed, Ordering::Relaxed);
        self.rows_retracted.fetch_add(retracted, Ordering::Relaxed);
    }

    /// Records one firing that fell back to full recompute (mode off,
    /// non-incrementalizable plan, or fault plan active).
    pub fn record_fallback(&self) {
        self.fallback_firings.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maintained_and_fallback_accumulate_and_delta() {
        let c = IncrementalCounters::default();
        c.record_maintained(true, 0, 10, 0);
        c.record_fallback();
        let before = c.snapshot();
        c.record_maintained(false, 8, 3, 2);
        c.record_maintained(false, 9, 1, 0);
        let d = before.delta(&c.snapshot());
        assert_eq!(d.incremental_firings, 2);
        assert_eq!(d.rebuild_firings, 0);
        assert_eq!(d.fallback_firings, 0);
        assert_eq!(d.rows_reused, 17);
        assert_eq!(d.rows_recomputed, 4);
        assert_eq!(d.rows_retracted, 2);
        assert_eq!(before.rebuild_firings, 1);
        assert_eq!(before.fallback_firings, 1);
    }

    #[test]
    fn entries_cover_every_field() {
        let c = IncrementalCounters::default();
        c.record_maintained(true, 1, 1, 1);
        c.record_maintained(false, 1, 1, 1);
        c.record_fallback();
        let s = c.snapshot();
        crate::family::assert_entries_cover_every_field::<6>(&s, s.entries());
    }
}
