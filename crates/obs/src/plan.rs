//! Adaptive-planning counters.
//!
//! The adaptive layer's economics are "plans reused vs plans rebuilt"
//! and "estimate drift caught vs missed": the plan cache removes repeat
//! planning work from one-shot bursts, and the drift detector trades a
//! re-planning pause for cheaper firings afterwards. The engine records
//! every cache probe, feedback observation, re-plan, and execution-mode
//! decision here, plus the modeled work metric (`edges_traversed`) the
//! bench harness uses to compare plan quality deterministically. The
//! harness diffs snapshots around an experiment, like the fabric /
//! fault / pool / incremental / overload counters.

use crate::family::counter_family;
use std::sync::atomic::Ordering;

counter_family! {
    /// Monotonic counters of adaptive-planning activity.
    PlanCounters => PlanSnapshot {
        /// Plan-cache probes answered from the cache.
        cache_hits,
        /// Plan-cache probes that had to plan from scratch.
        cache_misses,
        /// Firings whose per-step fan-out fed the drift detector.
        feedback_firings,
        /// Observed firings whose fan-out left the tolerance band.
        drifted_firings,
        /// Re-plans of registered continuous queries (detector trips).
        replans,
        /// Maintained-query delta states invalidated by a plan switch.
        delta_rebuilds,
        /// Firings the cost model ran in place.
        mode_inplace,
        /// Firings the cost model fanned out across partitions.
        mode_forkjoin,
        /// Index edges traversed (sum of per-step output rows) across
        /// recompute firings — the modeled plan-quality metric.
        edges_traversed,
        /// Hash probes the stream index made for window lookups of data
        /// keys — what a window read costs before it touches any value.
        window_probes,
    }
}

impl PlanCounters {
    /// Records one plan-cache probe.
    pub fn record_cache(&self, hit: bool) {
        if hit {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.cache_misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one firing observed by the drift detector; `drifted` says
    /// whether its fan-out left the tolerance band.
    pub fn record_feedback(&self, drifted: bool) {
        self.feedback_firings.fetch_add(1, Ordering::Relaxed);
        if drifted {
            self.drifted_firings.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one re-plan of a registered continuous query.
    pub fn record_replan(&self) {
        self.replans.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one maintained query's `DeltaState` invalidated across a
    /// plan switch (it rebuilds on the next firing).
    pub fn record_delta_rebuild(&self) {
        self.delta_rebuilds.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one cost-model execution-mode decision.
    pub fn record_mode(&self, forkjoin: bool) {
        if forkjoin {
            self.mode_forkjoin.fetch_add(1, Ordering::Relaxed);
        } else {
            self.mode_inplace.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Adds `n` traversed index edges (a firing's per-step output-row
    /// total — the deterministic modeled-work metric).
    pub fn record_edges(&self, n: u64) {
        self.edges_traversed.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds `n` stream-index probes made by one window lookup.
    pub fn record_window_probes(&self, n: u64) {
        self.window_probes.fetch_add(n, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_delta() {
        let c = PlanCounters::default();
        c.record_cache(false);
        c.record_replan();
        let before = c.snapshot();
        c.record_cache(true);
        c.record_cache(true);
        c.record_feedback(false);
        c.record_feedback(true);
        c.record_mode(false);
        c.record_mode(true);
        c.record_delta_rebuild();
        c.record_edges(40);
        c.record_edges(2);
        c.record_window_probes(5);
        let d = before.delta(&c.snapshot());
        assert_eq!(d.cache_hits, 2);
        assert_eq!(d.cache_misses, 0);
        assert_eq!(d.feedback_firings, 2);
        assert_eq!(d.drifted_firings, 1);
        assert_eq!(d.replans, 0);
        assert_eq!(d.delta_rebuilds, 1);
        assert_eq!(d.mode_inplace, 1);
        assert_eq!(d.mode_forkjoin, 1);
        assert_eq!(d.edges_traversed, 42);
        assert_eq!(d.window_probes, 5);
        assert_eq!(before.cache_misses, 1);
        assert_eq!(before.replans, 1);
    }

    #[test]
    fn entries_cover_every_field() {
        let c = PlanCounters::default();
        c.record_cache(true);
        c.record_cache(false);
        c.record_feedback(true);
        c.record_replan();
        c.record_delta_rebuild();
        c.record_mode(true);
        c.record_mode(false);
        c.record_edges(3);
        c.record_window_probes(1);
        let s = c.snapshot();
        crate::family::assert_entries_cover_every_field::<10>(&s, s.entries());
    }
}
