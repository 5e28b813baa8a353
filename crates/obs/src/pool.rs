//! Worker-pool counters.
//!
//! Every parallel region the engine runs on a node's worker pool records
//! here: how many tasks it held, how work spread across lanes, and what
//! the region cost both serially and under the pool's deterministic
//! list-schedule cost model (see `wukong-net`'s `WorkerPool`). The bench
//! harness diffs snapshots around an experiment to report pool activity
//! the same way it reports fabric and fault counters.

use crate::family::counter_family;
use std::sync::atomic::Ordering;

counter_family! {
    /// Monotonic counters of worker-pool activity.
    PoolCounters => PoolSnapshot {
        /// Tasks executed across all regions.
        tasks,
        /// Parallel regions run (one per `WorkerPool::map` call).
        regions,
        /// Tasks claimed by a lane other than their round-robin home.
        steals,
        /// Deepest queue observed at the start of any region.
        max_queue_depth [high_water],
        /// Sum of per-task durations (the serial cost of all regions).
        serial_busy_ns,
        /// Sum of modeled parallel region durations (list-schedule makespan
        /// per region).
        modeled_busy_ns,
        /// Sum of region wall-clock durations as the host actually ran them.
        region_wall_ns,
    }
}

impl PoolCounters {
    /// Records one finished parallel region: `tasks` executed, of which
    /// `steals` ran on a lane other than their round-robin home,
    /// `queue_depth` tasks were pending when the region started,
    /// `serial_ns` is the sum of per-task durations, `modeled_ns` the
    /// region's modeled parallel duration (the makespan of a list
    /// schedule over the pool's lanes), and `wall_ns` the region's
    /// actual elapsed time on the host (spawn overhead and core
    /// contention included).
    pub fn record_region(
        &self,
        tasks: u64,
        steals: u64,
        queue_depth: u64,
        serial_ns: u64,
        modeled_ns: u64,
        wall_ns: u64,
    ) {
        self.tasks.fetch_add(tasks, Ordering::Relaxed);
        self.regions.fetch_add(1, Ordering::Relaxed);
        self.steals.fetch_add(steals, Ordering::Relaxed);
        self.max_queue_depth
            .fetch_max(queue_depth, Ordering::Relaxed);
        self.serial_busy_ns.fetch_add(serial_ns, Ordering::Relaxed);
        self.modeled_busy_ns
            .fetch_add(modeled_ns, Ordering::Relaxed);
        self.region_wall_ns.fetch_add(wall_ns, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_accumulate_and_delta() {
        let c = PoolCounters::default();
        c.record_region(4, 1, 4, 1_000, 400, 500);
        let before = c.snapshot();
        c.record_region(8, 3, 8, 2_000, 600, 700);
        let d = before.delta(&c.snapshot());
        assert_eq!(d.tasks, 8);
        assert_eq!(d.regions, 1);
        assert_eq!(d.steals, 3);
        assert_eq!(d.max_queue_depth, 8);
        assert_eq!(d.serial_busy_ns, 2_000);
        assert_eq!(d.modeled_busy_ns, 600);
        assert_eq!(d.region_wall_ns, 700);
        assert_eq!(before.tasks, 4);
    }

    #[test]
    fn queue_depth_is_a_high_water_mark() {
        let c = PoolCounters::default();
        c.record_region(8, 0, 8, 0, 0, 0);
        c.record_region(2, 0, 2, 0, 0, 0);
        assert_eq!(c.snapshot().max_queue_depth, 8);
    }

    #[test]
    fn entries_cover_every_field() {
        let c = PoolCounters::default();
        c.record_region(3, 1, 3, 30, 10, 40);
        let s = c.snapshot();
        crate::family::assert_entries_cover_every_field::<7>(&s, s.entries());
    }
}
