//! Per-node worker pools with deterministic-by-construction results.
//!
//! Each simulated node owns a [`WorkerPool`]; the engine hands it the
//! independent tasks of one parallel region — continuous-query firings,
//! fork-join partitions, one-shot batches, per-node ingest application —
//! and gets the results back **in input order**, whatever interleaving
//! the OS scheduler produced. Determinism holds by construction: workers
//! claim task indices from a shared cursor, tag every result with its
//! index, and the pool reassembles the output by index, so the result
//! vector is byte-identical for any `workers` value (1, 2, 4, 8, …).
//!
//! Latency follows the same substitution discipline as the fabric: the
//! host running this simulation may have fewer cores than the modeled
//! node (possibly just one), so a region's *modeled* duration is not its
//! wall-clock but the makespan of a deterministic list schedule of the
//! measured per-task durations over `workers` lanes — exactly the
//! schedule the claim cursor produces. Both the serial sum and the
//! modeled duration land in the shared [`PoolCounters`], which is how
//! the worker-scaling benchmark reports ≥ real speedups on a single-core
//! container.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use wukong_obs::PoolCounters;

std::thread_local! {
    /// Set while the current thread is executing a pool task. A `map`
    /// call from such a thread is a *nested* region (e.g. a fork-join
    /// sub-query inside a pooled firing): it runs sequentially and stays
    /// out of the counters, so top-level regions alone account for pool
    /// time — no double-counted work, no thread explosion.
    static IN_POOL_TASK: Cell<bool> = const { Cell::new(false) };
}

/// Per-thread CPU time in nanoseconds. Task durations measured this way
/// stay honest when the pool is wider than the host (a single-core
/// container running a 4-lane region would otherwise charge every task
/// for the time it spent preempted). Falls back to 0 where the clock is
/// unavailable; callers then use wall time instead.
#[cfg(target_os = "linux")]
fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` outlives the call and the clock id is valid on Linux.
    if unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) } == 0 {
        (ts.sec as u64).saturating_mul(1_000_000_000) + ts.nsec as u64
    } else {
        0
    }
}

#[cfg(not(target_os = "linux"))]
fn thread_cpu_ns() -> u64 {
    0
}

/// One lane's haul from a region: the lane index plus every
/// `(task index, result, duration ns)` it claimed.
type LaneResults<R> = (usize, Vec<(usize, R, u64)>);

/// Times one task: thread CPU time when available, wall time otherwise.
fn timed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let cpu0 = thread_cpu_ns();
    let t0 = Instant::now();
    let r = f();
    let cpu1 = thread_cpu_ns();
    let ns = if cpu1 > 0 && cpu0 > 0 {
        cpu1.saturating_sub(cpu0)
    } else {
        t0.elapsed().as_nanos() as u64
    };
    (r, ns)
}

/// A fixed-width worker pool for one simulated node.
///
/// The pool spawns scoped threads per region rather than keeping
/// persistent workers: regions are short, tasks borrow engine state, and
/// scoped spawning keeps every borrow lifetime honest. Regions with one
/// task (or one worker) run inline with zero spawn overhead.
pub struct WorkerPool {
    workers: usize,
    counters: Arc<PoolCounters>,
}

impl WorkerPool {
    /// Creates a pool of `workers` lanes (clamped to ≥ 1) recording into
    /// `counters`.
    pub fn new(workers: usize, counters: Arc<PoolCounters>) -> Self {
        WorkerPool {
            workers: workers.max(1),
            counters,
        }
    }

    /// The configured lane count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `f` over every item, in parallel across the pool's lanes,
    /// returning the results in input order. `f` receives each item's
    /// index alongside the item.
    ///
    /// Tasks must be independent: the pool guarantees nothing about
    /// execution order, only about result order.
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        // Nested region: the caller is itself a pool task. Run inline
        // without recording — the enclosing region's task durations
        // already cover this work.
        if IN_POOL_TASK.with(Cell::get) {
            return items
                .into_iter()
                .enumerate()
                .map(|(i, item)| f(i, item))
                .collect();
        }
        let region0 = Instant::now();
        let lanes = self.workers.min(n);
        if lanes <= 1 {
            let mut serial = 0u64;
            IN_POOL_TASK.with(|c| c.set(true));
            let out = items
                .into_iter()
                .enumerate()
                .map(|(i, item)| {
                    let (r, ns) = timed(|| f(i, item));
                    serial += ns;
                    r
                })
                .collect();
            IN_POOL_TASK.with(|c| c.set(false));
            // On one lane the list schedule is the serial order: no
            // per-task durations to keep, nothing to allocate.
            let wall = region0.elapsed().as_nanos() as u64;
            self.counters
                .record_region(n as u64, 0, n as u64, serial, serial, wall);
            return out;
        }

        // Shared claim cursor + per-task slots: a worker owns the task
        // whose index it claimed, and only that worker touches the slot.
        let cursor = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let worker = |lane: usize| {
            IN_POOL_TASK.with(|c| c.set(true));
            let mut local: Vec<(usize, R, u64)> = Vec::new();
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= slots.len() {
                    break;
                }
                let item = slots[i].lock().take().expect("each task is claimed once");
                let (r, ns) = timed(|| f(i, item));
                local.push((i, r, ns));
            }
            IN_POOL_TASK.with(|c| c.set(false));
            (lane, local)
        };

        let collected: Vec<LaneResults<R>> = std::thread::scope(|s| {
            let handles: Vec<_> = (1..lanes)
                .map(|lane| s.spawn(move || worker(lane)))
                .collect();
            // The calling thread is lane 0 — no idle coordinator.
            let mut all = vec![worker(0)];
            for h in handles {
                all.push(h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
            }
            all
        });

        let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
        let mut durations = vec![0u64; n];
        let mut steals = 0u64;
        for (lane, local) in collected {
            for (i, r, ns) in local {
                if i % lanes != lane {
                    steals += 1;
                }
                durations[i] = ns;
                out[i] = Some(r);
            }
        }
        self.record(
            &durations,
            lanes,
            steals,
            region0.elapsed().as_nanos() as u64,
        );
        out.into_iter()
            .map(|r| r.expect("every task index was claimed"))
            .collect()
    }

    /// Records one region: serial cost is the duration sum, modeled cost
    /// is the makespan of a list schedule over `lanes` (each task, in
    /// claim order, goes to the earliest-free lane — exactly what the
    /// shared claim cursor does on real hardware), and `wall_ns` is the
    /// region's actual elapsed time (spawn overhead and host contention
    /// included — what a modeled run substitutes away).
    fn record(&self, durations: &[u64], lanes: usize, steals: u64, wall_ns: u64) {
        let serial: u64 = durations.iter().sum();
        let mut lane_ns = vec![0u64; lanes.max(1)];
        for &ns in durations {
            let next = lane_ns
                .iter()
                .enumerate()
                .min_by_key(|(_, free_at)| **free_at)
                .map(|(i, _)| i)
                .expect("at least one lane");
            lane_ns[next] += ns;
        }
        let modeled = lane_ns.into_iter().max().unwrap_or(0);
        self.counters.record_region(
            durations.len() as u64,
            steals,
            durations.len() as u64,
            serial,
            modeled,
            wall_ns,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(workers: usize) -> (WorkerPool, Arc<PoolCounters>) {
        let counters = Arc::new(PoolCounters::default());
        (WorkerPool::new(workers, Arc::clone(&counters)), counters)
    }

    #[test]
    fn results_keep_input_order_at_any_width() {
        let items: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for workers in [1, 2, 4, 8] {
            let (p, _) = pool(workers);
            assert_eq!(
                p.map(items.clone(), |_, x| x * x),
                expect,
                "{workers} workers"
            );
        }
    }

    #[test]
    fn empty_and_singleton_regions_run_inline() {
        let (p, c) = pool(8);
        let empty: Vec<u64> = Vec::new();
        assert!(p.map(empty, |_, x: u64| x).is_empty());
        assert_eq!(c.snapshot().regions, 0, "empty regions are not recorded");
        assert_eq!(p.map(vec![7u64], |i, x| (i, x)), vec![(0, 7)]);
        let snap = c.snapshot();
        assert_eq!(snap.regions, 1);
        assert_eq!(snap.tasks, 1);
        assert_eq!(snap.steals, 0, "inline regions cannot steal");
    }

    #[test]
    fn counters_model_list_schedule_makespan() {
        let (p, c) = pool(4);
        p.map((0..16u64).collect(), |_, x| x + 1);
        let snap = c.snapshot();
        assert_eq!(snap.tasks, 16);
        assert_eq!(snap.regions, 1);
        assert_eq!(snap.max_queue_depth, 16);
        assert!(snap.serial_busy_ns >= snap.modeled_busy_ns);
        // 16 uniform-ish tasks over 4 lanes: the makespan is well under
        // the serial sum.
        assert!(snap.modeled_busy_ns < snap.serial_busy_ns || snap.serial_busy_ns == 0);
    }

    #[test]
    fn index_is_passed_through() {
        let (p, _) = pool(4);
        let out = p.map(vec![10u64, 20, 30, 40, 50], |i, x| (i as u64) * 100 + x);
        assert_eq!(out, vec![10, 120, 230, 340, 450]);
    }

    #[test]
    fn worker_panics_propagate() {
        let (p, _) = pool(4);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.map((0..8u64).collect(), |_, x| {
                assert!(x != 5, "boom");
                x
            })
        }));
        assert!(r.is_err());
    }

    #[test]
    fn zero_width_pool_clamps_to_one() {
        let (p, _) = pool(0);
        assert_eq!(p.workers(), 1);
        assert_eq!(p.map(vec![1u64, 2], |_, x| x), vec![1, 2]);
    }
}
