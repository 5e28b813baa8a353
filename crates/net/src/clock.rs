//! Per-task virtual time accounting.
//!
//! A task's reported latency is the sum of its *real* compute time (the
//! Rust store and executor code genuinely runs) and the *charged* network
//! time accumulated from the simulated fabric. Keeping the two separate
//! also lets the benchmark harness report breakdowns such as Fig. 4's
//! cross-system cost percentages.

use std::time::Instant;

/// Tracks one task's real compute time plus charged virtual time.
#[derive(Debug, Clone)]
pub struct TaskTimer {
    start: Instant,
    charged_ns: u64,
    excluded_ns: u64,
}

impl Default for TaskTimer {
    fn default() -> Self {
        Self::start()
    }
}

impl TaskTimer {
    /// Starts timing now.
    pub fn start() -> Self {
        TaskTimer {
            start: Instant::now(),
            charged_ns: 0,
            excluded_ns: 0,
        }
    }

    /// Adds `ns` of simulated (network or modelled) latency.
    pub fn charge(&mut self, ns: u64) {
        self.charged_ns += ns;
    }

    /// Marks `ns` of already-elapsed real time as modelled elsewhere.
    ///
    /// Distribution drivers that *emulate* parallel work by running
    /// partitions sequentially measure each partition's real time, charge
    /// the maximum (the parallel latency), and exclude the sequential sum
    /// so it is not double-counted.
    pub fn exclude(&mut self, ns: u64) {
        self.excluded_ns += ns;
    }

    /// Merges the charges of a sub-task that ran *sequentially* within
    /// this task (e.g. a nested store lookup).
    pub fn absorb(&mut self, other: &TaskTimer) {
        self.charged_ns += other.charged_ns;
    }

    /// Simulated latency charged so far, in nanoseconds.
    pub fn charged_ns(&self) -> u64 {
        self.charged_ns
    }

    /// Real compute time elapsed so far, minus excluded spans, in
    /// nanoseconds.
    pub(crate) fn real_ns(&self) -> u64 {
        (self.start.elapsed().as_nanos() as u64).saturating_sub(self.excluded_ns)
    }

    /// Total task latency: real compute + charged virtual time.
    pub fn total_ns(&self) -> u64 {
        self.real_ns() + self.charged_ns
    }

    /// Total task latency in fractional milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.total_ns() as f64 / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_accumulates() {
        let mut t = TaskTimer::start();
        t.charge(1_000);
        t.charge(500);
        assert_eq!(t.charged_ns(), 1_500);
        assert!(t.total_ns() >= 1_500);
    }

    #[test]
    fn absorb_merges_charges() {
        let mut outer = TaskTimer::start();
        let mut inner = TaskTimer::start();
        inner.charge(2_000);
        outer.absorb(&inner);
        assert_eq!(outer.charged_ns(), 2_000);
    }

    #[test]
    fn real_time_advances() {
        let t = TaskTimer::start();
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(t.real_ns() >= 1_000_000);
    }
}
