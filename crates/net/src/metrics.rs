//! Fabric-wide operation counters.
//!
//! The benchmark harness uses these to report *why* a configuration is
//! slower (e.g. Non-RDMA turning each one-sided read into an RPC pair), and
//! the tests use them to assert operation counts — the quantity the
//! simulation is designed to reproduce faithfully.

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic counters of fabric activity.
#[derive(Debug, Default)]
pub struct FabricMetrics {
    one_sided_reads: AtomicU64,
    messages: AtomicU64,
    bytes_read: AtomicU64,
    bytes_sent: AtomicU64,
    charged_ns: AtomicU64,
}

/// A point-in-time copy of [`FabricMetrics`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Number of one-sided READ verbs issued.
    pub one_sided_reads: u64,
    /// Number of two-sided messages sent.
    pub messages: u64,
    /// Payload bytes moved by READs.
    pub bytes_read: u64,
    /// Payload bytes moved by messages.
    pub bytes_sent: u64,
    /// Total virtual nanoseconds charged for network activity.
    pub charged_ns: u64,
}

impl FabricMetrics {
    /// Records a one-sided read of `bytes` charged `ns`.
    pub(crate) fn record_read(&self, bytes: usize, ns: u64) {
        self.one_sided_reads.fetch_add(1, Ordering::Relaxed);
        self.bytes_read.fetch_add(bytes as u64, Ordering::Relaxed);
        self.charged_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Records a two-sided message of `bytes` charged `ns`.
    pub(crate) fn record_message(&self, bytes: usize, ns: u64) {
        self.messages.fetch_add(1, Ordering::Relaxed);
        self.bytes_sent.fetch_add(bytes as u64, Ordering::Relaxed);
        self.charged_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Takes a snapshot of all counters.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            one_sided_reads: self.one_sided_reads.load(Ordering::Relaxed),
            messages: self.messages.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            charged_ns: self.charged_ns.load(Ordering::Relaxed),
        }
    }
}

impl MetricsSnapshot {
    /// Difference of two snapshots (`later - self`).
    pub fn delta(&self, later: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            one_sided_reads: later.one_sided_reads - self.one_sided_reads,
            messages: later.messages - self.messages,
            bytes_read: later.bytes_read - self.bytes_read,
            bytes_sent: later.bytes_sent - self.bytes_sent,
            charged_ns: later.charged_ns - self.charged_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = FabricMetrics::default();
        m.record_read(100, 2_000);
        m.record_read(50, 2_000);
        m.record_message(10, 5_000);
        let s = m.snapshot();
        assert_eq!(s.one_sided_reads, 2);
        assert_eq!(s.messages, 1);
        assert_eq!(s.bytes_read, 150);
        assert_eq!(s.bytes_sent, 10);
        assert_eq!(s.charged_ns, 9_000);
    }

    #[test]
    fn snapshot_delta() {
        let m = FabricMetrics::default();
        m.record_read(100, 2_000);
        let before = m.snapshot();
        m.record_read(100, 2_000);
        let after = m.snapshot();
        let d = before.delta(&after);
        assert_eq!(d.one_sided_reads, 1);
        assert_eq!(d.bytes_read, 100);
    }
}
