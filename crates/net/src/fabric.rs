//! The simulated cluster fabric.
//!
//! A [`Fabric`] represents the interconnect of an `n`-node cluster. It does
//! not own any application state — shards live in the store layer — it owns
//! the *cost model* and the installed fault plan, and it enforces the
//! simulation discipline: every cross-node access must pass through the
//! fabric so its latency is charged and counted. A two-sided message is a
//! charge plus a seeded delivery verdict ([`Fabric::send`]); nothing waits
//! on a real clock.

use crate::clock::TaskTimer;
use crate::fault::{Delivery, FaultEvent, FaultPlan, FaultState, MAX_RETRANSMITS};
use crate::metrics::{FabricMetrics, MetricsSnapshot};
use crate::profile::NetworkProfile;
use std::sync::Arc;
use wukong_obs::FaultCounters;

/// Identifier of a simulated cluster node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u16);

impl NodeId {
    /// Index into per-node arrays.
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// The interconnect of a simulated cluster.
pub struct Fabric {
    profile: NetworkProfile,
    nodes: usize,
    metrics: Arc<FabricMetrics>,
    faults: Option<Arc<FaultState>>,
}

impl Fabric {
    /// Creates a fabric connecting `nodes` nodes under `profile` costs.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn new(nodes: usize, profile: NetworkProfile) -> Self {
        assert!(nodes > 0, "a cluster needs at least one node");
        Fabric {
            profile,
            nodes,
            metrics: Arc::new(FabricMetrics::default()),
            faults: None,
        }
    }

    /// Installs a fault plan; subsequent sends, reads, and clock advances
    /// consult it. Faults are recorded into `counters` (normally the
    /// engine registry's shared [`FaultCounters`]).
    pub fn install_faults(&mut self, plan: FaultPlan, counters: Arc<FaultCounters>) {
        self.faults = Some(Arc::new(FaultState::new(plan, self.nodes, counters)));
    }

    /// The installed fault runtime, if any.
    pub fn fault_state(&self) -> Option<&Arc<FaultState>> {
        self.faults.as_ref()
    }

    /// The injected-fault event log so far (empty without a plan).
    pub fn fault_log(&self) -> Vec<FaultEvent> {
        self.faults.as_ref().map_or_else(Vec::new, |f| f.log())
    }

    /// Whether `node` is alive. Always `true` without a fault plan.
    pub fn is_up(&self, node: NodeId) -> bool {
        self.faults.as_ref().is_none_or(|f| f.is_up(node))
    }

    /// Kills `node` immediately (drill entry point). Returns whether the
    /// node was alive; a no-op without a fault plan.
    pub fn kill_node(&self, node: NodeId) -> bool {
        self.faults.as_ref().is_some_and(|f| f.kill(node))
    }

    /// Restarts a dead `node` (empty — recovery repopulates it). Returns
    /// whether the node was dead; a no-op without a fault plan.
    pub fn restart_node(&self, node: NodeId) -> bool {
        self.faults.as_ref().is_some_and(|f| f.restart(node))
    }

    /// Advances simulated time, firing any scheduled kills/restarts that
    /// have come due. The engine calls this from its ingest/advance path.
    pub fn advance_clock(&self, now_ms: u64) {
        if let Some(f) = &self.faults {
            f.advance_clock(now_ms);
        }
    }

    /// Number of nodes in the cluster.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The active cost model.
    pub fn profile(&self) -> NetworkProfile {
        self.profile
    }

    /// Shared operation counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Charges `timer` for a one-sided READ of `bytes` from `to`, issued by
    /// a task running on `from`. Local accesses are free.
    ///
    /// Returns the nanoseconds charged.
    pub fn charge_read(
        &self,
        from: NodeId,
        to: NodeId,
        bytes: usize,
        timer: &mut TaskTimer,
    ) -> u64 {
        if from == to {
            return 0;
        }
        let ns = self.scale(from, to, self.profile.read_cost(bytes));
        self.metrics.record_read(bytes, ns);
        timer.charge(ns);
        ns
    }

    /// Applies the installed slow-node profile (if any) to a charged
    /// duration: operations touching a slowed endpoint cost more.
    fn scale(&self, from: NodeId, to: NodeId, ns: u64) -> u64 {
        match &self.faults {
            Some(f) => f.scale_ns(from, to, ns),
            None => ns,
        }
    }

    /// Charges `timer` for one two-sided message of `bytes` between two
    /// distinct nodes. Local sends are free.
    pub fn charge_message(
        &self,
        from: NodeId,
        to: NodeId,
        bytes: usize,
        timer: &mut TaskTimer,
    ) -> u64 {
        let ns = self.record_message(from, to, bytes);
        timer.charge(ns);
        ns
    }

    /// Sends one two-sided message of `bytes` `from → to`: records the
    /// hop and returns its charge with the installed fault plan's verdict
    /// ([`FaultState::decide`]: dropped, duplicated or delayed; a dead
    /// destination drops it). Self-sends are free and never faulted, and
    /// without a fault plan every message arrives once, on time. The
    /// caller charges what it waits for: the hop, plus `extra_ns` on a
    /// delivered copy.
    pub fn send(&self, from: NodeId, to: NodeId, bytes: usize) -> (u64, Delivery) {
        let ns = self.record_message(from, to, bytes);
        let verdict = match &self.faults {
            Some(f) if from != to => f.decide(from, to),
            _ => Delivery::CLEAN,
        };
        (ns, verdict)
    }

    /// Records one message's hop and returns its cost; local sends are
    /// free and uncounted.
    fn record_message(&self, from: NodeId, to: NodeId, bytes: usize) -> u64 {
        if from == to {
            return 0;
        }
        let ns = self.scale(from, to, self.profile.message_cost(bytes));
        self.metrics.record_message(bytes, ns);
        ns
    }

    /// Sends one logical message `from → to` with at-least-once
    /// semantics: dropped transmissions are re-sent (each attempt charges
    /// the hop cost and any delay) until one is delivered, up to
    /// [`MAX_RETRANSMITS`].
    ///
    /// Returns how many copies reached the destination: `0` means the
    /// destination is dead (or a total-loss link exhausted its retries),
    /// `2` means a duplicating link delivered the message twice — the
    /// receiver's dedup layer is expected to suppress the extra copy.
    /// Without a fault plan this is exactly one charged message.
    pub fn send_at_least_once(
        &self,
        from: NodeId,
        to: NodeId,
        bytes: usize,
        timer: &mut TaskTimer,
    ) -> u32 {
        if from == to {
            return 1;
        }
        for attempt in 1..=MAX_RETRANSMITS {
            if let Some(f) = &self.faults {
                if attempt > 1 {
                    f.counters().inc_retransmit();
                }
                if !f.is_up(to) {
                    f.record_drop(from, to);
                    deadline_miss(to);
                    return 0;
                }
            }
            let (ns, verdict) = self.send(from, to, bytes);
            timer.charge(ns + verdict.extra_ns);
            if verdict.copies > 0 {
                return verdict.copies;
            }
        }
        // A total-loss link exhausted its retry budget — the delivery
        // deadline is gone for good.
        deadline_miss(to);
        0
    }
}

/// Marks a missed delivery deadline against `to` in the calling firing's
/// scoped flight recorder.
fn deadline_miss(to: NodeId) {
    wukong_obs::trace::scoped_marker(wukong_obs::trace::Marker::DeadlineMiss, u64::from(to.0));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_ops_are_free() {
        let f = Fabric::new(2, NetworkProfile::rdma());
        let mut t = TaskTimer::start();
        assert_eq!(f.charge_read(NodeId(0), NodeId(0), 1024, &mut t), 0);
        assert_eq!(f.charge_message(NodeId(1), NodeId(1), 1024, &mut t), 0);
        assert_eq!(t.charged_ns(), 0);
        assert_eq!(f.metrics().one_sided_reads, 0);
    }

    #[test]
    fn remote_read_charges_and_counts() {
        let f = Fabric::new(2, NetworkProfile::rdma());
        let mut t = TaskTimer::start();
        let ns = f.charge_read(NodeId(0), NodeId(1), 64, &mut t);
        assert!(ns >= 2_000);
        assert_eq!(t.charged_ns(), ns);
        let m = f.metrics();
        assert_eq!(m.one_sided_reads, 1);
        assert_eq!(m.bytes_read, 64);
    }

    #[test]
    fn send_charges_a_message_and_delivers_once() {
        let f = Fabric::new(3, NetworkProfile::rdma());
        let mut t = TaskTimer::start();
        let charged = f.charge_message(NodeId(1), NodeId(0), 10, &mut t);
        let (ns, verdict) = f.send(NodeId(0), NodeId(2), 10);
        assert!(ns > 0);
        assert_eq!(ns, charged, "the same hop cost as a charged message");
        assert_eq!(verdict, Delivery::CLEAN);
        let m = f.metrics();
        assert_eq!((m.messages, m.bytes_sent), (2, 20));
    }

    #[test]
    fn self_send_is_free_but_delivered() {
        let f = Fabric::new(1, NetworkProfile::tcp());
        assert_eq!(f.send(NodeId(0), NodeId(0), 100), (0, Delivery::CLEAN));
        assert_eq!(f.metrics().messages, 0);
        // Never faulted either, even on a link that drops everything.
        let f = faulty(1, FaultPlan::seeded(3).lossy(1.0, 0.0));
        assert_eq!(f.send(NodeId(0), NodeId(0), 100), (0, Delivery::CLEAN));
        assert!(f.fault_log().is_empty());
    }

    #[test]
    fn tcp_profile_charges_more() {
        let rdma = Fabric::new(2, NetworkProfile::rdma());
        let tcp = Fabric::new(2, NetworkProfile::tcp());
        let mut tr = TaskTimer::start();
        let mut tt = TaskTimer::start();
        let r = rdma.charge_read(NodeId(0), NodeId(1), 256, &mut tr);
        let t = tcp.charge_read(NodeId(0), NodeId(1), 256, &mut tt);
        assert!(t > 10 * r);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_node_cluster_rejected() {
        let _ = Fabric::new(0, NetworkProfile::rdma());
    }

    fn faulty(nodes: usize, plan: FaultPlan) -> Fabric {
        let mut f = Fabric::new(nodes, NetworkProfile::rdma());
        f.install_faults(plan, Arc::new(FaultCounters::default()));
        f
    }

    #[test]
    fn lossy_endpoint_sends_are_deterministic_per_seed() {
        let deliveries = |seed: u64| -> Vec<u32> {
            let f = faulty(2, FaultPlan::seeded(seed).lossy(0.4, 0.3));
            let sent = (0..100)
                .map(|_| f.send(NodeId(0), NodeId(1), 16).1.copies)
                .collect();
            assert_eq!(f.metrics().messages, 100, "every attempt is charged");
            sent
        };
        let a = deliveries(11);
        assert_eq!(a, deliveries(11));
        assert_ne!(a, deliveries(12));
        assert!(a.contains(&0), "some messages must drop");
        assert!(a.contains(&2), "some messages must duplicate");
    }

    #[test]
    fn killed_node_swallows_messages() {
        let f = faulty(3, FaultPlan::seeded(5));
        assert!(f.kill_node(NodeId(2)));
        assert!(!f.is_up(NodeId(2)));
        assert!(!f.kill_node(NodeId(2)), "already dead");
        let dead = f.send(NodeId(0), NodeId(2), 16).1;
        assert_eq!(dead.copies, 0, "a dead node gets nothing");

        assert!(f.restart_node(NodeId(2)));
        let alive = f.send(NodeId(0), NodeId(2), 16).1;
        assert_eq!(alive, Delivery::CLEAN, "alive again");
        let log = f.fault_log();
        assert!(log.contains(&FaultEvent::Dropped {
            from: NodeId(0),
            to: NodeId(2)
        }));
        assert!(log.contains(&FaultEvent::Killed {
            node: NodeId(2),
            at_ms: 0
        }));
    }

    #[test]
    fn advance_clock_fires_the_schedule() {
        let f = faulty(2, FaultPlan::seeded(0).kill_at(NodeId(1), 300));
        assert!(f.is_up(NodeId(1)));
        f.advance_clock(299);
        assert!(f.is_up(NodeId(1)));
        f.advance_clock(300);
        assert!(!f.is_up(NodeId(1)));
    }

    #[test]
    fn at_least_once_repairs_drops_but_not_death() {
        let plan = FaultPlan::seeded(21).lossy(0.5, 0.0);
        let f = faulty(2, plan);
        let mut t = TaskTimer::start();
        for _ in 0..50 {
            assert_eq!(f.send_at_least_once(NodeId(0), NodeId(1), 32, &mut t), 1);
        }
        let snap = f.fault_state().expect("installed").counters().snapshot();
        assert!(snap.retransmits > 0, "a 50% link must need retransmits");
        assert_eq!(snap.retransmits, snap.msgs_dropped);

        f.kill_node(NodeId(1));
        assert_eq!(f.send_at_least_once(NodeId(0), NodeId(1), 32, &mut t), 0);
        // Self-sends and fault-free fabrics deliver exactly once.
        assert_eq!(f.send_at_least_once(NodeId(0), NodeId(0), 32, &mut t), 1);
        let clean = Fabric::new(2, NetworkProfile::rdma());
        assert_eq!(
            clean.send_at_least_once(NodeId(0), NodeId(1), 32, &mut t),
            1
        );
    }

    #[test]
    fn at_least_once_charges_the_hop_and_its_delay() {
        const DELAY_NS: u64 = 70_000;
        let f = faulty(2, FaultPlan::seeded(4).delayed(1.0, DELAY_NS));
        let mut t = TaskTimer::start();
        assert_eq!(f.send_at_least_once(NodeId(0), NodeId(1), 32, &mut t), 1);
        let hop = Fabric::new(2, NetworkProfile::rdma())
            .send(NodeId(0), NodeId(1), 32)
            .0;
        assert_eq!(t.charged_ns(), hop + DELAY_NS);
        assert_eq!(f.metrics().messages, 1);
    }
}
