//! The Coordinator (§3, §4.3).
//!
//! Cluster-wide bookkeeping: per-node local VTS, the derived stable VTS
//! (element-wise minimum), and the SN-VTS plan. The engine reports every
//! finished sub-batch insertion; the coordinator answers three questions:
//!
//! 1. Which snapshot must an injector tag a batch with (or must it stall)?
//! 2. What is the stable VTS / stable SN right now?
//! 3. Did the stable snapshot just advance — and if so, up to which
//!    snapshot may shards consolidate?

use crate::scalarize::{SnVtsPlanner, StalenessBound};
use crate::vts::Vts;
use wukong_rdf::Timestamp;
use wukong_store::SnapshotId;

/// What changed after an insertion report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CoordinatorEvent {
    /// The stable snapshot advanced to this value.
    pub new_stable_sn: Option<SnapshotId>,
    /// Shards may consolidate snapshots up to this one (inclusive);
    /// no new query will read below it.
    pub consolidate_upto: Option<SnapshotId>,
}

/// Cluster-wide stream-consistency state.
#[derive(Debug)]
pub struct Coordinator {
    local_vts: Vec<Vts>,
    stable_vts: Vts,
    planner: SnVtsPlanner,
}

impl Coordinator {
    /// Creates a coordinator for `nodes` nodes and streams with the given
    /// batch intervals.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn new(nodes: usize, intervals: Vec<u64>, staleness: StalenessBound) -> Self {
        assert!(nodes > 0, "a cluster needs at least one node");
        let streams = intervals.len();
        let mut planner = SnVtsPlanner::new(intervals, staleness);
        // Announce the first mapping so injection can start immediately.
        planner.announce_next(&Vts::new(streams));
        Coordinator {
            local_vts: vec![Vts::new(streams); nodes],
            stable_vts: Vts::new(streams),
            planner,
        }
    }

    /// Registers an additional stream mid-flight.
    pub fn add_stream(&mut self, interval_ms: u64) -> usize {
        self.planner.add_stream(interval_ms);
        let n = self.planner.streams();
        for v in &mut self.local_vts {
            v.grow(n);
        }
        self.stable_vts.grow(n);
        n - 1
    }

    /// Number of streams tracked.
    pub fn streams(&self) -> usize {
        self.planner.streams()
    }

    /// Number of nodes tracked.
    pub fn nodes(&self) -> usize {
        self.local_vts.len()
    }

    /// The snapshot a batch of `stream` at `ts` must be tagged with, or
    /// `None` if injection must stall for the next plan (Fig. 11).
    pub fn snapshot_for(&self, stream: usize, ts: Timestamp) -> Option<SnapshotId> {
        self.planner.snapshot_for(stream, ts)
    }

    /// The snapshot assigned to `stream`'s epoch covering `ts`, across
    /// the whole plan history — the snapshot a window ending at `ts`
    /// executes at, no matter how long a fault delayed its firing.
    pub fn snapshot_at(&self, stream: usize, ts: Timestamp) -> Option<SnapshotId> {
        self.planner.snapshot_at(stream, ts)
    }

    /// Reports that `node` finished inserting `stream`'s batch `ts`.
    pub fn on_batch_inserted(
        &mut self,
        node: usize,
        stream: usize,
        ts: Timestamp,
    ) -> CoordinatorEvent {
        self.local_vts[node].advance(stream, ts);
        self.refresh()
    }

    fn refresh(&mut self) -> CoordinatorEvent {
        self.stable_vts = Vts::stable(self.local_vts.iter());
        let new_stable_sn = self.planner.on_vts_update(&self.local_vts);
        CoordinatorEvent {
            new_stable_sn,
            consolidate_upto: new_stable_sn.and_then(|_| self.planner.consolidation_horizon()),
        }
    }

    /// Advances every node's local VTS entry for `stream` to `ts` at
    /// once: the adaptor coalesced a quiet gap, so every grid point
    /// through `ts` holds a vacuously-inserted empty batch (a no-op on
    /// every node). Retires any SN-VTS mapping stranded inside the gap
    /// — without this, `snapshot_for` would stall the stream's next real
    /// batch forever behind targets no batch will ever reach.
    pub fn advance_gap(&mut self, stream: usize, ts: Timestamp) -> CoordinatorEvent {
        for v in &mut self.local_vts {
            v.advance(stream, ts);
        }
        self.refresh()
    }

    /// Whether `node` already inserted `stream`'s batch at `ts` — the
    /// per-node duplicate check of at-least-once delivery: a redelivered
    /// batch must skip nodes whose local VTS already covers it, even
    /// while another node's outage keeps the *stable* VTS below `ts`.
    pub fn already_inserted(&self, node: usize, stream: usize, ts: Timestamp) -> bool {
        ts > crate::vts::NEVER && self.local_vts[node].get(stream) >= ts
    }

    /// The stable vector timestamp (continuous-query visibility).
    pub fn stable_vts(&self) -> &Vts {
        &self.stable_vts
    }

    /// The stable VTS and stable SN as one atomic pair — the visibility
    /// snapshot parallel firing takes *once* per round, so worker tasks
    /// read no coordinator state (and cannot observe it mid-update).
    pub fn visibility(&self) -> (Vts, SnapshotId) {
        (self.stable_vts.clone(), self.planner.stable_sn())
    }

    /// A node's local vector timestamp.
    pub fn local_vts(&self, node: usize) -> &Vts {
        &self.local_vts[node]
    }

    /// The stable snapshot number (one-shot query visibility).
    pub fn stable_sn(&self) -> SnapshotId {
        self.planner.stable_sn()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_node_single_stream_progression() {
        let mut c = Coordinator::new(1, vec![100], StalenessBound(1));
        assert_eq!(c.stable_sn(), SnapshotId::BASE);
        assert_eq!(c.snapshot_for(0, 100), Some(SnapshotId(1)));

        let ev = c.on_batch_inserted(0, 0, 100);
        assert_eq!(ev.new_stable_sn, Some(SnapshotId(1)));
        assert_eq!(ev.consolidate_upto, Some(SnapshotId(0)));
        assert_eq!(c.stable_vts().get(0), 100);
        assert_eq!(c.snapshot_for(0, 200), Some(SnapshotId(2)));
    }

    #[test]
    fn stable_waits_for_slowest_node() {
        let mut c = Coordinator::new(2, vec![100], StalenessBound(1));
        let ev = c.on_batch_inserted(0, 0, 100);
        assert_eq!(ev.new_stable_sn, None);
        assert_eq!(c.stable_vts().get(0), 0);

        let ev = c.on_batch_inserted(1, 0, 100);
        assert_eq!(ev.new_stable_sn, Some(SnapshotId(1)));
        assert_eq!(c.stable_vts().get(0), 100);
    }

    #[test]
    fn injector_stalls_beyond_plan() {
        let c = Coordinator::new(1, vec![100], StalenessBound(1));
        // Only SN 1 (target 100) announced; batch 200 must stall.
        assert_eq!(c.snapshot_for(0, 200), None);
    }

    #[test]
    fn multi_stream_stable_sn_requires_both() {
        let mut c = Coordinator::new(1, vec![100, 50], StalenessBound(1));
        // SN 1 targets [100, 50].
        let ev = c.on_batch_inserted(0, 0, 100);
        assert_eq!(ev.new_stable_sn, None);
        let ev = c.on_batch_inserted(0, 1, 50);
        assert_eq!(ev.new_stable_sn, Some(SnapshotId(1)));
    }

    #[test]
    fn dynamic_stream_addition() {
        let mut c = Coordinator::new(1, vec![100], StalenessBound(1));
        c.on_batch_inserted(0, 0, 100);
        let s = c.add_stream(50);
        assert_eq!(s, 1);
        assert_eq!(c.streams(), 2);
        // The new stream participates in consistency immediately: SN 2
        // retires only once it catches up too.
        c.on_batch_inserted(0, 0, 200);
        assert_eq!(c.stable_sn(), SnapshotId(1));
        c.on_batch_inserted(0, 1, 50);
        assert!(c.stable_sn() >= SnapshotId(2));
    }

    #[test]
    fn already_inserted_tracks_local_not_stable() {
        let mut c = Coordinator::new(2, vec![100], StalenessBound(1));
        c.on_batch_inserted(0, 0, 100);
        // Node 1 never reported: stable stalls at 0, but node 0 must
        // still recognise a redelivery of batch 100.
        assert_eq!(c.stable_vts().get(0), 0);
        assert!(c.already_inserted(0, 0, 100));
        assert!(!c.already_inserted(1, 0, 100));
        // ts 0 is the NEVER sentinel, never "already inserted".
        assert!(!c.already_inserted(0, 0, 0));
    }
}
