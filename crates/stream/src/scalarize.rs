//! Bounded snapshot scalarization (§4.3, Fig. 11).
//!
//! The coordinator announces a *SN-VTS plan*: a mapping from each scalar
//! snapshot number to the vector timestamp its snapshot must reach (e.g.
//! `SN=3:[S0=5,S1=12]`). Injectors tag every batch with the smallest
//! announced snapshot whose target VTS covers the batch; a node whose
//! local VTS reaches a plan's target raises its *local SN*; the stable SN
//! is the minimum local SN over nodes. The plan's step size (how far each
//! target VTS advances) trades one-shot staleness against injection
//! flexibility, and publishing a new mapping only once the current one is
//! reached bounds the per-key snapshot count at two.

use crate::vts::Vts;
use wukong_rdf::Timestamp;
use wukong_store::SnapshotId;

/// How many batches ahead of the reached VTS each new plan target lies.
///
/// `1` gives the freshest one-shot results but stalls injectors the most;
/// larger values batch more insertion per snapshot (§4.3's staleness
/// trade-off).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StalenessBound(pub u64);

impl Default for StalenessBound {
    fn default() -> Self {
        StalenessBound(1)
    }
}

/// One announced mapping of the SN-VTS plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanEntry {
    /// The snapshot this mapping defines.
    pub sn: SnapshotId,
    /// The vector timestamp the snapshot must reach (inclusive).
    pub target: Vts,
}

/// The coordinator-side planner for snapshot scalarization.
#[derive(Debug)]
pub struct SnVtsPlanner {
    /// Announced, not-yet-retired mappings, oldest first.
    announced: Vec<PlanEntry>,
    /// Retired mappings, oldest first — the plan's history. Kept so a
    /// window that fires *behind* the stable SN (an outage, a recovery
    /// replay, a clock jump delayed it) can still be executed at the
    /// snapshot its window end was assigned, making firing results a
    /// pure function of the window rather than of firing time. One
    /// small entry per epoch; bounded by run length.
    retired: Vec<PlanEntry>,
    /// Batch interval per stream, in ms (targets advance by
    /// `staleness × interval`).
    intervals: Vec<u64>,
    staleness: StalenessBound,
    stable_sn: SnapshotId,
    /// Highest snapshot announced so far.
    last_announced: SnapshotId,
}

impl SnVtsPlanner {
    /// Creates a planner for streams with the given batch intervals (ms).
    pub fn new(intervals: Vec<u64>, staleness: StalenessBound) -> Self {
        SnVtsPlanner {
            announced: Vec::new(),
            retired: Vec::new(),
            intervals,
            staleness,
            stable_sn: SnapshotId::BASE,
            last_announced: SnapshotId::BASE,
        }
    }

    /// Registers a new stream mid-flight (targets extend transparently;
    /// existing snapshot numbers are unaffected, §4.3).
    ///
    /// Already-announced mappings receive staged targets for the new
    /// stream (the i-th in-flight mapping targets `(i+1) × staleness`
    /// batches), so injection of the new stream can begin immediately.
    pub fn add_stream(&mut self, interval_ms: u64) {
        self.intervals.push(interval_ms);
        let s = self.intervals.len() - 1;
        for (i, e) in self.announced.iter_mut().enumerate() {
            e.target.grow(self.intervals.len());
            let mut t = e.target.entries().to_vec();
            t[s] = (i as u64 + 1) * self.staleness.0 * interval_ms;
            e.target = Vts::from_entries(t);
        }
    }

    /// Number of streams covered.
    pub fn streams(&self) -> usize {
        self.intervals.len()
    }

    /// The current stable snapshot, read by every one-shot query.
    pub fn stable_sn(&self) -> SnapshotId {
        self.stable_sn
    }

    /// The announced mappings (for inspection and checkpointing).
    pub fn announced(&self) -> &[PlanEntry] {
        &self.announced
    }

    /// Announces the next mapping, targeting `staleness` batches past
    /// `reached` on every stream.
    ///
    /// Called at start-up and whenever the previous mapping is reached on
    /// all nodes; keeping at most one in-flight mapping is what bounds the
    /// per-key snapshot count ("each key only needs to maintain … two
    /// snapshots, one is for using and another is for inserting").
    pub fn announce_next(&mut self, reached: &Vts) {
        let sn = self.last_announced.next();
        let mut target = reached.clone();
        target.grow(self.intervals.len());
        // Streams share one time axis: align every stream's target to the
        // most advanced stream's position, so a stream that registered
        // late (or fell behind) may insert its whole backlog within one
        // snapshot and catch up instead of lagging one batch per epoch.
        let base_time = target.entries().iter().copied().max().unwrap_or(0);
        let t: Vec<Timestamp> = self
            .intervals
            .iter()
            .enumerate()
            .map(|(i, interval)| base_time.max(target.get(i)) + self.staleness.0 * interval)
            .collect();
        self.announced.push(PlanEntry {
            sn,
            target: Vts::from_entries(t),
        });
        self.last_announced = sn;
    }

    /// The snapshot an injector must tag a batch of stream `stream` at
    /// timestamp `ts` with: the smallest announced snapshot whose target
    /// covers the batch.
    ///
    /// Returns `None` when no announced mapping covers the batch yet — the
    /// injector must stall until the coordinator publishes the next plan
    /// (Fig. 11's "Node1 is stalled to wait for the new plan").
    pub fn snapshot_for(&self, stream: usize, ts: Timestamp) -> Option<SnapshotId> {
        self.announced
            .iter()
            .find(|e| e.target.get(stream) >= ts)
            .map(|e| e.sn)
    }

    /// Advances the stable snapshot given every node's local VTS.
    ///
    /// A mapping is *reached* when the stable VTS dominates its target;
    /// reached mappings retire, the stable SN rises to the last of them,
    /// and a fresh mapping is announced per retirement. Returns the new
    /// stable SN if it changed.
    pub fn on_vts_update(&mut self, node_vts: &[Vts]) -> Option<SnapshotId> {
        let stable = Vts::stable(node_vts.iter());
        let mut changed = None;
        while let Some(first) = self.announced.first() {
            if stable.len() >= first.target.len() && {
                let mut grown = stable.clone();
                grown.grow(first.target.len());
                grown.dominates(&first.target)
            } {
                let reached = self.announced.remove(0);
                self.stable_sn = reached.sn;
                changed = Some(reached.sn);
                // Base the next target on the *retired target only* —
                // never on how far the stable VTS overshot it. Targets
                // then form a pure grid: a deterministic function of
                // the retirement count, independent of batch arrival
                // order. This is what makes snapshot assignment (and
                // therefore every window's firing result) reproducible
                // across fault schedules and recovery replays — a
                // backlog drained stream-by-stream after an outage
                // retires the exact same plan sequence the fault-free
                // run did. A stream that bursts far ahead stalls its
                // injection on the one in-flight mapping (Fig. 11's
                // documented stall) while the cascade below catches the
                // grid up one epoch per loop iteration.
                let base = reached.target.clone();
                self.retired.push(reached);
                self.announce_next(&base);
            } else {
                break;
            }
        }
        changed
    }

    /// The snapshot that consolidation may merge up to: everything older
    /// than the stable snapshot is no longer readable by new queries.
    /// The engine additionally clamps this below every un-fired window's
    /// assigned snapshot (see [`SnVtsPlanner::snapshot_at`]) so delayed
    /// firings still read their exact historical snapshot.
    pub(crate) fn consolidation_horizon(&self) -> Option<SnapshotId> {
        (self.stable_sn.0 > 0).then(|| SnapshotId(self.stable_sn.0 - 1))
    }

    /// The snapshot assigned to `stream`'s batch at `ts`, across the
    /// whole plan history (retired and announced alike): the smallest
    /// epoch whose target covers the batch. This is the snapshot a
    /// window ending at `ts` must execute at for its rows to be a pure
    /// function of the window — available even when the firing runs
    /// long after the epoch retired. `None` only for a timestamp beyond
    /// every announced target (the window could not be ready yet).
    pub fn snapshot_at(&self, stream: usize, ts: Timestamp) -> Option<SnapshotId> {
        // Targets are monotone over the retired history (it grew one
        // grid step per retirement), so the lookup binary-searches it.
        let i = self.retired.partition_point(|e| e.target.get(stream) < ts);
        if let Some(e) = self.retired.get(i) {
            return Some(e.sn);
        }
        self.announced
            .iter()
            .find(|e| e.target.get(stream) >= ts)
            .map(|e| e.sn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vts(e: &[Timestamp]) -> Vts {
        Vts::from_entries(e.to_vec())
    }

    #[test]
    fn announce_and_assign() {
        // Two streams with 100 ms batches; staleness 1 → each snapshot
        // covers one more batch per stream.
        let mut p = SnVtsPlanner::new(vec![100, 100], StalenessBound(1));
        p.announce_next(&vts(&[0, 0]));
        assert_eq!(p.announced().len(), 1);
        assert_eq!(p.announced()[0].sn, SnapshotId(1));
        assert_eq!(p.announced()[0].target, vts(&[100, 100]));

        assert_eq!(p.snapshot_for(0, 100), Some(SnapshotId(1)));
        // Batch beyond the announced target stalls.
        assert_eq!(p.snapshot_for(0, 200), None);
    }

    #[test]
    fn stable_sn_advances_when_all_nodes_reach() {
        let mut p = SnVtsPlanner::new(vec![100], StalenessBound(1));
        p.announce_next(&vts(&[0]));

        // Node 0 reached the target, node 1 lags → no advance.
        assert_eq!(p.on_vts_update(&[vts(&[100]), vts(&[0])]), None);
        assert_eq!(p.stable_sn(), SnapshotId::BASE);

        // Both reached → stable SN 1 and a fresh mapping for SN 2.
        assert_eq!(
            p.on_vts_update(&[vts(&[100]), vts(&[100])]),
            Some(SnapshotId(1))
        );
        assert_eq!(p.stable_sn(), SnapshotId(1));
        assert_eq!(p.announced().len(), 1);
        assert_eq!(p.announced()[0].sn, SnapshotId(2));
        assert_eq!(p.announced()[0].target, vts(&[200]));
        // Injection can now proceed into snapshot 2.
        assert_eq!(p.snapshot_for(0, 200), Some(SnapshotId(2)));
    }

    #[test]
    fn staleness_widens_targets() {
        let mut p = SnVtsPlanner::new(vec![100], StalenessBound(5));
        p.announce_next(&vts(&[0]));
        assert_eq!(p.announced()[0].target, vts(&[500]));
        // All five batches of the window map to the same snapshot.
        for ts in [100, 200, 300, 400, 500] {
            assert_eq!(p.snapshot_for(0, ts), Some(SnapshotId(1)));
        }
    }

    #[test]
    fn dynamic_stream_extends_plan() {
        let mut p = SnVtsPlanner::new(vec![100], StalenessBound(1));
        p.announce_next(&vts(&[0]));
        p.add_stream(50);
        assert_eq!(p.streams(), 2);
        // The in-flight mapping receives a staged target for the new
        // stream, so its injection can start at once.
        assert_eq!(p.announced()[0].target, vts(&[100, 50]));
        assert_eq!(p.snapshot_for(1, 50), Some(SnapshotId(1)));
        // Once both streams reach the target the mapping retires; the
        // next target aligns the late stream to the shared time axis so
        // it can catch up within one snapshot.
        p.on_vts_update(&[vts(&[100, 50])]);
        assert_eq!(p.stable_sn(), SnapshotId(1));
        assert_eq!(p.announced()[0].target, vts(&[200, 150]));
    }

    #[test]
    fn consolidation_horizon_trails_stable() {
        let mut p = SnVtsPlanner::new(vec![100], StalenessBound(1));
        assert_eq!(p.consolidation_horizon(), None);
        p.announce_next(&vts(&[0]));
        p.on_vts_update(&[vts(&[100])]);
        assert_eq!(p.stable_sn(), SnapshotId(1));
        assert_eq!(p.consolidation_horizon(), Some(SnapshotId(0)));
    }
}
