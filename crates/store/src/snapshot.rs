//! Scalar snapshot numbers (§4.3).
//!
//! Bounded snapshot scalarization projects the cluster's vector timestamps
//! onto a single scalar [`SnapshotId`]; one-shot queries read the store at
//! a *stable* snapshot number instead of carrying a whole vector timestamp.
//! The store side of the mechanism lives here and in [`crate::base`]:
//! a key's value is one append-only list, and each snapshot still
//! retained for it is a *mark* — the snapshot number and the offset its
//! appends start at. A key retains a bounded number of marks (typically
//! two — "one is for using and another is for inserting"); the Injector
//! recycles an older snapshot by dropping its mark, which makes those
//! appends visible to every reader without moving them.

/// A scalar snapshot number.
///
/// Snapshot 0 is the initially loaded dataset; stream injection produces
/// snapshots 1, 2, … as the coordinator publishes SN-VTS plans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SnapshotId(pub u64);

impl SnapshotId {
    /// The snapshot of the initially loaded data, visible to every query.
    pub const BASE: SnapshotId = SnapshotId(0);

    /// The next snapshot number.
    pub fn next(self) -> SnapshotId {
        SnapshotId(self.0 + 1)
    }
}

/// How many snapshots each key may retain before consolidation.
///
/// The paper's coordinator publishes one new mapping after the current one
/// has been reached on all nodes, so two retained snapshots suffice; the
/// bound is configurable to reproduce the §6.7 memory experiment (2 vs 3
/// snapshots, with vs without scalarization).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotBudget(pub usize);

impl Default for SnapshotBudget {
    fn default() -> Self {
        SnapshotBudget(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_and_next() {
        assert!(SnapshotId::BASE < SnapshotId(1));
        assert_eq!(SnapshotId(3).next(), SnapshotId(4));
    }
}
