//! Store statistics for query planning.
//!
//! The integrated design's "global semantics to generate an optimal query
//! plan" (§3) needs cardinality estimates: how many vertices carry a given
//! predicate, and how long a concrete key's neighbour list is. The former
//! is summarised here; the latter is read live from the store by the
//! planner's oracle.

use crate::persistent::PersistentShard;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use wukong_rdf::{Dir, Pid};

use crate::snapshot::SnapshotId;

/// A monotone statistics-epoch counter. The engine bumps it whenever the
/// data has evolved enough that cached plans keyed on the previous epoch
/// should be considered stale (e.g. every N ingested batches); plan
/// caches key on the current value, so bumping the epoch invalidates
/// every cached plan without touching the cache itself.
#[derive(Debug, Default)]
pub struct StatsEpoch(AtomicU64);

impl StatsEpoch {
    /// A fresh counter at epoch 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current epoch.
    pub fn current(&self) -> u64 {
        self.0.load(Ordering::Acquire)
    }

    /// Advances to the next epoch, returning the new value.
    pub fn bump(&self) -> u64 {
        self.0.fetch_add(1, Ordering::AcqRel) + 1
    }
}

/// Per-predicate cardinalities collected from one or more shards,
/// stamped with the statistics epoch they were collected at.
#[derive(Debug, Clone, Default)]
pub struct StoreStats {
    /// Predicate → (distinct subjects, distinct objects).
    by_predicate: HashMap<Pid, (usize, usize)>,
    /// Epoch stamp (see [`StatsEpoch`]); 0 for untracked collections.
    epoch: u64,
}

impl StoreStats {
    /// Collects statistics visible at snapshot `sn` from `shards`.
    pub fn collect<'a>(
        shards: impl IntoIterator<Item = &'a PersistentShard>,
        sn: SnapshotId,
    ) -> Self {
        Self::collect_at(shards, sn, 0)
    }

    /// [`StoreStats::collect`], stamped with statistics epoch `epoch`.
    pub(crate) fn collect_at<'a>(
        shards: impl IntoIterator<Item = &'a PersistentShard>,
        sn: SnapshotId,
        epoch: u64,
    ) -> Self {
        let mut by_predicate: HashMap<Pid, (usize, usize)> = HashMap::new();
        for shard in shards {
            shard.for_each_key(|k, _| {
                if k.is_index() {
                    let e = by_predicate.entry(k.pid()).or_default();
                    let n = shard.len_at(k, sn);
                    match k.dir() {
                        Dir::Out => e.0 += n,
                        Dir::In => e.1 += n,
                    }
                }
            });
        }
        StoreStats {
            by_predicate,
            epoch,
        }
    }

    /// The statistics epoch this snapshot was collected at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of predicates observed.
    pub fn predicate_count(&self) -> usize {
        self.by_predicate.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wukong_rdf::{Triple, Vid};

    #[test]
    fn collects_predicate_cardinalities() {
        let shard = PersistentShard::new(4);
        // Two subjects post three tweets.
        shard.load_base(Triple::new(Vid(1), Pid(4), Vid(10)));
        shard.load_base(Triple::new(Vid(1), Pid(4), Vid(11)));
        shard.load_base(Triple::new(Vid(2), Pid(4), Vid(12)));
        // One follow edge.
        shard.load_base(Triple::new(Vid(1), Pid(2), Vid(2)));

        let stats = StoreStats::collect([&shard], SnapshotId::BASE);
        assert_eq!(stats.by_predicate[&Pid(4)], (2, 3));
        assert_eq!(stats.by_predicate[&Pid(2)], (1, 1));
        assert_eq!(stats.predicate_count(), 2);
    }

    #[test]
    fn epoch_counter_is_monotone_and_stamps_collections() {
        let epoch = StatsEpoch::new();
        assert_eq!(epoch.current(), 0);
        assert_eq!(epoch.bump(), 1);
        assert_eq!(epoch.bump(), 2);
        assert_eq!(epoch.current(), 2);

        let shard = PersistentShard::new(4);
        shard.load_base(Triple::new(Vid(1), Pid(4), Vid(10)));
        let stats = StoreStats::collect_at([&shard], SnapshotId::BASE, epoch.current());
        assert_eq!(stats.epoch(), 2);
        assert_eq!(StoreStats::collect([&shard], SnapshotId::BASE).epoch(), 0);
    }
}
