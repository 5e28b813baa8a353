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
    pub fn collect_at<'a>(
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

    /// The largest smoothed per-predicate cardinality ratio between this
    /// snapshot and a `fresh`er one: `max((a+1)/(b+1), (b+1)/(a+1))`
    /// over every (predicate, direction) either snapshot knows. 1.0 for
    /// identical statistics; grows as selectivity drifts, giving the
    /// drift detector a store-level second opinion.
    pub fn max_drift(&self, fresh: &StoreStats) -> f64 {
        let smoothed = |a: usize, b: usize| {
            let (a, b) = (a as f64 + 1.0, b as f64 + 1.0);
            (a / b).max(b / a)
        };
        let mut worst = 1.0f64;
        let keys = self.by_predicate.keys().chain(
            fresh
                .by_predicate
                .keys()
                .filter(|p| !self.by_predicate.contains_key(*p)),
        );
        for p in keys {
            let (ss, so) = self.by_predicate.get(p).copied().unwrap_or((0, 0));
            let (fs, fo) = fresh.by_predicate.get(p).copied().unwrap_or((0, 0));
            worst = worst.max(smoothed(ss, fs)).max(smoothed(so, fo));
        }
        worst
    }

    /// Distinct subjects carrying predicate `p`.
    pub fn subjects_of(&self, p: Pid) -> usize {
        self.by_predicate.get(&p).map(|e| e.0).unwrap_or(0)
    }

    /// Distinct objects carrying predicate `p`.
    pub fn objects_of(&self, p: Pid) -> usize {
        self.by_predicate.get(&p).map(|e| e.1).unwrap_or(0)
    }

    /// Estimated scan size when a pattern starts from the predicate index
    /// in direction `dir`.
    pub fn index_scan_size(&self, p: Pid, dir: Dir) -> usize {
        match dir {
            Dir::Out => self.subjects_of(p),
            Dir::In => self.objects_of(p),
        }
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
        assert_eq!(stats.subjects_of(Pid(4)), 2);
        assert_eq!(stats.objects_of(Pid(4)), 3);
        assert_eq!(stats.subjects_of(Pid(2)), 1);
        assert_eq!(stats.index_scan_size(Pid(4), Dir::In), 3);
        assert_eq!(stats.predicate_count(), 2);
    }

    #[test]
    fn unknown_predicate_is_zero() {
        let stats = StoreStats::default();
        assert_eq!(stats.subjects_of(Pid(9)), 0);
        assert_eq!(stats.index_scan_size(Pid(9), Dir::In), 0);
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

    #[test]
    fn max_drift_detects_selectivity_shift_both_directions() {
        let shard_a = PersistentShard::new(4);
        shard_a.load_base(Triple::new(Vid(1), Pid(4), Vid(10)));
        let a = StoreStats::collect([&shard_a], SnapshotId::BASE);

        // Identical stats: no drift.
        assert_eq!(a.max_drift(&a), 1.0);

        // The same predicate with 9 subjects: smoothed ratio 10/2 = 5,
        // symmetric in both directions.
        let shard_b = PersistentShard::new(4);
        for i in 0..9 {
            shard_b.load_base(Triple::new(Vid(i + 1), Pid(4), Vid(100 + i)));
        }
        let b = StoreStats::collect([&shard_b], SnapshotId::BASE);
        assert_eq!(a.max_drift(&b), 5.0);
        assert_eq!(b.max_drift(&a), 5.0);

        // A predicate present on only one side drifts against zero.
        let empty = StoreStats::default();
        assert_eq!(empty.max_drift(&b), 10.0);
        assert_eq!(b.max_drift(&empty), 10.0);
    }
}
