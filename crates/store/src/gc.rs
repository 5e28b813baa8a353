//! Garbage collection across the hybrid store (§4.1).
//!
//! Expiry is driven by the registered continuous queries: a batch is dead
//! once *every* query's largest window can no longer reach it. The engine
//! computes that horizon (`now - max_range` over the queries of a stream)
//! and calls [`sweep`] periodically, or eagerly when a transient ring is
//! full (the ring handles that case itself, see
//! [`crate::TransientStore::push_batch`]).

use crate::stream_index::StreamIndex;
use crate::transient::TransientStore;
use wukong_rdf::Timestamp;

/// Result of one GC sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GcStats {
    /// Transient slices freed.
    pub slices_freed: usize,
    /// Stream-index batches retired.
    pub index_batches_retired: usize,
}

/// Sweeps one stream's transient store and stream index up to `expiry`.
pub fn sweep(
    transient: &mut TransientStore,
    index: &mut StreamIndex,
    expiry: Timestamp,
) -> GcStats {
    GcStats {
        slices_freed: transient.collect_expired(expiry),
        index_batches_retired: index.retire_expired(expiry),
    }
}

/// The expiry horizon for a stream: the oldest instant any of the given
/// window ranges could still observe at time `now`.
pub fn expiry_horizon(now: Timestamp, window_ranges: impl IntoIterator<Item = u64>) -> Timestamp {
    let max_range = window_ranges.into_iter().max().unwrap_or(0);
    now.saturating_sub(max_range)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transient::TransientSlice;
    use wukong_rdf::{Pid, StreamTuple, Triple, Vid};

    #[test]
    fn horizon_is_widest_window() {
        assert_eq!(expiry_horizon(1_000, [100, 500, 300]), 500);
        assert_eq!(expiry_horizon(1_000, []), 1_000);
        // Saturates at stream start.
        assert_eq!(expiry_horizon(100, [500]), 0);
    }

    #[test]
    fn sweep_clears_both_structures() {
        let mut tr = TransientStore::new(1 << 20);
        let mut idx = StreamIndex::new();
        for ts in [100u64, 200, 300] {
            let tup = StreamTuple::timing(Triple::new(Vid(1), Pid(1), Vid(2)), ts);
            tr.push_batch(TransientSlice::from_batch(ts, &[tup]));
            idx.push_batch(crate::stream_index::IndexBatch::from_receipts(ts, &[]));
        }
        let stats = sweep(&mut tr, &mut idx, 250);
        assert_eq!(stats.slices_freed, 2);
        assert_eq!(stats.index_batches_retired, 2);
        assert_eq!(tr.slice_count(), 1);
        assert_eq!(idx.batch_count(), 1);
    }
}
