//! The statistics epoch plan caches key on.

use std::sync::atomic::{AtomicU64, Ordering};

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_counter_is_monotone() {
        let epoch = StatsEpoch::new();
        assert_eq!(epoch.current(), 0);
        assert_eq!(epoch.bump(), 1);
        assert_eq!(epoch.bump(), 2);
        assert_eq!(epoch.current(), 2);
    }
}
