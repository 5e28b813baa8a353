#![warn(missing_docs)]
//! The hybrid store of Wukong+S (§4.1-§4.3).
//!
//! Wukong+S manages streaming and stored data differentially:
//!
//! - The [`base`] module implements the Wukong-style key/value graph store
//!   (`[vid|pid|dir] → neighbour list`, plus index vertices).
//! - The [`persistent`] module extends it into the *continuous persistent
//!   store*: timeless stream data is injected incrementally and versioned
//!   by scalar snapshot numbers ([`snapshot`]), the paper's *bounded
//!   snapshot scalarization* (§4.3).
//! - The [`transient`] module implements the *time-based transient store*:
//!   a ring buffer of per-batch slices holding timing data, swept by the
//!   garbage collector ([`gc`]) once every window that could observe them
//!   has passed (§4.1, Fig. 7).
//! - The [`stream_index`] module implements the *stream index* (§4.2,
//!   Fig. 8): a fast path from `[vid|pid|dir]` to the exact ranges of a
//!   persistent value that a window's stream batches appended.
//! - The [`sharding`] module assigns vertices (and therefore keys) to
//!   cluster nodes.
//! - The [`stats`] module holds the statistics epoch plan caches key on.

pub mod base;
pub mod gc;
pub mod persistent;
pub mod sharding;
pub mod snapshot;
pub mod stats;
pub mod stream_index;
pub mod transient;

pub use base::{key_updates, BaseStore};
pub use gc::GcStats;
pub use persistent::PersistentShard;
pub use sharding::ShardMap;
pub use snapshot::SnapshotId;
pub use stats::StatsEpoch;
pub use stream_index::{FatPointer, IndexBatch, StreamIndex};
pub use transient::{TransientSlice, TransientStore};
