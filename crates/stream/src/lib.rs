#![warn(missing_docs)]
//! The streaming layer of Wukong+S (§3, §4.3, Fig. 5 and Fig. 10).
//!
//! Streams flow through a fixed pipeline:
//!
//! 1. The [`adaptor`] batches raw tuples by timestamp into mini-batches,
//!    discards tuples no registered query can use, and classifies each
//!    tuple as *timing* or *timeless*.
//! 2. The [`dispatcher`] partitions each batch across cluster nodes using
//!    the store's sharding.
//! 3. The [`injector`] on each node inserts its sub-batch into the hybrid
//!    store — timeless data into the persistent shard (producing stream
//!    index entries), timing data into the per-stream transient ring.
//! 4. The [`coordinator`] tracks per-node vector timestamps ([`vts`]),
//!    derives the stable vector timestamp that makes batches visible, runs
//!    the SN-VTS plan of *bounded snapshot scalarization* ([`scalarize`]),
//!    and decides when each continuous query's windows are ready
//!    ([`window`], the data-driven execution model).
//!
//! All of it is deterministic, synchronous logic; the `wukong-core` engine
//! owns threads and fabric charges.

pub mod adaptor;
pub mod coordinator;
pub mod dispatcher;
pub mod injector;
pub mod scalarize;
pub mod shed;
pub mod vts;
pub mod window;

pub use adaptor::{Adaptor, Batch, StreamSchema};
pub use coordinator::Coordinator;
pub use dispatcher::{dispatch, SubBatch};
pub use injector::{
    apply_index_updates, install_sub_batch, InjectStats, Injector, Installed, NodeStreamStore,
};
pub use scalarize::{SnVtsPlanner, StalenessBound};
pub use shed::{IngestBudget, ShedPolicy, ShedRecord, Shedder};
pub use vts::Vts;
pub use window::WindowState;
