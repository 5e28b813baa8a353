#![warn(missing_docs)]
//! Simulated RDMA-capable cluster fabric for Wukong+S.
//!
//! The paper evaluates on an 8-node cluster with ConnectX-3 56 Gbps
//! InfiniBand NICs and falls back to 10 GbE without RDMA (§6.1, Table 5).
//! This crate substitutes that hardware with an in-process simulation:
//!
//! - Every *node* is a shard of state inside one OS process, so a remote
//!   one-sided RDMA READ is emulated by reading the remote shard's memory
//!   directly and **charging** the calibrated latency of the verb to the
//!   calling task's [`TaskTimer`].
//! - Two-sided messaging (fork-join's sub-queries and replies, stream
//!   dispatch) is a (higher) per-message charge plus a delivery verdict
//!   drawn from the seeded fault plan ([`Fabric::send`]); no channel
//!   carries it and nothing waits on a real clock.
//! - A [`NetworkProfile`] switches between the RDMA cost model and a
//!   TCP-over-10GbE model, which is how the Table 5 experiment (RDMA vs
//!   Non-RDMA) is reproduced.
//!
//! The substitution preserves what the paper's evaluation actually
//! measures: *how many* network operations of each kind a design incurs
//! and what each costs — e.g. the stream index saving one of the two RDMA
//! reads per remote lookup (§5), or fork-join synchronisation charging a
//! round of messages per hop (Table 5's 1.8-3.5× slowdown).

//!
//! The [`fault`] module makes the simulation misbehave on demand: a
//! seeded [`FaultPlan`] can kill/restart nodes at scheduled times, make
//! links drop/duplicate/delay messages, slow nodes down and flip bits —
//! deterministically per seed, so failure drills are reproducible.

pub mod chaos;
pub mod clock;
pub mod fabric;
pub mod fault;
pub mod metrics;
pub mod pool;
pub mod profile;

pub use chaos::{shrink_schedule, ChaosEvent, ChaosSchedule};
pub use clock::TaskTimer;
pub use fabric::{Fabric, NodeId};
pub use fault::{
    CorruptFault, CorruptTarget, Delivery, FaultEvent, FaultPlan, FaultState, LinkFault,
    ScheduledEvent,
};
pub use metrics::{FabricMetrics, MetricsSnapshot};
pub use pool::WorkerPool;
pub use profile::NetworkProfile;
