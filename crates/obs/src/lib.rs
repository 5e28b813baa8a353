//! Engine-wide observability: staged latency tracing, fixed-bucket
//! log-scale histograms, and a machine-readable (JSON) report format.
//!
//! The paper's headline claim is *sub-millisecond* continuous-query
//! latency; verifying it (and diagnosing regressions against it) needs
//! more than an end-to-end number. This crate provides the three pieces
//! the engine and the benchmark harness share:
//!
//! * [`LatencyHistogram`] — a fixed-size log-scale histogram (496
//!   buckets, ≤ 1/8 relative error) covering the full `u64` nanosecond
//!   range, with lock-free recording, `merge`, and snapshot/delta.
//! * [`Stage`] / [`StageTrace`] — the stage taxonomy for one continuous
//!   query firing (window extraction → pattern matching → emit) and one
//!   ingest batch (adaptor → dispatch → injection → stream index → GC),
//!   plus a cheap per-execution accumulator.
//! * [`Registry`] — the engine-owned sink keyed by query class and
//!   stream, snapshottable for reports.
//!
//! The [`json`] module is a dependency-free JSON value type with a
//! serializer and parser, used by the bench binaries' `--json` mode.
//! The [`faults`] module adds monotonic counters for injected faults and
//! the engine's reactions (drops, retries, timeouts, recoveries).

pub mod digest;
mod family;
pub mod faults;
pub mod histogram;
pub mod incremental;
pub mod integrity;
pub mod json;
pub mod overload;
pub mod plan;
pub mod pool;
pub mod registry;
pub mod stage;
pub mod trace;

pub use digest::Fnv64;
pub use faults::{FaultCounters, FaultSnapshot};
pub use histogram::{HistogramSnapshot, LatencyHistogram};
pub use incremental::{IncrementalCounters, IncrementalSnapshot};
pub use integrity::{IntegrityCounters, IntegritySnapshot};
pub use json::Json;
pub use overload::{OverloadCounters, OverloadSnapshot};
pub use plan::{PlanCounters, PlanSnapshot};
pub use pool::{PoolCounters, PoolSnapshot};
pub use registry::{Registry, RegistrySnapshot, SeriesSnapshot};
pub use stage::{Stage, StageTrace};
pub use trace::{
    BatchId, FiringId, FiringMeta, Marker, SpanGuard, TraceEvent, TraceRecorder, TraceSnapshot,
};
