//! Engine configuration.

use wukong_net::{FaultPlan, NetworkProfile};
use wukong_stream::{IngestBudget, ShedPolicy, StalenessBound};

/// How queries execute across the cluster (§5, "Leveraging RDMA").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Per-query heuristic: in-place for selective queries, fork-join for
    /// queries that start from an index scan over the stored graph.
    Auto,
    /// Always single-worker in-place execution with one-sided reads.
    InPlace,
    /// Always distributed fork-join execution (the paper's Non-RDMA mode
    /// enforces this, §6.2 Table 5).
    ForkJoin,
}

/// Static configuration of a Wukong+S deployment. Every value is set in
/// code: the presets are constants and nothing here reads the process
/// environment (DESIGN.md §15 lists each value's users).
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Number of (simulated) cluster nodes.
    pub nodes: usize,
    /// Key-space partitions per shard (≥ 1).
    pub partitions_per_shard: usize,
    /// Network cost model.
    pub network: NetworkProfile,
    /// Execution-mode policy.
    pub exec_mode: ExecMode,
    /// SN-VTS plan staleness bound (batches per snapshot).
    pub staleness: StalenessBound,
    /// Transient-store ring budget per (node, stream), bytes.
    pub transient_budget_bytes: usize,
    /// Sweep transient slices / stream-index batches every this many
    /// batches per stream (the periodic background GC; ≥ 1).
    pub gc_every_batches: u64,
    /// Extra history kept beyond the widest registered window, ms.
    pub gc_slack_ms: u64,
    /// Enable checkpoint logging (fault tolerance, §5). Adds the paper's
    /// ~0.3 ms per-batch logging delay to injection.
    pub fault_tolerance: bool,
    /// Replicate stream indexes to subscriber nodes (locality-aware
    /// partitioning, §4.2). Off reproduces the "partitioned stream index"
    /// strawman that pays an extra RDMA read per remote window lookup.
    pub replicate_stream_indexes: bool,
    /// Worker cores serving one continuous query on each node. The paper
    /// restricts this to 1 by default (queries are light-weight and run
    /// concurrently) and shows that 4 cores speed the group II queries up
    /// ~3× when low latency is critical (§6.4).
    pub cores_per_query: usize,
    /// Deterministic fault plan installed on the fabric at boot (`None`
    /// runs the cluster fault-free, exactly as before).
    pub fault_plan: Option<FaultPlan>,
    /// Worker threads per node: the lanes of each node's `WorkerPool`,
    /// shared by continuous-query firings, fork-join partitions, one-shot
    /// batches, and per-node ingest application. Results are
    /// deterministic-by-construction for any value (DESIGN.md §9).
    pub worker_threads: usize,
    /// Delta-maintenance execution for continuous queries: keep each
    /// registered query's window state materialized and process only the
    /// inserted suffix / expired prefix of an overlapping window instead
    /// of re-running the full scan/join (DESIGN.md §10). Queries whose
    /// plans are not incrementalizable — and every firing while a fault
    /// plan is installed — automatically fall back to full recompute.
    /// Results are byte-identical either way; this is purely a latency
    /// knob.
    pub incremental: bool,
    /// Bounded-ingest budget per stream: the maximum backlog of pending
    /// (enqueued but not yet applied) tuples/bytes the engine will hold
    /// before shedding load deterministically (DESIGN.md §11). `None`
    /// (the default) keeps the pre-overload unbounded behaviour — no
    /// shedding, no admission control, no degraded markers — so every
    /// existing workload is byte-identical.
    pub ingest_budget: Option<IngestBudget>,
    /// Which tuples go when the ingest budget overflows. Only consulted
    /// when [`EngineConfig::ingest_budget`] is set.
    pub shed_policy: ShedPolicy,
    /// Deadline/degradation policy for the overload state machine. Only
    /// consulted when [`EngineConfig::ingest_budget`] is set.
    pub overload: OverloadPolicy,
    /// Adaptive planning (DESIGN.md §12): cache plans keyed on
    /// `(normalized query text, stats epoch)`, feed per-step fan-out
    /// back into a drift detector that re-plans continuous queries whose
    /// estimates rot, and let the network cost model pick in-place vs
    /// fork-join per firing under `ExecMode::Auto`. The drift detector
    /// runs `DriftPolicy::default()`. Results are byte-identical either
    /// way; this is purely a plan-quality/latency knob.
    pub adaptive: bool,
    /// The always-on flight recorder (DESIGN.md §14): causal IDs, compact
    /// span events in per-thread rings, and anomaly-triggered black-box
    /// dumps. On in every preset. Results are byte-identical either way
    /// — the recorder observes, never steers — and `exp_trace` gates its
    /// modeled-latency overhead below 10%.
    pub trace: bool,
}

/// Deadline-aware degradation policy (DESIGN.md §11): when continuous
/// firings sustainedly miss the latency budget the engine trips from
/// `Normal` into `Shedding` (one-shot queries are rejected first — they
/// have no freshness contract), and once the overload subsides it replays
/// the shed suffix (`CatchUp`) and converges back to `Normal`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverloadPolicy {
    /// Per-firing latency budget in virtual milliseconds. Firings are
    /// "misses" when their simulated latency exceeds this.
    pub latency_budget_ms: f64,
    /// Quiet period: once stream time passes the last shed timestamp by
    /// this many milliseconds, the engine enters `CatchUp`, replays the
    /// retained shed suffix, and returns to `Normal`.
    pub catchup_quiet_ms: u64,
}

impl OverloadPolicy {
    /// Consecutive firing misses before the state machine trips from
    /// `Normal` to `Shedding` even without a queue overflow.
    pub const TRIP_AFTER_MISSES: u32 = 3;
}

impl Default for OverloadPolicy {
    fn default() -> Self {
        OverloadPolicy {
            latency_budget_ms: 1.0,
            catchup_quiet_ms: 2_000,
        }
    }
}

impl EngineConfig {
    /// A single-node RDMA deployment with small defaults (tests/examples).
    pub fn single_node() -> Self {
        EngineConfig {
            nodes: 1,
            partitions_per_shard: 8,
            network: NetworkProfile::rdma(),
            exec_mode: ExecMode::Auto,
            staleness: StalenessBound(1),
            transient_budget_bytes: 64 << 20,
            gc_every_batches: 16,
            gc_slack_ms: 1_000,
            fault_tolerance: false,
            replicate_stream_indexes: true,
            cores_per_query: 1,
            fault_plan: None,
            worker_threads: 1,
            incremental: false,
            ingest_budget: None,
            shed_policy: ShedPolicy::DropOldestWindow,
            overload: OverloadPolicy::default(),
            adaptive: false,
            trace: true,
        }
    }

    /// Returns this configuration with `trace` set to `on`.
    pub fn with_trace(self, on: bool) -> Self {
        EngineConfig { trace: on, ..self }
    }

    /// Returns this configuration with `adaptive` set to `on`.
    pub fn with_adaptive(self, on: bool) -> Self {
        EngineConfig {
            adaptive: on,
            ..self
        }
    }

    /// Returns this configuration with the ingest budget set (`None`
    /// restores unbounded ingest).
    pub fn with_ingest_budget(self, budget: Option<IngestBudget>) -> Self {
        EngineConfig {
            ingest_budget: budget,
            ..self
        }
    }

    /// Returns this configuration with the shed policy set.
    pub fn with_shed_policy(self, policy: ShedPolicy) -> Self {
        EngineConfig {
            shed_policy: policy,
            ..self
        }
    }

    /// Returns this configuration with `incremental` set to `on`.
    pub fn with_incremental(self, on: bool) -> Self {
        EngineConfig {
            incremental: on,
            ..self
        }
    }

    /// Returns this configuration with `worker_threads` set to `n`
    /// (clamped to at least one lane).
    pub fn with_workers(self, n: usize) -> Self {
        EngineConfig {
            worker_threads: n.max(1),
            ..self
        }
    }

    /// An `n`-node RDMA cluster (the paper's default fabric).
    pub fn cluster(n: usize) -> Self {
        EngineConfig {
            nodes: n,
            ..Self::single_node()
        }
    }

    /// The paper's Non-RDMA configuration: TCP costs + forced fork-join.
    pub fn cluster_tcp(n: usize) -> Self {
        EngineConfig {
            nodes: n,
            network: NetworkProfile::tcp(),
            exec_mode: ExecMode::ForkJoin,
            ..Self::single_node()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forkjoin::backoff_ns;

    #[test]
    fn presets_are_consistent() {
        let c = EngineConfig::cluster(8);
        assert_eq!(c.nodes, 8);
        assert!(c.network.one_sided_available);
        let t = EngineConfig::cluster_tcp(4);
        assert!(!t.network.one_sided_available);
        assert_eq!(t.exec_mode, ExecMode::ForkJoin);
        assert!(t.fault_plan.is_none());
    }

    /// Every field of every preset against a literal: a preset that
    /// depends on anything but its argument (the process environment, a
    /// changed default) fails here, and a new field does not compile
    /// until it is listed.
    #[test]
    fn presets_are_constants() {
        let single = EngineConfig {
            nodes: 1,
            partitions_per_shard: 8,
            network: NetworkProfile::rdma(),
            exec_mode: ExecMode::Auto,
            staleness: StalenessBound(1),
            transient_budget_bytes: 64 << 20,
            gc_every_batches: 16,
            gc_slack_ms: 1_000,
            fault_tolerance: false,
            replicate_stream_indexes: true,
            cores_per_query: 1,
            fault_plan: None,
            worker_threads: 1,
            incremental: false,
            ingest_budget: None,
            shed_policy: ShedPolicy::DropOldestWindow,
            overload: OverloadPolicy {
                latency_budget_ms: 1.0,
                catchup_quiet_ms: 2_000,
            },
            adaptive: false,
            trace: true,
        };
        assert_eq!(EngineConfig::single_node(), single);
        assert_eq!(
            EngineConfig::cluster(8),
            EngineConfig {
                nodes: 8,
                ..single.clone()
            }
        );
        assert_eq!(
            EngineConfig::cluster_tcp(4),
            EngineConfig {
                nodes: 4,
                network: NetworkProfile::tcp(),
                exec_mode: ExecMode::ForkJoin,
                ..single
            }
        );
    }

    #[test]
    fn with_workers_clamps_to_one() {
        let c = EngineConfig::single_node().with_workers(0);
        assert_eq!(c.worker_threads, 1);
        assert_eq!(EngineConfig::cluster(3).with_workers(4).worker_threads, 4);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        assert_eq!(backoff_ns(1), 100_000);
        assert_eq!(backoff_ns(2), 200_000);
        assert_eq!(backoff_ns(3), 400_000);
        assert_eq!(backoff_ns(30), 1_600_000);
    }
}
