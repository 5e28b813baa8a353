//! The engine-owned metrics registry.
//!
//! One [`Registry`] lives in the cluster (shared `Arc`); the engine
//! records query-stage spans keyed by *query class* (the registered
//! query's name) and batch-stage spans keyed by *stream name*. Each keyed
//! series is a set of per-stage [`LatencyHistogram`]s plus an end-to-end
//! histogram for query series.
//!
//! Reads go through [`Registry::snapshot`]; two snapshots can be
//! subtracted ([`RegistrySnapshot::delta`]) to isolate one experiment's
//! interval, mirroring `FabricMetrics::snapshot().delta`.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::faults::FaultCounters;
use crate::histogram::{HistogramSnapshot, LatencyHistogram};
use crate::incremental::IncrementalCounters;
use crate::integrity::IntegrityCounters;
use crate::overload::OverloadCounters;
use crate::plan::PlanCounters;
use crate::pool::PoolCounters;
use crate::stage::{Stage, StageTrace};
use crate::trace::TraceRecorder;

/// Per-stage histograms for one keyed series, plus an end-to-end
/// histogram (used by query series; batch series leave it empty).
#[derive(Default)]
struct Series {
    stages: BTreeMap<Stage, LatencyHistogram>,
    end_to_end: LatencyHistogram,
}

/// The engine-wide sink for staged latency tracing.
#[derive(Default)]
pub struct Registry {
    queries: RwLock<BTreeMap<String, Arc<RwLock<Series>>>>,
    streams: RwLock<BTreeMap<String, Arc<RwLock<Series>>>>,
    faults: Arc<FaultCounters>,
    pool: Arc<PoolCounters>,
    incremental: Arc<IncrementalCounters>,
    overload: Arc<OverloadCounters>,
    plan: Arc<PlanCounters>,
    integrity: Arc<IntegrityCounters>,
    trace: Arc<TraceRecorder>,
}

fn series_for(
    map: &RwLock<BTreeMap<String, Arc<RwLock<Series>>>>,
    key: &str,
) -> Arc<RwLock<Series>> {
    if let Some(s) = map.read().get(key) {
        return Arc::clone(s);
    }
    Arc::clone(map.write().entry(key.to_string()).or_default())
}

fn record_into(series: &Arc<RwLock<Series>>, trace: &StageTrace) {
    // Fast path: all stages already have histograms (read lock only).
    {
        let s = series.read();
        if trace
            .spans()
            .iter()
            .all(|(stage, _)| s.stages.contains_key(stage))
        {
            for &(stage, ns) in trace.spans() {
                s.stages[&stage].record(ns);
            }
            return;
        }
    }
    let mut s = series.write();
    for &(stage, ns) in trace.spans() {
        s.stages.entry(stage).or_default().record(ns);
    }
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a finished firing for query class `query`: its staged
    /// trace plus the end-to-end latency in nanoseconds.
    pub fn record_query(&self, query: &str, trace: &StageTrace, end_to_end_ns: u64) {
        let series = series_for(&self.queries, query);
        record_into(&series, trace);
        series.read().end_to_end.record(end_to_end_ns);
    }

    /// Records batch-path stage spans for stream `stream`.
    pub fn record_stream(&self, stream: &str, trace: &StageTrace) {
        record_into(&series_for(&self.streams, stream), trace);
    }

    /// Records a single batch stage span for stream `stream`. Allocates
    /// only the first time the stream or the stage is seen: the ingest
    /// path records the adaptor's work on every tuple.
    pub fn record_stream_stage(&self, stream: &str, stage: Stage, ns: u64) {
        let series = series_for(&self.streams, stream);
        if let Some(h) = series.read().stages.get(&stage) {
            h.record(ns);
            return;
        }
        series.write().stages.entry(stage).or_default().record(ns);
    }

    /// Records a single stage span for query class `query` *without*
    /// touching its end-to-end histogram — for between-firing work
    /// (re-planning) that must appear in the breakdown but is not part
    /// of any firing's latency.
    pub fn record_query_stage(&self, query: &str, stage: Stage, ns: u64) {
        let mut t = StageTrace::new();
        t.add(stage, ns);
        record_into(&series_for(&self.queries, query), &t);
    }

    /// The shared fault/recovery counters; the fault-injection fabric
    /// and the recovery path both record here.
    pub fn faults(&self) -> &Arc<FaultCounters> {
        &self.faults
    }

    /// The shared worker-pool counters; every node's `WorkerPool`
    /// records its parallel regions here.
    pub fn pool(&self) -> &Arc<PoolCounters> {
        &self.pool
    }

    /// The shared delta-maintenance counters; the engine's `fire_ready`
    /// records every continuous firing's path (maintained vs fallback)
    /// and row reuse here.
    pub fn incremental(&self) -> &Arc<IncrementalCounters> {
        &self.incremental
    }

    /// The shared overload-management counters; the engine's bounded
    /// ingest, admission control, and catch-up replay record here.
    pub fn overload(&self) -> &Arc<OverloadCounters> {
        &self.overload
    }

    /// The shared adaptive-planning counters; the engine's plan cache,
    /// drift detector, and cost-model mode selection record here.
    pub fn plan(&self) -> &Arc<PlanCounters> {
        &self.plan
    }

    /// The shared state-integrity counters; the checksum-verification
    /// sites, the invariant scrubber, and the quarantine-rebuild path
    /// record here.
    pub fn integrity(&self) -> &Arc<IntegrityCounters> {
        &self.integrity
    }

    /// The shared flight recorder (`crate::trace`); the engine's batch
    /// and firing paths emit causal span/marker events here, and
    /// anomaly sites trigger black-box dumps through it.
    pub fn trace(&self) -> &Arc<TraceRecorder> {
        &self.trace
    }

    /// Point-in-time copy of every keyed series.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let copy = |map: &RwLock<BTreeMap<String, Arc<RwLock<Series>>>>| {
            map.read()
                .iter()
                .map(|(k, v)| {
                    let s = v.read();
                    (
                        k.clone(),
                        SeriesSnapshot {
                            stages: s.stages.iter().map(|(st, h)| (*st, h.snapshot())).collect(),
                            end_to_end: s.end_to_end.snapshot(),
                        },
                    )
                })
                .collect()
        };
        RegistrySnapshot {
            queries: copy(&self.queries),
            streams: copy(&self.streams),
        }
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.snapshot();
        f.debug_struct("Registry")
            .field("queries", &snap.queries.len())
            .field("streams", &snap.streams.len())
            .finish()
    }
}

/// Plain-data copy of one series.
#[derive(Debug, Clone, Default)]
pub struct SeriesSnapshot {
    /// Per-stage histogram snapshots.
    pub stages: BTreeMap<Stage, HistogramSnapshot>,
    /// End-to-end latency histogram (query series only).
    pub end_to_end: HistogramSnapshot,
}

impl SeriesSnapshot {
    fn delta(&self, later: &SeriesSnapshot) -> SeriesSnapshot {
        let empty = HistogramSnapshot::default();
        SeriesSnapshot {
            stages: later
                .stages
                .iter()
                .map(|(st, h)| (*st, self.stages.get(st).unwrap_or(&empty).delta(h)))
                .collect(),
            end_to_end: self.end_to_end.delta(&later.end_to_end),
        }
    }
}

/// Plain-data copy of the whole registry at one instant.
#[derive(Debug, Clone, Default)]
pub struct RegistrySnapshot {
    /// Per-query-class series, keyed by registered query name.
    pub queries: BTreeMap<String, SeriesSnapshot>,
    /// Per-stream series, keyed by stream name.
    pub streams: BTreeMap<String, SeriesSnapshot>,
}

impl RegistrySnapshot {
    /// Activity between `self` (earlier) and `later`: per-bucket
    /// saturating subtraction, keeping every key present in `later`.
    pub fn delta(&self, later: &RegistrySnapshot) -> RegistrySnapshot {
        let empty = SeriesSnapshot::default();
        let diff = |ours: &BTreeMap<String, SeriesSnapshot>,
                    theirs: &BTreeMap<String, SeriesSnapshot>| {
            theirs
                .iter()
                .map(|(k, v)| (k.clone(), ours.get(k).unwrap_or(&empty).delta(v)))
                .collect()
        };
        RegistrySnapshot {
            queries: diff(&self.queries, &later.queries),
            streams: diff(&self.streams, &later.streams),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_series_accumulate_by_key() {
        let r = Registry::new();
        let mut t = StageTrace::new();
        t.add(Stage::WindowExtract, 10);
        t.add(Stage::PatternMatch, 100);
        t.add(Stage::ResultEmit, 5);
        r.record_query("q4", &t, 115);
        r.record_query("q4", &t, 115);
        r.record_query("q7", &t, 115);
        let snap = r.snapshot();
        assert_eq!(snap.queries.len(), 2);
        let q4 = &snap.queries["q4"];
        assert_eq!(q4.end_to_end.count, 2);
        assert_eq!(q4.stages[&Stage::PatternMatch].count, 2);
        assert_eq!(snap.queries["q7"].end_to_end.count, 1);
    }

    #[test]
    fn stream_series_and_delta() {
        let r = Registry::new();
        r.record_stream_stage("lsbench-posts", Stage::Injection, 1_000);
        let before = r.snapshot();
        r.record_stream_stage("lsbench-posts", Stage::Injection, 2_000);
        r.record_stream_stage("lsbench-posts", Stage::Gc, 500);
        let after = r.snapshot();
        let d = before.delta(&after);
        let s = &d.streams["lsbench-posts"];
        assert_eq!(s.stages[&Stage::Injection].count, 1);
        assert_eq!(s.stages[&Stage::Gc].count, 1);
    }
}
