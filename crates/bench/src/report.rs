//! The machine-readable `--json <path>` report every experiment
//! supports, and the paper's number formatting.

use std::path::PathBuf;

use wukong_core::metrics::LatencyRecorder;
use wukong_core::{RecoveryReport, WukongS};
use wukong_obs::{HistogramSnapshot, Json, RegistrySnapshot};

/// Version stamped into every JSON report as `schema_version`. Bump when
/// the document layout changes incompatibly.
///
/// Version history: 1 = initial layout; 2 = added the `faults` and
/// `recovery` top-level members (fault-injection counters and
/// checkpoint-replay metrics); 3 = added the `pool` top-level member
/// (worker-pool counters: regions, tasks, steals, queue depth, serial
/// vs modeled busy time); 4 = added the `incremental` top-level member
/// (delta-maintenance counters: maintained / rebuild / fallback firings
/// and rows reused vs recomputed vs retracted); 5 = added the `overload`
/// top-level member (bounded-ingest counters: shed events, tuples shed,
/// admission rejections, state transitions, catch-up replays, degraded
/// firings); 6 = added the `plan` top-level member (adaptive-planning
/// counters: plan-cache hits/misses, feedback firings, drift, re-plans,
/// delta rebuilds, cost-model mode decisions, and the modeled
/// `edges_traversed` work metric); 7 = added the `integrity` top-level
/// member (state-integrity counters: per-site checksum failures,
/// scrubber violations, quarantines, rebuilds) and extended `recovery`
/// with `integrity_violations` and `quarantined_shards`; 8 = added the
/// `trace` top-level member (flight-recorder counters: enabled, events
/// recorded/evicted, firings minted, anomaly dumps held/suppressed) and
/// extended `recovery` with `replayed_batch_ids` (causal batch labels of
/// the replayed log, capped at the first 32); 9 = removed
/// `faults.dead_reads` (the engine never fails a one-sided read).
pub const JSON_SCHEMA_VERSION: u64 = 9;

/// Collects an experiment's machine-readable results and writes them as
/// one schema-stable JSON document when `wukong-bench` was invoked with
/// `--json <path>`. When the flag is absent every method is a cheap
/// no-op, so experiments record unconditionally.
///
/// Document layout (`schema_version` 9):
///
/// ```json
/// {
///   "schema_version": 9,
///   "experiment": "table2_latency_single",
///   "latency_ms": { "<series>": {"samples", "p50", "p90", "p99", "p999", "mean"} },
///   "counters":   { "<name>": <number> },
///   "fabric":     { "one_sided_reads", "messages", "bytes_read", "bytes_sent", "charged_ns" },
///   "faults":     { "msgs_dropped", "retransmits", "rpc_timeouts", ... },
///   "recovery":   { "recovery_ms", "replayed_batches", "replayed_queries",
///                   "dedup_suppressed", "restored_stable_sn",
///                   "integrity_violations", "quarantined_shards",
///                   "replayed_batch_ids" },
///   "pool":       { "tasks", "regions", "steals", "max_queue_depth",
///                   "serial_busy_ns", "modeled_busy_ns", "region_wall_ns" },
///   "incremental": { "incremental_firings", "rebuild_firings", "fallback_firings",
///                    "rows_reused", "rows_recomputed", "rows_retracted" },
///   "overload":   { "sheds_drop_oldest", "sheds_sampled", "tuples_shed",
///                   "admission_rejected", "state_transitions", "catchup_replays",
///                   "catchup_replayed_tuples", "degraded_firings",
///                   "incremental_rebuilds" },
///   "plan":       { "cache_hits", "cache_misses", "feedback_firings",
///                   "drifted_firings", "replans", "delta_rebuilds",
///                   "mode_inplace", "mode_forkjoin", "edges_traversed",
///                   "window_probes" },
///   "integrity":  { "checksum_fail_batch", "checksum_fail_message",
///                   "checksum_fail_checkpoint", "scrub_violations",
///                   "quarantines", "rebuilds", "rebuild_ns" },
///   "trace":      { "enabled", "events", "evicted", "firings",
///                   "dumps", "dumps_suppressed" },
///   "stages": {
///     "queries": { "<class>":  { "end_to_end_ns": {...}, "<stage>": {...} } },
///     "streams": { "<stream>": { "<stage>": {...} } }
///   }
/// }
/// ```
///
/// `faults` carries every [`wukong_obs::FaultSnapshot`] counter (all zero in a
/// fault-free run); `recovery` stays an empty object unless the
/// experiment performed a recovery and called [`BenchJson::recovery`];
/// `pool` carries the worker-pool counters of the captured engine (all
/// zero when every region ran on a single lane — see `wukong-net`'s
/// `WorkerPool` for the modeled-time cost model); `incremental` carries
/// the delta-maintenance counters (all zero unless the engine ran with
/// `EngineConfig::incremental`); `overload` carries the bounded-ingest
/// counters (all zero unless the engine ran with
/// `EngineConfig::ingest_budget`); `plan` carries the adaptive-planning
/// counters (`edges_traversed` and `window_probes` accumulate in every
/// run; the rest stay zero unless the engine ran with
/// `EngineConfig::adaptive`);
/// `integrity` carries the state-integrity counters (all zero unless
/// corruption was detected, a shard was quarantined, or the scrubber
/// found a violated invariant).
///
/// where every `{...}` stage/histogram entry carries
/// `{"count", "sum_ns", "p50_ns", "p99_ns"}`.
pub struct BenchJson {
    path: Option<PathBuf>,
    doc: Json,
}

fn histogram_json(h: &HistogramSnapshot) -> Json {
    let mut o = Json::object();
    o.set("count", Json::from(h.count));
    o.set("sum_ns", Json::from(h.sum));
    for (key, p) in [("p50_ns", 0.50), ("p99_ns", 0.99)] {
        o.set(key, h.percentile(p).map(Json::from).unwrap_or(Json::Null));
    }
    o
}

fn stages_json(reg: &RegistrySnapshot) -> Json {
    let mut queries = Json::object();
    for (class, series) in &reg.queries {
        let mut entry = Json::object();
        entry.set("end_to_end_ns", histogram_json(&series.end_to_end));
        for (stage, h) in &series.stages {
            entry.set(stage.name(), histogram_json(h));
        }
        queries.set(class, entry);
    }
    let mut streams = Json::object();
    for (name, series) in &reg.streams {
        let mut entry = Json::object();
        for (stage, h) in &series.stages {
            entry.set(stage.name(), histogram_json(h));
        }
        streams.set(name, entry);
    }
    let mut o = Json::object();
    o.set("queries", queries);
    o.set("streams", streams);
    o
}

impl BenchJson {
    /// Builds an always-active sink writing to `path` (tests).
    pub fn to_path(experiment: &str, path: impl Into<PathBuf>) -> Self {
        Self::new(experiment, Some(path.into()))
    }

    /// Builds the sink for `experiment`: active when `path` (the `--json`
    /// argument) is given, a no-op otherwise.
    pub fn new(experiment: &str, path: Option<PathBuf>) -> Self {
        let mut doc = Json::object();
        doc.set("schema_version", Json::from(JSON_SCHEMA_VERSION));
        doc.set("experiment", Json::from(experiment));
        doc.set("latency_ms", Json::object());
        doc.set("counters", Json::object());
        doc.set("fabric", Json::object());
        doc.set("faults", Json::object());
        doc.set("recovery", Json::object());
        doc.set("pool", Json::object());
        doc.set("incremental", Json::object());
        doc.set("overload", Json::object());
        doc.set("plan", Json::object());
        doc.set("integrity", Json::object());
        doc.set("trace", Json::object());
        doc.set("stages", {
            let mut s = Json::object();
            s.set("queries", Json::object());
            s.set("streams", Json::object());
            s
        });
        BenchJson { path, doc }
    }

    /// Whether a report will actually be written.
    pub fn active(&self) -> bool {
        self.path.is_some()
    }

    fn member(&mut self, key: &str) -> &mut Json {
        match &mut self.doc {
            Json::Obj(map) => map.get_mut(key).expect("member created in new()"),
            _ => unreachable!("doc is an object"),
        }
    }

    /// Records a latency series (percentiles in milliseconds).
    pub fn series(&mut self, name: &str, rec: &LatencyRecorder) {
        if !self.active() {
            return;
        }
        let mut entry = Json::object();
        entry.set("samples", Json::from(rec.len()));
        for (key, p) in [("p50", 50.0), ("p90", 90.0), ("p99", 99.0), ("p999", 99.9)] {
            entry.set(key, rec.percentile(p).map(Json::from).unwrap_or(Json::Null));
        }
        entry.set("mean", rec.mean().map(Json::from).unwrap_or(Json::Null));
        self.member("latency_ms").set(name, entry);
    }

    /// Records one free-form numeric counter (op counts, bytes, …).
    pub fn counter(&mut self, name: &str, value: f64) {
        if !self.active() {
            return;
        }
        self.member("counters").set(name, Json::from(value));
    }

    /// Records one counter-family section (`faults`, `pool`,
    /// `incremental`, `overload`, `plan`, `integrity`, `trace`) from a
    /// snapshot's `entries()` — usually an interval delta.
    pub fn section(&mut self, name: &str, entries: impl IntoIterator<Item = (&'static str, u64)>) {
        if !self.active() {
            return;
        }
        let mut o = Json::object();
        for (key, v) in entries {
            o.set(key, Json::from(v));
        }
        *self.member(name) = o;
    }

    /// Records a recovery's replay metrics.
    pub fn recovery(&mut self, r: &RecoveryReport) {
        if !self.active() {
            return;
        }
        let mut o = Json::object();
        o.set("recovery_ms", Json::from(r.recovery_ms));
        o.set("replayed_batches", Json::from(r.replayed_batches));
        o.set("replayed_queries", Json::from(r.replayed_queries));
        o.set("dedup_suppressed", Json::from(r.dedup_suppressed));
        o.set("restored_stable_sn", Json::from(r.restored_stable_sn));
        o.set("integrity_violations", Json::from(r.integrity_violations));
        o.set("quarantined_shards", Json::from(r.quarantined_shards));
        // Causal labels of the replayed log, joinable against
        // flight-recorder traces; capped to keep reports bounded.
        o.set(
            "replayed_batch_ids",
            Json::Arr(
                r.replayed_batch_ids
                    .iter()
                    .take(32)
                    .map(|b| Json::Str(b.label()))
                    .collect(),
            ),
        );
        *self.member("recovery") = o;
    }

    /// Captures an engine's fabric counters, operational counters, and
    /// staged latency breakdown.
    pub fn engine(&mut self, engine: &WukongS) {
        if !self.active() {
            return;
        }
        let stats = engine.stats();
        let mut fabric = Json::object();
        fabric.set("one_sided_reads", Json::from(stats.fabric.one_sided_reads));
        fabric.set("messages", Json::from(stats.fabric.messages));
        fabric.set("bytes_read", Json::from(stats.fabric.bytes_read));
        fabric.set("bytes_sent", Json::from(stats.fabric.bytes_sent));
        fabric.set("charged_ns", Json::from(stats.fabric.charged_ns));
        *self.member("fabric") = fabric;
        for (name, v) in [
            ("nodes", stats.nodes as f64),
            ("streams", stats.streams as f64),
            ("continuous_queries", stats.continuous_queries as f64),
            ("stored_triples", stats.stored_triples as f64),
            ("store_bytes", stats.store_bytes as f64),
            ("stream_index_bytes", stats.stream_index_bytes as f64),
            ("transient_bytes", stats.transient_bytes as f64),
            ("raw_stream_bytes", stats.raw_stream_bytes as f64),
            ("batches_processed", stats.batches_processed as f64),
        ] {
            self.counter(name, v);
        }
        let handle = engine.handle();
        let obs = handle.obs();
        self.section("faults", handle.fault_counters().entries());
        self.section("pool", obs.pool().snapshot().entries());
        self.section("incremental", obs.incremental().snapshot().entries());
        self.section("overload", obs.overload().snapshot().entries());
        self.section("plan", obs.plan().snapshot().entries());
        self.section("integrity", obs.integrity().snapshot().entries());
        self.section("trace", handle.trace_snapshot().entries());
        *self.member("stages") = stages_json(&handle.obs_snapshot());
    }

    /// The document built so far (tests).
    pub fn document(&self) -> &Json {
        &self.doc
    }

    /// Writes the report if `--json` was given. Returns the path written.
    pub fn finish(self) -> Option<PathBuf> {
        let path = self.path?;
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent)
                .unwrap_or_else(|e| panic!("creating {}: {e}", parent.display()));
        }
        std::fs::write(&path, self.doc.to_string_pretty())
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        Some(path)
    }
}

#[cfg(test)]
mod bench_json_tests {
    use super::*;
    use wukong_obs::{
        FaultSnapshot, IncrementalSnapshot, IntegritySnapshot, OverloadSnapshot, PlanSnapshot,
        PoolSnapshot,
    };

    #[test]
    fn inactive_sink_is_a_noop() {
        let mut j = BenchJson::new("t", None);
        let mut rec = LatencyRecorder::new();
        rec.record(1.0);
        j.series("a", &rec);
        j.counter("b", 2.0);
        assert_eq!(j.document().get("latency_ms"), Some(&Json::object()));
        assert_eq!(j.finish(), None);
    }

    #[test]
    fn document_is_schema_stable() {
        let mut j = BenchJson::to_path("t", "/tmp/ignored.json");
        let mut rec = LatencyRecorder::new();
        for v in [1.0, 2.0, 3.0] {
            rec.record(v);
        }
        j.series("L1", &rec);
        j.counter("ops", 42.0);
        let doc = j.document();
        assert_eq!(doc.get("schema_version").and_then(Json::as_u64), Some(9));
        assert_eq!(doc.get("experiment").and_then(Json::as_str), Some("t"));
        let l1 = doc.get("latency_ms").unwrap().get("L1").unwrap();
        assert_eq!(l1.get("samples").and_then(Json::as_u64), Some(3));
        assert_eq!(l1.get("p50").and_then(Json::as_f64), Some(2.0));
        for key in [
            "counters",
            "fabric",
            "faults",
            "recovery",
            "pool",
            "incremental",
            "overload",
            "plan",
            "integrity",
            "trace",
            "stages",
        ] {
            assert!(doc.get(key).is_some(), "missing {key}");
        }
    }

    /// Writes `entries` as section `name` and checks every entry reads
    /// back under its own name.
    fn section_round_trips<const N: usize>(
        name: &str,
        entries: [(&'static str, u64); N],
    ) -> BenchJson {
        let mut j = BenchJson::to_path("t", "/tmp/ignored.json");
        j.section(name, entries);
        let section = j.document().get(name).expect("section").clone();
        assert_eq!(section.as_obj().map(|o| o.len()), Some(N));
        for (key, value) in entries {
            assert_eq!(
                section.get(key).and_then(Json::as_u64),
                Some(value),
                "{name}.{key}"
            );
        }
        j
    }

    #[test]
    fn plan_section_round_trips() {
        let snap = PlanSnapshot {
            cache_hits: 12,
            cache_misses: 3,
            feedback_firings: 40,
            drifted_firings: 9,
            replans: 2,
            delta_rebuilds: 1,
            mode_inplace: 35,
            mode_forkjoin: 5,
            edges_traversed: 7_000,
            window_probes: 900,
        };
        let j = section_round_trips("plan", snap.entries());
        // The serialized document parses back byte-identically.
        let text = j.document().to_string_pretty();
        let parsed = wukong_obs::json::parse(&text).expect("round-trips");
        assert_eq!(&parsed, j.document());
    }

    #[test]
    fn overload_section_round_trips() {
        let snap = OverloadSnapshot {
            sheds_drop_oldest: 4,
            tuples_shed: 320,
            admission_rejected: 2,
            state_transitions: 3,
            catchup_replays: 1,
            catchup_replayed_tuples: 320,
            degraded_firings: 9,
            ..Default::default()
        };
        section_round_trips("overload", snap.entries());
    }

    #[test]
    fn incremental_section_round_trips() {
        let snap = IncrementalSnapshot {
            incremental_firings: 30,
            rebuild_firings: 1,
            fallback_firings: 2,
            rows_reused: 900,
            rows_recomputed: 120,
            rows_retracted: 110,
        };
        section_round_trips("incremental", snap.entries());
    }

    #[test]
    fn pool_section_round_trips() {
        let snap = PoolSnapshot {
            tasks: 40,
            regions: 5,
            steals: 3,
            max_queue_depth: 16,
            serial_busy_ns: 1_000,
            modeled_busy_ns: 300,
            region_wall_ns: 1_200,
        };
        section_round_trips("pool", snap.entries());
    }

    #[test]
    fn faults_and_recovery_sections_round_trip() {
        let snap = FaultSnapshot {
            msgs_dropped: 7,
            retransmits: 7,
            ..Default::default()
        };
        let mut j = section_round_trips("faults", snap.entries());
        let rep = RecoveryReport {
            recovery_ms: 1.25,
            replayed_batches: 40,
            replayed_queries: 2,
            dedup_suppressed: 3,
            restored_stable_sn: 9,
            integrity_violations: 1,
            quarantined_shards: 2,
            replayed_batch_ids: vec![
                wukong_obs::BatchId::mint(0, 100),
                wukong_obs::BatchId::mint(1, 200),
            ],
        };
        j.recovery(&rep);
        let r = j.document().get("recovery").unwrap();
        assert_eq!(r.get("replayed_batches").and_then(Json::as_u64), Some(40));
        assert_eq!(r.get("recovery_ms").and_then(Json::as_f64), Some(1.25));
        assert_eq!(r.get("restored_stable_sn").and_then(Json::as_u64), Some(9));
        assert_eq!(
            r.get("integrity_violations").and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(r.get("quarantined_shards").and_then(Json::as_u64), Some(2));
        let ids = r.get("replayed_batch_ids").and_then(Json::as_arr).unwrap();
        assert_eq!(ids.len(), 2);
        assert_eq!(ids[0].as_str(), Some("s0@100"));
        assert_eq!(ids[1].as_str(), Some("s1@200"));
    }

    #[test]
    fn integrity_section_round_trips() {
        let snap = IntegritySnapshot {
            checksum_fail_batch: 1,
            checksum_fail_message: 5,
            checksum_fail_checkpoint: 2,
            scrub_violations: 0,
            quarantines: 3,
            rebuilds: 3,
            rebuild_ns: 42_000,
        };
        section_round_trips("integrity", snap.entries());
    }
}
/// Formats milliseconds the way the paper's tables do: two decimals below
/// 10 ms, one decimal below 100, integral (with thousands separators)
/// above.
pub(crate) fn fmt_ms(ms: f64) -> String {
    if ms < 0.1 {
        format!("{ms:.3}")
    } else if ms < 10.0 {
        format!("{ms:.2}")
    } else if ms < 100.0 {
        format!("{ms:.1}")
    } else {
        let n = ms.round() as i64;
        let s = n.to_string();
        let mut out = String::new();
        for (i, c) in s.chars().enumerate() {
            if i > 0 && (s.len() - i).is_multiple_of(3) {
                out.push(',');
            }
            out.push(c);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formats_match_paper_style() {
        assert_eq!(fmt_ms(0.13), "0.13");
        assert_eq!(fmt_ms(0.013), "0.013");
        assert_eq!(fmt_ms(30.38), "30.4");
        assert_eq!(fmt_ms(1984.4), "1,984");
        assert_eq!(fmt_ms(155.0), "155");
    }

    #[test]
    fn design_md_documents_the_current_schema_version() {
        let design = include_str!("../../../DESIGN.md");
        let heading = format!("### JSON report schema (version {JSON_SCHEMA_VERSION})");
        let example = format!("\"schema_version\": {JSON_SCHEMA_VERSION},");
        assert!(
            design.contains(&heading) && design.contains(&example),
            "DESIGN.md §7 lags JSON_SCHEMA_VERSION = {JSON_SCHEMA_VERSION}"
        );
    }
}
