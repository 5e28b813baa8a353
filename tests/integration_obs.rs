//! Integration tests for the observability layer: fabric-operation
//! accounting per execution mode, staged latency attribution, and the
//! machine-readable bench report — on the preset deployment, under
//! admission control, and with the flight recorder off ([`observed`]).

use std::sync::Arc;
use wukong_bench::{
    assert_budget_engaged, assert_mode_engaged, ls_workload_seeded, BenchJson, Scale,
    JSON_SCHEMA_VERSION,
};
use wukong_benchdata::lsbench;
use wukong_core::{EngineConfig, ExecMode, Firing, WukongS};
use wukong_obs::{json, Json};
use wukong_rdf::{ntriples, StreamId};
use wukong_stream::{IngestBudget, StreamSchema};

/// The deployments every observation here must hold on, as `(label,
/// configuration)` legs over `base`: `base` itself, `base` under an
/// ingest budget of 64 and of 1 024 tuples (neither is one these
/// workloads overflow: admission control may turn one-shots away, it
/// must not change what is observed), and `base` with the flight
/// recorder off.
fn observed(base: EngineConfig) -> Vec<(String, EngineConfig)> {
    let budget = |n| {
        base.clone()
            .with_ingest_budget(Some(IngestBudget::tuples(n)))
    };
    vec![
        ("preset".to_string(), base.clone()),
        ("budget 64".to_string(), budget(64)),
        ("budget 1024".to_string(), budget(1_024)),
        ("recorder-off".to_string(), base.clone().with_trace(false)),
    ]
}

/// Checks, last thing in a leg, that `engine` really was the deployment
/// its leg names: the leg's configuration (a recovered engine's too),
/// mode counters, no tuple shed so far, and a budget that sheds a burst
/// exactly when one is installed (budgets are per stream: the burst goes
/// to the second one).
fn assert_leg_engaged(leg: &str, cfg: &EngineConfig, engine: &WukongS) {
    assert_eq!(engine.config(), cfg, "{leg}: not the leg's configuration");
    assert_mode_engaged(leg, engine);
    assert_eq!(
        engine.total_shed(),
        0,
        "{leg}: the workload fits the budget"
    );
    assert_budget_engaged(leg, engine, StreamId(1));
}

/// The firing-side stage invariant: per firing, the disjoint query stages
/// never exceed the end-to-end latency (`sum ≤ e2e + 1 % + 1 µs`), and —
/// when `floor` is given — the median firing's stages cover at least that
/// share of it. The median, not the pooled ratio Σ sum / Σ e2e: one
/// pre-emption between a firing's last stage reading and its total sinks
/// a pooled ratio over a few dozen firings, and cannot move the median.
fn assert_stages_account_for_latency(leg: &str, firings: &[Firing], floor: Option<f64>) {
    let mut coverage = Vec::new();
    for f in firings {
        let sum = f.stages.query_total_ns();
        let e2e = (f.latency_ms * 1e6) as u64;
        assert!(
            sum <= e2e + e2e / 100 + 1_000,
            "{leg}: stage sum {sum} ns exceeds end-to-end {e2e} ns for {:?}",
            f.name
        );
        coverage.push(sum as f64 / e2e as f64);
    }
    let Some(floor) = floor else { return };
    assert!(
        !coverage.is_empty(),
        "{leg}: the workload must fire queries"
    );
    coverage.sort_by(f64::total_cmp);
    let median = coverage[coverage.len() / 2];
    assert!(
        (floor..=1.01).contains(&median),
        "{leg}: the median firing's stages cover {:.1}% of its end-to-end latency (want >= {:.0}%)",
        median * 100.0,
        floor * 100.0
    );
}

/// Builds the Fig. 1 scenario under `cfg`.
fn fig1_engine(cfg: EngineConfig) -> WukongS {
    let engine = WukongS::new(cfg);
    let ss = engine.strings().clone();
    let stored = "Logan fo Erik\nErik fo Logan\nLogan po T-13\nErik li T-13\nT-13 ht #sosp17\n";
    engine.load_base(ntriples::parse_document(&ss, stored).expect("parses"));
    let tweets = engine.register_stream(StreamSchema::timeless(StreamId(0), "Tweet_Stream", 100));
    let likes = engine.register_stream(StreamSchema::timeless(StreamId(1), "Like_Stream", 100));
    for line in [
        "Logan po T-15 150",
        "Erik li T-15 250",
        "Erik po T-16 300",
        "Logan li T-16 350",
    ] {
        let t = ntriples::parse_tuple(&ss, line, 1).expect("tuple");
        let sid = if line.contains(" po ") { tweets } else { likes };
        engine.ingest(sid, t.triple, t.timestamp);
    }
    engine.advance_time(1_000);
    engine
}

const QC: &str = "REGISTER QUERY QC SELECT ?X ?Y ?Z \
     FROM Tweet_Stream [RANGE 10s STEP 1s] \
     FROM Like_Stream [RANGE 5s STEP 1s] \
     FROM X-Lab \
     WHERE { GRAPH Tweet_Stream { ?X po ?Z } \
             GRAPH X-Lab { ?X fo ?Y } \
             GRAPH Like_Stream { ?Y li ?Z } }";

/// In-place execution of a selective query on a 4-node cluster uses
/// one-sided reads only: remote state is pulled, never shipped to.
#[test]
fn in_place_execution_uses_reads_not_messages() {
    for (leg, cfg) in observed(EngineConfig {
        exec_mode: ExecMode::InPlace,
        ..EngineConfig::cluster(4)
    }) {
        let engine = fig1_engine(cfg.clone());
        let id = engine.register_continuous(QC).expect("register");
        let handle = engine.handle();

        let before = handle.fabric_metrics();
        let (results, _) = engine.execute_registered(id);
        let delta = before.delta(&handle.fabric_metrics());

        assert!(!results.rows.is_empty(), "query must match");
        assert!(
            delta.one_sided_reads > 0,
            "4-node in-place execution must read remote shards, got {delta:?}"
        );
        assert_eq!(
            delta.messages, 0,
            "in-place execution must not send messages, got {delta:?}"
        );
        assert_leg_engaged(&leg, &cfg, &engine);
    }
}

/// Forced fork-join execution on the same cluster ships sub-queries to
/// the data instead, so two-sided messages appear.
#[test]
fn forkjoin_execution_sends_messages() {
    for (leg, cfg) in observed(EngineConfig {
        exec_mode: ExecMode::ForkJoin,
        ..EngineConfig::cluster(4)
    }) {
        let engine = fig1_engine(cfg.clone());
        let id = engine.register_continuous(QC).expect("register");
        let handle = engine.handle();

        let before = handle.fabric_metrics();
        let (results, _) = engine.execute_registered(id);
        let delta = before.delta(&handle.fabric_metrics());

        assert!(!results.rows.is_empty(), "query must match");
        assert!(
            delta.messages > 0,
            "fork-join execution must exchange messages, got {delta:?}"
        );
        assert_leg_engaged(&leg, &cfg, &engine);
    }
}

/// The disjoint query stages (window extract, pattern match, result
/// emit) account for the median firing's end-to-end latency to within
/// 10%, and never exceed any firing's.
#[test]
fn stage_spans_sum_to_end_to_end_latency() {
    for (leg, cfg) in observed(EngineConfig::cluster(2)) {
        let w = ls_workload_seeded(Scale::Tiny, 42);
        let engine = WukongS::with_strings(cfg.clone(), Arc::clone(&w.strings));
        engine.load_base(w.stored.iter().copied());
        for schema in w.schemas() {
            engine.register_stream(schema);
        }
        for c in 1..=lsbench::CONTINUOUS_CLASSES {
            engine
                .register_continuous(&lsbench::continuous_query(&w.bench, c, 0))
                .expect("register");
        }
        for t in &w.timeline {
            engine.ingest(t.stream, t.triple, t.timestamp);
        }
        engine.advance_time(w.duration);

        let firings = engine.fire_ready();
        assert_stages_account_for_latency(&leg, &firings, Some(0.9));
        assert_leg_engaged(&leg, &cfg, &engine);
    }
}

/// The overload path reports through the same staged-latency fabric as
/// everything else: `Shed` and `CatchUp` are batch-family stages (so the
/// query stage-sum invariant above is untouched by them), shed events
/// record a `Shed` span on the overflowing stream's series, and the
/// catch-up replay records a `CatchUp` span — all visible in a registry
/// snapshot.
#[test]
fn overload_stages_land_in_the_batch_family() {
    use wukong_obs::Stage;
    assert!(Stage::Shed.is_batch_stage() && !Stage::Shed.counts_toward_query_total());
    assert!(Stage::CatchUp.is_batch_stage() && !Stage::CatchUp.counts_toward_query_total());

    let w = ls_workload_seeded(Scale::Tiny, 42);
    let mut cfg = EngineConfig::cluster(2).with_ingest_budget(Some(IngestBudget::tuples(8)));
    cfg.overload.catchup_quiet_ms = 300;
    cfg.overload.latency_budget_ms = 1e9;
    let engine = WukongS::with_strings(cfg, Arc::clone(&w.strings));
    engine.load_base(w.stored.iter().copied());
    for schema in w.schemas() {
        engine.register_stream(schema);
    }
    engine
        .register_continuous(&lsbench::continuous_query(&w.bench, 1, 0))
        .expect("register");
    for t in &w.timeline {
        engine.ingest(t.stream, t.triple, t.timestamp);
    }
    engine.advance_time(w.duration);
    // The budget overflows right up to the end of the timeline; push
    // stream time past the quiet period so catch-up actually replays.
    engine.advance_time(w.duration + 1_000);
    let firings = engine.fire_ready();
    assert!(engine.total_shed() > 0, "the tiny budget must overflow");

    let snap = engine.handle().obs().snapshot();
    let shed_spans: u64 = snap
        .streams
        .values()
        .filter_map(|s| s.stages.get(&Stage::Shed))
        .map(|h| h.count)
        .sum();
    assert!(shed_spans > 0, "shed events must record a Shed span");
    let catchup = &snap.streams["catch-up"];
    assert!(
        catchup.stages[&Stage::CatchUp].count >= 1,
        "the replay must record a CatchUp span"
    );

    // The firing-side invariant survives degradation: stage spans never
    // exceed a firing's end-to-end latency.
    assert_stages_account_for_latency("budget 8", &firings, None);
}

/// Re-planning and recovery report through the same staged fabric:
/// `Replan` lands on the tripped query's class (outside the disjoint
/// query total, like `Shed`/`CatchUp` above), `Recovery` on the
/// dedicated "recovery" stream series — and the firing-side stage-sum
/// invariant survives both a mid-stream plan switch and a full
/// crash-recovery drill.
#[test]
fn replan_and_recovery_stages_keep_the_invariant() {
    use wukong_obs::Stage;

    assert!(Stage::Replan.is_query_stage() && !Stage::Replan.counts_toward_query_total());
    assert!(Stage::Recovery.is_batch_stage() && !Stage::Recovery.counts_toward_query_total());

    let w = ls_workload_seeded(Scale::Tiny, 42);
    let base = EngineConfig {
        fault_tolerance: true,
        ..EngineConfig::cluster(2)
    };
    for (leg, cfg) in observed(base) {
        let mgr = wukong_core::RecoveryManager::new(
            cfg.clone(),
            w.stored.clone(),
            w.schemas(),
            Arc::clone(&w.strings),
        );
        let engine = WukongS::with_strings(cfg.clone(), Arc::clone(&w.strings));
        engine.load_base(w.stored.iter().copied());
        for schema in w.schemas() {
            engine.register_stream(schema);
        }
        let id = engine
            .register_continuous(&lsbench::continuous_query(&w.bench, 1, 0))
            .expect("register");

        let mid = w.timeline.len() / 2;
        for t in &w.timeline[..mid] {
            engine.ingest(t.stream, t.triple, t.timestamp);
        }
        engine.checkpoint();
        engine.force_replan(id);
        for t in &w.timeline[mid..] {
            engine.ingest(t.stream, t.triple, t.timestamp);
        }
        engine.advance_time(w.duration);
        let mut firings = engine.fire_ready();
        assert!(!firings.is_empty(), "the workload must fire queries");

        let snap = engine.handle().obs().snapshot();
        let replans: u64 = snap
            .queries
            .values()
            .filter_map(|q| q.stages.get(&Stage::Replan))
            .map(|h| h.count)
            .sum();
        assert!(replans >= 1, "the forced re-plan must record a Replan span");

        // Crash-recover and fire the delayed windows on the fresh engine.
        let (recovered, _report) = mgr.drill(&engine, None).expect("recovery");
        recovered.advance_time(w.duration);
        firings.extend(recovered.fire_ready());

        let rsnap = recovered.handle().obs().snapshot();
        assert!(
            rsnap.streams["recovery"].stages[&Stage::Recovery].count >= 1,
            "the drill must record a Recovery span"
        );

        // The firing-side invariant holds across the plan switch and the
        // recovery boundary. Post-recovery refires run on a cold engine
        // (fresh caches, first touch of every shard), so unattributed
        // warm-up costs are larger than in the steady-state test above —
        // the floor is looser, the per-firing upper bound stays strict.
        assert_stages_account_for_latency(&leg, &firings, Some(0.75));
        assert_leg_engaged(&leg, &cfg, &recovered);
    }
}

/// Golden test for the `--json` report: a tiny in-process experiment
/// written through `BenchJson` parses back with the expected schema,
/// percentile keys, and stage names.
#[test]
fn json_report_round_trips_with_stable_schema() {
    let w = ls_workload_seeded(Scale::Tiny, 42);
    for (leg, cfg) in observed(EngineConfig::cluster(2)) {
        let engine = w.engine(cfg.clone());
        let id = engine
            .register_continuous(&lsbench::continuous_query(&w.bench, 1, 0))
            .expect("register");
        let mut rec = wukong_core::LatencyRecorder::new();
        for _ in 0..8 {
            let (_, ms) = engine.execute_registered(id);
            rec.record(ms);
        }

        let path = std::env::temp_dir().join("wukong_obs_golden.json");
        let mut jr = BenchJson::to_path("golden", &path);
        jr.series("L1/wukong_s", &rec);
        jr.counter("ops", 8.0);
        jr.engine(&engine);
        assert!(jr.active());
        jr.finish().expect("written");

        let text = std::fs::read_to_string(&path).expect("readable");
        let doc = json::parse(&text).expect("valid JSON");

        assert_eq!(
            doc.get("schema_version").and_then(Json::as_u64),
            Some(JSON_SCHEMA_VERSION)
        );
        assert_eq!(doc.get("experiment").and_then(Json::as_str), Some("golden"));

        let series = doc
            .get("latency_ms")
            .and_then(|l| l.get("L1/wukong_s"))
            .expect("series present");
        assert_eq!(series.get("samples").and_then(Json::as_u64), Some(8));
        for key in ["p50", "p90", "p99", "p999", "mean"] {
            assert!(
                series.get(key).and_then(Json::as_f64).is_some(),
                "missing percentile {key}"
            );
        }

        let fabric = doc.get("fabric").expect("fabric section");
        for key in [
            "one_sided_reads",
            "messages",
            "bytes_read",
            "bytes_sent",
            "charged_ns",
        ] {
            assert!(fabric.get(key).is_some(), "missing fabric counter {key}");
        }

        // The executed query class must show up with the disjoint query
        // stages; the fed streams with the batch stages.
        let queries = doc
            .get("stages")
            .and_then(|s| s.get("queries"))
            .and_then(Json::as_obj)
            .expect("stage queries");
        let (_, entry) = queries.iter().next().expect("at least one query class");
        for stage in [
            "end_to_end_ns",
            "window_extract",
            "pattern_match",
            "result_emit",
        ] {
            assert!(entry.get(stage).is_some(), "missing query stage {stage}");
        }
        let streams = doc
            .get("stages")
            .and_then(|s| s.get("streams"))
            .and_then(Json::as_obj)
            .expect("stage streams");
        let (_, entry) = streams.iter().next().expect("at least one stream");
        for stage in ["adaptor", "dispatch", "injection", "stream_index"] {
            assert!(entry.get(stage).is_some(), "missing batch stage {stage}");
        }

        std::fs::remove_file(&path).ok();
        assert_leg_engaged(&leg, &cfg, &engine);
    }
}
