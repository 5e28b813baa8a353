//! Integration tests for the causal tracing layer (DESIGN.md §14):
//! ring wraparound accounting, same-seed trace determinism at the
//! engine level, and the `trace_dump` schema-v8 golden round-trip.

use std::sync::Arc;
use wukong_bench::{ls_workload_seeded, Scale, JSON_SCHEMA_VERSION};
use wukong_benchdata::lsbench;
use wukong_core::{EngineConfig, WukongS};
use wukong_obs::trace::{
    firing_meta_json, BatchId, EventKind, FiringId, Marker, TraceEvent, TraceRecorder,
};
use wukong_obs::{json, Stage};

/// A full thread ring overwrites oldest-first, keeps the newest
/// `capacity` events in causal order, and counts every eviction.
#[test]
fn ring_wraparound_keeps_newest_events() {
    let rec = Arc::new(TraceRecorder::with_capacity(8));
    for i in 0..20u64 {
        rec.marker(Marker::Hold, FiringId::NONE, BatchId::mint(0, i), i);
    }
    let snap = rec.snapshot();
    assert_eq!(snap.events, 20, "every emission counts");
    assert_eq!(snap.evicted, 12, "overwritten slots count as evicted");

    let events = rec.merged_events();
    assert_eq!(events.len(), 8, "ring retains exactly its capacity");
    let args: Vec<u64> = events.iter().map(|e| e.arg).collect();
    assert_eq!(args, (12..20).collect::<Vec<_>>(), "newest events survive");
    assert!(
        events.windows(2).all(|w| w[0].seq < w[1].seq),
        "merged events stay in causal order"
    );
}

/// A [`TraceEvent`] flattened to its deterministic fields:
/// `(seq, kind, code, firing, batch, arg)`.
type FlatEvent = (u64, u8, u8, u64, u64, u64);

/// Normalizes a recorder's merged events for cross-run comparison:
/// everything is deterministic except an Exit's elapsed-ns payload.
fn normalized_events(rec: &Arc<TraceRecorder>) -> Vec<FlatEvent> {
    rec.merged_events()
        .iter()
        .map(|e| {
            let arg = if e.event_kind() == Some(EventKind::Exit) {
                0
            } else {
                e.arg
            };
            (e.seq, e.kind, e.code, e.firing.0, e.batch.raw(), arg)
        })
        .collect()
}

fn traced_run(seed: u64, trace_on: bool) -> (Vec<FlatEvent>, Vec<String>, u64) {
    let w = ls_workload_seeded(Scale::Tiny, seed);
    let engine = WukongS::with_strings(
        EngineConfig::cluster(2).with_trace(trace_on),
        Arc::clone(&w.strings),
    );
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
    let firings = engine.fire_ready();
    assert!(!firings.is_empty(), "the workload must fire");

    let rec = Arc::clone(engine.handle().trace());
    let snap = rec.snapshot();
    let metas = (1..=snap.firings)
        .filter_map(|i| rec.firing_meta(FiringId(i)))
        .map(|m| firing_meta_json(&m).to_string_compact())
        .collect();
    wukong_bench::assert_mode_engaged(if trace_on { "w1" } else { "recorder-off" }, &engine);
    (normalized_events(&rec), metas, snap.firings)
}

/// Two identical seeded runs produce identical trace timelines —
/// sequence numbers, stages, markers, firing ids, batch ids — and
/// identical per-firing lineage. Timing payloads are the only
/// run-dependent bits. With the recorder off the same run leaves no
/// trace at all, yet mints the same firing ids.
#[test]
fn same_seed_runs_trace_identically() {
    let (ev_a, metas_a, firings_a) = traced_run(7, true);
    let (ev_b, metas_b, firings_b) = traced_run(7, true);
    assert!(firings_a > 0, "firings must be minted");
    assert!(!ev_a.is_empty() && !metas_a.is_empty());
    assert_eq!(firings_a, firings_b, "same firing count");
    assert_eq!(metas_a, metas_b, "same lineage for every firing");
    assert_eq!(ev_a.len(), ev_b.len(), "same event count");
    assert_eq!(ev_a, ev_b, "same causal event sequence");

    let (ev_off, metas_off, firings_off) = traced_run(7, false);
    assert_eq!(firings_off, firings_a, "ids are minted either way");
    assert!(ev_off.is_empty() && metas_off.is_empty());
}

/// Golden round-trip for the schema-v8 `trace_dump`: the dump
/// serializes through the dependency-free JSON writer, parses back to
/// an equal document, carries the causal closure, and every embedded
/// event survives `TraceEvent::from_json ∘ to_json` unchanged.
#[test]
fn trace_dump_round_trips_schema_v8() {
    let rec = Arc::new(TraceRecorder::with_capacity(64));
    let bad = BatchId::mint(3, 1_500);
    let sibling = BatchId::mint(3, 1_000);
    let unrelated = BatchId::mint(9, 77);
    let fid = rec.mint_firing("L2", vec![(3, 500, 1_500)], 9, vec![sibling, bad]);
    {
        let _g = rec.span(Stage::WindowExtract, fid, BatchId::NONE);
        let _g2 = rec.span(Stage::PatternMatch, fid, BatchId::NONE);
    }
    rec.marker(Marker::Hold, FiringId::NONE, unrelated, 7);
    rec.anomaly(Marker::ChecksumFail, fid, bad, 42);

    let dumps = rec.dumps();
    assert_eq!(dumps.len(), 1, "one anomaly, one dump");
    let dump = &dumps[0];

    // Round-trip through the serializer and parser.
    let text = dump.to_string_pretty();
    let parsed = json::parse(&text).expect("dump is valid JSON");
    assert_eq!(&parsed, dump, "serialize/parse round-trip is lossless");

    assert_eq!(
        dump.get("kind").and_then(json::Json::as_str),
        Some("trace_dump")
    );
    assert_eq!(
        dump.get("schema_version").and_then(json::Json::as_u64),
        Some(JSON_SCHEMA_VERSION),
        "the dump is versioned in lockstep with the report schema"
    );
    let trigger = dump.get("trigger").expect("trigger");
    assert_eq!(
        trigger.get("marker").and_then(json::Json::as_str),
        Some(Marker::ChecksumFail.name())
    );
    assert_eq!(
        trigger.get("batch").and_then(json::Json::as_str),
        Some(bad.label().as_str())
    );
    assert_eq!(trigger.get("arg").and_then(json::Json::as_u64), Some(42));

    // The causal closure: the firing's lineage plus the trigger batch,
    // but not the unrelated marker's batch.
    let firing = dump.get("firing").expect("firing meta");
    assert_eq!(firing.get("id").and_then(json::Json::as_u64), Some(fid.0));
    assert_eq!(firing.get("query").and_then(json::Json::as_str), Some("L2"));
    let linked: Vec<&str> = dump
        .get("linked_batches")
        .and_then(json::Json::as_arr)
        .expect("linked_batches")
        .iter()
        .filter_map(json::Json::as_str)
        .collect();
    assert!(linked.contains(&bad.label().as_str()));
    assert!(linked.contains(&sibling.label().as_str()));
    assert!(!linked.contains(&unrelated.label().as_str()));

    // Every embedded event round-trips through the typed decoder, and
    // the unrelated marker is excluded from the causal cut.
    let events = dump
        .get("events")
        .and_then(json::Json::as_arr)
        .expect("events");
    assert!(!events.is_empty());
    for ej in events {
        let e = TraceEvent::from_json(ej).expect("event decodes");
        assert_eq!(&e.to_json(), ej, "event re-encodes identically");
        assert_ne!(e.batch, unrelated, "unrelated events stay out");
    }

    // Anomalies past the dump cap are counted, not stored.
    for _ in 0..2 * TraceRecorder::DUMP_CAP {
        rec.anomaly(Marker::ChecksumFail, fid, bad, 0);
    }
    let snap = rec.snapshot();
    assert_eq!(snap.dumps, TraceRecorder::DUMP_CAP as u64);
    assert!(snap.dumps_suppressed > 0, "overflow dumps are suppressed");
}

/// Engine level: a disabled recorder writes nothing (and dumps nothing)
/// while FiringIds keep being minted, so results and ids never depend
/// on the trace flag; a forced re-plan on an enabled engine leaves a
/// `replan` black box.
#[test]
fn trace_flag_gates_recording_not_results() {
    let w = ls_workload_seeded(Scale::Tiny, 11);
    let run = |trace_on: bool| {
        let engine = WukongS::with_strings(
            EngineConfig::cluster(2).with_trace(trace_on),
            Arc::clone(&w.strings),
        );
        engine.load_base(w.stored.iter().copied());
        for schema in w.schemas() {
            engine.register_stream(schema);
        }
        let id = engine
            .register_continuous(&lsbench::continuous_query(&w.bench, 1, 0))
            .expect("register");
        for t in &w.timeline {
            engine.ingest(t.stream, t.triple, t.timestamp);
        }
        engine.force_replan(id);
        engine.advance_time(w.duration);
        let mut rows: Vec<_> = engine
            .fire_ready()
            .into_iter()
            .map(|f| (f.query, f.window_end, f.results.rows))
            .collect();
        rows.sort();
        (
            rows,
            engine.handle().trace_snapshot(),
            engine.handle().trace().dumps(),
        )
    };

    let (rows_on, snap_on, dumps_on) = run(true);
    let (rows_off, snap_off, dumps_off) = run(false);

    assert_eq!(rows_on, rows_off, "tracing must not change results");
    assert_eq!(
        snap_on.firings, snap_off.firings,
        "ids are minted either way"
    );
    assert!(snap_on.events > 0 && snap_on.enabled);
    assert_eq!(snap_off.events, 0, "disabled recorder writes nothing");
    assert!(dumps_off.is_empty(), "disabled recorder dumps nothing");
    assert!(
        dumps_on.iter().any(|d| {
            d.get("trigger")
                .and_then(|t| t.get("marker"))
                .and_then(json::Json::as_str)
                == Some(Marker::Replan.name())
        }),
        "the forced re-plan must leave a replan black box"
    );
}
