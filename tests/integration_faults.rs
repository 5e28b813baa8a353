//! Fault injection end to end: node kills, lossy links, at-least-once
//! replay, and deterministic fault sequences (§5 + the fault fabric).

use std::collections::BTreeMap;
use std::sync::Arc;
use wukong_benchdata::{lsbench, LsBench, LsBenchConfig, TimedTuple};
use wukong_core::{EngineConfig, ExecMode, Firing, RecoveryManager, WukongS};
use wukong_net::{FaultEvent, FaultPlan, NodeId};
use wukong_obs::FaultSnapshot;
use wukong_rdf::{StreamId, StringServer, Vid};
use wukong_stream::StreamSchema;

type FiringMap = BTreeMap<(usize, u64), Vec<Vec<Vid>>>;

/// Folds firings into `(query, window_end) → sorted rows`, asserting that
/// an at-least-once repeat is row-identical.
fn collect(firings: Vec<Firing>, into: &mut FiringMap) {
    for f in firings {
        let mut rows = f.results.rows;
        rows.sort();
        if let Some(prev) = into.insert((f.query, f.window_end), rows.clone()) {
            assert_eq!(prev, rows, "re-fired window changed its rows");
        }
    }
}

struct Fixture {
    strings: Arc<StringServer>,
    gen: LsBench,
    stored: Vec<wukong_rdf::Triple>,
    schemas: Vec<StreamSchema>,
    timeline: Vec<TimedTuple>,
}

fn fixture() -> Fixture {
    let strings = Arc::new(StringServer::new());
    let mut gen = LsBench::new(LsBenchConfig::tiny(), Arc::clone(&strings));
    let stored = gen.stored_triples();
    let schemas = gen.schemas();
    let timeline = gen.generate(0, 2_000);
    Fixture {
        strings,
        gen,
        stored,
        schemas,
        timeline,
    }
}

fn boot(fx: &Fixture, cfg: EngineConfig) -> WukongS {
    let engine = WukongS::with_strings(cfg, Arc::clone(&fx.strings));
    engine.load_base(fx.stored.iter().copied());
    for s in fx.schemas.clone() {
        engine.register_stream(s);
    }
    for c in 1..=3 {
        engine
            .register_continuous(&lsbench::continuous_query(&fx.gen, c, 0))
            .expect("register");
    }
    engine
}

fn feed_and_fire(fx: &Fixture, engine: &WukongS) -> FiringMap {
    for t in &fx.timeline {
        engine.ingest(t.stream, t.triple, t.timestamp);
    }
    engine.advance_time(2_000);
    let mut map = FiringMap::new();
    collect(engine.fire_ready(), &mut map);
    map
}

/// The acceptance drill: kill a node mid-stream, crash, replay
/// checkpoint+log into a fresh engine — the union of pre-crash and
/// post-recovery firings must equal a never-failed control run's.
#[test]
fn kill_drill_recovers_to_control_equality() {
    let fx = fixture();
    let base = EngineConfig {
        fault_tolerance: true,
        ..EngineConfig::cluster(3)
    };

    let control_engine = boot(&fx, base.clone());
    let control = feed_and_fire(&fx, &control_engine);
    assert!(!control.is_empty(), "control run must fire");

    let cfg = EngineConfig {
        fault_plan: Some(FaultPlan::seeded(11).kill_at(NodeId(1), 1_000)),
        ..base
    };
    let mgr = RecoveryManager::new(
        cfg.clone(),
        fx.stored.clone(),
        fx.schemas.clone(),
        Arc::clone(&fx.strings),
    );
    let engine = boot(&fx, cfg);
    let mut fired = FiringMap::new();
    let mut fired_pre_kill = false;
    let mut checkpointed = false;
    for t in &fx.timeline {
        if !fired_pre_kill && t.timestamp >= 1_000 {
            // Last fully-live moment (the kill lands on the next tick).
            collect(engine.fire_ready(), &mut fired);
            fired_pre_kill = true;
        }
        if !checkpointed && t.timestamp >= 500 {
            engine.checkpoint();
            checkpointed = true;
        }
        engine.ingest(t.stream, t.triple, t.timestamp);
    }
    engine.advance_time(2_000);
    // The dead node's local VTS pins the stable VTS below the horizon.
    assert!(
        engine.stable_ts(StreamId(0)) < 2_000,
        "a dead node must stall visibility"
    );
    let wounded = engine.handle().fault_counters();
    assert_eq!(wounded.node_kills, 1);

    let (recovered, report) = mgr.drill(&engine, Some(NodeId(1))).expect("recovery");
    collect(recovered.fire_ready(), &mut fired);

    assert_eq!(
        fired, control,
        "recovered firings diverged from the control run"
    );
    assert!(report.replayed_batches > 0);
    assert_eq!(report.replayed_queries, 3);
    assert_eq!(recovered.handle().fault_counters().recoveries, 1);
    assert_eq!(recovered.stable_ts(StreamId(0)), 2_000);
}

/// ≥ 1% drop probability plus duplication on every link: the
/// at-least-once dispatch layer retransmits every dropped sub-batch and
/// suppresses every duplicate, so no firing is lost and none changes.
#[test]
fn lossy_links_preserve_firings_and_dedup() {
    let fx = fixture();
    // In-place execution keeps query reads off the lossy RPC path; the
    // test isolates the dispatch pipeline's at-least-once machinery.
    let base = EngineConfig {
        exec_mode: ExecMode::InPlace,
        ..EngineConfig::cluster(3)
    };
    let control_engine = boot(&fx, base.clone());
    let control = feed_and_fire(&fx, &control_engine);

    let lossy_cfg = EngineConfig {
        fault_plan: Some(FaultPlan::seeded(5).lossy(0.2, 0.2)),
        ..base
    };
    let engine = boot(&fx, lossy_cfg);
    let lossy = feed_and_fire(&fx, &engine);

    assert_eq!(lossy, control, "lossy links must not lose or alter firings");
    let c = engine.handle().fault_counters();
    assert!(c.msgs_dropped > 0, "plan must actually drop: {c:?}");
    assert!(c.retransmits > 0, "drops must be retransmitted: {c:?}");
    assert!(c.msgs_duplicated > 0, "plan must actually duplicate: {c:?}");
    assert!(
        c.dedup_suppressed > 0,
        "duplicates must be suppressed: {c:?}"
    );
    assert_eq!(c.node_kills, 0);
}

fn faulty_run(seed: u64) -> (Vec<FaultEvent>, FaultSnapshot, FiringMap) {
    let fx = fixture();
    let cfg = EngineConfig {
        exec_mode: ExecMode::InPlace,
        fault_plan: Some(
            FaultPlan::seeded(seed)
                .lossy(0.25, 0.15)
                .kill_at(NodeId(2), 1_500),
        ),
        ..EngineConfig::cluster(3)
    };
    let engine = boot(&fx, cfg);
    let map = feed_and_fire(&fx, &engine);
    (
        engine.cluster().fabric().fault_log(),
        engine.handle().fault_counters(),
        map,
    )
}

/// The whole fault fabric is a pure function of the seed: same seed +
/// same plan → identical fault sequences, counters, and result sets.
#[test]
fn same_seed_fault_runs_are_identical() {
    let (log_a, counters_a, map_a) = faulty_run(9);
    let (log_b, counters_b, map_b) = faulty_run(9);
    assert_eq!(log_a, log_b, "fault sequences must be deterministic");
    assert_eq!(counters_a, counters_b);
    assert_eq!(map_a, map_b);
    assert!(log_a.iter().any(|e| matches!(e, FaultEvent::Killed { .. })));

    let (log_c, _, _) = faulty_run(10);
    assert_ne!(log_a, log_c, "different seeds must draw different faults");
}

/// A kill stalls the stable VTS, and a bare restart cannot unstall it:
/// the batches consumed during the outage are gone from the pipeline, so
/// the in-flight snapshot plan never retires. Only recovery — replaying
/// the durable log into a fresh engine — resumes visibility.
#[test]
fn dead_node_stalls_visibility_until_recovery() {
    use wukong_rdf::ntriples;
    let schema = StreamSchema::timeless(StreamId(0), "PO", 100);
    let cfg = EngineConfig {
        fault_tolerance: true,
        fault_plan: Some(
            FaultPlan::seeded(3)
                .kill_at(NodeId(1), 600)
                .restart_at(NodeId(1), 1_200),
        ),
        ..EngineConfig::cluster(2)
    };
    let engine = WukongS::new(cfg.clone());
    let ss = engine.strings().clone();
    let mgr = RecoveryManager::new(cfg, Vec::new(), vec![schema.clone()], Arc::clone(&ss));
    let po = engine.register_stream(schema);
    for i in 0..11u64 {
        let line = format!("u{i} po T-{i} {}", i * 100 + 50);
        let t = ntriples::parse_tuple(&ss, &line, 1).expect("tuple");
        engine.ingest(po, t.triple, t.timestamp);
    }
    engine.advance_time(1_100);
    assert!(
        engine.stable_ts(po) < 1_100,
        "outage must stall the stable VTS, got {}",
        engine.stable_ts(po)
    );
    engine.advance_time(2_000);
    assert!(
        engine.stable_ts(po) < 1_100,
        "a restart alone must not resurrect batches lost mid-outage, got {}",
        engine.stable_ts(po)
    );
    let c = engine.handle().fault_counters();
    assert_eq!(c.node_kills, 1);
    assert_eq!(c.node_restarts, 1);

    // Replaying the durable log into a fresh engine is what resumes.
    let (recovered, report) = mgr.recover(&mgr.durable_state(&engine)).expect("recovery");
    assert_eq!(recovered.stable_ts(po), 2_000);
    assert!(report.replayed_batches > 0);
}
