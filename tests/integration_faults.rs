//! Fault injection end to end: node kills, lossy links, at-least-once
//! replay, and deterministic fault sequences (§5 + the fault fabric).

use std::collections::BTreeMap;
use std::sync::Arc;
use wukong_bench::cut_pieces;
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
    // Ten times tiny scale's rate: the densest stream's batches outgrow
    // one 128-tuple piece, so every engine installs them in pieces.
    let cfg = LsBenchConfig {
        rate_scale: 0.02,
        ..LsBenchConfig::tiny()
    };
    let mut gen = LsBench::new(cfg, Arc::clone(&strings));
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
    assert!(
        cut_pieces(&engine),
        "the fault-plan engine installs in pieces"
    );

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
    assert!(
        cut_pieces(&engine),
        "the fault-plan engine installs in pieces"
    );
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
    assert!(
        cut_pieces(&engine),
        "the fault-plan engine installs in pieces"
    );
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

/// FNV-1a over a result's rows, row by row.
fn rows_digest(rows: &[Vec<Vid>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for row in rows {
        for v in row.iter().map(|v| v.0).chain([u64::MAX]) {
            h = (h ^ v).wrapping_mul(0x1_0000_01b3);
        }
    }
    h
}

/// `(query, window_end) → (sorted rows, carried a marker)`, the latest
/// firing of each window.
type MarkedFirings = BTreeMap<(usize, u64), (Vec<Vec<Vid>>, bool)>;

/// One line per firing: `tag query@end rows digest` and its markers.
fn firing_lines(tag: &str, firings: &[Firing]) -> Vec<String> {
    firings
        .iter()
        .map(|f| {
            let r = &f.results;
            let mut rows = r.rows.clone();
            rows.sort();
            format!(
                "{tag} q{}@{} {} {:016x} degraded {:?} unreachable {:?} quarantined {:?}",
                f.query,
                f.window_end,
                rows.len(),
                rows_digest(&rows),
                r.degraded.map(|d| d.tuples_shed),
                r.unreachable_shards,
                r.quarantined_shards
            )
        })
        .collect()
}

/// A two-node run in 420-tuple batches (one stream, a quarter of it
/// timing data) under lossy, duplicating links, a message-corruption
/// rule that corrupts every remote sub-batch it sees, and a kill of node
/// 1 at 350 with its restart at 550 (both inside a batch interval). Until
/// 250 every tuple's keys live on node 0, so node 1 receives no payload;
/// the first one it receives, part of the batch ending at 300, is
/// corrupted and quarantines it, and the stable VTS stalls at 200. Fires
/// after the batches ending at 100, 400 (node 1 dead) and 1000, then
/// drills a crash-recovery and fires the recovered engine. Returns one
/// line per firing with its markers, the scrub results, the stall and
/// the fault counts that do not depend on how many messages the dispatch
/// sends, and each window's latest firing. With `faulty` unset the same
/// timeline runs fault-free: the never-failed control.
fn large_batch_fault_run(faulty: bool) -> (Vec<String>, MarkedFirings) {
    use wukong_rdf::{Dir, Key, Triple};
    let strings = Arc::new(StringServer::new());
    let ss = &strings;
    let plan = FaultPlan::seeded(47)
        .lossy(0.1, 0.1)
        .kill_at(NodeId(1), 350)
        .restart_at(NodeId(1), 550)
        .corrupt_messages(1.0);
    let cfg = EngineConfig {
        fault_tolerance: true,
        fault_plan: faulty.then_some(plan),
        ..EngineConfig::cluster(2)
    };
    let owners = wukong_store::ShardMap::new(2);
    let on = |v: Vid| owners.node_of_key(Key::new(v, wukong_rdf::Pid(1), Dir::Out));
    // Entities by owner: `pool(prefix, node, n)` interns names until `n`
    // of them live on `node`.
    let pool = |prefix: &str, node: u16, n: usize| -> Vec<Vid> {
        (0..)
            .map(|i| ss.intern_entity(&format!("{prefix}{i}")).expect("interns"))
            .filter(|&v| on(v) == node)
            .take(n)
            .collect()
    };
    // A predicate whose index vertices live on node 0, and its name.
    let predicate = |prefix: &str| {
        let p = (0..)
            .map(|j| {
                ss.intern_predicate(&format!("{prefix}{j}"))
                    .expect("interns")
            })
            .find(|&p| {
                [Dir::Out, Dir::In]
                    .iter()
                    .all(|&d| owners.node_of_key(Key::index(p, d)) == 0)
            })
            .expect("a predicate on node 0");
        (p, ss.predicate_name(p).expect("interned"))
    };
    let ((po, po_name), (at, at_name)) = (predicate("po"), predicate("at"));
    let mut schema = StreamSchema::timeless(StreamId(0), "PO", 100);
    schema.timing_predicates.insert(at);
    let fo = ss.intern_predicate("fo").expect("interns");
    let (users0, users1) = (pool("u", 0, 12), pool("u", 1, 12));
    let (posts0, posts1) = (pool("t", 0, 60), pool("t", 1, 60));
    let (places0, places1) = (pool("l", 0, 8), pool("l", 1, 8));

    let base: Vec<Triple> = (0..24)
        .map(|i| {
            let all = |k: usize| {
                if k.is_multiple_of(2) {
                    users0[k / 2]
                } else {
                    users1[k / 2]
                }
            };
            Triple::new(all(i), fo, all((i * 7 + 3) % 24))
        })
        .collect();
    let mgr = RecoveryManager::new(
        cfg.clone(),
        base.clone(),
        vec![schema.clone()],
        Arc::clone(&strings),
    );
    let engine = WukongS::with_strings(cfg, Arc::clone(&strings));
    engine.load_base(base.iter().copied());
    let stream = engine.register_stream(schema);
    for text in [
        format!(
            "REGISTER QUERY posts SELECT ?X ?Z FROM PO [RANGE 200ms STEP 100ms] \
             WHERE {{ GRAPH PO {{ ?X {po_name} ?Z }} }}"
        ),
        format!(
            "REGISTER QUERY places SELECT ?Y ?L FROM PO [RANGE 300ms STEP 100ms] FROM X-Lab \
             WHERE {{ GRAPH PO {{ ?X {at_name} ?L }} . GRAPH X-Lab {{ ?X fo ?Y }} }}"
        ),
    ] {
        engine.register_continuous(&text).expect("register");
    }

    let mut lines = Vec::new();
    let mut fired = BTreeMap::new();
    let mut fire = |tag: &str, engine: &WukongS, lines: &mut Vec<String>| {
        let firings = engine.fire_ready();
        lines.extend(firing_lines(tag, &firings));
        // A window's latest firing wins: a marked one may be repeated
        // whole after recovery (at-least-once).
        for f in firings {
            let r = f.results;
            let marked = r.degraded.is_some()
                || !r.unreachable_shards.is_empty()
                || !r.quarantined_shards.is_empty();
            let mut rows = r.rows;
            rows.sort();
            if let Some((prev, false)) =
                fired.insert((f.query, f.window_end), (rows.clone(), marked))
            {
                assert!(
                    marked || prev == rows,
                    "an unmarked re-fire changed its rows"
                );
            }
        }
    };
    for k in 0..10u64 {
        for i in 0..420u64 {
            let ts = k * 100 + 1 + i * 99 / 420;
            // Node 1 owns none of the tuple's keys until 250.
            let (users, posts, places) = if ts < 250 {
                (&users0, &posts0, &places0)
            } else if i % 2 == 0 {
                (&users1, &posts1, &places1)
            } else {
                (&users0, &posts0, &places0)
            };
            let u = users[((i * 5 + k) % 12) as usize];
            let triple = if i % 4 == 3 {
                Triple::new(u, at, places[((i + k) % 8) as usize])
            } else {
                Triple::new(u, po, posts[((i * 7 + k * 13) % 60) as usize])
            };
            engine.ingest(stream, triple, ts);
        }
        engine.advance_time((k + 1) * 100);
        if [0, 3, 9].contains(&k) {
            fire("pre", &engine, &mut lines);
        }
    }
    lines.push(format!("scrub {:?}", engine.scrub()));
    lines.push(format!("stable {}", engine.stable_ts(stream)));
    if !faulty {
        return (lines, fired);
    }
    let faults = engine.handle().fault_counters();
    let integrity = engine.handle().obs().integrity().snapshot();
    lines.push(format!(
        "kills {} restarts {} corrupted {} detected {} quarantined {:?}",
        faults.node_kills,
        faults.node_restarts,
        faults.msgs_corrupted,
        integrity.checksum_fail_message,
        engine.quarantined_nodes()
    ));
    let (recovered, report) = mgr.drill(&engine, None).expect("recovery");
    recovered.advance_time(1_000);
    fire("post", &recovered, &mut lines);
    lines.push(format!("scrub {:?}", recovered.scrub()));
    lines.push(format!(
        "recovered stable {} quarantined shards {}",
        recovered.stable_ts(stream),
        report.quarantined_shards
    ));
    (lines, fired)
}

/// Pins a fault-plan run whose batches are several times the 128-tuple
/// piece: every firing's rows (count and digest) and markers before the
/// crash and after the drill, the scrub results, the stall, the kill,
/// restart and corruption counts, and that the drill's firings equal the
/// never-failed control's. Fabric message counts are not pinned: they
/// follow how many sub-batches the dispatch sends.
#[test]
fn large_batch_fault_run_is_pinned() {
    const PINNED: &str = "\
        pre q0@100 315 b0e1fbc58921a01e degraded None unreachable [] quarantined []\n\
        pre q1@100 105 167fdf0f9008b269 degraded None unreachable [] quarantined []\n\
        pre q0@200 630 9a0cd914bb7dbc71 degraded None unreachable [] quarantined [1]\n\
        pre q1@200 0 cbf29ce484222325 degraded None unreachable [0] quarantined [1]\n\
        scrub []\n\
        stable 200\n\
        kills 1 restarts 1 corrupted 1 detected 1 quarantined [1]\n\
        post q0@200 630 9a0cd914bb7dbc71 degraded None unreachable [] quarantined []\n\
        post q0@300 630 51fb06186c16ea1b degraded None unreachable [] quarantined []\n\
        post q0@400 630 8cbf786ffdf9da81 degraded None unreachable [] quarantined []\n\
        post q0@500 630 01928179535c930d degraded None unreachable [] quarantined []\n\
        post q0@600 630 62beed13a58f3745 degraded None unreachable [] quarantined []\n\
        post q0@700 630 7598dd7d1ed580b5 degraded None unreachable [] quarantined []\n\
        post q0@800 630 387dd54f2f65081d degraded None unreachable [] quarantined []\n\
        post q0@900 630 39793e3be5056665 degraded None unreachable [] quarantined []\n\
        post q0@1000 630 aa4ed2a603622df1 degraded None unreachable [] quarantined []\n\
        post q1@200 210 9652ca2ee14d148b degraded None unreachable [] quarantined []\n\
        post q1@300 315 4793e701e3f2d84f degraded None unreachable [] quarantined []\n\
        post q1@400 315 014914d0421735c5 degraded None unreachable [] quarantined []\n\
        post q1@500 315 4191e8e17add0b7f degraded None unreachable [] quarantined []\n\
        post q1@600 315 908780e2d78ad67d degraded None unreachable [] quarantined []\n\
        post q1@700 315 8e832e70110dbb47 degraded None unreachable [] quarantined []\n\
        post q1@800 315 cfeadd02b8cb649d degraded None unreachable [] quarantined []\n\
        post q1@900 315 01f45e9c24acb777 degraded None unreachable [] quarantined []\n\
        post q1@1000 315 6059e60ef7a107a5 degraded None unreachable [] quarantined []\n\
        scrub []\n\
        recovered stable 1000 quarantined shards 1";
    let (lines, fired) = large_batch_fault_run(true);
    assert_eq!(lines.join("\n"), PINNED);
    let (_, control) = large_batch_fault_run(false);
    assert_eq!(fired, control, "the drill must converge on the control");
}
