//! Fault tolerance end to end: checkpoints capture everything needed and
//! recovery reproduces the original deployment's answers (§5).

use std::sync::Arc;
use wukong_benchdata::{lsbench, LsBench, LsBenchConfig};
use wukong_core::checkpoint::Checkpoint;
use wukong_core::{EngineConfig, WukongS};
use wukong_rdf::{StringServer, Vid};

fn sorted(mut rows: Vec<Vec<Vid>>) -> Vec<Vec<Vid>> {
    rows.sort();
    rows
}

#[test]
fn recovery_reproduces_all_query_classes() {
    let strings = Arc::new(StringServer::new());
    let mut gen = LsBench::new(LsBenchConfig::tiny(), Arc::clone(&strings));
    let cfg = EngineConfig {
        fault_tolerance: true,
        ..EngineConfig::cluster(3)
    };

    let engine = WukongS::with_strings(cfg.clone(), Arc::clone(&strings));
    let stored = gen.stored_triples();
    engine.load_base(stored.iter().copied());
    let schemas = gen.schemas();
    for s in schemas.clone() {
        engine.register_stream(s);
    }
    let ids: Vec<usize> = (1..=lsbench::CONTINUOUS_CLASSES)
        .map(|c| {
            engine
                .register_continuous(&lsbench::continuous_query(&gen, c, 0))
                .expect("register")
        })
        .collect();

    let timeline = gen.generate(0, 2_000);
    let mut cp_at = 700;
    for t in &timeline {
        engine.ingest(t.stream, t.triple, t.timestamp);
        if t.timestamp >= cp_at {
            engine.checkpoint();
            cp_at += 700;
        }
    }
    engine.advance_time(2_000);
    engine.checkpoint();

    let before: Vec<_> = ids
        .iter()
        .map(|&id| sorted(engine.execute_registered(id).0.rows))
        .collect();

    let recovered = WukongS::recover(
        cfg,
        stored.iter().copied(),
        schemas,
        &strings,
        &engine.checkpoints(),
    )
    .expect("recovery");
    assert_eq!(recovered.continuous_count(), ids.len());
    assert_eq!(recovered.stable_sn(), engine.stable_sn());

    for (i, &id) in ids.iter().enumerate() {
        let after = sorted(recovered.execute_registered(id).0.rows);
        assert_eq!(after, before[i], "class L{} diverged after recovery", i + 1);
    }

    // One-shot queries see the same evolved store too.
    for class in 1..=lsbench::ONESHOT_CLASSES {
        let q = lsbench::oneshot_query(&gen, class, 0);
        let a = sorted(engine.one_shot(&q).expect("one-shot").0.rows);
        let b = sorted(recovered.one_shot(&q).expect("one-shot").0.rows);
        assert_eq!(a, b, "one-shot S{class} diverged after recovery");
    }
}

#[test]
fn checkpoints_chain_incrementally() {
    // Every batch must appear in exactly one checkpoint.
    let strings = Arc::new(StringServer::new());
    let mut gen = LsBench::new(LsBenchConfig::tiny(), Arc::clone(&strings));
    let engine = WukongS::with_strings(
        EngineConfig {
            fault_tolerance: true,
            ..EngineConfig::single_node()
        },
        Arc::clone(&strings),
    );
    engine.load_base(gen.stored_triples());
    for s in gen.schemas() {
        engine.register_stream(s);
    }
    for t in gen.generate(0, 1_000) {
        engine.ingest(t.stream, t.triple, t.timestamp);
    }
    engine.advance_time(500);
    let cp1 = Checkpoint::decode(&engine.checkpoint()).expect("decodes");
    engine.advance_time(1_000);
    let cp2 = Checkpoint::decode(&engine.checkpoint()).expect("decodes");
    let cp3 = Checkpoint::decode(&engine.checkpoint()).expect("decodes");

    assert!(!cp1.batches.is_empty());
    assert!(!cp2.batches.is_empty());
    assert!(cp3.batches.is_empty(), "no new batches since cp2");
    // Disjoint per-stream batch timestamps across checkpoints.
    for b1 in &cp1.batches {
        assert!(
            !cp2.batches
                .iter()
                .any(|b2| b2.stream == b1.stream && b2.timestamp == b1.timestamp),
            "batch logged twice"
        );
    }
}

#[test]
fn construct_pipeline_survives_recovery() {
    use wukong_rdf::{ntriples, StreamId};
    use wukong_stream::StreamSchema;

    let strings = Arc::new(StringServer::new());
    let cfg = EngineConfig {
        fault_tolerance: true,
        ..EngineConfig::cluster(2)
    };
    let engine = WukongS::with_strings(cfg.clone(), Arc::clone(&strings));
    let stored = ntriples::parse_document(&strings, "Logan fo Erik\n").expect("parses");
    engine.load_base(stored.iter().copied());
    let schemas = vec![
        StreamSchema::timeless(StreamId(0), "PO", 100),
        StreamSchema::timeless(StreamId(1), "Derived", 100),
    ];
    for s in schemas.clone() {
        engine.register_stream(s);
    }
    engine
        .register_construct(
            "REGISTER QUERY derive CONSTRUCT { Erik influences ?X } \
             FROM PO [RANGE 1s STEP 100ms] \
             WHERE { GRAPH PO { ?X po ?Z } . ?X fo Erik }",
            StreamId(1),
        )
        .expect("registers");

    let t = ntriples::parse_tuple(&strings, "Logan po T-1 50", 1).expect("tuple");
    engine.ingest(StreamId(0), t.triple, t.timestamp);
    engine.advance_time(200);
    let _ = engine.fire_ready();
    engine.checkpoint();

    // Crash and recover; the CONSTRUCT query must keep its derived-stream
    // target and continue feeding it after replay.
    let recovered = WukongS::recover(
        cfg,
        stored.iter().copied(),
        schemas,
        &strings,
        &engine.checkpoints(),
    )
    .expect("recovery");
    assert_eq!(recovered.continuous_count(), 1);

    let t = ntriples::parse_tuple(&strings, "Logan po T-2 650", 1).expect("tuple");
    recovered.ingest(StreamId(0), t.triple, t.timestamp);
    recovered.advance_time(900);
    let _ = recovered.fire_ready();
    recovered.advance_time(1_200);
    let (rs, _) = recovered
        .one_shot("SELECT ?W WHERE { Erik influences ?W }")
        .expect("runs");
    assert!(
        !rs.is_empty(),
        "recovered CONSTRUCT query must keep feeding its derived stream"
    );
}

#[test]
fn recovery_restores_the_last_checkpoints_query_set() {
    use wukong_rdf::{ntriples, StreamId};
    use wukong_stream::StreamSchema;

    // Every checkpoint carries the full live query set, so recovery must
    // restore the *last* one as a multiset — not the text-deduplicated
    // union over the chain: a duplicate registration survives, a query
    // unregistered between checkpoints stays gone.
    let strings = Arc::new(StringServer::new());
    let cfg = EngineConfig {
        fault_tolerance: true,
        ..EngineConfig::single_node()
    };
    let engine = WukongS::with_strings(cfg.clone(), Arc::clone(&strings));
    let schemas = vec![StreamSchema::timeless(StreamId(0), "PO", 100)];
    engine.register_stream(schemas[0].clone());
    let qa = "REGISTER QUERY qa SELECT ?Z FROM PO [RANGE 1s STEP 100ms] \
              WHERE { GRAPH PO { Logan po ?Z } }";
    let qb = "REGISTER QUERY qb SELECT ?X FROM PO [RANGE 1s STEP 100ms] \
              WHERE { GRAPH PO { ?X po T-1 } }";
    let a1 = engine.register_continuous(qa).expect("registers");
    let a2 = engine.register_continuous(qa).expect("registers twice");
    let b = engine.register_continuous(qb).expect("registers");
    assert_ne!(a1, a2);

    let t = ntriples::parse_tuple(&strings, "Logan po T-1 50", 1).expect("tuple");
    engine.ingest(StreamId(0), t.triple, t.timestamp);
    engine.advance_time(200);
    engine.checkpoint();
    engine.unregister_continuous(b);
    engine.advance_time(400);
    engine.checkpoint();

    let (recovered, report) =
        WukongS::recover_with_report(cfg, None, schemas, &strings, &engine.checkpoints())
            .expect("recovery");
    assert_eq!(recovered.continuous_count(), 2);
    assert_eq!(report.replayed_queries, 2);
    let live = Checkpoint::decode(&recovered.checkpoint()).expect("decodes");
    let texts: Vec<&str> = live.queries.iter().map(|q| q.text.as_str()).collect();
    assert_eq!(texts, [qa, qa], "the last checkpoint's list, in order");

    // Both copies of `qa` fire; the unregistered `qb` never does.
    recovered.advance_time(1_000);
    let firings = recovered.fire_ready();
    assert!(!firings.is_empty());
    for id in [a1, a2] {
        assert!(firings.iter().any(|f| f.query == id));
    }
    assert!(firings.iter().all(|f| f.name.as_deref() == Some("qa")));
}
