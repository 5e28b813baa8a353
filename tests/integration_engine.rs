//! End-to-end engine tests: consistency, windows, snapshots, execution
//! modes, and cluster-size invariance — each scenario in every engine
//! mode it can tell apart (worker lanes, delta maintenance, adaptive
//! planning, flight recorder; the delta legs only where a standing query
//! is fired), checking that the mode really engaged.

use std::sync::Arc;
use wukong_bench::{assert_mode_engaged, modes, recompute_modes};
use wukong_benchdata::{lsbench, LsBench, LsBenchConfig};
use wukong_core::{EngineConfig, ExecMode, WukongS};
use wukong_rdf::{ntriples, StreamId, StringServer};
use wukong_stream::{StalenessBound, StreamSchema};

/// Builds the Fig. 1 scenario under `cfg`.
fn fig1_engine(cfg: EngineConfig) -> (WukongS, StreamId, StreamId) {
    let engine = WukongS::new(cfg);
    let ss = engine.strings();
    let stored = "Logan fo Erik\nErik fo Logan\nLogan po T-13\nErik li T-13\nT-13 ht #sosp17\n";
    engine.load_base(ntriples::parse_document(ss, stored).expect("parses"));
    let tweets = engine.register_stream(StreamSchema::timeless(StreamId(0), "Tweet_Stream", 100));
    let likes = engine.register_stream(StreamSchema::timeless(StreamId(1), "Like_Stream", 100));
    (engine, tweets, likes)
}

const QC: &str = "REGISTER QUERY QC SELECT ?X ?Y ?Z \
     FROM Tweet_Stream [RANGE 10s STEP 1s] \
     FROM Like_Stream [RANGE 5s STEP 1s] \
     FROM X-Lab \
     WHERE { GRAPH Tweet_Stream { ?X po ?Z } \
             GRAPH X-Lab { ?X fo ?Y } \
             GRAPH Like_Stream { ?Y li ?Z } }";

#[test]
fn results_appear_only_after_stable_vts() {
    for (leg, cfg) in recompute_modes(EngineConfig::cluster(2)) {
        let (engine, tweets, likes) = fig1_engine(cfg);
        let ss = engine.strings().clone();
        engine.register_continuous(QC).expect("register");

        let tup = |line: &str| ntriples::parse_tuple(&ss, line, 1).expect("tuple");
        let t = tup("Logan po T-15 150");
        engine.ingest(tweets, t.triple, t.timestamp);
        let t = tup("Erik li T-15 250");
        engine.ingest(likes, t.triple, t.timestamp);

        // Only the tweet stream advanced past the batch; the like stream's
        // batch is sealed but the window end (next second) is not stable yet,
        // so the query must not fire.
        assert!(engine.fire_ready().is_empty());

        // Heartbeat both streams to 1 s: windows become ready and the match
        // appears exactly once.
        engine.advance_time(1_000);
        let firings = engine.fire_ready();
        assert_eq!(firings.len(), 1);
        assert_eq!(firings[0].results.rows.len(), 1);
        let names: Vec<String> = firings[0].results.rows[0]
            .iter()
            .map(|v| ss.entity_name(*v).expect("known"))
            .collect();
        assert_eq!(names, ["Logan", "Erik", "T-15"]);
        assert_mode_engaged(&leg, &engine);
    }
}

#[test]
fn oneshot_sees_timeless_stream_data_at_stable_snapshot() {
    for (leg, cfg) in recompute_modes(EngineConfig::cluster(2)) {
        let (engine, tweets, _) = fig1_engine(cfg);
        let ss = engine.strings().clone();
        let q = "SELECT ?X WHERE { Logan po ?X }";

        let (rs, _) = engine.one_shot(q).expect("runs");
        assert_eq!(rs.rows.len(), 1, "initially only T-13");

        let t = ntriples::parse_tuple(&ss, "Logan po T-15 50", 1).expect("tuple");
        engine.ingest(tweets, t.triple, t.timestamp);
        // The batch is still open: not yet visible.
        let (rs, _) = engine.one_shot(q).expect("runs");
        assert_eq!(rs.rows.len(), 1, "open batch must be invisible");

        engine.advance_time(100);
        let (rs, _) = engine.one_shot(q).expect("runs");
        assert_eq!(rs.rows.len(), 2, "sealed + stable batch becomes visible");
        assert_mode_engaged(&leg, &engine);
    }
}

#[test]
fn windows_expire_old_matches() {
    for (leg, cfg) in recompute_modes(EngineConfig::cluster(1)) {
        let (engine, tweets, likes) = fig1_engine(cfg);
        let ss = engine.strings().clone();
        let id = engine.register_continuous(QC).expect("register");

        let t = ntriples::parse_tuple(&ss, "Logan po T-15 100", 1).expect("tuple");
        engine.ingest(tweets, t.triple, t.timestamp);
        let t = ntriples::parse_tuple(&ss, "Erik li T-15 200", 1).expect("tuple");
        engine.ingest(likes, t.triple, t.timestamp);

        engine.advance_time(1_000);
        let (rs, _) = engine.execute_registered(id);
        assert_eq!(rs.rows.len(), 1);

        // 6 s later the like (5 s window) has expired; the post (10 s) later.
        engine.advance_time(6_000);
        let (rs, _) = engine.execute_registered(id);
        assert!(rs.is_empty(), "expired like must drop the match");
        assert_mode_engaged(&leg, &engine);
    }
}

#[test]
fn cluster_size_does_not_change_results() {
    let mut reference: Option<Vec<Vec<wukong_rdf::Vid>>> = None;
    let legs = [1usize, 3, 8]
        .into_iter()
        .flat_map(|nodes| recompute_modes(EngineConfig::cluster(nodes)));
    for (leg, cfg) in legs {
        let nodes = cfg.nodes;
        let strings = Arc::new(StringServer::new());
        let mut gen = LsBench::new(LsBenchConfig::tiny(), Arc::clone(&strings));
        let engine = WukongS::with_strings(cfg, Arc::clone(&strings));
        engine.load_base(gen.stored_triples());
        for s in gen.schemas() {
            engine.register_stream(s);
        }
        let timeline = gen.generate(0, 1_500);
        for t in &timeline {
            engine.ingest(t.stream, t.triple, t.timestamp);
        }
        engine.advance_time(1_500);

        let mut all_rows = Vec::new();
        for class in 1..=lsbench::CONTINUOUS_CLASSES {
            let id = engine
                .register_continuous(&lsbench::continuous_query(&gen, class, 0))
                .expect("register");
            let (rs, _) = engine.execute_registered(id);
            let mut rows = rs.rows;
            rows.sort();
            all_rows.push(rows);
        }
        match &reference {
            None => reference = Some(all_rows.concat()),
            Some(r) => assert_eq!(
                &all_rows.concat(),
                r,
                "results must be identical on {nodes} nodes ({leg})"
            ),
        }
        assert_mode_engaged(&leg, &engine);
    }
}

#[test]
fn exec_modes_agree() {
    let strings = Arc::new(StringServer::new());
    let mut gen = LsBench::new(LsBenchConfig::tiny(), Arc::clone(&strings));
    let stored = gen.stored_triples();
    let timeline = gen.generate(0, 1_500);

    let mut reference: Option<Vec<Vec<wukong_rdf::Vid>>> = None;
    let legs = [ExecMode::Auto, ExecMode::InPlace, ExecMode::ForkJoin]
        .into_iter()
        .flat_map(|exec_mode| {
            recompute_modes(EngineConfig {
                exec_mode,
                ..EngineConfig::cluster(4)
            })
        });
    for (leg, cfg) in legs {
        let mode = cfg.exec_mode;
        let engine = WukongS::with_strings(cfg, Arc::clone(&strings));
        engine.load_base(stored.iter().copied());
        for s in gen.schemas() {
            engine.register_stream(s);
        }
        for t in &timeline {
            engine.ingest(t.stream, t.triple, t.timestamp);
        }
        engine.advance_time(1_500);

        let mut all_rows = Vec::new();
        for class in 1..=lsbench::CONTINUOUS_CLASSES {
            let id = engine
                .register_continuous(&lsbench::continuous_query(&gen, class, 0))
                .expect("register");
            let (rs, _) = engine.execute_registered(id);
            let mut rows = rs.rows;
            rows.sort();
            all_rows.push(rows);
        }
        match &reference {
            None => reference = Some(all_rows.concat()),
            Some(r) => assert_eq!(&all_rows.concat(), r, "mode {mode:?} must agree ({leg})"),
        }
        assert_mode_engaged(&leg, &engine);
    }
}

#[test]
fn replication_flag_does_not_change_results() {
    let strings = Arc::new(StringServer::new());
    let mut gen = LsBench::new(LsBenchConfig::tiny(), Arc::clone(&strings));
    let stored = gen.stored_triples();
    let timeline = gen.generate(0, 1_500);

    let mut reference: Option<Vec<Vec<wukong_rdf::Vid>>> = None;
    let legs = [true, false].into_iter().flat_map(|replicate| {
        recompute_modes(EngineConfig {
            replicate_stream_indexes: replicate,
            ..EngineConfig::cluster(4)
        })
    });
    for (leg, cfg) in legs {
        let engine = WukongS::with_strings(cfg, Arc::clone(&strings));
        engine.load_base(stored.iter().copied());
        for s in gen.schemas() {
            engine.register_stream(s);
        }
        for t in &timeline {
            engine.ingest(t.stream, t.triple, t.timestamp);
        }
        engine.advance_time(1_500);
        let id = engine
            .register_continuous(&lsbench::continuous_query(&gen, 5, 0))
            .expect("register");
        let (rs, _) = engine.execute_registered(id);
        let mut rows = rs.rows;
        rows.sort();
        match &reference {
            None => reference = Some(rows),
            Some(r) => assert_eq!(&rows, r, "{leg}"),
        }
        assert_mode_engaged(&leg, &engine);
    }
}

#[test]
fn gc_bounds_transient_memory_under_load() {
    let base = EngineConfig {
        gc_every_batches: 4,
        gc_slack_ms: 200,
        ..EngineConfig::single_node()
    };
    for (leg, cfg) in modes(base) {
        let engine = WukongS::new(cfg);
        let ss = engine.strings().clone();
        let mut schema = StreamSchema::timeless(StreamId(0), "GPS", 100);
        schema
            .timing_predicates
            .insert(ss.intern_predicate("ga").expect("id"));
        let gps = engine.register_stream(schema);
        engine
            .register_continuous(
                "REGISTER QUERY g SELECT ?C FROM GPS [RANGE 500ms STEP 100ms] \
                 WHERE { GRAPH GPS { u0 ga ?C } }",
            )
            .expect("register");

        let u0 = ss.intern_entity("u0").expect("id");
        let ga = ss.intern_predicate("ga").expect("id");
        // Fire as the data arrives, so every window is read while the GC
        // sweeps right behind it: each one still holds all seven cells.
        let mut firings = Vec::new();
        for ts in 1..5_000u64 {
            let cell = ss.intern_entity(&format!("cell{}", ts % 7)).expect("id");
            engine.ingest(gps, wukong_rdf::Triple::new(u0, ga, cell), ts);
            if ts % 100 == 0 {
                firings.extend(engine.fire_ready());
            }
        }
        engine.advance_time(5_000);
        firings.extend(engine.fire_ready());
        assert!(firings.len() >= 45, "{leg}: {} firings", firings.len());
        for f in &firings {
            let cells: std::collections::BTreeSet<_> = f.results.rows.iter().collect();
            assert_eq!(cells.len(), 7, "{leg}: window {} lost data", f.window_end);
        }

        let stream = engine.cluster().stream(0);
        let t = stream.transients[0].read();
        // 50 batches were injected; only the window + slack may survive.
        assert!(
            t.evicted_slices() > 30,
            "GC barely ran: {}",
            t.evicted_slices()
        );
        assert!(
            t.slice_count() < 15,
            "too many live slices: {}",
            t.slice_count()
        );
        assert_mode_engaged(&leg, &engine);
    }
}

#[test]
fn snapshot_bound_holds_under_continuous_injection() {
    for workers in [1, 4] {
        let engine = WukongS::new(EngineConfig {
            staleness: StalenessBound(1),
            ..EngineConfig::cluster(2).with_workers(workers)
        });
        let ss = engine.strings().clone();
        let s = engine.register_stream(StreamSchema::timeless(StreamId(0), "S", 100));
        let p = ss.intern_predicate("p").expect("id");
        for ts in 1..3_000u64 {
            let a = ss.intern_entity(&format!("a{}", ts % 50)).expect("id");
            let b = ss.intern_entity(&format!("b{ts}")).expect("id");
            engine.ingest(s, wukong_rdf::Triple::new(a, p, b), ts);
        }
        engine.advance_time(3_000);
        // Injection-time consolidation keeps the per-key snapshot count
        // bounded ("one for using and another is for inserting" + in-flight).
        // The count is of retained marks: initial (snapshot-0) data and
        // consolidated appends sit ahead of every mark and count as none.
        for n in 0..2u16 {
            assert!(
                engine.cluster().shard(n).max_retained_snapshots() <= 3,
                "snapshot bound violated on node {n}"
            );
        }
        assert!(
            engine.stable_sn().0 >= 25,
            "snapshots advanced with batches"
        );
        assert_mode_engaged(&format!("w{workers}"), &engine);
    }
}

#[test]
fn shards_hold_only_owned_keys() {
    for workers in [1, 4] {
        // Ownership routing invariant: after a full workload (base load +
        // stream injection + index updates), every key lives exactly on the
        // shard the shard map assigns it to — no duplication anywhere.
        let strings = Arc::new(StringServer::new());
        let mut gen = LsBench::new(LsBenchConfig::tiny(), Arc::clone(&strings));
        let engine = WukongS::with_strings(
            EngineConfig::cluster(5).with_workers(workers),
            Arc::clone(&strings),
        );
        engine.load_base(gen.stored_triples());
        for s in gen.schemas() {
            engine.register_stream(s);
        }
        for t in gen.generate(0, 1_500) {
            engine.ingest(t.stream, t.triple, t.timestamp);
        }
        engine.advance_time(1_500);

        let cluster = engine.cluster();
        let mut total_keys = 0usize;
        for n in 0..5u16 {
            cluster.shard(n).for_each_key(|k, len| {
                total_keys += 1;
                assert!(len > 0, "empty cell materialised for {k:?}");
                assert_eq!(
                    cluster.shard_map().node_of_key(k),
                    n,
                    "shard {n} holds foreign key {k:?}"
                );
            });
        }
        assert!(total_keys > 1_000, "workload too small: {total_keys} keys");
        assert_mode_engaged(&format!("w{workers}"), &engine);
    }
}

#[test]
fn client_proxy_end_to_end_with_streams() {
    for (leg, cfg) in recompute_modes(EngineConfig::cluster(2)) {
        use wukong_core::{Client, ProxyPool, Submitted};
        let strings = Arc::new(StringServer::new());
        let mut gen = LsBench::new(LsBenchConfig::tiny(), Arc::clone(&strings));
        let engine = Arc::new(WukongS::with_strings(cfg, Arc::clone(&strings)));
        engine.load_base(gen.stored_triples());
        for s in gen.schemas() {
            engine.register_stream(s);
        }
        let pool = Arc::new(ProxyPool::new(Arc::clone(&engine), 4));
        let client = Client::connect(Arc::clone(&pool));

        // Register through the client, stream, then execute through it.
        let id = match client
            .query(&lsbench::continuous_query(&gen, 4, 0))
            .expect("registers")
        {
            Submitted::Registered(id) => id,
            other => panic!("expected registration, got {other:?}"),
        };
        for t in gen.generate(0, 1_200) {
            engine.ingest(t.stream, t.triple, t.timestamp);
        }
        engine.advance_time(1_200);

        let (rs, ms) = client.execute(id);
        assert!(!rs.rows.is_empty(), "L4 over a busy window has posts");
        assert!(ms > 0.0);

        // One-shot through the client sees absorbed stream posts.
        match client
            .query("SELECT DISTINCT ?T WHERE { ?Z ht ?T } LIMIT 5")
            .expect("runs")
        {
            Submitted::Results { results, .. } => assert!(!results.rows.is_empty()),
            other => panic!("expected results, got {other:?}"),
        }
        // All four proxies saw traffic.
        assert!(pool.load().iter().filter(|&&l| l > 0).count() >= 2);
        assert_mode_engaged(&leg, &engine);
    }
}

#[test]
fn mixed_batch_intervals_stay_consistent() {
    for (leg, cfg) in modes(EngineConfig::cluster(2)) {
        // One 100 ms stream and one 1 s stream (the LSBench / CityBench
        // cadences) joined by one query: the SN-VTS plan must keep both
        // visible and consistent despite the interval mismatch.
        let engine = WukongS::new(cfg);
        let ss = engine.strings().clone();
        engine.load_base(ntriples::parse_document(&ss, "r1 conn place1\n").expect("parses"));
        let fast = engine.register_stream(StreamSchema::timeless(StreamId(0), "Fast", 100));
        let slow = engine.register_stream(StreamSchema::timeless(StreamId(0), "Slow", 1_000));

        let id = engine
            .register_continuous(
                "REGISTER QUERY q SELECT ?V ?W \
                 FROM Fast [RANGE 2s STEP 1s] FROM Slow [RANGE 2s STEP 1s] \
                 WHERE { GRAPH Fast { r1 fastval ?V } . GRAPH Slow { r1 slowval ?W } }",
            )
            .expect("register");

        // Fire promptly as data arrives (a live deployment's loop); firing
        // long after ingestion would read windows the GC has already swept.
        let mut firings = Vec::new();
        for ts in (50..5_000).step_by(100) {
            let t =
                ntriples::parse_tuple(&ss, &format!("r1 fastval f{ts} {ts}"), 1).expect("tuple");
            engine.ingest(fast, t.triple, t.timestamp);
            if ts % 1_000 == 50 {
                let t = ntriples::parse_tuple(&ss, &format!("r1 slowval s{ts} {ts}"), 1)
                    .expect("tuple");
                engine.ingest(slow, t.triple, t.timestamp);
            }
            engine.advance_time(ts);
            firings.extend(engine.fire_ready());
        }
        engine.advance_time(5_000);
        firings.extend(engine.fire_ready());

        // Both streams reach the same stable horizon.
        assert_eq!(engine.stable_ts(fast), 5_000);
        assert_eq!(engine.stable_ts(slow), 5_000);

        let (rs, _) = engine.execute_registered(id);
        // 2 s windows: 20 fast values × 2 slow values.
        assert_eq!(rs.rows.len(), 40);

        // Data-driven firing advanced through every 1 s step, each with a
        // live window.
        assert!(
            firings.len() >= 4,
            "expected ≥4 firings, got {}",
            firings.len()
        );
        assert!(firings.iter().all(|f| !f.results.is_empty()));
        assert_mode_engaged(&leg, &engine);
    }
}

#[test]
fn language_features_agree_across_exec_modes() {
    // OPTIONAL / UNION / NOT EXISTS / GROUP BY / ORDER BY / DISTINCT /
    // FILTER on a multi-node deployment must answer identically in-place
    // and fork-join (one step loop; fork-join only partitions its steps).
    let strings = Arc::new(StringServer::new());
    let mut gen = LsBench::new(LsBenchConfig::tiny(), Arc::clone(&strings));
    let mut stored = gen.stored_triples();
    // Numeric ages for the FILTER queries.
    let age = strings.intern_predicate("age").expect("id space");
    for i in 0..gen.config().users {
        let user = strings.intern_entity(&format!("u{i}")).expect("id space");
        let years = (i % 50).to_string();
        let years = strings.intern_entity(&years).expect("id space");
        stored.push(wukong_rdf::Triple::new(user, age, years));
    }
    let timeline = gen.generate(0, 1_500);

    let queries = [
        // OPTIONAL over a stream window.
        "REGISTER QUERY q1 SELECT ?X ?Z ?T FROM PO [RANGE 1s STEP 100ms] \
         WHERE { GRAPH PO { ?X po ?Z } OPTIONAL { GRAPH PO { ?Z ht ?T } } }",
        // UNION of two stream alternatives.
        "REGISTER QUERY q2 SELECT ?X ?Z FROM PO [RANGE 1s STEP 100ms] \
         FROM PH [RANGE 1s STEP 100ms] \
         WHERE { GRAPH PO { ?X po ?Z } UNION { GRAPH PH { ?X ph ?Z } } }",
        // NOT EXISTS against the stored graph.
        "REGISTER QUERY q3 SELECT ?X ?Z FROM PO [RANGE 1s STEP 100ms] \
         WHERE { GRAPH PO { ?X po ?Z } FILTER NOT EXISTS { ?X ty User } }",
        // GROUP BY + COUNT over a window.
        "REGISTER QUERY q4 SELECT ?X COUNT(?Z) FROM PO-L [RANGE 1s STEP 100ms] \
         WHERE { GRAPH PO-L { ?X li ?Z } } GROUP BY ?X",
        // DISTINCT + ORDER BY + LIMIT.
        "REGISTER QUERY q5 SELECT DISTINCT ?X FROM PO [RANGE 1s STEP 100ms] \
         WHERE { GRAPH PO { ?X po ?Z } } ORDER BY ?X LIMIT 5",
        // A numeric FILTER on a stored join.
        "REGISTER QUERY q6 SELECT ?X ?A FROM PO [RANGE 1s STEP 100ms] \
         WHERE { GRAPH PO { ?X po ?Z } ?X age ?A FILTER(?A > 20) }",
        // UNION + FILTER on a variable only one alternative binds: the
        // filter applies right after the UNION, before OPTIONAL could
        // bind it for the other alternative's rows.
        "REGISTER QUERY q7 SELECT ?X ?A FROM PO [RANGE 1s STEP 100ms] \
         WHERE { GRAPH PO { ?X po ?Z } UNION { ?X age ?A } UNION { ?X ty User } \
         FILTER(?A < 30) OPTIONAL { ?X age ?A } }",
        // A join whose second step is an index scan over rows that
        // already bind its subject: the OPTIONAL plans against the
        // required variables only, but the UNION bound ?Y.
        "REGISTER QUERY q8 SELECT ?X ?Y ?W FROM PO [RANGE 1s STEP 100ms] \
         WHERE { GRAPH PO { ?X po ?Z } UNION { ?X fo ?Y } \
         OPTIONAL { ?X ty ?C . ?Y po ?W } }",
    ];

    type QueryOutput = (Vec<Vec<wukong_rdf::Vid>>, Vec<Vec<Option<f64>>>);
    let mut reference: Option<Vec<QueryOutput>> = None;
    let legs = [ExecMode::InPlace, ExecMode::ForkJoin]
        .into_iter()
        .flat_map(|exec_mode| {
            recompute_modes(EngineConfig {
                exec_mode,
                ..EngineConfig::cluster(4)
            })
        });
    for (leg, cfg) in legs {
        let mode = cfg.exec_mode;
        let engine = WukongS::with_strings(cfg, Arc::clone(&strings));
        engine.load_base(stored.iter().copied());
        for s in gen.schemas() {
            engine.register_stream(s);
        }
        for t in &timeline {
            engine.ingest(t.stream, t.triple, t.timestamp);
        }
        engine.advance_time(1_500);

        let mut all = Vec::new();
        for q in &queries {
            let id = engine.register_continuous(q).expect("register");
            let (rs, _) = engine.execute_registered(id);
            let mut rows = rs.rows;
            // ORDER BY output order is part of the contract; others sort
            // for comparison.
            if !q.contains("ORDER BY") {
                rows.sort();
            }
            all.push((rows, rs.group_aggregates));
        }
        match &reference {
            None => reference = Some(all),
            Some(r) => {
                for (i, (got, exp)) in all.iter().zip(r.iter()).enumerate() {
                    assert_eq!(got, exp, "query #{i} diverged in {mode:?} ({leg})");
                }
            }
        }
        assert_mode_engaged(&leg, &engine);
    }
    // The queries actually produced data (non-vacuous comparison).
    let r = reference.expect("ran");
    assert!(r.iter().filter(|(rows, _)| !rows.is_empty()).count() >= 6);
    // The new shapes matched rows, and the scan found bound subjects.
    assert!(r[5..].iter().all(|(rows, _)| !rows.is_empty()));
    let unbound = wukong_query::bindings::UNBOUND;
    assert!(r[7].0.iter().any(|row| row[2] != unbound));
}

/// Runs `f` on its own thread and fails — instead of hanging CI — if it
/// makes no progress within the timeout (a lock-order regression
/// deadlocks rather than panics).
fn with_watchdog<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    use std::sync::mpsc::{channel, RecvTimeoutError};
    let (tx, rx) = channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(std::time::Duration::from_secs(120)) {
        Ok(v) => {
            worker.join().expect("worker exits after sending");
            v
        }
        Err(RecvTimeoutError::Timeout) => panic!("{what}: no result in 120 s — deadlock?"),
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(worker.join().expect_err("worker panicked"))
        }
    }
}

/// Firings as `(query, window end, sorted rows)`.
type FiringLog = Vec<(usize, u64, Vec<Vec<wukong_rdf::Vid>>)>;

/// Two CONSTRUCT queries (one joining the stored graph, one stream-only
/// and so maintainable) feed a derived stream read by a downstream
/// continuous query, with a forced re-plan mid-stream, while a second
/// thread hammers `stats` / `scrub` / `one_shot`. Every CONSTRUCT firing
/// re-enters `ingest` from inside `fire_ready`, and the install path under
/// the pipeline lock asks every query for its state — so the lock order
/// is pipeline → query state and no guard may be held across `ingest`.
fn drive_construct_pipeline(cfg: EngineConfig) -> FiringLog {
    use std::sync::atomic::{AtomicBool, Ordering};
    let engine = WukongS::new(cfg);
    let ss = engine.strings().clone();
    let stored = "u0 fo Erik\nu1 fo Erik\nu2 fo Erik\n";
    engine.load_base(ntriples::parse_document(&ss, stored).expect("parses"));
    let po = engine.register_stream(StreamSchema::timeless(StreamId(0), "PO", 100));
    let derived = engine.register_stream(StreamSchema::timeless(StreamId(0), "Derived", 100));
    engine
        .register_construct(
            "REGISTER QUERY build CONSTRUCT { Erik influences ?X } \
             FROM PO [RANGE 500ms STEP 100ms] \
             WHERE { GRAPH PO { ?X po ?Z } . ?X fo Erik }",
            derived,
        )
        .expect("build registers");
    let echo = engine
        .register_construct(
            "REGISTER QUERY echo CONSTRUCT { ?X echoed ?Z } \
             FROM PO [RANGE 300ms STEP 100ms] WHERE { GRAPH PO { ?X po ?Z } }",
            derived,
        )
        .expect("echo registers");
    let consume = engine
        .register_continuous(
            "REGISTER QUERY consume SELECT ?W ?Z FROM Derived [RANGE 1s STEP 100ms] \
             WHERE { GRAPH Derived { Erik influences ?W } . GRAPH Derived { ?W echoed ?Z } }",
        )
        .expect("consumer registers");

    let stop = AtomicBool::new(false);
    let start = std::sync::Barrier::new(2);
    let mut log = FiringLog::new();
    std::thread::scope(|s| {
        let monitor = s.spawn(|| {
            start.wait();
            while !stop.load(Ordering::SeqCst) {
                assert!(engine.stats().continuous_queries == 3);
                assert_eq!(engine.scrub(), []);
                // Rejected while shedding under an ingest budget.
                let _ = engine.one_shot("SELECT ?W WHERE { Erik influences ?W }");
            }
        });
        start.wait();
        for round in 0..12u64 {
            for k in 0..4u64 {
                let line = format!("u{k} po T-{round}-{k} {}", round * 100 + 50 + k);
                let t = ntriples::parse_tuple(&ss, &line, 1).expect("tuple");
                engine.ingest(po, t.triple, t.timestamp);
            }
            engine.advance_time((round + 1) * 100);
            if round == 5 {
                engine.force_replan(consume);
                engine.force_replan(echo);
            }
            for f in engine.fire_ready() {
                let mut rows = f.results.rows;
                rows.sort();
                log.push((f.query, f.window_end, rows));
            }
        }
        stop.store(true, Ordering::SeqCst);
        monitor.join().expect("monitor thread");
    });
    assert_eq!(engine.scrub(), []);
    assert_mode_engaged("CONSTRUCT pipeline", &engine);
    log
}

#[test]
fn construct_pipeline_is_identical_in_every_mode_and_never_deadlocks() {
    let mut legs = modes(EngineConfig::single_node());
    let (leg, cfg) = legs.remove(0);
    let control = with_watchdog(&leg, || drive_construct_pipeline(cfg));
    assert!(control.iter().any(|(_, _, rows)| !rows.is_empty()));
    let consumer_rows = control
        .iter()
        .filter(|(q, _, rows)| *q == 2 && !rows.is_empty());
    assert!(
        consumer_rows.count() > 0,
        "the derived stream reaches its consumer"
    );
    for (leg, cfg) in legs {
        let log = with_watchdog(&leg, || drive_construct_pipeline(cfg));
        assert_eq!(log, control, "{leg}");
    }
    // Under a small ingest budget firings may be degraded, but CONSTRUCT
    // ingest from inside `fire_ready` still reads shedder state: no hang.
    let budgeted = EngineConfig::single_node()
        .with_workers(4)
        .with_incremental(true)
        .with_adaptive(true)
        .with_ingest_budget(Some(wukong_stream::IngestBudget::tuples(2)));
    let log = with_watchdog("ingest budget", || drive_construct_pipeline(budgeted));
    assert!(!log.is_empty());
}
