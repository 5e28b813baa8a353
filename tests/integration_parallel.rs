//! Worker-count invariance end to end: the same seeded workload produces
//! identical firing sets at 1, 2, 4, and 8 workers — with delta
//! maintenance and adaptive planning on or off, and with the flight
//! recorder off — one-shot batches match sequential execution, and crash
//! recovery behaves the same under a parallel engine as under the serial
//! baseline.
//!
//! These are the engine-level determinism guarantees the worker pools
//! promise by construction (list-schedule cost model, index-ordered result
//! merge); here they are checked through the public API with nothing
//! mocked out.

use std::sync::Arc;
use wukong_bench::{assert_mode_engaged, modes, recompute_modes};
use wukong_benchdata::{lsbench, LsBench, LsBenchConfig};
use wukong_core::{EngineConfig, WukongS};
use wukong_rdf::{StringServer, Timestamp, Triple, Vid};
use wukong_stream::StreamSchema;

/// One seeded LSBench workload, generated once and replayed into any
/// number of engines.
struct Workload {
    strings: Arc<StringServer>,
    stored: Vec<Triple>,
    schemas: Vec<StreamSchema>,
    queries: Vec<String>,
    timeline: Vec<(wukong_rdf::StreamId, Triple, Timestamp)>,
    end: Timestamp,
}

fn workload(seed: u64) -> Workload {
    let strings = Arc::new(StringServer::new());
    let mut gen = LsBench::new(LsBenchConfig::tiny_seeded(seed), Arc::clone(&strings));
    let stored = gen.stored_triples();
    let schemas = gen.schemas();
    let queries: Vec<String> = (1..=lsbench::CONTINUOUS_CLASSES)
        .map(|c| lsbench::continuous_query(&gen, c, 0))
        .collect();
    let end = 2_000;
    let timeline = gen
        .generate(0, end)
        .into_iter()
        .map(|t| (t.stream, t.triple, t.timestamp))
        .collect();
    Workload {
        strings,
        stored,
        schemas,
        queries,
        timeline,
        end,
    }
}

/// A firing, canonicalized for comparison: `(query registration index,
/// window end, result rows)`. Rows are kept in engine order — the claim
/// under test is byte-identical output, not merely equal row sets.
type Canon = (usize, Timestamp, Vec<Vec<Vid>>);

/// Replays `w` into an engine under `cfg` (`leg` names it in failures)
/// and checks that the run really was in `cfg`'s mode.
fn run_at(w: &Workload, leg: &str, cfg: EngineConfig) -> (Vec<Canon>, wukong_obs::PoolSnapshot) {
    let engine = WukongS::with_strings(cfg, Arc::clone(&w.strings));
    engine.load_base(w.stored.iter().copied());
    for s in w.schemas.clone() {
        engine.register_stream(s);
    }
    let ids: Vec<_> = w
        .queries
        .iter()
        .map(|q| engine.register_continuous(q).expect("registers"))
        .collect();

    let before = engine.cluster().obs().pool().snapshot();
    let mut fed = 0;
    let mut canon = Vec::new();
    for tick in (100..=w.end + 2_000).step_by(100) {
        while fed < w.timeline.len() && w.timeline[fed].2 <= tick {
            let (stream, triple, ts) = w.timeline[fed];
            engine.ingest(stream, triple, ts);
            fed += 1;
        }
        engine.advance_time(tick);
        for f in engine.fire_ready() {
            let qi = ids
                .iter()
                .position(|id| *id == f.query)
                .expect("registered");
            canon.push((qi, f.window_end, f.results.rows));
        }
    }
    let after = engine.cluster().obs().pool().snapshot();
    assert_mode_engaged(leg, &engine);
    (canon, before.delta(&after))
}

#[test]
fn same_seed_runs_are_identical_across_worker_counts() {
    let w = workload(17);
    let mut legs = modes(EngineConfig::cluster(3));
    for workers in [2, 8] {
        let cfg = EngineConfig::cluster(3).with_workers(workers);
        legs.push((format!("w{workers}"), cfg));
    }
    let (serial, cfg) = legs.remove(0);
    let (baseline, _) = run_at(&w, &serial, cfg);
    assert!(
        baseline.iter().any(|(_, _, rows)| !rows.is_empty()),
        "workload must produce non-trivial firings for the comparison to mean anything"
    );
    for (leg, cfg) in legs {
        let (run, _) = run_at(&w, &leg, cfg);
        assert_eq!(run.len(), baseline.len(), "firing count changed at {leg}");
        for (a, b) in baseline.iter().zip(run.iter()) {
            assert_eq!(a, b, "firing diverged at {leg}");
        }
    }
}

#[test]
fn parallel_runs_record_pool_activity() {
    let w = workload(18);
    let (_, pool) = run_at(&w, "w4", EngineConfig::cluster(3).with_workers(4));
    assert!(pool.regions > 0, "no parallel regions recorded");
    assert!(pool.tasks >= pool.regions, "regions without tasks");
    assert!(
        pool.modeled_busy_ns <= pool.serial_busy_ns,
        "modeled parallel time can never exceed the serial sum"
    );
}

#[test]
fn one_shot_batch_matches_sequential_execution() {
    for (leg, cfg) in recompute_modes(EngineConfig::cluster(3)) {
        let strings = Arc::new(StringServer::new());
        let mut gen = LsBench::new(LsBenchConfig::tiny_seeded(21), Arc::clone(&strings));
        let engine = WukongS::with_strings(cfg, Arc::clone(&strings));
        engine.load_base(gen.stored_triples());
        for s in gen.schemas() {
            engine.register_stream(s);
        }
        for t in gen.generate(0, 800) {
            engine.ingest(t.stream, t.triple, t.timestamp);
        }
        engine.advance_time(1_000);

        let texts: Vec<String> = (1..=lsbench::ONESHOT_CLASSES)
            .map(|c| lsbench::oneshot_query(&gen, c, 0))
            .collect();
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        let batched = engine.one_shot_batch(&refs);
        assert_eq!(batched.len(), refs.len());
        for (text, outcome) in refs.iter().zip(batched) {
            let (batch_rs, _) = outcome.expect("batch query runs");
            let (seq_rs, _) = engine.one_shot(text).expect("sequential query runs");
            assert_eq!(
                batch_rs.rows, seq_rs.rows,
                "{leg}: one-shot diverged: {text}"
            );
            assert_eq!(batch_rs.var_names, seq_rs.var_names);
        }
        assert_mode_engaged(&leg, &engine);
    }
}

/// The PR 2 recovery drill, replayed under a parallel engine: checkpoint
/// mid-stream, crash, recover, and require the recovered deployment to
/// answer exactly like the original — with the same result at every
/// worker count, statically or adaptively planned, recorder on or off.
#[test]
fn recovery_outcome_is_worker_count_invariant() {
    fn drill(leg: &str, cfg: EngineConfig) -> Vec<Vec<Vec<Vid>>> {
        let strings = Arc::new(StringServer::new());
        let mut gen = LsBench::new(LsBenchConfig::tiny_seeded(29), Arc::clone(&strings));
        let cfg = EngineConfig {
            fault_tolerance: true,
            ..cfg
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
                    .expect("registers")
            })
            .collect();
        let mut cp_at = 700;
        for t in gen.generate(0, 1_500) {
            engine.ingest(t.stream, t.triple, t.timestamp);
            if t.timestamp >= cp_at {
                engine.checkpoint();
                cp_at += 700;
            }
        }
        engine.advance_time(1_500);
        engine.checkpoint();

        let before: Vec<_> = ids
            .iter()
            .map(|&id| engine.execute_registered(id).0.rows)
            .collect();
        let recovered = WukongS::recover(
            cfg,
            stored.iter().copied(),
            schemas,
            &strings,
            &engine.checkpoints(),
        )
        .expect("recovery succeeds");
        assert_eq!(recovered.continuous_count(), ids.len());
        assert_eq!(recovered.stable_sn(), engine.stable_sn());
        for (i, &id) in ids.iter().enumerate() {
            let after = recovered.execute_registered(id).0.rows;
            assert_eq!(
                sorted(after.clone()),
                sorted(before[i].clone()),
                "class L{} diverged after recovery at {leg}",
                i + 1
            );
        }
        assert_mode_engaged(leg, &recovered);
        before
    }

    fn sorted(mut rows: Vec<Vec<Vid>>) -> Vec<Vec<Vid>> {
        rows.sort();
        rows
    }

    let mut answers =
        recompute_modes(EngineConfig::cluster(3)).map(|(leg, cfg)| (drill(&leg, cfg), leg));
    let (serial, _) = answers.next().expect("the serial leg");
    for (answer, leg) in answers {
        assert_eq!(serial, answer, "pre-crash answers diverged at {leg}");
    }
}
