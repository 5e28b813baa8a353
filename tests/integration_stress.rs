//! Concurrency stress: the paper's deployments serve "millions of
//! concurrent queries" over shared state — worker threads must be able to
//! execute continuous and one-shot queries *while* the pipeline ingests,
//! GCs, checkpoints, and consolidates snapshots, without panics, deadlocks
//! or torn reads.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use wukong_bench::assert_budget_engaged;
use wukong_benchdata::{lsbench, LsBench, LsBenchConfig};
use wukong_core::{EngineConfig, WukongS};
use wukong_rdf::{StreamId, StringServer};
use wukong_stream::IngestBudget;

#[test]
fn concurrent_queries_during_ingestion() {
    // Unbounded, then under admission control at two budgets.
    for budget in [None, Some(64), Some(1_024)] {
        let strings = Arc::new(StringServer::new());
        let mut gen = LsBench::new(LsBenchConfig::tiny(), Arc::clone(&strings));
        let engine = Arc::new(WukongS::with_strings(
            EngineConfig {
                fault_tolerance: true,
                gc_every_batches: 8,
                ingest_budget: budget.map(IngestBudget::tuples),
                ..EngineConfig::cluster(3)
            },
            Arc::clone(&strings),
        ));
        engine.load_base(gen.stored_triples());
        for s in gen.schemas() {
            engine.register_stream(s);
        }
        // Pre-register a query per class so workers have work immediately.
        let ids: Vec<usize> = (1..=lsbench::CONTINUOUS_CLASSES)
            .map(|c| {
                engine
                    .register_continuous(&lsbench::continuous_query(&gen, c, 0))
                    .expect("register")
            })
            .collect();
        let timeline = gen.generate(0, 4_000);
        let oneshot_text = lsbench::oneshot_query(&gen, 3, 0);

        let stop = Arc::new(AtomicBool::new(false));
        let executed = Arc::new(AtomicU64::new(0));

        std::thread::scope(|scope| {
            // Ingestion thread: drives the whole timeline with checkpoints.
            {
                let engine = Arc::clone(&engine);
                let stop = Arc::clone(&stop);
                let timeline = &timeline;
                scope.spawn(move || {
                    for (i, t) in timeline.iter().enumerate() {
                        engine.ingest(t.stream, t.triple, t.timestamp);
                        if i % 500 == 499 {
                            engine.checkpoint();
                        }
                    }
                    engine.advance_time(4_000);
                    stop.store(true, Ordering::Relaxed);
                });
            }
            // Continuous-query workers.
            for w in 0..2 {
                let engine = Arc::clone(&engine);
                let stop = Arc::clone(&stop);
                let executed = Arc::clone(&executed);
                let ids = ids.clone();
                scope.spawn(move || {
                    // On a single-core host the ingestion thread may finish
                    // before the scheduler runs us; keep going for a minimum
                    // number of iterations so the overlap window is real on
                    // multi-core hosts and the invariants still get checked
                    // on single-core ones.
                    let mut i = w;
                    while !stop.load(Ordering::Relaxed) || i < w + 40 {
                        let (rs, ms) = engine.execute_registered(ids[i % ids.len()]);
                        assert!(ms >= 0.0);
                        // Rows must be fully-bound projections (no torn reads
                        // surfacing the UNBOUND sentinel).
                        for row in &rs.rows {
                            assert!(row.iter().all(|v| v.0 != u64::MAX));
                        }
                        executed.fetch_add(1, Ordering::Relaxed);
                        i += 1;
                    }
                });
            }
            // One-shot worker.
            {
                let engine = Arc::clone(&engine);
                let stop = Arc::clone(&stop);
                let executed = Arc::clone(&executed);
                let text = oneshot_text.clone();
                scope.spawn(move || {
                    let mut last_len = 0usize;
                    let mut n = 0;
                    while !stop.load(Ordering::Relaxed) || n < 40 {
                        n += 1;
                        let rs = match engine.one_shot(&text) {
                            Ok((rs, _)) => rs,
                            // Admission control turns one-shots away while a
                            // budgeted engine sheds.
                            Err(wukong_query::QueryError::Overloaded(_)) => continue,
                            Err(e) => panic!("one-shot failed: {e}"),
                        };
                        // The stored graph only grows: a one-shot's result for
                        // this monotone query never shrinks.
                        assert!(
                            rs.rows.len() >= last_len,
                            "snapshot went backwards: {} -> {}",
                            last_len,
                            rs.rows.len()
                        );
                        last_len = rs.rows.len();
                        executed.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });

        assert!(
            executed.load(Ordering::Relaxed) > 50,
            "workers barely ran: {}",
            executed.load(Ordering::Relaxed)
        );
        // The deployment is still coherent afterwards.
        let stats = engine.stats();
        assert_eq!(stats.streams, 5);
        assert!(stats.stable_sn.0 >= 30);
        let firings = engine.fire_ready();
        assert!(!firings.is_empty(), "windows accumulated during the run");
        // Neither budget is one this timeline overflows: bounded ingest
        // may reject one-shots, never drop a tuple — until a burst does
        // (budgets are per stream: it goes to the second one).
        assert_eq!(engine.total_shed(), 0, "budget {budget:?}");
        assert_budget_engaged(&format!("budget {budget:?}"), &engine, StreamId(1));
    }
}

/// Everything the shedder decides — which batches lose tuples, how many,
/// and which firings carry `degraded` markers — must be a pure function
/// of (workload, seed, budget). Re-running the identical overload and
/// changing only the worker-pool width may not move a single byte of it.
#[test]
fn overload_shedding_is_deterministic() {
    use wukong_bench::{ls_workload_seeded, Scale};
    use wukong_stream::{ShedPolicy, ShedRecord};

    let w = ls_workload_seeded(Scale::Tiny, 7);
    // A 4x spike over the middle third of the timeline.
    let (from, until) = (w.duration / 3, 2 * w.duration / 3);
    let mut timeline = Vec::new();
    for t in &w.timeline {
        let copies = if t.timestamp >= from && t.timestamp < until {
            4
        } else {
            1
        };
        for _ in 0..copies {
            timeline.push(*t);
        }
    }

    type Markers = Vec<(usize, u64, u64, u32)>;
    let run = |workers: usize, policy: ShedPolicy| -> (Vec<ShedRecord>, Markers, u64) {
        let mut cfg = wukong_core::EngineConfig::cluster(2)
            .with_ingest_budget(Some(IngestBudget::tuples(12)))
            .with_shed_policy(policy)
            .with_workers(workers);
        // Shed decisions never read the wall clock; exclude the
        // (wall-clock) latency trip so the assertion is exact.
        cfg.overload.latency_budget_ms = 1e9;
        cfg.overload.catchup_quiet_ms = 300;
        let engine = WukongS::with_strings(cfg, Arc::clone(&w.strings));
        engine.load_base(w.stored.iter().copied());
        for s in w.schemas() {
            engine.register_stream(s);
        }
        for c in 1..=3 {
            engine
                .register_continuous(&lsbench::continuous_query(&w.bench, c, 0))
                .expect("register");
        }
        let mut markers = Markers::new();
        for (i, t) in timeline.iter().enumerate() {
            engine.ingest(t.stream, t.triple, t.timestamp);
            if i % 64 == 63 {
                for f in engine.fire_ready() {
                    if let Some(d) = f.results.degraded {
                        markers.push((f.query, f.window_end, d.tuples_shed, d.windows_affected));
                    }
                }
            }
        }
        engine.advance_time(w.duration);
        for f in engine.fire_ready() {
            if let Some(d) = f.results.degraded {
                markers.push((f.query, f.window_end, d.tuples_shed, d.windows_affected));
            }
        }
        (engine.shed_log(), markers, engine.total_shed())
    };

    for policy in [ShedPolicy::DropOldestWindow, ShedPolicy::SampleWithinBatch] {
        let (log_a, markers_a, shed_a) = run(1, policy);
        assert!(shed_a > 0, "{policy:?}: the spike must overflow the budget");
        assert!(
            !markers_a.is_empty(),
            "{policy:?}: shed windows must mark their firings"
        );
        // Same seed, same spike => byte-identical decisions...
        let (log_b, markers_b, shed_b) = run(1, policy);
        assert_eq!(log_a, log_b, "{policy:?}: shed log differs across runs");
        assert_eq!(
            markers_a, markers_b,
            "{policy:?}: markers differ across runs"
        );
        assert_eq!(shed_a, shed_b);
        // ...and the worker-pool width is invisible to all of it.
        let (log_w, markers_w, shed_w) = run(4, policy);
        assert_eq!(log_a, log_w, "{policy:?}: shed log depends on workers");
        assert_eq!(
            markers_a, markers_w,
            "{policy:?}: markers depend on workers"
        );
        assert_eq!(shed_a, shed_w);
    }
}
