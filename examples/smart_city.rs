//! Urban monitoring: the CityBench scenario (§6.10).
//!
//! Sensor streams (traffic, parking, weather, pollution, user locations)
//! are *timing data*: readings matter only inside query windows and are
//! swept by the transient store's GC once every window has passed. This
//! example registers congestion/parking/pollution monitors with FILTERs
//! and aggregates, drives a dozen seconds of city life, and shows both
//! the live answers and the GC keeping memory flat.
//!
//! Run with: `cargo run --release --example smart_city`

use std::sync::Arc;
use wukong_benchdata::{citybench, CityBench, CityBenchConfig};
use wukong_core::{EngineConfig, WukongS};
use wukong_rdf::StringServer;

fn main() {
    let strings = Arc::new(StringServer::new());
    let mut city = CityBench::new(CityBenchConfig::default(), Arc::clone(&strings));
    // CityBench batches are 1 s; sweep every 4 batches so the 12 s run
    // exercises the GC.
    let cfg = EngineConfig {
        gc_every_batches: 4,
        gc_slack_ms: 500,
        ..EngineConfig::single_node()
    };
    let engine = WukongS::with_strings(cfg, Arc::clone(&strings));

    engine.load_base(city.stored_triples());
    println!(
        "Loaded the city metadata graph: {} triples.",
        engine.cluster().triple_count()
    );
    for schema in city.schemas() {
        engine.register_stream(schema);
    }

    // Three civic monitors.
    let congestion = engine
        .register_continuous(&citybench::continuous_query(&city, 2, 0))
        .expect("congestion monitor registers");
    let parking = engine
        .register_continuous(&citybench::continuous_query(&city, 4, 0))
        .expect("parking monitor registers");
    let pollution = engine
        .register_continuous(&citybench::continuous_query(&city, 10, 0))
        .expect("pollution monitor registers");

    // Drive 12 seconds of sensor feeds, reporting as windows fire.
    let timeline = city.generate(0, 12_000);
    println!("Streaming {} sensor readings…\n", timeline.len());
    let mut reported = 0usize;
    for chunk in timeline.chunks(64) {
        for t in chunk {
            engine.ingest(t.stream, t.triple, t.timestamp);
        }
        for f in engine.fire_ready() {
            if f.results.is_empty() && f.results.aggregates.iter().all(Option::is_none) {
                continue;
            }
            reported += 1;
            if reported <= 12 {
                match f.query {
                    q if q == congestion => println!(
                        "t={:>5}  congestion alert: {} slow readings on both roads",
                        f.window_end,
                        f.results.rows.len()
                    ),
                    q if q == parking => println!(
                        "t={:>5}  parking: {} lots with >5 free spots",
                        f.window_end,
                        f.results.rows.len()
                    ),
                    q if q == pollution => println!(
                        "t={:>5}  pollution max per route sensor: {:?}",
                        f.window_end,
                        f.results
                            .aggregates
                            .iter()
                            .map(|a| a.unwrap_or(f64::NAN))
                            .collect::<Vec<_>>()
                    ),
                    _ => {}
                }
            }
        }
    }
    engine.advance_time(12_000);
    println!("… {reported} non-empty firings in total.");

    // The transient store stayed bounded: GC swept expired slices.
    let mut live = 0usize;
    let mut evicted = 0u64;
    for s in engine.cluster().streams().iter() {
        for t in &s.transients {
            let t = t.read();
            live += t.slice_count();
            evicted += t.evicted_slices();
        }
    }
    println!(
        "\nTransient store after the run: {live} live slices, {evicted} GC-evicted — \
         timing data never reaches the persistent store."
    );
    assert!(evicted > 0, "GC must have swept expired slices");

    // Timing readings are absent from one-shot (stored-graph) queries.
    let (rs, _) = engine
        .one_shot("SELECT ?S ?V WHERE { ?S pol ?V }")
        .expect("one-shot");
    assert!(rs.is_empty());
    println!("One-shot over `pol` readings: empty, as timing data should be.");
}
