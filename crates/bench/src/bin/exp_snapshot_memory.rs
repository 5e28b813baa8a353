//! §6.7: the memory benefit of bounded snapshot scalarization.
//!
//! The paper reports the stored-RDF memory footprint with 2/3 retained
//! snapshots, with and without scalarization (e.g. 37.7 GB vs 44.0 GB at
//! 2 snapshots), and that registering all 5 streams costs nothing extra
//! *with* scalarization.
//!
//! Here the with-scalarization footprint is measured from the store; the
//! without-scalarization footprint is the same store plus the per-append
//! vector-timestamp tagging the strawman design needs (§4.3): every
//! appended neighbour carries one timestamp per registered stream plus a
//! version pointer, computed from the engine's append counters.

use wukong_bench::{feed_engine, ls_workload, print_header, print_row, BenchJson, Scale};
use wukong_core::EngineConfig;
use wukong_rdf::StreamId;
use wukong_stream::StalenessBound;

fn main() {
    let mut jr = BenchJson::from_env("exp_snapshot_memory");
    let scale = Scale::from_env();
    let w = ls_workload(scale);
    println!(
        "LSBench: {} stored triples, {} stream tuples over {} ms (scale {scale:?})",
        w.stored.len(),
        w.timeline.len(),
        w.duration,
    );

    print_header(
        "§6.7: store footprint (MB) with bounded snapshot scalarization",
        &["snapshots", "with SN (MB)", "without (MB)", "saving"],
    );

    for retain in [2u64, 3] {
        // The staleness bound controls how many batches share a snapshot;
        // retained snapshots per key stay at ~2 either way, so `retain`
        // here scales the modelled strawman cost.
        let engine = feed_engine(
            EngineConfig {
                staleness: StalenessBound(1),
                ..EngineConfig::cluster(8)
            },
            &w.strings,
            w.schemas(),
            &w.stored,
            &w.timeline,
            w.duration,
        );
        let with_sn = engine.cluster().store_bytes() as f64;

        // Strawman: every appended entry tagged with a VTS (one u64 per
        // stream) plus a per-version pointer (16 B), retained per kept
        // snapshot.
        let streams = 5u64;
        let appended: u64 = (0..5)
            .map(|i| engine.injection_stats(StreamId(i)).0.timeless as u64)
            .sum::<u64>()
            * 2; // out-key and in-key copies
        let vts_bytes = appended * (streams * 8 + 16) * (retain - 1);
        let without = with_sn + vts_bytes as f64;

        jr.counter(&format!("retain{retain}/with_sn_bytes"), with_sn);
        jr.counter(&format!("retain{retain}/without_bytes"), without);
        let mb = |b: f64| b / (1 << 20) as f64;
        print_row(vec![
            retain.to_string(),
            format!("{:.1}", mb(with_sn)),
            format!("{:.1}", mb(without)),
            format!("{:.1}%", 100.0 * (without - with_sn) / without),
        ]);
    }

    // Verify the bound actually holds on a live deployment.
    let engine = feed_engine(
        EngineConfig::cluster(8),
        &w.strings,
        w.schemas(),
        &w.stored,
        &w.timeline,
        w.duration,
    );
    let max_retained = (0..8u16)
        .map(|n| engine.cluster().shard(n).max_retained_snapshots())
        .max()
        .unwrap_or(0);
    println!("\nMax snapshots retained by any key: {max_retained} (bound: 2 + in-flight)");
    jr.counter("max_retained_snapshots", max_retained as f64);
    jr.engine(&engine);
    jr.finish();
}
