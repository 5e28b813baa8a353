//! Fig. 14: throughput of a 3-class mix (L1-L3) vs cluster size, plus the
//! latency CDF on 8 nodes.
//!
//! Methodology (documented in `EXPERIMENTS.md`): the paper runs 16 worker
//! threads per node and reports aggregate queries/second; this host has a
//! single core, so aggregate throughput is computed by Little's law —
//! `16 workers × nodes / mean mix latency` — with the per-query latency
//! (compute + charged network time) measured over registered query
//! variants whose home nodes spread across the cluster. The class mix
//! follows the paper: proportions are the reciprocal of each class's
//! average latency. Paper shape: ~4.2× throughput from 2 to 8 nodes,
//! ~1 M q/s peak, sub-ms median latency.

use wukong_bench::{
    feed_engine, fmt_ms, ls_workload, measure_mix, mix_throughput, print_header, print_row,
    BenchJson, Scale,
};
use wukong_core::EngineConfig;

fn main() {
    let mut jr = BenchJson::from_env("fig14_throughput_mix3");
    let scale = Scale::from_env();
    let w = ls_workload(scale);
    let classes = [1usize, 2, 3];
    let variants = match scale {
        Scale::Tiny => 4,
        _ => 16,
    };
    let runs = (scale.runs() / 10).max(5);
    println!(
        "LSBench mix L1-L3: {} variants/class, {} runs/variant (scale {scale:?})",
        variants, runs
    );

    print_header(
        "Fig 14a: throughput vs nodes (mix L1-L3)",
        &["nodes", "q/s", "mean lat ms"],
    );
    let mut last_recs = Vec::new();
    for nodes in [2usize, 3, 4, 5, 6, 7, 8] {
        let engine = feed_engine(
            EngineConfig::cluster(nodes),
            &w.strings,
            w.schemas(),
            &w.stored,
            &w.timeline,
            w.duration,
        );
        let recs = measure_mix(&engine, &w.bench, &classes, variants, runs);
        let (thr, mean_ms) = mix_throughput(&recs, nodes);
        jr.counter(&format!("throughput_qps/nodes{nodes}"), thr);
        if nodes == 8 {
            for (i, rec) in recs.iter().enumerate() {
                jr.series(&format!("L{}/nodes8", classes[i]), rec);
            }
            jr.engine(&engine);
        }
        print_row(vec![
            nodes.to_string(),
            format!("{:.0}", thr),
            fmt_ms(mean_ms),
        ]);
        last_recs = recs;
    }

    print_header(
        "Fig 14b: latency CDF on 8 nodes (ms at percentile)",
        &["query", "p50", "p90", "p99", "p100"],
    );
    for (i, rec) in last_recs.iter().enumerate() {
        print_row(vec![
            format!("L{}", classes[i]),
            fmt_ms(rec.percentile(50.0).expect("samples")),
            fmt_ms(rec.percentile(90.0).expect("samples")),
            fmt_ms(rec.percentile(99.0).expect("samples")),
            fmt_ms(rec.percentile(100.0).expect("samples")),
        ]);
    }
    jr.finish();
}
