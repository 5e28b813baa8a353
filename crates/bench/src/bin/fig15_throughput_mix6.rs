//! Fig. 15: throughput of the full 6-class mix (L1-L6) vs cluster size,
//! plus the latency CDF on 8 nodes.
//!
//! Same methodology as Fig. 14 (see that binary and `EXPERIMENTS.md`).
//! Paper shape: lower peak than the L1-L3 mix (~802 K q/s) but *super*
//! scaling (~5× from 2 to 8 nodes) because the group II queries
//! themselves get faster on more nodes.

use wukong_bench::{
    feed_engine, fmt_ms, ls_workload, measure_mix, mix_throughput, print_header, print_row,
    BenchJson, Scale,
};
use wukong_core::EngineConfig;

fn main() {
    let mut jr = BenchJson::from_env("fig15_throughput_mix6");
    let scale = Scale::from_env();
    let w = ls_workload(scale);
    let classes = [1usize, 2, 3, 4, 5, 6];
    let variants = match scale {
        Scale::Tiny => 2,
        _ => 8,
    };
    let runs = (scale.runs() / 20).max(3);
    println!(
        "LSBench mix L1-L6: {} variants/class, {} runs/variant (scale {scale:?})",
        variants, runs
    );

    print_header(
        "Fig 15a: throughput vs nodes (mix L1-L6)",
        &["nodes", "q/s", "mean lat ms"],
    );
    let mut last_recs = Vec::new();
    let mut first_thr = None;
    let mut last_thr = 0.0;
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
        first_thr.get_or_insert(thr);
        last_thr = thr;
        print_row(vec![
            nodes.to_string(),
            format!("{:.0}", thr),
            fmt_ms(mean_ms),
        ]);
        last_recs = recs;
    }
    println!(
        "\n2→8-node throughput scaling: {:.1}X",
        last_thr / first_thr.unwrap_or(1.0)
    );

    print_header(
        "Fig 15b: latency CDF on 8 nodes (ms at percentile)",
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
