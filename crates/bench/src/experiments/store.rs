//! Injection cost and memory experiments: what the stream path costs the
//! store per batch and per byte (Tables 6/7, §4.3, §6.7).

use crate::run::{Run, Verdict};
use crate::say;
use wukong_core::EngineConfig;
use wukong_rdf::StreamId;
use wukong_stream::StalenessBound;

/// Table 6: data injection and indexing cost per mini-batch (100 ms) for
/// all five LSBench streams at default rate.
///
/// Paper shape: injection costs 0.37-2.20 ms per 100 ms batch, scaling
/// with the stream's rate (PO-L, the fastest stream, costs the most);
/// stream-index building adds 0.21-0.43 ms on top.
pub fn table6_injection(run: &mut Run) -> Verdict {
    let w = run.ls_workload("");
    let engine = w.engine(EngineConfig::cluster(8));
    run.header(
        "Table 6: injection + indexing cost (ms) per 100 ms mini-batch",
        &["stream", "rate t/s", "inject", "index", "total"],
    );
    let rates = w.bench.rates();
    let (mut timeless, mut timing) = (0, 0);
    for (i, name) in w.stream_names().enumerate() {
        let (stats, batches) = engine.injection_stats(StreamId(i as u16));
        let per_batch = |ns: u64| ns as f64 / 1e6 / batches.max(1) as f64;
        let inject = per_batch(stats.inject_ns);
        let index = per_batch(stats.index_ns);
        run.row(vec![
            name.into(),
            format!("{:.0}", rates[i]),
            format!("{inject:.3}"),
            format!("{index:.3}"),
            format!("{:.3}", inject + index),
        ]);
        run.json
            .counter(&format!("{name}/inject_ms_per_batch"), inject);
        run.json
            .counter(&format!("{name}/index_ms_per_batch"), index);
        run.json.counter(&format!("{name}/batches"), batches as f64);
        timeless += stats.timeless;
        timing += stats.timing;
    }
    say!(
        run,
        "\n(per-batch averages over the whole run; timeless tuples: {timeless}, timing tuples: {timing})"
    );
    run.json.engine(&engine);
    Verdict::default()
}

/// Table 7: memory usage of streaming data vs the stream index.
///
/// Paper shape: the stream index costs a small fraction of the raw
/// streaming data (9.5% overall; up to ~46% for low-rate streams whose
/// per-batch key overhead amortises worse, and none at all for the
/// timing-only GPS stream).
pub(crate) fn table7_memory(run: &mut Run) -> Verdict {
    let w = run.ls_workload("");
    let minutes = w.duration as f64 / 60_000.0;
    let engine = w.engine(EngineConfig::cluster(8));
    run.header(
        "Table 7: memory (MB/min): raw stream data vs stream index",
        &["stream", "data MB/min", "index MB/min", "ratio"],
    );
    let mb = |bytes: f64| bytes / (1 << 20) as f64 / minutes;
    let mut total_data = 0.0;
    let mut total_index = 0.0;
    for (i, name) in w.stream_names().enumerate() {
        let stream = engine.cluster().stream(i);
        let data = *stream.raw_bytes.read() as f64;
        let index = stream.index_bytes() as f64;
        // GPS is timing-only: no stream index is built for it.
        let indexed = name != "GPS";
        total_data += data;
        if indexed {
            total_index += index;
        }
        run.json.counter(&format!("{name}/raw_bytes"), data);
        run.json.counter(&format!("{name}/index_bytes"), index);
        run.row(vec![
            name.into(),
            format!("{:.3}", mb(data)),
            if indexed {
                format!("{:.3}", mb(index))
            } else {
                "-".into()
            },
            if indexed && data > 0.0 {
                format!("{:.1}%", 100.0 * index / data)
            } else {
                "-".into()
            },
        ]);
    }
    run.row(vec![
        "Total".into(),
        format!("{:.3}", mb(total_data)),
        format!("{:.3}", mb(total_index)),
        format!("{:.1}%", 100.0 * total_index / total_data.max(1.0)),
    ]);
    run.json.engine(&engine);
    Verdict::default()
}

/// Ablation: the SN-VTS plan's staleness bound (§4.3).
///
/// "The Coordinator can leverage the interval of the mappings to control
/// the staleness of query results": a step of 1 batch gives the freshest
/// one-shot snapshots but constrains injectors; larger steps batch more
/// insertion per snapshot and leave one-shot results up to that many
/// batches stale. This experiment sweeps the bound and reports the
/// snapshot cadence and the resulting one-shot staleness.
pub(crate) fn exp_staleness(run: &mut Run) -> Verdict {
    let w = run.ls_workload("");
    run.header(
        "§4.3 ablation: snapshot staleness bound",
        &["bound", "stable SN", "SN cadence ms", "one-shot lag ms"],
    );
    // LSBench's streams share one batch interval.
    let interval = w.schemas[0].batch_interval_ms;
    for bound in [1u64, 2, 5, 10] {
        let engine = w.engine(EngineConfig {
            staleness: StalenessBound(bound),
            ..EngineConfig::cluster(4)
        });
        let sn = engine.stable_sn().0;
        // Snapshot cadence: stream time per snapshot; one-shot lag: how
        // far behind the freshest batch the stable snapshot's horizon is
        // in the worst case (bound × batch interval).
        let cadence = w.duration as f64 / sn.max(1) as f64;
        let lag = bound * interval;
        run.json
            .counter(&format!("bound{bound}/stable_sn"), sn as f64);
        run.json
            .counter(&format!("bound{bound}/cadence_ms"), cadence);
        run.json
            .counter(&format!("bound{bound}/oneshot_lag_ms"), lag as f64);
        run.json.engine(&engine);
        // Sanity: continuous visibility is unaffected by the bound.
        let fresh = engine.stable_ts(StreamId(0));
        run.row(vec![
            bound.to_string(),
            sn.to_string(),
            format!("{cadence:.0}"),
            format!("<= {lag} (streams stable at {fresh})"),
        ]);
    }
    say!(
        run,
        "\nLarger bounds advance the snapshot number less often (cheaper \
         coordination, staler one-shots); continuous queries always see \
         the stable VTS regardless."
    );
    Verdict::default()
}

/// §6.7: the memory benefit of bounded snapshot scalarization.
///
/// The paper reports the stored-RDF memory footprint with 2/3 retained
/// snapshots, with and without scalarization (e.g. 37.7 GB vs 44.0 GB at
/// 2 snapshots), and that registering all 5 streams costs nothing extra
/// *with* scalarization.
///
/// Here the with-scalarization footprint is measured from the store; the
/// without-scalarization footprint is the same store plus the per-append
/// vector-timestamp tagging the strawman design needs (§4.3): every
/// appended neighbour carries one timestamp per registered stream plus a
/// version pointer, computed from the engine's append counters.
pub(crate) fn exp_snapshot_memory(run: &mut Run) -> Verdict {
    let w = run.ls_workload("");
    run.header(
        "§6.7: store footprint (MB) with bounded snapshot scalarization",
        &["snapshots", "with SN (MB)", "without (MB)", "saving"],
    );
    let streams = w.schemas.len() as u64;
    // The presets already run at staleness bound 1: retained snapshots per
    // key stay at ~2, and `retain` scales the modelled strawman cost.
    let engine = w.engine(EngineConfig::cluster(8));
    let with_sn = engine.cluster().store_bytes() as f64;
    let appended: u64 = (0..streams)
        .map(|i| engine.injection_stats(StreamId(i as u16)).0.timeless as u64)
        .sum::<u64>()
        * 2; // out-key and in-key copies
    for retain in [2u64, 3] {
        // Strawman: every appended entry tagged with a VTS (one u64 per
        // stream) plus a per-version pointer (16 B), retained per kept
        // snapshot.
        let vts_bytes = appended * (streams * 8 + 16) * (retain - 1);
        let without = with_sn + vts_bytes as f64;
        run.json
            .counter(&format!("retain{retain}/with_sn_bytes"), with_sn);
        run.json
            .counter(&format!("retain{retain}/without_bytes"), without);
        let mb = |b: f64| b / (1 << 20) as f64;
        run.row(vec![
            retain.to_string(),
            format!("{:.1}", mb(with_sn)),
            format!("{:.1}", mb(without)),
            format!("{:.1}%", 100.0 * (without - with_sn) / without),
        ]);
    }

    // Verify the bound actually holds on the live deployment.
    let max_retained = (0..8u16)
        .map(|n| engine.cluster().shard(n).max_retained_snapshots())
        .max()
        .unwrap_or(0);
    say!(
        run,
        "\nMax snapshots retained by any key: {max_retained} (bound: 2 + in-flight)"
    );
    run.json
        .counter("max_retained_snapshots", max_retained as f64);
    run.json.engine(&engine);
    Verdict::default()
}
