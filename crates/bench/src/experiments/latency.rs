//! The latency tables and figures: every one is a [`latency_grid`] over
//! LSBench's (or CityBench's) continuous classes, or a [`throughput_mix`].

use crate::grid::{
    latency_grid, ls_classes, record, sample_composite, sample_continuous, throughput_mix, Arm,
    Contender, Grid, Sample,
};
use crate::report::fmt_ms;
use crate::run::{Run, Verdict};
use crate::say;
use crate::workload::{city_workload_seeded, ls_workload_with, LsWorkload, Scale, Workload};
use wukong_baselines::{CompositePlan, CompositeProfile, SparkMode};
use wukong_benchdata::{citybench, lsbench};
use wukong_core::{EngineConfig, ExecMode, WukongS};
use wukong_query::QueryError;
use wukong_rdf::Timestamp;

/// Samples a slow baseline takes: a tenth of the run count.
fn slow(runs: usize) -> usize {
    (runs / 10).max(3)
}

/// Fig. 4: execution-time breakdown of QC on Storm+Wukong, both plans.
///
/// QC is Fig. 2's continuous query (our L5 class). Paper shape: the
/// interleaved plan (a) spends ≈ 39% of its time on cross-system cost;
/// the stream-first plan (b) makes fewer crossings but is *slower*
/// overall because joining the two stream relations first produces a huge
/// intermediate result that the store side cannot prune (CC ≈ 46%).
pub(crate) fn fig4_breakdown(run: &mut Run) -> Verdict {
    let w = run.ls_workload("");
    let runs = run.scale.runs();
    let mut storm = w.composite(CompositeProfile::storm_wukong(1));
    let qc = lsbench::continuous_query(&w.bench, 5, 0);
    let id = storm.register_continuous(&qc).expect("register QC");

    run.header(
        "Fig 4: Storm+Wukong breakdown of QC (ms)",
        &["plan", "total", "stream", "store", "cross", "CC %"],
    );
    for (name, plan) in [
        ("(a) interleaved", CompositePlan::Interleaved),
        ("(b) stream-first", CompositePlan::StreamFirst),
    ] {
        let (rec, bd) = sample_composite(&storm, id, w.duration, plan, runs);
        run.json.series(name, &rec);
        run.json
            .counter(&format!("{name}/cross_fraction"), bd.cross_fraction());
        run.row(vec![
            name.into(),
            fmt_ms(rec.median().expect("samples")),
            fmt_ms(bd.stream_ms),
            fmt_ms(bd.store_ms),
            fmt_ms(bd.cross_ms),
            format!("{:.1}%", 100.0 * bd.cross_fraction()),
        ]);
    }

    // Reference: the same query on integrated Wukong+S.
    let engine = w.engine(EngineConfig::single_node());
    let wid = engine.register_continuous(&qc).expect("register");
    let wrec = sample_continuous(&engine, wid, runs);
    run.json.series("wukong_s/QC", &wrec);
    say!(
        run,
        "\nIntegrated Wukong+S runs QC in {} ms (no cross-system cost).",
        fmt_ms(wrec.median().expect("samples"))
    );
    run.json.engine(&engine);
    Verdict::default()
}

/// The shape Tables 2, 3 and 9 share: Wukong+S on `nodes` nodes against
/// Storm+Wukong (total, and each side of the system boundary) and one
/// slow baseline, `(header, series name, system)`. `baselines_recorded`
/// says whether the report also carries the Storm+Wukong series and the
/// baselines' geometric means (Table 9's does).
fn versus_storm<G>(
    run: &mut Run,
    w: &Workload<G>,
    title: &str,
    classes: &[(String, String)],
    nodes: usize,
    (slow_header, slow_name, slow_system): (&str, &str, &mut dyn Contender),
    baselines_recorded: bool,
) -> Verdict {
    let runs = run.scale.runs();
    let mut engine = w.engine(EngineConfig::cluster(nodes));
    let mut storm = w.composite(CompositeProfile::storm_wukong(nodes));
    let mut storm_arm = Arm::new("S+W all", &mut storm, runs).with_parts("(Storm)", "(Wukong)");
    let mut geo_means = vec!["wukong_s"];
    if baselines_recorded {
        storm_arm = storm_arm.recorded_as("storm_wukong");
        geo_means.extend(["storm_wukong", slow_name]);
    }
    let cells = latency_grid(
        run,
        &Grid::new(title, classes, w.duration).with_geo_mean(),
        &mut [
            Arm::new("Wukong+S", &mut engine, runs).recorded_as("wukong_s"),
            storm_arm,
            Arm::new(slow_header, slow_system, slow(runs)),
        ],
    );
    for (arm, name) in geo_means.iter().enumerate() {
        run.json.counter(
            &format!("geo_mean_{name}_ms"),
            cells.geo_mean(arm).unwrap_or(0.0),
        );
    }
    run.json.engine(&engine);
    Verdict::default()
}

/// Table 2: single-node continuous-query latency (ms) on LSBench.
///
/// Columns: Wukong+S | Storm+Wukong (total, Storm part, Wukong part) |
/// CSPARQL-engine; rows L1-L6 plus the geometric mean. The paper's shape:
/// Wukong+S beats Storm+Wukong by 1.6-30×, and CSPARQL-engine by about
/// three orders of magnitude.
pub(crate) fn table2_latency_single(run: &mut Run) -> Verdict {
    let w = run.ls_workload("");
    let mut csparql = w.composite(CompositeProfile::csparql());
    versus_storm(
        run,
        &w,
        "Table 2: single-node latency (ms), LSBench",
        &ls_classes(&w, 1..=lsbench::CONTINUOUS_CLASSES),
        1,
        ("CSPARQL", "csparql", &mut csparql),
        false,
    )
}

/// Table 3: 8-node continuous-query latency (ms) on LSBench.
///
/// Columns: Wukong+S | Storm+Wukong (total, Storm, Wukong) | Spark
/// Streaming. Paper shape: Wukong+S beats Storm+Wukong by 2.3-29× and
/// Spark Streaming by three orders of magnitude; Storm+Wukong's
/// cross-system overhead runs 13.8-56.2% of total.
pub(crate) fn table3_latency_cluster(run: &mut Run) -> Verdict {
    let w = run.ls_workload(", 8 nodes");
    let mut spark = w.spark(SparkMode::MicroBatch);
    versus_storm(
        run,
        &w,
        "Table 3: 8-node latency (ms), LSBench",
        &ls_classes(&w, 1..=lsbench::CONTINUOUS_CLASSES),
        8,
        ("Spark", "spark", &mut spark),
        false,
    )
}

/// Table 4: further 8-node comparisons on LSBench.
///
/// Columns: Heron+Wukong (total, Heron, Wukong) | Structured Streaming |
/// Wukong/Ext | Wukong+S as the reference. Paper shape: Heron helps the
/// stream-only queries but the cross-system cost still dominates queries
/// that touch stored data; Structured Streaming supports only L1-L3 (✗
/// elsewhere) and is slower than Spark Streaming; Wukong/Ext trails
/// Wukong+S by 1.6-4.4×.
pub(crate) fn table4_latency_more(run: &mut Run) -> Verdict {
    let nodes = 8;
    let w = run.ls_workload(", 8 nodes");
    let runs = run.scale.runs();
    let mut heron = w.composite(CompositeProfile::heron_wukong(nodes));
    let mut structured = w.spark(SparkMode::Structured);
    let mut ext = w.wukong_ext(nodes);
    let mut engine = w.engine(EngineConfig::cluster(nodes));
    let cells = latency_grid(
        run,
        &Grid::new(
            "Table 4: further 8-node comparisons (ms), LSBench",
            &ls_classes(&w, 1..=lsbench::CONTINUOUS_CLASSES),
            w.duration,
        )
        .with_geo_mean(),
        &mut [
            Arm::new("H+W all", &mut heron, runs).with_parts("(Heron)", "(Wukong)"),
            Arm::new("Structured", &mut structured, slow(runs)),
            Arm::new("Wukong/Ext", &mut ext, runs),
            Arm::new("Wukong+S", &mut engine, runs).recorded_as("wukong_s"),
        ],
    );
    run.json
        .counter("geo_mean_wukong_s_ms", cells.geo_mean(3).unwrap_or(0.0));
    run.json.engine(&engine);
    Verdict::default()
}

/// Table 5: the performance impact of RDMA on Wukong+S (8 nodes).
///
/// Rows: Wukong+S (RDMA, in-place for selective queries) vs Non-RDMA
/// (TCP costs, forced fork-join). Paper shape: selective L1-L3 are
/// insensitive (~1.0-1.1×); non-selective L4-L6 slow down 1.8-3.5×.
pub(crate) fn table5_rdma(run: &mut Run) -> Verdict {
    let nodes = 8;
    let w = run.ls_workload(", 8 nodes");
    let runs = run.scale.runs();
    let mut rdma = w.engine(EngineConfig::cluster(nodes));
    let mut tcp = w.engine(EngineConfig::cluster_tcp(nodes));
    let cells = latency_grid(
        run,
        &Grid::new(
            "Table 5: RDMA impact on Wukong+S (ms), LSBench, 8 nodes",
            &ls_classes(&w, 1..=lsbench::CONTINUOUS_CLASSES),
            w.duration,
        )
        .with_ratio("slowdown", 1, 0)
        .with_geo_mean(),
        &mut [
            Arm::new("Wukong+S", &mut rdma, runs).recorded_as("rdma"),
            Arm::new("Non-RDMA", &mut tcp, runs).recorded_as("non_rdma"),
        ],
    );
    run.json
        .counter("geo_mean_rdma_ms", cells.geo_mean(0).unwrap_or(0.0));
    run.json
        .counter("geo_mean_non_rdma_ms", cells.geo_mean(1).unwrap_or(0.0));
    run.json.engine(&rdma);
    Verdict::default()
}

/// A one-shot column of Table 8: `one_shot` over the registered texts,
/// optionally interleaved with executions of standing queries (they share
/// the persistent store and its locks).
struct OneShots<'a> {
    engine: &'a WukongS,
    beside: &'a [usize],
    texts: Vec<String>,
}

impl Contender for OneShots<'_> {
    fn register(&mut self, text: &str) -> Result<usize, QueryError> {
        self.texts.push(text.to_string());
        Ok(self.texts.len() - 1)
    }

    fn sample(&self, id: usize, _now: Timestamp, runs: usize) -> Sample {
        let mut i = 0;
        let rec = record(runs, || {
            if !self.beside.is_empty() {
                let _ = self
                    .engine
                    .execute_registered(self.beside[i % self.beside.len()]);
                i += 1;
            }
            self.engine.one_shot(&self.texts[id]).expect("one-shot").1
        });
        Sample::of(rec)
    }
}

/// Table 8: one-shot (SPARQL) query performance on LSBench.
///
/// Rows S1-S6; columns: static Wukong | Wukong+S with streams enabled
/// (/Off: no continuous queries running) | Wukong+S with concurrent
/// continuous queries (/On). Paper shape: Wukong+S inherits Wukong's
/// performance; enabling streams costs < 5%, and concurrent continuous
/// queries add ≈ 5% more despite sharing the store.
pub(crate) fn table8_oneshot(run: &mut Run) -> Verdict {
    let nodes = 8;
    let w = run.ls_workload(", 8 nodes");
    let runs = run.scale.runs();
    // Static Wukong: the base store only, no streams.
    let wukong = WukongS::with_strings(EngineConfig::cluster(nodes), w.strings.clone());
    wukong.load_base(w.stored.iter().copied());
    // Wukong+S with all five streams ingested.
    let wukongs = w.engine(EngineConfig::cluster(nodes));
    // Continuous load for the /On column (selective classes, as in §6.9's
    // maximum-throughput continuous workers).
    let continuous: Vec<usize> = (1..=3)
        .map(|c| {
            wukongs
                .register_continuous(&lsbench::continuous_query(&w.bench, c, 0))
                .expect("register continuous load")
        })
        .collect();
    let column = |engine, beside| OneShots {
        engine,
        beside,
        texts: Vec::new(),
    };
    let mut s0 = column(&wukong, &[]);
    let mut s1 = column(&wukongs, &[]);
    let mut s2 = column(&wukongs, &continuous);
    let classes: Vec<(String, String)> = (1..=lsbench::ONESHOT_CLASSES)
        .map(|c| (format!("S{c}"), lsbench::oneshot_query(&w.bench, c, 0)))
        .collect();
    let names = ["wukong", "wukongs_off", "wukongs_on"];
    let cells = latency_grid(
        run,
        &Grid::new(
            "Table 8: one-shot query latency (ms), LSBench",
            &classes,
            w.duration,
        )
        .with_geo_mean(),
        &mut [
            Arm::new("Wukong", &mut s0, runs).recorded_as(names[0]),
            Arm::new("Wukong+S/Off", &mut s1, runs).recorded_as(names[1]),
            Arm::new("Wukong+S/On", &mut s2, runs).recorded_as(names[2]),
        ],
    );
    for (arm, name) in names.iter().enumerate() {
        run.json.counter(
            &format!("geo_mean_{name}_ms"),
            cells.geo_mean(arm).unwrap_or(0.0),
        );
    }
    run.json.engine(&wukongs);
    Verdict::default()
}

/// Table 9: CityBench continuous-query latency (ms), single node.
///
/// Columns: Wukong+S | Storm+Wukong (total, Storm, Wukong) | Spark
/// Streaming; rows C1-C11. Paper shape: Wukong+S wins by 2.7-18× over
/// Storm+Wukong (whose cross-system cost runs 40-75%) and by three orders
/// of magnitude over Spark Streaming; C10/C11 are stream-only.
pub(crate) fn table9_citybench(run: &mut Run) -> Verdict {
    let w = city_workload_seeded(run.scale, run.seed);
    run.banner("CityBench", &w, "");
    let mut spark = w.spark(SparkMode::MicroBatch);
    let classes: Vec<(String, String)> = (1..=citybench::CONTINUOUS_CLASSES)
        .map(|c| (format!("C{c}"), citybench::continuous_query(&w.bench, c, 0)))
        .collect();
    versus_storm(
        run,
        &w,
        "Table 9: CityBench latency (ms), single node",
        &classes,
        1,
        ("Spark", "spark", &mut spark),
        true,
    )
}

/// Fig. 12/13: one engine per point of a swept parameter — `(column
/// header, series name, engine)` — and one table per query group of §6.3.
/// The report carries the last point's engine.
fn sweep(
    run: &mut Run,
    w: &LsWorkload,
    (fig, versus): (&str, &str),
    points: &mut [(String, String, WukongS)],
    ratio: Option<(&str, usize, usize)>,
) -> Verdict {
    let runs = run.scale.runs();
    for (group, classes) in [
        ("group I (selective)", 1..=3),
        ("group II (non-selective)", 4..=6),
    ] {
        let title = format!("{fig} {group}: latency (ms) vs {versus}");
        let mut arms: Vec<Arm<'_>> = points
            .iter_mut()
            .map(|(header, series, engine)| Arm::new(header, engine, runs).recorded_as(series))
            .collect();
        let classes = ls_classes(w, classes);
        let grid = Grid {
            ratio,
            ..Grid::new(&title, &classes, w.duration)
        };
        latency_grid(run, &grid, &mut arms);
    }
    run.json.engine(&points[points.len() - 1].2);
    Verdict::default()
}

/// Fig. 12: Wukong+S latency vs cluster size (2-8 nodes) on LSBench.
///
/// Paper shape: group I (L1-L3, selective, in-place execution) stays
/// flat as nodes grow; group II (L4-L6, fork-join over the whole stored
/// graph) speeds up 2.8-3.2× from 2 to 8 nodes.
pub(crate) fn fig12_scalability(run: &mut Run) -> Verdict {
    let w = run.ls_workload("");
    let mut points = [2usize, 4, 6, 8].map(|nodes| {
        let engine = w.engine(EngineConfig::cluster(nodes));
        (nodes.to_string(), format!("nodes{nodes}"), engine)
    });
    let ratio = Some(("2→8 speedup", 0, 3));
    sweep(run, &w, ("Fig 12", "nodes"), &mut points, ratio)
}

/// Fig. 13: Wukong+S latency vs stream rate on LSBench (8 nodes).
///
/// The rate sweeps ×0.25 to ×4 of the default. Paper shape: group I
/// (selective) latency is flat regardless of rate; group II latency grows
/// with the rate (windows hold proportionally more tuples) yet stays low.
pub(crate) fn fig13_stream_rate(run: &mut Run) -> Verdict {
    let workloads = [0.25f64, 0.5, 1.0, 2.0, 4.0].map(|m| {
        let mut cfg = run.scale.ls_config().with_seed(run.seed);
        cfg.rate_scale *= m;
        (m, ls_workload_with(cfg, run.scale.ls_duration()))
    });
    let mut points = workloads.each_ref().map(|(m, w)| {
        let engine = w.engine(EngineConfig::cluster(8));
        (format!("x{m}"), format!("rate_x{m}"), engine)
    });
    // The query texts name users, not rates: every workload renders the
    // same ones.
    let w = &workloads[0].1;
    sweep(run, w, ("Fig 13", "stream rate"), &mut points, None)
}

/// §6.4 (second experiment): trading cores for latency.
///
/// "Assigning 4 cores on each node can speed up L4, L5 and L6 by 3.0X,
/// 3.5X and 2.7X respectively" — clients trade resources for latency when
/// it matters. Selective queries run in-place on one worker and gain
/// nothing.
pub(crate) fn exp_multicore(run: &mut Run) -> Verdict {
    let nodes = 8;
    let w = run.ls_workload(", 8 nodes");
    let runs = run.scale.runs();
    let [mut one, mut two, mut four] = [1usize, 2, 4].map(|cores| {
        w.engine(EngineConfig {
            cores_per_query: cores,
            ..EngineConfig::cluster(nodes)
        })
    });
    latency_grid(
        run,
        &Grid::new(
            "§6.4: latency (ms) vs worker cores per query, group II",
            &ls_classes(&w, 4..=6),
            w.duration,
        )
        .with_ratio("1→4 speedup", 0, 2),
        &mut [
            Arm::new("1 core", &mut one, runs).recorded_as("cores1"),
            Arm::new("2 cores", &mut two, runs).recorded_as("cores2"),
            Arm::new("4 cores", &mut four, runs).recorded_as("cores4"),
        ],
    );
    say!(
        run,
        "\nSelective queries (in-place, one worker) are unaffected:"
    );
    latency_grid(
        run,
        &Grid::new("group I reference", &ls_classes(&w, 1..=3), w.duration),
        &mut [
            Arm::new("1 core", &mut one, runs),
            Arm::new("4 cores", &mut four, runs),
        ],
    );
    run.json.engine(&four);
    Verdict::default()
}

/// Ablation: locality-aware stream-index partitioning (§4.2).
///
/// With replication, a continuous query reads the stream index locally and
/// pays at most one RDMA read per remote value; without it, every remote
/// window lookup pays "an additional RDMA read" for the index itself. The
/// price of replication is injection-time messages to subscriber nodes.
pub(crate) fn exp_replication(run: &mut Run) -> Verdict {
    let nodes = 8;
    let w = run.ls_workload(", 8 nodes");
    let runs = run.scale.runs();
    let [mut replicated, mut partitioned] = [true, false].map(|replicate| {
        w.engine(EngineConfig {
            replicate_stream_indexes: replicate,
            // Hold execution in-place so the ablation isolates the
            // stream-access path.
            exec_mode: ExecMode::InPlace,
            ..EngineConfig::cluster(nodes)
        })
    });
    let cells = latency_grid(
        run,
        &Grid::new(
            "§4.2 ablation: stream-index replication (in-place execution)",
            &ls_classes(&w, 1..=lsbench::CONTINUOUS_CLASSES),
            w.duration,
        )
        .with_ratio("slowdown", 1, 0),
        &mut [
            Arm::new("replicated", &mut replicated, runs).recorded_as("replicated"),
            Arm::new("partitioned", &mut partitioned, runs).recorded_as("partitioned"),
        ],
    );
    let mean_reads = |arm: usize| {
        let reads = |row: &Vec<Option<Sample>>| {
            row[arm]
                .as_ref()
                .and_then(|s| s.fabric_per_exec)
                .expect("an engine arm")
                .0 as u64
        };
        cells.0.iter().map(reads).sum::<u64>() / lsbench::CONTINUOUS_CLASSES as u64
    };
    say!(
        run,
        "\nMean one-sided reads per execution: {} replicated vs {} partitioned",
        mean_reads(0),
        mean_reads(1),
    );
    run.json.engine(&replicated);
    Verdict::default()
}

/// Fig. 14: throughput of a 3-class mix (L1-L3) vs cluster size, plus the
/// latency CDF on 8 nodes (methodology: [`throughput_mix`]). Paper shape:
/// ~4.2× throughput from 2 to 8 nodes, ~1 M q/s peak, sub-ms median
/// latency.
pub(crate) fn fig14_throughput_mix3(run: &mut Run) -> Verdict {
    let variants = if run.scale == Scale::Tiny { 4 } else { 16 };
    let runs = (run.scale.runs() / 10).max(5);
    throughput_mix(run, "14", &[1, 2, 3], variants, runs);
    Verdict::default()
}

/// Fig. 15: throughput of the full 6-class mix (L1-L6) vs cluster size,
/// plus the latency CDF on 8 nodes (methodology: [`throughput_mix`]).
/// Paper shape: lower peak than the L1-L3 mix (~802 K q/s) but *super*
/// scaling (~5× from 2 to 8 nodes) because the group II queries
/// themselves get faster on more nodes.
pub(crate) fn fig15_throughput_mix6(run: &mut Run) -> Verdict {
    let variants = if run.scale == Scale::Tiny { 2 } else { 8 };
    let runs = (run.scale.runs() / 20).max(3);
    throughput_mix(run, "15", &[1, 2, 3, 4, 5, 6], variants, runs);
    Verdict::default()
}
