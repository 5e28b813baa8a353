//! The latency grid (arms × query classes → a medians table and the
//! `{class}/{arm}` series) behind Tables 2/3/4/5/8/9, Fig. 12/13 and the
//! §6.4 / §4.2 ablations, and the throughput mix behind Fig. 14/15.

use crate::report::fmt_ms;
use crate::run::Run;
use crate::say;
use crate::workload::{ls_workload_seeded, LsWorkload};
use wukong_baselines::{Composite, CompositePlan, ExecBreakdown, SparkLike, WukongExt};
use wukong_benchdata::lsbench;
use wukong_core::metrics::geometric_mean;
use wukong_core::{EngineConfig, LatencyRecorder, WukongS};
use wukong_query::QueryError;
use wukong_rdf::Timestamp;

/// What sampling one registered query yields.
pub struct Sample {
    /// The latencies, ms.
    pub rec: LatencyRecorder,
    /// A composite system's mean per-execution cost breakdown.
    pub parts: Option<ExecBreakdown>,
    /// Fabric operations per execution, `(one-sided reads, messages)`,
    /// for systems that run on the simulated fabric.
    pub fabric_per_exec: Option<(f64, f64)>,
    /// Stream-index hash probes per execution, for Wukong+S.
    pub window_probes_per_exec: Option<f64>,
}

impl Sample {
    /// Latencies alone: no breakdown, no fabric operations.
    pub fn of(rec: LatencyRecorder) -> Self {
        Sample {
            rec,
            parts: None,
            fabric_per_exec: None,
            window_probes_per_exec: None,
        }
    }

    /// The median latency, ms.
    pub fn median(&self) -> f64 {
        self.rec.median().expect("samples")
    }
}

/// A system a latency grid can measure: Wukong+S under some
/// configuration, or one of the baselines.
pub trait Contender {
    /// Registers a continuous query.
    fn register(&mut self, text: &str) -> Result<usize, QueryError>;
    /// Executes registered query `id` `runs` times with windows ending at
    /// `now`.
    fn sample(&self, id: usize, now: Timestamp, runs: usize) -> Sample;
}

impl Contender for WukongS {
    fn register(&mut self, text: &str) -> Result<usize, QueryError> {
        self.register_continuous(text)
    }

    fn sample(&self, id: usize, _now: Timestamp, runs: usize) -> Sample {
        let plan = self.cluster().obs().plan();
        let before = (self.cluster().fabric().metrics(), plan.snapshot());
        let rec = sample_continuous(self, id, runs);
        let ops = before.0.delta(&self.cluster().fabric().metrics());
        let probes = before.1.delta(&plan.snapshot()).window_probes;
        // The warm-up execution counts: it reads like every other one.
        let execs = (runs + 1) as f64;
        Sample {
            fabric_per_exec: Some((
                ops.one_sided_reads as f64 / execs,
                ops.messages as f64 / execs,
            )),
            window_probes_per_exec: Some(probes as f64 / execs),
            ..Sample::of(rec)
        }
    }
}

impl Contender for Composite {
    fn register(&mut self, text: &str) -> Result<usize, QueryError> {
        self.register_continuous(text)
    }

    fn sample(&self, id: usize, now: Timestamp, runs: usize) -> Sample {
        let (rec, parts) = sample_composite(self, id, now, CompositePlan::Interleaved, runs);
        Sample {
            parts: Some(parts),
            ..Sample::of(rec)
        }
    }
}

/// The Spark-like engines and Wukong/Ext report one latency per execution.
macro_rules! contender_by_execute {
    ($($System:ty),+) => {$(
        impl Contender for $System {
            fn register(&mut self, text: &str) -> Result<usize, QueryError> {
                self.register_continuous(text)
            }

            fn sample(&self, id: usize, now: Timestamp, runs: usize) -> Sample {
                Sample::of(record(runs, || self.execute(id, now).1))
            }
        }
    )+};
}
contender_by_execute!(SparkLike, WukongExt);

/// Records `runs` latencies of `once`.
pub fn record(runs: usize, mut once: impl FnMut() -> f64) -> LatencyRecorder {
    let mut rec = LatencyRecorder::new();
    for _ in 0..runs {
        rec.record(once());
    }
    rec
}

/// Samples a registered Wukong+S query `runs` times.
pub(crate) fn sample_continuous(engine: &WukongS, id: usize, runs: usize) -> LatencyRecorder {
    // One warm-up execution populates the plan cache, as the paper's
    // repeated-run methodology does.
    let _ = engine.execute_registered(id);
    record(runs, || engine.execute_registered(id).1)
}

/// Samples a composite query `runs` times; returns latencies and the mean
/// breakdown.
pub(crate) fn sample_composite(
    c: &Composite,
    id: usize,
    now: Timestamp,
    plan: CompositePlan,
    runs: usize,
) -> (LatencyRecorder, ExecBreakdown) {
    let mut sum = ExecBreakdown::default();
    let rec = record(runs, || {
        let (_, bd) = c.execute(id, now, plan);
        sum.stream_ms += bd.stream_ms;
        sum.store_ms += bd.store_ms;
        sum.cross_ms += bd.cross_ms;
        sum.crossings = bd.crossings;
        bd.total_ms()
    });
    let n = runs.max(1) as f64;
    sum.stream_ms /= n;
    sum.store_ms /= n;
    sum.cross_ms /= n;
    (rec, sum)
}

/// One arm of a latency grid: a column of the printed table.
pub struct Arm<'a> {
    /// Column header.
    pub header: &'a str,
    /// The system measured.
    pub who: &'a mut dyn Contender,
    /// Executions per class (slow baselines take a tenth of the samples).
    pub runs: usize,
    /// `Some(name)` records every cell as the `{class}/{name}` latency
    /// series — and, for a system on the simulated fabric, the
    /// `{class}/{name}/reads_per_exec`, `…/messages_per_exec` and
    /// `…/window_probes_per_exec` counters.
    pub series: Option<String>,
    /// Headers of the two sub-columns a composite system's breakdown
    /// adds: stream-processor side (with the crossing cost) and store
    /// side (`-` for a query with no stored part).
    pub parts: Option<[&'a str; 2]>,
}

impl<'a> Arm<'a> {
    /// An arm printed in the table only (a reference column).
    pub fn new(header: &'a str, who: &'a mut dyn Contender, runs: usize) -> Self {
        Arm {
            header,
            who,
            runs,
            series: None,
            parts: None,
        }
    }

    /// This arm, also recorded in the JSON report as series `name`.
    pub(crate) fn recorded_as(self, name: &str) -> Self {
        Arm {
            series: Some(name.to_string()),
            ..self
        }
    }

    /// This arm with the composite breakdown sub-columns.
    pub(crate) fn with_parts(self, stream_side: &'a str, store_side: &'a str) -> Self {
        Arm {
            parts: Some([stream_side, store_side]),
            ..self
        }
    }
}

/// The shape of one printed latency table.
pub struct Grid<'a> {
    /// Table title.
    pub title: &'a str,
    /// `(row label, query text)` per class, e.g. `("L1", "REGISTER …")`.
    pub classes: &'a [(String, String)],
    /// Stream time the sampled windows end at.
    pub now: Timestamp,
    /// A last column `arm[slower] / arm[faster]`: `(header, slower,
    /// faster)`.
    pub ratio: Option<(&'a str, usize, usize)>,
    /// Whether to close the table with a geometric-mean row.
    pub geo_mean: bool,
}

impl<'a> Grid<'a> {
    /// A table of medians only, sampled with windows ending at `now`.
    pub fn new(title: &'a str, classes: &'a [(String, String)], now: Timestamp) -> Self {
        Grid {
            title,
            classes,
            now,
            ratio: None,
            geo_mean: false,
        }
    }

    /// This table with a last column `arm[slower] / arm[faster]`.
    pub(crate) fn with_ratio(self, header: &'a str, slower: usize, faster: usize) -> Self {
        Grid {
            ratio: Some((header, slower, faster)),
            ..self
        }
    }

    /// This table closed by a geometric-mean row.
    pub(crate) fn with_geo_mean(self) -> Self {
        Grid {
            geo_mean: true,
            ..self
        }
    }
}

/// The sampled cells of a grid, `cells[class][arm]`; `None` where the
/// arm's system rejected the class as unsupported.
pub struct GridCells(pub Vec<Vec<Option<Sample>>>);

impl GridCells {
    /// Geometric mean of arm `arm`'s medians; `None` if the arm could not
    /// run every class.
    pub(crate) fn geo_mean(&self, arm: usize) -> Option<f64> {
        let medians: Option<Vec<f64>> = self
            .0
            .iter()
            .map(|row| row[arm].as_ref().map(Sample::median))
            .collect();
        geometric_mean(medians?)
    }
}

fn ratio_cell(slower: Option<f64>, faster: Option<f64>) -> String {
    match (slower, faster) {
        (Some(s), Some(f)) => format!("{:.1}X", s / f.max(1e-9)),
        _ => String::new(),
    }
}

/// Registers every class on every arm, samples each arm × class cell,
/// prints the medians table and records the series and counters of the
/// arms that ask for it.
pub(crate) fn latency_grid(run: &mut Run, grid: &Grid<'_>, arms: &mut [Arm<'_>]) -> GridCells {
    // Arm-major registration: on every system, query ids follow class order.
    let ids: Vec<Vec<Option<usize>>> = arms
        .iter_mut()
        .map(|arm| {
            grid.classes
                .iter()
                .map(|(label, text)| match arm.who.register(text) {
                    Ok(id) => Some(id),
                    Err(QueryError::Unsupported(_)) => None,
                    Err(e) => panic!("{} cannot register {label}: {e}", arm.header),
                })
                .collect()
        })
        .collect();

    let mut cols = vec!["query"];
    for arm in arms.iter() {
        cols.push(arm.header);
        cols.extend(arm.parts.iter().flatten());
    }
    cols.extend(grid.ratio.map(|(header, _, _)| header));
    run.header(grid.title, &cols);

    let mut cells = GridCells(Vec::new());
    for (c, (label, _)) in grid.classes.iter().enumerate() {
        let mut row = vec![label.clone()];
        let mut samples = Vec::new();
        for (arm, ids) in arms.iter().zip(&ids) {
            let sample = ids[c].map(|id| arm.who.sample(id, grid.now, arm.runs));
            row.push(sample.as_ref().map_or("x".into(), |s| fmt_ms(s.median())));
            if let (Some(name), Some(s)) = (&arm.series, &sample) {
                let series = format!("{label}/{name}");
                run.json.series(&series, &s.rec);
                if let Some((reads, messages)) = s.fabric_per_exec {
                    run.json.counter(&format!("{series}/reads_per_exec"), reads);
                    run.json
                        .counter(&format!("{series}/messages_per_exec"), messages);
                }
                if let Some(probes) = s.window_probes_per_exec {
                    run.json
                        .counter(&format!("{series}/window_probes_per_exec"), probes);
                }
            }
            if arm.parts.is_some() {
                let bd = sample.as_ref().and_then(|s| s.parts).unwrap_or_default();
                row.push(fmt_ms(bd.stream_ms + bd.cross_ms));
                // Exactly zero means no stored segment ran: the paper
                // prints "-" for stream-only queries.
                row.push(if bd.store_ms == 0.0 {
                    "-".into()
                } else {
                    fmt_ms(bd.store_ms)
                });
            }
            samples.push(sample);
        }
        if let Some((_, slower, faster)) = grid.ratio {
            let median = |arm: usize| samples[arm].as_ref().map(Sample::median);
            row.push(ratio_cell(median(slower), median(faster)));
        }
        run.row(row);
        cells.0.push(samples);
    }

    if grid.geo_mean {
        let mut row = vec!["Geo.M".to_string()];
        for (a, arm) in arms.iter().enumerate() {
            row.push(cells.geo_mean(a).map_or(String::new(), fmt_ms));
            row.extend(arm.parts.iter().flatten().map(|_| String::new()));
        }
        if let Some((_, slower, faster)) = grid.ratio {
            row.push(ratio_cell(cells.geo_mean(slower), cells.geo_mean(faster)));
        }
        run.row(row);
    }
    cells
}

/// The `(label, text)` class list of LSBench's continuous classes
/// `classes` (variant 0).
pub(crate) fn ls_classes(
    w: &LsWorkload,
    classes: impl IntoIterator<Item = usize>,
) -> Vec<(String, String)> {
    classes
        .into_iter()
        .map(|c| (format!("L{c}"), lsbench::continuous_query(&w.bench, c, 0)))
        .collect()
}

/// Worker threads per node the throughput figures model (§6.6).
const WORKERS_PER_NODE: f64 = 16.0;

/// Fig. 14/15: throughput of a class mix vs cluster size, plus the
/// latency CDF on 8 nodes.
///
/// Methodology (documented in `EXPERIMENTS.md`): the paper runs 16 worker
/// threads per node and reports aggregate queries/second; this host has a
/// single core, so aggregate throughput is computed by Little's law —
/// `16 workers × nodes / mean mix latency` — with the per-query latency
/// (compute + charged network time) measured over registered query
/// variants whose home nodes spread across the cluster. The class mix
/// follows the paper: proportions are the reciprocal of each class's
/// average latency.
pub(crate) fn throughput_mix(
    run: &mut Run,
    fig: &str,
    classes: &[usize],
    variants: usize,
    runs_per_variant: usize,
) {
    let mix = format!("L{}-L{}", classes[0], classes[classes.len() - 1]);
    let w = ls_workload_seeded(run.scale, run.seed);
    let scale = run.scale;
    say!(
        run,
        "LSBench mix {mix}: {variants} variants/class, {runs_per_variant} runs/variant (scale {scale:?})"
    );

    run.header(
        &format!("Fig {fig}a: throughput vs nodes (mix {mix})"),
        &["nodes", "q/s", "mean lat ms"],
    );
    let mut throughputs = Vec::new();
    let mut last_recs = Vec::new();
    for nodes in 2..=8usize {
        let engine = w.engine(EngineConfig::cluster(nodes));
        let recs: Vec<LatencyRecorder> = classes
            .iter()
            .map(|&class| {
                let mut rec = LatencyRecorder::new();
                for v in 0..variants {
                    let id = engine
                        .register_continuous(&lsbench::continuous_query(&w.bench, class, v))
                        .expect("register");
                    for &ms in sample_continuous(&engine, id, runs_per_variant).samples() {
                        rec.record(ms);
                    }
                }
                rec
            })
            .collect();
        // Little's law with reciprocal-latency class weights: the mix's
        // weighted mean latency is k / Σ(1/L).
        let inv_sum: f64 = recs.iter().map(|r| 1.0 / r.mean().expect("samples")).sum();
        let mean_ms = recs.len() as f64 / inv_sum;
        let thr = WORKERS_PER_NODE * nodes as f64 / (mean_ms / 1_000.0);
        run.json
            .counter(&format!("throughput_qps/nodes{nodes}"), thr);
        if nodes == 8 {
            for (class, rec) in classes.iter().zip(&recs) {
                run.json.series(&format!("L{class}/nodes8"), rec);
            }
            run.json.engine(&engine);
        }
        run.row(vec![
            nodes.to_string(),
            format!("{thr:.0}"),
            fmt_ms(mean_ms),
        ]);
        throughputs.push(thr);
        last_recs = recs;
    }
    say!(
        run,
        "\n2→8-node throughput scaling: {:.1}X",
        throughputs[throughputs.len() - 1] / throughputs[0]
    );

    run.header(
        &format!("Fig {fig}b: latency CDF on 8 nodes (ms at percentile)"),
        &["query", "p50", "p90", "p99", "p100"],
    );
    for (class, rec) in classes.iter().zip(&last_recs) {
        let mut row = vec![format!("L{class}")];
        row.extend([50.0, 90.0, 99.0, 100.0].map(|p| fmt_ms(rec.percentile(p).expect("samples"))));
        run.row(row);
    }
}
