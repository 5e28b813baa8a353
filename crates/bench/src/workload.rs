//! Workload construction and engine feeding for the experiments.

use std::sync::Arc;
use wukong_baselines::{
    Composite, CompositePlan, CompositeProfile, ExecBreakdown, SparkLike, SparkMode, WukongExt,
};
use wukong_benchdata::{lsbench, CityBench, CityBenchConfig, LsBench, LsBenchConfig, TimedTuple};
use wukong_core::{EngineConfig, LatencyRecorder, WukongS};
use wukong_rdf::{StringServer, Timestamp, Triple};
use wukong_stream::StreamSchema;

/// Experiment scale, from `WUKONG_SCALE` (`tiny` | `small` | `paper`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// CI-sized: sub-second experiments.
    Tiny,
    /// Default: seconds per experiment.
    Small,
    /// Closer to the paper's proportions: minutes per experiment.
    Paper,
}

impl Scale {
    /// Reads the scale from the environment (default `small`).
    pub fn from_env() -> Scale {
        match std::env::var("WUKONG_SCALE").as_deref() {
            Ok("tiny") => Scale::Tiny,
            Ok("paper") => Scale::Paper,
            _ => Scale::Small,
        }
    }

    /// The LSBench generator configuration at this scale.
    pub fn ls_config(self) -> LsBenchConfig {
        match self {
            Scale::Tiny => LsBenchConfig {
                users: 200,
                rate_scale: 0.002,
                ..LsBenchConfig::default()
            },
            Scale::Small => LsBenchConfig {
                users: 2_000,
                rate_scale: 0.01,
                ..LsBenchConfig::default()
            },
            Scale::Paper => LsBenchConfig {
                users: 20_000,
                posts_per_user: 20,
                likes_per_user: 20,
                rate_scale: 0.05,
                ..LsBenchConfig::default()
            },
        }
    }

    /// Stream time to drive, ms.
    pub fn ls_duration(self) -> Timestamp {
        match self {
            Scale::Tiny => 1_500,
            Scale::Small => 3_000,
            Scale::Paper => 5_000,
        }
    }

    /// Latency samples per query class.
    pub fn runs(self) -> usize {
        match self {
            Scale::Tiny => 20,
            Scale::Small => 100,
            Scale::Paper => 100,
        }
    }
}

/// A fully generated LSBench workload, shareable across engines.
pub struct LsWorkload {
    /// The shared string server (all engines must use it).
    pub strings: Arc<StringServer>,
    /// The generator (query rendering needs it).
    pub bench: LsBench,
    /// The initially stored dataset.
    pub stored: Vec<Triple>,
    /// Stream tuples over `[0, duration)`, time-ordered.
    pub timeline: Vec<TimedTuple>,
    /// Stream-time extent of the timeline.
    pub duration: Timestamp,
}

/// The RNG seed experiments run with: `WUKONG_SEED` if set, else the
/// generator default (42). Generation is fully deterministic per seed,
/// so two runs with the same seed see identical triple streams.
pub fn seed_from_env() -> u64 {
    std::env::var("WUKONG_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// Builds the LSBench workload at `scale`, seeded from `WUKONG_SEED`.
pub fn ls_workload(scale: Scale) -> LsWorkload {
    ls_workload_seeded(scale, seed_from_env())
}

/// Builds the LSBench workload at `scale` with an explicit RNG seed.
pub fn ls_workload_seeded(scale: Scale, seed: u64) -> LsWorkload {
    ls_workload_with(scale.ls_config().with_seed(seed), scale.ls_duration())
}

/// Builds an LSBench workload with explicit parameters.
pub fn ls_workload_with(cfg: LsBenchConfig, duration: Timestamp) -> LsWorkload {
    let strings = Arc::new(StringServer::new());
    let mut bench = LsBench::new(cfg, Arc::clone(&strings));
    let stored = bench.stored_triples();
    let timeline = bench.generate(0, duration);
    LsWorkload {
        strings,
        bench,
        stored,
        timeline,
        duration,
    }
}

impl LsWorkload {
    /// The five stream schemas.
    pub fn schemas(&self) -> Vec<StreamSchema> {
        self.bench.schemas()
    }
}

/// A fully generated CityBench workload.
pub struct CityWorkload {
    /// The shared string server.
    pub strings: Arc<StringServer>,
    /// The generator.
    pub bench: CityBench,
    /// Stored metadata.
    pub stored: Vec<Triple>,
    /// Stream tuples over `[0, duration)`.
    pub timeline: Vec<TimedTuple>,
    /// Stream-time extent.
    pub duration: Timestamp,
}

/// Builds the CityBench workload (paper-default rates; `scale` only
/// adjusts the driven duration — the real benchmark is tiny, §6.10),
/// seeded from `WUKONG_SEED`.
pub fn city_workload(scale: Scale) -> CityWorkload {
    city_workload_seeded(scale, seed_from_env())
}

/// Builds the CityBench workload at `scale` with an explicit RNG seed.
pub fn city_workload_seeded(scale: Scale, seed: u64) -> CityWorkload {
    let strings = Arc::new(StringServer::new());
    let mut bench = CityBench::new(
        CityBenchConfig::default().with_seed(seed),
        Arc::clone(&strings),
    );
    let stored = bench.stored_triples();
    let duration = match scale {
        Scale::Tiny => 5_000,
        Scale::Small => 12_000,
        Scale::Paper => 30_000,
    };
    let timeline = bench.generate(0, duration);
    CityWorkload {
        strings,
        bench,
        stored,
        timeline,
        duration,
    }
}

impl CityWorkload {
    /// The eleven stream schemas.
    pub fn schemas(&self) -> Vec<StreamSchema> {
        self.bench.schemas()
    }
}

/// Boots a Wukong+S deployment and feeds it a workload.
pub fn feed_engine(
    cfg: EngineConfig,
    strings: &Arc<StringServer>,
    schemas: Vec<StreamSchema>,
    stored: &[Triple],
    timeline: &[TimedTuple],
    duration: Timestamp,
) -> WukongS {
    let engine = WukongS::with_strings(cfg, Arc::clone(strings));
    engine.load_base(stored.iter().copied());
    for schema in schemas {
        engine.register_stream(schema);
    }
    for t in timeline {
        engine.ingest(t.stream, t.triple, t.timestamp);
    }
    engine.advance_time(duration);
    engine
}

/// Boots a composite deployment (Storm/Heron+Wukong or CSPARQL-engine)
/// and feeds it the same workload.
pub fn feed_composite(
    profile: CompositeProfile,
    strings: &Arc<StringServer>,
    stream_names: &[&str],
    stored: &[Triple],
    timeline: &[TimedTuple],
) -> Composite {
    let mut c = Composite::new(profile, Arc::clone(strings));
    c.load_base(stored.iter().copied());
    for name in stream_names {
        c.register_stream(*name);
    }
    for t in timeline {
        c.ingest(t.stream, t.triple, t.timestamp);
    }
    c
}

/// Boots a Spark-like deployment and feeds it the same workload.
pub fn feed_spark(
    mode: SparkMode,
    strings: &Arc<StringServer>,
    stream_names: &[&str],
    stored: &[Triple],
    timeline: &[TimedTuple],
) -> SparkLike {
    let mut s = SparkLike::new(mode, Arc::clone(strings));
    s.load_base(stored.iter().copied());
    for name in stream_names {
        s.register_stream(*name);
    }
    for t in timeline {
        s.ingest(t.stream, t.triple, t.timestamp);
    }
    s
}

/// Boots a Wukong/Ext deployment and feeds it the same workload.
pub fn feed_wukong_ext(
    nodes: usize,
    strings: &Arc<StringServer>,
    stream_names: &[&str],
    stored: &[Triple],
    timeline: &[TimedTuple],
) -> WukongExt {
    let mut e = WukongExt::new(nodes, Arc::clone(strings));
    e.load_base(stored.iter().copied());
    for name in stream_names {
        e.register_stream(*name);
    }
    for t in timeline {
        e.ingest(t.stream, t.triple, t.timestamp);
    }
    e
}

/// Samples a registered Wukong+S query `runs` times.
pub fn sample_continuous(engine: &WukongS, id: usize, runs: usize) -> LatencyRecorder {
    let mut rec = LatencyRecorder::new();
    // One warm-up execution populates the plan cache, as the paper's
    // repeated-run methodology does.
    let _ = engine.execute_registered(id);
    for _ in 0..runs {
        let (_, ms) = engine.execute_registered(id);
        rec.record(ms);
    }
    rec
}

/// Worker threads per node the throughput figures model (§6.6).
const WORKERS_PER_NODE: f64 = 16.0;

/// Builds the per-class latency recorders for a class mix (Fig. 14/15).
pub fn measure_mix(
    engine: &WukongS,
    bench: &LsBench,
    classes: &[usize],
    variants: usize,
    runs_per_variant: usize,
) -> Vec<LatencyRecorder> {
    classes
        .iter()
        .map(|&class| {
            let mut rec = LatencyRecorder::new();
            for v in 0..variants {
                let id = engine
                    .register_continuous(&lsbench::continuous_query(bench, class, v))
                    .expect("register");
                for &ms in sample_continuous(engine, id, runs_per_variant).samples() {
                    rec.record(ms);
                }
            }
            rec
        })
        .collect()
}

/// Mix throughput by Little's law with reciprocal-latency class weights.
pub fn mix_throughput(recs: &[LatencyRecorder], nodes: usize) -> (f64, f64) {
    let lats: Vec<f64> = recs.iter().map(|r| r.mean().expect("samples")).collect();
    let inv_sum: f64 = lats.iter().map(|l| 1.0 / l).sum();
    // Weighted mean latency of the mix = k / Σ(1/L).
    let mean_ms = lats.len() as f64 / inv_sum;
    let thr = WORKERS_PER_NODE * nodes as f64 / (mean_ms / 1_000.0);
    (thr, mean_ms)
}

/// Samples a composite query `runs` times; returns latencies and the mean
/// breakdown.
pub fn sample_composite(
    c: &Composite,
    id: usize,
    now: Timestamp,
    plan: CompositePlan,
    runs: usize,
) -> (LatencyRecorder, ExecBreakdown) {
    let mut rec = LatencyRecorder::new();
    let mut sum = ExecBreakdown::default();
    for _ in 0..runs {
        let (_, bd) = c.execute(id, now, plan);
        rec.record(bd.total_ms());
        sum.stream_ms += bd.stream_ms;
        sum.store_ms += bd.store_ms;
        sum.cross_ms += bd.cross_ms;
        sum.crossings = bd.crossings;
    }
    let n = runs.max(1) as f64;
    sum.stream_ms /= n;
    sum.store_ms /= n;
    sum.cross_ms /= n;
    (rec, sum)
}

/// The LSBench stream names in engine registration order.
pub const LS_STREAMS: [&str; 5] = ["PO", "PO-L", "PH", "PH-L", "GPS"];

/// The CityBench stream names in engine registration order.
pub const CITY_STREAMS: [&str; 11] = [
    "VT1", "VT2", "WT", "UL", "PK1", "PK2", "PL1", "PL2", "PL3", "PL4", "PL5",
];
