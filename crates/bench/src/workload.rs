//! Workload construction and the systems fed with it.

use std::sync::Arc;
use wukong_baselines::{Composite, CompositeProfile, SparkLike, SparkMode, WukongExt};
use wukong_benchdata::{CityBench, CityBenchConfig, LsBench, LsBenchConfig, TimedTuple};
use wukong_core::{EngineConfig, WukongS};
use wukong_rdf::{StringServer, Timestamp, Triple};
use wukong_stream::StreamSchema;

/// Experiment scale (`WUKONG_SCALE`: `tiny` | `small` | `paper`).
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
    pub(crate) fn ls_duration(self) -> Timestamp {
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

/// A fully generated workload, shareable across the systems compared on
/// it: generation is deterministic per seed, so two runs with the same
/// seed see identical triple streams.
pub struct Workload<G> {
    /// The shared string server (all engines must use it).
    pub strings: Arc<StringServer>,
    /// The generator (query rendering needs it).
    pub bench: G,
    /// The initially stored dataset.
    pub stored: Vec<Triple>,
    /// Stream tuples over `[0, duration)`, time-ordered.
    pub timeline: Vec<TimedTuple>,
    /// Stream-time extent of the timeline.
    pub duration: Timestamp,
    /// The stream schemas, in engine registration order.
    pub schemas: Vec<StreamSchema>,
}

/// The LSBench workload (five streams).
pub type LsWorkload = Workload<LsBench>;
/// The CityBench workload (eleven streams).
pub type CityWorkload = Workload<CityBench>;

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
    let schemas = bench.schemas();
    Workload {
        strings,
        bench,
        stored,
        timeline,
        duration,
        schemas,
    }
}

/// Builds the CityBench workload (paper-default rates; `scale` only
/// adjusts the driven duration — the real benchmark is tiny, §6.10) with
/// an explicit RNG seed.
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
    let schemas = bench.schemas();
    Workload {
        strings,
        bench,
        stored,
        timeline,
        duration,
        schemas,
    }
}

/// Loads a baseline system with the stored data, registers the streams
/// by name and feeds it the timeline (the baselines share these method
/// names, not a trait).
macro_rules! fed {
    ($workload:expr, $system:expr) => {{
        let mut system = $system;
        system.load_base($workload.stored.iter().copied());
        for name in $workload.stream_names() {
            system.register_stream(name);
        }
        for t in &$workload.timeline {
            system.ingest(t.stream, t.triple, t.timestamp);
        }
        system
    }};
}

impl<G> Workload<G> {
    /// A copy of the stream schemas (registration consumes them).
    pub fn schemas(&self) -> Vec<StreamSchema> {
        self.schemas.clone()
    }

    /// The stream names, in engine registration order.
    pub fn stream_names(&self) -> impl Iterator<Item = &str> {
        self.schemas.iter().map(|s| s.name.as_str())
    }

    /// Boots a Wukong+S deployment over the stored data with every
    /// stream registered and nothing fed yet.
    pub fn boot(&self, cfg: EngineConfig) -> WukongS {
        let engine = WukongS::with_strings(cfg, Arc::clone(&self.strings));
        engine.load_base(self.stored.iter().copied());
        for schema in self.schemas() {
            engine.register_stream(schema);
        }
        engine
    }

    /// Boots a Wukong+S deployment and feeds it the whole timeline.
    pub fn engine(&self, cfg: EngineConfig) -> WukongS {
        let engine = self.boot(cfg);
        for t in &self.timeline {
            engine.ingest(t.stream, t.triple, t.timestamp);
        }
        engine.advance_time(self.duration);
        engine
    }

    /// Boots a composite deployment (Storm/Heron+Wukong or
    /// CSPARQL-engine) and feeds it the same workload.
    pub fn composite(&self, profile: CompositeProfile) -> Composite {
        fed!(self, Composite::new(profile, Arc::clone(&self.strings)))
    }

    /// Boots a Spark-like deployment and feeds it the same workload.
    pub fn spark(&self, mode: SparkMode) -> SparkLike {
        fed!(self, SparkLike::new(mode, Arc::clone(&self.strings)))
    }

    /// Boots a Wukong/Ext deployment and feeds it the same workload.
    pub fn wukong_ext(&self, nodes: usize) -> WukongExt {
        fed!(self, WukongExt::new(nodes, Arc::clone(&self.strings)))
    }
}
