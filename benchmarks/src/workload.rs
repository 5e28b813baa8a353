//! The four named workloads, their seeded inputs, and the pinned engine
//! configuration.
//!
//! Everything a pass feeds the engine is generated here from
//! `(workload, seed, rounds)` alone; the engine only ever sees the
//! generated triples, tuples and query texts.

use crate::verify::Fnv;
use std::sync::Arc;
use std::time::Instant;
use wukong_benchdata::lsbench::{continuous_query, oneshot_query};
use wukong_benchdata::{LsBench, LsBenchConfig, TimedTuple};
use wukong_core::EngineConfig;
use wukong_obs::Json;
use wukong_rdf::{Pid, StringServer, Timestamp, Triple};
use wukong_stream::StreamSchema;

/// Mini-batch interval of every LSBench stream, ms: one round of the
/// closed loop feeds exactly one batch interval of stream time.
pub const BATCH_MS: Timestamp = 100;
/// Rounds (batch intervals) of one pass: 12 s of stream, and the fewest
/// that leave p90 its ten samples beyond with some to spare.
pub const ROUNDS: usize = 120;
/// Rounds of a `--smoke` pass: 2 s of stream.
pub const SMOKE_ROUNDS: usize = 20;
/// Users in the stored graph (20 posts + 20 likes each ≈ 770 K triples).
pub const USERS: usize = 10_000;
/// Variants the light one-shot classes S2/S3/S5 cycle through.
pub const LIGHT_VARIANTS: usize = 64;
/// The selective (light) one-shot classes of Table 8.
pub const LIGHT_CLASSES: [usize; 3] = [2, 3, 5];
/// The non-selective (heavy) one-shot classes of Table 8.
pub const HEAVY_CLASSES: [usize; 3] = [1, 4, 6];
/// `execute_registered` repetitions per probe class L1–L6: the two heavy
/// join classes get fewer so the probe stays a small share of a pass.
pub const PROBE_REPS: [usize; 6] = [20, 20, 20, 20, 3, 3];

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Which layers it stresses and which change it is meant to catch.
    pub why: &'static str,
    /// Simulated cluster nodes (1 or 8).
    pub nodes: usize,
    /// Multiplier on the paper's 133.5 K tuples/s aggregate stream rate.
    pub rate_scale: f64,
    /// Variants of each selective class L1–L3 registered as standing
    /// continuous queries.
    pub selective_variants: usize,
    /// Whether the join classes L4, L5, L6 are also registered, once each.
    pub join_classes: bool,
    /// Light one-shots (S2/S3/S5) issued after every round's firings.
    pub light_per_round: usize,
    /// A heavy one-shot (S1/S4/S6 in turn) is issued every this many rounds.
    pub heavy_every: usize,
    /// The engine calls this workload exists to stress, and the share of
    /// the traced pass's round loop they must take together.
    pub stresses: (&'static [&'static str], f64),
}

/// The benchmark's workloads.
pub const SPECS: [Spec; 4] = [
    Spec {
        name: "ingest_firehose",
        why: "High-rate ingest, six cheap standing queries: wall is stream::{adaptor,dispatcher,injector} and store::{persistent,stream_index,transient,gc}; a query-side change must not move it.",
        nodes: 1,
        rate_scale: 0.5,
        selective_variants: 2,
        join_classes: false,
        light_per_round: 2,
        heavy_every: 40,
        stresses: (&["core.ingest", "core.advance_time"], 0.90),
    },
    Spec {
        name: "standing_fanout",
        why: "420 selective standing queries with tiny results at a low stream rate: isolates the per-firing fixed cost in core fire_ready (window extraction, plan interpretation, allocation, result emit).",
        nodes: 1,
        rate_scale: 0.05,
        selective_variants: 140,
        join_classes: false,
        light_per_round: 2,
        heavy_every: 40,
        stresses: (&["core.fire_ready"], 0.55),
    },
    Spec {
        name: "oneshot_under_ingest",
        why: "L4-L6 joins plus 20 light and periodic heavy one-shots per round beside injector appends: wall is query::{parser,planner,executor} and snapshot reads; a write-path gain that costs reads shows.",
        nodes: 1,
        rate_scale: 0.01,
        selective_variants: 2,
        join_classes: true,
        light_per_round: 20,
        heavy_every: 10,
        stresses: (&["core.fire_ready", "core.one_shot"], 0.70),
    },
    Spec {
        name: "cluster8_mix",
        why: "The same mix on EngineConfig::cluster(8): the only workload with 8-way dispatch, fork-join, remote one-sided reads and net::fabric charges; catches wall time bought with extra fabric operations.",
        nodes: 8,
        rate_scale: 0.01,
        selective_variants: 8,
        join_classes: true,
        light_per_round: 4,
        heavy_every: 20,
        stresses: (&["core.fire_ready", "core.one_shot"], 0.70),
    },
];

/// Looks a workload up by name.
pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// The engine configuration every pass runs under, pinned in code.
///
/// The presets read `WUKONG_WORKERS/INCREMENTAL/ADAPTIVE/TRACE/
/// INGEST_BUDGET` from the environment; every such field is overwritten
/// here so a stray variable cannot change what a run measures.
pub fn engine_config(nodes: usize) -> EngineConfig {
    let preset = if nodes == 1 {
        EngineConfig::single_node()
    } else {
        EngineConfig::cluster(nodes)
    };
    EngineConfig {
        worker_threads: 1,
        incremental: false,
        adaptive: false,
        trace: true,
        ingest_budget: None,
        fault_plan: None,
        ..preset
    }
}

/// Everything one run replays, generated from `(spec, seed, rounds)`.
pub struct Inputs {
    /// The workload.
    pub spec: &'static Spec,
    /// Generator seed.
    pub seed: u64,
    /// Rounds (batch intervals) per pass.
    pub rounds: usize,
    /// A heavy one-shot runs every this many rounds: the workload's own
    /// cadence, tightened on short runs so each heavy class still runs.
    pub heavy_every: usize,
    /// The generator (renders further query variants).
    pub bench: LsBench,
    /// String server shared by the generator and every pass's engine.
    pub strings: Arc<StringServer>,
    /// The five stream schemas, in registration order.
    pub schemas: Vec<StreamSchema>,
    /// Predicates whose tuples are timing data (kept in the transient
    /// ring, never absorbed into the store).
    pub timing_predicates: Vec<Pid>,
    /// Initially stored triples.
    pub stored: Vec<Triple>,
    /// Stream tuples, time-ordered.
    pub timeline: Vec<TimedTuple>,
    /// `timeline[round_end[k-1]..round_end[k]]` is round `k`'s slice.
    pub round_end: Vec<usize>,
    /// Standing continuous queries, in registration order, with their
    /// LSBench class.
    pub standing: Vec<(usize, String)>,
    /// Probe queries L1–L6 registered at the end of a pass.
    pub probe: Vec<String>,
    /// Light one-shot texts, `LIGHT_CLASSES × LIGHT_VARIANTS`.
    pub light: Vec<String>,
    /// Heavy one-shots in issue order; the `h`-th is of class
    /// `HEAVY_CLASSES[h % 3]`.
    pub heavy: Vec<String>,
    /// FNV digest of every generated input.
    pub digest: u64,
    /// Wall time generation took, seconds.
    pub generate_s: f64,
}

impl Inputs {
    /// Generates the inputs of `spec` for `seed` and `rounds`.
    pub fn generate(spec: &'static Spec, seed: u64, rounds: usize) -> Inputs {
        let t0 = Instant::now();
        let strings = Arc::new(StringServer::new());
        let mut bench = LsBench::new(generator_config(spec, seed), Arc::clone(&strings));
        let stored = bench.stored_triples();
        let timeline = bench.generate(0, rounds as Timestamp * BATCH_MS);
        let round_end = (1..=rounds)
            .map(|k| timeline.partition_point(|t| t.timestamp <= k as Timestamp * BATCH_MS))
            .collect();

        let mut standing = Vec::new();
        for v in 0..spec.selective_variants {
            for class in 1..=3 {
                standing.push((class, continuous_query(&bench, class, v)));
            }
        }
        if spec.join_classes {
            for class in 4..=6 {
                standing.push((class, continuous_query(&bench, class, 0)));
            }
        }
        let probe = (1..=6)
            .map(|class| continuous_query(&bench, class, 1_000 + class))
            .collect();
        let light = LIGHT_CLASSES
            .iter()
            .flat_map(|&class| (0..LIGHT_VARIANTS).map(move |v| (class, v)))
            .map(|(class, v)| oneshot_query(&bench, class, v))
            .collect();
        let heavy_every = spec.heavy_every.min(rounds / HEAVY_CLASSES.len()).max(1);
        let heavy = (0..rounds / heavy_every)
            .map(|h| oneshot_query(&bench, HEAVY_CLASSES[h % HEAVY_CLASSES.len()], h))
            .collect();

        let schemas = bench.schemas();
        let mut inputs = Inputs {
            spec,
            seed,
            rounds,
            heavy_every,
            timing_predicates: schemas
                .iter()
                .flat_map(|s| s.timing_predicates.iter().copied())
                .collect(),
            schemas,
            bench,
            strings,
            stored,
            timeline,
            round_end,
            standing,
            probe,
            light,
            heavy,
            digest: 0,
            generate_s: 0.0,
        };
        inputs.digest = inputs.compute_digest();
        inputs.generate_s = t0.elapsed().as_secs_f64();
        inputs
    }

    fn compute_digest(&self) -> u64 {
        let mut h = Fnv::new();
        for t in &self.stored {
            h.triple(t);
        }
        for t in &self.timeline {
            h.word(u64::from(t.stream.0));
            h.word(t.timestamp);
            h.triple(&t.triple);
        }
        let texts = self
            .standing
            .iter()
            .map(|(_, q)| q)
            .chain(&self.probe)
            .chain(&self.light)
            .chain(&self.heavy);
        for q in texts {
            h.bytes(q.as_bytes());
        }
        h.finish()
    }

    /// Registration index of the stream called `name`.
    ///
    /// # Panics
    ///
    /// Panics on a name that is not one of the five LSBench streams.
    pub fn stream_index(&self, name: &str) -> usize {
        self.schemas
            .iter()
            .position(|s| s.name == name)
            .unwrap_or_else(|| panic!("{name} is not an LSBench stream"))
    }

    /// Round `k`'s slice of the timeline (0-based).
    pub fn round_tuples(&self, k: usize) -> &[TimedTuple] {
        let lo = if k == 0 { 0 } else { self.round_end[k - 1] };
        &self.timeline[lo..self.round_end[k]]
    }

    /// The light one-shot issued as the `n`-th of the pass. 3 and 64 are
    /// coprime, so the schedule walks all 192 (class, variant) pairs.
    pub fn light_shot(&self, n: usize) -> &str {
        &self.light[(n % LIGHT_CLASSES.len()) * LIGHT_VARIANTS + n % LIGHT_VARIANTS]
    }

    /// The heavy one-shot issued after round `k` (0-based), if any.
    pub fn heavy_shot(&self, k: usize) -> Option<&str> {
        (k + 1)
            .is_multiple_of(self.heavy_every)
            .then(|| self.heavy[(k + 1) / self.heavy_every - 1].as_str())
    }

    /// Nominal aggregate input rate, tuples per second of stream time.
    pub fn nominal_tps(&self) -> f64 {
        wukong_benchdata::lsbench::PAPER_RATES.iter().sum::<f64>() * self.spec.rate_scale
    }

    /// The self-description every output JSON carries.
    pub fn describe(&self) -> Json {
        let g = generator_config(self.spec, self.seed);
        let cfg = engine_config(self.spec.nodes);
        let mut generator = Json::object();
        generator
            .set("benchmark", "lsbench".into())
            .set("users", g.users.into())
            .set("follows_per_user", g.follows_per_user.into())
            .set("posts_per_user", g.posts_per_user.into())
            .set("likes_per_user", g.likes_per_user.into())
            .set("photos_per_user", g.photos_per_user.into())
            .set("hashtags", g.hashtags.into())
            .set("gps_cells", g.gps_cells.into())
            .set("rate_scale", g.rate_scale.into())
            .set("batch_ms", BATCH_MS.into());
        let mut engine = Json::object();
        engine
            .set("nodes", cfg.nodes.into())
            .set("worker_threads", cfg.worker_threads.into())
            .set("incremental", cfg.incremental.into())
            .set("adaptive", cfg.adaptive.into())
            .set("flight_recorder", cfg.trace.into())
            .set("ingest_budget", Json::Null)
            .set("fault_plan", Json::Null)
            .set("exec_mode", Json::Str(format!("{:?}", cfg.exec_mode)))
            .set("partitions_per_shard", cfg.partitions_per_shard.into());
        let mut j = Json::object();
        j.set("workload", self.spec.name.into())
            .set("why", self.spec.why.into())
            .set("seed", self.seed.into())
            .set("rounds", self.rounds.into())
            .set("input_digest", Json::Str(format!("{:016x}", self.digest)))
            .set("stored_triples", Json::Num(self.stored.len() as f64))
            .set("stream_tuples", Json::Num(self.timeline.len() as f64))
            .set("nominal_tuples_per_s", self.nominal_tps().into())
            .set("standing_queries", Json::Num(self.standing.len() as f64))
            .set("light_oneshots_per_round", self.spec.light_per_round.into())
            .set("heavy_oneshot_every_rounds", self.heavy_every.into())
            .set("load", "closed loop, one thread".into())
            .set("generator", generator)
            .set("engine", engine);
        j
    }
}

fn generator_config(spec: &Spec, seed: u64) -> LsBenchConfig {
    LsBenchConfig {
        users: USERS,
        posts_per_user: 20,
        likes_per_user: 20,
        rate_scale: spec.rate_scale,
        seed,
        ..LsBenchConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_resolvable() {
        for s in &SPECS {
            assert_eq!(spec(s.name).map(|x| x.name), Some(s.name));
            assert!(
                s.why.len() <= 200,
                "{}: why is {} chars",
                s.name,
                s.why.len()
            );
        }
        assert!(spec("nope").is_none());
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let s = spec("oneshot_under_ingest").unwrap();
        let a = Inputs::generate(s, 5, SMOKE_ROUNDS);
        let b = Inputs::generate(s, 5, SMOKE_ROUNDS);
        let c = Inputs::generate(s, 6, SMOKE_ROUNDS);
        assert_eq!(a.digest, b.digest);
        assert_ne!(a.digest, c.digest);
        assert_eq!(a.round_end.len(), SMOKE_ROUNDS);
        assert_eq!(*a.round_end.last().unwrap(), a.timeline.len());
        assert_eq!(
            a.heavy_every, 6,
            "tightened from {} on a 20-round run",
            s.heavy_every
        );
        assert_eq!(a.heavy.len(), SMOKE_ROUNDS / a.heavy_every);
        assert!(a.heavy_shot(a.heavy_every - 1).is_some());
        assert!(a.heavy_shot(0).is_none());
    }

    /// The only test that touches the environment: the presets read these
    /// variables, the benchmark must not.
    #[test]
    fn environment_cannot_change_config_or_inputs() {
        let s = spec("cluster8_mix").unwrap();
        let cfg_before = format!("{:?}", engine_config(s.nodes));
        let digest_before = Inputs::generate(s, 42, SMOKE_ROUNDS).digest;
        for (k, v) in [
            ("WUKONG_WORKERS", "4"),
            ("WUKONG_INCREMENTAL", "1"),
            ("WUKONG_ADAPTIVE", "1"),
            ("WUKONG_TRACE", "0"),
            ("WUKONG_INGEST_BUDGET", "100"),
            ("WUKONG_SEED", "9"),
        ] {
            std::env::set_var(k, v);
        }
        let cfg_after = format!("{:?}", engine_config(s.nodes));
        let digest_after = Inputs::generate(s, 42, SMOKE_ROUNDS).digest;
        assert_eq!(cfg_before, cfg_after);
        assert_eq!(digest_before, digest_after);
        let cfg = engine_config(1);
        assert_eq!(cfg.worker_threads, 1);
        assert!(!cfg.incremental && !cfg.adaptive && cfg.trace);
        assert!(cfg.ingest_budget.is_none() && cfg.fault_plan.is_none());
    }
}
