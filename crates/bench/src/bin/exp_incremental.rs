//! Incremental (delta-maintenance) vs recompute execution across
//! window-overlap regimes.
//!
//! One seeded join fan-out workload — a small object domain makes the
//! `?X po ?Z . ?Y li ?Z` join the dominant cost, the way the paper's
//! group II queries are join-bound — runs through two otherwise
//! identical single-node deployments: one recomputing every firing from
//! the full window, one maintaining per-query state and processing only
//! the inserted suffix / expired prefix (`EngineConfig::incremental`,
//! DESIGN.md §10). Four window RANGEs over the same 100 ms STEP sweep
//! the overlap fraction a sliding firing reuses:
//!
//! | RANGE   | overlap | modeled floor `1/(d(1+s))` |
//! |---------|---------|----------------------------|
//! | 100 ms  | 0% (tumbling) | 1.00x                |
//! | 200 ms  | 50%     | 1.33x                      |
//! | 400 ms  | 75%     | 2.29x                      |
//! | 1000 ms | 90%     | 5.26x                      |
//!
//! Two things are gated per regime:
//!
//! - **Equivalence.** Both runs fold their firing sequences into an
//!   FNV-1a hash (window ends + every row in engine order); any
//!   difference fails the run. The modes must be byte-identical.
//! - **Modeled cost.** The work a mode *materializes*: full-width
//!   binding rows built per firing, counted from real execution.
//!   Recompute materializes the whole window result every firing
//!   (`Σ |result|`); maintenance materializes only the fresh delta rows
//!   (the engine's `rows_recomputed` counter — retraction drops rows
//!   without re-deriving anything). Their ratio is the modeled speedup;
//!   a window sliding by `d = 1 - s` of its range re-derives a
//!   `d(1+s)` fraction, so 75% overlap must clear its ~2.3x floor —
//!   the run fails below 2x. Because the workload is seeded and firing
//!   streams are deterministic, this gate is wall-clock-noise-free: a
//!   drop means the delta path materialized more than the delta.
//!
//! Wall time (sum of per-firing `latency_ms`, best of [`REPS`]
//! repetitions) is reported alongside for context; it includes the
//! shared result-emission floor — projection and canonical sort of the
//! identical full-window result — which both modes pay every firing.
//!
//! `--quick` shrinks the timeline (CI smoke); `--json <path>` writes the
//! machine-readable report (schema v4, including the `incremental`
//! member).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use wukong_bench::{fmt_ms, print_header, print_row, BenchJson};
use wukong_core::{EngineConfig, WukongS};
use wukong_obs::{Fnv64, IncrementalSnapshot};
use wukong_rdf::{StreamId, StringServer, Triple, Vid};
use wukong_stream::StreamSchema;

/// Mini-batch interval and window STEP, ms.
const INTERVAL_MS: u64 = 100;
/// Join fan-out: subjects per side.
const SUBJECTS: u64 = 40;
/// Join fan-out: shared-object domain (small ⇒ join-bound).
const OBJECTS: u64 = 4;
/// Repetitions per (regime, mode); wall-clock noise is almost entirely
/// upward, so the minimum total cost is the stable estimator.
const REPS: usize = 3;

struct Workload {
    strings: Arc<StringServer>,
    /// `(triple, raw timestamp)`, time-ordered.
    timeline: Vec<(Triple, u64)>,
    duration: u64,
}

fn workload(seed: u64, duration: u64, per_batch: u64) -> Workload {
    let strings = Arc::new(StringServer::new());
    let subjects: Vec<Vid> = (0..SUBJECTS)
        .map(|i| strings.intern_entity(&format!("s{i}")).expect("interns"))
        .collect();
    let objects: Vec<Vid> = (0..OBJECTS)
        .map(|i| strings.intern_entity(&format!("o{i}")).expect("interns"))
        .collect();
    let po = strings.intern_predicate("po").expect("interns");
    let li = strings.intern_predicate("li").expect("interns");

    // Seeded, so every repetition and both modes replay the byte-identical
    // timeline.
    let mut rng = StdRng::seed_from_u64(seed);
    let mut timeline = Vec::new();
    for tick in (INTERVAL_MS..=duration).step_by(INTERVAL_MS as usize) {
        for _ in 0..per_batch {
            let p = if rng.gen_range(0..2u64) == 0 { po } else { li };
            let t = Triple::new(
                subjects[rng.gen_range(0..SUBJECTS) as usize],
                p,
                objects[rng.gen_range(0..OBJECTS) as usize],
            );
            timeline.push((t, tick - rng.gen_range(0..INTERVAL_MS)));
        }
    }
    timeline.sort_by_key(|(_, ts)| *ts);
    Workload {
        strings,
        timeline,
        duration,
    }
}

struct RunOutcome {
    /// Sum of per-firing wall latency, ms.
    total_ms: f64,
    firings: u64,
    rows: u64,
    hash: u64,
    counters: IncrementalSnapshot,
}

impl RunOutcome {
    /// Full-width binding rows this run materialized — the modeled work.
    /// Recompute builds the whole window result every firing; delta
    /// maintenance builds only the fresh rows its counters record.
    fn modeled_work(&self, incremental: bool) -> u64 {
        if incremental {
            self.counters.rows_recomputed
        } else {
            self.rows
        }
    }
}

fn run(w: &Workload, range_ms: u64, incremental: bool) -> RunOutcome {
    let engine = WukongS::with_strings(
        EngineConfig::single_node().with_incremental(incremental),
        Arc::clone(&w.strings),
    );
    let s = engine.register_stream(StreamSchema::timeless(StreamId(0), "S", INTERVAL_MS));
    engine
        .register_continuous(&format!(
            "REGISTER QUERY INC SELECT ?X ?Y ?Z \
             FROM S [RANGE {range_ms}ms STEP {INTERVAL_MS}ms] \
             WHERE {{ GRAPH S {{ ?X po ?Z }} GRAPH S {{ ?Y li ?Z }} }}"
        ))
        .expect("registers");

    let before = engine.cluster().obs().incremental().snapshot();
    let mut fed = 0;
    let mut total_ms = 0.0;
    let mut firings = 0u64;
    let mut rows = 0u64;
    let mut hash = Fnv64::new();
    for tick in (INTERVAL_MS..=w.duration).step_by(INTERVAL_MS as usize) {
        while fed < w.timeline.len() && w.timeline[fed].1 <= tick {
            engine.ingest(s, w.timeline[fed].0, w.timeline[fed].1);
            fed += 1;
        }
        engine.advance_time(tick);
        for f in engine.fire_ready() {
            total_ms += f.latency_ms;
            firings += 1;
            hash.push(f.window_end);
            for row in &f.results.rows {
                rows += 1;
                for v in row {
                    hash.push(v.0);
                }
            }
        }
    }
    let counters = before.delta(&engine.cluster().obs().incremental().snapshot());
    RunOutcome {
        total_ms,
        firings,
        rows,
        hash: hash.0,
        counters,
    }
}

/// Best-of-[`REPS`] by wall cost; all repetitions must agree on the
/// firing hash (the modeled work is identical across repetitions by
/// construction — it only depends on the deterministic firing stream).
fn best_run(w: &Workload, range_ms: u64, incremental: bool) -> RunOutcome {
    let mut out = run(w, range_ms, incremental);
    for _ in 1..REPS {
        let rerun = run(w, range_ms, incremental);
        assert_eq!(
            rerun.hash, out.hash,
            "non-deterministic firing stream (range {range_ms}, incremental {incremental})"
        );
        if rerun.total_ms < out.total_ms {
            out = rerun;
        }
    }
    out
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let mut jr = BenchJson::from_env("exp_incremental");
    let (duration, per_batch) = if quick { (2_000, 40) } else { (4_000, 60) };
    let w = workload(7, duration, per_batch);
    println!(
        "join fan-out workload: {} stream tuples over {} ms ({} subjects x {} shared objects)",
        w.timeline.len(),
        w.duration,
        SUBJECTS,
        OBJECTS,
    );

    print_header(
        "Delta maintenance vs recompute per window-overlap regime",
        &[
            "range ms",
            "overlap",
            "recompute",
            "incremental",
            "wall",
            "modeled",
            "reused",
            "result",
        ],
    );

    let regimes: &[(u64, &str)] = &[(100, "0%"), (200, "50%"), (400, "75%"), (1_000, "90%")];
    let mut modeled_at_75 = 0.0;
    let mut all_match = true;
    for &(range_ms, overlap) in regimes {
        let rec = best_run(&w, range_ms, false);
        let inc = best_run(&w, range_ms, true);
        let matches = rec.hash == inc.hash && rec.firings == inc.firings && rec.rows == inc.rows;
        all_match &= matches;
        let wall_speedup = rec.total_ms / inc.total_ms.max(f64::MIN_POSITIVE);
        let rec_work = rec.modeled_work(false);
        let inc_work = inc.modeled_work(true);
        let modeled = rec_work as f64 / (inc_work as f64).max(1.0);
        if range_ms == 400 {
            modeled_at_75 = modeled;
        }
        print_row(vec![
            format!("{range_ms}"),
            overlap.into(),
            fmt_ms(rec.total_ms),
            fmt_ms(inc.total_ms),
            format!("{wall_speedup:.2}x"),
            format!("{modeled:.2}x"),
            format!("{}", inc.counters.rows_reused),
            if matches { "MATCH" } else { "MISMATCH" }.into(),
        ]);

        let tag = format!("r{range_ms}");
        jr.counter(&format!("{tag}/recompute_total_ms"), rec.total_ms);
        jr.counter(&format!("{tag}/incremental_total_ms"), inc.total_ms);
        jr.counter(&format!("{tag}/wall_speedup"), wall_speedup);
        jr.counter(&format!("{tag}/modeled_work_recompute"), rec_work as f64);
        jr.counter(&format!("{tag}/modeled_work_incremental"), inc_work as f64);
        jr.counter(&format!("{tag}/modeled_speedup"), modeled);
        jr.counter(&format!("{tag}/firings"), inc.firings as f64);
        jr.counter(&format!("{tag}/rows"), inc.rows as f64);
        jr.counter(
            &format!("{tag}/rows_reused"),
            inc.counters.rows_reused as f64,
        );
        jr.counter(
            &format!("{tag}/rows_recomputed"),
            inc.counters.rows_recomputed as f64,
        );
        jr.counter(
            &format!("{tag}/rows_retracted"),
            inc.counters.rows_retracted as f64,
        );
        jr.counter(
            &format!("{tag}/hash_match"),
            if matches { 1.0 } else { 0.0 },
        );
        if range_ms == regimes.last().expect("non-empty").0 {
            jr.section("incremental", inc.counters.entries());
        }
    }

    jr.counter("speedup_75", modeled_at_75);
    jr.counter("all_match", if all_match { 1.0 } else { 0.0 });
    jr.finish();

    if !all_match {
        eprintln!("exp_incremental FAILED: incremental firings diverged from recompute");
        std::process::exit(1);
    }
    if modeled_at_75 < 2.0 {
        eprintln!(
            "exp_incremental FAILED: modeled speedup at 75% overlap is \
             {modeled_at_75:.2}x (< 2x)"
        );
        std::process::exit(1);
    }
    println!("\nall regimes byte-identical; modeled speedup at 75% overlap: {modeled_at_75:.2}x");
}
