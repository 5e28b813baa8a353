//! Composed-fault chaos harness with state-integrity verification
//! (DESIGN.md §13).
//!
//! Generates seeded [`ChaosSchedule`]s — each composing kills/restarts,
//! lossy/dup links, delayed links, slow nodes, overload spikes, clock
//! anomalies, and bit-flip corruption of messages and checkpoints —
//! and cycles them through the engine's execution modes
//! ([`wukong_bench::modes`]: worker count × incremental × adaptive, plus
//! one recorder-off leg). Each cell:
//!
//! 1. boots an FT deployment under the compiled fault plan (plus the
//!    schedule's ingest budget, if any), registers the query mix, and
//!    feeds the LSBench timeline, firing ready windows periodically and
//!    running the invariant scrubber between firings,
//! 2. captures the durable state (bit-rotted when the schedule corrupts
//!    checkpoints, alongside a pristine upstream copy), recovers through
//!    the integrity-verified path, and fires the delayed windows,
//! 3. gates the outcome: every `(query, window_end)` firing either
//!    byte-matches the fault-free control or carried an explicit marker
//!    (degraded / unreachable / quarantined shards) when it fired;
//!    every injected message corruption was detected at the install
//!    site (`detected == injected`, the detection-before-emission
//!    argument); a bit-rotted checkpoint chain was rejected and routed
//!    to the backup; and the scrubber found no violated invariant.
//!
//! Any failing cell is re-run under [`shrink_schedule`] until the event
//! list is 1-minimal, the reproducer is printed, and the binary exits
//! non-zero. `--quick` runs one schedule (CI smoke); `--json <path>`
//! writes the machine-readable report.

use std::collections::BTreeMap;
use wukong_bench::{
    ls_workload, modes, print_header, print_row, seed_from_env, BenchJson, LsWorkload, Scale,
};
use wukong_benchdata::{lsbench, TimedTuple};
use wukong_core::{EngineConfig, Firing, OverloadPolicy, RecoveryManager, WukongS};
use wukong_net::{shrink_schedule, ChaosSchedule};
use wukong_rdf::Timestamp;
use wukong_stream::IngestBudget;

const NODES: usize = 4;
/// Timeline tuples between firing/scrub rounds.
const FIRE_EVERY: usize = 250;

type FiringKey = (usize, Timestamp);

/// One collected firing: sorted rows plus whether the firing carried an
/// explicit divergence marker (degraded / unreachable / quarantined).
#[derive(Clone)]
struct Collected {
    rows: Vec<Vec<wukong_rdf::Vid>>,
    marked: bool,
}

type FiringMap = BTreeMap<FiringKey, Collected>;

/// FNV-1a fingerprint of a firing map, for the convergence report.
fn fingerprint(map: &FiringMap) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |b: u64| {
        for byte in b.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for ((q, end), c) in map {
        eat(*q as u64);
        eat(*end);
        for row in &c.rows {
            for v in row {
                eat(v.0);
            }
        }
    }
    h
}

/// Folds firings into the map. An unmarked re-fire of an unmarked window
/// must repeat its rows exactly (at-least-once); re-fires involving a
/// marked firing may differ — the marked side declared itself partial —
/// and the unmarked (complete) rows win. Returns conflicts among
/// unmarked pairs, which the gate treats as silent divergence.
fn collect(firings: Vec<Firing>, into: &mut FiringMap) -> u64 {
    let mut conflicts = 0;
    for f in firings {
        let marked = f.results.degraded.is_some()
            || !f.results.unreachable_shards.is_empty()
            || !f.results.quarantined_shards.is_empty();
        let mut rows = f.results.rows;
        rows.sort();
        let entry = Collected { rows, marked };
        match into.entry((f.query, f.window_end)) {
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(entry);
            }
            std::collections::btree_map::Entry::Occupied(mut e) => {
                if !e.get().marked && !entry.marked {
                    if e.get().rows != entry.rows {
                        conflicts += 1;
                    }
                } else if e.get().marked {
                    // Prefer the complete (or at least newer) firing.
                    e.insert(entry);
                }
            }
        }
    }
    conflicts
}

fn register_mix(engine: &WukongS, bench: &wukong_benchdata::LsBench) {
    for c in 1..=3 {
        engine
            .register_continuous(&lsbench::continuous_query(bench, c, 0))
            .expect("register");
    }
}

/// The schedule's timeline: the shared workload plus, for schedules
/// with a clock anomaly, one far-future tuple (bad source clock). The
/// anomaly is a workload mutation, so the control gets it too.
fn timeline_for(w: &LsWorkload, anomaly: bool) -> Vec<TimedTuple> {
    let mut t = w.timeline.clone();
    if anomaly {
        if let Some(last) = t.last().cloned() {
            t.push(TimedTuple {
                timestamp: last.timestamp + 7_500,
                ..last
            });
        }
    }
    t
}

fn horizon(w: &LsWorkload, anomaly: bool) -> Timestamp {
    w.duration + if anomaly { 10_000 } else { 0 }
}

struct CellOutcome {
    /// Gate failures, empty when the cell passed.
    failures: Vec<String>,
    marked: u64,
    injected_msg: u64,
    detected_msg: u64,
    injected_cp: u64,
    quarantines: u64,
    fingerprint: u64,
    report: wukong_core::RecoveryReport,
    integrity: wukong_obs::IntegritySnapshot,
}

fn run_cell(
    w: &LsWorkload,
    schedule: &ChaosSchedule,
    mode: &EngineConfig,
    control: &FiringMap,
) -> CellOutcome {
    let cfg = EngineConfig {
        fault_tolerance: true,
        fault_plan: Some(schedule.fault_plan()),
        // Short quiet period so shed→catch-up completes inside the
        // timeline and overloaded cells converge before the gate.
        overload: OverloadPolicy {
            catchup_quiet_ms: 200,
            ..OverloadPolicy::default()
        },
        ..mode.clone()
    }
    .with_ingest_budget(schedule.ingest_budget().map(IngestBudget::tuples));
    let mgr = RecoveryManager::new(
        cfg.clone(),
        w.stored.clone(),
        w.schemas(),
        std::sync::Arc::clone(&w.strings),
    );
    let engine = WukongS::with_strings(cfg, std::sync::Arc::clone(&w.strings));
    engine.load_base(w.stored.iter().copied());
    for schema in w.schemas() {
        engine.register_stream(schema);
    }
    register_mix(&engine, &w.bench);

    let timeline = timeline_for(w, schedule.clock_anomaly());
    let mut fired = FiringMap::new();
    let mut conflicts = 0;
    let mut scrub_hits: Vec<String> = Vec::new();
    let mut checkpointed = false;
    for (i, t) in timeline.iter().enumerate() {
        if i > 0 && i % FIRE_EVERY == 0 {
            conflicts += collect(engine.fire_ready(), &mut fired);
            for v in engine.scrub() {
                scrub_hits.push(format!("pre-recovery: {v}"));
            }
        }
        if !checkpointed && t.timestamp >= w.duration / 2 {
            engine.checkpoint();
            checkpointed = true;
        }
        engine.ingest(t.stream, t.triple, t.timestamp);
    }
    engine.advance_time(horizon(w, schedule.clock_anomaly()));
    conflicts += collect(engine.fire_ready(), &mut fired);
    for v in engine.scrub() {
        scrub_hits.push(format!("pre-recovery: {v}"));
    }
    let detected_msg = engine
        .handle()
        .obs()
        .integrity()
        .snapshot()
        .checksum_fail_message;

    // Crash, capture (bit-rot applies here), recover verified, and fire
    // the windows the faults delayed.
    let (recovered, report) = mgr.drill_verified(&engine, None).expect("recovery");
    recovered.advance_time(horizon(w, schedule.clock_anomaly()));
    conflicts += collect(recovered.fire_ready(), &mut fired);
    for v in recovered.scrub() {
        scrub_hits.push(format!("post-recovery: {v}"));
    }

    let faults = engine.handle().fault_counters();
    let integrity = engine.handle().obs().integrity().snapshot();
    let marked = fired.values().filter(|c| c.marked).count() as u64;

    let mut failures = Vec::new();
    if conflicts > 0 {
        failures.push(format!("{conflicts} unmarked re-fires changed rows"));
    }
    for key in control.keys() {
        match fired.get(key) {
            None => failures.push(format!("firing {key:?} lost")),
            Some(c) if !c.marked && !control[key].marked && c.rows != control[key].rows => {
                failures.push(format!("firing {key:?} silently diverged"))
            }
            _ => {}
        }
    }
    for key in fired.keys() {
        if !control.contains_key(key) {
            failures.push(format!("spurious firing {key:?}"));
        }
    }
    if detected_msg != faults.msgs_corrupted {
        failures.push(format!(
            "message corruption: injected {} detected {detected_msg}",
            faults.msgs_corrupted
        ));
    }
    if faults.msgs_corrupted > 0 && integrity.quarantines == 0 {
        failures.push("corrupted sub-batch quarantined no shard".into());
    }
    if faults.checkpoints_corrupted > 0 && report.integrity_violations == 0 {
        failures.push(format!(
            "{} checkpoint corruptions but recovery reported none",
            faults.checkpoints_corrupted
        ));
    }
    failures.extend(scrub_hits);

    CellOutcome {
        failures,
        marked,
        injected_msg: faults.msgs_corrupted,
        detected_msg,
        injected_cp: faults.checkpoints_corrupted,
        quarantines: integrity.quarantines,
        fingerprint: fingerprint(&fired),
        report,
        integrity,
    }
}

/// Runs the fault-free control for one workload variant and returns its
/// firing map. The control fires on the *same cadence* as the cells:
/// window rows are cadence-sensitive by design — a window fired far
/// behind stream time reads a transient ring its data may have aged out
/// of (and says so via `Degraded::windows_aged`) — so the reference
/// must fire when the cells do. Control marks are possible (a clock
/// anomaly makes the post-jump windows inherently late) and excuse the
/// same keys in the cells.
fn control_run(w: &LsWorkload, anomaly: bool) -> FiringMap {
    let engine = WukongS::with_strings(
        EngineConfig {
            fault_tolerance: true,
            ..EngineConfig::cluster(NODES)
        },
        std::sync::Arc::clone(&w.strings),
    );
    engine.load_base(w.stored.iter().copied());
    for schema in w.schemas() {
        engine.register_stream(schema);
    }
    register_mix(&engine, &w.bench);
    let mut map = FiringMap::new();
    let mut conflicts = 0;
    for (i, t) in timeline_for(w, anomaly).iter().enumerate() {
        if i > 0 && i % FIRE_EVERY == 0 {
            conflicts += collect(engine.fire_ready(), &mut map);
        }
        engine.ingest(t.stream, t.triple, t.timestamp);
    }
    engine.advance_time(horizon(w, anomaly));
    conflicts += collect(engine.fire_ready(), &mut map);
    assert_eq!(conflicts, 0, "control must not conflict");
    assert!(engine.scrub().is_empty(), "control must scrub clean");
    map
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let mut jr = BenchJson::from_env("exp_chaos");
    let scale = Scale::from_env();
    let base_seed = seed_from_env();
    let w = ls_workload(scale);
    let schedules = if quick { 1 } else { 64 };
    println!(
        "LSBench: {} stored triples, {} stream tuples over {} ms (scale {scale:?}, {NODES} nodes, {schedules} schedules)",
        w.stored.len(),
        w.timeline.len(),
        w.duration,
    );

    // Controls are per-workload, not per-mode: worker count, incremental
    // maintenance, adaptive planning and the flight recorder are all
    // proven byte-identical on results, so two controls (with/without
    // the clock-anomaly tuple) cover every leg.
    let control_plain = control_run(&w, false);
    let mut control_anomaly: Option<FiringMap> = None;
    println!("control run: {} firings", control_plain.len());

    print_header(
        "Chaos: composed faults × feature matrix vs control",
        &[
            "seed", "events", "cell", "marked", "inj msg", "det msg", "inj cp", "quar", "result",
        ],
    );
    let legs = modes(EngineConfig::cluster(NODES));
    let mut failed: Option<(ChaosSchedule, &EngineConfig, Vec<String>)> = None;
    let mut marked_total = 0u64;
    let mut injected_total = 0u64;
    let mut detected_total = 0u64;
    let mut last: Option<CellOutcome> = None;
    for i in 0..schedules {
        let schedule = ChaosSchedule::generate(base_seed + i as u64, NODES as u16, w.duration);
        let (cell, mode) = &legs[i % legs.len()];
        if schedule.clock_anomaly() && control_anomaly.is_none() {
            control_anomaly = Some(control_run(&w, true));
        }
        let control = if schedule.clock_anomaly() {
            control_anomaly.as_ref().expect("built above")
        } else {
            &control_plain
        };
        let out = run_cell(&w, &schedule, mode, control);
        let pass = out.failures.is_empty();
        print_row(vec![
            format!("{}", schedule.seed),
            format!("{}", schedule.events.len()),
            cell.clone(),
            format!("{}", out.marked),
            format!("{}", out.injected_msg),
            format!("{}", out.detected_msg),
            format!("{}", out.injected_cp),
            format!("{}", out.quarantines),
            if pass {
                format!("{:08x}", out.fingerprint as u32)
            } else {
                "FAIL".into()
            },
        ]);
        marked_total += out.marked;
        injected_total += out.injected_msg + out.injected_cp;
        detected_total += out.detected_msg + u64::from(out.report.integrity_violations > 0);
        if !pass {
            for f in out.failures.iter().take(5) {
                eprintln!("  gate: {f}");
            }
            if out.failures.len() > 5 {
                eprintln!("  gate: ... {} more", out.failures.len() - 5);
            }
            if failed.is_none() {
                failed = Some((schedule, mode, out.failures.clone()));
            }
        }
        last = Some(out);
    }

    if let Some(out) = &last {
        jr.recovery(&out.report);
        jr.section("integrity", out.integrity.entries());
    }
    jr.counter("schedules", schedules as f64);
    jr.counter("marked_firings", marked_total as f64);
    jr.counter("injected_corruptions", injected_total as f64);
    jr.counter("detected_corruptions", detected_total as f64);
    jr.counter("all_pass", if failed.is_none() { 1.0 } else { 0.0 });
    jr.finish();

    if let Some((schedule, mode, failures)) = failed {
        eprintln!(
            "\nchaos FAILED under seed {} ({} gate failures); shrinking...",
            schedule.seed,
            failures.len()
        );
        // Greedy 1-minimal shrink: re-run the failing cell against each
        // candidate schedule, keeping removals that preserve failure.
        let control = if schedule.clock_anomaly() {
            control_anomaly
                .clone()
                .unwrap_or_else(|| control_run(&w, true))
        } else {
            control_plain.clone()
        };
        let minimal = shrink_schedule(schedule, |candidate| {
            let control = if candidate.clock_anomaly() {
                &control
            } else {
                &control_plain
            };
            !run_cell(&w, candidate, mode, control).failures.is_empty()
        });
        eprintln!("minimal reproducer:\n{}", minimal.describe());
        std::process::exit(1);
    }
    println!(
        "\nall {schedules} schedules converged or reported: {marked_total} marked firings, \
         {injected_total} injected corruptions, {detected_total} detections"
    );
}
