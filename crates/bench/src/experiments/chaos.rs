//! Composed-fault chaos harness with state-integrity verification
//! (DESIGN.md §13).

use super::durability::register_mix;
use crate::modes::{cut_pieces, modes};
use crate::replay::{collect, fingerprint, replay, Fire, FiringMap};
use crate::run::{Run, Verdict};
use crate::say;
use crate::workload::{ls_workload_with, LsWorkload};
use wukong_benchdata::TimedTuple;
use wukong_core::{EngineConfig, OverloadPolicy, RecoveryManager, RecoveryReport, WukongS};
use wukong_net::{shrink_schedule, ChaosSchedule};
use wukong_obs::{FaultSnapshot, IntegritySnapshot};
use wukong_rdf::Timestamp;
use wukong_stream::IngestBudget;

const NODES: usize = 4;
/// Timeline tuples between firing/scrub rounds.
const FIRE_EVERY: usize = 250;
/// The lowest LSBench rate scale a chaos workload runs at: the densest
/// stream then fills 172 tuples a batch, more than one 128-tuple piece,
/// so every unbudgeted cell installs batches in pieces.
const MIN_RATE_SCALE: f64 = 0.02;

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

/// Feeds the schedule's timeline into `engine`, firing and scrubbing
/// every [`FIRE_EVERY`] tuples and once more at the horizon. Returns the
/// conflicts among unmarked re-fires.
fn drive(
    engine: &WukongS,
    w: &LsWorkload,
    anomaly: bool,
    checkpoint_at: Option<Timestamp>,
    fired: &mut FiringMap,
    scrub_hits: &mut Vec<String>,
) -> u64 {
    let mut conflicts = 0;
    let mut round = |firings| {
        conflicts += collect(firings, fired).conflicts;
        scrub_hits.extend(engine.scrub().iter().map(|v| format!("pre-recovery: {v}")));
    };
    let timeline = timeline_for(w, anomaly);
    replay(
        engine,
        &timeline,
        Fire::EveryTuples(FIRE_EVERY),
        checkpoint_at,
        horizon(w, anomaly),
        &mut round,
    );
    round(engine.fire_ready());
    conflicts
}

struct CellOutcome {
    /// Gate failures, empty when the cell passed.
    failures: Vec<String>,
    marked: u64,
    detected_msg: u64,
    fingerprint: u64,
    faults: FaultSnapshot,
    report: RecoveryReport,
    integrity: IntegritySnapshot,
}

/// One cell: boots an FT deployment under the compiled fault plan (plus
/// the schedule's ingest budget, if any), registers the query mix, feeds
/// the timeline, captures the durable state (bit-rotted when the schedule
/// corrupts checkpoints, alongside a pristine upstream copy), recovers
/// through the integrity-verified path, fires the delayed windows and
/// gates the outcome.
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
        w.strings.clone(),
    );
    let engine = w.boot(cfg);
    register_mix(&engine, &w.bench);

    let anomaly = schedule.clock_anomaly();
    let mut fired = FiringMap::new();
    let mut scrub_hits = Vec::new();
    let mut conflicts = drive(
        &engine,
        w,
        anomaly,
        Some(w.duration / 2),
        &mut fired,
        &mut scrub_hits,
    );
    let detected_msg = engine
        .handle()
        .obs()
        .integrity()
        .snapshot()
        .checksum_fail_message;

    // Crash, capture (bit-rot applies here), recover verified, and fire
    // the windows the faults delayed.
    let (recovered, report) = mgr.drill(&engine, None).expect("recovery");
    recovered.advance_time(horizon(w, anomaly));
    conflicts += collect(recovered.fire_ready(), &mut fired).conflicts;
    scrub_hits.extend(
        recovered
            .scrub()
            .iter()
            .map(|v| format!("post-recovery: {v}")),
    );

    let faults = engine.handle().fault_counters();
    let integrity = engine.handle().obs().integrity().snapshot();
    let marked = fired.values().filter(|c| c.marked).count() as u64;

    // Every firing either byte-matches the fault-free control or carried
    // an explicit marker when it fired; every injected message corruption
    // was detected at the install site (detection before emission); a
    // bit-rotted checkpoint chain was rejected and routed to the backup;
    // the scrubber found no violated invariant; and an unbudgeted cell
    // installed its batches in pieces, the write path every fault-free
    // engine runs.
    let mut failures = Vec::new();
    if conflicts > 0 {
        failures.push(format!("{conflicts} unmarked re-fires changed rows"));
    }
    for (key, expected) in control {
        match fired.get(key) {
            None => failures.push(format!("firing {key:?} lost")),
            Some(c) if !c.marked && !expected.marked && c.rows != expected.rows => {
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
    if schedule.ingest_budget().is_none() && !cut_pieces(&engine) {
        failures.push("an unbudgeted cell installed no batch in pieces".into());
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
        detected_msg,
        fingerprint: fingerprint(&fired),
        faults,
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
    let engine = w.boot(EngineConfig {
        fault_tolerance: true,
        ..EngineConfig::cluster(NODES)
    });
    register_mix(&engine, &w.bench);
    let mut map = FiringMap::new();
    let mut scrub_hits = Vec::new();
    let conflicts = drive(&engine, w, anomaly, None, &mut map, &mut scrub_hits);
    assert_eq!(conflicts, 0, "control must not conflict");
    assert_eq!(scrub_hits, Vec::<String>::new(), "control must scrub clean");
    map
}

/// Generates seeded [`ChaosSchedule`]s — each composing kills/restarts,
/// lossy/dup links, delayed links, slow nodes, overload spikes, clock
/// anomalies, and bit-flip corruption of messages and checkpoints — and
/// cycles them through the engine's execution modes ([`modes`]: worker
/// count × incremental × adaptive, plus one recorder-off leg), one
/// [`run_cell`] each. A failing cell is re-run under [`shrink_schedule`]
/// until its event list is 1-minimal and the reproducer is printed.
/// `--quick` runs one schedule.
pub fn exp_chaos(run: &mut Run) -> Verdict {
    let schedules = if run.quick { 1 } else { 64 };
    let mut cfg = run.scale.ls_config().with_seed(run.seed);
    cfg.rate_scale = cfg.rate_scale.max(MIN_RATE_SCALE);
    let w = ls_workload_with(cfg, run.scale.ls_duration());
    run.banner(
        "LSBench",
        &w,
        &format!(", {NODES} nodes, {schedules} schedules"),
    );

    // Controls are per-workload, not per-mode: worker count, incremental
    // maintenance, adaptive planning and the flight recorder are all
    // proven byte-identical on results, so two controls (with/without
    // the clock-anomaly tuple) cover every leg.
    let control_plain = control_run(&w, false);
    let mut control_anomaly: Option<FiringMap> = None;
    say!(run, "control run: {} firings", control_plain.len());

    run.header(
        "Chaos: composed faults × feature matrix vs control",
        &[
            "seed", "events", "cell", "marked", "inj msg", "det msg", "inj cp", "quar", "result",
        ],
    );
    let legs = modes(EngineConfig::cluster(NODES));
    let mut verdict = Verdict::default();
    let mut first_failed: Option<(ChaosSchedule, &EngineConfig)> = None;
    let (mut marked_total, mut injected_total, mut detected_total) = (0u64, 0u64, 0u64);
    for i in 0..schedules {
        let schedule = ChaosSchedule::generate(run.seed + i as u64, NODES as u16, w.duration);
        let (cell, mode) = &legs[i % legs.len()];
        let control = if schedule.clock_anomaly() {
            &*control_anomaly.get_or_insert_with(|| control_run(&w, true))
        } else {
            &control_plain
        };
        let out = run_cell(&w, &schedule, mode, control);
        let pass = out.failures.is_empty();
        run.row(vec![
            format!("{}", schedule.seed),
            format!("{}", schedule.events.len()),
            cell.clone(),
            format!("{}", out.marked),
            format!("{}", out.faults.msgs_corrupted),
            format!("{}", out.detected_msg),
            format!("{}", out.faults.checkpoints_corrupted),
            format!("{}", out.integrity.quarantines),
            if pass {
                format!("{:08x}", out.fingerprint as u32)
            } else {
                "FAIL".into()
            },
        ]);
        marked_total += out.marked;
        injected_total += out.faults.msgs_corrupted + out.faults.checkpoints_corrupted;
        detected_total += out.detected_msg + u64::from(out.report.integrity_violations > 0);
        if !pass {
            for f in out.failures.iter().take(5) {
                verdict
                    .failed
                    .push(format!("seed {} ({cell}): {f}", schedule.seed));
            }
            if out.failures.len() > 5 {
                verdict.failed.push(format!(
                    "seed {} ({cell}): ... {} more",
                    schedule.seed,
                    out.failures.len() - 5
                ));
            }
            first_failed.get_or_insert((schedule, mode));
        }
        run.json.recovery(&out.report);
        run.json.section("integrity", out.integrity.entries());
    }

    run.json.counter("schedules", schedules as f64);
    run.json.counter("marked_firings", marked_total as f64);
    run.json
        .counter("injected_corruptions", injected_total as f64);
    run.json
        .counter("detected_corruptions", detected_total as f64);
    run.json
        .counter("all_pass", f64::from(verdict.failed.is_empty()));

    if let Some((schedule, mode)) = first_failed {
        say!(
            run,
            "\nchaos FAILED under seed {}; shrinking...",
            schedule.seed
        );
        // Greedy 1-minimal shrink: re-run the failing cell against each
        // candidate schedule, keeping removals that preserve failure.
        let control_anomaly = control_anomaly.unwrap_or_else(|| control_run(&w, true));
        let minimal = shrink_schedule(schedule, |candidate| {
            let control = if candidate.clock_anomaly() {
                &control_anomaly
            } else {
                &control_plain
            };
            !run_cell(&w, candidate, mode, control).failures.is_empty()
        });
        say!(run, "minimal reproducer:\n{}", minimal.describe());
    } else {
        say!(
            run,
            "\nall {schedules} schedules converged or reported: {marked_total} marked firings, \
             {injected_total} injected corruptions, {detected_total} detections"
        );
    }
    verdict
}
