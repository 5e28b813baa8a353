//! Fault tolerance: what logging and checkpointing cost (§6.8) and
//! whether recovery reproduces a never-failed run (§5).

use crate::replay::{collect, replay, same_rows, Fire, FiringMap};
use crate::report::fmt_ms;
use crate::run::{Run, Verdict};
use crate::say;
use crate::workload::{LsWorkload, Scale};
use std::time::{Duration, Instant};
use wukong_benchdata::{lsbench, LsBench, TimedTuple};
use wukong_core::{EngineConfig, LatencyRecorder, RecoveryManager, RecoveryReport, WukongS};
use wukong_net::{FaultPlan, NodeId};
use wukong_rdf::{StreamId, Timestamp};

/// Registers the selective mix L1-L3 and returns the query ids.
pub(super) fn register_mix(engine: &WukongS, bench: &LsBench) -> Vec<usize> {
    (1..=3)
        .map(|c| {
            engine
                .register_continuous(&lsbench::continuous_query(bench, c, 0))
                .expect("register")
        })
        .collect()
}

/// Executes the L1-L3 mix as fast as it can for `seconds` of wall clock,
/// streaming `live` in behind `w`'s timeline (64 tuples every 16
/// executions) and checkpointing every `checkpoint_every`. Returns queries
/// per second and the latencies.
fn serve_loop(
    engine: &WukongS,
    w: &LsWorkload,
    live: &[TimedTuple],
    checkpoint_every: Option<Duration>,
    seconds: f64,
) -> (f64, LatencyRecorder) {
    let ids = register_mix(engine, &w.bench);
    let base_time = w.duration;
    for &id in &ids {
        let _ = engine.execute_registered(id);
    }
    let mut rec = LatencyRecorder::new();
    let mut executed = 0u64;
    let start = Instant::now();
    let mut next_cp = checkpoint_every;
    let mut fed = 0usize;
    while start.elapsed().as_secs_f64() < seconds {
        let (_, ms) = engine.execute_registered(ids[executed as usize % ids.len()]);
        rec.record(ms);
        executed += 1;
        if executed.is_multiple_of(16) && fed < live.len() {
            let chunk_end = (fed + 64).min(live.len());
            for t in &live[fed..chunk_end] {
                engine.ingest(t.stream, t.triple, base_time + t.timestamp);
            }
            fed = chunk_end;
            engine.advance_time(base_time + live[chunk_end - 1].timestamp);
        }
        if next_cp.is_some_and(|at| start.elapsed() >= at) {
            engine.checkpoint();
            next_cp = next_cp.zip(checkpoint_every).map(|(at, every)| at + every);
        }
    }
    (executed as f64 / start.elapsed().as_secs_f64(), rec)
}

/// §6.8: fault-tolerance overhead. (Whether recovery reproduces a
/// never-failed run is [`exp_recovery_drill`]'s gate.)
///
/// Paper shape: enabling per-batch logging + periodic checkpointing costs
/// ≈ 11% throughput on the L1-L3 mix and raises the p99 latency
/// (0.15 → 0.73 ms there) while the median stays put.
///
/// Throughput here is *wall-clock measured*: a worker loop executes the
/// query mix as fast as it can while streaming fresh batches; in the FT
/// configuration the same loop also logs them and takes periodic
/// checkpoints — the work real deployments interleave with query serving.
pub(crate) fn exp_fault_tolerance(run: &mut Run) -> Verdict {
    let nodes = 8;
    let w = run.ls_workload("");
    // Extra stream data to inject during the measured loops. The FT
    // overhead scales with the streaming rate (logging is per batch and
    // per tuple), so the live feed runs at a rate closer to the paper's:
    // 25× the scaled workload default.
    let mut live_cfg = w.bench.config().clone();
    live_cfg.rate_scale *= 25.0;
    let mut gen2 = LsBench::new(live_cfg, w.strings.clone());
    gen2.stored_triples();
    let live = gen2.generate(0, 2_000);
    let seconds = if run.scale == Scale::Tiny { 1.0 } else { 3.0 };

    // Both configurations stream the same live data; only logging and
    // checkpointing differ, so the delta isolates the FT machinery.
    let plain = w.engine(EngineConfig::cluster(nodes));
    let (thr_plain, rec_plain) = serve_loop(&plain, &w, &live, None, seconds);
    let ft = w.engine(EngineConfig {
        fault_tolerance: true,
        ..EngineConfig::cluster(nodes)
    });
    let every = Some(Duration::from_millis(250));
    let (thr_ft, rec_ft) = serve_loop(&ft, &w, &live, every, seconds);

    run.header(
        "§6.8: fault-tolerance overhead (mix L1-L3, 8 nodes, wall-clock)",
        &["config", "p50 ms", "p99 ms", "rel q/s", "drop"],
    );
    // Injection-side cost of logging (the paper's ~0.3 ms/batch delay).
    let inject_ms = |engine: &WukongS| {
        let (stats, batches) = engine.injection_stats(StreamId(0));
        stats.inject_ns as f64 / 1e6 / batches.max(1) as f64
    };
    for (label, name, thr, rec, engine) in [
        ("FT off", "ft_off", thr_plain, &rec_plain, &plain),
        ("FT on", "ft_on", thr_ft, &rec_ft, &ft),
    ] {
        run.json.series(name, rec);
        run.json.counter(&format!("{name}/qps"), thr);
        run.json
            .counter(&format!("{name}/inject_ms_per_batch"), inject_ms(engine));
        run.row(vec![
            label.into(),
            fmt_ms(rec.percentile(50.0).expect("samples")),
            fmt_ms(rec.percentile(99.0).expect("samples")),
            format!("{thr:.0}"),
            format!("{:.1}%", 100.0 * (1.0 - thr / thr_plain)),
        ]);
    }
    say!(
        run,
        "\nPO-stream injection per batch: {:.3} ms without FT, {:.3} ms with FT logging",
        inject_ms(&plain),
        inject_ms(&ft),
    );

    run.json.engine(&ft);
    Verdict::default()
}

struct CellOutcome {
    refired: u64,
    matches: bool,
    report: RecoveryReport,
}

/// One drill cell: boots an FT deployment whose fault plan kills `victim`
/// at `kill_ms` (queries registered *before* feeding, so the query log
/// checkpoints them), feeds the timeline firing the ready windows just
/// before the kill, crashes, recovers from the durable state and fires
/// the windows the outage delayed.
fn drill_cell(
    w: &LsWorkload,
    seed: u64,
    nodes: usize,
    victim: u16,
    kill_ms: Timestamp,
    control: &FiringMap,
) -> CellOutcome {
    let cfg = EngineConfig {
        fault_tolerance: true,
        fault_plan: Some(FaultPlan::seeded(seed).kill_at(NodeId(victim), kill_ms)),
        ..EngineConfig::cluster(nodes)
    };
    let mgr = RecoveryManager::new(
        cfg.clone(),
        w.stored.clone(),
        w.schemas(),
        w.strings.clone(),
    );
    let engine = w.boot(cfg);
    register_mix(&engine, &w.bench);

    let mut fired = FiringMap::new();
    let (mut refired, mut conflicts) = (0, 0);
    let mut fold = |firings, fired: &mut FiringMap| {
        let seen = collect(firings, fired);
        refired += seen.repeats;
        conflicts += seen.conflicts;
    };
    // The last fully-live moment is just before the kill lands (it
    // applies on the next ingest's clock tick): collect what is ready.
    // After the kill the stable VTS stalls at the victim's last insert.
    replay(
        &engine,
        &w.timeline,
        Fire::Once(kill_ms),
        Some(kill_ms / 2),
        w.duration,
        |firings| fold(firings, &mut fired),
    );

    // Crash and recover. The drill captures the durable state exactly as
    // the dying process leaves it and replays it into a fresh engine.
    let (recovered, report) = mgr.drill(&engine, Some(NodeId(victim))).expect("recovery");
    fold(recovered.fire_ready(), &mut fired);
    CellOutcome {
        refired,
        // At-least-once: a window at the recovery horizon may fire twice,
        // but the repeat must be row-identical, never missing.
        matches: conflicts == 0 && same_rows(&fired, control),
        report,
    }
}

/// Recovery drill: kill a node mid-stream, crash, replay checkpoint+log,
/// and check the recovered deployment's firings against a never-failed
/// control run (§5's recovery path, end to end), over a (killed node ×
/// kill time) matrix. Every `(query, window_end)` firing — pre-crash plus
/// post-recovery — must match the control run's result rows; any lost or
/// divergent firing fails the run. `--quick` runs a single cell.
pub(crate) fn exp_recovery_drill(run: &mut Run) -> Verdict {
    let nodes = 4;
    let w = run.ls_workload(", 4 nodes");

    // Control: identical workload and query mix, never failed.
    let control_engine = w.boot(EngineConfig {
        fault_tolerance: true,
        ..EngineConfig::cluster(nodes)
    });
    register_mix(&control_engine, &w.bench);
    let mut control = FiringMap::new();
    replay(
        &control_engine,
        &w.timeline,
        Fire::Never,
        None,
        w.duration,
        |_| {},
    );
    collect(control_engine.fire_ready(), &mut control);
    say!(run, "control run: {} firings", control.len());

    let last = (nodes - 1) as u16;
    let cells: Vec<(u16, Timestamp)> = if run.quick {
        vec![(1, w.duration / 2)]
    } else {
        vec![
            (1, w.duration / 3),
            (1, 2 * w.duration / 3),
            (last, w.duration / 3),
            (last, 2 * w.duration / 3),
        ]
    };

    run.header(
        "Recovery drill: kill → crash → replay vs control",
        &[
            "victim", "kill ms", "rec ms", "replayed", "dedup", "refired", "result",
        ],
    );
    let mut verdict = Verdict::default();
    for &(victim, kill_ms) in &cells {
        let out = drill_cell(&w, run.seed, nodes, victim, kill_ms, &control);
        verdict.gate(out.matches, || {
            format!(
                "node {victim} killed at {kill_ms} ms: the recovered run diverged from the control"
            )
        });
        run.row(vec![
            format!("node {victim}"),
            format!("{kill_ms}"),
            format!("{:.2}", out.report.recovery_ms),
            format!("{}", out.report.replayed_batches),
            format!("{}", out.report.dedup_suppressed),
            format!("{}", out.refired),
            if out.matches { "MATCH" } else { "MISMATCH" }.into(),
        ]);
        let tag = format!("kill_n{victim}_t{kill_ms}");
        run.json
            .counter(&format!("{tag}/recovery_ms"), out.report.recovery_ms);
        run.json.counter(
            &format!("{tag}/replayed_batches"),
            out.report.replayed_batches as f64,
        );
        run.json
            .counter(&format!("{tag}/refired"), out.refired as f64);
        run.json
            .counter(&format!("{tag}/match"), f64::from(out.matches));
        run.json.recovery(&out.report);
    }
    run.json.counter("cells", cells.len() as f64);
    run.json
        .counter("all_match", f64::from(verdict.failed.is_empty()));
    if verdict.failed.is_empty() {
        say!(run, "\nall {} cells match the control run", cells.len());
    }
    verdict
}
