//! Flight-recorder fidelity and overhead gates (DESIGN.md §14).

use super::durability::register_mix;
use crate::replay::{best_of, replay, Fire, FiringDigest};
use crate::run::{Run, Verdict};
use crate::say;
use crate::workload::LsWorkload;
use std::time::{Duration, Instant};
use wukong_core::{EngineConfig, WukongS};
use wukong_net::FaultPlan;
use wukong_obs::trace::Marker;
use wukong_obs::{BatchId, Json, TraceSnapshot};
use wukong_rdf::{StreamId, Triple};
use wukong_stream::StreamSchema;

const NODES: usize = 4;
/// Timeline tuples between firing rounds.
const FIRE_EVERY: usize = 250;
/// Enabled-trace modeled latency must stay within this factor of the
/// disabled run...
const OVERHEAD_FACTOR: f64 = 1.10;
/// ...or within this absolute slack, whichever is looser (sub-ms totals
/// would otherwise gate on scheduler noise).
const OVERHEAD_SLACK_MS: f64 = 5.0;
/// Firings of the wall-clock cell's one query.
const WALL_FIRINGS: u64 = 5_200;
/// Recorder-on `fire_ready` wall time must stay within this factor of the
/// recorder-off run (or within [`OVERHEAD_SLACK_MS`] of it).
const WALL_FACTOR: f64 = 1.25;
/// Repetitions of each arm of the wall-clock cell; the best one counts.
const WALL_REPS: usize = 7;
/// Bit-flip probability for the dump cell's message-corruption rule.
const CORRUPT_P: f64 = 0.05;
/// Seeds tried before declaring the dump cell unable to corrupt.
const DUMP_TRIES: u64 = 8;

fn build(w: &LsWorkload, workers: usize, trace_on: bool, plan: Option<FaultPlan>) -> WukongS {
    let cfg = EngineConfig {
        fault_tolerance: plan.is_some(),
        fault_plan: plan,
        ..EngineConfig::cluster(NODES)
    }
    .with_workers(workers)
    .with_trace(trace_on);
    let engine = w.boot(cfg);
    register_mix(&engine, &w.bench);
    engine
}

/// Feeds the shared timeline, firing every [`FIRE_EVERY`] tuples, and
/// folds the firings.
fn drive(engine: &WukongS, w: &LsWorkload) -> FiringDigest {
    let mut digest = FiringDigest::default();
    replay(
        engine,
        &w.timeline,
        Fire::EveryTuples(FIRE_EVERY),
        None,
        w.duration,
        |firings| digest.absorb(&firings),
    );
    digest.absorb(&engine.fire_ready());
    digest
}

/// The wall-clock cell: one selective standing query shaped like
/// LSBench's L2 — posts in the window by the twelve users Logan follows —
/// over a stream that carries one such post per batch interval, fired
/// once per round for [`WALL_FIRINGS`] rounds. Returns the summed
/// `fire_ready` wall time in ms and the rows emitted.
fn wall_run(trace_on: bool) -> (f64, u64) {
    let engine = WukongS::new(EngineConfig::single_node().with_trace(trace_on));
    let ss = engine.strings().clone();
    let entity = |name: &str| ss.intern_entity(name).expect("interns");
    let follows = ss.intern_predicate("fo").expect("interns");
    let posts = ss.intern_predicate("po").expect("interns");
    let followed: Vec<_> = (0..12).map(|u| entity(&format!("u{u}"))).collect();
    engine.load_base(
        followed
            .iter()
            .map(|&u| Triple::new(entity("Logan"), follows, u)),
    );
    let po = engine.register_stream(StreamSchema::timeless(StreamId(0), "PO", 100));
    engine
        .register_continuous(
            "REGISTER QUERY q SELECT ?X ?Z FROM PO [RANGE 1s STEP 100ms] \
             WHERE { Logan fo ?X . GRAPH PO { ?X po ?Z } }",
        )
        .expect("register");
    let mut wall = Duration::ZERO;
    let (mut firings, mut rows) = (0u64, 0u64);
    for k in 0..WALL_FIRINGS {
        let poster = followed[k as usize % followed.len()];
        let post = Triple::new(poster, posts, entity(&format!("T-{k}")));
        engine.ingest(po, post, k * 100 + 50);
        engine.advance_time((k + 1) * 100);
        let t0 = Instant::now();
        let fired = engine.fire_ready();
        wall += t0.elapsed();
        firings += fired.len() as u64;
        rows += fired
            .iter()
            .map(|f| f.results.rows.len() as u64)
            .sum::<u64>();
    }
    assert_eq!(firings, WALL_FIRINGS, "one firing per round");
    assert!(
        rows >= 10 * (WALL_FIRINGS - 10),
        "ten posts per full window"
    );
    (wall.as_secs_f64() * 1e3, rows)
}

fn array_len(dump: &Json, key: &str) -> usize {
    dump.get(key)
        .and_then(Json::as_arr)
        .map_or(0, <[Json]>::len)
}

/// The dump cell: seeded message corruption must quarantine a shard and
/// leave a `Quarantine` trace_dump whose lineage names the corrupted
/// batch. Returns the dump (for `--dump`/inspection) on success.
fn dump_cell(w: &LsWorkload, base_seed: u64, verdict: &mut Verdict) -> Option<Json> {
    for seed in base_seed..base_seed + DUMP_TRIES {
        let plan = FaultPlan::seeded(seed).corrupt_messages(CORRUPT_P);
        let engine = build(w, 4, true, Some(plan));
        drive(&engine, w);
        let corrupted = engine.handle().fault_counters().msgs_corrupted;
        if corrupted == 0 {
            continue;
        }
        let quarantines = engine.handle().obs().integrity().snapshot().quarantines;
        if quarantines == 0 {
            verdict.failed.push(format!(
                "seed {seed}: {corrupted} corruptions quarantined no shard"
            ));
            return None;
        }
        let dumps = engine.handle().trace().dumps();
        let quarantine_dump = dumps.iter().find(|d| {
            d.get("trigger")
                .and_then(|t| t.get("marker"))
                .and_then(|m| m.as_str())
                == Some(Marker::Quarantine.name())
        });
        let Some(dump) = quarantine_dump else {
            verdict.failed.push(format!(
                "seed {seed}: {quarantines} quarantines but no Quarantine trace_dump"
            ));
            return None;
        };
        // The trigger's batch is the corrupted sub-batch; the causal
        // closure must name it.
        let batch = dump
            .get("trigger")
            .and_then(|t| t.get("batch"))
            .and_then(|b| b.as_str())
            .unwrap_or("-");
        verdict.gate(
            BatchId::parse_label(batch).is_some_and(|b| !b.is_none()),
            || format!("quarantine dump trigger batch unparseable: {batch:?}"),
        );
        let linked = dump
            .get("linked_batches")
            .and_then(|l| l.as_arr())
            .is_some_and(|arr| arr.iter().any(|b| b.as_str() == Some(batch)));
        verdict.gate(linked, || {
            format!("corrupted batch {batch} missing from linked_batches")
        });
        verdict.gate(array_len(dump, "events") > 0, || {
            "quarantine dump carries no causal events".into()
        });
        return Some(dump.clone());
    }
    verdict.failed.push(format!(
        "no corruption landed in {DUMP_TRIES} seeds (p={CORRUPT_P})"
    ));
    None
}

/// Four gates:
///
/// 1. **Byte-identity** — the same seeded LSBench run with tracing on
///    and off (`EngineConfig::with_trace(false)`) must produce
///    byte-identical firings (the firing digest), at 1 and 4 workers.
///    Tracing observes; it must never steer results, scheduling, or
///    firing cadence.
/// 2. **Overhead** — modeled latency (sum of per-firing `latency_ms`,
///    best of the repetitions) with the recorder enabled must stay
///    within [`OVERHEAD_FACTOR`] of the disabled run, with an absolute
///    [`OVERHEAD_SLACK_MS`] floor so sub-millisecond totals don't fail
///    on scheduler noise.
/// 3. **Wall clock** — gate 2's `latency_ms` timers start after a firing's
///    ID and lineage are minted, so they cannot see what minting costs.
///    One selective query fires [`WALL_FIRINGS`] times (past the
///    recorder's `FIRING_CAP`, where a cost that grows with history
///    shows); the summed wall time of its `fire_ready` calls with the
///    recorder on must stay within [`WALL_FACTOR`] of the recorder-off
///    run, or within the same absolute slack.
/// 4. **Black-box dump** — a seeded fault plan that bit-flips in-flight
///    sub-batches must force an install-site quarantine, and the
///    recorder must hold a `trace_dump` whose trigger is the
///    `Quarantine` marker and whose causal closure (`linked_batches`)
///    contains the corrupted [`BatchId`].
///
/// Gates 2 and 3 compare measured times, so they are timing gates:
/// enforced by `main` in release builds, reported by the debug-build
/// smoke test (an unoptimised recorder is not what they bound).
///
/// `--quick` shrinks repetitions; `--dump <path>` writes the first
/// captured `trace_dump` (the `wukong-bench trace` inspector's input).
pub fn exp_trace(run: &mut Run) -> Verdict {
    let reps = if run.quick { 2 } else { 5 };
    let w = run.ls_workload(&format!(", {NODES} nodes, {reps} reps"));

    let mut verdict = Verdict::default();
    run.header(
        "Trace: identity + overhead, enabled vs disabled",
        &[
            "workers", "firings", "off ms", "on ms", "ratio", "events", "result",
        ],
    );
    for workers in [1usize, 4] {
        // Best-of-`reps` modeled latency; every repetition must keep the
        // same digest (determinism is part of the gate, not an assumption).
        let mut arm = |trace_on: bool| {
            let ((digest, trace), agree): ((FiringDigest, TraceSnapshot), bool) = best_of(
                reps,
                || {
                    let engine = build(&w, workers, trace_on, None);
                    (drive(&engine, &w), engine.handle().trace_snapshot())
                },
                |(digest, _)| digest.hash,
                |(digest, _)| digest.total_ms,
            );
            verdict.gate(agree, || {
                format!("non-deterministic firing stream (workers {workers}, trace {trace_on})")
            });
            (digest, trace)
        };
        let (off, off_trace) = arm(false);
        let (on, on_trace) = arm(true);
        let identical = on.hash == off.hash && on.firings == off.firings;
        verdict.gate(identical, || {
            format!(
                "workers {workers}: tracing changed results ({} vs {} firings)",
                on.firings, off.firings
            )
        });
        verdict.gate(off_trace.events == 0, || {
            format!(
                "workers {workers}: disabled recorder still wrote {} events",
                off_trace.events
            )
        });
        verdict.gate(on_trace.events > 0 && on_trace.firings > 0, || {
            format!("workers {workers}: enabled recorder captured nothing")
        });
        let budget = (off.total_ms * OVERHEAD_FACTOR).max(off.total_ms + OVERHEAD_SLACK_MS);
        let within = on.total_ms <= budget;
        verdict.timing_gate(within, || {
            format!(
                "workers {workers}: trace overhead {:.2} ms over {budget:.2} ms budget",
                on.total_ms
            )
        });
        let ratio = if off.total_ms > 0.0 {
            on.total_ms / off.total_ms
        } else {
            1.0
        };
        run.row(vec![
            format!("{workers}"),
            format!("{}", on.firings),
            format!("{:.2}", off.total_ms),
            format!("{:.2}", on.total_ms),
            format!("{ratio:.3}"),
            format!("{}", on_trace.events),
            if identical && within {
                format!("{:08x}", on.hash.0 as u32)
            } else {
                "FAIL".into()
            },
        ]);
        if workers == 4 {
            run.json.section("trace", on_trace.entries());
            run.json.counter("overhead_ratio", ratio);
            run.json.counter("modeled_ms_on", on.total_ms);
            run.json.counter("modeled_ms_off", off.total_ms);
        }
    }

    // Best of `WALL_REPS` (a run takes a tenth of a second, so `--quick`
    // keeps them all), the two arms interleaved so a slow spell of the
    // host hits both.
    let (mut wall_off, mut wall_on) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..WALL_REPS {
        let (off, rows_off) = wall_run(false);
        let (on, rows_on) = wall_run(true);
        verdict.gate(rows_on == rows_off, || {
            format!("wall cell: {rows_on} rows traced, {rows_off} untraced")
        });
        wall_off = wall_off.min(off);
        wall_on = wall_on.min(on);
    }
    let wall_budget = (wall_off * WALL_FACTOR).max(wall_off + OVERHEAD_SLACK_MS);
    verdict.timing_gate(wall_on <= wall_budget, || {
        format!(
            "wall cell: {WALL_FIRINGS} firings took {wall_on:.2} ms traced, over the {wall_budget:.2} ms budget"
        )
    });
    say!(
        run,
        "\nwall clock, {WALL_FIRINGS} firings of one selective query: fire_ready {wall_off:.2} ms off, \
         {wall_on:.2} ms on (ratio {:.3}, budget {wall_budget:.2} ms)",
        wall_on / wall_off
    );
    run.json.counter("wall_ms_off", wall_off);
    run.json.counter("wall_ms_on", wall_on);
    run.json.counter("wall_overhead_ratio", wall_on / wall_off);

    let dump = dump_cell(&w, run.seed, &mut verdict);
    if let Some(d) = &dump {
        say!(
            run,
            "\nquarantine trace_dump: {} linked batches, {} causal events",
            array_len(d, "linked_batches"),
            array_len(d, "events"),
        );
        if let Some(path) = run.dump.clone() {
            std::fs::write(&path, d.to_string_pretty()).expect("write dump");
            say!(run, "dump written to {}", path.display());
        }
    }
    run.json.counter("dump_captured", f64::from(dump.is_some()));
    run.json.counter(
        "all_pass",
        f64::from(verdict.failed.is_empty() && verdict.timing.is_empty()),
    );
    if verdict.failed.is_empty() && verdict.timing.is_empty() {
        say!(
            run,
            "\nall trace gates passed: identical results, bounded modeled and wall overhead, causal dump"
        );
    }
    verdict
}
