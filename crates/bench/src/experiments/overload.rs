//! Overload drill: a seeded 4× rate spike plus a gray-failing (slow)
//! node against bounded ingest, deterministic shedding, and
//! shed-then-catch-up recovery (DESIGN.md §11), end to end.

use super::durability::register_mix;
use crate::replay::{collect, replay, same_rows, Fire, FiringMap};
use crate::run::{Run, Verdict};
use crate::say;
use crate::workload::LsWorkload;
use std::collections::BTreeMap;
use wukong_benchdata::{lsbench, TimedTuple};
use wukong_core::{EngineConfig, Firing, OverloadState};
use wukong_net::{FaultPlan, NodeId};
use wukong_obs::{Fnv64, OverloadSnapshot};
use wukong_rdf::Timestamp;
use wukong_stream::{IngestBudget, ShedPolicy};

const NODES: usize = 2;
/// Spike amplification: every tuple inside the spike window arrives 4×.
const AMP: usize = 4;
/// Slow-node gray failure during the spike: 3× virtual-time slowdown.
const SLOW_FACTOR_X100: u64 = 300;
/// Catch-up quiet period for the drill (short, so the post-spike tail of
/// the timeline triggers the replay well before the final firing).
const QUIET_MS: u64 = 300;

/// The spiked timeline: inside `[from, until)` every tuple is repeated
/// `AMP`× — a deterministic rate spike, identical for every engine.
fn spiked_timeline(w: &LsWorkload, from: Timestamp, until: Timestamp) -> Vec<TimedTuple> {
    let mut out = Vec::with_capacity(w.timeline.len() * 2);
    for t in &w.timeline {
        let copies = if t.timestamp >= from && t.timestamp < until {
            AMP
        } else {
            1
        };
        out.extend(std::iter::repeat_n(*t, copies));
    }
    out
}

/// The largest number of spiked tuples landing in one batch interval of
/// one stream — the peak the budget is sized against.
fn peak_batch(w: &LsWorkload, timeline: &[TimedTuple]) -> usize {
    let mut buckets: BTreeMap<(u16, u64), usize> = BTreeMap::new();
    for t in timeline {
        let interval = w.schemas[t.stream.0 as usize].batch_interval_ms.max(1);
        *buckets
            .entry((t.stream.0, t.timestamp / interval))
            .or_insert(0) += 1;
    }
    buckets.values().copied().max().unwrap_or(1)
}

/// `(firing key, tuples_shed, windows_affected)` of the marked firings.
type Markers = Vec<((usize, Timestamp), u64, u32)>;

fn markers_of(firings: &[Firing], into: &mut Markers) {
    for f in firings {
        if let Some(d) = f.results.degraded {
            into.push(((f.query, f.window_end), d.tuples_shed, d.windows_affected));
        }
    }
}

struct RunOutcome {
    during: FiringMap,
    after: FiringMap,
    markers: Markers,
    shed_log_hash: u64,
    total_shed: u64,
    outstanding: u64,
    state_after: OverloadState,
    rejected_while_shedding: bool,
    snap: OverloadSnapshot,
}

/// Feeds the spiked timeline, firing once at the spike's end (degraded
/// firings) and once at the end of the timeline (post-catch-up firings).
/// Control and cells fire at the same stream times, so their firing keys
/// line up one to one.
fn drive(
    w: &LsWorkload,
    timeline: &[TimedTuple],
    until: Timestamp,
    cfg: EngineConfig,
) -> RunOutcome {
    let budgeted = cfg.ingest_budget.is_some();
    let engine = w.boot(cfg);
    register_mix(&engine, &w.bench);

    let mut during = FiringMap::new();
    let mut after = FiringMap::new();
    let mut markers = Markers::new();
    let mut rejected_while_shedding = false;
    replay(
        &engine,
        timeline,
        Fire::Once(until),
        None,
        w.duration,
        |firings| {
            markers_of(&firings, &mut markers);
            collect(firings, &mut during);
            // Admission control: while the engine sheds, one-shot work is
            // turned away (the control run stays open).
            if budgeted && engine.overload_state() == OverloadState::Shedding {
                rejected_while_shedding = engine
                    .one_shot(&lsbench::oneshot_query(&w.bench, 1, 0))
                    .is_err();
            }
        },
    );
    let firings = engine.fire_ready();
    markers_of(&firings, &mut markers);
    collect(firings, &mut after);

    let mut log_hash = Fnv64::new();
    for r in engine.shed_log() {
        log_hash.push(r.stream.0 as u64);
        log_hash.push(r.batch_ts);
        log_hash.push(r.tuples_shed);
    }
    RunOutcome {
        during,
        after,
        markers,
        shed_log_hash: log_hash.0,
        total_shed: engine.total_shed(),
        outstanding: engine.shed_outstanding(),
        state_after: engine.overload_state(),
        rejected_while_shedding,
        snap: engine.handle().obs().overload().snapshot(),
    }
}

/// A budgeted configuration for the drill. Its gates are deterministic;
/// the (wall-clock) latency trip is kept out of the picture so they stay
/// exact.
fn budgeted(budget: usize) -> EngineConfig {
    let mut cfg =
        EngineConfig::cluster(NODES).with_ingest_budget(Some(IngestBudget::tuples(budget)));
    cfg.overload.catchup_quiet_ms = QUIET_MS;
    cfg.overload.latency_budget_ms = 1e9;
    cfg
}

/// One control run feeds the *spiked* LSBench timeline into an unbounded,
/// fault-free engine — what a machine with infinite headroom would
/// compute. Each drill cell then feeds the identical timeline into a
/// budgeted engine with a slow node active during the spike and checks:
///
/// 1. **Liveness**: the stable VTS reaches the end of the timeline even
///    though the spike overflows the ingest budget — shedding degrades
///    answers, never progress.
/// 2. **Exact staleness accounting**: firings whose windows consumed a
///    shed batch carry `degraded` markers; one-shot admission is closed
///    while the engine sheds.
/// 3. **Determinism**: running the same cell twice produces a
///    byte-identical shed log and byte-identical degraded markers (the
///    shed decisions never read the wall clock).
/// 4. **Convergence**: after the quiet period the engine replays the
///    retained shed suffix; every firing after catch-up is row-identical
///    to the control run — the overload leaves no permanent damage.
/// 5. **Byte-identity when clean**: a cell whose budget exceeds the spike
///    never sheds, never marks, and matches the control in every firing.
///
/// `--quick` runs the drop-oldest cell only.
pub(crate) fn exp_overload(run: &mut Run) -> Verdict {
    let w = run.ls_workload(", 2 nodes");
    let (from, until) = (w.duration / 3, w.duration / 2);
    let timeline = spiked_timeline(&w, from, until);
    let peak = peak_batch(&w, &timeline);
    // A quarter of the spiked peak: the spike overflows hard, the
    // steady-state rate mostly fits.
    let budget = (peak / AMP).max(4);
    say!(
        run,
        "{} tuples after the {AMP}x spike over [{from}, {until}), peak batch {peak}, budget {budget} tuples",
        timeline.len(),
    );

    // Control: the same spiked timeline, unbounded and fault-free.
    let control = drive(&w, &timeline, until, EngineConfig::cluster(NODES));
    assert_eq!(control.total_shed, 0);
    assert!(control.markers.is_empty());
    say!(
        run,
        "control run: {} + {} firings",
        control.during.len(),
        control.after.len()
    );

    let policies: &[(&str, ShedPolicy)] = &[
        ("drop_oldest", ShedPolicy::DropOldestWindow),
        ("sample", ShedPolicy::SampleWithinBatch),
    ];
    let policies = if run.quick { &policies[..1] } else { policies };
    run.header(
        "Overload drill: spike + slow node vs bounded ingest",
        &[
            "cell",
            "shed",
            "markers",
            "reject",
            "replays",
            "converged",
            "result",
        ],
    );
    let mut verdict = Verdict::default();
    let yes_no = |b: bool| if b { "yes" } else { "no" }.to_string();
    let pass_fail = |b: bool| if b { "PASS" } else { "FAIL" }.to_string();
    for &(tag, policy) in policies {
        let cell = || {
            let mut cfg = budgeted(budget).with_shed_policy(policy);
            cfg.fault_plan = Some(FaultPlan::seeded(run.seed).slow_node_during(
                NodeId(1),
                SLOW_FACTOR_X100,
                from,
                until,
            ));
            drive(&w, &timeline, until, cfg)
        };
        let (a, b) = (cell(), cell());

        // Gate 1 — liveness: the run completed and the state machine
        // settled back to Normal with nothing left outstanding.
        let live = a.state_after == OverloadState::Normal && a.outstanding == 0;
        // Gate 2 — the spike was actually shed, firings over the shed
        // batches carried markers, and admission control closed.
        let degraded = a.total_shed > 0 && !a.markers.is_empty() && a.rejected_while_shedding;
        // Gate 3 — determinism: byte-identical shed log and markers
        // across two identical runs.
        let deterministic = a.shed_log_hash == b.shed_log_hash && a.markers == b.markers;
        // Gate 4 — convergence: every post-catch-up firing matches the
        // control, and none still carries a marker.
        let converged = same_rows(&a.after, &control.after)
            && a.markers.iter().all(|(k, _, _)| a.during.contains_key(k))
            && a.snap.catchup_replays >= 1
            && a.snap.catchup_replayed_tuples == a.total_shed;
        let ok = live && degraded && deterministic && converged;
        verdict.gate(ok, || {
            format!(
                "{tag}: live {live}, degraded {degraded}, deterministic {deterministic}, \
                 converged {converged}"
            )
        });
        run.row(vec![
            tag.into(),
            format!("{}", a.total_shed),
            format!("{}", a.markers.len()),
            yes_no(a.rejected_while_shedding),
            format!("{}", a.snap.catchup_replays),
            yes_no(converged),
            pass_fail(ok),
        ]);
        run.json
            .counter(&format!("{tag}/tuples_shed"), a.total_shed as f64);
        run.json
            .counter(&format!("{tag}/degraded_firings"), a.markers.len() as f64);
        run.json.counter(
            &format!("{tag}/catchup_replays"),
            a.snap.catchup_replays as f64,
        );
        run.json.counter(&format!("{tag}/pass"), f64::from(ok));
        run.json.section("overload", a.snap.entries());
    }

    // Gate 5 — byte-identity when clean: a budget the spike never
    // overflows sheds nothing and matches the control everywhere.
    let clean = drive(&w, &timeline, until, budgeted(peak * 2 + 16));
    let clean_ok = clean.total_shed == 0
        && clean.markers.is_empty()
        && clean.snap.tuples_shed == 0
        && same_rows(&clean.during, &control.during)
        && same_rows(&clean.after, &control.after);
    verdict.gate(clean_ok, || {
        "clean: an ample budget shed or diverged from the control".into()
    });
    run.row(vec![
        "clean".into(),
        "0".into(),
        "0".into(),
        "-".into(),
        "0".into(),
        yes_no(clean_ok),
        pass_fail(clean_ok),
    ]);
    run.json.counter("clean/pass", f64::from(clean_ok));
    run.json.counter("cells", (policies.len() + 1) as f64);
    run.json
        .counter("all_match", f64::from(verdict.failed.is_empty()));
    if verdict.failed.is_empty() {
        say!(run, "\nall {} cells pass every gate", policies.len() + 1);
    }
    verdict
}
