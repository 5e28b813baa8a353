//! Overload drill: a seeded 4× rate spike plus a gray-failing (slow)
//! node against bounded ingest, deterministic shedding, and
//! shed-then-catch-up recovery (DESIGN.md §11), end to end.
//!
//! One control run feeds the *spiked* LSBench timeline into an unbounded,
//! fault-free engine — what a machine with infinite headroom would
//! compute. Each drill cell then feeds the identical timeline into a
//! budgeted engine with a slow node active during the spike and checks:
//!
//! 1. **Liveness**: the stable VTS reaches the end of the timeline even
//!    though the spike overflows the ingest budget — shedding degrades
//!    answers, never progress.
//! 2. **Exact staleness accounting**: firings whose windows consumed a
//!    shed batch carry `degraded` markers; one-shot admission is closed
//!    while the engine sheds.
//! 3. **Determinism**: running the same cell twice produces a
//!    byte-identical shed log and byte-identical degraded markers (the
//!    shed decisions never read the wall clock).
//! 4. **Convergence**: after the quiet period the engine replays the
//!    retained shed suffix; every firing after catch-up is row-identical
//!    to the control run — the overload leaves no permanent damage.
//! 5. **Byte-identity when clean**: a cell whose budget exceeds the spike
//!    never sheds, never marks, and matches the control in every firing.
//!
//! Any violated gate exits non-zero. `--quick` runs the drop-oldest cell
//! only (CI smoke); `--json <path>` writes the machine-readable report.

use std::collections::BTreeMap;
use wukong_bench::{ls_workload, print_header, print_row, BenchJson, LsWorkload, Scale};
use wukong_benchdata::{lsbench, TimedTuple};
use wukong_core::{EngineConfig, Firing, OverloadState, WukongS};
use wukong_net::{FaultPlan, NodeId};
use wukong_obs::Fnv64;
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

type FiringKey = (usize, Timestamp);
type FiringMap = BTreeMap<FiringKey, Vec<Vec<wukong_rdf::Vid>>>;

/// The spiked timeline: inside `[from, until)` every tuple is repeated
/// `AMP`× — a deterministic rate spike, identical for every engine.
fn spiked_timeline(w: &LsWorkload, from: Timestamp, until: Timestamp) -> Vec<TimedTuple> {
    let mut out = Vec::with_capacity(w.timeline.len() * 2);
    for t in &w.timeline {
        out.push(*t);
        if t.timestamp >= from && t.timestamp < until {
            for _ in 1..AMP {
                out.push(*t);
            }
        }
    }
    out
}

/// The largest number of spiked tuples landing in one batch interval of
/// one stream — the peak the budget is sized against.
fn peak_batch(w: &LsWorkload, timeline: &[TimedTuple]) -> usize {
    let intervals: Vec<u64> = w.schemas().iter().map(|s| s.batch_interval_ms).collect();
    let mut buckets: BTreeMap<(u16, u64), usize> = BTreeMap::new();
    for t in timeline {
        let iv = intervals[t.stream.0 as usize].max(1);
        *buckets.entry((t.stream.0, t.timestamp / iv)).or_insert(0) += 1;
    }
    buckets.values().copied().max().unwrap_or(1)
}

fn register_mix(engine: &WukongS, bench: &wukong_benchdata::LsBench) {
    for c in 1..=3 {
        engine
            .register_continuous(&lsbench::continuous_query(bench, c, 0))
            .expect("register");
    }
}

fn collect(firings: Vec<Firing>, into: &mut FiringMap, markers: &mut Vec<(FiringKey, u64, u32)>) {
    for f in firings {
        if let Some(d) = f.results.degraded {
            markers.push(((f.query, f.window_end), d.tuples_shed, d.windows_affected));
        }
        let mut rows = f.results.rows;
        rows.sort();
        into.insert((f.query, f.window_end), rows);
    }
}

struct RunOutcome {
    during: FiringMap,
    after: FiringMap,
    /// `(firing key, tuples_shed, windows_affected)` for marked firings.
    markers: Vec<(FiringKey, u64, u32)>,
    shed_log_hash: u64,
    total_shed: u64,
    outstanding: u64,
    state_after: OverloadState,
    rejected_while_shedding: bool,
    snap: wukong_obs::OverloadSnapshot,
}

/// Feeds the spiked timeline, firing once at the spike's end (degraded
/// firings) and once at the end of the timeline (post-catch-up firings).
/// Control and cells fire at the same stream times, so their firing keys
/// line up one to one.
fn run(w: &LsWorkload, timeline: &[TimedTuple], until: Timestamp, cfg: EngineConfig) -> RunOutcome {
    let budgeted = cfg.ingest_budget.is_some();
    let engine = WukongS::with_strings(cfg, std::sync::Arc::clone(&w.strings));
    engine.load_base(w.stored.iter().copied());
    for schema in w.schemas() {
        engine.register_stream(schema);
    }
    register_mix(&engine, &w.bench);

    let mut during = FiringMap::new();
    let mut after = FiringMap::new();
    let mut markers = Vec::new();
    let mut fired_mid = false;
    let mut rejected_while_shedding = false;
    for t in timeline {
        if !fired_mid && t.timestamp >= until {
            collect(engine.fire_ready(), &mut during, &mut markers);
            // Admission control: while the engine sheds, one-shot work
            // is turned away (the control run stays open).
            if budgeted && engine.overload_state() == OverloadState::Shedding {
                rejected_while_shedding = engine
                    .one_shot(&lsbench::oneshot_query(&w.bench, 1, 0))
                    .is_err();
            }
            fired_mid = true;
        }
        engine.ingest(t.stream, t.triple, t.timestamp);
    }
    engine.advance_time(w.duration);
    collect(engine.fire_ready(), &mut after, &mut markers);

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

fn cell_config(
    policy: ShedPolicy,
    budget: usize,
    from: Timestamp,
    until: Timestamp,
) -> EngineConfig {
    let mut cfg = EngineConfig::cluster(NODES)
        .with_ingest_budget(Some(IngestBudget::tuples(budget)))
        .with_shed_policy(policy);
    cfg.overload.catchup_quiet_ms = QUIET_MS;
    // The drill's gates are deterministic; keep the (wall-clock) latency
    // trip out of the picture so they stay exact.
    cfg.overload.latency_budget_ms = 1e9;
    cfg.fault_plan = Some(
        FaultPlan::seeded(wukong_bench::seed_from_env()).slow_node_during(
            NodeId(1),
            SLOW_FACTOR_X100,
            from,
            until,
        ),
    );
    cfg
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let mut jr = BenchJson::from_env("exp_overload");
    let scale = Scale::from_env();
    let w = ls_workload(scale);
    let (from, until) = (w.duration / 3, w.duration / 2);
    let timeline = spiked_timeline(&w, from, until);
    let peak = peak_batch(&w, &timeline);
    // A quarter of the spiked peak: the spike overflows hard, the
    // steady-state rate mostly fits.
    let budget = (peak / AMP).max(4);
    println!(
        "LSBench: {} stored triples, {} stream tuples ({} after the {AMP}x spike over [{from}, {until})), \
         peak batch {peak}, budget {budget} tuples ({NODES} nodes, scale {scale:?})",
        w.stored.len(),
        w.timeline.len(),
        timeline.len(),
    );

    // Control: the same spiked timeline, unbounded and fault-free.
    let control = run(&w, &timeline, until, EngineConfig::cluster(NODES));
    assert_eq!(control.total_shed, 0);
    assert!(control.markers.is_empty());
    println!(
        "control run: {} + {} firings",
        control.during.len(),
        control.after.len()
    );

    let policies: &[ShedPolicy] = if quick {
        &[ShedPolicy::DropOldestWindow]
    } else {
        &[ShedPolicy::DropOldestWindow, ShedPolicy::SampleWithinBatch]
    };

    print_header(
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
    let mut all_match = true;
    let mut last_snap = None;
    for &policy in policies {
        let tag = match policy {
            ShedPolicy::DropOldestWindow => "drop_oldest",
            ShedPolicy::SampleWithinBatch => "sample",
        };
        let a = run(
            &w,
            &timeline,
            until,
            cell_config(policy, budget, from, until),
        );
        let b = run(
            &w,
            &timeline,
            until,
            cell_config(policy, budget, from, until),
        );

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
        let converged = a.after == control.after
            && a.markers.iter().all(|(k, _, _)| a.during.contains_key(k))
            && a.snap.catchup_replays >= 1
            && a.snap.catchup_replayed_tuples == a.total_shed;
        let ok = live && degraded && deterministic && converged;
        all_match &= ok;
        print_row(vec![
            tag.into(),
            format!("{}", a.total_shed),
            format!("{}", a.markers.len()),
            if a.rejected_while_shedding {
                "yes"
            } else {
                "no"
            }
            .into(),
            format!("{}", a.snap.catchup_replays),
            if converged { "yes" } else { "no" }.into(),
            if ok { "PASS" } else { "FAIL" }.into(),
        ]);
        jr.counter(&format!("{tag}/tuples_shed"), a.total_shed as f64);
        jr.counter(&format!("{tag}/degraded_firings"), a.markers.len() as f64);
        jr.counter(
            &format!("{tag}/catchup_replays"),
            a.snap.catchup_replays as f64,
        );
        jr.counter(&format!("{tag}/pass"), if ok { 1.0 } else { 0.0 });
        last_snap = Some(a.snap);
    }

    // Gate 5 — byte-identity when clean: a budget the spike never
    // overflows sheds nothing and matches the control everywhere.
    let mut clean_cfg =
        EngineConfig::cluster(NODES).with_ingest_budget(Some(IngestBudget::tuples(peak * 2 + 16)));
    clean_cfg.overload.catchup_quiet_ms = QUIET_MS;
    clean_cfg.overload.latency_budget_ms = 1e9;
    let clean = run(&w, &timeline, until, clean_cfg);
    let clean_ok = clean.total_shed == 0
        && clean.markers.is_empty()
        && clean.snap.tuples_shed == 0
        && clean.during == control.during
        && clean.after == control.after;
    all_match &= clean_ok;
    print_row(vec![
        "clean".into(),
        "0".into(),
        "0".into(),
        "-".into(),
        "0".into(),
        if clean_ok { "yes" } else { "no" }.into(),
        if clean_ok { "PASS" } else { "FAIL" }.into(),
    ]);
    jr.counter("clean/pass", if clean_ok { 1.0 } else { 0.0 });

    if let Some(snap) = last_snap {
        jr.section("overload", snap.entries());
    }
    jr.counter("cells", (policies.len() + 1) as f64);
    jr.counter("all_match", if all_match { 1.0 } else { 0.0 });
    jr.finish();

    if !all_match {
        eprintln!("overload drill FAILED: a gate did not hold");
        std::process::exit(1);
    }
    println!("\nall {} cells pass every gate", policies.len() + 1);
}
