//! Regression pin: delta-state death timestamps survive a plan switch.
//!
//! PR 4 fixed row retraction to use the *registered* RANGE when stamping
//! a row's death timestamp (`min over contributing edges of ts + RANGE`)
//! rather than the clamped instance span, so rows materialized during
//! the window-filling phase are not retracted early. An adaptive re-plan
//! discards and rebuilds `DeltaState` mid-stream; if the rebuild (or the
//! rebuilt state's first sweep) stamped deaths from the clamped window
//! of the firing it rebuilt at, the old rows would vanish a firing early
//! — or, symmetrically, retracted rows could resurrect. This test forces
//! re-plans at the sensitive points and pins the firing sequence to
//! hand-computed absolute rows, plus byte-identity with a control engine
//! that never re-plans.

use std::sync::Arc;
use wukong_core::{EngineConfig, Firing, WukongS};
use wukong_rdf::{StreamId, StringServer, Timestamp, Triple, Vid};
use wukong_stream::StreamSchema;

const INTERVAL_MS: u64 = 100;

/// `SELECT ?V0 ?V1 ?V2` joining two stream predicates on the shared
/// object — incrementalizable, so the engine maintains delta state.
const QUERY: &str = "REGISTER QUERY RR SELECT ?V0 ?V1 ?V2 \
     FROM S [RANGE 300ms STEP 100ms] \
     WHERE { GRAPH S { ?V0 ta0 ?V1 } GRAPH S { ?V2 ta1 ?V1 } }";

fn vocab(strings: &Arc<StringServer>) -> Vec<Vid> {
    for p in ["ta0", "ta1"] {
        strings.intern_predicate(p).expect("interns");
    }
    (0..4)
        .map(|i| strings.intern_entity(&format!("e{i}")).expect("interns"))
        .collect()
}

/// The three-tuple timeline, hand-batched:
///
/// - `A = e0 ta0 e1` @ raw 50  → batch 100, death 100 + 300 = 400;
/// - `B = e2 ta1 e1` @ raw 50  → batch 100, death 400;
/// - `C = e3 ta1 e1` @ raw 250 → batch 300, death 600.
///
/// Expected rows per window end (row = [?V0 ?V1 ?V2]):
///
/// - 100, 200: `[e0 e1 e2]`            (A⋈B, window still filling);
/// - 300:      `[e0 e1 e2], [e0 e1 e3]` (C arrives, A and B still live);
/// - 400 on:   nothing                  (A and B retract at hi = 400).
fn timeline(e: &[Vid], strings: &Arc<StringServer>) -> Vec<(Triple, Timestamp)> {
    let ta0 = strings.predicate_id("ta0").expect("interned");
    let ta1 = strings.predicate_id("ta1").expect("interned");
    vec![
        (Triple::new(e[0], ta0, e[1]), 50),
        (Triple::new(e[2], ta1, e[1]), 50),
        (Triple::new(e[3], ta1, e[1]), 250),
    ]
}

/// `(window_end, sorted rows)` for one firing.
type FiringRows = (Timestamp, Vec<Vec<Vid>>);

/// Drives the maintained query over the timeline on `workers` lanes,
/// forcing a re-plan right after the firing at `force_at` (None = never),
/// and returns the per-firing rows plus the engine for counters.
fn run(workers: usize, force_at: Option<Timestamp>) -> (Vec<FiringRows>, WukongS) {
    let strings = Arc::new(StringServer::new());
    let e = vocab(&strings);
    let tl = timeline(&e, &strings);
    // Adaptive drift detection stays off so the forced switch is the only
    // re-plan and the counter pins hold.
    let engine = WukongS::with_strings(
        EngineConfig::cluster(2)
            .with_workers(workers)
            .with_incremental(true),
        Arc::clone(&strings),
    );
    let s = engine.register_stream(StreamSchema::timeless(StreamId(0), "S", INTERVAL_MS));
    let id = engine.register_continuous(QUERY).expect("registers");

    let mut fed = 0;
    let mut firings: Vec<Firing> = Vec::new();
    for tick in (INTERVAL_MS..=700).step_by(INTERVAL_MS as usize) {
        while fed < tl.len() && tl[fed].1 <= tick {
            engine.ingest(s, tl[fed].0, tl[fed].1);
            fed += 1;
        }
        engine.advance_time(tick);
        firings.extend(engine.fire_ready());
        if force_at == Some(tick) {
            engine.force_replan(id);
        }
    }
    let rows = firings
        .into_iter()
        .map(|f| {
            let mut rows = f.results.rows;
            rows.sort();
            (f.window_end, rows)
        })
        .collect();
    wukong_bench::assert_mode_engaged(&format!("w{workers}+inc"), &engine);
    (rows, engine)
}

fn expected(e: &[Vid]) -> Vec<FiringRows> {
    let ab = vec![e[0], e[1], e[2]];
    let ac = vec![e[0], e[1], e[3]];
    let mut out = vec![
        (100, vec![ab.clone()]),
        (200, vec![ab.clone()]),
        (300, {
            let mut v = vec![ab, ac];
            v.sort();
            v
        }),
    ];
    out.extend((4..=7).map(|k| (k * 100, Vec::new())));
    out
}

/// One assertion body shared by every forced switch point, at 1 and 4
/// worker lanes.
fn check_switch_point(force_at: Timestamp) {
    let strings = Arc::new(StringServer::new());
    let e = vocab(&strings);
    for workers in [1, 4] {
        let (forced, engine) = run(workers, Some(force_at));
        let (control, _) = run(workers, None);

        assert_eq!(
            forced, control,
            "re-plan at {force_at} perturbed the firing sequence on {workers} workers"
        );
        assert_eq!(
            forced,
            expected(&e),
            "re-plan at {force_at} broke absolute death-timestamp semantics on {workers} workers"
        );
        let snap = engine.cluster().obs().plan().snapshot();
        assert_eq!(snap.replans, 1, "the forced re-plan must be recorded");
        assert_eq!(snap.delta_rebuilds, 1, "the switch must rebuild state");
    }
}

#[test]
fn replan_during_window_filling_keeps_filling_phase_rows_alive() {
    // The switch lands right after the first firing, while the 300ms
    // window is still filling (the clamped instance span is shorter than
    // the registered RANGE). The rebuilt state must keep A⋈B alive
    // through window 300 — retracting it at 200 is the PR 4 bug the
    // death stamp fixed, now across a plan switch.
    check_switch_point(100);
}

#[test]
fn replan_at_retraction_boundary_neither_resurrects_nor_retracts_early() {
    // The switch lands right after the last firing that contains the old
    // rows; the very next sweep must retract them (hi = 400 ≥ death) and
    // never see them again — a rebuild that re-derived rows from the
    // full window with fresh (later) death stamps would resurrect them.
    check_switch_point(300);
}

#[test]
fn replan_after_retraction_leaves_the_tail_empty() {
    check_switch_point(400);
}
