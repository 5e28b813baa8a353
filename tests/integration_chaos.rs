//! Composed-fault chaos, end to end (DESIGN.md §13): corruption is
//! detected before any result leaves poisoned state, quarantined shards
//! rebuild from the checkpoint chain, a bit-rotted chain routes to the
//! pristine backup, a recovery drill converges even while the shedder is
//! actively dropping load, faulted runs are replay-deterministic, and
//! the schedule shrinker returns 1-minimal reproducers.

use std::collections::BTreeMap;
use std::sync::Arc;
use wukong_bench::{ls_workload_seeded, LsWorkload, Scale};
use wukong_benchdata::lsbench;
use wukong_core::{EngineConfig, OverloadPolicy, OverloadState, RecoveryManager, WukongS};
use wukong_net::{shrink_schedule, ChaosEvent, ChaosSchedule, FaultPlan, NodeId};
use wukong_rdf::{Timestamp, Vid};
use wukong_stream::IngestBudget;

const NODES: usize = 4;
const FIRE_EVERY: usize = 250;

fn sorted(mut rows: Vec<Vec<Vid>>) -> Vec<Vec<Vid>> {
    rows.sort();
    rows
}

/// Boots an FT deployment over the shared workload and registers the
/// three continuous LSBench classes.
fn boot(w: &LsWorkload, cfg: EngineConfig) -> WukongS {
    let engine = WukongS::with_strings(cfg, Arc::clone(&w.strings));
    engine.load_base(w.stored.iter().copied());
    for schema in w.schemas() {
        engine.register_stream(schema);
    }
    for c in 1..=3 {
        engine
            .register_continuous(&lsbench::continuous_query(&w.bench, c, 0))
            .expect("register");
    }
    engine
}

fn ft_cluster() -> EngineConfig {
    EngineConfig {
        fault_tolerance: true,
        ..EngineConfig::cluster(NODES)
    }
}

/// Drives the timeline on the exp_chaos cadence and folds every firing
/// into `(query, window_end) -> sorted rows` (keeping the latest firing
/// per key, at-least-once style).
fn drive(engine: &WukongS, w: &LsWorkload) -> BTreeMap<(usize, Timestamp), Vec<Vec<Vid>>> {
    let mut fired = BTreeMap::new();
    let mut fold = |firings: Vec<wukong_core::Firing>| {
        for f in firings {
            fired.insert((f.query, f.window_end), sorted(f.results.rows));
        }
    };
    for (i, t) in w.timeline.iter().enumerate() {
        if i > 0 && i % FIRE_EVERY == 0 {
            fold(engine.fire_ready());
        }
        engine.ingest(t.stream, t.triple, t.timestamp);
    }
    engine.advance_time(w.duration);
    fold(engine.fire_ready());
    fired
}

/// The per-query rows of the recovered engine's current windows, against
/// the fault-free control's — convergence after the drill.
fn assert_rows_match(control: &WukongS, recovered: &WukongS) {
    assert_eq!(recovered.continuous_count(), control.continuous_count());
    for id in 0..control.continuous_count() {
        assert_eq!(
            sorted(recovered.execute_registered(id).0.rows),
            sorted(control.execute_registered(id).0.rows),
            "query {id} diverged after recovery"
        );
    }
}

/// Every injected message corruption is caught at the install site
/// before any result is emitted from the poisoned shard; the shard is
/// quarantined; rebuilding from the (pristine) log converges back to the
/// fault-free answers.
#[test]
fn message_corruption_detected_quarantined_and_rebuilt() {
    let w = ls_workload_seeded(Scale::Tiny, 911);
    let control = boot(&w, ft_cluster());
    drive(&control, &w);

    let cfg = EngineConfig {
        fault_plan: Some(FaultPlan::seeded(911).corrupt_messages(1.0)),
        ..ft_cluster()
    };
    let mgr = RecoveryManager::new(
        cfg.clone(),
        w.stored.clone(),
        w.schemas(),
        Arc::clone(&w.strings),
    );
    let engine = boot(&w, cfg);
    drive(&engine, &w);

    let faults = engine.handle().fault_counters();
    let integrity = engine.handle().obs().integrity().snapshot();
    assert!(faults.msgs_corrupted > 0, "plan injected nothing");
    assert_eq!(
        integrity.checksum_fail_message, faults.msgs_corrupted,
        "every corrupted sub-batch must be detected at install"
    );
    assert!(
        !engine.quarantined_nodes().is_empty(),
        "no shard quarantined"
    );
    // Detection-before-emission: anything fired off poisoned state says so.
    for f in engine.fire_ready() {
        assert_eq!(
            f.results.quarantined_shards,
            engine.quarantined_nodes(),
            "firing under quarantine must carry the containment marker"
        );
    }

    let (recovered, report) = mgr.drill(&engine, None).expect("recovery");
    assert!(
        report.quarantined_shards > 0,
        "drill must account the rebuild"
    );
    assert!(
        recovered.quarantined_nodes().is_empty(),
        "rebuild clears quarantine"
    );
    recovered.advance_time(w.duration);
    recovered.fire_ready();
    assert_rows_match(&control, &recovered);
    assert!(
        recovered.scrub().is_empty(),
        "rebuilt state must scrub clean"
    );
}

/// A bit-rotted checkpoint chain fails its section checksums, recovery
/// falls back to the pristine upstream copy, and the violation is
/// reported — never silently decoded.
#[test]
fn corrupted_checkpoint_chain_falls_back_to_backup() {
    let w = ls_workload_seeded(Scale::Tiny, 912);
    let control = boot(&w, ft_cluster());
    drive(&control, &w);

    let cfg = EngineConfig {
        fault_plan: Some(FaultPlan::seeded(912).corrupt_checkpoints(1.0)),
        ..ft_cluster()
    };
    let mgr = RecoveryManager::new(
        cfg.clone(),
        w.stored.clone(),
        w.schemas(),
        Arc::clone(&w.strings),
    );
    let engine = boot(&w, cfg);
    // Checkpoint mid-run so the chain has a non-empty image to rot.
    let half = w.duration / 2;
    let mut checkpointed = false;
    for (i, t) in w.timeline.iter().enumerate() {
        if i > 0 && i % FIRE_EVERY == 0 {
            engine.fire_ready();
        }
        if !checkpointed && t.timestamp >= half {
            engine.checkpoint();
            checkpointed = true;
        }
        engine.ingest(t.stream, t.triple, t.timestamp);
    }
    engine.advance_time(w.duration);
    engine.fire_ready();

    let (recovered, report) = mgr.drill(&engine, None).expect("recovery");
    let faults = engine.handle().fault_counters();
    assert!(faults.checkpoints_corrupted > 0, "plan rotted nothing");
    assert!(
        report.integrity_violations > 0,
        "checksum rejection must be reported, not silent"
    );
    recovered.advance_time(w.duration);
    recovered.fire_ready();
    assert_rows_match(&control, &recovered);
}

/// PR2 × PR5 interaction: a node outage piles the pending queues past a
/// tight ingest budget, the shedder trips to `Shedding`, and the drill
/// fires *while the engine is actively shedding*. The durable log holds
/// every tuple (logging precedes shedding), so the rebuilt engine
/// converges to the fault-free answers with no outage and no budget
/// pressure during replay.
#[test]
fn recovery_drill_while_shedding_converges() {
    let w = ls_workload_seeded(Scale::Tiny, 913);
    let control = boot(&w, ft_cluster());
    drive(&control, &w);

    let half = w.duration / 2;
    let cfg = EngineConfig {
        // The scheduled outage stalls the stable VTS, so pending piles
        // up behind the dead node and the budget starts shedding.
        fault_plan: Some(FaultPlan::seeded(913).kill_at(NodeId(2), half)),
        overload: OverloadPolicy {
            catchup_quiet_ms: 1_000_000, // never catch up: stay in Shedding
            ..OverloadPolicy::default()
        },
        ..ft_cluster()
    }
    // Wider than any single batch (replay drains batch-by-batch and must
    // not re-shed) but narrower than the outage pileup.
    .with_ingest_budget(Some(IngestBudget::tuples(24)));
    let mgr = RecoveryManager::new(
        cfg.clone(),
        w.stored.clone(),
        w.schemas(),
        Arc::clone(&w.strings),
    );
    let engine = boot(&w, cfg);

    let mut checkpointed = false;
    for t in &w.timeline {
        if !checkpointed && t.timestamp >= half {
            engine.checkpoint();
            checkpointed = true;
        }
        engine.ingest(t.stream, t.triple, t.timestamp);
    }
    assert_eq!(
        engine.overload_state(),
        OverloadState::Shedding,
        "budget must have tripped during the outage"
    );
    assert!(engine.total_shed() > 0, "nothing was shed");

    let (recovered, report) = mgr.drill(&engine, None).expect("recovery");
    assert!(report.replayed_batches > 0);
    recovered.advance_time(w.duration);
    recovered.fire_ready();
    assert_eq!(recovered.overload_state(), OverloadState::Normal);
    assert_rows_match(&control, &recovered);
    assert!(recovered.scrub().is_empty());
}

/// The invariant scrubber stays silent on a healthy, fault-free run —
/// its findings under chaos are signal, not noise.
#[test]
fn healthy_run_scrubs_clean() {
    let w = ls_workload_seeded(Scale::Tiny, 914);
    let engine = boot(&w, ft_cluster());
    for (i, t) in w.timeline.iter().enumerate() {
        if i > 0 && i % FIRE_EVERY == 0 {
            engine.fire_ready();
            assert!(
                engine.scrub().is_empty(),
                "healthy run tripped the scrubber"
            );
        }
        engine.ingest(t.stream, t.triple, t.timestamp);
    }
    engine.advance_time(w.duration);
    engine.fire_ready();
    assert!(engine.scrub().is_empty());
}

/// A faulted cell is replay-deterministic: the same schedule over the
/// same workload produces byte-identical firing maps — the property the
/// shrinker's re-runs (and any bug report carrying a seed) depend on.
#[test]
fn faulted_run_is_deterministic() {
    let w = ls_workload_seeded(Scale::Tiny, 915);
    let run = || {
        let cfg = EngineConfig {
            fault_plan: Some(
                FaultPlan::seeded(915)
                    .kill_at(NodeId(1), w.duration / 3)
                    .lossy(0.05, 0.05)
                    .corrupt_messages(0.01),
            ),
            ..ft_cluster()
        };
        let engine = boot(&w, cfg);
        drive(&engine, &w)
    };
    assert_eq!(
        run(),
        run(),
        "same schedule, same workload, different firings"
    );
}

/// The shrinker returns a 1-minimal schedule: the failure survives every
/// step of the reduction, and no single event can be removed from the
/// result without losing it.
#[test]
fn shrinker_is_one_minimal() {
    let schedule = ChaosSchedule::generate(42, NODES as u16, 4_000);
    assert!(!schedule.events.is_empty());
    // Synthetic failure: any schedule still carrying a kill *or* lossy
    // links "fails" — the minimal reproducer is a single such event.
    let fails = |s: &ChaosSchedule| {
        s.events
            .iter()
            .any(|e| matches!(e, ChaosEvent::Kill { .. } | ChaosEvent::LossyLinks { .. }))
    };
    let mut seeded = schedule;
    if !fails(&seeded) {
        seeded.events.push(ChaosEvent::Kill { node: 1, at_ms: 10 });
    }
    let minimal = shrink_schedule(seeded, fails);
    assert!(fails(&minimal), "shrinking lost the failure");
    assert_eq!(
        minimal.events.len(),
        1,
        "reproducer is not minimal: {minimal:?}"
    );
    for i in 0..minimal.events.len() {
        assert!(
            !fails(&minimal.without(i)),
            "event {i} is removable — not 1-minimal"
        );
    }
}

/// Schedule generation is a pure function of the seed, and distinct
/// seeds explore distinct compositions.
#[test]
fn chaos_generation_is_deterministic_and_diverse() {
    let a = ChaosSchedule::generate(1234, NODES as u16, 10_000);
    let b = ChaosSchedule::generate(1234, NODES as u16, 10_000);
    assert_eq!(a, b);
    assert_eq!(a.describe(), b.describe());
    let distinct = (0..16)
        .map(|s| ChaosSchedule::generate(s, NODES as u16, 10_000).describe())
        .collect::<std::collections::BTreeSet<_>>()
        .len();
    assert!(
        distinct >= 12,
        "seeds barely vary the schedules: {distinct}/16"
    );
}
