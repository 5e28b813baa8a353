//! The execution-mode sweep: the one list of engine modes whose results
//! must be byte-identical, shared by `exp_chaos` and the equivalence
//! suites under `tests/`.

use wukong_core::{EngineConfig, WukongS};
use wukong_rdf::{StreamId, Triple};

/// The modes every result must be identical across, as `(label,
/// configuration)` legs over `base`: worker lanes {1, 4} × delta
/// maintenance × adaptive planning with the flight recorder on (eight
/// legs, `w1` … `w4+inc+adp`, workers varying fastest, then delta
/// maintenance), then `recorder-off` — the `w1` leg with the recorder
/// disabled. Every other field is `base`'s.
pub fn modes(base: EngineConfig) -> Vec<(String, EngineConfig)> {
    let mut legs: Vec<(String, EngineConfig)> = (0..8)
        .map(|i| {
            let workers = if i & 1 == 0 { 1 } else { 4 };
            let (incremental, adaptive) = (i & 2 != 0, i & 4 != 0);
            let label = format!(
                "w{workers}{}{}",
                if incremental { "+inc" } else { "" },
                if adaptive { "+adp" } else { "" }
            );
            let cfg = base
                .clone()
                .with_workers(workers)
                .with_incremental(incremental)
                .with_adaptive(adaptive)
                .with_trace(true);
            (label, cfg)
        })
        .collect();
    let recorder_off = legs[0].1.clone().with_trace(false);
    legs.push(("recorder-off".to_string(), recorder_off));
    legs
}

/// The five legs of [`modes`] that recompute every firing (delta
/// maintenance off): the baselines maintenance is compared against, and
/// all a scenario that never fires an incrementalizable standing query
/// can tell apart — one-shots and `execute_registered` probes never
/// maintain delta state, so for them the delta legs repeat these.
pub fn recompute_modes(base: EngineConfig) -> impl Iterator<Item = (String, EngineConfig)> {
    modes(base).into_iter().filter(|(_, cfg)| !cfg.incremental)
}

/// Panics unless `engine` really ran in the mode its configuration names,
/// so a sweep over [`modes`] cannot pass by comparing a mode with
/// itself. Call it on an engine that has fired an incrementalizable
/// continuous query through `fire_ready`: delta maintenance must have
/// maintained a firing, a wide pool must have run a region, adaptive
/// planning must have consulted the plan cache, and the flight recorder
/// must hold events exactly when it is on.
pub fn assert_mode_engaged(leg: &str, engine: &WukongS) {
    let cfg = engine.config();
    let obs = engine.cluster().obs();
    let delta = obs.incremental().snapshot();
    let maintained = delta.incremental_firings + delta.rebuild_firings;
    assert_eq!(
        maintained > 0,
        cfg.incremental,
        "{leg}: {maintained} maintained firings"
    );
    if cfg.worker_threads > 1 {
        let regions = obs.pool().snapshot().regions;
        assert!(regions > 0, "{leg}: no worker-pool region ran");
    }
    let plan = obs.plan().snapshot();
    let lookups = plan.cache_hits + plan.cache_misses;
    assert_eq!(
        lookups > 0,
        cfg.adaptive,
        "{leg}: {lookups} plan-cache lookups"
    );
    let events = obs.trace().snapshot().events;
    assert_eq!(events > 0, cfg.trace, "{leg}: {events} recorded events");
}

/// Panics unless `engine` enforces exactly the ingest budget its
/// configuration names, so a sweep over budgets cannot pass on engines
/// that never had one: a burst of twice the budget (256 tuples without
/// one) into a single mini-batch of `stream` must shed if and only if a
/// budget is installed. Call it last — it leaves the engine overloaded.
pub fn assert_budget_engaged(leg: &str, engine: &WukongS, stream: StreamId) {
    let budget = engine.config().ingest_budget;
    let burst = budget.map_or(256, |b| 2 * b.max_tuples + 1);
    let strings = engine.strings();
    let p = strings.intern_predicate("burst").expect("interns");
    let o = strings.intern_entity("burst").expect("interns");
    let shed_before = engine.total_shed();
    let ts = engine.stable_ts(stream) + 1;
    for i in 0..burst {
        let s = strings
            .intern_entity(&format!("burst{i}"))
            .expect("interns");
        engine.ingest(stream, Triple::new(s, p, o), ts);
    }
    engine.advance_time(ts + 10_000);
    let shed = engine.total_shed() - shed_before;
    assert_eq!(
        shed > 0,
        budget.is_some(),
        "{leg}: a {burst}-tuple burst shed {shed} tuples"
    );
}

/// Whether `engine` installed some batch while it filled: its streams'
/// batches came in more pieces than there are batches. Every engine
/// without an ingest budget cuts a batch into pieces once it outgrows
/// one, fault plan or not, so a run whose batches do must show it.
pub fn cut_pieces(engine: &WukongS) -> bool {
    let (pieces, batches) = (0..engine.cluster().streams().len())
        .map(|s| engine.injection_stats(StreamId(s as u16)))
        .fold((0, 0), |(p, b), (stats, n)| {
            (p + stats.pieces as u64, b + n)
        });
    pieces > batches
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modes_are_nine_distinct_legs_over_the_base() {
        let base = EngineConfig {
            fault_tolerance: true,
            gc_every_batches: 4,
            ..EngineConfig::cluster_tcp(3)
        };
        let legs = modes(base.clone());
        assert_eq!(legs.len(), 9);
        for (i, (label, cfg)) in legs.iter().enumerate() {
            for (other_label, other) in &legs[..i] {
                assert_ne!(label, other_label);
                assert_ne!(cfg, other, "{label} repeats {other_label}");
            }
            // Only the four swept fields may differ from the base.
            let rest = EngineConfig {
                worker_threads: base.worker_threads,
                incremental: base.incremental,
                adaptive: base.adaptive,
                trace: base.trace,
                ..cfg.clone()
            };
            assert_eq!(rest, base, "{label} changed a field outside the sweep");
        }
        assert_eq!(legs[0].0, "w1");
        assert_eq!(legs[0].1, base, "the first leg is the preset itself");
        assert_eq!(legs[7].0, "w4+inc+adp");
        let recorder_off = &legs[8];
        assert_eq!(recorder_off.0, "recorder-off");
        assert_eq!(recorder_off.1, base.clone().with_trace(false));
        let recompute: Vec<String> = recompute_modes(base).map(|(label, _)| label).collect();
        assert_eq!(recompute, ["w1", "w4", "w1+adp", "w4+adp", "recorder-off"]);
    }
}
