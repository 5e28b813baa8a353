//! Property-based tests of the overload subsystem's *exact accounting*
//! guarantee (DESIGN.md §11): shedding may degrade answers but must
//! never lose count of a tuple, and every degraded firing must declare
//! precisely the staleness its windows absorbed.
//!
//! Two properties, checked end to end through the public engine API for
//! arbitrary bursty timelines, budgets and policies (the sample mask's
//! dependence on its seed is pinned at the `Shedder` level):
//!
//! 1. **Conservation.** Every ingested tuple is accounted for exactly
//!    once: applied through the pipeline (timeless + timing), discarded
//!    by the adaptor, or shed — and every shed tuple is either still
//!    outstanding or has been replayed by catch-up.
//! 2. **Marker exactness.** A firing carries a `degraded` marker iff the
//!    shed log contains a record inside one of its window instances, and
//!    the marker's `tuples_shed` equals the sum of exactly those
//!    records — reconstructible by an outside observer from the public
//!    shed log and the query's window geometry alone.

use proptest::prelude::*;
use std::sync::Arc;
use wukong_core::{EngineConfig, Firing, WukongS};
use wukong_rdf::{Pid, StreamId, StringServer, Timestamp, Triple, Vid};
use wukong_stream::{IngestBudget, ShedPolicy, StreamSchema};

const INTERVAL_MS: u64 = 100;
const RANGE_MS: u64 = 300;
const HORIZON: Timestamp = 1_500;

const JOIN_QUERY: &str = "REGISTER QUERY PO SELECT ?V0 ?V1 ?V2 \
     FROM S [RANGE 300ms STEP 100ms] \
     WHERE { GRAPH S { ?V0 ta0 ?V1 } GRAPH S { ?V2 ta1 ?V1 } }";

fn vocab(strings: &Arc<StringServer>) -> (Vec<Vid>, Vec<Pid>) {
    let entities = (0..8)
        .map(|i| strings.intern_entity(&format!("e{i}")).expect("interns"))
        .collect();
    let preds = ["ta0", "ta1"]
        .iter()
        .map(|p| strings.intern_predicate(p).expect("interns"))
        .collect();
    (entities, preds)
}

/// A bursty timeline: tuples cluster into a handful of batch intervals so
/// small budgets actually overflow.
fn arb_timeline() -> impl Strategy<Value = Vec<(u64, u64, u64, Timestamp)>> {
    proptest::collection::vec(
        (0..8u64, 0..2u64, 0..8u64, 0..6u64, 0..INTERVAL_MS),
        20..160,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .map(|(s, p, o, bucket, off)| {
                // Six hot buckets spread over the horizon.
                (s, p, o, (bucket * 2 + 1) * INTERVAL_MS + off)
            })
            .collect()
    })
}

struct Run {
    engine: WukongS,
    firings: Vec<Firing>,
    ingested: u64,
}

fn run(
    tl: &[(u64, u64, u64, Timestamp)],
    budget: usize,
    policy: ShedPolicy,
    catchup_quiet_ms: u64,
) -> Run {
    let strings = Arc::new(StringServer::new());
    let (e, p) = vocab(&strings);
    let mut cfg = EngineConfig::single_node()
        .with_ingest_budget(Some(IngestBudget::tuples(budget)))
        .with_shed_policy(policy);
    cfg.overload.catchup_quiet_ms = catchup_quiet_ms;
    // Keep the wall-clock latency trip out: these properties are exact.
    cfg.overload.latency_budget_ms = 1e9;
    let engine = WukongS::with_strings(cfg, strings);
    let sid = engine.register_stream(StreamSchema::timeless(StreamId(0), "S", INTERVAL_MS));
    engine.register_continuous(JOIN_QUERY).expect("registers");

    let mut tl: Vec<_> = tl.to_vec();
    tl.sort_by_key(|&(_, _, _, ts)| ts);
    let mut fed = 0;
    let mut firings = Vec::new();
    for tick in (INTERVAL_MS..=HORIZON).step_by(INTERVAL_MS as usize) {
        while fed < tl.len() && tl[fed].3 <= tick {
            let (s, pr, o, ts) = tl[fed];
            engine.ingest(
                sid,
                Triple::new(e[s as usize], p[pr as usize], e[o as usize]),
                ts,
            );
            fed += 1;
        }
        engine.advance_time(tick);
        firings.extend(engine.fire_ready());
    }
    assert_eq!(fed, tl.len(), "timeline fully fed");
    Run {
        engine,
        firings,
        ingested: tl.len() as u64,
    }
}

proptest! {
    /// ingested = applied (timeless + timing) + discarded + shed, and
    /// shed = outstanding + replayed — no tuple is ever lost track of,
    /// whether catch-up ran or not.
    #[test]
    fn shed_accounting_conserves_tuples(
        tl in arb_timeline(),
        budget in 4..48usize,
        sampled in 0..2u64,
        // Sometimes catch-up replays mid-run, sometimes it never fires.
        quiet in prop_oneof![Just(400u64), Just(u64::MAX)],
    ) {
        let policy = if sampled == 1 { ShedPolicy::SampleWithinBatch } else { ShedPolicy::DropOldestWindow };
        let r = run(&tl, budget, policy, quiet);
        let (stats, _) = r.engine.injection_stats(StreamId(0));
        let applied = (stats.timeless + stats.timing + stats.discarded) as u64;
        let shed = r.engine.total_shed();
        prop_assert_eq!(
            r.ingested, applied + shed,
            "conservation: {} ingested vs {} applied + {} shed", r.ingested, applied, shed
        );
        let snap = r.engine.handle().obs().overload().snapshot();
        prop_assert_eq!(shed, r.engine.shed_outstanding() + snap.catchup_replayed_tuples);
        prop_assert_eq!(shed, snap.tuples_shed);
        // The log agrees with the scalar total.
        prop_assert_eq!(shed, r.engine.shed_log().iter().map(|rec| rec.tuples_shed).sum::<u64>());
    }

    /// A firing is marked degraded iff a shed record falls inside its
    /// window, and the marker equals the sum of exactly those records.
    #[test]
    fn degraded_markers_match_shed_log(
        tl in arb_timeline(),
        budget in 4..32usize,
        sampled in 0..2u64,
    ) {
        let policy = if sampled == 1 { ShedPolicy::SampleWithinBatch } else { ShedPolicy::DropOldestWindow };
        // Catch-up disabled: every shed record stays outstanding, so the
        // public log is the exact staleness ledger for the whole run.
        let r = run(&tl, budget, policy, u64::MAX);
        let log = r.engine.shed_log();
        for f in &r.firings {
            // The query's single window instance at this firing, in the
            // engine's inclusive-bounds geometry.
            let (lo, hi) = (f.window_end.saturating_sub(RANGE_MS) + 1, f.window_end);
            let expected: u64 = log
                .iter()
                .filter(|rec| rec.stream == StreamId(0) && rec.batch_ts >= lo && rec.batch_ts <= hi)
                .map(|rec| rec.tuples_shed)
                .sum();
            match f.results.degraded {
                Some(d) => {
                    prop_assert_eq!(
                        d.tuples_shed, expected,
                        "window [{}, {}] marker disagrees with the shed log", lo, hi
                    );
                    prop_assert_eq!(d.windows_affected, 1);
                    prop_assert!(expected > 0, "marker without a shed record");
                }
                None => prop_assert_eq!(
                    expected, 0,
                    "window [{}, {}] lost tuples but carries no marker", lo, hi
                ),
            }
        }
    }
}
