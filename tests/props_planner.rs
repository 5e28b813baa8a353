//! Planner invariants, checked over random pattern sets and stores.
//!
//! Three properties pin the guarantees the adaptive layer leans on
//! (DESIGN.md §12):
//!
//! 1. **Well-anchoredness.** Every plan step anchors on a side that is
//!    concrete *at that point in the plan* — a constant or a variable
//!    bound by an earlier step — and falls back to a predicate index
//!    scan only when neither side is concrete. A mis-anchored step
//!    would read an unbound variable at execution time.
//! 2. **Permutation invariance.** The produced plan — step order,
//!    modes, estimates, and therefore `Plan::cost()` — is a pure
//!    function of the *set* of patterns, not of the order they appear
//!    in the query text. The content-based tie-break in the greedy
//!    choice guarantees this; the plan cache and the re-plan
//!    determinism gates both rely on it.
//! 3. **Re-plan transparency.** Forcing a mid-stream re-plan of a
//!    maintained (delta-state) continuous query never changes a single
//!    emitted byte relative to an engine that keeps its original plan —
//!    the switch rebuilds window state behind the scenes.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use wukong_core::{EngineConfig, Firing, WukongS};
use wukong_query::ast::{GraphName, Term, TriplePattern};
use wukong_query::exec::ExecContext;
use wukong_query::{plan_patterns, StepMode};
use wukong_rdf::{Pid, StreamId, StringServer, Timestamp, Triple, Vid};
use wukong_store::{BaseStore, SnapshotId};
use wukong_stream::StreamSchema;

const INTERVAL_MS: u64 = 100;

struct LocalAccess<'a>(&'a BaseStore);

impl wukong_query::GraphAccess for LocalAccess<'_> {
    fn neighbors(
        &self,
        key: wukong_rdf::Key,
        _src: wukong_query::PatternSource,
        ctx: &ExecContext,
        _timer: &mut wukong_net::TaskTimer,
        out: &mut Vec<Vid>,
    ) {
        self.0.for_each_neighbor(key, ctx.sn, |v| out.push(v));
    }

    fn estimate(
        &self,
        key: wukong_rdf::Key,
        _src: wukong_query::PatternSource,
        ctx: &ExecContext,
    ) -> usize {
        self.0.len_at(key, ctx.sn)
    }
}

const VARS: u8 = 4;

fn arb_triple() -> impl Strategy<Value = Triple> {
    // A small, dense domain so estimates vary and patterns join.
    (1..12u64, 1..4u64, 1..12u64).prop_map(|(s, p, o)| Triple::new(Vid(s), Pid(p), Vid(o)))
}

fn arb_term() -> impl Strategy<Value = Term> {
    prop_oneof![
        (0..VARS).prop_map(Term::Var),
        (1..12u64).prop_map(|v| Term::Const(Vid(v))),
    ]
}

fn arb_pattern() -> impl Strategy<Value = TriplePattern> {
    (arb_term(), 1..4u64, arb_term()).prop_map(|(s, p, o)| TriplePattern {
        s,
        p: Pid(p),
        o,
        graph: GraphName::Stored,
    })
}

/// Whether `t` is concrete given the current bound-variable set.
fn concrete(t: Term, bound: &[bool]) -> bool {
    match t {
        Term::Const(_) => true,
        Term::Var(v) => bound[v as usize],
    }
}

/// Seeded Fisher-Yates; deterministic per (patterns, seed).
fn permute(patterns: &[TriplePattern], seed: u64) -> Vec<TriplePattern> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = patterns.to_vec();
    for i in (1..out.len()).rev() {
        out.swap(i, rng.gen_range(0..=i));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn plans_are_well_anchored_and_complete(
        triples in proptest::collection::vec(arb_triple(), 0..40),
        patterns in proptest::collection::vec(arb_pattern(), 1..6),
    ) {
        let mut store = BaseStore::new();
        for &t in &triples {
            store.insert_base(t);
        }
        let access = LocalAccess(&store);
        let ctx = ExecContext::stored(SnapshotId::BASE);
        let plan = plan_patterns(&patterns, &vec![false; VARS as usize], &access, &ctx);

        // Every input pattern appears exactly once (plans are a
        // reordering, never a rewrite).
        prop_assert_eq!(plan.steps.len(), patterns.len());
        for p in &patterns {
            let input = patterns.iter().filter(|q| *q == p).count();
            let planned = plan.steps.iter().filter(|s| s.pattern == *p).count();
            prop_assert_eq!(input, planned, "pattern {:?} multiplicity", p);
        }

        // Anchoredness: walk the plan replaying variable bindings.
        let mut bound = vec![false; VARS as usize];
        for (i, step) in plan.steps.iter().enumerate() {
            let s_ok = concrete(step.pattern.s, &bound);
            let o_ok = concrete(step.pattern.o, &bound);
            match step.mode {
                StepMode::FromSubject => {
                    prop_assert!(s_ok, "step {i} anchors an unbound subject: {step:?}")
                }
                StepMode::FromObject => {
                    prop_assert!(o_ok, "step {i} anchors an unbound object: {step:?}")
                }
                StepMode::IndexScan => prop_assert!(
                    !s_ok && !o_ok,
                    "step {i} index-scans despite a concrete side: {step:?}"
                ),
            }
            if let Term::Var(v) = step.pattern.s {
                bound[v as usize] = true;
            }
            if let Term::Var(v) = step.pattern.o {
                bound[v as usize] = true;
            }
        }
    }

    #[test]
    fn plan_and_cost_are_invariant_under_pattern_permutation(
        triples in proptest::collection::vec(arb_triple(), 0..40),
        patterns in proptest::collection::vec(arb_pattern(), 1..6),
        seed in 0..u64::MAX,
    ) {
        let mut store = BaseStore::new();
        for &t in &triples {
            store.insert_base(t);
        }
        let access = LocalAccess(&store);
        let ctx = ExecContext::stored(SnapshotId::BASE);

        let base = plan_patterns(&patterns, &vec![false; VARS as usize], &access, &ctx);
        let shuffled = permute(&patterns, seed);
        let other = plan_patterns(&shuffled, &vec![false; VARS as usize], &access, &ctx);

        // Identical step sequences — modes and estimates included — so
        // the modeled cost is identical too. This is what makes cached
        // plans and re-planned plans comparable across runs.
        prop_assert_eq!(&base, &other, "plan depends on input pattern order");
        prop_assert_eq!(base.cost(), other.cost());
    }
}

// ---------------------------------------------------------------------
// Property 3: forced mid-stream re-plan of a maintained query.
// ---------------------------------------------------------------------

const JOIN_QUERY: &str = "REGISTER QUERY PJ SELECT ?V0 ?V1 ?V2 \
     FROM S [RANGE 300ms STEP 100ms] \
     WHERE { GRAPH S { ?V0 ta0 ?V1 } GRAPH S { ?V2 ta1 ?V1 } }";

/// A seeded join-heavy timeline on one stream: unique triples, so window
/// contents are sets and multiplicities align across engines.
fn timeline(strings: &Arc<StringServer>, seed: u64) -> Vec<(Triple, Timestamp)> {
    let entities: Vec<Vid> = (0..10)
        .map(|i| strings.intern_entity(&format!("e{i}")).expect("interns"))
        .collect();
    let preds: Vec<Pid> = ["ta0", "ta1"]
        .iter()
        .map(|p| strings.intern_predicate(p).expect("interns"))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    for _ in 0..80 {
        let t = Triple::new(
            entities[rng.gen_range(0..10usize)],
            preds[rng.gen_range(0..2usize)],
            entities[rng.gen_range(0..10usize)],
        );
        let ts = 1 + rng.gen_range(0..1_200u64);
        if seen.insert((t.s, t.p, t.o)) {
            out.push((t, ts));
        }
    }
    out.sort_by_key(|(_, ts)| *ts);
    out
}

/// Runs the maintained join query over the seeded timeline on `workers`
/// lanes, forcing a re-plan right after the tick `force_at` (None = never
/// re-plan).
fn run_maintained(
    strings: &Arc<StringServer>,
    tl: &[(Triple, Timestamp)],
    workers: usize,
    force_at: Option<Timestamp>,
) -> (Vec<Firing>, WukongS) {
    // Adaptive drift detection stays off so the only plan switch is the
    // forced one — the property isolates `force_replan` transparency from
    // the detector's own replans.
    let engine = WukongS::with_strings(
        EngineConfig::cluster(2)
            .with_workers(workers)
            .with_incremental(true),
        Arc::clone(strings),
    );
    let s = engine.register_stream(StreamSchema::timeless(StreamId(0), "S", INTERVAL_MS));
    let id = engine.register_continuous(JOIN_QUERY).expect("registers");
    let mut fed = 0;
    let mut firings = Vec::new();
    for tick in (INTERVAL_MS..=1_700).step_by(INTERVAL_MS as usize) {
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
    wukong_bench::assert_mode_engaged(&format!("w{workers}+inc"), &engine);
    (firings, engine)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn forced_midstream_replan_is_byte_identical_to_never_replanning(
        seed in 1..2_000u64,
        // Force the switch somewhere in the heart of the stream, on a
        // tick boundary, while windows still overlap earlier batches.
        force_slot in 3..12u64,
    ) {
        let strings = Arc::new(StringServer::new());
        let tl = timeline(&strings, seed);
        let force_at = force_slot * INTERVAL_MS;

        let (control, _) = run_maintained(&strings, &tl, 1, None);
        for workers in [1, 4] {
            let (forced, engine) = run_maintained(&strings, &tl, workers, Some(force_at));

            prop_assert_eq!(forced.len(), control.len(), "firing counts differ");
            for (f, c) in forced.iter().zip(&control) {
                prop_assert_eq!(f.query, c.query);
                prop_assert_eq!(f.window_end, c.window_end);
                prop_assert_eq!(
                    &f.results, &c.results,
                    "results differ at window {} on {} workers", f.window_end, workers
                );
            }
            prop_assert!(
                forced.iter().any(|f| !f.results.rows.is_empty()),
                "workload produced no rows — vacuous"
            );

            // The forced engine really did switch plans and rebuild its
            // delta state (the query fires maintained before and after).
            let snap = engine.cluster().obs().plan().snapshot();
            prop_assert_eq!(snap.replans, 1);
            prop_assert_eq!(snap.delta_rebuilds, 1);
        }
    }
}
