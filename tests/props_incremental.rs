//! Delta-algebra invariants of the incremental execution mode, checked
//! end to end through the public engine API (DESIGN.md §10).
//!
//! Four properties:
//!
//! 1. **Insert then expire ≡ identity.** Tuples that enter a query's
//!    window and later slide out of it must leave no residue: once every
//!    window excludes them, an engine that saw them fires exactly like an
//!    engine that never did.
//! 2. **Mode equivalence.** The firing sequence with
//!    `EngineConfig::incremental` on equals the sequence with it off,
//!    row for row — and the incremental run really takes the maintained
//!    path (obs counters prove it).
//! 3. **CONSTRUCT IStream dedup.** A CONSTRUCT query feeding a derived
//!    stream emits the same derived tuples in both modes: `last_emitted`
//!    suppression composes with delta maintenance.
//! 4. **Recovery resets delta state.** A crash mid-stream recovers into
//!    fresh (rebuilt-on-first-firing) state without changing the
//!    post-recovery firing sequence, at both settings.
//!
//! Each property holds at 1 and 4 worker lanes, statically and adaptively
//! planned, and with the flight recorder off (`wukong_bench::recompute_modes`).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use wukong_bench::{assert_mode_engaged, recompute_modes};
use wukong_core::{EngineConfig, Firing, WukongS};
use wukong_rdf::{Pid, StreamId, StringServer, Timestamp, Triple, Vid};
use wukong_stream::StreamSchema;

const INTERVAL_MS: u64 = 100;

/// Shared vocabulary: ten entities and the two stream predicates the
/// join query reads.
fn vocab(strings: &Arc<StringServer>) -> (Vec<Vid>, Vec<Pid>) {
    let entities = (0..10)
        .map(|i| strings.intern_entity(&format!("e{i}")).expect("interns"))
        .collect();
    let preds = ["ta0", "ta1"]
        .iter()
        .map(|p| strings.intern_predicate(p).expect("interns"))
        .collect();
    (entities, preds)
}

/// A seeded join-heavy timeline on one stream: unique triples, so window
/// contents are sets and multiplicities align trivially across modes.
/// Interning is idempotent, so reusing the engine's string server keeps
/// the IDs aligned with the query text.
fn timeline(
    strings: &Arc<StringServer>,
    seed: u64,
    n: usize,
    lo: Timestamp,
    hi: Timestamp,
) -> Vec<(Triple, Timestamp)> {
    let (e, p) = vocab(strings);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    for _ in 0..n {
        let t = Triple::new(
            e[rng.gen_range(0..10usize)],
            p[rng.gen_range(0..2usize)],
            e[rng.gen_range(0..10usize)],
        );
        let ts = lo + rng.gen_range(0..hi - lo + 1);
        if seen.insert((t.s, t.p, t.o)) {
            out.push((t, ts));
        }
    }
    out.sort_by_key(|(_, ts)| *ts);
    out
}

const JOIN_QUERY: &str = "REGISTER QUERY PJ SELECT ?V0 ?V1 ?V2 \
     FROM S [RANGE 300ms STEP 100ms] \
     WHERE { GRAPH S { ?V0 ta0 ?V1 } GRAPH S { ?V2 ta1 ?V1 } }";

/// Builds an engine with the shared vocabulary, one stream `S`, and the
/// 75%-overlap join query registered.
fn engine_with_join(strings: &Arc<StringServer>, cfg: EngineConfig) -> (WukongS, StreamId) {
    let engine = WukongS::with_strings(cfg, Arc::clone(strings));
    let s = engine.register_stream(StreamSchema::timeless(StreamId(0), "S", INTERVAL_MS));
    engine.register_continuous(JOIN_QUERY).expect("registers");
    (engine, s)
}

/// Feeds `tl` tick by tick up to `horizon`, collecting every firing.
fn drive(
    engine: &WukongS,
    stream: StreamId,
    tl: &[(Triple, Timestamp)],
    horizon: Timestamp,
) -> Vec<Firing> {
    let mut fed = 0;
    let mut firings = Vec::new();
    for tick in (INTERVAL_MS..=horizon).step_by(INTERVAL_MS as usize) {
        while fed < tl.len() && tl[fed].1 <= tick {
            engine.ingest(stream, tl[fed].0, tl[fed].1);
            fed += 1;
        }
        engine.advance_time(tick);
        firings.extend(engine.fire_ready());
    }
    assert_eq!(fed, tl.len(), "timeline fully fed");
    firings
}

/// Byte-identical firing sequences: same order, same window ends, same
/// unsorted rows, same aggregates.
fn assert_firings_equal(a: &[Firing], b: &[Firing], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: firing counts differ");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.query, y.query, "{what}: firing order differs");
        assert_eq!(x.window_end, y.window_end, "{what}: window ends differ");
        assert_eq!(
            x.results, y.results,
            "{what}: results differ at window {}",
            x.window_end
        );
    }
}

#[test]
fn insert_then_expire_is_identity_on_state() {
    // Engine A sees extra tuples confined to [1, 200]; engine B never
    // does. The query's RANGE is 300ms, so every window whose low edge
    // passes 200 (window_end ≥ 500) excludes the extras — from there on
    // the two maintained engines must fire identically, which means the
    // expired insertions left nothing behind in the retained state.
    let strings = Arc::new(StringServer::new());
    vocab(&strings);
    let extras = timeline(&strings, 11, 30, 1, 200);
    let common = timeline(&strings, 12, 60, 301, 1_200);
    let mut merged = extras.clone();
    merged.extend(common.iter().copied());
    merged.sort_by_key(|(_, ts)| *ts);

    for (leg, cfg) in recompute_modes(EngineConfig::cluster(2)) {
        let cfg = cfg.with_incremental(true);
        let (a, sa) = engine_with_join(&strings, cfg.clone());
        let fa = drive(&a, sa, &merged, 1_600);
        assert_mode_engaged(&leg, &a);

        let (b, sb) = engine_with_join(&strings, cfg);
        let fb = drive(&b, sb, &common, 1_600);

        let tail = |f: &[Firing]| -> Vec<Firing> {
            f.iter().filter(|f| f.window_end >= 500).cloned().collect()
        };
        let (ta, tb) = (tail(&fa), tail(&fb));
        assert!(!ta.is_empty(), "post-expiry windows must fire");
        assert_firings_equal(&ta, &tb, &format!("{leg}: insert-then-expire"));
        // And the extras really did matter before they expired (the test
        // is not vacuous): some early window differs between the engines.
        let head_a: Vec<_> = fa.iter().filter(|f| f.window_end < 500).collect();
        let head_b: Vec<_> = fb.iter().filter(|f| f.window_end < 500).collect();
        assert!(
            head_a
                .iter()
                .zip(&head_b)
                .any(|(x, y)| x.results.rows != y.results.rows),
            "extras never influenced any firing — workload too weak"
        );
    }
}

#[test]
fn incremental_firing_sequence_equals_recompute() {
    let strings = Arc::new(StringServer::new());
    vocab(&strings);
    let tl = timeline(&strings, 21, 90, 1, 1_500);

    for (leg, cfg) in recompute_modes(EngineConfig::cluster(2)) {
        let (rec, sr) = engine_with_join(&strings, cfg.clone());
        let f_rec = drive(&rec, sr, &tl, 2_000);
        assert_mode_engaged(&leg, &rec);

        let (inc, si) = engine_with_join(&strings, cfg.with_incremental(true));
        let f_inc = drive(&inc, si, &tl, 2_000);
        assert_mode_engaged(&leg, &inc);

        assert!(
            f_rec.iter().any(|f| !f.results.rows.is_empty()),
            "workload produced no rows — vacuous"
        );
        assert_firings_equal(&f_rec, &f_inc, &format!("{leg}: incremental vs recompute"));

        // The equivalence is meaningful only if the incremental engine
        // actually maintained state rather than silently falling back.
        let snap = inc.cluster().obs().incremental().snapshot();
        assert!(snap.rebuild_firings >= 1, "first firing rebuilds");
        assert!(
            snap.incremental_firings > snap.rebuild_firings,
            "{leg}: most overlapping firings must take the delta path: {snap:?}"
        );
        assert_eq!(snap.fallback_firings, 0, "join plan is incrementalizable");
        assert!(snap.rows_reused > 0, "75% overlap must carry rows over");
    }
}

#[test]
fn construct_istream_dedup_matches_both_modes() {
    // A CONSTRUCT query with an all-stream body (incrementalizable)
    // feeds a derived stream under IStream semantics: only rows new
    // relative to the previous firing instantiate the template. A
    // downstream query over the derived stream then observes exactly
    // what was emitted. Both the emissions and the downstream firings
    // must be mode-independent.
    let run = |leg: &str, cfg: EngineConfig| -> (Vec<Firing>, Vec<Vec<Vid>>) {
        let strings = Arc::new(StringServer::new());
        let (e, p) = vocab(&strings);
        strings.intern_predicate("influences").expect("interns");
        let engine = WukongS::with_strings(cfg, Arc::clone(&strings));
        let s = engine.register_stream(StreamSchema::timeless(StreamId(0), "S", INTERVAL_MS));
        let derived =
            engine.register_stream(StreamSchema::timeless(StreamId(1), "Derived", INTERVAL_MS));
        engine
            .register_construct(
                "REGISTER QUERY derive CONSTRUCT { e0 influences ?V0 } \
                 FROM S [RANGE 300ms STEP 100ms] \
                 WHERE { GRAPH S { ?V0 ta0 ?V1 } GRAPH S { ?V2 ta1 ?V1 } }",
                derived,
            )
            .expect("registers");
        engine
            .register_continuous(
                "REGISTER QUERY downstream SELECT ?W \
                 FROM Derived [RANGE 400ms STEP 200ms] \
                 WHERE { GRAPH Derived { e0 influences ?W } }",
            )
            .expect("registers");

        let mut rng = StdRng::seed_from_u64(31);
        let mut seen = std::collections::HashSet::new();
        let mut tl = Vec::new();
        for _ in 0..70 {
            let t = Triple::new(
                e[rng.gen_range(0..10usize)],
                p[rng.gen_range(0..2usize)],
                e[rng.gen_range(0..10usize)],
            );
            let ts = 1 + rng.gen_range(0..1_200u64);
            if seen.insert((t.s, t.p, t.o)) {
                tl.push((t, ts));
            }
        }
        tl.sort_by_key(|(_, ts)| *ts);
        let firings = drive(&engine, s, &tl, 1_800);
        let (rs, _) = engine
            .one_shot("SELECT ?W WHERE { e0 influences ?W }")
            .expect("runs");
        let mut derived_rows = rs.rows;
        derived_rows.sort();
        assert_mode_engaged(leg, &engine);
        (firings, derived_rows)
    };

    for (leg, cfg) in recompute_modes(EngineConfig::cluster(2)) {
        let (f_rec, d_rec) = run(&leg, cfg.clone());
        let (f_inc, d_inc) = run(&leg, cfg.with_incremental(true));
        assert!(!d_rec.is_empty(), "CONSTRUCT never emitted — vacuous");
        assert_firings_equal(&f_rec, &f_inc, &format!("{leg}: CONSTRUCT pipeline"));
        assert_eq!(
            d_rec, d_inc,
            "{leg}: derived stream contents differ by mode"
        );
    }
}

#[test]
fn recovery_mid_stream_resets_delta_state() {
    // Crash after 800ms of stream, recover from checkpoints, continue
    // with the rest of the timeline. The post-recovery firing sequence
    // must be identical whether the engine recomputes or maintains —
    // and the maintained engine's first post-recovery firing per query
    // must be a rebuild (recovery re-registers queries with fresh state).
    let strings = Arc::new(StringServer::new());
    vocab(&strings);
    let pre = timeline(&strings, 41, 50, 1, 800);
    let post = timeline(&strings, 42, 40, 801, 1_500);

    let run = |leg: &str, cfg: EngineConfig| -> Vec<Firing> {
        let cfg = EngineConfig {
            fault_tolerance: true,
            ..cfg
        };
        let incremental = cfg.incremental;
        let engine = WukongS::with_strings(cfg.clone(), Arc::clone(&strings));
        let s = engine.register_stream(StreamSchema::timeless(StreamId(0), "S", INTERVAL_MS));
        engine.register_continuous(JOIN_QUERY).expect("registers");
        let _ = drive(&engine, s, &pre, 800);
        engine.checkpoint();

        let (recovered, report) = WukongS::recover_with_report(
            cfg,
            std::iter::empty(),
            vec![StreamSchema::timeless(StreamId(0), "S", INTERVAL_MS)],
            &strings,
            &engine.checkpoints(),
        )
        .expect("recovery");
        assert_eq!(report.replayed_queries, 1);
        let before = recovered.cluster().obs().incremental().snapshot();
        let mut fed = 0;
        let mut firings = Vec::new();
        for tick in (900..=2_000u64).step_by(INTERVAL_MS as usize) {
            while fed < post.len() && post[fed].1 <= tick {
                recovered.ingest(s, post[fed].0, post[fed].1);
                fed += 1;
            }
            recovered.advance_time(tick);
            firings.extend(recovered.fire_ready());
        }
        let delta = before.delta(&recovered.cluster().obs().incremental().snapshot());
        if incremental {
            assert!(
                delta.rebuild_firings >= 1,
                "first post-recovery firing must rebuild: {delta:?}"
            );
            assert!(delta.incremental_firings > 0, "then maintain: {delta:?}");
        } else {
            assert_eq!(delta.incremental_firings + delta.rebuild_firings, 0);
        }
        assert_mode_engaged(leg, &recovered);
        firings
    };

    for (leg, cfg) in recompute_modes(EngineConfig::cluster(2)) {
        let f_rec = run(&leg, cfg.clone());
        let f_inc = run(&leg, cfg.with_incremental(true));
        assert!(
            f_rec.iter().any(|f| !f.results.rows.is_empty()),
            "post-recovery windows produced no rows — vacuous"
        );
        assert_firings_equal(&f_rec, &f_inc, &format!("{leg}: post-recovery"));
    }
}
