//! Four-way differential oracle: the recompute engine, the incremental
//! (delta-maintenance) engine, the adaptive engine (plan cache +
//! cardinality feedback + cost-model mode selection), and a naive
//! relational re-evaluation.
//!
//! Seeded generators produce random stored graphs, stream timelines, and
//! conjunctive continuous queries; the workload runs through the full
//! engine **five times** — recomputing every firing from scratch, with
//! `EngineConfig::incremental` maintaining per-query window state, both
//! again with `EngineConfig::adaptive` re-planning on drift, and once
//! with the flight recorder off — and every firing sequence must agree
//! with the static recompute run *byte for byte* (same firing order,
//! same unsorted rows, same aggregates), each run proving from its
//! counters that it really ran in its mode.
//! The recompute run is then re-checked against
//! `wukong_baselines::TripleTable` — scans and hash joins over the
//! stored triples plus the per-stream window contents. The
//! implementations share nothing beyond the parser, so agreement on
//! every (query, window_end) pair is strong evidence that every
//! execution path preserves the engine's semantics.
//!
//! The generated window geometry sweeps the overlap regimes that stress
//! delta maintenance differently: tumbling windows (range == step, no
//! survivors), deep overlap (range up to 4× the batch interval), and
//! disjoint slides (step > range, everything retracted).
//!
//! On divergence the test shrinks the failing workload to the *minimal
//! stream prefix* that still diverges and reports the full scenario
//! (queries, stored graph, surviving tuples) so the failure is
//! reproducible by hand — for engine-vs-oracle and incremental-vs-
//! recompute divergences alike.
//!
//! Time model caveat: the Adaptor stamps each mini-batch with the *end*
//! of its interval, so a tuple ingested at raw time `ts` becomes visible
//! to windows at `ceil(ts / interval) * interval`. The oracle windows on
//! that batched timestamp, exactly like the engine does.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use wukong_baselines::relational::{hash_join, scan_pattern};
use wukong_baselines::{Relation, TripleTable};
use wukong_bench::assert_mode_engaged;
use wukong_core::{EngineConfig, Firing, WukongS};
use wukong_query::ast::{GraphName, Query};
use wukong_query::parse_query;
use wukong_rdf::{Pid, StreamId, StringServer, Timestamp, Triple, Vid};
use wukong_stream::StreamSchema;

/// Mini-batch interval shared by every generated stream, ms.
const INTERVAL_MS: u64 = 100;
/// Latest raw tuple timestamp the generator emits.
const MAX_TS: Timestamp = 1_000;

// ---------------------------------------------------------------------
// Deterministic generator (the `rand` shim's SplitMix64 `StdRng`, so a
// seed printed by a failure reproduces the exact workload).
// ---------------------------------------------------------------------

fn chance(rng: &mut StdRng, pct: u64) -> bool {
    rng.gen_range(0..100u64) < pct
}

/// One generated workload: a stored graph, two streams with disjoint
/// predicate alphabets, a tuple timeline, and conjunctive queries.
struct Scenario {
    strings: Arc<StringServer>,
    stored: Vec<Triple>,
    /// `(stream index 0/1, triple, raw timestamp)`, time-ordered.
    timeline: Vec<(usize, Triple, Timestamp)>,
    queries: Vec<String>,
    /// Largest RANGE over all queries (drives the flush horizon).
    max_range_ms: u64,
}

const STREAM_NAMES: [&str; 2] = ["SA", "SB"];

fn generate(seed: u64) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed);
    let strings = Arc::new(StringServer::new());

    let entities: Vec<Vid> = (0..12)
        .map(|i| strings.intern_entity(&format!("e{i}")).expect("interns"))
        .collect();
    let stored_preds: Vec<Pid> = (0..3)
        .map(|i| {
            strings
                .intern_predicate(&format!("sp{i}"))
                .expect("interns")
        })
        .collect();
    // Each stream gets its own predicate alphabet, disjoint from the
    // stored one, so a pattern's matches can only come from the graph it
    // names — the oracle relies on that separation.
    let stream_preds: Vec<Vec<Pid>> = ["ta", "tb"]
        .iter()
        .map(|base| {
            (0..2)
                .map(|i| {
                    strings
                        .intern_predicate(&format!("{base}{i}"))
                        .expect("interns")
                })
                .collect()
        })
        .collect();

    let mut seen = std::collections::HashSet::new();
    let mut stored = Vec::new();
    for _ in 0..30 {
        let t = Triple::new(
            entities[rng.gen_range(0..entities.len())],
            stored_preds[rng.gen_range(0..3usize)],
            entities[rng.gen_range(0..entities.len())],
        );
        if seen.insert((t.s, t.p, t.o)) {
            stored.push(t);
        }
    }

    // The timeline: every triple is globally unique (across streams and
    // the stored graph, thanks to the predicate split), so window
    // contents are sets and row multiplicities stay trivially aligned
    // between the engine and the oracle.
    let mut timeline = Vec::new();
    for _ in 0..60 {
        let stream = rng.gen_range(0..2usize);
        let t = Triple::new(
            entities[rng.gen_range(0..entities.len())],
            stream_preds[stream][rng.gen_range(0..2usize)],
            entities[rng.gen_range(0..entities.len())],
        );
        let ts = 1 + rng.gen_range(0..MAX_TS);
        if seen.insert((t.s, t.p, t.o)) {
            timeline.push((stream, t, ts));
        }
    }
    timeline.sort_by_key(|(_, _, ts)| *ts);

    let mut queries = Vec::new();
    let mut max_range_ms = 0;
    for qi in 0..3 {
        let both = chance(&mut rng, 50);
        let used: Vec<usize> = if both {
            vec![0, 1]
        } else {
            vec![rng.gen_range(0..2usize)]
        };
        let step = [100u64, 200][rng.gen_range(0..2usize)];
        let ranges: Vec<u64> = used
            .iter()
            .map(|_| 100 * (1 + rng.gen_range(0..4u64)))
            .collect();
        max_range_ms = max_range_ms.max(*ranges.iter().max().expect("non-empty"));

        // Patterns: one per used stream, plus up to two extra (stream or
        // stored). Variables chain through earlier ones often enough for
        // real joins; fresh variables and constants exercise index scans
        // and cartesian joins.
        let mut vars = 0u64;
        let fresh = |vars: &mut u64| {
            let v = *vars;
            *vars += 1;
            format!("?V{v}")
        };
        let subject = |rng: &mut StdRng, vars: &mut u64| {
            if *vars > 0 && chance(rng, 60) {
                format!("?V{}", rng.gen_range(0..*vars))
            } else if chance(rng, 30) {
                format!("e{}", rng.gen_range(0..12u64))
            } else {
                fresh(vars)
            }
        };
        let mut body = Vec::new();
        let extra = rng.gen_range(0..3u64);
        for k in 0..used.len() as u64 + extra {
            let graph = if (k as usize) < used.len() {
                Some(used[k as usize])
            } else if chance(&mut rng, 50) {
                Some(used[rng.gen_range(0..used.len())])
            } else {
                None
            };
            let s = subject(&mut rng, &mut vars);
            let o = if chance(&mut rng, 25) {
                format!("e{}", rng.gen_range(0..12u64))
            } else {
                fresh(&mut vars)
            };
            match graph {
                Some(g) => {
                    let p = format!("t{}{}", ["a", "b"][g], rng.gen_range(0..2u64));
                    body.push(format!("GRAPH {} {{ {s} {p} {o} }}", STREAM_NAMES[g]));
                }
                None => body.push(format!("{s} sp{} {o}", rng.gen_range(0..3u64))),
            }
        }
        if vars == 0 {
            // All-constant bodies have nothing to SELECT; anchor one var.
            body.push(format!("e0 sp0 {}", fresh(&mut vars)));
        }

        let select: Vec<String> = (0..vars).map(|v| format!("?V{v}")).collect();
        let from: Vec<String> = used
            .iter()
            .zip(&ranges)
            .map(|(g, r)| format!("FROM {} [RANGE {r}ms STEP {step}ms]", STREAM_NAMES[*g]))
            .collect();
        queries.push(format!(
            "REGISTER QUERY D{qi} SELECT {} {} WHERE {{ {} }}",
            select.join(" "),
            from.join(" "),
            body.join(" ")
        ));
    }

    Scenario {
        strings,
        stored,
        timeline,
        queries,
        max_range_ms,
    }
}

// ---------------------------------------------------------------------
// Oracle: relational re-evaluation of one firing.
// ---------------------------------------------------------------------

/// The batched timestamp a raw tuple becomes visible at (Adaptor seals
/// mini-batches at interval ends).
fn batched(ts: Timestamp) -> Timestamp {
    ts.div_ceil(INTERVAL_MS) * INTERVAL_MS
}

/// Evaluates `q` over the stored table and the window contents ending at
/// `window_end`, returning rows projected in SELECT order, sorted.
fn oracle_rows(
    q: &Query,
    stored: &TripleTable,
    timeline: &[(usize, Triple, Timestamp)],
    window_end: Timestamp,
) -> Vec<Vec<Vid>> {
    let mut acc = Relation::unit();
    for pat in &q.patterns {
        let rel = match pat.graph {
            GraphName::Stored => stored.scan(pat).0,
            GraphName::Stream(i) => {
                let name = &q.streams[i].0;
                let range = q.streams[i].1.range_ms;
                let lo = window_end.saturating_sub(range) + 1;
                let in_window: Vec<Triple> = timeline
                    .iter()
                    .filter(|(s, _, ts)| {
                        STREAM_NAMES[*s] == name && (lo..=window_end).contains(&batched(*ts))
                    })
                    .map(|(_, t, _)| *t)
                    .collect();
                scan_pattern(in_window.iter(), pat)
            }
        };
        acc = hash_join(&acc, &rel);
        if acc.is_empty() {
            break;
        }
    }
    let mut rows: Vec<Vec<Vid>> = acc
        .rows
        .iter()
        .map(|row| {
            q.select
                .iter()
                .map(|v| {
                    let col = acc
                        .vars
                        .iter()
                        .position(|x| x == v)
                        .expect("selected var bound");
                    row[col]
                })
                .collect()
        })
        .collect();
    rows.sort();
    rows
}

// ---------------------------------------------------------------------
// Driver + shrinking.
// ---------------------------------------------------------------------

struct Divergence {
    /// Which pair of the four implementations disagreed.
    kind: &'static str,
    query: usize,
    window_end: Timestamp,
    engine_rows: Vec<Vec<Vid>>,
    oracle_rows: Vec<Vec<Vid>>,
}

/// Runs the first `prefix` timeline tuples through a fresh engine under
/// `cfg` and returns the firing sequence, the registered query IDs and
/// the engine (for its mode counters).
fn run_engine(
    sc: &Scenario,
    prefix: usize,
    cfg: EngineConfig,
) -> (Vec<Firing>, Vec<usize>, WukongS) {
    let engine = WukongS::with_strings(cfg, Arc::clone(&sc.strings));
    engine.load_base(sc.stored.iter().copied());
    let streams: Vec<StreamId> = STREAM_NAMES
        .iter()
        .enumerate()
        .map(|(i, name)| {
            engine.register_stream(StreamSchema::timeless(
                StreamId(i as u16),
                *name,
                INTERVAL_MS,
            ))
        })
        .collect();
    let ids: Vec<usize> = sc
        .queries
        .iter()
        .map(|text| engine.register_continuous(text).expect("registers"))
        .collect();

    let timeline = &sc.timeline[..prefix];
    let mut fed = 0;
    let mut firings: Vec<Firing> = Vec::new();
    let horizon = MAX_TS + sc.max_range_ms + 200;
    for tick in (INTERVAL_MS..=horizon).step_by(INTERVAL_MS as usize) {
        while fed < timeline.len() && timeline[fed].2 <= tick {
            let (stream, triple, ts) = timeline[fed];
            engine.ingest(streams[stream], triple, ts);
            fed += 1;
        }
        engine.advance_time(tick);
        firings.extend(engine.fire_ready());
    }
    (firings, ids, engine)
}

/// Compares a candidate firing sequence byte-for-byte against the static
/// recompute baseline — same firing order, same unsorted row order, same
/// aggregates and variable names.
fn compare_firings(
    kind: &'static str,
    baseline: &[Firing],
    candidate: &[Firing],
    ids: &[usize],
) -> Result<(), Box<Divergence>> {
    let qi_of = |f: &Firing| ids.iter().position(|id| *id == f.query).expect("known");
    if baseline.len() != candidate.len() {
        let (f, rows_base, rows_cand) = if candidate.len() > baseline.len() {
            let f = &candidate[baseline.len()];
            (f, Vec::new(), f.results.rows.clone())
        } else {
            let f = &baseline[candidate.len()];
            (f, f.results.rows.clone(), Vec::new())
        };
        return Err(Box::new(Divergence {
            kind,
            query: qi_of(f),
            window_end: f.window_end,
            engine_rows: rows_cand,
            oracle_rows: rows_base,
        }));
    }
    for (base, cand) in baseline.iter().zip(candidate) {
        if base.query != cand.query
            || base.window_end != cand.window_end
            || base.results != cand.results
        {
            return Err(Box::new(Divergence {
                kind,
                query: qi_of(base),
                window_end: base.window_end,
                engine_rows: cand.results.rows.clone(),
                oracle_rows: base.results.rows.clone(),
            }));
        }
    }
    Ok(())
}

/// Runs the first `prefix` timeline tuples through all five engine runs
/// and cross-checks every firing: incremental ≡ recompute, adaptive
/// recompute ≡ static recompute, adaptive incremental ≡ static recompute,
/// recorder off ≡ recorder on (all byte for byte, rows unsorted), and
/// recompute ≡ relational oracle (sorted). Returns `(firings checked,
/// firings with at least one row)` — the second count guards against
/// vacuous agreement on nothing-but-empty windows.
fn check_prefix(
    sc: &Scenario,
    workers: usize,
    prefix: usize,
) -> Result<(usize, usize), Box<Divergence>> {
    let base = EngineConfig::cluster(3).with_workers(workers);
    let asts: Vec<Query> = sc
        .queries
        .iter()
        .map(|text| parse_query(&sc.strings, text).expect("parses"))
        .collect();
    // A leg must really run in its mode; the delta legs can only while
    // some query is incrementalizable.
    let maintainable = asts.iter().any(wukong_query::incrementalizable);
    let (firings, ids, engine) = run_engine(sc, prefix, base.clone());
    assert_mode_engaged("static engine", &engine);

    // Legs 1-4: every other engine mode against the static recompute
    // baseline. The adaptive legs may re-plan mid-stream and flip
    // execution modes per the cost model, the last leg turns the flight
    // recorder off; none of that may perturb a single emitted byte.
    let legs: [(&'static str, EngineConfig); 4] = [
        (
            "incremental engine vs recompute engine",
            base.clone().with_incremental(true),
        ),
        (
            "adaptive recompute engine vs static engine",
            base.clone().with_adaptive(true),
        ),
        (
            "adaptive incremental engine vs static engine",
            base.clone().with_incremental(true).with_adaptive(true),
        ),
        (
            "recorder-off engine vs recording engine",
            base.with_trace(false),
        ),
    ];
    for (kind, cfg) in legs {
        let delta = cfg.incremental;
        let (other, other_ids, engine) = run_engine(sc, prefix, cfg);
        assert_eq!(ids, other_ids, "registration order must not depend on mode");
        compare_firings(kind, &firings, &other, &ids)?;
        if maintainable || !delta {
            assert_mode_engaged(kind, &engine);
        }
    }

    // Leg 5: the recompute engine vs the independent scan+join oracle.
    let timeline = &sc.timeline[..prefix];
    let mut stored_tt = TripleTable::new();
    stored_tt.load(sc.stored.iter().copied());
    let mut checked = 0;
    let mut nonempty = 0;
    for f in &firings {
        let qi = ids.iter().position(|id| *id == f.query).expect("known");
        let expect = oracle_rows(&asts[qi], &stored_tt, timeline, f.window_end);
        let mut got = f.results.rows.clone();
        got.sort();
        if got != expect {
            return Err(Box::new(Divergence {
                kind: "recompute engine vs relational oracle",
                query: qi,
                window_end: f.window_end,
                engine_rows: got,
                oracle_rows: expect,
            }));
        }
        checked += 1;
        nonempty += usize::from(!expect.is_empty());
    }
    Ok((checked, nonempty))
}

fn render_triple(sc: &Scenario, t: &Triple) -> String {
    let ss = &sc.strings;
    format!(
        "{} {} {}",
        ss.entity_name(t.s).unwrap_or_else(|_| format!("{:?}", t.s)),
        ss.predicate_name(t.p)
            .unwrap_or_else(|_| format!("{:?}", t.p)),
        ss.entity_name(t.o).unwrap_or_else(|_| format!("{:?}", t.o)),
    )
}

/// Runs the full workload; on divergence, shrinks to the minimal stream
/// prefix that still diverges and panics with a reproducible report.
fn check_seed(seed: u64, workers: usize) -> (usize, usize) {
    let sc = generate(seed);
    match check_prefix(&sc, workers, sc.timeline.len()) {
        Ok(counts) => counts,
        Err(_) => {
            // Minimal prefix: the first length that diverges. Every run
            // is deterministic, so the scan is exact, not heuristic.
            let (len, div) = (0..=sc.timeline.len())
                .find_map(|len| check_prefix(&sc, workers, len).err().map(|d| (len, d)))
                .expect("full run diverged, so some prefix does");
            let tuples: Vec<String> = sc.timeline[..len]
                .iter()
                .map(|(s, t, ts)| {
                    format!("  [{}] {} @ {ts}", STREAM_NAMES[*s], render_triple(&sc, t))
                })
                .collect();
            panic!(
                "differential divergence: {} (seed {seed}, workers {workers})\n\
                 minimal stream prefix: {len} tuples\n{}\n\
                 query {} = {}\n\
                 window_end {}\n  lhs rows: {:?}\n  rhs rows: {:?}",
                div.kind,
                tuples.join("\n"),
                div.query,
                sc.queries[div.query],
                div.window_end,
                div.engine_rows,
                div.oracle_rows,
            );
        }
    }
}

// ---------------------------------------------------------------------
// Tests.
// ---------------------------------------------------------------------

#[test]
fn parallel_engine_agrees_with_relational_oracle() {
    let (mut checked, mut nonempty) = (0, 0);
    for seed in 1..=6 {
        let (c, n) = check_seed(seed, 4);
        checked += c;
        nonempty += n;
    }
    // Guard against the test silently going vacuous: the window math
    // guarantees hundreds of firings over six seeds, and the generator's
    // shared entity universe makes many of them carry rows.
    assert!(checked > 100, "only {checked} firings checked");
    assert!(nonempty > 20, "only {nonempty} firings had rows");
}

#[test]
fn oracle_agreement_holds_at_every_worker_count() {
    for workers in [1, 2, 4, 8] {
        let (checked, _) = check_seed(7, workers);
        assert!(checked > 10, "only {checked} firings at {workers} workers");
    }
}

/// Pins the window-overlap regimes that stress delta maintenance
/// differently: tumbling (range == step, zero survivors), 50% overlap,
/// 75% overlap with range 4× the batch interval, and disjoint slides
/// (step > range, everything retracted every firing). Each regime runs
/// the full four-way check over a seeded join-heavy timeline.
#[test]
fn four_way_agreement_sweeps_overlap_regimes() {
    for (range, step) in [(100u64, 100u64), (200, 100), (400, 100), (100, 300)] {
        let mut rng = StdRng::seed_from_u64(0xA5A5 ^ (range << 4) ^ step);
        let strings = Arc::new(StringServer::new());
        let entities: Vec<Vid> = (0..10)
            .map(|i| strings.intern_entity(&format!("e{i}")).expect("interns"))
            .collect();
        let preds: Vec<Pid> = ["ta0", "ta1"]
            .iter()
            .map(|p| strings.intern_predicate(p).expect("interns"))
            .collect();
        let mut seen = std::collections::HashSet::new();
        let mut timeline = Vec::new();
        for _ in 0..80 {
            let t = Triple::new(
                entities[rng.gen_range(0..10usize)],
                preds[rng.gen_range(0..2usize)],
                entities[rng.gen_range(0..10usize)],
            );
            let ts = 1 + rng.gen_range(0..MAX_TS);
            if seen.insert((t.s, t.p, t.o)) {
                timeline.push((0, t, ts));
            }
        }
        timeline.sort_by_key(|(_, _, ts)| *ts);
        let sc = Scenario {
            strings,
            stored: Vec::new(),
            timeline,
            queries: vec![format!(
                "REGISTER QUERY D0 SELECT ?V0 ?V1 ?V2 \
                 FROM SA [RANGE {range}ms STEP {step}ms] \
                 WHERE {{ GRAPH SA {{ ?V0 ta0 ?V1 }} GRAPH SA {{ ?V2 ta1 ?V1 }} }}"
            )],
            max_range_ms: range,
        };
        let (checked, nonempty) = check_prefix(&sc, 4, sc.timeline.len()).unwrap_or_else(|d| {
            panic!(
                "overlap regime range={range} step={step} diverged: {} \
                     at window {}\n  lhs rows: {:?}\n  rhs rows: {:?}",
                d.kind, d.window_end, d.engine_rows, d.oracle_rows
            )
        });
        assert!(
            checked > 3,
            "range={range} step={step}: only {checked} firings"
        );
        assert!(nonempty > 0, "range={range} step={step}: vacuous regime");
    }
}

/// A hand-built scenario with known answers: pins the oracle (and via
/// agreement, the engine) to absolute semantics, so both cannot drift
/// together unnoticed.
#[test]
fn hand_computed_scenario_pins_the_semantics() {
    let strings = Arc::new(StringServer::new());
    let e: Vec<Vid> = (0..12)
        .map(|i| strings.intern_entity(&format!("e{i}")).expect("interns"))
        .collect();
    let sp0 = strings.intern_predicate("sp0").expect("interns");
    let ta0 = strings.intern_predicate("ta0").expect("interns");
    for p in ["sp1", "sp2", "ta1", "tb0", "tb1"] {
        strings.intern_predicate(p).expect("interns");
    }

    let sc = Scenario {
        strings: Arc::clone(&strings),
        stored: vec![Triple::new(e[1], sp0, e[2])],
        // Raw ts 150 batches to 200.
        timeline: vec![(0, Triple::new(e[0], ta0, e[1]), 150)],
        queries: vec![
            "REGISTER QUERY D0 SELECT ?V0 ?V1 FROM SA [RANGE 200ms STEP 100ms] \
             WHERE { GRAPH SA { e0 ta0 ?V0 } ?V0 sp0 ?V1 }"
                .to_string(),
        ],
        max_range_ms: 200,
    };
    check_prefix(&sc, 4, 1).unwrap_or_else(|d| {
        panic!(
            "hand scenario diverged at window {}: engine {:?} vs oracle {:?}",
            d.window_end, d.engine_rows, d.oracle_rows
        )
    });

    // The tuple is visible exactly in the two windows whose [lo, hi]
    // covers batch time 200: hi=200 (lo=1) and hi=300 (lo=101).
    let q = parse_query(&strings, &sc.queries[0]).expect("parses");
    let mut tt = TripleTable::new();
    tt.load(sc.stored.iter().copied());
    let hit = vec![vec![e[1], e[2]]];
    assert_eq!(oracle_rows(&q, &tt, &sc.timeline, 200), hit);
    assert_eq!(oracle_rows(&q, &tt, &sc.timeline, 300), hit);
    assert!(oracle_rows(&q, &tt, &sc.timeline, 100).is_empty());
    assert!(oracle_rows(&q, &tt, &sc.timeline, 400).is_empty());
}

/// The visibility pin's companion for batches that install while they
/// fill: a tuple stays invisible to every read until its batch seals,
/// even after the piece carrying it has installed. 130 tuples at raw ts
/// 150 fill batch 200; the first 128 install as a piece during `ingest`,
/// yet a one-shot, a probe and the firing of window 100 see none of
/// them, and window 200 then sees all 130, as the oracle says.
#[test]
fn hand_computed_piece_stays_invisible_until_its_batch_seals() {
    let strings = Arc::new(StringServer::new());
    let e0 = strings.intern_entity("e0").expect("interns");
    let ta0 = strings.intern_predicate("ta0").expect("interns");
    let timeline: Vec<(usize, Triple, Timestamp)> = (0..130)
        .map(|i| {
            let o = strings.intern_entity(&format!("x{i}")).expect("interns");
            (0, Triple::new(e0, ta0, o), 150)
        })
        .collect();
    let text = "REGISTER QUERY D0 SELECT ?V0 FROM SA [RANGE 100ms STEP 100ms] \
                WHERE { GRAPH SA { e0 ta0 ?V0 } }";
    let engine = WukongS::with_strings(EngineConfig::single_node(), Arc::clone(&strings));
    let sa = engine.register_stream(StreamSchema::timeless(StreamId(0), "SA", INTERVAL_MS));
    let id = engine.register_continuous(text).expect("registers");
    let oneshot = "SELECT ?V0 WHERE { e0 ta0 ?V0 }";
    engine.advance_time(100);
    let window_100 = engine.fire_ready();

    for &(_, t, ts) in &timeline {
        engine.ingest(sa, t, ts);
    }
    assert_eq!(engine.stats().stored_triples, 128, "the piece installed");
    assert!(engine.one_shot(oneshot).expect("runs").0.rows.is_empty());
    assert!(engine.execute_registered(id).0.rows.is_empty());
    assert!(engine.fire_ready().is_empty());

    engine.advance_time(200);
    let q = parse_query(&strings, text).expect("parses");
    let oracle = |end| oracle_rows(&q, &TripleTable::new(), &timeline, end);
    let fired: Vec<(Timestamp, Vec<Vec<Vid>>)> = window_100
        .into_iter()
        .chain(engine.fire_ready())
        .map(|f| (f.window_end, f.results.rows))
        .collect();
    assert_eq!(fired, vec![(100, oracle(100)), (200, oracle(200))]);
    assert_eq!(oracle(200).len(), 130);
    assert_eq!(engine.one_shot(oneshot).expect("runs").0.rows.len(), 130);
}

/// The four-way check at a rate where every batch installs in pieces:
/// two streams of about 400 tuples per 100 ms batch share the `sh`
/// predicate on the same subjects, so their pieces interleave on shared
/// keys and a batch's appends to a key come in several runs.
#[test]
fn four_way_agreement_holds_when_batches_install_in_pieces() {
    let mut rng = StdRng::seed_from_u64(0x9E3779B9);
    let strings = Arc::new(StringServer::new());
    let entities: Vec<Vid> = (0..120)
        .map(|i| strings.intern_entity(&format!("e{i}")).expect("interns"))
        .collect();
    let [sh, ta1, tb1, sp0] =
        ["sh", "ta1", "tb1", "sp0"].map(|p| strings.intern_predicate(p).expect("interns"));
    let pick = |rng: &mut StdRng| entities[rng.gen_range(0..entities.len())];
    let mut seen = std::collections::HashSet::new();
    let mut stored = Vec::new();
    for _ in 0..60 {
        let t = Triple::new(pick(&mut rng), sp0, pick(&mut rng));
        if seen.insert((t.s, t.p, t.o)) {
            stored.push(t);
        }
    }
    let mut timeline = Vec::new();
    for batch in 0..4u64 {
        for (stream, own) in [(0, ta1), (1, tb1)] {
            for _ in 0..420 {
                let p = if rng.gen_range(0..3u64) == 0 { own } else { sh };
                let t = Triple::new(pick(&mut rng), p, pick(&mut rng));
                let ts = batch * INTERVAL_MS + 1 + rng.gen_range(0..INTERVAL_MS);
                if seen.insert((t.s, t.p, t.o)) {
                    timeline.push((stream, t, ts));
                }
            }
        }
    }
    timeline.sort_by_key(|(_, _, ts)| *ts);
    let sc = Scenario {
        strings,
        stored,
        timeline,
        queries: vec![
            "REGISTER QUERY D0 SELECT ?V0 ?V1 ?V2 FROM SA [RANGE 200ms STEP 100ms] \
             FROM SB [RANGE 200ms STEP 100ms] \
             WHERE { GRAPH SA { ?V0 sh ?V1 } GRAPH SB { ?V0 sh ?V2 } }"
                .to_string(),
            "REGISTER QUERY D1 SELECT ?V0 FROM SA [RANGE 300ms STEP 100ms] \
             WHERE { GRAPH SA { e3 sh ?V0 } }"
                .to_string(),
            "REGISTER QUERY D2 SELECT ?V0 ?V1 ?V2 FROM SB [RANGE 100ms STEP 100ms] \
             WHERE { GRAPH SB { ?V0 sh ?V1 } ?V1 sp0 ?V2 }"
                .to_string(),
        ],
        max_range_ms: 300,
    };
    let (checked, nonempty) = check_prefix(&sc, 4, sc.timeline.len()).unwrap_or_else(|d| {
        panic!(
            "piece-installed run diverged: {} at window {}\n  lhs rows: {:?}\n  rhs rows: {:?}",
            d.kind, d.window_end, d.engine_rows, d.oracle_rows
        )
    });
    assert!(checked >= 12, "only {checked} firings");
    assert!(nonempty >= 9, "only {nonempty} firings had rows");
}

#[test]
fn generator_is_deterministic() {
    let a = generate(42);
    let b = generate(42);
    assert_eq!(a.queries, b.queries);
    assert_eq!(a.stored.len(), b.stored.len());
    assert_eq!(
        a.timeline
            .iter()
            .map(|(s, t, ts)| (*s, t.s, t.p, t.o, *ts))
            .collect::<Vec<_>>(),
        b.timeline
            .iter()
            .map(|(s, t, ts)| (*s, t.s, t.p, t.o, *ts))
            .collect::<Vec<_>>(),
    );
}

#[test]
fn oracle_window_filter_matches_batching() {
    // Raw timestamps land in the mini-batch that *ends* at the next
    // interval boundary; boundary timestamps stay in their own batch.
    assert_eq!(batched(1), 100);
    assert_eq!(batched(100), 100);
    assert_eq!(batched(101), 200);
    assert_eq!(batched(1_000), 1_000);
}
