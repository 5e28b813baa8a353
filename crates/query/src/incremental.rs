//! Incremental (delta-maintenance) evaluation of continuous queries.
//!
//! A sliding window with high overlap re-derives almost all of its
//! binding rows on every firing: a window of range `R` sliding by step
//! `S` shares a `1 - S/R` fraction of its tuples with its predecessor.
//! The recompute path pays the full scan/join every time regardless.
//! This module maintains each registered query's result *between*
//! firings instead:
//!
//! * [`DeltaState`] materializes the previous firing's full-width binding
//!   rows, each tagged with a precomputed **death timestamp** — the first
//!   window end at which the row stops being derivable (a
//!   [`BindingTable`] whose [`crate::bindings::RowTag`] is a
//!   `Timestamp`).
//! * A firing over overlapping windows first **retracts** rows whose
//!   death is not past the new window end (a contributing edge expired),
//!   then derives only the rows that touch the **inserted** slice
//!   `(prev_end, new_end]` of at least one stream.
//!
//! The delta derivation telescopes over plan steps: with per-step edge
//! slices `Nᵢ = Sᵢ ⊎ Dᵢ` (survivors ⊎ delta), multilinearity of the
//! step chain gives
//!
//! ```text
//! Q(N₁…Nₖ) = Q(S₁…Sₖ) + Σᵢ Q(N₁…Nᵢ₋₁, Dᵢ, Sᵢ₊₁…Sₖ)
//! ```
//!
//! where `Q(S₁…Sₖ)` is exactly the retained state. Every step mode
//! (subject/object expansion, predicate index scan) is *linear* in its
//! slice's edge multiset — one output row per edge occurrence — which is
//! what makes the identity exact under SPARQL bag semantics. The work a
//! maintained firing materializes is therefore proportional to the
//! *delta*, not the window: `d(1 + s)` of the full derivation at overlap
//! `s = 1 - d`, which is what `exp_incremental` gates on.
//!
//! Each term runs the recompute path's own step kernel,
//! [`crate::executor::execute_step_into`], over death-tagged rows: the
//! tag makes it read every edge with its expiry and fold that into the
//! row's death. This module keeps only what is maintenance's own:
//! retraction, the telescoping schedule and the state.
//!
//! Not every query is incrementalizable (see [`incrementalizable`]):
//! `OPTIONAL` / `UNION` / `NOT EXISTS` are non-monotone or re-plan per
//! row, and stored-graph patterns read state that mutates between
//! firings as absorbed tuples land. The engine falls back to recompute
//! for those. Aggregates, `GROUP BY`, `DISTINCT`, `ORDER BY` and `LIMIT`
//! need no special casing: state add/remove happens at the row-multiset
//! level and the shared [`finalize`] recomputes the folds over the
//! canonical row order at emit time (exact for floats, where a
//! subtract-combiner would not be).

use crate::ast::{GraphName, Query};
use crate::bindings::BindingTable;
use crate::exec::{ExecContext, LiteralResolver, TimedGraphAccess, WindowInstance};
use crate::executor::{finalize, ResultSet, StepRunner};
use crate::plan::Plan;
use wukong_net::TaskTimer;
use wukong_obs::{Stage, StageTrace};
use wukong_rdf::Timestamp;

/// The delta-maintenance state of one registered query.
#[derive(Debug, Clone)]
pub struct DeltaState {
    /// Window instances of the firing the state reflects.
    windows: Vec<WindowInstance>,
    /// Materialized post-filter binding rows, each tagged with its death.
    /// Every window of a firing ends at the common fire time `hi`
    /// ([`WindowInstance`]s from one `WindowState::fire`), so a row is
    /// derivable from windows ending at `hi` iff `death > hi` — retraction
    /// is one compacting sweep over the flat tag column.
    rows: BindingTable<Timestamp>,
}

impl DeltaState {
    /// The materialized rows.
    pub fn rows(&self) -> &BindingTable<Timestamp> {
        &self.rows
    }

    /// The windows the state reflects.
    pub fn windows(&self) -> &[WindowInstance] {
        &self.windows
    }
}

impl BindingTable<Timestamp> {
    /// The `i`-th row's death timestamp: the first window end it is no
    /// longer derivable at.
    pub fn death(&self, i: usize) -> Timestamp {
        self.tag(i)
    }
}

/// What one maintained firing did, for the observability counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// State rows carried over from the previous firing unchanged.
    pub rows_reused: u64,
    /// Rows newly derived (from the delta slices, or all rows on rebuild).
    pub rows_recomputed: u64,
    /// State rows retracted because a contributing edge expired.
    pub rows_retracted: u64,
    /// Whether this firing rebuilt state from scratch (first firing,
    /// post-recovery, or a non-monotone window movement).
    pub rebuilt: bool,
}

/// Whether `q` can run under delta maintenance.
///
/// Monotone conjunctive stream queries qualify: every pattern reads a
/// stream window, joined by plain steps. Excluded (the engine recomputes
/// instead):
///
/// * `OPTIONAL` / `UNION` / `NOT EXISTS` — non-monotone (an insert can
///   *remove* an answer) or re-planned per row;
/// * stored-graph patterns — the stored graph itself grows between
///   firings as timeless stream tuples are absorbed, so retained rows
///   could silently miss new stored matches;
/// * pattern-free queries — nothing to maintain.
///
/// Projection, filters, aggregates, `GROUP BY`, `DISTINCT`, `ORDER BY`,
/// `LIMIT` and `CONSTRUCT` templates are all fine: they apply to the
/// maintained row multiset at emit time.
pub fn incrementalizable(q: &Query) -> bool {
    !q.patterns.is_empty()
        && q.optional.is_empty()
        && q.union_groups.is_empty()
        && q.not_exists.is_empty()
        && q.patterns
            .iter()
            .all(|p| matches!(p.graph, GraphName::Stream(_)))
}

/// Runs the full step chain from the seed row, step `j` reading its
/// stream `g` over the slice `slice(j, g)`, and returns the rows that pass
/// every filter. Slices are per *step*, not per stream: in one telescoped
/// term, two steps reading the same stream can need different slices
/// (full window before the delta step, survivors after it), so each step
/// sets its stream's window in `ctx` before it runs. `ranges[g]` is stream
/// `g`'s registered RANGE (not the possibly-clamped instance span — early
/// windows pin `lo` at the stream epoch, which must not shorten expiry).
///
/// Filters are per-row predicates, so applying them once to every fresh
/// row (state rows already passed) commutes with the telescoping.
#[allow(clippy::too_many_arguments)]
fn run_term(
    query: &Query,
    plan: &Plan,
    ctx: &mut ExecContext,
    ranges: &[Timestamp],
    slice: impl Fn(usize, usize) -> (Timestamp, Timestamp),
    access: &impl TimedGraphAccess,
    lit: &impl LiteralResolver,
    timer: &mut TaskTimer,
) -> BindingTable<Timestamp> {
    let width = query.var_count as usize;
    let mut run = StepRunner::<Timestamp>::new(BindingTable::seed_tagged(width));
    for (j, step) in plan.steps.iter().enumerate() {
        let GraphName::Stream(g) = step.pattern.graph else {
            unreachable!("incremental plans read streams only");
        };
        let (lo, hi) = slice(j, g);
        if lo > hi {
            return BindingTable::empty_tagged(width);
        }
        (ctx.windows[g].lo, ctx.windows[g].hi) = (lo, hi);
        run.scratch.reads.start(ranges[g]);
        run.step(step, ctx, access, timer);
        if run.table.is_empty() {
            break;
        }
    }
    let mut rows = run.into_table();
    rows.retain(|row, _| query.filters.iter().all(|f| f.keeps(row, lit)));
    rows
}

/// One maintained firing: retract expired state, derive the delta,
/// project the retained multiset.
///
/// `ctx.windows` holds the *new* window instances — all ending at the
/// common fire time, as produced by one `WindowState::fire`. `ranges[g]`
/// is stream `g`'s registered RANGE. `state` is rebuilt from scratch
/// when absent (first firing, post-recovery) or when any window moved
/// backwards; otherwise the firing materializes O(delta) rows instead of
/// O(window). The produced [`ResultSet`] is byte-identical to the
/// recompute path's: both funnel the same row multiset through
/// [`finalize`], which canonicalizes row order before projecting.
///
/// Stage attribution: retraction lands in [`Stage::StateRetract`], delta
/// derivation (and rebuild) in [`Stage::DeltaApply`], projection in
/// [`Stage::ResultEmit`] — mirroring the recompute path's
/// `PatternMatch`/`ResultEmit` split.
#[allow(clippy::too_many_arguments)]
pub fn maintain(
    query: &Query,
    plan: &Plan,
    state: &mut Option<DeltaState>,
    ctx: &ExecContext,
    ranges: &[Timestamp],
    access: &impl TimedGraphAccess,
    lit: &impl LiteralResolver,
    timer: &mut TaskTimer,
    trace: &mut StageTrace,
) -> (ResultSet, DeltaStats) {
    let mut stats = DeltaStats::default();
    let t0 = timer.total_ns();
    // The one context every step of every term reads through.
    let mut step_ctx = ctx.clone();

    let rebuild = match state {
        Some(st) => {
            st.windows.len() != ctx.windows.len()
                || st
                    .windows
                    .iter()
                    .zip(&ctx.windows)
                    .any(|(o, n)| o.stream != n.stream || n.lo < o.lo || n.hi < o.hi)
        }
        None => true,
    };

    if rebuild {
        let _delta_span = wukong_obs::trace::scoped_span(Stage::DeltaApply);
        let full = |_, g: usize| (ctx.windows[g].lo, ctx.windows[g].hi);
        let rows = run_term(query, plan, &mut step_ctx, ranges, full, access, lit, timer);
        stats.rebuilt = true;
        stats.rows_recomputed = rows.len() as u64;
        *state = Some(DeltaState {
            windows: ctx.windows.clone(),
            rows,
        });
        trace.add(Stage::DeltaApply, timer.total_ns().saturating_sub(t0));
    } else {
        let st = state.as_mut().expect("non-rebuild has state");
        let prev = st.windows.clone();

        let retract_span = wukong_obs::trace::scoped_span(Stage::StateRetract);
        // Retract: a row survives iff its death is past the common fire
        // time — every contributing edge is still inside the new window
        // of its stream.
        let hi = ctx.windows.iter().map(|w| w.hi).max().expect("windowed");
        debug_assert!(
            ctx.windows.iter().all(|w| w.hi == hi),
            "maintained firings share one fire time across windows"
        );
        let before = st.rows.len();
        st.rows.retain(|_, death| death > hi);
        stats.rows_retracted = (before - st.rows.len()) as u64;
        stats.rows_reused = st.rows.len() as u64;
        let retracted_at = timer.total_ns();
        drop(retract_span);
        trace.add(Stage::StateRetract, retracted_at.saturating_sub(t0));
        let _delta_span = wukong_obs::trace::scoped_span(Stage::DeltaApply);

        // Per-stream slices of the new window: survivors S = old ∩ new,
        // delta D = the inserted suffix. `lo > hi` encodes empty.
        let full: Vec<(Timestamp, Timestamp)> = ctx.windows.iter().map(|w| (w.lo, w.hi)).collect();
        let surv: Vec<(Timestamp, Timestamp)> = ctx
            .windows
            .iter()
            .zip(&prev)
            .map(|(n, o)| (n.lo, o.hi.min(n.hi)))
            .collect();
        let delta: Vec<(Timestamp, Timestamp)> = ctx
            .windows
            .iter()
            .zip(&prev)
            .map(|(n, o)| ((o.hi + 1).max(n.lo), n.hi))
            .collect();

        // Telescoped delta terms: term i derives every new row whose
        // *first* delta-slice edge (in plan-step order) is at step i.
        for i in 0..plan.steps.len() {
            let GraphName::Stream(gi) = plan.steps[i].pattern.graph else {
                unreachable!("incremental plans read streams only");
            };
            let (dlo, dhi) = delta[gi];
            if dlo > dhi {
                continue;
            }
            let slice = |j: usize, g: usize| match j.cmp(&i) {
                std::cmp::Ordering::Less => full[g],
                std::cmp::Ordering::Equal => delta[g],
                std::cmp::Ordering::Greater => surv[g],
            };
            let fresh = run_term(
                query,
                plan,
                &mut step_ctx,
                ranges,
                slice,
                access,
                lit,
                timer,
            );
            stats.rows_recomputed += fresh.len() as u64;
            st.rows.append(&fresh);
        }
        st.windows = ctx.windows.clone();
        trace.add(
            Stage::DeltaApply,
            timer.total_ns().saturating_sub(retracted_at),
        );
    }

    let st = state.as_ref().expect("state just written");
    let emit_at = timer.total_ns();
    let emit_span = wukong_obs::trace::scoped_span(Stage::ResultEmit);
    let applied = vec![true; query.filters.len()];
    let out = finalize(query, st.rows.untagged(), &applied, lit);
    drop(emit_span);
    trace.add(Stage::ResultEmit, timer.total_ns().saturating_sub(emit_at));
    (out, stats)
}

/// Clears optional state — the engine calls this on recovery so a
/// restored query rebuilds rather than trusting pre-crash provenance.
pub fn reset(state: &mut Option<DeltaState>) {
    *state = None;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{GraphAccess, PatternSource, StringLiteralResolver};
    use crate::executor::execute;
    use crate::parse_query;
    use crate::planner::plan_query;
    use std::collections::HashMap;
    use wukong_rdf::{Dir, Key, Pid, StringServer, Vid};
    use wukong_store::SnapshotId;

    /// In-memory timed stream edges: window filtering over explicit
    /// per-edge timestamps, plus the index-vertex entries IndexScan needs.
    #[derive(Default)]
    struct ToyStreams {
        edges: Vec<HashMap<Key, Vec<(Vid, Timestamp)>>>,
    }

    impl ToyStreams {
        fn new(n: usize) -> Self {
            ToyStreams {
                edges: (0..n).map(|_| HashMap::new()).collect(),
            }
        }

        fn add(&mut self, g: usize, s: Vid, p: Pid, o: Vid, ts: Timestamp) {
            let m = &mut self.edges[g];
            m.entry(Key::new(s, p, Dir::Out)).or_default().push((o, ts));
            m.entry(Key::new(o, p, Dir::In)).or_default().push((s, ts));
            m.entry(Key::index(p, Dir::Out)).or_default().push((s, ts));
        }

        fn in_window<'a>(
            &'a self,
            key: Key,
            src: PatternSource,
            ctx: &ExecContext,
        ) -> impl Iterator<Item = (Vid, Timestamp)> + 'a {
            let (g, w) = match src {
                GraphName::Stream(g) => (g, ctx.window(g)),
                GraphName::Stored => unreachable!("stream-only tests"),
            };
            self.edges[g]
                .get(&key)
                .map(|v| v.as_slice())
                .unwrap_or(&[])
                .iter()
                .copied()
                .filter(move |&(_, ts)| ts >= w.lo && ts <= w.hi)
        }
    }

    impl GraphAccess for ToyStreams {
        fn neighbors(
            &self,
            key: Key,
            src: PatternSource,
            ctx: &ExecContext,
            _timer: &mut TaskTimer,
            out: &mut Vec<Vid>,
        ) {
            out.extend(self.in_window(key, src, ctx).map(|(n, _)| n));
        }

        fn estimate(&self, key: Key, src: PatternSource, ctx: &ExecContext) -> usize {
            self.in_window(key, src, ctx).count()
        }
    }

    impl TimedGraphAccess for ToyStreams {
        fn neighbors_timed(
            &self,
            key: Key,
            src: PatternSource,
            ctx: &ExecContext,
            _timer: &mut TaskTimer,
            out: &mut Vec<(Vid, Timestamp)>,
        ) {
            out.extend(self.in_window(key, src, ctx));
        }
    }

    fn ctx_for(sids: &[u16], lo: Timestamp, hi: Timestamp) -> ExecContext {
        ExecContext {
            sn: SnapshotId::BASE,
            windows: sids
                .iter()
                .map(|&s| WindowInstance {
                    stream: wukong_rdf::StreamId(s),
                    lo,
                    hi,
                })
                .collect(),
        }
    }

    /// Seeds a join-heavy two-predicate workload on one stream.
    fn workload(ss: &StringServer, toy: &mut ToyStreams, horizon: u64) {
        let po = ss.intern_predicate("po").unwrap();
        let li = ss.intern_predicate("li").unwrap();
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut rng = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for ts in (100..=horizon).step_by(100) {
            for _ in 0..6 {
                let u = ss.intern_entity(&format!("u{}", rng() % 8)).unwrap();
                let t = ss.intern_entity(&format!("t{}", rng() % 5)).unwrap();
                toy.add(0, u, po, t, ts);
            }
            for _ in 0..6 {
                let v = ss.intern_entity(&format!("v{}", rng() % 8)).unwrap();
                let t = ss.intern_entity(&format!("t{}", rng() % 5)).unwrap();
                toy.add(0, v, li, t, ts);
            }
        }
    }

    const Q: &str = "REGISTER QUERY QJ SELECT ?X ?Y ?Z \
        FROM S [RANGE 10s STEP 1s] \
        WHERE { GRAPH S { ?X po ?Z } GRAPH S { ?Y li ?Z } }";

    /// Seeds `po` / `li` edges over a ten-entity pool — constant anchors
    /// hit, edges repeat inside a batch, self-loops occur — and `wd` edges
    /// from a hundred subjects, so an index scan can reach
    /// `BATCH_MIN_ANCHORS` subjects.
    fn shapes_workload(ss: &StringServer, toy: &mut ToyStreams, horizon: u64) {
        let [po, li, wd] = ["po", "li", "wd"].map(|p| ss.intern_predicate(p).unwrap());
        let e = |i: u64| ss.intern_entity(&format!("e{i}")).unwrap();
        let mut state = 0x2545f4914f6cdd1du64;
        let mut rng = move |n: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        for ts in (100..=horizon).step_by(100) {
            for p in [po, li] {
                let (s, o) = (e(rng(10)), e(rng(10)));
                // One edge occurs twice in the batch.
                toy.add(0, s, p, o, ts);
                toy.add(0, s, p, o, ts);
                for _ in 0..22 {
                    toy.add(0, e(rng(10)), p, e(rng(10)), ts);
                }
            }
            for _ in 0..40 {
                toy.add(0, e(rng(100)), wd, e(rng(10)), ts);
            }
        }
    }

    /// Slides a window over every step shape the kernel has in every
    /// overlap regime (tumbling, 50/75% overlap, disjoint) and checks each
    /// maintained firing equals a from-scratch recompute of the same
    /// window.
    #[test]
    fn maintained_firings_equal_recompute_at_every_overlap() {
        use crate::executor::{execute_step, BATCH_MIN_ANCHORS};
        use crate::plan::StepMode::{self, FromObject, FromSubject, IndexScan};
        // (select, patterns on S, step 0's mode, force step 1 to an index
        // scan, some window must feed a step `BATCH_MIN_ANCHORS` anchors
        // or subjects)
        let cases = [
            (
                "?X ?Y ?Z",
                "{ ?X po ?Z } GRAPH S { ?Y li ?Z }",
                IndexScan,
                false,
                false,
            ),
            (
                "?Y ?Z",
                "{ e1 po ?Z } GRAPH S { ?Z li ?Y }",
                FromSubject,
                false,
                false,
            ),
            (
                "?X ?Y",
                "{ ?X po e2 } GRAPH S { ?X li ?Y }",
                FromObject,
                false,
                false,
            ),
            (
                "?X ?Y ?Z",
                "{ ?X po ?Z } GRAPH S { ?Y li ?Z }",
                IndexScan,
                true,
                false,
            ),
            ("?X", "{ ?X po ?X }", IndexScan, false, false),
            (
                "?X ?Y ?Z",
                "{ ?X po ?Z } GRAPH S { ?Z li ?Y }",
                IndexScan,
                false,
                true,
            ),
            ("?X ?Y", "{ ?X wd ?Y }", IndexScan, false, true),
        ];
        let ss = StringServer::new();
        let mut toy = ToyStreams::new(1);
        shapes_workload(&ss, &mut toy, 2_000);
        let lit = StringLiteralResolver(&ss);
        for (select, patterns, first_mode, force_scan, wide) in cases {
            let text = format!(
                "REGISTER QUERY C SELECT {select} FROM S [RANGE 10s STEP 1s] \
                 WHERE {{ GRAPH S {patterns} }}"
            );
            let q = parse_query(&ss, &text).unwrap();
            let mut plan = plan_query(&q, &toy, &ctx_for(&[0], 1, 2_000));
            assert_eq!(plan.steps[0].mode, first_mode, "{patterns}");
            if force_scan {
                // Step 0 binds `?Z`: the scan's object is bound.
                plan.steps[1].mode = StepMode::IndexScan;
                assert_eq!(plan.steps[0].pattern.o, plan.steps[1].pattern.o);
            }
            let mut widest = 0;
            for (range, step) in [(100u64, 100u64), (200, 100), (400, 100), (100, 300)] {
                let mut state: Option<DeltaState> = None;
                let mut nonempty = 0;
                let mut hi = range;
                while hi <= 2_000 {
                    let ctx = ctx_for(&[0], hi.saturating_sub(range) + 1, hi);
                    let mut timer = TaskTimer::start();
                    let mut trace = StageTrace::new();
                    let (inc, _) = maintain(
                        &q,
                        &plan,
                        &mut state,
                        &ctx,
                        &[range],
                        &toy,
                        &lit,
                        &mut timer,
                        &mut trace,
                    );
                    let full = execute(&q, &plan, &ctx, &toy, &lit, &mut timer);
                    assert_eq!(
                        inc, full,
                        "{patterns}: range {range} step {step} window ending {hi} diverged"
                    );
                    nonempty += usize::from(!inc.rows.is_empty());
                    // The widest input a batched arm could take: step 1's
                    // anchors, or a lone index scan's subjects.
                    widest = widest.max(if plan.steps.len() > 1 {
                        let seed = BindingTable::seed(q.var_count as usize);
                        execute_step(&plan.steps[0], &seed, &ctx, &toy, &mut timer).len()
                    } else {
                        let p = plan.steps[0].pattern;
                        let mut subjects = Vec::new();
                        let key = Key::index(p.p, Dir::Out);
                        toy.neighbors(key, p.graph, &ctx, &mut timer, &mut subjects);
                        subjects.sort_unstable();
                        subjects.dedup();
                        subjects.len()
                    });
                    hi += step;
                }
                assert!(nonempty > 3, "{patterns}: windows must be non-empty");
            }
            if wide {
                assert!(widest >= BATCH_MIN_ANCHORS, "{patterns}: {widest} wide");
            }
        }
    }

    /// The overlapping slide mostly reuses state instead of re-deriving.
    #[test]
    fn overlapping_slide_reuses_rows() {
        let ss = StringServer::new();
        let mut toy = ToyStreams::new(1);
        workload(&ss, &mut toy, 2_000);
        let q = parse_query(&ss, Q).unwrap();
        let lit = StringLiteralResolver(&ss);
        let plan = plan_query(&q, &toy, &ctx_for(&[0], 1, 2_000));

        let mut state = None;
        let mut timer = TaskTimer::start();
        let mut trace = StageTrace::new();
        let (_, s1) = maintain(
            &q,
            &plan,
            &mut state,
            &ctx_for(&[0], 601, 1_000),
            &[400],
            &toy,
            &lit,
            &mut timer,
            &mut trace,
        );
        assert!(s1.rebuilt && s1.rows_recomputed > 0);
        let (_, s2) = maintain(
            &q,
            &plan,
            &mut state,
            &ctx_for(&[0], 701, 1_100),
            &[400],
            &toy,
            &lit,
            &mut timer,
            &mut trace,
        );
        assert!(!s2.rebuilt);
        assert!(s2.rows_reused > 0, "75% overlap must carry rows over");
        assert!(
            s2.rows_reused > s2.rows_recomputed,
            "most rows should be reused on a 10% slide: {s2:?}"
        );
        // Every surviving row's death must cover edges inside the window:
        // the minimum contributing timestamp is in [lo, hi], so the death
        // (min ts + RANGE) lies in [lo + RANGE, hi + RANGE] — and must be
        // strictly past the current fire time.
        let rows = state.as_ref().unwrap().rows();
        for i in 0..rows.len() {
            assert!(rows.death(i) > 1_100 && rows.death(i) <= 1_500);
        }
    }

    /// A backwards window movement (or a reset) rebuilds from scratch.
    #[test]
    fn regression_and_reset_rebuild() {
        let ss = StringServer::new();
        let mut toy = ToyStreams::new(1);
        workload(&ss, &mut toy, 1_000);
        let q = parse_query(&ss, Q).unwrap();
        let lit = StringLiteralResolver(&ss);
        let plan = plan_query(&q, &toy, &ctx_for(&[0], 1, 1_000));
        let mut timer = TaskTimer::start();
        let mut trace = StageTrace::new();

        let mut state = None;
        let (_, s1) = maintain(
            &q,
            &plan,
            &mut state,
            &ctx_for(&[0], 301, 700),
            &[400],
            &toy,
            &lit,
            &mut timer,
            &mut trace,
        );
        assert!(s1.rebuilt);
        // Backwards: window end regressed.
        let (_, s2) = maintain(
            &q,
            &plan,
            &mut state,
            &ctx_for(&[0], 201, 600),
            &[400],
            &toy,
            &lit,
            &mut timer,
            &mut trace,
        );
        assert!(s2.rebuilt, "window regression must rebuild");
        // Explicit reset (the engine's recovery hook).
        reset(&mut state);
        assert!(state.is_none());
        let (_, s3) = maintain(
            &q,
            &plan,
            &mut state,
            &ctx_for(&[0], 301, 700),
            &[400],
            &toy,
            &lit,
            &mut timer,
            &mut trace,
        );
        assert!(s3.rebuilt);
    }

    /// Classification accepts monotone stream joins and rejects the
    /// non-incrementalizable shapes.
    #[test]
    fn classification_matches_supported_shapes() {
        let ss = StringServer::new();
        let ok = parse_query(&ss, Q).unwrap();
        assert!(incrementalizable(&ok));

        let opt = parse_query(
            &ss,
            "REGISTER QUERY O SELECT ?X ?Z FROM S [RANGE 10s STEP 1s] \
             WHERE { GRAPH S { ?X po ?Z } OPTIONAL { ?Z ht ?T } }",
        )
        .unwrap();
        assert!(!incrementalizable(&opt), "OPTIONAL is non-monotone");

        let stored = parse_query(
            &ss,
            "REGISTER QUERY M SELECT ?X ?Y ?Z FROM S [RANGE 10s STEP 1s] \
             WHERE { GRAPH S { ?X po ?Z } ?X fo ?Y }",
        )
        .unwrap();
        assert!(
            !incrementalizable(&stored),
            "stored-graph patterns read mutating state"
        );
    }

    /// Filters and aggregates ride through maintenance byte-identically
    /// (filters prune state rows; folds recompute over canonical order).
    #[test]
    fn filters_and_aggregates_match_recompute() {
        let ss = StringServer::new();
        let mut toy = ToyStreams::new(1);
        let rd = ss.intern_predicate("rd").unwrap();
        let mut val = 0u64;
        for ts in (100..=1_500u64).step_by(100) {
            for i in 0..4 {
                val = (val * 37 + 11) % 100;
                let s = ss.intern_entity(&format!("sensor{i}")).unwrap();
                let v = ss.intern_entity(&format!("{val}")).unwrap();
                toy.add(0, s, rd, v, ts);
            }
        }
        let q = parse_query(
            &ss,
            "REGISTER QUERY A SELECT AVG(?V) COUNT(?V) \
             FROM S [RANGE 10s STEP 1s] \
             WHERE { GRAPH S { ?X rd ?V } FILTER(?V > 20) }",
        )
        .unwrap();
        let lit = StringLiteralResolver(&ss);
        let plan = plan_query(&q, &toy, &ctx_for(&[0], 1, 1_500));

        let mut state = None;
        let mut hi = 400;
        while hi <= 1_500 {
            let ctx = ctx_for(&[0], hi - 399, hi);
            let mut timer = TaskTimer::start();
            let mut trace = StageTrace::new();
            let (inc, _) = maintain(
                &q,
                &plan,
                &mut state,
                &ctx,
                &[400],
                &toy,
                &lit,
                &mut timer,
                &mut trace,
            );
            let full = execute(&q, &plan, &ctx, &toy, &lit, &mut timer);
            assert_eq!(inc, full, "window ending {hi} diverged");
            assert!(inc.aggregates[1].unwrap_or(0.0) > 0.0, "filter passes rows");
            hi += 100;
        }
    }
}
