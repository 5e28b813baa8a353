//! Replaying a timeline through an engine and folding what it fires: the
//! tick loop, the firing digest and map, and best-of-N repetition that
//! the gate experiments share.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use wukong_benchdata::TimedTuple;
use wukong_core::{Firing, WukongS};
use wukong_obs::Fnv64;
use wukong_rdf::{Timestamp, Vid};

/// When a replay fires the ready windows while it feeds.
#[derive(Debug, Clone, Copy)]
pub enum Fire {
    /// Not at all: the caller fires after the replay.
    Never,
    /// Before every `n`-th tuple.
    EveryTuples(usize),
    /// Once, before the first tuple at or after this stream time.
    Once(Timestamp),
    /// A tick loop: every `step` ms of stream time up to the horizon,
    /// after feeding the tuples up to the tick and advancing every stream
    /// to it.
    EveryMs(u64),
}

/// Feeds `timeline` into `engine` and advances every stream to `horizon`,
/// firing the ready windows as `fire` says and handing each round's
/// firings to `on_round`. What is ready once the replay returns is the
/// caller's to fire. `checkpoint_at` takes one engine checkpoint before
/// the first tuple at or after that stream time.
pub fn replay(
    engine: &WukongS,
    timeline: &[TimedTuple],
    fire: Fire,
    checkpoint_at: Option<Timestamp>,
    horizon: Timestamp,
    mut on_round: impl FnMut(Vec<Firing>),
) {
    if let Fire::EveryMs(step) = fire {
        let mut fed = 0;
        for tick in (step..=horizon).step_by(step as usize) {
            while fed < timeline.len() && timeline[fed].timestamp <= tick {
                let t = &timeline[fed];
                engine.ingest(t.stream, t.triple, t.timestamp);
                fed += 1;
            }
            engine.advance_time(tick);
            on_round(engine.fire_ready());
        }
        return;
    }
    let mut fired_once = false;
    let mut checkpoint_at = checkpoint_at;
    for (i, t) in timeline.iter().enumerate() {
        let due = match fire {
            Fire::EveryTuples(n) => i > 0 && i % n == 0,
            Fire::Once(at) => !fired_once && t.timestamp >= at,
            Fire::Never | Fire::EveryMs(_) => false,
        };
        if due {
            fired_once = true;
            on_round(engine.fire_ready());
        }
        if checkpoint_at.is_some_and(|at| t.timestamp >= at) {
            engine.checkpoint();
            checkpoint_at = None;
        }
        engine.ingest(t.stream, t.triple, t.timestamp);
    }
    engine.advance_time(horizon);
}

/// The canonical fold of a firing sequence: FNV-1a over every firing's
/// query, window end and rows in engine order, with the totals the
/// experiments report beside it. Two runs agree on `hash` ⇔ they fired
/// the same results in the same order.
#[derive(Debug, Clone, Copy, Default)]
pub struct FiringDigest {
    /// The digest so far.
    pub hash: Fnv64,
    /// Firings folded in.
    pub firings: u64,
    /// Result rows folded in.
    pub rows: u64,
    /// Sum of per-firing latency, ms.
    pub total_ms: f64,
}

impl FiringDigest {
    /// Folds one round of firings in.
    pub fn absorb(&mut self, firings: &[Firing]) {
        for f in firings {
            self.firings += 1;
            self.total_ms += f.latency_ms;
            self.hash.push(f.query as u64);
            self.hash.push(f.window_end);
            self.push_rows(&f.results.rows);
        }
    }

    /// Folds bare result rows in (one-shot results).
    pub(crate) fn push_rows(&mut self, rows: &[Vec<Vid>]) {
        for row in rows {
            self.rows += 1;
            for v in row {
                self.hash.push(v.0);
            }
        }
    }
}

/// One firing as the drills compare it: sorted rows, plus whether it
/// carried an explicit divergence marker (degraded / unreachable /
/// quarantined shards) when it fired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Collected {
    /// The result rows, sorted.
    pub rows: Vec<Vec<Vid>>,
    /// Whether the firing declared itself partial.
    pub marked: bool,
}

/// Firings by `(query, window_end)`.
pub type FiringMap = BTreeMap<(usize, Timestamp), Collected>;

/// What [`collect`] saw besides new firings.
#[derive(Debug, Default, Clone, Copy)]
pub struct Refires {
    /// Windows fired again (at-least-once delivery).
    pub repeats: u64,
    /// Re-fires whose rows changed although neither firing was marked —
    /// silent divergence.
    pub conflicts: u64,
}

/// Folds firings into `into`. An unmarked re-fire of an unmarked window
/// must repeat its rows exactly (at-least-once); re-fires involving a
/// marked firing may differ — the marked side declared itself partial —
/// and the unmarked (complete) rows win.
pub fn collect(firings: Vec<Firing>, into: &mut FiringMap) -> Refires {
    let mut seen = Refires::default();
    for f in firings {
        let marked = f.results.degraded.is_some()
            || !f.results.unreachable_shards.is_empty()
            || !f.results.quarantined_shards.is_empty();
        let mut rows = f.results.rows;
        rows.sort();
        let entry = Collected { rows, marked };
        match into.entry((f.query, f.window_end)) {
            Entry::Vacant(e) => {
                e.insert(entry);
            }
            Entry::Occupied(mut e) => {
                seen.repeats += 1;
                if !e.get().marked && !entry.marked {
                    if e.get().rows != entry.rows {
                        seen.conflicts += 1;
                    }
                } else if e.get().marked {
                    // Prefer the complete (or at least newer) firing.
                    e.insert(entry);
                }
            }
        }
    }
    seen
}

/// Whether two maps hold the same windows with the same rows.
pub(crate) fn same_rows(a: &FiringMap, b: &FiringMap) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|((ka, ca), (kb, cb))| ka == kb && ca.rows == cb.rows)
}

/// FNV-1a fingerprint of a firing map (keys and rows).
pub(crate) fn fingerprint(map: &FiringMap) -> u64 {
    let mut h = Fnv64::new();
    for ((query, end), c) in map {
        h.push(*query as u64);
        h.push(*end);
        for v in c.rows.iter().flatten() {
            h.push(v.0);
        }
    }
    h.0
}

/// Runs `once` `reps` times and keeps the cheapest outcome by `cost`
/// (measured time is noisy almost entirely upward, so the minimum is the
/// stable estimator). Also reports whether every repetition agreed on
/// `same` — the result hash, which must not depend on the repetition.
pub(crate) fn best_of<T, K: PartialEq>(
    reps: usize,
    mut once: impl FnMut() -> T,
    same: impl Fn(&T) -> K,
    cost: impl Fn(&T) -> f64,
) -> (T, bool) {
    let mut best = once();
    let mut agree = true;
    for _ in 1..reps {
        let rerun = once();
        agree &= same(&rerun) == same(&best);
        if cost(&rerun) < cost(&best) {
            best = rerun;
        }
    }
    (best, agree)
}
