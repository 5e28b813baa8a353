//! Adaptive planning primitives: plan caching and cardinality feedback.
//!
//! The planner picks an exploration order from whatever cardinalities the
//! store reported *at planning time*. Over a fast-evolving stream those
//! numbers rot — LSBench's post/GPS mixes shift per-predicate selectivity
//! by orders of magnitude — so a continuous query registered once can
//! keep firing a stale plan forever. This module provides the two
//! engine-independent pieces of the fix:
//!
//! * [`PlanCache`] — memoizes plans keyed on `(normalized query text,
//!   stats epoch)`. One-shot bursts re-submit textually identical
//!   queries many times per second; as long as the store's statistics
//!   epoch has not advanced, the cached plan is exactly what the planner
//!   would produce again.
//! * [`PlanFeedback`] + [`DriftPolicy`] — per-step cardinality feedback.
//!   The executor reports each step's actual fan-out next to the
//!   planner's [`crate::plan::Step::estimate`]; a drift detector trips
//!   when the estimate/actual ratio leaves a configurable band for K
//!   consecutive firings, signalling the engine to re-plan against fresh
//!   statistics.
//!
//! Both pieces are deterministic: cache hits depend only on (text,
//! epoch), and the drift detector's trip points are a pure function of
//! the observed fan-out sequence — so adaptive runs replay identically
//! under the same seed.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::plan::Plan;

/// Collapses every whitespace run in `text` to a single space and trims,
/// so cosmetic formatting differences (newlines, indentation) between
/// textually identical queries hit the same [`PlanCache`] entry. Nothing
/// else is rewritten — `#` introduces hashtag entities in this dialect,
/// not comments, so the text is otherwise preserved byte for byte.
pub(crate) fn normalize_query_text(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut in_gap = true; // leading whitespace trims
    for ch in text.chars() {
        if ch.is_whitespace() {
            if !in_gap {
                out.push(' ');
                in_gap = true;
            }
        } else {
            out.push(ch);
            in_gap = false;
        }
    }
    if out.ends_with(' ') {
        out.pop();
    }
    out
}

/// A concurrent plan memo keyed on `(normalized query text, stats
/// epoch)`. Entries from older epochs are evicted first when the cache
/// fills; eviction is deterministic (stale-epoch sweep, then full clear)
/// so cache behaviour never depends on hash iteration order.
pub struct PlanCache {
    inner: Mutex<HashMap<(String, u64), Plan>>,
    hits: AtomicU64,
    misses: AtomicU64,
    capacity: usize,
}

impl PlanCache {
    /// Default capacity: plenty for every registered query plus a burst
    /// of distinct one-shot texts, small enough to stay cheap to sweep.
    pub const DEFAULT_CAPACITY: usize = 256;

    /// Creates a cache holding at most `capacity` plans (min 1).
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            inner: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            capacity: capacity.max(1),
        }
    }

    /// Looks up the plan for `text` (normalized internally) at `epoch`.
    pub fn get(&self, text: &str, epoch: u64) -> Option<Plan> {
        let key = (normalize_query_text(text), epoch);
        let found = self
            .inner
            .lock()
            .expect("plan cache poisoned")
            .get(&key)
            .cloned();
        match found {
            Some(p) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(p)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts `plan` for `text` at `epoch`, evicting if full: first
    /// every entry from an older epoch, then (if still full) everything.
    pub fn insert(&self, text: &str, epoch: u64, plan: Plan) {
        let key = (normalize_query_text(text), epoch);
        let mut map = self.inner.lock().expect("plan cache poisoned");
        if !map.contains_key(&key) && map.len() >= self.capacity {
            map.retain(|(_, e), _| *e >= epoch);
            if map.len() >= self.capacity {
                map.clear();
            }
        }
        map.insert(key, plan);
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("plan cache poisoned").len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for PlanCache {
    fn default() -> Self {
        Self::new(Self::DEFAULT_CAPACITY)
    }
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("len", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

/// When the drift detector trips: the per-step estimate/actual ratio
/// must leave `band` for `trip_after` *consecutive* firings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftPolicy {
    /// Maximum tolerated smoothed ratio `max((a+1)/(e+1), (e+1)/(a+1))`
    /// between a step's estimate and its observed per-input-row fan-out.
    /// The default (8×) absorbs the planner's own fudge factors (the
    /// bound-expansion guess and the 4× index-scan multiplier) so only
    /// order-of-magnitude drift re-plans.
    pub band: f64,
    /// Consecutive drifted firings required before re-planning, so one
    /// anomalous window does not thrash the plan.
    pub trip_after: u32,
}

impl Default for DriftPolicy {
    fn default() -> Self {
        DriftPolicy {
            band: 8.0,
            trip_after: 3,
        }
    }
}

/// Per-registered-query cardinality feedback: the plan's frozen
/// estimates plus the drift streak across firings.
///
/// A firing's observation is one `(input_rows, output_rows)` pair per
/// plan step (see `execute_with_fanout`); the observed per-input-row
/// fan-out `out / max(in, 1)` is comparable to `Step::estimate` for
/// every step mode — constant anchors expand the same key for every
/// input row, bound-variable anchors are estimated per row, and index
/// scans run once over a unit seed row. Steps with `input_rows == 0`
/// never executed (upstream emptiness short-circuited) and are skipped.
#[derive(Debug, Clone)]
pub struct PlanFeedback {
    estimates: Vec<u64>,
    streak: u32,
    firings: u64,
    drifted_firings: u64,
}

impl PlanFeedback {
    /// Fresh feedback for `plan`, freezing its per-step estimates.
    pub fn for_plan(plan: &Plan) -> Self {
        PlanFeedback {
            estimates: plan.steps.iter().map(|s| s.estimate as u64).collect(),
            streak: 0,
            firings: 0,
            drifted_firings: 0,
        }
    }

    /// Records one firing's per-step fan-out. Returns `true` when the
    /// drift streak reaches `policy.trip_after` — the caller should
    /// re-plan; the streak resets so the rebuilt plan starts clean.
    pub fn observe(&mut self, fanout: &[(u64, u64)], policy: &DriftPolicy) -> bool {
        self.firings += 1;
        let mut drifted = false;
        for (i, &(in_rows, out_rows)) in fanout.iter().enumerate() {
            if in_rows == 0 {
                continue; // step never ran (or probe had no observation)
            }
            let Some(&est) = self.estimates.get(i) else {
                break;
            };
            let actual = out_rows as f64 / in_rows as f64;
            let e = est as f64 + 1.0;
            let a = actual + 1.0;
            let ratio = (a / e).max(e / a);
            if ratio > policy.band {
                drifted = true;
            }
        }
        if drifted {
            self.drifted_firings += 1;
            self.streak += 1;
            if self.streak >= policy.trip_after {
                self.streak = 0;
                return true;
            }
        } else {
            self.streak = 0;
        }
        false
    }

    /// Firings observed since this feedback was created.
    pub fn firings(&self) -> u64 {
        self.firings
    }

    /// Firings whose fan-out left the band.
    pub fn drifted_firings(&self) -> u64 {
        self.drifted_firings
    }

    /// Current consecutive-drift streak.
    pub fn streak(&self) -> u32 {
        self.streak
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{GraphName, Term, TriplePattern};
    use crate::plan::{Step, StepMode};
    use wukong_rdf::{Pid, Vid};

    fn plan_with_estimates(estimates: &[usize]) -> Plan {
        Plan {
            steps: estimates
                .iter()
                .map(|&estimate| Step {
                    pattern: TriplePattern {
                        s: Term::Const(Vid(1)),
                        p: Pid(estimate as u64),
                        o: Term::Var(0),
                        graph: GraphName::Stored,
                    },
                    mode: StepMode::FromSubject,
                    estimate,
                })
                .collect(),
        }
    }

    #[test]
    fn normalization_collapses_whitespace_only() {
        assert_eq!(
            normalize_query_text("  SELECT ?X\n\tWHERE  { ?X ht #sosp17 }  "),
            "SELECT ?X WHERE { ?X ht #sosp17 }"
        );
        // Hashtag entities survive untouched (no comment stripping).
        assert!(normalize_query_text("?X ht #sosp17").contains("#sosp17"));
    }

    #[test]
    fn cache_hits_on_equivalent_text_same_epoch_only() {
        let cache = PlanCache::new(8);
        let plan = plan_with_estimates(&[3]);
        cache.insert("SELECT ?X  WHERE { a p ?X }", 1, plan.clone());
        assert_eq!(cache.get("SELECT ?X WHERE { a p ?X }", 1), Some(plan));
        assert_eq!(cache.get("SELECT ?X WHERE { a p ?X }", 2), None);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn eviction_sweeps_stale_epochs_first() {
        let cache = PlanCache::new(2);
        cache.insert("q1", 1, plan_with_estimates(&[1]));
        cache.insert("q2", 1, plan_with_estimates(&[2]));
        // Full; inserting at a newer epoch sweeps the epoch-1 entries.
        cache.insert("q3", 2, plan_with_estimates(&[3]));
        assert!(cache.get("q3", 2).is_some());
        assert!(cache.get("q1", 1).is_none());
        assert!(cache.get("q2", 1).is_none());
    }

    #[test]
    fn detector_trips_after_consecutive_drift_only() {
        let plan = plan_with_estimates(&[2]);
        let mut fb = PlanFeedback::for_plan(&plan);
        let policy = DriftPolicy {
            band: 4.0,
            trip_after: 3,
        };
        // Estimate 2, actual 100 → smoothed ratio 101/3 ≈ 33 > 4.
        assert!(!fb.observe(&[(1, 100)], &policy));
        assert!(!fb.observe(&[(1, 100)], &policy));
        // An in-band firing resets the streak.
        assert!(!fb.observe(&[(1, 2)], &policy));
        assert!(!fb.observe(&[(1, 100)], &policy));
        assert!(!fb.observe(&[(1, 100)], &policy));
        assert!(fb.observe(&[(1, 100)], &policy), "third consecutive trips");
        assert_eq!(fb.streak(), 0, "trip resets the streak");
        assert_eq!(fb.firings(), 6);
        assert_eq!(fb.drifted_firings(), 5);
    }

    #[test]
    fn in_band_and_skipped_steps_never_drift() {
        let plan = plan_with_estimates(&[8, 50]);
        let mut fb = PlanFeedback::for_plan(&plan);
        let policy = DriftPolicy::default();
        for _ in 0..10 {
            // Step 0 within band; step 1 skipped (no input rows).
            assert!(!fb.observe(&[(4, 40), (0, 0)], &policy));
        }
        assert_eq!(fb.drifted_firings(), 0);
    }

    #[test]
    fn per_row_fanout_normalizes_by_input_rows() {
        // Estimate 8 per row; 10 input rows producing 80 outputs is
        // exactly on-model even though 80 >> 8.
        let plan = plan_with_estimates(&[8]);
        let mut fb = PlanFeedback::for_plan(&plan);
        let policy = DriftPolicy {
            band: 2.0,
            trip_after: 1,
        };
        assert!(!fb.observe(&[(10, 80)], &policy));
        // The same 80 outputs from one row is 10× the estimate: drift.
        assert!(fb.observe(&[(1, 80)], &policy));
    }
}
