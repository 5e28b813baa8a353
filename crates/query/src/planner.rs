//! Greedy cost-based pattern ordering.
//!
//! The integrated design gives the planner *global* information: live
//! cardinalities of both stored keys (at the query's snapshot) and stream
//! windows (via the stream index), so it can pick the execution order with
//! the most selective anchor first — exactly what the composite designs
//! cannot do across their system boundary (§2.3, Issue #2).
//!
//! The algorithm is the classic greedy exploration order: repeatedly pick,
//! among patterns touching an already-bound variable (or anchored on a
//! constant), the one with the smallest estimated fan-out; fall back to a
//! predicate index scan when nothing is anchored.

use crate::ast::{GraphName, Query, Term, TriplePattern};
use crate::exec::{ExecContext, GraphAccess};
use crate::plan::{Plan, Step, StepMode};
use wukong_rdf::{Dir, Key};

/// Total order over pattern content, used to break estimate ties. With a
/// content-based tie-break the greedy choice at every iteration is a pure
/// function of the *set* of remaining patterns (mode and estimate already
/// depend only on pattern + bound vars), so the produced plan — and its
/// cost — is invariant under permutation of the input pattern list.
fn pattern_key(p: &TriplePattern) -> (u8, usize, u64, (u8, u64), (u8, u64)) {
    let term_key = |t: Term| match t {
        Term::Const(v) => (0u8, v.0),
        Term::Var(v) => (1u8, v as u64),
    };
    let graph_key = match p.graph {
        GraphName::Stored => (0u8, 0usize),
        GraphName::Stream(i) => (1u8, i),
    };
    (
        graph_key.0,
        graph_key.1,
        p.p.0,
        term_key(p.s),
        term_key(p.o),
    )
}

/// Cost assigned to expanding from an already-bound variable: the planner
/// cannot know the concrete vertex yet, so it charges a per-row fan-out
/// guess. Small enough to prefer bound expansion over index scans.
const BOUND_EXPANSION_COST: usize = 8;

fn anchor_estimate(
    p: &TriplePattern,
    bound: &[bool],
    access: &impl GraphAccess,
    ctx: &ExecContext,
) -> (StepMode, usize) {
    let s_concrete = match p.s {
        Term::Const(_) => true,
        Term::Var(v) => bound[v as usize],
    };
    let o_concrete = match p.o {
        Term::Const(_) => true,
        Term::Var(v) => bound[v as usize],
    };

    let s_cost = match p.s {
        Term::Const(c) => access.estimate(Key::new(c, p.p, Dir::Out), p.graph, ctx),
        Term::Var(_) if s_concrete => BOUND_EXPANSION_COST,
        _ => usize::MAX,
    };
    let o_cost = match p.o {
        Term::Const(c) => access.estimate(Key::new(c, p.p, Dir::In), p.graph, ctx),
        Term::Var(_) if o_concrete => BOUND_EXPANSION_COST,
        _ => usize::MAX,
    };

    if s_cost == usize::MAX && o_cost == usize::MAX {
        // Nothing concrete: index scan over the predicate.
        let est = access
            .estimate(Key::index(p.p, Dir::Out), p.graph, ctx)
            .max(1);
        (StepMode::IndexScan, est.saturating_mul(4))
    } else if s_cost <= o_cost {
        (StepMode::FromSubject, s_cost)
    } else {
        (StepMode::FromObject, o_cost)
    }
}

/// Marks the variables `p` binds in `bound`.
pub(crate) fn mark_bound(p: &TriplePattern, bound: &mut [bool]) {
    if let Term::Var(v) = p.s {
        bound[v as usize] = true;
    }
    if let Term::Var(v) = p.o {
        bound[v as usize] = true;
    }
}

/// Orders `query`'s patterns into an exploration plan using `access` as
/// the cardinality oracle for the given execution context.
pub fn plan_query(query: &Query, access: &impl GraphAccess, ctx: &ExecContext) -> Plan {
    plan_patterns(
        &query.patterns,
        &vec![false; query.var_count as usize],
        access,
        ctx,
    )
}

/// Orders an arbitrary pattern subset with some variables already bound —
/// used by drivers that stage execution across engines (the composite
/// baselines ship partial bindings to the store side).
pub fn plan_patterns(
    patterns: &[TriplePattern],
    pre_bound: &[bool],
    access: &impl GraphAccess,
    ctx: &ExecContext,
) -> Plan {
    let mut remaining: Vec<TriplePattern> = patterns.to_vec();
    let mut bound = pre_bound.to_vec();
    let mut steps = Vec::with_capacity(remaining.len());

    while !remaining.is_empty() {
        // Prefer connected patterns; among them the cheapest anchor;
        // estimate ties break on pattern content (see [`pattern_key`])
        // so the plan does not depend on the input pattern order.
        let mut best: Option<(usize, StepMode, usize)> = None;
        for (i, p) in remaining.iter().enumerate() {
            let (mode, est) = anchor_estimate(p, &bound, access, ctx);
            let connected = mode != StepMode::IndexScan;
            let candidate = (i, mode, est);
            best = match best {
                None => Some(candidate),
                Some((bi, bmode, best_est)) => {
                    let best_connected = bmode != StepMode::IndexScan;
                    if (connected && !best_connected)
                        || (connected == best_connected && est < best_est)
                        || (connected == best_connected
                            && est == best_est
                            && pattern_key(p) < pattern_key(&remaining[bi]))
                    {
                        Some(candidate)
                    } else {
                        best
                    }
                }
            };
        }
        let (i, mode, estimate) = best.expect("remaining is non-empty");
        let pattern = remaining.swap_remove(i);
        mark_bound(&pattern, &mut bound);
        steps.push(Step {
            pattern,
            mode,
            estimate,
        });
    }

    Plan { steps }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::GraphName;
    use crate::exec::{ExecContext, PatternSource};
    use crate::parse_query;
    use std::collections::HashMap;
    use wukong_net::TaskTimer;
    use wukong_rdf::{StringServer, Vid};
    use wukong_store::SnapshotId;

    /// An oracle with fixed per-key estimates.
    struct FixedOracle {
        estimates: HashMap<Key, usize>,
        default: usize,
    }

    impl GraphAccess for FixedOracle {
        fn neighbors(
            &self,
            _key: Key,
            _src: PatternSource,
            _ctx: &ExecContext,
            _timer: &mut TaskTimer,
            _out: &mut Vec<Vid>,
        ) {
        }

        fn estimate(&self, key: Key, _src: PatternSource, _ctx: &ExecContext) -> usize {
            self.estimates.get(&key).copied().unwrap_or(self.default)
        }
    }

    #[test]
    fn selective_constant_anchor_goes_first() {
        let ss = StringServer::new();
        let q = parse_query(
            &ss,
            "SELECT ?X WHERE { Logan po ?X . ?X ht #sosp17 . Erik li ?X }",
        )
        .unwrap();
        let logan = ss.entity_id("Logan").unwrap();
        let erik = ss.entity_id("Erik").unwrap();
        let po = ss.predicate_id("po").unwrap();
        let li = ss.predicate_id("li").unwrap();

        let mut estimates = HashMap::new();
        // Erik liked 2 things; Logan posted 50.
        estimates.insert(Key::new(logan, po, Dir::Out), 50);
        estimates.insert(Key::new(erik, li, Dir::Out), 2);
        let oracle = FixedOracle {
            estimates,
            default: 1000,
        };
        let ctx = ExecContext::stored(SnapshotId::BASE);
        let plan = plan_query(&q, &oracle, &ctx);

        // The Erik-li pattern anchors the exploration.
        assert_eq!(plan.steps[0].pattern.p, li);
        assert_eq!(plan.steps[0].mode, StepMode::FromSubject);
        assert_eq!(plan.steps[0].estimate, 2);
        assert!(!plan.has_index_scan());
        assert_eq!(plan.steps.len(), 3);
    }

    #[test]
    fn unanchored_query_uses_index_scan_once() {
        let ss = StringServer::new();
        let q = parse_query(&ss, "SELECT ?X ?Y WHERE { ?X fo ?Y . ?Y po ?Z }").unwrap();
        let oracle = FixedOracle {
            estimates: HashMap::new(),
            default: 10,
        };
        let ctx = ExecContext::stored(SnapshotId::BASE);
        let plan = plan_query(&q, &oracle, &ctx);
        assert_eq!(plan.steps[0].mode, StepMode::IndexScan);
        // Second step is connected through ?Y.
        assert_ne!(plan.steps[1].mode, StepMode::IndexScan);
    }

    #[test]
    fn single_pattern_plan_needs_no_join() {
        // Degenerate but legal: one pattern, nothing to order against.
        let ss = StringServer::new();
        let q = parse_query(&ss, "SELECT ?X WHERE { Logan po ?X }").unwrap();
        let oracle = FixedOracle {
            estimates: HashMap::new(),
            default: 7,
        };
        let ctx = ExecContext::stored(SnapshotId::BASE);
        let plan = plan_query(&q, &oracle, &ctx);
        assert_eq!(plan.steps.len(), 1);
        assert_eq!(plan.steps[0].mode, StepMode::FromSubject);
        assert!(!plan.has_index_scan());
    }

    #[test]
    fn zero_binding_first_step_still_connects_the_rest() {
        // A fully-constant pattern binds no variables. When the planner
        // picks it first (it is the cheapest concrete anchor), the
        // remaining patterns must still plan as connected steps — the
        // "connected" preference keys off concrete anchors, not off
        // newly-bound variables.
        let ss = StringServer::new();
        let q = parse_query(&ss, "SELECT ?X WHERE { Logan fo Erik . ?Y po ?X }").unwrap();
        let logan = ss.entity_id("Logan").unwrap();
        let fo = ss.predicate_id("fo").unwrap();
        let mut estimates = HashMap::new();
        estimates.insert(Key::new(logan, fo, Dir::Out), 1);
        let oracle = FixedOracle {
            estimates,
            default: 50,
        };
        let ctx = ExecContext::stored(SnapshotId::BASE);
        let plan = plan_query(&q, &oracle, &ctx);
        assert_eq!(plan.steps.len(), 2);
        // The existence check anchors first and binds nothing.
        assert_eq!(plan.steps[0].pattern.p, fo);
        assert!(plan.steps[0].pattern.s.var().is_none());
        assert!(plan.steps[0].pattern.o.var().is_none());
        // The disconnected remainder falls back to an index scan rather
        // than anchoring on an unbound variable.
        assert_eq!(plan.steps[1].mode, StepMode::IndexScan);
    }

    #[test]
    fn plan_covers_all_patterns_and_sources() {
        let ss = StringServer::new();
        let q = parse_query(
            &ss,
            "REGISTER QUERY q SELECT ?X ?Y ?Z \
             FROM T [RANGE 10s STEP 1s] FROM L [RANGE 5s STEP 1s] \
             WHERE { GRAPH T { ?X po ?Z } ?X fo ?Y GRAPH L { ?Y li ?Z } }",
        )
        .unwrap();
        let oracle = FixedOracle {
            estimates: HashMap::new(),
            default: 5,
        };
        let ctx = ExecContext {
            sn: SnapshotId::BASE,
            windows: vec![
                crate::exec::WindowInstance {
                    stream: wukong_rdf::StreamId(0),
                    lo: 0,
                    hi: 10,
                },
                crate::exec::WindowInstance {
                    stream: wukong_rdf::StreamId(1),
                    lo: 5,
                    hi: 10,
                },
            ],
        };
        let plan = plan_query(&q, &oracle, &ctx);
        assert_eq!(plan.steps.len(), 3);
        let reads = |g| plan.steps.iter().any(|s| s.pattern.graph == g);
        assert!(reads(GraphName::Stored));
        assert!(reads(GraphName::Stream(0)));
        assert!(reads(GraphName::Stream(1)));
    }
}
