//! Graph-exploration plans.
//!
//! A plan is an ordered list of steps, each consuming one triple pattern.
//! Execution walks the binding table through the steps; at every step the
//! pattern is anchored on a side that is already concrete (a constant or a
//! bound variable) or, failing that, on the predicate's index vertex
//! (§4.1: "queries that rely on retrieving a set of normal vertices
//! connected by edges with a certain label").

use crate::ast::{Term, TriplePattern};
use crate::bindings::UNBOUND;
use wukong_rdf::{Dir, Vid};

/// How a step anchors its pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepMode {
    /// Subject side is concrete: look up `[s|p|out]`, match/bind object.
    FromSubject,
    /// Object side is concrete: look up `[o|p|in]`, match/bind subject.
    FromObject,
    /// Neither side concrete: scan the predicate index `[0|p|out]` to
    /// enumerate subjects, then expand each to its objects.
    IndexScan,
}

/// One step of a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    /// The pattern this step satisfies.
    pub pattern: TriplePattern,
    /// Anchoring mode.
    pub mode: StepMode,
    /// Planner's cardinality estimate when the step was chosen (kept for
    /// inspection and the breakdown benches).
    pub estimate: usize,
}

impl Step {
    /// How a `FromSubject` / `FromObject` step reads its pattern:
    /// `(anchor, target, direction)` — the term whose value keys the
    /// lookup, the term the looked-up neighbours match or bind, and the
    /// key's direction. `None` for an index scan.
    pub fn anchoring(&self) -> Option<(Term, Term, Dir)> {
        let p = &self.pattern;
        match self.mode {
            StepMode::FromSubject => Some((p.s, p.o, Dir::Out)),
            StepMode::FromObject => Some((p.o, p.s, Dir::In)),
            StepMode::IndexScan => None,
        }
    }

    /// The subjects an index scan expands for `row`, out of the sorted,
    /// duplicate-free enumeration `subjects`, and the subject variable to
    /// bind. A subject the row already binds (or a constant) keeps only
    /// itself — found by bisection, not by walking the list — and binds
    /// nothing; `None` when it is not enumerated (the row drops). An
    /// unbound subject variable takes every enumerated value.
    pub fn scan_candidates<'s>(
        &self,
        subjects: &'s [Vid],
        row: &[Vid],
    ) -> Option<(&'s [Vid], Option<u8>)> {
        let bound = match self.pattern.s {
            Term::Var(v) if row[v as usize] == UNBOUND => return Some((subjects, Some(v))),
            Term::Var(v) => row[v as usize],
            Term::Const(c) => c,
        };
        let i = subjects.binary_search(&bound).ok()?;
        Some((&subjects[i..=i], None))
    }
}

/// An ordered graph-exploration plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// Steps in execution order.
    pub steps: Vec<Step>,
}

impl Plan {
    /// Whether any step requires an index scan (non-selective start).
    pub fn has_index_scan(&self) -> bool {
        self.steps.iter().any(|s| s.mode == StepMode::IndexScan)
    }

    /// The plan's modeled cost: the sum of per-step cardinality
    /// estimates, i.e. the number of index-edge traversals the planner
    /// expects execution to perform. Nothing picks a plan or an execution
    /// mode by it; the planner's permutation-invariance property test
    /// compares it.
    pub fn cost(&self) -> u64 {
        self.steps
            .iter()
            .fold(0u64, |acc, s| acc.saturating_add(s.estimate as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::GraphName;
    use wukong_rdf::Pid;

    fn step(graph: GraphName, estimate: usize) -> Step {
        Step {
            pattern: TriplePattern {
                s: Term::Const(Vid(1)),
                p: Pid(1),
                o: Term::Var(0),
                graph,
            },
            mode: StepMode::FromSubject,
            estimate,
        }
    }

    #[test]
    fn cost_sums_step_estimates_saturating() {
        let plan = Plan {
            steps: vec![
                step(GraphName::Stored, 3),
                step(GraphName::Stored, 40),
                step(GraphName::Stored, 500),
            ],
        };
        assert_eq!(plan.cost(), 543);
        let huge = Plan {
            steps: vec![
                step(GraphName::Stored, usize::MAX),
                step(GraphName::Stored, usize::MAX),
            ],
        };
        assert_eq!(huge.cost(), u64::MAX);
    }
}
