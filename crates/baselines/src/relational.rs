//! A windowed relational stream processor (Esper/Storm/Heron essence).
//!
//! The composite baselines process streaming data the way the original
//! systems do: each stream keeps a time-ordered tuple buffer; a triple
//! pattern becomes a full scan over the window producing a *relation*;
//! multi-pattern clauses become hash joins between relations. There is no
//! graph index — exactly the property that makes highly-linked data
//! expensive on relational engines (§2.2, "Join Bomb").

use std::collections::{HashMap, VecDeque};
use wukong_query::ast::{Term, TriplePattern};
use wukong_rdf::{Timestamp, Triple, Vid};

/// Per-tuple engine overhead, modelling the framework cost (JVM tuple
/// wrapping, queue hops, task dispatch) that dominates real deployments.
///
/// Calibration: Fig. 4 shows Storm spending ≈ 2.9 ms on a 831-tuple
/// selection (≈ 3.5 µs/tuple); Heron improves on Storm roughly 2-3×
/// (Table 4 L1/L4); CSPARQL-engine executes hundreds of times slower than
/// Storm on the same windows (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcessorProfile {
    /// Engine name for reports.
    pub name: &'static str,
    /// Overhead per tuple touched by an operator, nanoseconds.
    pub per_tuple_ns: u64,
    /// Fixed overhead per operator (bolt) invocation, nanoseconds.
    pub per_op_ns: u64,
}

impl ProcessorProfile {
    /// Apache-Storm-like costs.
    pub fn storm() -> Self {
        ProcessorProfile {
            name: "Storm",
            per_tuple_ns: 3_000,
            per_op_ns: 50_000,
        }
    }

    /// Twitter-Heron-like costs (leaner tuple path than Storm).
    pub fn heron() -> Self {
        ProcessorProfile {
            name: "Heron",
            per_tuple_ns: 1_200,
            per_op_ns: 30_000,
        }
    }

    /// CSPARQL-engine-like costs (Esper interpretation + Jena bridging).
    pub fn csparql() -> Self {
        ProcessorProfile {
            name: "CSPARQL",
            per_tuple_ns: 120_000,
            per_op_ns: 2_000_000,
        }
    }

    /// Charge for an operator touching `tuples` tuples.
    pub(crate) fn op_cost_ns(&self, tuples: usize) -> u64 {
        self.per_op_ns + self.per_tuple_ns * tuples as u64
    }
}

/// A sliding-window tuple buffer for one stream: it holds the widest
/// window read from it, once one is ([`WindowBuffer::widen`]), and
/// everything until then.
#[derive(Debug, Default)]
pub struct WindowBuffer {
    tuples: VecDeque<(Timestamp, Triple)>,
    widest_range: Option<u64>,
}

impl WindowBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Widens the buffer to hold windows of `range_ms` (a query reading
    /// the stream registered).
    pub(crate) fn widen(&mut self, range_ms: u64) {
        self.widest_range = Some(self.widest_range.map_or(range_ms, |w| w.max(range_ms)));
    }

    /// Appends a tuple (timestamps non-decreasing) and evicts those no
    /// window ending at `ts` or later can hold: older than the widest
    /// range.
    pub fn push(&mut self, ts: Timestamp, t: Triple) {
        debug_assert!(
            self.tuples.back().map(|(b, _)| *b <= ts).unwrap_or(true),
            "stream tuples must arrive in time order"
        );
        self.tuples.push_back((ts, t));
        if let Some(range) = self.widest_range {
            let lo = (ts + 1).saturating_sub(range);
            while self.tuples.front().is_some_and(|&(t, _)| t < lo) {
                self.tuples.pop_front();
            }
        }
    }

    /// Number of buffered tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Every held tuple, oldest first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &(Timestamp, Triple)> {
        self.tuples.iter()
    }

    /// Visits tuples with timestamps in `[lo, hi]`.
    pub(crate) fn for_each_in(&self, lo: Timestamp, hi: Timestamp, mut f: impl FnMut(&Triple)) {
        let start = self.tuples.partition_point(|(ts, _)| *ts < lo);
        for (ts, t) in self.tuples.iter().skip(start) {
            if *ts > hi {
                break;
            }
            f(t);
        }
    }
}

/// A relation: named columns (query variable IDs) and rows of IDs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relation {
    /// The variable bound by each column.
    pub vars: Vec<u8>,
    /// The rows.
    pub rows: Vec<Vec<Vid>>,
}

impl Relation {
    /// The unit relation (no columns, one row) — join identity.
    pub fn unit() -> Self {
        Relation {
            vars: Vec::new(),
            rows: vec![Vec::new()],
        }
    }

    /// An empty relation over the given columns.
    pub fn empty(vars: Vec<u8>) -> Self {
        Relation {
            vars,
            rows: Vec::new(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Wire size when crossing a system boundary.
    pub fn wire_bytes(&self) -> usize {
        self.rows.len() * self.vars.len().max(1) * std::mem::size_of::<Vid>()
    }
}

/// Scans `triples` with `pattern`, producing the matching relation.
///
/// Constants filter; variables project. A pattern with a repeated
/// variable (`?X p ?X`) keeps only rows where both positions agree.
pub fn scan_pattern<'a>(
    triples: impl Iterator<Item = &'a Triple>,
    pattern: &TriplePattern,
) -> Relation {
    let mut vars = Vec::new();
    if let Term::Var(v) = pattern.s {
        vars.push(v);
    }
    if let Term::Var(v) = pattern.o {
        if !vars.contains(&v) {
            vars.push(v);
        }
    }
    let mut rel = Relation::empty(vars);
    for t in triples {
        if t.p != pattern.p {
            continue;
        }
        if let Term::Const(c) = pattern.s {
            if t.s != c {
                continue;
            }
        }
        if let Term::Const(c) = pattern.o {
            if t.o != c {
                continue;
            }
        }
        if let (Term::Var(a), Term::Var(b)) = (pattern.s, pattern.o) {
            if a == b && t.s != t.o {
                continue;
            }
        }
        let mut row = Vec::with_capacity(rel.vars.len());
        for &v in &rel.vars {
            let val = match (pattern.s, pattern.o) {
                (Term::Var(a), _) if a == v => t.s,
                (_, Term::Var(b)) if b == v => t.o,
                _ => unreachable!("column var comes from the pattern"),
            };
            row.push(val);
        }
        rel.rows.push(row);
    }
    rel
}

/// Hash-joins two relations on their shared variables (cartesian product
/// when none are shared — the "join bomb" case is real here).
pub fn hash_join(a: &Relation, b: &Relation) -> Relation {
    let shared: Vec<u8> = a
        .vars
        .iter()
        .copied()
        .filter(|v| b.vars.contains(v))
        .collect();
    let mut out_vars = a.vars.clone();
    for &v in &b.vars {
        if !out_vars.contains(&v) {
            out_vars.push(v);
        }
    }
    let b_extra: Vec<usize> = b
        .vars
        .iter()
        .enumerate()
        .filter(|(_, v)| !a.vars.contains(v))
        .map(|(i, _)| i)
        .collect();

    let key_of = |vars: &[u8], row: &[Vid]| -> Vec<Vid> {
        shared
            .iter()
            .map(|v| row[vars.iter().position(|x| x == v).expect("shared var")])
            .collect()
    };

    // Build on the smaller side.
    let mut table: HashMap<Vec<Vid>, Vec<&Vec<Vid>>> = HashMap::new();
    for row in &b.rows {
        table.entry(key_of(&b.vars, row)).or_default().push(row);
    }

    let mut out = Relation::empty(out_vars);
    for arow in &a.rows {
        if let Some(matches) = table.get(&key_of(&a.vars, arow)) {
            for brow in matches {
                let mut row = arow.clone();
                for &i in &b_extra {
                    row.push(brow[i]);
                }
                out.rows.push(row);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wukong_query::GraphName;
    use wukong_rdf::Pid;

    fn t(s: u64, p: u64, o: u64) -> Triple {
        Triple::new(Vid(s), Pid(p), Vid(o))
    }

    fn pat(s: Term, p: u64, o: Term) -> TriplePattern {
        TriplePattern {
            s,
            p: Pid(p),
            o,
            graph: GraphName::Stored,
        }
    }

    #[test]
    fn scan_filters_and_projects() {
        let data = [t(1, 4, 10), t(1, 4, 11), t(2, 4, 12), t(1, 5, 13)];
        let rel = scan_pattern(data.iter(), &pat(Term::Const(Vid(1)), 4, Term::Var(0)));
        assert_eq!(rel.vars, vec![0]);
        assert_eq!(rel.rows, vec![vec![Vid(10)], vec![Vid(11)]]);
    }

    #[test]
    fn scan_with_two_vars() {
        let data = [t(1, 4, 10), t(2, 4, 12)];
        let rel = scan_pattern(data.iter(), &pat(Term::Var(0), 4, Term::Var(1)));
        assert_eq!(rel.len(), 2);
        assert_eq!(rel.vars, vec![0, 1]);
    }

    #[test]
    fn repeated_var_requires_equality() {
        let data = [t(1, 4, 1), t(1, 4, 2)];
        let rel = scan_pattern(data.iter(), &pat(Term::Var(0), 4, Term::Var(0)));
        assert_eq!(rel.rows, vec![vec![Vid(1)]]);
    }

    #[test]
    fn join_on_shared_var() {
        // follows(X, Y) ⋈ posts(Y, Z)
        let follows = Relation {
            vars: vec![0, 1],
            rows: vec![vec![Vid(1), Vid(2)], vec![Vid(3), Vid(2)]],
        };
        let posts = Relation {
            vars: vec![1, 2],
            rows: vec![vec![Vid(2), Vid(9)], vec![Vid(4), Vid(8)]],
        };
        let joined = hash_join(&follows, &posts);
        assert_eq!(joined.vars, vec![0, 1, 2]);
        assert_eq!(joined.len(), 2);
        assert!(joined.rows.contains(&vec![Vid(1), Vid(2), Vid(9)]));
    }

    #[test]
    fn join_without_shared_vars_is_cartesian() {
        let a = Relation {
            vars: vec![0],
            rows: vec![vec![Vid(1)], vec![Vid(2)]],
        };
        let b = Relation {
            vars: vec![1],
            rows: vec![vec![Vid(3)], vec![Vid(4)], vec![Vid(5)]],
        };
        assert_eq!(hash_join(&a, &b).len(), 6);
    }

    #[test]
    fn unit_is_join_identity() {
        let a = Relation {
            vars: vec![0],
            rows: vec![vec![Vid(1)]],
        };
        let j = hash_join(&Relation::unit(), &a);
        assert_eq!(j.len(), 1);
        assert_eq!(j.vars, vec![0]);
    }

    #[test]
    fn window_buffer_range() {
        let mut w = WindowBuffer::new();
        for ts in [100u64, 200, 300] {
            w.push(ts, t(1, 2, ts));
        }
        let mut seen = Vec::new();
        w.for_each_in(150, 300, |tr| seen.push(tr.o));
        assert_eq!(seen, vec![Vid(200), Vid(300)]);
    }

    #[test]
    fn profiles_are_ordered_by_overhead() {
        assert!(ProcessorProfile::heron().per_tuple_ns < ProcessorProfile::storm().per_tuple_ns);
        assert!(ProcessorProfile::storm().per_tuple_ns < ProcessorProfile::csparql().per_tuple_ns);
        assert_eq!(ProcessorProfile::storm().op_cost_ns(0), 50_000);
    }
}
