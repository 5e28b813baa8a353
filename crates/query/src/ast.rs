//! Abstract syntax of the supported C-SPARQL subset.

use crate::bindings::UNBOUND;
use crate::exec::LiteralResolver;
use std::sync::Arc;
use wukong_rdf::{Pid, Vid};

/// A variable's index within a query (dense, assigned in first-use order).
pub type VarId = u8;

/// Subject/object position of a triple pattern: constant or variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Term {
    /// A constant entity, already resolved through the string server.
    Const(Vid),
    /// A variable.
    Var(VarId),
}

impl Term {
    /// The variable, if this term is one.
    pub fn var(self) -> Option<VarId> {
        match self {
            Term::Var(v) => Some(v),
            Term::Const(_) => None,
        }
    }
}

/// Which graph a pattern reads (the `GRAPH` clause of Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GraphName {
    /// The stored (persistent) graph — the default.
    Stored,
    /// A registered stream, by its dense index in [`Query::streams`].
    Stream(usize),
}

/// One triple pattern of the `WHERE` clause.
///
/// Predicates are constant in every LSBench and CityBench query; variable
/// predicates are rejected at parse time (the paper's graph-exploration
/// strategy keys lookups by `[vid|pid|dir]`, which needs a concrete
/// predicate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TriplePattern {
    /// Subject term.
    pub s: Term,
    /// Predicate (constant).
    pub p: Pid,
    /// Object term.
    pub o: Term,
    /// Source graph.
    pub graph: GraphName,
}

/// A stream window: `[RANGE range_ms STEP step_ms]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSpec {
    /// Window length in milliseconds.
    pub range_ms: u64,
    /// Slide step in milliseconds.
    pub step_ms: u64,
}

/// Comparison operator in a `FILTER`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `=`
    Eq,
    /// `!=`
    Ne,
}

/// A numeric filter `FILTER(?v OP constant)`.
///
/// The variable's binding is interpreted as a numeric literal through the
/// engine's [`crate::exec::LiteralResolver`]; non-numeric bindings fail
/// the filter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Filter {
    /// The filtered variable.
    pub var: VarId,
    /// The comparison operator.
    pub op: CmpOp,
    /// The constant right-hand side.
    pub value: f64,
}

impl Filter {
    /// Applies the filter to a resolved numeric value.
    pub fn accepts(&self, v: f64) -> bool {
        match self.op {
            CmpOp::Lt => v < self.value,
            CmpOp::Le => v <= self.value,
            CmpOp::Gt => v > self.value,
            CmpOp::Ge => v >= self.value,
            CmpOp::Eq => v == self.value,
            CmpOp::Ne => v != self.value,
        }
    }

    /// Whether `row` passes the filter: the filtered variable is bound, its
    /// value is numeric, and the number is accepted. The one acceptance
    /// rule — a filter applied once its variable binds, one never applied
    /// by the step loop, and the maintained path's filter on fresh rows
    /// all call it.
    pub fn keeps(&self, row: &[Vid], lit: &impl LiteralResolver) -> bool {
        let v = row[self.var as usize];
        v != UNBOUND && lit.numeric(v).is_some_and(|x| self.accepts(x))
    }
}

/// Aggregate function over a selected variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// Row count.
    Count,
    /// Numeric sum.
    Sum,
    /// Numeric average.
    Avg,
    /// Numeric minimum.
    Min,
    /// Numeric maximum.
    Max,
}

/// One aggregate in the `SELECT` clause, e.g. `AVG(?density)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Aggregate {
    /// The function.
    pub func: AggFunc,
    /// The aggregated variable.
    pub var: VarId,
}

/// One-shot vs continuous execution (§1 footnote 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// Runs immediately, once, over the stored graph at a stable snapshot.
    OneShot,
    /// Registered; re-executed whenever its windows advance.
    Continuous,
}

/// A `CONSTRUCT` template triple: instantiate per result row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConstructTemplate {
    /// Subject term.
    pub s: Term,
    /// Predicate (constant).
    pub p: Pid,
    /// Object term.
    pub o: Term,
}

/// A parsed, name-resolved query.
#[derive(Debug, Clone)]
pub struct Query {
    /// Optional `REGISTER QUERY <name>` label.
    pub name: Option<String>,
    /// One-shot or continuous.
    pub kind: QueryKind,
    /// Whether `SELECT DISTINCT` deduplicates the projected rows.
    pub distinct: bool,
    /// `LIMIT n`, if present.
    pub limit: Option<usize>,
    /// `CONSTRUCT` templates; non-empty makes this a construct query
    /// whose firings emit instantiated triples (C-SPARQL's derived
    /// streams). `select` then carries the template's variables.
    pub construct: Vec<ConstructTemplate>,
    /// Projected variables, in `SELECT` order (empty if aggregates only).
    pub select: Vec<VarId>,
    /// Aggregates in the `SELECT` clause.
    pub aggregates: Vec<Aggregate>,
    /// Streams referenced by `FROM <stream> [RANGE … STEP …]`, in
    /// declaration order; `GraphName::Stream(i)` indexes this list.
    pub streams: Vec<(String, WindowSpec)>,
    /// The `WHERE` patterns.
    pub patterns: Vec<TriplePattern>,
    /// `OPTIONAL { … }` patterns: a left outer join against the required
    /// patterns — rows keep their bindings (optional variables unbound)
    /// when the block does not match.
    pub optional: Vec<TriplePattern>,
    /// `UNION { … }` alternative pattern groups: each group is evaluated
    /// independently (joined with the required patterns) and the result
    /// is the bag union over all groups. Empty = no UNION.
    pub union_groups: Vec<Vec<TriplePattern>>,
    /// `FILTER NOT EXISTS { … }` pattern groups: a row survives only if
    /// the group has no match given the row's bindings.
    pub not_exists: Vec<Vec<TriplePattern>>,
    /// `ORDER BY` keys: `(variable, descending)` in priority order.
    pub order_by: Vec<(VarId, bool)>,
    /// `GROUP BY` variables (aggregates compute per group when present).
    pub group_by: Vec<VarId>,
    /// `FILTER` clauses.
    pub filters: Vec<Filter>,
    /// Total number of distinct variables.
    pub var_count: u8,
    /// Variable names by [`VarId`] (for result printing).
    pub var_names: Vec<String>,
    /// The names of `select`, in `SELECT` order (derived from
    /// `var_names` by the parser): what every result of this query
    /// carries as [`ResultSet::var_names`], shared rather than copied per
    /// execution.
    ///
    /// [`ResultSet::var_names`]: crate::ResultSet::var_names
    pub select_names: Arc<[String]>,
}

impl Query {
    /// Whether any pattern reads a stream.
    pub fn touches_stream(&self) -> bool {
        self.patterns
            .iter()
            .any(|p| matches!(p.graph, GraphName::Stream(_)))
    }

    /// The widest window range over all streams (drives GC horizons).
    pub fn max_range_ms(&self) -> u64 {
        self.streams
            .iter()
            .map(|(_, w)| w.range_ms)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_semantics() {
        let f = Filter {
            var: 0,
            op: CmpOp::Ge,
            value: 10.0,
        };
        assert!(f.accepts(10.0));
        assert!(f.accepts(11.0));
        assert!(!f.accepts(9.9));
    }

    #[test]
    fn term_var_accessor() {
        assert_eq!(Term::Var(3).var(), Some(3));
        assert_eq!(Term::Const(Vid(1)).var(), None);
    }
}
