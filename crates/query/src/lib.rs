#![warn(missing_docs)]
//! SPARQL / C-SPARQL front end and graph-exploration execution.
//!
//! Wukong+S adopts the Continuous SPARQL (C-SPARQL) interface over the RDF
//! data model (§1, §5). This crate implements the slice of the language the
//! paper's workloads exercise:
//!
//! - one-shot `SELECT` queries over the stored graph;
//! - `REGISTER QUERY` continuous queries with per-stream windows
//!   (`FROM <stream> [RANGE ns STEP ms]`) and `GRAPH` clauses binding
//!   patterns to a stream or to the stored graph (Fig. 2);
//! - `FILTER` comparisons and `COUNT`/`SUM`/`AVG`/`MIN`/`MAX` aggregates
//!   (CityBench queries aggregate over sensor readings);
//! - `PREFIX` declarations, `# ` comments, `SELECT DISTINCT`,
//!   `OPTIONAL { … }` (left outer join), `UNION { … }` (alternation),
//!   `FILTER NOT EXISTS { … }` (negation), `GROUP BY` (per-group
//!   aggregates), `ORDER BY ?v / DESC(?v)`, `LIMIT n`, and
//!   `CONSTRUCT { … }` templates (the engine feeds their firings into
//!   derived streams — C-SPARQL's stream composition).
//!
//! Queries compile to *graph-exploration* plans ([`plan`]): an ordered
//! chain of expansion steps starting from a constant or index vertex,
//! exactly the execution style Wukong uses instead of relational joins
//! (§4.1). The [`planner`] orders patterns by estimated cardinality with
//! full knowledge of both streaming and stored data — the "global
//! semantics" advantage of the integrated design (§3). The [`executor`]
//! runs plans against any [`exec::GraphAccess`] implementation, which is
//! how the same code drives a single-node store, the distributed engine,
//! and the baselines.

pub mod adaptive;
pub mod ast;
pub mod bindings;
pub mod error;
pub mod exec;
pub mod executor;
pub mod incremental;
pub mod lexer;
pub mod parser;
pub mod plan;
pub mod planner;

pub use adaptive::{DriftPolicy, PlanCache, PlanFeedback};
pub use ast::{Aggregate, Filter, GraphName, Query, QueryKind, Term, TriplePattern, WindowSpec};
pub use bindings::BindingTable;
pub use error::QueryError;
pub use exec::{GraphAccess, LiteralResolver, PatternSource, TimedGraphAccess};
pub use executor::{
    execute, execute_step, execute_traced, execute_with_fanout, finalize, Degraded, Fork,
    ResultSet, StepScratch,
};
pub use incremental::{incrementalizable, DeltaState, DeltaStats};
pub use parser::parse_query;
pub use plan::{Plan, Step, StepMode};
pub use planner::{plan_patterns, plan_query};
