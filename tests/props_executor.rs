//! Cross-paradigm oracle: the graph-exploration executor must compute
//! exactly the relational semantics of basic graph patterns.
//!
//! For random graphs and random conjunctive queries, the result of
//! Wukong's plan-ordered graph exploration is compared against a
//! reference evaluation built from full scans + hash joins (the
//! relational module the baselines use). Both use bag semantics, so the
//! sorted row multisets must be identical — whatever join order the
//! planner picks.

use proptest::prelude::*;
use wukong_baselines::relational::{hash_join, scan_pattern, Relation};
use wukong_net::TaskTimer;
use wukong_query::ast::{GraphName, Query, QueryKind, Term, TriplePattern};
use wukong_query::exec::{ExecContext, GraphAccess, NoLiterals, PatternSource};
use wukong_query::{execute, plan_query};
use wukong_rdf::{Key, Pid, Triple, Vid};
use wukong_store::{BaseStore, SnapshotId};

struct LocalAccess<'a>(&'a BaseStore);

impl GraphAccess for LocalAccess<'_> {
    fn neighbors(
        &self,
        key: Key,
        _src: PatternSource,
        ctx: &ExecContext,
        _timer: &mut TaskTimer,
        out: &mut Vec<Vid>,
    ) {
        self.0.for_each_neighbor(key, ctx.sn, |v| out.push(v));
    }

    fn estimate(&self, key: Key, _src: PatternSource, ctx: &ExecContext) -> usize {
        self.0.len_at(key, ctx.sn)
    }
}

fn arb_triple() -> impl Strategy<Value = Triple> {
    // A small, dense domain so patterns actually join.
    (1..12u64, 1..4u64, 1..12u64).prop_map(|(s, p, o)| Triple::new(Vid(s), Pid(p), Vid(o)))
}

/// A term referencing one of 4 variables or one of the domain constants.
fn arb_term() -> impl Strategy<Value = Term> {
    prop_oneof![
        (0..4u8).prop_map(Term::Var),
        (1..12u64).prop_map(|v| Term::Const(Vid(v))),
    ]
}

fn arb_pattern() -> impl Strategy<Value = TriplePattern> {
    (arb_term(), 1..4u64, arb_term()).prop_map(|(s, p, o)| TriplePattern {
        s,
        p: Pid(p),
        o,
        graph: GraphName::Stored,
    })
}

/// Reference evaluation: scan each pattern over the full triple list,
/// join left-to-right, project var 0..k in order.
fn reference(triples: &[Triple], patterns: &[TriplePattern], select: &[u8]) -> Vec<Vec<Vid>> {
    let mut acc = Relation::unit();
    for p in patterns {
        let rel = scan_pattern(triples.iter(), p);
        acc = hash_join(&acc, &rel);
    }
    let mut rows: Vec<Vec<Vid>> = acc
        .rows
        .iter()
        .map(|row| {
            select
                .iter()
                .map(|v| {
                    acc.vars
                        .iter()
                        .position(|x| x == v)
                        .map(|c| row[c])
                        .unwrap_or(Vid(u64::MAX))
                })
                .collect()
        })
        .collect();
    rows.sort();
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn graph_exploration_matches_relational_semantics(
        triples in proptest::collection::vec(arb_triple(), 1..40),
        patterns in proptest::collection::vec(arb_pattern(), 1..4),
    ) {
        // Select every variable the patterns mention, in id order.
        let mut vars: Vec<u8> = patterns
            .iter()
            .flat_map(|p| [p.s, p.o])
            .filter_map(|t| t.var())
            .collect();
        vars.sort_unstable();
        vars.dedup();
        prop_assume!(!vars.is_empty());

        let mut store = BaseStore::new();
        for &t in &triples {
            store.insert_base(t);
        }

        let query = Query {
            name: None,
            kind: QueryKind::OneShot,
            distinct: false,
            limit: None,
            construct: Vec::new(),
            select: vars.clone(),
            optional: Vec::new(),
            union_groups: Vec::new(),
            not_exists: Vec::new(),
            order_by: Vec::new(),
            group_by: Vec::new(),
            aggregates: Vec::new(),
            streams: Vec::new(),
            patterns: patterns.clone(),
            filters: Vec::new(),
            var_count: 4,
            var_names: (0..4).map(|i| format!("v{i}")).collect(),
            select_names: vars.iter().map(|v| format!("v{v}")).collect(),
        };

        let access = LocalAccess(&store);
        let ctx = ExecContext::stored(SnapshotId::BASE);
        let plan = plan_query(&query, &access, &ctx);
        let mut timer = TaskTimer::start();
        let rs = execute(&query, &plan, &ctx, &access, &NoLiterals, &mut timer);
        let mut got = rs.rows;
        got.sort();

        let expect = reference(&triples, &patterns, &vars);
        prop_assert_eq!(got, expect);
    }

    /// DISTINCT and LIMIT keep the same semantics as applying them to the
    /// reference result.
    #[test]
    fn distinct_limit_match_reference(
        triples in proptest::collection::vec(arb_triple(), 1..30),
        patterns in proptest::collection::vec(arb_pattern(), 1..3),
        limit in 0..8usize,
    ) {
        let mut vars: Vec<u8> = patterns
            .iter()
            .flat_map(|p| [p.s, p.o])
            .filter_map(|t| t.var())
            .collect();
        vars.sort_unstable();
        vars.dedup();
        prop_assume!(!vars.is_empty());

        let mut store = BaseStore::new();
        for &t in &triples {
            store.insert_base(t);
        }
        let query = Query {
            name: None,
            kind: QueryKind::OneShot,
            distinct: true,
            limit: Some(limit),
            construct: Vec::new(),
            select: vars.clone(),
            optional: Vec::new(),
            union_groups: Vec::new(),
            not_exists: Vec::new(),
            order_by: Vec::new(),
            group_by: Vec::new(),
            aggregates: Vec::new(),
            streams: Vec::new(),
            patterns: patterns.clone(),
            filters: Vec::new(),
            var_count: 4,
            var_names: (0..4).map(|i| format!("v{i}")).collect(),
            select_names: vars.iter().map(|v| format!("v{v}")).collect(),
        };
        let access = LocalAccess(&store);
        let ctx = ExecContext::stored(SnapshotId::BASE);
        let plan = plan_query(&query, &access, &ctx);
        let mut timer = TaskTimer::start();
        let rs = execute(&query, &plan, &ctx, &access, &NoLiterals, &mut timer);

        let mut expect = reference(&triples, &patterns, &vars);
        expect.dedup();
        expect.truncate(limit);
        // DISTINCT output is sorted by construction in the executor.
        prop_assert_eq!(rs.rows, expect);
    }
}
