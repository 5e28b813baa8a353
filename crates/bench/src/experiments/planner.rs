//! Ablation: the value of global, cost-based planning (§2.3 Issue #2).

use crate::grid::{latency_grid, ls_classes, record, Arm, Contender, Grid, Sample};
use crate::run::{Run, Verdict};
use wukong_benchdata::lsbench;
use wukong_core::access::NodeAccess;
use wukong_core::{EngineConfig, WukongS};
use wukong_net::{NodeId, TaskTimer};
use wukong_query::exec::{ExecContext, PatternSource, StringLiteralResolver, WindowInstance};
use wukong_query::plan::Plan;
use wukong_query::{
    execute, parse_query, plan_patterns, plan_query, GraphAccess, Query, QueryError,
};
use wukong_rdf::{Key, StreamId, Timestamp, Vid};

/// One column of the ablation: the engine's own executor over plans made
/// either by the cost-based planner or in reversed textual order.
struct Planned<'a> {
    engine: &'a WukongS,
    reversed: bool,
    queries: Vec<(Query, ExecContext, Plan)>,
}

impl Contender for Planned<'_> {
    fn register(&mut self, text: &str) -> Result<usize, QueryError> {
        let engine = self.engine;
        let cluster = engine.cluster();
        let query = parse_query(engine.strings(), text)?;
        // The execution context the engine would use.
        let windows = query
            .streams
            .iter()
            .map(|(name, spec)| {
                let idx = cluster
                    .streams()
                    .iter()
                    .position(|s| s.schema.name == *name)
                    .expect("registered stream");
                let hi = engine.stable_ts(StreamId(idx as u16));
                WindowInstance {
                    stream: StreamId(idx as u16),
                    lo: hi.saturating_sub(spec.range_ms) + 1,
                    hi,
                }
            })
            .collect();
        let ctx = ExecContext {
            sn: engine.stable_sn(),
            windows,
        };
        let plan = if self.reversed {
            // Worst same-shape plan: reversed textual order, no estimates
            // (plan_patterns still picks a legal anchor per step).
            let mut reversed = query.patterns.clone();
            reversed.reverse();
            let bound = vec![false; query.var_count as usize];
            Plan {
                steps: plan_patterns(&reversed, &bound, &ConstOracle, &ctx).steps,
            }
        } else {
            plan_query(&query, &NodeAccess::new(cluster, NodeId(0)), &ctx)
        };
        self.queries.push((query, ctx, plan));
        Ok(self.queries.len() - 1)
    }

    fn sample(&self, id: usize, _now: Timestamp, runs: usize) -> Sample {
        let (query, ctx, plan) = &self.queries[id];
        let access = NodeAccess::new(self.engine.cluster(), NodeId(0));
        let lit = StringLiteralResolver(self.engine.strings());
        let rec = record(runs, || {
            let mut timer = TaskTimer::start();
            let _ = execute(query, plan, ctx, &access, &lit, &mut timer);
            timer.total_ms()
        });
        Sample::of(rec)
    }
}

/// An oracle with no information: every estimate is the same, so the
/// textual order wins.
struct ConstOracle;

impl GraphAccess for ConstOracle {
    fn neighbors(
        &self,
        _key: Key,
        _src: PatternSource,
        _ctx: &ExecContext,
        _timer: &mut TaskTimer,
        _out: &mut Vec<Vid>,
    ) {
    }

    fn estimate(&self, _key: Key, _src: PatternSource, _ctx: &ExecContext) -> usize {
        1
    }
}

/// The composite design's split plans are one of the paper's three
/// composite deficiencies. This experiment quantifies plan quality on the
/// *integrated* engine itself: each LSBench class runs with (a) the
/// cost-based greedy plan and (b) the worst same-shape plan (pattern
/// order reversed, anchors chosen without estimates), showing how much
/// early pruning matters even without a system boundary.
pub(crate) fn exp_planner(run: &mut Run) -> Verdict {
    let w = run.ls_workload("");
    let runs = run.scale.runs().min(30);
    let engine = w.engine(EngineConfig::single_node());
    let column = |reversed| Planned {
        engine: &engine,
        reversed,
        queries: Vec::new(),
    };
    latency_grid(
        run,
        &Grid::new(
            "Planner ablation: cost-based vs reversed pattern order (ms)",
            &ls_classes(&w, 1..=lsbench::CONTINUOUS_CLASSES),
            w.duration,
        )
        .with_ratio("penalty", 1, 0),
        &mut [
            Arm::new("planned", &mut column(false), runs).recorded_as("planned"),
            Arm::new("reversed", &mut column(true), runs).recorded_as("reversed"),
        ],
    );
    run.json.engine(&engine);
    Verdict::default()
}
