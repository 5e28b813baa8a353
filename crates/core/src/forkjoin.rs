//! Fork-join distributed execution (§5, §6.2).
//!
//! Non-selective queries spread their work: at every exploration step the
//! binding table partitions by the owner node of each row's anchor
//! vertex, the partitions execute in parallel on their owning nodes (no
//! remote reads inside a partition), and results join back at the home
//! node. Each hop with a non-empty remote partition charges a fork
//! message carrying the rows and a join message carrying the results —
//! this synchronisation is why fork-join trails in-place execution for
//! selective queries (Table 5) yet wins for queries that scan large
//! portions of the stored graph (Fig. 12's group II speedup).

use crate::access::NodeAccess;
use crate::cluster::Cluster;
use std::time::Duration;
use wukong_net::{Endpoint, NodeId, TaskTimer};
use wukong_obs::{Stage, StageTrace};
use wukong_query::ast::Term;
use wukong_query::bindings::{BindingTable, UNBOUND};
use wukong_query::exec::{ExecContext, GraphAccess, LiteralResolver};
use wukong_query::plan::{Plan, Step, StepMode};
use wukong_query::{apply_ready_filters, execute_step, finalize, Query, ResultSet};
use wukong_rdf::{Dir, Key, Vid};

fn anchor_vid(step: &Step, row: &[Vid]) -> Option<Vid> {
    let term = match step.mode {
        StepMode::FromSubject => step.pattern.s,
        StepMode::FromObject => step.pattern.o,
        StepMode::IndexScan => return None,
    };
    match term {
        Term::Const(c) => Some(c),
        Term::Var(v) => {
            let val = row[v as usize];
            (val != UNBOUND).then_some(val)
        }
    }
}

fn anchor_key(step: &Step, v: Vid) -> Key {
    match step.mode {
        StepMode::FromSubject => Key::new(v, step.pattern.p, Dir::Out),
        StepMode::FromObject => Key::new(v, step.pattern.p, Dir::In),
        StepMode::IndexScan => unreachable!("index scans are rewritten before partitioning"),
    }
}

/// What failed during one fork-join execution (graceful degradation).
#[derive(Debug, Default, Clone)]
pub struct FaultTally {
    /// Nodes whose partitions never answered within the RPC retry
    /// budget; their rows are missing from the result.
    pub unreachable: Vec<u16>,
}

/// Real-time wait per RPC attempt before declaring a timeout. (These five
/// constants are the whole RPC failure policy; DESIGN.md §8 describes the
/// protocol they parameterise.)
const RPC_DEADLINE_MS: u64 = 2;
/// Virtual nanoseconds charged for each timed-out attempt (the modelled
/// deadline; the real wait itself is excluded from latency).
const RPC_DEADLINE_CHARGE_NS: u64 = 500_000;
/// Retries after the first timed-out attempt before the shard is declared
/// unreachable and the query degrades to partial results.
const RPC_MAX_RETRIES: u32 = 3;
/// First retry's backoff charge, doubled per retry.
const RPC_BACKOFF_BASE_NS: u64 = 100_000;
/// Cap on the per-retry backoff charge.
const RPC_BACKOFF_CAP_NS: u64 = 1_600_000;

/// The capped exponential backoff charged before retry `attempt`
/// (1-based).
pub(crate) fn backoff_ns(attempt: u32) -> u64 {
    let shifted = RPC_BACKOFF_BASE_NS.saturating_mul(1u64 << attempt.saturating_sub(1).min(32));
    shifted.min(RPC_BACKOFF_CAP_NS)
}

/// Runs one remote partition as an RPC with per-attempt deadlines and
/// capped exponential backoff (fault-injection mode only). The request
/// and reply travel through real fabric endpoints, so the installed
/// fault plan can drop, duplicate, or delay either side; a timed-out
/// attempt charges the modelled deadline instead of its real wait.
///
/// Returns the partition's result (or `None` once the retry budget is
/// exhausted — the shard is unreachable) and the hop cost either way: a
/// failed partition still spent its deadlines inside the parallel fork,
/// so its cost participates in the step's max-hop like any other.
#[allow(clippy::too_many_arguments)]
fn rpc_partition(
    step: &Step,
    part: &BindingTable,
    ctx: &ExecContext,
    cluster: &Cluster,
    home: NodeId,
    node: NodeId,
    cores: usize,
    eps: &[Endpoint<u64>],
    timer: &mut TaskTimer,
    sequential_real: &mut u64,
) -> (Option<BindingTable>, u64) {
    let fabric = cluster.fabric();
    let counters = cluster.obs().faults();
    let home_ep = &eps[home.idx()];
    let worker_ep = &eps[node.idx()];
    // Stale replies from an earlier partition's duplicated deliveries
    // must not satisfy this partition's wait.
    while home_ep.try_recv().is_some() {}

    let mut net_ns = 0u64;
    let mut result: Option<BindingTable> = None;
    let max_attempts = 1 + RPC_MAX_RETRIES;
    for attempt in 1..=max_attempts {
        if attempt > 1 {
            counters.inc_rpc_retry();
            net_ns += backoff_ns(attempt - 1);
        }
        if !fabric.is_up(node) {
            // A dead worker can never answer: charge the modelled
            // deadline without burning real wall-clock on the wait.
            counters.inc_rpc_timeout();
            net_ns += RPC_DEADLINE_CHARGE_NS;
            continue;
        }
        net_ns += home_ep.send(node, part.wire_bytes(), attempt as u64);
        // The worker drains its mailbox and answers every delivered
        // request copy; re-execution is idempotent, so duplicated
        // requests only cost (excluded) compute and an extra reply.
        while let Some(_req) = worker_ep.try_recv() {
            let access = NodeAccess::new(cluster, node);
            let started = std::time::Instant::now();
            let mut sub_timer = TaskTimer::start();
            let out = execute_step(step, part, ctx, &access, &mut sub_timer);
            let real = started.elapsed().as_nanos() as u64;
            *sequential_real += real;
            let c = cores.max(1).min(part.len().max(1)) as u64;
            let work_ns = (real + sub_timer.charged_ns()) / c;
            worker_ep.send(home, out.wire_bytes(), work_ns);
            result = Some(out);
        }
        let wait = std::time::Instant::now();
        match home_ep.recv_timeout(Duration::from_millis(RPC_DEADLINE_MS)) {
            Ok(env) => {
                timer.exclude(wait.elapsed().as_nanos() as u64);
                net_ns += env.charged_ns + env.payload;
                while home_ep.try_recv().is_some() {}
                let out = result.expect("a delivered reply implies an executed partition");
                return (Some(out), net_ns);
            }
            Err(_) => {
                // Request or reply lost: the real wait is bookkeeping
                // (the simulation delivers instantly or never), the
                // modelled deadline is the charged cost.
                timer.exclude(wait.elapsed().as_nanos() as u64);
                counters.inc_rpc_timeout();
                net_ns += RPC_DEADLINE_CHARGE_NS;
            }
        }
    }
    (None, net_ns)
}

/// Executes one anchored step with per-node partitioning and parallel
/// workers; returns the joined table. Under an installed fault plan,
/// remote partitions run as deadline-bounded RPCs (see
/// [`rpc_partition`]); unreachable shards land in `tally` and their rows
/// are omitted.
#[allow(clippy::too_many_arguments)]
fn partitioned_step(
    step: &Step,
    input: &BindingTable,
    ctx: &ExecContext,
    cluster: &Cluster,
    home: NodeId,
    cores: usize,
    timer: &mut TaskTimer,
    tally: &mut FaultTally,
) -> BindingTable {
    let nodes = cluster.nodes();
    let mut parts: Vec<BindingTable> = (0..nodes)
        .map(|_| BindingTable::empty(input.width()))
        .collect();
    for row in input.iter() {
        match anchor_vid(step, row) {
            Some(v) => parts[cluster.owner(anchor_key(step, v)).idx()].push_row(row),
            None => parts[home.idx()].push_row(row),
        }
    }

    let faulty = cluster.fabric().faults_enabled();
    let mut joined = BindingTable::empty(input.width());

    // Fork: run each non-empty partition on its owning node.
    //
    // Fault-free, the partitions execute on the home node's worker pool
    // (really concurrent when `worker_threads` > 1) and join back in
    // node order — the merge order, and therefore the result, is
    // identical for any pool width. Cost stays modelled either way: the
    // region's real time is excluded and the *maximum* per-partition
    // latency charged, since a real fork-join waits only for its slowest
    // partition.
    if !faulty {
        let work: Vec<(usize, &BindingTable)> = parts
            .iter()
            .enumerate()
            .filter(|(_, p)| !p.is_empty())
            .collect();
        let region = std::time::Instant::now();
        // Pool workers have their own thread-locals: capture the calling
        // thread's recorder context and re-install it inside each task so
        // per-partition events keep the firing's causal attribution.
        let trace_ctx = wukong_obs::trace::current();
        let executed = cluster.pool(home).map(work, |_, (n, part)| {
            let _scope = trace_ctx
                .as_ref()
                .map(|(rec, fid, bid)| wukong_obs::trace::install_recorder(rec, *fid, *bid));
            let node = NodeId(n as u16);
            let access = NodeAccess::new(cluster, node);
            let started = std::time::Instant::now();
            let mut sub_timer = TaskTimer::start();
            let out = execute_step(step, part, ctx, &access, &mut sub_timer);
            let real = started.elapsed().as_nanos() as u64;
            // A partition's rows split across the node's per-query worker
            // cores (§6.4); messaging is not divisible.
            let c = cores.max(1).min(part.len().max(1)) as u64;
            let mut hop = (real + sub_timer.charged_ns()) / c;
            if node != home {
                let mut hop_timer = TaskTimer::start();
                cluster
                    .fabric()
                    .charge_message(home, node, part.wire_bytes(), &mut hop_timer);
                cluster
                    .fabric()
                    .charge_message(node, home, out.wire_bytes(), &mut hop_timer);
                hop += hop_timer.charged_ns();
            }
            (out, hop)
        });
        let mut max_hop = 0u64;
        for (out, hop) in executed {
            max_hop = max_hop.max(hop);
            for row in out.iter() {
                joined.push_row(row);
            }
        }
        timer.exclude(region.elapsed().as_nanos() as u64);
        timer.charge(max_hop);
        return joined;
    }

    // Under an installed fault plan remote partitions go through the
    // deadline-bounded RPC path, which owns the outer timer (per-attempt
    // waits, exclusions) — they stay sequential.
    let endpoints = cluster.fabric().endpoints::<u64>();
    let mut max_hop = 0u64;
    let mut sequential_real = 0u64;
    for (n, part) in parts.iter().enumerate() {
        if part.is_empty() {
            continue;
        }
        let node = NodeId(n as u16);
        if node != home {
            let (out, hop) = rpc_partition(
                step,
                part,
                ctx,
                cluster,
                home,
                node,
                cores,
                &endpoints,
                timer,
                &mut sequential_real,
            );
            max_hop = max_hop.max(hop);
            match out {
                Some(out) => {
                    for row in out.iter() {
                        joined.push_row(row);
                    }
                }
                None => tally.unreachable.push(n as u16),
            }
            continue;
        }
        let access = NodeAccess::new(cluster, node);
        let started = std::time::Instant::now();
        let mut sub_timer = TaskTimer::start();
        let out = execute_step(step, part, ctx, &access, &mut sub_timer);
        let real = started.elapsed().as_nanos() as u64;
        sequential_real += real;
        let c = cores.max(1).min(part.len().max(1)) as u64;
        let hop = (real + sub_timer.charged_ns()) / c;
        max_hop = max_hop.max(hop);
        for row in out.iter() {
            joined.push_row(row);
        }
    }
    timer.exclude(sequential_real);
    timer.charge(max_hop);
    joined
}

/// Rewrites an index-scan step: fetch the subject list (from the index
/// vertex's owner), bind it into the table, and return the residual
/// subject-anchored step.
fn expand_index_scan(
    step: &Step,
    input: &BindingTable,
    ctx: &ExecContext,
    cluster: &Cluster,
    home: NodeId,
    timer: &mut TaskTimer,
) -> (BindingTable, Step) {
    let access = NodeAccess::new(cluster, home);
    let mut subjects = Vec::new();
    let t0 = std::time::Instant::now();
    access.neighbors(
        Key::index(step.pattern.p, Dir::Out),
        step.pattern.graph,
        ctx,
        timer,
        &mut subjects,
    );
    // Fork-join distributes the enumeration itself: every node scans its
    // slice of the (stream or predicate) index in parallel and ships its
    // subject list home. The scan above ran sequentially on this host, so
    // exclude its real time and charge the parallel cost: 1/nodes of the
    // scan plus one collection message per remote node.
    let scan_ns = t0.elapsed().as_nanos() as u64;
    timer.exclude(scan_ns);
    let nodes = cluster.nodes() as u64;
    let mut hop = TaskTimer::start();
    for m in 0..cluster.nodes() {
        let node = NodeId(m as u16);
        if node != home {
            cluster.fabric().charge_message(
                node,
                home,
                subjects.len() * std::mem::size_of::<Vid>() / cluster.nodes(),
                &mut hop,
            );
        }
    }
    timer.charge(scan_ns / nodes + hop.charged_ns() / nodes.max(1));
    // The index enumerates *candidate* subjects; window-scoped stream
    // indexes may surface a vertex once per touched batch, so dedup (the
    // in-place executor does the same).
    subjects.sort_unstable();
    subjects.dedup();
    let mut bound = BindingTable::empty(input.width());
    let s_var = step.pattern.s.var();
    for row in input.iter() {
        for &s in &subjects {
            match s_var {
                Some(v) if row[v as usize] == UNBOUND => bound.push_bound(row, v, s),
                Some(v) if row[v as usize] == s => bound.push_row(row),
                Some(_) => {}
                // Constant subjects never plan as index scans.
                None => bound.push_row(row),
            }
        }
    }
    (
        bound,
        Step {
            pattern: step.pattern,
            mode: StepMode::FromSubject,
            estimate: step.estimate,
        },
    )
}

/// Executes `plan` in fork-join mode from `home` with `cores` worker
/// cores serving the query on each node (§6.4's latency/resource knob).
#[allow(clippy::too_many_arguments)]
pub fn execute_forkjoin(
    query: &Query,
    plan: &Plan,
    ctx: &ExecContext,
    cluster: &Cluster,
    home: NodeId,
    cores: usize,
    lit: &impl LiteralResolver,
    timer: &mut TaskTimer,
) -> ResultSet {
    let mut trace = StageTrace::new();
    execute_forkjoin_traced(
        query, plan, ctx, cluster, home, cores, lit, timer, &mut trace,
    )
}

/// [`execute_forkjoin`] with staged latency attribution. The whole
/// matching phase lands in [`Stage::PatternMatch`]; within it, the
/// partitioned step loop is additionally attributed to
/// [`Stage::ForkJoinFanout`] and the home-node UNION / NOT EXISTS /
/// OPTIONAL joining to [`Stage::ForkJoinMerge`] (both overlap
/// `PatternMatch` — attribution, not additional latency). Projection
/// lands in [`Stage::ResultEmit`].
#[allow(clippy::too_many_arguments)]
pub fn execute_forkjoin_traced(
    query: &Query,
    plan: &Plan,
    ctx: &ExecContext,
    cluster: &Cluster,
    home: NodeId,
    cores: usize,
    lit: &impl LiteralResolver,
    timer: &mut TaskTimer,
    trace: &mut StageTrace,
) -> ResultSet {
    let mut table = BindingTable::seed(query.var_count as usize);
    let mut applied = vec![false; query.filters.len()];
    let mut tally = FaultTally::default();
    let t0 = timer.total_ns();
    let mut fanout_ns = 0u64;

    let match_span = wukong_obs::trace::scoped_span(Stage::PatternMatch);
    {
        let _fanout_span = wukong_obs::trace::scoped_span(Stage::ForkJoinFanout);
        for step in &plan.steps {
            let fork_start = timer.total_ns();
            let (input, anchored) = if step.mode == StepMode::IndexScan {
                expand_index_scan(step, &table, ctx, cluster, home, timer)
            } else {
                (table, *step)
            };
            table = partitioned_step(
                &anchored, &input, ctx, cluster, home, cores, timer, &mut tally,
            );
            fanout_ns += timer.total_ns().saturating_sub(fork_start);
            apply_ready_filters(&mut table, &query.filters, &mut applied, lit);
            if table.is_empty() {
                break;
            }
        }
    }

    // UNION and OPTIONAL blocks run in-place on the home node (they
    // expand rows branch by branch; remote reads are charged through the
    // access layer).
    let merge_start = timer.total_ns();
    let merge_span = wukong_obs::trace::scoped_span(Stage::ForkJoinMerge);
    let access = NodeAccess::new(cluster, home);
    let table = wukong_query::executor::apply_union(query, table, ctx, &access, timer);
    let table = wukong_query::executor::apply_not_exists(query, table, ctx, &access, timer);
    let table = wukong_query::executor::apply_optional(query, table, ctx, &access, timer);
    drop(merge_span);
    drop(match_span);
    let matched = timer.total_ns();
    trace.add(Stage::PatternMatch, matched.saturating_sub(t0));
    trace.add(Stage::ForkJoinFanout, fanout_ns);
    trace.add(Stage::ForkJoinMerge, matched.saturating_sub(merge_start));
    let emit_span = wukong_obs::trace::scoped_span(Stage::ResultEmit);
    let mut out = finalize(query, table, &applied, lit);
    drop(emit_span);
    trace.add(Stage::ResultEmit, timer.total_ns().saturating_sub(matched));
    if !tally.unreachable.is_empty() {
        tally.unreachable.sort_unstable();
        tally.unreachable.dedup();
        out.unreachable_shards = tally.unreachable;
        cluster.obs().faults().inc_degraded();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use wukong_net::TaskTimer;
    use wukong_query::exec::NoLiterals;
    use wukong_query::{parse_query, plan_query};
    use wukong_rdf::Triple;
    use wukong_store::SnapshotId;

    fn load_follow_graph(cluster: &Cluster, n: u64) {
        let ss = cluster.strings();
        let fo = ss.intern_predicate("fo").unwrap();
        let po = ss.intern_predicate("po").unwrap();
        for i in 0..n {
            let a = ss.intern_entity(&format!("u{i}")).unwrap();
            let b = ss.intern_entity(&format!("u{}", (i + 1) % n)).unwrap();
            cluster.load_base_triple(Triple::new(a, fo, b));
            let t = ss.intern_entity(&format!("t{i}")).unwrap();
            cluster.load_base_triple(Triple::new(a, po, t));
        }
    }

    #[test]
    fn forkjoin_matches_inplace_results() {
        let cluster = Cluster::new(&EngineConfig::cluster(4));
        load_follow_graph(&cluster, 64);
        let ss = cluster.strings();
        let q = parse_query(ss, "SELECT ?X ?Y ?Z WHERE { ?X fo ?Y . ?Y po ?Z }").unwrap();
        let ctx = ExecContext::stored(SnapshotId::BASE);

        let access = NodeAccess::new(&cluster, NodeId(0));
        let plan = plan_query(&q, &access, &ctx);
        let mut t1 = TaskTimer::start();
        let inplace = wukong_query::execute(&q, &plan, &ctx, &access, &NoLiterals, &mut t1);

        let mut t2 = TaskTimer::start();
        let forkjoin = execute_forkjoin(
            &q,
            &plan,
            &ctx,
            &cluster,
            NodeId(0),
            1,
            &NoLiterals,
            &mut t2,
        );

        assert_eq!(inplace.rows.len(), 64);
        let mut a = inplace.rows.clone();
        let mut b = forkjoin.rows.clone();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn degenerate_plans_agree_across_executors() {
        // Single-pattern (no join), fully-constant first pattern
        // (existence filter), and empty-OPTIONAL queries must produce the
        // same rows in-place and fork-join.
        let cluster = Cluster::new(&EngineConfig::cluster(4));
        load_follow_graph(&cluster, 32);
        let ss = cluster.strings();
        let ctx = ExecContext::stored(SnapshotId::BASE);
        for (text, expect) in [
            // One pattern, nothing to join.
            ("SELECT ?X WHERE { u0 fo ?X }", 1),
            // First pattern binds zero variables and holds.
            ("SELECT ?X WHERE { u0 fo u1 . u0 po ?X }", 1),
            // First pattern binds zero variables and fails: existence
            // filter kills every row.
            ("SELECT ?X WHERE { u0 fo u5 . u0 po ?X }", 0),
            // Empty OPTIONAL is inert.
            ("SELECT ?X WHERE { u0 po ?X OPTIONAL { } }", 1),
        ] {
            let q = parse_query(ss, text).unwrap();
            let access = NodeAccess::new(&cluster, NodeId(0));
            let plan = plan_query(&q, &access, &ctx);
            let mut t1 = TaskTimer::start();
            let inplace = wukong_query::execute(&q, &plan, &ctx, &access, &NoLiterals, &mut t1);
            let mut t2 = TaskTimer::start();
            let forked = execute_forkjoin(
                &q,
                &plan,
                &ctx,
                &cluster,
                NodeId(0),
                1,
                &NoLiterals,
                &mut t2,
            );
            assert_eq!(inplace.rows.len(), expect, "{text}");
            let mut a = inplace.rows.clone();
            let mut b = forked.rows.clone();
            a.sort();
            b.sort();
            assert_eq!(a, b, "{text}");
        }
    }

    #[test]
    fn forkjoin_charges_fork_messages() {
        let cluster = Cluster::new(&EngineConfig::cluster(4));
        load_follow_graph(&cluster, 64);
        let ss = cluster.strings();
        let q = parse_query(ss, "SELECT ?X ?Y WHERE { ?X fo ?Y }").unwrap();
        let ctx = ExecContext::stored(SnapshotId::BASE);
        let access = NodeAccess::new(&cluster, NodeId(0));
        let plan = plan_query(&q, &access, &ctx);

        let before = cluster.fabric().metrics();
        let mut timer = TaskTimer::start();
        let rs = execute_forkjoin(
            &q,
            &plan,
            &ctx,
            &cluster,
            NodeId(0),
            1,
            &NoLiterals,
            &mut timer,
        );
        let delta = before.delta(&cluster.fabric().metrics());
        assert_eq!(rs.rows.len(), 64);
        assert!(delta.messages > 0, "fork-join must message remote nodes");
    }

    fn run_two_hop(cluster: &Cluster) -> ResultSet {
        let ss = cluster.strings();
        let q = parse_query(ss, "SELECT ?X ?Y ?Z WHERE { ?X fo ?Y . ?Y po ?Z }").unwrap();
        let ctx = ExecContext::stored(SnapshotId::BASE);
        let access = NodeAccess::new(cluster, NodeId(0));
        let plan = plan_query(&q, &access, &ctx);
        let mut t = TaskTimer::start();
        execute_forkjoin(&q, &plan, &ctx, cluster, NodeId(0), 1, &NoLiterals, &mut t)
    }

    #[test]
    fn forkjoin_rpc_survives_lossy_links() {
        use wukong_net::FaultPlan;
        let cfg = EngineConfig {
            fault_plan: Some(FaultPlan::seeded(42).lossy(0.25, 0.1)),
            ..EngineConfig::cluster(4)
        };
        let cluster = Cluster::new(&cfg);
        load_follow_graph(&cluster, 64);
        let rs = run_two_hop(&cluster);
        assert!(
            rs.unreachable_shards.is_empty(),
            "retries must repair a 25% lossy link (seed-dependent; pick another seed)"
        );
        assert_eq!(rs.rows.len(), 64, "no rows may be lost to retries");
        let snap = cluster.obs().faults().snapshot();
        assert!(
            snap.msgs_dropped > 0,
            "a 25% lossy link must drop something, got {snap:?}"
        );
    }

    #[test]
    fn forkjoin_degrades_when_a_shard_dies() {
        use wukong_net::FaultPlan;
        let cfg = EngineConfig {
            fault_plan: Some(FaultPlan::seeded(1)),
            ..EngineConfig::cluster(4)
        };
        let cluster = Cluster::new(&cfg);
        load_follow_graph(&cluster, 64);
        assert!(cluster.fabric().kill_node(NodeId(2)));

        let rs = run_two_hop(&cluster);
        assert_eq!(rs.unreachable_shards, vec![2], "dead shard must be tagged");
        assert!(
            rs.rows.len() < 64,
            "partial answer must miss the dead shard's rows"
        );
        let snap = cluster.obs().faults().snapshot();
        assert!(snap.rpc_timeouts > 0);
        assert!(snap.rpc_retries > 0);
        assert_eq!(snap.degraded_answers, 1);

        // Restarting the shard heals execution (state is in-process).
        assert!(cluster.fabric().restart_node(NodeId(2)));
        let healed = run_two_hop(&cluster);
        assert!(healed.unreachable_shards.is_empty());
        assert_eq!(healed.rows.len(), 64);
    }
}
