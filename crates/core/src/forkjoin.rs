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
//!
//! Only the partitioning lives here: [`partitioned`] is the per-step
//! expansion the executor's one step loop
//! ([`wukong_query::execute_with_fanout`]) takes in place of its own;
//! filters, UNION / NOT EXISTS / OPTIONAL and projection stay in the loop.

use crate::access::NodeAccess;
use crate::cluster::Cluster;
use std::time::Duration;
use wukong_net::{Endpoint, NodeId, TaskTimer};
use wukong_query::bindings::BindingTable;
use wukong_query::exec::{ExecContext, GraphAccess};
use wukong_query::executor::concrete;
use wukong_query::plan::{Step, StepMode};
use wukong_query::{execute_step, ResultSet};
use wukong_rdf::{Dir, Key, Vid};

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

/// Runs one partition's step on `node`: returns the expanded rows, the
/// real nanoseconds the run took, and its hop cost — real plus charged
/// time over the node's per-query worker cores (§6.4: a partition's rows
/// split across them; messaging, charged by the callers, is not
/// divisible).
fn run_partition(
    step: &Step,
    part: &BindingTable,
    ctx: &ExecContext,
    cluster: &Cluster,
    node: NodeId,
    cores: usize,
) -> (BindingTable, u64, u64) {
    let access = NodeAccess::new(cluster, node);
    let started = std::time::Instant::now();
    let mut timer = TaskTimer::start();
    let out = execute_step(step, part, ctx, &access, &mut timer);
    let real = started.elapsed().as_nanos() as u64;
    let c = cores.max(1).min(part.len().max(1)) as u64;
    (out, real, (real + timer.charged_ns()) / c)
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
            let (out, real, work_ns) = run_partition(step, part, ctx, cluster, node, cores);
            *sequential_real += real;
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

/// The fork-join expansion of one plan step, as the executor's step loop
/// takes it ([`wukong_query::Fork`]): an index scan is first rewritten
/// into a subject-anchored step ([`expand_index_scan`]), then the rows
/// partition by their anchor's owner node, every non-empty partition runs
/// on its node with `cores` worker cores serving the query there (§6.4's
/// latency/resource knob), and the results join into the output table in
/// node order. Under an installed fault plan remote partitions run as
/// deadline-bounded RPCs ([`rpc_partition`]); shards that never answered
/// land in `unreachable` (see [`mark_unreachable`]) and their rows are
/// omitted.
pub fn partitioned<'a>(
    cluster: &'a Cluster,
    home: NodeId,
    cores: usize,
    ctx: &'a ExecContext,
    unreachable: &'a mut Vec<u16>,
) -> impl FnMut(&Step, &BindingTable, &mut TaskTimer, &mut BindingTable) + 'a {
    move |step, input, timer, out| {
        let rewritten;
        let (step, input) = if step.mode == StepMode::IndexScan {
            rewritten = expand_index_scan(step, input, ctx, cluster, home, timer);
            (&rewritten.1, &rewritten.0)
        } else {
            (step, input)
        };
        let (anchor, _, dir) = step.anchoring().expect("index scans are rewritten");
        let mut parts: Vec<BindingTable> = (0..cluster.nodes())
            .map(|_| BindingTable::empty(input.width()))
            .collect();
        for row in input.iter() {
            let node = match concrete(anchor, row) {
                Some(v) => cluster.owner(Key::new(v, step.pattern.p, dir)),
                None => home,
            };
            parts[node.idx()].push_row(row);
        }
        out.clear();
        let work = parts.iter().enumerate().filter(|(_, p)| !p.is_empty());
        let mut max_hop = 0u64;

        // Fork: run each non-empty partition on its owning node.
        //
        // Fault-free, the partitions execute on the home node's worker
        // pool (really concurrent when `worker_threads` > 1) and join back
        // in node order — the merge order, and therefore the result, is
        // identical for any pool width. Cost stays modelled either way:
        // the region's real time is excluded and the *maximum*
        // per-partition latency charged, since a real fork-join waits only
        // for its slowest partition.
        if !cluster.fabric().faults_enabled() {
            let region = std::time::Instant::now();
            // Pool workers have their own thread-locals: capture the
            // calling thread's recorder context and re-install it inside
            // each task so per-partition events keep the firing's causal
            // attribution.
            let trace_ctx = wukong_obs::trace::current();
            let executed = cluster.pool(home).map(work.collect(), |_, (n, part)| {
                let _scope = trace_ctx
                    .as_ref()
                    .map(|(rec, fid, bid)| wukong_obs::trace::install_recorder(rec, *fid, *bid));
                let node = NodeId(n as u16);
                let (rows, _, mut hop) = run_partition(step, part, ctx, cluster, node, cores);
                if node != home {
                    let mut hop_timer = TaskTimer::start();
                    let fabric = cluster.fabric();
                    fabric.charge_message(home, node, part.wire_bytes(), &mut hop_timer);
                    fabric.charge_message(node, home, rows.wire_bytes(), &mut hop_timer);
                    hop += hop_timer.charged_ns();
                }
                (rows, hop)
            });
            for (rows, hop) in executed {
                max_hop = max_hop.max(hop);
                rows.iter().for_each(|row| out.push_row(row));
            }
            timer.exclude(region.elapsed().as_nanos() as u64);
            timer.charge(max_hop);
            return;
        }

        // Under an installed fault plan remote partitions go through the
        // deadline-bounded RPC path, which owns the outer timer
        // (per-attempt waits, exclusions) — they stay sequential.
        let endpoints = cluster.fabric().endpoints::<u64>();
        let mut real = 0u64;
        for (n, part) in work {
            let node = NodeId(n as u16);
            let (rows, hop) = if node == home {
                let (rows, ns, hop) = run_partition(step, part, ctx, cluster, node, cores);
                real += ns;
                (Some(rows), hop)
            } else {
                let eps = &endpoints;
                rpc_partition(
                    step, part, ctx, cluster, home, node, cores, eps, timer, &mut real,
                )
            };
            max_hop = max_hop.max(hop);
            match rows {
                Some(rows) => rows.iter().for_each(|row| out.push_row(row)),
                None => unreachable.push(n as u16),
            }
        }
        timer.exclude(real);
        timer.charge(max_hop);
    }
}

/// Marks `results` degraded by the shards [`partitioned`] collected in
/// `unreachable`; a complete answer is left alone.
pub fn mark_unreachable(cluster: &Cluster, mut unreachable: Vec<u16>, results: &mut ResultSet) {
    if unreachable.is_empty() {
        return;
    }
    unreachable.sort_unstable();
    unreachable.dedup();
    results.unreachable_shards = unreachable;
    cluster.obs().faults().inc_degraded();
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
    for row in input.iter() {
        let Some((candidates, bind_s)) = step.scan_candidates(&subjects, row) else {
            continue;
        };
        for &s in candidates {
            match bind_s {
                Some(v) => bound.push_bound(row, v, s),
                None => bound.push_row(row),
            }
        }
    }
    let mode = StepMode::FromSubject;
    (bound, Step { mode, ..*step })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use wukong_net::TaskTimer;
    use wukong_obs::StageTrace;
    use wukong_query::exec::NoLiterals;
    use wukong_query::{parse_query, plan_query, Plan, Query};
    use wukong_rdf::Triple;
    use wukong_store::SnapshotId;

    /// Runs `q` fork-join from node 0 with one core per node, through the
    /// executor's step loop as the engine's evaluation does.
    fn run_forkjoin(cluster: &Cluster, q: &Query, plan: &Plan, ctx: &ExecContext) -> ResultSet {
        let access = NodeAccess::new(cluster, NodeId(0));
        let mut unreachable = Vec::new();
        let mut fork = partitioned(cluster, NodeId(0), 1, ctx, &mut unreachable);
        let (mut timer, mut trace) = (TaskTimer::start(), StageTrace::new());
        let mut rs = wukong_query::execute_with_fanout(
            q,
            plan,
            ctx,
            &access,
            &NoLiterals,
            &mut timer,
            &mut trace,
            &mut Vec::new(),
            Some(&mut fork),
        );
        assert!(trace.get(wukong_obs::Stage::ForkJoinFanout) > 0);
        drop(fork);
        mark_unreachable(cluster, unreachable, &mut rs);
        rs
    }

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

        let forkjoin = run_forkjoin(&cluster, &q, &plan, &ctx);

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
            let forked = run_forkjoin(&cluster, &q, &plan, &ctx);
            assert_eq!(inplace.rows.len(), expect, "{text}");
            let mut a = inplace.rows.clone();
            let mut b = forked.rows.clone();
            a.sort();
            b.sort();
            assert_eq!(a, b, "{text}");
        }
    }

    #[test]
    fn bound_subject_index_scan_agrees_across_executors() {
        // The planner never index-scans over a subject its plan already
        // binds, so force one: both steps scan, the second over rows
        // that bind ?X, which the rewrite must bisect, not walk.
        let cluster = Cluster::new(&EngineConfig::cluster(4));
        load_follow_graph(&cluster, 32);
        let ss = cluster.strings();
        let q = parse_query(ss, "SELECT ?X ?Y ?Z WHERE { ?X fo ?Y . ?X po ?Z }").unwrap();
        let ctx = ExecContext::stored(SnapshotId::BASE);
        let access = NodeAccess::new(&cluster, NodeId(0));
        let mut plan = plan_query(&q, &access, &ctx);
        for step in &mut plan.steps {
            step.mode = StepMode::IndexScan;
        }
        let mut timer = TaskTimer::start();
        let inplace = wukong_query::execute(&q, &plan, &ctx, &access, &NoLiterals, &mut timer);
        let mut forked = run_forkjoin(&cluster, &q, &plan, &ctx).rows;
        let mut a = inplace.rows;
        assert_eq!(a.len(), 32);
        a.sort();
        forked.sort();
        assert_eq!(a, forked);
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
        let rs = run_forkjoin(&cluster, &q, &plan, &ctx);
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
        run_forkjoin(cluster, &q, &plan, &ctx)
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
