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
use wukong_net::{Fabric, NodeId, TaskTimer};
use wukong_obs::FaultCounters;
use wukong_query::bindings::BindingTable;
use wukong_query::exec::{ExecContext, GraphAccess};
use wukong_query::executor::concrete;
use wukong_query::plan::{Step, StepMode};
use wukong_query::{execute_step, ResultSet};
use wukong_rdf::{Dir, Key, Vid};

/// Virtual nanoseconds charged for an attempt whose request or reply was
/// lost: the modelled deadline. (These four constants are the whole RPC
/// failure policy; DESIGN.md §8 describes the protocol they parameterise.)
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

/// Runs one partition's step on `node`: returns the expanded rows and the
/// run's hop cost — real plus charged time over the node's per-query
/// worker cores (§6.4: a partition's rows split across them; messaging,
/// charged by [`settle`], is not divisible).
fn run_partition(
    step: &Step,
    part: &BindingTable,
    ctx: &ExecContext,
    cluster: &Cluster,
    node: NodeId,
    cores: usize,
) -> (BindingTable, u64) {
    let access = NodeAccess::new(cluster, node);
    let started = std::time::Instant::now();
    let mut timer = TaskTimer::start();
    let out = execute_step(step, part, ctx, &access, &mut timer);
    let real = started.elapsed().as_nanos() as u64;
    let c = cores.max(1).min(part.len().max(1)) as u64;
    (out, (real + timer.charged_ns()) / c)
}

/// Settles one remote partition's RPC from `home` to `node` over the
/// fabric: the request carries `request_bytes`, each reply `reply_bytes`,
/// and the worker's run costs `work_ns`. Every attempt draws the request's
/// verdict, then one reply verdict per delivered request copy (a
/// duplicated request is answered twice); the first delivered reply
/// settles the hop at its charge plus `work_ns`. Every charge includes
/// its verdict's delay, the request's as well as the reply's. An attempt
/// that finds
/// `node` dead (it sends nothing) or gets no reply charges the modelled
/// deadline, and each retry its backoff, without waiting on any clock.
///
/// Returns whether a reply arrived — `false` once the retry budget is
/// exhausted: the shard is unreachable — and the hop cost either way, as
/// a failed partition still spent its deadlines inside the parallel fork.
/// Without a fault plan this is one request, one reply and the work.
fn settle(
    fabric: &Fabric,
    counters: &FaultCounters,
    home: NodeId,
    node: NodeId,
    request_bytes: usize,
    reply_bytes: usize,
    work_ns: u64,
) -> (bool, u64) {
    let mut hop = 0u64;
    for attempt in 1..=1 + RPC_MAX_RETRIES {
        if attempt > 1 {
            counters.inc_rpc_retry();
            hop += backoff_ns(attempt - 1);
        }
        if fabric.is_up(node) {
            let (ns, request) = fabric.send(home, node, request_bytes);
            hop += ns + request.extra_ns;
            let mut reply = None;
            for _ in 0..request.copies {
                let (ns, answer) = fabric.send(node, home, reply_bytes);
                if answer.copies > 0 && reply.is_none() {
                    reply = Some(ns + answer.extra_ns);
                }
            }
            if let Some(ns) = reply {
                return (true, hop + ns + work_ns);
            }
        }
        counters.inc_rpc_timeout();
        hop += RPC_DEADLINE_CHARGE_NS;
    }
    (false, hop)
}

/// The fork-join expansion of one plan step, as the executor's step loop
/// takes it ([`wukong_query::Fork`]): an index scan is first rewritten
/// into a subject-anchored step ([`expand_index_scan`]), then the rows
/// partition by their anchor's owner node, every non-empty partition runs
/// on its node with `cores` worker cores serving the query there (§6.4's
/// latency/resource knob), and the results join into the output table in
/// node order, each remote partition once its RPC [`settle`]s. Shards that
/// never answered land in `unreachable` (see [`mark_unreachable`]) and
/// their rows are omitted.
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
        let fabric = cluster.fabric();
        let forked: Vec<(NodeId, &BindingTable, bool)> = parts
            .iter()
            .enumerate()
            .filter(|(_, p)| !p.is_empty())
            .map(|(n, p)| {
                let node = NodeId(n as u16);
                (node, p, node == home || fabric.is_up(node))
            })
            .collect();

        // Fork: every non-empty partition is a task on the home node's
        // worker pool (really concurrent when `worker_threads` > 1), which
        // runs it if its node is alive.
        // Cost stays modelled: the region's real time is excluded and the
        // *maximum* per-partition hop charged, since a real fork-join waits
        // only for its slowest partition.
        let region = std::time::Instant::now();
        // Pool workers have their own thread-locals: capture the calling
        // thread's recorder context and re-install it inside each task so
        // per-partition events keep the firing's causal attribution.
        let trace_ctx = wukong_obs::trace::current();
        let ran = cluster.pool(home).map(forked, |_, (node, part, live)| {
            let run = live.then(|| {
                let _scope = trace_ctx
                    .as_ref()
                    .map(|(rec, fid, bid)| wukong_obs::trace::install_recorder(rec, *fid, *bid));
                run_partition(step, part, ctx, cluster, node, cores)
            });
            (node, part, run)
        });
        timer.exclude(region.elapsed().as_nanos() as u64);

        // Join in node order — the merge order, the fabric's verdict draws
        // and therefore the result are identical for any pool width.
        let counters = cluster.obs().faults();
        let mut max_hop = 0u64;
        for (node, part, run) in ran {
            let (reply, work_ns) = run
                .as_ref()
                .map_or((0, 0), |(rows, work_ns)| (rows.wire_bytes(), *work_ns));
            let (answered, hop) = if node == home {
                (true, work_ns)
            } else {
                let request = part.wire_bytes();
                settle(fabric, counters, home, node, request, reply, work_ns)
            };
            max_hop = max_hop.max(hop);
            match run.filter(|_| answered) {
                Some((rows, _)) => rows.iter().for_each(|row| out.push_row(row)),
                None => unreachable.push(node.0),
            }
        }
        timer.charge(max_hop);
    }
}

/// Marks `results` degraded by the shards [`partitioned`] collected in
/// `unreachable`; a complete answer is left alone.
pub(crate) fn mark_unreachable(
    cluster: &Cluster,
    mut unreachable: Vec<u16>,
    results: &mut ResultSet,
) {
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

    /// One fork-join run of [`run_two_hop`] under `plan` (with `kill`ed
    /// nodes dead first), rendered as everything the plan may change but
    /// time: rows, unreachable shards, the nonzero fault counters, the
    /// fabric's messages and bytes, and the fault log event by event.
    fn two_hop_under(plan: wukong_net::FaultPlan, kill: &[u16]) -> String {
        use wukong_net::FaultEvent;
        let cluster = Cluster::new(&EngineConfig {
            fault_plan: Some(plan),
            ..EngineConfig::cluster(4)
        });
        load_follow_graph(&cluster, 64);
        for &n in kill {
            assert!(cluster.fabric().kill_node(NodeId(n)));
        }
        let before = cluster.fabric().metrics();
        let rs = run_two_hop(&cluster);
        let fabric = before.delta(&cluster.fabric().metrics());
        let snap = cluster.obs().faults().snapshot();
        let faults: Vec<String> = snap
            .entries()
            .iter()
            .filter(|(_, v)| *v > 0)
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        let log: Vec<String> = cluster
            .fabric()
            .fault_log()
            .iter()
            .map(|e| match *e {
                FaultEvent::Dropped { from, to } => format!("drop{}{}", from.0, to.0),
                FaultEvent::Duplicated { from, to } => format!("dup{}{}", from.0, to.0),
                FaultEvent::Delayed { from, to, .. } => format!("late{}{}", from.0, to.0),
                FaultEvent::Killed { node, .. } => format!("kill{}", node.0),
                other => format!("{other:?}"),
            })
            .collect();
        format!(
            "rows {} unreachable {:?}\nfaults {}\nmessages {} bytes {}\nlog {}",
            rs.rows.len(),
            rs.unreachable_shards,
            faults.join(" "),
            fabric.messages,
            fabric.bytes_sent,
            log.join(" ")
        )
    }

    #[test]
    fn forkjoin_under_fault_plans_is_pinned() {
        use wukong_net::{FaultPlan, LinkFault};
        // One rule that drops, duplicates and delays, so duplicated
        // requests and replies interleave their delay draws.
        let lossy_delayed = FaultPlan {
            links: vec![LinkFault {
                drop_p: 0.3,
                dup_p: 0.3,
                delay_p: 0.5,
                delay_ns: 40_000,
                ..LinkFault::default()
            }],
            ..FaultPlan::seeded(7)
        };
        assert_eq!(
            two_hop_under(lossy_delayed, &[]),
            "rows 64 unreachable []\n\
             faults msgs_dropped=6 msgs_duplicated=7 msgs_delayed=7 rpc_timeouts=5 rpc_retries=5\n\
             messages 27 bytes 9600\n\
             log dup01 late10 late10 dup02 late20 drop30 dup30 late30 drop10 dup01 dup10 drop10 \
             drop02 late02 drop20 drop02 dup03 late03 dup30 late30"
        );
        assert_eq!(
            two_hop_under(FaultPlan::seeded(42).lossy(0.25, 0.1), &[]),
            "rows 64 unreachable []\n\
             faults msgs_dropped=5 msgs_duplicated=1 rpc_timeouts=4 rpc_retries=4\n\
             messages 22 bytes 7680\n\
             log drop02 drop10 drop01 dup01 drop10 drop20"
        );
        assert_eq!(
            two_hop_under(FaultPlan::seeded(1), &[2]),
            "rows 32 unreachable [2]\n\
             faults rpc_timeouts=8 rpc_retries=6 degraded_answers=1 node_kills=1\n\
             messages 11 bytes 2736\n\
             log kill2"
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

    /// Settles one RPC from node 0 to node 1 of a two-node RDMA fabric
    /// under `plan` (`None`: fault-free) with 512 request bytes, 2 048
    /// reply bytes and `work_ns` of work, with `kill` dead first: the
    /// verdict, the fault counters it moved and the fabric's messages.
    fn settle_on(
        plan: Option<wukong_net::FaultPlan>,
        kill: bool,
        work_ns: u64,
    ) -> ((bool, u64), wukong_obs::FaultSnapshot, u64) {
        use std::sync::Arc;
        use wukong_net::NetworkProfile;
        let counters = Arc::new(FaultCounters::default());
        let mut fabric = Fabric::new(2, NetworkProfile::rdma());
        if let Some(plan) = plan {
            fabric.install_faults(plan, Arc::clone(&counters));
        }
        if kill {
            assert!(fabric.kill_node(NodeId(1)));
        }
        let settled = settle(
            &fabric,
            &counters,
            NodeId(0),
            NodeId(1),
            512,
            2_048,
            work_ns,
        );
        let faults = counters.snapshot();
        (settled, faults, fabric.metrics().messages)
    }

    /// The modelled cost of one RDMA message of `bytes`.
    fn message_ns(bytes: usize) -> u64 {
        wukong_net::NetworkProfile::rdma().message_cost(bytes)
    }

    #[test]
    fn settle_without_faults_is_request_reply_and_work() {
        let (settled, faults, messages) = settle_on(None, false, 7_000);
        assert_eq!(settled, (true, message_ns(512) + message_ns(2_048) + 7_000));
        assert_eq!(faults, wukong_obs::FaultSnapshot::default());
        assert_eq!(messages, 2);
    }

    #[test]
    fn settle_charges_the_request_delay_and_the_reply_delay() {
        use wukong_net::FaultPlan;
        const DELAY_NS: u64 = 90_000;
        let plan = FaultPlan::seeded(2).delayed(1.0, DELAY_NS);
        let (settled, faults, messages) = settle_on(Some(plan), false, 0);
        let hop = message_ns(512) + message_ns(2_048);
        assert_eq!(settled, (true, hop + 2 * DELAY_NS));
        assert_eq!(faults.msgs_delayed, 2);
        assert_eq!(messages, 2);
    }

    #[test]
    fn settle_spends_every_deadline_on_a_dead_node() {
        use wukong_net::FaultPlan;
        let (settled, faults, messages) = settle_on(Some(FaultPlan::seeded(1)), true, 7_000);
        let backoffs = backoff_ns(1) + backoff_ns(2) + backoff_ns(3);
        let deadlines = u64::from(1 + RPC_MAX_RETRIES) * RPC_DEADLINE_CHARGE_NS;
        assert_eq!(settled, (false, deadlines + backoffs));
        assert_eq!((faults.rpc_timeouts, faults.rpc_retries), (4, 3));
        assert_eq!(faults.msgs_dropped, 0, "nothing is sent to a dead node");
        assert_eq!(messages, 0);
    }
}
