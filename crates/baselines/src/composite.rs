//! The composite design (§2.3, Fig. 3a): stream processor + store.
//!
//! A continuous query splits at `GRAPH` boundaries: stream patterns run
//! on the relational processor (window scans + hash joins), stored
//! patterns run on the store side — either our Wukong cluster (the
//! Storm+Wukong / Heron+Wukong baselines) or a Jena-like triple table
//! (the CSPARQL-engine baseline). Every boundary crossing pays the
//! *cross-system cost*: per-tuple data transformation plus transmission.
//!
//! Two query plans reproduce Fig. 4:
//!
//! - [`CompositePlan::Interleaved`] (Fig. 4a): execute segments in query
//!   order, shipping bindings across the boundary at each alternation.
//! - [`CompositePlan::StreamFirst`] (Fig. 4b): evaluate and join *all*
//!   stream patterns in the processor first (fewer crossings, but no
//!   store-side pruning — the sub-optimal plan the paper measures).

use crate::relational::{hash_join, scan_pattern, ProcessorProfile, Relation, WindowBuffer};
use crate::triple_table::TripleTable;
use std::sync::Arc;
use std::time::Instant;
use wukong_core::access::NodeAccess;
use wukong_core::cluster::Cluster;
use wukong_core::EngineConfig;
use wukong_net::NodeId;
use wukong_net::TaskTimer;
use wukong_query::bindings::{BindingTable, UNBOUND};
use wukong_query::exec::{ExecContext, StringLiteralResolver};
use wukong_query::{
    execute_step, parse_query, plan_patterns, GraphName, LiteralResolver, Query, QueryError,
    QueryKind, Term, TriplePattern,
};
use wukong_rdf::{StreamId, StringServer, Timestamp, Triple, Vid};
use wukong_store::SnapshotId;

/// Which composite execution plan to use (Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompositePlan {
    /// Segments in query order, crossing the boundary at each switch.
    Interleaved,
    /// All stream segments first, one crossing to the store and back.
    StreamFirst,
}

/// Configuration of a composite deployment.
#[derive(Debug, Clone, Copy)]
pub struct CompositeProfile {
    /// Display name (`Storm+Wukong`, …).
    pub name: &'static str,
    /// The stream processor's overhead profile.
    pub processor: ProcessorProfile,
    /// `true`: store side is a Wukong cluster; `false`: a Jena-like
    /// triple table (CSPARQL-engine).
    pub graph_store: bool,
    /// Cluster nodes for the store side.
    pub nodes: usize,
    /// Cross-system transformation cost per tuple crossing, ns.
    pub transform_ns_per_tuple: u64,
    /// Fixed cost per boundary crossing (co-located transport), ns.
    pub crossing_base_ns: u64,
}

impl CompositeProfile {
    /// Apache Storm over the Wukong store.
    pub fn storm_wukong(nodes: usize) -> Self {
        CompositeProfile {
            name: "Storm+Wukong",
            processor: ProcessorProfile::storm(),
            graph_store: true,
            nodes,
            // Each crossing re-serialises bindings between Storm tuples
            // and Wukong's ID-encoded query format (string conversion +
            // framing); Fig. 4 attributes ~40% of execution to this.
            transform_ns_per_tuple: 10_000,
            crossing_base_ns: 150_000,
        }
    }

    /// Twitter Heron over the Wukong store.
    pub fn heron_wukong(nodes: usize) -> Self {
        CompositeProfile {
            name: "Heron+Wukong",
            processor: ProcessorProfile::heron(),
            graph_store: true,
            nodes,
            transform_ns_per_tuple: 8_000,
            crossing_base_ns: 120_000,
        }
    }

    /// CSPARQL-engine: Esper-like processor + Jena-like store, one node.
    pub fn csparql() -> Self {
        CompositeProfile {
            name: "CSPARQL-engine",
            processor: ProcessorProfile::csparql(),
            graph_store: false,
            nodes: 1,
            transform_ns_per_tuple: 20_000,
            crossing_base_ns: 1_000_000,
        }
    }
}

/// Per-execution cost breakdown (drives Fig. 4 and the Tables 2-4
/// cross-system-cost analysis).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExecBreakdown {
    /// Time inside the stream processor, ms.
    pub stream_ms: f64,
    /// Time inside the store, ms.
    pub store_ms: f64,
    /// Cross-system cost (transform + transmission), ms.
    pub cross_ms: f64,
    /// Boundary crossings performed.
    pub crossings: u32,
}

impl ExecBreakdown {
    /// Total latency, ms.
    pub fn total_ms(&self) -> f64 {
        self.stream_ms + self.store_ms + self.cross_ms
    }

    /// Cross-system cost share of total.
    pub fn cross_fraction(&self) -> f64 {
        let t = self.total_ms();
        if t == 0.0 {
            0.0
        } else {
            self.cross_ms / t
        }
    }
}

enum StoreSide {
    Wukong(Cluster),
    Jena(TripleTable),
}

struct RegisteredQuery {
    query: Query,
    /// Query stream index → composite stream index.
    stream_map: Vec<usize>,
}

/// A composite deployment: window buffers + a store side.
pub struct Composite {
    profile: CompositeProfile,
    strings: Arc<StringServer>,
    store: StoreSide,
    stream_names: Vec<String>,
    windows: Vec<WindowBuffer>,
    registered: Vec<RegisteredQuery>,
}

impl Composite {
    /// Boots a composite deployment.
    pub fn new(profile: CompositeProfile, strings: Arc<StringServer>) -> Self {
        let store = if profile.graph_store {
            let cfg = EngineConfig {
                nodes: profile.nodes,
                ..EngineConfig::single_node()
            };
            StoreSide::Wukong(Cluster::new_with_strings(&cfg, Arc::clone(&strings)))
        } else {
            StoreSide::Jena(TripleTable::new())
        };
        Composite {
            profile,
            strings,
            store,
            stream_names: Vec::new(),
            windows: Vec::new(),
            registered: Vec::new(),
        }
    }

    /// The profile.
    pub fn profile(&self) -> &CompositeProfile {
        &self.profile
    }

    /// Loads the initially stored dataset (static for composite designs —
    /// they are "not completely stateful", §2.3).
    pub fn load_base(&mut self, triples: impl IntoIterator<Item = Triple>) {
        match &mut self.store {
            StoreSide::Wukong(c) => {
                for t in triples {
                    c.load_base_triple(t);
                }
            }
            StoreSide::Jena(t) => t.load(triples),
        }
    }

    /// Registers a stream by name, returning its index.
    pub fn register_stream(&mut self, name: impl Into<String>) -> StreamId {
        self.stream_names.push(name.into());
        self.windows.push(WindowBuffer::new());
        StreamId((self.stream_names.len() - 1) as u16)
    }

    /// Feeds a stream tuple (timestamps non-decreasing per stream).
    pub fn ingest(&mut self, stream: StreamId, triple: Triple, ts: Timestamp) {
        self.windows[stream.0 as usize].push(ts, triple);
    }

    /// Registers a continuous query.
    pub fn register_continuous(&mut self, text: &str) -> Result<usize, QueryError> {
        let query = parse_query(&self.strings, text)?;
        if query.kind != QueryKind::Continuous {
            return Err(QueryError::Unsupported(
                "composite runs continuous queries".into(),
            ));
        }
        if !query.optional.is_empty()
            || !query.group_by.is_empty()
            || !query.union_groups.is_empty()
            || !query.not_exists.is_empty()
            || !query.construct.is_empty()
        {
            return Err(QueryError::Unsupported(
                "the composite baseline evaluates basic graph patterns only (no OPTIONAL/GROUP BY)"
                    .into(),
            ));
        }
        let mut stream_map = Vec::new();
        for (name, _) in &query.streams {
            let idx = self
                .stream_names
                .iter()
                .position(|n| n == name)
                .ok_or_else(|| QueryError::Unresolved(format!("stream {name}")))?;
            stream_map.push(idx);
        }
        for (&idx, (_, spec)) in stream_map.iter().zip(&query.streams) {
            self.windows[idx].widen(spec.range_ms);
        }
        self.registered.push(RegisteredQuery { query, stream_map });
        Ok(self.registered.len() - 1)
    }

    fn segments(patterns: &[TriplePattern], plan: CompositePlan) -> Vec<Vec<TriplePattern>> {
        let mut segs: Vec<Vec<TriplePattern>> = Vec::new();
        let push = |segs: &mut Vec<Vec<TriplePattern>>, p: &TriplePattern| {
            let is_stream = matches!(p.graph, GraphName::Stream(_));
            match segs.last_mut() {
                Some(last) if matches!(last[0].graph, GraphName::Stream(_)) == is_stream => {
                    last.push(*p)
                }
                _ => segs.push(vec![*p]),
            }
        };
        match plan {
            CompositePlan::Interleaved => {
                for p in patterns {
                    push(&mut segs, p);
                }
            }
            CompositePlan::StreamFirst => {
                for p in patterns
                    .iter()
                    .filter(|p| matches!(p.graph, GraphName::Stream(_)))
                {
                    push(&mut segs, p);
                }
                for p in patterns.iter().filter(|p| p.graph == GraphName::Stored) {
                    push(&mut segs, p);
                }
            }
        }
        segs
    }

    fn stream_segment(
        &self,
        r: &RegisteredQuery,
        seg: &[TriplePattern],
        acc: Relation,
        now: Timestamp,
        bd: &mut ExecBreakdown,
    ) -> Relation {
        let t0 = Instant::now();
        let mut charged = 0u64;
        let mut acc = acc;
        for p in seg {
            let qidx = match p.graph {
                GraphName::Stream(i) => i,
                GraphName::Stored => unreachable!("stream segment holds stream patterns"),
            };
            let (_, spec) = r.query.streams[qidx];
            let widx = r.stream_map[qidx];
            let lo = now.saturating_sub(spec.range_ms) + 1;
            let buffer = &self.windows[widx];
            let mut window_tuples = Vec::new();
            buffer.for_each_in(lo, now, |t| window_tuples.push(*t));
            charged += self.profile.processor.op_cost_ns(window_tuples.len());
            let rel = scan_pattern(window_tuples.iter(), p);
            charged += self.profile.processor.op_cost_ns(acc.len() + rel.len());
            acc = hash_join(&acc, &rel);
        }
        bd.stream_ms += t0.elapsed().as_nanos() as f64 / 1e6 + charged as f64 / 1e6;
        acc
    }

    fn cross(&self, tuples: usize, bytes: usize, bd: &mut ExecBreakdown) {
        let ns = self.profile.crossing_base_ns
            + self.profile.transform_ns_per_tuple * tuples as u64
            // Co-located transport: loopback at ~1 GB/s.
            + bytes as u64;
        bd.cross_ms += ns as f64 / 1e6;
        bd.crossings += 1;
    }

    fn stored_segment(
        &self,
        r: &RegisteredQuery,
        seg: &[TriplePattern],
        acc: Relation,
        bd: &mut ExecBreakdown,
    ) -> Relation {
        // Ship the accumulated bindings to the store side…
        self.cross(acc.len(), acc.wire_bytes(), bd);
        let t0 = Instant::now();
        let out = match &self.store {
            StoreSide::Jena(table) => {
                let (rel, _scanned) = table.evaluate(seg, acc);
                rel
            }
            StoreSide::Wukong(cluster) => {
                // Convert to a binding table, explore, convert back.
                let width = r.query.var_count as usize;
                let mut table = BindingTable::empty(width);
                let mut row_buf = vec![UNBOUND; width.max(1)];
                for row in &acc.rows {
                    row_buf.iter_mut().for_each(|v| *v = UNBOUND);
                    for (col, &var) in acc.vars.iter().enumerate() {
                        row_buf[var as usize] = row[col];
                    }
                    table.push_row(&row_buf);
                }
                if acc.vars.is_empty() && acc.len() == 1 {
                    // Unit relation: seed row.
                    // (already pushed above as an all-unbound row)
                }
                let mut bound = vec![false; width];
                for &v in &acc.vars {
                    bound[v as usize] = true;
                }
                let ctx = ExecContext::stored(SnapshotId::BASE);
                let access = NodeAccess::new(cluster, NodeId(0));
                let plan = plan_patterns(seg, &bound, &access, &ctx);
                let mut timer = TaskTimer::start();
                for step in &plan.steps {
                    table = execute_step(step, &table, &ctx, &access, &mut timer);
                    if table.is_empty() {
                        break;
                    }
                }
                bd.store_ms += timer.charged_ns() as f64 / 1e6;
                // Back to a relation over all now-bound vars.
                let mut vars = acc.vars.clone();
                for p in seg {
                    for t in [p.s, p.o] {
                        if let Term::Var(v) = t {
                            if !vars.contains(&v) {
                                vars.push(v);
                            }
                        }
                    }
                }
                let mut rel = Relation::empty(vars);
                for row in table.iter() {
                    rel.rows
                        .push(rel.vars.iter().map(|&v| row[v as usize]).collect());
                }
                rel
            }
        };
        bd.store_ms += t0.elapsed().as_nanos() as f64 / 1e6;
        // …and ship the results back.
        self.cross(out.len(), out.wire_bytes(), bd);
        out
    }

    /// Computes the query's aggregates over a final relation (COUNT over
    /// rows; numeric functions through the string server).
    fn aggregates(&self, query: &Query, acc: &Relation) -> Vec<Option<f64>> {
        let lit = StringLiteralResolver(&self.strings);
        query
            .aggregates
            .iter()
            .map(|a| {
                if a.func == wukong_query::ast::AggFunc::Count {
                    return Some(acc.len() as f64);
                }
                let col = acc.vars.iter().position(|&v| v == a.var)?;
                let vals: Vec<f64> = acc
                    .rows
                    .iter()
                    .filter_map(|r| lit.numeric(r[col]))
                    .collect();
                if vals.is_empty() {
                    return None;
                }
                Some(match a.func {
                    wukong_query::ast::AggFunc::Count => unreachable!("handled above"),
                    wukong_query::ast::AggFunc::Sum => vals.iter().sum(),
                    wukong_query::ast::AggFunc::Avg => vals.iter().sum::<f64>() / vals.len() as f64,
                    wukong_query::ast::AggFunc::Min => {
                        vals.iter().cloned().fold(f64::INFINITY, f64::min)
                    }
                    wukong_query::ast::AggFunc::Max => {
                        vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
                    }
                })
            })
            .collect()
    }

    /// Executes registered query `id` with windows ending at `now`.
    ///
    /// Returns the result relation (projected on the `SELECT` variables)
    /// and the cost breakdown.
    pub fn execute(
        &self,
        id: usize,
        now: Timestamp,
        plan: CompositePlan,
    ) -> (Relation, ExecBreakdown) {
        let (rel, _aggs, bd) = self.execute_full(id, now, plan);
        (rel, bd)
    }

    /// Like [`Composite::execute`], also returning the aggregate values.
    pub fn execute_full(
        &self,
        id: usize,
        now: Timestamp,
        plan: CompositePlan,
    ) -> (Relation, Vec<Option<f64>>, ExecBreakdown) {
        let r = &self.registered[id];
        let mut bd = ExecBreakdown::default();
        let segs = Self::segments(&r.query.patterns, plan);
        let mut acc = Relation::unit();
        for seg in &segs {
            if acc.is_empty() {
                break;
            }
            acc = if matches!(seg[0].graph, GraphName::Stream(_)) {
                self.stream_segment(r, seg, acc, now, &mut bd)
            } else {
                self.stored_segment(r, seg, acc, &mut bd)
            };
        }

        // Final filtering + projection happen in the processor.
        let t0 = Instant::now();
        let lit = StringLiteralResolver(&self.strings);
        if !r.query.filters.is_empty() {
            acc.rows.retain(|row| {
                r.query.filters.iter().all(|f| {
                    acc.vars
                        .iter()
                        .position(|&v| v == f.var)
                        .and_then(|col| lit.numeric(row[col]))
                        .map(|x| f.accepts(x))
                        .unwrap_or(false)
                })
            });
        }
        let mut projected = Relation::empty(r.query.select.clone());
        for row in &acc.rows {
            projected.rows.push(
                r.query
                    .select
                    .iter()
                    .map(|&v| {
                        acc.vars
                            .iter()
                            .position(|&x| x == v)
                            .map(|col| row[col])
                            .unwrap_or(Vid(u64::MAX))
                    })
                    .collect(),
            );
        }
        let aggregates = self.aggregates(&r.query, &acc);
        bd.stream_ms += t0.elapsed().as_nanos() as f64 / 1e6;
        (projected, aggregates, bd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig1_setup(profile: CompositeProfile) -> Composite {
        let strings = Arc::new(StringServer::new());
        let mut c = Composite::new(profile, Arc::clone(&strings));
        let tr = |s: &str, p: &str, o: &str| {
            Triple::new(
                strings.intern_entity(s).unwrap(),
                strings.intern_predicate(p).unwrap(),
                strings.intern_entity(o).unwrap(),
            )
        };
        c.load_base([tr("Logan", "fo", "Erik"), tr("Erik", "fo", "Logan")]);
        let po = c.register_stream("PO");
        let li = c.register_stream("PO-L");
        // ⟨Logan po T-15⟩ @802; ⟨Erik li T-15⟩ @806.
        c.ingest(po, tr("Logan", "po", "T-15"), 802);
        c.ingest(li, tr("Erik", "li", "T-15"), 806);
        c
    }

    const QC: &str = "REGISTER QUERY QC SELECT ?X ?Y ?Z \
         FROM PO [RANGE 10s STEP 1s] \
         FROM PO-L [RANGE 5s STEP 1s] \
         FROM X-Lab \
         WHERE { GRAPH PO { ?X po ?Z } \
                 GRAPH X-Lab { ?X fo ?Y } \
                 GRAPH PO-L { ?Y li ?Z } }";

    /// Over four times the widest RANGE of each stream, a window buffer
    /// holds one RANGE of tuples at most, and every window's rows equal
    /// those of a run that evicted nothing (QC registered after the whole
    /// feed).
    #[test]
    fn window_buffers_hold_the_widest_window() {
        let boot = || {
            let c = fig1_setup(CompositeProfile::storm_wukong(1));
            let e = |n: String| c.strings.intern_entity(&n).unwrap();
            let p = |n: &str| c.strings.intern_predicate(n).unwrap();
            let feed: Vec<(StreamId, Timestamp, Triple)> = (1..=400u64)
                .map(|i| {
                    let (s, u, pred) = match i % 2 {
                        0 => (0, ["Logan", "Erik"][(i / 2 % 2) as usize], "po"),
                        _ => (1, ["Erik", "Logan"][(i / 2 % 2) as usize], "li"),
                    };
                    let t = Triple::new(e(u.into()), p(pred), e(format!("T-{}", i % 37)));
                    (StreamId(s), 1_000 + i * 100, t)
                })
                .collect();
            (c, feed)
        };
        let (mut live, feed) = boot();
        let id = live.register_continuous(QC).unwrap();
        let (mut whole, _) = boot();
        for &(s, ts, t) in &feed {
            whole.ingest(s, t, ts);
        }
        assert_eq!(whole.register_continuous(QC).unwrap(), id);
        let sorted = |mut r: Relation| {
            r.rows.sort();
            r.rows
        };
        let mut answered = 0;
        for (i, &(s, ts, t)) in feed.iter().enumerate() {
            live.ingest(s, t, ts);
            for (w, range) in live.windows.iter().zip([10_000, 5_000]) {
                let newest = w.iter().last().map_or(0, |&(ts, _)| ts);
                assert!(w.iter().all(|&(held, _)| held + range > newest));
            }
            if i % 10 == 9 {
                let rows = sorted(live.execute(id, ts, CompositePlan::Interleaved).0);
                let want = sorted(whole.execute(id, ts, CompositePlan::Interleaved).0);
                assert_eq!(rows, want, "at {ts}");
                answered += usize::from(!rows.is_empty());
            }
        }
        assert!(answered > 20, "{answered} non-empty windows");
        assert_eq!(
            live.windows
                .iter()
                .map(WindowBuffer::len)
                .collect::<Vec<_>>(),
            [50, 25]
        );
    }

    #[test]
    fn fig2_qc_on_storm_wukong() {
        let mut c = fig1_setup(CompositeProfile::storm_wukong(1));
        let id = c.register_continuous(QC).unwrap();
        let (rel, bd) = c.execute(id, 810, CompositePlan::Interleaved);
        // "the first execution result at 0810 includes Logan Erik T-15".
        assert_eq!(rel.len(), 1);
        let names: Vec<String> = rel.rows[0]
            .iter()
            .map(|v| c.strings.entity_name(*v).unwrap())
            .collect();
        assert_eq!(names, vec!["Logan", "Erik", "T-15"]);
        // Interleaved plan crosses the boundary twice (to store + back).
        assert_eq!(bd.crossings, 2);
        assert!(bd.cross_ms > 0.0);
        assert!(bd.stream_ms > 0.0);
    }

    #[test]
    fn both_plans_agree_on_results() {
        let mut c = fig1_setup(CompositeProfile::storm_wukong(1));
        let id = c.register_continuous(QC).unwrap();
        let (a, _) = c.execute(id, 810, CompositePlan::Interleaved);
        let (b, _) = c.execute(id, 810, CompositePlan::StreamFirst);
        assert_eq!(a.rows, b.rows);
    }

    #[test]
    fn csparql_profile_uses_triple_table() {
        let mut c = fig1_setup(CompositeProfile::csparql());
        let id = c.register_continuous(QC).unwrap();
        let (rel, bd) = c.execute(id, 810, CompositePlan::Interleaved);
        assert_eq!(rel.len(), 1);
        // The Esper-like processor overhead dominates Storm's.
        let mut s = fig1_setup(CompositeProfile::storm_wukong(1));
        let sid = s.register_continuous(QC).unwrap();
        let (_, sbd) = s.execute(sid, 810, CompositePlan::Interleaved);
        assert!(bd.total_ms() > sbd.total_ms());
    }

    #[test]
    fn windows_gate_results() {
        let mut c = fig1_setup(CompositeProfile::storm_wukong(1));
        let id = c.register_continuous(QC).unwrap();
        // At 802+5000 < like window start: the like has expired.
        let (rel, _) = c.execute(id, 806 + 5_000, CompositePlan::Interleaved);
        assert!(rel.is_empty());
    }
}
