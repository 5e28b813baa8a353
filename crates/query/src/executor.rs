//! Graph-exploration plan execution.
//!
//! Executes a [`Plan`] step by step over a [`GraphAccess`], carrying a
//! [`BindingTable`]. Filters apply as soon as their variable binds, which
//! is the pruning the paper credits the integrated design for: the
//! composite design cannot push selectivity across the system boundary
//! (§2.3, Fig. 4).
//!
//! [`execute_step_into`] is the one step kernel, generic over what a row
//! carries ([`RowTag`]). [`execute_with_fanout`] is the one step loop. In
//! place it expands each step with the kernel on the home node; the
//! engine's fork-join mode hands it a [`Fork`] that partitions the step's
//! rows by anchor owner and runs the same kernel ([`execute_step`]) on
//! every node. Filters, UNION / NOT EXISTS / OPTIONAL on the home node and
//! [`finalize`] stay in the loop either way. The kernel is public so
//! fork-join's partitions and the baselines' bolt pipelines run it; delta
//! maintenance ([`crate::incremental`]) runs it over death-tagged rows.

use crate::ast::{AggFunc, Aggregate, Filter, Query, Term, TriplePattern};
use crate::bindings::{BindingTable, RowTag, UNBOUND};
use crate::exec::{EdgeReads, ExecContext, GraphAccess, LiteralResolver};
use crate::plan::{Plan, Step};
use crate::planner::{mark_bound, plan_patterns};
use std::sync::Arc;
use wukong_net::TaskTimer;
use wukong_obs::{Stage, StageTrace};
use wukong_rdf::{Dir, Key, Vid};

/// The outcome of one query execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    /// Projected variable names, in `SELECT` order — the query's own
    /// list ([`Query::select_names`]), shared by all its results.
    pub var_names: Arc<[String]>,
    /// Projected rows. With `GROUP BY`, one row per group (the group
    /// keys), sorted for determinism.
    pub rows: Vec<Vec<Vid>>,
    /// Aggregate values, parallel to the query's aggregate list
    /// (`None` when no row contributed, e.g. `AVG` over no numerics).
    /// Empty when the query groups (see
    /// [`ResultSet::group_aggregates`]).
    pub aggregates: Vec<Option<f64>>,
    /// With `GROUP BY`: per-row aggregate values, parallel to `rows`.
    pub group_aggregates: Vec<Vec<Option<f64>>>,
    /// Nodes whose fork-join partitions never answered within the RPC
    /// retry budget — their rows are missing (graceful degradation under
    /// injected faults). Empty for complete answers.
    pub unreachable_shards: Vec<u16>,
    /// Nodes that were in the Quarantined state (a detected-corruption
    /// containment, DESIGN.md §13) while this result was produced. Their
    /// contributions are frozen at the pre-quarantine stable VTS until a
    /// rebuild-from-checkpoint restores them; like `unreachable_shards`,
    /// a non-empty list marks the answer as explicitly degraded rather
    /// than silently wrong.
    pub quarantined_shards: Vec<u16>,
    /// Exact staleness accounting when load shedding touched a window
    /// this execution consumed: `None` means the answer is complete with
    /// respect to everything ingested. Attached by the engine's overload
    /// manager — identically for the recompute and incremental paths —
    /// so a shed never produces a silently wrong answer.
    pub degraded: Option<Degraded>,
}

/// The staleness marker of a shed-affected execution (see
/// [`ResultSet::degraded`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Degraded {
    /// Tuples shed (and not yet replayed) from batches inside the
    /// window instances this execution consumed.
    pub tuples_shed: u64,
    /// How many of the consumed window instances lost at least one tuple.
    pub windows_affected: u32,
    /// How many of the consumed window instances reached below a
    /// transient store's eviction watermark: the window fired so far
    /// behind stream time (an outage, a recovery replay, a clock jump)
    /// that data it would have read already aged out of the bounded
    /// ring. The answer is complete w.r.t. what is *retained*, and this
    /// marker says retention no longer covers the window.
    pub windows_aged: u32,
}

impl ResultSet {
    /// The canonical empty result: no rows, no aggregates, no degraded
    /// shards — only the projected variable names. Used wherever a query
    /// cannot or does not run (retired registrations, empty windows)
    /// instead of hand-rolling the literal.
    pub fn empty(var_names: Vec<String>) -> Self {
        ResultSet {
            var_names: var_names.into(),
            rows: Vec::new(),
            aggregates: Vec::new(),
            group_aggregates: Vec::new(),
            unreachable_shards: Vec::new(),
            quarantined_shards: Vec::new(),
            degraded: None,
        }
    }

    /// Number of result rows (before aggregation).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the result has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// `term`'s value in `row`: the constant, or the variable's binding
/// (`None` while unbound).
pub fn concrete(term: Term, row: &[Vid]) -> Option<Vid> {
    match term {
        Term::Const(c) => Some(c),
        Term::Var(v) => {
            let val = row[v as usize];
            (val != UNBOUND).then_some(val)
        }
    }
}

/// Buffers [`execute_step_into`] reuses from step to step; owned by the
/// caller (one per execution), so repeated steps stop allocating once the
/// buffers have grown to the step's fan-out. `reads` is what the rows'
/// tag reads through: the neighbour buffer untagged, the
/// [`crate::exec::ScanMemo`] death-tagged.
#[derive(Debug, Default)]
pub struct StepScratch<T: RowTag = ()> {
    pub(crate) reads: T::Reads,
    subjects: Vec<Vid>,
    keys: Vec<Key>,
}

/// Expansions of at least this many anchors into an unbound target read
/// through [`GraphAccess::neighbors_batch`], where an engine can overlap
/// the lookups' cache misses; rows come out in the same order either way.
///
/// Two full chunks of the engine's chunked read, and conservative: the
/// micro benches (`stored_lookup/{per_key,batched}/N`) put the batched
/// read level with the per-key one at a single key and ahead from eight.
/// What the constant protects is the selective firing — a dozen anchors —
/// whose fixed cost `bench_suite`'s `standing_fanout` floor is calibrated
/// on (ROADMAP item 1a): below 64 nothing changes.
pub const BATCH_MIN_ANCHORS: usize = 64;

/// Executes one step, producing the expanded binding table.
pub fn execute_step(
    step: &Step,
    input: &BindingTable,
    ctx: &ExecContext,
    access: &impl GraphAccess,
    timer: &mut TaskTimer,
) -> BindingTable {
    let mut out = BindingTable::empty(input.width());
    let mut scratch = StepScratch::default();
    execute_step_into(step, input, ctx, access, timer, &mut scratch, &mut out);
    out
}

/// [`execute_step`] into a caller-owned table: `out` is cleared, then
/// filled with the expanded rows, keeping whatever capacity it (and
/// `scratch`) already had.
///
/// The one step kernel, generic over what a row carries. Every derived
/// row consumes one edge occurrence and takes its input row's tag folded
/// with that edge ([`RowTag::consume`]); the tag decides how edges are
/// read ([`EdgeReads`]). Untagged rows read exactly what they did before
/// rows had tags; death-tagged rows read each key once per step, in the
/// same key order, and come out in the same row order.
pub(crate) fn execute_step_into<T: RowTag>(
    step: &Step,
    input: &BindingTable<T>,
    ctx: &ExecContext,
    access: &impl EdgeReads<T>,
    timer: &mut TaskTimer,
    scratch: &mut StepScratch<T>,
    out: &mut BindingTable<T>,
) {
    debug_assert_eq!(out.width(), input.width(), "step output width mismatch");
    out.clear();
    let p = &step.pattern;
    let reads = &mut scratch.reads;

    match step.anchoring() {
        Some((anchor_term, target_term, dir)) => {
            let keys = &mut scratch.keys;
            if input.len() >= BATCH_MIN_ANCHORS
                && expand_batched(step, input, ctx, access, timer, keys, reads, out)
            {
                return;
            }
            for (row, tag) in input.iter_tagged() {
                let anchor = match concrete(anchor_term, row) {
                    Some(v) => v,
                    // The planner anchors only on concrete sides; an
                    // unbound anchor means an upstream bug — drop the row.
                    None => continue,
                };
                let key = Key::new(anchor, p.p, dir);
                match concrete(target_term, row) {
                    to @ Some(_) => access.edges(key, to, p.graph, ctx, timer, reads, |e| {
                        out.push_tagged(row, tag.consume(e).1)
                    }),
                    None => {
                        let var = target_term.var().expect("non-concrete term is a var");
                        access.edges(key, None, p.graph, ctx, timer, reads, |e| {
                            let (n, tag) = tag.consume(e);
                            out.push_bound_tagged(row, tag, var, n);
                        });
                    }
                }
            }
        }
        None => {
            // Enumerate subjects from the predicate index, then expand
            // each subject to its objects. The index is duplicate-free on
            // the persistent store but only per-slice on transient
            // windows, so deduplicate before expanding.
            let subjects = &mut scratch.subjects;
            subjects.clear();
            access.neighbors(Key::index(p.p, Dir::Out), p.graph, ctx, timer, subjects);
            subjects.sort_unstable();
            subjects.dedup();
            let s_var = p.s.var();
            for (row, tag) in input.iter_tagged() {
                let Some((candidates, bind_s)) = step.scan_candidates(subjects, row) else {
                    continue;
                };
                let bound_o = concrete(p.o, row);
                // Repeated variable (`?X p ?X`): both positions must
                // agree, and the subject has the slot.
                let o_is_s = s_var.is_some() && s_var == p.o.var();
                if bound_o.is_none() && !o_is_s && candidates.len() >= BATCH_MIN_ANCHORS {
                    let keys = &mut scratch.keys;
                    let row = (row, tag);
                    scan_batched(step, row, candidates, ctx, access, timer, keys, reads, out);
                    continue;
                }
                for &s in candidates {
                    let key = Key::new(s, p.p, Dir::Out);
                    match bound_o {
                        to @ Some(_) => access.edges(key, to, p.graph, ctx, timer, reads, |e| {
                            let tag = tag.consume(e).1;
                            match bind_s {
                                Some(v) => out.push_bound_tagged(row, tag, v, s),
                                None => out.push_tagged(row, tag),
                            }
                        }),
                        None => {
                            let o_var = p.o.var().expect("non-concrete term is a var");
                            access.edges(key, None, p.graph, ctx, timer, reads, |e| {
                                let (n, tag) = tag.consume(e);
                                match bind_s {
                                    _ if o_is_s && n != s => {}
                                    Some(v) if v != o_var => {
                                        out.push_bound2_tagged(row, tag, (v, s), (o_var, n))
                                    }
                                    _ => out.push_bound_tagged(row, tag, o_var, n),
                                }
                            });
                        }
                    }
                }
            }
        }
    }
}

/// The wide form of a `FromSubject` / `FromObject` step: when every row of
/// `input` is anchored and none has the target bound, reads one key per
/// row as a batch, fills `out` in row order and returns `true`; otherwise
/// leaves `out` alone. Out of line: it runs once per wide step, and the
/// per-key loop beside its call site is every selective firing's hot path.
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn expand_batched<T: RowTag>(
    step: &Step,
    input: &BindingTable<T>,
    ctx: &ExecContext,
    access: &impl EdgeReads<T>,
    timer: &mut TaskTimer,
    keys: &mut Vec<Key>,
    reads: &mut T::Reads,
    out: &mut BindingTable<T>,
) -> bool {
    let p = &step.pattern;
    let Some((anchor_term, target_term, dir)) = step.anchoring() else {
        return false;
    };
    let Some(var) = target_term.var() else {
        return false;
    };
    keys.clear();
    keys.extend(input.iter().map_while(|row| {
        let anchor = concrete(anchor_term, row)?;
        (row[var as usize] == UNBOUND).then(|| Key::new(anchor, p.p, dir))
    }));
    if keys.len() != input.len() {
        return false;
    }
    access.edges_batch(keys, p.graph, ctx, timer, reads, &mut |i, run| {
        let (row, tag) = (input.row(i), input.tag(i));
        for &e in run {
            let (n, tag) = tag.consume(e);
            out.push_bound_tagged(row, tag, var, n);
        }
    });
    true
}

/// The wide form of one input row's `IndexScan` expansion: `candidates`
/// subjects with an unbound object that is not the subject's own variable,
/// read as a batch, appended to `out` in subject order. Out of line for
/// the same reason as [`expand_batched`].
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn scan_batched<T: RowTag>(
    step: &Step,
    (row, tag): (&[Vid], T),
    candidates: &[Vid],
    ctx: &ExecContext,
    access: &impl EdgeReads<T>,
    timer: &mut TaskTimer,
    keys: &mut Vec<Key>,
    reads: &mut T::Reads,
    out: &mut BindingTable<T>,
) {
    let p = &step.pattern;
    let o_var = p.o.var().expect("non-concrete term is a var");
    // A subject the row already binds needs no slot written.
    let bind_s = p.s.var().filter(|&v| row[v as usize] == UNBOUND);
    keys.clear();
    keys.extend(candidates.iter().map(|&s| Key::new(s, p.p, Dir::Out)));
    access.edges_batch(keys, p.graph, ctx, timer, reads, &mut |i, run| {
        let s = candidates[i];
        for &e in run {
            let (n, tag) = tag.consume(e);
            match bind_s {
                Some(v) => out.push_bound2_tagged(row, tag, (v, s), (o_var, n)),
                None => out.push_bound_tagged(row, tag, o_var, n),
            }
        }
    });
}

/// A binding table stepped in place: each step writes into the spare
/// table and the two swap, so a chain of steps allocates only while the
/// pair and the scratch are still growing.
pub(crate) struct StepRunner<T: RowTag = ()> {
    pub(crate) table: BindingTable<T>,
    spare: BindingTable<T>,
    pub(crate) scratch: StepScratch<T>,
}

impl<T: RowTag> StepRunner<T> {
    pub(crate) fn new(table: BindingTable<T>) -> Self {
        StepRunner {
            spare: BindingTable::empty_tagged(table.width()),
            table,
            scratch: StepScratch::default(),
        }
    }

    pub(crate) fn step(
        &mut self,
        step: &Step,
        ctx: &ExecContext,
        access: &impl EdgeReads<T>,
        timer: &mut TaskTimer,
    ) {
        execute_step_into(
            step,
            &self.table,
            ctx,
            access,
            timer,
            &mut self.scratch,
            &mut self.spare,
        );
        std::mem::swap(&mut self.table, &mut self.spare);
    }

    pub(crate) fn into_table(self) -> BindingTable<T> {
        self.table
    }
}

impl StepRunner {
    /// Runs `steps` until one leaves no rows; returns the resulting table.
    fn steps(
        &mut self,
        steps: &[Step],
        ctx: &ExecContext,
        access: &impl GraphAccess,
        timer: &mut TaskTimer,
    ) -> &BindingTable {
        for step in steps {
            self.step(step, ctx, access, timer);
            if self.table.is_empty() {
                break;
            }
        }
        &self.table
    }

    /// [`Self::steps`] starting from the single row `row`.
    fn steps_from_row(
        &mut self,
        row: &[Vid],
        steps: &[Step],
        ctx: &ExecContext,
        access: &impl GraphAccess,
        timer: &mut TaskTimer,
    ) -> &BindingTable {
        self.table.clear();
        self.table.push_row(row);
        self.steps(steps, ctx, access, timer)
    }
}

/// Applies every not-yet-applied filter whose variable is now bound;
/// `applied` tracks filter state across steps.
fn apply_ready_filters(
    table: &mut BindingTable,
    filters: &[Filter],
    applied: &mut [bool],
    lit: &impl LiteralResolver,
) {
    for (i, f) in filters.iter().enumerate() {
        if applied[i] {
            continue;
        }
        // A filter is ready once every row binds its variable. Rows bind
        // variables uniformly per step, so checking the first row suffices.
        let ready = table
            .iter()
            .next()
            .map(|r| r[f.var as usize] != UNBOUND)
            .unwrap_or(false);
        if ready {
            table.retain(|row, ()| f.keeps(row, lit));
            applied[i] = true;
        }
    }
}

fn aggregate_rows<'a>(
    rows: impl Iterator<Item = &'a [Vid]> + Clone,
    aggs: &[Aggregate],
    lit: &impl LiteralResolver,
) -> Vec<Option<f64>> {
    aggs.iter()
        .map(|a| {
            if a.func == AggFunc::Count {
                return Some(rows.clone().count() as f64);
            }
            let vals: Vec<f64> = rows
                .clone()
                .filter_map(|r| lit.numeric(r[a.var as usize]))
                .collect();
            if vals.is_empty() {
                return None;
            }
            Some(match a.func {
                AggFunc::Count => unreachable!("handled above"),
                AggFunc::Sum => vals.iter().sum(),
                AggFunc::Avg => vals.iter().sum::<f64>() / vals.len() as f64,
                AggFunc::Min => vals.iter().cloned().fold(f64::INFINITY, f64::min),
                AggFunc::Max => vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
            })
        })
        .collect()
}

/// Turns a final binding table into the projected [`ResultSet`]: applies
/// any filters that never became "ready" (variables that never bound fail
/// every row), computes aggregates and projects the `SELECT` columns.
pub fn finalize(
    query: &Query,
    mut table: BindingTable,
    applied: &[bool],
    lit: &impl LiteralResolver,
) -> ResultSet {
    // Canonicalize the binding-row order before projecting: the in-place,
    // fork-join, and incremental strategies produce the same multiset of
    // rows in different orders, and projection order, float-aggregation
    // order, and LIMIT truncation all observe it.
    table.sort_rows();
    if applied.iter().any(|a| !a) && !query.filters.is_empty() && !table.is_empty() {
        let unappl: Vec<&Filter> = query
            .filters
            .iter()
            .zip(applied)
            .filter(|(_, a)| !**a)
            .map(|(f, _)| f)
            .collect();
        table.retain(|row, ()| unappl.iter().all(|f| f.keeps(row, lit)));
    }

    let var_names = Arc::clone(&query.select_names);

    if !query.group_by.is_empty() {
        // Group rows by the GROUP BY key; aggregates compute per group.
        let mut groups: std::collections::BTreeMap<Vec<Vid>, Vec<&[Vid]>> =
            std::collections::BTreeMap::new();
        for row in table.iter() {
            let key: Vec<Vid> = query.group_by.iter().map(|&v| row[v as usize]).collect();
            groups.entry(key).or_default().push(row);
        }
        let group_pos = |var: u8| {
            let pos = query.group_by.iter().position(|&g| g == var);
            pos.expect("select and ORDER BY ⊆ group_by is parser-enforced")
        };
        // (key, projected row, aggregates) per group, in key order.
        let mut grouped: Vec<_> = groups
            .into_iter()
            .map(|(key, members)| {
                // Projection re-derives select values from the key order.
                let select = query.select.iter();
                let projected: Vec<Vid> = select.map(|&v| key[group_pos(v)]).collect();
                let aggs = aggregate_rows(members.iter().copied(), &query.aggregates, lit);
                (key, projected, aggs)
            })
            .collect();
        order_rows(query, lit, &mut grouped, |(key, ..), var| {
            key[group_pos(var)]
        });
        if let Some(n) = query.limit {
            grouped.truncate(n);
        }
        let (rows, group_aggregates) = grouped.into_iter().map(|(_, r, a)| (r, a)).unzip();
        return ResultSet {
            var_names,
            rows,
            aggregates: Vec::new(),
            group_aggregates,
            unreachable_shards: Vec::new(),
            quarantined_shards: Vec::new(),
            degraded: None,
        };
    }

    let aggregates = aggregate_rows(table.iter(), &query.aggregates, lit);
    // Sort keys the projection drops ride along as trailing columns until
    // the rows are ordered.
    let hidden: Vec<u8> = query
        .order_by
        .iter()
        .map(|&(v, _)| v)
        .filter(|v| !query.select.contains(v))
        .collect();
    let columns = || query.select.iter().chain(&hidden);
    let mut rows: Vec<Vec<Vid>> = table
        .iter()
        .map(|r| columns().map(|&v| r[v as usize]).collect())
        .collect();
    let width = query.select.len();
    if query.distinct {
        // Sorted, so each projected row keeps its smallest hidden keys.
        rows.sort();
        rows.dedup_by(|a, b| a[..width] == b[..width]);
    }
    let col = |var: u8| {
        columns()
            .position(|&c| c == var)
            .expect("every key is a column")
    };
    order_rows(query, lit, &mut rows, |row, var| row[col(var)]);
    if let Some(n) = query.limit {
        rows.truncate(n);
    }
    if !hidden.is_empty() {
        rows.iter_mut().for_each(|r| r.truncate(width));
    }
    ResultSet {
        var_names,
        rows,
        aggregates,
        group_aggregates: Vec::new(),
        unreachable_shards: Vec::new(),
        quarantined_shards: Vec::new(),
        degraded: None,
    }
}

/// Stable-sorts `items` by the query's `ORDER BY` keys, `value(item, var)`
/// reading a key. SPARQL ordering: numeric when the value is a number,
/// otherwise lexical by display name, otherwise by ID; unbound sorts last.
fn order_rows<T>(
    query: &Query,
    lit: &impl LiteralResolver,
    items: &mut [T],
    value: impl Fn(&T, u8) -> Vid,
) {
    if query.order_by.is_empty() {
        return;
    }
    let key_of = |v: Vid| -> (u8, f64, String, u64) {
        if v == UNBOUND {
            return (3, 0.0, String::new(), u64::MAX);
        }
        if let Some(n) = lit.numeric(v) {
            (0, n, String::new(), v.0)
        } else if let Some(s) = lit.display(v) {
            (1, 0.0, s, v.0)
        } else {
            (2, 0.0, String::new(), v.0)
        }
    };
    items.sort_by(|a, b| {
        for &(var, desc) in &query.order_by {
            let ka = key_of(value(a, var));
            let kb = key_of(value(b, var));
            let ord = ka.partial_cmp(&kb).unwrap_or(std::cmp::Ordering::Equal);
            let ord = if desc { ord.reverse() } else { ord };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
}

/// The variables `patterns` bind: what a nested block plans against.
fn bound_by<'a>(query: &Query, patterns: impl IntoIterator<Item = &'a TriplePattern>) -> Vec<bool> {
    let mut bound = vec![false; query.var_count as usize];
    patterns.into_iter().for_each(|p| mark_bound(p, &mut bound));
    bound
}

/// Applies the query's `OPTIONAL` block to `table`: rows that match the
/// optional patterns extend with the new bindings; rows that do not are
/// kept unchanged (left outer join).
fn apply_optional(
    query: &Query,
    table: BindingTable,
    ctx: &ExecContext,
    access: &impl GraphAccess,
    timer: &mut TaskTimer,
) -> BindingTable {
    if query.optional.is_empty() || table.is_empty() {
        return table;
    }
    let bound = bound_by(query, &query.patterns);
    let plan = plan_patterns(&query.optional, &bound, access, ctx);

    let mut out = BindingTable::empty(table.width());
    let mut run = StepRunner::new(BindingTable::empty(table.width()));
    for row in table.iter() {
        let sub = run.steps_from_row(row, &plan.steps, ctx, access, timer);
        if sub.is_empty() {
            out.push_row(row);
        } else {
            for r in sub.iter() {
                out.push_row(r);
            }
        }
    }
    out
}

/// Applies the query's `UNION` groups to `table`: each group joins the
/// required bindings independently; results concatenate (bag union).
fn apply_union(
    query: &Query,
    table: BindingTable,
    ctx: &ExecContext,
    access: &impl GraphAccess,
    timer: &mut TaskTimer,
) -> BindingTable {
    if query.union_groups.is_empty() || table.is_empty() {
        return table;
    }
    let bound = bound_by(query, &query.patterns);
    let mut out = BindingTable::empty(table.width());
    for group in &query.union_groups {
        let plan = plan_patterns(group, &bound, access, ctx);
        let mut run = StepRunner::new(table.clone());
        for row in run.steps(&plan.steps, ctx, access, timer).iter() {
            out.push_row(row);
        }
    }
    out
}

/// Applies the query's `FILTER NOT EXISTS` groups: a row survives only
/// when no group matches under its bindings.
fn apply_not_exists(
    query: &Query,
    table: BindingTable,
    ctx: &ExecContext,
    access: &impl GraphAccess,
    timer: &mut TaskTimer,
) -> BindingTable {
    if query.not_exists.is_empty() || table.is_empty() {
        return table;
    }
    let required = query.patterns.iter();
    let bound = bound_by(query, required.chain(query.union_groups.iter().flatten()));
    let plans: Vec<Plan> = query
        .not_exists
        .iter()
        .map(|g| plan_patterns(g, &bound, access, ctx))
        .collect();

    let mut out = BindingTable::empty(table.width());
    let mut run = StepRunner::new(BindingTable::empty(table.width()));
    'rows: for row in table.iter() {
        for plan in &plans {
            if !run
                .steps_from_row(row, &plan.steps, ctx, access, timer)
                .is_empty()
            {
                continue 'rows; // a witness exists: the row is filtered out
            }
        }
        out.push_row(row);
    }
    out
}

/// Executes a full plan for `query`, returning the projected results.
pub fn execute(
    query: &Query,
    plan: &Plan,
    ctx: &ExecContext,
    access: &impl GraphAccess,
    lit: &impl LiteralResolver,
    timer: &mut TaskTimer,
) -> ResultSet {
    let mut trace = StageTrace::new();
    execute_traced(query, plan, ctx, access, lit, timer, &mut trace)
}

/// [`execute`] with staged latency attribution: the matching phase (step
/// loop, UNION, NOT EXISTS, OPTIONAL) lands in [`Stage::PatternMatch`]
/// and projection/aggregation in [`Stage::ResultEmit`]. Spans are deltas
/// of the timer's *total* (real + charged virtual) time, so they add up
/// to the latency the engine reports.
pub fn execute_traced(
    query: &Query,
    plan: &Plan,
    ctx: &ExecContext,
    access: &impl GraphAccess,
    lit: &impl LiteralResolver,
    timer: &mut TaskTimer,
    trace: &mut StageTrace,
) -> ResultSet {
    let mut fanout = Vec::new();
    execute_with_fanout(
        query,
        plan,
        ctx,
        access,
        lit,
        timer,
        trace,
        &mut fanout,
        None,
    )
}

/// A distributed expansion of one main-plan step (the engine's fork-join):
/// fills the last argument (cleared first) with the second expanded by
/// the step, charging its cost to the timer.
pub type Fork<'a> = &'a mut dyn FnMut(&Step, &BindingTable, &mut TaskTimer, &mut BindingTable);

/// The step loop behind every execution: [`execute_traced`], additionally
/// recording the per-step cardinality feedback the adaptive planner
/// consumes — for every main-loop step, the binding-table sizes
/// `(input_rows, output_rows)` measured *before* filters prune the step's
/// output, the raw fan-out comparable to `Step::estimate`. `fanout` is
/// cleared first and gets exactly one entry per plan step (steps skipped
/// by the empty-table short-circuit report `(0, 0)`).
///
/// With a `fork`, the main plan's steps expand through it instead of
/// in place: they are additionally attributed to
/// [`Stage::ForkJoinFanout`] and the home-node UNION / NOT EXISTS /
/// OPTIONAL to [`Stage::ForkJoinMerge`] (both overlap `PatternMatch` —
/// attribution, not additional latency), and `fanout` stays empty: a
/// forked run feeds no drift detector.
#[allow(clippy::too_many_arguments)]
pub fn execute_with_fanout(
    query: &Query,
    plan: &Plan,
    ctx: &ExecContext,
    access: &impl GraphAccess,
    lit: &impl LiteralResolver,
    timer: &mut TaskTimer,
    trace: &mut StageTrace,
    fanout: &mut Vec<(u64, u64)>,
    mut fork: Option<Fork<'_>>,
) -> ResultSet {
    let mut run = StepRunner::new(BindingTable::seed(query.var_count as usize));
    let mut applied = vec![false; query.filters.len()];
    let forked = fork.is_some();
    let t0 = timer.total_ns();
    let mut forked_ns = 0u64;

    let match_span = wukong_obs::trace::scoped_span(Stage::PatternMatch);
    let fanout_span = forked.then(|| wukong_obs::trace::scoped_span(Stage::ForkJoinFanout));
    fanout.clear();
    if !forked {
        fanout.resize(plan.steps.len(), (0, 0));
    }
    for (si, step) in plan.steps.iter().enumerate() {
        match fork.as_deref_mut() {
            None => {
                let in_rows = run.table.len() as u64;
                run.step(step, ctx, access, timer);
                fanout[si] = (in_rows, run.table.len() as u64);
            }
            Some(expand) => {
                let start = timer.total_ns();
                expand(step, &run.table, timer, &mut run.spare);
                std::mem::swap(&mut run.table, &mut run.spare);
                forked_ns += timer.total_ns().saturating_sub(start);
            }
        }
        apply_ready_filters(&mut run.table, &query.filters, &mut applied, lit);
        if run.table.is_empty() {
            break;
        }
    }
    drop(fanout_span);
    // Frees the spare table and the scratch before projection allocates.
    let mut table = run.into_table();

    let merge = forked.then(|| {
        let start = timer.total_ns();
        (start, wukong_obs::trace::scoped_span(Stage::ForkJoinMerge))
    });
    table = apply_union(query, table, ctx, access, timer);
    apply_ready_filters(&mut table, &query.filters, &mut applied, lit);
    table = apply_not_exists(query, table, ctx, access, timer);
    table = apply_optional(query, table, ctx, access, timer);
    let merge_start = merge.map(|(start, _merge_span)| start);
    drop(match_span);
    let matched = timer.total_ns();
    trace.add(Stage::PatternMatch, matched.saturating_sub(t0));
    if let Some(start) = merge_start {
        trace.add(Stage::ForkJoinFanout, forked_ns);
        trace.add(Stage::ForkJoinMerge, matched.saturating_sub(start));
    }
    let emit_span = wukong_obs::trace::scoped_span(Stage::ResultEmit);
    let out = finalize(query, table, &applied, lit);
    drop(emit_span);
    trace.add(Stage::ResultEmit, timer.total_ns().saturating_sub(matched));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{NoLiterals, PatternSource, StringLiteralResolver};
    use crate::parse_query;
    use crate::plan::StepMode;
    use crate::planner::plan_query;
    use wukong_rdf::{StringServer, Triple};
    use wukong_store::{BaseStore, SnapshotId};

    /// GraphAccess over a single local BaseStore (stored graph only; the
    /// stream path is tested through the engine in `wukong-core`).
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

    /// Builds the Fig. 1 stored graph (X-Lab).
    fn x_lab(ss: &StringServer) -> BaseStore {
        let mut st = BaseStore::new();
        let mut add = |s: &str, p: &str, o: &str| {
            st.insert_base(Triple::new(
                ss.intern_entity(s).unwrap(),
                ss.intern_predicate(p).unwrap(),
                ss.intern_entity(o).unwrap(),
            ));
        };
        add("Logan", "fo", "Erik");
        add("Erik", "fo", "Logan");
        add("Logan", "po", "T-13");
        add("Logan", "po", "T-14");
        add("Erik", "po", "T-12");
        add("T-12", "ht", "#sosp17");
        add("T-13", "ht", "#sosp17");
        add("Erik", "li", "T-13");
        st
    }

    fn run(ss: &StringServer, st: &BaseStore, text: &str) -> ResultSet {
        let q = parse_query(ss, text).unwrap();
        let access = LocalAccess(st);
        let ctx = ExecContext::stored(SnapshotId::BASE);
        let plan = plan_query(&q, &access, &ctx);
        let mut timer = TaskTimer::start();
        execute(&q, &plan, &ctx, &access, &NoLiterals, &mut timer)
    }

    #[test]
    fn fig2_oneshot_returns_t13() {
        // QS: tweets posted by Logan with hashtag #sosp17 liked by Erik.
        let ss = StringServer::new();
        let st = x_lab(&ss);
        let rs = run(
            &ss,
            &st,
            "SELECT ?X WHERE { Logan po ?X . ?X ht #sosp17 . Erik li ?X }",
        );
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0][0], ss.entity_id("T-13").unwrap());
    }

    #[test]
    fn join_across_patterns() {
        // Who follows someone who posted a #sosp17 tweet?
        let ss = StringServer::new();
        let st = x_lab(&ss);
        let rs = run(
            &ss,
            &st,
            "SELECT ?X ?Y WHERE { ?X fo ?Y . ?Y po ?Z . ?Z ht #sosp17 }",
        );
        // Logan→Erik (T-12) and Erik→Logan (T-13).
        assert_eq!(rs.rows.len(), 2);
    }

    #[test]
    fn const_object_anchor() {
        let ss = StringServer::new();
        let st = x_lab(&ss);
        let rs = run(&ss, &st, "SELECT ?X WHERE { ?X ht #sosp17 }");
        assert_eq!(rs.rows.len(), 2);
    }

    #[test]
    fn empty_result_when_no_match() {
        let ss = StringServer::new();
        let st = x_lab(&ss);
        let rs = run(&ss, &st, "SELECT ?X WHERE { Thor po ?X }");
        assert!(rs.is_empty());
    }

    #[test]
    fn count_aggregate() {
        let ss = StringServer::new();
        let st = x_lab(&ss);
        let rs = run(&ss, &st, "SELECT COUNT(?X) WHERE { Logan po ?X }");
        assert_eq!(rs.aggregates, vec![Some(2.0)]);
    }

    #[test]
    fn numeric_filter_and_avg() {
        let ss = StringServer::new();
        let mut st = BaseStore::new();
        let density = ss.intern_predicate("density").unwrap();
        for (sensor, val) in [("s1", "10"), ("s2", "30"), ("s3", "50")] {
            st.insert_base(Triple::new(
                ss.intern_entity(sensor).unwrap(),
                density,
                ss.intern_entity(val).unwrap(),
            ));
        }
        let q = parse_query(
            &ss,
            "SELECT AVG(?v) WHERE { ?s density ?v FILTER(?v > 15) }",
        )
        .unwrap();
        let access = LocalAccess(&st);
        let ctx = ExecContext::stored(SnapshotId::BASE);
        let plan = plan_query(&q, &access, &ctx);
        let mut timer = TaskTimer::start();
        let rs = execute(
            &q,
            &plan,
            &ctx,
            &access,
            &StringLiteralResolver(&ss),
            &mut timer,
        );
        assert_eq!(rs.aggregates, vec![Some(40.0)]);
    }

    #[test]
    fn distinct_dedups_and_limit_truncates() {
        let ss = StringServer::new();
        let st = x_lab(&ss);
        // Two tagged tweets → 2 rows plain, 1 distinct tag.
        let rs = run(&ss, &st, "SELECT DISTINCT ?T WHERE { ?X ht ?T }");
        assert_eq!(rs.rows.len(), 1);
        let rs = run(&ss, &st, "SELECT ?T WHERE { ?X ht ?T } LIMIT 1");
        assert_eq!(rs.rows.len(), 1);
        let rs = run(&ss, &st, "SELECT ?T WHERE { ?X ht ?T } LIMIT 0");
        assert!(rs.is_empty());
    }

    #[test]
    fn not_exists_filters_witnessed_rows() {
        // Logan's posts that Erik has NOT liked.
        let ss = StringServer::new();
        let st = x_lab(&ss);
        let rs = run(
            &ss,
            &st,
            "SELECT ?X WHERE { Logan po ?X FILTER NOT EXISTS { Erik li ?X } }",
        );
        // Logan posted T-13 (liked by Erik) and T-14 (not liked).
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0][0], ss.entity_id("T-14").unwrap());

        // A never-matching group filters nothing.
        let rs = run(
            &ss,
            &st,
            "SELECT ?X WHERE { Logan po ?X FILTER NOT EXISTS { ?X nosuch ?Y } }",
        );
        assert_eq!(rs.rows.len(), 2);
    }

    #[test]
    fn union_is_bag_union_of_alternatives() {
        // Tweets by Logan that are tagged OR liked by Erik.
        let ss = StringServer::new();
        let st = x_lab(&ss);
        let rs = run(
            &ss,
            &st,
            "SELECT ?X WHERE { Logan po ?X UNION { ?X ht #sosp17 } UNION { Erik li ?X } }",
        );
        // Logan posted T-13 (tagged AND liked → twice) and T-14 (neither).
        let t13 = ss.entity_id("T-13").unwrap();
        assert_eq!(rs.rows.iter().filter(|r| r[0] == t13).count(), 2);
        assert_eq!(rs.rows.len(), 2);
    }

    #[test]
    fn order_by_sorts_numerically_then_lexically() {
        let ss = StringServer::new();
        let mut st = BaseStore::new();
        let val = ss.intern_predicate("val").unwrap();
        for (s0, v) in [("a", "30"), ("b", "7"), ("c", "100")] {
            st.insert_base(Triple::new(
                ss.intern_entity(s0).unwrap(),
                val,
                ss.intern_entity(v).unwrap(),
            ));
        }
        let q = parse_query(&ss, "SELECT ?S ?V WHERE { ?S val ?V } ORDER BY ?V").unwrap();
        let access = LocalAccess(&st);
        let ctx = ExecContext::stored(SnapshotId::BASE);
        let plan = plan_query(&q, &access, &ctx);
        let mut timer = TaskTimer::start();
        let rs = execute(
            &q,
            &plan,
            &ctx,
            &access,
            &StringLiteralResolver(&ss),
            &mut timer,
        );
        let vals: Vec<String> = rs
            .rows
            .iter()
            .map(|r| ss.entity_name(r[1]).unwrap())
            .collect();
        assert_eq!(vals, ["7", "30", "100"], "numeric, not lexical");

        // DESC + LIMIT = top-k.
        let q = parse_query(
            &ss,
            "SELECT ?S ?V WHERE { ?S val ?V } ORDER BY DESC(?V) LIMIT 1",
        )
        .unwrap();
        let plan = plan_query(&q, &access, &ctx);
        let rs = execute(
            &q,
            &plan,
            &ctx,
            &access,
            &StringLiteralResolver(&ss),
            &mut timer,
        );
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(ss.entity_name(rs.rows[0][1]).unwrap(), "100");

        // Lexical ordering of non-numeric names.
        let q = parse_query(&ss, "SELECT ?S WHERE { ?S val ?V } ORDER BY ?S").unwrap();
        let plan = plan_query(&q, &access, &ctx);
        let rs = execute(
            &q,
            &plan,
            &ctx,
            &access,
            &StringLiteralResolver(&ss),
            &mut timer,
        );
        let names: Vec<String> = rs
            .rows
            .iter()
            .map(|r| ss.entity_name(r[0]).unwrap())
            .collect();
        assert_eq!(names, ["a", "b", "c"]);

        // Keys the projection drops still order the rows (with DISTINCT
        // too), and grouped results order by their group keys.
        let names = |text: &str| -> Vec<String> {
            let q = parse_query(&ss, text).unwrap();
            let plan = plan_query(&q, &access, &ctx);
            let lit = StringLiteralResolver(&ss);
            let rs = execute(&q, &plan, &ctx, &access, &lit, &mut TaskTimer::start());
            let first = rs.rows.iter().map(|r| ss.entity_name(r[0]).unwrap());
            first.collect()
        };
        assert_eq!(
            names("SELECT ?S WHERE { ?S val ?V } ORDER BY ?V"),
            ["b", "a", "c"]
        );
        assert_eq!(
            names("SELECT DISTINCT ?S WHERE { ?S val ?V } ORDER BY DESC(?V) LIMIT 2"),
            ["c", "a"]
        );
        assert_eq!(
            names("SELECT ?S COUNT(?V) WHERE { ?S val ?V } GROUP BY ?S ORDER BY DESC(?S)"),
            ["c", "b", "a"]
        );
        assert_eq!(
            names("SELECT COUNT(?S) ?V WHERE { ?S val ?V } GROUP BY ?V ?S ORDER BY ?S"),
            ["30", "7", "100"]
        );
    }

    #[test]
    fn optional_is_left_outer_join() {
        // Every poster, with their hashtag when the tweet has one.
        let ss = StringServer::new();
        let st = x_lab(&ss);
        let rs = run(
            &ss,
            &st,
            "SELECT ?X ?T WHERE { Logan po ?X OPTIONAL { ?X ht ?T } }",
        );
        // Logan posted T-13 (tagged #sosp17) and T-14 (untagged).
        assert_eq!(rs.rows.len(), 2);
        let tag = ss.entity_id("#sosp17").unwrap();
        let t13 = ss.entity_id("T-13").unwrap();
        let t14 = ss.entity_id("T-14").unwrap();
        assert!(rs.rows.contains(&vec![t13, tag]));
        assert!(rs
            .rows
            .iter()
            .any(|r| r[0] == t14 && r[1] == crate::bindings::UNBOUND));
    }

    #[test]
    fn optional_with_no_matches_keeps_all_rows() {
        let ss = StringServer::new();
        let st = x_lab(&ss);
        let rs = run(
            &ss,
            &st,
            "SELECT ?X ?W WHERE { Logan po ?X OPTIONAL { ?X nosuchpred ?W } }",
        );
        assert_eq!(rs.rows.len(), 2);
        assert!(rs.rows.iter().all(|r| r[1] == crate::bindings::UNBOUND));
    }

    #[test]
    fn group_by_computes_per_group_aggregates() {
        let ss = StringServer::new();
        let mut st = BaseStore::new();
        let density = ss.intern_predicate("density").unwrap();
        for (sensor, val) in [("s1", "10"), ("s1", "30"), ("s2", "50")] {
            st.insert_base(Triple::new(
                ss.intern_entity(sensor).unwrap(),
                density,
                ss.intern_entity(val).unwrap(),
            ));
        }
        let q = parse_query(
            &ss,
            "SELECT ?S AVG(?V) COUNT(?V) WHERE { ?S density ?V } GROUP BY ?S",
        )
        .unwrap();
        let access = LocalAccess(&st);
        let ctx = ExecContext::stored(SnapshotId::BASE);
        let plan = plan_query(&q, &access, &ctx);
        let mut timer = TaskTimer::start();
        let rs = execute(
            &q,
            &plan,
            &ctx,
            &access,
            &StringLiteralResolver(&ss),
            &mut timer,
        );
        assert_eq!(rs.rows.len(), 2);
        assert!(rs.aggregates.is_empty());
        let s1 = ss.entity_id("s1").unwrap();
        let i = rs.rows.iter().position(|r| r[0] == s1).expect("s1 group");
        assert_eq!(rs.group_aggregates[i], vec![Some(20.0), Some(2.0)]);
        assert_eq!(rs.group_aggregates[1 - i], vec![Some(50.0), Some(1.0)]);
    }

    #[test]
    fn repeated_variable_self_loop_pattern() {
        // `?X p ?X` must bind only self-loops (regression: the index-scan
        // expansion used to overwrite the shared slot).
        let ss = StringServer::new();
        let mut st = BaseStore::new();
        let p = ss.intern_predicate("p").unwrap();
        let a = ss.intern_entity("a").unwrap();
        let b = ss.intern_entity("b").unwrap();
        st.insert_base(Triple::new(a, p, b));
        st.insert_base(Triple::new(b, p, b));
        let rs = run(&ss, &st, "SELECT ?X WHERE { ?X p ?X }");
        assert_eq!(rs.rows, vec![vec![b]]);
    }

    /// The pre-rewrite index-scan arm of `execute_step`: walks every
    /// subject for every input row and builds each output row in a
    /// temporary `Vec`. Kept as the oracle the rewritten arm is compared
    /// against.
    fn index_scan_oracle(
        step: &Step,
        input: &BindingTable,
        ctx: &ExecContext,
        access: &impl GraphAccess,
        timer: &mut TaskTimer,
    ) -> BindingTable {
        let mut out = BindingTable::empty(input.width());
        let p = &step.pattern;
        let mut buf: Vec<Vid> = Vec::new();
        let mut subjects: Vec<Vid> = Vec::new();
        access.neighbors(
            Key::index(p.p, Dir::Out),
            p.graph,
            ctx,
            timer,
            &mut subjects,
        );
        subjects.sort_unstable();
        subjects.dedup();
        let s_var = p.s.var();
        for row in input.iter() {
            for &s in &subjects {
                if let Some(bound_s) = concrete(p.s, row) {
                    if bound_s != s {
                        continue;
                    }
                }
                let key = Key::new(s, p.p, Dir::Out);
                match concrete(p.o, row) {
                    Some(t) => {
                        for _ in 0..access.count_occurrences(key, t, p.graph, ctx, timer) {
                            match s_var {
                                Some(v) if row[v as usize] == UNBOUND => out.push_bound(row, v, s),
                                _ => out.push_row(row),
                            }
                        }
                    }
                    None => {
                        let o_var = p.o.var().expect("non-concrete term is a var");
                        buf.clear();
                        access.neighbors(key, p.graph, ctx, timer, &mut buf);
                        for &n in &buf {
                            let mut tmp = row.to_vec();
                            if let Some(v) = s_var {
                                if tmp[v as usize] == UNBOUND {
                                    tmp[v as usize] = s;
                                }
                            }
                            if s_var == Some(o_var) && tmp[o_var as usize] != n {
                                continue;
                            }
                            tmp[o_var as usize] = n;
                            out.push_row(&tmp);
                        }
                    }
                }
            }
        }
        out
    }

    #[test]
    fn index_scan_arm_matches_the_row_copying_one() {
        use crate::ast::TriplePattern;
        // A small graph with duplicate edges and self-loops over
        // vertices 1..=6, scanned with every subject/object term shape
        // from input rows that leave the terms' variables unbound, bind
        // them to present vertices, and bind them to absent ones.
        let p = wukong_rdf::Pid(1);
        let mut st = BaseStore::new();
        let mut seed = 3u64;
        let mut next = || {
            seed = seed
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            Vid((seed >> 33) % 6 + 1)
        };
        for _ in 0..30 {
            st.insert_base(Triple::new(next(), p, next()));
        }
        let access = LocalAccess(&st);
        let ctx = ExecContext::stored(SnapshotId::BASE);

        let mut input = BindingTable::empty(3);
        for a in [UNBOUND, Vid(2), Vid(5), Vid(99)] {
            for b in [UNBOUND, Vid(1), Vid(5), Vid(42)] {
                input.push_row(&[a, b, Vid(7)]);
            }
        }
        let terms = [
            Term::Var(0),
            Term::Var(1),
            Term::Const(Vid(5)),
            Term::Const(Vid(77)),
        ];
        for s in terms {
            for o in terms {
                let step = Step {
                    pattern: TriplePattern {
                        s,
                        p,
                        o,
                        graph: PatternSource::Stored,
                    },
                    mode: StepMode::IndexScan,
                    estimate: 0,
                };
                let mut timer = TaskTimer::start();
                let got = execute_step(&step, &input, &ctx, &access, &mut timer);
                let want = index_scan_oracle(&step, &input, &ctx, &access, &mut timer);
                assert_eq!(got, want, "pattern {s:?} p {o:?}");
            }
        }
        // `?X p ?X` from unbound rows binds exactly the self-loops.
        let step = Step {
            pattern: TriplePattern {
                s: Term::Var(0),
                p,
                o: Term::Var(0),
                graph: PatternSource::Stored,
            },
            mode: StepMode::IndexScan,
            estimate: 0,
        };
        let mut timer = TaskTimer::start();
        let seed_row = BindingTable::seed(3);
        let got = execute_step(&step, &seed_row, &ctx, &access, &mut timer);
        assert!(!got.is_empty(), "the graph has self-loops");
        assert!(got.iter().all(|r| st.exists_at(r[0], p, r[0], ctx.sn)));
    }

    /// [`LocalAccess`] that counts the keys it is handed in batches and
    /// serves them chunk by chunk, each chunk's lists fetched in reverse
    /// before any is visited — an implementation free to read in any
    /// order, as long as it visits in key order.
    struct Batching<'a>(LocalAccess<'a>, std::cell::Cell<usize>);

    impl GraphAccess for Batching<'_> {
        fn neighbors(
            &self,
            key: Key,
            src: PatternSource,
            ctx: &ExecContext,
            timer: &mut TaskTimer,
            out: &mut Vec<Vid>,
        ) {
            self.0.neighbors(key, src, ctx, timer, out)
        }

        fn neighbors_batch(
            &self,
            keys: &[Key],
            src: PatternSource,
            ctx: &ExecContext,
            timer: &mut TaskTimer,
            visit: &mut dyn FnMut(usize, &[Vid]),
        ) {
            self.1.set(self.1.get() + keys.len());
            for (c, chunk) in keys.chunks(7).enumerate() {
                let mut lists = vec![Vec::new(); chunk.len()];
                for (list, &key) in lists.iter_mut().zip(chunk).rev() {
                    self.0.neighbors(key, src, ctx, timer, list);
                }
                for (j, list) in lists.iter().enumerate() {
                    // Runs may split a key's neighbours anywhere.
                    let (head, tail) = list.split_at(list.len() / 2);
                    visit(c * 7 + j, head);
                    visit(c * 7 + j, tail);
                }
            }
        }

        fn estimate(&self, key: Key, src: PatternSource, ctx: &ExecContext) -> usize {
            self.0.estimate(key, src, ctx)
        }
    }

    #[test]
    fn batched_expansion_matches_per_key_expansion_in_every_mode() {
        use crate::ast::TriplePattern;
        // 200 vertices with duplicate edges and self-loops; wide inputs,
        // so anchors outnumber `BATCH_MIN_ANCHORS` several times over.
        let p = wukong_rdf::Pid(1);
        let mut st = BaseStore::new();
        let mut seed = 9u64;
        let mut next = || {
            seed = seed
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            Vid((seed >> 33) % 200 + 1)
        };
        for _ in 0..900 {
            st.insert_base(Triple::new(next(), p, next()));
        }
        let ctx = ExecContext::stored(SnapshotId::BASE);
        let step = |s, o, mode| Step {
            pattern: TriplePattern {
                s,
                p,
                o,
                graph: PatternSource::Stored,
            },
            mode,
            estimate: 0,
        };
        // Slot 0 anchors (some vertices absent from the graph), slot 1 is
        // free, slot 2 rides along.
        let mut anchored = BindingTable::empty(3);
        for i in 0..300 {
            anchored.push_row(&[Vid(i % 230 + 1), UNBOUND, Vid(i)]);
        }
        let mut both_bound = BindingTable::empty(3);
        for i in 0..300 {
            both_bound.push_row(&[Vid(i % 230 + 1), Vid(i % 7 + 1), Vid(i)]);
        }
        let seed_row = BindingTable::seed(3);
        let subjects = st.len_at(Key::index(p, Dir::Out), ctx.sn);
        assert!(subjects >= 3 * BATCH_MIN_ANCHORS);
        let (x, y) = (Term::Var(0), Term::Var(1));
        use StepMode::{FromObject, FromSubject, IndexScan};
        // (step, input, anchors expected to go through `neighbors_batch`)
        let cases = [
            (step(x, y, FromSubject), &anchored, 300),
            (step(y, x, FromObject), &anchored, 300),
            (step(Term::Const(Vid(5)), y, FromSubject), &anchored, 300),
            // A bound target is a containment check: per key.
            (step(x, y, FromSubject), &both_bound, 0),
            (step(x, Term::Const(Vid(3)), FromSubject), &anchored, 0),
            // Too few anchors: per key.
            (step(x, y, FromSubject), &seed_row, 0),
            (step(x, y, IndexScan), &seed_row, subjects),
            // Each row's bound subject leaves one candidate: per key.
            (step(x, y, IndexScan), &anchored, 0),
            // `?X p ?X` and a bound object: per key.
            (step(x, x, IndexScan), &seed_row, 0),
            (step(x, Term::Const(Vid(3)), IndexScan), &seed_row, 0),
        ];
        for (step, input, batched_keys) in cases {
            let batching = Batching(LocalAccess(&st), Default::default());
            let mut timer = TaskTimer::start();
            let got = execute_step(&step, input, &ctx, &batching, &mut timer);
            // The reference never sees 64 anchors at once: one input row
            // at a time for the anchored modes, the row-copying oracle
            // (one `neighbors` call per subject) for the scan.
            let mut want = BindingTable::empty(3);
            if step.mode == IndexScan {
                want = index_scan_oracle(&step, input, &ctx, &LocalAccess(&st), &mut timer);
            } else {
                for row in input.iter() {
                    let mut one = BindingTable::empty(3);
                    one.push_row(row);
                    let out = execute_step(&step, &one, &ctx, &LocalAccess(&st), &mut timer);
                    out.iter().for_each(|r| want.push_row(r));
                }
            }
            let shape = format!("{:?} {:?} {:?}", step.pattern.s, step.mode, step.pattern.o);
            assert_eq!(got, want, "{shape}");
            assert_eq!(batching.1.get(), batched_keys, "{shape}: batched anchors");
            assert!(
                batched_keys == 0 || !got.is_empty(),
                "{shape} must match rows"
            );
        }
    }

    #[test]
    fn stepping_into_a_reused_table_matches_fresh_tables() {
        // One output table and one scratch reused across steps and across
        // executions must not leak rows or neighbours between them.
        let ss = StringServer::new();
        let st = x_lab(&ss);
        let access = LocalAccess(&st);
        let ctx = ExecContext::stored(SnapshotId::BASE);
        let mut scratch = StepScratch::default();
        let mut out = BindingTable::empty(3);
        for text in [
            "SELECT ?X ?Y WHERE { ?X fo ?Y . ?Y po ?Z . ?Z ht #sosp17 }",
            "SELECT ?X ?Y WHERE { ?X fo ?Y . ?Y fo ?X }",
            "SELECT ?X WHERE { Thor po ?X }",
        ] {
            let q = parse_query(&ss, text).unwrap();
            let plan = plan_query(&q, &access, &ctx);
            let mut fresh = BindingTable::seed(3);
            let mut reused = BindingTable::seed(3);
            let mut timer = TaskTimer::start();
            for step in &plan.steps {
                fresh = execute_step(step, &fresh, &ctx, &access, &mut timer);
                execute_step_into(
                    step,
                    &reused,
                    &ctx,
                    &access,
                    &mut timer,
                    &mut scratch,
                    &mut out,
                );
                std::mem::swap(&mut reused, &mut out);
                assert_eq!(reused, fresh, "{text}");
            }
        }
    }

    #[test]
    fn empty_constructor_matches_finalize_of_empty_table() {
        let ss = StringServer::new();
        let q = parse_query(&ss, "SELECT ?X ?Y WHERE { ?X fo ?Y }").unwrap();
        let empty = ResultSet::empty(vec!["X".into(), "Y".into()]);
        assert!(empty.is_empty());
        assert_eq!(empty.len(), 0);
        let finalized = finalize(
            &q,
            BindingTable::empty(q.var_count as usize),
            &[],
            &NoLiterals,
        );
        assert_eq!(empty, finalized);
    }

    #[test]
    fn cyclic_pattern_contains_check() {
        // Mutual follow: ?X fo ?Y . ?Y fo ?X — second step is a
        // contains-check on two bound vars.
        let ss = StringServer::new();
        let st = x_lab(&ss);
        let rs = run(&ss, &st, "SELECT ?X ?Y WHERE { ?X fo ?Y . ?Y fo ?X }");
        assert_eq!(rs.rows.len(), 2); // (Logan,Erik) and (Erik,Logan)
    }
}
