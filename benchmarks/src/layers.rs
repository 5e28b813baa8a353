//! Per-layer replays: each layer's public API driven directly on the
//! run's own inputs, outside the engine.
//!
//! The engine-level spans say where a pass spends its time; these say
//! what each layer costs on its own, so a layer-local change shows up
//! under the layer's name even when the engine path hides it.

use crate::workload::{Inputs, BATCH_MS, PROBE_REPS};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use wukong_benchdata::lsbench::oneshot_query;
use wukong_core::access::NodeAccess;
use wukong_core::WukongS;
use wukong_net::{NodeId, TaskTimer, WorkerPool};
use wukong_obs::{LatencyHistogram, PoolCounters, Stage, StageTrace};
use wukong_query::exec::{ExecContext, StringLiteralResolver, WindowInstance};
use wukong_query::incremental::maintain;
use wukong_query::{execute_traced, parse_query, plan_query, Query};
use wukong_rdf::{ntriples, StreamId, StreamTuple, StringServer, Timestamp, Triple};
use wukong_store::{
    gc, BaseStore, IndexBatch, PersistentShard, ShardMap, SnapshotId, StreamIndex, TransientSlice,
    TransientStore,
};
use wukong_stream::window::StreamWindow;
use wukong_stream::{
    dispatch, Adaptor, Batch, Coordinator, InjectStats, Injector, NodeStreamStore, StalenessBound,
    SubBatch, Vts, WindowState,
};

/// `(metric name, value)` pairs of one replay.
pub type Values = Vec<(&'static str, f64)>;

fn per(total_ns: u64, n: usize) -> f64 {
    total_ns as f64 / n.max(1) as f64
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_nanos() as u64)
}

/// `rdf.*` and `obs.histogram.*`.
pub fn rdf_and_obs(inputs: &Inputs) -> Values {
    let names: Vec<String> = (0..50_000).map(|i| format!("bench-entity-{i}")).collect();
    let fresh = StringServer::new();
    let ((), intern_ns) = timed(|| {
        for n in &names {
            black_box(fresh.intern_entity(n).expect("id space"));
        }
    });

    let lines: Vec<String> = inputs
        .stored
        .iter()
        .take(20_000)
        .map(|t| ntriples::format_triple(&inputs.strings, t).expect("interned"))
        .collect();
    let ((), parse_ns) = timed(|| {
        for (i, line) in lines.iter().enumerate() {
            black_box(ntriples::parse_triple(&inputs.strings, line, i).expect("round-trips"));
        }
    });

    let hist = LatencyHistogram::new();
    let n = 1_000_000u64;
    let ((), record_ns) = timed(|| {
        for i in 0..n {
            hist.record(black_box(i.wrapping_mul(7_919) % 1_000_000));
        }
    });
    vec![
        ("rdf.string_server.intern_ns", per(intern_ns, names.len())),
        ("rdf.ntriples.parse_ns_per_line", per(parse_ns, lines.len())),
        ("obs.histogram.record_ns", per(record_ns, n as usize)),
    ]
}

/// A round's tuples split into the store's two families.
fn split_round(inputs: &Inputs, k: usize) -> (Vec<Triple>, Vec<StreamTuple>) {
    let tick = (k as Timestamp + 1) * BATCH_MS;
    let mut timeless = Vec::new();
    let mut timing = Vec::new();
    for t in inputs.round_tuples(k) {
        if inputs.timing_predicates.contains(&t.triple.p) {
            timing.push(StreamTuple::timing(t.triple, tick));
        } else {
            timeless.push(t.triple);
        }
    }
    (timeless, timing)
}

/// `store.*`: base store, persistent shard, stream index, transient
/// ring and GC, fed round by round like the injector feeds them.
pub fn store(inputs: &Inputs) -> Values {
    let n_stored = inputs.stored.len();
    let mut base = BaseStore::new();
    let ((), load_ns) = timed(|| {
        for t in &inputs.stored {
            base.insert_base(*t);
        }
    });
    let bytes_per_triple = base.heap_bytes() as f64 / n_stored as f64;
    let probes: Vec<_> = inputs
        .stored
        .iter()
        .step_by(37)
        .map(Triple::out_key)
        .collect();
    let (acc, lookup_ns) = timed(|| {
        let mut acc = 0u64;
        for &key in &probes {
            base.for_each_neighbor(key, SnapshotId(0), |v| acc ^= v.0);
        }
        acc
    });
    black_box(acc);

    let shard = PersistentShard::new(crate::workload::engine_config(1).partitions_per_shard);
    for t in &inputs.stored {
        shard.load_base(*t);
    }
    let mut index = StreamIndex::new();
    let mut transient = TransientStore::new(64 << 20);
    let (mut inject_ns, mut injected) = (0u64, 0usize);
    let (mut build_ns, mut entries) = (0u64, 0usize);
    let mut push_ns = 0u64;
    let mut receipts = Vec::new();
    for k in 0..inputs.rounds {
        let tick = (k as Timestamp + 1) * BATCH_MS;
        let sn = SnapshotId(k as u64 + 1);
        let (timeless, timing) = split_round(inputs, k);
        let (_, ns) = timed(|| black_box(shard.inject_batch(&timeless, sn)));
        inject_ns += ns;
        injected += timeless.len();

        receipts.clear();
        for t in &timeless {
            base.insert_at(*t, sn, &mut receipts);
        }
        let (batch_entries, ns) = timed(|| {
            let ib = IndexBatch::from_receipts(tick, &receipts);
            let n = ib.entry_count();
            index.push_batch(ib);
            n
        });
        build_ns += ns;
        entries += batch_entries;

        let ((), ns) = timed(|| transient.push_batch(TransientSlice::from_batch(tick, &timing)));
        push_ns += ns;
    }
    let ((), consolidate_ns) = timed(|| shard.consolidate(SnapshotId(inputs.rounds as u64)));

    let end = inputs.rounds as Timestamp * BATCH_MS;
    let lo = end.saturating_sub(1_000) + 1;
    let (recent_timeless, recent_timing) = split_round(inputs, inputs.rounds - 1);
    let mut out = Vec::new();
    let ((), index_window_ns) = timed(|| {
        for t in &recent_timeless {
            out.clear();
            index.neighbors_in(&base, t.out_key(), lo, end, &mut out);
            black_box(out.len());
        }
    });
    let ((), transient_window_ns) = timed(|| {
        for t in &recent_timing {
            black_box(transient.neighbors_in(t.triple.out_key(), lo, end));
        }
    });
    let (_, sweep_ns) = timed(|| gc::sweep(&mut transient, &mut index, end.saturating_sub(2_000)));

    vec![
        ("store.base.load_ns_per_triple", per(load_ns, n_stored)),
        ("store.base.lookup_ns", per(lookup_ns, probes.len())),
        ("store.base.bytes_per_triple", bytes_per_triple),
        (
            "store.persistent.inject_ns_per_tuple",
            per(inject_ns, injected),
        ),
        (
            "store.persistent.consolidate_ms",
            consolidate_ns as f64 / 1e6,
        ),
        (
            "store.stream_index.build_us_per_batch",
            per(build_ns, inputs.rounds) / 1e3,
        ),
        (
            "store.stream_index.window_ns",
            per(index_window_ns, recent_timeless.len()),
        ),
        ("store.stream_index.entries", entries as f64),
        (
            "store.transient.push_us_per_batch",
            per(push_ns, inputs.rounds) / 1e3,
        ),
        (
            "store.transient.window_ns",
            per(transient_window_ns, recent_timing.len()),
        ),
        ("store.gc.sweep_us", sweep_ns as f64 / 1e3),
    ]
}

/// `stream.*`: adaptor → dispatcher → injector → coordinator, plus the
/// window trigger, each stage fed the previous stage's real output.
pub fn stream(inputs: &Inputs) -> Values {
    let nodes = inputs.spec.nodes;

    let mut adaptors: Vec<Adaptor> = inputs.schemas.iter().cloned().map(Adaptor::new).collect();
    let mut batches: Vec<Batch> = Vec::new();
    let ((), adaptor_ns) = timed(|| {
        for k in 0..inputs.rounds {
            for t in inputs.round_tuples(k) {
                batches.extend(adaptors[t.stream.0 as usize].push(t.triple, t.timestamp));
            }
            for a in &mut adaptors {
                batches.extend(a.advance_to((k as Timestamp + 1) * BATCH_MS));
            }
        }
    });

    let shards = ShardMap::new(nodes as u16);
    let mut subs: Vec<Vec<SubBatch>> = Vec::with_capacity(batches.len());
    let ((), dispatch_ns) = timed(|| {
        for b in &batches {
            subs.push(dispatch(b, &shards));
        }
    });
    let mut per_node = vec![0usize; nodes];
    let mut sub_batches = 0usize;
    for sub in subs.iter().flatten().filter(|s| !s.tuples.is_empty()) {
        per_node[sub.node as usize] += sub.tuples.len();
        sub_batches += 1;
    }
    let mean = per_node.iter().sum::<usize>() as f64 / nodes as f64;
    let skew = *per_node.iter().max().expect("nodes >= 1") as f64 / mean.max(1.0);

    let cfg = crate::workload::engine_config(nodes);
    let node_shards: Vec<PersistentShard> = (0..nodes)
        .map(|_| PersistentShard::new(cfg.partitions_per_shard))
        .collect();
    let mut stores: Vec<Vec<NodeStreamStore>> = (0..nodes)
        .map(|_| {
            (0..inputs.schemas.len())
                .map(|_| NodeStreamStore::new(cfg.transient_budget_bytes))
                .collect()
        })
        .collect();
    let injector = Injector;
    let mut stats = InjectStats::default();
    let ((), inject_ns) = timed(|| {
        for (b, batch_subs) in batches.iter().zip(&subs) {
            let sn = SnapshotId(b.timestamp / BATCH_MS);
            for sub in batch_subs {
                let node = sub.node as usize;
                let store = &mut stores[node][b.stream.0 as usize];
                let (_, st) = injector.apply(&node_shards[node], store, sub, b.timestamp, sn);
                stats.add(&st);
            }
        }
    });

    let streams = inputs.schemas.len();
    let mut coordinator = Coordinator::new(nodes, vec![BATCH_MS; streams], StalenessBound(1));
    let ((), coordinator_ns) = timed(|| {
        for k in 0..inputs.rounds {
            for s in 0..streams {
                for node in 0..nodes {
                    black_box(coordinator.on_batch_inserted(node, s, (k as u64 + 1) * BATCH_MS));
                }
            }
        }
    });

    let window = StreamWindow {
        stream: 0,
        range_ms: 1_000,
        step_ms: BATCH_MS,
    };
    let mut windows: Vec<WindowState> = (0..1_000)
        .map(|_| WindowState::new(vec![window], 0))
        .collect();
    let mut vts = Vts::new(1);
    let mut fired = 0usize;
    let ((), window_ns) = timed(|| {
        for k in 0..inputs.rounds {
            vts.advance(0, (k as u64 + 1) * BATCH_MS);
            for w in &mut windows {
                while w.ready(&vts) {
                    black_box(w.fire());
                    fired += 1;
                }
            }
        }
    });

    vec![
        (
            "stream.adaptor.push_ns_per_tuple",
            per(adaptor_ns, inputs.timeline.len()),
        ),
        ("stream.adaptor.batches", batches.len() as f64),
        (
            "stream.dispatcher.dispatch_us_per_batch",
            per(dispatch_ns, batches.len()) / 1e3,
        ),
        ("stream.dispatcher.sub_batches", sub_batches as f64),
        ("stream.dispatcher.skew", skew),
        (
            "stream.injector.apply_us_per_batch",
            per(inject_ns, batches.len()) / 1e3,
        ),
        ("stream.injector.timeless", stats.timeless as f64),
        ("stream.injector.timing", stats.timing as f64),
        (
            "stream.coordinator.on_batch_ns",
            per(coordinator_ns, inputs.rounds * streams * nodes),
        ),
        ("stream.window.fire_ns", per(window_ns, fired)),
    ]
}

/// `net.pool.*`: the worker pool's per-item cost at one lane.
pub fn net_pool() -> Values {
    let pool = WorkerPool::new(1, Arc::new(PoolCounters::default()));
    let regions = 2_000;
    let items = 64;
    let ((), ns) = timed(|| {
        for _ in 0..regions {
            black_box(pool.map((0..items as u64).collect(), |_, x| x + 1));
        }
    });
    vec![("net.pool.map_ns_per_item", per(ns, regions * items))]
}

/// The context a continuous query executes under right now: windows
/// ending at each stream's stable timestamp.
fn context_now(engine: &WukongS, inputs: &Inputs, q: &Query, back_ms: Timestamp) -> ExecContext {
    let windows = q
        .streams
        .iter()
        .map(|(name, spec)| {
            let stream = StreamId(inputs.stream_index(name) as u16);
            let hi = engine.stable_ts(stream).saturating_sub(back_ms);
            WindowInstance {
                stream,
                lo: hi.saturating_sub(spec.range_ms) + 1,
                hi,
            }
        })
        .collect();
    ExecContext {
        sn: engine.stable_sn(),
        windows,
    }
}

/// `query.*` and `core.checkpoint.*`, on the traced pass's live engine
/// after its last round: parser, planner and executor called directly
/// with the engine's own graph access.
pub fn query_and_checkpoint(inputs: &Inputs, engine: &WukongS) -> Values {
    let strings = engine.strings();
    let access = NodeAccess::new(engine.cluster(), NodeId(0));
    let lit = StringLiteralResolver(strings);
    let mut out: Values = Vec::new();

    let ((), parse_ns) = timed(|| {
        for text in &inputs.light {
            black_box(parse_query(strings, text).expect("parses"));
        }
    });
    let parsed: Vec<Query> = inputs
        .light
        .iter()
        .map(|t| parse_query(strings, t).expect("parses"))
        .collect();
    let stored_ctx = ExecContext::stored(engine.stable_sn());
    let ((), plan_ns) = timed(|| {
        for q in &parsed {
            black_box(plan_query(q, &access, &stored_ctx));
        }
    });
    out.push(("query.parser.parse_us", per(parse_ns, parsed.len()) / 1e3));
    out.push(("query.planner.plan_us", per(plan_ns, parsed.len()) / 1e3));

    const NAMES: [&str; 12] = [
        "query.executor.L1.us",
        "query.executor.L2.us",
        "query.executor.L3.us",
        "query.executor.L4.us",
        "query.executor.L5.us",
        "query.executor.L6.us",
        "query.executor.S1.us",
        "query.executor.S2.us",
        "query.executor.S3.us",
        "query.executor.S4.us",
        "query.executor.S5.us",
        "query.executor.S6.us",
    ];
    let oneshots: Vec<String> = (1..=6)
        .map(|c| oneshot_query(&inputs.bench, c, 3))
        .collect();
    let (mut finalize_ns, mut rows_out) = (0u64, 0usize);
    for (i, text) in inputs.probe.iter().chain(&oneshots).enumerate() {
        let q = parse_query(strings, text).expect("parses");
        let ctx = context_now(engine, inputs, &q, 0);
        let plan = plan_query(&q, &access, &ctx);
        let reps = PROBE_REPS[i % PROBE_REPS.len()];
        let (mut best, mut best_emit, mut rows) = (u64::MAX, 0, 0);
        for _ in 0..reps {
            let mut trace = StageTrace::new();
            let mut timer = TaskTimer::start();
            let (rs, ns) =
                timed(|| execute_traced(&q, &plan, &ctx, &access, &lit, &mut timer, &mut trace));
            if ns < best {
                best = ns;
                best_emit = trace.get(Stage::ResultEmit);
            }
            rows = rs.rows.len();
        }
        finalize_ns += best_emit;
        rows_out += rows;
        out.push((NAMES[i], best as f64 / 1e3));
    }
    out.push(("query.executor.finalize_us", finalize_ns as f64 / 1e3));
    out.push(("query.executor.rows_out", rows_out as f64));

    // Delta maintenance of L4 (stream-only, so incrementalizable): build
    // the state one step back, then time the one-step slide.
    let q = parse_query(strings, &inputs.probe[3]).expect("parses");
    let ranges: Vec<Timestamp> = q.streams.iter().map(|(_, w)| w.range_ms).collect();
    let before = context_now(engine, inputs, &q, BATCH_MS);
    let now = context_now(engine, inputs, &q, 0);
    let plan = plan_query(&q, &access, &now);
    let mut state = None;
    let mut slide = |ctx: &ExecContext| {
        let mut timer = TaskTimer::start();
        let mut trace = StageTrace::new();
        timed(|| {
            maintain(
                &q, &plan, &mut state, ctx, &ranges, &access, &lit, &mut timer, &mut trace,
            )
        })
        .1
    };
    slide(&before);
    out.push(("query.incremental.maintain_us", slide(&now) as f64 / 1e3));

    let (bytes, encode_ns) = timed(|| engine.checkpoint());
    out.push(("core.checkpoint.encode_ms", encode_ns as f64 / 1e6));
    out.push(("core.checkpoint.bytes", bytes.len() as f64));
    out
}
