//! Criterion micro-benchmarks of the mechanisms behind the evaluation:
//! store injection/lookup, the stream index's window extraction against
//! the Wukong/Ext-style full-value scan, snapshot scalarization, vector
//! timestamps, graph-exploration execution, and fabric cost charging.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::{rngs::StdRng, Rng, SeedableRng};
use wukong_core::access::NodeAccess;
use wukong_core::cluster::Cluster;
use wukong_core::EngineConfig;
use wukong_net::{Fabric, NetworkProfile, NodeId, TaskTimer};
use wukong_obs::trace::{BatchId, TraceRecorder};
use wukong_query::exec::{ExecContext, GraphAccess, NoLiterals, PatternSource, WindowInstance};
use wukong_query::{execute, execute_step, finalize, parse_query, plan_query, BindingTable};
use wukong_query::{GraphName, Query};
use wukong_rdf::{Dir, Key, Pid, StreamId, StreamTuple, StringServer, Triple, Vid};
use wukong_store::base::AppendReceipt;
use wukong_store::{BaseStore, IndexBatch, PersistentShard, ShardMap, SnapshotId, StreamIndex};
use wukong_stream::adaptor::payload_checksum;
use wukong_stream::{
    apply_index_updates, dispatch, install_sub_batch, Batch, Injector, Installed, NodeStreamStore,
    SnVtsPlanner, StalenessBound, StreamSchema, Vts,
};

fn bench_store(c: &mut Criterion) {
    let mut g = c.benchmark_group("store");

    g.bench_function("insert_base_triple", |b| {
        let mut st = BaseStore::new();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            st.insert_base(Triple::new(Vid(i % 10_000 + 1), Pid(3), Vid(i + 20_000)));
        });
    });

    g.bench_function("inject_batch_100", |b| {
        let shard = PersistentShard::new(8);
        let mut sn = 1u64;
        b.iter(|| {
            let triples: Vec<Triple> = (0..100)
                .map(|i| Triple::new(Vid(sn * 100 + i + 1), Pid(3), Vid(900_000 + i)))
                .collect();
            let r = shard.inject_batch(&triples, SnapshotId(sn));
            sn += 1;
            black_box(r.len())
        });
    });

    let mut st = BaseStore::new();
    for i in 0..1_000 {
        st.insert_base(Triple::new(Vid(1), Pid(3), Vid(i + 10)));
    }
    g.bench_function("lookup_1k_neighbors", |b| {
        b.iter(|| black_box(st.neighbors_at(Key::new(Vid(1), Pid(3), Dir::Out), SnapshotId::BASE)))
    });
    g.finish();
}

/// The Table 4 mechanism: stream-index window extraction is O(window),
/// the Wukong/Ext-style timestamp scan is O(history).
fn bench_stream_index(c: &mut Criterion) {
    let mut g = c.benchmark_group("window_extraction");
    for history_batches in [100u64, 1_000, 10_000] {
        // One key accumulating 4 neighbours per batch.
        let mut store = BaseStore::new();
        let mut index = StreamIndex::new();
        let mut log: Vec<(Vid, u64)> = Vec::new();
        let key = Key::new(Vid(1), Pid(3), Dir::Out);
        for batch in 0..history_batches {
            let mut rc = Vec::new();
            for i in 0..4u64 {
                let v = Vid(batch * 4 + i + 10);
                store.insert_at(Triple::new(Vid(1), Pid(3), v), SnapshotId(1), &mut rc);
                log.push((v, batch * 100));
            }
            index.push_batch(IndexBatch::from_receipts(
                batch * 100,
                &rc.iter()
                    .filter(|r| r.key == key)
                    .copied()
                    .collect::<Vec<_>>(),
            ));
        }
        let hi = history_batches * 100;
        let lo = hi - 1_000; // a 10-batch window at the end

        g.bench_with_input(
            BenchmarkId::new("stream_index", history_batches),
            &history_batches,
            |b, _| {
                b.iter(|| {
                    let mut out = Vec::new();
                    index.neighbors_in(&store, key, lo, hi, &mut out);
                    black_box(out.len())
                })
            },
        );
        g.bench_with_input(
            BenchmarkId::new("ext_full_scan", history_batches),
            &history_batches,
            |b, _| {
                b.iter(|| {
                    let n = log.iter().filter(|(_, ts)| *ts >= lo && *ts <= hi).count();
                    black_box(n)
                })
            },
        );
    }
    g.finish();
}

fn bench_consistency(c: &mut Criterion) {
    let mut g = c.benchmark_group("consistency");

    g.bench_function("stable_vts_8_nodes_5_streams", |b| {
        let vts: Vec<Vts> = (0..8)
            .map(|n| Vts::from_entries((0..5).map(|s| 1_000 + n * 7 + s).collect()))
            .collect();
        b.iter(|| black_box(Vts::stable(vts.iter())))
    });

    g.bench_function("sn_vts_plan_round", |b| {
        b.iter(|| {
            let mut p = SnVtsPlanner::new(vec![100; 5], StalenessBound(1));
            p.announce_next(&Vts::new(5));
            let reached = vec![Vts::from_entries(vec![100; 5]); 8];
            black_box(p.on_vts_update(&reached))
        })
    });
    g.finish();
}

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

fn bench_executor(c: &mut Criterion) {
    // The Fig. 2 one-shot query over a synthetic X-Lab-style graph.
    let ss = StringServer::new();
    let mut st = BaseStore::new();
    let po = ss.intern_predicate("po").unwrap();
    let ht = ss.intern_predicate("ht").unwrap();
    let li = ss.intern_predicate("li").unwrap();
    let logan = ss.intern_entity("Logan").unwrap();
    let erik = ss.intern_entity("Erik").unwrap();
    let tag = ss.intern_entity("#sosp17").unwrap();
    for i in 0..1_000u64 {
        let t = ss.intern_entity(&format!("T-{i}")).unwrap();
        st.insert_base(Triple::new(logan, po, t));
        if i % 3 == 0 {
            st.insert_base(Triple::new(t, ht, tag));
        }
        if i % 5 == 0 {
            st.insert_base(Triple::new(erik, li, t));
        }
    }
    let q = parse_query(
        &ss,
        "SELECT ?X WHERE { Logan po ?X . ?X ht #sosp17 . Erik li ?X }",
    )
    .unwrap();
    let access = LocalAccess(&st);
    let ctx = ExecContext::stored(SnapshotId::BASE);
    let plan = plan_query(&q, &access, &ctx);

    c.bench_function("executor_fig2_oneshot_1k_posts", |b| {
        b.iter(|| {
            let mut timer = TaskTimer::start();
            black_box(execute(
                &q,
                &plan,
                &ctx,
                &access,
                &wukong_query::exec::NoLiterals,
                &mut timer,
            ))
        })
    });
}

/// The read path every firing and one-shot shares, layer by layer:
/// one key over a window of N batches and one stored key (both through
/// `NodeAccess`, i.e. cluster → shard → cell), an index-scan step that
/// expands 100 K edges, and `finalize` over 100 K binding rows.
fn bench_read_path(c: &mut Criterion) {
    const USERS: u64 = 20_000;
    let li = Pid(3);
    let fo = Pid(2);

    // 100 batches of 400 likes by 20 K users; stored: 12 follows each.
    let cluster = Cluster::new(&EngineConfig::single_node());
    let mut rng = StdRng::seed_from_u64(42);
    for u in 1..=USERS {
        for _ in 0..12 {
            let v = rng.gen_range(1..=USERS);
            cluster.load_base_triple(Triple::new(Vid(u), fo, Vid(v)));
        }
    }
    let sidx = cluster.add_stream(StreamSchema::timeless(StreamId(0), "L", 100));
    let stream = cluster.stream(sidx);
    let mut node_store = NodeStreamStore::new(1 << 20);
    for b in 1..=100u64 {
        let tuples = (0..400)
            .map(|_| {
                let u = rng.gen_range(1..=USERS);
                let post = rng.gen_range(1_000_000..1_050_000u64);
                StreamTuple::timeless(Triple::new(Vid(u), li, Vid(post)), b * 100 - 1)
            })
            .collect();
        let batch = Batch::sealed(StreamId(0), b * 100, tuples, 0);
        let subs = dispatch(&batch, cluster.shard_map());
        Injector.apply(
            cluster.shard(0),
            &mut node_store,
            &subs[0],
            b * 100,
            SnapshotId(b),
        );
    }
    *stream.indexes[0].write() = node_store.index;
    let probes: Vec<Vid> = (0..1_024).map(|_| Vid(rng.gen_range(1..=USERS))).collect();
    let access = NodeAccess::new(&cluster, NodeId(0));

    let mut g = c.benchmark_group("window_lookup");
    for batches in [10u64, 50, 100] {
        let ctx = ExecContext {
            sn: SnapshotId(100),
            windows: vec![WindowInstance {
                stream: StreamId(0),
                lo: (100 - batches) * 100 + 1,
                hi: 10_000,
            }],
        };
        let mut i = 0;
        let mut out = Vec::new();
        g.bench_function(format!("{batches}_batches"), |b| {
            b.iter(|| {
                i = (i + 1) % probes.len();
                out.clear();
                let mut timer = TaskTimer::start();
                let key = Key::new(probes[i], li, Dir::Out);
                access.neighbors(key, GraphName::Stream(0), &ctx, &mut timer, &mut out);
                black_box(out.len())
            })
        });
    }
    g.finish();

    // N stored keys, one `neighbors` call each against one chunked
    // `neighbors_batch`: where the two lines cross is what
    // `wukong_query::executor::BATCH_MIN_ANCHORS` is read against. Every
    // iteration reads a different stretch of a key list much larger than
    // the caches.
    let stored_ctx = ExecContext::stored(SnapshotId(100));
    let stored_keys: Vec<Key> = (0..1 << 16)
        .map(|_| Key::new(Vid(rng.gen_range(1..=USERS)), fo, Dir::Out))
        .collect();
    let mut g = c.benchmark_group("stored_lookup");
    for n in [1usize, 8, 16, 32, 64, 128, 1_024] {
        let mut stretches = stored_keys.chunks_exact(n).cycle();
        let mut out = Vec::new();
        g.bench_with_input(BenchmarkId::new("per_key", n), &n, |b, _| {
            b.iter(|| {
                let mut timer = TaskTimer::start();
                let mut edges = 0;
                for &key in stretches.next().expect("cycles") {
                    out.clear();
                    access.neighbors(key, GraphName::Stored, &stored_ctx, &mut timer, &mut out);
                    edges += out.len();
                }
                black_box(edges)
            })
        });
        let mut stretches = stored_keys.chunks_exact(n).cycle();
        g.bench_with_input(BenchmarkId::new("batched", n), &n, |b, _| {
            b.iter(|| {
                let mut timer = TaskTimer::start();
                let mut edges = 0;
                let keys = stretches.next().expect("cycles");
                access.neighbors_batch(
                    keys,
                    GraphName::Stored,
                    &stored_ctx,
                    &mut timer,
                    &mut |_, run| edges += run.len(),
                );
                black_box(edges)
            })
        });
    }
    g.finish();

    // What the value layout costs, on the same 27 MB store: an append that
    // opens a new snapshot on a cache-cold key (the mark two snapshots
    // back is dropped, a new one written, one value pushed), a
    // consolidation sweep of the whole shard after 64 such appends, and a
    // fat-pointer range read from a user's likes, a list that still
    // retains several snapshots.
    let shard = cluster.shard(0);
    let mut g = c.benchmark_group("value_cell");
    let mut cold_keys = stored_keys.iter().cycle();
    let mut sn = 100u64;
    g.bench_function("append_new_snapshot", |b| {
        b.iter(|| {
            sn += 1;
            let key = *cold_keys.next().expect("cycles");
            let merge = Some(SnapshotId(sn - 2));
            black_box(shard.append_owned(key, Vid(sn), SnapshotId(sn), merge))
        })
    });
    g.bench_function("consolidate", |b| {
        b.iter(|| {
            sn += 1;
            for &key in cold_keys.by_ref().take(64) {
                shard.append_owned(key, Vid(sn), SnapshotId(sn), None);
            }
            shard.consolidate(SnapshotId(sn));
        })
    });
    let mut likers = probes.iter().cycle();
    g.bench_function("window_range", |b| {
        b.iter(|| {
            let key = Key::new(*likers.next().expect("cycles"), li, Dir::Out);
            shard.with_cell(key, |cell| {
                black_box(cell.map_or(0, |c| c.range(1, 4).len()))
            })
        })
    });
    g.finish();

    // `?X ht ?T` over 100 K tagged posts: one index scan, 100 K expansions.
    let ss = StringServer::new();
    let ht = ss.intern_predicate("ht").unwrap();
    let mut st = BaseStore::new();
    for i in 0..100_000u64 {
        st.insert_base(Triple::new(Vid(10 + i), ht, Vid(500_000 + i % 64)));
    }
    let q: Query = parse_query(&ss, "SELECT ?X ?T WHERE { ?X ht ?T }").unwrap();
    let local = LocalAccess(&st);
    let ctx = ExecContext::stored(SnapshotId::BASE);
    let plan = plan_query(&q, &local, &ctx);
    let seed_table = BindingTable::seed(q.var_count as usize);
    c.bench_function("index_scan_expand/100k", |b| {
        b.iter(|| {
            let mut timer = TaskTimer::start();
            let out = execute_step(&plan.steps[0], &seed_table, &ctx, &local, &mut timer);
            black_box(out.len())
        })
    });

    let mut g = c.benchmark_group("finalize");
    let mut timer = TaskTimer::start();
    let sorted = execute_step(&plan.steps[0], &seed_table, &ctx, &local, &mut timer);
    let mut shuffled = BindingTable::empty(sorted.width());
    let mut order: Vec<usize> = (0..sorted.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    for i in order {
        shuffled.push_row(sorted.row(i));
    }
    for (name, table) in [("sorted_100k", &sorted), ("shuffled_100k", &shuffled)] {
        g.bench_function(name, |b| {
            b.iter(|| black_box(finalize(&q, table.clone(), &[], &NoLiterals).rows.len()))
        });
    }
    g.finish();
}

/// The write path of one sealed mini-batch, step by step, on a batch the
/// size `ingest_firehose` seals per stream and round (1 335 tuples, one in
/// seven timing): checksum, dispatch, the two-phase install on 1 and 8
/// nodes, and the stream-index build from a batch's receipts.
fn bench_write_path(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(7);
    let tuples: Vec<StreamTuple> = (0..1_335)
        .map(|i| {
            let t = Triple::new(
                Vid(rng.gen_range(1..=10_000)),
                Pid(rng.gen_range(1..=6)),
                Vid(rng.gen_range(20_000..120_000)),
            );
            if i % 7 == 0 {
                StreamTuple::timing(t, 99)
            } else {
                StreamTuple::timeless(t, 99)
            }
        })
        .collect();
    let batch = Batch::sealed(StreamId(0), 100, tuples, 0);

    c.bench_function("payload_checksum/1335", |b| {
        b.iter(|| black_box(payload_checksum(black_box(&batch.tuples))))
    });

    let mut g = c.benchmark_group("dispatch");
    for nodes in [1u16, 8] {
        let map = ShardMap::new(nodes);
        g.bench_function(format!("{nodes}_nodes/1335"), |b| {
            b.iter(|| black_box(dispatch(&batch, &map).len()))
        });
    }
    g.finish();

    // Every iteration installs the batch again under the next snapshot,
    // so appends mostly extend existing cells, as in a running engine.
    let mut g = c.benchmark_group("install_sub_batch");
    for nodes in [1u16, 8] {
        let map = ShardMap::new(nodes);
        let subs = dispatch(&batch, &map);
        let shards: Vec<PersistentShard> = (0..nodes).map(|_| PersistentShard::new(8)).collect();
        let delivered = vec![true; nodes as usize];
        let mut indexes: Vec<StreamIndex> = (0..nodes).map(|_| StreamIndex::new()).collect();
        let mut sn = 0u64;
        g.bench_function(format!("{nodes}_nodes/1335"), |b| {
            b.iter(|| {
                sn += 1;
                let merge = sn.checked_sub(2).map(SnapshotId);
                let mut installed: Vec<Installed> = subs
                    .iter()
                    .map(|sub| {
                        let owns = map.owner_filter(sub.node);
                        let shard = &shards[sub.node as usize];
                        let ts = sn * 100;
                        let mut share = Installed::default();
                        install_sub_batch(
                            shard,
                            owns,
                            &sub.tuples,
                            ts,
                            SnapshotId(sn),
                            merge,
                            &mut indexes[sub.node as usize],
                            &mut share,
                        );
                        share
                    })
                    .collect();
                apply_index_updates(
                    &map,
                    |n| &shards[n as usize],
                    &mut indexes.iter_mut().collect::<Vec<_>>(),
                    &mut installed,
                    &delivered,
                    SnapshotId(sn),
                    merge,
                );
                for index in &mut indexes {
                    index.seal();
                }
                black_box(installed.len())
            })
        });
    }
    g.finish();

    // 3 000 receipts over ~1 550 keys (a stream batch's repeat rate),
    // offsets contiguous per key.
    let mut next = std::collections::HashMap::new();
    let receipts: Vec<AppendReceipt> = (0..3_000)
        .map(|_| {
            let key = Key::new(Vid(rng.gen_range(1..=2_000)), Pid(3), Dir::Out);
            let offset = next.entry(key).or_insert(0u32);
            *offset += 1;
            AppendReceipt {
                key,
                offset: *offset - 1,
            }
        })
        .collect();
    c.bench_function("index_batch_build/3k_receipts", |b| {
        b.iter(|| black_box(IndexBatch::from_receipts(100, &receipts).entry_count()))
    });
}

/// What a firing pays the flight recorder for its ID and lineage, on a
/// fresh recorder and on one already holding `FIRING_CAP` lineages: the
/// two must read alike (1 000 mints per iteration).
fn bench_trace(c: &mut Criterion) {
    let mint_1000 = |rec: &TraceRecorder| {
        for i in 0..1_000u64 {
            let windows = vec![(0, i * 100 + 1, i * 100 + 1_000)];
            let batches = (1..=10).map(|b| BatchId::mint(0, (i + b) * 100)).collect();
            black_box(rec.mint_firing("L1_0", windows, i, batches));
        }
    };
    let mut g = c.benchmark_group("mint_firing");
    g.bench_function("empty", |b| b.iter(|| mint_1000(&TraceRecorder::default())));
    let full = TraceRecorder::default();
    for _ in 0..TraceRecorder::FIRING_CAP.div_ceil(1_000) {
        mint_1000(&full);
    }
    g.bench_function("at_cap", |b| b.iter(|| mint_1000(&full)));
    g.finish();
}

fn bench_fabric(c: &mut Criterion) {
    let mut g = c.benchmark_group("fabric");
    let rdma = Fabric::new(8, NetworkProfile::rdma());
    g.bench_function("charge_read", |b| {
        b.iter(|| {
            let mut t = TaskTimer::start();
            black_box(rdma.charge_read(NodeId(0), NodeId(1), 64, &mut t))
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_store,
    bench_stream_index,
    bench_consistency,
    bench_executor,
    bench_read_path,
    bench_write_path,
    bench_trace,
    bench_fabric
);
criterion_main!(benches);
