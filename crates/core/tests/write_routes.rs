//! Every route that writes triples into a store stores the same keys: the
//! same neighbour list under every key, index-vertex keys included, in
//! the same order, and the same triple count as a plain `BaseStore`.
//!
//! The routes: `BaseStore::insert_base` (the reference),
//! `PersistentShard::load_base`, `PersistentShard::inject_batch` and
//! `WukongS::load_base` on one, two and eight nodes, where a triple's
//! four key updates land on their owners' shards.

use std::collections::BTreeMap;
use wukong_core::{EngineConfig, WukongS};
use wukong_rdf::{Key, Pid, Triple, Vid};
use wukong_store::{BaseStore, PersistentShard, SnapshotId};

/// Every stored key (by raw value) with its visible neighbours.
type Keys = BTreeMap<u64, Vec<Vid>>;

/// Seeded triples over small vertex and predicate ranges, so subjects
/// and objects repeat, vertices appear on both ends, and many keys get
/// a first edge after their predicate's index vertex already has some.
fn triples(seed: u64, n: usize) -> Vec<Triple> {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move |m: u64| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % m
    };
    (0..n)
        .map(|_| Triple::new(Vid(next(60) + 1), Pid(next(5) + 1), Vid(next(90) + 1)))
        .collect()
}

fn base_keys(store: &BaseStore) -> Keys {
    let mut keys = Keys::new();
    store.for_each_key(|k, _| {
        keys.insert(k.raw(), store.neighbors_at(k, SnapshotId::BASE));
    });
    keys
}

/// Folds one shard's keys into `keys`; a key stored on two shards fails.
fn add_shard_keys(keys: &mut Keys, shard: &PersistentShard, sn: SnapshotId) {
    let mut own = Vec::new();
    shard.for_each_key(|k, _| own.push(k));
    for k in own {
        let prev = keys.insert(k.raw(), shard.neighbors_at(k, sn));
        assert!(prev.is_none(), "{:?} stored twice", Key::from_raw(k.raw()));
    }
}

fn assert_same(route: &str, want: &Keys, want_count: u64, got: &Keys, got_count: u64) {
    assert_eq!(got_count, want_count, "{route}: triple count");
    assert_eq!(
        got.keys().collect::<Vec<_>>(),
        want.keys().collect::<Vec<_>>(),
        "{route}: key set"
    );
    for (raw, list) in want {
        assert_eq!(&got[raw], list, "{route}: {:?}", Key::from_raw(*raw));
    }
}

#[test]
fn every_write_route_stores_keys_alike() {
    for seed in [1u64, 7, 42] {
        let ts = triples(seed, 600);
        let mut reference = BaseStore::new();
        for &t in &ts {
            reference.insert_base(t);
        }
        let want = base_keys(&reference);
        let want_count = reference.triple_count();
        // The reference holds index-vertex keys, each duplicate-free.
        let index_lists: Vec<_> = want
            .iter()
            .filter(|(&raw, _)| Key::from_raw(raw).is_index())
            .map(|(_, list)| list)
            .collect();
        assert!(!index_lists.is_empty());
        for list in index_lists {
            let mut sorted = list.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), list.len());
        }

        let shard = PersistentShard::new(4);
        for &t in &ts {
            shard.load_base(t);
        }
        let mut got = Keys::new();
        add_shard_keys(&mut got, &shard, SnapshotId::BASE);
        assert_same("load_base", &want, want_count, &got, shard.triple_count());

        let shard = PersistentShard::new(4);
        let mut last = SnapshotId::BASE;
        for (i, batch) in ts.chunks(37).enumerate() {
            last = SnapshotId(i as u64 + 1);
            shard.inject_batch(batch, last);
        }
        let mut got = Keys::new();
        add_shard_keys(&mut got, &shard, last);
        assert_same(
            "inject_batch",
            &want,
            want_count,
            &got,
            shard.triple_count(),
        );

        for nodes in [1usize, 2, 8] {
            let cfg = if nodes == 1 {
                EngineConfig::single_node()
            } else {
                EngineConfig::cluster(nodes)
            };
            let engine = WukongS::new(cfg);
            engine.load_base(ts.iter().copied());
            let cluster = engine.cluster();
            let mut got = Keys::new();
            let mut count = 0;
            for n in 0..nodes as u16 {
                add_shard_keys(&mut got, cluster.shard(n), SnapshotId::BASE);
                count += cluster.shard(n).triple_count();
            }
            let route = format!("WukongS::load_base on {nodes} node(s), seed {seed}");
            assert_same(&route, &want, want_count, &got, count);
        }
    }
}
