//! What a store's cells and the stream index own on the heap, measured
//! against what `heap_bytes` reports — `state_mb` is that report, so a
//! buffer it leaves out is memory nobody sees.
//!
//! The counters are per thread, so the tests of this file may run side by
//! side.

use rand::{rngs::StdRng, Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;
use wukong_rdf::{Dir, Key, KeyMap, Pid, Vid};
use wukong_store::base::{AppendReceipt, ValueCell};
use wukong_store::{gc, BaseStore, IndexBatch, SnapshotId, StreamIndex, TransientStore};

thread_local! {
    /// Bytes and blocks this thread holds from the allocator.
    static LIVE: Cell<(isize, isize)> = const { Cell::new((0, 0)) };
}

fn track(bytes: isize, blocks: isize) {
    LIVE.with(|l| l.set((l.get().0 + bytes, l.get().1 + blocks)));
}

fn live() -> (isize, isize) {
    LIVE.with(Cell::get)
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory
// (a `const`-initialised `Cell` of integers neither allocates nor drops).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as isize, 1);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as isize), -1);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(new_size as isize - layout.size() as isize, 0);
        // SAFETY: `ptr`/`layout` came from this allocator, i.e. `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const ENTRY: usize = std::mem::size_of::<(Key, ValueCell)>();

/// Bytes of the hash table a store of `keys` cells built by insertion
/// holds: a map of the same entry layout filled the same way (the table's
/// growth depends on nothing but the number of insertions).
fn table_bytes(keys: &[Key]) -> isize {
    const WORDS: usize = std::mem::size_of::<ValueCell>() / 8;
    assert_eq!(std::mem::align_of::<ValueCell>(), 8);
    let before = live().0;
    let mut twin: KeyMap<[u64; WORDS]> = KeyMap::default();
    for &k in keys {
        twin.insert(k, [0; WORDS]);
    }
    live().0 - before
}

#[test]
fn heap_bytes_counts_what_the_cells_own() {
    let keys: Vec<Key> = (1..=3_000)
        .map(|v| Key::new(Vid(v), Pid(1), Dir::Out))
        .collect();
    let table = table_bytes(&keys);
    let mut rng = StdRng::seed_from_u64(21);

    let before = live().0;
    let mut store = BaseStore::new();
    // Initial data on every key, then forty snapshots of skewed appends
    // (a few hot keys written under every snapshot, so their marks spill)
    // with injection-time consolidation two snapshots back, and a sweep of
    // the whole store every tenth.
    for &k in &keys {
        for _ in 0..rng.gen_range(1..6) {
            store.append_edge(k, Vid(rng.gen_range(1..9_000)), SnapshotId::BASE);
        }
    }
    let mut spilled_at_a_check = 0;
    for sn in 1..=40u64 {
        for _ in 0..1_500 {
            let hot = rng.gen_range(0..4) == 0;
            let k = keys[rng.gen_range(0..if hot { 30 } else { keys.len() })];
            let merge = sn.checked_sub(3).map(SnapshotId);
            store.append_edge_merging(k, Vid(sn), SnapshotId(sn), merge);
        }
        if sn % 10 == 0 {
            store.consolidate(SnapshotId(sn - 5));
        }
        if sn % 5 == 3 {
            let owned = live().0 - before - table;
            let counted = (store.heap_bytes() - keys.len() * ENTRY) as isize;
            // To the byte: capacities are what the allocator was asked for.
            assert_eq!(counted, owned, "heap_bytes against live bytes at {sn}");
            spilled_at_a_check += usize::from(store.max_retained_snapshots() >= 2);
        }
    }
    assert!(spilled_at_a_check >= 4, "checks must see spilled marks");
}

#[test]
fn a_cell_retaining_at_most_one_snapshot_is_one_block() {
    let key = Key::new(Vid(7), Pid(1), Dir::Out);
    let before = live().1;
    let mut store = BaseStore::new();
    store.append_edge(key, Vid(1), SnapshotId::BASE);
    // One block is the map's table, from the first insertion on; the rest
    // are the cell's.
    let cell_blocks = |store: &BaseStore| (live().1 - before - 1, store.max_retained_snapshots());

    for v in 2..200 {
        store.append_edge(key, Vid(v), SnapshotId::BASE);
    }
    assert_eq!(cell_blocks(&store), (1, 0), "initial data");
    for v in 0..50 {
        store.append_edge(key, Vid(v), SnapshotId(1));
    }
    assert_eq!(
        cell_blocks(&store),
        (1, 1),
        "one snapshot: its mark is inline"
    );
    store.append_edge(key, Vid(1), SnapshotId(2));
    store.append_edge(key, Vid(1), SnapshotId(3));
    assert_eq!(cell_blocks(&store), (3, 3), "three snapshots: marks spill");
    store.consolidate(SnapshotId(1));
    assert_eq!(cell_blocks(&store), (3, 2), "two snapshots: still spilled");
    store.append_edge_merging(key, Vid(1), SnapshotId(3), Some(SnapshotId(2)));
    assert_eq!(
        cell_blocks(&store),
        (1, 1),
        "back to one: the spill is freed"
    );
    store.consolidate(SnapshotId(3));
    assert_eq!(cell_blocks(&store), (1, 0), "everything consolidated");
    assert_eq!(store.len_at(key, SnapshotId::BASE), 252);
}

#[test]
fn stream_index_heap_bytes_tracks_the_allocator() {
    /// Bytes of one key's map entry (a key and the place of its newest
    /// run), which `heap_bytes` counts per live key.
    const ENTRY: usize = 16;
    let mut rng = StdRng::seed_from_u64(8);
    let mut offsets: KeyMap<u32> = KeyMap::default();
    let mut receipts = |n: usize, rng: &mut StdRng| -> Vec<AppendReceipt> {
        (0..n)
            .map(|_| {
                // A few hot keys in most batches, a long tail in one.
                let v = if rng.gen_range(0..3) == 0 {
                    rng.gen_range(1..20)
                } else {
                    rng.gen_range(20..4_000)
                };
                let key = Key::new(Vid(v), Pid(1), Dir::Out);
                let offset = offsets.entry(key).or_insert(0);
                *offset += 1;
                AppendReceipt {
                    key,
                    offset: *offset - 1,
                }
            })
            .collect()
    };
    let batches: Vec<Vec<AppendReceipt>> = (0..30).map(|_| receipts(300, &mut rng)).collect();
    let open = receipts(200, &mut rng);
    let inserted = offsets.len();
    let mut ring = TransientStore::new(1 << 10);

    let before = live().0;
    let mut index = StreamIndex::new();
    // Even batches install in two pieces, odd ones arrive whole.
    for (i, rc) in batches.iter().enumerate() {
        let ts = 100 * (i as u64 + 1);
        if i % 2 == 0 {
            index.open(ts);
            let (a, b) = rc.split_at(rc.len() / 2);
            index.record_all(a);
            index.record_all(b);
            index.seal();
        } else {
            index.push_batch(IndexBatch::from_receipts(ts, rc));
        }
    }
    index.open(3_100);
    index.record_all(&open);
    let expiry = 1_550;
    gc::sweep(&mut ring, &mut index, expiry);
    assert_eq!(index.retired(), 15);

    // Every key ever inserted still owns its bucket: the map never
    // shrinks, and nothing was inserted after the sweep removed keys.
    let table = {
        let before = live().0;
        let mut twin: KeyMap<u64> = KeyMap::default();
        let mut seen = KeyMap::default();
        for r in batches.iter().flatten().chain(&open) {
            if seen.insert(r.key, ()).is_none() {
                twin.insert(r.key, 0);
            }
        }
        drop(seen);
        live().0 - before
    };
    let live_keys = batches[15..]
        .iter()
        .flatten()
        .chain(&open)
        .map(|r| r.key)
        .collect::<BTreeSet<_>>()
        .len();
    assert!(live_keys < inserted, "the sweep must remove keys");
    // The ring of batch headers (six words each), which `heap_bytes`
    // leaves out: 31 batches opened, no push after the sweep's pops.
    let headers = {
        let before = live().0;
        let mut twin: std::collections::VecDeque<[u64; 6]> = Default::default();
        for _ in 0..31 {
            twin.push_back([0; 6]);
        }
        live().0 - before
    };
    let owned = live().0 - before - table - headers;
    let counted = (index.heap_bytes() - live_keys * ENTRY) as isize;
    assert_eq!(counted, owned, "heap_bytes against live bytes");
}
