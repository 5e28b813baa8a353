//! Allocation guard for the batch install path (DESIGN.md §5, "The write
//! path: per-batch, not per-tuple").
//!
//! A round's batches install while they fill: every 128th tuple of a
//! stream's open batch hands the pipeline a piece, which the `ingest`
//! call carrying it installs, and the round's `advance_time` seals each
//! batch, installing only the rest. What the round allocates across both
//! calls may scale with the *distinct keys* it touches (new cells and
//! their value buffers' growth, transient adjacency lists) and by a small
//! constant with the number of pieces, but not with the number of tuples:
//! the per-tuple pump, raw-bytes accounting, dispatch and the checksum
//! checks allocate nothing per tuple. A `to_owned()` put back on that path
//! fails here before a benchmark run finds it.
//!
//! This file holds one test on purpose: the counter is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use wukong_bench::workload::ls_workload_with;
use wukong_bench::Scale;
use wukong_benchdata::LsBenchConfig;
use wukong_core::{EngineConfig, WukongS};
use wukong_rdf::{Dir, Key, Timestamp};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter never touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` came from this allocator, i.e. `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const BATCH_MS: Timestamp = 100;
const WARM_UP_ROUNDS: u64 = 8;

/// The engine's piece size (`PIECE_TUPLES` in `engine/ingest.rs`).
const PIECE: usize = 128;

/// What installing one piece may allocate beyond its keys: the piece's
/// tuples, its dispatched copy, the worker-pool task list, the delivery
/// mask and the index updates it routes.
const PER_PIECE: u64 = 12;

/// Allocations of the measured call at the parent of the install-path
/// rewrite (three name clones and an owner `Vec` per tuple, a collected
/// `Vec` per tuple family, an index-batch clone), on this exact workload.
const BEFORE_THE_REWRITE: u64 = 4_198;

#[test]
fn a_round_allocates_per_key_and_piece_not_per_tuple() {
    // Tiny LSBench population at a firehose-like rate: few users, so a
    // round's tuples keep hitting the same keys.
    let w = ls_workload_with(
        LsBenchConfig {
            rate_scale: 0.05,
            ..Scale::Tiny.ls_config()
        },
        (WARM_UP_ROUNDS + 1) * BATCH_MS,
    );
    let engine = WukongS::with_strings(EngineConfig::single_node(), Arc::clone(&w.strings));
    engine.load_base(w.stored.iter().copied());
    let streams = w.schemas().len();
    for schema in w.schemas() {
        engine.register_stream(schema);
    }

    // A round's tuples all fall in one batch per stream: the one its
    // `advance_time` seals.
    let round = |k: u64| {
        let (lo, hi) = (k * BATCH_MS, (k + 1) * BATCH_MS);
        w.timeline
            .iter()
            .filter(move |t| (lo..hi).contains(&t.timestamp))
    };
    for k in 0..WARM_UP_ROUNDS {
        for t in round(k) {
            engine.ingest(t.stream, t.triple, t.timestamp);
        }
        engine.advance_time((k + 1) * BATCH_MS);
    }

    // Everything the assertions need is counted before the measured
    // calls, which must be the only allocating code in between.
    let mut per_stream = vec![0usize; streams];
    let mut keys: HashSet<Key> = HashSet::new();
    for t in round(WARM_UP_ROUNDS) {
        per_stream[t.stream.0 as usize] += 1;
        keys.extend([
            t.triple.out_key(),
            t.triple.in_key(),
            Key::index(t.triple.p, Dir::Out),
            Key::index(t.triple.p, Dir::In),
        ]);
    }
    let tuples: usize = per_stream.iter().sum();
    let pieces: usize = per_stream.iter().map(|n| n / PIECE).sum();
    let rests: usize = per_stream.iter().map(|n| n % PIECE).sum();
    let keys = keys.len() as u64;

    let stored_before = engine.stats().stored_triples;
    let before = ALLOCS.load(Ordering::Relaxed);
    for t in round(WARM_UP_ROUNDS) {
        engine.ingest(t.stream, t.triple, t.timestamp);
    }
    let filling = ALLOCS.load(Ordering::Relaxed) - before;
    let stored_filled = engine.stats().stored_triples;
    let before = ALLOCS.load(Ordering::Relaxed);
    engine.advance_time((WARM_UP_ROUNDS + 1) * BATCH_MS);
    let allocs = filling + ALLOCS.load(Ordering::Relaxed) - before;
    let installed = engine.stats().stored_triples - stored_before;
    let installed_at_seal = installed - (stored_filled - stored_before);

    println!(
        "{tuples} tuples ({installed} timeless, {installed_at_seal} at the seal) in {pieces} \
         pieces on {keys} distinct keys: {allocs} allocations"
    );
    assert!(installed > 500, "the round must install a real batch");
    assert!(pieces > 0, "the round must cut pieces");
    assert!(
        tuples > 2 * keys as usize / 3,
        "the workload must repeat keys, or per-key and per-tuple costs look alike"
    );
    // Sealing installs only what no piece took: at most 127 tuples per
    // stream. An engine that stops cutting pieces installs the whole
    // round here and fails.
    assert!(
        installed_at_seal as usize <= rests.min(streams * (PIECE - 1)),
        "{installed_at_seal} tuples installed at the seal, {rests} left over from pieces"
    );
    // A touched key costs at most its value buffer's first block or a
    // doubling of it — a new snapshot on an existing key is a mark written
    // in place, an append a push; everything else is per batch or per
    // piece. One more allocation per tuple does not fit under this.
    let ceiling = 3 * keys / 2 + 200 + PER_PIECE * pieces as u64;
    assert!(
        allocs <= ceiling,
        "{allocs} allocations for {keys} keys and {pieces} pieces (ceiling {ceiling}): \
         something allocates per tuple again"
    );
    assert!(
        allocs < BEFORE_THE_REWRITE,
        "{allocs} allocations, {BEFORE_THE_REWRITE} before the install-path rewrite"
    );
}
