//! Allocation guard for the firing path (DESIGN.md §14, "What a firing
//! costs the recorder").
//!
//! A scheduling round's cost must not depend on how many firings came
//! before it. One selective standing query fires once per round, far past
//! the flight recorder's `FIRING_CAP` retained lineages; the round that
//! fires for the 10th time and the one that fires for the 5 000th read
//! the same-sized window and must allocate exactly the same number of
//! blocks — and no more than they did before the recorder's lineage
//! container became a ring.
//!
//! This file holds one test on purpose: the counter is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use wukong_core::{EngineConfig, WukongS};
use wukong_obs::TraceRecorder;
use wukong_rdf::{StreamId, Timestamp, Triple};
use wukong_stream::StreamSchema;

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
const EARLY: u64 = 10;
const LATE: u64 = 5_000;

/// Allocations of one such `fire_ready` at the parent of the lineage-ring
/// change, on this exact workload; debug builds add the per-round
/// invariant scrub's.
const BEFORE_THE_RING: u64 = if cfg!(debug_assertions) { 37 } else { 36 };

#[test]
fn a_firing_allocates_the_same_whatever_came_before() {
    assert!(
        LATE as usize > TraceRecorder::FIRING_CAP,
        "must pass the cap"
    );
    let engine = WukongS::new(EngineConfig::single_node());
    let ss = engine.strings().clone();
    let po = engine.register_stream(StreamSchema::timeless(StreamId(0), "PO", BATCH_MS));
    let logan = ss.intern_entity("Logan").expect("interns");
    let posts = ss.intern_predicate("po").expect("interns");
    engine
        .register_continuous(
            "REGISTER QUERY q SELECT ?Z FROM PO [RANGE 1s STEP 100ms] \
             WHERE { GRAPH PO { Logan po ?Z } }",
        )
        .expect("registers");

    // One post per batch interval, one firing per round: from the tenth
    // round on, every window holds exactly ten posts.
    let mut per_firing = Vec::new();
    for k in 0..LATE {
        let post = ss.intern_entity(&format!("T-{k}")).expect("interns");
        engine.ingest(po, Triple::new(logan, posts, post), k * BATCH_MS + 50);
        engine.advance_time((k + 1) * BATCH_MS);
        let before = ALLOCS.load(Ordering::Relaxed);
        let firings = engine.fire_ready();
        per_firing.push(ALLOCS.load(Ordering::Relaxed) - before);
        assert_eq!(firings.len(), 1, "round {k} fires once");
        let rows = firings[0].results.rows.len() as u64;
        assert_eq!(rows, (k + 1).min(10), "round {k} reads its whole window");
    }
    assert_eq!(engine.handle().trace_snapshot().firings, LATE);

    let (early, late) = (
        per_firing[EARLY as usize - 1],
        per_firing[LATE as usize - 1],
    );
    println!("firing {EARLY}: {early} allocations, firing {LATE}: {late}");
    assert_eq!(
        early, late,
        "firing {LATE} allocates differently from firing {EARLY}"
    );
    // Eight fewer since: the lineage is sized from the window grid (3 → 1),
    // a one-lane pool region keeps no per-task lists (2 → 0), and the
    // recorder, the `Firing` and the `ResultSet` share the query's class
    // name and projected variable names instead of copying them (4 → 0).
    assert!(
        late + 8 <= BEFORE_THE_RING,
        "{late} allocations per firing, {BEFORE_THE_RING} before the lineage ring"
    );
}
