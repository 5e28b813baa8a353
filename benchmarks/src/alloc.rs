//! A counting global allocator for the `allocs_*` / `alloc_bytes_*`
//! per-layer metrics.
//!
//! Counting is gated by one relaxed flag, so untraced passes pay a single
//! predictable branch per allocation. The benchmark drives the engine from
//! one thread with one worker lane, so the counters see a deterministic
//! allocation sequence and two traced runs of one seed agree exactly. For
//! the same reason a count is a plain load and store, not a locked
//! read-modify-write: an ingest-heavy pass allocates millions of times, and
//! `lock xadd` on two counters cost it several percent.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus two statistics counters.
pub struct Counting;

#[inline]
fn note(size: usize) {
    // Relaxed: the counters publish no other data; they are statistics
    // read by the one thread that also allocates. A second allocating
    // thread could lose counts, never corrupt memory.
    if ENABLED.load(Ordering::Relaxed) {
        ALLOCS.store(ALLOCS.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        BYTES.store(
            BYTES.load(Ordering::Relaxed) + size as u64,
            Ordering::Relaxed,
        );
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr`/`layout` came from this allocator, i.e. `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Turns counting on or off (off at start-up).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// `(allocations, bytes requested)` counted so far.
pub fn counters() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}
