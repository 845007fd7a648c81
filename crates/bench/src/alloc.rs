//! A counting global allocator, for the measurements that are about memory
//! rather than time: the allocation-budget tests (`tests/alloc_budget.rs`).
//!
//! A binary opts in with
//! `#[global_allocator] static A: ecm_bench::alloc::Counting = ecm_bench::alloc::Counting;`.
//! Counters are per thread: parallel tests do not see each other, and an
//! engine's worker threads do not blur what the calling thread did.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The allocator: `System`, with every call counted on its thread.
pub struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn note(bytes: i64) {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down; those calls go uncounted.
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + bytes);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
    if bytes > 0 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping around it touches only
// const-initialised, destructor-free thread locals and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64);
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as i64));
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`, with
        // this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// What `work` allocated on this thread, as a count of allocations.
pub fn allocations<T>(work: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = work();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// How far this thread's live bytes rose, while `work` ran, above what was
/// live once it had finished — the memory `work` needed beyond what it
/// left behind.
pub fn peak_above_result<T>(work: impl FnOnce() -> T) -> (usize, T) {
    PEAK.with(|peak| peak.set(LIVE.with(Cell::get)));
    let out = work();
    let above = PEAK.with(Cell::get) - LIVE.with(Cell::get);
    (above.max(0) as usize, out)
}
