//! A counting global allocator for the allocation tests
//! (`document_allocations`, `cache_hit_allocations`,
//! `front_half_allocations`, `scan_allocations`, `oracle_memory`,
//! `load_memory`). Included
//! with `#[path]`, not through `common/mod.rs`: a binary that includes it
//! makes [`Counting`] its global allocator, which is why each allocation
//! test has a file of its own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the allocations and reallocations each
/// thread makes, and the bytes it holds live with their high-water mark.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    // Signed: a thread may free what another allocated.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the thread's counter may already be gone while it exits.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn grow(bytes: i64) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + bytes);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; counting touches only const-initialized
// thread-local `Cell`s, which allocate nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        grow(layout.size() as i64);
        // SAFETY: the caller's guarantees for `layout` are passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow(-(layout.size() as i64));
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        grow(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Run `f` and return its value with the allocations and reallocations it
/// made on the calling thread.
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// Run `f` and return its value with the most bytes it held live at once on
/// the calling thread, above what the thread held when `f` started; its
/// value, if it still holds it, included.
#[allow(dead_code)] // not every binary that includes this file measures bytes
pub fn peak_bytes<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let start = LIVE.with(Cell::get);
    let outer = PEAK.with(|peak| peak.replace(start));
    let out = f();
    let peak = PEAK.with(|peak| peak.replace(outer.max(peak.get())));
    (out, (peak - start) as u64)
}
