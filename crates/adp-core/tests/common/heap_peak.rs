//! A global allocator that tracks the calling thread's live heap bytes, so
//! a test can ask how much one call held at its peak while tests on other
//! threads allocate beside it. A test binary opts in with
//! `#[global_allocator] static A: HeapPeak = HeapPeak;`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

pub struct HeapPeak;

thread_local! {
    /// `(live bytes, high-water mark)` on this thread.
    static HEAP: Cell<(i64, i64)> = const { Cell::new((0, 0)) };
}

fn grow(delta: i64) {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = HEAP.try_with(|h| {
        let (live, peak) = h.get();
        h.set((live + delta, peak.max(live + delta)));
    });
}

// SAFETY: every call is forwarded unchanged to `System`; the bookkeeping
// beside it touches only a `Cell` in thread-local storage and allocates
// nothing.
unsafe impl GlobalAlloc for HeapPeak {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as i64);
        // SAFETY: the caller's contract for `alloc`, passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow(-(layout.size() as i64));
        // SAFETY: the caller's contract for `dealloc`, passed on as is.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size as i64 - layout.size() as i64);
        // SAFETY: the caller's contract for `realloc`, passed on as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Runs `f`, returning its output and the most heap it held at once on
/// this thread, beyond what was live when it started.
pub fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let start = HEAP.with(|h| {
        let (live, _) = h.get();
        h.set((live, live));
        live
    });
    let out = f();
    let (_, peak) = HEAP.with(Cell::get);
    (out, (peak - start) as usize)
}
