//! The benchmark's own counting allocator.
//!
//! Every heap allocation of the process (all threads, so the pool's worker
//! shards too) bumps one relaxed counter, and a second one private to the
//! allocating thread. The `*.allocs_per_pkt` metrics are differences of
//! those counters around steady-state passes; they are exact counts, so
//! each is taken twice and the run fails if the two disagree. This is
//! deliberately not the crates' `alloc-counter` feature: the benchmark
//! measures the crates as they ship, with no feature on.
//!
//! The per-thread counter exists because the pool's flush barrier is not
//! repeatable on the calling thread: `flush()` waits on a fresh std channel,
//! and `recv` allocates (the channel's waiter list) only when the reply has
//! not arrived by the time it is called — a race — and the control channel
//! it sends the barrier through allocates a block at every 31st message.
//! Those are a handful of allocations per barrier, not per packet. The
//! calling thread's allocations inside `flush()` are therefore measured
//! apart and left out of `seg6-runtime.allocs_per_pkt`; `service()` ends in
//! the same barrier but cannot be split from outside, so
//! `srv6d.allocs_per_pkt` charges the caller the fewest allocations any one
//! `service()` call made.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator neither allocates nor registers anything.
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    // `try_with`: a thread being torn down may allocate after its locals
    // are gone; those allocations still count globally.
    let _ = THREAD_ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// The system allocator plus one counter.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a relaxed
// counter increment and a thread-local one, which touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations for `alloc_zeroed` are passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`; the caller guarantees the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations (including reallocations) made by the process so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Allocations made by the calling thread so far.
pub fn thread_allocations() -> u64 {
    THREAD_ALLOCATIONS.with(Cell::get)
}
