//! Counting global allocator for the `alloc.*` layer metrics.
//!
//! Installed in the harness binary only: the end-to-end numbers come from
//! the stock `scenario` / `suite` children, which never see it.  Counting
//! is off except while a single-threaded traced pass runs, so the
//! in-process `setup_s` timing pays one relaxed load per allocation and
//! nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

pub(crate) struct CountingAllocator;

static ENABLED: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated minus bytes freed since counting was last reset.  Signed
/// because memory allocated before the reset may be freed after it.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn grew(bytes: usize) {
    CALLS.fetch_add(1, Ordering::Relaxed);
    let live = LIVE.fetch_add(bytes as i64, Ordering::Relaxed) + bytes as i64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: a transparent pass-through to `System`, which upholds the
// `GlobalAlloc` contract; the only added behaviour is relaxed atomic
// arithmetic, which never allocates and cannot unwind.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: forwards the caller's layout to `System.alloc` unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            grew(layout.size());
        }
        System.alloc(layout)
    }

    // SAFETY: forwards the caller's pointer/layout to `System.realloc` unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
            grew(new_size);
        }
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: forwards the caller's pointer/layout to `System.dealloc` unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ENABLED.load(Ordering::Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        }
        System.dealloc(ptr, layout)
    }
}

/// Zero the counters and start counting.
pub(crate) fn start() {
    CALLS.store(0, Ordering::Relaxed);
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Stop counting; returns the peak of live bytes since [`start`].
pub(crate) fn stop() -> u64 {
    ENABLED.store(false, Ordering::Relaxed);
    PEAK.load(Ordering::Relaxed).max(0) as u64
}

/// Allocation calls (`alloc` + `realloc`) since [`start`].
pub(crate) fn calls() -> u64 {
    CALLS.load(Ordering::Relaxed)
}
