//! A counting `GlobalAlloc` over the system allocator.
//!
//! Installed in the benchmark binary only, so both commits of a comparison
//! pay the same (three relaxed atomics per call) and the engine crates stay
//! untouched. One replay worker means the counters are exact: the same
//! campaign allocates the same number of blocks and bytes in every process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

/// The allocator type; `main.rs` installs one as `#[global_allocator]`.
pub struct CountingAlloc;

fn on_alloc(size: usize) {
    let size = size as u64;
    ALLOCS.fetch_add(1, Relaxed);
    ALLOC_BYTES.fetch_add(size, Relaxed);
    let live = LIVE_BYTES.fetch_add(size, Relaxed) + size;
    PEAK_LIVE_BYTES.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are statistics and publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            LIVE_BYTES.fetch_sub(layout.size() as u64, Relaxed);
            on_alloc(new_size);
        }
        new_ptr
    }
}

/// A reading of the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    /// Blocks allocated since process start (a `realloc` counts as one).
    pub allocs: u64,
    /// Bytes allocated since process start.
    pub bytes: u64,
    /// Bytes allocated and not yet freed.
    pub live: u64,
}

/// Reads the counters.
pub fn snapshot() -> Snapshot {
    Snapshot {
        allocs: ALLOCS.load(Relaxed),
        bytes: ALLOC_BYTES.load(Relaxed),
        live: LIVE_BYTES.load(Relaxed),
    }
}

/// What one measured region allocated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Usage {
    /// Blocks allocated inside the region.
    pub allocs: u64,
    /// Bytes allocated inside the region.
    pub bytes: u64,
    /// Highest live heap inside the region, above the live heap at entry.
    pub peak_live: u64,
}

/// A measured region, from [`Region::start`] to [`Region::end`]. Regions
/// do not nest: starting one resets the peak tracker.
pub struct Region {
    before: Snapshot,
}

impl Region {
    pub fn start() -> Self {
        let before = snapshot();
        PEAK_LIVE_BYTES.store(before.live, Relaxed);
        Region { before }
    }

    pub fn end(self) -> Usage {
        let after = snapshot();
        Usage {
            allocs: after.allocs - self.before.allocs,
            bytes: after.bytes - self.before.bytes,
            peak_live: PEAK_LIVE_BYTES.load(Relaxed) - self.before.live,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The counters are process-wide and `cargo test` runs tests on
    /// parallel threads, so an exact figure shows only in a window in which
    /// no other test allocates; the figures are deterministic when
    /// undisturbed, so one such window in many tries is proof enough.
    fn some_try_sees(expected: (Usage, i64), work: impl Fn() -> Vec<u8>) -> bool {
        (0..2000).any(|_| {
            let live_before = snapshot().live;
            let region = Region::start();
            let kept = work();
            let usage = region.end();
            drop(kept);
            let leaked = snapshot().live as i64 - live_before as i64;
            (usage, leaked) == expected
        })
    }

    #[test]
    fn region_counts_are_exact_and_live_bytes_balance_to_zero() {
        let expected = Usage {
            allocs: 2,
            bytes: 4000,
            peak_live: 4000,
        };
        assert!(some_try_sees((expected, 0), || {
            let scratch = vec![1u8; 1000];
            let kept = vec![2u8; 3000];
            drop(scratch);
            kept
        }));
    }

    #[test]
    fn realloc_moves_the_live_count_to_the_new_size() {
        let expected = Usage {
            allocs: 2,
            bytes: 1100,
            peak_live: 1000,
        };
        assert!(some_try_sees((expected, 0), || {
            let mut v: Vec<u8> = Vec::with_capacity(100);
            v.reserve_exact(1000);
            v
        }));
    }
}
