//! A counting global allocator: the number behind the repository's
//! "allocation-free round engine" invariant.
//!
//! Counting is off unless the traced pass switches it on, so the untraced
//! pass pays one relaxed load per allocation and nothing else. While it
//! is on, each thread counts into one of a few cache-line-sized cells, so
//! the cluster's workers do not bounce a shared counter between cores on
//! every allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};

const CELLS: usize = 16;

#[repr(align(64))]
struct CountCell {
    allocations: AtomicU64,
    bytes: AtomicU64,
}

static COUNTING: AtomicBool = AtomicBool::new(false);
static COUNTS: [CountCell; CELLS] = [const {
    CountCell {
        allocations: AtomicU64::new(0),
        bytes: AtomicU64::new(0),
    }
}; CELLS];
static NEXT_CELL: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator neither allocates nor registers anything.
    static MY_CELL: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The system allocator plus counters.
pub struct CountingAllocator;

impl CountingAllocator {
    fn count(size: usize) {
        // Relaxed: the counters are statistics and publish no other data.
        if !COUNTING.load(Relaxed) {
            return;
        }
        // A thread being torn down may have lost its thread-locals; it
        // then counts into cell 0.
        let cell = MY_CELL
            .try_with(|mine| {
                if mine.get() == usize::MAX {
                    mine.set(NEXT_CELL.fetch_add(1, Relaxed) % CELLS);
                }
                mine.get()
            })
            .unwrap_or(0);
        COUNTS[cell].allocations.fetch_add(1, Relaxed);
        COUNTS[cell].bytes.fetch_add(size as u64, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only addition is a pair
// of relaxed atomic increments that neither allocate nor touch the
// returned memory. This is the one piece of `unsafe` in the benchmark; it
// exists because counting allocations from outside the program has no
// safe equivalent.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        // SAFETY: the caller's obligations for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count(new_size);
        // SAFETY: `ptr` and `layout` come from this allocator, which only
        // ever hands out `System` blocks.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation calls and bytes requested while counting was on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCount {
    /// Calls to `alloc`, `alloc_zeroed` and `realloc`.
    pub allocations: u64,
    /// Bytes those calls asked for.
    pub bytes: u64,
}

/// Switches counting on or off for the whole process.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Relaxed);
}

/// The totals so far.
pub fn counted() -> AllocCount {
    COUNTS
        .iter()
        .fold(AllocCount::default(), |sum, cell| AllocCount {
            allocations: sum.allocations + cell.allocations.load(Relaxed),
            bytes: sum.bytes + cell.bytes.load(Relaxed),
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_only_while_switched_on_and_across_threads() {
        // Other tests allocate concurrently, so only lower bounds hold.
        let before = counted();
        set_counting(true);
        let here = std::hint::black_box(vec![0u8; 4096]);
        let there = std::thread::spawn(|| std::hint::black_box(vec![0u8; 8192]).len())
            .join()
            .expect("allocating thread");
        set_counting(false);
        let after = counted();
        assert_eq!(here.len() + there, 12288);
        assert!(after.allocations >= before.allocations + 2);
        assert!(after.bytes >= before.bytes + 12288);
    }
}
