//! Allocation discipline of the set kernels, counted by a global
//! allocator: the popcount-only counts allocate nothing, and a
//! materializing intersect of two single-chunk sets reserves its output up
//! front instead of regrowing it. Counts are per thread, so tests running
//! beside each other cannot inflate them.

use maras_tidset::TidSet;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting each allocation and reallocation made by
/// the calling thread.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` so an allocation during thread teardown cannot panic here.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; counting touches only a thread-local `Cell`, which neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

/// This thread's allocation count across `f`, with the result kept opaque.
fn allocs_during<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCS.with(Cell::get);
    std::hint::black_box(f());
    ALLOCS.with(Cell::get) - before
}

/// Sorted unique tids: `n` values drawn from `0..universe` by a
/// deterministic xorshift.
fn draw(seed: u64, n: usize, universe: u64) -> Vec<u32> {
    let mut x = seed | 1;
    let mut v: Vec<u32> = (0..n * 2)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % universe) as u32
        })
        .collect();
    v.sort_unstable();
    v.dedup();
    v.truncate(n);
    v
}

/// `tids` folded into the first 60,000 tids: one chunk, so one array
/// container.
fn single_chunk(tids: &[u32]) -> TidSet {
    let mut v: Vec<u32> = tids.iter().map(|t| t % 60_000).collect();
    v.sort_unstable();
    v.dedup();
    TidSet::from_sorted(&v)
}

#[test]
fn counts_allocate_nothing_and_a_single_chunk_intersect_reserves_up_front() {
    // ~45k of 131k tids per side: bitmap containers only.
    let dense_a = TidSet::from_sorted(&draw(11, 45_000, 131_072));
    let dense_b = TidSet::from_sorted(&draw(12, 45_000, 131_072));
    // ~3k tids of 10M per side, folded into one chunk.
    let ca = single_chunk(&draw(21, 3_000, 10_000_000));
    let cb = single_chunk(&draw(22, 3_000, 10_000_000));
    assert_eq!(ca.container_mix(), (1, 0), "the folded sets must be one array container");
    // The first kernel call registers the crate's metric handles, once per
    // process; that is not a cost of the kernels.
    dense_a.intersect_count(&dense_b);

    let count = allocs_during(|| dense_a.intersect_count(&dense_b));
    assert_eq!(count, 0, "intersect_count must be allocation-free");
    let capped = allocs_during(|| ca.intersect_count_capped(&cb, 5));
    assert_eq!(capped, 0, "intersect_count_capped must be allocation-free");
    // One reserved output vector plus the chunk directory.
    let single_chunk = allocs_during(|| ca.intersect(&cb));
    assert!(
        single_chunk <= 4,
        "single-chunk array intersect must reserve upfront, not regrow \
         (saw {single_chunk} allocations)"
    );
}
