//! Allocation discipline of FP-Growth, counted by a global allocator: a
//! run reuses one conditional tree per recursion depth and one set of
//! projection buffers, so its allocations grow with the depth and the
//! widest tree, not with the tens of thousands of conditional trees it
//! builds. Counts are per thread, so tests running beside each other
//! cannot inflate them.

use maras_mining::{fpgrowth_into, FnSink, Item, TransactionDb};
use rand::{rngs::StdRng, Rng, SeedableRng};
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

/// This thread's allocation count across `f`.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// A quarter-shaped database: 3,000 reports of 2–5 drugs (ids 0..40) and
/// 1–4 ADRs (ids 100..150), low ids hot, as cleaning leaves them.
fn quarter() -> TransactionDb {
    let mut rng = StdRng::seed_from_u64(25);
    let draw = |lo: u32, n: u32, rng: &mut StdRng| {
        let u = rng.gen_range(0.0f64..1.0);
        Item(lo + (u * u * n as f64) as u32)
    };
    let rows = (0..3_000)
        .map(|_| {
            let drugs = rng.gen_range(2usize..=5);
            let adrs = rng.gen_range(1usize..=4);
            let mut row: Vec<Item> = (0..drugs).map(|_| draw(0, 40, &mut rng)).collect();
            row.extend((0..adrs).map(|_| draw(100, 50, &mut rng)));
            row
        })
        .collect();
    TransactionDb::new(rows)
}

#[test]
fn fpgrowth_allocates_far_less_than_once_per_pattern() {
    let db = quarter();
    let mut patterns = 0u64;
    let allocs = allocs_during(|| {
        fpgrowth_into(&db, 1, &mut FnSink(|_: &[Item], _| patterns += 1));
    });
    assert!(patterns > 50_000, "the quarter must mine a large space (got {patterns})");
    assert!(
        allocs * 100 < patterns,
        "{allocs} allocations for {patterns} patterns: conditional trees must reuse their buffers"
    );
}
