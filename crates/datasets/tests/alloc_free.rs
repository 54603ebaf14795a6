//! Pins that a resident read is handed over without copying its samples: a
//! counting global allocator observes `DatasetStream::next_read` pulling a
//! 1 kb read and a 10 kb read, and the two pulls must make the same
//! allocations, of the same bytes, so nothing in a pull scales with the
//! read's signal.

use genpip_datasets::{DatasetProfile, ReadSource, SimulatedDataset, SimulatedRead};
use genpip_genomics::{GenomeBuilder, ReadOrigin};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

// Per-thread flag and counts: the libtest harness's main thread allocates
// at arbitrary moments while a test runs, and only the pulling thread's
// allocations are the test's concern. (Const-initialized thread-locals
// never allocate, so touching them inside the allocator is safe.)
thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

fn count_one(bytes: usize) {
    if COUNTING.with(Cell::get) {
        ALLOCS.with(|n| n.set(n.get() + 1));
        BYTES.with(|n| n.set(n.get() + bytes));
    }
}

struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// The allocator calls and bytes of pulling the one read of a dataset that
/// holds a read of `bases` bases, and the pulled read.
fn pull_one(bases: usize) -> ((usize, usize), SimulatedDataset, SimulatedRead) {
    let mut dataset = SimulatedDataset::generate(&DatasetProfile::ecoli().scaled(0.02));
    let truth = GenomeBuilder::new(bases)
        .seed(bases as u64)
        .build()
        .sequence()
        .clone();
    let signal = dataset.synthesizer().synthesize(&truth, 1.0, 7);
    dataset.reads = vec![SimulatedRead {
        id: 0,
        signal: Arc::new(signal),
        origin: ReadOrigin::Contaminant,
        noise_sigma: 1.0,
    }];
    let mut stream = dataset.stream();
    ALLOCS.with(|n| n.set(0));
    BYTES.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    let read = stream.next_read();
    COUNTING.with(|c| c.set(false));
    let counts = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    let read = read.expect("the dataset holds one read");
    (counts, dataset, read)
}

#[test]
fn pulling_a_resident_read_allocates_the_same_at_1_kb_and_10_kb() {
    let (short, short_set, short_read) = pull_one(1_000);
    let (long, long_set, long_read) = pull_one(10_000);
    // The pulled reads are the resident ones, sharing their signal.
    assert_eq!(short_read, short_set.reads[0]);
    assert_eq!(long_read, long_set.reads[0]);
    assert!(Arc::ptr_eq(&short_read.signal, &short_set.reads[0].signal));
    assert!(Arc::ptr_eq(&long_read.signal, &long_set.reads[0].signal));
    assert!(long_read.signal.samples.len() > 5 * short_read.signal.samples.len());
    assert_eq!(
        short, long,
        "(allocations, bytes) of a pull: 1 kb read {short:?}, 10 kb read {long:?}"
    );
}
