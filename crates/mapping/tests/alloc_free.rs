//! Verifies that alignment on a warmed [`AlignScratch`] allocates nothing but
//! its traceback matrix and the CIGAR it returns: a counting global allocator
//! watches `Mapper::finalize_mapping_with`, whose only other allocations are
//! the chain traceback's (`IncrementalChainer::best_chain`), counted
//! separately.

use genpip_genomics::rng::seeded;
use genpip_genomics::{ErrorModel, GenomeBuilder};
use genpip_mapping::{AlignScratch, Mapper, MapperParams, Strand};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

// Per-thread flag, as in `crates/basecall/tests/alloc_free.rs`: the libtest
// harness's main thread allocates at arbitrary moments.
thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.with(Cell::get) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.with(Cell::get) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn count_allocs<R>(f: impl FnOnce() -> R) -> (R, usize) {
    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, ALLOCS.load(Ordering::SeqCst))
}

#[test]
fn warmed_alignment_allocates_only_the_traceback_matrix_and_the_cigar() {
    let genome = GenomeBuilder::new(60_000).seed(41).build();
    let mapper = Mapper::build(&genome, MapperParams::default());
    let mut rng = seeded(42);
    let mut scratch = AlignScratch::new();

    // The first, longest read warms the scratch; the later ones (either
    // strand) must then fit in it.
    for (i, (start, len, reverse)) in [
        (10_000, 2_400, false),
        (30_000, 2_000, true),
        (45_000, 1_500, false),
    ]
    .into_iter()
    .enumerate()
    {
        let truth = genome.sequence().subseq(start, len);
        let (mut read, _) = ErrorModel::with_total_rate(0.05).apply(&truth, &mut rng);
        if reverse {
            read = read.reverse_complement();
        }
        let (mut fwd, mut rev) = mapper.new_chainers();
        let (batch, _) = mapper.sketch_and_seed(&read, 0);
        fwd.extend(&batch.forward);
        rev.extend(&batch.reverse);
        let chainer = if reverse { &rev } else { &fwd };
        let (_, chain_allocs) = count_allocs(|| chainer.best_chain());

        let ((mapping, _, cells), allocs) =
            count_allocs(|| mapper.finalize_mapping_with(&read, &fwd, &rev, &mut scratch));
        let mapping = mapping.expect("a 5 % error read must map");
        assert_eq!(
            mapping.strand,
            if reverse {
                Strand::Reverse
            } else {
                Strand::Forward
            }
        );
        assert!(cells > 0 && !mapping.cigar.is_empty());
        if i > 0 {
            assert_eq!(
                allocs,
                chain_allocs + 2,
                "read {i}: alignment on a warmed scratch allocated more than its matrix and CIGAR"
            );
        }
    }
}
