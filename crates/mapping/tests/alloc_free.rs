//! Verifies that alignment on a warmed [`AlignScratch`] allocates nothing but
//! its traceback matrix and the CIGAR it returns: a counting global allocator
//! watches `Mapper::finalize_mapping_with`, whose only other allocations are
//! the chain traceback's (`IncrementalChainer::best_chain`), counted
//! separately. It also holds `ReferenceIndex::build` to a number of
//! allocations that does not grow with the reference's key count.

use genpip_genomics::rng::seeded;
use genpip_genomics::{ErrorModel, GenomeBuilder};
use genpip_mapping::{AlignScratch, Mapper, MapperParams, ReferenceIndex, Strand};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

// Per-thread flag and count, as in `crates/basecall/tests/alloc_free.rs`:
// the libtest harness's main thread allocates at arbitrary moments, and the
// harness runs this file's tests at once, so a shared count would charge one
// test's allocations to the other. (Const-initialized thread-locals never
// allocate, so touching them inside the allocator is safe.)
thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    if COUNTING.with(Cell::get) {
        ALLOCS.with(|n| n.set(n.get() + 1));
    }
}

struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn count_allocs<R>(f: impl FnOnce() -> R) -> (R, usize) {
    ALLOCS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, ALLOCS.with(Cell::get))
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

#[test]
fn the_index_build_allocates_as_often_at_1_mb_as_at_100_kb() {
    // The human profile's reference composition (GC 0.41, 25 % repeats) at
    // two sizes. The index is one table and one hit array, so the build's
    // allocator calls — and the frees that drop the index — do not depend
    // on how many keys the reference has; one heap list per key would add
    // one per key. (At both sizes the sketch outgrows `minimizers`'
    // 2 / (w + 1) pre-size once; a sketch that fitted would make one call
    // fewer.)
    let params = MapperParams::default();
    let build = |len: usize| {
        let genome = GenomeBuilder::new(len)
            .seed(0x4B12878)
            .gc_fraction(0.41)
            .repeat_fraction(0.25)
            .build();
        count_allocs(|| ReferenceIndex::build(&genome, params.k, params.w))
    };
    let (small, small_allocs) = build(100_000);
    eprintln!(
        "DBG {small_allocs} {} {}",
        build(100_000).1,
        build(1_000_000).1
    );
    let (large, large_allocs) = build(1_000_000);
    assert!(large.distinct_minimizers() > 9 * small.distinct_minimizers());
    assert_eq!(
        small_allocs, large_allocs,
        "the build's allocations grew with the reference: {} keys took {small_allocs}, {} took {large_allocs}",
        small.distinct_minimizers(),
        large.distinct_minimizers()
    );
}
