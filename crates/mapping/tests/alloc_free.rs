//! Verifies that alignment on a warmed [`AlignScratch`] allocates nothing but
//! its traceback matrix and the CIGAR it returns: a counting global allocator
//! watches `Mapper::finalize_mapping_with`, whose only other allocations are
//! the chain traceback's (`IncrementalChainer::best_chain`), counted
//! separately. It also holds `ReferenceIndex::build` to a number of
//! allocations that does not grow with the reference's key count and to a
//! peak of live heap bytes that no per-k-mer buffer fits in, the sketch's
//! output to one allocation on the workload references, and GenPIP's
//! per-chunk seed-and-chain step to no allocation on a warmed `MapScratch`.

use genpip_datasets::{DatasetProfile, ReadSource, StreamingSimulator};
use genpip_genomics::rng::seeded;
use genpip_genomics::{DnaSeq, ErrorModel, Genome, GenomeBuilder};
use genpip_mapping::{
    minimizers, AlignScratch, MapScratch, Mapper, MapperParams, Minimizer, RefPos, ReferenceIndex,
    ReferenceSet, Strand,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

// Per-thread flag and counts, as in `crates/basecall/tests/alloc_free.rs`:
// the libtest harness's main thread allocates at arbitrary moments, and the
// harness runs this file's tests at once, so a shared count would charge one
// test's allocations to the other. (Const-initialized thread-locals never
// allocate, so touching them inside the allocator is safe.) Bytes are
// counted by the sizes asked for, and only while counting: a block freed
// while counting that was allocated before it would drive the live count
// below zero, which the measured closures never do.
thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// Records a call that takes `grow` bytes (negative: gives them back).
fn count(calls: usize, grow: isize) {
    if COUNTING.with(Cell::get) {
        ALLOCS.with(|n| n.set(n.get() + calls));
        let live = LIVE.with(|l| {
            l.set(l.get() + grow);
            l.get()
        });
        PEAK.with(|p| p.set(p.get().max(live)));
    }
}

struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size() as isize);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, -(layout.size() as isize));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(1, new_size as isize - layout.size() as isize);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// What a closure cost the heap: allocator calls, the bytes it left live,
/// and the most bytes it held live at once.
struct Heap {
    allocs: usize,
    live: usize,
    peak: usize,
}

fn measure<R>(f: impl FnOnce() -> R) -> (R, Heap) {
    ALLOCS.with(|n| n.set(0));
    LIVE.with(|l| l.set(0));
    PEAK.with(|p| p.set(0));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    let heap = Heap {
        allocs: ALLOCS.with(Cell::get),
        live: usize::try_from(LIVE.with(Cell::get)).expect("no block freed twice"),
        peak: usize::try_from(PEAK.with(Cell::get)).expect("a peak is never negative"),
    };
    (out, heap)
}

fn count_allocs<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let (out, heap) = measure(f);
    (out, heap.allocs)
}

/// The human profile's reference composition (GC 0.41, 25 % repeats) at
/// `len` bases, and the E. coli profile's (GC 0.508, 5 % repeats).
fn human(len: usize) -> Genome {
    GenomeBuilder::new(len)
        .seed(0x4B12878)
        .gc_fraction(0.41)
        .repeat_fraction(0.25)
        .build()
}

fn ecoli() -> Genome {
    GenomeBuilder::new(300_000)
        .seed(0xEC011)
        .gc_fraction(0.508)
        .repeat_fraction(0.05)
        .build()
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
    // The index is one table and one hit array, and the build consumes the
    // sketch block by block into buffers sized once from the reference's
    // length, so the build's allocator calls — and the frees that drop the
    // index — do not depend on how many keys the reference has; one heap
    // list per key would add one per key, and a buffer that regrew one per
    // regrowth.
    let params = MapperParams::default();
    let build =
        |genome: &Genome| count_allocs(|| ReferenceIndex::build(genome, params.k, params.w));
    let (small, small_allocs) = build(&human(100_000));
    let (large, large_allocs) = build(&human(1_000_000));
    assert!(large.distinct_minimizers() > 9 * small.distinct_minimizers());
    assert_eq!(
        small_allocs, large_allocs,
        "the build's allocations grew with the reference: {} keys took {small_allocs}, {} took {large_allocs}",
        small.distinct_minimizers(),
        large.distinct_minimizers()
    );
    let (_, ecoli_allocs) = build(&ecoli());
    assert_eq!(ecoli_allocs, large_allocs, "the E. coli reference");
}

#[test]
fn the_index_builds_peak_heap_is_the_index_plus_at_most_the_sketch_and_one_block() {
    // The build's working memory beside the index it returns is bounded by
    // the minimizer list (24 bytes a minimizer) and one block of fixed size,
    // whatever the reference's length: no buffer with a slot per k-mer (a
    // hash and a strand flag, 16 bytes a base) fits.
    const BLOCK: usize = 256 << 10;
    let params = MapperParams::default();
    let genome = human(1_000_000);
    let (index, heap) = measure(|| ReferenceIndex::build(&genome, params.k, params.w));
    let list = index.total_entries() * size_of::<Minimizer>();
    assert!(
        heap.peak <= heap.live + list + BLOCK,
        "the build held {} bytes at its peak: the index is {}, its minimizer list {list}",
        heap.peak,
        heap.live
    );
    assert!(
        genome.len() * 16 > list + BLOCK,
        "a per-k-mer buffer would not fit"
    );
}

#[test]
fn the_sketch_of_a_workload_reference_is_allocated_once() {
    // `minimizers` sizes its output for the reference up front; a sketch
    // that outgrew it would regrow it, one allocator call more than a sketch
    // that fits makes. A 7-base unit repeated sketches to one minimizer in 7
    // bases, well under any estimate of 2 / (w + 1) a base; the human
    // profile's 1 Mb reference outgrew that plain estimate by 0.9 %.
    let params = MapperParams::default();
    let sketch = |seq: &DnaSeq| {
        let (mins, allocs) = count_allocs(|| minimizers(seq, params.k, params.w));
        assert!(!mins.is_empty());
        allocs
    };
    let periodic: DnaSeq = "GATTACA".repeat(10_000).parse().expect("ACGT only");
    let fits = sketch(&periodic);
    for (name, genome) in [
        ("human 100 kb", human(100_000)),
        ("human 1 Mb", human(1_000_000)),
        ("E. coli", ecoli()),
    ] {
        assert_eq!(sketch(genome.sequence()), fits, "{name}: the output regrew");
    }
}

#[test]
fn the_seed_and_chain_step_allocates_nothing_on_a_warmed_scratch() {
    // GenPIP's per-chunk path over the kernel bench's cold chunks: the first
    // 64 300-base chunks of the E. coli profile's reads, in pipeline order,
    // each read started with `reset` and its chunks seeded and chained at
    // their offsets, against a two-reference set. The first pass sizes every
    // buffer; the second must not call the allocator at all.
    let mut source = StreamingSimulator::new(&DatasetProfile::ecoli());
    let mut reads: Vec<Vec<DnaSeq>> = Vec::new();
    let mut left = 64;
    while left > 0 {
        let read = source.next_read().expect("the profile streams reads");
        let read = &read.signal.truth;
        let n = (read.len() / 300).min(left);
        reads.push((0..n).map(|c| read.subseq(c * 300, 300)).collect());
        left -= n;
    }
    let decoy = GenomeBuilder::new(100_000).seed(7).name("decoy").build();
    let set = ReferenceSet::build(
        &[source.reference().clone(), decoy],
        MapperParams::default(),
    );
    let pass = |scratch: &mut MapScratch| {
        let mut anchors = 0;
        for chunks in &reads {
            set.reset(scratch);
            for (c, chunk) in chunks.iter().enumerate() {
                anchors += set
                    .seed_and_chain(chunk, (c * 300) as RefPos, scratch)
                    .anchors;
            }
        }
        anchors
    };
    let mut scratch = MapScratch::default();
    let warm = pass(&mut scratch);
    let (again, allocs) = count_allocs(|| pass(&mut scratch));
    assert!(warm > 0, "the chunks must seed");
    assert_eq!(again, warm);
    assert_eq!(allocs, 0, "a warmed scratch allocated in the step");
}
