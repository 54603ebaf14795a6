//! Verifies the acceptance criterion that steady-state chunk decoding with a
//! reused [`DecodeScratch`] performs **zero heap allocations**, that a
//! whole `call_chunk_with` on a reused [`CallScratch`] performs exactly the
//! two its result needs, that its decode and quality steps run apart
//! allocate only the decode step's bases (the quality step's Phreds are
//! borrowed from the scratch), that a warmed conventional read — each
//! chunk's decode step, then its quality step on the path the decode left —
//! allocates one block a chunk, its bases, and that a cleared
//! [`PathBuffer`] keeps a second read's paths without one: a counting
//! global allocator observes the allocator while equally sized chunks
//! stream through `decode_with`, `call_chunk_with`, the two steps and the
//! path buffer.

use genpip_basecall::viterbi::{decode_with, DecodeScratch, FixedPointModel, Transitions};
use genpip_basecall::{Basecaller, CallScratch, PathBuffer};
use genpip_genomics::GenomeBuilder;
use genpip_signal::{PoreModel, SignalSynthesizer};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

// The counting flag must be per-thread: the libtest harness's main thread
// sits in `Receiver::recv` while the test runs and lazily allocates its
// mpmc parking context at an arbitrary moment — with a process-global flag
// that race is counted and the test fails spuriously. Only allocations made
// by the decoding thread itself are the test's concern. The count is
// per-thread too: the harness runs this file's tests at once, and a shared
// count would charge one test's allocations to the other.
// (Const-initialized thread-locals never allocate, so touching them inside
// the allocator is safe.)
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

#[test]
fn steady_state_decode_is_allocation_free() {
    let pore = PoreModel::synthetic(3, 7);
    let model = FixedPointModel::new(&pore, Transitions::from_mean_dwell(8.0));
    let synth = SignalSynthesizer::new(pore);
    let truth = GenomeBuilder::new(1_200)
        .seed(11)
        .build()
        .sequence()
        .clone();
    let sig = synth.synthesize(&truth, 1.0, 3);
    let chunk_len = 2_400.min(sig.samples.len() / 3);
    let chunks: Vec<&[f32]> = sig.samples.chunks(chunk_len).collect();
    assert!(chunks.len() >= 3, "need several chunks for a steady state");

    // Warm-up: the first decode sizes every scratch buffer.
    let mut scratch = DecodeScratch::new();
    let mut carry = None;
    decode_with(&model, chunks[0], carry, &mut scratch);
    carry = scratch.states().last().copied();

    // Steady state: no chunk is larger than the warm-up chunk, so no buffer
    // may grow and no allocation may happen.
    ALLOCS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    let mut total_score = 0.0;
    for chunk in &chunks[1..] {
        let stats = decode_with(&model, chunk, carry, &mut scratch);
        carry = scratch.states().last().copied();
        total_score += stats.score;
    }
    COUNTING.with(|c| c.set(false));
    let allocs = ALLOCS.with(Cell::get);

    assert!(total_score.is_finite());
    assert_eq!(
        allocs,
        0,
        "steady-state decode_with allocated {allocs} times across {} chunks",
        chunks.len() - 1
    );
}

#[test]
fn steady_state_call_allocates_only_its_bases_and_quals() {
    let pore = PoreModel::synthetic(3, 7);
    let synth = SignalSynthesizer::new(pore.clone());
    let caller = Basecaller::new(&pore, synth.mean_dwell());
    let truth = GenomeBuilder::new(1_500)
        .seed(12)
        .build()
        .sequence()
        .clone();
    let sig = synth.synthesize(&truth, 1.2, 4);
    let chunks: Vec<&[f32]> = sig.samples.chunks(2_400).collect();
    assert!(chunks.len() >= 4, "need several chunks for a steady state");

    // Warm-up: the first call sizes the decode buffers and the assembly's
    // segment buffer.
    let mut scratch = CallScratch::new();
    let mut carry = caller.call_chunk_with(chunks[0], None, &mut scratch).carry;

    // Steady state: each call allocates the chunk it returns — its bases
    // and its qualities, each at its final size — and nothing else.
    let mut called = Vec::with_capacity(chunks.len());
    ALLOCS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    for chunk in &chunks[1..] {
        let out = caller.call_chunk_with(chunk, carry, &mut scratch);
        carry = out.carry;
        called.push(out);
    }
    COUNTING.with(|c| c.set(false));
    let allocs = ALLOCS.with(Cell::get);

    assert!(called.iter().all(|c| !c.bases.is_empty()));
    assert_eq!(
        allocs,
        2 * called.len(),
        "steady-state call_chunk_with allocated {allocs} times across {} chunks",
        called.len()
    );
}

/// Counts the allocator calls `f` makes on this thread.
fn allocs_in<R>(f: impl FnOnce() -> R) -> (R, usize) {
    ALLOCS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, ALLOCS.with(Cell::get))
}

#[test]
fn the_two_steps_allocate_only_their_bases_and_quals_and_kept_paths_nothing() {
    let pore = PoreModel::synthetic(3, 7);
    let synth = SignalSynthesizer::new(pore.clone());
    let caller = Basecaller::new(&pore, synth.mean_dwell());
    let truth = GenomeBuilder::new(1_500)
        .seed(13)
        .build()
        .sequence()
        .clone();
    let sig = synth.synthesize(&truth, 1.2, 5);
    let chunks: Vec<&[f32]> = sig.samples.chunks(2_400).collect();
    assert!(chunks.len() >= 4, "need several chunks for a steady state");

    // Two reads' worth of the pipeline's deferral: every chunk decoded and
    // its path kept, then every kept path's quality step; the buffer is
    // cleared between the reads. The first read sizes the scratch and the
    // buffer.
    let mut scratch = CallScratch::new();
    let mut kept = PathBuffer::default();
    let (mut bases, mut quals) = (Vec::new(), Vec::new());
    let mut read = |kept: &mut PathBuffer, bases: &mut Vec<_>, quals: &mut Vec<_>| {
        kept.clear();
        bases.clear();
        quals.clear();
        let mut carry = None;
        for chunk in &chunks {
            let decoded = caller.decode_chunk_with(chunk, carry, &mut scratch);
            carry = decoded.carry;
            kept.push(&scratch);
            bases.push(decoded.bases);
        }
        for (i, chunk) in chunks.iter().enumerate() {
            let quality = caller.chunk_quality_with(chunk, kept.get(i), &mut scratch);
            quals.push((quality.sqs, quality.quals.len()));
        }
    };
    read(&mut kept, &mut bases, &mut quals);

    // Steady state: the decode step allocates its result's one vector, the
    // bases; the quality step writes its Phreds into the scratch and
    // allocates nothing, and nor do the kept paths.
    let ((), allocs) = allocs_in(|| read(&mut kept, &mut bases, &mut quals));
    assert!(bases.iter().all(|b| !b.is_empty()));
    assert_eq!(quals.len(), bases.len());
    assert!(quals.iter().zip(&bases).all(|(q, b)| q.1 == b.len()));
    assert_eq!(
        allocs,
        bases.len(),
        "steady-state decode and quality steps allocated {allocs} times across {} chunks",
        chunks.len()
    );
}

#[test]
fn a_warmed_conventional_read_allocates_one_block_a_chunk_its_bases() {
    let pore = PoreModel::synthetic(3, 7);
    let synth = SignalSynthesizer::new(pore.clone());
    let caller = Basecaller::new(&pore, synth.mean_dwell());
    let truth = GenomeBuilder::new(1_500)
        .seed(14)
        .build()
        .sequence()
        .clone();
    let sig = synth.synthesize(&truth, 1.2, 6);
    let chunks: Vec<&[f32]> = sig.samples.chunks(2_400).collect();
    assert!(chunks.len() >= 4, "need several chunks for a steady state");

    // The conventional flow's chunk loop: every chunk decoded, stitched to
    // its predecessor, and its quality step run at once on the path the
    // decode left; the read keeps the bases and the Phreds' sum and count.
    // The first read sizes the scratch.
    let mut scratch = CallScratch::new();
    let mut bases = Vec::with_capacity(chunks.len());
    let mut read = |bases: &mut Vec<_>| {
        bases.clear();
        let (mut sqs, mut quals, mut carry) = (0.0, 0, None);
        for chunk in &chunks {
            let decoded = caller.decode_chunk_with(chunk, carry, &mut scratch);
            carry = decoded.carry;
            let quality = caller.decoded_quality_with(chunk, &mut scratch);
            (sqs, quals) = (sqs + quality.sqs, quals + quality.quals.len());
            bases.push(decoded.bases);
        }
        (sqs, quals)
    };
    read(&mut bases);

    // Steady state: one block a chunk, its bases — no Phred vector.
    let ((sqs, quals), allocs) = allocs_in(|| read(&mut bases));
    assert!(sqs > 0.0);
    assert_eq!(quals, bases.iter().map(|b| b.len()).sum::<usize>());
    assert_eq!(
        allocs,
        chunks.len(),
        "a warmed conventional read allocated {allocs} times across {} chunks",
        chunks.len()
    );
}
