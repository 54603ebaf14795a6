//! Verifies the acceptance criterion that steady-state chunk decoding with a
//! reused [`DecodeScratch`] performs **zero heap allocations**: a counting
//! global allocator observes the allocator while equally sized chunks stream
//! through `decode_with` and `call_chunk_with`'s decode path.

use genpip_basecall::viterbi::{decode_with, DecodeScratch, Transitions};
use genpip_basecall::EmissionModel;
use genpip_genomics::GenomeBuilder;
use genpip_signal::{PoreModel, SignalSynthesizer};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

// The counting flag must be per-thread: the libtest harness's main thread
// sits in `Receiver::recv` while the test runs and lazily allocates its
// mpmc parking context at an arbitrary moment — with a process-global flag
// that race is counted and the test fails spuriously. Only allocations made
// by the decoding thread itself are the test's concern. (Const-initialized
// thread-locals never allocate, so reading the flag inside the allocator is
// safe.)
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

#[test]
fn steady_state_decode_is_allocation_free() {
    let pore = PoreModel::synthetic(3, 7);
    let emission = EmissionModel::from_pore_model(&pore);
    let transitions = Transitions::from_mean_dwell(8.0);
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
    decode_with(&emission, chunks[0], transitions, carry, &mut scratch);
    carry = scratch.final_state();

    // Steady state: no chunk is larger than the warm-up chunk, so no buffer
    // may grow and no allocation may happen.
    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.with(|c| c.set(true));
    let mut total_score = 0.0;
    for chunk in &chunks[1..] {
        let stats = decode_with(&emission, chunk, transitions, carry, &mut scratch);
        carry = scratch.final_state();
        total_score += stats.score;
    }
    COUNTING.with(|c| c.set(false));
    let allocs = ALLOCS.load(Ordering::SeqCst);

    assert!(total_score.is_finite());
    assert_eq!(
        allocs,
        0,
        "steady-state decode_with allocated {allocs} times across {} chunks",
        chunks.len() - 1
    );
}
