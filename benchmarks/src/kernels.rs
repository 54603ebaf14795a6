//! Standalone timings of three basecall kernels on the workload's own
//! signal: the emission MVM block, scalar chunk decode, and the 8-lane
//! batched decode (ROADMAP item 2's kill criterion is their ratio).

use crate::stats::fastest;
use genpip_basecall::{Basecaller, CallScratch, ChunkJob, EmissionModel, LaneDecoder, LaneScratch};
use genpip_datasets::ReadSource;
use std::hint::black_box;
use std::time::Instant;

/// Full-length chunks the kernels run over, and alternating rounds.
pub const CHUNKS: usize = 32;
const ROUNDS: usize = 5;

pub struct KernelTimes {
    pub emission_ns_per_sample: f64,
    pub scalar_ns_per_sample: f64,
    pub lanes8_ns_per_sample: f64,
}

/// Times the kernels over the first `chunks` full chunks `source` yields.
/// Scalar and lane rounds alternate so that a slow moment on the host hits
/// both sides; each side reports its fastest round.
pub fn measure(
    caller: &Basecaller,
    samples_per_chunk: usize,
    source: &mut dyn ReadSource,
    chunks: usize,
) -> KernelTimes {
    let mut signal: Vec<Vec<f32>> = Vec::new();
    while signal.len() < chunks {
        let Some(read) = source.next_read() else {
            break;
        };
        signal.extend(
            read.signal
                .samples
                .chunks_exact(samples_per_chunk)
                .map(<[f32]>::to_vec),
        );
    }
    signal.truncate(chunks);
    let total = (signal.len() * samples_per_chunk).max(1) as f64;
    let jobs: Vec<ChunkJob> = signal
        .iter()
        .map(|samples| ChunkJob {
            samples,
            carry: None,
        })
        .collect();

    let emission = caller.emission_model();
    let mut block = vec![0f32; EmissionModel::BLOCK * emission.states()];
    let mut scalar_scratch = CallScratch::new();
    let lanes = LaneDecoder::new(8);
    let mut lane_scratch = LaneScratch::new();
    let mut lane_out = Vec::new();
    let (mut emission_ns, mut scalar_ns, mut lane_ns) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        let t = Instant::now();
        for xs in signal
            .iter()
            .flat_map(|s| s.chunks_exact(EmissionModel::BLOCK))
        {
            emission.log_likelihoods_block(black_box(xs), &mut block);
            black_box(&block);
        }
        emission_ns.push(t.elapsed().as_nanos() as f64 / total);

        let t = Instant::now();
        for job in &jobs {
            black_box(caller.call_chunk_with(
                black_box(job.samples),
                job.carry,
                &mut scalar_scratch,
            ));
        }
        scalar_ns.push(t.elapsed().as_nanos() as f64 / total);

        let t = Instant::now();
        lanes.call_batch(caller, black_box(&jobs), &mut lane_scratch, &mut lane_out);
        black_box(&lane_out);
        lane_ns.push(t.elapsed().as_nanos() as f64 / total);
    }
    KernelTimes {
        emission_ns_per_sample: fastest(&emission_ns),
        scalar_ns_per_sample: fastest(&scalar_ns),
        lanes8_ns_per_sample: fastest(&lane_ns),
    }
}
