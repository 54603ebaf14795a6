//! Using the read mapper as a standalone library.
//!
//! ```text
//! cargo run --release --example mapping_playground
//! ```
//!
//! Indexes a synthetic genome, then maps a handful of hand-crafted queries —
//! exact substrings, reverse complements, error-laden reads, and an alien
//! read — printing the mapping each produces.

use genpip::genomics::rng::seeded;
use genpip::genomics::{DnaSeq, ErrorModel, GenomeBuilder};
use genpip::mapping::align::cigar_string;
use genpip::mapping::{Mapper, MapperParams};

fn describe(name: &str, mapper: &Mapper, query: &DnaSeq) {
    let result = mapper.map(query);
    match result.mapping {
        Some(m) => {
            let cigar = cigar_string(&m.cigar);
            let cigar_short = if cigar.len() > 40 {
                format!("{}…", &cigar[..40])
            } else {
                cigar
            };
            println!(
                "{name:<24} -> {}:{}-{} ({}) chain {:.0} identity {:.1}% mapq {} cigar {}",
                mapper.genome().name(),
                m.ref_start,
                m.ref_end,
                m.strand,
                m.chain_score,
                m.identity * 100.0,
                m.mapq,
                cigar_short
            );
        }
        None => println!(
            "{name:<24} -> unmapped (best chain score {:.1})",
            result.best_chain_score
        ),
    }
}

fn main() {
    let genome = GenomeBuilder::new(80_000).seed(42).name("toy-ref").build();
    let mapper = Mapper::build(&genome, MapperParams::default());
    println!(
        "indexed {}: {} distinct minimizers, {} entries\n",
        genome,
        mapper.index().distinct_minimizers(),
        mapper.index().total_entries()
    );

    let exact = genome.sequence().subseq(30_000, 1_200);
    describe("exact substring", &mapper, &exact);

    let rc = genome.sequence().subseq(55_000, 900).reverse_complement();
    describe("reverse complement", &mapper, &rc);

    let mut rng = seeded(7);
    let (noisy, _) =
        ErrorModel::with_total_rate(0.12).apply(&genome.sequence().subseq(10_000, 1_500), &mut rng);
    describe("12%-error read", &mapper, &noisy);

    let (very_noisy, _) =
        ErrorModel::with_total_rate(0.35).apply(&genome.sequence().subseq(10_000, 1_500), &mut rng);
    describe("35%-error read", &mapper, &very_noisy);

    let alien = GenomeBuilder::new(1_500)
        .seed(999)
        .build()
        .sequence()
        .clone();
    describe("alien read", &mapper, &alien);

    let short: DnaSeq = "ACGTACGTAT".parse().expect("valid DNA");
    describe("10 bp fragment", &mapper, &short);
}
