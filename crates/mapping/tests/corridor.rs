//! Differential suite, "corridor ≡ the band it replaces": the alignment
//! `Mapper::finalize_mapping` computes inside the corridor along its chain
//! must be the one the straight band it used before would have found — the
//! band centred on the chain's median diagonal, `spread / 2 + band_margin +
//! n / 20` columns to either side — at a fraction of the cells.
//!
//! The old band is rebuilt here from public pieces only: the window is the
//! reported reference span, the chain is `IncrementalChainer::best_chain`,
//! and `banded_global` aligns inside (centre, half-width). `Mapping` carries
//! the alignment's score, CIGAR and identity; the CIGAR fixes `columns`, and
//! with `columns` equal, equal identities are equal `matches`.

use genpip_genomics::rng::{seeded, Rng, SeededRng};
use genpip_genomics::{Base, DnaSeq, ErrorModel, GenomeBuilder};
use genpip_mapping::align::banded_global;
use genpip_mapping::{Mapper, MapperParams, Strand};

/// Reads whose corridor alignment is *not* the straight band's, by name. One
/// reason covers them: 600 bases of sequence unrelated to the reference have
/// no right alignment, only a best-scoring one, and the straight band — some
/// 210 columns to either side on these reads, against the corridor's 62 —
/// finds two or three more chance matches further from the diagonal. On these
/// the corridor must score lower, never higher, and by less than 1 %.
const DIFFERS: [&str; 3] = [
    "ecoli unrelated ends 2",
    "ecoli unrelated ends 7",
    "human unrelated ends 3",
];

/// The two read populations of the datasets crate, as far as the mapper sees
/// them: genome composition, read lengths, and the basecaller's residual
/// error on top of the individual's divergence from the reference.
struct Population {
    name: &'static str,
    mapper: Mapper,
    lengths: std::ops::Range<usize>,
    errors: ErrorModel,
}

fn populations() -> [Population; 2] {
    // Every alignment is compared, also one below the identity threshold.
    let params = MapperParams {
        min_identity: 0.0,
        ..MapperParams::default()
    };
    let ecoli = GenomeBuilder::new(120_000)
        .seed(0xEC011)
        .gc_fraction(0.508)
        .repeat_fraction(0.05)
        .build();
    let human = GenomeBuilder::new(200_000)
        .seed(0x4B12878)
        .gc_fraction(0.41)
        .repeat_fraction(0.25)
        .build();
    [
        Population {
            name: "ecoli",
            mapper: Mapper::build(&ecoli, params),
            lengths: 1_200..6_000,
            errors: ErrorModel {
                substitution: 0.020,
                insertion: 0.008,
                deletion: 0.016,
            },
        },
        Population {
            name: "human",
            mapper: Mapper::build(&human, params),
            lengths: 400..2_600,
            errors: ErrorModel {
                substitution: 0.012,
                insertion: 0.010,
                deletion: 0.010,
            },
        },
    ]
}

impl Population {
    /// The genome's `start..start + len` as a read of this population shows it.
    fn read(&self, rng: &mut SeededRng, start: usize, len: usize) -> DnaSeq {
        let truth = self.mapper.genome().sequence().subseq(start, len);
        self.errors.apply(&truth, rng).0
    }

    /// Maps `read` and asserts the corridor found the straight band's
    /// alignment (or, for a read listed in [`DIFFERS`], a marginally
    /// lower-scoring one); returns the two cell counts, corridor first.
    fn assert_same_alignment(&self, read: &DnaSeq, case: &str) -> (usize, usize) {
        let mapper = &self.mapper;
        let (mut fwd, mut rev) = mapper.new_chainers();
        let (batch, _) = mapper.sketch_and_seed(read, 0);
        fwd.extend(&batch.forward);
        rev.extend(&batch.reverse);
        let (mapping, _, cells) = mapper.finalize_mapping(read, &fwd, &rev);
        let mapping = mapping.expect("the read must chain and align");

        let genome = mapper.genome();
        let span = genome
            .sequence()
            .subseq(mapping.ref_start, mapping.ref_end - mapping.ref_start);
        let (chainer, wstart, window) = match mapping.strand {
            Strand::Forward => (&fwd, mapping.ref_start, span),
            Strand::Reverse => (
                &rev,
                genome.len() - mapping.ref_end,
                span.reverse_complement(),
            ),
        };
        let chain = chainer.best_chain().expect("a mapping has a chain");
        let diagonals = chain.anchor_indices.iter().map(|&i| {
            let anchor = chainer.anchors()[i];
            anchor.rpos as i64 - wstart as i64 - anchor.qpos as i64
        });
        let dmin = diagonals.clone().min().expect("non-empty chain");
        let dmax = diagonals.max().expect("non-empty chain");
        let params = mapper.params();
        let halfwidth = ((dmax - dmin) / 2) as usize + params.band_margin + read.len() / 20;
        let straight = banded_global(read, &window, &params.align, (dmin + dmax) / 2, halfwidth);

        let name = format!("{} {case}", self.name);
        if DIFFERS.contains(&name.as_str()) {
            let short = straight.score - mapping.align_score;
            assert!(
                short > 0 && short * 100 < straight.score,
                "{name}: listed as differing, scores {} in the corridor, {} in the straight band",
                mapping.align_score,
                straight.score
            );
        } else {
            assert_eq!(mapping.align_score, straight.score, "{name}: score");
            assert_eq!(mapping.cigar, straight.cigar, "{name}: CIGAR");
            assert_eq!(mapping.identity, straight.identity(), "{name}: matches");
        }
        (cells, straight.cells)
    }
}

fn random_seq(rng: &mut SeededRng, len: usize) -> DnaSeq {
    (0..len)
        .map(|_| Base::from_code(rng.random_range(0..4u8)))
        .collect()
}

fn joined(parts: &[&DnaSeq]) -> DnaSeq {
    let mut read = DnaSeq::new();
    for part in parts {
        read.extend_from_seq(part);
    }
    read
}

#[test]
fn plain_reads_align_as_in_the_straight_band_at_a_third_of_the_cells() {
    for population in &populations() {
        let genome_len = population.mapper.genome().len();
        for case in 0..150u64 {
            let mut rng = seeded(0xC0221D02 ^ case);
            let len = rng.random_range(population.lengths.clone());
            let start = rng.random_range(0..genome_len - len);
            let mut read = population.read(&mut rng, start, len);
            if case % 2 == 1 {
                read = read.reverse_complement();
            }
            let case = format!("plain read {case} ({start}+{len})");
            let (cells, straight) = population.assert_same_alignment(&read, &case);
            // What the corridor drops — the chain's spread and `n / 20` —
            // grows with the read; what it keeps, the margin, does not.
            let bound = if len >= 2_000 { 0.35 } else { 1.0 };
            assert!(
                (cells as f64) < bound * straight as f64,
                "{} {case}: {cells} cells in the corridor, {straight} in the straight band",
                population.name
            );
        }
    }
}

#[test]
fn reads_at_and_over_the_genome_ends_align_as_in_the_straight_band() {
    for population in &populations() {
        let genome_len = population.mapper.genome().len();
        let mut rng = seeded(0xE2D5);
        for case in 0..8u64 {
            let len = rng.random_range(population.lengths.clone());
            // The window is clamped at the genome's first or last base …
            let start = if case % 2 == 0 { 0 } else { genome_len - len };
            let mut read = population.read(&mut rng, start, len);
            // … and, every other pair, the read hangs 500 bases over it.
            if case % 4 >= 2 {
                let overhang = random_seq(&mut rng, 500);
                read = if start == 0 {
                    joined(&[&overhang, &read])
                } else {
                    joined(&[&read, &overhang])
                };
            }
            if case >= 4 {
                read = read.reverse_complement();
            }
            population.assert_same_alignment(&read, &format!("genome end {case}"));
        }
    }
}

#[test]
fn long_indels_between_anchors_align_as_in_the_straight_band() {
    for population in &populations() {
        let genome_len = population.mapper.genome().len();
        for case in 0..12u64 {
            let mut rng = seeded(0x1DE7 ^ case);
            let len = rng.random_range(1_500..3_000usize);
            let start = rng.random_range(0..genome_len - len);
            let at = rng.random_range(300..len - 300);
            let before = population.read(&mut rng, start, at);
            let read = if case % 2 == 0 {
                // 40 reference bases the read lacks: the chain's columns jump
                // 40 over the few rows between two anchors, steeper than the
                // corridor's two columns a row.
                let after = population.read(&mut rng, start + at + 40, len - at - 40);
                joined(&[&before, &after])
            } else {
                // 40 read bases the reference lacks.
                let after = population.read(&mut rng, start + at, len - at);
                joined(&[&before, &random_seq(&mut rng, 40), &after])
            };
            let read = if case % 4 >= 2 {
                read.reverse_complement()
            } else {
                read
            };
            population.assert_same_alignment(&read, &format!("40-base indel {case}"));
        }
    }
}

#[test]
fn anchor_free_heads_and_tails_align_as_in_the_straight_band() {
    for population in &populations() {
        let genome_len = population.mapper.genome().len();
        for case in 0..8u64 {
            let mut rng = seeded(0x600 ^ case);
            let len = rng.random_range(1_500..3_000usize);
            let start = rng.random_range(700..genome_len - len - 700);
            // 600 bases at either end with every twelfth one substituted on
            // top of the population's errors: no 15-mer survives, so the
            // chain pins nothing there and the longest unpinned stretch sets
            // the half-width.
            let mut end = |at: usize| {
                let mut end = population.read(&mut rng, at, 600);
                for i in (0..end.len()).step_by(12) {
                    end.set(i, Base::from_code((end.get(i).code() + 1) % 4));
                }
                end
            };
            let (head, tail) = (end(start - 600), end(start + len));
            let middle = population.read(&mut rng, start, len);

            let mut read = joined(&[&head, &middle, &tail]);
            if case % 2 == 1 {
                read = read.reverse_complement();
            }
            population.assert_same_alignment(&read, &format!("anchor-free ends {case}"));

            // The same read with ends that come from nowhere.
            let (head, tail) = (random_seq(&mut rng, 600), random_seq(&mut rng, 600));
            let read = joined(&[&head, &middle, &tail]);
            population.assert_same_alignment(&read, &format!("unrelated ends {case}"));
        }
    }
}
