//! Differential suite: the byte-built FASTQ record must write exactly the
//! bytes of the `writeln!` body it replaced — for empty reads, prefixed
//! names and every quality the Sanger encoding clamps (Phred 0 and 93,
//! values above 93, negative values, NaN and the infinities).

use super::FastqWriter;
use crate::quality::Phred;
use crate::rng::{seeded, Rng, SeededRng};
use crate::{Base, DnaSeq};
use std::io::{self, Write};

/// The record writer as shipped before the byte-built one: `DnaSeq`'s
/// `Display` per base and the qualities collected into a `String`, four
/// `writeln!`s. Verbatim but for taking the writer as an argument.
fn writeln_record<W: Write>(
    w: &mut W,
    name: &str,
    seq: &DnaSeq,
    quals: &[Phred],
) -> io::Result<()> {
    let quals: String = quals.iter().map(|q| q.to_fastq_char()).collect();
    writeln!(w, "@{name}")?;
    writeln!(w, "{seq}")?;
    writeln!(w, "+")?;
    writeln!(w, "{quals}")?;
    Ok(())
}

/// A quality drawn from the clamp's edges half the time, uniformly from
/// `[-10, 110)` otherwise.
fn quality(rng: &mut SeededRng) -> Phred {
    const EDGES: [f32; 14] = [
        0.0,
        -0.0,
        0.49,
        0.5,
        92.5,
        93.0,
        93.49,
        93.5,
        94.0,
        1e30,
        -0.5,
        -7.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
    ];
    if rng.random::<bool>() {
        if rng.random_range(0..8u32) == 0 {
            return Phred(f32::NAN);
        }
        return Phred(EDGES[rng.random_range(0..EDGES.len())]);
    }
    Phred(rng.random::<f32>() * 120.0 - 10.0)
}

fn random_read(rng: &mut SeededRng) -> (DnaSeq, Vec<Phred>) {
    let len = match rng.random_range(0..4u32) {
        0 => 0,
        1 => rng.random_range(1..8usize),
        _ => rng.random_range(8..2_500usize),
    };
    let seq: DnaSeq = (0..len)
        .map(|_| Base::from_code(rng.random::<u8>()))
        .collect();
    let quals = (0..len).map(|_| quality(rng)).collect();
    (seq, quals)
}

#[test]
fn byte_built_records_equal_the_writeln_records() {
    let mut rng = seeded(0x000F_A570);
    let prefixes = ["", "a", "flowcell-b.", "λ/"];
    let mut oracle = Vec::new();
    let mut writer = FastqWriter::new(Vec::new());
    for id in 0..400u32 {
        let (seq, quals) = random_read(&mut rng);
        let name = format!("{}read{id}", prefixes[id as usize % prefixes.len()]);
        writeln_record(&mut oracle, &name, &seq, &quals).unwrap();
        writer.write_record(&name, &seq, &quals).unwrap();
    }
    assert_eq!(writer.records(), 400);
    assert_eq!(writer.finish().unwrap(), oracle);
}

#[test]
fn every_clamped_quality_encodes_as_before() {
    let seq: DnaSeq = "ACGTACGTACGTAC".parse().unwrap();
    let quals: Vec<Phred> = [
        0.0,
        93.0,
        93.6,
        200.0,
        f32::MAX,
        f32::INFINITY,
        -0.6,
        -5.0,
        f32::MIN,
        f32::NEG_INFINITY,
        f32::NAN,
        -f32::NAN,
        41.5,
        7.25,
    ]
    .into_iter()
    .map(Phred)
    .collect();
    let mut oracle = Vec::new();
    writeln_record(&mut oracle, "edges", &seq, &quals).unwrap();
    let mut writer = FastqWriter::new(Vec::new());
    writer.write_record("edges", &seq, &quals).unwrap();
    let written = writer.finish().unwrap();
    assert_eq!(written, oracle);
    assert_eq!(written, b"@edges\nACGTACGTACGTAC\n+\n!~~~~~!!!!!!K(\n");
}

#[test]
fn an_empty_read_is_an_empty_record() {
    let mut oracle = Vec::new();
    writeln_record(&mut oracle, "", &DnaSeq::new(), &[]).unwrap();
    let mut writer = FastqWriter::new(Vec::new());
    writer.write_record("", &DnaSeq::new(), &[]).unwrap();
    assert_eq!(writer.finish().unwrap(), oracle);
    assert_eq!(oracle, b"@\n\n+\n\n");
}
