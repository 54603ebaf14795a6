//! PAF (Pairwise mApping Format) output.
//!
//! PAF is the 12-column tab-separated format minimap2 emits; producing it
//! makes this mapper's results consumable by the standard long-read
//! toolchain (`paftools`, IGV, dotplot viewers). Columns:
//!
//! ```text
//! qname qlen qstart qend strand tname tlen tstart tend nmatch alnlen mapq
//! ```
//!
//! plus the customary `cg:Z:` CIGAR tag.

use crate::align::{cigar_string, CigarOp};
use crate::mapper::Mapping;
use crate::refset::ReferenceSet;
use crate::seed::Strand;
use std::io::{self, Write};

/// One PAF record.
#[derive(Debug, Clone, PartialEq)]
pub struct PafRecord {
    /// Query (read) name.
    pub qname: String,
    /// Query length.
    pub qlen: usize,
    /// Query start (0-based, closed).
    pub qstart: usize,
    /// Query end (0-based, open).
    pub qend: usize,
    /// Mapping strand.
    pub strand: Strand,
    /// Target (reference) name.
    pub tname: String,
    /// Target length.
    pub tlen: usize,
    /// Target start.
    pub tstart: usize,
    /// Target end.
    pub tend: usize,
    /// Number of matching bases.
    pub nmatch: usize,
    /// Alignment block length (all columns).
    pub alnlen: usize,
    /// Mapping quality (0–255; 255 = unavailable).
    pub mapq: u8,
    /// CIGAR string for the `cg:Z:` tag.
    pub cigar: String,
}

impl PafRecord {
    /// Builds a record from a [`Mapping`].
    pub fn from_mapping(
        qname: impl Into<String>,
        qlen: usize,
        tname: impl Into<String>,
        tlen: usize,
        mapping: &Mapping,
    ) -> PafRecord {
        let (nmatch, alnlen, qconsumed) = summarize(&mapping.cigar, mapping.identity);
        PafRecord {
            qname: qname.into(),
            qlen,
            qstart: 0,
            qend: qconsumed.min(qlen),
            strand: mapping.strand,
            tname: tname.into(),
            tlen,
            tstart: mapping.ref_start,
            tend: mapping.ref_end,
            nmatch,
            alnlen,
            mapq: mapping.mapq,
            cigar: cigar_string(&mapping.cigar),
        }
    }

    /// Builds a record from a mapping produced against a [`ReferenceSet`],
    /// resolving the target name and length from the mapping's reference
    /// attribution. An unattributed mapping (`ref_name` is `None` — the
    /// single-reference case) resolves to the set's primary reference.
    ///
    /// # Panics
    ///
    /// Panics if the mapping names a reference the set does not contain.
    pub fn from_set_mapping(
        qname: impl Into<String>,
        qlen: usize,
        set: &ReferenceSet,
        mapping: &Mapping,
    ) -> PafRecord {
        let mapper = match mapping.ref_name.as_deref() {
            Some(name) => set
                .get(name)
                .unwrap_or_else(|| panic!("mapping names unknown reference {name:?}")),
            None => set.primary(),
        };
        PafRecord::from_mapping(
            qname,
            qlen,
            mapper.genome().name(),
            mapper.genome().len(),
            mapping,
        )
    }

    /// Renders the record as one PAF line (no trailing newline).
    pub fn to_line(&self) -> String {
        format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\tcg:Z:{}",
            self.qname,
            self.qlen,
            self.qstart,
            self.qend,
            self.strand,
            self.tname,
            self.tlen,
            self.tstart,
            self.tend,
            self.nmatch,
            self.alnlen,
            self.mapq,
            self.cigar
        )
    }
}

fn summarize(cigar: &[CigarOp], identity: f64) -> (usize, usize, usize) {
    let mut columns = 0usize;
    let mut qconsumed = 0usize;
    for op in cigar {
        match op {
            CigarOp::Match(l) => {
                columns += *l as usize;
                qconsumed += *l as usize;
            }
            CigarOp::Ins(l) => {
                columns += *l as usize;
                qconsumed += *l as usize;
            }
            CigarOp::Del(l) => columns += *l as usize,
        }
    }
    let nmatch = (identity * columns as f64).round() as usize;
    (nmatch, columns, qconsumed)
}

/// Writes PAF records to a writer, one line each.
///
/// # Errors
///
/// Returns any I/O error from the writer.
pub fn write_paf<W: Write>(mut w: W, records: &[PafRecord]) -> io::Result<()> {
    for r in records {
        writeln!(w, "{}", r.to_line())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::MapperParams;
    use crate::refset::ReferenceSet;
    use genpip_genomics::GenomeBuilder;

    fn example_record() -> (PafRecord, usize) {
        let genome = GenomeBuilder::new(30_000).seed(1).name("ref1").build();
        let set = ReferenceSet::build(std::slice::from_ref(&genome), MapperParams::default());
        let q = genome.sequence().subseq(10_000, 700);
        let mapping = set.map(&q).best.expect("exact read maps");
        (
            PafRecord::from_mapping("read7", q.len(), "ref1", genome.len(), &mapping),
            q.len(),
        )
    }

    #[test]
    fn record_fields_are_consistent() {
        let (r, qlen) = example_record();
        assert_eq!(r.qlen, qlen);
        assert!(r.qend <= r.qlen);
        assert!(r.tstart < r.tend);
        assert!(r.tend <= r.tlen);
        assert!(r.nmatch <= r.alnlen);
        assert!(r.alnlen >= r.qend - r.qstart);
    }

    #[test]
    fn line_has_twelve_columns_plus_cigar_tag() {
        let (r, _) = example_record();
        let line = r.to_line();
        let fields: Vec<&str> = line.split('\t').collect();
        assert_eq!(fields.len(), 13);
        assert_eq!(fields[0], "read7");
        assert_eq!(fields[4], "+");
        assert_eq!(fields[5], "ref1");
        assert!(fields[12].starts_with("cg:Z:"));
        assert!(fields[12].contains('M'));
    }

    #[test]
    fn write_paf_emits_one_line_per_record() {
        let (r, _) = example_record();
        let mut buf = Vec::new();
        write_paf(&mut buf, &[r.clone(), r]).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 2);
    }

    #[test]
    fn set_mapping_resolves_target_from_attribution() {
        let a = GenomeBuilder::new(25_000).seed(3).name("panel_a").build();
        let b = GenomeBuilder::new(30_000).seed(4).name("panel_b").build();
        let q = b.sequence().subseq(9_000, 700);
        let set = ReferenceSet::build(&[a, b.clone()], MapperParams::default());
        let best = set.map(&q).best.expect("read from panel_b maps");
        let r = PafRecord::from_set_mapping("read1", q.len(), &set, &best);
        assert_eq!(r.tname, "panel_b");
        assert_eq!(r.tlen, b.len());
        assert!(r.tend <= r.tlen);

        // Unattributed mappings (single-reference path) fall back to the
        // primary reference.
        let solo = ReferenceSet::build(std::slice::from_ref(&b), MapperParams::default());
        let best = solo.map(&q).best.expect("read maps on its own genome");
        assert!(best.ref_name.is_none());
        let r = PafRecord::from_set_mapping("read1", q.len(), &solo, &best);
        assert_eq!(r.tname, "panel_b");
    }

    #[test]
    fn reverse_strand_renders_minus() {
        let genome = GenomeBuilder::new(30_000).seed(2).name("ref2").build();
        let set = ReferenceSet::build(std::slice::from_ref(&genome), MapperParams::default());
        let q = genome.sequence().subseq(5_000, 700).reverse_complement();
        let mapping = set.map(&q).best.expect("rc read maps");
        let r = PafRecord::from_mapping("rc", q.len(), "ref2", genome.len(), &mapping);
        assert!(r.to_line().contains("\t-\t"));
    }
}
