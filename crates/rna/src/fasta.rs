//! Minimal FASTA reading and writing.
//!
//! Enough for the example binaries to load real-ish sequence files: `>`
//! header lines start a record, subsequent lines are sequence data, blank
//! lines and `;` comment lines are skipped.
//!
//! Ingestion is deliberately tolerant of the formatting noise real files
//! carry — CRLF line endings, a leading UTF-8 BOM, lowercase bases, `T`
//! for `U`, whitespace-aligned sequence columns, blank trailing lines —
//! and deliberately strict about the *content*: IUPAC ambiguity codes
//! (`N`, `R`, `Y`, …), alignment gaps, and anything else outside
//! `ACGU/T` are rejected with the exact line and character at fault.

use crate::base::{Base, ParseBaseError};
use crate::seq::RnaSeq;
use std::fmt;
use std::fs;
use std::path::Path;

/// One FASTA record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Record {
    /// Header text after `>` (may be empty).
    pub id: String,
    /// The sequence.
    pub seq: RnaSeq,
}

/// Errors while parsing FASTA text.
#[derive(Debug)]
pub enum FastaError {
    /// Sequence data appeared before any `>` header.
    DataBeforeHeader(usize),
    /// A sequence line contained a non-nucleotide character.
    BadBase(usize, ParseBaseError),
    /// I/O failure reading a file.
    Io(std::io::Error),
}

impl fmt::Display for FastaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FastaError::DataBeforeHeader(line) => {
                write!(f, "line {line}: sequence data before any '>' header")
            }
            FastaError::BadBase(line, e) => write!(f, "line {line}: {e}"),
            FastaError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for FastaError {}

impl From<std::io::Error> for FastaError {
    fn from(e: std::io::Error) -> Self {
        FastaError::Io(e)
    }
}

/// Parse FASTA text into records.
///
/// Sequence lines are validated as they are read, so a [`FastaError::BadBase`]
/// names the line actually holding the offending character (not the end
/// of the record).
pub fn parse(text: &str) -> Result<Vec<Record>, FastaError> {
    let text = text.strip_prefix('\u{feff}').unwrap_or(text);
    let mut records: Vec<Record> = Vec::new();
    let mut current: Option<(String, Vec<Base>)> = None;
    for (idx, raw) in text.lines().enumerate() {
        // `lines` already drops the `\n`; `trim` handles the `\r` of
        // CRLF files plus any indentation
        let line = raw.trim();
        if line.is_empty() || line.starts_with(';') {
            continue;
        }
        if let Some(header) = line.strip_prefix('>') {
            if let Some((id, bases)) = current.take() {
                records.push(Record {
                    id,
                    seq: RnaSeq::new(bases),
                });
            }
            current = Some((header.trim().to_string(), Vec::new()));
        } else {
            let Some((_, bases)) = &mut current else {
                return Err(FastaError::DataBeforeHeader(idx + 1));
            };
            for c in line.chars() {
                if c.is_whitespace() {
                    continue; // column-aligned sequence blocks
                }
                bases.push(Base::from_char(c).map_err(|e| FastaError::BadBase(idx + 1, e))?);
            }
        }
    }
    if let Some((id, bases)) = current {
        records.push(Record {
            id,
            seq: RnaSeq::new(bases),
        });
    }
    Ok(records)
}

/// Read records from a file.
pub fn read_file(path: impl AsRef<Path>) -> Result<Vec<Record>, FastaError> {
    parse(&fs::read_to_string(path)?)
}

/// Render records as FASTA text (60-column wrapped).
pub fn render(records: &[Record]) -> String {
    let mut out = String::new();
    for r in records {
        out.push('>');
        out.push_str(&r.id);
        out.push('\n');
        let s = r.seq.to_string();
        for chunk in s.as_bytes().chunks(60) {
            out.push_str(std::str::from_utf8(chunk).unwrap()); // lint: allow(unwrap): sequence bytes are ASCII base letters
            out.push('\n');
        }
        if r.seq.is_empty() {
            out.push('\n');
        }
    }
    out
}

/// Write records to a file.
pub fn write_file(path: impl AsRef<Path>, records: &[Record]) -> Result<(), FastaError> {
    fs::write(path, render(records))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_two_records() {
        let text = ">first one\nACGU\nGGCC\n; comment\n>second\nuuaa\n";
        let recs = parse(text).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].id, "first one");
        assert_eq!(recs[0].seq.to_string(), "ACGUGGCC");
        assert_eq!(recs[1].seq.to_string(), "UUAA");
    }

    #[test]
    fn rejects_headerless_data() {
        assert!(matches!(
            parse("ACGU\n"),
            Err(FastaError::DataBeforeHeader(1))
        ));
    }

    #[test]
    fn rejects_bad_base_with_line() {
        let err = parse(">x\nACGZ\n").unwrap_err();
        assert!(matches!(err, FastaError::BadBase(..)));
    }

    #[test]
    fn tolerates_real_world_formatting() {
        // CRLF line endings, lowercase, T for U, blank trailing lines,
        // whitespace-aligned columns, and a UTF-8 BOM — all accepted
        let cases: &[(&str, &str)] = &[
            (">x\r\nACGU\r\nGGCC\r\n", "ACGUGGCC"),
            (">x\nacgu\n", "ACGU"),
            (">x\nACGT\n", "ACGU"),
            (">x\nACGU\n\n\n", "ACGU"),
            (">x\nACG U\n", "ACGU"),
            ("\u{feff}>x\nACGU\n", "ACGU"),
            (">x\r\nacgt\r\n\r\n", "ACGU"),
            (">x", ""),
        ];
        for (text, want) in cases {
            let recs = parse(text).unwrap_or_else(|e| panic!("{text:?}: {e}"));
            assert_eq!(recs.len(), 1, "{text:?}");
            assert_eq!(recs[0].seq.to_string(), *want, "{text:?}");
        }
    }

    #[test]
    fn rejects_malformed_content_naming_line_and_character() {
        // (text, line the error must name, character it must name)
        let cases: &[(&str, usize, char)] = &[
            (">x\nACGN\n", 2, 'N'),           // ambiguity code
            (">x\nACGU\nAYGU\n", 3, 'Y'),     // IUPAC code mid-record
            (">x\nACGU\n>y\nARGU\n", 4, 'R'), // second record
            (">x\nAC-GU\n", 2, '-'),          // alignment gap
            (">x\nACG7\n", 2, '7'),           // stray digit
        ];
        for (text, line, ch) in cases {
            match parse(text) {
                Err(FastaError::BadBase(at, e)) => {
                    assert_eq!(at, *line, "{text:?}");
                    assert_eq!(e.0, *ch, "{text:?}");
                }
                other => panic!("{text:?}: expected BadBase, got {other:?}"),
            }
        }
    }

    #[test]
    fn round_trips_through_render() {
        let text = ">a\nACGU\n>b\nGG\n";
        let recs = parse(text).unwrap();
        let rendered = render(&recs);
        assert_eq!(parse(&rendered).unwrap(), recs);
    }

    #[test]
    fn wraps_long_sequences() {
        let seq: RnaSeq = "A".repeat(130).parse().unwrap();
        let recs = vec![Record {
            id: "long".into(),
            seq,
        }];
        let rendered = render(&recs);
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines.len(), 4); // header + 60 + 60 + 10
        assert_eq!(lines[1].len(), 60);
        assert_eq!(lines[3].len(), 10);
    }

    /// A per-process temp directory, removed when the test ends.
    struct TempDir(std::path::PathBuf);

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn file_round_trip() {
        let dir =
            TempDir(std::env::temp_dir().join(format!("bpmax_fasta_test_{}", std::process::id())));
        std::fs::create_dir_all(&dir.0).unwrap();
        let path = dir.0.join("t.fa");
        let recs = parse(">x\nGGAUC\n").unwrap();
        write_file(&path, &recs).unwrap();
        assert_eq!(read_file(&path).unwrap(), recs);
    }
}
