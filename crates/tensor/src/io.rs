//! FROSTT `.tns` text format I/O.
//!
//! The FROSTT repository (the paper's dataset source) distributes tensors as
//! whitespace-separated text: one nonzero per line, `N` one-based coordinates
//! followed by the value. Lines starting with `#` are comments. This reader
//! accepts exactly that, so the real billion-scale tensors can be substituted
//! for the synthetic ones where hardware allows.
//!
//! Two consumption styles are provided:
//!
//! * [`read_tns`] materializes the whole tensor — fine up to host-memory
//!   scale;
//! * [`TnsLineParser`] parses one line at a time into a reused coordinate
//!   buffer, so out-of-core consumers (the `amped-stream` `.tns` → `.tnsb`
//!   converter) can stream a file of any size without materializing it.

use crate::{Idx, SparseTensor, Val};
use std::io::{BufRead, BufWriter, Write};
use std::path::{Path, PathBuf};

/// Errors from `.tns` parsing.
#[derive(Debug)]
pub enum TnsError {
    /// Underlying I/O failure. `path` is the file being read when the caller
    /// attached one ([`TnsError::with_path`]), so errors on real FROSTT files
    /// name the file that caused them.
    Io {
        /// File involved, when known.
        path: Option<PathBuf>,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A malformed line, with its 1-based line number and a description.
    Parse(usize, String),
    /// The file contained no nonzero elements.
    Empty,
}

impl std::fmt::Display for TnsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TnsError::Io {
                path: Some(p),
                source,
            } => {
                write!(f, "I/O error on {}: {source}", p.display())
            }
            TnsError::Io { path: None, source } => write!(f, "I/O error: {source}"),
            TnsError::Parse(line, msg) => write!(f, "line {line}: {msg}"),
            TnsError::Empty => write!(f, "no nonzero elements found"),
        }
    }
}

impl std::error::Error for TnsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TnsError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TnsError {
    fn from(e: std::io::Error) -> Self {
        TnsError::Io {
            path: None,
            source: e,
        }
    }
}

impl TnsError {
    /// Attaches a file path to an I/O error that does not carry one yet;
    /// parse errors (which already carry a line number) pass through.
    pub fn with_path(self, path: impl Into<PathBuf>) -> Self {
        match self {
            TnsError::Io { path: None, source } => TnsError::Io {
                path: Some(path.into()),
                source,
            },
            other => other,
        }
    }
}

/// Incremental `.tns` line parser: feeds one text line at a time, infers and
/// enforces the coordinate arity, and writes zero-based coordinates into a
/// reused buffer. This is the single source of truth for the `.tns` grammar —
/// [`read_tns`] and the streaming `.tns` → `.tnsb` converter both run on it.
#[derive(Debug, Default)]
pub struct TnsLineParser {
    order: Option<usize>,
    line_no: usize,
}

impl TnsLineParser {
    /// A fresh parser with no inferred arity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Coordinate arity, once the first data line has fixed it.
    pub fn order(&self) -> Option<usize> {
        self.order
    }

    /// Number of lines fed so far (for error reporting).
    pub fn line_no(&self) -> usize {
        self.line_no
    }

    /// Parses one line. Blank and `#`-comment lines yield `Ok(None)`; a data
    /// line clears `coords`, fills it with the element's zero-based
    /// coordinates, and returns its value.
    pub fn parse_line(
        &mut self,
        line: &str,
        coords: &mut Vec<Idx>,
    ) -> Result<Option<Val>, TnsError> {
        self.line_no += 1;
        let line_no = self.line_no;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return Ok(None);
        }
        let toks: Vec<&str> = line.split_ascii_whitespace().collect();
        if toks.len() < 2 {
            return Err(TnsError::Parse(
                line_no,
                "expected at least one index and a value".into(),
            ));
        }
        let n = toks.len() - 1;
        match self.order {
            None => self.order = Some(n),
            Some(o) if o != n => {
                return Err(TnsError::Parse(
                    line_no,
                    format!("expected {o} coordinates, found {n}"),
                ));
            }
            _ => {}
        }
        coords.clear();
        for tok in &toks[..n] {
            let one_based: u64 = tok
                .parse()
                .map_err(|_| TnsError::Parse(line_no, format!("bad index '{tok}'")))?;
            if one_based == 0 {
                return Err(TnsError::Parse(
                    line_no,
                    "indices are 1-based; found 0".into(),
                ));
            }
            let zero_based = one_based - 1;
            if zero_based > Idx::MAX as u64 {
                return Err(TnsError::Parse(
                    line_no,
                    format!("index {one_based} exceeds the 32-bit coordinate range"),
                ));
            }
            coords.push(zero_based as Idx);
        }
        let v: Val = toks[n]
            .parse()
            .map_err(|_| TnsError::Parse(line_no, format!("bad value '{}'", toks[n])))?;
        Ok(Some(v))
    }
}

/// Streams every data element of `.tns` text through `body` without
/// materializing the tensor — the single consumption loop behind
/// [`read_tns`] and out-of-core converters (`amped-stream`). `body`'s error
/// type only needs a `From<TnsError>` conversion for the parse/I/O failures
/// this loop itself produces.
pub fn for_each_tns_element<E: From<TnsError>>(
    mut reader: impl BufRead,
    mut body: impl FnMut(&[Idx], Val) -> Result<(), E>,
) -> Result<(), E> {
    let mut parser = TnsLineParser::new();
    let mut coords: Vec<Idx> = Vec::new();
    let mut line_buf = String::new();
    loop {
        line_buf.clear();
        let read = reader
            .read_line(&mut line_buf)
            .map_err(|e| E::from(TnsError::from(e)))?;
        if read == 0 {
            return Ok(());
        }
        if let Some(v) = parser.parse_line(&line_buf, &mut coords).map_err(E::from)? {
            body(&coords, v)?;
        }
    }
}

/// Reads a tensor from FROSTT `.tns` text.
///
/// The tensor order is inferred from the first data line; the shape is the
/// per-mode maximum coordinate (FROSTT files carry no explicit header).
pub fn read_tns(reader: impl BufRead) -> Result<SparseTensor, TnsError> {
    let mut coords: Vec<Idx> = Vec::new();
    let mut values: Vec<Val> = Vec::new();
    let mut shape: Vec<Idx> = Vec::new();
    for_each_tns_element(reader, |elem, v| {
        if shape.is_empty() {
            shape = vec![0; elem.len()];
        }
        for (m, &c) in elem.iter().enumerate() {
            shape[m] = shape[m].max(c + 1);
        }
        coords.extend_from_slice(elem);
        values.push(v);
        Ok::<(), TnsError>(())
    })?;
    if values.is_empty() {
        return Err(TnsError::Empty);
    }
    Ok(SparseTensor::from_parts(shape, coords, values))
}

/// Writes a tensor as FROSTT `.tns` text (1-based coordinates).
pub fn write_tns(t: &SparseTensor, writer: impl Write) -> std::io::Result<()> {
    let mut w = BufWriter::new(writer);
    for e in t.iter() {
        for &c in e.coords {
            write!(w, "{} ", c + 1)?;
        }
        writeln!(w, "{}", e.val)?;
    }
    w.flush()
}

/// Writes a tensor to a `.tns` file on disk.
pub fn write_tns_file(t: &SparseTensor, path: impl AsRef<Path>) -> std::io::Result<()> {
    let f = std::fs::File::create(path)?;
    write_tns(t, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::GenSpec;

    #[test]
    fn parses_basic_file() {
        let text = "# a comment\n1 1 1 1.5\n2 3 4 -2.0\n\n3 1 2 0.25\n";
        let t = read_tns(text.as_bytes()).unwrap();
        assert_eq!(t.order(), 3);
        assert_eq!(t.nnz(), 3);
        assert_eq!(t.shape(), &[3, 3, 4]);
        assert_eq!(t.coords(1), &[1, 2, 3]);
        assert_eq!(t.value(1), -2.0);
    }

    #[test]
    fn rejects_zero_index() {
        let err = read_tns("0 1 1.0\n".as_bytes()).unwrap_err();
        assert!(matches!(err, TnsError::Parse(1, _)));
    }

    #[test]
    fn rejects_inconsistent_arity() {
        let err = read_tns("1 1 1.0\n1 1 1 1.0\n".as_bytes()).unwrap_err();
        assert!(matches!(err, TnsError::Parse(2, _)));
    }

    #[test]
    fn rejects_empty_input() {
        assert!(matches!(
            read_tns("# only comments\n".as_bytes()),
            Err(TnsError::Empty)
        ));
    }

    #[test]
    fn line_parser_skips_comments_and_tracks_lines() {
        let mut p = TnsLineParser::new();
        let mut coords = Vec::new();
        assert!(p.parse_line("# header", &mut coords).unwrap().is_none());
        assert!(p.parse_line("", &mut coords).unwrap().is_none());
        let v = p.parse_line("3 4 2.5", &mut coords).unwrap().unwrap();
        assert_eq!(coords, vec![2, 3]);
        assert_eq!(v, 2.5);
        assert_eq!(p.order(), Some(2));
        assert_eq!(p.line_no(), 3);
        // Arity is enforced from here on.
        let err = p.parse_line("1 2 3 1.0", &mut coords).unwrap_err();
        assert!(matches!(err, TnsError::Parse(4, _)));
    }

    #[test]
    fn file_error_names_the_path() {
        let path = "/nonexistent/amped_missing.tns";
        let err = TnsError::from(std::fs::File::open(path).unwrap_err()).with_path(path);
        let msg = err.to_string();
        assert!(
            msg.contains("amped_missing.tns"),
            "error should name the file: {msg}"
        );
        assert!(matches!(err, TnsError::Io { path: Some(_), .. }));
    }

    #[test]
    fn round_trip_preserves_tensor() {
        let t = GenSpec::uniform(vec![30, 40, 50], 500, 99).generate();
        let mut buf = Vec::new();
        write_tns(&t, &mut buf).unwrap();
        let back = read_tns(buf.as_slice()).unwrap();
        assert_eq!(back.order(), t.order());
        assert_eq!(back.nnz(), t.nnz());
        // Shape is inferred from max coordinate, so it may shrink; all
        // elements must survive exactly.
        for (a, b) in t.iter().zip(back.iter()) {
            assert_eq!(a.coords, b.coords);
            assert!((a.val - b.val).abs() <= 1e-6 * a.val.abs());
        }
    }

    #[test]
    fn file_round_trip() {
        let t = GenSpec::uniform(vec![10, 10], 50, 1).generate();
        let dir = crate::common::ScratchDir::new("tns");
        let path = dir.join("t.tns");
        write_tns_file(&t, &path).unwrap();
        let f = std::fs::File::open(&path).unwrap();
        let back = read_tns(std::io::BufReader::new(f)).unwrap();
        assert_eq!(back.nnz(), t.nnz());
    }
}
