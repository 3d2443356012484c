//! The `.tnsb` chunked binary tensor format.
//!
//! A `.tnsb` file stores a COO sparse tensor as fixed-capacity chunks of
//! nonzeros plus enough metadata for a reader to plan an out-of-core
//! decomposition *without touching the payload*:
//!
//! ```text
//! header   magic "TNSB" · version u32 · order u32 · reserved u32
//!          chunk_capacity u64 · nnz u64 · num_chunks u64
//!          dims: order × u32
//! payload  chunks back to back; every chunk holds `chunk_capacity`
//!          elements except the last. One element = order × u32 zero-based
//!          coordinates + f32 value (the COO layout of `amped-tensor`).
//! footer   norm_sq f64
//!          per mode: dim × u64 output-index histogram
//!          per chunk: nnz u64 + per mode (min u32, max u32)
//! ```
//!
//! All integers are little-endian. Because chunks are fixed-capacity, the
//! byte offset of chunk `c` is arithmetic — no per-chunk offset table is
//! needed. The footer carries exactly what the streaming partitioner's
//! pass 1 consumes: full per-mode histograms (for chains-on-chains device
//! ranges), per-chunk index bounding boxes (to skip irrelevant chunks in
//! pass 2), and `‖X‖²` (for the CP-ALS fit, which would otherwise require
//! one more pass over the payload).

use crate::error::StreamError;
use amped_tensor::io::for_each_tns_element;
use amped_tensor::{Idx, SparseTensor, Val};
use serde::Serialize;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Format magic bytes.
pub const TNSB_MAGIC: [u8; 4] = *b"TNSB";
/// Current format version.
pub const TNSB_VERSION: u32 = 1;
/// Fixed header size before the dims array.
const FIXED_HEADER_BYTES: u64 = 40;

/// Per-chunk metadata: element count and the per-mode index bounding box.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct ChunkMeta {
    /// Nonzeros stored in this chunk.
    pub nnz: u64,
    /// Smallest coordinate per mode over the chunk's elements.
    pub mode_min: Vec<Idx>,
    /// Largest coordinate per mode over the chunk's elements.
    pub mode_max: Vec<Idx>,
}

/// Everything a `.tnsb` file says about itself short of the payload.
#[derive(Clone, Debug, Serialize)]
pub struct TnsbMeta {
    /// Mode sizes.
    pub shape: Vec<Idx>,
    /// Total nonzero count.
    pub nnz: u64,
    /// Maximum nonzeros per chunk (every chunk but the last is full).
    pub chunk_capacity: u64,
    /// Per-chunk metadata, in file order.
    pub chunks: Vec<ChunkMeta>,
    /// Per-mode output-index histograms of the whole tensor.
    pub hist: Vec<Vec<u64>>,
    /// Sum of squared values `‖X‖²`, accumulated in `f64` by the writer.
    pub norm_sq: f64,
}

impl TnsbMeta {
    /// Number of tensor modes.
    pub fn order(&self) -> usize {
        self.shape.len()
    }

    /// Number of payload chunks.
    pub fn num_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Bytes of one stored element (`order` coordinates plus one value).
    pub fn elem_bytes(&self) -> u64 {
        (self.order() * 4 + 4) as u64
    }

    /// Header size in bytes (payload starts here).
    pub fn header_bytes(&self) -> u64 {
        FIXED_HEADER_BYTES + 4 * self.order() as u64
    }

    /// Byte offset of chunk `c`'s payload within the file.
    pub fn chunk_offset(&self, c: usize) -> u64 {
        self.header_bytes() + c as u64 * self.chunk_capacity * self.elem_bytes()
    }

    /// Payload bytes of chunk `c`.
    pub fn chunk_bytes(&self, c: usize) -> u64 {
        self.chunks[c].nnz * self.elem_bytes()
    }

    /// Payload bytes of the whole tensor (what an in-core load would cost).
    pub fn payload_bytes(&self) -> u64 {
        self.nnz * self.elem_bytes()
    }
}

/// Streaming `.tnsb` writer: feed elements one at a time; full chunks are
/// flushed to disk immediately, so host memory never holds more than one
/// chunk regardless of tensor size.
#[derive(Debug)]
pub struct TnsbWriter {
    file: BufWriter<File>,
    path: PathBuf,
    shape: Vec<Idx>,
    chunk_capacity: u64,
    buf: Vec<u8>,
    buf_nnz: u64,
    buf_min: Vec<Idx>,
    buf_max: Vec<Idx>,
    chunks: Vec<ChunkMeta>,
    hist: Vec<Vec<u64>>,
    norm_sq: f64,
    nnz: u64,
}

impl TnsbWriter {
    /// Creates `path` and writes a placeholder header (patched by
    /// [`TnsbWriter::finish`]).
    ///
    /// # Panics
    /// Panics if `shape` is empty, any mode size is zero, or
    /// `chunk_capacity` is zero — the same contract as
    /// [`SparseTensor::new`].
    pub fn create(
        path: impl Into<PathBuf>,
        shape: Vec<Idx>,
        chunk_capacity: usize,
    ) -> Result<Self, StreamError> {
        assert!(!shape.is_empty(), "a tensor needs at least one mode");
        assert!(shape.iter().all(|&s| s > 0), "mode sizes must be nonzero");
        assert!(chunk_capacity > 0, "chunk capacity must be positive");
        let path = path.into();
        let file = File::create(&path).map_err(|e| StreamError::io(&path, e))?;
        let mut w = BufWriter::new(file);
        let mut header = Vec::with_capacity(FIXED_HEADER_BYTES as usize + 4 * shape.len());
        header.extend_from_slice(&TNSB_MAGIC);
        header.extend_from_slice(&TNSB_VERSION.to_le_bytes());
        header.extend_from_slice(&(shape.len() as u32).to_le_bytes());
        header.extend_from_slice(&0u32.to_le_bytes()); // reserved
        header.extend_from_slice(&(chunk_capacity as u64).to_le_bytes());
        header.extend_from_slice(&0u64.to_le_bytes()); // nnz, patched
        header.extend_from_slice(&0u64.to_le_bytes()); // num_chunks, patched
        for &d in &shape {
            header.extend_from_slice(&d.to_le_bytes());
        }
        w.write_all(&header)
            .map_err(|e| StreamError::io(&path, e))?;
        let order = shape.len();
        let hist = shape.iter().map(|&d| vec![0u64; d as usize]).collect();
        Ok(Self {
            file: w,
            path,
            chunk_capacity: chunk_capacity as u64,
            buf: Vec::with_capacity(chunk_capacity * (order * 4 + 4)),
            buf_nnz: 0,
            buf_min: vec![Idx::MAX; order],
            buf_max: vec![0; order],
            chunks: Vec::new(),
            hist,
            norm_sq: 0.0,
            shape,
            nnz: 0,
        })
    }

    /// Appends one nonzero. Out-of-bounds coordinates are a data error (they
    /// come from files, not from code), reported as [`StreamError::Format`].
    pub fn push(&mut self, coords: &[Idx], val: Val) -> Result<(), StreamError> {
        if coords.len() != self.shape.len() {
            return Err(StreamError::format(
                &self.path,
                format!(
                    "element has {} coordinates, tensor order is {}",
                    coords.len(),
                    self.shape.len()
                ),
            ));
        }
        // Validate every coordinate before mutating any state, so a rejected
        // element leaves the writer usable (no partial buffer/histogram).
        for (m, (&c, &d)) in coords.iter().zip(&self.shape).enumerate() {
            if c >= d {
                return Err(StreamError::format(
                    &self.path,
                    format!("coordinate {c} out of bounds for mode {m} (size {d})"),
                ));
            }
        }
        for (m, &c) in coords.iter().enumerate() {
            self.buf.extend_from_slice(&c.to_le_bytes());
            self.buf_min[m] = self.buf_min[m].min(c);
            self.buf_max[m] = self.buf_max[m].max(c);
            self.hist[m][c as usize] += 1;
        }
        self.buf.extend_from_slice(&val.to_le_bytes());
        self.norm_sq += val as f64 * val as f64;
        self.buf_nnz += 1;
        self.nnz += 1;
        if self.buf_nnz == self.chunk_capacity {
            self.flush_chunk()?;
        }
        Ok(())
    }

    fn flush_chunk(&mut self) -> Result<(), StreamError> {
        if self.buf_nnz == 0 {
            return Ok(());
        }
        self.file
            .write_all(&self.buf)
            .map_err(|e| StreamError::io(&self.path, e))?;
        self.chunks.push(ChunkMeta {
            nnz: self.buf_nnz,
            mode_min: self.buf_min.clone(),
            mode_max: self.buf_max.clone(),
        });
        self.buf.clear();
        self.buf_nnz = 0;
        self.buf_min.fill(Idx::MAX);
        self.buf_max.fill(0);
        Ok(())
    }

    /// Flushes the trailing partial chunk, writes the footer, and patches
    /// the header counts. Returns the file's metadata.
    pub fn finish(mut self) -> Result<TnsbMeta, StreamError> {
        if self.nnz == 0 {
            // Match read_tns / convert_tns_to_tnsb: an empty tensor is a data
            // error (ALS on it would divide by ‖X‖ = 0), not a valid file.
            return Err(StreamError::format(
                &self.path,
                "no nonzero elements written",
            ));
        }
        self.flush_chunk()?;
        let mut footer = Vec::new();
        footer.extend_from_slice(&self.norm_sq.to_le_bytes());
        for h in &self.hist {
            for &n in h {
                footer.extend_from_slice(&n.to_le_bytes());
            }
        }
        for c in &self.chunks {
            footer.extend_from_slice(&c.nnz.to_le_bytes());
            for m in 0..self.shape.len() {
                footer.extend_from_slice(&c.mode_min[m].to_le_bytes());
                footer.extend_from_slice(&c.mode_max[m].to_le_bytes());
            }
        }
        self.file
            .write_all(&footer)
            .map_err(|e| StreamError::io(&self.path, e))?;
        // Drain the BufWriter before seeking the underlying file, or the
        // buffered footer would land at the patch position.
        self.file
            .flush()
            .map_err(|e| StreamError::io(&self.path, e))?;
        // Patch nnz + num_chunks (bytes 24..40 of the fixed header).
        let file = self.file.get_mut();
        file.seek(SeekFrom::Start(24))
            .map_err(|e| StreamError::io(&self.path, e))?;
        let mut patch = [0u8; 16];
        patch[..8].copy_from_slice(&self.nnz.to_le_bytes());
        patch[8..].copy_from_slice(&(self.chunks.len() as u64).to_le_bytes());
        file.write_all(&patch)
            .map_err(|e| StreamError::io(&self.path, e))?;
        Ok(TnsbMeta {
            shape: self.shape,
            nnz: self.nnz,
            chunk_capacity: self.chunk_capacity,
            chunks: self.chunks,
            hist: self.hist,
            norm_sq: self.norm_sq,
        })
    }
}

/// Writes an in-memory tensor as `.tnsb` (for tests, benches, and examples;
/// out-of-core inputs come through [`convert_tns_to_tnsb`] or a streaming
/// [`TnsbWriter`]).
pub fn write_tnsb(
    t: &SparseTensor,
    path: impl Into<PathBuf>,
    chunk_capacity: usize,
) -> Result<TnsbMeta, StreamError> {
    let mut w = TnsbWriter::create(path, t.shape().to_vec(), chunk_capacity)?;
    for e in t.iter() {
        w.push(e.coords, e.val)?;
    }
    w.finish()
}

/// Converts FROSTT `.tns` text to `.tnsb` in two streaming passes — the
/// whole tensor is never resident: pass 1 infers the shape (per-mode max
/// coordinate) and pass 2 writes chunks through a [`TnsbWriter`].
pub fn convert_tns_to_tnsb(
    tns: impl AsRef<Path>,
    tnsb: impl Into<PathBuf>,
    chunk_capacity: usize,
) -> Result<TnsbMeta, StreamError> {
    let tns = tns.as_ref();
    // Pass 1: shape inference.
    let mut shape: Vec<Idx> = Vec::new();
    scan_tns(tns, |coords, _| {
        if shape.is_empty() {
            shape = vec![0; coords.len()];
        }
        for (m, &c) in coords.iter().enumerate() {
            shape[m] = shape[m].max(c + 1);
        }
        Ok(())
    })?;
    if shape.is_empty() {
        return Err(StreamError::Tns(amped_tensor::io::TnsError::Empty));
    }
    // Pass 2: chunked write.
    let mut w = TnsbWriter::create(tnsb, shape, chunk_capacity)?;
    scan_tns(tns, |coords, val| w.push(coords, val))?;
    w.finish()
}

/// Streams every data element of a `.tns` file through `body`, attaching
/// the file path to parse/I/O errors.
fn scan_tns(
    path: &Path,
    body: impl FnMut(&[Idx], Val) -> Result<(), StreamError>,
) -> Result<(), StreamError> {
    let f = File::open(path).map_err(|e| StreamError::io(path, e))?;
    for_each_tns_element(BufReader::new(f), body).map_err(|e| match e {
        StreamError::Tns(t) => StreamError::Tns(t.with_path(path)),
        other => other,
    })
}

/// Little-endian decoder over a byte buffer with truncation checks.
struct Dec<'a> {
    bytes: &'a [u8],
    off: usize,
    path: &'a Path,
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], StreamError> {
        let end = self
            .off
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| StreamError::truncated(self.path, self.off, n))?;
        let s = &self.bytes[self.off..end];
        self.off = end;
        Ok(s)
    }

    /// `take(N)` as a fixed-width array, with the length mismatch (which
    /// `take` already rules out) folded into the same typed truncation
    /// error instead of a panic path.
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], StreamError> {
        let (path, off) = (self.path, self.off);
        self.take(N)?
            .try_into()
            .map_err(|_| StreamError::truncated(path, off, N))
    }

    fn u32(&mut self) -> Result<u32, StreamError> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }

    fn u64(&mut self) -> Result<u64, StreamError> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }

    fn f64(&mut self) -> Result<f64, StreamError> {
        Ok(f64::from_le_bytes(self.take_array()?))
    }
}

/// Reads the header and footer of a `.tnsb` file — everything except the
/// payload. Cost is `O(dims + chunks)` I/O, independent of nnz.
pub fn read_tnsb_meta(path: impl AsRef<Path>) -> Result<TnsbMeta, StreamError> {
    let path = path.as_ref();
    let mut file = File::open(path).map_err(|e| StreamError::io(path, e))?;
    let mut fixed = [0u8; FIXED_HEADER_BYTES as usize];
    file.read_exact(&mut fixed)
        .map_err(|e| StreamError::io(path, e))?;
    let mut d = Dec {
        bytes: &fixed,
        off: 0,
        path,
    };
    let magic = d.take(4)?;
    if magic != TNSB_MAGIC {
        return Err(StreamError::format(path, "bad magic (not a .tnsb file)"));
    }
    let version = d.u32()?;
    if version != TNSB_VERSION {
        return Err(StreamError::format(
            path,
            format!("unsupported version {version}"),
        ));
    }
    let order = d.u32()? as usize;
    if order == 0 {
        return Err(StreamError::format(path, "zero-mode tensor"));
    }
    let _reserved = d.u32()?;
    let chunk_capacity = d.u64()?;
    if chunk_capacity == 0 {
        return Err(StreamError::format(path, "zero chunk capacity"));
    }
    let nnz = d.u64()?;
    if nnz == 0 {
        return Err(StreamError::format(path, "no nonzero elements"));
    }
    let num_chunks = d.u64()? as usize;
    let mut dims_bytes = vec![0u8; 4 * order];
    file.read_exact(&mut dims_bytes)
        .map_err(|e| StreamError::io(path, e))?;
    let mut d = Dec {
        bytes: &dims_bytes,
        off: 0,
        path,
    };
    let mut shape = Vec::with_capacity(order);
    for _ in 0..order {
        let dim = d.u32()?;
        if dim == 0 {
            return Err(StreamError::format(path, "zero mode size"));
        }
        shape.push(dim);
    }
    if num_chunks as u64 != nnz.div_ceil(chunk_capacity) {
        return Err(StreamError::format(
            path,
            format!(
                "chunk count {num_chunks} inconsistent with nnz {nnz} / capacity {chunk_capacity}"
            ),
        ));
    }

    // Footer sits right after the fixed-size payload.
    let elem_bytes = (order * 4 + 4) as u64;
    let footer_off = FIXED_HEADER_BYTES + 4 * order as u64 + nnz * elem_bytes;
    file.seek(SeekFrom::Start(footer_off))
        .map_err(|e| StreamError::io(path, e))?;
    let mut footer = Vec::new();
    file.read_to_end(&mut footer)
        .map_err(|e| StreamError::io(path, e))?;
    let mut d = Dec {
        bytes: &footer,
        off: 0,
        path,
    };
    let norm_sq = d.f64()?;
    let mut hist = Vec::with_capacity(order);
    for &dim in &shape {
        let mut h = Vec::with_capacity(dim as usize);
        for _ in 0..dim {
            h.push(d.u64()?);
        }
        hist.push(h);
    }
    let mut chunks = Vec::with_capacity(num_chunks);
    let mut seen_nnz = 0u64;
    for c in 0..num_chunks {
        let cn = d.u64()?;
        if cn == 0 || cn > chunk_capacity {
            return Err(StreamError::format(
                path,
                format!("chunk {c} has bad nnz {cn}"),
            ));
        }
        // chunk_offset() computes byte positions as c × capacity × elem, so
        // only the final chunk may be partial — anything else would silently
        // misalign every later payload read.
        if c + 1 < num_chunks && cn != chunk_capacity {
            return Err(StreamError::format(
                path,
                format!(
                    "chunk {c} holds {cn} of {chunk_capacity} elements but only the \
                     last chunk may be partial"
                ),
            ));
        }
        let mut mode_min = Vec::with_capacity(order);
        let mut mode_max = Vec::with_capacity(order);
        for (m, &dim) in shape.iter().enumerate() {
            let lo = d.u32()?;
            let hi = d.u32()?;
            if lo > hi || hi >= dim {
                return Err(StreamError::format(
                    path,
                    format!("chunk {c} mode {m} has bad index range [{lo}, {hi}]"),
                ));
            }
            mode_min.push(lo);
            mode_max.push(hi);
        }
        seen_nnz += cn;
        chunks.push(ChunkMeta {
            nnz: cn,
            mode_min,
            mode_max,
        });
    }
    if seen_nnz != nnz {
        return Err(StreamError::format(
            path,
            format!("chunk nnz sum {seen_nnz} does not match header nnz {nnz}"),
        ));
    }
    for (m, h) in hist.iter().enumerate() {
        let total: u64 = h.iter().sum();
        if total != nnz {
            return Err(StreamError::format(
                path,
                format!("mode {m} histogram sums to {total}, expected {nnz}"),
            ));
        }
    }
    Ok(TnsbMeta {
        shape,
        nnz,
        chunk_capacity,
        chunks,
        hist,
        norm_sq,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::ScratchDir;
    use amped_tensor::gen::GenSpec;
    use amped_tensor::io::write_tns_file;

    #[test]
    fn meta_round_trips_through_disk() {
        let t = GenSpec::uniform(vec![40, 30, 20], 1000, 7).generate();
        let dir = ScratchDir::new("tnsb");
        let path = dir.join("meta.tnsb");
        let written = write_tnsb(&t, &path, 128).unwrap();
        let read = read_tnsb_meta(&path).unwrap();
        assert_eq!(read.shape, t.shape());
        assert_eq!(read.nnz, t.nnz() as u64);
        assert_eq!(read.chunk_capacity, 128);
        assert_eq!(read.num_chunks(), t.nnz().div_ceil(128));
        assert_eq!(read.chunks, written.chunks);
        assert_eq!(read.hist, written.hist);
        assert!((read.norm_sq - t.norm_sq()).abs() < 1e-9 * t.norm_sq());
        // Histograms in the footer match the tensor's own.
        for m in 0..3 {
            assert_eq!(read.hist[m], t.mode_hist(m));
        }
    }

    #[test]
    fn chunk_bounding_boxes_are_tight() {
        let t = GenSpec::uniform(vec![50, 50], 300, 9).generate();
        let dir = ScratchDir::new("tnsb");
        let path = dir.join("bbox.tnsb");
        let meta = write_tnsb(&t, &path, 64).unwrap();
        let mut e = 0usize;
        for c in &meta.chunks {
            for m in 0..2 {
                let coords: Vec<Idx> = (e..e + c.nnz as usize).map(|i| t.idx(i, m)).collect();
                assert_eq!(c.mode_min[m], *coords.iter().min().unwrap());
                assert_eq!(c.mode_max[m], *coords.iter().max().unwrap());
            }
            e += c.nnz as usize;
        }
        assert_eq!(e, t.nnz());
    }

    #[test]
    fn rejects_non_tnsb_files() {
        let dir = ScratchDir::new("tnsb");
        let path = dir.join("not_tnsb.bin");
        std::fs::write(&path, b"definitely not a tensor").unwrap();
        let err = read_tnsb_meta(&path).unwrap_err();
        assert!(matches!(
            err,
            StreamError::Io { .. } | StreamError::Format { .. } | StreamError::Truncated { .. }
        ));
    }

    #[test]
    fn finish_of_empty_writer_is_an_error() {
        let dir = ScratchDir::new("tnsb");
        let path = dir.join("empty_writer.tnsb");
        let w = TnsbWriter::create(&path, vec![4, 4], 8).unwrap();
        let err = w.finish().unwrap_err();
        assert!(
            err.to_string().contains("no nonzero elements"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn rejects_partial_middle_chunk() {
        // Hand-built file: order 1, dims [4], capacity 2, nnz 3, but the
        // chunk directory claims [1, 2] — a partial chunk before the last
        // one, which the arithmetic chunk offsets cannot address.
        let mut b: Vec<u8> = Vec::new();
        b.extend_from_slice(&TNSB_MAGIC);
        b.extend_from_slice(&TNSB_VERSION.to_le_bytes());
        b.extend_from_slice(&1u32.to_le_bytes()); // order
        b.extend_from_slice(&0u32.to_le_bytes()); // reserved
        b.extend_from_slice(&2u64.to_le_bytes()); // chunk_capacity
        b.extend_from_slice(&3u64.to_le_bytes()); // nnz
        b.extend_from_slice(&2u64.to_le_bytes()); // num_chunks
        b.extend_from_slice(&4u32.to_le_bytes()); // dims
        for c in 0..3u32 {
            b.extend_from_slice(&c.to_le_bytes()); // coord
            b.extend_from_slice(&1.0f32.to_le_bytes()); // value
        }
        b.extend_from_slice(&3.0f64.to_le_bytes()); // norm_sq
        for h in [1u64, 1, 1, 0] {
            b.extend_from_slice(&h.to_le_bytes()); // histogram
        }
        for (nnz, lo, hi) in [(1u64, 0u32, 0u32), (2, 1, 2)] {
            b.extend_from_slice(&nnz.to_le_bytes());
            b.extend_from_slice(&lo.to_le_bytes());
            b.extend_from_slice(&hi.to_le_bytes());
        }
        let dir = ScratchDir::new("tnsb");
        let path = dir.join("partial_middle.tnsb");
        std::fs::write(&path, &b).unwrap();
        let err = read_tnsb_meta(&path).unwrap_err();
        assert!(
            err.to_string()
                .contains("only the last chunk may be partial"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn writer_rejects_out_of_bounds_coordinates() {
        let dir = ScratchDir::new("tnsb");
        let path = dir.join("oob.tnsb");
        let mut w = TnsbWriter::create(&path, vec![4, 4], 16).unwrap();
        let err = w.push(&[4, 0], 1.0).unwrap_err();
        assert!(matches!(err, StreamError::Format { .. }), "{err}");
    }

    #[test]
    fn tns_conversion_is_lossless() {
        let t = GenSpec::uniform(vec![25, 35, 15], 400, 11).generate();
        // Trim the shape to the occupied bounding box: `.tns` text carries no
        // header, so conversion can only recover max-coordinate dims.
        let shape: Vec<Idx> = (0..t.order())
            .map(|m| (0..t.nnz()).map(|e| t.idx(e, m)).max().unwrap() + 1)
            .collect();
        let t = SparseTensor::from_parts(shape, t.indices_flat().to_vec(), t.values().to_vec());
        let dir = ScratchDir::new("tnsb");
        let tns = dir.join("conv.tns");
        let tnsb = dir.join("conv.tnsb");
        write_tns_file(&t, &tns).unwrap();
        let meta = convert_tns_to_tnsb(&tns, &tnsb, 100).unwrap();
        assert_eq!(meta.shape, t.shape());
        assert_eq!(meta.nnz, t.nnz() as u64);
        for m in 0..t.order() {
            assert_eq!(meta.hist[m], t.mode_hist(m));
        }
    }

    #[test]
    fn conversion_of_empty_tns_fails() {
        let dir = ScratchDir::new("tnsb");
        let tns = dir.join("empty.tns");
        std::fs::write(&tns, "# nothing here\n").unwrap();
        let err = convert_tns_to_tnsb(&tns, dir.join("empty.tnsb"), 10).unwrap_err();
        assert!(matches!(err, StreamError::Tns(_)));
    }
}
