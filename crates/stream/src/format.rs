//! The `.tnsb` chunked binary tensor format.
//!
//! A `.tnsb` file stores a COO sparse tensor as fixed-capacity chunks of
//! nonzeros — once in the order the writer received them and once per mode
//! in that mode's sorted order — plus enough metadata for a reader to plan
//! an out-of-core decomposition *without touching the payload*:
//!
//! ```text
//! header    magic "TNSB" · version u32 (2) · order u32 · reserved u32
//!           chunk_capacity u64 · nnz u64 · num_chunks u64
//!           dims: order × u32
//! payload   the file-order section: chunks back to back; every chunk holds
//!           `chunk_capacity` elements except the last. One element =
//!           order × u32 zero-based coordinates + f32 value (the COO layout
//!           of `amped-tensor`).
//! sections  one per mode d, in mode order: the same `nnz` elements stably
//!           sorted by their mode-d coordinate (ties in file order — the
//!           order `SparseTensor::sorted_by_mode(d)` gives), cut into the
//!           same fixed-capacity chunks.
//! footer    norm_sq f64
//!           per mode: dim × u64 output-index histogram
//!           per file-order chunk: nnz u64 + per mode (min u32, max u32)
//!           section count u32 (= order)
//!           per section, per chunk: nnz u64 + per mode (min u32, max u32)
//! ```
//!
//! All integers are little-endian. Because chunks are fixed-capacity and
//! every section holds `nnz` elements, the byte offset of any chunk of any
//! section is arithmetic — no offset table is needed. The footer carries
//! exactly what the streaming partitioner's pass 1 consumes: full per-mode
//! histograms (for chains-on-chains device ranges), per-chunk index
//! bounding boxes, and `‖X‖²` (for the CP-ALS fit, which would otherwise
//! require one more pass over the payload).
//!
//! **Why the sorted sections.** The paper keeps one tensor copy per mode,
//! ordered by the output mode, and charges the ordering to preprocessing
//! (§3.1, Fig. 10); every iteration only streams shards of those copies. The
//! sections are those copies on disk: the out-of-core engine reads chunk `c`
//! of section `d` for mode `d` and sorts nothing, its chunks have the long
//! row runs of the in-core engine's shards, and a GPU's slice of a chunk is a
//! contiguous sub-range. **Why the file-order section stays.** It is what
//! [`TnsbMeta::payload_bytes`] and the plain chunk loads describe — the
//! tensor as it was written, which an in-core load reads back — so a file
//! costs `(order + 1) × elem_bytes` per nonzero on disk.
//!
//! **How the writer sorts in bounded memory.** A section is a counting sort
//! whose counts the writer already holds (the footer histograms): the sorted
//! position of an element is its row's first position plus the number of
//! earlier elements of that row. [`TnsbWriter::finish`] fills a fixed-size
//! window of sorted positions by rescanning the file-order payload it just
//! wrote — advancing one cursor per row, keeping the elements that land in
//! the window — and appends the window to the file: `⌈nnz / window⌉`
//! rescans per mode, memory = the window + `O(dim)` cursors, never
//! `O(nnz)`. A tensor that fits one window (64 MiB of elements) is rescanned
//! once per mode.

use crate::error::StreamError;
use amped_tensor::io::for_each_tns_element;
use amped_tensor::{Idx, SparseTensor, Val};
use serde::Serialize;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Format magic bytes.
pub const TNSB_MAGIC: [u8; 4] = *b"TNSB";
/// The one format version this build writes and reads.
pub const TNSB_VERSION: u32 = 2;
/// Fixed header size before the dims array.
const FIXED_HEADER_BYTES: u64 = 40;
/// Bytes of sorted elements [`TnsbWriter::finish`] holds while it builds a
/// section (see the module docs).
const SECTION_WINDOW_BYTES: usize = 64 << 20;
/// Bytes of payload one `read` call fetches (see [`read_slabs`]).
const SLAB_BYTES: usize = 64 * 1024;

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
    /// Per-chunk metadata of the file-order section.
    pub chunks: Vec<ChunkMeta>,
    /// Per-chunk metadata of each sorted section, index = mode. Section `d`
    /// has the chunk count and chunk sizes of the file-order section; its
    /// mode-`d` bounding boxes ascend from chunk to chunk.
    pub sections: Vec<Vec<ChunkMeta>>,
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

    /// Number of chunks of the file-order section (and of every sorted
    /// section).
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

    /// Byte offset of file-order chunk `c` within the file.
    pub fn chunk_offset(&self, c: usize) -> u64 {
        self.header_bytes() + c as u64 * self.chunk_capacity * self.elem_bytes()
    }

    /// Byte offset of chunk `c` of mode `d`'s sorted section.
    pub fn section_chunk_offset(&self, d: usize, c: usize) -> u64 {
        self.chunk_offset(c) + (d as u64 + 1) * self.payload_bytes()
    }

    /// Payload bytes of chunk `c` (of any section).
    pub fn chunk_bytes(&self, c: usize) -> u64 {
        self.chunks[c].nnz * self.elem_bytes()
    }

    /// Staging bytes of chunk `c` of mode `d`'s sorted section: its payload,
    /// or what the decoded chunk can hold if that is more — `4 × order`
    /// bytes per nonzero (input coordinates and value) plus a row id and a
    /// row pointer for each row it can hold (no more than its nonzeros, nor
    /// than the rows of its bounding box) and one pointer more. That is at
    /// most `8 × nnz + 8` bytes past the payload, whatever the mode's size,
    /// and within the payload when the box spans fewer rows than a third of
    /// the nonzeros.
    pub fn section_chunk_bytes(&self, d: usize, c: usize) -> u64 {
        let chunk = &self.sections[d][c];
        let box_rows = (chunk.mode_max[d] - chunk.mode_min[d]) as u64 + 1;
        let rows = chunk.nnz.min(box_rows);
        let id = std::mem::size_of::<Idx>() as u64;
        let pointer = std::mem::size_of::<usize>() as u64;
        let held = chunk.nnz * 4 * self.order() as u64 + rows * (id + pointer) + pointer;
        held.max(self.chunk_bytes(c))
    }

    /// Payload bytes of the tensor — one section; what an in-core load
    /// would cost.
    pub fn payload_bytes(&self) -> u64 {
        self.nnz * self.elem_bytes()
    }
}

/// Cuts a stream of elements into fixed-capacity chunks, keeping each
/// chunk's count and bounding box — the chunk table of one section.
#[derive(Debug)]
struct ChunkCutter {
    capacity: u64,
    open: ChunkMeta,
    done: Vec<ChunkMeta>,
}

impl ChunkCutter {
    /// A chunk no element has joined yet.
    fn empty_chunk(order: usize) -> ChunkMeta {
        ChunkMeta {
            nnz: 0,
            mode_min: vec![Idx::MAX; order],
            mode_max: vec![0; order],
        }
    }

    fn new(capacity: u64, order: usize) -> Self {
        Self {
            capacity,
            open: Self::empty_chunk(order),
            done: Vec::new(),
        }
    }

    fn add(&mut self, coords: impl Iterator<Item = Idx>) {
        let open = &mut self.open;
        for ((lo, hi), c) in open.mode_min.iter_mut().zip(&mut open.mode_max).zip(coords) {
            *lo = (*lo).min(c);
            *hi = (*hi).max(c);
        }
        open.nnz += 1;
        if open.nnz == self.capacity {
            self.cut();
        }
    }

    fn cut(&mut self) {
        if self.open.nnz > 0 {
            let fresh = Self::empty_chunk(self.open.mode_min.len());
            self.done.push(std::mem::replace(&mut self.open, fresh));
        }
    }

    /// The table, with the trailing partial chunk.
    fn finish(&mut self) -> Vec<ChunkMeta> {
        self.cut();
        std::mem::take(&mut self.done)
    }
}

/// Coordinate `m` of an encoded element.
#[inline]
pub(crate) fn coord_of(rec: &[u8], m: usize) -> Idx {
    Idx::from_le_bytes([rec[4 * m], rec[4 * m + 1], rec[4 * m + 2], rec[4 * m + 3]])
}

/// Hands `body` the `nnz` elements of `elem_bytes` each that start at byte
/// `offset` of `file`, in slabs of whole elements (64 KiB, or one element if
/// that is larger) — one `read` call per slab instead of per element, and
/// never more than a slab resident beyond what `body` keeps.
pub(crate) fn read_slabs(
    file: &mut File,
    path: &Path,
    offset: u64,
    nnz: usize,
    elem_bytes: usize,
    mut body: impl FnMut(&[u8]) -> Result<(), StreamError>,
) -> Result<(), StreamError> {
    file.seek(SeekFrom::Start(offset))
        .map_err(|e| StreamError::io(path, e))?;
    let batch = (SLAB_BYTES / elem_bytes).max(1);
    let mut slab = vec![0u8; batch.min(nnz) * elem_bytes];
    let mut done = 0usize;
    while done < nnz {
        let n = batch.min(nnz - done);
        let buf = &mut slab[..n * elem_bytes];
        file.read_exact(buf).map_err(|e| StreamError::io(path, e))?;
        body(buf)?;
        done += n;
    }
    Ok(())
}

/// Streaming `.tnsb` writer: feed elements one at a time. While elements
/// arrive host memory holds one write buffer and the per-mode histograms;
/// [`TnsbWriter::finish`] then builds the sorted sections within a fixed
/// window (see the module docs) — nothing scales with the nonzero count.
#[derive(Debug)]
pub struct TnsbWriter {
    file: BufWriter<File>,
    path: PathBuf,
    shape: Vec<Idx>,
    chunks: ChunkCutter,
    hist: Vec<Vec<u64>>,
    norm_sq: f64,
    nnz: u64,
    /// The element being encoded.
    rec: Vec<u8>,
    /// Sorted elements held at once while a section is built.
    window_elems: usize,
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
        let mut w = BufWriter::with_capacity(1 << 20, file);
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
            chunks: ChunkCutter::new(chunk_capacity as u64, order),
            hist,
            norm_sq: 0.0,
            shape,
            nnz: 0,
            rec: vec![0; order * 4 + 4],
            window_elems: (SECTION_WINDOW_BYTES / (order * 4 + 4)).max(1),
        })
    }

    /// A writer whose section window holds `elems` sorted elements: small
    /// tensors exercise the many-window path of [`TnsbWriter::finish`].
    #[cfg(test)]
    pub(crate) fn with_section_window(mut self, elems: usize) -> Self {
        assert!(elems > 0);
        self.window_elems = elems;
        self
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
        // element leaves the writer usable (no partial element/histogram).
        for (m, (&c, &d)) in coords.iter().zip(&self.shape).enumerate() {
            if c >= d {
                return Err(StreamError::format(
                    &self.path,
                    format!("coordinate {c} out of bounds for mode {m} (size {d})"),
                ));
            }
        }
        for (m, &c) in coords.iter().enumerate() {
            self.rec[4 * m..4 * m + 4].copy_from_slice(&c.to_le_bytes());
            self.hist[m][c as usize] += 1;
        }
        self.rec[4 * coords.len()..].copy_from_slice(&val.to_le_bytes());
        self.file
            .write_all(&self.rec)
            .map_err(|e| StreamError::io(&self.path, e))?;
        self.chunks.add(coords.iter().copied());
        self.norm_sq += val as f64 * val as f64;
        self.nnz += 1;
        Ok(())
    }

    /// Appends mode `d`'s sorted section to the file (the file-order payload
    /// must be flushed) and returns its chunk table. `window` is the sorted
    /// window's storage, kept by the caller from section to section.
    fn write_section(
        &mut self,
        d: usize,
        payload: &mut File,
        window: &mut Vec<u8>,
    ) -> Result<Vec<ChunkMeta>, StreamError> {
        let path = &self.path;
        let order = self.shape.len();
        let elem = order * 4 + 4;
        let nnz = self.nnz as usize;
        // First sorted position of every row: the histogram's prefix sums.
        let mut row_start = Vec::with_capacity(self.hist[d].len());
        let mut total = 0u64;
        for &n in &self.hist[d] {
            row_start.push(total);
            total += n;
        }
        let changed = || StreamError::format(path, "the payload changed while it was being sorted");
        let mut cutter = ChunkCutter::new(self.chunks.capacity, order);
        let mut cursor = Vec::new();
        for w0 in (0..nnz).step_by(self.window_elems) {
            let len = self.window_elems.min(nnz - w0);
            window.resize(len * elem, 0u8);
            cursor.clone_from(&row_start);
            read_slabs(
                payload,
                path,
                FIXED_HEADER_BYTES + 4 * order as u64,
                nnz,
                elem,
                |slab| {
                    for rec in slab.chunks_exact(elem) {
                        let next = cursor
                            .get_mut(coord_of(rec, d) as usize)
                            .ok_or_else(changed)?;
                        // Sorted position of this element, relative to the window.
                        let at = (*next as usize).wrapping_sub(w0);
                        *next += 1;
                        if at < len {
                            window[at * elem..(at + 1) * elem].copy_from_slice(rec);
                        }
                    }
                    Ok(())
                },
            )?;
            for rec in window.chunks_exact(elem) {
                cutter.add((0..order).map(|m| coord_of(rec, m)));
            }
            self.file
                .write_all(window)
                .map_err(|e| StreamError::io(path, e))?;
        }
        Ok(cutter.finish())
    }

    /// Builds and appends the sorted sections, writes the footer, and
    /// patches the header counts. Returns the file's metadata.
    pub fn finish(mut self) -> Result<TnsbMeta, StreamError> {
        if self.nnz == 0 {
            // Match read_tns / convert_tns_to_tnsb: an empty tensor is a data
            // error (ALS on it would divide by ‖X‖ = 0), not a valid file.
            return Err(StreamError::format(
                &self.path,
                "no nonzero elements written",
            ));
        }
        // The rescans read the payload back through a handle of their own:
        // drain the write buffer first.
        self.file
            .flush()
            .map_err(|e| StreamError::io(&self.path, e))?;
        let mut payload = File::open(&self.path).map_err(|e| StreamError::io(&self.path, e))?;
        let mut sections = Vec::with_capacity(self.shape.len());
        let mut window = Vec::new();
        for d in 0..self.shape.len() {
            sections.push(self.write_section(d, &mut payload, &mut window)?);
        }
        let chunks = self.chunks.finish();

        let mut footer = Vec::new();
        footer.extend_from_slice(&self.norm_sq.to_le_bytes());
        for h in &self.hist {
            for &n in h {
                footer.extend_from_slice(&n.to_le_bytes());
            }
        }
        put_chunk_table(&mut footer, &chunks);
        footer.extend_from_slice(&(sections.len() as u32).to_le_bytes());
        for table in &sections {
            put_chunk_table(&mut footer, table);
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
        patch[8..].copy_from_slice(&(chunks.len() as u64).to_le_bytes());
        file.write_all(&patch)
            .map_err(|e| StreamError::io(&self.path, e))?;
        Ok(TnsbMeta {
            shape: self.shape,
            nnz: self.nnz,
            chunk_capacity: self.chunks.capacity,
            chunks,
            sections,
            hist: self.hist,
            norm_sq: self.norm_sq,
        })
    }
}

/// Encodes one section's chunk table for the footer.
fn put_chunk_table(footer: &mut Vec<u8>, table: &[ChunkMeta]) {
    for c in table {
        footer.extend_from_slice(&c.nnz.to_le_bytes());
        for (lo, hi) in c.mode_min.iter().zip(&c.mode_max) {
            footer.extend_from_slice(&lo.to_le_bytes());
            footer.extend_from_slice(&hi.to_le_bytes());
        }
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

/// Converts FROSTT `.tns` text to `.tnsb` in two streaming passes over the
/// text — the whole tensor is never resident: pass 1 infers the shape
/// (per-mode max coordinate) and pass 2 writes chunks through a
/// [`TnsbWriter`], whose `finish` builds the sorted sections.
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

/// Decodes one section's chunk table: `num_chunks` entries that are all full
/// except possibly the last, sum to `nnz`, and whose boxes lie inside
/// `shape`. `what` names the section in errors.
fn chunk_table(
    d: &mut Dec<'_>,
    what: &str,
    shape: &[Idx],
    chunk_capacity: u64,
    nnz: u64,
    num_chunks: usize,
) -> Result<Vec<ChunkMeta>, StreamError> {
    let path = d.path;
    let mut chunks = Vec::with_capacity(num_chunks);
    let mut seen_nnz = 0u64;
    for c in 0..num_chunks {
        let cn = d.u64()?;
        if cn == 0 || cn > chunk_capacity {
            return Err(StreamError::format(
                path,
                format!("{what} chunk {c} has bad nnz {cn}"),
            ));
        }
        // Chunk byte positions are c × capacity × elem, so only the final
        // chunk may be partial — anything else would silently misalign
        // every later payload read.
        if c + 1 < num_chunks && cn != chunk_capacity {
            return Err(StreamError::format(
                path,
                format!(
                    "{what} chunk {c} holds {cn} of {chunk_capacity} elements but only the \
                     last chunk may be partial"
                ),
            ));
        }
        let mut mode_min = Vec::with_capacity(shape.len());
        let mut mode_max = Vec::with_capacity(shape.len());
        for (m, &dim) in shape.iter().enumerate() {
            let lo = d.u32()?;
            let hi = d.u32()?;
            if lo > hi || hi >= dim {
                return Err(StreamError::format(
                    path,
                    format!("{what} chunk {c} mode {m} has bad index range [{lo}, {hi}]"),
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
            format!("{what} chunk nnz sum {seen_nnz} does not match header nnz {nnz}"),
        ));
    }
    Ok(chunks)
}

/// Checks section `d`'s chunk table against the mode's histogram: the
/// section is the tensor sorted by mode `d`, so chunk `c` holds the sorted
/// positions from `c × capacity` on and the histogram says which rows those
/// are. A table that passes describes a section whose chunks ascend, and
/// [`crate::reader::StagedRead::read`] holds every chunk to its box.
fn check_section_rows(
    path: &Path,
    d: usize,
    hist: &[u64],
    table: &[ChunkMeta],
) -> Result<(), StreamError> {
    // The row holding sorted position `pos`; positions are asked in
    // ascending order and stay below the histogram's total.
    let (mut row, mut row_end) = (0usize, hist[0]);
    let mut row_of = |pos: u64| {
        while row_end <= pos {
            row += 1;
            row_end += hist[row];
        }
        row as Idx
    };
    let mut first = 0u64;
    for (c, chunk) in table.iter().enumerate() {
        let want = (row_of(first), row_of(first + chunk.nnz - 1));
        let got = (chunk.mode_min[d], chunk.mode_max[d]);
        if got != want {
            return Err(StreamError::format(
                path,
                format!(
                    "sorted section {d} chunk {c} claims rows [{}, {}] of mode {d} where the \
                     histogram puts rows [{}, {}]",
                    got.0, got.1, want.0, want.1
                ),
            ));
        }
        first += chunk.nnz;
    }
    Ok(())
}

/// Reads the header and footer of a `.tnsb` file — everything except the
/// payload. Cost is `O(dims + order × chunks)` I/O, independent of nnz.
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
            format!(
                "unsupported version {version}: this build reads version {TNSB_VERSION} \
                 (per-mode sorted sections) only — re-convert the input"
            ),
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

    // The footer sits right after the file-order section and the `order`
    // sorted sections, all of the same fixed size.
    let elem_bytes = (order * 4 + 4) as u64;
    let footer_off = nnz
        .checked_mul(elem_bytes)
        .and_then(|section| section.checked_mul(order as u64 + 1))
        .and_then(|sections| sections.checked_add(FIXED_HEADER_BYTES + 4 * order as u64))
        .ok_or_else(|| StreamError::format(path, format!("nnz {nnz} overflows the file size")))?;
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
    for (m, h) in hist.iter().enumerate() {
        let total: u64 = h.iter().sum();
        if total != nnz {
            return Err(StreamError::format(
                path,
                format!("mode {m} histogram sums to {total}, expected {nnz}"),
            ));
        }
    }
    let chunks = chunk_table(
        &mut d,
        "file-order",
        &shape,
        chunk_capacity,
        nnz,
        num_chunks,
    )?;
    let num_sections = d.u32()? as usize;
    if num_sections != order {
        return Err(StreamError::format(
            path,
            format!("footer lists {num_sections} sorted sections for an order-{order} tensor"),
        ));
    }
    let mut sections = Vec::with_capacity(order);
    for (m, h) in hist.iter().enumerate() {
        let what = format!("sorted section {m}");
        let table = chunk_table(&mut d, &what, &shape, chunk_capacity, nnz, num_chunks)?;
        check_section_rows(path, m, h, &table)?;
        sections.push(table);
    }
    Ok(TnsbMeta {
        shape,
        nnz,
        chunk_capacity,
        chunks,
        sections,
        hist,
        norm_sq,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::ScratchDir;
    use crate::reader::ChunkReader;
    use amped_sim::MemPool;
    use amped_tensor::gen::GenSpec;
    use amped_tensor::io::write_tns_file;
    use proptest::prelude::*;

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
        assert_eq!(read.sections, written.sections);
        assert_eq!(read.hist, written.hist);
        assert!((read.norm_sq - t.norm_sq()).abs() < 1e-9 * t.norm_sq());
        // Histograms in the footer match the tensor's own.
        for m in 0..3 {
            assert_eq!(read.hist[m], t.mode_hist(m));
        }
        // One file-order section and one sorted section per mode, then the
        // footer: the file is (order + 1) × 16 B per nonzero plus metadata.
        let footer = 8 + (40 + 30 + 20) * 8 + 4 + 4 * read.num_chunks() as u64 * (8 + 3 * 8);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            read.header_bytes() + 4 * read.payload_bytes() + footer
        );
        assert_eq!(
            read.section_chunk_offset(2, 1),
            read.chunk_offset(1) + 3 * read.payload_bytes()
        );
    }

    /// The tight bounding boxes of `t` cut into `cap`-element chunks.
    fn tight_boxes(t: &SparseTensor, cap: usize) -> Vec<ChunkMeta> {
        (0..t.nnz())
            .step_by(cap)
            .map(|lo| {
                let hi = (lo + cap).min(t.nnz());
                let along = |m: usize| (lo..hi).map(move |e| t.idx(e, m));
                ChunkMeta {
                    nnz: (hi - lo) as u64,
                    mode_min: (0..t.order()).map(|m| along(m).min().unwrap()).collect(),
                    mode_max: (0..t.order()).map(|m| along(m).max().unwrap()).collect(),
                }
            })
            .collect()
    }

    #[test]
    fn chunk_bounding_boxes_are_tight() {
        let t = GenSpec::uniform(vec![50, 50], 300, 9).generate();
        let dir = ScratchDir::new("tnsb");
        let path = dir.join("bbox.tnsb");
        let meta = write_tnsb(&t, &path, 64).unwrap();
        assert_eq!(meta.chunks, tight_boxes(&t, 64));
        for d in 0..2 {
            assert_eq!(meta.sections[d], tight_boxes(&t.sorted_by_mode(d), 64));
        }
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
        // file-order chunk directory claims [1, 2] — a partial chunk before
        // the last one, which the arithmetic chunk offsets cannot address.
        let mut b: Vec<u8> = Vec::new();
        b.extend_from_slice(&TNSB_MAGIC);
        b.extend_from_slice(&TNSB_VERSION.to_le_bytes());
        b.extend_from_slice(&1u32.to_le_bytes()); // order
        b.extend_from_slice(&0u32.to_le_bytes()); // reserved
        b.extend_from_slice(&2u64.to_le_bytes()); // chunk_capacity
        b.extend_from_slice(&3u64.to_le_bytes()); // nnz
        b.extend_from_slice(&2u64.to_le_bytes()); // num_chunks
        b.extend_from_slice(&4u32.to_le_bytes()); // dims
        for _section in 0..2 {
            for c in 0..3u32 {
                b.extend_from_slice(&c.to_le_bytes()); // coord
                b.extend_from_slice(&1.0f32.to_le_bytes()); // value
            }
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
        // The rejected element left nothing behind.
        w.push(&[3, 0], 1.0).unwrap();
        let meta = w.finish().unwrap();
        assert_eq!((meta.nnz, meta.hist[0][3], meta.hist[1][0]), (1, 1, 1));
    }

    /// Every chunk of one section of the file behind `r`, concatenated, with
    /// every coordinate: a sorted-section chunk is reassembled from its
    /// decoded view, each row put back between its elements' input
    /// coordinates.
    fn read_section(r: &mut ChunkReader, section: Option<usize>) -> (Vec<Idx>, Vec<u32>) {
        let (mut coords, mut values) = (Vec::new(), Vec::new());
        let k = r.meta().order() - 1;
        for c in 0..r.meta().num_chunks() {
            let staged = r.stage(c, section).unwrap();
            let chunk = staged.read().unwrap();
            r.finish_stage(&chunk);
            assert_eq!(chunk.sorted_mode(), section);
            assert_eq!(chunk.nnz() as u64, r.meta().chunks[c].nnz);
            match section {
                None => coords.extend_from_slice(chunk.coords_flat()),
                Some(d) => {
                    for (&row, w) in chunk.row_ids().iter().zip(chunk.row_ptr().windows(2)) {
                        for e in w[0]..w[1] {
                            let inputs = &chunk.input_coords()[e * k..(e + 1) * k];
                            coords.extend_from_slice(&inputs[..d]);
                            coords.push(row);
                            coords.extend_from_slice(&inputs[d..]);
                        }
                    }
                }
            }
            values.extend(chunk.values().iter().map(|v| v.to_bits()));
            r.release(chunk);
        }
        (coords, values)
    }

    /// The file at `path` holds `t`: the file-order chunks reassemble it and
    /// section `d`'s chunks reassemble `t.sorted_by_mode(d)`, element for
    /// element.
    fn assert_file_holds(path: &Path, t: &SparseTensor) {
        let bits = |t: &SparseTensor| t.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut r = ChunkReader::open(path, MemPool::new("host-stage", 1 << 30)).unwrap();
        let (coords, values) = read_section(&mut r, None);
        assert_eq!(coords, t.indices_flat());
        assert_eq!(values, bits(t));
        for d in 0..t.order() {
            let sorted = t.sorted_by_mode(d);
            let (coords, values) = read_section(&mut r, Some(d));
            assert_eq!(coords, sorted.indices_flat(), "section {d}");
            assert_eq!(values, bits(&sorted), "section {d}");
        }
        assert_eq!(r.budget().used(), 0);
    }

    /// Writes `t` through a writer whose section window holds `window`
    /// elements.
    fn write_windowed(t: &SparseTensor, path: &Path, cap: usize, window: usize) -> TnsbMeta {
        let mut w = TnsbWriter::create(path, t.shape().to_vec(), cap)
            .unwrap()
            .with_section_window(window);
        for e in t.iter() {
            w.push(e.coords, e.val).unwrap();
        }
        w.finish().unwrap()
    }

    /// `t` written with `cap`-element chunks holds `t`, and a writer that
    /// needs many windows per section writes the same bytes as one that
    /// needs one.
    fn check_sections(t: &SparseTensor, cap: usize, window: usize) {
        let dir = ScratchDir::new("tnsb");
        let (one, many) = (dir.join("one.tnsb"), dir.join("many.tnsb"));
        write_tnsb(t, &one, cap).unwrap();
        assert_file_holds(&one, t);
        assert!(window < t.nnz() || t.nnz() == 1, "nothing windowed");
        write_windowed(t, &many, cap, window);
        assert!(
            std::fs::read(&one).unwrap() == std::fs::read(&many).unwrap(),
            "a {window}-element window changed the file ({} nnz, capacity {cap})",
            t.nnz()
        );
    }

    #[test]
    fn sections_hold_the_sorted_tensor_on_every_shape_of_input() {
        // Single-element chunks; one chunk larger than the tensor.
        let small = GenSpec::uniform(vec![6, 5], 9, 23).generate();
        check_sections(&small, 1, 2);
        check_sections(&small, 64, 4);
        // A row of mode 0 holding more than three chunks of nonzeros, and
        // mode slices with none (30 elements cannot touch 500 rows).
        let mut hot = SparseTensor::new(vec![7, 500, 3]);
        for e in 0..30u32 {
            let row = if e % 5 == 0 { e % 7 } else { 4 };
            hot.push(&[row, (e * 37) % 500, e % 3], e as Val);
        }
        assert!(hot.mode_hist(0)[4] > 3 * 6 && hot.mode_hist(1).contains(&0));
        check_sections(&hot, 6, 5);
        // Order 5 with a one-row mode, window not a multiple of the capacity.
        let five = GenSpec::uniform(vec![20, 1, 28, 16, 12], 900, 22).generate();
        check_sections(&five, 250, 77);
        // One element.
        let mut one = SparseTensor::new(vec![3, 3]);
        one.push(&[2, 1], 1.5);
        check_sections(&one, 4, 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

        /// Random shapes, skews, capacities and windows.
        #[test]
        fn sections_are_the_stable_sorts_whatever_the_window(
            d0 in 1u32..60,
            d1 in 1u32..40,
            d2 in 1u32..300,
            nnz in 2usize..1200,
            cap in 1usize..700,
            window in 1usize..400,
            skew in 0.0f64..1.5,
            seed in 0u64..1000,
        ) {
            let t = GenSpec { shape: vec![d0, d1, d2], nnz, skew: vec![skew, 0.0, 0.3], seed }
                .generate();
            check_sections(&t, cap, window.min(t.nnz() - 1).max(1));
        }
    }

    /// A 3-mode file of 10 chunks to corrupt, with its metadata.
    fn victim(dir: &ScratchDir) -> (PathBuf, TnsbMeta) {
        let t = GenSpec {
            shape: vec![40, 30, 20],
            nnz: 1000,
            skew: vec![0.9, 0.0, 0.3],
            seed: 31,
        }
        .generate();
        let path = dir.join("victim.tnsb");
        let meta = write_tnsb(&t, &path, 100).unwrap();
        (path, meta)
    }

    /// Opens `path` and reads every chunk of every sorted section; the first
    /// error, after checking that it left the staging budget empty.
    fn first_error(path: &Path) -> Option<StreamError> {
        let mut r = match ChunkReader::open(path, MemPool::new("host-stage", 1 << 20)) {
            Ok(r) => r,
            Err(e) => return Some(e),
        };
        for d in 0..r.meta().order() {
            for c in 0..r.meta().num_chunks() {
                let staged = r.stage(c, Some(d)).unwrap();
                match staged.read() {
                    Ok(chunk) => {
                        r.finish_stage(&chunk);
                        r.release(chunk);
                    }
                    Err(e) => {
                        r.fail_stage(staged.bytes());
                        assert_eq!(r.budget().used(), 0, "the failed read leaked budget");
                        return Some(e);
                    }
                }
            }
        }
        assert_eq!(r.budget().used(), 0);
        None
    }

    /// Rewrites `path` with `edit` applied to its bytes.
    fn corrupt(path: &Path, edit: impl FnOnce(&mut Vec<u8>)) {
        let mut bytes = std::fs::read(path).unwrap();
        edit(&mut bytes);
        std::fs::write(path, bytes).unwrap();
    }

    #[test]
    fn corrupt_files_are_typed_errors_never_panics() {
        let dir = ScratchDir::new("tnsb");
        let (path, meta) = victim(&dir);
        assert!(first_error(&path).is_none(), "the victim starts healthy");
        let pristine = std::fs::read(&path).unwrap();
        let restore = || std::fs::write(&path, &pristine).unwrap();
        let footer = (meta.header_bytes() + 4 * meta.payload_bytes()) as usize;
        let elem = meta.elem_bytes() as usize;

        // A version-1 header: no sorted sections behind it. Re-convert.
        corrupt(&path, |b| b[4..8].copy_from_slice(&1u32.to_le_bytes()));
        let err = first_error(&path).unwrap();
        assert!(matches!(err, StreamError::Format { .. }), "{err}");
        assert!(err.to_string().contains("re-convert"), "{err}");
        restore();

        // Truncated inside section 1: the footer is gone.
        corrupt(&path, |b| {
            b.truncate(meta.section_chunk_offset(1, 3) as usize + 5)
        });
        let err = first_error(&path).unwrap();
        assert!(
            matches!(
                err,
                StreamError::Truncated { .. } | StreamError::Format { .. }
            ),
            "{err}"
        );
        restore();

        // Two elements of section 0 swapped across a row boundary inside
        // chunk 4: no longer sorted.
        let at = meta.section_chunk_offset(0, 4) as usize;
        let rows: Vec<Idx> = (0..100)
            .map(|e| coord_of(&pristine[at + e * elem..], 0))
            .collect();
        let e = (1..100)
            .find(|&e| rows[e - 1] < rows[e])
            .expect("chunk 4 spans two rows");
        corrupt(&path, |b| {
            for k in 0..elem {
                b.swap(at + (e - 1) * elem + k, at + e * elem + k);
            }
        });
        let err = first_error(&path).unwrap();
        assert!(matches!(err, StreamError::Format { .. }), "{err}");
        assert!(err.to_string().contains("not sorted by mode 0"), "{err}");
        restore();

        // A row in the middle of chunk 4 moved just past either end of the
        // chunk's box (still inside the shape): the decoder holds every row,
        // not just the first and last, to the box.
        let (lo, hi) = (
            meta.sections[0][4].mode_min[0],
            meta.sections[0][4].mode_max[0],
        );
        assert!(lo > 0 && hi + 1 < 40, "chunk 4 spans rows [{lo}, {hi}]");
        for row in [hi + 1, lo - 1] {
            corrupt(&path, |b| {
                b[at + 50 * elem..at + 50 * elem + 4].copy_from_slice(&row.to_le_bytes())
            });
            let err = first_error(&path).unwrap();
            assert!(matches!(err, StreamError::Format { .. }), "{err}");
            assert!(
                err.to_string().contains(&format!(
                    "row {row} of mode 0 lies outside the footer's bounding box [{lo}, {hi}]"
                )),
                "{err}"
            );
            restore();
        }

        // A coordinate of a section element out of the shape.
        corrupt(&path, |b| {
            b[at + 4..at + 8].copy_from_slice(&30u32.to_le_bytes())
        });
        let err = first_error(&path).unwrap();
        assert!(
            err.to_string()
                .contains("coordinate 30 out of bounds for mode 1"),
            "{err}"
        );
        restore();

        // Section 2, chunk 5's bounding box along mode 2 lies: the histogram
        // knows which rows those sorted positions hold.
        let hist_bytes = (40 + 30 + 20) * 8;
        let entry = 8 + 3 * 8;
        let table = |section: usize| footer + 8 + hist_bytes + section * 10 * entry + 4;
        let mode2_max = table(3) + 5 * entry + 8 + 2 * 8 + 4;
        assert_eq!(
            pristine[mode2_max..mode2_max + 4],
            meta.sections[2][5].mode_max[2].to_le_bytes()
        );
        corrupt(&path, |b| {
            b[mode2_max..mode2_max + 4].copy_from_slice(&19u32.to_le_bytes())
        });
        let err = first_error(&path).unwrap();
        assert!(matches!(err, StreamError::Format { .. }), "{err}");
        assert!(
            err.to_string()
                .contains("sorted section 2 chunk 5 claims rows"),
            "{err}"
        );
        restore();

        // The footer lists two sorted sections for three modes.
        let count = table(1) - 4;
        assert_eq!(pristine[count..count + 4], 3u32.to_le_bytes());
        corrupt(&path, |b| {
            b[count..count + 4].copy_from_slice(&2u32.to_le_bytes())
        });
        let err = first_error(&path).unwrap();
        assert!(matches!(err, StreamError::Format { .. }), "{err}");
        assert!(
            err.to_string().contains("2 sorted sections for an order-3"),
            "{err}"
        );
        restore();
        assert!(first_error(&path).is_none());
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
        // The converter is the streaming writer: sections included.
        assert_file_holds(&tnsb, &t);
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
