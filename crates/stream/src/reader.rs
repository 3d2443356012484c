//! Budgeted chunk reader: disk → bounded host staging memory.
//!
//! A chunk is read from one of the file's sections — the file-order section
//! ([`ChunkReader::load_chunk`]) or a mode's sorted section
//! ([`ChunkReader::stage`] with that mode) — and decoded with every
//! coordinate checked against the shape. A sorted-section chunk decodes into
//! the layout of the in-core engine's copies (per element the input
//! coordinates, per row one pointer) with its rows listed, so it holds
//! O(nnz) bytes however far apart its rows lie, and every row is held to its
//! order and to the footer's bounding box, so what reaches a kernel as
//! "sorted by mode `d`" is.
//!
//! The decode is one pass per 64 KiB slab. An order-3 section chunk, the
//! one every streamed iteration reads, takes each record as a fixed-width
//! array, so the shape check, the stores and the row bookkeeping compile to
//! straight-line code; every other chunk takes the same checks over
//! runtime-width records. Its arrays are recycled: a released chunk hands
//! them back to the reader and the next [`ChunkReader::stage`] decodes into
//! them, so a steady-state read allocates nothing but its slab.

use crate::error::StreamError;
use crate::format::{coord_of, read_slabs, read_tnsb_meta, TnsbMeta};
use amped_sim::obs::{Counter, Gauge, MetricsRegistry};
use amped_sim::MemPool;
use amped_tensor::{Idx, Val};
use std::fmt;
use std::fs::File;
use std::path::Path;
use std::sync::Arc;

/// One resident tensor chunk: decoded coordinates and values plus the bytes
/// it holds against the reader's staging budget.
#[derive(Debug)]
pub struct Chunk {
    index: usize,
    order: usize,
    /// The mode whose sorted section the chunk was read from.
    mode: Option<usize>,
    /// What the chunk holds.
    bufs: Buffers,
    bytes: u64,
    /// Decoded into a released chunk's arrays (`ooc_chunk_reuses`).
    reused: bool,
}

/// The arrays one chunk decodes into, handed from a released chunk to the
/// next staged read.
///
/// `coords` holds per element, element-major, every coordinate (file order)
/// or the `order − 1` input coordinates in ascending mode order (a sorted
/// section). A sorted-section chunk lists the rows it holds: row `ids[i]`
/// owns elements `ptr[i]..ptr[i + 1]`, and rows it does not hold cost
/// nothing; a file-order chunk leaves both empty.
#[derive(Default)]
struct Buffers {
    coords: Vec<Idx>,
    values: Vec<Val>,
    ids: Vec<Idx>,
    ptr: Vec<usize>,
}

impl Buffers {
    /// Bytes the arrays hold once each has room for the elements `lens`
    /// gives it (coordinates, values, row ids, row pointers).
    fn held_for(&self, lens: [usize; 4]) -> u64 {
        let caps = [
            self.coords.capacity(),
            self.values.capacity(),
            self.ids.capacity(),
            self.ptr.capacity(),
        ];
        let sizes = [
            size_of::<Idx>(),
            size_of::<Val>(),
            size_of::<Idx>(),
            size_of::<usize>(),
        ];
        let held = caps.iter().zip(lens).zip(sizes);
        held.map(|((&cap, len), size)| (cap.max(len) * size) as u64)
            .sum()
    }

    /// Bytes the arrays hold.
    fn held(&self) -> u64 {
        self.held_for([0; 4])
    }

    /// Readies the arrays for a chunk that fills `lens` and is charged
    /// `bytes`: if growing them would hold more than that, each first gives
    /// back what the chunk does not fill.
    fn trim(&mut self, lens: [usize; 4], bytes: u64) {
        if self.held_for(lens) > bytes {
            fit_to(&mut self.coords, lens[0]);
            fit_to(&mut self.values, lens[1]);
            fit_to(&mut self.ids, lens[2]);
            fit_to(&mut self.ptr, lens[3]);
        }
    }
}

/// Holds `v` to at most `len` elements and no more room.
fn fit_to<T>(v: &mut Vec<T>, len: usize) {
    v.truncate(len);
    v.shrink_to(len);
}

/// Sizes `v` to `len` elements, growing its room to exactly that if it is
/// short; kept elements are not written again.
fn size_to<T: Copy + Default>(v: &mut Vec<T>, len: usize) {
    v.truncate(len);
    v.reserve_exact(len - v.len());
    v.resize(len, T::default());
}

impl fmt::Debug for Buffers {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Buffers")
            .field("coords", &self.coords.len())
            .field("values", &self.values.len())
            .field("rows", &self.ids.len())
            .finish_non_exhaustive()
    }
}

impl Chunk {
    /// Chunk index within its section.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Nonzeros in this chunk.
    pub fn nnz(&self) -> usize {
        self.bufs.values.len()
    }

    /// Coordinates of element `e` of a file-order chunk.
    ///
    /// # Panics
    /// Panics on a sorted-section chunk (see [`Chunk::coords_flat`]).
    pub fn coords(&self, e: usize) -> &[Idx] {
        &self.coords_flat()[e * self.order..(e + 1) * self.order]
    }

    /// Value of element `e`.
    pub fn value(&self, e: usize) -> Val {
        self.bufs.values[e]
    }

    /// The raw element-major coordinate array of a file-order chunk
    /// (`nnz × order`).
    ///
    /// # Panics
    /// Panics on a sorted-section chunk, which stores its mode's coordinate
    /// per row: read it through [`Chunk::input_coords`] and
    /// [`Chunk::row_ptr`].
    pub fn coords_flat(&self) -> &[Idx] {
        assert!(
            self.mode.is_none(),
            "a sorted-section chunk has no full coordinates: use input_coords and row_ptr"
        );
        &self.bufs.coords
    }

    /// The input coordinates of a sorted-section chunk, element-major
    /// (`nnz × (order − 1)`, ascending modes, the sorted mode skipped).
    ///
    /// # Panics
    /// Panics on a file-order chunk.
    pub fn input_coords(&self) -> &[Idx] {
        assert!(
            self.mode.is_some(),
            "a file-order chunk stores every coordinate: use coords_flat"
        );
        &self.bufs.coords
    }

    /// The row pointers of a sorted-section chunk, one per row it holds
    /// and one more: row [`Chunk::row_ids`]`[i]` owns elements
    /// `row_ptr[i]..row_ptr[i + 1]`. Empty for a file-order chunk.
    pub fn row_ptr(&self) -> &[usize] {
        &self.bufs.ptr
    }

    /// The rows a sorted-section chunk holds, strictly ascending. Empty for
    /// a file-order chunk.
    pub fn row_ids(&self) -> &[Idx] {
        &self.bufs.ids
    }

    /// The raw value array, in element order.
    pub fn values(&self) -> &[Val] {
        &self.bufs.values
    }

    /// The mode whose sorted section this chunk was read from (its elements
    /// are non-decreasing in that coordinate, ties in file order), or `None`
    /// for a chunk of the file-order section.
    pub fn sorted_mode(&self) -> Option<usize> {
        self.mode
    }

    /// Staging bytes this chunk charges while resident.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

/// The sorted section a read comes from: the mode, and the rows the footer
/// says the chunk spans along it.
#[derive(Clone, Copy, Debug)]
struct SectionKey {
    mode: usize,
    lo: Idx,
    hi: Idx,
}

/// A budget reservation for one chunk whose disk read has not happened yet.
///
/// [`ChunkReader::stage`] charges the chunk's bytes to the staging budget on
/// the calling thread and hands back this token; [`StagedRead::read`] then
/// performs the seek + decode through its own file handle, so it is `Send`
/// and can run on a prefetch thread while the owning reader keeps serving
/// the main loop. The reservation itself is settled back on the owner's
/// thread: [`ChunkReader::finish_stage`] on success (counts the read),
/// [`ChunkReader::fail_stage`] on error (returns the bytes). Dropping a
/// `StagedRead` without settling leaks budget, exactly like leaking a
/// [`Chunk`].
#[derive(Debug)]
pub struct StagedRead {
    index: usize,
    path: Arc<Path>,
    offset: u64,
    nnz: usize,
    shape: Arc<[Idx]>,
    bytes: u64,
    section: Option<SectionKey>,
    /// A released chunk's arrays, if the reader had one to spare, trimmed
    /// to hold no more than `bytes` once grown to this chunk.
    spare: Option<Buffers>,
}

impl StagedRead {
    /// Chunk index this reservation covers.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Bytes charged to the staging budget for this reservation, which the
    /// decoded [`Chunk`] keeps charged: the chunk's payload, or what a
    /// decoded sorted-section chunk holds if that is more
    /// ([`TnsbMeta::section_chunk_bytes`]).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Elements the chunk fills in each of its arrays: coordinates, values,
    /// row ids and row pointers — for a section chunk as many rows as
    /// [`TnsbMeta::section_chunk_bytes`] charges for, so what they hold is
    /// within [`StagedRead::bytes`].
    fn lens(&self) -> [usize; 4] {
        let order = self.shape.len();
        match self.section {
            None => [self.nnz * order, self.nnz, 0, 0],
            Some(key) => {
                let rows = self.nnz.min((key.hi - key.lo) as usize + 1);
                [self.nnz * (order - 1), self.nnz, rows, rows + 1]
            }
        }
    }

    fn format_err(&self, what: String) -> StreamError {
        let section = match self.section {
            Some(key) => format!("sorted section {} ", key.mode),
            None => String::new(),
        };
        StreamError::format(
            &*self.path,
            format!("{section}chunk {}: {what}", self.index),
        )
    }

    /// Reads and decodes the staged chunk through a private file handle.
    /// Thread-safe with respect to the owning [`ChunkReader`]; the caller
    /// settles the budget reservation afterwards (`finish_stage` /
    /// `fail_stage` with the [`StagedRead::bytes`] it read first).
    ///
    /// Every coordinate is checked against the shape, and a sorted-section
    /// chunk must never decrease along its mode, must keep every row inside
    /// the footer's bounding box and must span exactly the rows that box
    /// names — a corrupt file is a [`StreamError::Format`] here, never an
    /// index panic or a broken contract downstream. The checks cost no
    /// branch per coordinate: each 64 KiB slab is decoded in one pass that
    /// stores the element and only accumulates a verdict, and a failed slab
    /// is walked again to name the offender. The chunk decodes into the
    /// arrays of a released one when the reader had them to spare; either
    /// way they hold no more than the charged chunk bytes. Transient memory
    /// beyond those is one slab of at most 64 KiB, allocated per read
    /// (reading the whole payload into a buffer of its own first, or keeping
    /// the slab with the chunk, would silently double the staging footprint
    /// the budget accounts for).
    pub fn read(mut self) -> Result<Chunk, StreamError> {
        let path = &*self.path;
        let mut file = File::open(path).map_err(|e| StreamError::io(path, e))?;
        let reused = self.spare.is_some();
        let mut bufs = self.spare.take().unwrap_or_default();
        self.decode(&mut file, &mut bufs)?;
        Ok(Chunk {
            index: self.index,
            order: self.shape.len(),
            mode: self.section.map(|key| key.mode),
            bufs,
            bytes: self.bytes,
            reused,
        })
    }

    /// Decodes the chunk into `bufs`: every coordinate of a file-order
    /// chunk, or the input coordinates and the rows of a section chunk.
    fn decode(&self, file: &mut File, bufs: &mut Buffers) -> Result<(), StreamError> {
        let (nnz, order) = (self.nnz, self.shape.len());
        let Buffers {
            coords,
            values,
            ids,
            ptr,
        } = bufs;
        // Room for exactly what the chunk fills, and coordinates and values
        // sized up front: recycled arrays are overwritten, not zeroed again.
        let [n_coords, n_values, n_ids, n_ptr] = self.lens();
        ids.clear();
        ids.reserve_exact(n_ids);
        ptr.clear();
        ptr.reserve_exact(n_ptr);
        size_to(coords, n_coords);
        size_to(values, n_values);
        // A file-order chunk lists no rows: its cursor's mode lies past the
        // last, so every coordinate is stored and the cursor is never asked.
        let rows = match self.section {
            Some(key) => RowCursor::new(key, ids, ptr),
            None => RowCursor {
                mode: order,
                hi: 0,
                prev: 0,
                next: 0,
            },
        };
        let mut sink = Sink {
            coords,
            values,
            ids,
            ptr,
            rows,
        };
        // The first element's row, and the elements decoded.
        let (mut first, mut done) = (0, 0);
        let elem = order * 4 + 4;
        read_slabs(file, &self.path, self.offset, nnz, elem, |slab| {
            if done == 0 && self.section.is_some() {
                first = coord_of(slab, rows.mode);
            }
            let slab_prev = sink.rows.prev;
            if decode_slab(slab, &self.shape, &mut sink, done) {
                return Err(self.slab_fault(slab, slab_prev));
            }
            done += slab.len() / elem;
            Ok(())
        })?;
        let Some(key) = self.section else {
            return Ok(());
        };
        // Non-decreasing, so the first and last elements are the box.
        let last = sink.rows.prev;
        if (first, last) != (key.lo, key.hi) {
            return Err(self.format_err(format!(
                "spans rows [{first}, {last}] of mode {} where the footer's bounding box says \
                 [{}, {}]",
                key.mode, key.lo, key.hi
            )));
        }
        ptr.push(nnz);
        Ok(())
    }

    /// Names what is wrong with a slab the decode loop rejected; `prev` is
    /// the sorted mode's coordinate before its first element.
    fn slab_fault(&self, slab: &[u8], mut prev: Idx) -> StreamError {
        for rec in slab.chunks_exact(self.shape.len() * 4 + 4) {
            for (m, &dim) in self.shape.iter().enumerate() {
                let idx = coord_of(rec, m);
                if idx >= dim {
                    return self.format_err(format!(
                        "coordinate {idx} out of bounds for mode {m} (size {dim})"
                    ));
                }
            }
            if let Some(key) = self.section {
                let row = coord_of(rec, key.mode);
                if row < key.lo || row > key.hi {
                    return self.format_err(format!(
                        "row {row} of mode {} lies outside the footer's bounding box [{}, {}]",
                        key.mode, key.lo, key.hi
                    ));
                }
                if row < prev {
                    return self.format_err(format!(
                        "not sorted by mode {}: row {row} follows row {prev}",
                        key.mode
                    ));
                }
                prev = row;
            }
        }
        self.format_err("rejected by the decoder".into())
    }
}

/// Where a section decode stands: the rows so far are held to `[prev, hi]`
/// and the ids and pointers of the rows the chunk holds are listed as they
/// start. The decode loops keep it in a local, so it lives in registers.
#[derive(Clone, Copy)]
struct RowCursor {
    mode: usize,
    hi: Idx,
    /// The previous element's row (`lo` before the first).
    prev: Idx,
    /// Elements seen.
    next: usize,
}

impl RowCursor {
    /// Lists row `lo` up front, so the first element opens a row only if
    /// it is not `lo` — and then the read fails on the box anyway.
    fn new(key: SectionKey, ids: &mut Vec<Idx>, ptr: &mut Vec<usize>) -> Self {
        ids.push(key.lo);
        ptr.push(0);
        Self {
            mode: key.mode,
            hi: key.hi,
            prev: key.lo,
            next: 0,
        }
    }

    /// Coordinates stored per element of an order-`order` chunk.
    fn width(&self, order: usize) -> usize {
        order - usize::from(self.mode < order)
    }

    /// Takes the next element's row; returns whether it breaks the order or
    /// the box.
    #[inline(always)]
    fn visit(&mut self, row: Idx, ids: &mut Vec<Idx>, ptr: &mut Vec<usize>) -> bool {
        let bad = (row < self.prev) | (row > self.hi);
        if row != self.prev {
            ids.push(row);
            ptr.push(self.next);
        }
        self.prev = row;
        self.next += 1;
        bad
    }
}

/// Where a chunk's elements go: per element the coordinates of every mode
/// but the cursor's into `coords` and the value into `values`, and, in a
/// section, the rows along the cursor's mode into `ids` and `ptr`.
struct Sink<'a> {
    coords: &'a mut [Idx],
    values: &'a mut [Val],
    ids: &'a mut Vec<Idx>,
    ptr: &'a mut Vec<usize>,
    rows: RowCursor,
}

/// Decodes one slab of whole records into `sink` as its elements `e..`.
/// Returns whether a coordinate lies outside `shape` or a row breaks the
/// section's order or box.
fn decode_slab(slab: &[u8], shape: &[Idx], sink: &mut Sink, e: usize) -> bool {
    match (shape.len(), sink.rows.width(shape.len())) {
        (3, 2) => decode_fixed::<3, 2, 16>(slab, shape, sink, e),
        _ => decode_any(slab, shape, sink, e),
    }
}

/// [`decode_slab`]'s loop for section records of `N` coordinates
/// (`R = 4N + 4` bytes) keeping the `W = N − 1` inputs: fixed-width arrays,
/// so the loop over an element's fields unrolls and its coordinates stay in
/// registers.
#[inline(never)]
fn decode_fixed<const N: usize, const W: usize, const R: usize>(
    slab: &[u8],
    shape: &[Idx],
    sink: &mut Sink,
    e: usize,
) -> bool {
    debug_assert_eq!((R, W + 1), (4 * N + 4, N));
    let (recs, _) = slab.as_chunks::<R>();
    let (outs, _) = sink.coords[e * W..].as_chunks_mut::<W>();
    let mut dims = [0 as Idx; N];
    dims.copy_from_slice(shape);
    let (ids, ptr, mut rows) = (&mut *sink.ids, &mut *sink.ptr, sink.rows);
    // Stored coordinate `j` is mode `j` below the sorted mode and mode
    // `j + 1` from it on: a select between two registers.
    let d = rows.mode;
    let mut bad = false;
    for ((rec, out), value) in recs.iter().zip(outs).zip(&mut sink.values[e..]) {
        let c: [Idx; N] = std::array::from_fn(|m| {
            Idx::from_le_bytes([rec[4 * m], rec[4 * m + 1], rec[4 * m + 2], rec[4 * m + 3]])
        });
        for (&c, &dim) in c.iter().zip(&dims) {
            bad |= c >= dim;
        }
        for (j, out) in out.iter_mut().enumerate() {
            *out = if j < d { c[j] } else { c[j + 1] };
        }
        *value = Val::from_le_bytes([rec[4 * N], rec[4 * N + 1], rec[4 * N + 2], rec[4 * N + 3]]);
        let row = (1..N).fold(c[0], |row, m| if m == d { c[m] } else { row });
        bad |= rows.visit(row, ids, ptr);
    }
    sink.rows = rows;
    bad
}

/// [`decode_slab`]'s loop for any order, file order included.
fn decode_any(slab: &[u8], shape: &[Idx], sink: &mut Sink, e: usize) -> bool {
    let order = shape.len();
    let (ids, ptr, mut rows) = (&mut *sink.ids, &mut *sink.ptr, sink.rows);
    let width = rows.width(order);
    let mut bad = false;
    let le = |f: &[u8]| Idx::from_le_bytes([f[0], f[1], f[2], f[3]]);
    // Zipped with `shape`, a record's fields are its coordinates.
    let recs = slab.chunks_exact(order * 4 + 4).zip(&mut sink.values[e..]);
    if width == order {
        // File order: every coordinate is stored.
        let outs = sink.coords[e * order..].chunks_exact_mut(order);
        for ((rec, value), out) in recs.zip(outs) {
            for ((f, out), &dim) in rec.chunks_exact(4).zip(out).zip(shape) {
                *out = le(f);
                bad |= *out >= dim;
            }
            *value = Val::from_bits(le(&rec[4 * order..]));
        }
        return bad;
    }
    for (k, (rec, value)) in (e..).zip(recs) {
        let mut out = sink.coords[k * width..(k + 1) * width].iter_mut();
        let mut row = 0;
        for (m, (f, &dim)) in rec.chunks_exact(4).zip(shape).enumerate() {
            let c = le(f);
            bad |= c >= dim;
            if m == rows.mode {
                row = c;
            } else if let Some(out) = out.next() {
                *out = c;
            }
        }
        *value = Val::from_bits(le(&rec[4 * order..]));
        bad |= rows.visit(row, ids, ptr);
    }
    sink.rows = rows;
    bad
}

/// Reads `.tnsb` chunks from disk through a bounded host-memory budget.
///
/// Every [`ChunkReader::load_chunk`] charges the chunk's payload bytes to
/// the budget [`MemPool`] and every [`ChunkReader::release`] frees them, so
/// a pipeline that leaks chunks (or tries to hold more than the budget) gets
/// the same [`amped_sim::SimError::OutOfMemory`] a real staging allocator
/// would produce — out-of-core behaviour emerges from capacity arithmetic,
/// exactly like the GPU/host pools of the in-core engine.
///
/// For overlapped pipelines, [`ChunkReader::stage`] splits a load into its
/// budget reservation (here, on the owner's thread) and the disk read (a
/// `Send`-able [`StagedRead`] a prefetch thread can execute), settled with
/// [`ChunkReader::finish_stage`] / [`ChunkReader::fail_stage`].
///
/// A released chunk's arrays wait here for the next stage. A read takes new
/// arrays only when none wait, and a chunk's arrays hold no more than it is
/// charged; the waiting sets keep within what the budget's high-water mark
/// leaves above the bytes charged now. What the reader's arrays hold is
/// therefore within [`MemPool::peak`].
#[derive(Debug)]
pub struct ChunkReader {
    /// Shared with every [`StagedRead`] (each opens its own handle on it).
    path: Arc<Path>,
    /// `meta.shape`, shared with every [`StagedRead`].
    shape: Arc<[Idx]>,
    meta: TnsbMeta,
    budget: MemPool,
    meters: ReaderMeters,
    /// Released chunks' arrays.
    spares: Vec<Buffers>,
}

/// Out-of-core telemetry handles: chunk reads/bytes, reads into recycled
/// arrays, budget stalls (loads refused because staging was full), and a
/// resident-bytes gauge. Detached (free) until [`ChunkReader::set_metrics`]
/// attaches a registry.
#[derive(Debug, Default)]
struct ReaderMeters {
    chunk_reads: Counter,
    chunk_read_bytes: Counter,
    chunk_reuses: Counter,
    chunk_stalls: Counter,
    resident_bytes: Gauge,
}

impl ChunkReader {
    /// Opens `path`, reading header + footer metadata only. `budget` is the
    /// host staging pool chunk loads are charged against.
    pub fn open(path: impl AsRef<Path>, budget: MemPool) -> Result<Self, StreamError> {
        let path: Arc<Path> = path.as_ref().into();
        let meta = read_tnsb_meta(&path)?;
        Ok(Self {
            path,
            shape: meta.shape.as_slice().into(),
            meta,
            budget,
            meters: ReaderMeters::default(),
            spares: Vec::new(),
        })
    }

    /// Attaches `registry`: chunk loads, staged bytes, reads into recycled
    /// arrays, budget stalls, and the resident-bytes gauge (`ooc_*`
    /// metrics) record into it from now on. Purely observational — loads
    /// succeed and fail exactly as before.
    pub fn set_metrics(&mut self, registry: MetricsRegistry) {
        self.meters = ReaderMeters {
            chunk_reads: registry.counter("ooc_chunk_reads"),
            chunk_read_bytes: registry.counter("ooc_chunk_read_bytes"),
            chunk_reuses: registry.counter("ooc_chunk_reuses"),
            chunk_stalls: registry.counter("ooc_chunk_stalls"),
            resident_bytes: registry.gauge("ooc_resident_bytes"),
        };
    }

    /// File-level metadata (shape, histograms, chunk directories).
    pub fn meta(&self) -> &TnsbMeta {
        &self.meta
    }

    /// The staging budget pool (peak/used introspection).
    pub fn budget(&self) -> &MemPool {
        &self.budget
    }

    /// Reserves budget for chunk `c` without reading it: the returned
    /// [`StagedRead`] performs the actual disk read (possibly on another
    /// thread), into a released chunk's arrays if one is waiting. Fails
    /// with a budget stall exactly like [`ChunkReader::load_chunk`] when
    /// resident + staged bytes already fill the budget.
    ///
    /// `section = Some(d)` reads chunk `c` of mode `d`'s sorted section —
    /// `c × chunk_capacity` elements into the tensor as
    /// `SparseTensor::sorted_by_mode(d)` orders it; `None` reads chunk `c`
    /// of the file-order section. Either way the chunk is what the file
    /// holds: nothing is reordered, so it is the same whichever thread
    /// reads it. A sorted-section chunk is charged
    /// [`TnsbMeta::section_chunk_bytes`], a file-order one its payload.
    pub fn stage(&mut self, c: usize, section: Option<usize>) -> Result<StagedRead, StreamError> {
        assert!(c < self.meta.num_chunks(), "chunk {c} out of range");
        assert!(
            section.is_none_or(|d| d < self.meta.order()),
            "section {section:?} out of range"
        );
        let bytes = match section {
            Some(d) => self.meta.section_chunk_bytes(d, c),
            None => self.meta.chunk_bytes(c),
        };
        if let Err(e) = self.budget.alloc(bytes, "chunk staging") {
            // A stall: the pipeline wanted a chunk the budget couldn't
            // hold. Prefetch pipelines fall back to their blocking path
            // when they see one.
            self.meters.chunk_stalls.inc();
            return Err(e.into());
        }
        self.meters.resident_bytes.set(self.budget.used() as f64);
        let mut staged = StagedRead {
            index: c,
            path: Arc::clone(&self.path),
            offset: match section {
                Some(d) => self.meta.section_chunk_offset(d, c),
                None => self.meta.chunk_offset(c),
            },
            nnz: self.meta.chunks[c].nnz as usize,
            shape: Arc::clone(&self.shape),
            bytes,
            section: section.map(|mode| {
                let meta = &self.meta.sections[mode][c];
                SectionKey {
                    mode,
                    lo: meta.mode_min[mode],
                    hi: meta.mode_max[mode],
                }
            }),
            spare: None,
        };
        staged.spare = self.spare_for(staged.lens(), bytes);
        Ok(staged)
    }

    /// A released chunk's arrays for a read that fills `lens` and is
    /// charged `bytes`, trimmed to hold no more than that once grown. The
    /// spares left then keep to the budget's headroom, so the arrays of
    /// staged, resident and spare chunks together never hold more than the
    /// budget's high-water mark.
    fn spare_for(&mut self, lens: [usize; 4], bytes: u64) -> Option<Buffers> {
        let mut spare = self.spares.pop();
        if let Some(spare) = &mut spare {
            spare.trim(lens, bytes);
        }
        let room = self.budget.peak() - self.budget.used();
        while self.spares.iter().map(Buffers::held).sum::<u64>() > room {
            self.spares.remove(0);
        }
        spare
    }

    /// Accounts a staged read that completed successfully; the chunk keeps
    /// its reservation until [`ChunkReader::release`].
    pub fn finish_stage(&mut self, chunk: &Chunk) {
        self.meters.chunk_reads.inc();
        if chunk.reused {
            self.meters.chunk_reuses.inc();
        }
        let payload = chunk.nnz() as u64 * self.meta.elem_bytes();
        self.meters.chunk_read_bytes.add(payload);
    }

    /// Returns a failed staged read's reservation (`bytes` as reported by
    /// [`StagedRead::bytes`]) to the budget.
    pub fn fail_stage(&mut self, bytes: u64) {
        self.budget.free(bytes);
        self.meters.resident_bytes.set(self.budget.used() as f64);
    }

    /// Loads chunk `c` of the file-order section, charging its bytes to the
    /// staging budget. Fails with [`amped_sim::SimError::OutOfMemory`]
    /// (wrapped in [`StreamError::Sim`]) if resident chunks already fill the
    /// budget.
    pub fn load_chunk(&mut self, c: usize) -> Result<Chunk, StreamError> {
        let staged = self.stage(c, None)?;
        let bytes = staged.bytes();
        match staged.read() {
            Ok(chunk) => {
                self.finish_stage(&chunk);
                Ok(chunk)
            }
            Err(e) => {
                // A failed read must not leak budget.
                self.fail_stage(bytes);
                Err(e)
            }
        }
    }

    /// Frees the arrays released chunks left for the next read.
    pub(crate) fn drop_spares(&mut self) {
        self.spares.clear();
    }

    /// Returns a chunk's bytes to the staging budget and keeps its arrays
    /// for the next read.
    pub fn release(&mut self, chunk: Chunk) {
        self.budget.free(chunk.bytes);
        self.meters.resident_bytes.set(self.budget.used() as f64);
        self.spares.push(chunk.bufs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::ScratchDir;
    use crate::format::{write_tnsb, TnsbWriter};
    use amped_tensor::gen::GenSpec;
    use amped_tensor::SparseTensor;

    #[test]
    fn chunks_reassemble_the_tensor_exactly() {
        let t = GenSpec::uniform(vec![30, 20, 10], 777, 3).generate();
        let dir = ScratchDir::new("chunkreader");
        let path = dir.join("roundtrip.tnsb");
        write_tnsb(&t, &path, 100).unwrap();
        let budget = MemPool::new("host-stage", 4 * 100 * t.elem_bytes());
        let mut r = ChunkReader::open(&path, budget).unwrap();
        let mut e_global = 0usize;
        for c in 0..r.meta().num_chunks() {
            let chunk = r.load_chunk(c).unwrap();
            assert_eq!(chunk.sorted_mode(), None, "load_chunk keeps file order");
            for e in 0..chunk.nnz() {
                assert_eq!(chunk.coords(e), t.coords(e_global));
                assert_eq!(chunk.value(e), t.value(e_global));
                e_global += 1;
            }
            r.release(chunk);
        }
        assert_eq!(e_global, t.nnz());
        assert_eq!(r.budget().used(), 0);
    }

    #[test]
    fn budget_bounds_resident_chunks() {
        let t = GenSpec::uniform(vec![30, 20, 10], 500, 4).generate();
        let dir = ScratchDir::new("chunkreader");
        let path = dir.join("budget.tnsb");
        write_tnsb(&t, &path, 100).unwrap();
        let chunk_bytes = 100 * t.elem_bytes();
        // Budget holds exactly one full chunk.
        let mut r = ChunkReader::open(&path, MemPool::new("host-stage", chunk_bytes)).unwrap();
        let first = r.load_chunk(0).unwrap();
        let err = r.load_chunk(1).unwrap_err();
        assert!(err.is_oom(), "expected staging OOM, got {err}");
        r.release(first);
        let second = r.load_chunk(1).unwrap();
        assert_eq!(second.nnz(), 100);
        r.release(second);
        // Peak never exceeded the budget.
        assert_eq!(r.budget().peak(), chunk_bytes);
    }

    #[test]
    fn metrics_count_reads_and_stalls() {
        let t = GenSpec::uniform(vec![30, 20, 10], 500, 4).generate();
        let dir = ScratchDir::new("chunkreader");
        let path = dir.join("metrics.tnsb");
        write_tnsb(&t, &path, 100).unwrap();
        let chunk_bytes = 100 * t.elem_bytes();
        let reg = MetricsRegistry::new();
        let mut r = ChunkReader::open(&path, MemPool::new("host-stage", chunk_bytes)).unwrap();
        r.set_metrics(reg.clone());
        let first = r.load_chunk(0).unwrap();
        assert_eq!(reg.counter_value("ooc_chunk_reads", &[]), 1);
        assert_eq!(reg.counter_value("ooc_chunk_read_bytes", &[]), chunk_bytes);
        assert_eq!(reg.gauge("ooc_resident_bytes").get(), chunk_bytes as f64);
        // A refused load is a stall, not a read.
        assert!(r.load_chunk(1).unwrap_err().is_oom());
        assert_eq!(reg.counter_value("ooc_chunk_stalls", &[]), 1);
        assert_eq!(reg.counter_value("ooc_chunk_reads", &[]), 1);
        r.release(first);
        assert_eq!(reg.gauge("ooc_resident_bytes").get(), 0.0);
    }

    #[test]
    fn too_small_budget_cannot_load_any_chunk() {
        let t = GenSpec::uniform(vec![10, 10], 64, 5).generate();
        let dir = ScratchDir::new("chunkreader");
        let path = dir.join("tiny_budget.tnsb");
        write_tnsb(&t, &path, 64).unwrap();
        let mut r = ChunkReader::open(&path, MemPool::new("host-stage", 8)).unwrap();
        assert!(r.load_chunk(0).unwrap_err().is_oom());
    }

    #[test]
    fn staged_reads_decode_off_thread_and_settle_budget() {
        let t = GenSpec::uniform(vec![30, 20, 10], 500, 9).generate();
        let dir = ScratchDir::new("chunkreader");
        let path = dir.join("staged.tnsb");
        write_tnsb(&t, &path, 128).unwrap();
        let budget = MemPool::new("host-stage", 4 * 128 * t.elem_bytes());
        let reg = MetricsRegistry::new();
        let mut r = ChunkReader::open(&path, budget).unwrap();
        r.set_metrics(reg.clone());
        // Stage on this thread, read on another, settle back here.
        let staged = r.stage(0, None).unwrap();
        assert!(r.budget().used() > 0, "stage charges the budget up front");
        assert_eq!(reg.counter_value("ooc_chunk_reads", &[]), 0);
        let chunk = std::thread::spawn(move || staged.read())
            .join()
            .expect("reader thread")
            .unwrap();
        r.finish_stage(&chunk);
        assert_eq!(reg.counter_value("ooc_chunk_reads", &[]), 1);
        for e in 0..chunk.nnz() {
            assert_eq!(chunk.coords(e), t.coords(e));
            assert_eq!(chunk.value(e), t.value(e));
        }
        r.release(chunk);
        assert_eq!(r.budget().used(), 0);
        // A failed staged read settles through fail_stage without leaking.
        let staged = r.stage(1, None).unwrap();
        let bytes = staged.bytes();
        r.fail_stage(bytes);
        assert_eq!(r.budget().used(), 0);
    }

    /// `(coords, value bits)` records of an element-major chunk.
    fn records(coords: &[Idx], values: &[Val], order: usize) -> Vec<(Vec<Idx>, u32)> {
        coords
            .chunks_exact(order)
            .zip(values)
            .map(|(c, v)| (c.to_vec(), v.to_bits()))
            .collect()
    }

    /// `(coords, value bits)` records of a sorted-section chunk, every
    /// coordinate spelled out again from its input coordinates and rows.
    fn section_records(chunk: &Chunk, order: usize) -> Vec<(Vec<Idx>, u32)> {
        let d = chunk.sorted_mode().unwrap();
        let inputs = chunk.input_coords();
        let mut out = Vec::new();
        for (&row, w) in chunk.row_ids().iter().zip(chunk.row_ptr().windows(2)) {
            for e in w[0]..w[1] {
                let mut c = inputs[e * (order - 1)..(e + 1) * (order - 1)].to_vec();
                c.insert(d, row);
                out.push((c, chunk.value(e).to_bits()));
            }
        }
        out
    }

    /// Writes `t` with `cap`-element chunks and checks, for every mode, that
    /// the sorted reads — on this thread and on another — concatenate to the
    /// stable sort of the concatenated unsorted reads, with one row pointer
    /// for each row a chunk holds and none for any other, and that the
    /// budget holds exactly the staged and resident charges, and nothing
    /// afterwards. Nothing in a read scales with the mode's size: every
    /// charge is within `cap × (elem_bytes + 8) + 8`, and a budget of two
    /// such charges stages every chunk twice over.
    fn check_sorted_reads(t: &SparseTensor, cap: usize) {
        let dir = ScratchDir::new("chunkreader");
        let path = dir.join("sorted.tnsb");
        let meta = write_tnsb(t, &path, cap).unwrap();
        let order = t.order();
        let bound = cap as u64 * (t.elem_bytes() + 8) + 8;
        let budget = MemPool::new("host-stage", 2 * bound);
        let mut r = ChunkReader::open(&path, budget).unwrap();
        let chunks = r.meta().num_chunks();
        let mut unsorted = Vec::new();
        for c in 0..chunks {
            let plain = r.load_chunk(c).unwrap();
            unsorted.extend(records(plain.coords_flat(), plain.values(), order));
            r.release(plain);
        }
        for d in 0..order {
            let mut want = unsorted.clone();
            want.sort_by_key(|(c, _)| c[d]);
            let (mut here_all, mut there_all) = (Vec::new(), Vec::new());
            for c in 0..chunks {
                let here = r.stage(c, Some(d)).unwrap();
                let there = r.stage(c, Some(d)).unwrap();
                assert_eq!(here.bytes(), meta.section_chunk_bytes(d, c));
                assert!(here.bytes() <= bound, "mode {d} chunk {c}");
                assert_eq!(r.budget().used(), 2 * here.bytes());
                let here = here.read().unwrap();
                let there = std::thread::spawn(move || there.read())
                    .join()
                    .expect("reader thread")
                    .unwrap();
                let (lo, hi) = (
                    meta.sections[d][c].mode_min[d],
                    meta.sections[d][c].mode_max[d],
                );
                for (chunk, all) in [(here, &mut here_all), (there, &mut there_all)] {
                    assert_eq!(chunk.sorted_mode(), Some(d));
                    assert_eq!(chunk.index(), c);
                    let (ids, ptr) = (chunk.row_ids(), chunk.row_ptr());
                    assert_eq!((ids.first(), ids.last()), (Some(&lo), Some(&hi)));
                    assert!(ids.windows(2).all(|w| w[0] < w[1]), "{ids:?}");
                    assert_eq!(ptr.len(), ids.len() + 1);
                    assert!(ptr.windows(2).all(|w| w[0] < w[1]), "an empty row: {ptr:?}");
                    // What the chunk holds is within what it is charged.
                    let held =
                        4 * (chunk.input_coords().len() + chunk.nnz() + ids.len()) + 8 * ptr.len();
                    assert!(held as u64 <= chunk.bytes());
                    all.extend(section_records(&chunk, order));
                    r.finish_stage(&chunk);
                    r.release(chunk);
                }
                assert_eq!(r.budget().used(), 0);
            }
            assert_eq!(here_all, want, "mode {d}");
            assert_eq!(there_all, want, "mode {d}, read on another thread");
        }
    }

    #[test]
    fn sorted_reads_are_stable_sorts_of_the_unsorted_read() {
        let skewed = GenSpec {
            shape: vec![80, 60, 70],
            nnz: 3000,
            skew: vec![1.2, 0.0, 0.4],
            seed: 21,
        };
        check_sorted_reads(&skewed.generate(), 512);
        // Order 5 with a one-row mode; single-element chunks.
        let five = GenSpec::uniform(vec![20, 1, 28, 16, 12], 900, 22).generate();
        check_sorted_reads(&five, 250);
        check_sorted_reads(&GenSpec::uniform(vec![6, 5], 9, 23).generate(), 1);
        // A 2²⁰-row mode, every chunk's box some 450 k rows wide: a chunk
        // still holds, and is charged, O(nnz) bytes.
        check_sorted_reads(
            &GenSpec::uniform(vec![1 << 20, 50, 40], 700, 24).generate(),
            300,
        );
    }

    #[test]
    fn a_bounding_box_that_lies_is_a_typed_error() {
        // Ten elements, one per row of mode 0, written in descending row
        // order: chunk 0 of section 0 really spans rows 0..=9.
        let dir = ScratchDir::new("chunkreader");
        let path = dir.join("liar.tnsb");
        let mut w = TnsbWriter::create(&path, vec![10, 4], 16).unwrap();
        for e in 0..10u32 {
            w.push(&[9 - e, e % 4], 1.0).unwrap();
        }
        let meta = w.finish().unwrap();
        let pristine = std::fs::read(&path).unwrap();
        // Footer: norm, histograms, the file-order table (one entry), the
        // section count, section 0's entry: nnz, then (min, max) of mode 0.
        let entry = 8 + 2 * 8;
        let footer = (meta.header_bytes() + 3 * meta.payload_bytes()) as usize;
        let mode0_max = footer + 8 + (10 + 4) * 8 + entry + 4 + 8 + 4;
        assert_eq!(pristine[mode0_max..mode0_max + 4], 9u32.to_le_bytes());

        // The footer claims rows 0..=4: the histogram knows better, and the
        // file does not open.
        let mut bytes = pristine.clone();
        bytes[mode0_max..mode0_max + 4].copy_from_slice(&4u32.to_le_bytes());
        std::fs::write(&path, bytes).unwrap();
        let err = ChunkReader::open(&path, MemPool::new("host-stage", 1 << 12)).unwrap_err();
        assert!(matches!(err, StreamError::Format { .. }), "{err}");
        assert!(err.to_string().contains("claims rows [0, 4]"), "{err}");

        // The footer is honest but the section's last element was moved to
        // row 8 (still sorted, still in the shape): the read holds the chunk
        // to its box.
        let mut bytes = pristine.clone();
        let last = meta.section_chunk_offset(0, 0) as usize + 9 * 12;
        assert_eq!(bytes[last..last + 4], 9u32.to_le_bytes());
        bytes[last..last + 4].copy_from_slice(&8u32.to_le_bytes());
        std::fs::write(&path, bytes).unwrap();
        let mut r = ChunkReader::open(&path, MemPool::new("host-stage", 1 << 12)).unwrap();
        let staged = r.stage(0, Some(0)).unwrap();
        let bytes = staged.bytes();
        let err = staged.read().unwrap_err();
        assert!(matches!(err, StreamError::Format { .. }), "{err}");
        assert!(
            err.to_string().contains("bounding box says [0, 9]"),
            "{err}"
        );
        r.fail_stage(bytes);
        assert_eq!(r.budget().used(), 0);
        // The unsorted load and the honest section are unaffected.
        let plain = r.load_chunk(0).unwrap();
        r.release(plain);
        let staged = r.stage(0, Some(1)).unwrap();
        let sorted = staged.read().unwrap();
        r.finish_stage(&sorted);
        r.release(sorted);
        assert_eq!(r.budget().used(), 0);
    }

    /// A tiny seeded generator (SplitMix64), so the tests below need no
    /// dependency.
    struct Seeded(u64);

    impl Seeded {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// Everything a chunk holds, in bits.
    #[derive(Debug, PartialEq)]
    struct Held {
        coords: Vec<Idx>,
        values: Vec<u32>,
        ptr: Vec<usize>,
        ids: Vec<Idx>,
        bytes: u64,
    }

    impl Held {
        fn of(chunk: &Chunk) -> Self {
            let coords = match chunk.sorted_mode() {
                Some(_) => chunk.input_coords(),
                None => chunk.coords_flat(),
            };
            Self {
                coords: coords.to_vec(),
                values: chunk.values().iter().map(|v| v.to_bits()).collect(),
                ptr: chunk.row_ptr().to_vec(),
                ids: chunk.row_ids().to_vec(),
                bytes: chunk.bytes(),
            }
        }
    }

    /// Chunk `c` of `section`, read by a reader of its own.
    fn fresh_read(path: &Path, c: usize, section: Option<usize>) -> Held {
        let mut r = ChunkReader::open(path, MemPool::new("fresh", 1 << 30)).unwrap();
        let chunk = r.stage(c, section).unwrap().read().unwrap();
        assert!(!chunk.reused);
        Held::of(&chunk)
    }

    #[test]
    fn recycled_arrays_decode_what_fresh_ones_do() {
        let shapes: [&[Idx]; 5] = [
            &[40, 30],
            &[30, 20, 25],
            &[12, 9, 1, 14],
            &[10, 8, 9, 7, 6],
            &[6, 5, 4, 5, 3, 4],
        ];
        let mut rng = Seeded(45);
        for (seed, shape) in (0..).zip(shapes) {
            let t = GenSpec::uniform(shape.to_vec(), 700, 60 + seed).generate();
            let cap = (64..).find(|&cap| !t.nnz().is_multiple_of(cap)).unwrap();
            let dir = ScratchDir::new("chunkreader");
            let path = dir.join("recycle.tnsb");
            let meta = write_tnsb(&t, &path, cap).unwrap();
            let (order, chunks) = (t.order(), meta.num_chunks());
            let last = chunks - 1;
            assert!(
                meta.chunks[last].nnz < cap as u64,
                "the last chunk is short"
            );
            // Every (section, chunk) pair, file order included, shuffled;
            // then a full chunk and, straight after it, the short last one.
            let sections = (0..order).map(Some).chain([None]);
            let mut pairs: Vec<_> = sections
                .flat_map(|s| (0..chunks).map(move |c| (s, c)))
                .collect();
            for i in (1..pairs.len()).rev() {
                pairs.swap(i, rng.below(i + 1));
            }
            pairs.extend([(Some(order - 1), 0), (Some(order - 1), last)]);
            let reg = MetricsRegistry::new();
            let mut r = ChunkReader::open(&path, MemPool::new("host-stage", 1 << 30)).unwrap();
            r.set_metrics(reg.clone());
            // A high-water mark far above any two chunks, so no set waits
            // for want of room (`arrays_held_stay_within_the_staging_peak`
            // is where that happens).
            r.budget.alloc(1 << 20, "headroom").unwrap();
            r.budget.free(1 << 20);
            // Two chunks resident at a time, released in either order, so
            // two sets of arrays trade places.
            for (i, two) in pairs.chunks(2).enumerate() {
                let staged: Vec<_> = two.iter().map(|&(s, c)| r.stage(c, s).unwrap()).collect();
                let mut held = Vec::new();
                for (staged, &(s, c)) in staged.into_iter().zip(two) {
                    let chunk = staged.read().unwrap();
                    r.finish_stage(&chunk);
                    assert_eq!(
                        Held::of(&chunk),
                        fresh_read(&path, c, s),
                        "order {order}, section {s:?}, chunk {c}"
                    );
                    held.push(chunk);
                }
                if i % 2 == 1 {
                    held.reverse();
                }
                for chunk in held {
                    r.release(chunk);
                }
            }
            assert_eq!(r.budget().used(), 0);
            // Only the first two reads found no arrays to spare.
            let reads = reg.counter_value("ooc_chunk_reads", &[]);
            assert_eq!(reads, pairs.len() as u64);
            assert_eq!(reg.counter_value("ooc_chunk_reuses", &[]), reads - 2);
        }
    }

    #[test]
    fn arrays_held_stay_within_the_staging_peak() {
        // Chunks of 16 B or 24 B records a few KiB long, so each read's
        // 64 KiB slab would be larger than the chunk.
        let specs = [
            GenSpec {
                shape: vec![300, 40, 250],
                nnz: 2000,
                skew: vec![1.1, 0.0, 0.2],
                seed: 81,
            },
            GenSpec::uniform(vec![9, 30, 12, 7, 60], 1520, 82),
        ];
        let mut rng = Seeded(83);
        for spec in specs {
            let t = spec.generate();
            let dir = ScratchDir::new("chunkreader");
            let path = dir.join("held.tnsb");
            let meta = write_tnsb(&t, &path, 150).unwrap();
            let reg = MetricsRegistry::new();
            let mut r = ChunkReader::open(&path, MemPool::new("host-stage", 1 << 30)).unwrap();
            r.set_metrics(reg.clone());
            let held = |r: &ChunkReader, resident: &[Chunk], staged: Option<&StagedRead>| {
                let spares: u64 = r.spares.iter().map(Buffers::held).sum();
                let chunks: u64 = resident.iter().map(|c| c.bufs.held()).sum();
                let staged = staged.and_then(|s| s.spare.as_ref());
                spares + chunks + staged.map_or(0, Buffers::held)
            };
            // A full chunk beside the short last one sets the high-water
            // mark. With both released, a full chunk read into the short
            // one's arrays leaves no room for the full one's to wait.
            let read = |r: &mut ChunkReader, c: usize| {
                let chunk = r.stage(c, None).unwrap().read().unwrap();
                r.finish_stage(&chunk);
                chunk
            };
            let last = meta.num_chunks() - 1;
            let (full, short) = (read(&mut r, 0), read(&mut r, last));
            assert!(short.nnz() < full.nnz() / 2);
            r.release(full);
            r.release(short);
            let mut resident = vec![read(&mut r, 1)];
            assert!(resident[0].reused && r.spares.is_empty());
            assert!(held(&r, &resident, None) <= r.budget().peak());
            for _ in 0..600 {
                // One to three chunks of any section resident at a time.
                if resident.len() == 3 || (!resident.is_empty() && rng.below(2) == 0) {
                    let chunk = resident.swap_remove(rng.below(resident.len()));
                    r.release(chunk);
                } else {
                    let c = rng.below(meta.num_chunks());
                    let section = [None, Some(rng.below(t.order()))][rng.below(4).min(1)];
                    let staged = r.stage(c, section).unwrap();
                    assert!(held(&r, &resident, Some(&staged)) <= r.budget().peak());
                    let chunk = staged.read().unwrap();
                    r.finish_stage(&chunk);
                    assert!(chunk.bufs.held() <= chunk.bytes(), "{section:?} chunk {c}");
                    resident.push(chunk);
                }
                assert!(held(&r, &resident, None) <= r.budget().peak());
            }
            let reuses = reg.counter_value("ooc_chunk_reuses", &[]);
            assert!(
                reuses > reg.counter_value("ooc_chunk_reads", &[]) * 3 / 4,
                "{reuses} reuses"
            );
        }
    }

    /// What a sorted-section chunk's payload `bytes` decodes to under the
    /// decoder's rules (every coordinate inside `shape`, rows
    /// non-decreasing along `d`, first and last row `lo` and `hi`), spelled
    /// out one element at a time; `None` if the rules reject it.
    fn oracle(bytes: &[u8], shape: &[Idx], d: usize, (lo, hi): (Idx, Idx)) -> Option<Held> {
        let order = shape.len();
        let mut held = Held {
            coords: Vec::new(),
            values: Vec::new(),
            ptr: Vec::new(),
            ids: Vec::new(),
            bytes: 0,
        };
        for (e, rec) in bytes.chunks_exact(order * 4 + 4).enumerate() {
            let c: Vec<Idx> = (0..order).map(|m| coord_of(rec, m)).collect();
            if c.iter().zip(shape).any(|(c, dim)| c >= dim) {
                return None;
            }
            if held.ids.last() != Some(&c[d]) {
                if held.ids.last().is_some_and(|&prev| c[d] < prev) {
                    return None;
                }
                held.ids.push(c[d]);
                held.ptr.push(e);
            }
            held.coords
                .extend((0..order).filter(|&m| m != d).map(|m| c[m]));
            held.values.push(coord_of(rec, order));
        }
        if (held.ids.first(), held.ids.last()) != (Some(&lo), Some(&hi)) {
            return None;
        }
        held.ptr.push(held.values.len());
        Some(held)
    }

    #[test]
    fn flipped_section_bytes_decode_to_what_they_say_or_fail_typed() {
        let mut rng = Seeded(9);
        let specs = [
            GenSpec {
                shape: vec![30, 20, 25],
                nnz: 400,
                skew: vec![1.0, 0.0, 0.5],
                seed: 71,
            },
            GenSpec::uniform(vec![9, 1, 12, 7], 300, 72),
            GenSpec::uniform(vec![8, 6, 7, 9, 5], 300, 73),
        ];
        let (mut cases, mut failed) = (0, 0);
        for spec in specs {
            let t = spec.generate();
            let dir = ScratchDir::new("chunkreader");
            let path = dir.join("fuzz.tnsb");
            let meta = write_tnsb(&t, &path, 48).unwrap();
            let pristine = std::fs::read(&path).unwrap();
            let elem = meta.elem_bytes() as usize;
            let mut r = ChunkReader::open(&path, MemPool::new("host-stage", 1 << 20)).unwrap();
            for _ in 0..1000 {
                let (d, c) = (rng.below(t.order()), rng.below(meta.num_chunks()));
                let at = meta.section_chunk_offset(d, c) as usize;
                let len = meta.chunks[c].nnz as usize * elem;
                let byte = at + rng.below(len);
                let flip = 1 + rng.below(255) as u8;
                let mut bytes = pristine.clone();
                bytes[byte] ^= flip;
                std::fs::write(&path, &bytes).unwrap();
                let box_ = (
                    meta.sections[d][c].mode_min[d],
                    meta.sections[d][c].mode_max[d],
                );
                let want = oracle(&bytes[at..at + len], t.shape(), d, box_);
                let staged = r.stage(c, Some(d)).unwrap();
                let reserved = staged.bytes();
                match (staged.read(), want) {
                    (Ok(chunk), Some(mut want)) => {
                        want.bytes = reserved;
                        assert_eq!(Held::of(&chunk), want, "section {d} chunk {c}");
                        r.finish_stage(&chunk);
                        r.release(chunk);
                    }
                    (Err(e), None) => {
                        assert!(matches!(e, StreamError::Format { .. }), "{e}");
                        assert!(e
                            .to_string()
                            .contains(&format!("sorted section {d} chunk {c}")));
                        r.fail_stage(reserved);
                        failed += 1;
                    }
                    (got, want) => panic!(
                        "section {d} chunk {c}, byte {byte} ^ {flip:#x}: read {got:?}, \
                         oracle {want:?}"
                    ),
                }
                assert_eq!(r.budget().used(), 0);
                cases += 1;
            }
        }
        // Most flips land in a coordinate and most of those break a rule.
        assert!(failed > cases / 4 && failed < cases, "{failed} of {cases}");
    }
}
