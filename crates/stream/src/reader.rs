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

use crate::error::StreamError;
use crate::format::{coord_of, read_slabs, read_tnsb_meta, TnsbMeta};
use amped_sim::obs::{Counter, Gauge, MetricsRegistry};
use amped_sim::MemPool;
use amped_tensor::{Idx, Val};
use std::fs::File;
use std::path::Path;
use std::sync::Arc;

/// One resident tensor chunk: decoded coordinates and values plus the bytes
/// it holds against the reader's staging budget.
#[derive(Debug)]
pub struct Chunk {
    index: usize,
    order: usize,
    /// Per element, element-major: every coordinate (file order), or the
    /// `order − 1` input coordinates in ascending mode order (a sorted
    /// section, whose mode is stored per row in `rows`).
    coords: Vec<Idx>,
    values: Vec<Val>,
    rows: Option<SectionRows>,
    bytes: u64,
}

/// What a sorted-section chunk stores per row: its mode and, for each row
/// it holds, the row's id and first element — row `ids[i]` owns elements
/// `ptr[i]..ptr[i + 1]`. Rows the chunk does not hold cost nothing.
#[derive(Debug)]
struct SectionRows {
    mode: usize,
    ids: Vec<Idx>,
    ptr: Vec<usize>,
}

impl Chunk {
    /// Chunk index within its section.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Nonzeros in this chunk.
    pub fn nnz(&self) -> usize {
        self.values.len()
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
        self.values[e]
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
            self.rows.is_none(),
            "a sorted-section chunk has no full coordinates: use input_coords and row_ptr"
        );
        &self.coords
    }

    /// The input coordinates of a sorted-section chunk, element-major
    /// (`nnz × (order − 1)`, ascending modes, the sorted mode skipped).
    ///
    /// # Panics
    /// Panics on a file-order chunk.
    pub fn input_coords(&self) -> &[Idx] {
        assert!(
            self.rows.is_some(),
            "a file-order chunk stores every coordinate: use coords_flat"
        );
        &self.coords
    }

    /// The row pointers of a sorted-section chunk, one per row it holds
    /// and one more: row [`Chunk::row_ids`]`[i]` owns elements
    /// `row_ptr[i]..row_ptr[i + 1]`. Empty for a file-order chunk.
    pub fn row_ptr(&self) -> &[usize] {
        self.rows.as_ref().map_or(&[], |rows| &rows.ptr)
    }

    /// The rows a sorted-section chunk holds, strictly ascending. Empty for
    /// a file-order chunk.
    pub fn row_ids(&self) -> &[Idx] {
        self.rows.as_ref().map_or(&[], |rows| &rows.ids)
    }

    /// The raw value array, in element order.
    pub fn values(&self) -> &[Val] {
        &self.values
    }

    /// The mode whose sorted section this chunk was read from (its elements
    /// are non-decreasing in that coordinate, ties in file order), or `None`
    /// for a chunk of the file-order section.
    pub fn sorted_mode(&self) -> Option<usize> {
        self.rows.as_ref().map(|rows| rows.mode)
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
    /// `fail_stage`).
    ///
    /// Every coordinate is checked against the shape, and a sorted-section
    /// chunk must never decrease along its mode, must keep every row inside
    /// the footer's bounding box and must span exactly the rows that box
    /// names — a corrupt file is a [`StreamError::Format`] here, never an
    /// index panic or a broken contract downstream. The checks cost no
    /// branch per coordinate: a slab is converted in one pass that only
    /// accumulates a verdict, and a failed slab is walked again to name the
    /// offender. Slabs are 64 KiB, so transient memory beyond the charged
    /// chunk bytes stays O(64 KiB) (reading the whole payload into a buffer
    /// of its own first would silently double the staging footprint the
    /// budget accounts for).
    pub fn read(&self) -> Result<Chunk, StreamError> {
        let path = &*self.path;
        let mut file = File::open(path).map_err(|e| StreamError::io(path, e))?;
        let (coords, values, rows) = match self.section {
            None => self.decode_file_order(&mut file)?,
            Some(key) => self.decode_section(&mut file, key)?,
        };
        Ok(Chunk {
            index: self.index,
            order: self.shape.len(),
            coords,
            values,
            rows,
            bytes: self.bytes,
        })
    }

    /// A file-order chunk: every coordinate of every element.
    fn decode_file_order(&self, file: &mut File) -> Result<Decoded, StreamError> {
        let (nnz, order) = (self.nnz, self.shape.len());
        let elem = order * 4 + 4;
        let mut coords = vec![0 as Idx; nnz * order];
        let mut values = vec![0.0 as Val; nnz];
        let mut done = 0usize;
        read_slabs(file, &self.path, self.offset, nnz, elem, |slab| {
            let n = slab.len() / elem;
            let out = coords[done * order..(done + n) * order].chunks_exact_mut(order);
            let mut bad = false;
            for ((rec, out), value) in slab.chunks_exact(elem).zip(out).zip(&mut values[done..]) {
                for ((field, out), &dim) in
                    rec.chunks_exact(4).zip(out.iter_mut()).zip(&*self.shape)
                {
                    *out = Idx::from_le_bytes([field[0], field[1], field[2], field[3]]);
                    bad |= *out >= dim;
                }
                *value = value_of(rec, order);
            }
            if bad {
                return Err(self.slab_fault(slab, 0));
            }
            done += n;
            Ok(())
        })?;
        Ok((coords, values, None))
    }

    /// A chunk of `key.mode`'s sorted section, decoded into input
    /// coordinates, values, and the ids and pointers of the rows it holds.
    fn decode_section(&self, file: &mut File, key: SectionKey) -> Result<Decoded, StreamError> {
        let (nnz, order, d) = (self.nnz, self.shape.len(), key.mode);
        let (elem, k) = (order * 4 + 4, order - 1);
        let mut inputs = vec![0 as Idx; nnz * k];
        let mut values = vec![0.0 as Val; nnz];
        // As many rows as `section_chunk_bytes` charges for.
        let held = nnz.min((key.hi - key.lo) as usize + 1);
        let (mut ids, mut ptr) = (Vec::with_capacity(held), Vec::with_capacity(held + 1));
        // The first element's row, and the previous element's (`lo` before
        // the first).
        let (mut first, mut prev) = (key.lo, key.lo);
        let (mut done, mut rows) = (0usize, Vec::new());
        read_slabs(file, &self.path, self.offset, nnz, elem, |slab| {
            if done == 0 {
                first = coord_of(slab, d);
            }
            let n = slab.len() / elem;
            rows.resize(n, 0);
            let out = &mut inputs[done * k..(done + n) * k];
            let vals = &mut values[done..done + n];
            let mut bad = split(slab, d, &self.shape, out, vals, &mut rows);
            let slab_prev = prev;
            for (e, &row) in (done..).zip(&rows) {
                bad |= (row < prev) | (row > key.hi);
                if e == 0 || row != prev {
                    ids.push(row);
                    ptr.push(e);
                }
                prev = row;
            }
            if bad {
                return Err(self.slab_fault(slab, slab_prev));
            }
            done += n;
            Ok(())
        })?;
        // Non-decreasing, so the first and last elements are the box.
        if (first, prev) != (key.lo, key.hi) {
            return Err(self.format_err(format!(
                "spans rows [{first}, {prev}] of mode {d} where the footer's bounding box says \
                 [{}, {}]",
                key.lo, key.hi
            )));
        }
        ptr.push(nnz);
        let rows = SectionRows { mode: d, ids, ptr };
        Ok((inputs, values, Some(rows)))
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

/// Splits a slab of a section sorted by mode `d`: each element's input
/// coordinates go to `inputs`, its row to `rows` and its value to
/// `values`. Returns whether a coordinate lies outside `shape`.
fn split(
    slab: &[u8],
    d: usize,
    shape: &[Idx],
    inputs: &mut [Idx],
    values: &mut [Val],
    rows: &mut [Idx],
) -> bool {
    let mut out = inputs.iter_mut();
    let mut bad = false;
    let elems = slab.chunks_exact(shape.len() * 4 + 4);
    for ((rec, value), row) in elems.zip(values).zip(rows) {
        for (m, (field, &dim)) in rec.chunks_exact(4).zip(shape).enumerate() {
            let c = Idx::from_le_bytes([field[0], field[1], field[2], field[3]]);
            bad |= c >= dim;
            if m == d {
                *row = c;
            } else if let Some(out) = out.next() {
                *out = c;
            }
        }
        *value = value_of(rec, shape.len());
    }
    bad
}

/// A decoded chunk's coordinates, values and, for a sorted section, rows.
type Decoded = (Vec<Idx>, Vec<Val>, Option<SectionRows>);

/// The value of an encoded element of `order` coordinates.
#[inline]
fn value_of(rec: &[u8], order: usize) -> Val {
    let v = &rec[order * 4..];
    Val::from_le_bytes([v[0], v[1], v[2], v[3]])
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
#[derive(Debug)]
pub struct ChunkReader {
    /// Shared with every [`StagedRead`] (each opens its own handle on it).
    path: Arc<Path>,
    /// `meta.shape`, shared with every [`StagedRead`].
    shape: Arc<[Idx]>,
    meta: TnsbMeta,
    budget: MemPool,
    meters: ReaderMeters,
}

/// Out-of-core telemetry handles: chunk reads/bytes, budget stalls (loads
/// refused because staging was full), and a resident-bytes gauge. Detached
/// (free) until [`ChunkReader::set_metrics`] attaches a registry.
#[derive(Debug, Default)]
struct ReaderMeters {
    chunk_reads: Counter,
    chunk_read_bytes: Counter,
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
        })
    }

    /// Attaches `registry`: chunk loads, staged bytes, budget stalls, and
    /// the resident-bytes gauge (`ooc_*` metrics) record into it from now
    /// on. Purely observational — loads succeed and fail exactly as before.
    pub fn set_metrics(&mut self, registry: MetricsRegistry) {
        self.meters = ReaderMeters {
            chunk_reads: registry.counter("ooc_chunk_reads"),
            chunk_read_bytes: registry.counter("ooc_chunk_read_bytes"),
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
    /// thread). Fails with a budget stall exactly like
    /// [`ChunkReader::load_chunk`] when resident + staged bytes already fill
    /// the budget.
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
        let staged = StagedRead {
            index: c,
            path: Arc::clone(&self.path),
            offset: match section {
                Some(d) => self.meta.section_chunk_offset(d, c),
                None => self.meta.chunk_offset(c),
            },
            nnz: self.meta.chunks[c].nnz as usize,
            shape: Arc::clone(&self.shape),
            bytes: match section {
                Some(d) => self.meta.section_chunk_bytes(d, c),
                None => self.meta.chunk_bytes(c),
            },
            section: section.map(|mode| {
                let meta = &self.meta.sections[mode][c];
                SectionKey {
                    mode,
                    lo: meta.mode_min[mode],
                    hi: meta.mode_max[mode],
                }
            }),
        };
        if let Err(e) = self.budget.alloc(staged.bytes, "chunk staging") {
            // A stall: the pipeline wanted a chunk the budget couldn't
            // hold. Prefetch pipelines fall back to their blocking path
            // when they see one.
            self.meters.chunk_stalls.inc();
            return Err(e.into());
        }
        self.meters.resident_bytes.set(self.budget.used() as f64);
        Ok(staged)
    }

    /// Accounts a staged read that completed successfully; the chunk keeps
    /// its reservation until [`ChunkReader::release`].
    pub fn finish_stage(&mut self, chunk: &Chunk) {
        self.meters.chunk_reads.inc();
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
        match staged.read() {
            Ok(chunk) => {
                self.finish_stage(&chunk);
                Ok(chunk)
            }
            Err(e) => {
                // A failed read must not leak budget.
                self.fail_stage(staged.bytes());
                Err(e)
            }
        }
    }

    /// Returns a chunk's bytes to the staging budget.
    pub fn release(&mut self, chunk: Chunk) {
        self.budget.free(chunk.bytes);
        self.meters.resident_bytes.set(self.budget.used() as f64);
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
        let err = staged.read().unwrap_err();
        assert!(matches!(err, StreamError::Format { .. }), "{err}");
        assert!(
            err.to_string().contains("bounding box says [0, 9]"),
            "{err}"
        );
        r.fail_stage(staged.bytes());
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
}
