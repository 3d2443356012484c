//! Budgeted chunk reader: disk → bounded host staging memory.
//!
//! A chunk is read from one of the file's sections — the file-order section
//! ([`ChunkReader::load_chunk`]) or a mode's sorted section
//! ([`ChunkReader::stage`] with that mode) — and decoded with every
//! coordinate checked against the shape; a sorted-section chunk is also held
//! to its order and to the footer's bounding box, so what reaches a kernel
//! as "sorted by mode `d`" is.

use crate::error::StreamError;
use crate::format::{read_slabs, read_tnsb_meta, TnsbMeta};
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
    coords: Vec<Idx>,
    values: Vec<Val>,
    bytes: u64,
    sorted_mode: Option<usize>,
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

    /// Coordinates of element `e`.
    pub fn coords(&self, e: usize) -> &[Idx] {
        &self.coords[e * self.order..(e + 1) * self.order]
    }

    /// Value of element `e`.
    pub fn value(&self, e: usize) -> Val {
        self.values[e]
    }

    /// The raw element-major coordinate array (`nnz × order`).
    pub fn coords_flat(&self) -> &[Idx] {
        &self.coords
    }

    /// The raw value array, element `e` beside `coords(e)`.
    pub fn values(&self) -> &[Val] {
        &self.values
    }

    /// The mode whose sorted section this chunk was read from (its elements
    /// are non-decreasing in that coordinate, ties in file order), or `None`
    /// for a chunk of the file-order section.
    pub fn sorted_mode(&self) -> Option<usize> {
        self.sorted_mode
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

    /// Bytes charged to the staging budget for this reservation — the
    /// chunk's payload, which the decoded [`Chunk`] keeps charged.
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
    /// chunk must never decrease along its mode and must span exactly the
    /// rows its footer entry names — a corrupt file is a
    /// [`StreamError::Format`] here, never a broken contract downstream.
    /// The checks cost no branch per coordinate: a slab is converted in one
    /// pass that only accumulates a verdict, and a failed slab is walked
    /// again to name the offender. Slabs are 64 KiB, so transient memory
    /// beyond the charged chunk bytes stays O(64 KiB) (reading the whole
    /// payload into a buffer of its own first would silently double the
    /// staging footprint the budget accounts for).
    pub fn read(&self) -> Result<Chunk, StreamError> {
        let (path, nnz, order) = (&*self.path, self.nnz, self.shape.len());
        let mut file = File::open(path).map_err(|e| StreamError::io(path, e))?;
        let elem = order * 4 + 4;
        let mut coords = vec![0 as Idx; nnz * order];
        let mut values = vec![0.0 as Val; nnz];
        // The sorted mode's coordinate of the previous element (any mode's
        // while the chunk is in file order: nothing is then compared).
        let key_mode = self.section.map_or(0, |key| key.mode);
        let mut prev_key: Idx = 0;
        let mut done = 0usize;
        read_slabs(&mut file, path, self.offset, nnz, elem, |slab| {
            let n = slab.len() / elem;
            let out = coords[done * order..(done + n) * order].chunks_exact_mut(order);
            let slab_prev = prev_key;
            let mut bad = false;
            for ((rec, out), value) in slab.chunks_exact(elem).zip(out).zip(&mut values[done..]) {
                for ((field, out), &dim) in
                    rec.chunks_exact(4).zip(out.iter_mut()).zip(&*self.shape)
                {
                    *out = Idx::from_le_bytes([field[0], field[1], field[2], field[3]]);
                    bad |= *out >= dim;
                }
                let v = &rec[order * 4..];
                *value = Val::from_le_bytes([v[0], v[1], v[2], v[3]]);
                if self.section.is_some() {
                    bad |= out[key_mode] < prev_key;
                    prev_key = out[key_mode];
                }
            }
            if bad {
                let decoded = &coords[done * order..(done + n) * order];
                return Err(self.slab_fault(decoded, slab_prev));
            }
            done += n;
            Ok(())
        })?;
        if let Some(key) = self.section {
            // Non-decreasing, so the first and last elements are the box.
            let spans = (coords[key.mode], prev_key);
            if spans != (key.lo, key.hi) {
                return Err(self.format_err(format!(
                    "spans rows [{}, {}] of mode {} where the footer's bounding box says [{}, {}]",
                    spans.0, spans.1, key.mode, key.lo, key.hi
                )));
            }
        }
        Ok(Chunk {
            index: self.index,
            order,
            coords,
            values,
            bytes: self.bytes,
            sorted_mode: self.section.map(|key| key.mode),
        })
    }

    /// Names what is wrong with a slab the decode loop rejected: `decoded`
    /// are its coordinates, `prev_key` the sorted mode's coordinate before
    /// its first element.
    fn slab_fault(&self, decoded: &[Idx], mut prev_key: Idx) -> StreamError {
        for coords in decoded.chunks_exact(self.shape.len()) {
            for (m, (&idx, &dim)) in coords.iter().zip(&*self.shape).enumerate() {
                if idx >= dim {
                    return self.format_err(format!(
                        "coordinate {idx} out of bounds for mode {m} (size {dim})"
                    ));
                }
            }
            if let Some(key) = self.section {
                if coords[key.mode] < prev_key {
                    return self.format_err(format!(
                        "not sorted by mode {}: row {} follows row {prev_key}",
                        key.mode, coords[key.mode]
                    ));
                }
                prev_key = coords[key.mode];
            }
        }
        self.format_err("rejected by the decoder".into())
    }
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
    /// reads it.
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
            bytes: self.meta.chunk_bytes(c),
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
        self.meters.chunk_read_bytes.add(chunk.bytes);
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

    /// Writes `t` with `cap`-element chunks and checks, for every mode, that
    /// the sorted reads — on this thread and on another — concatenate to the
    /// stable sort of the concatenated unsorted reads, and that the budget
    /// holds exactly the staged and resident payloads, and nothing
    /// afterwards.
    fn check_sorted_reads(t: &SparseTensor, cap: usize) {
        let dir = ScratchDir::new("chunkreader");
        let path = dir.join("sorted.tnsb");
        write_tnsb(t, &path, cap).unwrap();
        let order = t.order();
        let budget = MemPool::new("host-stage", 2 * cap as u64 * t.elem_bytes());
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
                assert_eq!(here.bytes(), r.meta().chunk_bytes(c), "payload, no scratch");
                assert_eq!(r.budget().used(), 2 * here.bytes());
                let here = here.read().unwrap();
                let there = std::thread::spawn(move || there.read())
                    .join()
                    .expect("reader thread")
                    .unwrap();
                for (chunk, all) in [(here, &mut here_all), (there, &mut there_all)] {
                    assert_eq!(chunk.sorted_mode(), Some(d));
                    assert_eq!(chunk.index(), c);
                    all.extend(records(chunk.coords_flat(), chunk.values(), order));
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
        // A 2²⁰-row mode: nothing in a read scales with the mode's size.
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
