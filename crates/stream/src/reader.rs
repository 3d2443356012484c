//! Budgeted chunk reader: disk → bounded host staging memory.

use crate::error::StreamError;
use crate::format::{read_tnsb_meta, TnsbMeta};
use amped_sim::obs::{Counter, Gauge, MetricsRegistry};
use amped_sim::MemPool;
use amped_tensor::{Idx, Val};
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

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
    /// Wall microseconds the sort took inside [`StagedRead::read`].
    sort_us: u64,
}

impl Chunk {
    /// Chunk index within the file.
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

    /// The mode this chunk's elements are sorted by (non-decreasing
    /// coordinate, ties in file order), or `None` for a file-order chunk.
    pub fn sorted_mode(&self) -> Option<usize> {
        self.sorted_mode
    }

    /// Staging bytes this chunk charges while resident.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

/// What a sorted read sorts by: the mode and the chunk's footer bounding box
/// along it, which bounds the key range without a pass over the payload.
#[derive(Clone, Copy, Debug)]
struct SortKey {
    mode: usize,
    lo: Idx,
    hi: Idx,
}

/// Widest radix digit of the chunk sort: at most 2¹⁶ counters (256 KiB) per
/// pass, whatever the mode's size.
const SORT_DIGIT_BITS: u32 = 16;

impl SortKey {
    /// Radix passes and digit width that cover the key range `0..=hi - lo`.
    /// A box up to 2¹⁶ rows wide — every chunk whose span is comparable to
    /// its nonzero count — is one counting pass over the box itself.
    fn radix(&self) -> (u32, u32) {
        let bits = Idx::BITS - (self.hi - self.lo).leading_zeros();
        let passes = bits.div_ceil(SORT_DIGIT_BITS).max(1);
        (passes, bits.div_ceil(passes))
    }

    /// Bytes of index scratch [`sort_by_mode`] holds at its peak for `nnz`
    /// elements: one `u32` order array per radix pass. This is what
    /// [`ChunkReader::stage`] charges next to the payload.
    fn scratch_bytes(&self, nnz: u64) -> u64 {
        self.radix().0 as u64 * nnz * 4
    }
}

/// A coordinate outside the bounding box its chunk's footer promised.
struct OutsideBox(Idx);

/// Stable sort of an element-major chunk by its mode-`key.mode` coordinate:
/// a permutation of the elements, non-decreasing in that coordinate, ties in
/// their original order. LSD radix over *element indices* (one or two
/// counting passes, see [`SortKey::radix`]), then the permutation is applied
/// to `coords` and `values` in place, cycle by cycle. Time is O(nnz); memory
/// beyond the chunk is the index arrays ([`SortKey::scratch_bytes`]) plus at
/// most 2¹⁶ counters — nothing scales with the mode's size.
fn sort_by_mode(
    coords: &mut [Idx],
    values: &mut [Val],
    order: usize,
    key: SortKey,
) -> Result<(), OutsideBox> {
    let n = values.len();
    let (passes, width) = key.radix();
    let mask = (1u32 << width) - 1;
    let coord = |e: usize| coords[e * order + key.mode];
    // perm[p] = the element that belongs at position p; each pass refines
    // the previous pass's order by the next digit.
    let mut perm: Vec<u32> = Vec::new();
    for pass in 0..passes {
        let digit = |c: Idx| (((c - key.lo) >> (pass * width)) & mask) as usize;
        let mut next = vec![0u32; (1usize << width) + 1];
        for c in (0..n).map(coord) {
            if !(key.lo..=key.hi).contains(&c) {
                return Err(OutsideBox(c));
            }
            next[digit(c) + 1] += 1;
        }
        for i in 1..next.len() {
            next[i] += next[i - 1];
        }
        let mut out = vec![0u32; n];
        let mut place = |e: u32| {
            let slot = &mut next[digit(coord(e as usize))];
            out[*slot as usize] = e;
            *slot += 1;
        };
        if pass == 0 {
            // The first pass reads the elements in file order.
            (0..n as u32).for_each(&mut place);
        } else {
            perm.iter().copied().for_each(&mut place);
        }
        perm = out;
    }

    // Apply `new[p] = old[perm[p]]` in place: each cycle lifts its first
    // element out, pulls every later one into the slot before it, and drops
    // the lifted one into the last. Visited slots are marked `DONE`, which
    // is no element: `read()` refuses chunks of `u32::MAX` elements or more.
    const DONE: u32 = u32::MAX;
    let mut held = vec![0 as Idx; order];
    for start in 0..n {
        if perm[start] == DONE || perm[start] as usize == start {
            continue;
        }
        held.copy_from_slice(&coords[start * order..(start + 1) * order]);
        let held_value = values[start];
        let mut dst = start;
        loop {
            let src = perm[dst] as usize;
            perm[dst] = DONE;
            if src == start {
                coords[dst * order..(dst + 1) * order].copy_from_slice(&held);
                values[dst] = held_value;
                break;
            }
            coords.copy_within(src * order..(src + 1) * order, dst * order);
            values[dst] = values[src];
            dst = src;
        }
    }
    Ok(())
}

/// A budget reservation for one chunk whose disk read has not happened yet.
///
/// [`ChunkReader::stage`] charges the chunk's bytes to the staging budget on
/// the calling thread and hands back this token; [`StagedRead::read`] then
/// performs the seek + decode (+ sort) through its own file handle, so it is
/// `Send` and can run on a prefetch thread while the owning reader keeps
/// serving the main loop. The reservation itself is settled back on the
/// owner's thread: [`ChunkReader::finish_stage`] on success (counts the
/// read), [`ChunkReader::fail_stage`] on error (returns the bytes). Dropping
/// a `StagedRead` without settling leaks budget, exactly like leaking a
/// [`Chunk`].
#[derive(Debug)]
pub struct StagedRead {
    index: usize,
    path: Arc<Path>,
    offset: u64,
    nnz: usize,
    shape: Arc<[Idx]>,
    /// Payload bytes — what the decoded [`Chunk`] keeps charged.
    bytes: u64,
    sort: Option<SortKey>,
}

impl StagedRead {
    /// Chunk index this reservation covers.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Bytes charged to the staging budget for this reservation: the
    /// chunk's payload plus, for a sorted read, the sort's index scratch.
    pub fn bytes(&self) -> u64 {
        self.bytes + self.sort.map_or(0, |k| k.scratch_bytes(self.nnz as u64))
    }

    /// Reads and decodes the staged chunk through a private file handle
    /// and, when it was staged for a mode, sorts it by that mode (see
    /// [`ChunkReader::stage`]) — so the sort runs on whichever thread runs
    /// the read. Thread-safe with respect to the owning [`ChunkReader`]; the
    /// caller settles the budget reservation afterwards (`finish_stage` /
    /// `fail_stage`).
    pub fn read(&self) -> Result<Chunk, StreamError> {
        let order = self.shape.len();
        // The sort permutes `u32` element indices with `u32::MAX` reserved.
        if self.sort.is_some() && self.nnz >= u32::MAX as usize {
            return Err(self.format_err(format!(
                "{} elements are too many for a sorted read",
                self.nnz
            )));
        }
        let (mut coords, mut values) = self.decode()?;
        let mut sort_us = 0;
        if let Some(key) = self.sort {
            let start = Instant::now();
            sort_by_mode(&mut coords, &mut values, order, key).map_err(|OutsideBox(idx)| {
                self.format_err(format!(
                    "mode-{} coordinate {idx} outside the footer's bounding box [{}, {}]",
                    key.mode, key.lo, key.hi
                ))
            })?;
            sort_us = start.elapsed().as_micros() as u64;
        }
        Ok(Chunk {
            index: self.index,
            order,
            coords,
            values,
            bytes: self.bytes,
            sorted_mode: self.sort.map(|k| k.mode),
            sort_us,
        })
    }

    fn format_err(&self, what: String) -> StreamError {
        StreamError::format(&*self.path, format!("chunk {}: {what}", self.index))
    }

    /// Seeks to the chunk and decodes its elements in file order, validating
    /// coordinates against the shape. Elements are read in 64 KiB slabs —
    /// one `read` syscall per slab instead of per element — so transient
    /// memory beyond the charged chunk bytes stays O(64 KiB) (reading the
    /// whole payload into its own buffer first would silently double the
    /// staging footprint the budget accounts for).
    fn decode(&self) -> Result<(Vec<Idx>, Vec<Val>), StreamError> {
        let (path, nnz, order) = (&*self.path, self.nnz, self.shape.len());
        let mut file = File::open(path).map_err(|e| StreamError::io(path, e))?;
        file.seek(SeekFrom::Start(self.offset))
            .map_err(|e| StreamError::io(path, e))?;
        let elem_sz = order * 4 + 4;
        let batch = (64 * 1024 / elem_sz).max(1);
        let mut slab = vec![0u8; batch * elem_sz];
        let mut coords = Vec::with_capacity(nnz * order);
        let mut values = Vec::with_capacity(nnz);
        let mut done = 0usize;
        while done < nnz {
            let n = batch.min(nnz - done);
            let buf = &mut slab[..n * elem_sz];
            file.read_exact(buf).map_err(|e| StreamError::io(path, e))?;
            for rec in buf.chunks_exact(elem_sz) {
                for (m, &dim) in self.shape.iter().enumerate() {
                    let idx = Idx::from_le_bytes(le4(path, rec, m * 4)?);
                    if idx >= dim {
                        return Err(self.format_err(format!(
                            "coordinate {idx} out of bounds for mode {m} (size {dim})"
                        )));
                    }
                    coords.push(idx);
                }
                values.push(Val::from_le_bytes(le4(path, rec, order * 4)?));
            }
            done += n;
        }
        Ok((coords, values))
    }
}

/// Four little-endian bytes of `rec` at `at`, as a typed error instead of a
/// panic when the record is too short (unreachable for slabs cut by
/// `chunks_exact`, but the decoder stays total either way).
#[inline]
fn le4(path: &Path, rec: &[u8], at: usize) -> Result<[u8; 4], StreamError> {
    rec.get(at..at + 4)
        .and_then(|s| s.try_into().ok())
        .ok_or_else(|| StreamError::truncated(path, at, 4))
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

/// Out-of-core telemetry handles: chunk reads/bytes, time spent sorting
/// chunks, budget stalls (loads refused because staging was full), and a
/// resident-bytes gauge. Detached (free) until [`ChunkReader::set_metrics`]
/// attaches a registry.
#[derive(Debug, Default)]
struct ReaderMeters {
    chunk_reads: Counter,
    chunk_read_bytes: Counter,
    chunk_sort_us: Counter,
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

    /// Attaches `registry`: chunk loads, staged bytes, sort time, budget
    /// stalls, and the resident-bytes gauge (`ooc_*` metrics) record into it
    /// from now on. Purely observational — loads succeed and fail exactly as
    /// before.
    pub fn set_metrics(&mut self, registry: MetricsRegistry) {
        self.meters = ReaderMeters {
            chunk_reads: registry.counter("ooc_chunk_reads"),
            chunk_read_bytes: registry.counter("ooc_chunk_read_bytes"),
            chunk_sort_us: registry.counter("ooc_chunk_sort_us"),
            chunk_stalls: registry.counter("ooc_chunk_stalls"),
            resident_bytes: registry.gauge("ooc_resident_bytes"),
        };
    }

    /// File-level metadata (shape, histograms, chunk directory).
    pub fn meta(&self) -> &TnsbMeta {
        &self.meta
    }

    /// The staging budget pool (peak/used introspection).
    pub fn budget(&self) -> &MemPool {
        &self.budget
    }

    /// Charges scratch bytes (beyond chunk payloads) to the staging budget —
    /// used by the streaming partitioner for its per-slice coordinate
    /// gather, so *all* transient host memory is accounted.
    pub fn charge_scratch(&mut self, bytes: u64) -> Result<(), StreamError> {
        self.budget.alloc(bytes, "partitioning scratch")?;
        Ok(())
    }

    /// Releases scratch bytes charged with [`ChunkReader::charge_scratch`].
    pub fn release_scratch(&mut self, bytes: u64) {
        self.budget.free(bytes);
    }

    /// The sort a read of chunk `c` staged with `sort_by` performs.
    fn sort_key(&self, c: usize, sort_by: Option<usize>) -> Option<SortKey> {
        let meta = &self.meta.chunks[c];
        sort_by.map(|mode| SortKey {
            mode,
            lo: meta.mode_min[mode],
            hi: meta.mode_max[mode],
        })
    }

    /// Reserves budget for chunk `c` without reading it: the returned
    /// [`StagedRead`] performs the actual disk read (possibly on another
    /// thread). Fails with a budget stall exactly like
    /// [`ChunkReader::load_chunk`] when resident + staged bytes already fill
    /// the budget.
    ///
    /// With `sort_by = Some(d)` the read ends by sorting the chunk by its
    /// mode-`d` coordinate — a deterministic stable sort, so the chunk is
    /// the same whichever thread reads it — and the sort's index scratch
    /// (4 B per element and radix pass: one pass for a bounding box up to
    /// 2¹⁶ rows wide, two beyond) is reserved beside the payload until
    /// [`ChunkReader::finish_stage`] returns it.
    pub fn stage(&mut self, c: usize, sort_by: Option<usize>) -> Result<StagedRead, StreamError> {
        assert!(c < self.meta.num_chunks(), "chunk {c} out of range");
        assert!(
            sort_by.is_none_or(|d| d < self.meta.order()),
            "sort mode {sort_by:?} out of range"
        );
        let staged = StagedRead {
            index: c,
            path: Arc::clone(&self.path),
            offset: self.meta.chunk_offset(c),
            nnz: self.meta.chunks[c].nnz as usize,
            shape: Arc::clone(&self.shape),
            bytes: self.meta.chunk_bytes(c),
            sort: self.sort_key(c, sort_by),
        };
        if let Err(e) = self.budget.alloc(staged.bytes(), "chunk staging") {
            // A stall: the pipeline wanted a chunk the budget couldn't
            // hold. Prefetch pipelines fall back to their blocking path
            // when they see one.
            self.meters.chunk_stalls.inc();
            return Err(e.into());
        }
        self.meters.resident_bytes.set(self.budget.used() as f64);
        Ok(staged)
    }

    /// Accounts a staged read that completed successfully: the sort scratch
    /// goes back to the budget, the chunk keeps its payload reservation
    /// until [`ChunkReader::release`].
    pub fn finish_stage(&mut self, chunk: &Chunk) {
        if let Some(key) = self.sort_key(chunk.index, chunk.sorted_mode) {
            self.budget.free(key.scratch_bytes(chunk.nnz() as u64));
            self.meters.resident_bytes.set(self.budget.used() as f64);
        }
        self.meters.chunk_reads.inc();
        self.meters.chunk_read_bytes.add(chunk.bytes);
        self.meters.chunk_sort_us.add(chunk.sort_us);
    }

    /// Returns a failed staged read's reservation (`bytes` as reported by
    /// [`StagedRead::bytes`]) to the budget.
    pub fn fail_stage(&mut self, bytes: u64) {
        self.budget.free(bytes);
        self.meters.resident_bytes.set(self.budget.used() as f64);
    }

    /// Loads chunk `c` from disk in file order, charging its bytes to the
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

    /// `(coords, value)` records of an element-major chunk.
    fn records(coords: &[Idx], values: &[Val], order: usize) -> Vec<(Vec<Idx>, u32)> {
        coords
            .chunks_exact(order)
            .zip(values)
            .map(|(c, v)| (c.to_vec(), v.to_bits()))
            .collect()
    }

    /// What a sort by mode `d` must produce: std's stable sort of the
    /// records — a permutation, non-decreasing in `d`, ties in input order.
    fn stably_sorted(
        coords: &[Idx],
        values: &[Val],
        order: usize,
        d: usize,
    ) -> Vec<(Vec<Idx>, u32)> {
        let mut want = records(coords, values, order);
        want.sort_by_key(|(c, _)| c[d]);
        want
    }

    /// Runs `sort_by_mode` on a copy over the tight bounding box and checks
    /// it against [`stably_sorted`].
    fn check_sort(coords: &[Idx], values: &[Val], order: usize, d: usize) {
        let keys = || coords.iter().skip(d).step_by(order).copied();
        let key = SortKey {
            mode: d,
            lo: keys().min().unwrap(),
            hi: keys().max().unwrap(),
        };
        let (mut c, mut v) = (coords.to_vec(), values.to_vec());
        assert!(sort_by_mode(&mut c, &mut v, order, key).is_ok());
        assert_eq!(
            records(&c, &v, order),
            stably_sorted(coords, values, order, d),
            "mode {d} of an order-{order} chunk of {} elements",
            values.len()
        );
    }

    /// `n` pseudo-random elements of `shape`; values are the element's
    /// input position, so equal rows are told apart.
    fn random_chunk(shape: &[Idx], n: usize, seed: u64) -> (Vec<Idx>, Vec<Val>) {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let coords = (0..n)
            .flat_map(|_| {
                shape
                    .iter()
                    .map(|&dim| (next() % dim as u64) as Idx)
                    .collect::<Vec<_>>()
            })
            .collect();
        (coords, (0..n).map(|e| e as Val).collect())
    }

    #[test]
    fn sort_is_a_stable_permutation_on_every_shape_of_chunk() {
        // One element; every element in one row (`dim_d = 1` included).
        check_sort(&[3, 1, 4], &[1.5], 3, 1);
        let (c, v) = random_chunk(&[1, 9, 1], 200, 1);
        for d in 0..3 {
            check_sort(&c, &v, 3, d);
        }
        // Already sorted, reverse sorted (with ties), and a > 90 % hot row.
        let ramp: Vec<Idx> = (0..300).flat_map(|e| [e / 3, 7]).collect();
        let down: Vec<Idx> = (0..300).flat_map(|e| [99 - e / 3, 7]).collect();
        let hot: Vec<Idx> = (0..300)
            .flat_map(|e| [if e % 11 == 0 { e } else { 5 }, e])
            .collect();
        let vals: Vec<Val> = (0..300).map(|e| e as Val).collect();
        for coords in [&ramp, &down, &hot] {
            check_sort(coords, &vals, 2, 0);
        }
        // Random chunks: order 1 to 5, one radix pass (narrow modes) and two
        // (the 2²⁰- and 2³⁰-row modes), every mode.
        for seed in 0..20u64 {
            let shape: &[Idx] = match seed % 5 {
                0 => &[40],
                1 => &[50, 3],
                2 => &[7, 1 << 20, 300],
                3 => &[5, 6, 1 << 30, 8],
                _ => &[9, 70_000, 4, 2, 65_536],
            };
            let (c, v) = random_chunk(shape, 100 + 37 * seed as usize, seed);
            for d in 0..shape.len() {
                check_sort(&c, &v, shape.len(), d);
            }
        }
    }

    #[test]
    fn sort_memory_follows_the_chunk_never_the_mode() {
        // A few hundred nonzeros of a 2³⁰-row mode: two passes of 2¹⁵
        // counters and two index arrays — 8 B per element, where counting
        // over the mode itself would be 4 GiB.
        let key = SortKey {
            mode: 0,
            lo: 0,
            hi: (1 << 30) - 1,
        };
        assert_eq!(key.radix(), (2, 15));
        assert_eq!(key.scratch_bytes(300), 2 * 300 * 4);
        // Up to 2¹⁶ rows: one counting pass over the box, 4 B per element.
        for (hi, radix) in [
            (0, (1, 0)),
            (1, (1, 1)),
            (65_535, (1, 16)),
            (65_536, (2, 9)),
        ] {
            let key = SortKey { mode: 0, lo: 0, hi };
            assert_eq!(key.radix(), radix, "box 0..={hi}");
            assert_eq!(key.scratch_bytes(1000), radix.0 as u64 * 4000);
        }
        // The widest box there is still sorts.
        let key = SortKey {
            mode: 0,
            lo: 0,
            hi: Idx::MAX,
        };
        assert_eq!(key.radix(), (2, 16));
        let (mut c, mut v) = (
            vec![Idx::MAX, 0, 7, Idx::MAX, 7],
            vec![0.0, 1.0, 2.0, 3.0, 4.0],
        );
        assert!(sort_by_mode(&mut c, &mut v, 1, key).is_ok());
        assert_eq!(c, [0, 7, 7, Idx::MAX, Idx::MAX]);
        assert_eq!(v, [1.0, 2.0, 4.0, 0.0, 3.0]);
    }

    /// Writes `t` with `cap`-element chunks and checks, for every chunk and
    /// mode, that a sorted read is the stable sort of the unsorted read of
    /// the same chunk — on this thread and on another — and that the budget
    /// holds payload + scratch while staged, the payload while resident and
    /// nothing afterwards.
    fn check_sorted_reads(t: &SparseTensor, cap: usize) {
        let dir = ScratchDir::new("chunkreader");
        let path = dir.join("sorted.tnsb");
        write_tnsb(t, &path, cap).unwrap();
        let order = t.order();
        let budget = MemPool::new("host-stage", 4 * cap as u64 * t.elem_bytes());
        let mut r = ChunkReader::open(&path, budget).unwrap();
        for c in 0..r.meta().num_chunks() {
            let plain = r.load_chunk(c).unwrap();
            for d in 0..order {
                let want = stably_sorted(plain.coords_flat(), plain.values(), order, d);
                let key = r.sort_key(c, Some(d)).unwrap();
                let scratch = key.scratch_bytes(plain.nnz() as u64);
                let here = r.stage(c, Some(d)).unwrap();
                let there = r.stage(c, Some(d)).unwrap();
                assert_eq!(here.bytes(), plain.bytes() + scratch);
                assert_eq!(r.budget().used(), plain.bytes() + 2 * here.bytes());
                let here = here.read().unwrap();
                let there = std::thread::spawn(move || there.read())
                    .join()
                    .expect("reader thread")
                    .unwrap();
                for chunk in [here, there] {
                    assert_eq!(chunk.sorted_mode(), Some(d));
                    assert_eq!(chunk.bytes(), plain.bytes());
                    assert_eq!(
                        records(chunk.coords_flat(), chunk.values(), order),
                        want,
                        "chunk {c} mode {d}"
                    );
                    r.finish_stage(&chunk);
                    r.release(chunk);
                }
                assert_eq!(r.budget().used(), plain.bytes());
            }
            r.release(plain);
        }
        assert_eq!(r.budget().used(), 0);
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
        // A 2²⁰-row mode: 300-element chunks take the two-pass radix.
        check_sorted_reads(
            &GenSpec::uniform(vec![1 << 20, 50, 40], 700, 24).generate(),
            300,
        );
    }

    #[test]
    fn sort_time_is_counted_beside_the_read() {
        let t = GenSpec::uniform(vec![3000, 200, 100], 60_000, 25).generate();
        let dir = ScratchDir::new("chunkreader");
        let path = dir.join("sort_us.tnsb");
        write_tnsb(&t, &path, 60_000).unwrap();
        let reg = MetricsRegistry::new();
        let mut r =
            ChunkReader::open(&path, MemPool::new("host-stage", 4 * t.nnz() as u64 * 16)).unwrap();
        r.set_metrics(reg.clone());
        let plain = r.load_chunk(0).unwrap();
        assert_eq!(reg.counter_value("ooc_chunk_sort_us", &[]), 0);
        let staged = r.stage(0, Some(0)).unwrap();
        let sorted = staged.read().unwrap();
        r.finish_stage(&sorted);
        assert!(reg.counter_value("ooc_chunk_sort_us", &[]) > 0);
        // A sorted read is still one read of the same bytes.
        assert_eq!(reg.counter_value("ooc_chunk_reads", &[]), 2);
        assert_eq!(
            reg.counter_value("ooc_chunk_read_bytes", &[]),
            2 * plain.bytes()
        );
        assert_eq!(
            reg.gauge("ooc_resident_bytes").get(),
            2.0 * plain.bytes() as f64
        );
        r.release(sorted);
        r.release(plain);
    }

    #[test]
    fn a_bounding_box_that_lies_is_a_typed_error() {
        // Chunk 0 really spans rows 0..=9 of mode 0; patch its footer entry
        // to claim 0..=4. Metadata validation cannot see the lie, the sort
        // must: a key outside the box would index past the counters.
        let dir = ScratchDir::new("chunkreader");
        let path = dir.join("liar.tnsb");
        let mut w = TnsbWriter::create(&path, vec![10, 4], 16).unwrap();
        for e in 0..10u32 {
            w.push(&[9 - e, e % 4], 1.0).unwrap();
        }
        let meta = w.finish().unwrap();
        let footer = meta.header_bytes() + meta.payload_bytes();
        let mode0_max = footer + 8 + (10 + 4) * 8 + 8 + 4;
        let mut bytes = std::fs::read(&path).unwrap();
        let at = mode0_max as usize;
        assert_eq!(bytes[at..at + 4], 9u32.to_le_bytes());
        bytes[at..at + 4].copy_from_slice(&4u32.to_le_bytes());
        std::fs::write(&path, bytes).unwrap();

        let mut r = ChunkReader::open(&path, MemPool::new("host-stage", 1 << 12)).unwrap();
        let staged = r.stage(0, Some(0)).unwrap();
        let err = staged.read().unwrap_err();
        assert!(matches!(err, StreamError::Format { .. }), "{err}");
        assert!(err.to_string().contains("bounding box [0, 4]"), "{err}");
        r.fail_stage(staged.bytes());
        assert_eq!(r.budget().used(), 0);
        // The unsorted load and the honest mode are unaffected.
        let plain = r.load_chunk(0).unwrap();
        r.release(plain);
        let staged = r.stage(0, Some(1)).unwrap();
        let sorted = staged.read().unwrap();
        r.finish_stage(&sorted);
        r.release(sorted);
        assert_eq!(r.budget().used(), 0);
    }
}
