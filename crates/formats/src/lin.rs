//! Blocked linearized coordinate format (BLCO-style).
//!
//! Each nonzero's coordinates are packed into a single wide integer by
//! concatenating per-mode bit fields (mode 0 in the most significant bits).
//! The element stream is sorted by that linear index and split into *blocks*
//! such that, within a block, every element shares the bits above the low 64
//! — so elements store only a 64-bit truncated index plus the value (12 bytes
//! instead of `4N + 4`), and the block header carries the shared high bits.
//!
//! This is the structure that lets BLCO stream a tensor bigger than GPU
//! memory from the host one block at a time (§2.2 of the AMPED paper), at the
//! price of single-GPU execution and per-element bit-decode work.

use amped_linalg::Mat;
use amped_tensor::{Idx, SparseTensor, Val};

/// Ceiling log2 for a mode size (at least 1 bit so a mode is addressable).
fn bits_for(dim: Idx) -> u32 {
    (64 - (dim as u64).saturating_sub(1).leading_zeros()).max(1)
}

/// One block: elements whose linear indices share all bits above the low 64.
#[derive(Clone, Debug)]
pub struct LinBlock {
    /// The shared high bits (bits 64.. of the linear index).
    pub high: u64,
    /// Element range in the packed arrays.
    pub elems: std::ops::Range<usize>,
}

/// A tensor in blocked linearized coordinate format.
#[derive(Clone, Debug)]
pub struct LinTensor {
    shape: Vec<Idx>,
    /// Per-mode field widths in bits.
    bits: Vec<u32>,
    /// Bit offset of each mode's field (from LSB).
    shifts: Vec<u32>,
    /// Low 64 bits of each element's linear index (sorted order).
    low: Vec<u64>,
    /// Values, parallel to `low`.
    values: Vec<Val>,
    /// Blocks covering `low`/`values`, with per-block shared high bits.
    blocks: Vec<LinBlock>,
    /// Real preprocessing wall time in seconds (linearize + sort + split).
    pub preprocess_wall: f64,
}

impl LinTensor {
    /// Linearizes, sorts, and blocks `t`. `max_block_nnz` additionally caps
    /// block size so blocks remain good streaming/scheduling units.
    ///
    /// # Panics
    /// Panics if the total index width exceeds 128 bits (cannot happen for
    /// `u32` coordinates and ≤ 5 modes: 5 × 32 < 128 only — 4 × 32 = 128 —
    /// so 5-mode tensors must have narrower dims; FROSTT tensors do).
    pub fn build(t: &SparseTensor, max_block_nnz: usize) -> Self {
        assert!(max_block_nnz > 0);
        let start = std::time::Instant::now();
        let bits: Vec<u32> = t.shape().iter().map(|&d| bits_for(d)).collect();
        let total_bits: u32 = bits.iter().sum();
        assert!(
            total_bits <= 128,
            "linear index needs {total_bits} bits > 128"
        );
        // Mode 0 occupies the most significant field.
        let mut shifts = vec![0u32; bits.len()];
        let mut acc = 0u32;
        for m in (0..bits.len()).rev() {
            shifts[m] = acc;
            acc += bits[m];
        }
        let mut lin: Vec<(u128, Val)> = (0..t.nnz())
            .map(|e| {
                let mut key = 0u128;
                for (m, &c) in t.coords(e).iter().enumerate() {
                    key |= (c as u128) << shifts[m];
                }
                (key, t.value(e))
            })
            .collect();
        lin.sort_unstable_by_key(|&(k, _)| k);
        let mut low = Vec::with_capacity(lin.len());
        let mut values = Vec::with_capacity(lin.len());
        let mut blocks: Vec<LinBlock> = Vec::new();
        for (i, &(key, v)) in lin.iter().enumerate() {
            let high = (key >> 64) as u64;
            low.push(key as u64);
            values.push(v);
            let split = match blocks.last() {
                Some(b) => b.high != high || b.elems.len() >= max_block_nnz,
                None => true,
            };
            if split {
                blocks.push(LinBlock {
                    high,
                    elems: i..i + 1,
                });
            } else {
                blocks.last_mut().unwrap().elems.end = i + 1;
            }
        }
        Self {
            shape: t.shape().to_vec(),
            bits,
            shifts,
            low,
            values,
            blocks,
            preprocess_wall: start.elapsed().as_secs_f64(),
        }
    }

    /// Mode sizes.
    pub fn shape(&self) -> &[Idx] {
        &self.shape
    }

    /// Tensor order.
    pub fn order(&self) -> usize {
        self.shape.len()
    }

    /// Nonzero count.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The blocks, in linear-index order.
    pub fn blocks(&self) -> &[LinBlock] {
        &self.blocks
    }

    /// Bytes of one stored element (64-bit truncated index + f32 value).
    pub const ELEM_BYTES: u64 = 12;

    /// Total payload bytes: elements plus block headers.
    pub fn bytes(&self) -> u64 {
        self.nnz() as u64 * Self::ELEM_BYTES + self.blocks.len() as u64 * 24
    }

    /// Bytes of one block (what streaming one block transfers).
    pub fn block_bytes(&self, b: usize) -> u64 {
        self.blocks[b].elems.len() as u64 * Self::ELEM_BYTES + 24
    }

    /// Decodes the coordinates of element `e` (inverse of linearization).
    pub fn decode(&self, e: usize) -> Vec<Idx> {
        let block = self
            .blocks
            .binary_search_by(|b| {
                if b.elems.start > e {
                    std::cmp::Ordering::Greater
                } else if b.elems.end <= e {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .expect("element index within some block");
        let key = ((self.blocks[block].high as u128) << 64) | self.low[e] as u128;
        self.decode_key(key)
    }

    fn decode_key(&self, key: u128) -> Vec<Idx> {
        let mut coords = vec![0; self.order()];
        self.decode_key_into(key, &mut coords);
        coords
    }

    /// Decodes `key` into `out`, one coordinate per mode.
    fn decode_key_into(&self, key: u128, out: &mut [Idx]) {
        for (m, c) in out.iter_mut().enumerate() {
            *c = ((key >> self.shifts[m]) as u64 & ((1u64 << self.bits[m]) - 1).max(1)) as Idx;
        }
    }

    /// Writes the coordinates of block `b`'s elements into `out`, `order`
    /// per element in block order — [`LinTensor::block_iter`]'s coordinates
    /// without a `Vec` per element.
    ///
    /// # Panics
    /// Panics if `out.len()` is not the block's element count × order.
    pub fn decode_block_into(&self, b: usize, out: &mut [Idx]) {
        let (block, n) = (&self.blocks[b], self.order());
        assert_eq!(out.len(), block.elems.len() * n, "block {b} output length");
        let high = (block.high as u128) << 64;
        for (e, c) in block.elems.clone().zip(out.chunks_exact_mut(n)) {
            self.decode_key_into(high | self.low[e] as u128, c);
        }
    }

    /// Iterates `(coords, value)` over one block, decoding on the fly — the
    /// access pattern of the BLCO GPU kernel.
    pub fn block_iter(&self, b: usize) -> impl Iterator<Item = (Vec<Idx>, Val)> + '_ {
        let block = &self.blocks[b];
        let high = (block.high as u128) << 64;
        block.elems.clone().map(move |e| {
            let key = high | self.low[e] as u128;
            (self.decode_key(key), self.values[e])
        })
    }

    /// Functional MTTKRP for `mode`: `out(i_d, :) += val · ⊛_{w≠d} F_w(i_w, :)`.
    /// Sequential reference used for correctness tests; the BLCO baseline
    /// parallelizes over blocks with atomics.
    pub fn mttkrp(&self, mode: usize, factors: &[Mat], out: &mut Mat) {
        let r = out.cols();
        let mut acc = vec![0.0f32; r];
        for b in 0..self.blocks.len() {
            for (coords, val) in self.block_iter(b) {
                acc.iter_mut().for_each(|a| *a = val);
                for (w, f) in factors.iter().enumerate() {
                    if w == mode {
                        continue;
                    }
                    let row = f.row(coords[w] as usize);
                    for (a, &x) in acc.iter_mut().zip(row) {
                        *a *= x;
                    }
                }
                let orow = out.row_mut(coords[mode] as usize);
                for (o, &a) in orow.iter_mut().zip(&acc) {
                    *o += a;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amped_tensor::gen::GenSpec;

    #[test]
    fn bits_for_edge_cases() {
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(2), 1);
        assert_eq!(bits_for(3), 2);
        assert_eq!(bits_for(256), 8);
        assert_eq!(bits_for(257), 9);
    }

    #[test]
    fn round_trip_decoding() {
        let t = GenSpec::uniform(vec![100, 33, 7], 500, 31).generate();
        let lt = LinTensor::build(&t, 128);
        assert_eq!(lt.nnz(), t.nnz());
        // The linearized order is sorted; rebuild the coordinate multiset.
        let mut orig: Vec<(Vec<Idx>, Val)> = t.iter().map(|e| (e.coords.to_vec(), e.val)).collect();
        let mut back: Vec<(Vec<Idx>, Val)> = (0..lt.nnz())
            .map(|e| (lt.decode(e), lt.values[e]))
            .collect();
        orig.sort_by(|a, b| a.0.cmp(&b.0));
        back.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(orig, back);
    }

    #[test]
    fn blocks_partition_elements_and_respect_cap() {
        let t = GenSpec::uniform(vec![500, 500, 500], 3000, 32).generate();
        let lt = LinTensor::build(&t, 100);
        let mut covered = 0usize;
        for b in lt.blocks() {
            assert!(b.elems.len() <= 100);
            assert_eq!(b.elems.start, covered);
            covered = b.elems.end;
        }
        assert_eq!(covered, lt.nnz());
    }

    #[test]
    fn wide_tensor_uses_high_bits() {
        // 5 modes × up to 25 bits → > 64 bits total forces nontrivial highs.
        let t = GenSpec::uniform(vec![1 << 20, 1 << 20, 1 << 20, 64, 64], 2000, 33).generate();
        let lt = LinTensor::build(&t, 1 << 20);
        let total_bits: u32 = t.shape().iter().map(|&d| bits_for(d)).sum();
        assert!(total_bits > 64, "test needs a >64-bit index space");
        // Round trip still exact.
        for e in [0usize, 1, lt.nnz() / 2, lt.nnz() - 1] {
            let c = lt.decode(e);
            for (m, &ci) in c.iter().enumerate() {
                assert!(ci < t.shape()[m]);
            }
        }
        // With >64 index bits there must be at least one block split by high
        // bits (unless all elements coincidentally share them).
        assert!(!lt.blocks().is_empty());
    }

    #[test]
    fn block_iter_matches_decode() {
        let t = GenSpec::uniform(vec![64, 64, 64], 300, 34).generate();
        let lt = LinTensor::build(&t, 50);
        let mut e = 0usize;
        for b in 0..lt.blocks().len() {
            for (coords, val) in lt.block_iter(b) {
                assert_eq!(coords, lt.decode(e));
                assert_eq!(val, lt.values[e]);
                e += 1;
            }
        }
        assert_eq!(e, lt.nnz());
    }

    #[test]
    fn decode_block_into_matches_block_iter() {
        // Five modes past 64 index bits, so the high word takes part.
        let t = GenSpec::uniform(vec![1 << 20, 1 << 20, 1 << 20, 64, 64], 2000, 36).generate();
        let lt = LinTensor::build(&t, 300);
        let mut out = Vec::new();
        for b in 0..lt.blocks().len() {
            out.resize(lt.blocks()[b].elems.len() * t.order(), 0);
            lt.decode_block_into(b, &mut out);
            let want: Vec<Idx> = lt.block_iter(b).flat_map(|(c, _)| c).collect();
            assert_eq!(out, want, "block {b}");
        }
    }

    #[test]
    fn bytes_accounting() {
        let t = GenSpec::uniform(vec![16, 16], 100, 35).generate();
        let lt = LinTensor::build(&t, 10);
        assert_eq!(
            lt.bytes(),
            lt.nnz() as u64 * 12 + lt.blocks().len() as u64 * 24
        );
        let sum: u64 = (0..lt.blocks().len()).map(|b| lt.block_bytes(b)).sum();
        assert_eq!(sum, lt.bytes());
    }
}
