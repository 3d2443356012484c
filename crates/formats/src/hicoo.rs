//! Hierarchical COO (HiCOO) — the blocked format used by ParTI-GPU.
//!
//! Elements are grouped into `2^b`-per-mode index blocks; within a block an
//! element stores only `b`-bit local offsets (one byte per mode here), and
//! the block header carries the block's base coordinates. For tensors whose
//! nonzeros cluster, this shrinks the per-element footprint from `4N + 4` to
//! `N + 4` bytes at the price of per-block headers and a decode step in the
//! kernel.

use amped_linalg::Mat;
use amped_tensor::{Idx, SparseTensor, Val};

/// A tensor in HiCOO format.
#[derive(Clone, Debug)]
pub struct HicooTensor {
    shape: Vec<Idx>,
    /// Block edge = `2^block_bits` indices per mode (≤ 8 so locals fit u8).
    block_bits: u32,
    /// Block start offsets into the element arrays (`nblocks + 1` entries).
    bptr: Vec<usize>,
    /// Block base coordinates, `nblocks × order`, already shifted left.
    bindex: Vec<Idx>,
    /// Per-element local offsets, `nnz × order`, each < `2^block_bits`.
    eindex: Vec<u8>,
    /// Values in block order.
    values: Vec<Val>,
    /// Real preprocessing wall time (block sort + compression).
    pub preprocess_wall: f64,
}

impl HicooTensor {
    /// Builds HiCOO with the given block bits (1..=8).
    pub fn build(t: &SparseTensor, block_bits: u32) -> Self {
        assert!((1..=8).contains(&block_bits), "block bits must be in 1..=8");
        let start = std::time::Instant::now();
        let n = t.order();
        let (keys, perm) = Self::block_order(t, block_bits);
        let key = |e: usize| &keys[e * n..(e + 1) * n];
        let mut bptr = Vec::new();
        let mut bindex = Vec::new();
        let mut eindex = Vec::with_capacity(t.nnz() * n);
        let mut values = Vec::with_capacity(t.nnz());
        let mask = (1u32 << block_bits) - 1;
        for (pos, &e) in perm.iter().enumerate() {
            if pos == 0 || key(perm[pos - 1]) != key(e) {
                bptr.push(pos);
                bindex.extend(key(e).iter().map(|&b| b << block_bits));
            }
            eindex.extend(t.coords(e).iter().map(|&i| (i & mask) as u8));
            values.push(t.value(e));
        }
        bptr.push(t.nnz());
        Self {
            shape: t.shape().to_vec(),
            block_bits,
            bptr,
            bindex,
            eindex,
            values,
            preprocess_wall: start.elapsed().as_secs_f64(),
        }
    }

    /// Every element's block coordinates at `block_bits` (`nnz × order`,
    /// row-major) and the element order that sorts them lexicographically,
    /// grouping each block's elements together.
    fn block_order(t: &SparseTensor, block_bits: u32) -> (Vec<Idx>, Vec<usize>) {
        let n = t.order();
        let keys: Vec<Idx> = t.indices_flat().iter().map(|&i| i >> block_bits).collect();
        let mut perm: Vec<usize> = (0..t.nnz()).collect();
        perm.sort_unstable_by(|&a, &b| keys[a * n..(a + 1) * n].cmp(&keys[b * n..(b + 1) * n]));
        (keys, perm)
    }

    /// Picks the smallest block size (in 2..=8 bits) whose nonempty blocks
    /// average at least `min_avg` elements, falling back to 8 bits; this is
    /// the "recommended configuration" knob of the ParTI repository.
    /// Returns the width and the number of nonempty blocks at it — what
    /// [`HicooTensor::build`] at that width will hold, so its
    /// [`HicooTensor::footprint`] is known before the build.
    ///
    /// One sort serves every width: in Morton (bit-interleaved) order the
    /// elements of each width-`b` block are contiguous for every `b`, so the
    /// blocks at `b` are 1 + the adjacent pairs that differ in some
    /// `coord >> b`, i.e. whose highest differing coordinate bit is `≥ b`.
    pub fn auto_block_bits(t: &SparseTensor, min_avg: f64) -> (u32, usize) {
        let n = t.order();
        let coords = t.indices_flat();
        let mut perm: Vec<usize> = (0..t.nnz()).collect();
        perm.sort_unstable_by(|&a, &b| {
            morton_cmp(&coords[a * n..(a + 1) * n], &coords[b * n..(b + 1) * n])
        });
        // `splits[k]`: adjacent pairs whose highest differing bit is bit
        // `k − 1` (`k = 0`: equal coordinates), so they differ at width `b`
        // exactly when `k > b`.
        let mut splits = [0usize; Idx::BITS as usize + 1];
        for w in perm.windows(2) {
            let (a, b) = (&coords[w[0] * n..][..n], &coords[w[1] * n..][..n]);
            let diff = a.iter().zip(b).fold(0, |acc, (&x, &y)| acc | (x ^ y));
            splits[(Idx::BITS - diff.leading_zeros()) as usize] += 1;
        }
        let mut blocks = 0;
        for bits in 2..=8u32 {
            let changes: usize = splits[bits as usize + 1..].iter().sum();
            blocks = if perm.is_empty() { 0 } else { 1 + changes };
            if t.nnz() as f64 / blocks.max(1) as f64 >= min_avg {
                return (bits, blocks);
            }
        }
        (8, blocks)
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

    /// Number of (nonempty) blocks.
    pub fn num_blocks(&self) -> usize {
        self.bptr.len() - 1
    }

    /// Block bits.
    pub fn block_bits(&self) -> u32 {
        self.block_bits
    }

    /// Payload bytes: per element `N` locals + 4-byte value; per block `N`
    /// 4-byte base coords + 8-byte offset.
    pub fn bytes(&self) -> u64 {
        Self::footprint(self.order(), self.nnz(), self.num_blocks())
    }

    /// [`HicooTensor::bytes`] of an order-`order` tensor of `nnz` elements
    /// in `blocks` nonempty blocks.
    pub fn footprint(order: usize, nnz: usize, blocks: usize) -> u64 {
        let n = order as u64;
        nnz as u64 * (n + 4) + blocks as u64 * (n * 4 + 8)
    }

    /// Iterates `(coords, value)` over block `b`, reconstructing full
    /// coordinates — the ParTI kernel's access pattern.
    pub fn block_iter(&self, b: usize) -> impl Iterator<Item = (Vec<Idx>, Val)> + '_ {
        let n = self.order();
        let base = &self.bindex[b * n..(b + 1) * n];
        (self.bptr[b]..self.bptr[b + 1]).map(move |e| {
            let coords: Vec<Idx> = (0..n)
                .map(|m| base[m] | self.eindex[e * n + m] as Idx)
                .collect();
            (coords, self.values[e])
        })
    }

    /// Number of elements in block `b`.
    pub fn block_nnz(&self, b: usize) -> usize {
        self.bptr[b + 1] - self.bptr[b]
    }

    /// Functional MTTKRP for `mode` (sequential reference; the ParTI
    /// baseline parallelizes over blocks with atomics).
    pub fn mttkrp(&self, mode: usize, factors: &[Mat], out: &mut Mat) {
        let r = out.cols();
        let mut acc = vec![0.0f32; r];
        for b in 0..self.num_blocks() {
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

/// Morton order of two coordinate tuples: compare them on the mode whose
/// coordinates differ in the highest bit (the lowest such mode on a tie),
/// which orders them by their bit-interleaved keys without forming any.
fn morton_cmp(a: &[Idx], b: &[Idx]) -> std::cmp::Ordering {
    let mut top = 0;
    let mut top_diff: Idx = 0;
    for (m, (&x, &y)) in a.iter().zip(b).enumerate() {
        let diff = x ^ y;
        // `diff` has a higher set bit than `top_diff`.
        if top_diff < diff && top_diff < (top_diff ^ diff) {
            (top, top_diff) = (m, diff);
        }
    }
    a[top].cmp(&b[top])
}

#[cfg(test)]
mod tests {
    use super::*;
    use amped_tensor::gen::GenSpec;

    fn factors(t: &SparseTensor, r: usize, seed: u64) -> Vec<Mat> {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(seed);
        t.shape()
            .iter()
            .map(|&d| Mat::random(d as usize, r, &mut rng))
            .collect()
    }

    fn coo_mttkrp(t: &SparseTensor, mode: usize, factors: &[Mat]) -> Mat {
        let r = factors[0].cols();
        let mut out = Mat::zeros(t.dim(mode) as usize, r);
        for e in t.iter() {
            for c in 0..r {
                let mut prod = e.val;
                for (w, f) in factors.iter().enumerate() {
                    if w != mode {
                        prod *= f.get(e.coords[w] as usize, c);
                    }
                }
                let i = e.coords[mode] as usize;
                out.set(i, c, out.get(i, c) + prod);
            }
        }
        out
    }

    #[test]
    fn round_trip_coordinates() {
        let t = GenSpec::uniform(vec![300, 200, 100], 2000, 51).generate();
        let h = HicooTensor::build(&t, 4);
        let mut orig: Vec<(Vec<Idx>, Val)> = t.iter().map(|e| (e.coords.to_vec(), e.val)).collect();
        let mut back: Vec<(Vec<Idx>, Val)> = (0..h.num_blocks())
            .flat_map(|b| h.block_iter(b).collect::<Vec<_>>())
            .collect();
        orig.sort_by(|a, b| a.0.cmp(&b.0));
        back.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(orig, back);
    }

    #[test]
    fn blocks_partition_all_elements() {
        let t = GenSpec::uniform(vec![64, 64], 500, 52).generate();
        let h = HicooTensor::build(&t, 3);
        let total: usize = (0..h.num_blocks()).map(|b| h.block_nnz(b)).sum();
        assert_eq!(total, t.nnz());
        assert!(h.num_blocks() >= 1);
    }

    #[test]
    fn mttkrp_matches_oracle() {
        let t = GenSpec {
            shape: vec![40, 50, 60],
            nnz: 1500,
            skew: vec![0.9, 0.0, 0.5],
            seed: 53,
        }
        .generate();
        let fs = factors(&t, 8, 4);
        let h = HicooTensor::build(&t, 4);
        for d in 0..3 {
            let mut out = Mat::zeros(t.dim(d) as usize, 8);
            h.mttkrp(d, &fs, &mut out);
            let want = coo_mttkrp(&t, d, &fs);
            assert!(out.approx_eq(&want, 1e-4, 1e-5), "mode {d}");
        }
    }

    #[test]
    fn clustered_data_compresses() {
        // All nonzeros inside one 16³ region → one block, max compression.
        let mut t = SparseTensor::new(vec![1000, 1000, 1000]);
        for i in 0..10u32 {
            t.push(&[i % 16, (i * 3) % 16, (i * 7) % 16], 1.0);
        }
        let t = t.deduplicated();
        let h = HicooTensor::build(&t, 4);
        assert_eq!(h.num_blocks(), 1);
        assert!(h.bytes() < t.bytes());
    }

    #[test]
    fn scattered_data_pays_header_overhead() {
        // Spread-out elements → ~1 element per block → headers dominate.
        let t = GenSpec::uniform(vec![100_000, 100_000, 100_000], 500, 54).generate();
        let h = HicooTensor::build(&t, 2);
        assert!(h.num_blocks() as f64 > 0.9 * t.nnz() as f64);
        assert!(h.bytes() > t.bytes());
    }

    #[test]
    fn auto_block_bits_monotone_with_clustering() {
        let clustered = GenSpec::uniform(vec![32, 32, 32], 4000, 55).generate();
        assert!(HicooTensor::auto_block_bits(&clustered, 8.0).0 <= 3);
        let scattered = GenSpec::uniform(vec![1 << 20, 1 << 20, 1 << 20], 300, 56).generate();
        assert_eq!(HicooTensor::auto_block_bits(&scattered, 8.0).0, 8);
    }

    /// Six dense 24³ clusters scattered over a 4096³ index space.
    fn six_clusters() -> SparseTensor {
        let mut t = SparseTensor::new(vec![4096, 4096, 4096]);
        let mut x = 7u64;
        for b in 0..6u32 {
            let base = [b * 600 + 11, 4000 - b * 500, b * 300 + 900];
            for _ in 0..500 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let c = [(x >> 20) as u32, (x >> 30) as u32, (x >> 40) as u32].map(|c| c % 24);
                t.push(&[base[0] + c[0], base[1] - c[1], base[2] + c[2]], 1.0);
            }
        }
        t
    }

    #[test]
    fn auto_block_bits_and_layout_are_pinned() {
        // Widths for min_avg 2 / 8 / 32, and the block count and bytes at
        // the min_avg-8 width: the choice and the layout ParTI's modeled
        // time and memory are built on. The count the choice reports is
        // the count the build holds.
        let uniform = GenSpec::uniform(vec![256, 256, 256], 40_000, 41).generate();
        let zipf = GenSpec {
            shape: vec![1000, 1000, 1000],
            nnz: 30_000,
            skew: vec![1.0, 1.0, 1.0],
            seed: 42,
        }
        .generate();
        let cases = [
            (uniform, [4, 4, 5], 4096, 361_920),
            (zipf, [5, 6, 7], 3370, 277_400),
            (six_clusters(), [2, 3, 4], 316, 27_320),
        ];
        for (t, bits, blocks, bytes) in cases {
            let got = [2.0, 8.0, 32.0].map(|a| HicooTensor::auto_block_bits(&t, a));
            assert_eq!(got.map(|(b, _)| b), bits);
            assert_eq!(got[1].1, blocks);
            let h = HicooTensor::build(&t, bits[1]);
            assert_eq!((h.num_blocks(), h.bytes()), (blocks, bytes));
            assert_eq!(HicooTensor::footprint(3, t.nnz(), blocks), bytes);
            for (b, n) in got {
                assert_eq!(HicooTensor::build(&t, b).num_blocks(), n);
            }
        }
    }

    #[test]
    fn one_morton_sort_counts_the_blocks_of_every_width() {
        // Every width in 2..=8 gets chosen by some `min_avg` on some tensor
        // (orders 3 and 5, skewed, clustered, with repeated coordinates);
        // the count returned is the count the build at that width holds.
        let mut with_repeats = six_clusters();
        for e in 0..200 {
            let c = with_repeats.coords(e * 7).to_vec();
            with_repeats.push(&c, 2.0);
        }
        let tensors = [
            GenSpec::uniform(vec![300, 200, 100], 20_000, 43).generate(),
            GenSpec {
                shape: vec![700, 90, 4000],
                nnz: 25_000,
                skew: vec![1.2, 0.0, 0.8],
                seed: 44,
            }
            .generate(),
            GenSpec::uniform(vec![40, 60, 30, 20, 50], 6_000, 45).generate(),
            with_repeats,
        ];
        let mut widths = std::collections::BTreeSet::new();
        for t in &tensors {
            for min_avg in [1.0, 1.5, 2.0, 3.0, 5.0, 8.0, 16.0, 40.0, 1e9] {
                let (bits, blocks) = HicooTensor::auto_block_bits(t, min_avg);
                assert_eq!(HicooTensor::build(t, bits).num_blocks(), blocks);
                widths.insert(bits);
            }
        }
        assert!(widths.len() >= 5, "widths exercised: {widths:?}");
    }

    #[test]
    fn five_mode_support() {
        let t = GenSpec::uniform(vec![20, 20, 20, 20, 20], 400, 57).generate();
        let fs = factors(&t, 4, 5);
        let h = HicooTensor::build(&t, 3);
        let mut out = Mat::zeros(20, 4);
        h.mttkrp(2, &fs, &mut out);
        let want = coo_mttkrp(&t, 2, &fs);
        assert!(out.approx_eq(&want, 1e-4, 1e-5));
    }
}
