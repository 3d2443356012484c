//! GPU-to-GPU collectives: the ring all-gather of Algorithm 3.
//!
//! After each output mode, every GPU owns a block of updated output-factor
//! rows and must distribute it to all peers before the next mode (Algorithm 1
//! lines 8–12). The paper uses a ring schedule over GPUDirect P2P: in step
//! `z`, GPU `g` forwards block `(g − z) mod M` to GPU `g + 1` and receives
//! block `(g − z − 1) mod M` from GPU `g − 1`; after `M − 1` synchronized
//! steps every GPU holds every block, and the CPU never touches the data.
//!
//! (The paper's Algorithm 3 writes the send index as `(gpu_id + z) mod M`,
//! which is inconsistent with its own receive index; we implement the
//! standard schedule that matches the receive line and verify completeness by
//! construction in tests.)
//!
//! Layers above this crate do not call these functions directly; collectives
//! run through [`crate::DeviceRuntime::allgather_time`] and
//! [`crate::DeviceRuntime::allgather_blocks`].

use amped_sim::LinkSpec;

/// Functional ring all-gather over arbitrary per-GPU blocks.
///
/// `blocks[g]` is GPU `g`'s contribution. Returns, for each GPU, the full
/// list of blocks indexed by source GPU — produced by actually forwarding
/// blocks around the ring step by step, not by shortcutting, so the schedule
/// itself is what the tests validate.
pub fn ring_allgather<T: Clone>(blocks: &[T]) -> Vec<Vec<T>> {
    let m = blocks.len();
    // slots[g][src] = Some(block from src) once it has arrived at GPU g.
    let mut slots: Vec<Vec<Option<T>>> = (0..m)
        .map(|g| {
            let mut v = vec![None; m];
            v[g] = Some(blocks[g].clone());
            v
        })
        .collect();
    for z in 0..m.saturating_sub(1) {
        // All sends of one step happen "in parallel": compute them from the
        // pre-step state, then apply.
        let mut arrivals: Vec<(usize, usize, T)> = Vec::with_capacity(m);
        for (g, slot) in slots.iter().enumerate() {
            let src = (g + m - z % m) % m; // (g − z) mod m
            let block = slot[src]
                .clone()
                .expect("ring invariant: block (g − z) mod M is present at step z");
            let dst = (g + 1) % m;
            arrivals.push((dst, src, block));
        }
        for (dst, src, block) in arrivals {
            slots[dst][src] = Some(block);
        }
    }
    slots
        .into_iter()
        .map(|row| {
            row.into_iter()
                .map(|o| o.expect("all blocks gathered"))
                .collect()
        })
        .collect()
}

/// Simulated time of the ring all-gather.
///
/// `block_bytes[g]` is the size of GPU `g`'s contribution. Steps are
/// synchronized (paper: barrier per step), so each step costs the slowest
/// transfer in flight; the total is the sum over `M − 1` steps. With one GPU
/// there is nothing to exchange.
pub fn ring_allgather_time(link: &LinkSpec, block_bytes: &[u64]) -> f64 {
    let m = block_bytes.len();
    if m <= 1 {
        return 0.0;
    }
    let mut total = 0.0;
    for z in 0..m - 1 {
        let step = (0..m)
            .map(|g| {
                let src = (g + m - z % m) % m;
                link.transfer_time(block_bytes[src])
            })
            .fold(0.0f64, f64::max);
        total += step;
    }
    total
}

/// Simulated time of a host-staged scatter, used by the out-of-core
/// streaming pipeline: the host holds one tensor chunk and each GPU pulls
/// its slice
/// (`block_bytes[g]`) over its own PCIe link concurrently, so the stage
/// costs the slowest slice in flight. GPUs with nothing to receive from this
/// chunk cost nothing (they do not even pay link latency).
pub fn host_staged_scatter_time(pcie: &LinkSpec, block_bytes: &[u64]) -> f64 {
    block_bytes
        .iter()
        .filter(|&&b| b > 0)
        .map(|&b| pcie.transfer_time(b))
        .fold(0.0f64, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::FactorBlock;

    #[test]
    fn allgather_delivers_all_blocks_to_all_gpus() {
        for m in 1..=6 {
            let blocks: Vec<u32> = (0..m as u32).map(|g| g * 100).collect();
            let gathered = ring_allgather(&blocks);
            assert_eq!(gathered.len(), m);
            for (g, row) in gathered.iter().enumerate() {
                assert_eq!(row, &blocks, "GPU {g} missing blocks for M={m}");
            }
        }
        // Factor blocks, about one in three empty: out[g][src] must be
        // src's own block on every GPU.
        for m in 1..=16 {
            let blocks: Vec<FactorBlock> = (0..m)
                .map(|g| {
                    let rows = if g % 3 == 1 { 0 } else { g % 4 + 1 };
                    FactorBlock {
                        rows: (0..rows as u32).map(|r| r + 100 * g as u32).collect(),
                        data: (0..rows * 8).map(|i| (g * 1000 + i) as f32).collect(),
                    }
                })
                .collect();
            let gathered = ring_allgather(&blocks);
            assert_eq!(gathered.len(), m);
            for (g, row) in gathered.iter().enumerate() {
                assert_eq!(row, &blocks, "GPU {g} misplaced blocks for M={m}");
            }
        }
    }

    #[test]
    fn allgather_clones_not_references() {
        let blocks = vec![vec![1.0f32; 4], vec![2.0; 4]];
        let gathered = ring_allgather(&blocks);
        assert_eq!(gathered[0][1], vec![2.0; 4]);
        assert_eq!(gathered[1][0], vec![1.0; 4]);
    }

    #[test]
    fn ring_time_zero_for_single_gpu() {
        let link = LinkSpec {
            gbps: 50.0,
            latency_s: 1e-5,
        };
        assert_eq!(ring_allgather_time(&link, &[1000]), 0.0);
    }

    #[test]
    fn ring_time_equal_blocks() {
        let link = LinkSpec {
            gbps: 1.0,
            latency_s: 0.0,
        };
        // 4 GPUs, 1 GB blocks: 3 steps × 1 s.
        let t = ring_allgather_time(&link, &[1_000_000_000; 4]);
        assert!((t - 3.0).abs() < 1e-9);
    }

    #[test]
    fn ring_time_dominated_by_largest_block() {
        let link = LinkSpec {
            gbps: 1.0,
            latency_s: 0.0,
        };
        // One 2 GB block circulates through 3 steps; every step forwards it
        // somewhere, so every step costs 2 s.
        let t = ring_allgather_time(&link, &[2_000_000_000, 0, 0, 0]);
        assert!((t - 6.0).abs() < 1e-9, "got {t}");
    }

    #[test]
    fn scatter_costs_slowest_slice_and_skips_empty() {
        let pcie = LinkSpec {
            gbps: 1.0,
            latency_s: 0.0,
        };
        // Slices transfer concurrently: 2 GB dominates.
        let t = host_staged_scatter_time(&pcie, &[1_000_000_000, 2_000_000_000]);
        assert!((t - 2.0).abs() < 1e-9, "got {t}");
        // Empty slices are free, even with nonzero link latency.
        let lat = LinkSpec {
            gbps: 1.0,
            latency_s: 0.5,
        };
        assert_eq!(host_staged_scatter_time(&lat, &[0, 0]), 0.0);
        assert_eq!(host_staged_scatter_time(&lat, &[]), 0.0);
    }
}
