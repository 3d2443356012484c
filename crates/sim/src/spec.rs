//! Hardware specifications for the simulated platform.
//!
//! The preset mirrors the paper's testbed (§5.1.1): 4× NVIDIA RTX 6000 Ada
//! (142 SMs, 18176 cores, 48 GB GDDR6) on a 2-socket AMD EPYC 9654 host with
//! 1.5 TB of memory; each GPU reaches the host over PCIe at 64 GB/s, and GPUs
//! talk to each other with GPUDirect P2P (no NVLink on this card).

use serde::Serialize;

/// One GPU device.
#[derive(Clone, Debug, Serialize)]
pub struct GpuSpec {
    /// Marketing name, for reports.
    pub name: String,
    /// Streaming multiprocessor count.
    pub sms: usize,
    /// CUDA cores per SM.
    pub cores_per_sm: usize,
    /// Boost clock in GHz.
    pub clock_ghz: f64,
    /// Global-memory bandwidth in GB/s.
    pub dram_gbps: f64,
    /// L2 cache size in bytes.
    pub l2_bytes: u64,
    /// Global-memory capacity in bytes.
    pub mem_bytes: u64,
}

impl GpuSpec {
    /// NVIDIA RTX 6000 Ada Generation (the paper's GPU).
    pub fn rtx6000_ada() -> Self {
        Self {
            name: "RTX 6000 Ada".into(),
            sms: 142,
            cores_per_sm: 128, // 18176 cores / 142 SMs
            clock_ghz: 2.5,
            dram_gbps: 960.0,
            l2_bytes: 96 * 1024 * 1024,
            mem_bytes: 48 * 1024 * 1024 * 1024,
        }
    }

    /// Peak FP32 throughput of one SM in FLOP/s (FMA counts as two).
    pub fn sm_flops(&self) -> f64 {
        self.cores_per_sm as f64 * 2.0 * self.clock_ghz * 1e9
    }

    /// Per-SM share of global-memory bandwidth in bytes/s, assuming all SMs
    /// stream concurrently (the regime of a bandwidth-bound MTTKRP kernel).
    pub fn sm_dram_bps(&self) -> f64 {
        self.dram_gbps * 1e9 / self.sms as f64
    }
}

/// A point-to-point interconnect.
#[derive(Clone, Debug, Serialize)]
pub struct LinkSpec {
    /// Sustained bandwidth in GB/s.
    pub gbps: f64,
    /// Per-transfer latency in seconds.
    pub latency_s: f64,
}

impl LinkSpec {
    /// Time to move `bytes` over this link.
    pub fn transfer_time(&self, bytes: u64) -> f64 {
        self.latency_s + bytes as f64 / (self.gbps * 1e9)
    }
}

/// The host CPU side of the node.
#[derive(Clone, Debug, Serialize)]
pub struct HostSpec {
    /// Host memory capacity in bytes.
    pub mem_bytes: u64,
    /// Physical core count (2× EPYC 9654 = 192).
    pub cores: usize,
    /// Host-side elementwise throughput in elements/s, used to price the
    /// partial-result merge of the equal-nnz baseline (Fig. 6). The paper
    /// notes "CPU computing power is significantly lower than GPUs".
    pub merge_elems_per_sec: f64,
}

/// The whole node: GPUs, links, and host.
#[derive(Clone, Debug, Serialize)]
pub struct PlatformSpec {
    /// GPU devices (all identical in the paper's testbed).
    pub gpus: Vec<GpuSpec>,
    /// Host↔GPU link, per GPU (PCIe: 64 GB/s each way per the paper).
    pub pcie: LinkSpec,
    /// Aggregate host-memory bandwidth shared by concurrent host↔GPU streams.
    /// Multiple GPUs reading tensor shards at once contend here — this is the
    /// "more effective bandwidth" argument of §5.2 with its realistic limit.
    pub host_agg_gbps: f64,
    /// GPU↔GPU link (GPUDirect P2P over PCIe; no NVLink on RTX 6000 Ada).
    pub p2p: LinkSpec,
    /// Host CPU and memory.
    pub host: HostSpec,
}

impl PlatformSpec {
    /// The paper's testbed with `num_gpus` RTX 6000 Ada GPUs (§5.1.1).
    pub fn rtx6000_ada_node(num_gpus: usize) -> Self {
        assert!(num_gpus >= 1, "a platform needs at least one GPU");
        Self {
            gpus: vec![GpuSpec::rtx6000_ada(); num_gpus],
            pcie: LinkSpec {
                gbps: 64.0,
                latency_s: 10e-6,
            },
            host_agg_gbps: 460.0, // 12-channel DDR5 per socket, conservative
            p2p: LinkSpec {
                gbps: 50.0,
                latency_s: 10e-6,
            },
            host: HostSpec {
                mem_bytes: 1_500_000_000_000, // 1.5 TB
                cores: 192,
                // Scattered factor-row accumulation on the host is memory-
                // latency-bound: ~0.3 G row-elements/s end to end, two to
                // three orders below a GPU — the paper's §1 "CPU computing
                // power is significantly lower than GPUs".
                merge_elems_per_sec: 0.3e9,
            },
        }
    }

    /// Scales all *capacities* (GPU memory, host memory, L2) and *fixed
    /// latencies* by `scale` while leaving bandwidths and compute rates
    /// untouched.
    ///
    /// Experiments run on ~1000× reduced datasets; shrinking capacities by
    /// the same factor preserves every capacity *ratio* of the paper — which
    /// baseline OOMs on which tensor emerges from allocation arithmetic
    /// rather than from hard-coding (DESIGN.md §1). Latencies shrink too so
    /// that fixed costs keep the same *relative* weight they have at full
    /// scale (≈0.01% of a mode); otherwise a 1000×-smaller run would be a
    /// latency study instead of reproducing the paper's bandwidth-bound
    /// regime.
    pub fn scaled(mut self, scale: f64) -> Self {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        for g in &mut self.gpus {
            g.mem_bytes = (g.mem_bytes as f64 * scale) as u64;
            g.l2_bytes = (g.l2_bytes as f64 * scale) as u64;
        }
        self.host.mem_bytes = (self.host.mem_bytes as f64 * scale) as u64;
        self.pcie.latency_s *= scale;
        self.p2p.latency_s *= scale;
        self
    }

    /// Number of GPUs.
    pub fn num_gpus(&self) -> usize {
        self.gpus.len()
    }

    /// Effective host→device bandwidth (GB/s) per GPU when `active` GPUs
    /// stream concurrently: each PCIe link caps at its own rate, and all
    /// streams together cap at the host's aggregate memory bandwidth.
    pub fn h2d_effective_gbps(&self, active: usize) -> f64 {
        let active = active.max(1) as f64;
        self.pcie.gbps.min(self.host_agg_gbps / active)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_matches_paper_testbed() {
        let p = PlatformSpec::rtx6000_ada_node(4);
        assert_eq!(p.num_gpus(), 4);
        assert_eq!(p.gpus[0].sms, 142);
        assert_eq!(p.gpus[0].sms * p.gpus[0].cores_per_sm, 18176);
        assert_eq!(p.gpus[0].mem_bytes, 48 * 1024 * 1024 * 1024);
        assert_eq!(p.pcie.gbps, 64.0);
    }

    #[test]
    fn scaling_shrinks_capacities_not_rates() {
        let p = PlatformSpec::rtx6000_ada_node(2).scaled(1e-3);
        assert_eq!(
            p.gpus[0].mem_bytes,
            (48.0 * 1024.0 * 1024.0 * 1024.0 * 1e-3) as u64
        );
        assert_eq!(p.gpus[0].dram_gbps, 960.0);
        assert_eq!(p.pcie.gbps, 64.0);
        assert!(p.host.mem_bytes < 2_000_000_000);
    }

    #[test]
    fn transfer_time_includes_latency() {
        let l = LinkSpec {
            gbps: 10.0,
            latency_s: 1e-5,
        };
        let t = l.transfer_time(10_000_000_000); // 10 GB at 10 GB/s = 1 s
        assert!((t - 1.00001).abs() < 1e-9);
        assert_eq!(l.transfer_time(0), 1e-5);
    }

    #[test]
    fn h2d_bandwidth_saturates_with_many_gpus() {
        let p = PlatformSpec::rtx6000_ada_node(8);
        // 1 GPU: limited by its own PCIe link.
        assert_eq!(p.h2d_effective_gbps(1), 64.0);
        // 8 GPUs: limited by aggregate host bandwidth, 460/8 = 57.5.
        assert!((p.h2d_effective_gbps(8) - 57.5).abs() < 1e-9);
    }

    #[test]
    fn sm_rates_are_sane() {
        let g = GpuSpec::rtx6000_ada();
        // 128 cores × 2 × 2.5 GHz = 640 GFLOP/s per SM.
        assert!((g.sm_flops() - 640e9).abs() < 1e-3);
        // 960 GB/s over 142 SMs ≈ 6.76 GB/s each.
        assert!((g.sm_dram_bps() - 960e9 / 142.0).abs() < 1.0);
    }
}
