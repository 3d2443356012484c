//! Device identities and the per-device state a runtime backend owns.

use amped_sim::{LinkSpec, MemPool, PlatformSpec, SimError};

/// A memory/execution site on the platform.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Device {
    /// The host CPU and its memory.
    Host,
    /// GPU `g` (index into [`PlatformSpec::gpus`]).
    Gpu(usize),
}

impl std::fmt::Display for Device {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Device::Host => write!(f, "host"),
            Device::Gpu(g) => write!(f, "gpu{g}"),
        }
    }
}

/// The device set a runtime backend owns: the node's [`PlatformSpec`], one
/// tracked [`MemPool`] for the host and one per GPU.
///
/// Capacity limits come straight from the spec, so out-of-memory outcomes
/// keep emerging from allocation arithmetic (DESIGN.md §1) no matter which
/// backend drives execution.
#[derive(Clone, Debug)]
pub struct Platform {
    spec: PlatformSpec,
    host: MemPool,
    gpus: Vec<MemPool>,
}

impl Platform {
    /// Builds the device set: pool `gpu{g}` per GPU, `host` for the CPU side.
    pub fn new(spec: PlatformSpec) -> Self {
        let gpus = spec
            .gpus
            .iter()
            .enumerate()
            .map(|(g, gs)| MemPool::new(format!("gpu{g}"), gs.mem_bytes))
            .collect();
        let host = MemPool::new("host", spec.host.mem_bytes);
        Self { spec, host, gpus }
    }

    /// The hardware specification.
    pub fn spec(&self) -> &PlatformSpec {
        &self.spec
    }

    /// The effective host→device link when `active` GPUs stream
    /// concurrently. The host serves only this node's GPUs, so the
    /// aggregate-bandwidth contention caps at the GPU count.
    pub fn h2d_link(&self, active: usize) -> LinkSpec {
        LinkSpec {
            gbps: self
                .spec
                .h2d_effective_gbps(active.min(self.spec.num_gpus())),
            latency_s: self.spec.pcie.latency_s,
        }
    }

    /// The memory pool of `device`.
    ///
    /// # Panics
    /// Panics on a GPU index outside the platform — addressing a device that
    /// does not exist is a bug in the system under simulation.
    pub fn mem(&self, device: Device) -> &MemPool {
        match device {
            Device::Host => &self.host,
            Device::Gpu(g) => &self.gpus[g],
        }
    }

    /// Mutable access to the memory pool of `device` (for backends).
    pub fn mem_mut(&mut self, device: Device) -> &mut MemPool {
        match device {
            Device::Host => &mut self.host,
            Device::Gpu(g) => &mut self.gpus[g],
        }
    }

    /// Allocates on `device`, tagging the allocation purpose for OOM errors.
    pub fn alloc(&mut self, device: Device, bytes: u64, purpose: &str) -> Result<(), SimError> {
        self.mem_mut(device).alloc(bytes, purpose)
    }

    /// Frees on `device`.
    pub fn free(&mut self, device: Device, bytes: u64) {
        self.mem_mut(device).free(bytes);
    }

    /// Peak GPU memory charged, in bytes (max over GPUs).
    pub fn gpu_mem_peak(&self) -> u64 {
        self.gpus.iter().map(|p| p.peak()).max().unwrap_or(0)
    }

    /// Releases every allocation and clears high-water marks on all pools —
    /// the start of a fresh run (baseline systems call this between
    /// `execute` invocations).
    pub fn reset_mem(&mut self) {
        self.host.clear();
        for p in &mut self.gpus {
            p.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn platform_builds_one_pool_per_gpu() {
        let p = Platform::new(PlatformSpec::rtx6000_ada_node(3));
        assert_eq!(p.spec().num_gpus(), 3);
        assert_eq!(p.mem(Device::Gpu(2)).label(), "gpu2");
        assert_eq!(p.mem(Device::Host).label(), "host");
        assert_eq!(p.mem(Device::Gpu(0)).capacity(), p.spec().gpus[0].mem_bytes);
    }

    #[test]
    fn alloc_and_peak_track_per_device() {
        let mut p = Platform::new(PlatformSpec::rtx6000_ada_node(2).scaled(1e-3));
        p.alloc(Device::Gpu(0), 1000, "factor matrices").unwrap();
        p.alloc(Device::Gpu(1), 500, "factor matrices").unwrap();
        p.alloc(Device::Host, 2000, "tensor copies").unwrap();
        assert_eq!(p.gpu_mem_peak(), 1000);
        p.free(Device::Gpu(0), 1000);
        assert_eq!(p.mem(Device::Gpu(0)).used(), 0);
        assert_eq!(p.gpu_mem_peak(), 1000, "peak survives frees");
        p.reset_mem();
        assert_eq!(p.gpu_mem_peak(), 0, "reset clears peaks for a fresh run");
        assert_eq!(p.mem(Device::Host).used(), 0);
    }

    #[test]
    fn oom_carries_device_label_and_purpose() {
        let mut p = Platform::new(PlatformSpec::rtx6000_ada_node(1).scaled(1e-6));
        let cap = p.mem(Device::Gpu(0)).capacity();
        let err = p
            .alloc(Device::Gpu(0), cap + 1, "two tensor copies")
            .unwrap_err();
        assert!(err.is_oom());
        let msg = err.to_string();
        assert!(
            msg.contains("gpu0") && msg.contains("two tensor copies"),
            "{msg}"
        );
    }

    #[test]
    #[should_panic]
    fn out_of_range_gpu_panics() {
        let p = Platform::new(PlatformSpec::rtx6000_ada_node(1));
        let _ = p.mem(Device::Gpu(5));
    }
}
