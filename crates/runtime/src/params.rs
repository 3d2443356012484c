//! Tunable execution parameters: the knobs the autotuner searches.
//!
//! Until PR 8 every one of these was a hardcoded constant (`RANK_CHUNK =
//! 32`, `host_workers()` everywhere, a strictly blocking OOC loop). They now
//! travel as one [`TuneParams`] value carried by a
//! [`crate::DeviceRuntime`] (see [`crate::DeviceRuntime::set_tune`]) and
//! consulted by the kernel layer and the engines. The `amped-tune` crate
//! searches a small candidate grid per (backend, tensor-stats bucket) and
//! caches the winner; everything here must therefore be *behaviorally
//! transparent*: any valid `TuneParams` produces the same numerics, only
//! different wall time. All four fields are, with no exception — which
//! path a launch takes is decided by the launch (its block count), never by
//! a field here.
//!
//! * `rank_chunk` is bit-transparent on every kernel path because rank
//!   blocking tiles the factor-*column* loop while each output cell still
//!   accumulates over elements in element order (see the kernel module
//!   docs).
//! * `workers` only changes how blocks are claimed; the direct path has one
//!   block and the run path folds its edge partials in block-index order,
//!   so results are worker-count independent by construction.
//! * `ooc_chunk_budget` / `prefetch_depth` only move chunk *reads* in time;
//!   chunks are still computed in section order on the main thread.

use amped_sim::host_workers;

/// Widest supported factor-column tile: the kernels' stack-allocated
/// Hadamard partial holds this many columns, and [`TuneParams::rank_chunk`]
/// is clamped to it.
pub const MAX_RANK_CHUNK: usize = 256;

/// Searched kernel/pipeline parameters. `Default` reproduces the
/// pre-autotuner behavior bit for bit: the historical rank tile of 32,
/// the `host_workers()` pool, and a double-buffered OOC pipeline (which is
/// numerically identical to the blocking loop it replaced).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TuneParams {
    /// Factor-column tile width (Tensor Toolbox's `rchunk`), clamped to
    /// `1..=`[`MAX_RANK_CHUNK`] at use sites.
    pub rank_chunk: usize,
    /// Host threads executing kernel blocks; `0` means "auto" — resolve
    /// [`amped_sim::host_workers`] at launch time (the historical default,
    /// `AMPED_THREADS`-aware).
    pub workers: usize,
    /// Target number of simultaneously resident OOC chunks (≥ 1). Two
    /// buffers give the classic compute/prefetch overlap; the engine
    /// degrades gracefully (with a one-shot warning) when the staging
    /// budget cannot hold that many.
    pub ooc_chunk_budget: usize,
    /// How many chunks the OOC pipeline stages ahead of compute. `0`
    /// restores the strictly blocking read-then-compute loop. Effective
    /// depth is additionally capped at `ooc_chunk_budget - 1`.
    pub prefetch_depth: usize,
}

impl Default for TuneParams {
    fn default() -> Self {
        Self {
            rank_chunk: 32,
            workers: 0,
            ooc_chunk_budget: 2,
            prefetch_depth: 1,
        }
    }
}

impl TuneParams {
    /// The worker count to actually use: `workers`, or the
    /// [`amped_sim::host_workers`] default when `workers == 0`.
    pub fn effective_workers(&self) -> usize {
        if self.workers == 0 {
            host_workers()
        } else {
            self.workers
        }
    }

    /// `rank_chunk` clamped to the supported `1..=`[`MAX_RANK_CHUNK`] range.
    pub fn effective_rank_chunk(&self) -> usize {
        self.rank_chunk.clamp(1, MAX_RANK_CHUNK)
    }

    /// Prefetch depth after the chunk-budget cap: staging more chunks than
    /// `ooc_chunk_budget - 1` ahead could never be resident simultaneously.
    pub fn effective_prefetch(&self) -> usize {
        self.prefetch_depth
            .min(self.ooc_chunk_budget.saturating_sub(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_the_historical_constants() {
        let t = TuneParams::default();
        assert_eq!(t.rank_chunk, 32);
        assert_eq!(t.workers, 0, "auto: resolve host_workers() at launch");
        assert_eq!(t.effective_workers(), host_workers());
        assert_eq!(t.ooc_chunk_budget, 2);
        assert_eq!(t.prefetch_depth, 1);
        assert_eq!(t.effective_prefetch(), 1);
    }

    #[test]
    fn rank_chunk_is_clamped() {
        let t = TuneParams {
            rank_chunk: 0,
            ..Default::default()
        };
        assert_eq!(t.effective_rank_chunk(), 1);
        let t = TuneParams {
            rank_chunk: 100_000,
            ..Default::default()
        };
        assert_eq!(t.effective_rank_chunk(), MAX_RANK_CHUNK);
    }

    #[test]
    fn prefetch_is_capped_by_the_chunk_budget() {
        let t = TuneParams {
            ooc_chunk_budget: 1,
            prefetch_depth: 4,
            ..Default::default()
        };
        assert_eq!(t.effective_prefetch(), 0, "one buffer means no overlap");
        let t = TuneParams {
            ooc_chunk_budget: 3,
            prefetch_depth: 4,
            ..Default::default()
        };
        assert_eq!(t.effective_prefetch(), 2);
    }
}
