//! # `amped-tune` — searched execution parameters with a persistent cache
//!
//! Every [`TuneParams`] knob is numerics-transparent by construction (see
//! `amped_runtime::params`), which makes them safe to *search*: this crate
//! benchmarks a small candidate grid on a subsampled shard of the real
//! tensor and remembers the winner. The search costs a few milliseconds and
//! runs once per *(backend fingerprint, bucketed tensor stats)* pair —
//! results persist in an on-disk JSON cache, so a warm process re-running
//! the same workload performs **zero** searches (observable through the
//! `tune_searches` / `tune_cache_hits` counters).
//!
//! The cache key deliberately buckets the tensor statistics (nonzero count
//! to a power of two, exact order and rank): parameters that win on a 100k
//! sample of a tensor win on the 130k version too, and coarse keys keep the
//! cache small and the hit rate high.
//!
//! A corrupt cache file — or one written in another format version — is a
//! *recoverable* condition, never a panic: the tuner warns once, starts
//! cold, and overwrites the file on the next successful search.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use amped_linalg::Mat;
use amped_runtime::kernels::{even_blocks, mttkrp_host, CompiledShard, FactorsView, MttkrpOut};
use amped_runtime::TuneParams;
use amped_sim::host_workers;
use amped_sim::obs::{warn_once, Counter, MetricsRegistry};
use amped_tensor::gen::GenSpec;
use amped_tensor::{Idx, SparseTensor, Val};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde_json::Value;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The integration tests' scratch-directory helper, shared by this crate's
/// unit tests: one unique-per-call directory, removed on drop.
#[cfg(test)]
#[path = "../../../tests/common/mod.rs"]
mod common;

/// Largest probe shard the search benchmarks candidates on. Subsampling is
/// strided, so the probe keeps the original's index distribution.
pub const MAX_PROBE_NNZ: usize = 32_768;

/// Timed probe runs per candidate; the minimum is taken (the first run
/// doubles as warmup and is timed like the rest — on a quiet machine it
/// simply never wins).
const PROBE_RUNS: usize = 4;

/// Cache format version written and accepted. Version 1 files hold winners
/// scored on the tile or on PR 9's compiled kernel (and may carry a
/// `dispatch` field), not on what the engines launch: they are re-searched.
const CACHE_VERSION: f64 = 2.0;

/// The tensor-shape facts a search is keyed and provisioned by. Obtainable
/// without touching payload data — the out-of-core engine builds one from
/// the `.tnsb` footer alone.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TensorStats {
    /// Mode sizes.
    pub dims: Vec<Idx>,
    /// Total nonzero count.
    pub nnz: u64,
    /// CP rank the kernels will run at.
    pub rank: usize,
}

impl TensorStats {
    /// Stats of an in-core tensor at decomposition rank `rank`.
    pub fn of_tensor(t: &SparseTensor, rank: usize) -> Self {
        Self {
            dims: t.shape().to_vec(),
            nnz: t.nnz() as u64,
            rank,
        }
    }

    /// Tensor order.
    pub fn order(&self) -> usize {
        self.dims.len()
    }

    /// Power-of-two nonzero bucket: `floor(log2(nnz))`, 0 for empty.
    pub fn nnz_bucket(&self) -> u32 {
        63 - self.nnz.max(1).leading_zeros()
    }
}

/// The backend half of a cache key: the runtime's name
/// ([`amped_runtime::DeviceRuntime::name`]) plus the host worker budget —
/// a winner searched with 8 workers says nothing about a 1-worker host.
pub fn backend_fingerprint(runtime_name: &str) -> String {
    format!("{}-w{}", runtime_name, host_workers())
}

/// Cache load/store failure. Always recoverable: the tuner falls back to a
/// cold search and rewrites the file on the next persist.
#[derive(Debug)]
pub enum TuneError {
    /// The cache file could not be read or written.
    Io {
        /// Offending path.
        path: PathBuf,
        /// OS error text.
        message: String,
    },
    /// The cache file exists but does not parse as a tune cache.
    Malformed {
        /// Offending path.
        path: PathBuf,
        /// What was wrong.
        message: String,
    },
    /// The cache file was written in another format version (or none): its
    /// winners were scored on a kernel the engines no longer launch.
    Version {
        /// Offending path.
        path: PathBuf,
        /// The `"version"` found; `None` when absent or not a number.
        found: Option<f64>,
    },
}

impl fmt::Display for TuneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TuneError::Io { path, message } => {
                write!(f, "tune cache {}: {message}", path.display())
            }
            TuneError::Malformed { path, message } => {
                write!(f, "tune cache {} is malformed: {message}", path.display())
            }
            TuneError::Version { path, found } => write!(
                f,
                "tune cache {} has format version {found:?}, not {CACHE_VERSION}",
                path.display()
            ),
        }
    }
}

impl std::error::Error for TuneError {}

/// The autotuner: a `(backend, bucketed stats) → TuneParams` memo with an
/// optional JSON file behind it.
///
/// Construction never fails; a missing cache file is a cold start and a
/// corrupt one is recovered from (see [`Autotuner::load_error`]). Counters
/// are detached no-ops until [`Autotuner::attach_metrics`].
#[derive(Debug)]
pub struct Autotuner {
    cache_path: Option<PathBuf>,
    entries: BTreeMap<String, TuneParams>,
    load_error: Option<TuneError>,
    searches: Counter,
    hits: Counter,
}

impl Autotuner {
    /// A tuner with no backing file: searches are remembered for the
    /// process lifetime only.
    pub fn in_memory() -> Self {
        Self {
            cache_path: None,
            entries: BTreeMap::new(),
            load_error: None,
            searches: Counter::default(),
            hits: Counter::default(),
        }
    }

    /// A tuner backed by the JSON cache at `path`. A missing file means a
    /// cold cache; an unreadable or corrupt file is reported through
    /// [`warn_once`] and [`Autotuner::load_error`], and the tuner starts
    /// cold (the next persisted search overwrites the poison).
    pub fn with_cache(path: impl Into<PathBuf>) -> Self {
        let path = path.into();
        let (entries, load_error) = match Self::load_cache(&path) {
            Ok(map) => (map, None),
            Err(e) => {
                warn_once(
                    "tune-cache-poisoned",
                    &format!("{e}; starting with an empty tune cache"),
                );
                (BTreeMap::new(), Some(e))
            }
        };
        Self {
            cache_path: Some(path),
            entries,
            load_error,
            searches: Counter::default(),
            hits: Counter::default(),
        }
    }

    /// Binds the `tune_searches` / `tune_cache_hits` counters to `registry`
    /// so runs can assert "the warm run performed no search".
    pub fn attach_metrics(&mut self, registry: &MetricsRegistry) {
        self.searches = registry.counter("tune_searches");
        self.hits = registry.counter("tune_cache_hits");
    }

    /// The error the initial cache load recovered from, if any.
    pub fn load_error(&self) -> Option<&TuneError> {
        self.load_error.as_ref()
    }

    /// Cached entries (key → winner), e.g. for reports.
    pub fn entries(&self) -> &BTreeMap<String, TuneParams> {
        &self.entries
    }

    /// The cache key of `stats` on `backend` (see [`backend_fingerprint`]).
    pub fn cache_key(backend: &str, stats: &TensorStats) -> String {
        format!(
            "{backend}/o{}/r{}/nnz2p{}",
            stats.order(),
            stats.rank,
            stats.nnz_bucket()
        )
    }

    /// Parameters for running `t` at rank `rank` on `backend`: a cache hit,
    /// or a grid search benchmarked on a strided subsample of `t`
    /// (persisted when the tuner has a backing file).
    pub fn params_for_tensor(
        &mut self,
        backend: &str,
        t: &SparseTensor,
        rank: usize,
    ) -> TuneParams {
        let key = Self::cache_key(backend, &TensorStats::of_tensor(t, rank));
        self.cached_or(key, || search_grid(t, rank))
    }

    /// Parameters for a tensor known only by its [`TensorStats`] (the
    /// out-of-core case: the payload may not fit in memory, so the probe
    /// shard is *synthesized* to the stats — same order, dims, and nonzero
    /// bucket). Cache and counters behave as in
    /// [`Autotuner::params_for_tensor`].
    pub fn params_for_stats(&mut self, backend: &str, stats: &TensorStats) -> TuneParams {
        self.cached_or(Self::cache_key(backend, stats), || {
            let sample = (stats.nnz.min(MAX_PROBE_NNZ as u64) as usize).max(1);
            let probe = GenSpec::uniform(stats.dims.clone(), sample, 0xA11CED).generate();
            search_grid(&probe, stats.rank)
        })
    }

    /// The entry cached under `key`, or the result of `search` — counted,
    /// remembered and persisted.
    fn cached_or(&mut self, key: String, search: impl FnOnce() -> TuneParams) -> TuneParams {
        if let Some(&p) = self.entries.get(&key) {
            self.hits.inc();
            return p;
        }
        self.searches.inc();
        let p = search();
        self.entries.insert(key, p);
        self.persist_best_effort();
        p
    }

    /// Loads a cache file. A missing file is an empty cache; anything else
    /// that fails — a file of another format version included — is a
    /// [`TuneError`].
    pub fn load_cache(path: &Path) -> Result<BTreeMap<String, TuneParams>, TuneError> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(BTreeMap::new()),
            Err(e) => {
                return Err(TuneError::Io {
                    path: path.to_path_buf(),
                    message: e.to_string(),
                })
            }
        };
        let malformed = |message: String| TuneError::Malformed {
            path: path.to_path_buf(),
            message,
        };
        let root = serde_json::from_str(&text).map_err(|e| malformed(e.to_string()))?;
        let Value::Obj(fields) = &root else {
            return Err(malformed("top level is not an object".into()));
        };
        let found = fields.iter().find_map(|(k, v)| match v {
            Value::Num(x) if k == "version" => Some(*x),
            _ => None,
        });
        if found != Some(CACHE_VERSION) {
            let path = path.to_path_buf();
            return Err(TuneError::Version { path, found });
        }
        let entries = fields
            .iter()
            .find(|(k, _)| k == "entries")
            .map(|(_, v)| v)
            .ok_or_else(|| malformed("missing \"entries\"".into()))?;
        let Value::Obj(entry_fields) = entries else {
            return Err(malformed("\"entries\" is not an object".into()));
        };
        let mut map = BTreeMap::new();
        for (key, v) in entry_fields {
            let Value::Obj(param_fields) = v else {
                return Err(malformed(format!("entry {key:?} is not an object")));
            };
            let field = |name: &str| -> Result<usize, TuneError> {
                let n = param_fields
                    .iter()
                    .find(|(k, _)| k == name)
                    .map(|(_, v)| v)
                    .ok_or_else(|| malformed(format!("entry {key:?} lacks {name:?}")))?;
                match n {
                    Value::Num(x) if *x >= 0.0 && x.fract() == 0.0 => Ok(*x as usize),
                    other => Err(malformed(format!(
                        "entry {key:?} field {name:?} is not a whole number: {other:?}"
                    ))),
                }
            };
            map.insert(
                key.clone(),
                TuneParams {
                    rank_chunk: field("rank_chunk")?,
                    workers: field("workers")?,
                    ooc_chunk_budget: field("ooc_chunk_budget")?,
                    prefetch_depth: field("prefetch_depth")?,
                },
            );
        }
        Ok(map)
    }

    /// Writes the cache file (write-temp-then-rename, so a crash never
    /// leaves a half-written cache).
    pub fn persist(&self) -> Result<(), TuneError> {
        let Some(path) = &self.cache_path else {
            return Ok(());
        };
        let entries = Value::Obj(
            self.entries
                .iter()
                .map(|(k, p)| {
                    (
                        k.clone(),
                        Value::Obj(vec![
                            ("rank_chunk".into(), Value::Num(p.rank_chunk as f64)),
                            ("workers".into(), Value::Num(p.workers as f64)),
                            (
                                "ooc_chunk_budget".into(),
                                Value::Num(p.ooc_chunk_budget as f64),
                            ),
                            ("prefetch_depth".into(), Value::Num(p.prefetch_depth as f64)),
                        ]),
                    )
                })
                .collect(),
        );
        let root = Value::Obj(vec![
            ("version".into(), Value::Num(CACHE_VERSION)),
            ("entries".into(), entries),
        ]);
        let text = serde_json::to_string_pretty(&root).expect("value tree renders");
        let io_err = |e: std::io::Error| TuneError::Io {
            path: path.clone(),
            message: e.to_string(),
        };
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(io_err)?;
        }
        let tmp = path.with_extension("json.tmp");
        std::fs::write(&tmp, text).map_err(io_err)?;
        std::fs::rename(&tmp, path).map_err(io_err)?;
        Ok(())
    }

    fn persist_best_effort(&self) {
        if let Err(e) = self.persist() {
            warn_once(
                "tune-cache-persist",
                &format!("{e}; tune results will not survive this process"),
            );
        }
    }
}

/// Strided subsample of at most `max` nonzeros: `(flat coords, values)` in
/// the `k × order` layout the probe kernel reads.
fn subsample(t: &SparseTensor, max: usize) -> (Vec<Idx>, Vec<Val>) {
    let nnz = t.nnz();
    let order = t.order();
    let stride = nnz.div_ceil(max.max(1)).max(1);
    let mut coords = Vec::new();
    let mut vals = Vec::new();
    let mut e = 0;
    while e < nnz {
        for m in 0..order {
            coords.push(t.idx(e, m));
        }
        vals.push(t.value(e));
        e += stride;
    }
    (coords, vals)
}

/// Benchmarks the [`candidates`] on a strided subsample of `t` and returns
/// the fastest, timed on the kernel the engines launch: the subsample is
/// sorted by mode 0 once, outside the timing loop, and every candidate runs
/// the kernel layer's run path over that copy in `4 × workers` blocks.
///
/// Per-mode indices are compacted to first-seen ranks so factor matrices
/// stay probe-sized even for billion-row modes; compaction preserves the
/// access *pattern* (reuse distances and run structure), which is what the
/// candidates differ on.
fn search_grid(t: &SparseTensor, rank: usize) -> TuneParams {
    let (order, rank) = (t.order(), rank.max(1));
    let (coords, vals) = subsample(t, MAX_PROBE_NNZ);
    let k = vals.len();
    if k == 0 {
        return TuneParams::default();
    }
    let mut dims = vec![0usize; order];
    let mut remapped = vec![0 as Idx; coords.len()];
    for m in 0..order {
        let mut ranks: HashMap<Idx, Idx> = HashMap::new();
        for e in 0..k {
            let next = ranks.len() as Idx;
            let id = *ranks.entry(coords[e * order + m]).or_insert(next);
            remapped[e * order + m] = id;
        }
        dims[m] = ranks.len().max(1);
    }
    let mut rng = SmallRng::seed_from_u64(0xA11CED);
    let factors: Vec<Mat> = dims
        .iter()
        .map(|&d| Mat::random(d, rank, &mut rng))
        .collect();
    let views = FactorsView::new(factors.iter().map(|f| f.as_slice()).collect(), rank);
    let out = MttkrpOut::zeros(dims[0], rank);
    let sorted = CompiledShard::compile(&remapped, &vals, order, 0);
    let src = sorted.sorted_coo();

    let mut best = TuneParams::default();
    let mut best_elapsed = f64::INFINITY;
    for cand in candidates(rank) {
        let blocks = even_blocks(k, 4 * cand.workers);
        for _ in 0..PROBE_RUNS {
            let t0 = Instant::now();
            mttkrp_host(&src, &views, &blocks, &cand, &out);
            let elapsed = t0.elapsed().as_secs_f64();
            if elapsed < best_elapsed {
                best_elapsed = elapsed;
                best = cand;
            }
        }
    }
    best
}

/// The searched grid at `rank`: the tile widths that actually differ at this
/// rank, crossed with serial vs the full worker pool; the OOC pipeline knobs
/// keep their defaults. Every entry is bit-transparent
/// (`tests/autotune_engine.rs` runs both engines under each).
pub fn candidates(rank: usize) -> Vec<TuneParams> {
    let mut rank_chunks = vec![8usize, 32, 256];
    rank_chunks.dedup_by_key(|rc| (*rc).min(rank));
    let mut pools = vec![1, host_workers()];
    pools.dedup();
    let mut grid = Vec::new();
    for &workers in &pools {
        for &rank_chunk in &rank_chunks {
            grid.push(TuneParams {
                rank_chunk,
                workers,
                ..TuneParams::default()
            });
        }
    }
    grid
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::ScratchDir;

    fn tensor() -> SparseTensor {
        GenSpec::uniform(vec![50, 40, 30], 3000, 17).generate()
    }

    #[test]
    fn search_persist_reload_round_trips_exactly() {
        let dir = ScratchDir::new("tune");
        let path = dir.join("roundtrip.json");
        let reg = MetricsRegistry::new();
        let t = tensor();

        let mut cold = Autotuner::with_cache(&path);
        cold.attach_metrics(&reg);
        assert!(cold.load_error().is_none(), "missing file is a cold start");
        let p1 = cold.params_for_tensor("sim-w4", &t, 16);
        assert_eq!(reg.counter_value("tune_searches", &[]), 1);
        assert_eq!(reg.counter_value("tune_cache_hits", &[]), 0);

        // Same process, same key: memo hit, no new search.
        let p2 = cold.params_for_tensor("sim-w4", &t, 16);
        assert_eq!(p1, p2);
        assert_eq!(reg.counter_value("tune_searches", &[]), 1);
        assert_eq!(reg.counter_value("tune_cache_hits", &[]), 1);

        // Fresh tuner over the persisted file: the entry reloads exactly
        // and the warm lookup performs no search.
        let mut warm = Autotuner::with_cache(&path);
        warm.attach_metrics(&reg);
        assert_eq!(warm.entries(), cold.entries(), "cache round-trips exactly");
        let p3 = warm.params_for_tensor("sim-w4", &t, 16);
        assert_eq!(p1, p3);
        assert_eq!(reg.counter_value("tune_searches", &[]), 1);
        assert_eq!(reg.counter_value("tune_cache_hits", &[]), 2);

        // A different backend fingerprint is a different key.
        let _ = warm.params_for_tensor("sim-w1", &t, 16);
        assert_eq!(reg.counter_value("tune_searches", &[]), 2);
    }

    #[test]
    fn poisoned_cache_is_a_recoverable_error_and_research_never_panics() {
        let dir = ScratchDir::new("tune");
        let path = dir.join("poisoned.json");
        std::fs::write(&path, "{ this is not json").expect("write poison");
        assert!(
            matches!(
                Autotuner::load_cache(&path),
                Err(TuneError::Malformed { .. })
            ),
            "corrupt file must surface as a recoverable Malformed error"
        );

        let reg = MetricsRegistry::new();
        let mut tuner = Autotuner::with_cache(&path);
        tuner.attach_metrics(&reg);
        assert!(tuner.load_error().is_some(), "poisoning is reported");
        let t = tensor();
        let p = tuner.params_for_tensor("sim-w4", &t, 8);
        assert_eq!(reg.counter_value("tune_searches", &[]), 1, "re-searched");
        assert!(p.effective_rank_chunk() >= 1);

        // The search overwrote the poison: the file now loads cleanly.
        let reloaded = Autotuner::load_cache(&path).expect("healed cache loads");
        assert_eq!(&reloaded, tuner.entries());
    }

    #[test]
    fn structurally_invalid_caches_are_malformed_not_panics() {
        let dir = ScratchDir::new("tune");
        for (name, body) in [
            ("arr.json", "[1, 2, 3]"),
            ("noentries.json", r#"{"version": 2}"#),
            ("badentry.json", r#"{"version": 2, "entries": {"k": 7}}"#),
            (
                "badfield.json",
                r#"{"version": 2, "entries": {"k": {"rank_chunk": -2.5}}}"#,
            ),
            (
                "missingfield.json",
                r#"{"version": 2, "entries": {"k": {"rank_chunk": 32}}}"#,
            ),
        ] {
            let path = dir.join(name);
            std::fs::write(&path, body).expect("write");
            assert!(
                matches!(
                    Autotuner::load_cache(&path),
                    Err(TuneError::Malformed { .. })
                ),
                "{name} should be Malformed"
            );
        }
    }

    #[test]
    fn stats_only_path_caches_like_the_tensor_path() {
        let reg = MetricsRegistry::new();
        let mut tuner = Autotuner::in_memory();
        tuner.attach_metrics(&reg);
        let stats = TensorStats {
            dims: vec![60, 50, 40],
            nnz: 4000,
            rank: 16,
        };
        let p1 = tuner.params_for_stats("sim-w4", &stats);
        let p2 = tuner.params_for_stats("sim-w4", &stats);
        assert_eq!(p1, p2);
        assert_eq!(reg.counter_value("tune_searches", &[]), 1);
        assert_eq!(reg.counter_value("tune_cache_hits", &[]), 1);
    }

    #[test]
    fn other_version_caches_are_researched_and_rewritten() {
        // A v1 file: its winner was scored on the tile or the compiled
        // kernel, and it carries the retired `dispatch` field.
        let dir = ScratchDir::new("tune");
        let path = dir.join("v1.json");
        let t = tensor();
        let key = Autotuner::cache_key("sim-w4", &TensorStats::of_tensor(&t, 16));
        let v1 = format!(
            r#"{{"version": 1, "entries": {{"{key}": {{"rank_chunk": 8, "workers": 1,
                "ooc_chunk_budget": 2, "prefetch_depth": 1, "dispatch": 1}}}}}}"#
        );
        std::fs::write(&path, v1).expect("write");
        std::fs::write(dir.join("none.json"), r#"{"entries": {}}"#).expect("write");
        for (file, want) in [("v1.json", Some(1.0)), ("none.json", None)] {
            assert!(matches!(
                Autotuner::load_cache(&dir.join(file)),
                Err(TuneError::Version { found, .. }) if found == want
            ));
        }

        // Never reused silently: the matching key is searched again, once…
        let reg = MetricsRegistry::new();
        let mut stale = Autotuner::with_cache(&path);
        stale.attach_metrics(&reg);
        assert!(
            stale.load_error().is_some(),
            "the stale version is reported"
        );
        let p = stale.params_for_tensor("sim-w4", &t, 16);
        assert_eq!(reg.counter_value("tune_searches", &[]), 1);
        assert_eq!(reg.counter_value("tune_cache_hits", &[]), 0);

        // …the file is rewritten as v2 and the next construction is a pure
        // cache hit.
        let text = std::fs::read_to_string(&path).expect("rewritten");
        assert!(text.contains("\"version\": 2") && !text.contains("dispatch"));
        let mut warm = Autotuner::with_cache(&path);
        warm.attach_metrics(&reg);
        assert!(warm.load_error().is_none());
        assert_eq!(warm.params_for_tensor("sim-w4", &t, 16), p);
        assert_eq!(reg.counter_value("tune_searches", &[]), 1);
        assert_eq!(reg.counter_value("tune_cache_hits", &[]), 1);
    }

    #[test]
    fn nnz_bucketing_is_log2() {
        let stats = |nnz| TensorStats {
            dims: vec![4, 4],
            nnz,
            rank: 8,
        };
        assert_eq!(stats(0).nnz_bucket(), 0);
        assert_eq!(stats(1).nnz_bucket(), 0);
        assert_eq!(stats(1023).nnz_bucket(), 9);
        assert_eq!(stats(1024).nnz_bucket(), 10);
        // 100k and 130k share a bucket — the coarseness is the point.
        assert_eq!(stats(100_000).nnz_bucket(), stats(130_000).nnz_bucket());
    }

    #[test]
    fn winner_is_a_valid_parameterization() {
        let t = tensor();
        let mut tuner = Autotuner::in_memory();
        let p = tuner.params_for_tensor("sim-w4", &t, 16);
        assert!((1..=amped_runtime::MAX_RANK_CHUNK).contains(&p.effective_rank_chunk()));
        assert!(p.effective_workers() >= 1);
        assert_eq!(p.ooc_chunk_budget, TuneParams::default().ooc_chunk_budget);
        assert_eq!(p.prefetch_depth, TuneParams::default().prefetch_depth);
    }
}
