//! Runtime-equivalence suite: the engines must produce **bit-identical**
//! factors and **bit-identical** simulated timings to golden values captured
//! before the `amped-runtime` extraction (PR 3). Any refactor of the
//! execution path that changes a single floating-point operation — an
//! reordered addition in a transfer-time formula, a different list-schedule
//! order — trips these assertions.
//!
//! Golden discipline:
//!
//! * `tests/golden/runtime_equivalence.txt` was generated by running this
//!   suite with `GOLDEN_BLESS=1` on the pre-refactor tree and is committed.
//!   Re-blessing is only legitimate when a PR *intentionally* changes
//!   simulated timing (a cost-model change), never to silence a refactor.
//! * Simulated timings are deterministic by construction (the cost model
//!   sees only workload statistics). Every scenario that hashes factors
//!   uses `isp_nnz` at least as large as the shard/chunk capacity, so each
//!   grid has exactly one block and the kernel layer's direct path — the
//!   legacy `f32` element-order accumulation — is what the hashes pin.
//!   Multi-block grids are deterministic too (their partials fold in
//!   block-index order, whatever the worker count), but their bits are the
//!   kernel layer's contract, pinned by `tests/prop_kernel_runs.rs`; the
//!   multi-block scenario records modeled time only. The baseline
//!   scenarios (`equal_nnz`, `blco`, `parti`, `flycoo`) record modeled time
//!   and GPU memory peak: the baselines are models and compute no factors.

mod common;

use amped::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/runtime_equivalence.txt"
);

/// FNV-1a over a byte stream: stable, dependency-free bit fingerprint.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Bit fingerprint of a factor matrix: FNV-1a over the row-major `f32` bits.
fn factor_bits(m: &Mat) -> u64 {
    let mut h = Fnv::new();
    for r in 0..m.rows() {
        for &v in m.row(r) {
            h.update(&v.to_bits().to_le_bytes());
        }
    }
    h.0
}

/// One scenario's measurements: ordered `key → u64` (f64 bits or hashes).
type Record = BTreeMap<String, u64>;

fn record_report(rec: &mut Record, report: &RunReport) {
    rec.insert("total_time".into(), report.total_time.to_bits());
    for (d, w) in report.per_mode.iter().enumerate() {
        rec.insert(format!("mode{d}.wall"), w.to_bits());
    }
    for (g, b) in report.per_gpu.iter().enumerate() {
        rec.insert(format!("gpu{g}.compute"), b.compute.to_bits());
        rec.insert(format!("gpu{g}.h2d"), b.h2d.to_bits());
        rec.insert(format!("gpu{g}.d2h"), b.d2h.to_bits());
        rec.insert(format!("gpu{g}.p2p"), b.p2p.to_bits());
        rec.insert(format!("gpu{g}.host"), b.host.to_bits());
        rec.insert(format!("gpu{g}.idle"), b.idle.to_bits());
    }
}

fn record_factors(rec: &mut Record, factors: &[Mat]) {
    for (d, f) in factors.iter().enumerate() {
        rec.insert(format!("factor{d}.bits"), factor_bits(f));
    }
}

fn seeded_factors(shape: &[Idx], rank: usize, seed: u64) -> Vec<Mat> {
    let mut rng = SmallRng::seed_from_u64(seed);
    shape
        .iter()
        .map(|&d| Mat::random(d as usize, rank, &mut rng))
        .collect()
}

fn test_tensor() -> SparseTensor {
    GenSpec {
        shape: vec![80, 60, 70],
        nnz: 5000,
        skew: vec![0.8, 0.0, 0.4],
        seed: 81,
    }
    .generate()
}

/// `isp_nnz == shard_nnz_budget`: one block per shard → bit-deterministic
/// real execution (see module docs).
fn single_block_cfg(rank: usize) -> AmpedConfig {
    AmpedConfig {
        rank,
        isp_nnz: 1024,
        shard_nnz_budget: 1024,
    }
}

fn run_amped(cfg: AmpedConfig, gpus: usize, hash_factors: bool) -> Record {
    let t = test_tensor();
    let mut factors = seeded_factors(t.shape(), cfg.rank, 82);
    let mut e = AmpedEngine::new(&t, PlatformSpec::rtx6000_ada_node(gpus).scaled(1e-3), cfg)
        .expect("engine must construct");
    let report = e.mttkrp_all_modes(&mut factors).expect("run must succeed");
    let mut rec = Record::new();
    record_report(&mut rec, &report);
    if hash_factors {
        record_factors(&mut rec, &factors);
    }
    rec
}

fn scenario_amped_ring() -> Record {
    run_amped(single_block_cfg(8), 4, true)
}

/// The default configuration on 2 and 3 GPUs: factor bits stay pinned at
/// every GPU count from 2 to 4. The keys predate the deletion of the
/// host-staged gather and dynamic-queue scenarios that ran at these counts,
/// so that deletion is checked against them.
fn scenario_amped_ring_2gpu() -> Record {
    run_amped(single_block_cfg(8), 2, true)
}

fn scenario_amped_ring_3gpu() -> Record {
    run_amped(single_block_cfg(8), 3, true)
}

/// Multi-ISP grids: simulated time must stay bit-identical — check timing
/// only (see the module docs).
fn scenario_amped_multi_isp_timing() -> Record {
    let cfg = AmpedConfig {
        rank: 8,
        isp_nnz: 256,
        shard_nnz_budget: 1024,
    };
    run_amped(cfg, 4, false)
}

fn scenario_ooc() -> Record {
    let t = test_tensor();
    let dir = common::ScratchDir::new("runtime_equivalence");
    let path = dir.join("golden.tnsb");
    write_tnsb(&t, &path, 512).expect("write .tnsb");
    // Chunk capacity 512 < isp_nnz 1024 → one block per chunk grid.
    let cfg = single_block_cfg(8);
    let budget = 2 * 512 * t.elem_bytes();
    let mut e = OocEngine::open(
        &path,
        PlatformSpec::rtx6000_ada_node(3).scaled(1e-3),
        cfg,
        budget,
    )
    .expect("ooc engine must open");
    let mut factors = seeded_factors(t.shape(), 8, 82);
    let mut rec = Record::new();
    let mut total = 0.0f64;
    for d in 0..t.order() {
        let (out, timing) = MttkrpEngine::mttkrp_mode(&mut e, d, &factors).expect("mode runs");
        factors[d] = out;
        factors[d].normalize_cols();
        rec.insert(format!("mode{d}.wall"), timing.wall.to_bits());
        for (g, b) in timing.per_gpu.iter().enumerate() {
            rec.insert(format!("mode{d}.gpu{g}.compute"), b.compute.to_bits());
            rec.insert(format!("mode{d}.gpu{g}.h2d"), b.h2d.to_bits());
            rec.insert(format!("mode{d}.gpu{g}.p2p"), b.p2p.to_bits());
            rec.insert(format!("mode{d}.gpu{g}.idle"), b.idle.to_bits());
        }
        total += timing.wall;
    }
    rec.insert("total_time".into(), total.to_bits());
    record_factors(&mut rec, &factors);
    rec
}

/// One baseline system over the test tensor: its modeled report and GPU
/// memory peak. The baselines are models and compute no factors.
fn run_baseline(sys: &mut dyn MttkrpSystem) -> Record {
    let t = test_tensor();
    let factors = seeded_factors(t.shape(), 8, 82);
    let run = sys.execute(&t, &factors).expect("baseline must run");
    let mut rec = Record::new();
    record_report(&mut rec, &run.report);
    rec.insert("gpu_mem_peak".into(), run.gpu_mem_peak);
    rec
}

fn scenario_equal_nnz() -> Record {
    let mut sys = EqualNnzSystem::new(PlatformSpec::rtx6000_ada_node(4).scaled(1e-3));
    sys.isp_nnz = 256;
    sys.stream_nnz = 1024;
    run_baseline(&mut sys)
}

fn scenario_blco() -> Record {
    let mut sys = BlcoSystem::new(PlatformSpec::rtx6000_ada_node(1).scaled(1e-3));
    sys.block_nnz = 1024;
    sys.isp_nnz = 256;
    run_baseline(&mut sys)
}

fn scenario_parti() -> Record {
    let mut sys = PartiSystem::new(PlatformSpec::rtx6000_ada_node(1).scaled(1e-3));
    sys.isp_nnz = 256;
    run_baseline(&mut sys)
}

fn scenario_flycoo() -> Record {
    let mut sys = FlycooSystem::new(PlatformSpec::rtx6000_ada_node(1).scaled(1e-3));
    sys.isp_nnz = 256;
    run_baseline(&mut sys)
}

fn all_scenarios() -> Vec<(&'static str, Record)> {
    vec![
        ("amped_ring", scenario_amped_ring()),
        ("amped_ring_2gpu", scenario_amped_ring_2gpu()),
        ("amped_ring_3gpu", scenario_amped_ring_3gpu()),
        ("amped_multi_isp_timing", scenario_amped_multi_isp_timing()),
        ("ooc", scenario_ooc()),
        ("equal_nnz", scenario_equal_nnz()),
        ("blco", scenario_blco()),
        ("parti", scenario_parti()),
        ("flycoo", scenario_flycoo()),
    ]
}

fn render(scenarios: &[(&str, Record)]) -> String {
    let mut out = String::from(
        "# Golden runtime-equivalence values (pre-refactor capture).\n\
         # Regenerate ONLY for intentional timing changes: GOLDEN_BLESS=1 \
         cargo test --test runtime_equivalence\n\
         # Re-blessed once for the h2d/idle attribution fix (exposed-h2d \
         derived from the\n\
         # pipeline arrays; pipeline slack now lands in idle): only \
         .h2d/.idle keys changed,\n\
         # every wall, compute, p2p, total, and factor-bits key is the \
         original capture.\n\
         # Re-blessed once more, `ooc.*` keys only, when `.tnsb` gained \
         per-mode sorted sections:\n\
         # the out-of-core engine streams section d for mode d (a row \
         accumulates in sorted\n\
         # order, so factor bits move) and models each GPU streaming its own \
         slices through\n\
         # its own double buffer, priced as output-sorted blocks (every ooc \
         time moves). Every\n\
         # amped_* key is unchanged.\n\
         # The equal_nnz.*, blco.*, parti.* and flycoo.* keys were added \
         later, modeled time and GPU\n\
         # memory peak only; every key above them is unchanged.\n",
    );
    for (name, rec) in scenarios {
        for (key, bits) in rec {
            writeln!(out, "{name}.{key} {bits:016x}").expect("string write");
        }
    }
    out
}

#[test]
fn engines_match_pre_refactor_golden_bits() {
    let scenarios = all_scenarios();
    let rendered = render(&scenarios);
    let path = PathBuf::from(GOLDEN_PATH);
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(&path, &rendered).expect("write golden");
        eprintln!(
            "blessed {} entries to {}",
            rendered.lines().count(),
            path.display()
        );
        return;
    }
    let golden =
        std::fs::read_to_string(&path).expect("golden file missing — run once with GOLDEN_BLESS=1");
    let mut want = BTreeMap::new();
    for line in golden.lines() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let (key, hex) = line.split_once(' ').expect("golden line is `key hex`");
        let bits = u64::from_str_radix(hex.trim(), 16).expect("golden value is hex u64");
        want.insert(key.to_string(), bits);
    }
    let mut got = BTreeMap::new();
    for (name, rec) in &scenarios {
        for (key, bits) in rec {
            got.insert(format!("{name}.{key}"), *bits);
        }
    }
    let mut mismatches = Vec::new();
    for (key, want_bits) in &want {
        match got.get(key) {
            None => mismatches.push(format!("missing measurement {key}")),
            Some(g) if g != want_bits => mismatches.push(format!(
                "{key}: golden {want_bits:016x} vs current {g:016x}"
            )),
            _ => {}
        }
    }
    for key in got.keys() {
        if !want.contains_key(key) {
            mismatches.push(format!("new measurement {key} not in golden"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "engines diverged from pre-refactor golden bits:\n{}",
        mismatches.join("\n")
    );
}

/// The suite itself must be reproducible: two fresh engine constructions in
/// the same process produce the same bits (guards against accidental
/// nondeterminism in the scenarios, which would make the golden meaningless).
#[test]
fn scenarios_are_bit_reproducible_in_process() {
    let a = scenario_amped_ring();
    let b = scenario_amped_ring();
    assert_eq!(a, b, "amped_ring scenario is nondeterministic");
    let a = scenario_ooc();
    let b = scenario_ooc();
    assert_eq!(a, b, "ooc scenario is nondeterministic");
}
