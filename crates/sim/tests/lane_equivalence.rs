//! Seeded property suite for the concurrent execution modes (see
//! DESIGN.md §13).
//!
//! `batch_equivalence.rs` proves the single-core batched loop reproduces
//! the scalar oracle byte-for-byte at every batch size; this suite
//! extends the same bar to the lane-concurrent and shared-hierarchy
//! modes:
//!
//! * **Partitioned lanes** — `run_multicore_lanes` drives one batched
//!   `Machine` per lane on its own thread; every lane's `CoreStats` must
//!   equal a standalone *scalar-oracle* run of that lane's workload,
//!   at every worker count, under randomized configurations.
//! * **Shared modes** — `run_multicore` and `run_smt` interleave
//!   instructions through the same per-access descent the single-core
//!   machine uses; both must be run-to-run deterministic under
//!   randomized configurations (the lane-merge invariant's serial
//!   counterpart).

use atc_core::{IdealConfig, PolicyChoice};
use atc_prefetch::PrefetcherKind;
use atc_sim::{run_multicore, run_multicore_lanes, run_smt, Machine, SimConfig};
use atc_types::rng::SimRng;
use atc_workloads::{BenchmarkId, Scale, Workload};

const BENCHES: [BenchmarkId; 4] = [
    BenchmarkId::Mcf,
    BenchmarkId::Canneal,
    BenchmarkId::Pr,
    BenchmarkId::Xalancbmk,
];

/// Randomized configuration over the knobs the miss path touches:
/// policies (concrete and virtually-dispatched), enhancements, oracle
/// filters, STLB pressure and dependency handling. Prefetchers and
/// telemetry force the general (non-fast-pass) arm, so both arms get
/// sampled.
fn random_config(rng: &mut SimRng) -> SimConfig {
    let mut cfg = SimConfig::baseline();
    cfg.l2c_policy = match rng.next_below(3) {
        0 => PolicyChoice::Lru,
        1 => PolicyChoice::Drrip,
        _ => PolicyChoice::TDrrip,
    };
    cfg.llc_policy = match rng.next_below(3) {
        0 => PolicyChoice::Ship,
        1 => PolicyChoice::TShip,
        _ => PolicyChoice::Srrip,
    };
    cfg.atp = rng.next_below(2) == 0;
    cfg.tempo = rng.next_below(2) == 0;
    cfg.ignore_deps = rng.next_below(4) == 0;
    cfg.prefetcher = match rng.next_below(3) {
        0 | 1 => PrefetcherKind::None,
        _ => PrefetcherKind::NextLine,
    };
    if rng.next_below(3) == 0 {
        cfg.ideal = IdealConfig::llc_both();
    }
    if rng.next_below(2) == 0 {
        cfg.machine.stlb.entries = 256;
    }
    cfg
}

fn random_mix(rng: &mut SimRng, lanes: usize) -> Vec<(BenchmarkId, u64)> {
    (0..lanes)
        .map(|_| {
            let b = BENCHES[rng.next_below(BENCHES.len() as u64) as usize];
            (b, 1 + rng.next_below(1000))
        })
        .collect()
}

fn build_mix(mix: &[(BenchmarkId, u64)]) -> Vec<Box<dyn Workload>> {
    mix.iter().map(|(b, s)| b.build(Scale::Test, *s)).collect()
}

#[test]
fn lanes_match_the_scalar_oracle_under_random_configs() {
    let mut rng = SimRng::seed_from_u64(0x3e77_0b1a);
    for trial in 0..5u64 {
        let cfg = random_config(&mut rng);
        let lanes = 2 + rng.next_below(2) as usize;
        let mix = random_mix(&mut rng, lanes);
        // Per-lane scalar oracle: the same workload through the
        // scalar reference loop on a private machine.
        let oracle: Vec<String> = mix
            .iter()
            .map(|(b, s)| {
                let mut wl = b.build(Scale::Test, *s);
                let mut m = Machine::new(&cfg).expect("valid config");
                let stats = m.run_scalar(wl.as_mut(), 1_000, 4_000).expect("oracle run");
                format!("{:?}", stats.core)
            })
            .collect();
        for jobs in [1usize, 2, 5] {
            let got = run_multicore_lanes(&cfg, &mut build_mix(&mix), 1_000, 4_000, jobs)
                .expect("lane run");
            let got: Vec<String> = got.iter().map(|c| format!("{c:?}")).collect();
            assert_eq!(
                got, oracle,
                "trial {trial} (mix {mix:?}, jobs {jobs}): lane stats diverge from the \
                 scalar oracle\ncfg: {cfg:?}"
            );
        }
    }
}

#[test]
fn shared_multicore_is_deterministic_under_random_configs() {
    let mut rng = SimRng::seed_from_u64(0xd00f);
    for trial in 0..3u64 {
        let cfg = random_config(&mut rng);
        // 2 or 4 cores: the shared mode scales the LLC by the core
        // count, which must keep the set count a power of two.
        let cores = if rng.next_below(2) == 0 { 2 } else { 4 };
        let mix = random_mix(&mut rng, cores);
        let run = |cfg: &SimConfig| {
            let stats = run_multicore(cfg, &mut build_mix(&mix), 1_000, 4_000).expect("shared run");
            format!("{stats:?}")
        };
        assert_eq!(
            run(&cfg),
            run(&cfg),
            "trial {trial} (mix {mix:?}): shared multicore not run-to-run deterministic\ncfg: {cfg:?}"
        );
    }
}

#[test]
fn smt_is_deterministic_under_random_configs() {
    let mut rng = SimRng::seed_from_u64(0x57a7);
    for trial in 0..3u64 {
        let cfg = random_config(&mut rng);
        let mix = random_mix(&mut rng, 2);
        let run = |cfg: &SimConfig| {
            let mut wls = build_mix(&mix);
            let (a, b) = wls.split_at_mut(1);
            let stats = run_smt(cfg, a[0].as_mut(), b[0].as_mut(), 1_000, 4_000).expect("smt run");
            format!("{stats:?}")
        };
        assert_eq!(
            run(&cfg),
            run(&cfg),
            "trial {trial} (mix {mix:?}): SMT not run-to-run deterministic\ncfg: {cfg:?}"
        );
    }
}
