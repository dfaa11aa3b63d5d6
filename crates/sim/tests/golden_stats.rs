//! Golden `RunStats` for a fixed run matrix, pinned across commits.
//!
//! The equivalence suites (`batch_equivalence.rs`, `lane_equivalence.rs`)
//! compare two execution paths inside one commit, so a change to a
//! component both paths share (the MSHR, a replacement policy, the DRAM
//! model) moves both sides together and passes unseen. This table pins
//! the simulated outcome itself:
//!
//! * all 9 benchmarks × the Fig 14 enhancement ladder at `Scale::Small`,
//!   seed 42, 50 k warmup + 200 k measured instructions — a budget at
//!   which every ladder step changes `cycles` on every benchmark;
//! * one 2-way SMT pair (pr + cc, full stack, 25 k + 100 k per thread);
//! * one 8-core shared-LLC mix (`mixed-all`, full stack, seeds 42 + i,
//!   12.5 k + 50 k per core);
//! * one single-core run with a data prefetcher attached, which takes
//!   the batched loop's general (non-fast-pass) arm.
//!
//! Each row stores a few headline counters plus an FNV-1a over the run's
//! whole `Debug` rendering, which covers every counter and histogram. A
//! mismatch prints which stored counters moved and a replacement table
//! to paste here. A legitimate behaviour change must update the table
//! and say so in the change log; a refactor must leave it untouched.

use atc_core::Enhancement;
use atc_prefetch::PrefetcherKind;
use atc_sim::{run_multicore, run_one, run_smt, RunStats, SimConfig};
use atc_workloads::{BenchmarkId, Scale, Workload};

const SEED: u64 = 42;

/// Names of the stored columns, in row order. The SMT and multicore
/// drivers report per-thread core statistics only, so their rows store
/// the summed cycles and zero for the memory-system counters.
const FIELDS: [&str; 6] = [
    "cycles",
    "walks",
    "atp_issued",
    "tempo_issued",
    "dram_requests",
    "debug_fnv",
];

type Row = [u64; 6];

/// `(run, [cycles, walks, atp_issued, tempo_issued, dram_requests,
/// FNV-1a of the Debug rendering])`.
#[rustfmt::skip]
const GOLDEN: &[(&str, Row)] = &[
    ("xalancbmk/baseline", [335543, 995, 0, 0, 27504, 0xe3d7_1fc1_07d0_1642]),
    ("xalancbmk/T-DRRIP", [334855, 995, 0, 0, 27421, 0x051e_a928_557f_747e]),
    ("xalancbmk/+T-SHiP", [335126, 995, 0, 0, 27495, 0x01cf_ed13_8ab5_4b74]),
    ("xalancbmk/+ATP", [334592, 995, 291, 0, 27493, 0xd187_fa28_2969_1b12]),
    ("xalancbmk/+TEMPO", [323415, 995, 291, 1284, 27475, 0x48a1_ed33_b061_00ba]),
    ("tc/baseline", [270041, 6313, 0, 0, 14907, 0x7c89_94ee_e009_26ab]),
    ("tc/T-DRRIP", [269515, 6313, 0, 0, 14907, 0x9a7d_7b58_9475_7ec9]),
    ("tc/+T-SHiP", [269483, 6313, 0, 0, 14906, 0x66f1_ea61_9cbc_92d6]),
    ("tc/+ATP", [268633, 6313, 3924, 0, 14904, 0xb449_17ca_338b_7fb0]),
    ("tc/+TEMPO", [256946, 6313, 3924, 3418, 14904, 0xdbc3_a9e2_6d05_4a54]),
    ("canneal/baseline", [4171736, 3906, 0, 0, 14507, 0x38eb_d6a7_3337_4d04]),
    ("canneal/T-DRRIP", [4172816, 3906, 0, 0, 14508, 0x5f24_f44e_a530_dca7]),
    ("canneal/+T-SHiP", [4172636, 3906, 0, 0, 14507, 0x8086_36f2_757e_19e2]),
    ("canneal/+ATP", [4156181, 3906, 1921, 0, 14501, 0xce9a_e036_c404_6698]),
    ("canneal/+TEMPO", [4084006, 3906, 1921, 2934, 14493, 0x2a06_59b2_643f_f8c5]),
    ("mis/baseline", [234665, 5557, 0, 0, 12261, 0x8968_5571_3085_d864]),
    ("mis/T-DRRIP", [234376, 5557, 0, 0, 12261, 0x65ae_4445_c64d_8c6f]),
    ("mis/+T-SHiP", [234376, 5557, 0, 0, 12261, 0x9d29_4918_f2bc_a391]),
    ("mis/+ATP", [233270, 5557, 4616, 0, 12261, 0xd75b_5cd3_7c6f_fd37]),
    ("mis/+TEMPO", [230254, 5557, 4616, 1424, 12261, 0xd12c_9e5a_79d4_ab01]),
    ("mcf/baseline", [2341360, 3788, 0, 0, 48370, 0x2423_fd26_bedc_64a6]),
    ("mcf/T-DRRIP", [2356869, 3788, 0, 0, 48719, 0xcf4e_8b77_bc55_d1e2]),
    ("mcf/+T-SHiP", [2347817, 3788, 0, 0, 48595, 0xc3d4_4178_6f36_c6c0]),
    ("mcf/+ATP", [2348079, 3788, 1480, 0, 48591, 0x2ad4_644c_c2ac_c1a1]),
    ("mcf/+TEMPO", [2286875, 3788, 1480, 3698, 48477, 0x5bd2_0d23_f7a9_06f7]),
    ("bf/baseline", [268752, 10602, 0, 0, 25221, 0x7b86_5604_1c5f_2f37]),
    ("bf/T-DRRIP", [267906, 10602, 0, 0, 25208, 0x35f6_48c6_5ddc_b09c]),
    ("bf/+T-SHiP", [267922, 10602, 0, 0, 25209, 0x1d5e_5c43_092a_3a9a]),
    ("bf/+ATP", [265616, 10602, 10017, 0, 25199, 0x2703_83cb_f223_7b52]),
    ("bf/+TEMPO", [263829, 10602, 10017, 1491, 25200, 0xae0e_d805_3001_ee5d]),
    ("radii/baseline", [244380, 9237, 0, 0, 19514, 0x7ea2_13d8_78e6_f1f1]),
    ("radii/T-DRRIP", [243409, 9237, 0, 0, 19509, 0xf4db_6561_3918_32f9]),
    ("radii/+T-SHiP", [243412, 9237, 0, 0, 19509, 0xb384_8530_4f97_3b0f]),
    ("radii/+ATP", [240988, 9237, 8522, 0, 19508, 0xa237_9faa_5ac2_d13d]),
    ("radii/+TEMPO", [239204, 9237, 8522, 1467, 19508, 0xd832_5731_5d34_8264]),
    ("cc/baseline", [276699, 15871, 0, 0, 30437, 0x27c1_76dc_3eb3_7f43]),
    ("cc/T-DRRIP", [274512, 15871, 0, 0, 30385, 0x5928_f172_0f9f_788f]),
    ("cc/+T-SHiP", [273854, 15871, 0, 0, 30341, 0x2187_abd4_cbd9_6948]),
    ("cc/+ATP", [269148, 15871, 15517, 0, 30326, 0x6d21_edbb_26b7_9b51]),
    ("cc/+TEMPO", [267645, 15871, 15517, 1476, 30317, 0x524a_1755_1224_3cd6]),
    ("pr/baseline", [300961, 20046, 0, 0, 38431, 0x4485_a291_5087_111f]),
    ("pr/T-DRRIP", [296219, 20046, 0, 0, 38321, 0xd55f_11c7_b4d9_6de1]),
    ("pr/+T-SHiP", [296718, 20046, 0, 0, 38171, 0xe99e_c4cb_b419_4c7e]),
    ("pr/+ATP", [291472, 20046, 19906, 0, 38155, 0xccf5_dc1e_b8d9_5db0]),
    ("pr/+TEMPO", [292160, 20046, 19906, 1480, 38136, 0x2b97_3e5a_bbcf_c47b]),
    ("smt/pr+cc/+TEMPO", [417658, 0, 0, 0, 0, 0x4eac_b730_bf4d_f419]),
    ("8core/mixed-all/+TEMPO", [9724609, 0, 0, 0, 0, 0x6b39_18c6_7ac7_2d51]),
    ("pr/baseline+ipcp", [388861, 20046, 0, 0, 38413, 0xddca_57e5_d700_daf2]),
];

/// FNV-1a over the bytes of `s`.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn single_row(stats: &RunStats) -> Row {
    [
        stats.core.cycles,
        stats.walks,
        stats.atp_issued,
        stats.tempo_issued,
        stats.dram.requests,
        fnv1a(&format!("{stats:?}")),
    ]
}

/// Run the whole matrix, in table order.
fn measure() -> Vec<(String, Row)> {
    let mut rows = Vec::new();
    for bench in BenchmarkId::ALL {
        for e in Enhancement::ALL {
            let cfg = SimConfig::with_enhancement(e);
            let stats =
                run_one(&cfg, bench, Scale::Small, SEED, 50_000, 200_000).expect("ladder run");
            rows.push((
                format!("{}/{}", bench.name(), e.label()),
                single_row(&stats),
            ));
        }
    }

    let full = SimConfig::with_enhancement(Enhancement::Tempo);
    let mut t0 = BenchmarkId::Pr.build(Scale::Small, SEED);
    let mut t1 = BenchmarkId::Cc.build(Scale::Small, SEED + 1);
    let smt = run_smt(&full, t0.as_mut(), t1.as_mut(), 25_000, 100_000).expect("smt run");
    let cycles = smt.threads.iter().map(|t| t.cycles).sum();
    rows.push((
        "smt/pr+cc/+TEMPO".to_string(),
        [cycles, 0, 0, 0, 0, fnv1a(&format!("{smt:?}"))],
    ));

    let mixed_all = [
        BenchmarkId::Xalancbmk,
        BenchmarkId::Tc,
        BenchmarkId::Canneal,
        BenchmarkId::Mis,
        BenchmarkId::Mcf,
        BenchmarkId::Bf,
        BenchmarkId::Radii,
        BenchmarkId::Pr,
    ];
    let mut wls: Vec<Box<dyn Workload>> = mixed_all
        .iter()
        .enumerate()
        .map(|(i, b)| b.build(Scale::Small, SEED + i as u64))
        .collect();
    let cores = run_multicore(&full, &mut wls, 12_500, 50_000).expect("multicore run");
    let cycles = cores.iter().map(|c| c.cycles).sum();
    rows.push((
        "8core/mixed-all/+TEMPO".to_string(),
        [cycles, 0, 0, 0, 0, fnv1a(&format!("{cores:?}"))],
    ));

    let mut pf = SimConfig::baseline();
    pf.prefetcher = PrefetcherKind::Ipcp;
    let stats =
        run_one(&pf, BenchmarkId::Pr, Scale::Small, SEED, 50_000, 200_000).expect("prefetcher run");
    rows.push(("pr/baseline+ipcp".to_string(), single_row(&stats)));
    rows
}

/// `x` as a hex literal grouped in fours, the way the table spells it.
fn hex(x: u64) -> String {
    let digits = format!("{x:016x}");
    let groups: Vec<&str> = (0..16).step_by(4).map(|i| &digits[i..i + 4]).collect();
    format!("0x{}", groups.join("_"))
}

/// The field-level differences between a stored and a measured row.
fn row_diff(want: &Row, got: &Row) -> Vec<String> {
    FIELDS
        .iter()
        .zip(want.iter().zip(got))
        .filter(|(_, (w, g))| w != g)
        .map(|(name, (w, g))| {
            if *name == "debug_fnv" {
                format!("{name} {} -> {}", hex(*w), hex(*g))
            } else {
                format!("{name} {w} -> {g}")
            }
        })
        .collect()
}

fn render_table(rows: &[(String, Row)]) -> String {
    let mut out = String::from("const GOLDEN: &[(&str, Row)] = &[\n");
    for (run, r) in rows {
        out.push_str(&format!(
            "    (\"{run}\", [{}, {}, {}, {}, {}, {}]),\n",
            r[0],
            r[1],
            r[2],
            r[3],
            r[4],
            hex(r[5])
        ));
    }
    out.push_str("];\n");
    out
}

#[test]
fn run_stats_match_golden_table() {
    let got = measure();
    let mut drift = Vec::new();
    for (run, row) in &got {
        match GOLDEN.iter().find(|(name, _)| name == run) {
            None => drift.push(format!("{run}: not in the table")),
            Some((_, want)) => {
                let diff = row_diff(want, row);
                if !diff.is_empty() {
                    drift.push(format!("{run}: {}", diff.join(", ")));
                }
            }
        }
    }
    for (name, _) in GOLDEN {
        if !got.iter().any(|(run, _)| run == name) {
            drift.push(format!("{name}: in the table but no longer run"));
        }
    }
    assert!(
        drift.is_empty(),
        "RunStats drift in {} of {} runs:\n{}\n\nreplacement table:\n{}",
        drift.len(),
        got.len(),
        drift.join("\n"),
        render_table(&got)
    );
}
