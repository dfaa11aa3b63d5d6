//! Golden digests of every benchmark's instruction stream at
//! `Scale::Small`, the scale experiments run at.
//!
//! The unit tests run at `Scale::Test`, where each graph has only 16 k
//! vertices; these digests pin the first 200 k instructions of each
//! benchmark on the experiment-sized footprints, so a change to how a
//! generator builds its data (for example how much of a graph it
//! generates up front) cannot alter the stream unnoticed. A legitimate
//! stream change must update the table here and say so in the change
//! log.

use atc_workloads::{BenchmarkId, Instr, MemOp, Scale};

const LEN: usize = 200_000;

/// FNV-1a over each instruction's ip, operation kind, address and
/// dependence flag.
fn digest(instrs: &[Instr]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for i in instrs {
        eat(i.ip);
        let (kind, addr) = match i.op {
            None => (0, 0),
            Some(MemOp::Load(a)) => (1, a.raw()),
            Some(MemOp::Store(a)) => (2, a.raw()),
        };
        eat(kind | u64::from(i.dep) << 8);
        eat(addr);
    }
    h
}

/// `(benchmark, digest at seed 42, digest at seed 7)`.
const GOLDEN: [(&str, u64, u64); 9] = [
    ("xalancbmk", 0x9308_c107_d314_e3c3, 0xb0c5_2247_300b_04f2),
    ("tc", 0x77ee_1501_f37f_a867, 0xcb09_25ec_e304_1957),
    ("canneal", 0x3897_a6df_4abe_de83, 0xbc02_6f9c_4c8e_dc14),
    ("mis", 0x83d9_2c60_e891_8e68, 0x39f8_98c7_bf17_60d6),
    ("mcf", 0x4a69_d0bf_557e_d2d1, 0xec89_ad91_e41e_3f0e),
    ("bf", 0x2847_d26b_2b94_529e, 0x6155_e95f_0478_2311),
    ("radii", 0xa27c_0cd1_d554_aa6e, 0xce3f_80ba_a6eb_ab5d),
    ("cc", 0x2498_7bf3_d671_2746, 0x7ff5_a56d_1b03_11fb),
    ("pr", 0x163e_7fed_daef_8405, 0x1599_45d0_8437_7e32),
];

#[test]
fn small_scale_streams_match_golden_digests() {
    let mut mismatches = Vec::new();
    let mut buf = Vec::new();
    for (name, want42, want7) in GOLDEN {
        let bench = BenchmarkId::parse(name).expect("known benchmark");
        for (seed, want) in [(42, want42), (7, want7)] {
            bench.build(Scale::Small, seed).next_batch(&mut buf, LEN);
            let got = digest(&buf);
            if got != want {
                mismatches.push(format!(
                    "{name} seed {seed}: got {got:#018x}, want {want:#018x}"
                ));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "stream drift:\n{}",
        mismatches.join("\n")
    );
}
