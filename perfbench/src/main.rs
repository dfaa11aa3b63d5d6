//! Host-performance benchmark of the atc simulator.
//!
//! ```text
//! perfbench --workload suite-ladder|walk-heavy|hit-heavy
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Runs one workload from `--seed` for `--seconds`, checks every output,
//! prints one human-readable line per fact and metric, and ends with
//! one JSON object on the last line of stdout:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the
//! workload untraced and traced and reports the per-layer metrics. See
//! README.md beside this package for the workloads and metrics.

mod layers;
mod machine;
mod measure;
mod spans;
mod suite;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use measure::{Host, Report};

/// Every per-layer metric with its unit, in report order (the order of
/// `BENCHMARK.json`). A workload that does not exercise a layer, or
/// cannot observe it, reports 0 with a note.
const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.build_s", "s"),
    ("workloads.capture_s", "s"),
    ("workloads.streams", "count"),
    ("workloads.trace_mib", "MiB"),
    ("harness.jobs", "count"),
    ("harness.worker_busy_frac", "ratio"),
    ("harness.straggler_s", "s"),
    ("harness.overhead_s", "s"),
    ("harness.retries", "count"),
    ("experiments.build_jobs_ms", "ms"),
    ("experiments.render_ms", "ms"),
    ("experiments.check_ms", "ms"),
    ("experiments.claims", "count"),
    ("sim.machine_new_ms", "ms"),
    ("sim.run_s", "s"),
    ("sim.ns_per_instr", "ns"),
    ("sim.single_s", "s"),
    ("sim.smt_s", "s"),
    ("sim.multicore_s", "s"),
    ("sim.unattributed_frac", "ratio"),
    ("vm.dtlb_accesses", "count"),
    ("vm.stlb_accesses", "count"),
    ("vm.stlb_mpki", "1/kinstr"),
    ("vm.walks", "count"),
    ("vm.psc_hit_frac", "ratio"),
    ("vm.translate_ns", "ns"),
    ("cache.l1d_accesses", "count"),
    ("cache.l2c_accesses", "count"),
    ("cache.llc_accesses", "count"),
    ("cache.l2c_mpki", "1/kinstr"),
    ("cache.llc_mpki", "1/kinstr"),
    ("cache.mshr_merges", "count"),
    ("cache.mshr_full_stalls", "count"),
    ("cache.writebacks", "count"),
    ("cache.probe_ns", "ns"),
    ("cache.fill_ns", "ns"),
    ("core.atp_issued", "count"),
    ("core.tempo_issued", "count"),
    ("core.llc_prefetch_useful_frac", "ratio"),
    ("dram.requests", "count"),
    ("dram.row_hit_frac", "ratio"),
    ("dram.access_ns", "ns"),
    ("cpu.ipc", "instr/cycle"),
    ("cpu.walk_stall_frac", "ratio"),
    ("cpu.replay_stall_frac", "ratio"),
    ("cpu.rob_ns", "ns"),
    ("obs.telemetry_overhead_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Add every per-layer metric to the report, in [`PER_LAYER`] order.
pub fn emit_per_layer(report: &mut Report, values: &BTreeMap<&'static str, f64>) {
    for (name, unit) in PER_LAYER {
        match values.get(name) {
            Some(&v) => report.metric(name, v, unit),
            None => report.metric_note(name, 0.0, unit, "not measured on this workload".into()),
        }
    }
}

const WORKLOADS: [&str; 3] = ["suite-ladder", "walk-heavy", "hit-heavy"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 42,
        seconds: 24.0,
        trace: false,
    };
    let mut it = args;
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("missing value for {a}"));
        match a.as_str() {
            "--workload" => out.workload = value()?,
            "--seed" => {
                out.seed = value()?
                    .parse()
                    .map_err(|_| "--seed needs a whole number".to_string())?
            }
            "--seconds" => {
                out.seconds = value()?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&out.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, got {:?}",
            WORKLOADS.join(", "),
            out.workload
        ));
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!(
                "usage: perfbench --workload {} [--seed N] [--seconds S] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    // The package sits one level below the repository root; run
    // artefacts (temporary manifests, span files) go to `out/` beside it.
    let pkg = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let out_dir = pkg.join("out");
    let host = Host::probe(pkg.parent().unwrap_or(&pkg));
    let mut report = Report::default();
    report.line(format!(
        "perfbench: workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    ));
    report.line(format!(
        "host: nproc {} | cpu {} | {} | commit {}",
        host.nproc, host.cpu, host.rustc, host.commit
    ));
    let result = match args.workload.as_str() {
        "suite-ladder" => suite::run(args.seed, args.seconds, args.trace, &out_dir, &mut report),
        "walk-heavy" => machine::run(
            &machine::Spec::walk_heavy(),
            args.seed,
            args.seconds,
            args.trace,
            &out_dir,
            &mut report,
        ),
        _ => machine::run(
            &machine::Spec::hit_heavy(),
            args.seed,
            args.seconds,
            args.trace,
            &out_dir,
            &mut report,
        ),
    };
    if let Err(e) = result {
        for l in &report.lines {
            eprintln!("{l}");
        }
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    report.line(format!(
        "failed_frac: {} ({} failed / {} attempted)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    ));
    // A printed report is a completed run, failures included: the
    // verdict is its `correct` field.
    report.print();
    ExitCode::SUCCESS
}
