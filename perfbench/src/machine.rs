//! The machine workloads: `Machine::run` over traces captured once
//! during set-up (`walk-heavy`, `hit-heavy`).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use atc_core::Enhancement;
use atc_sim::{Machine, RunStats, SimConfig, TelemetryConfig};
use atc_workloads::trace::{capture, Trace, TraceReplay};
use atc_workloads::{BenchmarkId, Scale};

use crate::layers::{self, Cost, LayerCosts};
use crate::measure::{fnv, median, secs, tail, Report, FNV_BASIS};
use crate::spans::{self, Spans};

/// Set-up is repeated this many times per run; the median is reported.
const SETUP_REPS: usize = 5;
/// Detached/attached telemetry pairs per benchmark.
const TELEMETRY_PAIRS: usize = 3;

/// One machine workload: benchmarks, scale, configuration and budget.
pub struct Spec {
    pub name: &'static str,
    pub benches: &'static [BenchmarkId],
    /// Independently generated inputs per benchmark (generator seeds
    /// `seed`, `seed + 1`, ...), so that no single seed's input decides
    /// the figures.
    pub seeds_per_bench: u64,
    pub scale: Scale,
    pub cfg: SimConfig,
    pub warmup: u64,
    pub measure: u64,
    /// The workload's defining property, as `(holds, description)`
    /// checks on one input's statistics.
    pub shape: fn(&RunStats) -> Vec<(bool, String)>,
}

impl Spec {
    /// The paper's miss path under load: high-STLB-MPKI benchmarks on
    /// the full enhancement ladder.
    pub fn walk_heavy() -> Spec {
        Spec {
            name: "walk-heavy",
            benches: &[BenchmarkId::Mcf, BenchmarkId::Pr, BenchmarkId::Cc],
            seeds_per_bench: 1,
            scale: Scale::Small,
            cfg: SimConfig::with_enhancement(Enhancement::Tempo),
            warmup: 200_000,
            measure: 2_000_000,
            shape: |s| {
                vec![
                    (
                        s.stlb_mpki() >= 10.0,
                        format!("STLB MPKI {:.1} >= 10", s.stlb_mpki()),
                    ),
                    (s.atp_issued > 0, format!("ATP issued {} > 0", s.atp_issued)),
                ]
            },
        }
    }

    /// Footprints inside the STLB reach on the baseline machine: the
    /// translation path stays idle.
    pub fn hit_heavy() -> Spec {
        Spec {
            name: "hit-heavy",
            benches: &[BenchmarkId::Tc, BenchmarkId::Canneal],
            seeds_per_bench: 3,
            scale: Scale::Test,
            cfg: SimConfig::baseline(),
            warmup: 200_000,
            measure: 2_000_000,
            shape: |s| {
                let wpki = s.walks as f64 * 1e3 / s.core.instructions as f64;
                vec![(
                    wpki <= 0.1,
                    format!("{wpki:.4} walks per kilo-instruction <= 0.1"),
                )]
            },
        }
    }

    fn run_instrs(&self) -> u64 {
        self.warmup + self.measure
    }

    /// The workload's inputs for `seed`: every benchmark at each of its
    /// generator seeds.
    fn inputs(&self, seed: u64) -> Vec<Input> {
        self.benches
            .iter()
            .flat_map(|&bench| {
                (0..self.seeds_per_bench).map(move |j| Input {
                    bench,
                    seed: seed.wrapping_add(j),
                })
            })
            .collect()
    }
}

/// One generated input: a benchmark at a generator seed.
#[derive(Clone, Copy)]
struct Input {
    bench: BenchmarkId,
    seed: u64,
}

impl std::fmt::Display for Input {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}@{}", self.bench.name(), self.seed)
    }
}

/// Per-benchmark counters read after a run.
struct Counts {
    stats: RunStats,
    mshr_merges: u64,
    mshr_full_stalls: u64,
    writebacks: u64,
}

/// Timing and correctness of one measuring loop.
#[derive(Default)]
struct Loop {
    rounds: Vec<f64>,
    run_ms: Vec<f64>,
    run_ms_by_input: Vec<Vec<f64>>,
    new_ms: Vec<f64>,
    elapsed: f64,
    attempted: u64,
    failed: u64,
}

/// One set-up: the captured traces and the seconds of each step.
struct Setup {
    traces: Vec<Arc<Trace>>,
    total_s: f64,
    build_s: f64,
    capture_s: f64,
}

/// Set-up: build each generator, capture its stream, build the first
/// machine.
fn setup(spec: &Spec, inputs: &[Input], spans: &Spans, run: u64) -> Result<Setup, String> {
    let t0 = Instant::now();
    let root = spans.begin("bench.setup", "bench", None, run);
    let (mut build_s, mut capture_s) = (0.0, 0.0);
    let mut traces = Vec::new();
    for input in inputs {
        let t = Instant::now();
        let mut wl = spans.time("workloads.build", "atc-workloads", root, run, || {
            input.bench.build(spec.scale, input.seed)
        });
        build_s += secs(t);
        let t = Instant::now();
        let trace = spans.time("workloads.capture", "atc-workloads", root, run, || {
            capture(wl.as_mut(), spec.run_instrs() as usize)
        });
        capture_s += secs(t);
        traces.push(Arc::new(trace));
    }
    spans
        .time("sim.machine_new", "atc-sim", root, run, || {
            Machine::new(&spec.cfg)
        })
        .map_err(|e| format!("Machine::new: {e}"))?;
    spans.end(root);
    Ok(Setup {
        traces,
        total_s: secs(t0),
        build_s,
        capture_s,
    })
}

fn digest(stats: &RunStats) -> u64 {
    fnv(FNV_BASIS, format!("{stats:?}").as_bytes())
}

/// Run rounds (one `Machine::run` per benchmark) until `seconds` have
/// passed. Checks every run against the first of its input.
#[allow(clippy::too_many_arguments)]
fn measure_loop(
    spec: &Spec,
    inputs: &[Input],
    traces: &[Arc<Trace>],
    seconds: f64,
    spans: &Spans,
    digests: &mut [Option<u64>],
    counts: &mut [Option<Counts>],
    report: &mut Report,
    first_run: u64,
) -> Loop {
    let mut lp = Loop {
        run_ms_by_input: vec![Vec::new(); traces.len()],
        ..Loop::default()
    };
    let t_loop = Instant::now();
    let mut run = first_run;
    loop {
        let t_round = Instant::now();
        let round = spans.begin("bench.round", "bench", None, run);
        for (i, trace) in traces.iter().enumerate() {
            lp.attempted += 1;
            let t = Instant::now();
            let machine = spans.time("sim.machine_new", "atc-sim", round, run, || {
                Machine::new(&spec.cfg)
            });
            lp.new_ms.push(secs(t) * 1e3);
            let mut machine = match machine {
                Ok(m) => m,
                Err(e) => {
                    lp.failed += 1;
                    report.line(format!("FAILED {}: Machine::new: {e}", inputs[i]));
                    continue;
                }
            };
            let mut wl = TraceReplay::shared(Arc::clone(trace));
            let t = Instant::now();
            let out = spans.time("sim.run", "atc-sim", round, run, || {
                machine.run(&mut wl, spec.warmup, spec.measure)
            });
            let ms = secs(t) * 1e3;
            lp.run_ms.push(ms);
            lp.run_ms_by_input[i].push(ms);
            let stats = match out {
                Ok(s) => s,
                Err(e) => {
                    lp.failed += 1;
                    report.line(format!("FAILED {}: {e}", inputs[i]));
                    continue;
                }
            };
            if stats.core.instructions != spec.measure {
                lp.failed += 1;
                report.line(format!(
                    "FAILED {}: retired {} of {} instructions",
                    inputs[i], stats.core.instructions, spec.measure
                ));
                continue;
            }
            let d = digest(&stats);
            match digests[i] {
                None => digests[i] = Some(d),
                Some(first) if first != d => {
                    lp.failed += 1;
                    report.line(format!(
                        "FAILED {}: stats digest {d:016x} differs from the first run's {first:016x}",
                        inputs[i]
                    ));
                }
                Some(_) => {}
            }
            if counts[i].is_none() {
                let (l2c, llc) = (machine.l2c(), machine.llc());
                counts[i] = Some(Counts {
                    mshr_merges: l2c.mshr().merges() + llc.mshr().merges(),
                    mshr_full_stalls: l2c.mshr().full_stalls() + llc.mshr().full_stalls(),
                    writebacks: l2c.writebacks() + llc.writebacks(),
                    stats,
                });
            }
        }
        spans.end(round);
        lp.rounds.push(secs(t_round));
        run += 1;
        if secs(t_loop) >= seconds {
            break;
        }
    }
    lp.elapsed = secs(t_loop);
    lp
}

/// Median `Machine::run` seconds per benchmark with telemetry detached
/// and attached, alternating which goes first.
fn telemetry_overhead(spec: &Spec, traces: &[Arc<Trace>]) -> Result<f64, String> {
    let mut attached_cfg = spec.cfg.clone();
    attached_cfg.probes.telemetry = Some(TelemetryConfig::default());
    let (mut off, mut on) = (0.0, 0.0);
    for trace in traces {
        let (mut t_off, mut t_on) = (Vec::new(), Vec::new());
        for pair in 0..TELEMETRY_PAIRS {
            for attached in [pair % 2 == 1, pair % 2 == 0] {
                let cfg = if attached { &attached_cfg } else { &spec.cfg };
                let mut m = Machine::new(cfg).map_err(|e| e.to_string())?;
                let mut wl = TraceReplay::shared(Arc::clone(trace));
                let t = Instant::now();
                m.run(&mut wl, spec.warmup, spec.measure)
                    .map_err(|e| e.to_string())?;
                if attached {
                    t_on.push(secs(t));
                } else {
                    t_off.push(secs(t));
                }
            }
        }
        off += median(&t_off);
        on += median(&t_on);
    }
    Ok(on / off - 1.0)
}

/// Run a machine workload and fill `report`.
pub fn run(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    traced: bool,
    out_dir: &std::path::Path,
    report: &mut Report,
) -> Result<(), String> {
    let quiet = Spans::new(false);
    let spans = Spans::new(traced);
    // Set-up, repeated; the traces of the last repetition are kept.
    let inputs = spec.inputs(seed);
    let mut setups: Vec<Setup> = Vec::new();
    for rep in 0..SETUP_REPS {
        // Drop the previous repetition's traces first, so peak memory
        // holds one set.
        if let Some(last) = setups.last_mut() {
            last.traces.clear();
        }
        setups.push(setup(spec, &inputs, &spans, rep as u64)?);
    }
    let of = |f: fn(&Setup) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    let setup_s = of(|s| s.total_s);
    let (build_s, capture_s) = (of(|s| s.build_s), of(|s| s.capture_s));
    let traces = setups.pop().expect("at least one set-up").traces;
    let n = inputs.len();
    let mut digests = vec![None; n];
    let mut counts: Vec<Option<Counts>> = (0..n).map(|_| None).collect();

    // The untraced loop gives every end-to-end metric; the traced mode
    // runs it for half the time, as the reference for the tracing
    // overhead, and the traced loop for the other half.
    let phase = if traced { seconds / 2.0 } else { seconds };
    let lp = measure_loop(
        spec,
        &inputs,
        &traces,
        phase,
        &quiet,
        &mut digests,
        &mut counts,
        report,
        SETUP_REPS as u64,
    );
    let mut attempted = lp.attempted;
    let mut failed = lp.failed;

    // Workload-shape guards.
    for (b, c) in inputs.iter().zip(&counts) {
        let Some(c) = c else {
            report.guard(false, format!("{b}: produced statistics"));
            continue;
        };
        for (ok, what) in (spec.shape)(&c.stats) {
            report.guard(ok, format!("{b}: {what}"));
        }
    }
    let mut sd = FNV_BASIS;
    for (b, d) in inputs.iter().zip(&digests) {
        let d = d.unwrap_or(0);
        report.line(format!("stats_digest {b}: {d:016x}"));
        sd = fnv(sd, &d.to_le_bytes());
    }
    report.line(format!("stats_digest: {sd:016x}"));

    let instrs = lp.rounds.len() as f64 * n as f64 * spec.run_instrs() as f64;
    // Inputs differ in length by design, so each input's runs form
    // their own distribution: the tail is the slowest input's, each the
    // highest percentile with at least ten of its runs beyond it.
    let (slowest, (p, tail_ms)) = lp
        .run_ms_by_input
        .iter()
        .map(|v| tail(v))
        .enumerate()
        .max_by(|a, b| a.1 .1.total_cmp(&b.1 .1))
        .expect("at least one input");
    report.line(format!(
        "end-to-end: {} rounds in {:.2} s, {} Machine::run samples",
        lp.rounds.len(),
        lp.elapsed,
        lp.run_ms.len()
    ));

    if !traced {
        report.metric("setup_s", setup_s, "s");
        report.metric("wall_s", median(&lp.rounds), "s");
        report.metric("minstr_per_s", instrs / lp.elapsed / 1e6, "Minstr/s");
        report.metric("sim_ms_p50", median(&lp.run_ms), "ms");
        report.metric_note(
            "sim_ms_tail",
            tail_ms,
            "ms",
            format!(
                "p{p} of the {} runs of {}, the slowest input",
                lp.run_ms_by_input[slowest].len(),
                inputs[slowest]
            ),
        );
        report.metric("peak_rss_mib", crate::measure::peak_rss_mib(), "MiB");
        report.attempted = attempted;
        report.failed = failed;
        return Ok(());
    }

    // Traced loop, spans on.
    let tl = measure_loop(
        spec,
        &inputs,
        &traces,
        phase,
        &spans,
        &mut digests,
        &mut (0..n).map(|_| None).collect::<Vec<_>>(),
        report,
        SETUP_REPS as u64 + lp.rounds.len() as u64,
    );
    attempted += tl.attempted;
    failed += tl.failed;
    let trace_overhead = median(&tl.rounds) / median(&lp.rounds) - 1.0;

    let telemetry = telemetry_overhead(spec, &traces)?;

    // Layer replays on each benchmark's own stream.
    let mut costs = Vec::new();
    for (b, trace) in inputs.iter().zip(&traces) {
        let t = Instant::now();
        let c = spans.time(
            &format!("layers.replay {}", b.bench.name()),
            "bench",
            None,
            0,
            || layers::measure(&spec.cfg, trace),
        )?;
        report.line(format!("layer replay {b}: {:.2} s", secs(t)));
        costs.push(c);
    }

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    m.insert("workloads.build_s", build_s);
    m.insert("workloads.capture_s", capture_s);
    m.insert("workloads.streams", n as f64);
    m.insert(
        "workloads.trace_mib",
        traces.iter().map(|t| t.size_bytes()).sum::<usize>() as f64 / (1 << 20) as f64,
    );

    let run_s: Vec<f64> = lp
        .run_ms_by_input
        .iter()
        .map(|v| median(v) * 1e-3)
        .collect();
    let run_total: f64 = run_s.iter().sum();
    m.insert("sim.machine_new_ms", median(&lp.new_ms));
    m.insert("sim.run_s", run_total);
    m.insert(
        "sim.ns_per_instr",
        run_total * 1e9 / (n as f64 * spec.run_instrs() as f64),
    );
    m.insert("sim.single_s", run_total);

    let sum = |f: &dyn Fn(&Counts) -> u64| counts.iter().flatten().map(f).sum::<u64>() as f64;
    let instr = sum(&|c| c.stats.core.instructions);
    let cycles = sum(&|c| c.stats.core.cycles);
    m.insert("vm.dtlb_accesses", sum(&|c| c.stats.dtlb.accesses()));
    m.insert("vm.stlb_accesses", sum(&|c| c.stats.stlb.accesses()));
    m.insert("vm.stlb_mpki", sum(&|c| c.stats.stlb.misses) * 1e3 / instr);
    m.insert("vm.walks", sum(&|c| c.stats.walks));
    let psc_hits = sum(&|c| c.stats.psc.0);
    m.insert(
        "vm.psc_hit_frac",
        psc_hits / (psc_hits + sum(&|c| c.stats.psc.1)),
    );
    m.insert("cache.l1d_accesses", sum(&|c| c.stats.l1d.total_accesses()));
    m.insert("cache.l2c_accesses", sum(&|c| c.stats.l2c.total_accesses()));
    m.insert("cache.llc_accesses", sum(&|c| c.stats.llc.total_accesses()));
    m.insert(
        "cache.l2c_mpki",
        sum(&|c| c.stats.l2c.total_misses()) * 1e3 / instr,
    );
    m.insert(
        "cache.llc_mpki",
        sum(&|c| c.stats.llc.total_misses()) * 1e3 / instr,
    );
    m.insert("cache.mshr_merges", sum(&|c| c.mshr_merges));
    m.insert("cache.mshr_full_stalls", sum(&|c| c.mshr_full_stalls));
    m.insert("cache.writebacks", sum(&|c| c.writebacks));
    m.insert("core.atp_issued", sum(&|c| c.stats.atp_issued));
    m.insert("core.tempo_issued", sum(&|c| c.stats.tempo_issued));
    let pf_fills = sum(&|c| c.stats.llc_prefetch.0);
    m.insert(
        "core.llc_prefetch_useful_frac",
        sum(&|c| c.stats.llc_prefetch.1) / pf_fills,
    );
    let dram_req = sum(&|c| c.stats.dram.requests);
    m.insert("dram.requests", dram_req);
    m.insert(
        "dram.row_hit_frac",
        sum(&|c| c.stats.dram.row_hits) / dram_req,
    );
    m.insert("cpu.ipc", instr / cycles);
    m.insert(
        "cpu.walk_stall_frac",
        sum(&|c| c.stats.core.stalls.stlb_walk) / cycles,
    );
    m.insert(
        "cpu.replay_stall_frac",
        sum(&|c| c.stats.core.stalls.replay_data) / cycles,
    );

    // Layer ns/op and the share of the real runs they explain.
    let mut total = LayerCosts::default();
    let mut attributed = [0.0; 5];
    for (c, counts) in costs.iter().zip(&counts) {
        total.translate.add(c.translate);
        for l in 0..3 {
            total.probe[l].add(c.probe[l]);
            total.fill[l].add(c.fill[l]);
        }
        total.dram.add(c.dram);
        total.rob.add(c.rob);
        if let Some(counts) = counts {
            let a = layers::attribute(c, &counts.stats, spec.run_instrs());
            for (acc, x) in attributed.iter_mut().zip(a) {
                *acc += x;
            }
        }
    }
    let mut probe = Cost::default();
    let mut fill = Cost::default();
    for l in 0..3 {
        probe.add(total.probe[l]);
        fill.add(total.fill[l]);
    }
    m.insert("vm.translate_ns", total.translate.per_op());
    m.insert("cache.probe_ns", probe.per_op());
    m.insert("cache.fill_ns", fill.per_op());
    m.insert("dram.access_ns", total.dram.per_op());
    m.insert("cpu.rob_ns", total.rob.per_op());
    let explained: f64 = attributed.iter().sum();
    m.insert("sim.unattributed_frac", 1.0 - explained / run_total);
    for (name, a) in ["translate", "cache probe", "cache fill", "dram", "rob"]
        .iter()
        .zip(attributed)
    {
        report.line(format!(
            "attribution {name:<12} {a:>9.4} s of {run_total:.4} s Machine::run ({:.1} %)",
            100.0 * a / run_total
        ));
    }
    m.insert("obs.telemetry_overhead_frac", telemetry);
    m.insert("trace.overhead_frac", trace_overhead);

    spans::finish(&spans, out_dir, spec.name, seed, report)?;
    report.attempted = attempted;
    report.failed = failed;
    crate::emit_per_layer(report, &m);
    Ok(())
}
