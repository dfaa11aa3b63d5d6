//! The `suite-ladder` workload: the sweep catalog's `fig14`, `fig17`
//! and `multicore` figures at the default budget, run through the
//! harness exactly as the `suite` binary runs them.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

use atc_experiments::sweeps::{
    build_jobs, catalog, render_sweep, sweeps, Budget, SweepDef, SweepJob,
};
use atc_experiments::{Checks, Opts};
use atc_harness::{run_with_manifest_opts, Manifest, Metrics, Progress, Scheduler, SweepOptions};
use atc_sim::{Machine, SimConfig};
use atc_workloads::trace::TraceCache;

use crate::measure::{fnv, median, secs, tail, Report, FNV_BASIS};
use crate::spans::Spans;

/// Figures of the sweep catalog this workload runs.
const FIGURES: [&str; 3] = ["fig14", "fig17", "multicore"];
/// Set-up is tiny, so it is repeated this many times; the median is
/// reported.
const SETUP_REPS: usize = 101;
/// Harness workers (capped by the host's parallelism).
const WORKERS: usize = 2;
/// Fewest rounds an untraced run measures, however long they take. Peak
/// memory grows over the first three rounds, and the tail percentile
/// sits inside the cluster of the four longest multicore jobs only once
/// each has run four times (with fewer, it sits on that cluster's edge).
const MIN_ROUNDS: usize = 4;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Single,
    Smt,
    Multicore,
}

impl Kind {
    fn of(job: &SweepJob) -> Kind {
        match job {
            SweepJob::Single { .. } => Kind::Single,
            SweepJob::Smt { .. } => Kind::Smt,
            SweepJob::Multicore { .. } => Kind::Multicore,
        }
    }

    fn span(self) -> &'static str {
        match self {
            Kind::Single => "sim.single",
            Kind::Smt => "sim.smt",
            Kind::Multicore => "sim.multicore",
        }
    }
}

/// Simulated instructions of a job: warmup + measure on every lane.
fn job_instrs(job: &SweepJob) -> u64 {
    job.streams().iter().map(|k| k.len).sum()
}

/// One executed job, as seen from the runner closure: its worker, its
/// start and end in round seconds, and its simulation milliseconds.
struct JobTime {
    thread: ThreadId,
    start: f64,
    end: f64,
    sim_ms: f64,
}

/// What one round (one full suite) produced.
struct Round {
    wall: f64,
    times: Vec<JobTime>,
    sweep_s: f64,
    executed: usize,
    retries: u64,
    streams: usize,
    trace_bytes: usize,
    render_ms: f64,
    check_ms: f64,
    claims: usize,
    digests: BTreeMap<String, u64>,
    digest: u64,
    failed: u64,
    attempted: u64,
    atp: f64,
    tempo: f64,
    instrs: f64,
    cycles: f64,
    stlb_misses: f64,
}

fn record_digest(status: &str, m: &Metrics) -> u64 {
    let mut h = fnv(FNV_BASIS, status.as_bytes());
    for (name, v) in m.iter() {
        h = fnv(h, name.as_bytes());
        h = fnv(h, &v.to_bits().to_le_bytes());
    }
    h
}

/// The workload's figures, its deduplicated job list and its budget.
type Built = (Vec<SweepDef>, Vec<(String, SweepJob)>, Budget);

fn build(seed: u64) -> Result<Built, String> {
    let defs: Vec<SweepDef> = sweeps()
        .into_iter()
        .filter(|d| FIGURES.contains(&d.name))
        .collect();
    let opts = Opts::default();
    let budget = Budget {
        scale: opts.scale,
        seed,
        warmup: opts.warmup,
        measure: opts.measure,
    };
    let jobs = build_jobs(&defs, &catalog(), &opts.benchmarks, budget)?;
    Ok((defs, jobs, budget))
}

#[allow(clippy::too_many_arguments)]
fn round(
    defs: &[SweepDef],
    jobs: &[(String, SweepJob)],
    budget: Budget,
    workers: usize,
    dir: &Path,
    spans: &Spans,
    run: u64,
    report: &mut Report,
) -> Result<Round, String> {
    let t0 = Instant::now();
    let root = spans.begin("bench.round", "bench", None, run);
    let path = dir.join(format!("manifest-{run}.jsonl"));
    let _ = std::fs::remove_file(&path);
    let mut manifest = spans
        .time("harness.manifest_open", "atc-harness", root, run, || {
            Manifest::open(&path, false)
        })
        .map_err(|e| format!("cannot open manifest {}: {e}", path.display()))?;
    let scheduler = Scheduler::new(workers).with_retries(1);
    let progress = Progress::new();
    let traces = TraceCache::new();
    let times: Mutex<Vec<JobTime>> = Mutex::new(Vec::new());
    let sweep = spans.begin("harness.sweep", "atc-harness", root, run);
    let t_sweep = Instant::now();
    let outcome = run_with_manifest_opts(
        &scheduler,
        &progress,
        &mut manifest,
        jobs,
        |_key, job, ctx| {
            let start = secs(t0);
            let job_span = spans.begin("harness.job", "atc-harness", sweep, run);
            // Make the job's streams resident first (what `run` would
            // do lazily), so the job's own time is simulation only.
            spans.time("workloads.capture", "atc-workloads", job_span, run, || {
                for k in job.streams() {
                    traces.get(k);
                }
            });
            let kind = Kind::of(job);
            let t = Instant::now();
            let out = spans.time(kind.span(), "atc-sim", job_span, run, || {
                job.run(&traces, &ctx.cancel)
            });
            let sim_ms = secs(t) * 1e3;
            spans.end(job_span);
            times.lock().expect("job time list poisoned").push(JobTime {
                thread: std::thread::current().id(),
                start,
                end: secs(t0),
                sim_ms,
            });
            out
        },
        SweepOptions::default(),
    )
    .map_err(|e| format!("manifest write failed: {e}"))?;
    let sweep_s = secs(t_sweep);
    spans.end(sweep);
    manifest
        .flush()
        .map_err(|e| format!("manifest flush failed: {e}"))?;
    drop(manifest);

    let mut digests = BTreeMap::new();
    let mut failed = 0u64;
    let (mut atp, mut tempo, mut instrs, mut cycles, mut stlb_misses) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for (r, (_, job)) in outcome.records.iter().zip(jobs) {
        digests.insert(r.key.clone(), record_digest(&r.status, &r.metrics));
        if !r.is_ok() {
            failed += 1;
            report.line(format!(
                "FAILED job {} {}: {}",
                r.key,
                r.status,
                r.error.as_deref().unwrap_or("unknown error")
            ));
        }
        if let SweepJob::Single { .. } = job {
            let get = |n: &str| r.metrics.get(n).unwrap_or(0.0);
            let n = get("instructions");
            atp += get("atp_issued");
            tempo += get("tempo_issued");
            instrs += n;
            cycles += get("cycles");
            stlb_misses += get("stlb_mpki") * n / 1e3;
        }
    }

    // Render exactly as `suite` does, from recorded metrics only.
    let ok_metrics: BTreeMap<&str, &Metrics> = outcome
        .records
        .iter()
        .filter(|r| r.is_ok())
        .map(|r| (r.key.as_str(), &r.metrics))
        .collect();
    let lookup = |key: &str| ok_metrics.get(key).copied();
    let t = Instant::now();
    let rendered = spans.time("experiments.render", "atc-experiments", root, run, || {
        let mut out = String::new();
        for def in defs {
            out.push_str(def.title);
            out.push('\n');
            out.push_str(&render_sweep(def, &Opts::default().benchmarks, budget, &lookup).render());
            out.push('\n');
        }
        out
    });
    let render_ms = secs(t) * 1e3;

    // The `suite --check` claims.
    let t = Instant::now();
    let (claims, claims_failed) =
        spans.time("experiments.check", "atc-experiments", root, run, || {
            let mut checks = Checks::new();
            let mut n = 0;
            let mut claim = |ok: bool, what: &str| {
                n += 1;
                checks.claim(ok, what);
            };
            claim(
                outcome.records.len() == jobs.len(),
                "every job has a manifest record",
            );
            for r in outcome.records.iter().filter(|r| !r.is_ok()) {
                claim(false, &format!("job {} {}", r.key, r.status));
            }
            claim(!ok_metrics.is_empty(), "at least one job produced metrics");
            (n, checks.failed())
        });
    let check_ms = secs(t) * 1e3;
    failed += claims_failed as u64;

    let mut digest = fnv(FNV_BASIS, rendered.as_bytes());
    for (k, d) in &digests {
        digest = fnv(digest, k.as_bytes());
        digest = fnv(digest, &d.to_le_bytes());
    }
    let snap = progress.snapshot();
    let retries = snap.counter_value("harness.jobs_retried").unwrap_or(0);
    let _ = std::fs::remove_file(&path);
    spans.end(root);
    Ok(Round {
        wall: secs(t0),
        times: times.into_inner().expect("job time list poisoned"),
        sweep_s,
        executed: outcome.executed,
        retries,
        streams: traces.streams(),
        trace_bytes: traces.footprint_bytes(),
        render_ms,
        check_ms,
        claims,
        digests,
        digest,
        failed,
        attempted: (jobs.len() + claims) as u64,
        atp,
        tempo,
        instrs,
        cycles,
        stlb_misses,
    })
}

/// At least `min_rounds` rounds, and more until `seconds` have passed;
/// each round's records are checked against the first round's
/// (`reference`, set by the first round).
#[allow(clippy::too_many_arguments)]
fn rounds(
    defs: &[SweepDef],
    jobs: &[(String, SweepJob)],
    budget: Budget,
    workers: usize,
    dir: &Path,
    spans: &Spans,
    seconds: f64,
    min_rounds: usize,
    first_run: u64,
    reference: &mut Option<BTreeMap<String, u64>>,
    report: &mut Report,
) -> Result<Vec<Round>, String> {
    let t0 = Instant::now();
    let mut out: Vec<Round> = Vec::new();
    let mut run = first_run;
    loop {
        let mut r = round(defs, jobs, budget, workers, dir, spans, run, report)?;
        run += 1;
        match reference.as_ref() {
            None => *reference = Some(r.digests.clone()),
            Some(first) => {
                for (k, d) in &r.digests {
                    if first.get(k) != Some(d) {
                        r.failed += 1;
                        report.line(format!(
                            "FAILED job {k}: metrics differ from the first round"
                        ));
                    }
                }
            }
        }
        out.push(r);
        if out.len() >= min_rounds && secs(t0) >= seconds {
            break;
        }
    }
    Ok(out)
}

/// Run the suite workload and fill `report`.
pub fn run(
    seed: u64,
    seconds: f64,
    traced: bool,
    out_dir: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let workers = WORKERS.min(std::thread::available_parallelism().map_or(1, |n| n.get()));
    let spans = Spans::new(traced);
    let quiet = Spans::new(false);

    // Set-up: build the job list and the first machine, repeated.
    let mut setups = Vec::new();
    let mut build_ms = Vec::new();
    let mut new_ms = Vec::new();
    let mut built = None;
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let root = spans.begin("bench.setup", "bench", None, rep as u64);
        let b = spans.time(
            "experiments.build_jobs",
            "atc-experiments",
            root,
            rep as u64,
            || build(seed),
        )?;
        build_ms.push(secs(t0) * 1e3);
        let t = Instant::now();
        spans
            .time("sim.machine_new", "atc-sim", root, rep as u64, || {
                Machine::new(&SimConfig::baseline())
            })
            .map_err(|e| format!("Machine::new: {e}"))?;
        new_ms.push(secs(t) * 1e3);
        spans.end(root);
        setups.push(secs(t0));
        built = Some(b);
    }
    let (defs, jobs, budget) = built.expect("at least one set-up repetition");
    let kinds: Vec<Kind> = jobs.iter().map(|(_, j)| Kind::of(j)).collect();
    let count = |k: Kind| kinds.iter().filter(|&&x| x == k).count();
    report.guard(
        count(Kind::Single) > 0 && count(Kind::Smt) > 0 && count(Kind::Multicore) > 0,
        format!(
            "suite-ladder has single ({}), SMT ({}) and multicore ({}) jobs",
            count(Kind::Single),
            count(Kind::Smt),
            count(Kind::Multicore)
        ),
    );
    let round_instrs: f64 = jobs.iter().map(|(_, j)| job_instrs(j) as f64).sum();

    let dir = out_dir.join(format!("suite-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    // As for the machine workloads, the traced mode splits its time
    // between an untraced reference and the traced rounds.
    let phase = if traced { seconds / 2.0 } else { seconds };
    let mut reference = None;
    let plain = rounds(
        &defs,
        &jobs,
        budget,
        workers,
        &dir,
        &quiet,
        phase,
        if traced { 1 } else { MIN_ROUNDS },
        SETUP_REPS as u64,
        &mut reference,
        report,
    );
    let plain = match plain {
        Ok(p) => p,
        Err(e) => {
            let _ = std::fs::remove_dir_all(&dir);
            return Err(e);
        }
    };
    let first = &plain[0];
    report.line(format!(
        "suite-ladder: {} jobs on {workers} workers, {} streams ({:.1} MiB) per round",
        jobs.len(),
        first.streams,
        first.trace_bytes as f64 / (1 << 20) as f64
    ));
    report.line(format!("stats_digest: {:016x}", first.digest));

    let job_ms: Vec<f64> = plain
        .iter()
        .flat_map(|r| r.times.iter().map(|j| j.sim_ms))
        .collect();
    let walls: Vec<f64> = plain.iter().map(|r| r.wall).collect();
    let mut attempted: u64 = plain.iter().map(|r| r.attempted).sum();
    let mut failed: u64 = plain.iter().map(|r| r.failed).sum();

    if !traced {
        let (p, tail_ms) = tail(&job_ms);
        report.line(format!(
            "end-to-end: {} rounds, {} job samples, sim_ms_tail is p{p}",
            plain.len(),
            job_ms.len()
        ));
        report.metric("setup_s", median(&setups), "s");
        report.metric("wall_s", median(&walls), "s");
        report.metric(
            "minstr_per_s",
            round_instrs * plain.len() as f64 / walls.iter().sum::<f64>() / 1e6,
            "Minstr/s",
        );
        report.metric("sim_ms_p50", median(&job_ms), "ms");
        report.metric_note(
            "sim_ms_tail",
            tail_ms,
            "ms",
            format!("p{p} of {} samples", job_ms.len()),
        );
        report.metric("peak_rss_mib", crate::measure::peak_rss_mib(), "MiB");
        report.attempted = attempted;
        report.failed = failed;
        let _ = std::fs::remove_dir_all(&dir);
        return Ok(());
    }

    // Traced rounds, spans on.
    let traced_rounds = rounds(
        &defs,
        &jobs,
        budget,
        workers,
        &dir,
        &spans,
        phase,
        1,
        (SETUP_REPS + plain.len()) as u64,
        &mut reference,
        report,
    );
    let _ = std::fs::remove_dir_all(&dir);
    let traced_rounds = traced_rounds?;
    attempted += traced_rounds.iter().map(|r| r.attempted).sum::<u64>();
    failed += traced_rounds.iter().map(|r| r.failed).sum::<u64>();
    let tr = &traced_rounds[0];

    let all = spans.snapshot();
    let self_names = crate::spans::self_by_name(&all);
    let traced_runs = traced_rounds.len() as f64;
    let per_round = |name: &str| self_names.get(name).copied().unwrap_or(0.0) / traced_runs;

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    m.insert("workloads.capture_s", per_round("workloads.capture"));
    m.insert("workloads.streams", tr.streams as f64);
    m.insert(
        "workloads.trace_mib",
        tr.trace_bytes as f64 / (1 << 20) as f64,
    );

    // Harness accounting from the first traced round's job times.
    let mut busy: HashMap<ThreadId, (f64, f64)> = HashMap::new();
    for jt in &tr.times {
        let e = busy.entry(jt.thread).or_insert((0.0, 0.0));
        e.0 += jt.end - jt.start;
        e.1 = e.1.max(jt.end);
    }
    let sweep_end = tr.times.iter().map(|j| j.end).fold(0.0, f64::max);
    let busiest = busy.values().map(|b| b.0).fold(0.0, f64::max);
    let first_idle = busy.values().map(|b| b.1).fold(f64::INFINITY, f64::min);
    m.insert("harness.jobs", tr.executed as f64);
    m.insert(
        "harness.worker_busy_frac",
        busy.values().map(|b| b.0).sum::<f64>() / (workers as f64 * tr.sweep_s),
    );
    m.insert("harness.straggler_s", (sweep_end - first_idle).max(0.0));
    m.insert("harness.overhead_s", tr.sweep_s - busiest);
    m.insert("harness.retries", tr.retries as f64);

    m.insert("experiments.build_jobs_ms", median(&build_ms));
    m.insert("experiments.render_ms", tr.render_ms);
    m.insert("experiments.check_ms", tr.check_ms);
    m.insert("experiments.claims", tr.claims as f64);

    let single = per_round("sim.single");
    let smt = per_round("sim.smt");
    let mc = per_round("sim.multicore");
    m.insert("sim.machine_new_ms", median(&new_ms));
    m.insert("sim.single_s", single);
    m.insert("sim.smt_s", smt);
    m.insert("sim.multicore_s", mc);
    m.insert("sim.run_s", single + smt + mc);
    m.insert("sim.ns_per_instr", (single + smt + mc) * 1e9 / round_instrs);

    m.insert("vm.stlb_mpki", tr.stlb_misses * 1e3 / tr.instrs);
    m.insert("core.atp_issued", tr.atp);
    m.insert("core.tempo_issued", tr.tempo);
    m.insert("cpu.ipc", tr.instrs / tr.cycles);
    m.insert(
        "trace.overhead_frac",
        median(&traced_rounds.iter().map(|r| r.wall).collect::<Vec<_>>()) / median(&walls) - 1.0,
    );
    crate::spans::finish(&spans, out_dir, "suite-ladder", seed, report)?;
    report.attempted = attempted;
    report.failed = failed;
    crate::emit_per_layer(report, &m);
    Ok(())
}
