//! Multi-core multi-programmed mode: N cores with private MMU/L1D/L2C,
//! sharing one LLC (2 MiB per core) and the DRAM channels — the paper's
//! 8-core evaluation (§V).

use atc_cache::Cache;
use atc_cpu::{CoreStats, RobModel};
use atc_dram::Dram;
use atc_types::{CancelToken, SimError};
use atc_workloads::Workload;

use crate::machine::{deadlock_diag, exec_instr, CoreCtx, Machine, SimConfig, CANCEL_POLL_INSTRS};

/// Per-core virtual-address-space offset.
const CORE_VA_STRIDE: u64 = 1 << 47;

/// Run `workloads.len()` cores, each executing `warmup` + `measure`
/// instructions against private L1D/L2C/TLBs and a shared, size-scaled
/// LLC. Returns per-core measured statistics.
///
/// # Errors
///
/// Returns [`SimError::Config`] when `workloads` is empty or the scaled
/// machine configuration is invalid, and [`SimError::Deadlock`] if any
/// core's clock stops making forward progress (see
/// [`SimConfig::watchdog_cycles`]).
pub fn run_multicore(
    cfg: &SimConfig,
    workloads: &mut [Box<dyn Workload>],
    warmup: u64,
    measure: u64,
) -> Result<Vec<CoreStats>, SimError> {
    run_multicore_cancellable(cfg, workloads, warmup, measure, None)
}

/// [`run_multicore`] under an optional cooperative [`CancelToken`],
/// polled every [`CANCEL_POLL_INSTRS`] interleaved instructions (see
/// [`Machine::run_cancellable`](crate::Machine::run_cancellable)).
///
/// # Errors
///
/// As [`run_multicore`], plus [`SimError::Cancelled`] once the token is
/// observed cancelled.
pub fn run_multicore_cancellable(
    cfg: &SimConfig,
    workloads: &mut [Box<dyn Workload>],
    warmup: u64,
    measure: u64,
    cancel: Option<&CancelToken>,
) -> Result<Vec<CoreStats>, SimError> {
    if workloads.is_empty() {
        return Err(SimError::config("multicore: need at least one workload"));
    }
    let n = workloads.len();
    let mut mcfg = cfg.clone();
    mcfg.machine = mcfg.machine.with_llc_scaled_for_cores(n);
    // One DDR channel per four cores, as in Table I.
    mcfg.machine.dram.channels = n.div_ceil(4);
    mcfg.machine.validate()?;
    let m = &mcfg.machine;
    let watchdog = mcfg.watchdog_cycles.max(1);

    let mut cores: Vec<CoreCtx> = (0..n)
        .map(|_| CoreCtx::new(&mcfg))
        .collect::<Result<_, _>>()?;
    let mut llc = Cache::new(
        "LLC",
        m.llc.sets(),
        m.llc.ways,
        m.llc.latency,
        m.llc.mshr_entries * n,
        mcfg.llc_policy.build(m.llc.sets(), m.llc.ways),
    )?;
    let mut dram = Dram::new(&m.dram);
    let mut robs: Vec<RobModel> = (0..n).map(|_| RobModel::new(&m.core)).collect();

    let phase = |cores: &mut Vec<CoreCtx>,
                 robs: &mut Vec<RobModel>,
                 llc: &mut Cache,
                 dram: &mut Dram,
                 wls: &mut [Box<dyn Workload>],
                 budget: u64|
     -> Result<(), SimError> {
        let mut done = vec![0u64; n];
        let mut steps: u64 = 0;
        // Next-poll threshold, not a divisibility test: robust even if
        // the step counter ever advances by more than one at a time.
        let mut next_poll: u64 = 0;
        loop {
            if let Some(token) = cancel {
                if steps >= next_poll {
                    if token.is_cancelled() {
                        return Err(SimError::Cancelled {
                            instructions: done.iter().sum(),
                        });
                    }
                    next_poll = steps + CANCEL_POLL_INSTRS;
                }
            }
            steps += 1;
            // Pick the unfinished core whose clock lags most.
            let mut pick: Option<(usize, u64)> = None;
            for (i, d) in done.iter().enumerate() {
                if *d < budget {
                    let now = robs[i].now();
                    if pick.is_none_or(|(_, t)| now < t) {
                        pick = Some((i, now));
                    }
                }
            }
            let Some((i, before)) = pick else { break };
            let instr = wls[i].next_instr();
            exec_instr(
                &mut cores[i],
                llc,
                dram,
                &mcfg.ideal,
                &mut robs[i],
                instr,
                i as u64 * CORE_VA_STRIDE,
                mcfg.ignore_deps,
            )?;
            if robs[i].now().saturating_sub(before) > watchdog {
                let diag = deadlock_diag(&robs[i], &cores[i], llc, before);
                return Err(SimError::Deadlock(Box::new(diag)));
            }
            done[i] += 1;
        }
        Ok(())
    };

    phase(
        &mut cores, &mut robs, &mut llc, &mut dram, workloads, warmup,
    )?;
    for c in cores.iter_mut() {
        c.reset_stats();
    }
    llc.reset_stats();
    dram.reset_stats();
    for r in robs.iter_mut() {
        r.reset_measurement();
    }
    phase(
        &mut cores, &mut robs, &mut llc, &mut dram, workloads, measure,
    )?;

    Ok(robs.into_iter().map(|r| r.finish()).collect())
}

/// Partitioned-lane multicore: each core owns its *entire* hierarchy —
/// private L1D/L2C/TLBs as in [`run_multicore`], plus its own 2 MiB LLC
/// slice and DRAM channel — so lanes never interact and can be simulated
/// concurrently, one [`Machine`] per lane on its own OS thread.
///
/// This is the way-partitioned/channel-partitioned operating point of
/// the shared configuration: the shared mode scales the LLC to 2 MiB ×
/// cores and gives one channel per four cores; the lane slice hands each
/// core exactly its capacity share (the channel share rounds up to one
/// private channel). Contention disappears, which is the point — lanes
/// become embarrassingly parallel, and the lane-ordered merge makes the
/// result independent of thread scheduling: any `jobs >= 1` produces
/// byte-identical statistics (`jobs == 1` runs the serial twin on the
/// caller's thread; `ci.sh` diffs the two).
///
/// # Errors
///
/// Returns [`SimError::Config`] when `workloads` is empty, `jobs == 0`,
/// or the machine configuration is invalid; lane failures (deadlock,
/// cancellation) surface as the error of the lowest-numbered failing
/// lane, again independent of scheduling.
pub fn run_multicore_lanes(
    cfg: &SimConfig,
    workloads: &mut [Box<dyn Workload>],
    warmup: u64,
    measure: u64,
    jobs: usize,
) -> Result<Vec<CoreStats>, SimError> {
    run_multicore_lanes_cancellable(cfg, workloads, warmup, measure, jobs, None)
}

/// [`run_multicore_lanes`] under an optional cooperative [`CancelToken`]
/// shared by every lane (each lane polls it exactly as
/// [`Machine::run_cancellable`](crate::Machine::run_cancellable) does).
///
/// # Errors
///
/// As [`run_multicore_lanes`], plus [`SimError::Cancelled`] once any
/// lane observes the token cancelled (lowest such lane wins).
pub fn run_multicore_lanes_cancellable(
    cfg: &SimConfig,
    workloads: &mut [Box<dyn Workload>],
    warmup: u64,
    measure: u64,
    jobs: usize,
    cancel: Option<&CancelToken>,
) -> Result<Vec<CoreStats>, SimError> {
    if workloads.is_empty() {
        return Err(SimError::config(
            "multicore lanes: need at least one workload",
        ));
    }
    if jobs == 0 {
        return Err(SimError::config("multicore lanes: jobs must be >= 1"));
    }
    cfg.machine.validate()?;

    let run_lane = |wl: &mut Box<dyn Workload>| -> Result<CoreStats, SimError> {
        let mut m = Machine::new(cfg)?;
        let stats = match cancel {
            Some(token) => m.run_cancellable(wl.as_mut(), warmup, measure, token),
            None => m.run(wl.as_mut(), warmup, measure),
        }
        .map_err(|failure| failure.error)?;
        Ok(stats.core)
    };

    let n = workloads.len();
    let mut results: Vec<Option<Result<CoreStats, SimError>>> = (0..n).map(|_| None).collect();
    if jobs == 1 || n == 1 {
        // Serial twin: the reference the concurrent path must match
        // byte-for-byte.
        for (wl, slot) in workloads.iter_mut().zip(results.iter_mut()) {
            *slot = Some(run_lane(wl));
        }
    } else {
        // Static lane striping: worker k owns lanes k, k + jobs, …, and
        // writes only its own lanes' result slots. The merge below reads
        // a fully lane-indexed vector, so thread scheduling cannot
        // reorder anything observable.
        type LaneSlot<'a> = (
            &'a mut Box<dyn Workload>,
            &'a mut Option<Result<CoreStats, SimError>>,
        );
        let workers = jobs.min(n);
        let mut per_worker: Vec<Vec<LaneSlot<'_>>> = (0..workers).map(|_| Vec::new()).collect();
        for (i, pair) in workloads.iter_mut().zip(results.iter_mut()).enumerate() {
            per_worker[i % workers].push(pair);
        }
        std::thread::scope(|s| {
            let run_lane = &run_lane;
            for worker in per_worker {
                s.spawn(move || {
                    for (wl, slot) in worker {
                        *slot = Some(run_lane(wl));
                    }
                });
            }
        });
    }

    // Lane-ordered merge: the earliest lane's error wins deterministically.
    let mut out = Vec::with_capacity(n);
    for slot in results {
        out.push(slot.expect("every lane writes its slot")?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use atc_workloads::{BenchmarkId, Scale};

    #[test]
    fn four_core_mix_runs() {
        let cfg = SimConfig::baseline();
        let mut wls: Vec<Box<dyn Workload>> = [
            BenchmarkId::Mcf,
            BenchmarkId::Pr,
            BenchmarkId::Xalancbmk,
            BenchmarkId::Canneal,
        ]
        .iter()
        .enumerate()
        .map(|(i, b)| b.build(Scale::Test, i as u64 + 1))
        .collect();
        let stats = run_multicore(&cfg, &mut wls, 1_000, 5_000).expect("mix runs");
        assert_eq!(stats.len(), 4);
        for s in &stats {
            assert_eq!(s.instructions, 5_000);
            assert!(s.ipc() > 0.0);
        }
    }

    #[test]
    fn single_core_multicore_matches_machine_shape() {
        let cfg = SimConfig::baseline();
        let mut wls: Vec<Box<dyn Workload>> = vec![BenchmarkId::Cc.build(Scale::Test, 5)];
        let stats = run_multicore(&cfg, &mut wls, 1_000, 5_000).expect("single core runs");
        assert_eq!(stats.len(), 1);
        assert!(stats[0].cycles > 0);
    }

    #[test]
    fn ignore_deps_reaches_every_core() {
        let cycles = |ignore_deps: bool| {
            let mut cfg = SimConfig::baseline();
            cfg.ignore_deps = ignore_deps;
            let mut wls: Vec<Box<dyn Workload>> = (1..=2)
                .map(|seed| BenchmarkId::Mcf.build(Scale::Test, seed))
                .collect();
            let stats = run_multicore(&cfg, &mut wls, 1_000, 5_000).expect("mix runs");
            stats.iter().map(|s| s.cycles).collect::<Vec<_>>()
        };
        assert_ne!(cycles(true), cycles(false));
    }

    #[test]
    fn empty_mix_is_a_config_error() {
        let cfg = SimConfig::baseline();
        let mut wls: Vec<Box<dyn Workload>> = Vec::new();
        let err = run_multicore(&cfg, &mut wls, 100, 100).unwrap_err();
        assert!(matches!(err, SimError::Config(_)), "{err}");
    }

    fn lane_mix() -> Vec<Box<dyn Workload>> {
        [
            BenchmarkId::Mcf,
            BenchmarkId::Pr,
            BenchmarkId::Xalancbmk,
            BenchmarkId::Canneal,
        ]
        .iter()
        .enumerate()
        .map(|(i, b)| b.build(Scale::Test, i as u64 + 1))
        .collect()
    }

    #[test]
    fn lanes_match_serial_twin_at_every_job_count() {
        let cfg = SimConfig::baseline();
        let serial =
            run_multicore_lanes(&cfg, &mut lane_mix(), 1_000, 5_000, 1).expect("serial twin");
        for jobs in [2, 3, 4, 7] {
            let concurrent = run_multicore_lanes(&cfg, &mut lane_mix(), 1_000, 5_000, jobs)
                .expect("concurrent lanes");
            assert_eq!(concurrent.len(), serial.len());
            for (lane, (c, s)) in concurrent.iter().zip(&serial).enumerate() {
                assert_eq!(
                    (c.instructions, c.cycles),
                    (s.instructions, s.cycles),
                    "lane {lane} diverged at jobs={jobs}"
                );
            }
        }
    }

    #[test]
    fn lanes_are_independent_single_core_machines() {
        // Each lane owns its private hierarchy slice, so lane stats must
        // equal a standalone single-core run of the same workload.
        let cfg = SimConfig::baseline();
        let stats = run_multicore_lanes(&cfg, &mut lane_mix(), 1_000, 5_000, 2).expect("lanes");
        for (i, (b, lane)) in [
            BenchmarkId::Mcf,
            BenchmarkId::Pr,
            BenchmarkId::Xalancbmk,
            BenchmarkId::Canneal,
        ]
        .iter()
        .zip(&stats)
        .enumerate()
        {
            let mut wl = b.build(Scale::Test, i as u64 + 1);
            let mut m = crate::Machine::new(&cfg).expect("machine");
            let alone = m.run(wl.as_mut(), 1_000, 5_000).expect("alone run");
            assert_eq!(lane.cycles, alone.core.cycles, "lane {i} ({})", b.name());
            assert_eq!(lane.instructions, alone.core.instructions);
        }
    }

    #[test]
    fn lanes_reject_zero_jobs_and_empty_mixes() {
        let cfg = SimConfig::baseline();
        let err = run_multicore_lanes(&cfg, &mut lane_mix(), 100, 100, 0).unwrap_err();
        assert!(matches!(err, SimError::Config(_)), "{err}");
        let mut empty: Vec<Box<dyn Workload>> = Vec::new();
        let err = run_multicore_lanes(&cfg, &mut empty, 100, 100, 2).unwrap_err();
        assert!(matches!(err, SimError::Config(_)), "{err}");
    }

    #[test]
    fn cancelled_lanes_surface_cancellation() {
        let cfg = SimConfig::baseline();
        let token = atc_types::CancelToken::new();
        token.cancel();
        let err =
            run_multicore_lanes_cancellable(&cfg, &mut lane_mix(), 1_000, 5_000, 2, Some(&token))
                .unwrap_err();
        assert!(matches!(err, SimError::Cancelled { .. }), "{err}");
    }
}
