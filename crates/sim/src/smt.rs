//! 2-way SMT: two hardware threads sharing one core's entire memory
//! hierarchy (DTLB, STLB, PSCs, L1D, L2C, LLC, DRAM), each with its own
//! ROB — the paper's §V SMT configuration.
//!
//! Threads run disjoint address spaces (each workload's virtual addresses
//! are relocated by a per-thread offset, modelling distinct processes on
//! the SMT pair). The interleaving picks, each step, the thread whose ROB
//! clock is furthest behind, which approximates fine-grained SMT sharing
//! without a cycle-accurate scheduler.

use atc_cpu::{CoreStats, RobModel};
use atc_types::{CancelToken, SimError};
use atc_workloads::Workload;

use crate::machine::{deadlock_diag, exec_instr, CoreCtx, SimConfig, CANCEL_POLL_INSTRS};
use atc_cache::Cache;
use atc_dram::Dram;

/// Per-thread virtual-address-space offset (bit 47: above every workload
/// base, well inside the 57-bit VA).
const THREAD_VA_STRIDE: u64 = 1 << 47;

/// Result of an SMT run: per-thread measured statistics.
#[derive(Debug, Clone)]
pub struct SmtStats {
    /// Statistics for thread 0 and thread 1.
    pub threads: [CoreStats; 2],
}

/// Run two workloads as a 2-way SMT pair. Each thread executes `warmup`
/// instructions of warmup and `measure` measured instructions; a thread
/// that finishes early stops issuing (the other keeps the hierarchy to
/// itself for its tail, as in multi-programmed methodology).
///
/// # Errors
///
/// Returns [`SimError::Config`] for an invalid machine configuration and
/// [`SimError::Deadlock`] if either thread's clock stops making forward
/// progress (see [`SimConfig::watchdog_cycles`]).
pub fn run_smt(
    cfg: &SimConfig,
    wl0: &mut dyn Workload,
    wl1: &mut dyn Workload,
    warmup: u64,
    measure: u64,
) -> Result<SmtStats, SimError> {
    run_smt_cancellable(cfg, wl0, wl1, warmup, measure, None)
}

/// [`run_smt`] under an optional cooperative [`CancelToken`], polled
/// every [`CANCEL_POLL_INSTRS`] interleaved instructions (see
/// [`Machine::run_cancellable`](crate::Machine::run_cancellable)).
///
/// # Errors
///
/// As [`run_smt`], plus [`SimError::Cancelled`] once the token is
/// observed cancelled.
pub fn run_smt_cancellable(
    cfg: &SimConfig,
    wl0: &mut dyn Workload,
    wl1: &mut dyn Workload,
    warmup: u64,
    measure: u64,
    cancel: Option<&CancelToken>,
) -> Result<SmtStats, SimError> {
    cfg.machine.validate()?;
    let m = &cfg.machine;
    let watchdog = cfg.watchdog_cycles.max(1);
    let mut core = CoreCtx::new(cfg)?;
    let mut llc = Cache::new(
        "LLC",
        m.llc.sets(),
        m.llc.ways,
        m.llc.latency,
        m.llc.mshr_entries,
        cfg.llc_policy.build(m.llc.sets(), m.llc.ways),
    )?;
    let mut dram = Dram::new(&m.dram);
    let mut robs = [RobModel::new(&m.core), RobModel::new(&m.core)];
    let mut done = [0u64; 2];
    let mut wls: [&mut dyn Workload; 2] = [wl0, wl1];

    let phase = |robs: &mut [RobModel; 2],
                 wls: &mut [&mut dyn Workload; 2],
                 done: &mut [u64; 2],
                 core: &mut CoreCtx,
                 llc: &mut Cache,
                 dram: &mut Dram,
                 budget: u64|
     -> Result<(), SimError> {
        *done = [0, 0];
        let mut steps: u64 = 0;
        // Next-poll threshold, not a divisibility test: robust even if
        // the step counter ever advances by more than one at a time.
        let mut next_poll: u64 = 0;
        while done[0] < budget || done[1] < budget {
            if let Some(token) = cancel {
                if steps >= next_poll {
                    if token.is_cancelled() {
                        return Err(SimError::Cancelled {
                            instructions: done[0] + done[1],
                        });
                    }
                    next_poll = steps + CANCEL_POLL_INSTRS;
                }
            }
            steps += 1;
            // Pick the laggard among unfinished threads.
            let tid = match (done[0] < budget, done[1] < budget) {
                (true, true) => usize::from(robs[1].now() < robs[0].now()),
                (true, false) => 0,
                (false, true) => 1,
                (false, false) => unreachable!(),
            };
            let instr = wls[tid].next_instr();
            let before = robs[tid].now();
            exec_instr(
                core,
                llc,
                dram,
                &cfg.ideal,
                &mut robs[tid],
                instr,
                tid as u64 * THREAD_VA_STRIDE,
                cfg.ignore_deps,
            )?;
            if robs[tid].now().saturating_sub(before) > watchdog {
                let diag = deadlock_diag(&robs[tid], core, llc, before);
                return Err(SimError::Deadlock(Box::new(diag)));
            }
            done[tid] += 1;
        }
        Ok(())
    };

    phase(
        &mut robs, &mut wls, &mut done, &mut core, &mut llc, &mut dram, warmup,
    )?;
    core.reset_stats();
    llc.reset_stats();
    dram.reset_stats();
    for r in robs.iter_mut() {
        r.reset_measurement();
    }
    phase(
        &mut robs, &mut wls, &mut done, &mut core, &mut llc, &mut dram, measure,
    )?;

    let [r0, r1] = robs;
    Ok(SmtStats {
        threads: [r0.finish(), r1.finish()],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use atc_workloads::{BenchmarkId, Scale};

    #[test]
    fn smt_runs_both_threads() {
        let cfg = SimConfig::baseline();
        let mut a = BenchmarkId::Mcf.build(Scale::Test, 1);
        let mut b = BenchmarkId::Xalancbmk.build(Scale::Test, 2);
        let s = run_smt(&cfg, a.as_mut(), b.as_mut(), 2_000, 10_000).expect("smt runs");
        assert_eq!(s.threads[0].instructions, 10_000);
        assert_eq!(s.threads[1].instructions, 10_000);
        assert!(s.threads[0].ipc() > 0.0);
        assert!(s.threads[1].ipc() > 0.0);
    }

    #[test]
    fn ignore_deps_reaches_both_threads() {
        // Two pointer chasers: with address dependencies ignored, their
        // loads overlap, so the pair must finish in different cycles.
        let cycles = |ignore_deps: bool| {
            let mut cfg = SimConfig::baseline();
            cfg.ignore_deps = ignore_deps;
            let mut a = BenchmarkId::Mcf.build(Scale::Test, 1);
            let mut b = BenchmarkId::Mcf.build(Scale::Test, 2);
            let s = run_smt(&cfg, a.as_mut(), b.as_mut(), 2_000, 10_000).expect("smt runs");
            [s.threads[0].cycles, s.threads[1].cycles]
        };
        assert_ne!(cycles(true), cycles(false));
    }

    #[test]
    fn sharing_slows_threads_vs_alone() {
        let cfg = SimConfig::baseline();
        // Alone run of mcf.
        let mut alone_wl = BenchmarkId::Mcf.build(Scale::Test, 1);
        let mut m = crate::Machine::new(&cfg).unwrap();
        let alone = m.run(alone_wl.as_mut(), 2_000, 10_000).unwrap();

        let mut a = BenchmarkId::Mcf.build(Scale::Test, 1);
        let mut b = BenchmarkId::Pr.build(Scale::Test, 2);
        let shared = run_smt(&cfg, a.as_mut(), b.as_mut(), 2_000, 10_000).unwrap();
        assert!(
            shared.threads[0].cycles > alone.core.cycles,
            "shared {} !> alone {}",
            shared.threads[0].cycles,
            alone.core.cycles
        );
    }
}
