//! Layer replays: the host cost of one operation of each layer, measured
//! in isolation on the workload's own stream.
//!
//! A functional pass drives the captured trace through the layers'
//! public functions (a TLB/PSC/walker engine, three caches with the
//! configured policies, the DRAM model and the ROB model) and records
//! what each layer was asked to do. Each recorded stream is then
//! replayed alone into a fresh instance of its layer and timed. The
//! resulting ns/op, multiplied by the real run's operation counts,
//! gives the share of `Machine::run` each layer explains; what is left
//! is reported as unattributed.

use std::hint::black_box;
use std::time::Instant;

use atc_cache::{Cache, Probe};
use atc_core::PolicyChoice;
use atc_cpu::{CompletionKind, RobModel};
use atc_dram::Dram;
use atc_sim::{RunStats, SimConfig};
use atc_types::{AccessClass, AccessInfo, LineAddr, Vpn};
use atc_vm::{TranslationEngine, TranslationQuery};
use atc_workloads::trace::Trace;
use atc_workloads::MemOp;

/// Replays of each layer are repeated this many times; the median
/// time is kept.
const REPLAY_REPS: usize = 3;

/// Per-layer replay cost of one benchmark: total replay nanoseconds and
/// the operations replayed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cost {
    pub ns: f64,
    pub ops: u64,
}

impl Cost {
    pub fn per_op(self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.ns / self.ops as f64
        }
    }

    pub fn add(&mut self, other: Cost) {
        self.ns += other.ns;
        self.ops += other.ops;
    }
}

/// Replay costs of every measured layer for one benchmark.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerCosts {
    pub translate: Cost,
    pub probe: [Cost; 3],
    pub fill: [Cost; 3],
    pub dram: Cost,
    pub rob: Cost,
}

/// Host seconds of one real run that the layer costs explain, per
/// layer: `(translate, probe, fill, dram, rob)`. Run counts cover the
/// measured phase only, so they are scaled by `run_instrs /
/// measured_instrs` to cover the warmup the timed run also executes.
pub fn attribute(c: &LayerCosts, s: &RunStats, run_instrs: u64) -> [f64; 5] {
    let scale = run_instrs as f64 / s.core.instructions.max(1) as f64;
    let levels = [&s.l1d, &s.l2c, &s.llc];
    let probe: f64 = (0..3)
        .map(|i| c.probe[i].per_op() * levels[i].total_accesses() as f64)
        .sum();
    let fill: f64 = (0..3)
        .map(|i| c.fill[i].per_op() * levels[i].total_misses() as f64)
        .sum();
    [
        c.translate.per_op() * s.dtlb.accesses() as f64,
        probe,
        fill,
        c.dram.per_op() * s.dram.requests as f64,
        c.rob.per_op() * s.core.instructions as f64,
    ]
    .map(|ns| ns * scale * 1e-9)
}

#[derive(Clone, Copy)]
enum RobOp {
    NonMemory,
    Store,
    Load { trans: u64, data: u64, walked: bool },
}

/// One probe of one cache level: the access, its cycle, and — when it
/// missed — the cycle its fill completed.
#[derive(Clone, Copy)]
struct ProbeOp {
    info: AccessInfo,
    cycle: u64,
    miss_ready: Option<u64>,
}

#[derive(Default)]
struct Recorded {
    vpns: Vec<Vpn>,
    probes: [Vec<ProbeOp>; 3],
    dram: Vec<(LineAddr, u64)>,
    rob: Vec<RobOp>,
}

fn caches(cfg: &SimConfig) -> Result<[Cache; 3], String> {
    let m = &cfg.machine;
    let level = |name, c: &atc_types::CacheLevelConfig, policy: PolicyChoice| {
        Cache::new(
            name,
            c.sets(),
            c.ways,
            c.latency,
            c.mshr_entries,
            policy.build_impl(c.sets(), c.ways),
        )
        .map_err(|e| e.to_string())
    };
    Ok([
        level("L1D", &m.l1d, PolicyChoice::Lru)?,
        level("L2C", &m.l2c, cfg.l2c_policy)?,
        level("LLC", &m.llc, cfg.llc_policy)?,
    ])
}

/// Descend the three cache levels and DRAM for one access, recording
/// every level's probe and the DRAM request; returns the ready cycle.
fn access(
    caches: &mut [Cache; 3],
    dram: &mut Dram,
    rec: &mut Recorded,
    info: AccessInfo,
    mut t: u64,
) -> u64 {
    let mut missed = [(0usize, 0usize, None, 0usize); 3];
    let mut n = 0;
    let mut ready = None;
    for (lvl, cache) in caches.iter_mut().enumerate() {
        match cache.probe(&info, t) {
            Probe::Ready(r) => {
                rec.probes[lvl].push(ProbeOp {
                    info,
                    cycle: t,
                    miss_ready: None,
                });
                ready = Some(r);
                break;
            }
            Probe::Miss { set, empty } => {
                missed[n] = (lvl, set, empty, rec.probes[lvl].len());
                n += 1;
                rec.probes[lvl].push(ProbeOp {
                    info,
                    cycle: t,
                    miss_ready: None,
                });
                t += cache.latency();
            }
        }
    }
    let ready = ready.unwrap_or_else(|| {
        rec.dram.push((info.line, t));
        dram.access(info.line, t)
    });
    for &(lvl, set, empty, idx) in &missed[..n] {
        let op = &mut rec.probes[lvl][idx];
        op.miss_ready = Some(ready);
        caches[lvl].insert_miss_at(set, empty, &info, ready, op.cycle);
    }
    ready
}

/// The functional pass: drive `trace` through the layers and record each
/// layer's stream.
fn record(cfg: &SimConfig, trace: &Trace) -> Result<Recorded, String> {
    let m = &cfg.machine;
    let mut mmu = TranslationEngine::new(m);
    let mut caches = caches(cfg)?;
    let mut dram = Dram::new(&m.dram);
    let mut rob = RobModel::new(&m.core);
    let mut rec = Recorded::default();
    for idx in 0..trace.len() {
        let ins = trace.get(idx);
        let now = rob.dispatch();
        let Some(op) = ins.op else {
            rob.push(CompletionKind::NonMemory);
            rec.rob.push(RobOp::NonMemory);
            continue;
        };
        let (va, store) = match op {
            MemOp::Load(va) => (va, false),
            MemOp::Store(va) => (va, true),
        };
        rec.vpns.push(va.vpn());
        let mut t = now + mmu.dtlb_latency();
        let (pfn, walked) = match mmu.query(va.vpn()).map_err(|e| e.to_string())? {
            TranslationQuery::DtlbHit(p) => (p, false),
            TranslationQuery::StlbHit(p) => {
                t += mmu.stlb_latency();
                (p, false)
            }
            TranslationQuery::Walk(plan) => {
                t += mmu.stlb_latency() + mmu.psc_latency();
                for step in plan.steps.iter() {
                    let info = AccessInfo::demand(
                        ins.ip,
                        step.pte_addr.line(),
                        AccessClass::Translation(step.level),
                    );
                    t = access(&mut caches, &mut dram, &mut rec, info, t);
                }
                (mmu.complete_walk(&plan), true)
            }
        };
        let class = if store {
            AccessClass::Store
        } else if walked {
            AccessClass::ReplayData
        } else {
            AccessClass::NonReplayData
        };
        let line = pfn.addr_with_offset(va.page_offset()).line();
        let data_done = access(
            &mut caches,
            &mut dram,
            &mut rec,
            AccessInfo::demand(ins.ip, line, class),
            t,
        );
        if store {
            rob.push(CompletionKind::Store);
            rec.rob.push(RobOp::Store);
        } else {
            rob.push(CompletionKind::Load {
                trans_done: t,
                data_done,
                walked,
            });
            rec.rob.push(RobOp::Load {
                trans: t - now,
                data: data_done - now,
                walked,
            });
        }
    }
    Ok(rec)
}

/// Median over [`REPLAY_REPS`] runs of `body` on a fresh `setup()`, in
/// nanoseconds; building the layer is not timed.
fn timed<S>(mut setup: impl FnMut() -> S, mut body: impl FnMut(S)) -> f64 {
    let mut ns: Vec<f64> = (0..REPLAY_REPS)
        .map(|_| {
            let state = setup();
            let t = Instant::now();
            body(state);
            t.elapsed().as_nanos() as f64
        })
        .collect();
    ns.sort_by(f64::total_cmp);
    ns[REPLAY_REPS / 2]
}

/// Record the workload's own stream and replay every layer alone.
pub fn measure(cfg: &SimConfig, trace: &Trace) -> Result<LayerCosts, String> {
    let rec = record(cfg, trace)?;
    let m = &cfg.machine;
    let fresh_caches = || caches(cfg).expect("the recording pass built these caches");
    let translate = Cost {
        ns: timed(
            || TranslationEngine::new(m),
            |mut mmu| {
                for &vpn in &rec.vpns {
                    // The recording pass made the same queries, so they
                    // cannot fail here.
                    if let Ok(TranslationQuery::Walk(plan)) = black_box(mmu.query(vpn)) {
                        black_box(mmu.complete_walk(&plan));
                    }
                }
            },
        ),
        ops: rec.vpns.len() as u64,
    };

    let (mut probe, mut fill) = ([Cost::default(); 3], [Cost::default(); 3]);
    for lvl in 0..3 {
        let ops = &rec.probes[lvl];
        let fills: Vec<AccessInfo> = ops
            .iter()
            .filter(|o| o.miss_ready.is_some())
            .map(|o| o.info)
            .collect();
        let both = timed(fresh_caches, |mut cs| {
            let c = &mut cs[lvl];
            for o in ops {
                match c.probe(&o.info, o.cycle) {
                    Probe::Miss { set, empty } => {
                        if let Some(r) = o.miss_ready {
                            black_box(c.insert_miss_at(set, empty, &o.info, r, o.cycle));
                        }
                    }
                    Probe::Ready(r) => {
                        black_box(r);
                    }
                }
            }
        });
        let fill_only = timed(fresh_caches, |mut cs| {
            let c = &mut cs[lvl];
            for info in &fills {
                black_box(c.fill(info));
            }
        });
        probe[lvl] = Cost {
            ns: (both - fill_only).max(0.0),
            ops: ops.len() as u64,
        };
        fill[lvl] = Cost {
            ns: fill_only,
            ops: fills.len() as u64,
        };
    }

    let dram = Cost {
        ns: timed(
            || Dram::new(&m.dram),
            |mut dram| {
                for &(line, t) in &rec.dram {
                    black_box(dram.access(line, t));
                }
            },
        ),
        ops: rec.dram.len() as u64,
    };

    let rob = Cost {
        ns: timed(
            || RobModel::new(&m.core),
            |mut rob| {
                for &op in &rec.rob {
                    let now = rob.dispatch();
                    rob.push(match op {
                        RobOp::NonMemory => CompletionKind::NonMemory,
                        RobOp::Store => CompletionKind::Store,
                        RobOp::Load {
                            trans,
                            data,
                            walked,
                        } => CompletionKind::Load {
                            trans_done: now + trans,
                            data_done: now + data,
                            walked,
                        },
                    });
                }
                black_box(rob.finish());
            },
        ),
        ops: rec.rob.len() as u64,
    };
    Ok(LayerCosts {
        translate,
        probe,
        fill,
        dram,
        rob,
    })
}
