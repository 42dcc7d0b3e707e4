//! Simulation points run directly in this process: the paper workloads,
//! and the direct pass over the served job grid.
//!
//! A point is one app on one machine configuration. Set-up makes every
//! point's cold costs happen once (`prepare_app`, the `Verifier::report`
//! admission gate, a `cached_tape` fill for every kernel node); a pass
//! then prepares and runs every point once, warm, in the seeded order.
//! Outputs are checked word for word against the timing-free reference
//! executor outside the timed region.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use isrf_apps::{prepare_app, Profile};
use isrf_check::RefMachine;
use isrf_core::config::ConfigName;
use isrf_core::stats::RunStats;
use isrf_core::Word;
use isrf_kernel::hash::{kernel_hash, sched_params_hash};
use isrf_kernel::ir::Kernel;
use isrf_kernel::sched::{schedule, schedule_cache_stats, SchedParams};
use isrf_sim::{cached_tape, tape_cache_stats, ProgOp, StreamProgram};
use isrf_trace::{Counters, Tracer};
use isrf_verify::Verifier;

use crate::span::Spans;
use crate::Rng;

/// One app on one machine configuration.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    pub app: &'static str,
    pub cfg: ConfigName,
}

impl std::fmt::Display for Point {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.app, self.cfg)
    }
}

/// Every registered app on each of `configs`, in an order drawn from
/// `seed`.
pub fn shuffled(configs: &[ConfigName], seed: u64) -> Vec<Point> {
    let mut pts: Vec<Point> = isrf_apps::APPS
        .iter()
        .flat_map(|&app| configs.iter().map(move |&cfg| Point { app, cfg }))
        .collect();
    Rng::new(seed).shuffle(&mut pts);
    pts
}

/// Names of the deterministic work counts, as reported per layer.
pub const WORK_NAMES: [&str; 18] = [
    "simulated_cycles",
    "sim.kernel_loop_cycles",
    "sim.mem_stall_cycles",
    "sim.srf_stall_cycles",
    "sim.overhead_cycles",
    "sim.kernels",
    "sim.seq_grants",
    "sim.idx_grants",
    "sim.idx_rejects",
    "sim.idx_inlane",
    "sim.idx_crosslane",
    "sim.idx_hops",
    "mem.transfers",
    "mem.transfer_words",
    "mem.offchip_bytes",
    "mem.cache_hits",
    "mem.cache_misses",
    "mem.cache_writebacks",
];

/// Deterministic work of a run, summed over points, in [`WORK_NAMES`]
/// order: the simulated-cycle breakdown and off-chip bytes from
/// `RunStats` and, when a recording tracer was installed, the trace
/// counters (all zero otherwise).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Work(pub [u64; 18]);

impl Work {
    fn from_run(s: &RunStats, c: Option<&Counters>) -> Work {
        let c = c.cloned().unwrap_or_default();
        Work([
            s.cycles,
            s.breakdown.kernel_loop,
            s.breakdown.mem_stall,
            s.breakdown.srf_stall,
            s.breakdown.overhead,
            c.kernels,
            c.seq_grants,
            c.idx_group_grants,
            c.idx_reject.iter().sum(),
            c.idx_inlane,
            c.idx_crosslane,
            c.idx_hops,
            c.transfers,
            c.transfer_words,
            s.mem.total(),
            c.cache_hits,
            c.cache_misses,
            c.cache_writebacks,
        ])
    }

    fn add(&mut self, o: &Work) {
        for (a, b) in self.0.iter_mut().zip(o.0) {
            *a += b;
        }
    }

    /// The count named `name` (one of [`WORK_NAMES`]).
    pub fn get(&self, name: &str) -> u64 {
        let i = WORK_NAMES
            .iter()
            .position(|&n| n == name)
            .expect("a work count name");
        self.0[i]
    }

    /// Simulated cycles.
    pub fn cycles(&self) -> u64 {
        self.0[0]
    }

    /// Useful-to-attempted ratio of the indexed arbiter: grants over
    /// grants plus rejects.
    pub fn idx_grant_share(&self) -> f64 {
        let g = self.get("sim.idx_grants");
        g as f64 / (g + self.get("sim.idx_rejects")).max(1) as f64
    }
}

/// What set-up did, in deterministic counts.
#[derive(Debug, Default)]
pub struct Setup {
    /// Schedule-memo and tape-memo misses during set-up.
    pub sched_misses: u64,
    pub tape_misses: u64,
    /// Points whose set-up panicked or failed verification.
    pub failures: Vec<String>,
    /// Distinct (kernel, scheduling parameters) pairs seen; filled only
    /// when `collect_kernels` was set.
    pub kernels: BTreeMap<(u128, u128), (Arc<Kernel>, SchedParams)>,
}

fn kernel_nodes(
    p: &StreamProgram,
) -> impl Iterator<Item = (&Arc<Kernel>, &Arc<isrf_kernel::sched::Schedule>)> {
    (0..p.len()).filter_map(|i| match p.node(i).0 {
        ProgOp::Kernel {
            kernel, schedule, ..
        } => Some((kernel, schedule)),
        _ => None,
    })
}

/// Pay every point's cold costs once: prepare (which schedules), the
/// static verifier's full report, and a tape compile per kernel node.
pub fn set_up(
    points: &[Point],
    profile: Profile,
    spans: &mut Spans,
    collect_kernels: bool,
) -> Setup {
    let (_, sched0) = schedule_cache_stats();
    let (_, tape0) = tape_cache_stats();
    let mut out = Setup::default();
    let verifier = Verifier::new();
    for (i, &p) in points.iter().enumerate() {
        spans.set_group(i as u64);
        let point = spans.enter("point");
        let r = catch_unwind(AssertUnwindSafe(|| {
            let pr = spans.time("apps.prepare", || prepare_app(p.app, p.cfg, profile));
            let report = spans.time("verify.report", || {
                verifier.report(pr.machine.config(), &pr.machine.verify_env(), &pr.program)
            });
            if let Some(d) = report.diagnostics.first() {
                return Err(format!("{p}: verifier rejected the program: {d}"));
            }
            let lanes = pr.machine.config().lanes;
            spans.time("tape.compile", || {
                for (k, s) in kernel_nodes(&pr.program) {
                    cached_tape(k, s, lanes);
                }
            });
            if collect_kernels {
                let params = SchedParams::from_machine(pr.machine.config());
                let ph = sched_params_hash(&params);
                for (k, _) in kernel_nodes(&pr.program) {
                    out.kernels
                        .entry((kernel_hash(k), ph))
                        .or_insert_with(|| (Arc::clone(k), params.clone()));
                }
            }
            Ok(())
        }));
        spans.exit(point);
        match r {
            Ok(Ok(())) => {}
            Ok(Err(e)) => out.failures.push(e),
            Err(_) => out.failures.push(format!("{p}: set-up panicked")),
        }
    }
    out.sched_misses = schedule_cache_stats().1 - sched0;
    out.tape_misses = tape_cache_stats().1 - tape0;
    out
}

/// Schedule every distinct kernel again, bypassing the memo, inside
/// `kernel.schedule` spans: the cold scheduling cost that `prepare_app`
/// hides inside itself.
pub fn schedule_uncached(setup: &Setup, spans: &mut Spans) {
    for (k, params) in setup.kernels.values() {
        spans.time("kernel.schedule", || {
            std::hint::black_box(
                schedule(k, params).expect("a kernel that scheduled once schedules again"),
            )
        });
    }
}

/// The reference outcome of one point.
#[derive(Debug, Clone)]
pub struct Expected {
    pub cycles: u64,
    pub outputs: Vec<Vec<Word>>,
}

/// One pass over every point.
#[derive(Debug, Default)]
pub struct Pass {
    /// Host seconds of prepare + run, summed over points.
    pub secs: f64,
    pub prepare_s: f64,
    pub run_s: f64,
    /// Prepare + run seconds of each point, by point index.
    pub point_s: Vec<f64>,
    /// Work of each point, by point index.
    pub point_work: Vec<Work>,
    pub work: Work,
    pub failures: Vec<String>,
}

/// Prepare and run every point once. With `record`, a recording tracer
/// is installed for the run so the trace counters are filled. The first
/// pass over a point fills its slot in `refs` from the reference executor;
/// every pass checks outputs and cycles against it. Checks run outside the
/// timed region.
pub fn run_pass(
    points: &[Point],
    profile: Profile,
    spans: &mut Spans,
    record: bool,
    refs: &mut [Option<Expected>],
) -> Pass {
    let mut pass = Pass {
        point_s: vec![0.0; points.len()],
        point_work: vec![Work::default(); points.len()],
        ..Pass::default()
    };
    for (i, &p) in points.iter().enumerate() {
        spans.set_group(i as u64);
        let point = spans.enter("point");
        let r = catch_unwind(AssertUnwindSafe(|| {
            let t0 = Instant::now();
            let mut pr = spans.time("apps.prepare", || prepare_app(p.app, p.cfg, profile));
            let prep = t0.elapsed().as_secs_f64();
            let reference = match refs[i] {
                None => {
                    Some(spans.time("bench.snapshot", || RefMachine::from_machine(&pr.machine)))
                }
                Some(_) => None,
            };
            if record {
                pr.machine.set_tracer(Tracer::recording(16));
            }
            let t1 = Instant::now();
            let stats = spans.time("sim.run", || pr.machine.run(&pr.program));
            let run = t1.elapsed().as_secs_f64();
            let counters = pr.machine.take_tracer().into_recorder();
            let work = Work::from_run(&stats, counters.as_ref().map(|r| r.counters()));
            spans.time("bench.check", || {
                if let Some(mut rm) = reference {
                    rm.run(&pr.program);
                    refs[i] = Some(Expected {
                        cycles: stats.cycles,
                        outputs: pr
                            .outputs
                            .iter()
                            .map(|&(b, w)| rm.mem().read_block(b, w as usize))
                            .collect(),
                    });
                }
                let exp = refs[i].as_ref().expect("filled above");
                if exp.cycles != stats.cycles {
                    return Err(format!(
                        "{p}: {} cycles, expected {}",
                        stats.cycles, exp.cycles
                    ));
                }
                for (k, &(b, w)) in pr.outputs.iter().enumerate() {
                    if pr.machine.mem().memory().read_block(b, w as usize) != exp.outputs[k] {
                        return Err(format!(
                            "{p}: output region at {b} differs from the reference"
                        ));
                    }
                }
                Ok((prep, run, work))
            })
        }));
        spans.exit(point);
        match r {
            Ok(Ok((prep, run, work))) => {
                pass.prepare_s += prep;
                pass.run_s += run;
                pass.point_s[i] = prep + run;
                pass.point_work[i] = work;
                pass.work.add(&work);
            }
            Ok(Err(e)) => pass.failures.push(e),
            Err(_) => pass.failures.push(format!("{p}: panicked")),
        }
    }
    pass.secs = pass.prepare_s + pass.run_s;
    pass
}
