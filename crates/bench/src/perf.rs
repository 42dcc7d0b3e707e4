//! Simulator-throughput basket behind the `perf` binary.
//!
//! The basket is a fixed workload — every differential app on every
//! machine configuration, run serially and timed — plus two synthetic
//! points: a single-kernel hot loop with no memory traffic (the pure
//! cycle-loop cost) and the parallel Figure 12 sweep (the end-to-end
//! sweep throughput the ROADMAP cares about). `perf` writes the results
//! to `results/BENCH_perf.json`; `ci.sh --check` compares a fresh run
//! against that committed baseline and fails on a >25% sim-cycles/sec
//! regression (see EXPERIMENTS.md, "Performance").

use std::sync::Arc;
use std::time::Instant;

use isrf_core::config::{ConfigName, MachineConfig};
use isrf_kernel::ir::{KernelBuilder, StreamKind};
use isrf_kernel::sched::{schedule, SchedParams};
use isrf_sim::machine::Machine;
use isrf_sim::program::StreamProgram;

use isrf_apps::{prepare_app, Profile, APPS};

use isrf_trace::Json;

use crate::fig12;

/// The fraction of baseline sim-cycles/sec below which `--check` fails.
pub const REGRESSION_BUDGET: f64 = 0.75;

/// One timed point of the perf basket.
#[derive(Debug, Clone)]
pub struct PerfEntry {
    /// Point name (`app/config`, `machine_hot_loop`, `sweep_throughput`).
    pub name: String,
    /// Cycles simulated by the point.
    pub cycles: u64,
    /// Best-of-`runs` wall time in seconds.
    pub wall_s: f64,
}

impl PerfEntry {
    /// Simulated cycles per wall-clock second.
    pub fn cycles_per_sec(&self) -> f64 {
        self.cycles as f64 / self.wall_s.max(1e-9)
    }
}

/// A full basket measurement plus its aggregate throughput.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// Workload profile the basket ran at.
    pub profile: Profile,
    /// Wall-time repeats per point (best is kept).
    pub runs: u32,
    /// Every timed point.
    pub entries: Vec<PerfEntry>,
    /// Peak resident set size in kB (0 when `/proc` is unavailable).
    pub peak_rss_kb: u64,
}

impl PerfReport {
    /// Total cycles across the serial app × config points.
    pub fn basket_cycles(&self) -> u64 {
        self.serial_entries().map(|e| e.cycles).sum()
    }

    /// Total wall time across the serial app × config points.
    pub fn basket_wall_s(&self) -> f64 {
        self.serial_entries().map(|e| e.wall_s).sum()
    }

    /// The headline number `--check` guards: aggregate sim-cycles/sec
    /// over the serial app × config basket.
    pub fn basket_cycles_per_sec(&self) -> f64 {
        self.basket_cycles() as f64 / self.basket_wall_s().max(1e-9)
    }

    fn serial_entries(&self) -> impl Iterator<Item = &PerfEntry> {
        self.entries.iter().filter(|e| e.name.contains('/'))
    }
}

/// Build the hot-loop point: one modulo-scheduled ALU kernel over
/// SRF-resident streams, zero memory traffic — nothing but the cycle
/// loop, kernel tick, and sequential stream machinery.
///
/// # Panics
///
/// Panics if the preset config or the kernel fails to validate, which
/// would be a bug in this crate.
pub fn hot_loop_prepared() -> (Machine, StreamProgram) {
    let cfg = MachineConfig::preset(ConfigName::Base);
    let lanes = cfg.lanes as u32;
    let iters: u64 = 1024;
    let mut machine = Machine::new(cfg.clone()).expect("preset config is valid");

    let mut b = KernelBuilder::new("hot_loop");
    let s_in = b.stream("in", StreamKind::SeqIn);
    let s_out = b.stream("out", StreamKind::SeqOut);
    let a = b.seq_read(s_in);
    let sq = b.mul(a, a);
    let s1 = b.add(sq, a);
    let s2 = b.mul(s1, s1);
    let s3 = b.add(s2, sq);
    b.seq_write(s_out, s3);
    let kernel = Arc::new(b.build().expect("hot-loop kernel is well-formed"));
    let sched = schedule(&kernel, &SchedParams::from_machine(&cfg)).expect("hot-loop schedules");

    let records = iters as u32 * lanes;
    let input = machine.alloc_stream(1, records);
    let output = machine.alloc_stream(1, records);
    let data: Vec<u32> = (0..records).map(|i| i.wrapping_mul(2654435761)).collect();
    machine.write_stream(&input, &data);

    let mut p = StreamProgram::new();
    p.kernel(kernel, sched, vec![input, output], iters, &[]);
    (machine, p)
}

/// Run the basket: every differential app × config serially (timed one
/// by one), then the hot loop, then the parallel Figure 12 sweep. Each
/// point's wall time is the best of `runs` repeats.
pub fn perf_basket(profile: Profile, runs: u32) -> PerfReport {
    let runs = runs.max(1);
    let mut entries = Vec::new();
    for app in APPS {
        for cfg in ConfigName::ALL {
            let mut cycles = 0;
            let mut best = f64::MAX;
            for _ in 0..runs {
                let mut pr = prepare_app(app, cfg, profile);
                let t = Instant::now();
                let stats = pr.machine.run(&pr.program);
                best = best.min(t.elapsed().as_secs_f64());
                cycles = stats.cycles;
            }
            entries.push(PerfEntry {
                name: format!("{app}/{cfg}"),
                cycles,
                wall_s: best,
            });
        }
    }
    entries.push(time_point("machine_hot_loop", runs, || {
        let (mut m, p) = hot_loop_prepared();
        let t = Instant::now();
        let stats = m.run(&p);
        (stats.cycles, t.elapsed().as_secs_f64())
    }));
    entries.push(time_point("sweep_throughput", runs, || {
        let t = Instant::now();
        let rows = fig12(profile);
        let wall = t.elapsed().as_secs_f64();
        (rows.iter().map(|r| r.cycles).sum(), wall)
    }));
    PerfReport {
        profile,
        runs,
        entries,
        peak_rss_kb: peak_rss_kb(),
    }
}

fn time_point(name: &str, runs: u32, mut f: impl FnMut() -> (u64, f64)) -> PerfEntry {
    let mut cycles = 0;
    let mut best = f64::MAX;
    for _ in 0..runs {
        let (c, wall) = f();
        cycles = c;
        best = best.min(wall);
    }
    PerfEntry {
        name: name.to_string(),
        cycles,
        wall_s: best,
    }
}

/// Peak resident set size of this process in kB, from `/proc/self/status`
/// (`VmHWM`); 0 on platforms without procfs.
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|v| v.parse::<u64>().ok())
            })
        })
        .unwrap_or(0)
}

/// Render a report as the `results/BENCH_perf.json` document.
pub fn perf_json(r: &PerfReport) -> String {
    let profile = match r.profile {
        Profile::Small => "small",
        Profile::Paper => "paper",
    };
    let entries = r.entries.iter().map(|e| {
        Json::Obj(vec![
            ("name".into(), Json::str(&e.name)),
            ("cycles".into(), Json::u64(e.cycles)),
            ("wall_s".into(), Json::Num(e.wall_s)),
            ("cycles_per_sec".into(), Json::Num(e.cycles_per_sec())),
        ])
    });
    Json::Obj(vec![
        ("schema".into(), Json::str("isrf-perf-v1")),
        ("profile".into(), Json::str(profile)),
        ("runs".into(), Json::u64(u64::from(r.runs))),
        ("peak_rss_kb".into(), Json::u64(r.peak_rss_kb)),
        ("basket_cycles".into(), Json::u64(r.basket_cycles())),
        ("basket_wall_s".into(), Json::Num(r.basket_wall_s())),
        (
            "basket_cycles_per_sec".into(),
            Json::Num(r.basket_cycles_per_sec()),
        ),
        ("entries".into(), Json::Arr(entries.collect())),
    ])
    .render_pretty()
}

/// Extract the `basket_cycles_per_sec` field from a baseline document
/// written by [`perf_json`]. Returns `None` when the document does not
/// parse or the field is missing — callers should treat that as "no
/// usable baseline".
pub fn baseline_cycles_per_sec(json: &str) -> Option<f64> {
    Json::parse(json)
        .ok()?
        .get("basket_cycles_per_sec")?
        .as_f64()
}

/// Extract `(name, cycles, cycles_per_sec)` for every entry of a baseline
/// document written by [`perf_json`], so a failed regression check can
/// print a per-entry delta table. Malformed entries are skipped.
pub fn baseline_entries(json: &str) -> Vec<(String, u64, f64)> {
    let Ok(doc) = Json::parse(json) else {
        return Vec::new();
    };
    let entries = doc.get("entries").and_then(Json::as_arr).unwrap_or(&[]);
    entries
        .iter()
        .filter_map(|e| {
            let name = e.get("name")?.as_str()?.to_string();
            let cycles = e.get("cycles")?.as_u64()?;
            let cps = e.get("cycles_per_sec")?.as_f64()?;
            Some((name, cycles, cps))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_loop_runs_and_produces_cycles() {
        let (mut m, p) = hot_loop_prepared();
        let stats = m.run(&p);
        assert!(stats.cycles > 1024, "hot loop too short: {}", stats.cycles);
        assert_eq!(stats.mem.total(), 0, "hot loop must not touch memory");
    }

    #[test]
    fn baseline_roundtrips_through_json() {
        let report = PerfReport {
            profile: Profile::Small,
            runs: 1,
            entries: vec![
                PerfEntry {
                    name: "sort/Base".into(),
                    cycles: 1000,
                    wall_s: 0.5,
                },
                PerfEntry {
                    name: "machine_hot_loop".into(),
                    cycles: 77,
                    wall_s: 0.1,
                },
            ],
            peak_rss_kb: 42,
        };
        let json = perf_json(&report);
        let got = baseline_cycles_per_sec(&json).expect("field present");
        assert!((got - report.basket_cycles_per_sec()).abs() < 1e-6);
        // The aggregate covers only the serial app/config points.
        assert_eq!(report.basket_cycles(), 1000);
        // Per-entry extraction round-trips names, cycles, and rates.
        let entries = baseline_entries(&json);
        assert_eq!(entries.len(), report.entries.len());
        for (got, want) in entries.iter().zip(&report.entries) {
            assert_eq!(got.0, want.name);
            assert_eq!(got.1, want.cycles);
            assert!((got.2 - want.cycles_per_sec()).abs() < 1e-6);
        }
    }

    #[test]
    fn entry_names_with_escapes_round_trip() {
        let name = r#"odd "quoted" \ name"#;
        let report = PerfReport {
            profile: Profile::Paper,
            runs: 1,
            entries: vec![PerfEntry {
                name: name.into(),
                cycles: 5,
                wall_s: 0.25,
            }],
            peak_rss_kb: 0,
        };
        let entries = baseline_entries(&perf_json(&report));
        assert_eq!(entries, vec![(name.to_string(), 5, 20.0)]);
    }

    #[test]
    fn reads_the_committed_baseline_unmodified() {
        let json = include_str!("../../../results/BENCH_perf.json");
        assert_eq!(baseline_cycles_per_sec(json), Some(4229782.680549));
        let entries = baseline_entries(json);
        assert_eq!(entries.len(), 34);
        assert_eq!(entries[0].0, "fft2d/Base");
        assert_eq!(entries[0].1, 39594);
    }
}
