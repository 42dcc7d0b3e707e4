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

use crate::{fig12, json_f64, json_str, json_u64};

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
    let mut out = String::from("{\n");
    out.push_str(&format!("  {},\n", json_str("schema", "isrf-perf-v1")));
    out.push_str(&format!(
        "  {},\n",
        json_str(
            "profile",
            match r.profile {
                Profile::Small => "small",
                Profile::Paper => "paper",
            }
        )
    ));
    out.push_str(&format!("  {},\n", json_u64("runs", r.runs as u64)));
    out.push_str(&format!("  {},\n", json_u64("peak_rss_kb", r.peak_rss_kb)));
    out.push_str(&format!(
        "  {},\n",
        json_u64("basket_cycles", r.basket_cycles())
    ));
    out.push_str(&format!(
        "  {},\n",
        json_f64("basket_wall_s", r.basket_wall_s())
    ));
    out.push_str(&format!(
        "  {},\n",
        json_f64("basket_cycles_per_sec", r.basket_cycles_per_sec())
    ));
    out.push_str("  \"entries\": [\n");
    let rows: Vec<String> = r
        .entries
        .iter()
        .map(|e| {
            format!(
                "    {{{}, {}, {}, {}}}",
                json_str("name", &e.name),
                json_u64("cycles", e.cycles),
                json_f64("wall_s", e.wall_s),
                json_f64("cycles_per_sec", e.cycles_per_sec())
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

/// Extract the `basket_cycles_per_sec` field from a baseline document
/// written by [`perf_json`]. Returns `None` when the field is missing or
/// malformed — callers should treat that as "no usable baseline".
pub fn baseline_cycles_per_sec(json: &str) -> Option<f64> {
    num_after(json, "\"basket_cycles_per_sec\":")
}

/// Extract `(name, cycles, cycles_per_sec)` for every entry of a baseline
/// document written by [`perf_json`], so a failed regression check can
/// print a per-entry delta table. Malformed entries are skipped.
pub fn baseline_entries(json: &str) -> Vec<(String, u64, f64)> {
    let Some(at) = json.find("\"entries\"") else {
        return Vec::new();
    };
    json[at..]
        .split('{')
        .skip(1)
        .filter_map(|seg| {
            let name = str_after(seg, "\"name\":")?;
            let cycles = num_after(seg, "\"cycles\":")? as u64;
            let cps = num_after(seg, "\"cycles_per_sec\":")?;
            Some((name, cycles, cps))
        })
        .collect()
}

/// The JSON number following `key`, if present and well-formed.
fn num_after(json: &str, key: &str) -> Option<f64> {
    let at = json.find(key)? + key.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| {
            c != '-' && c != '+' && c != '.' && c != 'e' && c != 'E' && !c.is_ascii_digit()
        })
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The JSON string following `key` (no escape handling — [`perf_json`]
/// never emits escapes in entry names).
fn str_after(json: &str, key: &str) -> Option<String> {
    let at = json.find(key)? + key.len();
    let rest = json[at..].trim_start().strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
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
}
