//! `perf`: run the simulator-throughput basket and write
//! `results/BENCH_perf.json`, or check a fresh run against the committed
//! baseline (`--check`), failing on a >25% sim-cycles/sec regression.
//!
//! ```text
//! perf [--out PATH] [--paper] [--runs N]        measure and write JSON
//! perf --check [BASELINE] [--paper] [--runs N]  compare against baseline
//! ```
//!
//! In `--check` mode an explicit `--out PATH` additionally writes the
//! fresh measurement there (the baseline is never overwritten), so CI can
//! archive what was actually measured alongside the pass/fail verdict.

use std::process::ExitCode;

use isrf_apps::Profile;
use isrf_bench::perf::{
    baseline_cycles_per_sec, baseline_entries, perf_basket, perf_json, REGRESSION_BUDGET,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut check: Option<String> = None;
    let mut out: Option<String> = None;
    let mut profile = Profile::Small;
    let mut runs: u32 = 3;

    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--check" => {
                let path = match it.peek() {
                    Some(p) if !p.starts_with("--") => it.next().unwrap().clone(),
                    _ => String::from("results/BENCH_perf.json"),
                };
                check = Some(path);
            }
            "--out" => match it.next() {
                Some(p) => out = Some(p.clone()),
                None => return usage("--out needs a path"),
            },
            "--paper" => profile = Profile::Paper,
            "--runs" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => runs = n,
                None => return usage("--runs needs a number"),
            },
            other => return usage(&format!("unknown argument {other}")),
        }
    }

    let report = perf_basket(profile, runs);
    println!(
        "{:<24} {:>12} {:>10} {:>14}",
        "point", "cycles", "wall (s)", "cycles/sec"
    );
    for e in &report.entries {
        println!(
            "{:<24} {:>12} {:>10.4} {:>14.0}",
            e.name,
            e.cycles,
            e.wall_s,
            e.cycles_per_sec()
        );
    }
    println!(
        "basket aggregate: {} cycles in {:.4}s = {:.0} sim-cycles/sec (peak RSS {} kB)",
        report.basket_cycles(),
        report.basket_wall_s(),
        report.basket_cycles_per_sec(),
        report.peak_rss_kb
    );

    if let Some(path) = out.clone().or_else(|| {
        check
            .is_none()
            .then(|| String::from("results/BENCH_perf.json"))
    }) {
        if let Some(dir) = std::path::Path::new(&path).parent() {
            if !dir.as_os_str().is_empty() {
                if let Err(e) = std::fs::create_dir_all(dir) {
                    eprintln!("perf: cannot create {}: {e}", dir.display());
                    return ExitCode::FAILURE;
                }
            }
        }
        if let Err(e) = std::fs::write(&path, perf_json(&report)) {
            eprintln!("perf: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }

    match check {
        None => ExitCode::SUCCESS,
        Some(baseline_path) => {
            let doc = match std::fs::read_to_string(&baseline_path) {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("perf --check: cannot read baseline {baseline_path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let Some(base) = baseline_cycles_per_sec(&doc) else {
                eprintln!("perf --check: no basket_cycles_per_sec in {baseline_path}");
                return ExitCode::FAILURE;
            };
            let now = report.basket_cycles_per_sec();
            let floor = base * REGRESSION_BUDGET;
            println!(
                "baseline {base:.0} cycles/sec, current {now:.0}, floor {floor:.0} \
                 ({:.0}% of baseline)",
                REGRESSION_BUDGET * 100.0
            );
            if now < floor {
                // Per-entry delta table: which points slowed down, and
                // whether any cycle count drifted from the baseline
                // (a correctness smell, not just a perf one).
                let base_by_name: std::collections::BTreeMap<String, (u64, f64)> =
                    baseline_entries(&doc)
                        .into_iter()
                        .map(|(n, c, r)| (n, (c, r)))
                        .collect();
                eprintln!(
                    "{:<24} {:>12} {:>14} {:>14} {:>8}",
                    "point", "cycles", "base cyc/s", "now cyc/s", "delta"
                );
                for e in &report.entries {
                    match base_by_name.get(&e.name) {
                        Some(&(bc, bcps)) => {
                            let delta = (e.cycles_per_sec() / bcps - 1.0) * 100.0;
                            let drift = if bc != e.cycles {
                                format!("  CYCLES DRIFTED (baseline {bc})")
                            } else {
                                String::new()
                            };
                            eprintln!(
                                "{:<24} {:>12} {:>14.0} {:>14.0} {:>+7.1}%{drift}",
                                e.name,
                                e.cycles,
                                bcps,
                                e.cycles_per_sec(),
                                delta
                            );
                        }
                        None => eprintln!(
                            "{:<24} {:>12} {:>14} {:>14.0} {:>8}",
                            e.name,
                            e.cycles,
                            "(new)",
                            e.cycles_per_sec(),
                            "-"
                        ),
                    }
                }
                eprintln!(
                    "perf --check FAILED: throughput regressed {:.1}% (budget is {:.0}%)",
                    (1.0 - now / base) * 100.0,
                    (1.0 - REGRESSION_BUDGET) * 100.0
                );
                ExitCode::FAILURE
            } else {
                println!("perf --check OK");
                ExitCode::SUCCESS
            }
        }
    }
}

fn usage(err: &str) -> ExitCode {
    eprintln!("perf: {err}");
    eprintln!("usage: perf [--check [BASELINE]] [--out PATH] [--paper] [--runs N]");
    ExitCode::FAILURE
}
