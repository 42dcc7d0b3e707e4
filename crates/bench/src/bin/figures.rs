//! Regenerate every evaluation figure and table of the paper as text.
//!
//! Usage: `figures [all|table3|table4|area|energy|fig11|fig12|fig13|fig14|
//! fig15|fig16|fig17|fig18|summary|ablations] [--paper] [--list]`
//!
//! `--paper` uses the paper's workload sizes (slower); the default uses
//! reduced sizes with the same shapes. `--list` prints the known targets,
//! one per line, and exits. `ablations` prints the design-choice ablations
//! at the apps' default sizes and is not part of `all`. The
//! benchmark-driven figures (11, 12, 13, summary) additionally write
//! machine-readable JSON next to the text tables, under
//! `results/bench_<fig>.json`.

use isrf_apps::micro::crosslane_throughput_with_topology;
use isrf_apps::sort::{run_base_bitonic, SortParams};
use isrf_apps::Profile;
use isrf_bench as figs;
use isrf_core::config::{ConfigName, CrossLaneTopology, MachineConfig};
use isrf_mem::{AddrPattern, MemorySystem};

fn profile(args: &[String]) -> Profile {
    if args.iter().any(|a| a == "--paper") {
        Profile::Paper
    } else {
        Profile::Small
    }
}

/// Write a figure's JSON rendering to `results/bench_<fig>.json`.
fn write_json(fig: &str, json: &str) {
    let dir = std::path::Path::new("results");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("bench_{fig}.json"));
    match std::fs::write(&path, json) {
        Ok(()) => println!("[wrote {}]", path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
}

fn table3() {
    println!("== Table 3: machine parameters ==");
    for name in ConfigName::ALL {
        let m = MachineConfig::preset(name);
        print!(
            "{name:<6} lanes={} clock={} GHz peak={} GFLOPs SRF={} KB seq-bw={} w/c",
            m.lanes,
            m.clock_ghz,
            m.peak_gflops(),
            m.srf.capacity_bytes / 1024,
            m.srf.seq_words_per_cycle(m.lanes),
        );
        if let Some(i) = &m.srf.indexed {
            print!(
                " | idx: inlane={}w/c xl={}w/c lat={}/{} fifo={}",
                i.inlane_words_per_cycle,
                i.crosslane_words_per_cycle,
                i.inlane_latency,
                i.crosslane_latency,
                i.addr_fifo_entries
            );
        }
        if let Some(c) = &m.cache {
            print!(
                " | cache: {} KB {}-way {} banks {}w lines",
                c.capacity_bytes / 1024,
                c.associativity,
                c.banks,
                c.line_words
            );
        }
        println!();
    }
}

fn table4() {
    println!("== Table 4: IG dataset parameters ==");
    println!(
        "{:<8} {:>6} {:>7} {:>7} {:>16} {:>16}",
        "dataset", "FP/nbr", "degree", "nodes", "base strip(nbrs)", "isrf strip(nbrs)"
    );
    for ds in &isrf_apps::igraph::DATASETS {
        println!(
            "{:<8} {:>6} {:>7} {:>7} {:>16} {:>16}",
            ds.name,
            ds.fp_ops,
            ds.degree,
            ds.nodes,
            ds.base_strip_nodes * ds.degree,
            ds.isrf_strip_nodes * ds.degree,
        );
    }
}

fn area() {
    println!("== Section 4.6: SRF area overheads (paper: 11% / 18% / 22%) ==");
    for (v, srf, die) in figs::area_table() {
        println!("{v:?}: SRF +{:.1}%  die +{:.2}%", srf * 100.0, die * 100.0);
    }
}

fn energy() {
    let (seq, inl, xl, dram) = figs::energy_table();
    println!("== Section 4.5: access energy (paper: ~0.1 nJ indexed, ~4x seq, ~5 nJ DRAM) ==");
    println!("sequential word  {seq:.4} nJ");
    println!(
        "in-lane indexed  {inl:.4} nJ ({:.1}x sequential)",
        inl / seq
    );
    println!("cross-lane       {xl:.4} nJ");
    println!("DRAM access      {dram:.2} nJ ({:.0}x indexed)", dram / inl);
}

fn fig11(p: Profile) {
    println!("== Figure 11: off-chip traffic normalized to Base ==");
    println!("{:<10} {:>8} {:>8}", "benchmark", "ISRF", "Cache");
    let rows = figs::fig11(p);
    for (name, isrf, cache) in &rows {
        println!("{name:<10} {isrf:>8.3} {cache:>8.3}");
    }
    write_json("fig11", &figs::fig11_json(&rows));
}

fn fig12(p: Profile) {
    println!("== Figure 12: execution time normalized to Base ==");
    println!(
        "{:<10} {:<6} {:>7} {:>7} {:>7} {:>7} {:>7}",
        "benchmark", "config", "loop", "mem", "srf", "ovh", "total"
    );
    let rows = figs::fig12(p);
    for r in &rows {
        println!(
            "{:<10} {:<6} {:>7.3} {:>7.3} {:>7.3} {:>7.3} {:>7.3}",
            r.benchmark,
            r.config.to_string(),
            r.parts[0],
            r.parts[1],
            r.parts[2],
            r.parts[3],
            r.total()
        );
    }
    write_json("fig12", &figs::fig12_json(&rows));
}

fn fig13(p: Profile) {
    println!("== Figure 13: sustained SRF bandwidth on ISRF4 (words/cycle/lane) ==");
    println!(
        "{:<10} {:>10} {:>10} {:>10} {:>8}",
        "benchmark", "sequential", "cross-lane", "in-lane", "total"
    );
    let rows = figs::fig13(p);
    for (name, [seq, xl, inl]) in &rows {
        println!(
            "{name:<10} {seq:>10.3} {xl:>10.3} {inl:>10.3} {:>8.3}",
            seq + xl + inl
        );
    }
    write_json("fig13", &figs::fig13_json(&rows));
}

fn sweep_table(rows: &[(String, Vec<(u32, f64)>)]) {
    for (name, pts) in rows {
        print!("{name:<10}");
        for (x, y) in pts {
            print!(" {x:>2}:{y:<5.2}");
        }
        println!();
    }
}

fn fig14() {
    println!("== Figure 14: static schedule length vs address/data separation (normalized) ==");
    sweep_table(&figs::fig14());
}

fn fig15(p: Profile) {
    println!("== Figure 15: in-lane benchmark time vs separation (normalized to min) ==");
    sweep_table(&figs::fig15(p));
}

fn fig16(p: Profile) {
    println!("== Figure 16: cross-lane benchmark time vs separation (normalized to min) ==");
    sweep_table(&figs::fig16(p));
}

fn fig17() {
    println!("== Figure 17: in-lane indexed throughput (words/cycle/lane) ==");
    println!("{:<12} FIFO size : throughput", "sub-arrays");
    for (s, pts) in figs::fig17(4000) {
        print!("{s:<12}");
        for (f, t) in pts {
            print!(" {f}:{t:<6.3}");
        }
        println!();
    }
}

fn fig18() {
    println!("== Figure 18: cross-lane throughput vs comm occupancy (words/cycle/lane) ==");
    println!("{:<12} occupancy% : throughput", "ports/bank");
    for (ports, pts) in figs::fig18(4000) {
        print!("{ports:<12}");
        for (c, t) in pts {
            print!(" {c}:{t:<6.3}");
        }
        println!();
    }
}

fn summary(p: Profile) {
    println!("== Headline: ISRF4 vs Base (paper: 1.03x-4.1x speedup, up to 95% traffic cut) ==");
    println!(
        "{:<10} {:>8} {:>12} {:>13}",
        "benchmark", "speedup", "traffic cut", "energy ratio"
    );
    let rows = figs::summary(p);
    for (name, sp, cut, er) in &rows {
        println!("{name:<10} {sp:>7.2}x {:>11.1}% {er:>13.2}", cut * 100.0);
    }
    write_json("summary", &figs::summary_json(&rows));
}

/// The design-choice ablations DESIGN.md calls out: conditional-stream
/// merge vs a bitonic network for the Sort baseline, DRAM burst
/// granularity (the memory-access-scheduling assumption), and the
/// Section 7 sparse cross-lane interconnect (crossbar vs ring).
fn ablations() {
    let params = SortParams::default();
    let cond = isrf_apps::sort::prepare(ConfigName::Base, &params).run_and_check();
    let bitonic = run_base_bitonic(ConfigName::Base, &params);
    println!(
        "Ablation: Sort baseline mechanism ({} keys per lane)",
        params.keys_per_lane
    );
    println!("  conditional-stream merge: {} cycles", cond.cycles);
    println!("  bitonic network:          {} cycles", bitonic.cycles);
    println!("Ablation: DRAM burst granularity (512 scattered word gathers)");
    for burst in [1u32, 4] {
        let mut cfg = MachineConfig::preset(ConfigName::Base);
        cfg.dram.burst_words = burst;
        let mut sys = MemorySystem::new(&cfg);
        let addrs: Vec<u32> = (0..512u32).map(|k| (k * 97) % 4096 * 16).collect();
        let (id, _) = sys.start_read(&AddrPattern::Indexed(addrs), false);
        while !sys.is_complete(id) {
            sys.tick();
        }
        println!("  burst {burst} words: {} cycles", sys.now());
    }
    println!("Ablation: cross-lane interconnect (1 port/bank, no comm)");
    for topo in [CrossLaneTopology::Crossbar, CrossLaneTopology::Ring] {
        println!(
            "  {topo:?}: {:.3} words/cycle/lane",
            crosslane_throughput_with_topology(1, 0, topo, 3000)
        );
    }
}

const TARGETS: [&str; 15] = [
    "all",
    "table3",
    "table4",
    "area",
    "energy",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "summary",
    "ablations",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        for t in TARGETS {
            println!("{t}");
        }
        return;
    }
    let p = profile(&args);
    let what = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(String::as_str)
        .unwrap_or("all");
    if !TARGETS.contains(&what) {
        eprintln!(
            "unknown target `{what}`; expected one of: {}",
            TARGETS.join(" ")
        );
        std::process::exit(2);
    }
    let all = what == "all";
    if all || what == "table3" {
        table3();
        println!();
    }
    if all || what == "table4" {
        table4();
        println!();
    }
    if all || what == "area" {
        area();
        println!();
    }
    if all || what == "energy" {
        energy();
        println!();
    }
    if all || what == "fig11" {
        fig11(p);
        println!();
    }
    if all || what == "fig12" {
        fig12(p);
        println!();
    }
    if all || what == "fig13" {
        fig13(p);
        println!();
    }
    if all || what == "fig14" {
        fig14();
        println!();
    }
    if all || what == "fig15" {
        fig15(p);
        println!();
    }
    if all || what == "fig16" {
        fig16(p);
        println!();
    }
    if all || what == "fig17" {
        fig17();
        println!();
    }
    if all || what == "fig18" {
        fig18();
        println!();
    }
    if all || what == "summary" {
        summary(p);
    }
    if what == "ablations" {
        ablations();
    }
}
