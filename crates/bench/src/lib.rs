//! Figure and table regeneration for the HPCA 2004 indexed-SRF paper.
//!
//! Every evaluation artifact of the paper has a generator here returning
//! structured data and the `figures` binary renders them as text tables.
//! The benchmarks and their sizes come from [`isrf_apps::registry`], and
//! every simulated point is checked against its host reference. See
//! DESIGN.md for the experiment index and EXPERIMENTS.md for
//! paper-vs-measured numbers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use isrf_apps::common::set_separation_override;
use isrf_apps::{fft2d, filter, igraph, micro, prepare_app, rijndael, sort, Profile, BENCHMARKS};
use isrf_check::run_parallel;
use isrf_core::config::{ConfigName, MachineConfig};
use isrf_kernel::ir::Kernel;
use isrf_kernel::sched::{schedule, SchedParams};
use isrf_sram::{AreaModel, EnergyModel, SrfGeometry, SrfVariant};

pub mod perf;

/// Figure 11: off-chip memory traffic of ISRF and Cache normalized to Base.
///
/// All benchmark × config points run concurrently via the sweep driver;
/// results are grouped back per benchmark in input order, so the output is
/// identical to a serial sweep.
pub fn fig11(profile: Profile) -> Vec<(String, f64, f64)> {
    const CFGS: [ConfigName; 3] = [ConfigName::Base, ConfigName::Isrf4, ConfigName::Cache];
    let points: Vec<(&str, ConfigName)> = BENCHMARKS
        .iter()
        .flat_map(|&(_, app)| CFGS.iter().map(move |&cfg| (app, cfg)))
        .collect();
    let stats = run_parallel(&points, |&(app, cfg)| {
        prepare_app(app, cfg, profile).run_and_check()
    });
    BENCHMARKS
        .iter()
        .zip(stats.chunks_exact(CFGS.len()))
        .map(|(&(label, _), s)| {
            let (base, isrf, cache) = (&s[0], &s[1], &s[2]);
            (
                label.to_string(),
                isrf.mem.normalized_to(&base.mem),
                cache.mem.normalized_to(&base.mem),
            )
        })
        .collect()
}

/// One Figure 12 row: a config's execution-time breakdown normalized to
/// its benchmark's Base total.
#[derive(Debug, Clone)]
pub struct Fig12Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Machine configuration.
    pub config: ConfigName,
    /// `[kernel loop, memory stall, SRF stall, overheads]`, as fractions
    /// of the Base configuration's total cycles.
    pub parts: [f64; 4],
    /// Absolute cycle count of this config's run.
    pub cycles: u64,
    /// The un-normalized breakdown, same component order as `parts`.
    pub raw: [u64; 4],
    /// Off-chip bytes moved (reads + writes).
    pub mem_bytes: u64,
}

impl Fig12Row {
    /// Total normalized execution time.
    pub fn total(&self) -> f64 {
        self.parts.iter().sum()
    }
}

/// Figure 12: execution-time breakdowns for all benchmarks and configs,
/// with every benchmark × config point simulated concurrently.
pub fn fig12(profile: Profile) -> Vec<Fig12Row> {
    let points: Vec<(&str, ConfigName)> = BENCHMARKS
        .iter()
        .flat_map(|&(_, app)| ConfigName::ALL.iter().map(move |&cfg| (app, cfg)))
        .collect();
    let stats = run_parallel(&points, |&(app, cfg)| {
        prepare_app(app, cfg, profile).run_and_check()
    });
    let mut rows = Vec::new();
    for (&(label, _), per_cfg) in BENCHMARKS
        .iter()
        .zip(stats.chunks_exact(ConfigName::ALL.len()))
    {
        let base = per_cfg[ConfigName::ALL
            .iter()
            .position(|&c| c == ConfigName::Base)
            .expect("Base is a config")];
        let d = base.cycles.max(1) as f64;
        for (&cfg, stats) in ConfigName::ALL.iter().zip(per_cfg) {
            let b = stats.breakdown;
            rows.push(Fig12Row {
                benchmark: label.to_string(),
                config: cfg,
                parts: [
                    b.kernel_loop as f64 / d,
                    b.mem_stall as f64 / d,
                    b.srf_stall as f64 / d,
                    b.overhead as f64 / d,
                ],
                cycles: stats.cycles,
                raw: [b.kernel_loop, b.mem_stall, b.srf_stall, b.overhead],
                mem_bytes: stats.mem.total(),
            });
        }
    }
    rows
}

/// Figure 13: sustained SRF bandwidth demands (words/cycle/lane) per
/// benchmark on ISRF4, split `[sequential, cross-lane, in-lane]`.
pub fn fig13(profile: Profile) -> Vec<(String, [f64; 3])> {
    run_parallel(&BENCHMARKS, |&(label, app)| {
        let s = prepare_app(app, ConfigName::Isrf4, profile).run_and_check();
        (
            label.to_string(),
            s.srf.per_cycle_per_lane(s.main_loop_cycles, 8),
        )
    })
}

/// The kernels of the Figure 14–16 studies, by paper name.
fn study_kernel(name: &str) -> Kernel {
    let rk = isrf_apps::aes::key_expansion(&isrf_apps::aes::FIPS_KEY);
    match name {
        "FFT2D" => fft2d::build_bf_idx_kernel(8),
        "Rijndael" => rijndael::build_isrf_kernel(&rk, 1),
        "Sort1" => sort::sort1_kernel(),
        "Sort2" => sort::sort2_kernel(),
        "Filter" => filter::build_isrf_kernel(),
        "IGraph1" => igraph::build_kernel(&igraph::dataset("IG_DMS"), true),
        "IGraph2" => igraph::build_kernel(&igraph::dataset("IG_DCS"), true),
        _ => panic!("unknown study kernel {name}"),
    }
}

/// The in-lane kernels of Figures 14/15.
pub const INLANE_KERNELS: [&str; 5] = ["FFT2D", "Rijndael", "Sort1", "Sort2", "Filter"];
/// The cross-lane kernels of Figures 14/16.
pub const CROSSLANE_KERNELS: [&str; 2] = ["IGraph1", "IGraph2"];

/// Figure 14: static schedule length (II) of each kernel's inner loop as
/// the address/data separation grows, normalized to the shortest
/// separation. Returns `(kernel, Vec<(separation, normalized II)>)`.
pub fn fig14() -> Vec<(String, Vec<(u32, f64)>)> {
    let base = SchedParams::from_machine(&MachineConfig::preset(ConfigName::Isrf4));
    let mut out = Vec::new();
    for &name in INLANE_KERNELS.iter().chain(CROSSLANE_KERNELS.iter()) {
        let k = study_kernel(name);
        let cross = CROSSLANE_KERNELS.contains(&name);
        let seps: Vec<u32> = if cross {
            (2..=24).step_by(2).collect()
        } else {
            (2..=10).collect()
        };
        let mut pts = Vec::new();
        let mut first = None;
        for &sep in &seps {
            let p = if cross {
                base.clone().with_separations(6, sep)
            } else {
                base.clone().with_separations(sep, 20)
            };
            let ii = schedule(&k, &p).expect("study kernels schedule").ii as f64;
            let f = *first.get_or_insert(ii);
            pts.push((sep, ii / f));
        }
        out.push((name.to_string(), pts));
    }
    out
}

/// Figure 15: execution time of the in-lane-indexed benchmarks as the
/// in-lane separation sweeps, normalized to each benchmark's minimum.
/// Returns `(benchmark, Vec<(separation, normalized cycles)>)`.
pub fn fig15(profile: Profile) -> Vec<(String, Vec<(u32, f64)>)> {
    // FFT 2D, Rijndael, Sort, Filter.
    separation_sweep(
        &BENCHMARKS[..4],
        &(2..=10u32).step_by(2).collect::<Vec<_>>(),
        |sep| (sep, 20),
        profile,
    )
}

/// Figure 16: execution time of the cross-lane-indexed benchmarks as the
/// cross-lane separation sweeps, normalized to each benchmark's minimum.
pub fn fig16(profile: Profile) -> Vec<(String, Vec<(u32, f64)>)> {
    // IG_DMS, IG_DCS.
    separation_sweep(
        &BENCHMARKS[5..7],
        &(4..=28u32).step_by(4).collect::<Vec<_>>(),
        |sep| (6, sep),
        profile,
    )
}

/// Shared driver for the Figure 15/16 separation sweeps: every
/// (benchmark, separation) point is its own parallel work item. The
/// address/data separation override is thread-local, so each worker sets
/// it just for its point and clears it before returning the stats.
fn separation_sweep(
    benchmarks: &[(&str, &str)],
    seps: &[u32],
    over: impl Fn(u32) -> (u32, u32) + Sync,
    profile: Profile,
) -> Vec<(String, Vec<(u32, f64)>)> {
    let points: Vec<(&str, u32)> = benchmarks
        .iter()
        .flat_map(|&(_, app)| seps.iter().map(move |&sep| (app, sep)))
        .collect();
    let cycles = run_parallel(&points, |&(app, sep)| {
        set_separation_override(Some(over(sep)));
        let s = prepare_app(app, ConfigName::Isrf4, profile).run_and_check();
        set_separation_override(None);
        s.cycles as f64
    });
    benchmarks
        .iter()
        .zip(cycles.chunks_exact(seps.len()))
        .map(|(&(label, _), c)| {
            let min = c.iter().copied().fold(f64::MAX, f64::min);
            (
                label.to_string(),
                seps.iter().zip(c).map(|(&s, &cy)| (s, cy / min)).collect(),
            )
        })
        .collect()
}

/// Figure 17: in-lane indexed throughput vs sub-arrays and FIFO depth.
/// Returns `(subarrays, Vec<(fifo, words/cycle/lane)>)`.
pub fn fig17(cycles: u64) -> Vec<(usize, Vec<(usize, f64)>)> {
    [1usize, 2, 4, 8]
        .iter()
        .map(|&s| {
            let pts = [1usize, 2, 4, 6, 8]
                .iter()
                .map(|&f| (f, micro::inlane_throughput(s, f, 8, cycles)))
                .collect();
            (s, pts)
        })
        .collect()
}

/// Figure 18: cross-lane throughput vs network ports per bank and
/// inter-cluster communication occupancy.
/// Returns `(ports, Vec<(occupancy%, words/cycle/lane)>)`.
pub fn fig18(cycles: u64) -> Vec<(usize, Vec<(u32, f64)>)> {
    [1usize, 2, 4]
        .iter()
        .map(|&ports| {
            let pts = (0..=80u32)
                .step_by(10)
                .map(|c| (c, micro::crosslane_throughput(ports, c, cycles)))
                .collect();
            (ports, pts)
        })
        .collect()
}

/// Section 4.6 area results: `(variant, SRF overhead, die overhead)`.
pub fn area_table() -> Vec<(SrfVariant, f64, f64)> {
    let model = AreaModel::default();
    let geom = SrfGeometry::paper_default();
    SrfVariant::ALL
        .iter()
        .skip(1) // sequential is the baseline
        .map(|&v| {
            (
                v,
                model.overhead_vs_sequential(&geom, v),
                model.die_overhead(&geom, v),
            )
        })
        .collect()
}

/// Section 4.5 energy results in nJ: sequential word, in-lane indexed
/// word, cross-lane indexed word, DRAM access.
pub fn energy_table() -> (f64, f64, f64, f64) {
    let m = EnergyModel::default();
    let g = SrfGeometry::paper_default();
    (
        m.seq_word_nj(&g),
        m.indexed_word_nj(&g),
        m.crosslane_word_nj(&g),
        m.dram_access_nj(),
    )
}

/// Headline summary: per benchmark, ISRF4 speedup over Base, traffic
/// reduction (Section 1's 1.03x–4.1x and up-to-95% claims), and the
/// data-movement energy ratio implied by the Section 4.5 model.
pub fn summary(profile: Profile) -> Vec<(String, f64, f64, f64)> {
    let em = EnergyModel::default();
    let geom = SrfGeometry::paper_default();
    run_parallel(&BENCHMARKS, |&(label, app)| {
        let base = prepare_app(app, ConfigName::Base, profile).run_and_check();
        let isrf = prepare_app(app, ConfigName::Isrf4, profile).run_and_check();
        (
            label.to_string(),
            isrf.speedup_over(&base),
            1.0 - isrf.mem.normalized_to(&base.mem),
            em.run_energy_nj(&geom, &isrf) / em.run_energy_nj(&geom, &base).max(1e-9),
        )
    })
}

/// Render a list of JSON objects (already-rendered `"key": value` field
/// strings per row) as a pretty-printed JSON array.
fn json_array(rows: Vec<Vec<String>>) -> String {
    let body: Vec<String> = rows
        .into_iter()
        .map(|fields| format!("  {{{}}}", fields.join(", ")))
        .collect();
    format!("[\n{}\n]\n", body.join(",\n"))
}

fn json_str(name: &str, v: &str) -> String {
    format!("\"{name}\": \"{}\"", isrf_trace::json::escaped(v))
}

fn json_f64(name: &str, v: f64) -> String {
    // Finite by construction; fixed precision keeps output diff-stable.
    format!("\"{name}\": {v:.6}")
}

fn json_u64(name: &str, v: u64) -> String {
    format!("\"{name}\": {v}")
}

/// Figure 11 rows as machine-readable JSON.
pub fn fig11_json(rows: &[(String, f64, f64)]) -> String {
    json_array(
        rows.iter()
            .map(|(name, isrf, cache)| {
                vec![
                    json_str("benchmark", name),
                    json_f64("isrf", *isrf),
                    json_f64("cache", *cache),
                ]
            })
            .collect(),
    )
}

/// Figure 12 rows as machine-readable JSON, including the absolute cycle
/// counts and raw breakdown behind the normalized fractions.
pub fn fig12_json(rows: &[Fig12Row]) -> String {
    json_array(
        rows.iter()
            .map(|r| {
                vec![
                    json_str("benchmark", &r.benchmark),
                    json_str("config", &r.config.to_string()),
                    json_f64("kernel_loop", r.parts[0]),
                    json_f64("mem_stall", r.parts[1]),
                    json_f64("srf_stall", r.parts[2]),
                    json_f64("overhead", r.parts[3]),
                    json_f64("total", r.total()),
                    json_u64("cycles", r.cycles),
                    json_u64("raw_kernel_loop", r.raw[0]),
                    json_u64("raw_mem_stall", r.raw[1]),
                    json_u64("raw_srf_stall", r.raw[2]),
                    json_u64("raw_overhead", r.raw[3]),
                    json_u64("mem_bytes", r.mem_bytes),
                ]
            })
            .collect(),
    )
}

/// Figure 13 rows as machine-readable JSON.
pub fn fig13_json(rows: &[(String, [f64; 3])]) -> String {
    json_array(
        rows.iter()
            .map(|(name, [seq, xl, inl])| {
                vec![
                    json_str("benchmark", name),
                    json_f64("sequential", *seq),
                    json_f64("crosslane", *xl),
                    json_f64("inlane", *inl),
                ]
            })
            .collect(),
    )
}

/// Headline-summary rows as machine-readable JSON.
pub fn summary_json(rows: &[(String, f64, f64, f64)]) -> String {
    json_array(
        rows.iter()
            .map(|(name, sp, cut, er)| {
                vec![
                    json_str("benchmark", name),
                    json_f64("speedup", *sp),
                    json_f64("traffic_cut", *cut),
                    json_f64("energy_ratio", *er),
                ]
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig11_shape_matches_paper() {
        let rows = fig11(Profile::Small);
        let get = |n: &str| rows.iter().find(|r| r.0 == n).unwrap().clone();
        // Rijndael and FFT 2D save big; Sort and Filter save nothing.
        assert!(get("Rijndael").1 < 0.15);
        assert!(get("FFT 2D").1 < 0.5);
        assert!((0.9..=1.1).contains(&get("Sort").1));
        assert!((0.85..=1.15).contains(&get("Filter").1));
        for ig in ["IG_SML", "IG_DMS", "IG_DCS", "IG_SCL"] {
            assert!(get(ig).1 < 0.9, "{ig}: {}", get(ig).1);
        }
    }

    #[test]
    fn cache_captures_more_ig_locality_than_isrf() {
        // Section 5.3: "Cache outperforms ISRF in terms of locality
        // capture for the irregular (IG) benchmarks as it is also able to
        // capture inter-strip reuse".
        let rows = fig11(Profile::Small);
        for ig in ["IG_DMS", "IG_DCS"] {
            let (_, isrf, cache) = rows.iter().find(|r| r.0 == ig).unwrap();
            assert!(cache < isrf, "{ig}: cache {cache:.3} vs isrf {isrf:.3}");
        }
    }

    #[test]
    fn fig14_shapes_match_paper() {
        let rows = fig14();
        let get = |n: &str| rows.iter().find(|r| r.0 == n).unwrap().1.clone();
        // Recurrence kernels grow; software-pipelined kernels stay flat.
        let rij = get("Rijndael");
        assert!(rij.last().unwrap().1 > 1.2, "Rijndael grows: {rij:?}");
        let s2 = get("Sort2");
        assert!(s2.last().unwrap().1 > 1.2, "Sort2 grows: {s2:?}");
        let s1 = get("Sort1");
        assert!(
            s1.last().unwrap().1 > 1.05 && s1.last().unwrap().1 < s2.last().unwrap().1,
            "Sort1 grows mildly: {s1:?}"
        );
        for flat in ["FFT2D", "Filter", "IGraph1", "IGraph2"] {
            let pts = get(flat);
            assert!(
                pts.last().unwrap().1 < 1.15,
                "{flat} should stay flat: {pts:?}"
            );
        }
    }

    #[test]
    fn area_and_energy_match_section_4() {
        let area = area_table();
        assert!((0.09..=0.13).contains(&area[0].1), "ISRF1 {:.3}", area[0].1);
        assert!((0.16..=0.20).contains(&area[1].1), "ISRF4 {:.3}", area[1].1);
        assert!((0.20..=0.24).contains(&area[2].1), "XL {:.3}", area[2].1);
        let (seq, inl, _xl, dram) = energy_table();
        assert!((0.08..=0.12).contains(&inl));
        assert!(inl / seq > 2.5);
        assert!(dram / inl > 10.0);
    }
}
