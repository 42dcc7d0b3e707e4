//! The application registry: every benchmark app reachable by its short
//! name, with one sizing knob.
//!
//! The figure harness, the differential suite, the trace/verify binaries
//! and the batch simulation server all need the same thing — "give me a
//! ready-to-run machine + program + expected outputs for app X on config Y
//! at size Z" — so the lookup lives here, below all of them.

use isrf_core::config::ConfigName;

use crate::common::Prepared;
use crate::{bfs, fft2d, filter, igraph, rijndael, sort, spmv, stencil};

/// Benchmark sizing profile: `Small` keeps unit tests and CI quick;
/// `Paper` uses the paper's workload sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Reduced sizes for unit tests and CI.
    Small,
    /// The paper's workload sizes.
    Paper,
}

/// The eight distinct applications (the IG benchmarks share one program
/// family), by the short names the differential suite, the `trace` binary
/// and the job server use.
pub const APPS: [&str; 8] = [
    "fft2d", "rijndael", "sort", "filter", "igraph", "spmv", "stencil", "bfs",
];

/// The application benchmarks of Section 5.2 in the paper's figure order,
/// as `(label, app)`: the label the figures print and the name
/// [`prepare_app`] builds it from. The four IG datasets share the
/// `igraph` program family and are named by dataset.
pub const BENCHMARKS: [(&str, &str); 8] = [
    ("FFT 2D", "fft2d"),
    ("Rijndael", "rijndael"),
    ("Sort", "sort"),
    ("Filter", "filter"),
    ("IG_SML", "IG_SML"),
    ("IG_DMS", "IG_DMS"),
    ("IG_DCS", "IG_DCS"),
    ("IG_SCL", "IG_SCL"),
];

/// Build a ready-to-run machine + program + expected outputs for one app,
/// without running it — the caller installs tracers, runs, and inspects,
/// or calls [`Prepared::run_and_check`] to run against the host reference.
///
/// `app` is one of [`APPS`] or an IG dataset name (`IG_SML`, `IG_DMS`,
/// `IG_DCS`, `IG_SCL`); `igraph` is `IG_SML`.
///
/// # Panics
///
/// Panics on an unknown app name.
pub fn prepare_app(app: &str, cfg: ConfigName, profile: Profile) -> Prepared {
    let small = profile == Profile::Small;
    match app {
        "fft2d" => fft2d::prepare(
            cfg,
            &fft2d::Fft2dParams {
                reps: if small { 1 } else { 2 },
                ..Default::default()
            },
        ),
        "rijndael" => rijndael::prepare(
            cfg,
            &rijndael::RijndaelParams {
                chains_per_lane: if small { 2 } else { 8 },
                waves: if small { 2 } else { 4 },
                strips: if small { 2 } else { 4 },
                ..Default::default()
            },
        ),
        "sort" => sort::prepare(
            cfg,
            &sort::SortParams {
                keys_per_lane: if small { 64 } else { 512 },
                ..Default::default()
            },
        ),
        "filter" => filter::prepare(
            cfg,
            &filter::FilterParams {
                rows: if small { 32 } else { 256 },
                ..Default::default()
            },
        ),
        "igraph" | "IG_SML" | "IG_DMS" | "IG_DCS" | "IG_SCL" => {
            let mut ds = igraph::dataset(if app == "igraph" { "IG_SML" } else { app });
            if small {
                // Shrink the graph, keeping strip structure intact.
                ds.nodes /= if ds.degree == 4 { 4 } else { 2 };
            }
            igraph::prepare(cfg, &ds)
        }
        "spmv" => spmv::prepare(
            cfg,
            &spmv::SpmvParams {
                rows: if small { 256 } else { 2048 },
                strip_rows: if small { 32 } else { 64 },
                ..Default::default()
            },
        ),
        "stencil" => stencil::prepare(
            cfg,
            &stencil::StencilParams {
                rows: if small { 64 } else { 256 },
                ..Default::default()
            },
        ),
        "bfs" => bfs::prepare(
            cfg,
            &bfs::BfsParams {
                nodes: if small { 512 } else { 4096 },
                strip_nodes: if small { 64 } else { 128 },
                max_degree: if small { 8 } else { 12 },
                window: if small { 32 } else { 64 },
                max_sweeps: if small { 8 } else { 12 },
                ..Default::default()
            },
        ),
        other => panic!("unknown app {other}; expected one of {APPS:?} or an IG dataset"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registered_app_prepares() {
        for app in APPS {
            let pr = prepare_app(app, ConfigName::Base, Profile::Small);
            assert!(!pr.program.is_empty(), "{app} builds a program");
        }
    }

    #[test]
    fn every_paper_benchmark_prepares() {
        for (label, app) in BENCHMARKS {
            let pr = prepare_app(app, ConfigName::Isrf4, Profile::Small);
            assert!(!pr.program.is_empty(), "{label} builds a program");
        }
    }
}
