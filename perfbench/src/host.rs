//! Host fingerprint and calibration score, recorded with every result so
//! runs on different machines can be told apart.

use std::hint::black_box;
use std::time::Instant;

use isrf_serve::Json;

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process in MiB, from `VmHWM` in
/// `/proc/self/status` (0 where procfs is missing).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit of the checkout, when it is a git work tree.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

/// Score of a fixed integer reference loop in millions of iterations per
/// second: the median of five timed repetitions in this process. Divide a
/// host-time metric by it to compare hosts.
pub fn calibration_mops() -> f64 {
    const ITERS: u64 = 20_000_000;
    let mut scores: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
            for i in 0..ITERS {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x = x.wrapping_add(i);
            }
            black_box(x);
            ITERS as f64 / t.elapsed().as_secs_f64() / 1e6
        })
        .collect();
    crate::median(&mut scores)
}

/// The fingerprint as a JSON object.
pub fn fingerprint(calibration: f64) -> Json {
    Json::Obj(vec![
        ("nproc".into(), Json::u64(nproc() as u64)),
        ("cpu".into(), Json::str(cpu_model())),
        ("rustc".into(), Json::str(env!("PERFBENCH_RUSTC"))),
        ("commit".into(), Json::str(git_commit())),
        ("calibration_mops".into(), Json::Num(calibration)),
    ])
}
