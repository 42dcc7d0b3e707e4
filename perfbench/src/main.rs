//! The repository benchmark: end-to-end metrics of three workloads with
//! tracing off, or per-layer metrics from a traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_indexed|paper_sequential|serve_mix \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Human-readable lines come first; the last line of standard output is
//! one JSON object with the keys `correct`, `attempted`, `failed` and
//! `metrics`. `perfbench/METRICS.md` lists every metric, its unit, the
//! layer it belongs to and the end-to-end metric it should move.

mod host;
mod points;
mod serve;
mod span;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use isrf_apps::Profile;
use isrf_core::config::ConfigName;
use isrf_serve::Json;

use points::{run_pass, set_up, shuffled, Expected, Pass, Point, Setup, Work, WORK_NAMES};
use span::Spans;

/// Setting up is repeated in this many extra child processes; `setup_s`
/// is the median over them and the measuring process.
const SETUP_CHILDREN: usize = 4;

/// Where a traced run writes its spans: `out/` beside this package.
const SPANS_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// SplitMix64: the benchmark's only source of randomness, so one seed
/// fixes every input.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// The `q` quantile of `v` by linear interpolation (0 when empty).
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    PaperIndexed,
    PaperSequential,
    ServeMix,
}

impl Workload {
    const ALL: [(&'static str, Workload); 3] = [
        ("paper_indexed", Workload::PaperIndexed),
        ("paper_sequential", Workload::PaperSequential),
        ("serve_mix", Workload::ServeMix),
    ];

    fn configs(self) -> [ConfigName; 2] {
        match self {
            Workload::PaperIndexed => [ConfigName::Isrf1, ConfigName::Isrf4],
            _ => [ConfigName::Base, ConfigName::Cache],
        }
    }

    /// The points simulated directly: the paper pairs at Paper size, or
    /// the served job grid at Small size.
    fn points(self, seed: u64) -> (Vec<Point>, Profile) {
        match self {
            Workload::ServeMix => (serve::grid(seed), Profile::Small),
            w => (shuffled(&w.configs(), seed), Profile::Paper),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Child {
    /// Set up once and print `setup_s`.
    Setup,
    /// Set up and make one recording pass; print the deterministic counts.
    Counts,
}

#[derive(Debug, Clone)]
struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    child: Option<Child>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut kv: BTreeMap<&str, &str> = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                kv.insert(&k[2..], v);
            }
            _ => return Err(format!("unexpected argument {:?}", pair[0])),
        }
    }
    let get = |k: &str| kv.get(k).copied().ok_or_else(|| format!("missing --{k}"));
    let name = get("workload")?;
    let workload = Workload::ALL
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, w)| w)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = get("seed")?
        .parse()
        .map_err(|_| "--seed must be an unsigned integer")?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number")?;
    if !(0.0..=3600.0).contains(&seconds) {
        return Err("--seconds must be in 0..=3600".into());
    }
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    let child = match kv.get("child").copied() {
        None => None,
        Some("setup") => Some(Child::Setup),
        Some("counts") => Some(Child::Counts),
        Some(c) => return Err(format!("unknown --child {c:?}")),
    };
    Ok(Args {
        workload,
        name: name.to_string(),
        seed,
        seconds,
        trace,
        child,
    })
}

/// What a run reports.
#[derive(Debug, Default)]
struct Outcome {
    attempted: u64,
    failures: Vec<String>,
    /// `(name, value, unit)`.
    metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable lines printed before the result.
    report: Vec<String>,
    /// The traced run's spans, written out when the run ends.
    spans: Option<Spans>,
}

impl Outcome {
    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }
}

fn main() -> ExitCode {
    let origin = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload paper_indexed|paper_sequential|serve_mix \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    match args.child {
        Some(Child::Setup) => println!("{}", Json::Num(setup_once(&args, origin)).render()),
        Some(Child::Counts) => println!("{}", counts_json(&deterministic_counts(&args, origin))),
        None => run(&args, origin),
    }
    ExitCode::SUCCESS
}

fn run(args: &Args, origin: Instant) {
    let mut out = match (args.workload, args.trace) {
        (Workload::ServeMix, false) => serve_mix(args, origin),
        (Workload::ServeMix, true) => traced_serve_mix(args, origin),
        (_, false) => paper(args, origin),
        (_, true) => traced_paper(args, origin),
    };
    let calibration = host::calibration_mops();
    if args.trace {
        out.metric("host.calibration_mops", calibration, "Mops/s");
    }
    let failed = out.failures.len() as u64;
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("host {}", host::fingerprint(calibration).render());
    if let Some(sp) = &out.spans {
        let path = format!("{SPANS_DIR}/{}-seed{}.json", args.name, args.seed);
        match std::fs::create_dir_all(SPANS_DIR)
            .and_then(|()| std::fs::write(&path, sp.chrome_json()))
        {
            Ok(()) => out.report.push(format!("spans written to {path}")),
            Err(e) => out.report.push(format!("spans not written to {path}: {e}")),
        }
    }
    for l in &out.report {
        println!("{l}");
    }
    for f in &out.failures {
        println!("FAILED {f}");
    }
    println!(
        "failed_share {} ({failed} of {})",
        failed as f64 / out.attempted.max(1) as f64,
        out.attempted
    );
    for (n, v, u) in &out.metrics {
        println!("  {n:<32} {v:>18.6} {u}");
    }
    let metrics = out
        .metrics
        .iter()
        .map(|(n, v, u)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            (
                n.clone(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(v)),
                    ("unit".into(), Json::str(*u)),
                ]),
            )
        })
        .collect();
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(failed == 0)),
        ("attempted".into(), Json::u64(out.attempted.max(1))),
        ("failed".into(), Json::u64(failed)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    println!("{}", result.render());
}

/// Run this binary again as a fresh `--child kind` process on `seed` and
/// return the last line of its standard output, parsed.
fn child(args: &Args, seed: u64, kind: &str) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", &args.name, "--seed", &seed.to_string()])
        .args(["--seconds", "0", "--trace", "0", "--child", kind])
        .output()
        .map_err(|e| format!("child {kind}: {e}"))?;
    if !out.status.success() {
        return Err(format!("child {kind} exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().unwrap_or_default();
    Json::parse(last).map_err(|e| format!("child {kind} printed {last:?}: {e}"))
}

/// Median set-up seconds over this process and [`SETUP_CHILDREN`] fresh
/// child processes; each child counts as one attempt.
fn setup_median(args: &Args, own: f64, out: &mut Outcome) -> f64 {
    let mut v = vec![own];
    for _ in 0..SETUP_CHILDREN {
        out.attempted += 1;
        match child(args, args.seed, "setup")
            .and_then(|j| j.as_f64().ok_or_else(|| "no setup_s".into()))
        {
            Ok(s) => v.push(s),
            Err(e) => out.failures.push(e),
        }
    }
    median(&mut v)
}

/// Set up once, as the measuring process does, and return the seconds
/// since `origin`.
fn setup_once(args: &Args, origin: Instant) -> f64 {
    let (pts, profile) = args.workload.points(args.seed);
    let mut off = Spans::new(false, origin);
    if args.workload == Workload::ServeMix {
        let w = serve::start_and_warm(&pts, serve::workers(), &mut off);
        let s = origin.elapsed().as_secs_f64();
        w.server.stop();
        s
    } else {
        set_up(&pts, profile, &mut off, false);
        origin.elapsed().as_secs_f64()
    }
}

/// Set-up memo misses and the work of one recording pass over the
/// workload's direct points: everything the determinism self-check
/// compares.
struct Counts {
    sched_misses: u64,
    tape_misses: u64,
    work: Work,
}

fn deterministic_counts(args: &Args, origin: Instant) -> Counts {
    let (pts, profile) = args.workload.points(args.seed);
    let mut off = Spans::new(false, origin);
    let setup = set_up(&pts, profile, &mut off, false);
    let mut refs = vec![None; pts.len()];
    let pass = run_pass(&pts, profile, &mut off, true, &mut refs);
    Counts {
        sched_misses: setup.sched_misses,
        tape_misses: setup.tape_misses,
        work: pass.work,
    }
}

fn counts_json(c: &Counts) -> String {
    let mut v = vec![Json::u64(c.sched_misses), Json::u64(c.tape_misses)];
    v.extend(c.work.0.iter().map(|&n| Json::u64(n)));
    Json::Arr(v).render()
}

/// Repeat the counts in two child processes, one on the same seed and one
/// on another; any difference is a failure.
fn determinism_check(args: &Args, own: &Counts, out: &mut Outcome) {
    let mine = counts_json(own);
    for seed in [args.seed, args.seed.wrapping_add(1)] {
        out.attempted += 1;
        match child(args, seed, "counts") {
            Ok(j) if j.render() == mine => {
                out.report.push(format!(
                    "determinism: seed {seed} repeats every count exactly"
                ));
            }
            Ok(j) => out.failures.push(format!(
                "determinism: seed {seed} gave counts {} against {mine}",
                j.render()
            )),
            Err(e) => out.failures.push(e),
        }
    }
}

fn deadline(seconds: f64) -> Instant {
    Instant::now() + Duration::from_secs_f64(seconds)
}

/// Each point's mean prepare + run time across passes, in milliseconds:
/// the latencies whose quantiles over points are reported.
fn point_latencies_ms(passes: &[Pass], n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| passes.iter().map(|p| p.point_s[i]).sum::<f64>() * 1e3 / passes.len() as f64)
        .collect()
}

fn paper(args: &Args, origin: Instant) -> Outcome {
    let (pts, profile) = args.workload.points(args.seed);
    let mut off = Spans::new(false, origin);
    let setup = set_up(&pts, profile, &mut off, false);
    let own_setup = origin.elapsed().as_secs_f64();
    let end = deadline(args.seconds);
    let mut refs: Vec<Option<Expected>> = vec![None; pts.len()];
    let mut passes = Vec::new();
    loop {
        passes.push(run_pass(&pts, profile, &mut off, false, &mut refs));
        if Instant::now() >= end {
            break;
        }
    }
    let peak = host::peak_rss_mb();
    let mut out = Outcome {
        attempted: (pts.len() * (passes.len() + 1)) as u64,
        failures: setup.failures,
        ..Outcome::default()
    };
    for p in &passes {
        out.failures.extend(p.failures.iter().cloned());
    }
    let setup_s = setup_median(args, own_setup, &mut out);
    // Rates are totals over every pass. On a shared host single passes
    // scatter widely and independently, and the total scatters least
    // between runs.
    let secs: f64 = passes.iter().map(|p| p.secs).sum();
    let cycles: u64 = passes.iter().map(|p| p.work.cycles()).sum();
    let mut lat = point_latencies_ms(&passes, pts.len());
    out.report.push(format!(
        "{} points x {} passes in {secs:.3} s; pass cycles/s: {}",
        pts.len(),
        passes.len(),
        passes
            .iter()
            .map(|p| format!("{:.0}", p.work.cycles() as f64 / p.secs))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    for (i, p) in pts.iter().enumerate() {
        out.report.push(format!(
            "  {:<18} {:>10} cycles {:>10.3} ms",
            p.to_string(),
            passes[0].point_work[i].cycles(),
            lat[i]
        ));
    }
    out.metric("setup_s", setup_s, "s");
    out.metric("sim_cycles_per_s", cycles as f64 / secs, "cycles/s");
    out.metric("simulated_cycles", passes[0].work.cycles() as f64, "cycles");
    out.metric(
        "jobs_per_s",
        (pts.len() * passes.len()) as f64 / secs,
        "1/s",
    );
    out.metric("job_p50_ms", quantile(&mut lat, 0.5), "ms");
    out.metric("job_p99_ms", quantile(&mut lat, 0.99), "ms");
    out.metric("peak_rss_mb", peak, "MiB");
    out
}

/// The traced run over a workload's direct points: set-up inside spans,
/// the uncached schedule probe, rounds of an unspanned, a spanned and a
/// recording pass until `seconds` have passed, and the determinism
/// self-check.
fn traced_points(args: &Args, origin: Instant, seconds: f64, sp: &mut Spans, out: &mut Outcome) {
    let (pts, profile) = args.workload.points(args.seed);
    let root = sp.enter("setup");
    let setup: Setup = set_up(&pts, profile, sp, true);
    sp.exit(root);
    let root = sp.enter("schedule");
    points::schedule_uncached(&setup, sp);
    sp.exit(root);
    out.failures.extend(setup.failures.iter().cloned());

    // Each round makes an unspanned pass, a spanned pass and a recording
    // pass, so the overhead ratios compare neighbours in time.
    let mut off = Spans::new(false, origin);
    let mut refs: Vec<Option<Expected>> = vec![None; pts.len()];
    let (mut span_ratio, mut record_ratio) = (Vec::new(), Vec::new());
    let mut rounds = 0;
    let end = deadline(seconds);
    let mut first_work = None;
    let rec = loop {
        let p0 = run_pass(&pts, profile, &mut off, false, &mut refs);
        let root = sp.enter("pass");
        let p1 = run_pass(&pts, profile, sp, false, &mut refs);
        sp.exit(root);
        let root = sp.enter("record");
        let p2 = run_pass(&pts, profile, sp, true, &mut refs);
        sp.exit(root);
        rounds += 1;
        for p in [&p0, &p1, &p2] {
            out.failures.extend(p.failures.iter().cloned());
        }
        if *first_work.get_or_insert(p2.work) != p2.work {
            out.failures.push(format!(
                "determinism: recording pass {rounds} counted different work"
            ));
        }
        span_ratio.push(p1.secs / p0.secs);
        record_ratio.push(p2.run_s / p1.run_s);
        if Instant::now() >= end {
            break p2;
        }
    };
    out.attempted += (pts.len() * (1 + 3 * rounds)) as u64;

    let n = rounds as f64;
    let s = sp.layers("setup");
    let pass = sp.layers("pass");
    let record = sp.layers("record");
    out.report.push(format!(
        "{} points x {rounds} rounds of unspanned, spanned and recording passes",
        pts.len()
    ));
    out.report
        .push("per-point counts (last recording pass):".into());
    for (i, p) in pts.iter().enumerate() {
        let w = &rec.point_work[i];
        out.report.push(format!(
            "  {:<18} {:>10} cycles {:>10} idx_grants {:>10} idx_rejects {:>8} cache_hits",
            p.to_string(),
            w.cycles(),
            w.get("sim.idx_grants"),
            w.get("sim.idx_rejects"),
            w.get("mem.cache_hits")
        ));
    }
    out.report
        .push("per-layer self time (spans from the benchmark's calls):".into());
    for (title, r) in [
        ("setup", &s),
        ("schedule", &sp.layers("schedule")),
        ("pass (all spanned passes)", &pass),
        ("record", &record),
    ] {
        out.report.extend(r.lines(title));
    }

    out.metric("apps.prepare_s", pass.self_s("apps.prepare") / n, "s");
    out.metric("apps.prepare_cold_s", s.self_s("apps.prepare"), "s");
    out.metric(
        "kernel.schedule_s",
        sp.layers("schedule").self_s("kernel.schedule"),
        "s",
    );
    out.metric("kernel.schedule_misses", setup.sched_misses as f64, "count");
    out.metric("tape.compile_s", s.self_s("tape.compile"), "s");
    out.metric("tape.misses", setup.tape_misses as f64, "count");
    out.metric("verify.report_s", s.self_s("verify.report"), "s");
    let run_s = pass.self_s("sim.run") / n;
    out.metric("sim.run_s", run_s, "s");
    for name in &WORK_NAMES[1..] {
        let unit = ["cycles", "bytes", "words"]
            .into_iter()
            .find(|u| name.ends_with(&format!("_{u}")))
            .unwrap_or("count");
        out.metric(name, rec.work.get(name) as f64, unit);
    }
    out.metric("sim.idx_grant_share", rec.work.idx_grant_share(), "ratio");
    out.metric("trace.record_overhead", median(&mut record_ratio), "ratio");
    out.metric("bench.span_overhead", median(&mut span_ratio), "ratio");
    let own = Counts {
        sched_misses: setup.sched_misses,
        tape_misses: setup.tape_misses,
        work: rec.work,
    };
    determinism_check(args, &own, out);
}

/// Serve metrics that do not apply to a workload without a server.
const SERVE_METRICS: [(&str, &str); 7] = [
    ("serve.submit_ms", "ms"),
    ("serve.wait_ms", "ms"),
    ("serve.result_ms", "ms"),
    ("serve.result_cache_hit_share", "ratio"),
    ("serve.verify_cache_misses", "count"),
    ("serve.worker_busy_share", "ratio"),
    ("serve.stolen_share", "ratio"),
];

fn traced_paper(args: &Args, origin: Instant) -> Outcome {
    let mut out = Outcome::default();
    let mut sp = Spans::new(true, origin);
    traced_points(args, origin, args.seconds, &mut sp, &mut out);
    for (name, unit) in SERVE_METRICS {
        out.metric(name, 0.0, unit);
    }
    out.spans = Some(sp);
    out
}

fn serve_mix(args: &Args, origin: Instant) -> Outcome {
    let (grid, _) = args.workload.points(args.seed);
    let workers = serve::workers();
    let mut off = Spans::new(false, origin);
    let w = serve::start_and_warm(&grid, workers, &mut off);
    let own_setup = origin.elapsed().as_secs_f64();
    let addr = w.server.addr();
    let oracle = serve::oracle(&grid);
    let mut out = Outcome {
        failures: w.failures,
        ..Outcome::default()
    };
    out.failures
        .extend(serve::check_warm(addr, &w.warm, &oracle));
    let (jobs, wall, _) = serve::drive(
        addr,
        &grid,
        &w.warm,
        &oracle,
        workers,
        args.seconds,
        args.seed,
        false,
        origin,
    );
    w.server.stop();
    let peak = host::peak_rss_mb();
    out.attempted += (2 * w.warm.len() + jobs.len()) as u64;
    out.failures
        .extend(jobs.iter().filter_map(|j| j.error.clone()));
    let setup_s = setup_median(args, own_setup, &mut out);
    let ok: Vec<&serve::JobRec> = jobs.iter().filter(|j| j.error.is_none()).collect();
    let simulated: u64 = ok
        .iter()
        .filter(|j| j.kind != serve::Kind::Repeat)
        .map(|j| j.cycles)
        .sum();
    let mut lat: Vec<f64> = jobs.iter().map(|j| j.latency_s * 1e3).collect();
    let by_kind = |k: serve::Kind| jobs.iter().filter(|j| j.kind == k).count();
    out.report.push(format!(
        "{} jobs in {wall:.3} s from {workers} clients to {workers} workers: {} unique, {} repeat, {} sweep",
        jobs.len(),
        by_kind(serve::Kind::Unique),
        by_kind(serve::Kind::Repeat),
        by_kind(serve::Kind::Sweep)
    ));
    out.metric("setup_s", setup_s, "s");
    out.metric("sim_cycles_per_s", simulated as f64 / wall, "cycles/s");
    out.metric(
        "simulated_cycles",
        oracle.values().map(|(c, _)| *c).sum::<u64>() as f64,
        "cycles",
    );
    out.metric("jobs_per_s", ok.len() as f64 / wall, "1/s");
    out.metric("job_p50_ms", quantile(&mut lat, 0.5), "ms");
    out.metric("job_p99_ms", quantile(&mut lat, 0.99), "ms");
    out.metric("peak_rss_mb", peak, "MiB");
    out
}

fn delta(m0: &BTreeMap<String, u64>, m1: &BTreeMap<String, u64>, k: &str) -> f64 {
    let get = |m: &BTreeMap<String, u64>| m.get(k).copied().unwrap_or(0);
    get(m1).saturating_sub(get(m0)) as f64
}

fn traced_serve_mix(args: &Args, origin: Instant) -> Outcome {
    let mut out = Outcome::default();
    let mut sp = Spans::new(true, origin);
    // The simulation layers are measured on a direct pass over the job
    // grid first, since the benchmark cannot see inside the server.
    traced_points(args, origin, 1.0, &mut sp, &mut out);
    let (grid, _) = args.workload.points(args.seed);
    let workers = serve::workers();
    let root = sp.enter("warm");
    let w = serve::start_and_warm(&grid, workers, &mut sp);
    sp.exit(root);
    let addr = w.server.addr();
    let oracle = serve::oracle(&grid);
    out.failures.extend(w.failures);
    out.failures
        .extend(serve::check_warm(addr, &w.warm, &oracle));
    let m0 = serve::metrics(addr);
    let (jobs, wall, job_spans) = serve::drive(
        addr,
        &grid,
        &w.warm,
        &oracle,
        workers,
        args.seconds,
        args.seed,
        true,
        origin,
    );
    let m1 = serve::metrics(addr);
    w.server.stop();
    out.attempted += (2 * w.warm.len() + jobs.len()) as u64;
    out.failures
        .extend(jobs.iter().filter_map(|j| j.error.clone()));
    sp.absorb(job_spans);
    out.report.extend(sp.layers("warm").lines("server warm-up"));
    out.report.extend(sp.layers("job").lines("served jobs"));

    let p50_ms = |f: fn(&serve::JobRec) -> f64| {
        let mut v: Vec<f64> = jobs.iter().map(|j| f(j) * 1e3).collect();
        median(&mut v)
    };
    out.metric("serve.submit_ms", p50_ms(|j| j.submit_s), "ms");
    out.metric("serve.wait_ms", p50_ms(|j| j.wait_s), "ms");
    out.metric("serve.result_ms", p50_ms(|j| j.result_s), "ms");
    let hits = delta(&m0, &m1, "serve_result_cache_hits");
    let misses = delta(&m0, &m1, "serve_result_cache_misses");
    out.metric(
        "serve.result_cache_hit_share",
        hits / (hits + misses).max(1.0),
        "ratio",
    );
    out.metric(
        "serve.verify_cache_misses",
        m1.get("serve_verify_cache_misses").copied().unwrap_or(0) as f64,
        "count",
    );
    let (mut busy, mut stolen, mut items) = (0.0, 0.0, 0.0);
    for i in 0..workers {
        busy += delta(&m0, &m1, &format!("worker_{i}_busy_micros"));
        stolen += delta(&m0, &m1, &format!("worker_{i}_stolen"));
        items += delta(&m0, &m1, &format!("worker_{i}_items"));
    }
    out.metric(
        "serve.worker_busy_share",
        busy * 1e-6 / (wall * workers as f64),
        "ratio",
    );
    out.metric("serve.stolen_share", stolen / items.max(1.0), "ratio");
    out.spans = Some(sp);
    out
}
