//! Trace any application × configuration to a Chrome trace-event file.
//!
//! Usage: `trace [app|all] [config|all] [--paper] [--out-dir DIR]
//! [--events N] [--timeline]`, or `trace --validate FILE` to only check an
//! existing trace file for JSON validity (used by CI when no external JSON
//! tool is available).
//!
//! Runs the chosen points under a recording tracer, writes
//! `<out-dir>/<app>_<config>.trace.json` (loadable in Perfetto or
//! `chrome://tracing`), prints the metrics-registry summary, and
//! cross-checks the event stream against the machine's reported Figure-12
//! cycle breakdown. Exits non-zero if any point fails the audit or
//! produces invalid JSON.
//!
//! Apps: `fft2d rijndael sort filter igraph`. Configs: `base isrf1 isrf4
//! cache`. `--events N` bounds the event ring (default 1M; the audit
//! stays exact even when the ring wraps, but the exported trace then only
//! covers the tail of the run). `--timeline` also prints a plain-text
//! strip chart of cycle attribution and memory activity.

use isrf_apps::{prepare_app, Profile, APPS};
use isrf_core::config::ConfigName;
use isrf_trace::{chrome, json, timeline, Tracer};

const DEFAULT_EVENTS: usize = 1 << 20;

struct Options {
    apps: Vec<&'static str>,
    configs: Vec<ConfigName>,
    profile: Profile,
    out_dir: std::path::PathBuf,
    events: usize,
    timeline: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: trace [app|all] [config|all] [--paper] [--out-dir DIR] \
         [--events N] [--timeline]\n  apps: {}  all\n  configs: base \
         isrf1 isrf4 cache all",
        APPS.join(" ")
    );
    std::process::exit(2);
}

fn parse(args: &[String]) -> Options {
    let mut opts = Options {
        apps: vec![],
        configs: vec![],
        profile: Profile::Small,
        out_dir: std::path::PathBuf::from("results/traces"),
        events: DEFAULT_EVENTS,
        timeline: false,
    };
    let mut positional: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--paper" => opts.profile = Profile::Paper,
            "--timeline" => opts.timeline = true,
            "--out-dir" => match it.next() {
                Some(d) => opts.out_dir = d.into(),
                None => usage(),
            },
            "--events" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) if n > 0 => opts.events = n,
                _ => usage(),
            },
            "--help" | "-h" => usage(),
            flag if flag.starts_with("--") => usage(),
            pos => positional.push(pos),
        }
    }
    let app_sel = positional.first().copied().unwrap_or("all");
    let cfg_sel = positional.get(1).copied().unwrap_or("all");
    if positional.len() > 2 {
        usage();
    }
    opts.apps = if app_sel == "all" {
        APPS.to_vec()
    } else {
        match APPS.iter().find(|&&a| a == app_sel) {
            Some(&a) => vec![a],
            None => usage(),
        }
    };
    opts.configs = if cfg_sel == "all" {
        ConfigName::ALL.to_vec()
    } else {
        match cfg_sel.parse() {
            Ok(c) => vec![c],
            Err(_) => usage(),
        }
    };
    opts
}

/// Trace one point; returns false on audit or JSON failure.
fn trace_point(app: &str, cfg: ConfigName, opts: &Options) -> bool {
    let mut pr = prepare_app(app, cfg, opts.profile);
    pr.machine.set_tracer(Tracer::recording(opts.events));
    let stats = pr.machine.run(&pr.program);
    let rec = pr
        .machine
        .take_tracer()
        .into_recorder()
        .expect("recording tracer was installed");

    println!("== {app} on {cfg} ==");
    println!(
        "cycles={} events={} (dropped {})",
        stats.cycles,
        rec.ring().len(),
        rec.ring().dropped()
    );

    let mut ok = true;
    let mismatches = rec.audit().verify(&stats.breakdown);
    if mismatches.is_empty() {
        println!("audit: PASS (events reconstruct the Figure-12 breakdown)");
    } else {
        ok = false;
        println!("audit: FAIL");
        for m in &mismatches {
            println!("  {m}");
        }
    }

    let events: Vec<_> = rec.ring().iter().cloned().collect();
    let trace_json = chrome::export(&events);
    if let Err((pos, what)) = json::validate(&trace_json) {
        ok = false;
        println!("chrome JSON: INVALID at byte {pos}: {what}");
    }
    if let Err(e) = std::fs::create_dir_all(&opts.out_dir) {
        eprintln!("cannot create {}: {e}", opts.out_dir.display());
        return false;
    }
    let path = opts.out_dir.join(format!(
        "{app}_{}.trace.json",
        cfg.to_string().to_lowercase()
    ));
    if let Err(e) = std::fs::write(&path, &trace_json) {
        eprintln!("cannot write {}: {e}", path.display());
        return false;
    }
    println!("[wrote {}]", path.display());

    if opts.timeline {
        print!("{}", timeline::render(&events, 100));
    }
    println!("{}", rec.registry().render());
    ok
}

/// `--validate FILE`: check JSON validity with the built-in validator.
fn validate_file(path: &str) -> ! {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    match json::validate(&text) {
        Ok(()) => {
            println!("{path}: valid JSON");
            std::process::exit(0);
        }
        Err((pos, what)) => {
            eprintln!("{path}: INVALID at byte {pos}: {what}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "--validate") {
        match args.get(1) {
            Some(path) if args.len() == 2 => validate_file(path),
            _ => usage(),
        }
    }
    let opts = parse(&args);
    let mut failures = 0;
    for &app in &opts.apps {
        for &cfg in &opts.configs {
            if !trace_point(app, cfg, &opts) {
                failures += 1;
            }
        }
    }
    if failures > 0 {
        eprintln!("{failures} point(s) failed");
        std::process::exit(1);
    }
}
