//! Statically verify every application × configuration point.
//!
//! Usage: `verify [app|all] [config|all] [--paper] [--report FILE]
//! [--check FILE] [--cycles] [--explain CODE]`
//!
//! Builds each benchmark exactly as the harness would run it, then runs the
//! `isrf-verify` analyzer over the prepared program instead of simulating
//! it. Prints every diagnostic and exits non-zero if any point fails — the
//! CI gate proving all shipped programs are hazard-free on all four paper
//! configurations.
//!
//! Modes beyond the plain gate:
//!
//! * `--report FILE` — write the full analyzer report (diagnostics,
//!   warnings, static cycle floor) for every point as canonical JSON to
//!   `FILE` (`-` for stdout).
//! * `--check FILE` — regenerate the report and diff it against the
//!   committed golden `FILE`; exit non-zero on drift.
//! * `--cycles` — additionally *simulate* each point under both engines
//!   and check the static cycle floor is a true lower bound (and not
//!   uselessly loose: floor ≥ `MIN_FLOOR_PCT`% of the simulated cycles).
//! * `--explain CODE` — print the rule behind a diagnostic code, then any
//!   findings with that code across the selected points, including the
//!   derived intervals and dataflow path notes.
//!
//! Apps: `fft2d rijndael sort filter igraph spmv stencil bfs`. Configs:
//! `base isrf1 isrf4 cache`.

use std::fmt::Write as _;
use std::sync::Arc;

use isrf_apps::{prepare_app, Profile, APPS};
use isrf_core::config::ConfigName;
use isrf_sim::ExecEngine;
use isrf_trace::json::escaped;
use isrf_verify::{explain, Report, Verifier};

/// The static floor must recover at least this percentage of the simulated
/// cycle count on every app × config point (both profiles). Committed so
/// CI catches the model drifting uselessly loose, not just unsound.
const MIN_FLOOR_PCT: u64 = 10;

fn usage() -> ! {
    eprintln!(
        "usage: verify [app|all] [config|all] [--paper] [--report FILE] [--check FILE] \
         [--cycles] [--explain CODE]\n  apps: {}  all\n  \
         configs: base isrf1 isrf4 cache all",
        APPS.join(" ")
    );
    std::process::exit(2);
}

fn diag_json(d: &isrf_sim::Diagnostic) -> String {
    let mut s = format!(
        "{{\"code\":\"{}\",\"check\":\"{}\",\"message\":\"{}\"",
        escaped(&d.code),
        escaped(&d.check),
        escaped(&d.message)
    );
    if let Some(op) = d.prog_op {
        let _ = write!(s, ",\"prog_op\":{op}");
    }
    if let Some(k) = &d.kernel {
        let _ = write!(s, ",\"kernel\":\"{}\"", escaped(k));
    }
    if let Some(line) = d.line {
        let _ = write!(s, ",\"line\":{line}");
    }
    s.push('}');
    s
}

/// One analyzer point rendered as a canonical JSON object (keys in fixed
/// order, streams elided — the golden tracks program-level behavior).
fn point_json(app: &str, cfg: ConfigName, report: &Report) -> String {
    let mut s = format!("    {{\"app\":\"{app}\",\"config\":\"{cfg}\",");
    let diags: Vec<String> = report.diagnostics.iter().map(diag_json).collect();
    let warns: Vec<String> = report.warnings.iter().map(diag_json).collect();
    let _ = write!(
        s,
        "\"diagnostics\":[{}],\"warnings\":[{}],",
        diags.join(","),
        warns.join(",")
    );
    let c = &report.cost;
    let kernels: Vec<String> = c
        .kernels
        .iter()
        .map(|k| {
            format!(
                "{{\"name\":\"{}\",\"prog_op\":{},\"iters\":{},\"ii\":{},\"floor\":{},\
                 \"schedule_floor\":{},\"port_floor\":{},\"inlane_pressure_pct\":{},\
                 \"crosslane_pressure_pct\":{}}}",
                escaped(&k.name),
                k.prog_op,
                k.iters,
                k.ii,
                k.floor,
                k.schedule_floor,
                k.port_floor,
                k.inlane_pressure_pct,
                k.crosslane_pressure_pct
            )
        })
        .collect();
    let _ = write!(
        s,
        "\"cycle_floor\":{},\"kernel_floor\":{},\"mem_words\":{},\"mem_floor\":{},\
         \"kernels\":[{}]}}",
        c.cycle_floor,
        c.kernel_floor,
        c.mem_words,
        c.mem_floor,
        kernels.join(",")
    );
    s
}

struct Point {
    app: &'static str,
    cfg: ConfigName,
    report: Report,
}

fn analyze(apps: &[&'static str], configs: &[ConfigName], profile: Profile) -> Vec<Point> {
    let verifier = Verifier::new();
    let mut out = Vec::new();
    for &app in apps {
        for &cfg in configs {
            let pr = prepare_app(app, cfg, profile);
            let report =
                verifier.report(pr.machine.config(), &pr.machine.verify_env(), &pr.program);
            out.push(Point { app, cfg, report });
        }
    }
    out
}

fn render_report(points: &[Point], profile: Profile) -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(
        s,
        "  \"profile\": \"{}\",",
        if profile == Profile::Paper {
            "paper"
        } else {
            "small"
        }
    );
    s.push_str("  \"points\": [\n");
    let rows: Vec<String> = points
        .iter()
        .map(|p| point_json(p.app, p.cfg, &p.report))
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut profile = Profile::Small;
    let mut positional: Vec<&str> = Vec::new();
    let mut report_to: Option<String> = None;
    let mut check_against: Option<String> = None;
    let mut cycles = false;
    let mut explain_code: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--paper" => profile = Profile::Paper,
            "--report" => report_to = Some(it.next().unwrap_or_else(|| usage()).clone()),
            "--check" => check_against = Some(it.next().unwrap_or_else(|| usage()).clone()),
            "--cycles" => cycles = true,
            "--explain" => explain_code = Some(it.next().unwrap_or_else(|| usage()).clone()),
            "--help" | "-h" => usage(),
            flag if flag.starts_with("--") => usage(),
            pos => positional.push(pos),
        }
    }
    if positional.len() > 2 {
        usage();
    }
    let app_sel = positional.first().copied().unwrap_or("all");
    let cfg_sel = positional.get(1).copied().unwrap_or("all");
    let apps: Vec<&'static str> = if app_sel == "all" {
        APPS.to_vec()
    } else {
        match APPS.iter().find(|&&a| a == app_sel) {
            Some(&a) => vec![a],
            None => usage(),
        }
    };
    let configs: Vec<ConfigName> = if cfg_sel == "all" {
        ConfigName::ALL.to_vec()
    } else {
        match cfg_sel.parse() {
            Ok(c) => vec![c],
            Err(_) => usage(),
        }
    };

    if let Some(code) = &explain_code {
        let code = code.to_uppercase();
        match explain(&code) {
            Some(rule) => println!("{code}: {rule}\n"),
            None => {
                eprintln!("unknown diagnostic code `{code}`");
                std::process::exit(2);
            }
        }
        let mut hits = 0;
        for p in analyze(&apps, &configs, profile) {
            for d in p.report.diagnostics.iter().chain(&p.report.warnings) {
                if d.code != code {
                    continue;
                }
                hits += 1;
                println!("{} on {}: {d}", p.app, p.cfg);
                for note in &d.notes {
                    println!("    note: {note}");
                }
            }
        }
        if hits == 0 {
            println!(
                "no {code} findings across {} point(s) — the rule above is the check",
                apps.len() * configs.len()
            );
        }
        return;
    }

    if report_to.is_some() || check_against.is_some() {
        let points = analyze(&apps, &configs, profile);
        let rendered = render_report(&points, profile);
        if let Some(path) = &report_to {
            if path == "-" {
                print!("{rendered}");
            } else {
                std::fs::write(path, &rendered).unwrap_or_else(|e| {
                    eprintln!("cannot write {path}: {e}");
                    std::process::exit(1);
                });
                println!(
                    "wrote analyzer report for {} point(s) to {path}",
                    points.len()
                );
            }
        }
        if let Some(path) = &check_against {
            let golden = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read golden report {path}: {e}");
                std::process::exit(1);
            });
            if golden != rendered {
                let first_diff = golden
                    .lines()
                    .zip(rendered.lines())
                    .position(|(a, b)| a != b)
                    .map(|i| i + 1)
                    .unwrap_or_else(|| golden.lines().count().min(rendered.lines().count()) + 1);
                eprintln!(
                    "analyzer report drifted from {path} (first differing line {first_diff}); \
                     regenerate with `verify --report {path}` and review the diff"
                );
                std::process::exit(1);
            }
            println!("analyzer report matches {path} ({} point(s))", points.len());
        }
        return;
    }

    let mut failures = 0;
    for &app in &apps {
        for &cfg in &configs {
            let mut pr = prepare_app(app, cfg, profile);
            // Install the analyzer explicitly: a machine without one would
            // verify vacuously, and this gate must never pass vacuously.
            pr.machine.set_verifier(Some(Arc::new(Verifier::new())));
            match pr.machine.verify_program(&pr.program) {
                Ok(()) => {
                    if !cycles {
                        println!("{app} on {cfg}: clean ({} program op(s))", pr.program.len());
                    }
                }
                Err(e) => {
                    failures += 1;
                    println!("{app} on {cfg}: {} finding(s)", e.diagnostics.len());
                    for d in &e.diagnostics {
                        println!("  {d}");
                    }
                    continue;
                }
            }
            if !cycles {
                continue;
            }
            // Cross-validate the static floor against both engines.
            let floor = isrf_verify::cost_model(pr.machine.config(), &pr.program).cycle_floor;
            let mut sim = Vec::new();
            for engine in [ExecEngine::Tape, ExecEngine::Interp] {
                let mut pr = prepare_app(app, cfg, profile);
                pr.machine.set_engine(engine);
                sim.push(pr.machine.run(&pr.program).cycles);
            }
            let (tape, interp) = (sim[0], sim[1]);
            let worst = tape.min(interp);
            let pct = (floor * 100).checked_div(worst).unwrap_or(100);
            let ok = floor <= worst && pct >= MIN_FLOOR_PCT;
            println!(
                "{app} on {cfg}: floor {floor} <= tape {tape} / interp {interp} ({pct}% of \
                 simulated){}",
                if ok { "" } else { "  UNSOUND OR TOO LOOSE" }
            );
            if !ok {
                failures += 1;
            }
        }
    }
    if failures > 0 {
        eprintln!("{failures} point(s) failed static verification");
        std::process::exit(1);
    }
}
