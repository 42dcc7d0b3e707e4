//! Differential engine check: run benchmark configurations under both
//! kernel-execution engines — the compiled-tape engine and the
//! graph-walking interpreter — and require identical observable behavior:
//! the same `RunStats`, a word-for-word identical recorded trace stream,
//! and identical output memory.
//!
//! Usage: `engines [APP CONFIG]...` — pairs of benchmark app
//! (`fft2d|rijndael|sort|filter|igraph|spmv|stencil|bfs`) and
//! configuration (`Base|ISRF1|ISRF4|Cache`). With no arguments, checks
//! the CI suite: `sort ISRF4` (conditional streams), `filter Base` (the
//! indexed landing path), `spmv ISRF4` (cross-lane gather), `stencil
//! ISRF4` (in-lane halo reuse), and `bfs Base` (irregular frontiers on
//! the replication path).
//!
//! Exits nonzero on any mismatch.

use isrf_core::config::ConfigName;
use isrf_core::stats::RunStats;
use isrf_core::Word;
use isrf_sim::ExecEngine;
use isrf_trace::{TraceEvent, Tracer};

struct Observed {
    stats: RunStats,
    events: Vec<(u64, TraceEvent)>,
    outputs: Vec<(u32, Vec<Word>)>,
}

fn run(app: &str, cfg: ConfigName, engine: ExecEngine) -> Observed {
    let mut pr = isrf_apps::prepare_app(app, cfg, isrf_apps::Profile::Small);
    pr.machine.set_engine(engine);
    pr.machine.set_tracer(Tracer::recording(1 << 20));
    let stats = pr.machine.run(&pr.program);
    let events = pr
        .machine
        .take_tracer()
        .into_recorder()
        .expect("recording tracer")
        .ring()
        .iter()
        .cloned()
        .collect();
    let outputs = pr
        .outputs
        .iter()
        .map(|&(base, words)| {
            (
                base,
                pr.machine.mem().memory().read_block(base, words as usize),
            )
        })
        .collect();
    Observed {
        stats,
        events,
        outputs,
    }
}

/// Compare one point; prints a verdict line and any mismatch detail.
fn check(app: &str, cfg: ConfigName) -> bool {
    let tape = run(app, cfg, ExecEngine::Tape);
    let interp = run(app, cfg, ExecEngine::Interp);
    let mut ok = true;

    if tape.stats != interp.stats {
        ok = false;
        eprintln!(
            "  stats mismatch:\n    tape:   {:?}\n    interp: {:?}",
            tape.stats, interp.stats
        );
    }
    if tape.events.len() != interp.events.len() {
        ok = false;
        eprintln!(
            "  trace length mismatch: tape {} events, interp {}",
            tape.events.len(),
            interp.events.len()
        );
    }
    for (i, (t, r)) in tape.events.iter().zip(&interp.events).enumerate() {
        if t != r {
            ok = false;
            eprintln!("  trace diverges at event {i}:\n    tape:   {t:?}\n    interp: {r:?}");
            break;
        }
    }
    for ((base, t), (_, r)) in tape.outputs.iter().zip(&interp.outputs) {
        if let Some(i) = (0..t.len()).find(|&i| t[i] != r[i]) {
            ok = false;
            eprintln!(
                "  output memory diverges at {:#x}: tape {:#010x}, interp {:#010x}",
                base + i as u32,
                t[i],
                r[i]
            );
        }
    }
    println!(
        "{} {:<8} {:<6} {:>9} cycles, {:>7} events, {} output words",
        if ok { "PASS" } else { "FAIL" },
        app,
        format!("{cfg}"),
        tape.stats.cycles,
        tape.events.len(),
        tape.outputs.iter().map(|(_, w)| w.len()).sum::<usize>(),
    );
    ok
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let points: Vec<(String, ConfigName)> = if args.is_empty() {
        vec![
            ("sort".into(), ConfigName::Isrf4),
            ("filter".into(), ConfigName::Base),
            ("spmv".into(), ConfigName::Isrf4),
            ("stencil".into(), ConfigName::Isrf4),
            ("bfs".into(), ConfigName::Base),
        ]
    } else {
        if !args.len().is_multiple_of(2) {
            eprintln!("usage: engines [APP CONFIG]...");
            std::process::exit(2);
        }
        args.chunks(2)
            .map(|p| {
                (
                    p[0].clone(),
                    p[1].parse().unwrap_or_else(|e| {
                        eprintln!("{e}");
                        std::process::exit(2);
                    }),
                )
            })
            .collect()
    };
    let mut all_ok = true;
    for (app, cfg) in &points {
        all_ok &= check(app, *cfg);
    }
    if !all_ok {
        eprintln!("engine differential FAILED");
        std::process::exit(1);
    }
    println!(
        "engine differential: all {} point(s) identical",
        points.len()
    );
}
