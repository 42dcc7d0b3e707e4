//! Tier-1 differential suite: every application on every machine
//! configuration, checked word-for-word against the timing-free reference
//! executor and against the app's host reference, plus sweep-level
//! invariants (determinism across reruns, parallel/serial identity,
//! Isrf1-vs-Isrf4 functional equivalence).
//!
//! Memory in this simulator moves functionally at request time — the cache
//! and DRAM models only shape timing and traffic accounting — so the final
//! memory image of each app must be identical on all four configurations,
//! and identical to what the ISA-semantics interpreter produces.

use isrf_apps::common::Prepared;
use isrf_apps::{prepare_app, Profile, APPS};
use isrf_check::{first_divergence, run_differential, run_parallel, run_serial, DiffOutcome};
use isrf_core::config::ConfigName;
use isrf_core::stats::RunStats;
use isrf_sim::ExecEngine;

/// Build a ready-to-run machine+program for one sweep point at the
/// registry's Small sizes.
fn prepare(app: &str, cfg: ConfigName) -> Prepared {
    prepare_app(app, cfg, Profile::Small)
}

/// On a differential failure, narrow the blame: run the point under both
/// execution engines in lockstep and bisect snapshots for the first cycle
/// where they disagree (DESIGN.md §12). A reported cycle means an engine
/// bug with an exact location; engines agreeing means the timing model
/// itself disagrees with the reference semantics.
fn bisect_engines(app: &str, cfg: ConfigName) -> String {
    let mut tape = prepare(app, cfg);
    tape.machine.set_engine(ExecEngine::Tape);
    let mut interp = prepare(app, cfg);
    interp.machine.set_engine(ExecEngine::Interp);
    match first_divergence(
        &mut tape.machine,
        &mut interp.machine,
        &tape.program,
        256,
        None,
    ) {
        Ok(Some(d)) => format!("tape-vs-interpreter bisection:\n{d}"),
        Ok(None) => "tape-vs-interpreter bisection: engines agree through completion; \
                     the divergence is against the reference semantics"
            .into(),
        Err(e) => format!("tape-vs-interpreter bisection did not restore cleanly: {e:?}"),
    }
}

/// Diff one point against the reference executor, then check its final
/// memory against the app's bit-exact host reference.
fn diff_point(app: &str, cfg: ConfigName) -> DiffOutcome {
    let mut pr = prepare(app, cfg);
    let outcome =
        run_differential(&mut pr.machine, &pr.program, &pr.outputs).unwrap_or_else(|failure| {
            let shown: Vec<String> = failure
                .errors
                .iter()
                .take(8)
                .map(|e| e.to_string())
                .collect();
            panic!(
                "{app} on {cfg:?} diverged from the reference executor \
             ({} mismatches):\n  {}\nlast trace events:\n{}\n{}",
                failure.errors.len(),
                shown.join("\n  "),
                failure.trace_tail.join("\n"),
                bisect_engines(app, cfg)
            )
        });
    pr.check();
    outcome
}

fn grid() -> Vec<(&'static str, ConfigName)> {
    APPS.iter()
        .flat_map(|&a| ConfigName::ALL.iter().map(move |&c| (a, c)))
        .collect()
}

/// The acceptance gate: all 8 apps × 4 configs agree with the reference
/// on every word of memory and SRF, and on the indexed access counts.
/// Points run in parallel — the sweep harness drives its own test load.
#[test]
fn all_apps_all_configs_match_reference() {
    let points = grid();
    let outcomes = run_parallel(&points, |&(app, cfg)| (app, cfg, diff_point(app, cfg)));
    assert_eq!(outcomes.len(), points.len());
    for (app, cfg, out) in &outcomes {
        // Indexed configs must actually exercise indexed access on the
        // indexed apps (otherwise the count check is vacuous).
        if matches!(cfg, ConfigName::Isrf1 | ConfigName::Isrf4) && *app != "fft2d" {
            assert!(
                out.counts.inlane_words + out.counts.crosslane_words > 0,
                "{app} on {cfg:?} performed no indexed accesses"
            );
        }
    }
}

/// Two fresh preparations of the same point produce bit-identical stats:
/// the whole pipeline (data generation, scheduling, simulation) is
/// deterministic.
#[test]
fn reruns_are_deterministic() {
    for app in APPS {
        for cfg in [ConfigName::Base, ConfigName::Isrf4] {
            let run = |_: &()| -> RunStats {
                let mut pr = prepare(app, cfg);
                pr.machine.run(&pr.program)
            };
            let a = run(&());
            let b = run(&());
            assert_eq!(a, b, "{app} on {cfg:?} not deterministic across reruns");
        }
    }
}

/// The parallel sweep driver returns exactly what a serial sweep returns,
/// in the same order, for the full app × config grid.
#[test]
fn parallel_sweep_is_byte_identical_to_serial() {
    let points = grid();
    let run = |&(app, cfg): &(&str, ConfigName)| -> RunStats {
        let mut pr = prepare(app, cfg);
        pr.machine.run(&pr.program)
    };
    let par = run_parallel(&points, run);
    let ser = run_serial(&points, run);
    assert_eq!(par, ser, "parallel sweep diverged from serial sweep");
}

/// Isrf1 and Isrf4 run the *same* program (they differ only in indexed
/// sub-array parallelism, a pure timing feature), so final data, off-chip
/// traffic, and SRF traffic must be identical — only cycle counts differ.
#[test]
fn isrf1_and_isrf4_are_functionally_equivalent() {
    let pairs = run_parallel(&APPS, |&app| {
        let o1 = diff_point(app, ConfigName::Isrf1);
        let o4 = diff_point(app, ConfigName::Isrf4);
        (app, o1, o4)
    });
    for (app, o1, o4) in &pairs {
        assert_eq!(
            o1.stats.mem, o4.stats.mem,
            "{app}: Isrf1 vs Isrf4 off-chip traffic differs"
        );
        assert_eq!(
            o1.stats.srf, o4.stats.srf,
            "{app}: Isrf1 vs Isrf4 SRF traffic differs"
        );
        assert_eq!(
            o1.counts, o4.counts,
            "{app}: Isrf1 vs Isrf4 reference indexed counts differ"
        );
    }
}
