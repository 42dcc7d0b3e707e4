//! Machine-level snapshot round-trip: pause a run at cycle granularity,
//! serialize, restore into a fresh machine, and require the resumed run to
//! be byte-identical — stats, trace events, output memory — to an
//! uninterrupted one, under both execution engines. Also pins the format
//! itself: serialize → deserialize → re-serialize is byte-identical, and
//! mismatched frames are rejected with typed errors.

use std::sync::Arc;

use isrf_core::config::{ConfigName, MachineConfig};
use isrf_core::snap::{self, Enc, SnapError};
use isrf_core::stats::RunStats;
use isrf_core::Word;
use isrf_kernel::ir::{KernelBuilder, StreamKind};
use isrf_kernel::sched::{schedule, SchedParams};
use isrf_mem::AddrPattern;
use isrf_sim::machine::Machine;
use isrf_sim::program::StreamProgram;
use isrf_sim::ExecEngine;
use isrf_trace::{TraceEvent, Tracer};

const OUT_BASE: u32 = 8192;
const OUT_WORDS: u32 = 64;

/// The paper's table-lookup app, small enough to run in tests but long
/// enough (loads, kernel with an indexed stream, store) that a mid-run
/// pause lands inside interesting machine state.
fn build_point(engine: ExecEngine) -> (Machine, StreamProgram) {
    let cfg = MachineConfig::preset(ConfigName::Isrf4);
    let mut machine = Machine::new(cfg.clone()).unwrap();
    machine.set_engine(engine);

    let mut b = KernelBuilder::new("lookup");
    let s_in = b.stream("in", StreamKind::SeqIn);
    let s_lut = b.stream("LUT", StreamKind::IdxInRead);
    let s_out = b.stream("out", StreamKind::SeqOut);
    let a = b.seq_read(s_in);
    let v = b.idx_load(s_lut, a);
    let c = b.add(a, v);
    b.seq_write(s_out, c);
    let kernel = Arc::new(b.build().unwrap());
    let sched = schedule(&kernel, &SchedParams::from_machine(machine.config())).unwrap();

    let lut = machine.alloc_stream(1, 256 * 8);
    let input = machine.alloc_stream(1, OUT_WORDS);
    let output = machine.alloc_stream(1, OUT_WORDS);
    for i in 0..256u32 {
        for lane in 0..8 {
            machine.mem_mut().memory_mut().write(i * 8 + lane, 1000 + i);
        }
    }
    for i in 0..OUT_WORDS {
        machine.mem_mut().memory_mut().write(4096 + i, i % 256);
    }

    let mut p = StreamProgram::new();
    let l1 = p.load(AddrPattern::contiguous(0, 256 * 8), lut, false, &[]);
    let l2 = p.load(AddrPattern::contiguous(4096, OUT_WORDS), input, false, &[]);
    let k = p.kernel(
        Arc::clone(&kernel),
        sched,
        vec![input, lut, output],
        8,
        &[l1, l2],
    );
    p.store(
        output,
        AddrPattern::contiguous(OUT_BASE, OUT_WORDS),
        false,
        &[k],
    );
    (machine, p)
}

struct Observed {
    stats: RunStats,
    events: Vec<(u64, TraceEvent)>,
    output: Vec<Word>,
}

fn drain_events(m: &mut Machine) -> Vec<(u64, TraceEvent)> {
    m.take_tracer()
        .into_recorder()
        .expect("recording tracer")
        .ring()
        .iter()
        .cloned()
        .collect()
}

fn straight(engine: ExecEngine) -> Observed {
    let (mut m, p) = build_point(engine);
    m.set_tracer(Tracer::recording(1 << 20));
    let stats = m.run(&p);
    let events = drain_events(&mut m);
    let output = m.mem().memory().read_block(OUT_BASE, OUT_WORDS as usize);
    Observed {
        stats,
        events,
        output,
    }
}

/// Pause after `at` cycles, snapshot, restore into a fresh machine, and
/// finish that with [`Machine::run`]. Returns the stitched observation
/// plus the snapshot bytes.
fn paused(engine: ExecEngine, at: u64) -> (Observed, Vec<u8>) {
    let (mut m, p) = build_point(engine);
    m.set_tracer(Tracer::recording(1 << 20));
    assert!(
        m.run_until(&p, at).unwrap().is_none(),
        "run completed before cycle {at}"
    );
    assert!(m.mid_run());
    let snapshot = m.save_state(&p);
    let mut events = drain_events(&mut m);

    let (mut r, p2) = build_point(engine);
    r.restore_state(&p2, &snapshot).unwrap();
    assert!(r.mid_run());
    r.set_tracer(Tracer::recording(1 << 20));
    let stats = r.run(&p2);
    events.extend(drain_events(&mut r));
    let output = r.mem().memory().read_block(OUT_BASE, OUT_WORDS as usize);
    (
        Observed {
            stats,
            events,
            output,
        },
        snapshot,
    )
}

fn engines() -> [ExecEngine; 2] {
    [ExecEngine::Tape, ExecEngine::Interp]
}

#[test]
fn snapshot_resume_matches_uninterrupted_run() {
    for engine in engines() {
        let base = straight(engine);
        let total = base.stats.cycles;
        assert!(total > 16, "test program too short to pause meaningfully");
        for at in [1, total / 3, total / 2, total - 1] {
            let (resumed, _) = paused(engine, at);
            assert_eq!(
                resumed.stats, base.stats,
                "stats diverge (pause at {at}, {engine:?})"
            );
            assert_eq!(
                resumed.events, base.events,
                "trace diverges (pause at {at}, {engine:?})"
            );
            assert_eq!(
                resumed.output, base.output,
                "output memory diverges (pause at {at}, {engine:?})"
            );
        }
    }
}

#[test]
fn run_until_with_enough_budget_completes() {
    let (mut m, p) = build_point(ExecEngine::Tape);
    let stats = m.run_until(&p, u64::MAX).unwrap().expect("completes");
    assert!(!m.mid_run());
    assert_eq!(stats, straight(ExecEngine::Tape).stats);
}

#[test]
fn reserialized_snapshot_is_byte_identical() {
    for engine in engines() {
        let (_, snapshot) = paused(engine, 20);
        let (mut r, p) = build_point(engine);
        r.restore_state(&p, &snapshot).unwrap();
        assert_eq!(r.save_state(&p), snapshot);
    }
}

#[test]
fn snapshots_of_identical_state_are_byte_identical() {
    let (mut a, pa) = build_point(ExecEngine::Tape);
    let (mut b, pb) = build_point(ExecEngine::Tape);
    assert!(a.run_until(&pa, 33).unwrap().is_none());
    assert!(b.run_until(&pb, 33).unwrap().is_none());
    assert_eq!(a.save_state(&pa), b.save_state(&pb));
}

#[test]
fn diff_localizes_a_perturbed_bank_word() {
    let (mut a, pa) = build_point(ExecEngine::Tape);
    assert!(a.run_until(&pa, 40).unwrap().is_none());
    let clean = a.save_state(&pa);
    let w = a.srf().read(3, 7);
    a.srf_mut().write(3, 7, w ^ 0x1);
    let dirty = a.save_state(&pa);
    let diffs = isrf_sim::diff_snapshots(&clean, &dirty).unwrap();
    assert_eq!(diffs.len(), 1);
    assert_eq!(diffs[0].path, "srf");
}

#[test]
fn restore_rejects_wrong_program_and_config() {
    let (mut m, p) = build_point(ExecEngine::Tape);
    assert!(m.run_until(&p, 20).unwrap().is_none());
    let snapshot = m.save_state(&p);

    // Same machine, structurally different program.
    let (mut other, _) = build_point(ExecEngine::Tape);
    let mut p2 = StreamProgram::new();
    let dst = other.alloc_stream(1, 8);
    p2.load(AddrPattern::contiguous(0, 8), dst, false, &[]);
    assert!(matches!(
        other.restore_state(&p2, &snapshot),
        Err(SnapError::Mismatch(_))
    ));

    // Different machine configuration.
    let mut base_m = Machine::new(MachineConfig::preset(ConfigName::Base)).unwrap();
    assert!(matches!(
        base_m.restore_state(&p, &snapshot),
        Err(SnapError::Mismatch(_))
    ));
}

#[test]
fn restore_rejects_unknown_version_and_corruption() {
    let (mut m, p) = build_point(ExecEngine::Tape);
    assert!(m.run_until(&p, 20).unwrap().is_none());
    let snapshot = m.save_state(&p);

    let mut wrong_version = snapshot.clone();
    wrong_version[8..12].copy_from_slice(&9u32.to_le_bytes());
    let err = m.restore_state(&p, &wrong_version).unwrap_err();
    assert!(matches!(
        err,
        SnapError::UnsupportedVersion(9) | SnapError::BadHash
    ));

    let mut flipped = snapshot.clone();
    flipped[40] ^= 0x40;
    assert_eq!(m.restore_state(&p, &flipped), Err(SnapError::BadHash));
}

/// A re-framed snapshot (valid magic, version and hash) whose in-flight
/// load claims a fill far longer than its section holds is rejected
/// before anything is allocated.
#[test]
fn restore_rejects_a_crafted_pending_fill_length() {
    let (mut m, p) = build_point(ExecEngine::Tape);
    assert!(m.run_until(&p, 1).unwrap().is_none());
    let snapshot = m.save_state(&p);
    let mut sections = snap::read_sections(snap::unframe(&snapshot).unwrap()).unwrap();
    let pending = &mut sections
        .iter_mut()
        .find(|s| s.name == "pending")
        .unwrap()
        .bytes;

    // Slab layout: slot count, then slot 0 (the LUT load) as live flag,
    // op, fill flag, seven-word binding and the fill length.
    let len_at = 8 + 1 + 8 + 1 + 7 * 4;
    assert_eq!(pending[len_at..len_at + 8], (256u64 * 8).to_le_bytes());
    pending[len_at..len_at + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());

    let mut payload = Enc::new();
    let named: Vec<_> = sections.iter().map(|s| (&s.name, &s.bytes)).collect();
    snap::write_sections(&mut payload, &named);
    let crafted = snap::frame(&payload.into_bytes());
    let (mut r, p2) = build_point(ExecEngine::Tape);
    assert_eq!(
        r.restore_state(&p2, &crafted),
        Err(SnapError::UnexpectedEof)
    );
}
