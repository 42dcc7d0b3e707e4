//! First-divergence bisection over machine snapshots (DESIGN.md §12).
//!
//! Given two machines that *should* be indistinguishable — two execution
//! engines, two builds, or one machine with a deliberately injected fault —
//! [`first_divergence`] runs them in lockstep through the same program and
//! binary-searches over [`isrf_sim::Machine::save_state`] snapshots for
//! the first cycle at which their architectural state differs, returning a
//! structural diff (which section — SRF bank, memory chunk, stream buffer,
//! FIFO — and which word) of that cycle.
//!
//! The search walks forward in chunks: step both machines `chunk` cycles,
//! compare snapshot bytes (snapshots of identical state are byte-identical
//! by construction), and on the first mismatch rewind both machines to the
//! last equal snapshot and halve the chunk. When the chunk reaches one
//! cycle the mismatch cycle is exact. Cost is `O(T + log T · chunk)`
//! simulated cycles rather than the `O(T)` snapshots a per-cycle scan
//! would take.
//!
//! When the two machines run *different engines* (tape vs. interpreter),
//! the comparison masks the engine-selection byte and skips the `kctx`
//! section — the engines keep in-flight iteration values in different
//! structures (flat ring vs. context queue), so only the engine-neutral
//! state (SRF, memory, stream buffers, FIFOs, cursors, stats) is
//! compared. Every architectural effect lands in that neutral state
//! within a few cycles, so divergences are still localized tightly.

use isrf_core::snap::{self, Enc, SnapError};
use isrf_core::Word;
use isrf_sim::snapshot::{diff_snapshots, SnapshotDiff};
use isrf_sim::{Machine, StreamProgram};

/// A deliberate single-word SRF perturbation, applied to the second
/// machine when the lockstep run crosses `cycle`. Used by the negative
/// tests that prove the bisector localizes an injected divergence.
#[derive(Debug, Clone, Copy)]
pub struct PerturbAt {
    /// Machine cycle (counted from the start of the program run) after
    /// which the perturbation is applied.
    pub cycle: u64,
    /// SRF bank to corrupt.
    pub lane: usize,
    /// Per-bank word offset to corrupt.
    pub offset: u32,
    /// XOR mask applied to the word.
    pub xor: Word,
}

/// Where two lockstep machines first disagree.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// First cycle (from run start) at which the snapshots differ.
    pub cycle: u64,
    /// Structural diff of the two snapshots at that cycle.
    pub diffs: Vec<SnapshotDiff>,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "first diverging cycle: {}", self.cycle)?;
        for d in &self.diffs {
            writeln!(f, "  {d}")?;
        }
        Ok(())
    }
}

/// One machine being stepped through the bisection.
struct Side<'m> {
    m: &'m mut Machine,
    /// Cycles consumed from run start.
    at: u64,
    /// The run completed (`run_until` returned `Some`); no further stepping.
    done: bool,
    perturb: Option<PerturbAt>,
}

impl Side<'_> {
    /// Advance `cycles` forward from `self.at`, applying the injected
    /// perturbation when the step crosses its cycle.
    fn step(&mut self, program: &StreamProgram, cycles: u64) {
        let target = self.at + cycles;
        if let Some(p) = self.perturb {
            // Split the step at the injection point so the perturbation
            // lands exactly after cycle `p.cycle`.
            if self.at < p.cycle && p.cycle <= target {
                self.advance(program, p.cycle - self.at);
                let w = self.m.srf().read(p.lane, p.offset);
                self.m.srf_mut().write(p.lane, p.offset, w ^ p.xor);
                self.at = p.cycle;
                return self.step(program, target - p.cycle);
            }
        }
        self.advance(program, cycles);
        self.at = target;
    }

    /// Run at most `cycles` more, noting completion; panics as [`Machine::run`] does.
    fn advance(&mut self, program: &StreamProgram, cycles: u64) {
        if !self.done && cycles > 0 {
            let slice = self.m.run_until(program, cycles);
            self.done = slice.unwrap_or_else(|e| panic!("{e}")).is_some();
        }
    }

    fn restore(&mut self, program: &StreamProgram, snap: &[u8], at: u64) -> Result<(), SnapError> {
        self.m.restore_state(program, snap)?;
        self.at = at;
        // `mid_run()` is false both before the first cycle and after the
        // last; only the latter means the run completed.
        self.done = at > 0 && !self.m.mid_run();
        Ok(())
    }
}

/// Find the first cycle at which machines `a` and `b` — both positioned at
/// the start of `program` (or restored to the same mid-run point) —
/// diverge in architectural state, stepping in chunks of at most
/// `initial_chunk` cycles.
///
/// `perturb_b` optionally injects a single-word SRF corruption into `b`
/// at a chosen cycle (negative testing: the bisector must report exactly
/// that cycle, provided the corrupted word's effect persists in state).
///
/// Returns `Ok(None)` when both machines complete the program with
/// byte-identical snapshots at every compared cycle, `Ok(Some(d))` with
/// the exact first diverging cycle and a structural state diff otherwise.
/// Both machines are left near the divergence point (or at completion).
///
/// # Errors
///
/// [`SnapError`] if a snapshot fails to restore — only possible when the
/// two machines were built from different configurations or programs.
pub fn first_divergence(
    a: &mut Machine,
    b: &mut Machine,
    program: &StreamProgram,
    initial_chunk: u64,
    perturb_b: Option<PerturbAt>,
) -> Result<Option<Divergence>, SnapError> {
    let cross_engine = a.engine() != b.engine();
    let mut sa = Side {
        m: a,
        at: 0,
        done: false,
        perturb: None,
    };
    let mut sb = Side {
        m: b,
        at: 0,
        done: false,
        perturb: perturb_b,
    };
    let mut chunk = initial_chunk.max(1);

    // Starting states must agree (a divergence "at cycle 0" means the two
    // machines were prepared differently).
    let mut last_equal_a = sa.m.save_state(program);
    let mut last_equal_b = sb.m.save_state(program);
    if comparable(&last_equal_a, cross_engine)? != comparable(&last_equal_b, cross_engine)? {
        let diffs = diff_snapshots(&last_equal_a, &last_equal_b)?;
        return Ok(Some(Divergence { cycle: 0, diffs }));
    }
    let mut equal_at = sa.at;

    loop {
        if sa.done && sb.done {
            return Ok(None);
        }
        sa.step(program, chunk);
        sb.step(program, chunk);
        let na = sa.m.save_state(program);
        let nb = sb.m.save_state(program);
        if comparable(&na, cross_engine)? == comparable(&nb, cross_engine)? {
            last_equal_a = na;
            last_equal_b = nb;
            equal_at = sa.at;
            continue;
        }
        if chunk == 1 {
            let diffs = diff_snapshots(&na, &nb)?;
            return Ok(Some(Divergence {
                cycle: equal_at + 1,
                diffs,
            }));
        }
        // Rewind to the last agreed state and narrow the step.
        sa.restore(program, &last_equal_a, equal_at)?;
        sb.restore(program, &last_equal_b, equal_at)?;
        chunk = (chunk / 2).max(1);
    }
}

/// Project a snapshot onto its comparable bytes: the engine-selection
/// byte of the `meta` section is masked (it is configuration, not state),
/// and for cross-engine comparison the representation-dependent `kctx`
/// section (tape ring vs. interpreter context queue) is skipped.
fn comparable(snapshot: &[u8], cross_engine: bool) -> Result<Vec<u8>, SnapError> {
    let payload = snap::unframe(snapshot)?;
    let sections = snap::read_sections(payload)?;
    let rebuilt: Vec<(String, Vec<u8>)> = sections
        .into_iter()
        .filter(|s| !(cross_engine && s.name == "kctx"))
        .map(|mut s| {
            if s.name == "meta" && s.bytes.len() > 16 {
                s.bytes[16] = 0xff; // engine tag follows the two fingerprints
            }
            (s.name, s.bytes)
        })
        .collect();
    let mut e = Enc::new();
    snap::write_sections(&mut e, &rebuilt);
    Ok(e.into_bytes())
}
