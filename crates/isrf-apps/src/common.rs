//! Shared benchmark plumbing.

use std::cell::Cell;
use std::sync::Arc;

use isrf_core::config::{ConfigName, MachineConfig};
use isrf_core::stats::RunStats;
use isrf_kernel::ir::Kernel;
use isrf_kernel::sched::{schedule_cached, SchedParams, Schedule};
use isrf_mem::AddrPattern;
use isrf_sim::{Machine, StreamProgram};
use isrf_verify::Verifier;

thread_local! {
    static SEPARATION_OVERRIDE: Cell<Option<(u32, u32)>> = const { Cell::new(None) };
}

/// Override the (in-lane, cross-lane) address/data separations used by all
/// benchmark machines on this thread — the knob behind the Figure 15/16
/// parameter studies. Pass `None` to restore the Table 3 defaults.
pub fn set_separation_override(sep: Option<(u32, u32)>) {
    SEPARATION_OVERRIDE.with(|c| c.set(sep));
}

/// Build a machine for one of the paper's configurations.
///
/// # Panics
///
/// Panics if the preset fails validation (it cannot).
pub fn machine(cfg: ConfigName) -> Machine {
    let mut c = MachineConfig::preset(cfg);
    if let Some((inl, xl)) = SEPARATION_OVERRIDE.with(|c| c.get()) {
        c.sched.inlane_addr_data_separation = inl;
        c.sched.crosslane_addr_data_separation = xl;
    }
    let mut m = Machine::new(c).expect("presets validate");
    // Every benchmark machine carries the static hazard analyzer; with the
    // default `VerifyPolicy::Debug` it runs before each program in debug
    // builds (so the test suite proves every shipped program verifies
    // clean) and costs nothing in release benchmarking.
    m.set_verifier(Some(Arc::new(Verifier::new())));
    m
}

/// A benchmark run split at the machine/program boundary: the machine is
/// fully set up (data laid out in memory and the SRF, any un-measured
/// setup program already executed) and `program` is the measured stream
/// program. `machine.run(&program)` produces the benchmark's stats; the
/// split exists so a differential harness can execute the same program on
/// an independent functional reference executor and compare outcomes.
///
/// The app's host-reference check travels with it and is evaluated only
/// when [`Prepared::check`] is called, so preparing costs no reference
/// work.
pub struct Prepared {
    /// The machine, ready to run the measured program.
    pub machine: Machine,
    /// The measured stream program.
    pub program: StreamProgram,
    /// Memory regions `(base, words)` holding the benchmark's final
    /// output, for word-level result diffing.
    pub outputs: Vec<(u32, u32)>,
    /// Panics if the machine's final state diverges from the app's host
    /// reference.
    check: Box<dyn Fn(&Machine) + Send>,
}

impl std::fmt::Debug for Prepared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Prepared")
            .field("machine", &self.machine)
            .field("program", &self.program)
            .field("outputs", &self.outputs)
            .finish_non_exhaustive()
    }
}

impl Prepared {
    /// Assemble a prepared benchmark, growing the functional memory over
    /// the declared output regions up front. Unwritten words read as
    /// zero either way, so this is invisible to results and cycle
    /// counts — it just keeps the one-time backing-store grow (a
    /// multi-megabyte zeroed `realloc` for apps with high output bases)
    /// out of the measured `Machine::run` call.
    ///
    /// The result carries no host-reference check until one is attached
    /// with [`Prepared::with_check`].
    pub fn new(mut machine: Machine, program: StreamProgram, outputs: Vec<(u32, u32)>) -> Prepared {
        for &(base, words) in &outputs {
            if words > 0 {
                let mem = machine.mem_mut().memory_mut();
                let last = base + (words - 1);
                mem.write(last, mem.read(last));
            }
        }
        Prepared {
            machine,
            program,
            outputs,
            check: Box::new(|_| {}),
        }
    }

    /// Attach the app's host-reference check.
    pub fn with_check(mut self, check: impl Fn(&Machine) + Send + 'static) -> Prepared {
        self.check = Box::new(check);
        self
    }

    /// Check the machine's current state against the host reference.
    ///
    /// # Panics
    ///
    /// Panics if the results diverge from the reference (call after the
    /// measured program has run).
    pub fn check(&self) {
        (self.check)(&self.machine)
    }

    /// Run the measured program, then [`check`](Prepared::check) the
    /// results.
    ///
    /// # Panics
    ///
    /// Panics if the results diverge from the host reference.
    pub fn run_and_check(&mut self) -> RunStats {
        let stats = self.machine.run(&self.program);
        self.check();
        stats
    }
}

/// Schedule a kernel with the machine's parameters.
///
/// Memoized by kernel/parameter content hash: repeat invocations across
/// iterations, configurations, and parallel sweep workers share one
/// scheduling run (and one `Arc`, so the simulator's tape memo hits too).
///
/// # Panics
///
/// Panics if the kernel cannot be scheduled — benchmark kernels are fixed,
/// so this indicates a bug, not an input condition.
pub fn schedule_for(m: &Machine, k: &Kernel) -> Arc<Schedule> {
    schedule_cached(k, &SchedParams::from_machine(m.config()))
        .unwrap_or_else(|e| panic!("scheduling benchmark kernel failed: {e}"))
}

/// Address pattern that loads a `entries`-word table from memory at `base`
/// into an SRF stream replicated once per lane: global record `r` receives
/// `table[r / lanes]`, so lane-local record `i` is `table[i]` in every
/// lane.
pub fn replicated_table_pattern(base: u32, entries: u32, lanes: u32) -> AddrPattern {
    AddrPattern::Indexed((0..entries * lanes).map(|r| base + r / lanes).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replication_pattern_layout() {
        let p = replicated_table_pattern(100, 4, 8);
        let a = p.to_addrs();
        assert_eq!(a.len(), 32);
        assert_eq!(&a[0..8], &[100; 8]);
        assert_eq!(&a[8..16], &[101; 8]);
        assert_eq!(a[31], 103);
    }

    #[test]
    fn machines_build() {
        for c in ConfigName::ALL {
            let m = machine(c);
            assert_eq!(m.config().lanes, 8);
        }
    }
}
