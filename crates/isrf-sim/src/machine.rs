//! The stream processor machine: lanes, SRF, memory system, sequencer.
//!
//! [`Machine`] owns the SRF storage, the memory system and the run-time
//! statistics, and executes [`StreamProgram`]s cycle by cycle:
//!
//! * memory transfers start as soon as their dependences complete and
//!   proceed concurrently (the latency-hiding overlap of stream machines);
//! * kernels run one at a time, in program order, on the single sequencer;
//! * the SRF port is shared: memory transfers claim it for one cycle per
//!   `N*m`-word block moved, pre-empting kernel stream grants.
//!
//! Cycle attribution follows Figure 12: steady-state loop-body cycles,
//! SRF stalls, memory stalls (cycles where the sequencer is idle waiting
//! for transfers), and kernel overheads (dispatch, software-pipeline
//! fill/drain, output flush, and everything else).

use std::collections::BTreeMap;
use std::sync::Arc;

use isrf_core::config::{ConfigError, MachineConfig};
use isrf_core::snap::{self, Dec, Enc, SnapError};
use isrf_core::stats::{MemTraffic, RunStats};
use isrf_core::Word;
use isrf_kernel::ir::Kernel;
use isrf_kernel::sched::Schedule;
use isrf_mem::{MemorySystem, TransferId};
use isrf_trace::{CycleAttr, TraceEvent, Tracer};

use crate::exec::{ExecEngine, ExecScratch, KernelRun, Phase};
use crate::tape::{cached_tape, CompiledTape};

/// A live memory transfer issued by [`Machine::run`]: the program op it
/// completes and, for loads, the destination stream and the data to land
/// in the SRF at completion. Stored in a slab indexed by the transfer's
/// slab slot, so completions resolve without scanning.
#[derive(Debug)]
struct PendingTransfer {
    op: usize,
    fill: Option<(StreamBinding, Vec<Word>)>,
}

/// Sequencer loop state of an in-flight program run, parked on the machine
/// between [`Machine::run_until`] slices. Structures derivable from the
/// program alone (dependents lists, the kernel index list, the port block
/// size) are rebuilt on every slice instead of being stored.
#[derive(Debug)]
struct RunState {
    /// Cumulative stats at run start (the final delta subtracts these).
    start_stats: RunStats,
    /// Memory traffic at run start.
    mem_start: MemTraffic,
    done: Vec<bool>,
    pending_deps: Vec<u32>,
    /// Memory ops whose dependences are complete, not yet issued.
    ready_mem: Vec<usize>,
    /// Cursor into the program-order kernel list.
    next_kernel: usize,
    /// The dispatched kernel, if any: `(program op index, run)`.
    kernel_run: Option<(usize, KernelRun)>,
    kernel_dispatch_left: u32,
    completed: usize,
    live_transfers: usize,
}

use crate::program::{ProgOp, StreamProgram};
use crate::srf::{Srf, SrfRange};
use crate::stream::StreamBinding;
use crate::verify::{ProgramVerifier, VerifyEnv, VerifyError};

/// A complete simulated stream processor.
#[derive(Debug)]
pub struct Machine {
    cfg: MachineConfig,
    srf: Srf,
    mem: MemorySystem,
    /// Persistent cluster-local scratchpads, `scratch[lane][addr]`.
    scratch: Vec<Vec<Word>>,
    now: u64,
    stats: RunStats,
    /// Fractional SRF-port debt of memory transfers, in words.
    mem_port_words: f64,
    tracer: Tracer,
    /// Reusable kernel-execution buffers, shared across invocations.
    exec_scratch: ExecScratch,
    /// Live transfers, indexed by slab slot (mirrors the memory system's
    /// slot allocation).
    pending: Vec<Option<PendingTransfer>>,
    /// Reusable staging buffer for store/scatter source data.
    store_buf: Vec<Word>,
    /// Fast-forward across cycles where every sequencer is stalled on
    /// memory (on by default; identical observable behavior either way).
    quiesce_skip: bool,
    /// Static verifier consulted before simulation, when installed.
    verifier: Option<Arc<dyn ProgramVerifier>>,
    /// Per-bank word intervals known to hold data (sorted, disjoint):
    /// direct `write_stream` setup plus the outputs of completed runs.
    filled: Vec<(u32, u32)>,
    /// Kernel execution engine installed on every dispatched run.
    engine: ExecEngine,
    /// Loop state of a program paused mid-run by [`Machine::run_until`].
    active: Option<RunState>,
    /// Per-machine tape memo keyed by `(kernel, schedule)` Arc identity,
    /// skipping the content-hash lookup on repeat dispatches. The Arcs
    /// are pinned in the entry so pointer keys stay valid.
    #[allow(clippy::type_complexity)]
    tape_memo: BTreeMap<(usize, usize), (Arc<Kernel>, Arc<Schedule>, Arc<CompiledTape>)>,
}

impl Machine {
    /// Build a machine.
    ///
    /// # Errors
    ///
    /// Returns the configuration's validation error, if any.
    pub fn new(cfg: MachineConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        Ok(Machine {
            srf: Srf::new(&cfg),
            mem: MemorySystem::new(&cfg),
            scratch: vec![vec![0; cfg.cluster.scratchpad_words.max(1)]; cfg.lanes],
            now: 0,
            stats: RunStats::default(),
            mem_port_words: 0.0,
            tracer: Tracer::Null,
            exec_scratch: ExecScratch::default(),
            pending: Vec::new(),
            store_buf: Vec::new(),
            quiesce_skip: true,
            verifier: None,
            filled: Vec::new(),
            engine: ExecEngine::default(),
            active: None,
            tape_memo: BTreeMap::new(),
            cfg,
        })
    }

    /// Select the kernel execution engine for subsequent dispatches.
    ///
    /// Both engines produce byte-identical stats and traces; the tape
    /// engine (the default) is simply faster. The interpreter remains
    /// available for differential testing and triage.
    pub fn set_engine(&mut self, engine: ExecEngine) {
        self.engine = engine;
    }

    /// The kernel execution engine installed on subsequent dispatches.
    pub fn engine(&self) -> ExecEngine {
        self.engine
    }

    /// The compiled tape for `(kernel, sched)`, via the per-machine
    /// identity memo backed by the process-global content-hash cache.
    fn tape_for(&mut self, kernel: &Arc<Kernel>, sched: &Arc<Schedule>) -> Arc<CompiledTape> {
        let key = (Arc::as_ptr(kernel) as usize, Arc::as_ptr(sched) as usize);
        if let Some((_, _, tape)) = self.tape_memo.get(&key) {
            return Arc::clone(tape);
        }
        let tape = cached_tape(kernel, sched, self.cfg.lanes);
        self.tape_memo.insert(
            key,
            (Arc::clone(kernel), Arc::clone(sched), Arc::clone(&tape)),
        );
        tape
    }

    /// Enable or disable the quiescence fast-forward (skipping runs of
    /// cycles where the sequencer is idle and every live transfer is just
    /// waiting out its access latency). On by default; disabling it only
    /// slows simulation — cycle counts, stats and traces are identical.
    pub fn set_quiescence_skip(&mut self, on: bool) {
        self.quiesce_skip = on;
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// The SRF (for allocating ranges and laying out data).
    pub fn srf(&self) -> &Srf {
        &self.srf
    }

    /// Mutable SRF access.
    pub fn srf_mut(&mut self) -> &mut Srf {
        &mut self.srf
    }

    /// The memory system (for laying out benchmark data).
    pub fn mem(&self) -> &MemorySystem {
        &self.mem
    }

    /// Mutable memory-system access.
    pub fn mem_mut(&mut self) -> &mut MemorySystem {
        &mut self.mem
    }

    /// Current cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The persistent per-lane scratchpads.
    pub fn scratch(&self) -> &[Vec<Word>] {
        &self.scratch
    }

    /// Install a tracer and return the previous one. Pass
    /// [`Tracer::recording`] to capture cycle-attributed events from every
    /// subsequent [`Machine::run`]; pass [`Tracer::Null`] (the default) to
    /// turn instrumentation back into a no-op.
    pub fn set_tracer(&mut self, tracer: Tracer) -> Tracer {
        std::mem::replace(&mut self.tracer, tracer)
    }

    /// The currently installed tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Remove the installed tracer, leaving [`Tracer::Null`] behind.
    pub fn take_tracer(&mut self) -> Tracer {
        std::mem::take(&mut self.tracer)
    }

    /// Statistics accumulated across all [`Machine::run`] calls.
    pub fn stats(&self) -> RunStats {
        self.stats
    }

    /// Reset statistics (keeps SRF and memory contents).
    pub fn reset_stats(&mut self) {
        self.stats = RunStats::default();
    }

    /// Convenience: allocate an SRF range sized for `records` records of
    /// `record_words` and return the binding covering it.
    pub fn alloc_stream(&mut self, record_words: u32, records: u32) -> StreamBinding {
        let lanes = self.cfg.lanes as u32;
        let per_bank = records.div_ceil(lanes) * record_words;
        let range = self.srf.alloc(per_bank);
        StreamBinding::whole(range, record_words, records)
    }

    /// Release all SRF allocations. Also forgets which intervals held
    /// data: ranges handed out earlier must no longer be used, so nothing
    /// inside them counts as live for verification.
    pub fn free_srf(&mut self) {
        self.srf.free_all();
        self.filled.clear();
    }

    /// Install a static verifier (or remove one with `None`); returns the
    /// previous verifier. [`Machine::run`] consults it automatically in
    /// debug builds only; release builds call
    /// [`Machine::verify_program`] explicitly.
    pub fn set_verifier(
        &mut self,
        v: Option<Arc<dyn ProgramVerifier>>,
    ) -> Option<Arc<dyn ProgramVerifier>> {
        std::mem::replace(&mut self.verifier, v)
    }

    /// The machine-side facts handed to the verifier: allocator high-water
    /// mark and the per-bank intervals known to hold data.
    pub fn verify_env(&self) -> VerifyEnv {
        VerifyEnv {
            allocated_words_per_bank: self.srf.bank_words() - self.srf.free_words(),
            filled: self.filled.clone(),
        }
    }

    /// Run the installed verifier on `program` now, in any build.
    ///
    /// # Errors
    ///
    /// Returns every diagnostic the verifier produced. `Ok` when no
    /// verifier is installed or the program is clean.
    pub fn verify_program(&self, program: &StreamProgram) -> Result<(), VerifyError> {
        let Some(v) = &self.verifier else {
            return Ok(());
        };
        let diagnostics = v.verify(&self.cfg, &self.verify_env(), program);
        if diagnostics.is_empty() {
            Ok(())
        } else {
            Err(VerifyError { diagnostics })
        }
    }

    /// Record that the per-bank interval `[lo, hi)` now holds data,
    /// keeping `filled` sorted and disjoint.
    fn add_fill(&mut self, lo: u32, hi: u32) {
        if lo >= hi {
            return;
        }
        self.filled.push((lo, hi));
        self.filled.sort_unstable();
        let mut merged: Vec<(u32, u32)> = Vec::with_capacity(self.filled.len());
        for &(s, e) in &self.filled {
            match merged.last_mut() {
                Some(last) if s <= last.1 => last.1 = last.1.max(e),
                _ => merged.push((s, e)),
            }
        }
        self.filled = merged;
    }

    /// Record the SRF intervals a completed `program` wrote: load/gather
    /// destinations and every output binding of each kernel.
    fn note_program_fills(&mut self, program: &StreamProgram) {
        use isrf_kernel::ir::StreamKind;
        let mut ranges: Vec<crate::srf::SrfRange> = Vec::new();
        for node in &program.nodes {
            match &node.op {
                ProgOp::Load { dst, .. } | ProgOp::GatherDyn { dst, .. } => {
                    ranges.push(dst.range);
                }
                ProgOp::Kernel {
                    kernel, bindings, ..
                } => {
                    for (decl, b) in kernel.streams.iter().zip(bindings) {
                        if matches!(
                            decl.kind,
                            StreamKind::SeqOut | StreamKind::CondOut | StreamKind::IdxInWrite
                        ) {
                            ranges.push(b.range);
                        }
                    }
                }
                ProgOp::Store { .. } | ProgOp::ScatterDyn { .. } => {}
            }
        }
        for r in ranges {
            self.add_fill(r.base, r.base + r.words_per_bank);
        }
    }

    /// Read a stream's content out of the SRF (for checking results).
    pub fn read_stream(&self, b: &StreamBinding) -> Vec<Word> {
        let mut out = Vec::new();
        self.read_stream_into(b, &mut out);
        out
    }

    /// Read a stream's content out of the SRF into `out` (cleared first).
    /// Lets hot paths reuse one buffer instead of materializing a fresh
    /// `Vec` per access.
    pub fn read_stream_into(&self, b: &StreamBinding, out: &mut Vec<Word>) {
        out.clear();
        out.reserve(b.words() as usize);
        for k in 0..b.words() {
            out.push(
                self.srf
                    .read_stream_word(b.range, b.record_words, b.stream_word(k)),
            );
        }
    }

    /// Write data into a stream's SRF storage directly (test setup).
    pub fn write_stream(&mut self, b: &StreamBinding, data: &[Word]) {
        for (k, &v) in data.iter().enumerate() {
            self.srf
                .write_stream_word(b.range, b.record_words, b.stream_word(k as u32), v);
        }
        self.add_fill(b.range.base, b.range.base + b.range.words_per_bank);
    }

    /// Record a live transfer in the slot-indexed pending table.
    fn track_transfer(
        &mut self,
        id: TransferId,
        op: usize,
        fill: Option<(StreamBinding, Vec<Word>)>,
    ) {
        let slot = id.slot();
        if self.pending.len() <= slot {
            self.pending.resize_with(slot + 1, || None);
        }
        debug_assert!(self.pending[slot].is_none(), "slab slot reused while live");
        self.pending[slot] = Some(PendingTransfer { op, fill });
    }

    /// Gather-issue addressing: `base + index_stream[k]` for every element.
    fn collect_indices(&self, index_stream: &StreamBinding, base: u32) -> Vec<u32> {
        (0..index_stream.words())
            .map(|k| {
                base + self.srf.read_stream_word(
                    index_stream.range,
                    index_stream.record_words,
                    index_stream.stream_word(k),
                )
            })
            .collect()
    }

    /// Issue memory op `i`: hand the transfer to the memory system (access
    /// patterns are borrowed from the program, store data staged through
    /// the reusable buffer) and record its pending completion.
    fn issue_mem_op(&mut self, program: &StreamProgram, i: usize) {
        let (id, words, write, cacheable) = match &program.nodes[i].op {
            ProgOp::Load {
                pattern,
                dst,
                cacheable,
            } => {
                let (id, data) = self.mem.start_read(pattern, *cacheable);
                let words = data.len() as u32;
                self.track_transfer(id, i, Some((*dst, data)));
                (id, words, false, *cacheable)
            }
            ProgOp::Store {
                src,
                pattern,
                cacheable,
            } => {
                let mut buf = std::mem::take(&mut self.store_buf);
                self.read_stream_into(src, &mut buf);
                let words = buf.len() as u32;
                let id = self.mem.start_write(pattern, &buf, *cacheable);
                self.store_buf = buf;
                self.track_transfer(id, i, None);
                (id, words, true, *cacheable)
            }
            ProgOp::GatherDyn {
                index_stream,
                base,
                dst,
                cacheable,
            } => {
                let addrs = self.collect_indices(index_stream, *base);
                let (id, data) = self.mem.start_gather(addrs, *cacheable);
                let words = data.len() as u32;
                self.track_transfer(id, i, Some((*dst, data)));
                (id, words, false, *cacheable)
            }
            ProgOp::ScatterDyn {
                src,
                index_stream,
                base,
                cacheable,
            } => {
                let addrs = self.collect_indices(index_stream, *base);
                let mut buf = std::mem::take(&mut self.store_buf);
                self.read_stream_into(src, &mut buf);
                let words = buf.len() as u32;
                let id = self.mem.start_scatter(addrs, &buf, *cacheable);
                self.store_buf = buf;
                self.track_transfer(id, i, None);
                (id, words, true, *cacheable)
            }
            ProgOp::Kernel { .. } => unreachable!("kernels dispatch on the sequencer"),
        };
        self.tracer.emit(
            self.now,
            TraceEvent::TransferStart {
                op: i as u32,
                id: id.raw(),
                words,
                write,
                cacheable,
            },
        );
    }

    /// Execute `program` to completion; returns the stats for this run.
    /// Shorthand for an unbounded [`Machine::run_until`] that panics with
    /// the verifier's full diagnostic list instead of returning it.
    ///
    /// # Panics
    ///
    /// Panics if the program deadlocks (circular dependences) — programs
    /// built with [`StreamProgram`]'s checked constructors cannot — or
    /// fails verification.
    pub fn run(&mut self, program: &StreamProgram) -> RunStats {
        self.run_until(program, u64::MAX)
            .unwrap_or_else(|e| panic!("{e}"))
            .expect("an unbounded run completes")
    }

    /// True while a [`Machine::run_until`] slice has left a program paused
    /// mid-run on this machine.
    pub fn mid_run(&self) -> bool {
        self.active.is_some()
    }

    /// Serialize the machine's complete dynamic architectural state —
    /// including a program paused by [`Machine::run_until`] — into the
    /// versioned, content-hashed snapshot frame (DESIGN.md §12).
    ///
    /// The snapshot captures everything the simulation reads: cycle
    /// counter, statistics, SRF banks, lane scratchpads, the memory system
    /// (contents, cache arrays, in-flight transfers), the pending-transfer
    /// slab, and the paused sequencer loop (stream buffers, address FIFOs,
    /// kernel cursors, iteration contexts). Derived caches (compiled
    /// tapes, tracers, verifiers) are not stored; they are reconstructed
    /// deterministically on restore. `program` must be the program the
    /// paused run executes; restoring requires the same program and
    /// machine configuration (validated by fingerprint).
    ///
    /// Two snapshots of identical architectural state are byte-identical,
    /// and `snapshot → restore → run` matches an uninterrupted run in
    /// stats, traces, and memory.
    pub fn save_state(&self, program: &StreamProgram) -> Vec<u8> {
        let mut meta = Enc::new();
        meta.u64(snap::fnv1a(format!("{:?}", self.cfg).as_bytes()));
        meta.u64(snap::fnv1a(format!("{program:?}").as_bytes()));
        meta.u8(match self.engine {
            ExecEngine::Tape => 0,
            ExecEngine::Interp => 1,
        });
        meta.bool(self.quiesce_skip);
        meta.u64(self.now);
        meta.f64(self.mem_port_words);
        self.stats.encode_state(&mut meta);

        let mut scratch = Enc::new();
        scratch.usize(self.scratch.len());
        for lane in &self.scratch {
            scratch.usize(lane.len());
            for &w in lane {
                scratch.u32(w);
            }
        }

        let mut filled = Enc::new();
        filled.usize(self.filled.len());
        for &(lo, hi) in &self.filled {
            filled.u32(lo);
            filled.u32(hi);
        }

        let mut pending = Enc::new();
        pending.usize(self.pending.len());
        for slot in &self.pending {
            match slot {
                None => pending.bool(false),
                Some(pt) => {
                    pending.bool(true);
                    pending.usize(pt.op);
                    match &pt.fill {
                        None => pending.bool(false),
                        Some((b, data)) => {
                            pending.bool(true);
                            encode_binding(b, &mut pending);
                            pending.usize(data.len());
                            for &w in data {
                                pending.u32(w);
                            }
                        }
                    }
                }
            }
        }

        let mut srf = Enc::new();
        self.srf.encode_state(&mut srf);

        let mut run = Enc::new();
        let mut kctx = Enc::new();
        match &self.active {
            None => run.bool(false),
            Some(rs) => {
                run.bool(true);
                rs.start_stats.encode_state(&mut run);
                rs.mem_start.encode_state(&mut run);
                run.usize(rs.done.len());
                for &d in &rs.done {
                    run.bool(d);
                }
                for &p in &rs.pending_deps {
                    run.u32(p);
                }
                run.usize(rs.ready_mem.len());
                for &i in &rs.ready_mem {
                    run.usize(i);
                }
                run.usize(rs.next_kernel);
                run.u32(rs.kernel_dispatch_left);
                run.usize(rs.completed);
                run.usize(rs.live_transfers);
                match &rs.kernel_run {
                    None => run.bool(false),
                    Some((ki, kr)) => {
                        run.bool(true);
                        run.usize(*ki);
                        kr.encode_state(&mut run);
                        // Engine-specific iteration contexts live in their
                        // own section so cross-engine state comparison can
                        // skip exactly the representation-dependent part.
                        kr.encode_ctx(&mut kctx);
                    }
                }
            }
        }

        let mut payload = Enc::new();
        snap::write_sections(
            &mut payload,
            &[
                ("meta", meta.into_bytes()),
                ("scratch", scratch.into_bytes()),
                ("filled", filled.into_bytes()),
                ("pending", pending.into_bytes()),
                ("srf", srf.into_bytes()),
                ("mem", self.mem.encode_state()),
                ("run", run.into_bytes()),
                ("kctx", kctx.into_bytes()),
            ],
        );
        snap::frame(&payload.into_bytes())
    }

    /// Restore the machine to a snapshot taken by [`Machine::save_state`].
    ///
    /// The machine must be built from the same configuration and `program`
    /// must be (structurally) the same program as at capture — both are
    /// validated by fingerprint before anything is overwritten. Tracer,
    /// verifier, and engine-selection caches are left untouched, so a
    /// restored machine can trace or verify independently of the one that
    /// captured the snapshot.
    ///
    /// # Errors
    ///
    /// Any [`SnapError`]: frame corruption, version mismatch, or a
    /// structurally valid snapshot that does not fit this machine or
    /// program. On error after the fingerprint checks the machine state is
    /// unspecified; restore again (or rebuild the machine) before use.
    pub fn restore_state(
        &mut self,
        program: &StreamProgram,
        bytes: &[u8],
    ) -> Result<(), SnapError> {
        let payload = snap::unframe(bytes)?;
        let sections = snap::read_sections(payload)?;
        let get = |name: &str| -> Result<&[u8], SnapError> {
            sections
                .iter()
                .find(|s| s.name == name)
                .map(|s| s.bytes.as_slice())
                .ok_or_else(|| SnapError::Mismatch(format!("snapshot lacks section \"{name}\"")))
        };

        let mut meta = Dec::new(get("meta")?);
        let cfg_fp = meta.u64()?;
        if cfg_fp != snap::fnv1a(format!("{:?}", self.cfg).as_bytes()) {
            return Err(SnapError::Mismatch(
                "snapshot was taken on a different machine configuration".into(),
            ));
        }
        let prog_fp = meta.u64()?;
        if prog_fp != snap::fnv1a(format!("{program:?}").as_bytes()) {
            return Err(SnapError::Mismatch(
                "snapshot was taken running a different program".into(),
            ));
        }
        let engine = match meta.u8()? {
            0 => ExecEngine::Tape,
            1 => ExecEngine::Interp,
            t => return Err(SnapError::Mismatch(format!("unknown engine tag {t}"))),
        };
        self.engine = engine;
        self.quiesce_skip = meta.bool()?;
        self.now = meta.u64()?;
        self.mem_port_words = meta.f64()?;
        self.stats = RunStats::decode_state(&mut meta)?;
        meta.finish()?;

        let mut sc = Dec::new(get("scratch")?);
        let lanes = sc.usize()?;
        if lanes != self.scratch.len() {
            return Err(SnapError::Mismatch(format!(
                "scratchpad lane count {lanes} != {}",
                self.scratch.len()
            )));
        }
        for lane in &mut self.scratch {
            let len = sc.usize()?;
            if len != lane.len() {
                return Err(SnapError::Mismatch(format!(
                    "scratchpad holds {len} words, expected {}",
                    lane.len()
                )));
            }
            for w in lane.iter_mut() {
                *w = sc.u32()?;
            }
        }
        sc.finish()?;

        let mut fl = Dec::new(get("filled")?);
        let n_filled = fl.usize()?;
        self.filled.clear();
        for _ in 0..n_filled {
            let lo = fl.u32()?;
            let hi = fl.u32()?;
            self.filled.push((lo, hi));
        }
        fl.finish()?;

        let mut pd = Dec::new(get("pending")?);
        let slots = pd.usize()?;
        self.pending.clear();
        for _ in 0..slots {
            if !pd.bool()? {
                self.pending.push(None);
                continue;
            }
            let op = pd.usize()?;
            let fill = if pd.bool()? {
                let b = decode_binding(&mut pd)?;
                Some((b, pd.u32s()?))
            } else {
                None
            };
            self.pending.push(Some(PendingTransfer { op, fill }));
        }
        pd.finish()?;

        let mut sr = Dec::new(get("srf")?);
        self.srf.decode_state(&mut sr)?;
        sr.finish()?;

        self.mem.decode_state(get("mem")?)?;

        let mut rn = Dec::new(get("run")?);
        self.active = if rn.bool()? {
            let start_stats = RunStats::decode_state(&mut rn)?;
            let mem_start = MemTraffic::decode_state(&mut rn)?;
            let n_ops = rn.usize()?;
            if n_ops != program.len() {
                return Err(SnapError::Mismatch(format!(
                    "paused run covers {n_ops} ops, program has {}",
                    program.len()
                )));
            }
            let mut done = Vec::with_capacity(n_ops);
            for _ in 0..n_ops {
                done.push(rn.bool()?);
            }
            let mut pending_deps = Vec::with_capacity(n_ops);
            for _ in 0..n_ops {
                pending_deps.push(rn.u32()?);
            }
            let n_ready = rn.usize()?;
            let mut ready_mem = Vec::new();
            for _ in 0..n_ready {
                ready_mem.push(rn.usize()?);
            }
            let next_kernel = rn.usize()?;
            let kernel_dispatch_left = rn.u32()?;
            let completed = rn.usize()?;
            let live_transfers = rn.usize()?;
            let kernel_run = if rn.bool()? {
                let ki = rn.usize()?;
                let Some(node) = program.nodes.get(ki) else {
                    return Err(SnapError::Mismatch(format!(
                        "paused kernel index {ki} out of program range"
                    )));
                };
                let ProgOp::Kernel {
                    kernel,
                    schedule,
                    bindings,
                    iters,
                } = &node.op
                else {
                    return Err(SnapError::Mismatch(format!(
                        "paused run points at op {ki}, which is not a kernel"
                    )));
                };
                let mut kr = KernelRun::new(
                    &self.cfg,
                    Arc::clone(kernel),
                    Arc::clone(schedule),
                    bindings,
                    *iters,
                );
                match engine {
                    ExecEngine::Tape => {
                        let tape = self.tape_for(kernel, schedule);
                        kr.set_tape(tape);
                    }
                    ExecEngine::Interp => kr.set_engine(ExecEngine::Interp),
                }
                kr.decode_state(&mut rn)?;
                let mut kc = Dec::new(get("kctx")?);
                kr.decode_ctx(&mut kc)?;
                kc.finish()?;
                Some((ki, kr))
            } else {
                None
            };
            Some(RunState {
                start_stats,
                mem_start,
                done,
                pending_deps,
                ready_mem,
                next_kernel,
                kernel_run,
                kernel_dispatch_left,
                completed,
                live_transfers,
            })
        } else {
            None
        };
        rn.finish()?;
        Ok(())
    }

    /// Run `program` for at most `budget` machine cycles, pausing the
    /// sequencer in place when the budget runs out.
    ///
    /// Returns `Ok(Some(stats))` when the program completed within the
    /// budget (the run's stats delta), or `Ok(None)` when it paused; call
    /// `run_until` (or [`Machine::run`]) again **with the same program** to
    /// continue. A paused-and-resumed run is byte-identical — stats,
    /// traces, memory — to an uninterrupted one. Snapshot the paused
    /// machine with [`Machine::save_state`].
    ///
    /// # Errors
    ///
    /// The installed verifier's diagnostics when the program is not clean.
    /// The verifier runs once, before the first simulated cycle of a fresh
    /// run (not on resume), in debug builds only.
    ///
    /// # Panics
    ///
    /// Panics if the program deadlocks, or if a paused run is resumed with
    /// a different program.
    pub fn run_until(
        &mut self,
        program: &StreamProgram,
        budget: u64,
    ) -> Result<Option<RunStats>, VerifyError> {
        if self.active.is_none() && self.verifier.is_some() && cfg!(debug_assertions) {
            self.verify_program(program)?;
        }
        let n = program.len();
        // Program-derived structures, rebuilt on every slice (cheap, and
        // identical across pause/resume since the program is unchanged):
        // an op becomes ready the moment its last dependence completes —
        // the per-cycle path never rescans the program.
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut kernels: Vec<usize> = Vec::new();
        for (i, node) in program.nodes.iter().enumerate() {
            for d in &node.deps {
                dependents[d.0].push(i);
            }
            if matches!(node.op, ProgOp::Kernel { .. }) {
                kernels.push(i);
            }
        }
        let block = (self.cfg.lanes * self.cfg.srf.words_per_seq_access) as f64;
        let mut rs = self.active.take().unwrap_or_else(|| {
            let mut pending_deps: Vec<u32> = vec![0; n];
            for (i, node) in program.nodes.iter().enumerate() {
                pending_deps[i] = node.deps.len() as u32;
            }
            let ready_mem: Vec<usize> = (0..n)
                .filter(|&i| {
                    pending_deps[i] == 0 && !matches!(program.nodes[i].op, ProgOp::Kernel { .. })
                })
                .collect();
            RunState {
                start_stats: self.stats,
                mem_start: self.mem.traffic(),
                done: vec![false; n],
                pending_deps,
                ready_mem,
                next_kernel: 0, // kernels execute in program order
                kernel_run: None,
                kernel_dispatch_left: 0,
                completed: 0,
                live_transfers: 0,
            }
        });
        if rs.done.len() != n {
            panic!(
                "resumed with a different program ({n} ops, paused run has {})",
                rs.done.len()
            );
        }
        let mut used: u64 = 0;

        while rs.completed < n {
            if used >= budget {
                self.active = Some(rs);
                return Ok(None);
            }
            // Start ready memory ops (ascending op order, matching the
            // program scan this replaces).
            if !rs.ready_mem.is_empty() {
                rs.ready_mem.sort_unstable();
                for i in rs.ready_mem.drain(..) {
                    self.issue_mem_op(program, i);
                    rs.live_transfers += 1;
                }
            }
            // Dispatch the next kernel (in program order) when ready.
            while rs.next_kernel < kernels.len() && rs.done[kernels[rs.next_kernel]] {
                rs.next_kernel += 1;
            }
            if rs.kernel_run.is_none() && rs.next_kernel < kernels.len() {
                let ki = kernels[rs.next_kernel];
                if rs.pending_deps[ki] == 0 {
                    if let ProgOp::Kernel {
                        kernel,
                        schedule,
                        bindings,
                        iters,
                    } = &program.nodes[ki].op
                    {
                        if self.tracer.enabled() {
                            self.tracer.emit(
                                self.now,
                                TraceEvent::KernelStart {
                                    op: ki as u32,
                                    name: kernel.name.as_str().into(),
                                },
                            );
                        }
                        let mut run = KernelRun::new(
                            &self.cfg,
                            Arc::clone(kernel),
                            Arc::clone(schedule),
                            bindings,
                            *iters,
                        );
                        match self.engine {
                            ExecEngine::Tape => {
                                let tape = self.tape_for(kernel, schedule);
                                run.set_tape(tape);
                            }
                            ExecEngine::Interp => run.set_engine(ExecEngine::Interp),
                        }
                        rs.kernel_run = Some((ki, run));
                        rs.kernel_dispatch_left = self.cfg.kernel_dispatch_cycles;
                    }
                }
            }

            // Quiescence fast-forward: no kernel running or dispatchable,
            // nothing left to issue, and every live transfer has been
            // fully served — the machine would spend every cycle up to the
            // next completion in a pure memory stall, so take them all at
            // once. `advance_idle` replays the credit refill cycle by
            // cycle, so this is bit-identical to ticking; the port-debt
            // gate keeps any PortPreempted cycle on the slow path. The
            // budget clamp pauses mid-stall without observable difference:
            // the remaining stall cycles replay identically on resume.
            if self.quiesce_skip
                && rs.kernel_run.is_none()
                && rs.live_transfers > 0
                && self.mem.inflight_count() == 0
                && self.mem_port_words < block
            {
                if let Some(t) = self.mem.next_completion_time() {
                    let skip = t.saturating_sub(self.now + 1).min(budget - used - 1);
                    if skip > 0 {
                        self.mem.advance_idle(skip);
                        self.now += skip;
                        self.attribute(CycleAttr::MemStall, skip);
                        self.stats.cycles += skip;
                        used += skip;
                    }
                }
            }

            // ---- One machine cycle. ----
            self.now += 1;
            self.mem.tick_traced(&mut self.tracer);
            // Memory transfers consume the SRF port: one block grant per
            // N*m words moved.
            self.mem_port_words += self.mem.words_served_last_tick() as f64;
            let mem_claims_port = if self.mem_port_words >= block {
                self.mem_port_words -= block;
                self.tracer.emit(self.now, TraceEvent::PortPreempted);
                true
            } else {
                false
            };

            // Retire finished transfers in (completion cycle, issue id)
            // order, landing load data in the SRF.
            while let Some(id) = self.mem.pop_ready() {
                let Some(pt) = self.pending.get_mut(id.slot()).and_then(Option::take) else {
                    continue; // issued directly on the memory system, not ours
                };
                rs.live_transfers -= 1;
                if let Some((dst, data)) = pt.fill {
                    for (k, &v) in data.iter().enumerate() {
                        self.srf.write_stream_word(
                            dst.range,
                            dst.record_words,
                            dst.stream_word(k as u32),
                            v,
                        );
                    }
                }
                complete_op(
                    pt.op,
                    program,
                    &mut rs.done,
                    &mut rs.completed,
                    &mut rs.pending_deps,
                    &dependents,
                    &mut rs.ready_mem,
                );
                self.tracer.emit(
                    self.now,
                    TraceEvent::TransferDone {
                        op: pt.op as u32,
                        id: id.raw(),
                    },
                );
            }

            // Advance the kernel (or attribute the idle cycle).
            if let Some((ki, run)) = &mut rs.kernel_run {
                if rs.kernel_dispatch_left > 0 {
                    rs.kernel_dispatch_left -= 1;
                    self.attribute(CycleAttr::Dispatch, 1);
                } else {
                    let phase = run.tick(
                        self.now,
                        &mut self.srf,
                        &mut self.scratch,
                        &mut self.exec_scratch,
                        mem_claims_port,
                        &mut self.stats.srf,
                        &mut self.tracer,
                    );
                    match phase {
                        // Loop-body vs fill/drain is settled at kernel end.
                        Phase::Advanced => self.attribute(CycleAttr::Advance, 1),
                        Phase::Stalled => self.attribute(CycleAttr::SrfStall, 1),
                        Phase::Flushing => self.attribute(CycleAttr::Flush, 1),
                        Phase::Done => {
                            // Attribute advanced cycles: body = iters*II,
                            // the rest is software-pipeline fill/drain.
                            let body = run.body_cycles().min(run.advance_cycles);
                            self.stats.breakdown.kernel_loop += body;
                            self.stats.breakdown.overhead += run.advance_cycles - body;
                            let i = *ki;
                            self.tracer.emit(
                                self.now,
                                TraceEvent::KernelEnd {
                                    op: i as u32,
                                    body_cycles: run.body_cycles(),
                                    advance_cycles: run.advance_cycles,
                                    stall_cycles: run.stall_cycles,
                                    flush_cycles: run.flush_cycles,
                                },
                            );
                            self.attribute(CycleAttr::KernelFinish, 1);
                            complete_op(
                                i,
                                program,
                                &mut rs.done,
                                &mut rs.completed,
                                &mut rs.pending_deps,
                                &dependents,
                                &mut rs.ready_mem,
                            );
                            rs.kernel_run = None;
                        }
                    }
                }
            } else if rs.live_transfers > 0 {
                self.attribute(CycleAttr::MemStall, 1);
            } else if rs.completed < n {
                // Waiting on nothing measurable (e.g. dependence chains of
                // zero-length ops); attribute to overhead.
                self.attribute(CycleAttr::Idle, 1);
            }
            self.stats.cycles += 1;
            used += 1;

            assert!(
                self.stats.cycles - (rs.start_stats.cycles) < 1_000_000_000,
                "program appears deadlocked"
            );
        }

        self.stats.mem = self.mem.traffic();
        let mut delta = self.stats;
        delta.cycles -= rs.start_stats.cycles;
        delta.main_loop_cycles -= rs.start_stats.main_loop_cycles;
        delta.breakdown.kernel_loop -= rs.start_stats.breakdown.kernel_loop;
        delta.breakdown.mem_stall -= rs.start_stats.breakdown.mem_stall;
        delta.breakdown.srf_stall -= rs.start_stats.breakdown.srf_stall;
        delta.breakdown.overhead -= rs.start_stats.breakdown.overhead;
        delta.srf.seq_words -= rs.start_stats.srf.seq_words;
        delta.srf.inlane_words -= rs.start_stats.srf.inlane_words;
        delta.srf.crosslane_words -= rs.start_stats.srf.crosslane_words;
        delta.mem.bytes_read -= rs.mem_start.bytes_read;
        delta.mem.bytes_written -= rs.mem_start.bytes_written;
        delta.mem.cache_hit_bytes -= rs.mem_start.cache_hit_bytes;
        self.note_program_fills(program);
        Ok(Some(delta))
    }

    /// Charge the `cycles` ending at `self.now` to `attr`'s Figure-12
    /// component (`Advance` and `SrfStall` also count as main-loop cycles)
    /// and emit one `Cycle(attr)` trace event per cycle: the one path that
    /// keeps the breakdown and the trace stream in step.
    #[inline]
    fn attribute(&mut self, attr: CycleAttr, cycles: u64) {
        let s = &mut self.stats;
        match attr {
            CycleAttr::Advance => s.main_loop_cycles += cycles,
            CycleAttr::SrfStall => {
                s.main_loop_cycles += cycles;
                s.breakdown.srf_stall += cycles;
            }
            CycleAttr::MemStall => s.breakdown.mem_stall += cycles,
            CycleAttr::Dispatch | CycleAttr::Flush | CycleAttr::KernelFinish | CycleAttr::Idle => {
                s.breakdown.overhead += cycles;
            }
        }
        if self.tracer.enabled() {
            for t in self.now + 1 - cycles..=self.now {
                self.tracer.emit(t, TraceEvent::Cycle(attr));
            }
        }
    }
}

/// Write a [`StreamBinding`] into a snapshot encoder (seven `u32` fields).
fn encode_binding(b: &StreamBinding, e: &mut Enc) {
    e.u32(b.range.base);
    e.u32(b.range.words_per_bank);
    e.u32(b.record_words);
    e.u32(b.records);
    e.u32(b.start_record);
    e.u32(b.run_records);
    e.u32(b.stride_records);
}

/// Read a [`StreamBinding`] written by [`encode_binding`].
fn decode_binding(d: &mut Dec) -> Result<StreamBinding, SnapError> {
    Ok(StreamBinding {
        range: SrfRange {
            base: d.u32()?,
            words_per_bank: d.u32()?,
        },
        record_words: d.u32()?,
        records: d.u32()?,
        start_record: d.u32()?,
        run_records: d.u32()?,
        stride_records: d.u32()?,
    })
}

/// Retire op `i`: mark it done and push any newly unblocked memory ops
/// onto the ready list (kernels wait for the sequencer's program-order
/// cursor instead).
#[allow(clippy::too_many_arguments)]
fn complete_op(
    i: usize,
    program: &StreamProgram,
    done: &mut [bool],
    completed: &mut usize,
    pending_deps: &mut [u32],
    dependents: &[Vec<usize>],
    ready_mem: &mut Vec<usize>,
) {
    done[i] = true;
    *completed += 1;
    for &j in &dependents[i] {
        pending_deps[j] -= 1;
        if pending_deps[j] == 0 && !matches!(program.nodes[j].op, ProgOp::Kernel { .. }) {
            ready_mem.push(j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgOpId;
    use isrf_core::config::ConfigName;
    use isrf_kernel::ir::{KernelBuilder, Operand, StreamKind};
    use isrf_kernel::sched::{schedule, SchedParams, Schedule};
    use isrf_kernel::Kernel;
    use isrf_mem::AddrPattern;

    fn machine(name: ConfigName) -> Machine {
        Machine::new(MachineConfig::preset(name)).unwrap()
    }

    fn sched_for(m: &Machine, k: &Kernel) -> Schedule {
        schedule(k, &SchedParams::from_machine(m.config())).unwrap()
    }

    /// out[i] = 2 * in[i], end to end through memory.
    #[test]
    fn sequential_copy_scale_kernel() {
        let mut m = machine(ConfigName::Base);
        let mut b = KernelBuilder::new("scale");
        let si = b.stream("in", StreamKind::SeqIn);
        let so = b.stream("out", StreamKind::SeqOut);
        let x = b.seq_read(si);
        let two = b.constant(2);
        let y = b.mul(x, two);
        b.seq_write(so, y);
        let k = Arc::new(b.build().unwrap());
        let s = sched_for(&m, &k);

        let n = 256u32;
        for i in 0..n {
            m.mem_mut().memory_mut().write(i, i + 1);
        }
        let inp = m.alloc_stream(1, n);
        let outp = m.alloc_stream(1, n);
        let mut p = StreamProgram::new();
        let l = p.load(AddrPattern::contiguous(0, n), inp, false, &[]);
        let kk = p.kernel(Arc::clone(&k), s, vec![inp, outp], (n / 8) as u64, &[l]);
        p.store(outp, AddrPattern::contiguous(10_000, n), false, &[kk]);
        let stats = m.run(&p);

        for i in 0..n {
            assert_eq!(
                m.mem().memory().read(10_000 + i),
                2 * (i + 1),
                "element {i}"
            );
        }
        assert!(stats.cycles > 0);
        assert_eq!(stats.mem.total(), (n as u64) * 8, "load + store traffic");
        assert!(stats.breakdown.kernel_loop >= (n as u64 / 8), "body cycles");
        assert!(
            stats.srf.seq_words >= 2 * n as u64,
            "both streams through SRF"
        );
    }

    /// Per-lane running sum via a loop-carried operand.
    #[test]
    fn loop_carried_accumulation() {
        let mut m = machine(ConfigName::Base);
        let mut b = KernelBuilder::new("prefix");
        let si = b.stream("in", StreamKind::SeqIn);
        let so = b.stream("out", StreamKind::SeqOut);
        let x = b.seq_read(si);
        // acc = acc(prev) + x  (op index 1)
        let acc = b.push(
            isrf_kernel::Opcode::Add,
            vec![
                Operand::from(x),
                Operand::carried(isrf_kernel::ValueId(1), 1, 0),
            ],
        );
        b.seq_write(so, acc);
        let k = Arc::new(b.build().unwrap());
        let s = sched_for(&m, &k);

        let n = 64u32;
        for i in 0..n {
            m.mem_mut().memory_mut().write(i, 1); // all ones
        }
        let inp = m.alloc_stream(1, n);
        let outp = m.alloc_stream(1, n);
        let mut p = StreamProgram::new();
        let l = p.load(AddrPattern::contiguous(0, n), inp, false, &[]);
        let kk = p.kernel(Arc::clone(&k), s, vec![inp, outp], (n / 8) as u64, &[l]);
        p.store(outp, AddrPattern::contiguous(1000, n), false, &[kk]);
        m.run(&p);
        // Record r = iteration r/8 of lane r%8; running count = r/8 + 1.
        for r in 0..n {
            assert_eq!(m.mem().memory().read(1000 + r), r / 8 + 1, "record {r}");
        }
    }

    /// Cross-lane indexed read: every cluster fetches its neighbor's data.
    #[test]
    fn crosslane_indexed_permutation() {
        let mut m = machine(ConfigName::Isrf4);
        let mut b = KernelBuilder::new("xl");
        let data = b.stream("data", StreamKind::IdxCrossRead);
        let so = b.stream("out", StreamKind::SeqOut);
        // record = iter * lanes + (lane + 1) % lanes
        let lane = b.lane_id();
        let one = b.constant(1);
        let lanes = b.lane_count();
        let iter = b.iter_id();
        let l1 = b.add(lane, one);
        let wrapped = b.rem(l1, lanes);
        let base = b.mul(iter, lanes);
        let rec = b.add(base, wrapped);
        let v = b.idx_load(data, rec);
        b.seq_write(so, v);
        let k = Arc::new(b.build().unwrap());
        let s = sched_for(&m, &k);

        let n = 64u32;
        let dstream = m.alloc_stream(1, n);
        let ostream = m.alloc_stream(1, n);
        let vals: Vec<u32> = (0..n).map(|i| 100 + i).collect();
        m.write_stream(&dstream, &vals);
        let mut p = StreamProgram::new();
        let kk = p.kernel(
            Arc::clone(&k),
            s,
            vec![dstream, ostream],
            (n / 8) as u64,
            &[],
        );
        p.store(ostream, AddrPattern::contiguous(5000, n), false, &[kk]);
        let stats = m.run(&p);
        assert!(stats.srf.crosslane_words >= n as u64);
        for i in 0..n {
            let lane = i % 8;
            let iter = i / 8;
            let expect = 100 + iter * 8 + (lane + 1) % 8;
            assert_eq!(m.mem().memory().read(5000 + i), expect, "record {i}");
        }
    }

    /// Indexed in-lane writes land at computed lane-local addresses.
    #[test]
    fn inlane_indexed_write_scatter() {
        let mut m = machine(ConfigName::Isrf4);
        let mut b = KernelBuilder::new("scatter");
        let dst = b.stream("dst", StreamKind::IdxInWrite);
        // Write value (lane*100 + iter) at lane-local word (7 - iter).
        let lane = b.lane_id();
        let iter = b.iter_id();
        let c100 = b.constant(100);
        let v0 = b.mul(lane, c100);
        let v = b.add(v0, iter);
        let seven = b.constant(7);
        let addr = b.sub(seven, iter);
        b.idx_write(dst, addr, v);
        let k = Arc::new(b.build().unwrap());
        let s = sched_for(&m, &k);

        let dstream = m.alloc_stream(1, 64);
        let mut p = StreamProgram::new();
        p.kernel(Arc::clone(&k), s, vec![dstream], 8, &[]);
        m.run(&p);
        for lane in 0..8usize {
            for iter in 0..8u32 {
                assert_eq!(
                    m.srf().read(lane, dstream.range.base + 7 - iter),
                    lane as u32 * 100 + iter
                );
            }
        }
    }

    /// Conditional output stream compacts selected elements.
    #[test]
    fn conditional_write_compacts() {
        let mut m = machine(ConfigName::Base);
        let mut b = KernelBuilder::new("compact");
        let si = b.stream("in", StreamKind::SeqIn);
        let so = b.stream("out", StreamKind::CondOut);
        let x = b.seq_read(si);
        let one = b.constant(1);
        let odd = b.and(x, one);
        b.cond_write(so, odd, x);
        let k = Arc::new(b.build().unwrap());
        let s = sched_for(&m, &k);

        let n = 64u32;
        for i in 0..n {
            m.mem_mut().memory_mut().write(i, i);
        }
        let inp = m.alloc_stream(1, n);
        let outp = m.alloc_stream(1, n / 2);
        let mut p = StreamProgram::new();
        let l = p.load(AddrPattern::contiguous(0, n), inp, false, &[]);
        let kk = p.kernel(Arc::clone(&k), s, vec![inp, outp], (n / 8) as u64, &[l]);
        p.store(outp, AddrPattern::contiguous(2000, n / 2), false, &[kk]);
        m.run(&p);
        // Each iteration processes records 8j..8j+8 = values 8j..8j+8; the
        // odd ones (4 per iteration) are appended in lane order.
        let got: Vec<u32> = (0..n / 2)
            .map(|i| m.mem().memory().read(2000 + i))
            .collect();
        let expect: Vec<u32> = (0..n).filter(|v| v % 2 == 1).collect();
        assert_eq!(got, expect);
    }

    /// Conditional input distributes elements to asserting lanes.
    #[test]
    fn conditional_read_distributes() {
        let mut m = machine(ConfigName::Base);
        let mut b = KernelBuilder::new("dist");
        let si = b.stream("in", StreamKind::CondIn);
        let so = b.stream("out", StreamKind::SeqOut);
        // Even lanes read; odd lanes get 0.
        let lane = b.lane_id();
        let one = b.constant(1);
        let lsb = b.and(lane, one);
        let zero = b.constant(0);
        let even = b.eq(lsb, zero);
        let v = b.cond_read(si, even);
        b.seq_write(so, v);
        let k = Arc::new(b.build().unwrap());
        let s = sched_for(&m, &k);

        let inp = m.alloc_stream(1, 32);
        let outp = m.alloc_stream(1, 64);
        let vals: Vec<u32> = (0..32).map(|i| 500 + i).collect();
        m.write_stream(&inp, &vals);
        let mut p = StreamProgram::new();
        let kk = p.kernel(Arc::clone(&k), s, vec![inp, outp], 8, &[]);
        p.store(outp, AddrPattern::contiguous(3000, 64), false, &[kk]);
        m.run(&p);
        // Iteration j: lanes 0,2,4,6 receive elements 4j..4j+4.
        for j in 0..8u32 {
            for (pos, lane) in [0u32, 2, 4, 6].iter().enumerate() {
                let rec = j * 8 + lane;
                assert_eq!(m.mem().memory().read(3000 + rec), 500 + 4 * j + pos as u32);
            }
            for lane in [1u32, 3, 5, 7] {
                assert_eq!(m.mem().memory().read(3000 + j * 8 + lane), 0);
            }
        }
    }

    /// Inter-cluster rotate permutes values across lanes.
    #[test]
    fn comm_rotate_permutes() {
        let mut m = machine(ConfigName::Base);
        let mut b = KernelBuilder::new("rot");
        let so = b.stream("out", StreamKind::SeqOut);
        let lane = b.lane_id();
        let c10 = b.constant(10);
        let v = b.mul(lane, c10);
        let r = b.comm_rotate(1, v);
        b.seq_write(so, r);
        let k = Arc::new(b.build().unwrap());
        let s = sched_for(&m, &k);
        let outp = m.alloc_stream(1, 8);
        let mut p = StreamProgram::new();
        p.kernel(Arc::clone(&k), s, vec![outp], 1, &[]);
        m.run(&p);
        let got = m.read_stream(&outp);
        // Lane l receives the value of lane (l+1) % 8.
        let expect: Vec<u32> = (0..8).map(|l| ((l + 1) % 8) * 10).collect();
        assert_eq!(got, expect);
    }

    /// Memory stalls appear when a kernel waits on a long load.
    #[test]
    fn memory_stall_attribution() {
        let mut m = machine(ConfigName::Base);
        let mut b = KernelBuilder::new("consume");
        let si = b.stream("in", StreamKind::SeqIn);
        let so = b.stream("out", StreamKind::SeqOut);
        let x = b.seq_read(si);
        b.seq_write(so, x);
        let k = Arc::new(b.build().unwrap());
        let s = sched_for(&m, &k);
        let n = 8192u32;
        let inp = m.alloc_stream(1, n);
        let outp = m.alloc_stream(1, n);
        let mut p = StreamProgram::new();
        let l = p.load(AddrPattern::contiguous(0, n), inp, false, &[]);
        let kk = p.kernel(Arc::clone(&k), s, vec![inp, outp], (n / 8) as u64, &[l]);
        let _ = kk;
        let stats = m.run(&p);
        // The load takes ~3600 cycles; the kernel only ~1000. Waiting for
        // the load dominates.
        assert!(
            stats.breakdown.mem_stall > stats.breakdown.kernel_loop,
            "{:?}",
            stats.breakdown
        );
    }

    /// Double buffering overlaps strip N's load with strip N-1's kernel.
    #[test]
    fn double_buffering_overlaps_memory_and_compute() {
        fn run(overlap: bool) -> u64 {
            let mut m = machine(ConfigName::Base);
            let mut b = KernelBuilder::new("work");
            let si = b.stream("in", StreamKind::SeqIn);
            let so = b.stream("out", StreamKind::SeqOut);
            let x = b.seq_read(si);
            // Enough multiplies to make compute time comparable to the load.
            let mut v = x;
            for _ in 0..12 {
                v = b.mul(v, x);
            }
            b.seq_write(so, v);
            let k = Arc::new(b.build().unwrap());
            let s = sched_for(&m, &k);
            let strip = 2048u32;
            let strips = 4u32;
            let bufs = [m.alloc_stream(1, strip), m.alloc_stream(1, strip)];
            let obufs = [m.alloc_stream(1, strip), m.alloc_stream(1, strip)];
            let mut p = StreamProgram::new();
            let mut last_kernel: Option<ProgOpId> = None;
            let mut last_in_buf: [Option<ProgOpId>; 2] = [None, None];
            for i in 0..strips {
                let pick = (i % 2) as usize;
                let mut deps: Vec<ProgOpId> = Vec::new();
                if let Some(prev) = last_in_buf[pick] {
                    deps.push(prev); // anti-dependence on buffer reuse
                }
                if !overlap {
                    if let Some(lk) = last_kernel {
                        deps.push(lk);
                    }
                }
                let l = p.load(
                    AddrPattern::contiguous(i * strip, strip),
                    bufs[pick],
                    false,
                    &deps,
                );
                let mut kdeps = vec![l];
                if let Some(lk) = last_kernel {
                    kdeps.push(lk);
                }
                let kk = p.kernel(
                    Arc::clone(&k),
                    s.clone(),
                    vec![bufs[pick], obufs[pick]],
                    (strip / 8) as u64,
                    &kdeps,
                );
                last_kernel = Some(kk);
                last_in_buf[pick] = Some(kk);
            }
            m.run(&p).cycles
        }
        let serial = run(false);
        let pipelined = run(true);
        assert!(
            (pipelined as f64) < 0.75 * serial as f64,
            "pipelined {pipelined} vs serial {serial}"
        );
    }

    /// Stats are deterministic across identical runs.
    #[test]
    fn deterministic_runs() {
        fn once() -> RunStats {
            let mut m = machine(ConfigName::Isrf4);
            let mut b = KernelBuilder::new("lut");
            let si = b.stream("in", StreamKind::SeqIn);
            let lut = b.stream("LUT", StreamKind::IdxInRead);
            let so = b.stream("out", StreamKind::SeqOut);
            let x = b.seq_read(si);
            let mask = b.constant(0xff);
            let a = b.and(x, mask);
            let v = b.idx_load(lut, a);
            let y = b.add(x, v);
            b.seq_write(so, y);
            let k = Arc::new(b.build().unwrap());
            let s = sched_for(&m, &k);
            let inp = m.alloc_stream(1, 512);
            let lutb = m.alloc_stream(1, 256 * 8);
            let outp = m.alloc_stream(1, 512);
            let ivals: Vec<u32> = (0..512).map(|i| i * 7).collect();
            m.write_stream(&inp, &ivals);
            let lvals: Vec<u32> = (0..2048).map(|i| i / 8).collect();
            m.write_stream(&lutb, &lvals);
            let mut p = StreamProgram::new();
            let kk = p.kernel(Arc::clone(&k), s, vec![inp, lutb, outp], 64, &[]);
            p.store(outp, AddrPattern::contiguous(9000, 512), false, &[kk]);
            m.run(&p)
        }
        assert_eq!(once(), once());
    }

    /// Functional check for the in-lane lookup above.
    #[test]
    fn inlane_lookup_values() {
        let mut m = machine(ConfigName::Isrf4);
        let mut b = KernelBuilder::new("lut");
        let si = b.stream("in", StreamKind::SeqIn);
        let lut = b.stream("LUT", StreamKind::IdxInRead);
        let so = b.stream("out", StreamKind::SeqOut);
        let x = b.seq_read(si);
        let mask = b.constant(0xff);
        let a = b.and(x, mask);
        let v = b.idx_load(lut, a);
        b.seq_write(so, v);
        let k = Arc::new(b.build().unwrap());
        let s = sched_for(&m, &k);
        let inp = m.alloc_stream(1, 64);
        let lutb = m.alloc_stream(1, 256 * 8);
        let outp = m.alloc_stream(1, 64);
        let ivals: Vec<u32> = (0..64).map(|i| (i * 3) % 256).collect();
        m.write_stream(&inp, &ivals);
        // Replicated per lane: global record r holds table[r / 8].
        let lvals: Vec<u32> = (0..2048).map(|r| 7000 + r / 8).collect();
        m.write_stream(&lutb, &lvals);
        let mut p = StreamProgram::new();
        let kk = p.kernel(Arc::clone(&k), s, vec![inp, lutb, outp], 8, &[]);
        p.store(outp, AddrPattern::contiguous(9000, 64), false, &[kk]);
        let stats = m.run(&p);
        for i in 0..64u32 {
            assert_eq!(m.mem().memory().read(9000 + i), 7000 + (i * 3) % 256);
        }
        assert_eq!(stats.srf.inlane_words, 64);
        assert_eq!(stats.srf.crosslane_words, 0);
    }

    /// The scratchpad is cluster-local state.
    #[test]
    fn scratchpad_is_lane_local() {
        let mut m = machine(ConfigName::Base);
        let mut b = KernelBuilder::new("sp");
        let so = b.stream("out", StreamKind::SeqOut);
        let lane = b.lane_id();
        let iter = b.iter_id();
        let addr = b.constant(5);
        // iter 0 writes lane id; iter 1 reads it back and emits it.
        let zero = b.constant(0);
        let is0 = b.eq(iter, zero);
        b.scratch_write(addr, lane); // writes every iter; value = lane
        let rd = b.scratch_read(addr);
        let _ = is0;
        b.seq_write(so, rd);
        let k = Arc::new(b.build().unwrap());
        let s = sched_for(&m, &k);
        let outp = m.alloc_stream(1, 16);
        let mut p = StreamProgram::new();
        p.kernel(Arc::clone(&k), s, vec![outp], 2, &[]);
        m.run(&p);
        let got = m.read_stream(&outp);
        let expect: Vec<u32> = (0..16).map(|r| r % 8).collect();
        assert_eq!(got, expect);
    }
}

#[cfg(test)]
mod edge_tests {
    use super::*;
    use crate::program::StreamProgram;
    use isrf_core::config::ConfigName;
    use isrf_kernel::ir::{KernelBuilder, StreamKind};
    use isrf_kernel::sched::{schedule, SchedParams};
    use isrf_mem::AddrPattern;
    use std::sync::Arc;

    fn copy_kernel() -> Arc<isrf_kernel::Kernel> {
        let mut b = KernelBuilder::new("copy");
        let i = b.stream("in", StreamKind::SeqIn);
        let o = b.stream("out", StreamKind::SeqOut);
        let x = b.seq_read(i);
        b.seq_write(o, x);
        Arc::new(b.build().unwrap())
    }

    #[test]
    fn zero_iteration_kernel_completes() {
        let cfg = MachineConfig::preset(ConfigName::Base);
        let k = copy_kernel();
        let s = schedule(&k, &SchedParams::from_machine(&cfg)).unwrap();
        let mut m = Machine::new(cfg).unwrap();
        let a = m.alloc_stream(1, 8);
        let b = m.alloc_stream(1, 8);
        let mut p = StreamProgram::new();
        p.kernel(k, s, vec![a, b], 0, &[]);
        let stats = m.run(&p);
        assert!(stats.cycles > 0, "dispatch still costs cycles");
        assert_eq!(stats.breakdown.kernel_loop, 0);
    }

    #[test]
    fn partial_output_blocks_flush() {
        // 8 records = 1 word per lane: far less than an m=4 block, so the
        // data only reaches the SRF via the end-of-kernel flush.
        let cfg = MachineConfig::preset(ConfigName::Base);
        let k = copy_kernel();
        let s = schedule(&k, &SchedParams::from_machine(&cfg)).unwrap();
        let mut m = Machine::new(cfg).unwrap();
        let a = m.alloc_stream(1, 8);
        let b = m.alloc_stream(1, 8);
        m.write_stream(&a, &[9, 8, 7, 6, 5, 4, 3, 2]);
        let mut p = StreamProgram::new();
        p.kernel(k, s, vec![a, b], 1, &[]);
        m.run(&p);
        assert_eq!(m.read_stream(&b), vec![9, 8, 7, 6, 5, 4, 3, 2]);
    }

    #[test]
    fn kernels_run_strictly_in_program_order() {
        // Kernel 2's input is kernel 1's output region; no explicit dep is
        // given beyond program order + the data dep edge.
        let cfg = MachineConfig::preset(ConfigName::Base);
        let k = copy_kernel();
        let s = schedule(&k, &SchedParams::from_machine(&cfg)).unwrap();
        let mut m = Machine::new(cfg).unwrap();
        let a = m.alloc_stream(1, 64);
        let b = m.alloc_stream(1, 64);
        let c = m.alloc_stream(1, 64);
        let data: Vec<u32> = (0..64).map(|i| i * 3).collect();
        m.write_stream(&a, &data);
        let mut p = StreamProgram::new();
        let k1 = p.kernel(Arc::clone(&k), s.clone(), vec![a, b], 8, &[]);
        p.kernel(k, s, vec![b, c], 8, &[k1]);
        m.run(&p);
        assert_eq!(m.read_stream(&c), data);
    }

    #[test]
    fn four_lane_machine_works() {
        // The simulator is generic in lane count even though the paper's
        // configurations use 8.
        let mut cfg = MachineConfig::preset(ConfigName::Isrf4);
        cfg.lanes = 4;
        cfg.validate().unwrap();
        let mut b = KernelBuilder::new("lut4");
        let sin = b.stream("in", StreamKind::SeqIn);
        let lut = b.stream("lut", StreamKind::IdxInRead);
        let so = b.stream("out", StreamKind::SeqOut);
        let x = b.seq_read(sin);
        let v = b.idx_load(lut, x);
        b.seq_write(so, v);
        let k = Arc::new(b.build().unwrap());
        let s = schedule(&k, &SchedParams::from_machine(&cfg)).unwrap();
        let mut m = Machine::new(cfg).unwrap();
        let inp = m.alloc_stream(1, 16);
        let table = m.alloc_stream(1, 16 * 4);
        let outp = m.alloc_stream(1, 16);
        m.write_stream(&inp, &(0..16).map(|i| i % 16).collect::<Vec<_>>());
        // Lane-local entry e = 100 + e (global record e*4 + lane).
        let tvals: Vec<u32> = (0..64).map(|r| 100 + r / 4).collect();
        m.write_stream(&table, &tvals);
        let mut p = StreamProgram::new();
        let kk = p.kernel(k, s, vec![inp, table, outp], 4, &[]);
        p.store(outp, AddrPattern::contiguous(0x1000, 16), false, &[kk]);
        m.run(&p);
        for i in 0..16u32 {
            assert_eq!(m.mem().memory().read(0x1000 + i), 100 + i % 16);
        }
    }

    #[test]
    fn free_srf_allows_region_reuse() {
        let cfg = MachineConfig::preset(ConfigName::Base);
        let mut m = Machine::new(cfg).unwrap();
        let a = m.alloc_stream(1, 1024);
        m.write_stream(&a, &vec![5; 1024]);
        m.free_srf();
        let b = m.alloc_stream(1, 1024);
        // Same storage, new binding: old contents still visible.
        assert_eq!(m.read_stream(&b), vec![5; 1024]);
    }

    #[test]
    fn stats_accumulate_across_runs_but_deltas_are_per_run() {
        let cfg = MachineConfig::preset(ConfigName::Base);
        let k = copy_kernel();
        let s = schedule(&k, &SchedParams::from_machine(&cfg)).unwrap();
        let mut m = Machine::new(cfg).unwrap();
        let a = m.alloc_stream(1, 64);
        let b = m.alloc_stream(1, 64);
        let mut p = StreamProgram::new();
        let l = p.load(AddrPattern::contiguous(0, 64), a, false, &[]);
        p.kernel(k, s, vec![a, b], 8, &[l]);
        let first = m.run(&p);
        let second = m.run(&p);
        assert_eq!(first.mem.bytes_read, 256);
        assert_eq!(second.mem.bytes_read, 256, "delta, not cumulative");
        assert_eq!(m.stats().mem.bytes_read, 512, "machine total accumulates");
        // Cycle counts of back-to-back runs may differ slightly (carried
        // bandwidth-credit state); a fresh machine is fully deterministic.
        assert!(first.cycles.abs_diff(second.cycles) <= 8);
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use crate::program::StreamProgram;
    use isrf_core::config::ConfigName;
    use isrf_kernel::ir::{KernelBuilder, StreamKind};
    use isrf_kernel::sched::{schedule, SchedParams};
    use isrf_mem::AddrPattern;
    use std::sync::Arc;

    #[test]
    fn trace_records_overlap_in_order() {
        let cfg = MachineConfig::preset(ConfigName::Base);
        let mut b = KernelBuilder::new("t");
        let i = b.stream("in", StreamKind::SeqIn);
        let o = b.stream("out", StreamKind::SeqOut);
        let x = b.seq_read(i);
        b.seq_write(o, x);
        let k = Arc::new(b.build().unwrap());
        let s = schedule(&k, &SchedParams::from_machine(&cfg)).unwrap();
        let mut m = Machine::new(cfg).unwrap();
        m.set_tracer(Tracer::recording(1 << 16));
        let a = m.alloc_stream(1, 64);
        let c = m.alloc_stream(1, 64);
        let mut p = StreamProgram::new();
        let l = p.load(AddrPattern::contiguous(0, 64), a, false, &[]);
        let kk = p.kernel(k, s, vec![a, c], 8, &[l]);
        p.store(c, AddrPattern::contiguous(0x1000, 64), false, &[kk]);
        let stats = m.run(&p);
        let rec = m.tracer().recorder().expect("recording");
        let events: Vec<(u64, TraceEvent)> = rec.ring().iter().cloned().collect();
        assert_eq!(rec.ring().dropped(), 0, "ring sized for the whole run");
        // Load starts before the kernel; the kernel ends before its store
        // completes; every event carries a monotone cycle.
        let pos =
            |pred: &dyn Fn(&TraceEvent) -> bool| events.iter().position(|(_, e)| pred(e)).unwrap();
        let load_start = pos(&|e| matches!(e, TraceEvent::TransferStart { op: 0, .. }));
        let kernel_start =
            pos(&|e| matches!(e, TraceEvent::KernelStart { op: 1, name } if &**name == "t"));
        let load_done = pos(&|e| matches!(e, TraceEvent::TransferDone { op: 0, .. }));
        let kernel_end = pos(&|e| matches!(e, TraceEvent::KernelEnd { op: 1, .. }));
        let store_done = pos(&|e| matches!(e, TraceEvent::TransferDone { op: 2, .. }));
        assert!(load_start < kernel_start);
        assert!(load_done < kernel_end);
        assert!(kernel_end < store_done);
        assert!(
            events.windows(2).all(|w| w[0].0 <= w[1].0),
            "cycles monotone"
        );
        // Stall attribution audit: events reconstruct the Figure-12
        // breakdown exactly.
        let mismatches = rec.audit().verify(&stats.breakdown);
        assert!(mismatches.is_empty(), "audit: {mismatches:?}");
    }

    #[test]
    fn tracer_off_by_default_and_removable() {
        let cfg = MachineConfig::preset(ConfigName::Base);
        let mut m = Machine::new(cfg).unwrap();
        assert!(!m.tracer().enabled());
        assert!(m.tracer().recorder().is_none());
        let a = m.alloc_stream(1, 8);
        let mut p = StreamProgram::new();
        p.load(AddrPattern::contiguous(0, 8), a, false, &[]);
        m.run(&p);
        // Install, run, then take the recorder back out.
        m.set_tracer(Tracer::recording(256));
        m.run(&p);
        let rec = m.take_tracer().into_recorder().expect("was recording");
        assert!(!rec.ring().is_empty());
        assert!(!m.tracer().enabled(), "take leaves Null behind");
    }
}

#[cfg(test)]
mod contention_tests {
    use super::*;
    use crate::program::StreamProgram;
    use isrf_core::config::ConfigName;
    use isrf_kernel::ir::{KernelBuilder, StreamKind};
    use isrf_kernel::sched::{schedule, SchedParams};
    use isrf_mem::AddrPattern;
    use std::sync::Arc;

    /// A concurrent bulk memory transfer steals SRF-port cycles from the
    /// kernel's stream grants: the kernel slows down even though its data
    /// is already SRF-resident.
    #[test]
    fn memory_transfers_contend_for_the_srf_port() {
        fn run(with_background_store: bool) -> u64 {
            let cfg = MachineConfig::preset(ConfigName::Base);
            // A port-hungry kernel: 4 streams in, 4 out -> every cycle the
            // port serves someone.
            let mut b = KernelBuilder::new("hungry");
            let ins: Vec<_> = (0..4)
                .map(|i| b.stream(format!("i{i}"), StreamKind::SeqIn))
                .collect();
            let outs: Vec<_> = (0..4)
                .map(|i| b.stream(format!("o{i}"), StreamKind::SeqOut))
                .collect();
            for (i, o) in ins.iter().zip(&outs) {
                let x = b.seq_read(*i);
                b.seq_write(*o, x);
            }
            let k = Arc::new(b.build().unwrap());
            let s = schedule(&k, &SchedParams::from_machine(&cfg)).unwrap();
            let mut m = Machine::new(cfg).unwrap();
            let n = 2048u32;
            let bufs: Vec<_> = (0..8).map(|_| m.alloc_stream(1, n)).collect();
            let big = m.alloc_stream(1, 8192);
            let mut p = StreamProgram::new();
            let mut deps = vec![];
            if with_background_store {
                // An 8192-word store runs concurrently with the kernel.
                deps.push(p.store(big, AddrPattern::contiguous(0x10_0000, 8192), false, &[]));
            }
            let bindings: Vec<_> = bufs.to_vec();
            let kk = p.kernel(k, s, bindings, (n / 8) as u64, &[]);
            let _ = (kk, deps);
            // Measure the kernel's active window, not the program end (the
            // background store itself takes thousands of cycles).
            m.run(&p).main_loop_cycles
        }
        let quiet = run(false);
        let contended = run(true);
        assert!(
            contended > quiet,
            "background transfer must steal port cycles: {contended} vs {quiet}"
        );
        assert!(
            (contended as f64) < 1.5 * quiet as f64,
            "but only a modest share: {contended} vs {quiet}"
        );
    }
}
