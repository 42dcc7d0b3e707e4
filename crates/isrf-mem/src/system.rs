//! The stream memory controller: whole-stream transfers under bandwidth
//! limits.
//!
//! Stream memory operations move entire streams between the SRF and
//! off-chip memory ("a single instruction loads or stores an entire
//! stream"). [`MemorySystem`] accepts such transfers, serves their words
//! cycle by cycle under the DRAM (and, on the `Cache` configuration, cache)
//! bandwidth budgets using leaky-bucket credits, and reports completion so
//! the stream-level program executor can overlap transfers with kernel
//! execution.
//!
//! Data moves functionally at request time (the stream-level executor
//! enforces stream dependences, so no transfer observes a racing one);
//! *timing* — and the off-chip-traffic accounting behind Figure 11 —
//! resolves over subsequent [`MemorySystem::tick`] calls.
//!
//! In-flight transfers live in a slab: a [`TransferId`] carries both a
//! stable sequential id (stamped into traces) and its slab slot, so the
//! machine model keeps O(1) side tables without hashing, and completions
//! drain through [`MemorySystem::pop_ready`] in deterministic
//! (completion-time, id) order instead of a per-cycle scan.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use isrf_core::config::MachineConfig;
use isrf_core::snap::{read_sections, write_sections, Dec, Enc, SnapError};
use isrf_core::stats::MemTraffic;
use isrf_core::word::WORD_BYTES;
use isrf_core::Word;

use isrf_trace::{TraceEvent, Tracer};

use crate::cache::VectorCache;
use crate::memory::Memory;

/// Handle for an in-flight or completed stream transfer.
///
/// Ids are handed out sequentially ([`TransferId::raw`] is the number
/// trace events carry); internally each id also pins the slab slot the
/// transfer occupies while live, which [`TransferId::slot`] exposes for
/// O(1) side tables. Slots are reused after [`MemorySystem::pop_ready`]
/// retires a transfer; a generation counter keeps stale ids harmless.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TransferId {
    raw: u64,
    slot: u32,
    gen: u32,
}

impl TransferId {
    /// The underlying sequential id, as stamped into trace events.
    pub fn raw(self) -> u64 {
        self.raw
    }

    /// The slab slot this transfer occupies while live. Stable from
    /// issue until [`MemorySystem::pop_ready`] returns the id; reused
    /// afterwards, so index side tables only for live transfers.
    pub fn slot(self) -> usize {
        self.slot as usize
    }
}

/// Address pattern of a stream memory operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AddrPattern {
    /// `words` consecutive words from `base`.
    Contiguous {
        /// First word address.
        base: u32,
        /// Number of words.
        words: u32,
    },
    /// `records` records of `record_words` words, record `i` starting at
    /// `base + i * stride_words`.
    Strided {
        /// First word address of record 0.
        base: u32,
        /// Words per record.
        record_words: u32,
        /// Word distance between record starts.
        stride_words: u32,
        /// Number of records.
        records: u32,
    },
    /// Arbitrary word addresses (gather/scatter).
    Indexed(
        /// Word address of each element, in stream order.
        Vec<u32>,
    ),
}

impl AddrPattern {
    /// Convenience constructor for [`AddrPattern::Contiguous`].
    pub fn contiguous(base: u32, words: u32) -> Self {
        AddrPattern::Contiguous { base, words }
    }

    /// Convenience constructor for [`AddrPattern::Strided`].
    pub fn strided(base: u32, record_words: u32, stride_words: u32, records: u32) -> Self {
        AddrPattern::Strided {
            base,
            record_words,
            stride_words,
            records,
        }
    }

    /// Number of words the pattern touches.
    pub fn len(&self) -> usize {
        match self {
            AddrPattern::Contiguous { words, .. } => *words as usize,
            AddrPattern::Strided {
                record_words,
                records,
                ..
            } => (*record_words as usize) * (*records as usize),
            AddrPattern::Indexed(addrs) => addrs.len(),
        }
    }

    /// True for a zero-length pattern.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th word address of the pattern, in stream order.
    ///
    /// # Panics
    ///
    /// Panics when `i >= self.len()`.
    pub fn addr_at(&self, i: usize) -> u32 {
        match self {
            AddrPattern::Contiguous { base, words } => {
                assert!(i < *words as usize);
                base + i as u32
            }
            AddrPattern::Strided {
                base,
                record_words,
                stride_words,
                records,
            } => {
                assert!(i < (*record_words as usize) * (*records as usize));
                let (r, w) = (i as u32 / record_words, i as u32 % record_words);
                base + r * stride_words + w
            }
            AddrPattern::Indexed(addrs) => addrs[i],
        }
    }

    /// Materialize the word addresses in stream order.
    pub fn to_addrs(&self) -> Vec<u32> {
        (0..self.len()).map(|i| self.addr_at(i)).collect()
    }
}

/// The timing-side view of a pattern: address generation without a
/// materialized `Vec<u32>` for the regular (contiguous/strided) shapes.
#[derive(Debug)]
enum PatternCursor {
    Contiguous {
        base: u32,
    },
    Strided {
        base: u32,
        record_words: u32,
        stride_words: u32,
    },
    Indexed(Vec<u32>),
}

impl PatternCursor {
    fn of(p: &AddrPattern) -> Self {
        match p {
            AddrPattern::Contiguous { base, .. } => PatternCursor::Contiguous { base: *base },
            AddrPattern::Strided {
                base,
                record_words,
                stride_words,
                ..
            } => PatternCursor::Strided {
                base: *base,
                record_words: *record_words,
                stride_words: *stride_words,
            },
            AddrPattern::Indexed(addrs) => PatternCursor::Indexed(addrs.clone()),
        }
    }

    fn at(&self, i: usize) -> u32 {
        match self {
            PatternCursor::Contiguous { base } => base + i as u32,
            PatternCursor::Strided {
                base,
                record_words,
                stride_words,
            } => {
                let (r, w) = (i as u32 / record_words, i as u32 % record_words);
                base + r * stride_words + w
            }
            PatternCursor::Indexed(addrs) => addrs[i],
        }
    }
}

#[derive(Debug)]
struct Inflight {
    id: TransferId,
    pattern: PatternCursor,
    len: usize,
    cursor: usize,
    write: bool,
    cacheable: bool,
    touched_dram: bool,
    /// DRAM burst most recently opened by this transfer (burst-aligned
    /// address / burst_words); words within it are bandwidth-free.
    last_burst: Option<u32>,
}

/// Lifecycle of a slab slot's current occupant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    /// Words still being served by the channel.
    Serving,
    /// All words served; waiting out the access latency until
    /// `complete_at`.
    Latency {
        /// First cycle at which the data is usable.
        complete_at: u64,
    },
    /// Popped via [`MemorySystem::pop_ready`]; the slot is on the free
    /// list.
    Retired,
}

#[derive(Debug)]
struct Slot {
    gen: u32,
    state: SlotState,
}

/// The stream memory system: functional memory + DRAM channel (+ optional
/// vector cache) + transfer scheduling.
#[derive(Debug)]
pub struct MemorySystem {
    now: u64,
    mem: Memory,
    dram_words_per_cycle: f64,
    dram_credit: f64,
    dram_latency: u64,
    burst_words: u32,
    cache: Option<VectorCache>,
    cache_words_per_cycle: f64,
    cache_credit: f64,
    cache_hit_latency: u64,
    inflight: VecDeque<Inflight>,
    slots: Vec<Slot>,
    free_slots: Vec<u32>,
    /// Transfers waiting out their latency (or already usable but not yet
    /// popped), ordered by (completion cycle, sequential id).
    ready: BinaryHeap<Reverse<(u64, u64, u32, u32)>>,
    next_id: u64,
    traffic: MemTraffic,
    served_last_tick: u64,
}

impl MemorySystem {
    /// Build the memory system for a machine configuration.
    pub fn new(cfg: &MachineConfig) -> Self {
        let cache = cfg.cache.as_ref().map(VectorCache::new);
        MemorySystem {
            now: 0,
            mem: Memory::new(),
            dram_words_per_cycle: cfg.dram.words_per_cycle(cfg.clock_ghz),
            dram_credit: 0.0,
            dram_latency: cfg.dram.latency_cycles as u64,
            burst_words: cfg.dram.burst_words.max(1),
            cache_words_per_cycle: cfg
                .cache
                .as_ref()
                .map(|c| c.words_per_cycle(cfg.clock_ghz))
                .unwrap_or(0.0),
            cache_credit: 0.0,
            cache_hit_latency: cfg
                .cache
                .as_ref()
                .map(|c| c.hit_latency as u64)
                .unwrap_or(0),
            cache,
            inflight: VecDeque::new(),
            slots: Vec::new(),
            free_slots: Vec::new(),
            ready: BinaryHeap::new(),
            next_id: 0,
            traffic: MemTraffic::default(),
            served_last_tick: 0,
        }
    }

    /// Current cycle count of this memory system's clock.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The functional memory.
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    /// Mutable access to the functional memory (for laying out benchmark
    /// data before a run).
    pub fn memory_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// Off-chip traffic accumulated so far.
    pub fn traffic(&self) -> MemTraffic {
        self.traffic
    }

    /// The vector cache, when configured.
    pub fn cache(&self) -> Option<&VectorCache> {
        self.cache.as_ref()
    }

    /// True while any transfer is still being served or waiting out its
    /// latency.
    pub fn busy(&self) -> bool {
        !self.inflight.is_empty() || self.ready.iter().any(|&Reverse((t, ..))| t > self.now)
    }

    fn alloc_id(&mut self) -> TransferId {
        let raw = self.next_id;
        self.next_id += 1;
        let slot = match self.free_slots.pop() {
            Some(s) => {
                let entry = &mut self.slots[s as usize];
                entry.gen = entry.gen.wrapping_add(1);
                entry.state = SlotState::Serving;
                s
            }
            None => {
                self.slots.push(Slot {
                    gen: 0,
                    state: SlotState::Serving,
                });
                (self.slots.len() - 1) as u32
            }
        };
        TransferId {
            raw,
            slot,
            gen: self.slots[slot as usize].gen,
        }
    }

    fn finish_serving(&mut self, id: TransferId, complete_at: u64) {
        self.slots[id.slot as usize].state = SlotState::Latency { complete_at };
        self.ready
            .push(Reverse((complete_at, id.raw, id.slot, id.gen)));
    }

    /// Begin a stream load. Data is returned immediately for functional
    /// use; the transfer is *timing*-complete only once
    /// [`MemorySystem::is_complete`] reports so.
    ///
    /// `cacheable` marks streams with temporal-locality potential; the
    /// paper's `Cache` configuration caches only those to avoid pollution.
    /// The flag is ignored when no cache is configured.
    pub fn start_read(
        &mut self,
        pattern: &AddrPattern,
        cacheable: bool,
    ) -> (TransferId, Vec<Word>) {
        let data = match pattern {
            AddrPattern::Contiguous { base, words } => self.mem.read_block(*base, *words as usize),
            AddrPattern::Indexed(addrs) => self.mem.gather(addrs),
            strided => {
                let n = strided.len();
                (0..n).map(|i| self.mem.read(strided.addr_at(i))).collect()
            }
        };
        let id = self.enqueue(pattern, false, cacheable);
        (id, data)
    }

    /// Begin a stream store of `data` following `pattern`.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the pattern length.
    pub fn start_write(
        &mut self,
        pattern: &AddrPattern,
        data: &[Word],
        cacheable: bool,
    ) -> TransferId {
        assert_eq!(pattern.len(), data.len(), "store data length mismatch");
        match pattern {
            AddrPattern::Contiguous { base, .. } => self.mem.write_block(*base, data),
            AddrPattern::Indexed(addrs) => self.mem.scatter(addrs, data),
            strided => {
                for (i, &w) in data.iter().enumerate() {
                    self.mem.write(strided.addr_at(i), w);
                }
            }
        }
        self.enqueue(pattern, true, cacheable)
    }

    /// Begin a gather whose address list is handed over by value — the
    /// simulator's dynamic-index path builds the list afresh each issue,
    /// so moving it into the transfer avoids a second copy.
    pub fn start_gather(&mut self, addrs: Vec<u32>, cacheable: bool) -> (TransferId, Vec<Word>) {
        let data = self.mem.gather(&addrs);
        let len = addrs.len();
        let id = self.enqueue_cursor(PatternCursor::Indexed(addrs), len, false, cacheable);
        (id, data)
    }

    /// Begin a scatter of `data` to an address list handed over by value.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from `addrs.len()`.
    pub fn start_scatter(&mut self, addrs: Vec<u32>, data: &[Word], cacheable: bool) -> TransferId {
        assert_eq!(addrs.len(), data.len(), "scatter data length mismatch");
        self.mem.scatter(&addrs, data);
        let len = addrs.len();
        self.enqueue_cursor(PatternCursor::Indexed(addrs), len, true, cacheable)
    }

    fn enqueue(&mut self, pattern: &AddrPattern, write: bool, cacheable: bool) -> TransferId {
        self.enqueue_cursor(PatternCursor::of(pattern), pattern.len(), write, cacheable)
    }

    fn enqueue_cursor(
        &mut self,
        pattern: PatternCursor,
        len: usize,
        write: bool,
        cacheable: bool,
    ) -> TransferId {
        let id = self.alloc_id();
        if len == 0 {
            self.finish_serving(id, self.now);
            return id;
        }
        self.inflight.push_back(Inflight {
            id,
            pattern,
            len,
            cursor: 0,
            write,
            cacheable: cacheable && self.cache.is_some(),
            touched_dram: false,
            last_burst: None,
        });
        id
    }

    /// True once transfer `id`'s data is usable (all words served and the
    /// access latency has elapsed). Transfers retired via
    /// [`MemorySystem::pop_ready`] stay complete forever.
    pub fn is_complete(&self, id: TransferId) -> bool {
        let slot = &self.slots[id.slot as usize];
        if slot.gen != id.gen {
            // The slot moved on to a younger transfer: `id` was retired.
            return true;
        }
        match slot.state {
            SlotState::Serving => false,
            SlotState::Latency { complete_at } => self.now >= complete_at,
            SlotState::Retired => true,
        }
    }

    /// Pop the next transfer whose data became usable, retiring it and
    /// freeing its slab slot for reuse. Transfers drain in deterministic
    /// (completion cycle, issue id) order. Returns `None` when nothing
    /// (more) is ready this cycle.
    pub fn pop_ready(&mut self) -> Option<TransferId> {
        let &Reverse((complete_at, raw, slot, gen)) = self.ready.peek()?;
        if complete_at > self.now {
            return None;
        }
        self.ready.pop();
        let entry = &mut self.slots[slot as usize];
        debug_assert_eq!(entry.gen, gen, "ready heap out of sync with slab");
        entry.state = SlotState::Retired;
        self.free_slots.push(slot);
        Some(TransferId { raw, slot, gen })
    }

    /// The cycle at which the earliest outstanding (not yet popped)
    /// transfer completes, if any. Drives the machine's quiescence
    /// fast-forward.
    pub fn next_completion_time(&self) -> Option<u64> {
        self.ready.peek().map(|&Reverse((t, ..))| t)
    }

    /// Number of transfers still being served word-by-word.
    pub fn inflight_count(&self) -> usize {
        self.inflight.len()
    }

    /// Words served by the most recent [`MemorySystem::tick`] (used by the
    /// machine model to account SRF-port occupancy of memory transfers).
    pub fn words_served_last_tick(&self) -> u64 {
        self.served_last_tick
    }

    /// Advance one cycle: replenish bandwidth credits and serve words of
    /// in-flight transfers round-robin.
    pub fn tick(&mut self) {
        self.tick_traced(&mut Tracer::Null);
    }

    /// Advance `cycles` cycles during which no transfer is being served
    /// (the quiescence fast-forward). Bit-identical to calling
    /// [`MemorySystem::tick`] `cycles` times while the channel is idle:
    /// credits saturate through the same per-cycle add-then-clamp.
    ///
    /// # Panics
    ///
    /// Debug-asserts that no transfer is in service.
    pub fn advance_idle(&mut self, cycles: u64) {
        debug_assert!(
            self.inflight.is_empty(),
            "advance_idle with transfers in service"
        );
        if cycles == 0 {
            return;
        }
        self.served_last_tick = 0;
        let dram_cap = (self.dram_words_per_cycle * 4.0).max(4.0);
        let cache_cap = (self.cache_words_per_cycle * 4.0).max(4.0);
        for _ in 0..cycles {
            self.dram_credit = (self.dram_credit + self.dram_words_per_cycle).min(dram_cap);
            if self.cache.is_some() {
                self.cache_credit = (self.cache_credit + self.cache_words_per_cycle).min(cache_cap);
            }
        }
        self.now += cycles;
    }

    /// [`MemorySystem::tick`], emitting transfer/cache events into
    /// `tracer`.
    pub fn tick_traced(&mut self, tracer: &mut Tracer) {
        self.now += 1;
        self.served_last_tick = 0;
        // Leaky-bucket credits: accumulate up to a small burst so that
        // fractional words/cycle average out, without unbounded bursts
        // after idle periods.
        let dram_cap = (self.dram_words_per_cycle * 4.0).max(4.0);
        self.dram_credit = (self.dram_credit + self.dram_words_per_cycle).min(dram_cap);
        if self.cache.is_some() {
            let cache_cap = (self.cache_words_per_cycle * 4.0).max(4.0);
            self.cache_credit = (self.cache_credit + self.cache_words_per_cycle).min(cache_cap);
        }

        // Serve as many words as credits allow, rotating across transfers.
        // The extra rotation makes the marginal (fractional-credit) word
        // alternate between transfers instead of always favoring the first.
        if self.inflight.len() > 1 {
            let t = self.inflight.pop_front().expect("len > 1");
            self.inflight.push_back(t);
        }
        'serve: loop {
            let mut progressed = false;
            for _ in 0..self.inflight.len() {
                let Some(mut t) = self.inflight.pop_front() else {
                    break 'serve;
                };
                if self.serve_one(&mut t, tracer) {
                    progressed = true;
                }
                if t.cursor >= t.len {
                    let latency = if t.touched_dram || !t.cacheable {
                        self.dram_latency
                    } else {
                        self.cache_hit_latency
                    };
                    self.finish_serving(t.id, self.now + latency);
                    tracer.emit(self.now, TraceEvent::TransferServed { id: t.id.raw() });
                } else {
                    self.inflight.push_back(t);
                }
            }
            if !progressed {
                break;
            }
        }
    }

    /// Serialize every piece of dynamic state — clock, credits, functional
    /// memory, cache contents, the in-flight transfer slab and the ready
    /// queue — as a section list (`sys`, `data`, and `cache` when
    /// configured). Rate and latency parameters are not written; they are
    /// rebuilt from the configuration by [`MemorySystem::new`].
    pub fn encode_state(&self) -> Vec<u8> {
        let mut sys = Enc::new();
        sys.u64(self.now);
        sys.f64(self.dram_credit);
        sys.f64(self.cache_credit);
        sys.u64(self.served_last_tick);
        sys.u64(self.next_id);
        self.traffic.encode_state(&mut sys);
        sys.usize(self.inflight.len());
        for t in &self.inflight {
            sys.u64(t.id.raw);
            sys.u32(t.id.slot);
            sys.u32(t.id.gen);
            match &t.pattern {
                PatternCursor::Contiguous { base } => {
                    sys.u8(0);
                    sys.u32(*base);
                }
                PatternCursor::Strided {
                    base,
                    record_words,
                    stride_words,
                } => {
                    sys.u8(1);
                    sys.u32(*base);
                    sys.u32(*record_words);
                    sys.u32(*stride_words);
                }
                PatternCursor::Indexed(addrs) => {
                    sys.u8(2);
                    sys.usize(addrs.len());
                    for &a in addrs {
                        sys.u32(a);
                    }
                }
            }
            sys.usize(t.len);
            sys.usize(t.cursor);
            sys.bool(t.write);
            sys.bool(t.cacheable);
            sys.bool(t.touched_dram);
            match t.last_burst {
                Some(b) => {
                    sys.bool(true);
                    sys.u32(b);
                }
                None => sys.bool(false),
            }
        }
        sys.usize(self.slots.len());
        for s in &self.slots {
            sys.u32(s.gen);
            match s.state {
                SlotState::Serving => sys.u8(0),
                SlotState::Latency { complete_at } => {
                    sys.u8(1);
                    sys.u64(complete_at);
                }
                SlotState::Retired => sys.u8(2),
            }
        }
        sys.usize(self.free_slots.len());
        for &s in &self.free_slots {
            sys.u32(s);
        }
        // The heap iterates in arbitrary order; sort for deterministic
        // bytes (the ordering is recovered by re-pushing on decode).
        let mut ready: Vec<(u64, u64, u32, u32)> = self.ready.iter().map(|&Reverse(t)| t).collect();
        ready.sort_unstable();
        sys.usize(ready.len());
        for (at, raw, slot, gen) in ready {
            sys.u64(at);
            sys.u64(raw);
            sys.u32(slot);
            sys.u32(gen);
        }

        let mut secs: Vec<(&str, Vec<u8>)> = vec![("sys", sys.into_bytes())];
        secs.push(("data", self.mem.encode_state()));
        if let Some(cache) = &self.cache {
            let mut ce = Enc::new();
            cache.encode_state(&mut ce);
            secs.push(("cache", ce.into_bytes()));
        }
        let mut e = Enc::new();
        write_sections(&mut e, &secs);
        e.into_bytes()
    }

    /// Overwrite this system's dynamic state from
    /// [`MemorySystem::encode_state`] bytes. `self` must have been built
    /// for the same machine configuration (in particular, cache presence
    /// and geometry must match).
    pub fn decode_state(&mut self, bytes: &[u8]) -> Result<(), SnapError> {
        let secs = read_sections(bytes)?;
        let find = |name: &str| secs.iter().find(|s| s.name == name);
        let sys_sec = find("sys")
            .ok_or_else(|| SnapError::Mismatch("memory-system snapshot missing sys".into()))?;
        let data_sec = find("data")
            .ok_or_else(|| SnapError::Mismatch("memory-system snapshot missing data".into()))?;
        match (find("cache"), &mut self.cache) {
            (Some(sec), Some(cache)) => {
                let mut cd = Dec::new(&sec.bytes);
                cache.decode_state(&mut cd)?;
                cd.finish()?;
            }
            (None, None) => {}
            (Some(_), None) => {
                return Err(SnapError::Mismatch(
                    "snapshot has a cache but this configuration does not".into(),
                ))
            }
            (None, Some(_)) => {
                return Err(SnapError::Mismatch(
                    "this configuration has a cache but the snapshot does not".into(),
                ))
            }
        }
        self.mem.decode_state(&data_sec.bytes)?;

        let mut d = Dec::new(&sys_sec.bytes);
        self.now = d.u64()?;
        self.dram_credit = d.f64()?;
        self.cache_credit = d.f64()?;
        self.served_last_tick = d.u64()?;
        self.next_id = d.u64()?;
        self.traffic = MemTraffic::decode_state(&mut d)?;
        let n_inflight = d.usize()?;
        self.inflight.clear();
        for _ in 0..n_inflight {
            let id = TransferId {
                raw: d.u64()?,
                slot: d.u32()?,
                gen: d.u32()?,
            };
            let pattern = match d.u8()? {
                0 => PatternCursor::Contiguous { base: d.u32()? },
                1 => PatternCursor::Strided {
                    base: d.u32()?,
                    record_words: d.u32()?,
                    stride_words: d.u32()?,
                },
                2 => PatternCursor::Indexed(d.u32s()?),
                t => {
                    return Err(SnapError::Mismatch(format!("bad pattern-cursor tag {t}")));
                }
            };
            let len = d.usize()?;
            let cursor = d.usize()?;
            let write = d.bool()?;
            let cacheable = d.bool()?;
            let touched_dram = d.bool()?;
            let last_burst = if d.bool()? { Some(d.u32()?) } else { None };
            self.inflight.push_back(Inflight {
                id,
                pattern,
                len,
                cursor,
                write,
                cacheable,
                touched_dram,
                last_burst,
            });
        }
        let n_slots = d.usize()?;
        self.slots.clear();
        for _ in 0..n_slots {
            let gen = d.u32()?;
            let state = match d.u8()? {
                0 => SlotState::Serving,
                1 => SlotState::Latency {
                    complete_at: d.u64()?,
                },
                2 => SlotState::Retired,
                t => return Err(SnapError::Mismatch(format!("bad slot-state tag {t}"))),
            };
            self.slots.push(Slot { gen, state });
        }
        let n_free = d.usize()?;
        self.free_slots.clear();
        for _ in 0..n_free {
            self.free_slots.push(d.u32()?);
        }
        let n_ready = d.usize()?;
        self.ready.clear();
        for _ in 0..n_ready {
            let entry = (d.u64()?, d.u64()?, d.u32()?, d.u32()?);
            self.ready.push(Reverse(entry));
        }
        d.finish()
    }

    /// Try to serve the next word of `t`; returns whether a word was served.
    fn serve_one(&mut self, t: &mut Inflight, tracer: &mut Tracer) -> bool {
        if t.cursor >= t.len {
            return false;
        }
        let addr = t.pattern.at(t.cursor);
        if t.cacheable {
            // Gate on both budgets: a hit consumes only cache bandwidth,
            // but a miss charges DRAM for the fill, and the DRAM debt must
            // be paid down before further cacheable words are served.
            if self.cache_credit <= 0.0 || self.dram_credit <= 0.0 {
                return false;
            }
            // Charge the cache access; a miss additionally charges DRAM for
            // the line fill (and writeback). Credits may go briefly
            // negative, which preserves long-run bandwidth while avoiding a
            // probe-then-rollback dance on the stateful cache.
            self.cache_credit -= 1.0;
            let cache = self.cache.as_mut().expect("cacheable implies cache");
            let line_words = cache.line_words() as u64;
            let probe = cache.probe(addr, t.write);
            if tracer.enabled() {
                tracer.emit(
                    self.now,
                    TraceEvent::CacheProbe {
                        hit: probe.hit,
                        writeback: probe.writeback,
                    },
                );
            }
            if probe.hit {
                self.traffic.cache_hit_bytes += WORD_BYTES;
            } else {
                // A line fill is one DRAM transaction: it costs at least a
                // full burst of bandwidth even for a short line.
                let fill_cost = (self.burst_words as u64).max(line_words) as f64;
                t.touched_dram = true;
                self.dram_credit -= fill_cost;
                self.traffic.bytes_read += line_words * WORD_BYTES;
                if probe.writeback {
                    self.dram_credit -= fill_cost;
                    self.traffic.bytes_written += line_words * WORD_BYTES;
                }
            }
        } else {
            // Burst accounting: opening a new burst pays `burst_words` of
            // bandwidth; further words of the same burst ride along free.
            let burst = addr / self.burst_words;
            if t.last_burst == Some(burst) {
                // Same burst: no additional bandwidth.
            } else {
                if self.dram_credit <= 0.0 {
                    return false;
                }
                self.dram_credit -= self.burst_words as f64;
                t.last_burst = Some(burst);
            }
            t.touched_dram = true;
            if t.write {
                self.traffic.bytes_written += WORD_BYTES;
            } else {
                self.traffic.bytes_read += WORD_BYTES;
            }
        }
        t.cursor += 1;
        self.served_last_tick += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isrf_core::config::ConfigName;

    fn base_system() -> MemorySystem {
        MemorySystem::new(&MachineConfig::preset(ConfigName::Base))
    }

    fn burst4_system() -> MemorySystem {
        let mut cfg = MachineConfig::preset(ConfigName::Base);
        cfg.dram.burst_words = 4;
        MemorySystem::new(&cfg)
    }

    fn cache_system() -> MemorySystem {
        MemorySystem::new(&MachineConfig::preset(ConfigName::Cache))
    }

    fn run_until_complete(sys: &mut MemorySystem, id: TransferId, max: u64) -> u64 {
        let start = sys.now();
        while !sys.is_complete(id) {
            sys.tick();
            assert!(
                sys.now() - start < max,
                "transfer did not complete in {max} cycles"
            );
        }
        sys.now() - start
    }

    #[test]
    fn pattern_lengths_and_addresses() {
        assert_eq!(AddrPattern::contiguous(10, 3).to_addrs(), [10, 11, 12]);
        assert_eq!(
            AddrPattern::strided(0, 2, 10, 3).to_addrs(),
            [0, 1, 10, 11, 20, 21]
        );
        let g = AddrPattern::Indexed(vec![5, 1, 5]);
        assert_eq!(g.len(), 3);
        assert_eq!(g.addr_at(2), 5);
        assert!(AddrPattern::contiguous(0, 0).is_empty());
    }

    #[test]
    fn read_returns_data_immediately_and_times_later() {
        let mut sys = base_system();
        sys.memory_mut().write_block(100, &[7, 8, 9]);
        let (id, data) = sys.start_read(&AddrPattern::contiguous(100, 3), false);
        assert_eq!(data, [7, 8, 9]);
        assert!(!sys.is_complete(id));
        let cycles = run_until_complete(&mut sys, id, 1000);
        // 3 words at ~2.285 words/cycle, plus 100 cycles latency.
        assert!((100..110).contains(&cycles), "took {cycles}");
        assert_eq!(sys.traffic().bytes_read, 12);
    }

    #[test]
    fn bandwidth_limits_long_transfers() {
        let mut sys = base_system();
        let words = 8192u32;
        let (id, _) = sys.start_read(&AddrPattern::contiguous(0, words), false);
        let cycles = run_until_complete(&mut sys, id, 100_000);
        let ideal = words as f64 / 2.285;
        let serve = cycles as f64 - 100.0; // subtract latency
        assert!(
            (serve - ideal).abs() / ideal < 0.02,
            "served {words} words in {serve} cycles, ideal {ideal:.0}"
        );
    }

    #[test]
    fn concurrent_transfers_share_bandwidth_fairly() {
        let mut sys = base_system();
        let (a, _) = sys.start_read(&AddrPattern::contiguous(0, 2000), false);
        let (b, _) = sys.start_read(&AddrPattern::contiguous(10_000, 2000), false);
        let ca = run_until_complete(&mut sys, a, 100_000);
        // Both should finish at roughly the same time (round-robin).
        let cb_extra = run_until_complete(&mut sys, b, 100_000);
        assert!(cb_extra < 20, "b finished {cb_extra} cycles after a");
        let ideal = 4000.0 / 2.285;
        assert!((ca as f64 - 100.0 - ideal).abs() / ideal < 0.05);
    }

    #[test]
    fn write_updates_memory_and_counts_traffic() {
        let mut sys = base_system();
        let id = sys.start_write(&AddrPattern::contiguous(50, 2), &[1, 2], false);
        assert_eq!(sys.memory().read(51), 2);
        run_until_complete(&mut sys, id, 1000);
        assert_eq!(sys.traffic().bytes_written, 8);
    }

    #[test]
    fn gather_traffic_counts_every_word() {
        let mut sys = base_system();
        // Gathering the same address repeatedly still pays per-word DRAM
        // traffic (this is exactly the replication cost the ISRF removes).
        let (id, _) = sys.start_read(&AddrPattern::Indexed(vec![7; 64]), false);
        run_until_complete(&mut sys, id, 10_000);
        assert_eq!(sys.traffic().bytes_read, 64 * 4);
    }

    #[test]
    fn zero_length_transfer_completes_immediately() {
        let mut sys = base_system();
        let (id, data) = sys.start_read(&AddrPattern::contiguous(0, 0), false);
        assert!(data.is_empty());
        assert!(sys.is_complete(id));
        assert!(!sys.busy());
    }

    #[test]
    fn cache_hits_eliminate_dram_traffic() {
        let mut sys = cache_system();
        let (a, _) = sys.start_read(&AddrPattern::contiguous(0, 128), true);
        run_until_complete(&mut sys, a, 10_000);
        let after_first = sys.traffic();
        // 128 words / 2-word lines = 64 misses = 512 bytes read; the second
        // word of each line hits (256 bytes of hits).
        assert_eq!(after_first.bytes_read, 512);
        assert_eq!(after_first.cache_hit_bytes, 256);
        let (b, _) = sys.start_read(&AddrPattern::contiguous(0, 128), true);
        run_until_complete(&mut sys, b, 10_000);
        let after_second = sys.traffic();
        assert_eq!(after_second.bytes_read, 512, "second pass hits in cache");
        assert_eq!(after_second.cache_hit_bytes, 256 + 512);
    }

    #[test]
    fn cached_rereads_complete_faster_than_dram() {
        let mut sys = cache_system();
        let (a, _) = sys.start_read(&AddrPattern::contiguous(0, 512), true);
        let cold = run_until_complete(&mut sys, a, 100_000);
        let (b, _) = sys.start_read(&AddrPattern::contiguous(0, 512), true);
        let warm = run_until_complete(&mut sys, b, 100_000);
        assert!(
            warm * 2 < cold,
            "warm reread ({warm}) should be much faster than cold ({cold})"
        );
    }

    #[test]
    fn non_cacheable_streams_bypass_cache() {
        let mut sys = cache_system();
        let (a, _) = sys.start_read(&AddrPattern::contiguous(0, 64), false);
        run_until_complete(&mut sys, a, 10_000);
        assert_eq!(
            sys.cache().unwrap().hits() + sys.cache().unwrap().misses(),
            0
        );
        assert_eq!(sys.traffic().bytes_read, 256);
    }

    #[test]
    fn dirty_evictions_write_back() {
        let mut sys = cache_system();
        // Write 128 KB + one extra line through the cache, then evict by
        // streaming a second 128 KB region: evictions of dirty lines must
        // produce write traffic.
        let words = 32 * 1024u32;
        let id = sys.start_write(
            &AddrPattern::contiguous(0, words),
            &vec![1; words as usize],
            true,
        );
        run_until_complete(&mut sys, id, 1_000_000);
        let (id2, _) = sys.start_read(&AddrPattern::contiguous(words, words), true);
        run_until_complete(&mut sys, id2, 1_000_000);
        // All dirty lines evicted: 128 KB written back.
        assert_eq!(sys.traffic().bytes_written, words as u64 * 4);
    }

    #[test]
    fn random_gathers_pay_burst_granularity() {
        let mut sys = burst4_system();
        // 512 random words, each in its own burst: 512 bursts x 4 words of
        // bandwidth = 2048 credits, ~4x slower than a contiguous load.
        let addrs: Vec<u32> = (0..512u32).map(|i| i * 16).collect();
        let (g, _) = sys.start_read(&AddrPattern::Indexed(addrs), false);
        let gather_cycles = run_until_complete(&mut sys, g, 100_000);
        let mut sys2 = burst4_system();
        let (c, _) = sys2.start_read(&AddrPattern::contiguous(0, 512), false);
        let seq_cycles = run_until_complete(&mut sys2, c, 100_000);
        let gather_serve = gather_cycles as f64 - 100.0;
        let seq_serve = seq_cycles as f64 - 100.0;
        assert!(
            gather_serve / seq_serve > 3.5 && gather_serve / seq_serve < 4.5,
            "gather {gather_serve} vs seq {seq_serve}"
        );
        // Demand traffic still counts words, not bursts (Figure 11 metric).
        assert_eq!(sys.traffic().bytes_read, 512 * 4);
    }

    #[test]
    fn strided_two_word_records_pay_half_burst_waste() {
        let mut sys = burst4_system();
        // 2-word records at stride 64: each record opens a fresh burst.
        let (g, _) = sys.start_read(&AddrPattern::strided(0, 2, 64, 256), false);
        let cycles = run_until_complete(&mut sys, g, 100_000);
        let serve = cycles as f64 - 100.0;
        let ideal = 512.0 / 2.285; // if bandwidth were perfectly used
        assert!(
            serve / ideal > 1.8 && serve / ideal < 2.2,
            "strided served in {serve}, ideal {ideal}"
        );
    }

    #[test]
    fn busy_reflects_latency_tail() {
        let mut sys = base_system();
        let (_, _) = sys.start_read(&AddrPattern::contiguous(0, 1), false);
        sys.tick(); // word served this cycle
        assert!(sys.busy(), "still waiting out DRAM latency");
        for _ in 0..200 {
            sys.tick();
        }
        assert!(!sys.busy());
    }

    #[test]
    fn pop_ready_drains_in_completion_order_and_reuses_slots() {
        let mut sys = base_system();
        // Short transfer completes before the long one despite issuing
        // second; pop order follows completion time, not issue order.
        let (long, _) = sys.start_read(&AddrPattern::contiguous(0, 2000), false);
        let (short, _) = sys.start_read(&AddrPattern::contiguous(8000, 2), false);
        let mut popped = Vec::new();
        for _ in 0..10_000 {
            sys.tick();
            while let Some(id) = sys.pop_ready() {
                popped.push(id);
            }
            if popped.len() == 2 {
                break;
            }
        }
        assert_eq!(popped, [short, long]);
        assert!(!sys.busy());
        // Both slots are free again: the next two transfers reuse them
        // (in reverse-free order) with fresh raw ids.
        let used: Vec<usize> = popped.iter().map(|id| id.slot()).collect();
        let (c, _) = sys.start_read(&AddrPattern::contiguous(0, 1), false);
        let (d, _) = sys.start_read(&AddrPattern::contiguous(0, 1), false);
        assert_eq!(c.raw(), 2);
        assert_eq!(d.raw(), 3);
        let mut reused: Vec<usize> = vec![c.slot(), d.slot()];
        reused.sort_unstable();
        let mut used_sorted = used.clone();
        used_sorted.sort_unstable();
        assert_eq!(reused, used_sorted, "slots are reused after retirement");
        // Stale ids from before the reuse still read as complete.
        assert!(sys.is_complete(popped[0]));
        assert!(sys.is_complete(popped[1]));
        assert!(!sys.is_complete(c));
    }

    #[test]
    fn snapshot_mid_transfer_resumes_identically() {
        for make in [base_system as fn() -> MemorySystem, cache_system] {
            let mut straight = make();
            straight.memory_mut().write_block(0, &[9; 600]);
            let (_, _) = straight.start_read(&AddrPattern::contiguous(0, 500), true);
            let _ = straight.start_write(&AddrPattern::strided(4096, 2, 8, 50), &[3; 100], false);
            for _ in 0..40 {
                straight.tick();
            }
            // Snapshot mid-service and restore into a fresh same-config
            // system; ticking both onward must stay byte-identical.
            let snap = straight.encode_state();
            let mut resumed = make();
            resumed.decode_state(&snap).unwrap();
            assert_eq!(resumed.encode_state(), snap, "re-encode is stable");
            for _ in 0..400 {
                straight.tick();
                resumed.tick();
                assert_eq!(
                    straight.pop_ready(),
                    resumed.pop_ready(),
                    "completion order diverged"
                );
            }
            assert_eq!(straight.encode_state(), resumed.encode_state());
            assert_eq!(straight.traffic(), resumed.traffic());
        }
    }

    #[test]
    fn snapshot_rejects_cache_mismatch() {
        let with_cache = cache_system().encode_state();
        let mut plain = base_system();
        let err = plain.decode_state(&with_cache).unwrap_err();
        assert!(matches!(err, SnapError::Mismatch(_)), "{err}");
    }

    #[test]
    fn advance_idle_matches_ticking_while_idle() {
        let mut a = base_system();
        let mut b = base_system();
        // Desynchronize the credit state from its cap first.
        let (ia, _) = a.start_read(&AddrPattern::contiguous(0, 37), false);
        let (ib, _) = b.start_read(&AddrPattern::contiguous(0, 37), false);
        while a.inflight_count() > 0 {
            a.tick();
            b.tick();
        }
        for _ in 0..23 {
            a.tick();
        }
        b.advance_idle(23);
        assert_eq!(a.now(), b.now());
        assert_eq!(a.is_complete(ia), b.is_complete(ib));
        // Subsequent service timing is identical: credits advanced the
        // same way on both systems.
        let (na, _) = a.start_read(&AddrPattern::contiguous(0, 555), false);
        let (nb, _) = b.start_read(&AddrPattern::contiguous(0, 555), false);
        let ca = run_until_complete(&mut a, na, 10_000);
        let cb = run_until_complete(&mut b, nb, 10_000);
        assert_eq!(ca, cb);
    }
}
