//! Indexed SRF access machinery (Sections 4.2, 4.4, 4.5).
//!
//! Clusters push *record* addresses into per-stream, per-lane address
//! FIFOs. Counters at each FIFO head expand records into single-word
//! accesses. When the global (stage-1) arbiter grants the SRF port to the
//! indexed streams, local (stage-2) arbitration in each lane assigns FIFO
//! heads to sub-arrays:
//!
//! * **In-lane** (`ISRF1`/`ISRF4`): up to `inlane_words_per_cycle` accesses
//!   per lane per cycle, each to a distinct sub-array, at most one access
//!   per stream per cycle (the implementation restriction the paper notes
//!   in Section 5.3 — ISRF1 and ISRF4 differ only for kernels with more
//!   than one indexed stream). Conflicting accesses serialize; only FIFO
//!   heads arbitrate, so a blocked head stalls the requests behind it
//!   (head-of-line blocking, visible in Figure 17).
//! * **Cross-lane**: each cluster sends at most one index per cycle over
//!   the index network; each *bank* accepts at most `network_ports_per_bank`
//!   cross-lane accesses per cycle, and the returning data shares the
//!   inter-cluster network, where explicit communications have priority.
//!
//! Read data arrives `inlane_latency`/`crosslane_latency` cycles later into
//! the stream's data buffer, from which the cluster's split data-read op
//! pops it in issue order.

use std::collections::VecDeque;

use isrf_core::config::{CrossLaneTopology, MachineConfig};
use isrf_core::snap::{Dec, Enc, SnapError};
use isrf_core::stats::SrfTraffic;
use isrf_core::Word;
use isrf_trace::{IdxRejectReason, TraceEvent, Tracer};

use crate::srf::Srf;
use crate::stream::StreamBinding;

/// Flavor of an indexed stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdxKind {
    /// In-lane read (`idxl_istream`): addresses are lane-local record
    /// indices into the lane's own bank region.
    InLaneRead,
    /// In-lane write (`idxl_ostream`).
    InLaneWrite,
    /// Cross-lane read (`idx_istream`): addresses are global record
    /// indices; record `r` lives in bank `r mod N`.
    CrossLaneRead,
}

/// Write payload of a queued record access. Kernel indexed writes are
/// word-granular, so the hot path stays allocation-free; multi-word
/// payloads (direct `push_write` callers) still heap-allocate.
#[derive(Debug, Clone)]
enum IdxData {
    /// A read: no payload.
    None,
    /// Single-word write (the kernel hot path).
    One(Word),
    /// Multi-word record write.
    Many(Vec<Word>),
}

impl IdxData {
    fn word(&self, i: u32) -> Word {
        match self {
            IdxData::None => unreachable!("read request has no write data"),
            IdxData::One(w) => {
                debug_assert_eq!(i, 0);
                *w
            }
            IdxData::Many(v) => v[i as usize],
        }
    }
}

/// One queued record access.
#[derive(Debug, Clone)]
struct IdxReq {
    record: u32,
    /// Write data (one word per record word); `None` for reads.
    data: IdxData,
}

/// Per-lane FIFOs of one indexed stream.
#[derive(Debug, Clone)]
struct IdxLane {
    addr_fifo: VecDeque<IdxReq>,
    /// Words of the FIFO head already issued to the SRAM.
    head_word: u32,
    /// Issued reads awaiting their latency: `(ready_cycle, word)`.
    inflight: VecDeque<(u64, Word)>,
    /// Data ready for the cluster, in issue order.
    data: VecDeque<Word>,
}

impl IdxLane {
    fn new() -> Self {
        IdxLane {
            addr_fifo: VecDeque::new(),
            head_word: 0,
            inflight: VecDeque::new(),
            data: VecDeque::new(),
        }
    }
}

/// Runtime state of one indexed stream across all lanes.
#[derive(Debug, Clone)]
pub struct IdxState {
    /// The SRF binding addressed by this stream.
    pub binding: StreamBinding,
    /// Stream flavor.
    pub kind: IdxKind,
    lanes: Vec<IdxLane>,
    fifo_cap: usize,
    buf_cap: usize,
    /// Address-FIFO entries across all lanes — lets the per-cycle
    /// `pending_addresses`/`drained` checks skip the lane scan.
    addr_entries: usize,
    /// In-flight (issued, not yet arrived) words across all lanes — lets
    /// `tick_arrivals` return immediately on the common no-arrival cycle.
    inflight_words: usize,
}

impl IdxState {
    /// Create the state for `lanes` lanes with the configured FIFO and
    /// stream-buffer capacities.
    pub fn new(binding: StreamBinding, kind: IdxKind, lanes: usize, m: &MachineConfig) -> Self {
        let idx = m
            .srf
            .indexed
            .as_ref()
            .expect("indexed stream on a machine without indexed SRF support");
        IdxState {
            binding,
            kind,
            lanes: (0..lanes).map(|_| IdxLane::new()).collect(),
            fifo_cap: idx.addr_fifo_entries,
            buf_cap: m.srf.stream_buffer_words,
            addr_entries: 0,
            inflight_words: 0,
        }
    }

    /// Room in lane `l`'s address FIFO?
    pub fn can_push_addr(&self, lane: usize) -> bool {
        self.lanes[lane].addr_fifo.len() < self.fifo_cap
    }

    /// Queue a read-record address from lane `l`'s cluster.
    pub fn push_addr(&mut self, lane: usize, record: u32) {
        debug_assert!(self.can_push_addr(lane));
        debug_assert!(self.kind != IdxKind::InLaneWrite);
        self.lanes[lane].addr_fifo.push_back(IdxReq {
            record,
            data: IdxData::None,
        });
        self.addr_entries += 1;
    }

    /// Queue a write of `data` (one record) at `record` from lane `l`.
    pub fn push_write(&mut self, lane: usize, record: u32, data: Vec<Word>) {
        debug_assert!(self.can_push_addr(lane));
        debug_assert_eq!(self.kind, IdxKind::InLaneWrite);
        debug_assert_eq!(data.len(), self.binding.record_words as usize);
        self.lanes[lane].addr_fifo.push_back(IdxReq {
            record,
            data: IdxData::Many(data),
        });
        self.addr_entries += 1;
    }

    /// Queue a single-word write at `record` from lane `l` without heap
    /// allocation (the kernel hot path: indexed write bindings are
    /// word-granular).
    pub fn push_write_word(&mut self, lane: usize, record: u32, word: Word) {
        debug_assert!(self.can_push_addr(lane));
        debug_assert_eq!(self.kind, IdxKind::InLaneWrite);
        debug_assert_eq!(self.binding.record_words, 1);
        self.lanes[lane].addr_fifo.push_back(IdxReq {
            record,
            data: IdxData::One(word),
        });
        self.addr_entries += 1;
    }

    /// Is a data word ready for lane `l`?
    pub fn can_pop_data(&self, lane: usize) -> bool {
        !self.lanes[lane].data.is_empty()
    }

    /// Pop the next ready data word for lane `l`.
    ///
    /// # Panics
    ///
    /// Panics if no data is ready.
    pub fn pop_data(&mut self, lane: usize) -> Word {
        self.lanes[lane]
            .data
            .pop_front()
            .expect("no indexed data ready")
    }

    /// Move arrived in-flight words into the data buffers.
    pub fn tick_arrivals(&mut self, now: u64) {
        if self.inflight_words == 0 {
            return; // nothing issued: the common per-cycle case
        }
        for lane in &mut self.lanes {
            while lane.inflight.front().is_some_and(|&(t, _)| t <= now) {
                let (_, w) = lane.inflight.pop_front().expect("checked front");
                lane.data.push_back(w);
                self.inflight_words -= 1;
            }
        }
    }

    /// Move arrived in-flight words into the data buffers, consuming one
    /// unit of `budget` per word (cross-lane returns share the
    /// inter-cluster data network with explicit communications, which have
    /// priority; a queued return simply waits for a free slot).
    pub fn tick_arrivals_budgeted(&mut self, now: u64, budget: &mut usize) {
        if self.inflight_words == 0 {
            return;
        }
        for lane in &mut self.lanes {
            while *budget > 0 && lane.inflight.front().is_some_and(|&(t, _)| t <= now) {
                let (_, w) = lane.inflight.pop_front().expect("checked front");
                lane.data.push_back(w);
                self.inflight_words -= 1;
                *budget -= 1;
            }
        }
    }

    /// Any address still queued or being expanded?
    pub fn pending_addresses(&self) -> bool {
        self.addr_entries > 0
    }

    /// All queues empty (used to detect kernel-drain completion)?
    pub fn drained(&self) -> bool {
        self.addr_entries == 0 && self.inflight_words == 0
    }

    /// Total occupancy of lane `l`'s data path (buffered + in flight),
    /// in words — used to reserve buffer space before issuing.
    fn data_occupancy(&self, lane: usize) -> usize {
        self.lanes[lane].data.len() + self.lanes[lane].inflight.len()
    }

    /// Lane-local SRF offset of word `head_word` of `record`.
    fn inlane_offset(&self, record: u32, head_word: u32) -> u32 {
        self.binding.range.base + record * self.binding.record_words + head_word
    }

    /// `(bank, offset)` of word `head_word` of global `record`.
    fn crosslane_target(&self, record: u32, head_word: u32, lanes: usize) -> (usize, u32) {
        let lane = (record as usize) % lanes;
        let offset = self.binding.range.base
            + (record / lanes as u32) * self.binding.record_words
            + head_word;
        (lane, offset)
    }

    /// Serialize the dynamic state: every lane's address FIFO (with write
    /// payloads), head-expansion cursor, in-flight words, and ready data.
    pub(crate) fn encode_state(&self, e: &mut Enc) {
        e.usize(self.lanes.len());
        for lane in &self.lanes {
            e.usize(lane.addr_fifo.len());
            for req in &lane.addr_fifo {
                e.u32(req.record);
                match &req.data {
                    IdxData::None => e.u8(0),
                    IdxData::One(w) => {
                        e.u8(1);
                        e.u32(*w);
                    }
                    IdxData::Many(v) => {
                        e.u8(2);
                        e.usize(v.len());
                        for &w in v {
                            e.u32(w);
                        }
                    }
                }
            }
            e.u32(lane.head_word);
            e.usize(lane.inflight.len());
            for &(t, w) in &lane.inflight {
                e.u64(t);
                e.u32(w);
            }
            e.usize(lane.data.len());
            for &w in &lane.data {
                e.u32(w);
            }
        }
        e.usize(self.addr_entries);
        e.usize(self.inflight_words);
    }

    /// Overwrite the dynamic state from [`IdxState::encode_state`] bytes.
    pub(crate) fn decode_state(&mut self, d: &mut Dec) -> Result<(), SnapError> {
        let n = d.usize()?;
        if n != self.lanes.len() {
            return Err(SnapError::Mismatch(format!(
                "indexed stream lane count {n} != {}",
                self.lanes.len()
            )));
        }
        for lane in &mut self.lanes {
            lane.addr_fifo.clear();
            let reqs = d.usize()?;
            for _ in 0..reqs {
                let record = d.u32()?;
                let data = match d.u8()? {
                    0 => IdxData::None,
                    1 => IdxData::One(d.u32()?),
                    2 => IdxData::Many(d.u32s()?),
                    t => return Err(SnapError::Mismatch(format!("unknown IdxData tag {t}"))),
                };
                lane.addr_fifo.push_back(IdxReq { record, data });
            }
            lane.head_word = d.u32()?;
            lane.inflight.clear();
            let inflight = d.usize()?;
            for _ in 0..inflight {
                let t = d.u64()?;
                let w = d.u32()?;
                lane.inflight.push_back((t, w));
            }
            lane.data.clear();
            let ready = d.usize()?;
            for _ in 0..ready {
                lane.data.push_back(d.u32()?);
            }
        }
        self.addr_entries = d.usize()?;
        self.inflight_words = d.usize()?;
        Ok(())
    }
}

/// Arbitration parameters extracted from the machine configuration.
#[derive(Debug, Clone, Copy)]
pub struct IdxParams {
    /// Lanes in the machine.
    pub lanes: usize,
    /// Sub-arrays per bank.
    pub subarrays: usize,
    /// Peak in-lane indexed accesses per lane per cycle (1 or `s`).
    pub inlane_words_per_cycle: usize,
    /// Peak cross-lane issues per lane per cycle.
    pub crosslane_words_per_cycle: usize,
    /// In-lane access latency.
    pub inlane_latency: u64,
    /// Cross-lane access latency.
    pub crosslane_latency: u64,
    /// Cross-lane network ports per SRF bank.
    pub network_ports_per_bank: usize,
    /// Cross-lane interconnect topology.
    pub topology: CrossLaneTopology,
}

impl IdxParams {
    /// Extract from a machine configuration.
    ///
    /// # Panics
    ///
    /// Panics when the machine has no indexed SRF support.
    pub fn from_machine(m: &MachineConfig) -> Self {
        let idx = m.srf.indexed.as_ref().expect("machine lacks indexed SRF");
        IdxParams {
            lanes: m.lanes,
            subarrays: m.srf.subarrays,
            inlane_words_per_cycle: idx.inlane_words_per_cycle,
            crosslane_words_per_cycle: idx.crosslane_words_per_cycle,
            inlane_latency: idx.inlane_latency as u64,
            crosslane_latency: idx.crosslane_latency as u64,
            network_ports_per_bank: idx.network_ports_per_bank,
            topology: idx.crosslane_topology,
        }
    }
}

/// Extra cycles a cross-lane access pays on a sparse interconnect:
/// crossbars deliver in one traversal; rings pay one cycle per hop beyond
/// the first (shortest direction).
pub fn topology_extra_latency(
    topology: CrossLaneTopology,
    from: usize,
    to: usize,
    lanes: usize,
) -> u64 {
    match topology {
        CrossLaneTopology::Crossbar => 0,
        CrossLaneTopology::Ring => {
            let d = from.abs_diff(to);
            (d.min(lanes - d).saturating_sub(1)) as u64
        }
    }
}

/// Per-cycle global cross-lane grant budget of the interconnect: a
/// crossbar can move one access per lane; a bidirectional ring is
/// bisection-limited to 4 concurrent traversals.
pub fn topology_issue_budget(topology: CrossLaneTopology, lanes: usize) -> usize {
    match topology {
        CrossLaneTopology::Crossbar => lanes,
        CrossLaneTopology::Ring => 4.min(lanes),
    }
}

/// Upper bound on SRF banks supported by the per-cycle occupancy masks in
/// [`service_indexed`] (one `u64` of sub-array bits per bank, on the
/// stack).
const MAX_BANKS: usize = 64;

/// One cycle of stage-2 (local) arbitration and SRAM access for all
/// indexed streams. Call when stage-1 grants the port to the indexed
/// group. Cross-lane *issue* uses the dedicated index network and is never
/// blocked by explicit communication; only the data *returns* contend for
/// the shared network (see [`IdxState::tick_arrivals_budgeted`]). `rr` is
/// a persistent round-robin pointer over streams. Every access served and
/// every rejected FIFO head is reported to `tracer` (budget exhaustion is
/// not a rejection — the head was never considered).
pub fn service_indexed(
    states: &mut [IdxState],
    srf: &mut Srf,
    now: u64,
    p: &IdxParams,
    rr: &mut usize,
    traffic: &mut SrfTraffic,
    tracer: &mut Tracer,
) {
    let n_streams = states.len();
    if n_streams == 0 {
        return;
    }
    // Sub-array occupancy per bank for this cycle (shared between in-lane
    // and cross-lane accesses — the SRAM is single-ported per sub-array).
    // One bit per sub-array, one word per bank: this is rebuilt every
    // cycle, so it lives on the stack instead of the heap.
    assert!(
        p.lanes <= MAX_BANKS && p.subarrays <= 64,
        "bank/sub-array occupancy masks support at most {MAX_BANKS} banks of 64 sub-arrays"
    );
    let mut busy = [0u64; MAX_BANKS];

    // --- In-lane service: per lane, up to `inlane_words_per_cycle`
    // accesses to distinct sub-arrays, at most one per stream. ---
    #[allow(clippy::needless_range_loop)] // lane indexes several structures
    for lane in 0..p.lanes {
        let mut budget = p.inlane_words_per_cycle;
        for k in 0..n_streams {
            if budget == 0 {
                break;
            }
            let si = (*rr + k) % n_streams;
            let st = &mut states[si];
            if st.kind == IdxKind::CrossLaneRead {
                continue;
            }
            let Some(head) = st.lanes[lane].addr_fifo.front() else {
                continue;
            };
            let record = head.record;
            let head_word = st.lanes[lane].head_word;
            let is_read = st.kind == IdxKind::InLaneRead;
            if is_read && st.data_occupancy(lane) >= st.buf_cap {
                if tracer.enabled() {
                    tracer.emit(
                        now,
                        TraceEvent::IdxReject {
                            stream: si as u8,
                            lane: lane as u8,
                            crosslane: false,
                            reason: IdxRejectReason::DataBufferFull,
                        },
                    );
                }
                continue; // no room to land the data
            }
            let offset = st.inlane_offset(record, head_word);
            if offset >= st.binding.range.base + st.binding.range.words_per_bank {
                // Out-of-range address: treat as mapped to the last word so
                // buggy kernels fail loudly in functional checks, not here.
                debug_assert!(false, "in-lane index {record} out of range");
            }
            let sub = srf.subarray_of(offset.min(srf.bank_words() - 1));
            if busy[lane] & (1 << sub) != 0 {
                if tracer.enabled() {
                    tracer.emit(
                        now,
                        TraceEvent::IdxReject {
                            stream: si as u8,
                            lane: lane as u8,
                            crosslane: false,
                            reason: IdxRejectReason::SubarrayConflict,
                        },
                    );
                }
                continue; // sub-array conflict: serialize (head-of-line)
            }
            busy[lane] |= 1 << sub;
            budget -= 1;
            traffic.inlane_words += 1;
            if is_read {
                let w = srf.read(lane, offset);
                st.lanes[lane]
                    .inflight
                    .push_back((now + p.inlane_latency, w));
                st.inflight_words += 1;
            } else {
                let w = st.lanes[lane]
                    .addr_fifo
                    .front()
                    .expect("head exists")
                    .data
                    .word(head_word);
                srf.write(lane, offset, w);
            }
            // Advance the head expansion counter.
            let l = &mut st.lanes[lane];
            l.head_word += 1;
            if l.head_word == st.binding.record_words {
                l.head_word = 0;
                l.addr_fifo.pop_front();
                st.addr_entries -= 1;
            }
            if tracer.enabled() {
                let fifo_after = st.lanes[lane].addr_fifo.len() as u8;
                tracer.emit(
                    now,
                    TraceEvent::IdxAccess {
                        stream: si as u8,
                        lane: lane as u8,
                        bank: lane as u8,
                        subarray: sub as u8,
                        write: !is_read,
                        crosslane: false,
                        hops: 0,
                        fifo_after,
                    },
                );
            }
        }
    }

    // --- Cross-lane service: each lane offers one index per cycle over
    // the dedicated index network; banks accept up to
    // `network_ports_per_bank`; data returns are queued for the shared
    // inter-cluster network. ---
    {
        let mut bank_ports = [0usize; MAX_BANKS];
        bank_ports[..p.lanes].fill(p.network_ports_per_bank);
        let mut global_budget = topology_issue_budget(p.topology, p.lanes);
        for lane in 0..p.lanes {
            let mut issues = p.crosslane_words_per_cycle;
            for k in 0..n_streams {
                if issues == 0 || global_budget == 0 {
                    break;
                }
                let si = (*rr + k) % n_streams;
                let st = &mut states[si];
                if st.kind != IdxKind::CrossLaneRead {
                    continue;
                }
                let Some(head) = st.lanes[lane].addr_fifo.front() else {
                    continue;
                };
                if st.data_occupancy(lane) >= st.buf_cap {
                    if tracer.enabled() {
                        tracer.emit(
                            now,
                            TraceEvent::IdxReject {
                                stream: si as u8,
                                lane: lane as u8,
                                crosslane: true,
                                reason: IdxRejectReason::DataBufferFull,
                            },
                        );
                    }
                    continue;
                }
                let (bank, offset) =
                    st.crosslane_target(head.record, st.lanes[lane].head_word, p.lanes);
                if bank_ports[bank] == 0 {
                    if tracer.enabled() {
                        tracer.emit(
                            now,
                            TraceEvent::IdxReject {
                                stream: si as u8,
                                lane: lane as u8,
                                crosslane: true,
                                reason: IdxRejectReason::BankPortBusy,
                            },
                        );
                    }
                    continue; // bank's network ports exhausted this cycle
                }
                let sub = srf.subarray_of(offset.min(srf.bank_words() - 1));
                if busy[bank] & (1 << sub) != 0 {
                    if tracer.enabled() {
                        tracer.emit(
                            now,
                            TraceEvent::IdxReject {
                                stream: si as u8,
                                lane: lane as u8,
                                crosslane: true,
                                reason: IdxRejectReason::SubarrayConflict,
                            },
                        );
                    }
                    continue; // sub-array conflict with another access
                }
                busy[bank] |= 1 << sub;
                bank_ports[bank] -= 1;
                issues -= 1;
                global_budget -= 1;
                traffic.crosslane_words += 1;
                let w = srf.read(bank, offset);
                let extra = topology_extra_latency(p.topology, lane, bank, p.lanes);
                st.lanes[lane]
                    .inflight
                    .push_back((now + p.crosslane_latency + extra, w));
                st.inflight_words += 1;
                let l = &mut st.lanes[lane];
                l.head_word += 1;
                if l.head_word == st.binding.record_words {
                    l.head_word = 0;
                    l.addr_fifo.pop_front();
                    st.addr_entries -= 1;
                }
                if tracer.enabled() {
                    let fifo_after = st.lanes[lane].addr_fifo.len() as u8;
                    tracer.emit(
                        now,
                        TraceEvent::IdxAccess {
                            stream: si as u8,
                            lane: lane as u8,
                            bank: bank as u8,
                            subarray: sub as u8,
                            write: false,
                            crosslane: true,
                            hops: extra as u8,
                            fifo_after,
                        },
                    );
                }
            }
        }
    }

    *rr = (*rr + 1) % n_streams.max(1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::srf::SrfRange;
    use isrf_core::config::ConfigName;

    fn setup(kind: IdxKind) -> (Srf, IdxState, IdxParams, MachineConfig) {
        let m = MachineConfig::preset(ConfigName::Isrf4);
        let mut srf = Srf::new(&m);
        let range = srf.alloc(4096);
        // Fill lane-local pattern: lane l offset o holds l*10000 + o.
        for l in 0..8 {
            for o in 0..4096u32 {
                srf.write(l, o, l as u32 * 10_000 + o);
            }
        }
        let b = StreamBinding::whole(range, 1, 4096);
        let st = IdxState::new(b, kind, 8, &m);
        let p = IdxParams::from_machine(&m);
        (srf, st, p, m)
    }

    fn run_cycles(
        states: &mut [IdxState],
        srf: &mut Srf,
        p: &IdxParams,
        from: u64,
        cycles: u64,
    ) -> SrfTraffic {
        let mut traffic = SrfTraffic::default();
        let mut rr = 0;
        for now in from..from + cycles {
            for s in states.iter_mut() {
                s.tick_arrivals(now);
            }
            service_indexed(
                states,
                srf,
                now,
                p,
                &mut rr,
                &mut traffic,
                &mut Tracer::Null,
            );
        }
        for s in states.iter_mut() {
            s.tick_arrivals(from + cycles + 100);
        }
        traffic
    }

    #[test]
    fn inlane_read_returns_after_latency() {
        let (mut srf, mut st, p, _) = setup(IdxKind::InLaneRead);
        st.push_addr(0, 42);
        let mut states = [st];
        let mut traffic = SrfTraffic::default();
        let mut rr = 0;
        service_indexed(
            &mut states,
            &mut srf,
            0,
            &p,
            &mut rr,
            &mut traffic,
            &mut Tracer::Null,
        );
        assert_eq!(traffic.inlane_words, 1);
        states[0].tick_arrivals(3);
        assert!(!states[0].can_pop_data(0), "latency is 4");
        states[0].tick_arrivals(4);
        assert!(states[0].can_pop_data(0));
        assert_eq!(states[0].pop_data(0), 42);
    }

    #[test]
    fn single_stream_is_limited_to_one_word_per_cycle() {
        // Even on ISRF4, one stream issues at most one access per cycle.
        let (mut srf, mut st, p, _) = setup(IdxKind::InLaneRead);
        for r in 0..8 {
            st.push_addr(0, r * 1024); // all different sub-arrays
        }
        let mut states = [st];
        let t = run_cycles(&mut states, &mut srf, &p, 0, 4);
        assert_eq!(t.inlane_words, 4, "one per cycle for a single stream");
    }

    #[test]
    fn four_streams_reach_four_words_per_cycle() {
        let (mut srf, st0, p, m) = setup(IdxKind::InLaneRead);
        let b = st0.binding;
        let mut states = vec![st0];
        for _ in 0..3 {
            states.push(IdxState::new(b, IdxKind::InLaneRead, 8, &m));
        }
        // Each stream targets its own sub-array: no conflicts.
        for (i, s) in states.iter_mut().enumerate() {
            for k in 0..4 {
                s.push_addr(0, (i as u32) * 1024 + k);
            }
        }
        let t = run_cycles(&mut states, &mut srf, &p, 0, 4);
        assert_eq!(t.inlane_words, 16, "4 streams x 4 cycles");
    }

    #[test]
    fn subarray_conflicts_serialize() {
        let (mut srf, st0, p, m) = setup(IdxKind::InLaneRead);
        let b = st0.binding;
        let mut states = vec![st0, IdxState::new(b, IdxKind::InLaneRead, 8, &m)];
        // Both streams target sub-array 0.
        states[0].push_addr(0, 5);
        states[1].push_addr(0, 7);
        let mut traffic = SrfTraffic::default();
        let mut rr = 0;
        service_indexed(
            &mut states,
            &mut srf,
            0,
            &p,
            &mut rr,
            &mut traffic,
            &mut Tracer::Null,
        );
        assert_eq!(traffic.inlane_words, 1, "conflict: only one issues");
        service_indexed(
            &mut states,
            &mut srf,
            1,
            &p,
            &mut rr,
            &mut traffic,
            &mut Tracer::Null,
        );
        assert_eq!(
            traffic.inlane_words, 2,
            "the delayed access issues next cycle"
        );
    }

    #[test]
    fn isrf1_serves_one_access_per_lane() {
        let m = MachineConfig::preset(ConfigName::Isrf1);
        let mut srf = Srf::new(&m);
        let range = srf.alloc(4096);
        let b = StreamBinding::whole(range, 1, 4096);
        let mut states = vec![
            IdxState::new(b, IdxKind::InLaneRead, 8, &m),
            IdxState::new(b, IdxKind::InLaneRead, 8, &m),
        ];
        states[0].push_addr(0, 0); // sub-array 0
        states[1].push_addr(0, 1024); // sub-array 1: no conflict, but ISRF1
        let p = IdxParams::from_machine(&m);
        let mut traffic = SrfTraffic::default();
        let mut rr = 0;
        service_indexed(
            &mut states,
            &mut srf,
            0,
            &p,
            &mut rr,
            &mut traffic,
            &mut Tracer::Null,
        );
        assert_eq!(traffic.inlane_words, 1, "ISRF1: one indexed word per lane");
    }

    #[test]
    fn record_expansion_issues_word_per_cycle() {
        let (mut srf, _, p, m) = setup(IdxKind::InLaneRead);
        let range = SrfRange {
            base: 0,
            words_per_bank: 4096,
        };
        let b = StreamBinding::whole(range, 4, 1024);
        let mut st = IdxState::new(b, IdxKind::InLaneRead, 8, &m);
        st.push_addr(2, 10); // record 10 = lane-local words 40..44
        let mut states = [st];
        let t = run_cycles(&mut states, &mut srf, &p, 0, 6);
        assert_eq!(t.inlane_words, 4, "one record = 4 word accesses");
        let got: Vec<Word> = (0..4).map(|_| states[0].pop_data(2)).collect();
        assert_eq!(got, [20_040, 20_041, 20_042, 20_043]);
        assert!(states[0].drained());
    }

    #[test]
    fn fifo_capacity_backpressure() {
        let (_, mut st, _, _) = setup(IdxKind::InLaneRead);
        for r in 0..8 {
            assert!(st.can_push_addr(3));
            st.push_addr(3, r);
        }
        assert!(!st.can_push_addr(3), "FIFO holds 8 entries");
    }

    #[test]
    fn data_buffer_reservation_limits_inflight() {
        let (mut srf, mut st, p, _) = setup(IdxKind::InLaneRead);
        for r in 0..8 {
            st.push_addr(0, r);
        }
        let mut states = [st];
        let mut traffic = SrfTraffic::default();
        let mut rr = 0;
        // Never tick arrivals: in-flight + data accumulate to buf_cap = 8,
        // then issuing must stop.
        for now in 0..32 {
            service_indexed(
                &mut states,
                &mut srf,
                now,
                &p,
                &mut rr,
                &mut traffic,
                &mut Tracer::Null,
            );
        }
        assert_eq!(traffic.inlane_words, 8);
    }

    #[test]
    fn inlane_write_commits_to_srf() {
        let (mut srf, _, p, m) = setup(IdxKind::InLaneRead);
        let range = SrfRange {
            base: 100,
            words_per_bank: 256,
        };
        let b = StreamBinding::whole(range, 2, 128);
        let mut st = IdxState::new(b, IdxKind::InLaneWrite, 8, &m);
        st.push_write(5, 3, vec![77, 88]);
        let mut states = [st];
        run_cycles(&mut states, &mut srf, &p, 0, 3);
        assert_eq!(srf.read(5, 106), 77);
        assert_eq!(srf.read(5, 107), 88);
        assert!(states[0].drained());
    }

    #[test]
    fn crosslane_read_routes_to_owning_bank() {
        let (mut srf, _, p, m) = setup(IdxKind::InLaneRead);
        let range = SrfRange {
            base: 0,
            words_per_bank: 4096,
        };
        let b = StreamBinding::whole(range, 1, 32768);
        let mut st = IdxState::new(b, IdxKind::CrossLaneRead, 8, &m);
        // Lane 0 asks for global record 13 -> bank 5, offset 1.
        st.push_addr(0, 13);
        let mut states = [st];
        let t = run_cycles(&mut states, &mut srf, &p, 0, 8);
        assert_eq!(t.crosslane_words, 1);
        assert_eq!(states[0].pop_data(0), 50_001);
    }

    #[test]
    fn crosslane_bank_port_contention() {
        let (mut srf, _, p, m) = setup(IdxKind::InLaneRead);
        let range = SrfRange {
            base: 0,
            words_per_bank: 4096,
        };
        let b = StreamBinding::whole(range, 1, 32768);
        let mut st = IdxState::new(b, IdxKind::CrossLaneRead, 8, &m);
        // All 8 lanes request records in bank 0 (records ≡ 0 mod 8) at
        // different sub-arrays — the single network port serializes them.
        for lane in 0..8 {
            st.push_addr(lane, (lane as u32) * 8 * 512);
        }
        let mut states = [st];
        let mut traffic = SrfTraffic::default();
        let mut rr = 0;
        service_indexed(
            &mut states,
            &mut srf,
            0,
            &p,
            &mut rr,
            &mut traffic,
            &mut Tracer::Null,
        );
        assert_eq!(traffic.crosslane_words, 1, "one port per bank per cycle");
        for now in 1..8 {
            service_indexed(
                &mut states,
                &mut srf,
                now,
                &p,
                &mut rr,
                &mut traffic,
                &mut Tracer::Null,
            );
        }
        assert_eq!(traffic.crosslane_words, 8);
    }

    #[test]
    fn comm_priority_delays_crosslane_returns() {
        let (mut srf, _, p, m) = setup(IdxKind::InLaneRead);
        let range = SrfRange {
            base: 0,
            words_per_bank: 4096,
        };
        let b = StreamBinding::whole(range, 1, 32768);
        let mut st = IdxState::new(b, IdxKind::CrossLaneRead, 8, &m);
        st.push_addr(0, 9);
        let mut states = [st];
        let mut traffic = SrfTraffic::default();
        let mut rr = 0;
        // Issue proceeds even while explicit comm owns the data network:
        // the index network is dedicated.
        service_indexed(
            &mut states,
            &mut srf,
            0,
            &p,
            &mut rr,
            &mut traffic,
            &mut Tracer::Null,
        );
        assert_eq!(traffic.crosslane_words, 1);
        // The return waits for a free network slot: zero budget keeps the
        // data queued past its latency; one slot delivers it.
        let mut none = 0usize;
        states[0].tick_arrivals_budgeted(100, &mut none);
        assert!(!states[0].can_pop_data(0));
        let mut one = 1usize;
        states[0].tick_arrivals_budgeted(100, &mut one);
        assert!(states[0].can_pop_data(0));
        assert_eq!(one, 0);
    }

    #[test]
    fn crosslane_and_inlane_share_subarrays() {
        let (mut srf, _, p, m) = setup(IdxKind::InLaneRead);
        let range = SrfRange {
            base: 0,
            words_per_bank: 4096,
        };
        let b = StreamBinding::whole(range, 1, 32768);
        let mut inl = IdxState::new(b, IdxKind::InLaneRead, 8, &m);
        let mut xl = IdxState::new(b, IdxKind::CrossLaneRead, 8, &m);
        // Lane 0 in-lane reads offset 3 (sub-array 0 of bank 0); lane 1
        // cross-lane reads record 8 -> bank 0 offset 1 (also sub-array 0).
        inl.push_addr(0, 3);
        xl.push_addr(1, 8);
        let mut states = [inl, xl];
        let mut traffic = SrfTraffic::default();
        let mut rr = 0;
        service_indexed(
            &mut states,
            &mut srf,
            0,
            &p,
            &mut rr,
            &mut traffic,
            &mut Tracer::Null,
        );
        assert_eq!(traffic.inlane_words, 1);
        assert_eq!(
            traffic.crosslane_words, 0,
            "cross-lane loses the sub-array to the in-lane access"
        );
        service_indexed(
            &mut states,
            &mut srf,
            1,
            &p,
            &mut rr,
            &mut traffic,
            &mut Tracer::Null,
        );
        assert_eq!(traffic.crosslane_words, 1);
    }
}
