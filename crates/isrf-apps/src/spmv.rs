//! Sparse matrix-vector product (SpMV) over CSR — the sparse-dense
//! workload the Sparse-SSR line of work targets with indirect stream
//! registers (see PAPERS.md).
//!
//! `y = A * x` with `A` in compressed-sparse-row form. Rows are processed
//! in strips of `strip_rows` (one row per lane per kernel iteration); the
//! host pads every row to a common entry count `pad` (a multiple of 4) so
//! the kernel loop is regular, and prepares per-strip gather metadata:
//!
//! * **Base/Cache**: the memory system gathers `x[col]` for every stored
//!   entry individually (the replicated gather); an `x` entry referenced
//!   by several rows of the strip is fetched — and parked in the SRF —
//!   once *per reference*.
//! * **ISRF**: only the strip's *unique* referenced `x` entries are
//!   gathered into a condensed array; the kernel reaches them through the
//!   **cross-lane** index network, driven by a host-prepared pointer
//!   stream into the condensed array (row entries live in whichever bank
//!   holds the unique record, not the row's lane).
//!
//! Padding entries carry a 0.0 matrix value and point at the condensed
//! sentinel record 0 (`x[0]`), so empty and short rows are handled with
//! no control flow. The host reference mirrors the padded accumulation
//! order exactly, so results are compared **bit-for-bit**.
//!
//! The generator is deterministic in the parameter struct: banded random
//! matrices with controllable density (`avg_nnz`), locality
//! (`bandwidth`), and a controllable fraction of entirely empty rows.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

use isrf_core::config::ConfigName;
use isrf_core::word::{from_f32, Word};
use isrf_kernel::ir::{Kernel, KernelBuilder, StreamKind};
use isrf_mem::AddrPattern;
use isrf_sim::{StreamBinding, StreamProgram};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::common::{machine, schedule_for};

/// Benchmark sizing and matrix-shape knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpmvParams {
    /// Matrix dimension (square, `rows` = `cols`); must be a multiple of
    /// `strip_rows`.
    pub rows: u32,
    /// Average stored entries per non-empty row (density knob).
    pub avg_nnz: u32,
    /// Column half-bandwidth: row `i` references columns within
    /// `i ± bandwidth` (modulo `rows`) — the locality the condensed
    /// gather exploits.
    pub bandwidth: u32,
    /// Percentage (0–100) of rows left entirely empty.
    pub empty_pct: u32,
    /// Rows per strip; a multiple of 8 dividing `rows`.
    pub strip_rows: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SpmvParams {
    fn default() -> Self {
        SpmvParams {
            rows: 512,
            avg_nnz: 8,
            bandwidth: 48,
            empty_pct: 10,
            strip_rows: 64,
            seed: 0x5eed_0020,
        }
    }
}

/// A CSR matrix with f32 values. `row_ptr` has `rows + 1` entries;
/// row `i`'s stored entries are `col_idx[row_ptr[i]..row_ptr[i+1]]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    /// Row count.
    pub rows: u32,
    /// Column count (the length of `x`).
    pub cols: u32,
    /// Row start offsets, `rows + 1` entries.
    pub row_ptr: Vec<u32>,
    /// Column index per stored entry.
    pub col_idx: Vec<u32>,
    /// Value per stored entry.
    pub vals: Vec<f32>,
}

impl Csr {
    /// Stored entries in row `i`.
    pub fn row(&self, i: u32) -> (&[u32], &[f32]) {
        let lo = self.row_ptr[i as usize] as usize;
        let hi = self.row_ptr[i as usize + 1] as usize;
        (&self.col_idx[lo..hi], &self.vals[lo..hi])
    }

    /// The largest row length.
    pub fn max_nnz(&self) -> u32 {
        (0..self.rows)
            .map(|i| self.row(i).0.len() as u32)
            .max()
            .unwrap_or(0)
    }
}

/// Deterministic banded sparse matrix + dense vector for `params`.
///
/// Column indices are drawn from the band `i ± bandwidth` (mod `rows`),
/// deduplicated and sorted per row; values and `x` entries are bounded
/// away from zero so every product is informative.
pub fn generate(params: &SpmvParams) -> (Csr, Vec<f32>) {
    let mut rng = SmallRng::seed_from_u64(params.seed);
    let n = params.rows;
    let mut row_ptr = Vec::with_capacity(n as usize + 1);
    let mut col_idx = Vec::new();
    let mut vals = Vec::new();
    row_ptr.push(0);
    for i in 0..n {
        if rng.gen_range(0u32..100) >= params.empty_pct {
            let want = rng.gen_range(1..=2 * params.avg_nnz.max(1) - 1);
            let mut cols: Vec<u32> = (0..want)
                .map(|_| {
                    let off = rng.gen_range(-(params.bandwidth as i32)..=params.bandwidth as i32);
                    (i as i32 + off).rem_euclid(n as i32) as u32
                })
                .collect();
            cols.sort_unstable();
            cols.dedup();
            for c in cols {
                col_idx.push(c);
                vals.push(rng.gen_range(0.1f32..1.0));
            }
        }
        row_ptr.push(col_idx.len() as u32);
    }
    let x = (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let csr = Csr {
        rows: n,
        cols: n,
        row_ptr,
        col_idx,
        vals,
    };
    (csr, x)
}

type GenKey = (u64, u32, u32, u32, u32, u32);

fn gen_key(p: &SpmvParams) -> GenKey {
    (
        p.seed,
        p.rows,
        p.avg_nnz,
        p.bandwidth,
        p.empty_pct,
        p.strip_rows,
    )
}

/// [`generate`], memoized: every configuration (and the host reference)
/// of a parameter point shares one matrix.
fn generate_cached(params: &SpmvParams) -> Arc<(Csr, Vec<f32>)> {
    #[allow(clippy::type_complexity)]
    static MEMO: OnceLock<Mutex<BTreeMap<GenKey, Arc<(Csr, Vec<f32>)>>>> = OnceLock::new();
    let memo = MEMO.get_or_init(|| Mutex::new(BTreeMap::new()));
    if let Some(hit) = memo.lock().unwrap().get(&gen_key(params)) {
        return Arc::clone(hit);
    }
    let fresh = Arc::new(generate(params));
    let mut guard = memo.lock().unwrap();
    Arc::clone(guard.entry(gen_key(params)).or_insert(fresh))
}

/// Common padded row length for `csr`: the longest row, rounded up to a
/// multiple of 4 (so cross-lane accesses split into full address-FIFO
/// groups), at least 4.
pub fn pad_of(csr: &Csr) -> u32 {
    csr.max_nnz().next_multiple_of(4).max(4)
}

/// Host-prepared gather metadata for one strip.
struct Strip {
    /// Condensed pointer words, `strip_rows * pad` entries (row-major).
    ptr_words: Vec<Word>,
    /// Padded matrix values, `strip_rows * pad` entries (row-major).
    val_words: Vec<Word>,
    /// Gather addresses of the strip's unique `x` records (record 0 is
    /// the `x[0]` sentinel the padding points at).
    unique_addrs: Vec<u32>,
    /// Per-reference gather addresses for the Base configurations.
    replicated_addrs: Vec<u32>,
}

const X_BASE: u32 = 0; // the dense vector
const VAL_BASE: u32 = 0x10_0000; // padded matrix values, strip-major
const PTR_BASE: u32 = 0x30_0000; // padded condensed pointers, strip-major
const Y_BASE: u32 = 0x40_0000; // the result vector

fn host_strips(csr: &Csr, strip_rows: u32, pad: u32) -> Vec<Strip> {
    let strips = csr.rows / strip_rows;
    let mut out = Vec::with_capacity(strips as usize);
    for s in 0..strips {
        let mut ptr_words = Vec::with_capacity((strip_rows * pad) as usize);
        let mut val_words = Vec::with_capacity((strip_rows * pad) as usize);
        // Record 0 is always x[0]: the sentinel the padding entries
        // multiply by 0.0, valid even for an all-empty strip.
        let mut unique_addrs = vec![X_BASE];
        let mut pos: BTreeMap<u32, u32> = BTreeMap::new();
        pos.insert(0, 0);
        let mut replicated_addrs = Vec::new();
        for i in s * strip_rows..(s + 1) * strip_rows {
            let (cols, vals) = csr.row(i);
            for k in 0..pad as usize {
                let (col, v) = if k < cols.len() {
                    (cols[k], vals[k])
                } else {
                    (0, 0.0)
                };
                let p = *pos.entry(col).or_insert_with(|| {
                    unique_addrs.push(X_BASE + col);
                    unique_addrs.len() as u32 - 1
                });
                ptr_words.push(p);
                val_words.push(from_f32(v));
                replicated_addrs.push(X_BASE + col);
            }
        }
        out.push(Strip {
            ptr_words,
            val_words,
            unique_addrs,
            replicated_addrs,
        });
    }
    out
}

/// Host reference mirroring the padded accumulation order bit-for-bit:
/// `acc = acc + v * xv` over all `pad` slots per row, padding slots
/// contributing `0.0 * x[0]`.
pub fn reference(csr: &Csr, x: &[f32], pad: u32) -> Vec<f32> {
    (0..csr.rows)
        .map(|i| {
            let (cols, vals) = csr.row(i);
            let mut acc = 0.0f32;
            for k in 0..pad as usize {
                let (v, xv) = if k < cols.len() {
                    (vals[k], x[cols[k] as usize])
                } else {
                    (0.0, x[0])
                };
                acc += v * xv;
            }
            acc
        })
        .collect()
}

/// Build the per-strip kernel: one row per lane per iteration, `pad`
/// multiply-accumulate slots. With `indexed`, `x` values come from
/// cross-lane indexed reads of the condensed array (spread over
/// `pad / 4` streams so each stays within the address FIFO); otherwise
/// they arrive pre-gathered on a sequential stream.
pub fn build_kernel(pad: u32, indexed: bool) -> Kernel {
    assert!(pad.is_multiple_of(4) && pad >= 4);
    let mut b = KernelBuilder::new(format!(
        "spmv_p{pad}_{}",
        if indexed { "isrf" } else { "base" }
    ));
    let ptr = b.stream("ptr", StreamKind::SeqIn);
    let vals = b.stream("vals", StreamKind::SeqIn);
    let nstreams = if indexed {
        (pad as usize).div_ceil(4)
    } else {
        1
    };
    let xs: Vec<_> = if indexed {
        (0..nstreams)
            .map(|k| b.stream(format!("x{k}"), StreamKind::IdxCrossRead))
            .collect()
    } else {
        vec![b.stream("gathered", StreamKind::SeqIn)]
    };
    let y = b.stream("y", StreamKind::SeqOut);

    let zero = b.constant_f(0.0);
    let mut acc = zero;
    for k in 0..pad {
        let xv = if indexed {
            let p = b.seq_read(ptr);
            b.idx_load(xs[(k as usize) % nstreams], p)
        } else {
            // The pointer stream is still consumed (the gather used it),
            // but the kernel reads values directly.
            let _p = b.seq_read(ptr);
            b.seq_read(xs[0])
        };
        let v = b.seq_read(vals);
        let prod = b.fmul(v, xv);
        acc = b.fadd(acc, prod);
    }
    b.seq_write(y, acc);
    b.build().expect("SpMV kernel is well-formed")
}

/// Set up the machine and build the measured program for an explicit
/// matrix and vector (the proptest entry point — [`prepare`] feeds the
/// deterministic generator through here).
///
/// # Panics
///
/// Panics if `strip_rows` is not a positive multiple of 8 dividing
/// `csr.rows`, or `x.len() != csr.cols`.
pub fn prepare_csr(
    cfg: ConfigName,
    csr: &Csr,
    x: &[f32],
    strip_rows: u32,
) -> crate::common::Prepared {
    assert!(strip_rows.is_multiple_of(8) && strip_rows > 0);
    assert!(csr.rows.is_multiple_of(strip_rows) && csr.rows > 0);
    assert_eq!(x.len() as u32, csr.cols);
    let indexed = matches!(cfg, ConfigName::Isrf1 | ConfigName::Isrf4);
    let mut m = machine(cfg);
    let cacheable = m.config().cache.is_some();

    let pad = pad_of(csr);
    let kernel = Arc::new(build_kernel(pad, indexed));
    let sched = schedule_for(&m, &kernel);

    let strips = host_strips(csr, strip_rows, pad);
    let x_words: Vec<Word> = x.iter().map(|&v| from_f32(v)).collect();
    m.mem_mut().memory_mut().write_block(X_BASE, &x_words);
    for (s, strip) in strips.iter().enumerate() {
        let off = s as u32 * strip_rows * pad;
        m.mem_mut()
            .memory_mut()
            .write_block(VAL_BASE + off, &strip.val_words);
        m.mem_mut()
            .memory_mut()
            .write_block(PTR_BASE + off, &strip.ptr_words);
    }

    // Streams (double-buffered across strips).
    let mk = |m: &mut isrf_sim::Machine| {
        (
            m.alloc_stream(pad, strip_rows), // pointer records
            m.alloc_stream(pad, strip_rows), // matrix-value records
            m.alloc_stream(1, strip_rows),   // y records
        )
    };
    let bufs = [mk(&mut m), mk(&mut m)];
    // x entries: condensed unique (ISRF) or replicated per entry (Base).
    let x_cap = strips
        .iter()
        .map(|s| s.unique_addrs.len() as u32)
        .max()
        .unwrap_or(1);
    let x_bufs = if indexed {
        [m.alloc_stream(1, x_cap), m.alloc_stream(1, x_cap)]
    } else {
        [
            m.alloc_stream(pad, strip_rows),
            m.alloc_stream(pad, strip_rows),
        ]
    };

    let mut p = StreamProgram::new();
    let mut buf_free: [Option<isrf_sim::ProgOpId>; 2] = [None, None];
    let mut prev_kernel: Option<isrf_sim::ProgOpId> = None;
    for (s, strip) in strips.iter().enumerate() {
        let pick = s % 2;
        let (ptr_b, val_b, y_b) = bufs[pick];
        let xb = x_bufs[pick];
        let mut ldeps: Vec<isrf_sim::ProgOpId> = Vec::new();
        if let Some(u) = buf_free[pick] {
            ldeps.push(u);
        }
        let off = s as u32 * strip_rows * pad;
        let l_ptr = p.load(
            AddrPattern::contiguous(PTR_BASE + off, strip_rows * pad),
            ptr_b,
            false,
            &ldeps,
        );
        let l_val = p.load(
            AddrPattern::contiguous(VAL_BASE + off, strip_rows * pad),
            val_b,
            false,
            &ldeps,
        );
        let uniq = strip.unique_addrs.len() as u32;
        let (l_x, x_binding) = if indexed {
            (
                p.load(
                    AddrPattern::Indexed(strip.unique_addrs.clone()),
                    xb.slice(0, uniq),
                    cacheable,
                    &ldeps,
                ),
                // The kernel addresses the condensed array by record.
                StreamBinding::whole(xb.range, 1, uniq),
            )
        } else {
            (
                p.load(
                    AddrPattern::Indexed(strip.replicated_addrs.clone()),
                    xb,
                    cacheable,
                    &ldeps,
                ),
                xb,
            )
        };
        let mut kdeps = vec![l_ptr, l_val, l_x];
        if let Some(k) = prev_kernel {
            kdeps.push(k);
        }
        let nstreams = if indexed {
            (pad as usize).div_ceil(4)
        } else {
            1
        };
        let mut bindings = vec![ptr_b, val_b];
        bindings.extend(std::iter::repeat_n(x_binding, nstreams));
        bindings.push(y_b);
        let k = p.kernel(
            Arc::clone(&kernel),
            sched.clone(),
            bindings,
            (strip_rows / 8) as u64,
            &kdeps,
        );
        let st = p.store(
            y_b,
            AddrPattern::contiguous(Y_BASE + s as u32 * strip_rows, strip_rows),
            false,
            &[k],
        );
        prev_kernel = Some(k);
        buf_free[pick] = Some(st);
    }
    crate::common::Prepared::new(m, p, vec![(Y_BASE, csr.rows)])
}

/// Set up the machine (generated matrix) and build the measured program
/// without running it. The attached check verifies `y = A * x`
/// bit-for-bit against the padded host reference.
pub fn prepare(cfg: ConfigName, params: &SpmvParams) -> crate::common::Prepared {
    let data = generate_cached(params);
    prepare_csr(cfg, &data.0, &data.1, params.strip_rows).with_check(move |m| {
        let (csr, x) = (&data.0, &data.1);
        let expect = reference(csr, x, pad_of(csr));
        for (i, &e) in expect.iter().enumerate() {
            let got = m.mem().memory().read(Y_BASE + i as u32);
            assert_eq!(
                got,
                from_f32(e),
                "row {i}: got {:?}, want {e:?} (bit-exact mirror)",
                isrf_core::word::as_f32(got)
            );
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SpmvParams {
        SpmvParams {
            rows: 256,
            avg_nnz: 6,
            bandwidth: 32,
            empty_pct: 15,
            strip_rows: 32,
            seed: 21,
        }
    }

    #[test]
    fn kernels_build_and_schedule() {
        let m = machine(ConfigName::Isrf4);
        schedule_for(&m, &build_kernel(8, true));
        let m = machine(ConfigName::Base);
        schedule_for(&m, &build_kernel(8, false));
    }

    #[test]
    fn base_functional() {
        prepare(ConfigName::Base, &small()).run_and_check();
    }

    #[test]
    fn isrf_functional() {
        prepare(ConfigName::Isrf4, &small()).run_and_check();
    }

    #[test]
    fn cache_functional() {
        prepare(ConfigName::Cache, &small()).run_and_check();
    }

    #[test]
    fn isrf1_functional() {
        prepare(ConfigName::Isrf1, &small()).run_and_check();
    }

    #[test]
    fn empty_rows_produce_exact_zero() {
        let params = SpmvParams {
            empty_pct: 100,
            ..small()
        };
        let data = generate_cached(&params);
        let mut pr = prepare_csr(ConfigName::Isrf4, &data.0, &data.1, params.strip_rows);
        pr.machine.run(&pr.program);
        for i in 0..params.rows {
            assert_eq!(pr.machine.mem().memory().read(Y_BASE + i), 0);
        }
    }

    #[test]
    fn isrf_reduces_traffic_via_deduplication() {
        // A denser band makes x entries shared across strip rows, so the
        // condensed gather moves fewer words than the replicated one.
        let params = SpmvParams {
            avg_nnz: 10,
            bandwidth: 16,
            empty_pct: 0,
            ..small()
        };
        let base = prepare(ConfigName::Base, &params).run_and_check();
        let isrf = prepare(ConfigName::Isrf4, &params).run_and_check();
        let ratio = isrf.mem.normalized_to(&base.mem);
        assert!(ratio < 0.9, "traffic ratio {ratio:.3}");
        assert!(isrf.srf.crosslane_words > 0, "gathers are cross-lane");
        assert_eq!(isrf.srf.inlane_words, 0);
    }

    #[test]
    fn single_column_matrix_works() {
        // Every stored entry in column 0: the pathological all-conflict
        // gather (every lane hits bank 0).
        let n = 64u32;
        let csr = Csr {
            rows: n,
            cols: n,
            row_ptr: (0..=n).collect(),
            col_idx: vec![0; n as usize],
            vals: (0..n).map(|i| 0.5 + i as f32 / 100.0).collect(),
        };
        let x: Vec<f32> = (0..n).map(|i| 1.0 - i as f32 / 50.0).collect();
        let mut pr = prepare_csr(ConfigName::Isrf4, &csr, &x, 8);
        pr.machine.run(&pr.program);
        let expect = reference(&csr, &x, pad_of(&csr));
        for (i, &e) in expect.iter().enumerate() {
            assert_eq!(
                pr.machine.mem().memory().read(Y_BASE + i as u32),
                from_f32(e)
            );
        }
    }
}
