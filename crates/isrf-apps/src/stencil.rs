//! 2D stencil suite (5-point and 9-point) — the workload the SARIS line
//! of work accelerates with indirect stream registers (see PAPERS.md).
//!
//! A radius-1 stencil over a `rows × 64` grid with clamped boundaries,
//! run as a two-pass pipeline: pass 1 applies the 5-point star to the
//! input grid, pass 2 applies the 9-point box to pass 1's output. Both
//! variants process the grid in 32-row strips:
//!
//! * **Base/Cache**: one sequential input stream *per tap* — the memory
//!   system streams a shifted, boundary-clamped copy of the grid for
//!   every neighbor offset, so the kernel is a pure weighted sum but
//!   every interior word crosses the memory system 5 (or 9) times.
//! * **ISRF**: each lane keeps a block of `B` output rows plus a one-row
//!   halo resident in its SRF bank across the whole strip, and the
//!   kernel reaches all taps with **in-lane** indexed reads (four
//!   indexed streams, like Filter) — each word is loaded once per pass,
//!   and the halo rows are reused in-lane across strip iterations.
//!
//! Tap order and weights are fixed, the kernel accumulates in that exact
//! order, and the host reference mirrors it, so results are compared
//! **bit-for-bit**. The grid generator is deterministic in the seed.

use std::sync::Arc;

use isrf_core::config::ConfigName;
use isrf_core::word::{from_f32, Word};
use isrf_kernel::ir::{Kernel, KernelBuilder, StreamKind};
use isrf_kernel::sched::Schedule;
use isrf_mem::AddrPattern;
use isrf_sim::{Machine, ProgOpId, StreamBinding, StreamProgram};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::common::{machine, schedule_for};

/// Grid width in words (fixed; rows are configurable).
pub const COLS: u32 = 64;
/// Output rows each lane computes per strip.
const B: u32 = 4;
/// Input rows per lane block (output rows + one-row halo on each side).
const BLOCK_ROWS: u32 = B + 2;
/// Grid rows per strip (8 lanes × B).
pub const STRIP_ROWS: u32 = 8 * B;

/// Benchmark sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StencilParams {
    /// Grid height; a positive multiple of 32.
    pub rows: u32,
    /// RNG seed for the grid.
    pub seed: u64,
}

impl Default for StencilParams {
    fn default() -> Self {
        StencilParams {
            rows: 64,
            seed: 0x5eed_0021,
        }
    }
}

const IN_BASE: u32 = 0;
const MID_BASE: u32 = 0x20_0000; // 5-point output, 9-point input
const OUT_BASE: u32 = 0x40_0000; // 9-point output

/// The tap set `(dy, dx, weight)` in the fixed accumulation order both
/// the kernels and the host reference use.
///
/// # Panics
///
/// Panics unless `points` is 5 or 9.
pub fn taps(points: u32) -> Vec<(i32, i32, f32)> {
    match points {
        5 => vec![
            (-1, 0, 0.125),
            (0, -1, 0.125),
            (0, 0, 0.5),
            (0, 1, 0.125),
            (1, 0, 0.125),
        ],
        9 => (-1..=1)
            .flat_map(|dy: i32| {
                (-1..=1).map(move |dx: i32| {
                    let w = match dy.abs() + dx.abs() {
                        0 => 0.25,
                        1 => 0.125,
                        _ => 0.0625,
                    };
                    (dy, dx, w)
                })
            })
            .collect(),
        other => panic!("stencil suite has 5- and 9-point kernels, not {other}"),
    }
}

/// Host reference for one pass, mirroring the kernel's accumulation
/// order bit-for-bit (boundary rows and columns clamped to the grid).
pub fn reference(grid: &[f32], rows: u32, points: u32) -> Vec<f32> {
    let t = taps(points);
    let mut out = vec![0.0f32; (rows * COLS) as usize];
    for r in 0..rows as i32 {
        for c in 0..COLS as i32 {
            let mut acc: Option<f32> = None;
            for &(dy, dx, w) in &t {
                let rr = (r + dy).clamp(0, rows as i32 - 1);
                let cc = (c + dx).clamp(0, COLS as i32 - 1);
                let m = grid[(rr as u32 * COLS + cc as u32) as usize] * w;
                acc = Some(match acc {
                    None => m,
                    Some(a) => a + m,
                });
            }
            out[(r as u32 * COLS + c as u32) as usize] = acc.expect("taps");
        }
    }
    out
}

/// ISRF kernel: iteration `i` emits output pixel `(ly = i >> 6,
/// x = i & 63)` of the lane's block, reading all taps from the resident
/// block (rows `ly .. ly+3`, the centre being halo-offset row `ly + 1`)
/// with in-lane indexed accesses over four streams. Columns are clamped
/// in-kernel; rows are clamped by the host load pattern.
pub fn build_isrf_kernel(points: u32) -> Kernel {
    let mut b = KernelBuilder::new(format!("stencil{points}_isrf"));
    let imgs: Vec<_> = (0..4)
        .map(|k| b.stream(format!("img{k}"), StreamKind::IdxInRead))
        .collect();
    let out = b.stream("out", StreamKind::SeqOut);

    let i = b.iter_id();
    let c6 = b.constant(6);
    let c63 = b.constant(63);
    let c1 = b.constant(1);
    let zero = b.constant(0);
    let ly = b.shr(i, c6);
    let x = b.and(i, c63);
    let row0 = b.shl(ly, c6);
    // Clamped columns for dx = -1, 0, +1.
    let xm = b.sub(x, c1);
    let xp = b.add(x, c1);
    let cols = [b.max(xm, zero), x, b.min(xp, c63)];
    // Block-row offsets for dy = -1, 0, +1 (centre is block row ly + 1).
    let rbases: Vec<_> = (0..3u32)
        .map(|k| {
            let c = b.constant(k * COLS);
            b.add(row0, c)
        })
        .collect();

    let mut acc = None;
    for (t, &(dy, dx, w)) in taps(points).iter().enumerate() {
        let addr = b.add(rbases[(dy + 1) as usize], cols[(dx + 1) as usize]);
        let v = b.idx_load(imgs[t % 4], addr);
        let c = b.constant_f(w);
        let m = b.fmul(v, c);
        acc = Some(match acc {
            None => m,
            Some(a) => b.fadd(a, m),
        });
    }
    b.seq_write(out, acc.expect("taps"));
    b.build().expect("stencil ISRF kernel is well-formed")
}

/// Base kernel: one pre-shifted sequential stream per tap; the kernel is
/// the bare weighted sum.
pub fn build_base_kernel(points: u32) -> Kernel {
    let mut b = KernelBuilder::new(format!("stencil{points}_base"));
    let t = taps(points);
    let ins: Vec<_> = (0..t.len())
        .map(|k| b.stream(format!("t{k}"), StreamKind::SeqIn))
        .collect();
    let out = b.stream("out", StreamKind::SeqOut);
    let mut acc = None;
    for (k, &(_, _, w)) in t.iter().enumerate() {
        let v = b.seq_read(ins[k]);
        let c = b.constant_f(w);
        let m = b.fmul(v, c);
        acc = Some(match acc {
            None => m,
            Some(a) => b.fadd(a, m),
        });
    }
    b.seq_write(out, acc.expect("taps"));
    b.build().expect("stencil base kernel is well-formed")
}

/// ISRF load pattern: lane `l`'s block holds grid rows
/// `row0 + l*B - 1 .. + BLOCK_ROWS`, clamped vertically to the grid.
fn block_load_pattern(base: u32, row0: u32, rows: u32) -> AddrPattern {
    let mut addrs = Vec::with_capacity((8 * BLOCK_ROWS * COLS) as usize);
    for lane in 0..8u32 {
        for br in 0..BLOCK_ROWS {
            let row = (row0 + lane * B + br) as i32 - 1;
            let row = row.clamp(0, rows as i32 - 1) as u32;
            for c in 0..COLS {
                addrs.push(base + row * COLS + c);
            }
        }
    }
    AddrPattern::Indexed(addrs)
}

/// ISRF store pattern: output record `l + 8*j` is row `j` of lane `l`
/// (grid row `row0 + l*B + j`).
fn block_store_pattern(base: u32, row0: u32) -> AddrPattern {
    let mut addrs = Vec::with_capacity((STRIP_ROWS * COLS) as usize);
    for j in 0..B {
        for lane in 0..8u32 {
            let row = row0 + lane * B + j;
            for c in 0..COLS {
                addrs.push(base + row * COLS + c);
            }
        }
    }
    AddrPattern::Indexed(addrs)
}

/// Base load pattern for one tap: record `r` is strip row `row0 + r`
/// shifted by `(dy, dx)` and clamped to the grid.
fn shifted_load_pattern(base: u32, row0: u32, rows: u32, dy: i32, dx: i32) -> AddrPattern {
    let mut addrs = Vec::with_capacity((STRIP_ROWS * COLS) as usize);
    for r in 0..STRIP_ROWS {
        let row = ((row0 + r) as i32 + dy).clamp(0, rows as i32 - 1) as u32;
        for c in 0..COLS as i32 {
            let col = (c + dx).clamp(0, COLS as i32 - 1) as u32;
            addrs.push(base + row * COLS + col);
        }
    }
    AddrPattern::Indexed(addrs)
}

/// The SRF stream pool, shared by both passes (the suite's passes are
/// fully serialized by dependencies, so reuse is hazard-free).
struct Streams {
    /// Base: one sequential stream per tap (9 covers both passes).
    ins: Vec<StreamBinding>,
    /// ISRF: the per-lane resident block.
    block: Option<StreamBinding>,
    /// Output rows (row records for Base, `l + 8*j` records for ISRF).
    out: StreamBinding,
}

fn alloc_streams(m: &mut Machine, indexed: bool) -> Streams {
    if indexed {
        Streams {
            ins: Vec::new(),
            block: Some(m.alloc_stream(BLOCK_ROWS * COLS, 8)),
            out: m.alloc_stream(COLS, STRIP_ROWS),
        }
    } else {
        Streams {
            ins: (0..9).map(|_| m.alloc_stream(COLS, STRIP_ROWS)).collect(),
            block: None,
            out: m.alloc_stream(COLS, STRIP_ROWS),
        }
    }
}

/// Emit one full pass (`in_base` → `out_base`) into `p`; returns the
/// pass's store ops (the barrier for a dependent pass).
#[allow(clippy::too_many_arguments)]
fn emit_pass(
    p: &mut StreamProgram,
    indexed: bool,
    rows: u32,
    points: u32,
    kernel: &Arc<Kernel>,
    sched: &Arc<Schedule>,
    streams: &Streams,
    in_base: u32,
    out_base: u32,
    deps: &[ProgOpId],
) -> Vec<ProgOpId> {
    let t = taps(points);
    let mut stores = Vec::new();
    let mut prev: Option<ProgOpId> = None;
    for strip in 0..rows / STRIP_ROWS {
        let row0 = strip * STRIP_ROWS;
        let mut ldeps: Vec<ProgOpId> = deps.to_vec();
        if let Some(pk) = prev {
            ldeps.push(pk);
        }
        let (loads, bindings, iters) = if indexed {
            let block = streams.block.expect("indexed pool has a block");
            let load = p.load(
                block_load_pattern(in_base, row0, rows),
                block,
                false,
                &ldeps,
            );
            // Four in-lane indexed views of the block + the output.
            let view = StreamBinding::whole(block.range, 1, BLOCK_ROWS * COLS * 8);
            (
                vec![load],
                vec![view, view, view, view, streams.out],
                (B * COLS) as u64,
            )
        } else {
            let mut loads = Vec::with_capacity(t.len());
            let mut bindings = Vec::with_capacity(t.len() + 1);
            for (k, &(dy, dx, _)) in t.iter().enumerate() {
                loads.push(p.load(
                    shifted_load_pattern(in_base, row0, rows, dy, dx),
                    streams.ins[k],
                    false,
                    &ldeps,
                ));
                bindings.push(streams.ins[k]);
            }
            bindings.push(streams.out);
            (loads, bindings, (STRIP_ROWS * COLS / 8) as u64)
        };
        let k = p.kernel(
            Arc::clone(kernel),
            Arc::clone(sched),
            bindings,
            iters,
            &loads,
        );
        let pattern = if indexed {
            block_store_pattern(out_base, row0)
        } else {
            AddrPattern::contiguous(out_base + row0 * COLS, STRIP_ROWS * COLS)
        };
        let st = p.store(streams.out, pattern, false, &[k]);
        stores.push(st);
        prev = Some(st);
    }
    stores
}

/// The seeded input grid, `rows × COLS` values in `[0, 1)`.
fn input_grid(rows: u32, seed: u64) -> Vec<f32> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..rows * COLS)
        .map(|_| rng.gen_range(0.0f32..1.0))
        .collect()
}

fn lay_out_grid(m: &mut Machine, params: &StencilParams) {
    let words: Vec<Word> = input_grid(params.rows, params.seed)
        .iter()
        .map(|&v| from_f32(v))
        .collect();
    m.mem_mut().memory_mut().write_block(IN_BASE, &words);
}

fn check_rows(params: &StencilParams) {
    assert!(
        params.rows.is_multiple_of(STRIP_ROWS) && params.rows >= STRIP_ROWS,
        "rows must be a positive multiple of {STRIP_ROWS}"
    );
}

/// Set up the machine and build the full two-pass suite (5-point on the
/// input grid, 9-point on its output) without running it. The attached
/// check verifies both pass outputs bit-for-bit against the mirrored host
/// reference.
///
/// # Panics
///
/// Panics if `params.rows` is not a positive multiple of 32.
pub fn prepare(cfg: ConfigName, params: &StencilParams) -> crate::common::Prepared {
    check_rows(params);
    let indexed = matches!(cfg, ConfigName::Isrf1 | ConfigName::Isrf4);
    let mut m = machine(cfg);
    lay_out_grid(&mut m, params);

    let build = |points| {
        Arc::new(if indexed {
            build_isrf_kernel(points)
        } else {
            build_base_kernel(points)
        })
    };
    let k5 = build(5);
    let k9 = build(9);
    let s5 = schedule_for(&m, &k5);
    let s9 = schedule_for(&m, &k9);
    let streams = alloc_streams(&mut m, indexed);

    let mut p = StreamProgram::new();
    let rows = params.rows;
    let pass1 = emit_pass(
        &mut p,
        indexed,
        rows,
        5,
        &k5,
        &s5,
        &streams,
        IN_BASE,
        MID_BASE,
        &[],
    );
    emit_pass(
        &mut p, indexed, rows, 9, &k9, &s9, &streams, MID_BASE, OUT_BASE, &pass1,
    );
    let seed = params.seed;
    crate::common::Prepared::new(m, p, vec![(MID_BASE, rows * COLS), (OUT_BASE, rows * COLS)])
        .with_check(move |m| {
            let mid = reference(&input_grid(rows, seed), rows, 5);
            let out = reference(&mid, rows, 9);
            for (base, expect) in [(MID_BASE, &mid), (OUT_BASE, &out)] {
                for (i, &e) in expect.iter().enumerate() {
                    let got = m.mem().memory().read(base + i as u32);
                    assert_eq!(
                        got,
                        from_f32(e),
                        "word {i} at {base:#x}: got {:?}, want {e:?} (bit-exact mirror)",
                        isrf_core::word::as_f32(got)
                    );
                }
            }
        })
}

/// Set up a single pass (5- or 9-point, input grid → `OUT_BASE`) — the
/// smallest traceable unit, used by the golden trace test.
///
/// # Panics
///
/// Panics if `params.rows` is not a positive multiple of 32 or `points`
/// is not 5 or 9.
pub fn prepare_pass(
    cfg: ConfigName,
    params: &StencilParams,
    points: u32,
) -> crate::common::Prepared {
    check_rows(params);
    let indexed = matches!(cfg, ConfigName::Isrf1 | ConfigName::Isrf4);
    let mut m = machine(cfg);
    lay_out_grid(&mut m, params);
    let kernel = Arc::new(if indexed {
        build_isrf_kernel(points)
    } else {
        build_base_kernel(points)
    });
    let sched = schedule_for(&m, &kernel);
    let streams = alloc_streams(&mut m, indexed);
    let mut p = StreamProgram::new();
    emit_pass(
        &mut p,
        indexed,
        params.rows,
        points,
        &kernel,
        &sched,
        &streams,
        IN_BASE,
        OUT_BASE,
        &[],
    );
    crate::common::Prepared::new(m, p, vec![(OUT_BASE, params.rows * COLS)])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> StencilParams {
        StencilParams { rows: 32, seed: 13 }
    }

    #[test]
    fn kernels_build_and_schedule() {
        let m = machine(ConfigName::Isrf4);
        schedule_for(&m, &build_isrf_kernel(5));
        schedule_for(&m, &build_isrf_kernel(9));
        let m = machine(ConfigName::Base);
        schedule_for(&m, &build_base_kernel(5));
        schedule_for(&m, &build_base_kernel(9));
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
    fn single_pass_matches_reference() {
        for points in [5, 9] {
            let params = small();
            let mut pr = prepare_pass(ConfigName::Isrf4, &params, points);
            pr.machine.run(&pr.program);
            let grid = input_grid(params.rows, params.seed);
            let expect = reference(&grid, params.rows, points);
            for (i, &e) in expect.iter().enumerate() {
                assert_eq!(
                    pr.machine.mem().memory().read(OUT_BASE + i as u32),
                    from_f32(e)
                );
            }
        }
    }

    #[test]
    fn isrf_cuts_traffic_by_tap_reuse() {
        // Base streams a shifted grid copy per tap; ISRF loads each word
        // once per pass (plus the halo). 14 taps of traffic vs ~2 passes.
        let params = small();
        let base = prepare(ConfigName::Base, &params).run_and_check();
        let isrf = prepare(ConfigName::Isrf4, &params).run_and_check();
        let ratio = isrf.mem.normalized_to(&base.mem);
        assert!(ratio < 0.5, "traffic ratio {ratio:.3}");
        assert!(isrf.srf.inlane_words > 0, "taps are in-lane indexed reads");
        assert_eq!(isrf.srf.crosslane_words, 0);
    }
}
