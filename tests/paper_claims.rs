//! Integration tests pinning the paper's headline claims (at reduced
//! workload sizes; EXPERIMENTS.md records the paper-size numbers).

use isrf::apps::{igraph, rijndael, sort};
use isrf::core::config::ConfigName;
use isrf::sram::{AreaModel, EnergyModel, SrfGeometry, SrfVariant};

/// Section 1: "indexed SRF access provides speedups of 1.03x to 4.1x and
/// memory bandwidth reductions of up to 95%".
#[test]
fn headline_speedups_and_traffic() {
    let params = rijndael::RijndaelParams {
        chains_per_lane: 2,
        waves: 2,
        strips: 2,
        ..Default::default()
    };
    let base = rijndael::prepare(ConfigName::Base, &params).run_and_check();
    let isrf = rijndael::prepare(ConfigName::Isrf4, &params).run_and_check();
    let speedup = isrf.speedup_over(&base);
    assert!(
        speedup > 3.0 && speedup < 8.0,
        "Rijndael speedup {speedup:.2} (paper: 4.11x)"
    );
    let cut = 1.0 - isrf.mem.normalized_to(&base.mem);
    assert!(cut > 0.85, "traffic cut {:.1}% (paper: ~95%)", cut * 100.0);
}

/// Section 5.3: ISRF4 outperforms the Cache configuration for all
/// benchmarks despite the cache's much higher area cost.
#[test]
fn isrf4_beats_cache_on_rijndael_and_sort() {
    let params = rijndael::RijndaelParams {
        chains_per_lane: 2,
        waves: 2,
        strips: 2,
        ..Default::default()
    };
    let cache = rijndael::prepare(ConfigName::Cache, &params).run_and_check();
    let isrf = rijndael::prepare(ConfigName::Isrf4, &params).run_and_check();
    assert!(isrf.cycles < cache.cycles, "Rijndael: ISRF4 beats Cache");

    let sp = sort::SortParams {
        keys_per_lane: 64,
        ..Default::default()
    };
    let cache = sort::prepare(ConfigName::Cache, &sp).run_and_check();
    let isrf = sort::prepare(ConfigName::Isrf4, &sp).run_and_check();
    assert!(isrf.cycles < cache.cycles, "Sort: ISRF4 beats Cache");
    // "The cache does not provide the conditional and complex SRF accesses
    // ... and consequently does not provide any speedup for these
    // benchmarks": Cache == Base for Sort.
    let base = sort::prepare(ConfigName::Base, &sp).run_and_check();
    assert_eq!(cache.cycles, base.cycles, "Cache gives Sort nothing");
}

/// Section 4.6: 11%/18%/22% SRF area overheads = 1.5%-3% of the die.
#[test]
fn area_overheads_in_paper_bands() {
    let model = AreaModel::default();
    let geom = SrfGeometry::paper_default();
    let o1 = model.overhead_vs_sequential(&geom, SrfVariant::Inlane1);
    let o4 = model.overhead_vs_sequential(&geom, SrfVariant::Inlane4);
    let ox = model.overhead_vs_sequential(&geom, SrfVariant::CrossLane);
    assert!((0.09..=0.13).contains(&o1));
    assert!((0.16..=0.20).contains(&o4));
    assert!((0.20..=0.24).contains(&ox));
    assert!(o1 < o4 && o4 < ox);
    let die = model.die_overhead(&geom, SrfVariant::CrossLane);
    assert!((0.015..=0.033).contains(&die));
}

/// Section 4.5: ~0.1 nJ per indexed access, an order of magnitude below
/// the ~5 nJ DRAM access — the energy argument for trading DRAM traffic
/// for SRF traffic.
#[test]
fn energy_ordering() {
    let m = EnergyModel::default();
    let g = SrfGeometry::paper_default();
    assert!(m.indexed_word_nj(&g) < 0.15);
    assert!(m.dram_access_nj() / m.indexed_word_nj(&g) > 10.0);
    assert!(m.indexed_over_seq(&g) > 2.0, "indexed costs ~4x sequential");
}

/// Table 4 / Section 5.3: eliminating replication roughly doubles the IG
/// strip size in the same SRF budget, and all ISRF accesses are
/// cross-lane.
#[test]
fn ig_strips_and_crosslane() {
    for ds in &igraph::DATASETS {
        assert!(ds.isrf_strip_nodes >= 2 * ds.base_strip_nodes);
    }
    let mut ds = igraph::dataset("IG_SML");
    ds.nodes = 1152;
    let s = igraph::prepare(ConfigName::Isrf4, &ds).run_and_check();
    assert!(s.srf.crosslane_words > 0);
    assert_eq!(s.srf.inlane_words, 0);
}
