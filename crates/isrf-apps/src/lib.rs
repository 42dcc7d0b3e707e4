//! Benchmarks reproducing the HPCA 2004 indexed-SRF evaluation.
//!
//! Each benchmark module builds the paper's workload for all four machine
//! configurations (`Base`, `ISRF1`, `ISRF4`, `Cache`), runs it on the
//! simulator, *functionally verifies* the results against an independent
//! reference implementation, and returns the [`isrf_core::RunStats`] behind
//! Figures 11–13.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
pub mod bfs;
pub mod common;
pub mod fft2d;
pub mod filter;
pub mod histogram;
pub mod igraph;
pub mod micro;
pub mod registry;
pub mod rijndael;
pub mod sort;
pub mod spmv;
pub mod stencil;

pub use registry::{prepare_app, Profile, APPS, BENCHMARKS};
