//! # r2d2-bench — experiment harness for the R2D2 reproduction
//!
//! This crate regenerates every table and figure of the paper's evaluation
//! (§6) on the synthetic corpora from `r2d2-synth`:
//!
//! | Paper artifact | Module | Harness command |
//! |---|---|---|
//! | Table 1 (enterprise edge quality per stage)   | [`experiments::containment`] | `experiments table1` |
//! | Table 2 (synthetic edge quality per stage)    | [`experiments::containment`] | `experiments table2` |
//! | Table 3 (pairwise row-level operation counts) | [`experiments::containment`] | `experiments table3` |
//! | Table 4 (schema baselines)                    | [`experiments::schema_baselines`] | `experiments table4` |
//! | Table 5 (per-stage wall-clock time)           | [`experiments::containment`] | `experiments table5` |
//! | Table 6 (CLP parameter sweep)                 | [`experiments::clp_params`] | `experiments table6` |
//! | Table 7 (optimization results)                | [`experiments::optimization`] | `experiments table7` |
//! | Fig. 2 (schema-containment histograms)        | [`experiments::figures`] | `experiments fig2` |
//! | Fig. 4 (pipeline time vs data size)           | [`experiments::figures`] | `experiments fig4` |
//! | Fig. 5 (10 PB horizon savings)                | [`experiments::optimization`] | `experiments fig5` |
//! | Fig. 6 (optimizer scalability)                | [`experiments::optimization`] | `experiments fig6` |
//!
//! Run everything with `cargo run -p r2d2-bench --release --bin experiments -- all`.
//! Performance is measured by the `benchmark` binary (`src/bin/benchmark/`)
//! that `BENCHMARK.json` at the repository root declares.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod experiments;
pub mod fuzz;
pub mod report;

pub use experiments::Scale;
