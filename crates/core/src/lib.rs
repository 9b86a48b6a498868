//! # r2d2-core — the R2D2 containment-detection pipeline
//!
//! This crate implements the primary contribution of the paper *"R2D2:
//! Reducing Redundancy and Duplication in Data Lakes"* (SIGMOD 2023): a
//! three-step hierarchical pipeline that identifies table-level containment
//! relations in a data lake by progressively reducing the search space:
//!
//! 1. **SGB — Schema Graph Builder** ([`sgb`], Algorithm 1): clusters
//!    schema sets around containment "centers" and adds an edge for every
//!    intra-cluster schema containment pair. Theorem 4.1 guarantees no true
//!    edge is missed (100% recall at the schema level).
//! 2. **MMP — Min-Max Pruning** ([`mmp`], Algorithm 2): removes edges whose
//!    child column ranges are not nested inside the parent's, using only
//!    partition-level min/max metadata.
//! 3. **CLP — Content-Level Pruning** ([`clp`], Algorithm 3): samples up to
//!    `t` rows of the child via `WHERE` predicates over up to `s` columns and
//!    left-anti joins them against the parent; any missing row disproves
//!    containment. Theorem 4.2 ([`sampling`]) bounds the number of samples
//!    needed for a probabilistic pruning guarantee.
//!
//! [`pipeline::R2d2Pipeline`] orchestrates the three stages over a
//! [`r2d2_lake::DataLake`], producing per-stage reports (timings, operation
//! counts, edge counts) used to regenerate the paper's Tables 1–3 and 5–6.
//! [`session::R2d2Session`] wraps the pipeline into a long-lived service:
//! bootstrap once, then keep the graph current through typed
//! [`r2d2_lake::LakeUpdate`] events (the §7.1 dynamic-update scenarios) with
//! work linear in the number of datasets per update, and optionally keep a
//! live Opt-Ret **storage advisor** ([`r2d2_opt::advisor`]) in sync with the
//! evolving graph. [`approx`] implements the §7.2 approximate-containment
//! extensions.
//!
//! ## Execution model
//!
//! The paper runs the pipeline on a Spark cluster; this reproduction makes
//! the same data-parallelism explicit through
//! [`config::PipelineConfig::threads`]:
//!
//! * **`threads = 1`** (default) runs every stage inline on the calling
//!   thread.
//! * **`threads = n`** fans the per-cluster pair checks (SGB step 6), the
//!   per-edge metadata checks (MMP) and the per-edge sampling/anti-join
//!   checks (CLP) out over `n` workers; **`0`** uses all hardware threads.
//!
//! **Determinism guarantee:** the thread count changes wall clock only.
//! Graphs, cluster lists, stage statistics and meter totals are bit-for-bit
//! identical for every `threads` value, because (a) each work item only
//! reads the immutable lake and an atomic meter, (b) results are merged in
//! input order, and (c) every CLP edge draws from its own RNG stream seeded
//! by `(config.seed, parent, child)` rather than a shared sequential stream
//! (see `tests/integration_parallel.rs`).
//!
//! Two constant-factor optimisations ride along: SGB interns all column
//! names once and compares schema sets as sorted `u32` ids with a bitset
//! fast path ([`r2d2_lake::SchemaInterner`]), and CLP shares each parent's
//! hash multiset across all edges probing that parent
//! ([`r2d2_lake::HashJoinCache`]).

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod approx;
pub mod clp;
pub mod config;
mod dynamic;
mod fanout;
pub mod ingest;
pub mod mmp;
pub mod persist;
pub mod pipeline;
pub mod sampling;
pub mod schema_stats;
pub mod session;
pub mod sgb;
pub mod view;

pub use config::{ClpSampling, PipelineConfig};
pub use ingest::{FileIngest, IngestOptions, IngestReport};
pub use persist::{Failpoints, PersistenceConfig, SessionSnapshot};
pub use pipeline::{PipelineReport, R2d2Pipeline, Stage, StageReport};
pub use r2d2_lake::{AppliedUpdate, LakeUpdate};
pub use r2d2_opt::advisor::{AdvisorConfig, AdvisorReport};
pub use session::{GroupCommit, GroupOutcome, R2d2Session, SessionReport, UpdateReport};
pub use sgb::{SchemaCluster, SgbResult};
pub use view::SessionView;
