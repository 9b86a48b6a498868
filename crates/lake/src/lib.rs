//! # r2d2-lake — data lake substrate for the R2D2 reproduction
//!
//! The R2D2 paper (SIGMOD 2023) runs on top of Apache Spark over an
//! Azure Data Lake (ADLS Gen2) holding partitioned parquet tables. This crate
//! is the from-scratch substitute for that substrate: a small columnar table
//! engine providing exactly the primitives the R2D2 pipeline relies on:
//!
//! * **Typed values and columns** ([`value::Value`], [`column::Column`]) with
//!   a canonical ordering and hashing so that row tuples can be compared
//!   across tables.
//! * **Nested ("tree") schemas** ([`schema::Schema`]) that flatten to schema
//!   sets (`product.price`, `product.id`, …) as described in §4.1 of the
//!   paper.
//! * **Partitioned tables** ([`partition::PartitionedTable`]) carrying
//!   per-partition, per-column min/max/null statistics — the metadata that
//!   Min-Max Pruning (Algorithm 2) reads instead of scanning rows.
//! * **A binary columnar storage format** ([`storage`]) with a statistics
//!   footer, standing in for parquet files in ADLS.
//! * **Durability building blocks** ([`snapshot`], [`wal`]) — canonical
//!   binary codecs for catalog/update/cache state and a checksummed
//!   write-ahead-log file format, the substrate of
//!   `r2d2_core::R2d2Session`'s snapshot + warm-restart persistence.
//! * **Predicate queries, sampling and anti-joins** ([`query`]) — the
//!   operations Content-Level Pruning (Algorithm 3) issues
//!   (`SELECT * FROM A WHERE col = v`, left-anti join against the parent).
//!   Scans gather matches through a single pre-sized builder, uniform
//!   sampling draws `k` of `n` rows in O(k), and repeated probes against
//!   one parent share its hash multiset via [`query::HashJoinCache`].
//! * **Interned schema sets** ([`schema::SchemaInterner`]) — column names
//!   mapped to dense `u32` symbols so schema-containment checks are sorted
//!   id merge-walks with a bitset fast path instead of string-set subset
//!   tests.
//! * **Operation metering** ([`meter`]) — row and byte scan counters used to
//!   reproduce Table 3 (pairwise row-level operation counts) and the GDPR
//!   row-scan savings of Table 7.
//! * **A catalog** ([`catalog::DataLake`]) mapping dataset ids to tables,
//!   sizes, access frequencies and lineage, playing the role of the
//!   enterprise data lake namespace.
//!
//! The engine is deliberately simple — it is not a general-purpose query
//! engine — but it preserves the *cost structure* that R2D2 exploits:
//! metadata lookups are O(#partitions), predicate sampling touches only the
//! partitions whose min/max ranges admit the predicate, and containment
//! checks are hash joins over the child's schema projection.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod builder;
pub mod catalog;
pub mod column;
pub mod csv;
pub mod datatype;
pub mod error;
pub mod meter;
pub mod partition;
pub mod query;
pub mod row;
pub mod schema;
pub mod sketch;
pub mod snapshot;
pub mod stats;
pub mod storage;
pub mod table;
pub mod update;
pub mod value;
pub mod wal;

pub use builder::TableBuilder;
pub use catalog::{AccessLog, AccessProfile, DataLake, DatasetEntry, DatasetId, Lineage};
pub use column::Column;
pub use csv::{CsvOptions, CsvRead, IngestError, QuarantinedRow};
pub use datatype::DataType;
pub use error::{LakeError, Result};
pub use meter::{Meter, OpCounts};
pub use partition::{ColumnMeta, PartitionSpec, PartitionedTable};
pub use query::{ContainmentCheck, HashJoinCache, Predicate};
pub use row::{Row, RowHash, RowHashMap, RowHashMapHasher};
pub use schema::{Field, InternedSchemaSet, Schema, SchemaInterner, SchemaNode, SchemaSet};
pub use sketch::ColumnSketch;
pub use stats::ColumnStats;
pub use table::Table;
pub use update::{AppliedUpdate, LakeUpdate};
pub use value::Value;
