//! [`SessionView`] — the immutable, share-safe read side of a session.
//!
//! [`crate::session::R2d2Session`] is a mutable engine: `apply_batch`
//! rewrites the catalog, the graph, the caches and the meter in place, so
//! every read through `&R2d2Session` contends with the writer for the whole
//! session. A [`SessionView`] is the split the serve layer needs: a
//! self-contained snapshot of everything a reader may observe — catalog,
//! containment graph, advisor solution, meter totals — captured at one
//! commit point by [`crate::session::R2d2Session::view`] and then never
//! mutated again.
//!
//! The capture is cheap where it matters: the catalog view shares every
//! dataset's `Arc`'d table (no row is copied; later session mutations
//! install fresh `Arc`s and leave the view untouched), the graph and advisor
//! solution are cloned once and wrapped in `Arc`s so views can be
//! re-published across epochs, and the meter is a plain [`OpCounts`] value.
//! Queries through the view still tally into the lake's **shared**
//! [`r2d2_lake::AccessLog`] — reader traffic keeps feeding the Eq. 3 access
//! profiles — but their scans land on the view's own detached meter, so the
//! writer's op counts stay a deterministic function of the applied update
//! stream (`tests/integration_serve.rs` pins that with the serve layer's
//! snapshot-isolation oracle).

use r2d2_graph::ContainmentGraph;
use r2d2_lake::{DataLake, DatasetId, OpCounts, Predicate, Result, Table};
use r2d2_opt::Solution;
use std::sync::Arc;

/// An immutable point-in-time view of a session: the read-only half of the
/// [`crate::session::R2d2Session`] split. `Send + Sync` and cheap to share;
/// see the [module docs](self) for what is shared vs copied.
#[derive(Debug, Clone)]
pub struct SessionView {
    lake: DataLake,
    graph: Arc<ContainmentGraph>,
    advice: Option<Arc<Solution>>,
    ops: OpCounts,
    updates_applied: usize,
    batches_applied: usize,
}

impl SessionView {
    pub(crate) fn new(
        lake: DataLake,
        graph: Arc<ContainmentGraph>,
        advice: Option<Arc<Solution>>,
        ops: OpCounts,
        updates_applied: usize,
        batches_applied: usize,
    ) -> Self {
        SessionView {
            lake,
            graph,
            advice,
            ops,
            updates_applied,
            batches_applied,
        }
    }

    /// The catalog as of the capture point (a
    /// [`reader view`](DataLake::reader_view): shared tables and access log,
    /// detached meter).
    pub fn lake(&self) -> &DataLake {
        &self.lake
    }

    /// The containment graph as of the capture point.
    pub fn graph(&self) -> &ContainmentGraph {
        &self.graph
    }

    /// The storage advisor's Opt-Ret solution as of the capture point
    /// (`None` when the session had no advisor attached).
    pub fn advice(&self) -> Option<&Solution> {
        self.advice.as_deref()
    }

    /// The session's cumulative meter totals as of the capture point. This
    /// is writer-side work only — reader queries meter into
    /// [`SessionView::read_ops`] instead.
    pub fn ops(&self) -> OpCounts {
        self.ops
    }

    /// Work metered by queries served *through this view* since its capture
    /// (the view's detached read-side meter).
    pub fn read_ops(&self) -> OpCounts {
        self.lake.meter().snapshot()
    }

    /// Updates applied to the session when the view was captured.
    pub fn updates_applied(&self) -> usize {
        self.updates_applied
    }

    /// Successful batches applied when the view was captured.
    pub fn batches_applied(&self) -> usize {
        self.batches_applied
    }

    /// Datasets in the captured catalog.
    pub fn datasets(&self) -> usize {
        self.lake.len()
    }

    /// Edges in the captured containment graph.
    pub fn edges(&self) -> usize {
        self.graph.edge_count()
    }

    /// Serve a customer query against the captured catalog: scans the
    /// dataset's immutable snapshot, meters into the view's detached meter
    /// and tallies the access on the shared access log (see
    /// [`DataLake::query_dataset`]).
    pub fn query_dataset(
        &self,
        id: DatasetId,
        predicate: &Predicate,
        limit: Option<usize>,
    ) -> Result<Table> {
        self.lake.query_dataset(id, predicate, limit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn _assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn view_is_send_and_sync() {
        _assert_send_sync::<SessionView>();
    }
}
