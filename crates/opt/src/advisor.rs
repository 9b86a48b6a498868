//! Incremental storage advisor: Opt-Ret kept live under lake updates.
//!
//! The batch entry points of this crate ([`crate::preprocess`] +
//! [`OptRetProblem::from_graph`] + [`crate::solver::solve`]) rebuild and
//! re-solve the whole instance from scratch. A long-lived service instead
//! keeps an [`AdvisorState`]: the §5.1-pruned problem held in sync with the
//! containment graph's [`EdgeDelta`]s and the lake's dataset changes, plus a
//! per-weakly-connected-component solution cache. A delta only *dirties* the
//! components it touches; [`AdvisorState::advise`] re-solves exactly those —
//! through the same per-component dispatch the batch
//! [`crate::solver::solve_with_limit`] uses (Dyn-Lin on chains, exact branch
//! & bound up to the component limit, greedy above) — and reuses every clean
//! component's cached solution.
//!
//! **Oracle guarantee.** After any update sequence the incremental solution
//! is *identical* (same retained/deleted sets, same reconstruction parents,
//! same total cost) to [`from_scratch`] over the mutated lake and graph:
//! both paths build canonically ordered problems from the same cost model
//! and route every component through the same solver dispatch.
//! `tests/integration_advisor.rs` pins this with a randomized oracle driven
//! through `r2d2_core::R2d2Session`.

use crate::costmodel::CostModel;
use crate::preprocess::TransformKnowledge;
use crate::problem::{NodeCosts, OptRetProblem, ReconstructionEdge};
use crate::savings::{gdpr_savings, table7_row, GdprSavings, Table7Row};
use crate::solver::{self, Solution, EXACT_COMPONENT_LIMIT};
use r2d2_graph::diff::EdgeDelta;
use r2d2_graph::ContainmentGraph;
use r2d2_lake::{DataLake, DatasetId, Result};
use std::collections::{BTreeMap, BTreeSet};

/// Configuration of an [`AdvisorState`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdvisorConfig {
    /// Component-size threshold below which dirty components are re-solved
    /// exactly (see [`EXACT_COMPONENT_LIMIT`]).
    pub exact_component_limit: usize,
    /// §5.1 transformation-knowledge policy for admitting reconstruction
    /// edges.
    pub knowledge: TransformKnowledge,
    /// Privacy-initiated full scans per dataset per week assumed by the
    /// GDPR / Table-7 savings of [`AdvisorState::report`].
    pub scans_per_week: f64,
}

impl Default for AdvisorConfig {
    fn default() -> Self {
        AdvisorConfig {
            exact_component_limit: EXACT_COMPONENT_LIMIT,
            knowledge: TransformKnowledge::Required,
            scans_per_week: 1.0,
        }
    }
}

impl AdvisorConfig {
    /// Override the transformation-knowledge policy (builder style).
    pub fn with_knowledge(mut self, knowledge: TransformKnowledge) -> Self {
        self.knowledge = knowledge;
        self
    }
}

/// How one dataset changed in a batch of lake updates, from the advisor's
/// point of view (the coalesced per-dataset effect of
/// `r2d2_core::R2d2Session::apply_batch`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetChange {
    /// The dataset was created.
    Added,
    /// The dataset's rows (and hence size / costs) changed.
    ContentChanged,
    /// The dataset was removed from the lake.
    Dropped,
}

/// What the last [`AdvisorState::advise`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResolveStats {
    /// Weakly connected components of the current pruned problem.
    pub components_total: usize,
    /// Components whose cached solution was reused untouched.
    pub components_reused: usize,
    /// Components re-solved because a delta dirtied them.
    pub components_resolved: usize,
}

/// Savings summary returned by [`AdvisorState::report`].
#[derive(Debug, Clone, PartialEq)]
pub struct AdvisorReport {
    /// The current Opt-Ret solution.
    pub solution: Solution,
    /// Eq. 3 objective of the solution.
    pub total_cost: f64,
    /// Cost of retaining everything (the do-nothing baseline).
    pub retain_all_cost: f64,
    /// `retain_all_cost − total_cost`.
    pub savings: f64,
    /// Table-7-style deletion/retention counters.
    pub table7: Table7Row,
    /// GDPR row-scan savings of the recommended deletions.
    pub gdpr: GdprSavings,
    /// What the advise pass backing this report re-solved vs reused.
    pub stats: ResolveStats,
}

/// One cached component solution.
#[derive(Debug, Clone)]
struct CachedComponent {
    /// Sorted member node ids.
    nodes: Vec<u64>,
    solution: Solution,
}

/// The incremental Opt-Ret state: pruned problem + per-component solutions.
#[derive(Debug, Clone)]
pub struct AdvisorState {
    model: CostModel,
    config: AdvisorConfig,
    /// Current per-node costs, one entry per live lake dataset.
    nodes: BTreeMap<u64, NodeCosts>,
    /// Current §5.1-admissible reconstruction edges, canonically keyed.
    edges: BTreeMap<(u64, u64), f64>,
    /// Nodes whose component must be re-solved on the next advise pass.
    dirty: BTreeSet<u64>,
    /// Whether the problem changed at all since the last advise pass
    /// (covers structural changes `dirty` alone cannot express, e.g.
    /// dropping an isolated node). When false, [`AdvisorState::advise`]
    /// returns the stored solution without touching the components.
    stale: bool,
    /// Cached component solutions keyed by the component's smallest node id.
    cache: BTreeMap<u64, CachedComponent>,
    /// Last merged solution.
    solution: Solution,
    stats: ResolveStats,
}

impl AdvisorState {
    /// Build the advisor from the current lake and containment graph: prune
    /// edges per §5.1 (without mutating `graph`), price every node, and mark
    /// everything dirty so the first [`AdvisorState::advise`] solves from
    /// scratch.
    ///
    /// Nodes are the *live lake datasets*; graph nodes without a catalog
    /// entry (e.g. the stable isolated nodes a session keeps for dropped
    /// datasets) are ignored, as are edges touching them.
    pub fn build(
        lake: &DataLake,
        graph: &ContainmentGraph,
        model: CostModel,
        config: AdvisorConfig,
    ) -> Result<Self> {
        let mut state = AdvisorState {
            model,
            config,
            nodes: BTreeMap::new(),
            edges: BTreeMap::new(),
            dirty: BTreeSet::new(),
            stale: true,
            cache: BTreeMap::new(),
            solution: Solution {
                retained: BTreeSet::new(),
                deleted: BTreeSet::new(),
                reconstruction_parent: BTreeMap::new(),
                total_cost: 0.0,
            },
            stats: ResolveStats::default(),
        };
        for entry in lake.iter() {
            state.nodes.insert(entry.id.0, state.node_costs(entry));
            state.dirty.insert(entry.id.0);
        }
        for (parent, child) in graph.edges() {
            state.refresh_edge(lake, graph, parent, child)?;
        }
        Ok(state)
    }

    /// The advisor's configuration.
    pub fn config(&self) -> &AdvisorConfig {
        &self.config
    }

    /// The advisor's cost model.
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// Whether any component is waiting to be re-solved.
    pub fn is_dirty(&self) -> bool {
        !self.dirty.is_empty()
    }

    /// What the last [`AdvisorState::advise`] pass re-solved vs reused.
    pub fn last_resolve_stats(&self) -> ResolveStats {
        self.stats
    }

    fn node_costs(&self, entry: &r2d2_lake::DatasetEntry) -> NodeCosts {
        let size = entry.byte_size() as u64;
        NodeCosts {
            dataset: entry.id.0,
            size_bytes: size,
            retention_cost: self
                .model
                .retention_cost(size, entry.access.maintenance_per_period),
            accesses: entry.access.accesses_per_period,
        }
    }

    /// §5.1 admission of one graph edge: `Some(cost)` when the
    /// transformation is known under `config.knowledge` and the
    /// reconstruction latency is within the QoS threshold. Mirrors
    /// [`crate::preprocess::preprocess_for_safe_deletion`] exactly (which
    /// recomputes and overwrites any cost annotation), so the incremental
    /// problem matches a from-scratch preprocess bit-for-bit.
    fn admissible_cost(
        &self,
        lake: &DataLake,
        graph: &ContainmentGraph,
        parent: u64,
        child: u64,
    ) -> Result<Option<f64>> {
        let parent_entry = lake.dataset(DatasetId(parent))?;
        let child_entry = lake.dataset(DatasetId(child))?;
        let known = match self.config.knowledge {
            TransformKnowledge::AssumeKnown => true,
            TransformKnowledge::Required => {
                child_entry
                    .lineage
                    .as_ref()
                    .map(|l| l.parent.0 == parent)
                    .unwrap_or(false)
                    || graph
                        .edge(parent, child)
                        .map(|e| e.transform.is_some())
                        .unwrap_or(false)
            }
        };
        if !known {
            return Ok(None);
        }
        let p_bytes = parent_entry.byte_size() as u64;
        let c_bytes = child_entry.byte_size() as u64;
        if !self.model.latency_ok(p_bytes, c_bytes) {
            return Ok(None);
        }
        Ok(Some(self.model.reconstruction_cost(p_bytes, c_bytes)))
    }

    /// Re-evaluate one graph edge's admission and cost, updating the pruned
    /// problem and dirtying both endpoints when anything changed. Edges
    /// touching nodes the advisor does not track are ignored.
    fn refresh_edge(
        &mut self,
        lake: &DataLake,
        graph: &ContainmentGraph,
        parent: u64,
        child: u64,
    ) -> Result<()> {
        if !self.nodes.contains_key(&parent) || !self.nodes.contains_key(&child) {
            return Ok(());
        }
        let new = self.admissible_cost(lake, graph, parent, child)?;
        let old = self.edges.get(&(parent, child)).copied();
        if new != old {
            match new {
                Some(cost) => self.edges.insert((parent, child), cost),
                None => self.edges.remove(&(parent, child)),
            };
            self.dirty.insert(parent);
            self.dirty.insert(child);
            self.stale = true;
        }
        Ok(())
    }

    /// Remove one problem edge (graph edge gone), dirtying both endpoints.
    fn drop_edge(&mut self, parent: u64, child: u64) {
        if self.edges.remove(&(parent, child)).is_some() {
            self.dirty.insert(parent);
            self.dirty.insert(child);
            self.stale = true;
        }
    }

    /// Sync the pruned problem with one applied update batch: `changes` is
    /// the coalesced per-dataset effect, `delta` the containment-graph edge
    /// diff the batch produced. `lake` and `graph` must already reflect the
    /// batch (post-mutation state).
    pub fn apply(
        &mut self,
        lake: &DataLake,
        graph: &ContainmentGraph,
        changes: &[(u64, DatasetChange)],
        delta: &EdgeDelta,
    ) -> Result<()> {
        // 1. Edges the batch removed from the graph leave the problem.
        for &(parent, child) in &delta.removed {
            self.drop_edge(parent, child);
        }

        // 2. Node-level changes.
        for &(d, change) in changes {
            match change {
                DatasetChange::Dropped => {
                    // Even an isolated node disappearing changes the
                    // component partition, so the drop always marks the
                    // state stale.
                    self.stale = self.nodes.remove(&d).is_some() || self.stale;
                    self.dirty.remove(&d);
                    let incident: Vec<(u64, u64)> = self
                        .edges
                        .keys()
                        .copied()
                        .filter(|&(p, c)| p == d || c == d)
                        .collect();
                    for (p, c) in incident {
                        self.edges.remove(&(p, c));
                        let other = if p == d { c } else { p };
                        self.dirty.insert(other);
                    }
                }
                DatasetChange::Added => {
                    let entry = lake.dataset(DatasetId(d))?;
                    self.nodes.insert(d, self.node_costs(entry));
                    self.dirty.insert(d);
                    self.stale = true;
                }
                DatasetChange::ContentChanged => {
                    let entry = lake.dataset(DatasetId(d))?;
                    self.nodes.insert(d, self.node_costs(entry));
                    self.dirty.insert(d);
                    self.stale = true;
                    // Size changes move every incident edge's reconstruction
                    // cost and can flip its latency admission, so the whole
                    // neighbourhood is re-evaluated.
                    for parent in graph.parents(d) {
                        self.refresh_edge(lake, graph, parent, d)?;
                    }
                    for child in graph.children(d) {
                        self.refresh_edge(lake, graph, d, child)?;
                    }
                }
            }
        }

        // 3. Edges the batch added to the graph are admitted (or not) fresh.
        for &(parent, child) in &delta.added {
            self.refresh_edge(lake, graph, parent, child)?;
        }
        Ok(())
    }

    /// Re-read one dataset's costs from the lake (access-profile drift, e.g.
    /// after metered query traffic refreshed `accesses_per_period`) and mark
    /// it dirty if anything moved. Returns whether the costs changed.
    pub fn note_cost_drift(&mut self, lake: &DataLake, dataset: u64) -> Result<bool> {
        if !self.nodes.contains_key(&dataset) {
            return Ok(false);
        }
        let entry = lake.dataset(DatasetId(dataset))?;
        let fresh = self.node_costs(entry);
        if self.nodes.get(&dataset) != Some(&fresh) {
            self.nodes.insert(dataset, fresh);
            self.dirty.insert(dataset);
            self.stale = true;
            return Ok(true);
        }
        Ok(false)
    }

    /// Materialize the current pruned problem (canonical node and edge
    /// order) — what [`from_scratch`] would build over the same lake state.
    pub fn problem(&self) -> OptRetProblem {
        OptRetProblem {
            nodes: self.nodes.clone(),
            edges: self
                .edges
                .iter()
                .map(|(&(parent, child), &cost)| ReconstructionEdge {
                    parent,
                    child,
                    cost,
                })
                .collect(),
        }
    }

    /// Bring the solution up to date: re-solve every component a delta
    /// dirtied (Dyn-Lin on chains, exact up to the component limit, greedy
    /// above) and reuse the cached solution of every clean component, then
    /// merge in component order. When nothing changed since the last pass,
    /// returns the stored solution without touching the components at all.
    pub fn advise(&mut self) -> &Solution {
        if !self.stale {
            self.stats = ResolveStats {
                components_total: self.cache.len(),
                components_reused: self.cache.len(),
                components_resolved: 0,
            };
            return &self.solution;
        }
        // Component enumeration and restriction go through the same solver
        // helpers `solve_with_limit` uses, so the advisor's merge order (and
        // hence float summation order) matches a from-scratch solve exactly.
        let problem = self.problem();
        let components = solver::components(&problem);
        let mut cache: BTreeMap<u64, CachedComponent> = BTreeMap::new();
        let mut stats = ResolveStats {
            components_total: components.len(),
            ..ResolveStats::default()
        };
        for members in components {
            let key = members[0];
            // Move (not clone) reusable entries out of the old cache — it is
            // replaced wholesale below, so anything left behind is dropped.
            let reusable = self
                .cache
                .remove(&key)
                .filter(|c| c.nodes == members && members.iter().all(|n| !self.dirty.contains(n)));
            let entry = match reusable {
                Some(entry) => {
                    stats.components_reused += 1;
                    entry
                }
                None => {
                    stats.components_resolved += 1;
                    CachedComponent {
                        solution: solver::solve_component(
                            &solver::sub_problem(&problem, &members),
                            self.config.exact_component_limit,
                        ),
                        nodes: members,
                    }
                }
            };
            cache.insert(key, entry);
        }
        self.cache = cache;
        self.dirty.clear();
        self.stale = false;
        self.stats = stats;

        let mut merged = Solution {
            retained: BTreeSet::new(),
            deleted: BTreeSet::new(),
            reconstruction_parent: BTreeMap::new(),
            total_cost: 0.0,
        };
        for entry in self.cache.values() {
            merged.retained.extend(entry.solution.retained.iter());
            merged.deleted.extend(entry.solution.deleted.iter());
            merged
                .reconstruction_parent
                .extend(entry.solution.reconstruction_parent.iter());
            merged.total_cost += entry.solution.total_cost;
        }
        self.solution = merged;
        &self.solution
    }

    /// [`AdvisorState::advise`] plus Table-7-style and GDPR savings against
    /// the lake.
    pub fn report(&mut self, lake: &DataLake) -> Result<AdvisorReport> {
        let scans_per_week = self.config.scans_per_week;
        let solution = self.advise().clone();
        let problem = self.problem();
        let table7 = table7_row(&solution, &problem, lake, scans_per_week)?;
        let gdpr = gdpr_savings(&solution, lake, scans_per_week)?;
        Ok(AdvisorReport {
            total_cost: solution.total_cost,
            retain_all_cost: problem.retain_all_cost(),
            savings: solution.savings(&problem),
            table7,
            gdpr,
            stats: self.stats,
            solution,
        })
    }
}

// ---------------------------------------------------------------------------
// Binary serialization (durable session snapshots)
// ---------------------------------------------------------------------------

use bytes::{Buf, BufMut, Bytes, BytesMut};
use r2d2_lake::snapshot::{
    expect_len, get_bool, get_f64, get_tag, get_u64, get_usize, put_bool, put_usize,
};

fn put_solution(buf: &mut BytesMut, s: &Solution) {
    buf.put_u32_le(s.retained.len() as u32);
    for &d in &s.retained {
        buf.put_u64_le(d);
    }
    buf.put_u32_le(s.deleted.len() as u32);
    for &d in &s.deleted {
        buf.put_u64_le(d);
    }
    buf.put_u32_le(s.reconstruction_parent.len() as u32);
    for (&child, &parent) in &s.reconstruction_parent {
        buf.put_u64_le(child);
        buf.put_u64_le(parent);
    }
    buf.put_f64_le(s.total_cost);
}

fn get_solution(buf: &mut Bytes) -> Result<Solution> {
    expect_len(buf, 4, "solution retained length")?;
    let retained_len = buf.get_u32_le() as usize;
    let mut retained = BTreeSet::new();
    for _ in 0..retained_len {
        retained.insert(get_u64(buf)?);
    }
    expect_len(buf, 4, "solution deleted length")?;
    let deleted_len = buf.get_u32_le() as usize;
    let mut deleted = BTreeSet::new();
    for _ in 0..deleted_len {
        deleted.insert(get_u64(buf)?);
    }
    expect_len(buf, 4, "solution parent map length")?;
    let parent_len = buf.get_u32_le() as usize;
    let mut reconstruction_parent = BTreeMap::new();
    for _ in 0..parent_len {
        let child = get_u64(buf)?;
        let parent = get_u64(buf)?;
        reconstruction_parent.insert(child, parent);
    }
    Ok(Solution {
        retained,
        deleted,
        reconstruction_parent,
        total_cost: get_f64(buf)?,
    })
}

impl AdvisorState {
    /// Encode the complete advisor state — cost model, configuration,
    /// pruned problem, dirty set, per-component solution cache and the last
    /// merged solution — so a restored session re-advises without re-solving
    /// clean components. The encoding is canonical: maps are walked in key
    /// order, so equal states produce equal bytes.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        // Cost model (seven f64 fields).
        for v in [
            self.model.storage_per_gb_period,
            self.model.read_per_gb,
            self.model.write_per_gb,
            self.model.maintenance_per_gb_op,
            self.model.read_latency_per_gb,
            self.model.write_latency_per_gb,
            self.model.latency_threshold,
        ] {
            buf.put_f64_le(v);
        }
        // Config.
        put_usize(&mut buf, self.config.exact_component_limit);
        buf.put_u8(match self.config.knowledge {
            TransformKnowledge::Required => 0,
            TransformKnowledge::AssumeKnown => 1,
        });
        buf.put_f64_le(self.config.scans_per_week);
        // Nodes.
        buf.put_u32_le(self.nodes.len() as u32);
        for node in self.nodes.values() {
            buf.put_u64_le(node.dataset);
            buf.put_u64_le(node.size_bytes);
            buf.put_f64_le(node.retention_cost);
            buf.put_f64_le(node.accesses);
        }
        // Edges.
        buf.put_u32_le(self.edges.len() as u32);
        for (&(parent, child), &cost) in &self.edges {
            buf.put_u64_le(parent);
            buf.put_u64_le(child);
            buf.put_f64_le(cost);
        }
        // Dirty set + staleness.
        buf.put_u32_le(self.dirty.len() as u32);
        for &d in &self.dirty {
            buf.put_u64_le(d);
        }
        put_bool(&mut buf, self.stale);
        // Component cache.
        buf.put_u32_le(self.cache.len() as u32);
        for (&key, component) in &self.cache {
            buf.put_u64_le(key);
            buf.put_u32_le(component.nodes.len() as u32);
            for &n in &component.nodes {
                buf.put_u64_le(n);
            }
            put_solution(&mut buf, &component.solution);
        }
        // Merged solution + resolve stats.
        put_solution(&mut buf, &self.solution);
        put_usize(&mut buf, self.stats.components_total);
        put_usize(&mut buf, self.stats.components_reused);
        put_usize(&mut buf, self.stats.components_resolved);
        buf.freeze()
    }

    /// Decode a state produced by [`AdvisorState::encode`], consuming from
    /// the front of `buf`.
    pub fn decode(buf: &mut Bytes) -> Result<Self> {
        expect_len(buf, 56, "advisor cost model")?;
        let model = CostModel {
            storage_per_gb_period: buf.get_f64_le(),
            read_per_gb: buf.get_f64_le(),
            write_per_gb: buf.get_f64_le(),
            maintenance_per_gb_op: buf.get_f64_le(),
            read_latency_per_gb: buf.get_f64_le(),
            write_latency_per_gb: buf.get_f64_le(),
            latency_threshold: buf.get_f64_le(),
        };
        let exact_component_limit = get_usize(buf)?;
        let knowledge = match get_tag(buf, "advisor knowledge tag")? {
            0 => TransformKnowledge::Required,
            1 => TransformKnowledge::AssumeKnown,
            other => {
                return Err(r2d2_lake::LakeError::Corrupt(format!(
                    "unknown knowledge tag {other}"
                )))
            }
        };
        let config = AdvisorConfig {
            exact_component_limit,
            knowledge,
            scans_per_week: get_f64(buf)?,
        };
        expect_len(buf, 4, "advisor node count")?;
        let node_count = buf.get_u32_le() as usize;
        let mut nodes = BTreeMap::new();
        for _ in 0..node_count {
            expect_len(buf, 32, "advisor node")?;
            let node = NodeCosts {
                dataset: buf.get_u64_le(),
                size_bytes: buf.get_u64_le(),
                retention_cost: buf.get_f64_le(),
                accesses: buf.get_f64_le(),
            };
            nodes.insert(node.dataset, node);
        }
        expect_len(buf, 4, "advisor edge count")?;
        let edge_count = buf.get_u32_le() as usize;
        let mut edges = BTreeMap::new();
        for _ in 0..edge_count {
            expect_len(buf, 24, "advisor edge")?;
            let parent = buf.get_u64_le();
            let child = buf.get_u64_le();
            edges.insert((parent, child), buf.get_f64_le());
        }
        expect_len(buf, 4, "advisor dirty count")?;
        let dirty_count = buf.get_u32_le() as usize;
        let mut dirty = BTreeSet::new();
        for _ in 0..dirty_count {
            dirty.insert(get_u64(buf)?);
        }
        let stale = get_bool(buf)?;
        expect_len(buf, 4, "advisor cache count")?;
        let cache_count = buf.get_u32_le() as usize;
        let mut cache = BTreeMap::new();
        for _ in 0..cache_count {
            let key = get_u64(buf)?;
            expect_len(buf, 4, "advisor component size")?;
            let members = buf.get_u32_le() as usize;
            let mut component_nodes = Vec::with_capacity(members.min(4096));
            for _ in 0..members {
                component_nodes.push(get_u64(buf)?);
            }
            let solution = get_solution(buf)?;
            cache.insert(
                key,
                CachedComponent {
                    nodes: component_nodes,
                    solution,
                },
            );
        }
        let solution = get_solution(buf)?;
        let stats = ResolveStats {
            components_total: get_usize(buf)?,
            components_reused: get_usize(buf)?,
            components_resolved: get_usize(buf)?,
        };
        Ok(AdvisorState {
            model,
            config,
            nodes,
            edges,
            dirty,
            stale,
            cache,
            solution,
            stats,
        })
    }
}

// ---------------------------------------------------------------------------
// Delta serialization (delta snapshot generations)
// ---------------------------------------------------------------------------

/// Fingerprint of an [`AdvisorState`] that a later [`AdvisorState::encode_delta`]
/// diffs against: an identity checksum over the cost model + config, per-node
/// and per-edge value bits (f64s compared via `to_bits`, so NaN-safe and
/// bit-exact), and a checksum per cached component.
#[derive(Debug, Clone)]
pub struct AdvisorCapture {
    identity: u64,
    nodes: BTreeMap<u64, (u64, u64, u64)>,
    edges: BTreeMap<(u64, u64), u64>,
    cache: BTreeMap<u64, u64>,
}

fn put_component(buf: &mut BytesMut, component: &CachedComponent) {
    buf.put_u32_le(component.nodes.len() as u32);
    for &n in &component.nodes {
        buf.put_u64_le(n);
    }
    put_solution(buf, &component.solution);
}

fn get_component(buf: &mut Bytes) -> Result<CachedComponent> {
    expect_len(buf, 4, "advisor component size")?;
    let members = buf.get_u32_le() as usize;
    let mut nodes = Vec::with_capacity(members.min(4096));
    for _ in 0..members {
        nodes.push(get_u64(buf)?);
    }
    let solution = get_solution(buf)?;
    Ok(CachedComponent { nodes, solution })
}

fn component_checksum(component: &CachedComponent) -> u64 {
    let mut buf = BytesMut::new();
    put_component(&mut buf, component);
    r2d2_lake::wal::checksum(&buf.freeze())
}

impl AdvisorState {
    fn identity_checksum(&self) -> u64 {
        let mut buf = BytesMut::new();
        for v in [
            self.model.storage_per_gb_period,
            self.model.read_per_gb,
            self.model.write_per_gb,
            self.model.maintenance_per_gb_op,
            self.model.read_latency_per_gb,
            self.model.write_latency_per_gb,
            self.model.latency_threshold,
        ] {
            buf.put_u64_le(v.to_bits());
        }
        put_usize(&mut buf, self.config.exact_component_limit);
        buf.put_u8(match self.config.knowledge {
            TransformKnowledge::Required => 0,
            TransformKnowledge::AssumeKnown => 1,
        });
        buf.put_u64_le(self.config.scans_per_week.to_bits());
        r2d2_lake::wal::checksum(&buf.freeze())
    }

    /// Capture the fingerprint a later [`AdvisorState::encode_delta`] diffs
    /// against.
    pub fn capture(&self) -> AdvisorCapture {
        AdvisorCapture {
            identity: self.identity_checksum(),
            nodes: self
                .nodes
                .iter()
                .map(|(&d, n)| {
                    (
                        d,
                        (
                            n.size_bytes,
                            n.retention_cost.to_bits(),
                            n.accesses.to_bits(),
                        ),
                    )
                })
                .collect(),
            edges: self
                .edges
                .iter()
                .map(|(&k, &cost)| (k, cost.to_bits()))
                .collect(),
            cache: self
                .cache
                .iter()
                .map(|(&k, c)| (k, component_checksum(c)))
                .collect(),
        }
    }

    /// Encode only what changed since `base` was [captured](Self::capture):
    /// removed + upserted nodes, edges and cached components, plus the small
    /// always-rewritten tail (dirty set, staleness, merged solution, resolve
    /// stats). Returns `None` when the cost model or config changed — those
    /// invalidate everything, so the caller should write a full encoding
    /// instead. Like [`AdvisorState::encode`], the delta is canonical.
    pub fn encode_delta(&self, base: &AdvisorCapture) -> Option<Bytes> {
        if self.identity_checksum() != base.identity {
            return None;
        }
        let mut buf = BytesMut::new();
        buf.put_u64_le(base.identity);
        let removed_nodes: Vec<u64> = base
            .nodes
            .keys()
            .filter(|d| !self.nodes.contains_key(d))
            .copied()
            .collect();
        buf.put_u32_le(removed_nodes.len() as u32);
        for d in removed_nodes {
            buf.put_u64_le(d);
        }
        let upserted_nodes: Vec<&NodeCosts> = self
            .nodes
            .iter()
            .filter(|(d, n)| {
                base.nodes.get(d)
                    != Some(&(
                        n.size_bytes,
                        n.retention_cost.to_bits(),
                        n.accesses.to_bits(),
                    ))
            })
            .map(|(_, n)| n)
            .collect();
        buf.put_u32_le(upserted_nodes.len() as u32);
        for node in upserted_nodes {
            buf.put_u64_le(node.dataset);
            buf.put_u64_le(node.size_bytes);
            buf.put_f64_le(node.retention_cost);
            buf.put_f64_le(node.accesses);
        }
        let removed_edges: Vec<(u64, u64)> = base
            .edges
            .keys()
            .filter(|k| !self.edges.contains_key(k))
            .copied()
            .collect();
        buf.put_u32_le(removed_edges.len() as u32);
        for (parent, child) in removed_edges {
            buf.put_u64_le(parent);
            buf.put_u64_le(child);
        }
        let upserted_edges: Vec<((u64, u64), f64)> = self
            .edges
            .iter()
            .filter(|(k, cost)| base.edges.get(k) != Some(&cost.to_bits()))
            .map(|(&k, &cost)| (k, cost))
            .collect();
        buf.put_u32_le(upserted_edges.len() as u32);
        for ((parent, child), cost) in upserted_edges {
            buf.put_u64_le(parent);
            buf.put_u64_le(child);
            buf.put_f64_le(cost);
        }
        // Dirty set + staleness: small, always rewritten whole.
        buf.put_u32_le(self.dirty.len() as u32);
        for &d in &self.dirty {
            buf.put_u64_le(d);
        }
        put_bool(&mut buf, self.stale);
        // Component cache diff.
        let removed_cache: Vec<u64> = base
            .cache
            .keys()
            .filter(|k| !self.cache.contains_key(k))
            .copied()
            .collect();
        buf.put_u32_le(removed_cache.len() as u32);
        for k in removed_cache {
            buf.put_u64_le(k);
        }
        let upserted_cache: Vec<(u64, &CachedComponent)> = self
            .cache
            .iter()
            .filter(|(k, c)| base.cache.get(k) != Some(&component_checksum(c)))
            .map(|(&k, c)| (k, c))
            .collect();
        buf.put_u32_le(upserted_cache.len() as u32);
        for (key, component) in upserted_cache {
            buf.put_u64_le(key);
            put_component(&mut buf, component);
        }
        // Merged solution + resolve stats: small, always rewritten whole.
        put_solution(&mut buf, &self.solution);
        put_usize(&mut buf, self.stats.components_total);
        put_usize(&mut buf, self.stats.components_reused);
        put_usize(&mut buf, self.stats.components_resolved);
        Some(buf.freeze())
    }

    /// Patch this state — the decoded *base generation's* advisor — with an
    /// [`AdvisorState::encode_delta`] section. The delta's identity checksum
    /// must match this state's model + config (deltas never change them);
    /// removing an absent node, edge or cached component is a corruption
    /// error, never a panic.
    pub fn apply_delta(&mut self, buf: &mut Bytes) -> Result<()> {
        let identity = get_u64(buf)?;
        if identity != self.identity_checksum() {
            return Err(r2d2_lake::LakeError::Corrupt(
                "advisor delta identity does not match base generation".into(),
            ));
        }
        expect_len(buf, 4, "advisor removed node count")?;
        let removed_nodes = buf.get_u32_le() as usize;
        for _ in 0..removed_nodes {
            let d = get_u64(buf)?;
            if self.nodes.remove(&d).is_none() {
                return Err(r2d2_lake::LakeError::Corrupt(
                    "advisor delta removes an absent node".into(),
                ));
            }
        }
        expect_len(buf, 4, "advisor upserted node count")?;
        let upserted_nodes = buf.get_u32_le() as usize;
        for _ in 0..upserted_nodes {
            expect_len(buf, 32, "advisor upserted node")?;
            let node = NodeCosts {
                dataset: buf.get_u64_le(),
                size_bytes: buf.get_u64_le(),
                retention_cost: buf.get_f64_le(),
                accesses: buf.get_f64_le(),
            };
            self.nodes.insert(node.dataset, node);
        }
        expect_len(buf, 4, "advisor removed edge count")?;
        let removed_edges = buf.get_u32_le() as usize;
        for _ in 0..removed_edges {
            let parent = get_u64(buf)?;
            let child = get_u64(buf)?;
            if self.edges.remove(&(parent, child)).is_none() {
                return Err(r2d2_lake::LakeError::Corrupt(
                    "advisor delta removes an absent edge".into(),
                ));
            }
        }
        expect_len(buf, 4, "advisor upserted edge count")?;
        let upserted_edges = buf.get_u32_le() as usize;
        for _ in 0..upserted_edges {
            expect_len(buf, 24, "advisor upserted edge")?;
            let parent = buf.get_u64_le();
            let child = buf.get_u64_le();
            self.edges.insert((parent, child), buf.get_f64_le());
        }
        expect_len(buf, 4, "advisor dirty count")?;
        let dirty_count = buf.get_u32_le() as usize;
        let mut dirty = BTreeSet::new();
        for _ in 0..dirty_count {
            dirty.insert(get_u64(buf)?);
        }
        self.dirty = dirty;
        self.stale = get_bool(buf)?;
        expect_len(buf, 4, "advisor removed cache count")?;
        let removed_cache = buf.get_u32_le() as usize;
        for _ in 0..removed_cache {
            let k = get_u64(buf)?;
            if self.cache.remove(&k).is_none() {
                return Err(r2d2_lake::LakeError::Corrupt(
                    "advisor delta removes an absent cached component".into(),
                ));
            }
        }
        expect_len(buf, 4, "advisor upserted cache count")?;
        let upserted_cache = buf.get_u32_le() as usize;
        for _ in 0..upserted_cache {
            let key = get_u64(buf)?;
            let component = get_component(buf)?;
            self.cache.insert(key, component);
        }
        self.solution = get_solution(buf)?;
        self.stats = ResolveStats {
            components_total: get_usize(buf)?,
            components_reused: get_usize(buf)?,
            components_resolved: get_usize(buf)?,
        };
        Ok(())
    }
}

/// The from-scratch oracle the incremental advisor is pinned against: build
/// a live-dataset copy of `graph` (annotations preserved, nodes and edges of
/// dropped datasets excluded), run the §5.1 preprocessing, price the
/// problem, and solve with the standard per-component dispatch.
pub fn from_scratch(
    lake: &DataLake,
    graph: &ContainmentGraph,
    model: &CostModel,
    config: &AdvisorConfig,
) -> Result<Solution> {
    let mut live = ContainmentGraph::with_datasets(lake.ids().iter().map(|id| id.0));
    for (parent, child) in graph.edges() {
        if lake.contains(DatasetId(parent)) && lake.contains(DatasetId(child)) {
            if let Some(edge) = graph.edge(parent, child) {
                live.add_edge_with(parent, child, edge.clone());
            }
        }
    }
    crate::preprocess::preprocess_for_safe_deletion(&mut live, lake, model, config.knowledge)?;
    let problem = OptRetProblem::from_graph(&live, lake, model)?;
    Ok(solver::solve_with_limit(
        &problem,
        config.exact_component_limit,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use r2d2_lake::{AccessProfile, Column, DataType, Lineage, PartitionedTable, Schema, Table};

    fn dataset(n: i64) -> PartitionedTable {
        let schema = Schema::flat(&[("x", DataType::Int)]).unwrap();
        PartitionedTable::single(Table::new(schema, vec![Column::from_ints(0..n)]).unwrap())
    }

    /// Lake with two chains sharing no edges: 0 → 1 and 2 → 3 (lineage
    /// recorded), plus an isolated dataset 4.
    fn two_chain_lake() -> (DataLake, ContainmentGraph) {
        let mut lake = DataLake::new();
        let access = AccessProfile {
            accesses_per_period: 0.2,
            maintenance_per_period: 4.0,
        };
        let a = lake
            .add_dataset("a", dataset(60_000), access, None)
            .unwrap();
        lake.add_dataset(
            "a_sub",
            dataset(30_000),
            access,
            Some(Lineage {
                parent: a,
                transform: "WHERE x < 30000".into(),
            }),
        )
        .unwrap();
        let b = lake
            .add_dataset("b", dataset(50_000), access, None)
            .unwrap();
        lake.add_dataset(
            "b_sub",
            dataset(20_000),
            access,
            Some(Lineage {
                parent: b,
                transform: "WHERE x < 20000".into(),
            }),
        )
        .unwrap();
        lake.add_dataset("lonely", dataset(1_000), access, None)
            .unwrap();
        let mut graph = ContainmentGraph::with_datasets(0..5);
        graph.add_edge(0, 1);
        graph.add_edge(2, 3);
        (lake, graph)
    }

    fn advisor(lake: &DataLake, graph: &ContainmentGraph) -> AdvisorState {
        AdvisorState::build(lake, graph, CostModel::default(), AdvisorConfig::default()).unwrap()
    }

    #[test]
    fn build_then_advise_matches_from_scratch() {
        let (lake, graph) = two_chain_lake();
        let mut state = advisor(&lake, &graph);
        assert!(state.is_dirty());
        let incremental = state.advise().clone();
        let fresh = from_scratch(&lake, &graph, state.model(), state.config()).unwrap();
        assert_eq!(incremental, fresh);
        assert!(incremental.is_feasible(&state.problem()));
        let stats = state.last_resolve_stats();
        assert_eq!(stats.components_total, 3);
        assert_eq!(stats.components_resolved, 3);
        assert_eq!(stats.components_reused, 0);

        // A second advise with nothing dirty short-circuits: same solution,
        // every component counted as reused.
        assert!(!state.is_dirty());
        let again = state.advise().clone();
        assert_eq!(again, incremental);
        let stats = state.last_resolve_stats();
        assert_eq!(stats.components_resolved, 0);
        assert_eq!(stats.components_reused, stats.components_total);
    }

    #[test]
    fn clean_components_are_reused() {
        let (mut lake, graph) = two_chain_lake();
        let mut state = advisor(&lake, &graph);
        state.advise();

        // Grow dataset 3: only the {2, 3} component is dirtied.
        lake.append_rows(DatasetId(3), {
            let schema = Schema::flat(&[("x", DataType::Int)]).unwrap();
            Table::new(schema, vec![Column::from_ints(20_000..21_000)]).unwrap()
        })
        .unwrap();
        state
            .apply(
                &lake,
                &graph,
                &[(3, DatasetChange::ContentChanged)],
                &EdgeDelta::default(),
            )
            .unwrap();
        let incremental = state.advise().clone();
        let stats = state.last_resolve_stats();
        assert_eq!(stats.components_total, 3);
        assert_eq!(
            stats.components_resolved, 1,
            "only the dirty chain re-solves"
        );
        assert_eq!(stats.components_reused, 2);
        let fresh = from_scratch(&lake, &graph, state.model(), state.config()).unwrap();
        assert_eq!(incremental, fresh);
    }

    #[test]
    fn drops_and_edge_removals_stay_in_sync() {
        let (mut lake, mut graph) = two_chain_lake();
        let mut state = advisor(&lake, &graph);
        state.advise();

        // Drop dataset 1; its edge disappears from the graph.
        lake.remove_dataset(DatasetId(1)).unwrap();
        graph.clear_dataset(1);
        state
            .apply(
                &lake,
                &graph,
                &[(1, DatasetChange::Dropped)],
                &EdgeDelta {
                    added: vec![],
                    removed: vec![(0, 1)],
                },
            )
            .unwrap();
        let incremental = state.advise().clone();
        assert!(!incremental.retained.contains(&1));
        assert!(!incremental.deleted.contains(&1));
        let fresh = from_scratch(&lake, &graph, state.model(), state.config()).unwrap();
        assert_eq!(incremental, fresh);
    }

    #[test]
    fn access_drift_flips_a_deletion() {
        let (lake, graph) = two_chain_lake();
        let mut state = AdvisorState::build(
            &lake,
            &graph,
            CostModel::default(),
            AdvisorConfig::default(),
        )
        .unwrap();
        let before = state.advise().clone();
        assert!(
            before.deleted.contains(&1),
            "rarely accessed subset starts out deletable"
        );

        // Dataset 1 suddenly becomes hot: reconstruction per access now
        // dwarfs retention.
        let mut lake = lake;
        lake.set_access_profile(
            DatasetId(1),
            AccessProfile {
                accesses_per_period: 1e7,
                maintenance_per_period: 4.0,
            },
        )
        .unwrap();
        assert!(state.note_cost_drift(&lake, 1).unwrap());
        let after = state.advise().clone();
        assert!(
            after.retained.contains(&1),
            "a hot dataset must not be deleted"
        );
        let fresh = from_scratch(&lake, &graph, state.model(), state.config()).unwrap();
        assert_eq!(after, fresh);
        assert!(
            !state.note_cost_drift(&lake, 1).unwrap(),
            "no further drift"
        );
        assert!(
            !state.note_cost_drift(&lake, 99).unwrap(),
            "unknown id is a no-op"
        );
    }

    #[test]
    fn report_carries_savings() {
        let (lake, graph) = two_chain_lake();
        let mut state = advisor(&lake, &graph);
        let report = state.report(&lake).unwrap();
        assert_eq!(
            report.table7.deleted_nodes + report.table7.retained_nodes,
            lake.len()
        );
        assert!(report.total_cost <= report.retain_all_cost + 1e-9);
        assert!((report.savings - (report.retain_all_cost - report.total_cost)).abs() < 1e-9);
        assert_eq!(report.gdpr.datasets_deleted, report.solution.deleted.len());
    }

    #[test]
    fn encode_decode_round_trips_full_state() {
        let (mut lake, graph) = two_chain_lake();
        let mut state = advisor(&lake, &graph);
        state.advise();
        // Leave something dirty so the dirty set / staleness round-trips too.
        lake.append_rows(DatasetId(3), {
            let schema = Schema::flat(&[("x", DataType::Int)]).unwrap();
            Table::new(schema, vec![Column::from_ints(20_000..20_500)]).unwrap()
        })
        .unwrap();
        state
            .apply(
                &lake,
                &graph,
                &[(3, DatasetChange::ContentChanged)],
                &EdgeDelta::default(),
            )
            .unwrap();

        let bytes = state.encode();
        let mut cursor = bytes.clone();
        let mut back = AdvisorState::decode(&mut cursor).unwrap();
        assert_eq!(cursor.remaining(), 0, "decode must consume exactly");
        assert_eq!(back.model(), state.model());
        assert_eq!(back.config(), state.config());
        assert_eq!(back.problem(), state.problem());
        assert_eq!(back.is_dirty(), state.is_dirty());
        assert_eq!(back.encode(), bytes, "canonical bytes");

        // The restored advisor advises identically — including reusing the
        // clean components its cache carried across the round trip.
        let expected = state.advise().clone();
        assert_eq!(back.advise().clone(), expected);
        assert_eq!(back.last_resolve_stats(), state.last_resolve_stats());
        assert!(
            back.last_resolve_stats().components_reused > 0,
            "restored cache must spare clean components"
        );
    }

    #[test]
    fn delta_round_trip_matches_full_encode_bit_for_bit() {
        let (mut lake, graph) = two_chain_lake();
        let mut state = advisor(&lake, &graph);
        state.advise();
        let base = state.capture();
        let base_copy = state.clone();

        // Dirty one chain since the capture.
        lake.append_rows(DatasetId(3), {
            let schema = Schema::flat(&[("x", DataType::Int)]).unwrap();
            Table::new(schema, vec![Column::from_ints(20_000..20_500)]).unwrap()
        })
        .unwrap();
        state
            .apply(
                &lake,
                &graph,
                &[(3, DatasetChange::ContentChanged)],
                &EdgeDelta::default(),
            )
            .unwrap();
        state.advise();

        let delta = state.encode_delta(&base).expect("identity unchanged");
        assert!(
            delta.len() < state.encode().len(),
            "delta must be smaller than the full encoding"
        );
        let mut patched = base_copy.clone();
        let mut cursor = delta.clone();
        patched.apply_delta(&mut cursor).unwrap();
        assert_eq!(cursor.remaining(), 0, "apply must consume exactly");
        assert_eq!(patched.encode(), state.encode(), "bit-identical state");
        // Canonical: the same (base, state) pair re-encodes identically.
        assert_eq!(state.encode_delta(&base).unwrap(), delta);
    }

    #[test]
    fn delta_refuses_model_or_config_changes() {
        let (lake, graph) = two_chain_lake();
        let state = advisor(&lake, &graph);
        let base = state.capture();
        let mut retuned = CostModel::default();
        retuned.storage_per_gb_period += 1.0;
        let rebuilt = AdvisorState::build(&lake, &graph, retuned, *state.config()).unwrap();
        assert!(
            rebuilt.encode_delta(&base).is_none(),
            "model change must force a full encoding"
        );
        // And a delta from the original state refuses to patch the retuned one.
        let delta = state.encode_delta(&base).unwrap();
        let mut wrong_base = rebuilt;
        assert!(wrong_base.apply_delta(&mut delta.clone()).is_err());
    }

    #[test]
    fn corrupt_delta_blobs_are_clean_errors() {
        let (mut lake, graph) = two_chain_lake();
        let mut state = advisor(&lake, &graph);
        state.advise();
        let base = state.capture();
        let base_copy = state.clone();
        lake.remove_dataset(DatasetId(4)).unwrap();
        state
            .apply(
                &lake,
                &graph,
                &[(4, DatasetChange::Dropped)],
                &EdgeDelta::default(),
            )
            .unwrap();
        state.advise();
        let delta = state.encode_delta(&base).unwrap();
        for cut in 0..delta.len() {
            let mut patched = base_copy.clone();
            let mut cursor = delta.slice(0..cut);
            let _ = patched.apply_delta(&mut cursor); // must not panic
        }
    }

    #[test]
    fn decode_rejects_truncated_state() {
        let (lake, graph) = two_chain_lake();
        let bytes = advisor(&lake, &graph).encode();
        for cut in 0..bytes.len() {
            let mut cursor = bytes.slice(0..cut);
            assert!(
                AdvisorState::decode(&mut cursor).is_err(),
                "truncation at {cut} must error, not panic"
            );
        }
    }

    #[test]
    fn assume_known_admits_edges_without_lineage() {
        let mut lake = DataLake::new();
        let access = AccessProfile::default();
        lake.add_dataset("p", dataset(40_000), access, None)
            .unwrap();
        lake.add_dataset("c", dataset(10_000), access, None)
            .unwrap();
        let mut graph = ContainmentGraph::with_datasets(0..2);
        graph.add_edge(0, 1);

        let required = AdvisorState::build(
            &lake,
            &graph,
            CostModel::default(),
            AdvisorConfig::default(),
        )
        .unwrap();
        assert_eq!(required.problem().edge_count(), 0, "no lineage → pruned");

        let assumed = AdvisorState::build(
            &lake,
            &graph,
            CostModel::default(),
            AdvisorConfig::default().with_knowledge(TransformKnowledge::AssumeKnown),
        )
        .unwrap();
        assert_eq!(assumed.problem().edge_count(), 1);
    }
}
