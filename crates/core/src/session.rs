//! [`R2d2Session`] — a long-lived incremental containment service.
//!
//! The batch API ([`crate::pipeline::R2d2Pipeline`]) answers "what does the
//! lake contain *right now*"; a production deployment instead keeps one
//! session alive and feeds it a stream of typed [`LakeUpdate`] events as the
//! lake changes. The session owns the [`DataLake`], the live
//! [`ContainmentGraph`], a [`SchemaInterner`] with every dataset's interned
//! schema set, a long-lived build-side [`HashJoinCache`], and the cumulative
//! [`Meter`] — the shared state the old free-function dynamic API
//! (`dataset_added` / `dataset_grew` / `dataset_shrank` / `dataset_deleted`)
//! forced every caller to wire together and silently failed to share.
//!
//! * [`R2d2Session::bootstrap`] runs the SGB → MMP → CLP batch pipeline once
//!   and keeps its [`PipelineReport`].
//! * [`R2d2Session::apply`] / [`R2d2Session::apply_batch`] execute updates
//!   against the catalog, coalesce them into one re-verification sweep per
//!   affected dataset (N appends to one table are verified once), and fan
//!   the candidate checks out over `config.threads` workers.
//! * [`R2d2Session::graph`] / [`R2d2Session::report`] snapshot the current
//!   state; [`R2d2Session::update_log`] is the session's update-event log.
//! * [`R2d2Session::enable_advisor`] attaches a **live storage advisor**: an
//!   incremental Opt-Ret (Eq. 3) state kept in sync with every applied
//!   batch. [`R2d2Session::advise`] / [`R2d2Session::advisor_report`] return
//!   the current deletion recommendation and its savings, re-solving only
//!   the components the updates dirtied;
//!   [`R2d2Session::refresh_access_profiles`] folds metered query traffic
//!   back into the cost model's access estimates.
//!
//! **Equivalence guarantee.** After any sequence of updates the session
//! graph has exactly the edges a fresh `R2d2Pipeline::run` over the mutated
//! lake would produce, and — like the batch pipeline — graph, reports and
//! meter totals are bit-for-bit identical for every `config.threads` value
//! (`tests/integration_dynamic.rs` pins both properties with a randomized
//! oracle). Dropped datasets keep an isolated node in the session graph so
//! node ids stay stable for downstream consumers.

use crate::config::PipelineConfig;
use crate::dynamic::{self, Effect};
use crate::persist::{
    self, Failpoints, Persistence, PersistenceConfig, SessionSnapshot, WalRecord,
};
use crate::pipeline::{PipelineReport, R2d2Pipeline};
use crate::view::SessionView;
use bytes::Buf;
use r2d2_graph::diff::EdgeDelta;
use r2d2_graph::ContainmentGraph;
use r2d2_lake::wal::{self, WalStats, WalWriter};
use r2d2_lake::{
    AppliedUpdate, DataLake, DatasetId, HashJoinCache, InternedSchemaSet, LakeError, LakeUpdate,
    Meter, OpCounts, Result, SchemaInterner, Table,
};
use r2d2_opt::advisor::{AdvisorConfig, AdvisorReport, AdvisorState, DatasetChange};
use r2d2_opt::{CostModel, Solution};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::time::{Duration, Instant};

/// What one [`R2d2Session::apply_batch`] (or [`R2d2Session::apply`]) did.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateReport {
    /// Updates executed against the catalog in this batch.
    pub updates_applied: usize,
    /// What each executed mutation did, in execution order (merged append
    /// runs appear once, with their total row count). `AddDataset` callers
    /// read their assigned id from the [`AppliedUpdate::Added`] entry.
    pub applied: Vec<AppliedUpdate>,
    /// Distinct datasets whose content (or existence) changed.
    pub datasets_changed: usize,
    /// Candidate pairs re-verified (schema → MMP → CLP cascade).
    pub candidates_checked: usize,
    /// Child rows sampled by the CLP checks of this sweep.
    pub rows_sampled: usize,
    /// Edges added / removed by this batch.
    pub delta: EdgeDelta,
    /// Metered work attributable to this batch (mutation rebuilds plus the
    /// verification sweep).
    pub ops: OpCounts,
    /// Wall-clock duration of the batch.
    pub duration: Duration,
}

/// Point-in-time summary of a session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionReport {
    /// Datasets currently in the lake.
    pub datasets: usize,
    /// Edges currently in the containment graph.
    pub edges: usize,
    /// Total updates executed since bootstrap.
    pub updates_applied: usize,
    /// Batches executed since bootstrap (entries in the update log).
    pub batches_applied: usize,
    /// Wall-clock duration of the bootstrap pipeline run.
    pub bootstrap_duration: Duration,
    /// Cumulative meter totals since bootstrap began.
    pub ops: OpCounts,
}

/// One executed commit of an [`R2d2Session::apply_group`] call: the exact
/// update concatenation that ran as a single `apply_batch`-equivalent
/// execution (and, with persistence enabled, as a single write-ahead record
/// and fsync).
#[derive(Debug, Clone)]
pub struct GroupCommit {
    /// The concatenated updates this commit executed — replaying these
    /// through [`R2d2Session::apply_batch`] reproduces the commit exactly,
    /// including a mid-commit mutation failure.
    pub updates: Vec<LakeUpdate>,
    /// What the execution did (the applied prefix, when `error` is set).
    pub report: UpdateReport,
    /// The mutation error that cut the commit short, if any (rendered — the
    /// typed error goes to the failing batch's slot in
    /// [`GroupOutcome::results`]).
    pub error: Option<String>,
}

/// What one [`R2d2Session::apply_group`] call did with its queued batches.
#[derive(Debug)]
pub struct GroupOutcome {
    /// Executed commits, in order. Fewer commits than input batches is the
    /// point: a fully successful group is **one** commit.
    pub commits: Vec<GroupCommit>,
    /// Per input batch, in input order: `Ok(i)` — every update of that batch
    /// was applied by `commits[i]`; `Err(e)` — the batch failed (its updates
    /// at and after the failure point are not applied).
    pub results: Vec<std::result::Result<usize, LakeError>>,
    /// A durability error *after* all commits succeeded (auto-checkpoint
    /// rotation): the commits stand and every submitter already has its
    /// result, but the session could not rotate its snapshot generation.
    pub persist_error: Option<LakeError>,
}

impl GroupOutcome {
    /// Updates applied across all commits of the group.
    pub fn updates_applied(&self) -> usize {
        self.commits.iter().map(|c| c.report.updates_applied).sum()
    }
}

/// A long-lived containment-detection service over one data lake.
#[derive(Debug)]
pub struct R2d2Session {
    lake: DataLake,
    graph: ContainmentGraph,
    interner: SchemaInterner,
    schemas: BTreeMap<u64, InternedSchemaSet>,
    cache: HashJoinCache,
    meter: Meter,
    config: PipelineConfig,
    bootstrap: PipelineReport,
    updates_applied: usize,
    log: Vec<UpdateReport>,
    advisor: Option<AdvisorState>,
    persist: Option<Persistence>,
    /// Durability counters of WAL generations already rotated away (the live
    /// generation's counters live in `persist`; see
    /// [`R2d2Session::wal_stats`]).
    wal_retired: WalStats,
    /// Injectable crash points consulted by every persistence write site
    /// ([`Failpoints::none`] outside the fault-injection tests).
    failpoints: Failpoints,
}

impl R2d2Session {
    /// Take ownership of `lake`, run the batch SGB → MMP → CLP pipeline once
    /// and start serving incremental updates from its final graph.
    pub fn bootstrap(lake: DataLake, config: PipelineConfig) -> Result<Self> {
        let meter = lake.meter().clone();
        let bootstrap = R2d2Pipeline::new(config.clone()).run(&lake)?;
        let graph = bootstrap.after_clp.clone();
        let mut interner = SchemaInterner::new();
        let schemas = lake
            .iter()
            .map(|e| (e.id.0, interner.intern_set(&e.data.schema().schema_set())))
            .collect();
        Ok(R2d2Session {
            lake,
            graph,
            interner,
            schemas,
            cache: HashJoinCache::new(),
            meter,
            config,
            bootstrap,
            updates_applied: 0,
            log: Vec::new(),
            advisor: None,
            persist: None,
            wal_retired: WalStats::default(),
            failpoints: Failpoints::none(),
        })
    }

    /// Bootstrap with the paper's default configuration.
    pub fn with_defaults(lake: DataLake) -> Result<Self> {
        Self::bootstrap(lake, PipelineConfig::default())
    }

    /// Execute one update and re-verify the affected pairs.
    pub fn apply(&mut self, update: LakeUpdate) -> Result<UpdateReport> {
        self.apply_batch(std::slice::from_ref(&update))
    }

    /// Execute a batch of updates, coalescing per-dataset work: adjacent
    /// appends to one table merge into a single catalog rebuild, the whole
    /// batch triggers one re-verification sweep (N appends to one table
    /// re-verify that table's pairs once), and a dataset dropped at the end
    /// of the batch is never verified at all.
    ///
    /// Error semantics: if a *mutation* fails mid-batch (unknown dataset,
    /// schema mismatch, …), the updates before it stay applied; the session
    /// still runs the verification sweep for them — so the graph remains
    /// consistent with the lake — and then returns the error. If the
    /// *verification sweep itself* fails (a lake read error, which cannot
    /// arise from session-managed state), the mutations stand but the graph
    /// is left at its pre-batch state; re-bootstrap via
    /// [`R2d2Session::into_parts`] in that case. Failed batches are not
    /// recorded in the update log.
    ///
    /// With [`R2d2Session::enable_persistence`] attached, the whole batch is
    /// appended to the write-ahead log (and fsynced) *before* any mutation
    /// runs, so a crash at any point replays to exactly this batch's
    /// outcome; reaching the configured `snapshot_every_n_updates` threshold
    /// afterwards rotates to a fresh snapshot generation.
    pub fn apply_batch(&mut self, updates: &[LakeUpdate]) -> Result<UpdateReport> {
        self.apply_batch_inner(updates, true)
    }

    /// The batch engine behind [`R2d2Session::apply_batch`]. `durable = false`
    /// is the WAL-replay path: identical execution, but no write-ahead
    /// record (the batch came *from* the log) and no auto-checkpoint.
    fn apply_batch_inner(&mut self, updates: &[LakeUpdate], durable: bool) -> Result<UpdateReport> {
        if durable {
            if let Some(p) = &mut self.persist {
                // Write-ahead: the record is durable before the first
                // mutation, so the log can only over-describe (a batch that
                // never ran re-runs on replay), never lose applied work.
                p.append(
                    &WalRecord::Batch(updates.to_vec()).encode(),
                    &self.failpoints,
                )?;
            }
        }
        let (first_err, report) = self.apply_batch_core(updates)?;
        match first_err {
            Some(e) => Err(e),
            None => {
                self.log.push(report.clone());
                if durable {
                    self.maybe_auto_checkpoint()?;
                }
                Ok(report)
            }
        }
    }

    /// Execute one batch against the catalog and graph — phases 1–5 of the
    /// batch engine, shared by [`R2d2Session::apply_batch`] and
    /// [`R2d2Session::apply_group`]. Performs **no** durability work (no WAL
    /// record, no update-log entry, no checkpoint); callers own those.
    ///
    /// The outer `Result` is the sweep/advisor path: `Err` means the
    /// mutations stand but the graph is at its pre-batch state (re-bootstrap
    /// territory). On `Ok`, the inner `Option<LakeError>` is a mid-batch
    /// *mutation* failure: exactly the updates before it are applied and the
    /// graph has been re-verified over that applied prefix.
    fn apply_batch_core(
        &mut self,
        updates: &[LakeUpdate],
    ) -> Result<(Option<LakeError>, UpdateReport)> {
        let start = Instant::now();
        let ops_before = self.meter.snapshot();

        // Phase 1: execute the catalog mutations — merging each adjacent
        // run of appends to one dataset into a single rebuild — and
        // coalesce content effects.
        let mut effects: BTreeMap<u64, Effect> = BTreeMap::new();
        let mut applied = Vec::new();
        let mut applied_count = 0usize;
        let mut first_err = None;
        for (op, merged) in Self::coalesce_appends(updates) {
            match self.lake.apply_update(&op) {
                Ok(done) => {
                    applied_count += merged;
                    applied.push(done);
                    if done.is_noop() {
                        continue;
                    }
                    let effect = match done {
                        AppliedUpdate::Added { .. } => Effect::ADDED,
                        AppliedUpdate::Appended { .. } => Effect::GREW,
                        AppliedUpdate::Deleted { .. } => Effect::SHRANK,
                        AppliedUpdate::Dropped { .. } => Effect::DROPPED,
                    };
                    effects.entry(done.dataset().0).or_default().merge(effect);
                }
                Err(e) => {
                    first_err = Some(e);
                    break;
                }
            }
        }

        // Phase 2: refresh per-dataset derived state for everything that
        // changed. Build-side hash multisets need no per-mutation eviction —
        // the cache is keyed by `(dataset, generation)` and every mutation
        // bumps the catalog generation, so stale entries simply stop being
        // addressable. Pruning them (and entries of dropped datasets) is a
        // single sweep against the catalog's live generation set.
        for (&d, &e) in &effects {
            if e.dropped {
                self.schemas.remove(&d);
            } else if let Ok(entry) = self.lake.dataset(DatasetId(d)) {
                self.schemas.insert(
                    d,
                    self.interner.intern_set(&entry.data.schema().schema_set()),
                );
            }
        }
        if !effects.is_empty() {
            let live: std::collections::HashSet<(u64, u64)> = self
                .lake
                .iter()
                .map(|entry| (entry.id.0, entry.generation))
                .collect();
            self.cache.retain_generations(&live);
        }

        // Phase 3: plan and run one verification sweep. The plan reads the
        // pre-batch edges (the grown/shrunk exceptions key off them) and
        // excludes dropped datasets, so it does not need the node changes
        // below — which keeps the graph untouched if verification errors.
        let pairs = dynamic::plan_pairs(&self.lake, &self.graph, &effects);
        let outcomes = dynamic::verify_pairs(
            &self.lake,
            &pairs,
            &self.schemas,
            &self.config,
            &self.cache,
            &self.meter,
        )?;

        // Phase 4: commit node changes and pair outcomes in order,
        // accumulating the edge delta as it happens.
        let mut added: BTreeSet<(u64, u64)> = BTreeSet::new();
        let mut removed: BTreeSet<(u64, u64)> = BTreeSet::new();
        for (&d, &e) in &effects {
            if e.dropped {
                for parent in self.graph.parents(d) {
                    removed.insert((parent, d));
                }
                for child in self.graph.children(d) {
                    removed.insert((d, child));
                }
                self.graph.clear_dataset(d);
            } else {
                self.graph.add_dataset(d);
            }
        }
        let mut rows_sampled = 0usize;
        for (&(parent, child), outcome) in pairs.iter().zip(&outcomes) {
            rows_sampled += outcome.rows_sampled;
            if outcome.pass {
                if self.graph.add_edge(parent, child) {
                    added.insert((parent, child));
                }
            } else if self.graph.remove_edge(parent, child).is_some() {
                removed.insert((parent, child));
            }
        }

        // Phase 5: keep the storage advisor's pruned problem in sync with
        // what this batch did (it re-solves the dirtied components lazily,
        // on the next `advise`). Runs even when a mutation failed mid-batch:
        // the applied prefix is live and verified, so the advisor must see
        // it.
        let delta = EdgeDelta {
            added: added.into_iter().collect(),
            removed: removed.into_iter().collect(),
        };
        if let Some(advisor) = &mut self.advisor {
            let changes: Vec<(u64, DatasetChange)> = effects
                .iter()
                .map(|(&d, &e)| {
                    let change = if e.dropped {
                        DatasetChange::Dropped
                    } else if e.added {
                        DatasetChange::Added
                    } else {
                        DatasetChange::ContentChanged
                    };
                    (d, change)
                })
                .collect();
            advisor.apply(&self.lake, &self.graph, &changes, &delta)?;
        }

        self.updates_applied += applied_count;
        let report = UpdateReport {
            updates_applied: applied_count,
            applied,
            datasets_changed: effects.len(),
            candidates_checked: pairs.len(),
            rows_sampled,
            delta,
            ops: self.meter.snapshot().since(&ops_before),
            duration: start.elapsed(),
        };
        if let Some(p) = &mut self.persist {
            // The applied prefix is live even when a later mutation failed,
            // so it counts toward the compaction threshold either way.
            p.updates_since_snapshot += report.updates_applied;
        }
        Ok((first_err, report))
    }

    /// Group commit: execute a queue of independent batches as few
    /// `apply_batch`-equivalent commits as possible. The whole group is
    /// concatenated into **one** execution — one write-ahead record, one
    /// fsync, one verification sweep — and each submitter still gets its own
    /// per-batch result.
    ///
    /// Failure isolation: when a mutation fails mid-group, the commit's
    /// applied prefix stands (verified, exactly like a mid-batch failure of
    /// [`R2d2Session::apply_batch`]), the batches fully inside that prefix
    /// report success, the batch containing the failing update gets the
    /// error, and the *tail* batches are retried as a fresh commit — one bad
    /// batch never poisons the batches queued behind it. WAL fidelity holds
    /// because each executed concatenation is logged as a single `Batch`
    /// record: replay re-runs the same concatenations and fails at the same
    /// update again.
    ///
    /// A *sweep* failure (a lake read error inside verification — cannot
    /// arise from session-managed state) aborts the group: the current
    /// commit's mutations stand but the graph is at its pre-commit state, so
    /// all not-yet-committed batches fail and the session should be
    /// re-bootstrapped, exactly as documented on [`R2d2Session::apply_batch`].
    /// A WAL append failure likewise fails the remaining batches without
    /// executing them.
    pub fn apply_group(&mut self, batches: &[Vec<LakeUpdate>]) -> GroupOutcome {
        let mut outcome = GroupOutcome {
            commits: Vec::new(),
            results: Vec::with_capacity(batches.len()),
            persist_error: None,
        };
        let mut start = 0;
        while start < batches.len() {
            let group = &batches[start..];
            let concat: Vec<LakeUpdate> = group.iter().flatten().cloned().collect();
            if let Some(p) = &mut self.persist {
                if let Err(e) =
                    p.append(&WalRecord::Batch(concat.clone()).encode(), &self.failpoints)
                {
                    // Nothing of this group executed; every remaining batch
                    // reports the append failure (the typed error goes to
                    // the first, the rest get a rendered copy — LakeError
                    // holds io::Error and is not Clone).
                    let rendered = Self::derived_group_error(&e);
                    outcome.results.push(Err(e));
                    for _ in start + 1..batches.len() {
                        outcome.results.push(Err(rendered()));
                    }
                    return outcome;
                }
            }
            let applied_before = self.updates_applied;
            match self.apply_batch_core(&concat) {
                Err(e) => {
                    // Sweep/advisor failure: graph at pre-commit state,
                    // session inconsistent. Fail everything still queued.
                    let rendered = Self::derived_group_error(&e);
                    outcome.results.push(Err(e));
                    for _ in start + 1..batches.len() {
                        outcome.results.push(Err(rendered()));
                    }
                    return outcome;
                }
                Ok((None, report)) => {
                    // The whole remaining group committed as one execution.
                    self.log.push(report.clone());
                    outcome.commits.push(GroupCommit {
                        updates: concat,
                        report,
                        error: None,
                    });
                    let commit = outcome.commits.len() - 1;
                    for _ in start..batches.len() {
                        outcome.results.push(Ok(commit));
                    }
                    break;
                }
                Ok((Some(e), report)) => {
                    // Mid-commit mutation failure. The failing source update
                    // is at concat index `applied` (0-based): attribute it to
                    // the batch whose cumulative length first exceeds it.
                    let applied = self.updates_applied - applied_before;
                    let mut cumulative = 0usize;
                    let mut failing = group.len() - 1;
                    for (i, batch) in group.iter().enumerate() {
                        cumulative += batch.len();
                        if applied < cumulative {
                            failing = i;
                            break;
                        }
                    }
                    outcome.commits.push(GroupCommit {
                        updates: concat,
                        report,
                        error: Some(e.to_string()),
                    });
                    let commit = outcome.commits.len() - 1;
                    for _ in 0..failing {
                        outcome.results.push(Ok(commit));
                    }
                    outcome.results.push(Err(e));
                    // Batches behind the failure retry as a fresh commit.
                    start += failing + 1;
                }
            }
        }
        // One rotation check per group, after every submitter has its
        // result: a checkpoint failure must not fail committed batches.
        if let Err(e) = self.maybe_auto_checkpoint() {
            outcome.persist_error = Some(e);
        }
        outcome
    }

    /// A factory of rendered copies of `e` for the group members that share
    /// a failure ([`LakeError`] is not `Clone` — it can hold an `io::Error`).
    fn derived_group_error(e: &LakeError) -> impl Fn() -> LakeError {
        let msg = format!("failed alongside a grouped batch: {e}");
        move || LakeError::InvalidArgument(msg.clone())
    }

    /// Capture an immutable [`SessionView`] of the session as of now: shared
    /// `Arc`'d tables and access log, a detached read-side meter, the graph,
    /// the advisor's current advice (re-solving dirty components if one is
    /// attached) and the writer meter totals. The serve layer publishes one
    /// of these per commit epoch.
    pub fn view(&mut self) -> SessionView {
        let advice = self
            .advisor
            .as_mut()
            .map(|a| std::sync::Arc::new(a.advise().clone()));
        SessionView::new(
            self.lake.reader_view(),
            std::sync::Arc::new(self.graph.clone()),
            advice,
            self.meter.snapshot(),
            self.updates_applied,
            self.log.len(),
        )
    }

    /// Durability-cost counters since persistence was enabled — write-ahead
    /// records appended, fsyncs issued, segment files created and segment
    /// files compacted away, summed across WAL generation rotations. `None`
    /// when persistence is not enabled. `fsyncs / records` ≈ 1 under
    /// per-batch commits; group commit drives records (and hence fsyncs)
    /// *below* the number of submitted batches.
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.persist
            .as_ref()
            .map(|p| self.wal_retired.plus(&p.wal_stats()))
    }

    /// Rotate to a fresh snapshot generation when the compaction threshold
    /// has been reached.
    fn maybe_auto_checkpoint(&mut self) -> Result<()> {
        let due = self.persist.as_ref().is_some_and(|p| {
            p.config.snapshot_every_n_updates > 0
                && p.updates_since_snapshot >= p.config.snapshot_every_n_updates
        });
        if due {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Merge each *adjacent* run of `AppendRows` to one dataset into a
    /// single update (one pre-sized concat, one catalog rebuild). Returns
    /// `(update, how many source updates it stands for)`.
    ///
    /// Only adjacent appends merge: a merged run then always corresponds to
    /// a contiguous prefix-respecting slice of `updates`, so the mid-batch
    /// error guarantee ("exactly the updates before the failure are
    /// applied") survives coalescing. Runs whose row schemas disagree are
    /// left unmerged so the catalog reports the mismatch against the exact
    /// offending update.
    fn coalesce_appends(updates: &[LakeUpdate]) -> Vec<(LakeUpdate, usize)> {
        let mut ops: Vec<(LakeUpdate, usize)> = Vec::with_capacity(updates.len());
        let mut i = 0;
        while i < updates.len() {
            let LakeUpdate::AppendRows { id, rows } = &updates[i] else {
                ops.push((updates[i].clone(), 1));
                i += 1;
                continue;
            };
            let mut chunks = vec![rows];
            let mut j = i + 1;
            while j < updates.len() {
                match &updates[j] {
                    LakeUpdate::AppendRows { id: next, rows: r } if next == id => {
                        chunks.push(r);
                        j += 1;
                    }
                    _ => break,
                }
            }
            if j == i + 1 {
                ops.push((updates[i].clone(), 1));
            } else {
                match Table::concat_many(rows.schema().clone(), chunks) {
                    Ok(merged) => ops.push((
                        LakeUpdate::AppendRows {
                            id: *id,
                            rows: merged,
                        },
                        j - i,
                    )),
                    // Mixed schemas inside the run: execute unmerged so the
                    // error lands on the precise source update.
                    Err(_) => {
                        for update in &updates[i..j] {
                            ops.push((update.clone(), 1));
                        }
                    }
                }
            }
            i = j;
        }
        ops
    }

    /// The lake as of the last applied update.
    pub fn lake(&self) -> &DataLake {
        &self.lake
    }

    /// The live containment graph.
    pub fn graph(&self) -> &ContainmentGraph {
        &self.graph
    }

    /// The session's pipeline configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The report of the bootstrap batch run (per-stage timings, op counts
    /// and intermediate graphs).
    pub fn bootstrap_report(&self) -> &PipelineReport {
        &self.bootstrap
    }

    /// Every successful batch since bootstrap, in order — the session's
    /// update-event log.
    pub fn update_log(&self) -> &[UpdateReport] {
        &self.log
    }

    /// Cumulative meter totals since bootstrap began.
    pub fn ops(&self) -> OpCounts {
        self.meter.snapshot()
    }

    /// Number of `(dataset, column set)` build-side hash multisets currently
    /// cached for re-use across updates.
    pub fn cached_build_sides(&self) -> usize {
        self.cache.len()
    }

    /// Attach a live storage advisor: an incremental Opt-Ret (Eq. 3) state
    /// built from the current lake and graph and kept in sync with every
    /// subsequent [`R2d2Session::apply`] / [`R2d2Session::apply_batch`].
    ///
    /// After any update sequence, [`R2d2Session::advise`] returns exactly
    /// the solution a from-scratch §5.1 preprocess + solve over the mutated
    /// lake would produce ([`r2d2_opt::advisor::from_scratch`]), but only
    /// re-solves the weakly-connected components the updates dirtied.
    /// Replaces any previously attached advisor.
    ///
    /// With persistence enabled, attaching an advisor immediately writes a
    /// fresh snapshot generation (advisor attachment is a structural change
    /// the WAL's update vocabulary cannot express).
    pub fn enable_advisor(&mut self, model: CostModel, config: AdvisorConfig) -> Result<()> {
        self.advisor = Some(AdvisorState::build(&self.lake, &self.graph, model, config)?);
        if self.persist.is_some() {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Whether a storage advisor is attached.
    pub fn advisor_enabled(&self) -> bool {
        self.advisor.is_some()
    }

    /// Detach the storage advisor (updates stop paying the sync cost).
    ///
    /// Not write-ahead-logged: with persistence enabled the detachment is
    /// captured by the next [`R2d2Session::checkpoint`] (a restore from an
    /// older generation resurrects the advisor, which is harmless — its
    /// advice stays oracle-correct).
    pub fn disable_advisor(&mut self) {
        self.advisor = None;
    }

    /// The advisor's view of the current Opt-Ret instance (for inspection
    /// and oracle tests). Attaches a default advisor on first use, like
    /// [`R2d2Session::advise`].
    pub fn advisor_problem(&mut self) -> Result<r2d2_opt::OptRetProblem> {
        self.ensure_advisor()?;
        Ok(self.advisor.as_ref().expect("just ensured").problem())
    }

    /// Current Opt-Ret deletion recommendation over the live lake,
    /// re-solving only the components dirtied since the last call.
    ///
    /// Attaches an advisor with [`CostModel::default`] and
    /// [`AdvisorConfig::default`] on first use if none was enabled.
    pub fn advise(&mut self) -> Result<Solution> {
        self.ensure_advisor()?;
        Ok(self
            .advisor
            .as_mut()
            .expect("just ensured")
            .advise()
            .clone())
    }

    /// Re-solve statistics of the advisor's most recent
    /// [`R2d2Session::advise`] pass (`None` when no advisor is attached).
    pub fn advisor_stats(&self) -> Option<r2d2_opt::advisor::ResolveStats> {
        self.advisor.as_ref().map(|a| a.last_resolve_stats())
    }

    /// [`R2d2Session::advise`] plus Table-7-style counters and GDPR savings,
    /// and the re-solve statistics of the pass.
    pub fn advisor_report(&mut self) -> Result<AdvisorReport> {
        self.ensure_advisor()?;
        let advisor = self.advisor.as_mut().expect("just ensured");
        advisor.report(&self.lake)
    }

    /// Fold the metered query traffic since the last call into the catalog's
    /// access profiles: each dataset's drained
    /// [`access-log`](DataLake::access_log) tally becomes its
    /// `accesses_per_period` (the drain window is treated as one billing
    /// period, and a dataset that served no queries observed **0** — stale
    /// estimates cool down instead of persisting). Datasets whose profile
    /// moved are marked dirty on the advisor, so the next
    /// [`R2d2Session::advise`] re-solves exactly the components whose costs
    /// drifted. Returns how many profiles changed.
    pub fn refresh_access_profiles(&mut self) -> Result<usize> {
        let counts = self.lake.drain_access_counts();
        if let Some(p) = &mut self.persist {
            // The drained tallies — and the read-side metering accumulated
            // since the last sync point — are runtime traffic replay cannot
            // regenerate, so the record carries both verbatim.
            let record = WalRecord::AccessRefresh {
                counts: counts.clone(),
                meter: self.meter.snapshot(),
            };
            if let Err(e) = p.append(&record.encode(), &self.failpoints) {
                // Put the window back: the drained counts were neither
                // logged nor applied, so they must not be lost to a
                // transient append failure (merged — traffic may have
                // arrived since the drain).
                self.lake.access_log().merge(&counts);
                return Err(e);
            }
        }
        self.apply_access_counts(&counts)
    }

    /// Fold one drained access-tally window into the catalog profiles and
    /// the advisor — shared by [`R2d2Session::refresh_access_profiles`] and
    /// WAL replay.
    fn apply_access_counts(&mut self, counts: &BTreeMap<u64, u64>) -> Result<usize> {
        let mut changed = 0usize;
        // Every catalogued dataset is visited: one that served no queries
        // this window observed 0 accesses — a once-hot dataset must cool
        // down, not keep its stale estimate forever.
        for id in self.lake.ids() {
            let mut access = self.lake.dataset(id)?.access;
            let observed = counts.get(&id.0).copied().unwrap_or(0) as f64;
            if access.accesses_per_period != observed {
                access.accesses_per_period = observed;
                self.lake.set_access_profile(id, access)?;
                changed += 1;
                if let Some(advisor) = &mut self.advisor {
                    advisor.note_cost_drift(&self.lake, id.0)?;
                }
            }
        }
        Ok(changed)
    }

    fn ensure_advisor(&mut self) -> Result<()> {
        if self.advisor.is_none() {
            self.enable_advisor(CostModel::default(), AdvisorConfig::default())?;
        }
        Ok(())
    }

    /// Point-in-time summary of the session.
    pub fn report(&self) -> SessionReport {
        SessionReport {
            datasets: self.lake.len(),
            edges: self.graph.edge_count(),
            updates_applied: self.updates_applied,
            batches_applied: self.log.len(),
            bootstrap_duration: self.bootstrap.total_duration,
            ops: self.meter.snapshot(),
        }
    }

    /// Dissolve the session into its lake and graph.
    pub fn into_parts(self) -> (DataLake, ContainmentGraph) {
        (self.lake, self.graph)
    }

    // -------------------------------------------------------------------
    // Durability: snapshots, write-ahead log, warm restart
    // -------------------------------------------------------------------

    /// Make the session durable: write a snapshot generation into
    /// `config.dir` and start write-ahead logging every subsequent
    /// [`R2d2Session::apply_batch`] /
    /// [`R2d2Session::refresh_access_profiles`] before it mutates state.
    /// From here on, [`R2d2Session::restore`] on that directory rebuilds
    /// this session bit-identically after a crash or clean shutdown.
    ///
    /// If the directory already holds generations (e.g. from an earlier
    /// process), a fresh generation is started after the newest one; older
    /// generations beyond the previous are pruned.
    pub fn enable_persistence(&mut self, config: PersistenceConfig) -> Result<()> {
        std::fs::create_dir_all(&config.dir)?;
        let seq = persist::list_generations(&config.dir)?
            .last()
            .copied()
            .unwrap_or(0)
            + 1;
        self.write_generation(config, seq)
    }

    /// Whether the session is persisting itself.
    pub fn persistence_enabled(&self) -> bool {
        self.persist.is_some()
    }

    /// Install fault-injection crash points: every persistence write site
    /// (checkpoint encode, WAL segment creation, snapshot rename, segment
    /// rotation, generation pruning) consults the hook and injects an I/O
    /// error where it returns `true`, leaving the on-disk state exactly as a
    /// crash at that point would. Testing aid — production sessions keep the
    /// default [`Failpoints::none`].
    pub fn set_failpoints(&mut self, failpoints: Failpoints) {
        self.failpoints = failpoints;
    }

    /// Current snapshot generation number, when persistence is enabled.
    pub fn persistence_generation(&self) -> Option<u64> {
        self.persist.as_ref().map(|p| p.seq)
    }

    /// Updates write-ahead-logged since the current generation's snapshot
    /// (the WAL tail a restore would replay right now).
    pub fn wal_tail_updates(&self) -> Option<usize> {
        self.persist.as_ref().map(|p| p.updates_since_snapshot)
    }

    /// Write a fresh snapshot generation now and rotate the write-ahead log,
    /// returning the new generation number. Errors when persistence is not
    /// enabled. Generations older than the previous one are pruned.
    pub fn checkpoint(&mut self) -> Result<u64> {
        let (config, seq) = match &self.persist {
            Some(p) => (p.config.clone(), p.seq + 1),
            None => {
                return Err(r2d2_lake::LakeError::InvalidArgument(
                    "persistence is not enabled; call enable_persistence first".into(),
                ))
            }
        };
        self.write_generation(config, seq)?;
        Ok(seq)
    }

    /// Write generation `seq` (snapshot + empty WAL segment 0) and make it
    /// the live one. On success every generation no restore chain needs is
    /// pruned; on failure the previous persistence state stays attached.
    ///
    /// The generation is a **delta** — only the state dirtied since the
    /// previous generation, chained to it by sequence number and body
    /// checksum — when a live base capture exists and fewer than
    /// [`PersistenceConfig::rebase_every_k_deltas`] deltas have accumulated
    /// since the last full snapshot; otherwise it is a **full** rebase.
    ///
    /// Order matters: the WAL is created *before* the snapshot is renamed
    /// into place. The snapshot file is what makes a generation visible to
    /// [`R2d2Session::restore`], so a failure in between leaves only a
    /// stray empty WAL (invisible — restore walks snapshot files) and the
    /// session keeps appending to its old, fully consistent generation.
    /// Writing the snapshot first would open a window where a visible
    /// newer snapshot shadows records still being acknowledged into the
    /// old WAL.
    fn write_generation(&mut self, config: PersistenceConfig, seq: u64) -> Result<()> {
        // Delta only chains onto a generation this session is live on (and
        // in the same directory — `enable_persistence` on a fresh dir must
        // bottom the chain out with a full snapshot).
        let is_delta = self.persist.as_ref().is_some_and(|p| {
            config.rebase_every_k_deltas > 0
                && p.deltas_since_full < config.rebase_every_k_deltas
                && p.config.dir == config.dir
        });
        let site = if is_delta { "delta" } else { "rebase" };
        let parts = persist::SnapshotParts {
            config: &self.config,
            snapshot_every_n_updates: config.snapshot_every_n_updates,
            rebase_every_k_deltas: config.rebase_every_k_deltas,
            wal_segment_max_bytes: config.wal_segment_max_bytes,
            lake: &self.lake,
            graph: &self.graph,
            interner: &self.interner,
            cache: &self.cache,
            bootstrap: &self.bootstrap,
            updates_applied: self.updates_applied,
            log: &self.log,
            advisor: self.advisor.as_ref(),
        };
        let (kind, body) = if is_delta {
            let base = &self
                .persist
                .as_ref()
                .expect("delta requires a live base")
                .base;
            (
                persist::SnapshotKind::Delta {
                    base_seq: base.seq,
                    base_checksum: base.body_checksum,
                },
                persist::encode_delta_body(&parts, base),
            )
        } else {
            (
                persist::SnapshotKind::Full,
                persist::encode_snapshot_body(&parts),
            )
        };
        let body_checksum = wal::checksum(&body);
        let bytes = persist::frame_snapshot(kind, body);
        self.failpoints.hit(&format!("{site}:encoded"))?;
        let wal = WalWriter::create(&persist::wal_segment_path(&config.dir, seq, 0), seq, 0)?;
        self.failpoints.hit(&format!("{site}:wal-created"))?;
        persist::write_snapshot_file_with(
            &persist::snapshot_path(&config.dir, seq),
            &bytes,
            &self.failpoints,
            site,
        )?;
        self.failpoints.hit(&format!("{site}:renamed"))?;
        // The new generation is durable; everything below is bookkeeping on
        // the session and best-effort cleanup on disk.
        let base = persist::capture_base(seq, body_checksum, &parts);
        let deltas_since_full = if is_delta {
            self.persist.as_ref().map_or(0, |p| p.deltas_since_full) + 1
        } else {
            0
        };
        if let Some(old) = &self.persist {
            // Fold the rotated-away generation's durability counters into
            // the retired total so `wal_stats` spans rotations.
            self.wal_retired = self.wal_retired.plus(&old.wal_stats());
        }
        self.persist = Some(Persistence {
            config: config.clone(),
            seq,
            segment: 0,
            wal,
            retired_segments: WalStats::default(),
            updates_since_snapshot: 0,
            deltas_since_full,
            base,
        });
        // Pruning is best-effort: the new generation is already durable and
        // live, so a cleanup failure must not fail the checkpoint. Dropped
        // WAL segments count as compacted.
        if let Ok(compacted) = persist::prune_generations(&config.dir, seq, &self.failpoints) {
            self.wal_retired.segments_compacted += compacted;
        }
        Ok(())
    }

    /// Capture a self-contained point-in-time snapshot of the session (the
    /// same image a persistence generation writes, without touching disk or
    /// the WAL).
    pub fn snapshot(&self) -> SessionSnapshot {
        let (every, rebase, segment_bytes) = self
            .persist
            .as_ref()
            .map(|p| {
                (
                    p.config.snapshot_every_n_updates,
                    p.config.rebase_every_k_deltas,
                    p.config.wal_segment_max_bytes,
                )
            })
            .unwrap_or((
                persist::DEFAULT_SNAPSHOT_EVERY,
                persist::DEFAULT_REBASE_EVERY,
                0,
            ));
        self.snapshot_with_policy(every, rebase, segment_bytes)
    }

    /// A standalone snapshot is always a *full* image — deltas only exist as
    /// chain links inside a persistence directory.
    fn snapshot_with_policy(
        &self,
        snapshot_every_n_updates: usize,
        rebase_every_k_deltas: usize,
        wal_segment_max_bytes: u64,
    ) -> SessionSnapshot {
        SessionSnapshot {
            bytes: persist::encode_snapshot(&persist::SnapshotParts {
                config: &self.config,
                snapshot_every_n_updates,
                rebase_every_k_deltas,
                wal_segment_max_bytes,
                lake: &self.lake,
                graph: &self.graph,
                interner: &self.interner,
                cache: &self.cache,
                bootstrap: &self.bootstrap,
                updates_applied: self.updates_applied,
                log: &self.log,
                advisor: self.advisor.as_ref(),
            }),
        }
    }

    /// Warm restart: load the newest intact snapshot generation in `dir`,
    /// replay its write-ahead-log tail, and resume persisting into the same
    /// directory. The result is bit-identical — graph, meter totals, update
    /// log, caches, advisor — to the session that wrote the files, no
    /// matter where between snapshots it was killed
    /// (`tests/integration_persistence.rs` pins this with a randomized
    /// crash oracle).
    ///
    /// Corrupt state degrades gracefully: a torn or checksum-corrupt WAL
    /// tail is dropped at the first bad record (only unacknowledged work is
    /// lost, by the write-ahead contract), and a corrupt snapshot falls
    /// back to the previous generation — whose replay then continues
    /// through the newer generation's intact WAL, so acknowledged updates
    /// survive even the loss of the snapshot that followed them.
    pub fn restore(dir: impl AsRef<Path>) -> Result<R2d2Session> {
        let dir = dir.as_ref();
        let generations = persist::list_generations(dir)?;

        // 1. Newest intact *chain* wins as the replay base: a generation is
        //    usable only if its own file and every base link down to the
        //    chain's full snapshot decode and match the checksums their
        //    dependent deltas name. A broken link falls the walk back to the
        //    next older generation.
        let mut base = None;
        let mut last_err: Option<r2d2_lake::LakeError> = None;
        for &seq in generations.iter().rev() {
            match persist::decode_chain(dir, seq) {
                Ok((decoded, checksum)) => {
                    base = Some((seq, decoded, checksum));
                    break;
                }
                Err(e) => last_err = Some(e),
            }
        }
        let Some((base_seq, decoded, base_checksum)) = base else {
            return Err(last_err.unwrap_or_else(|| {
                r2d2_lake::LakeError::InvalidArgument(format!(
                    "no snapshot generations found in {}",
                    dir.display()
                ))
            }));
        };
        let config = PersistenceConfig {
            dir: dir.to_path_buf(),
            snapshot_every_n_updates: decoded.snapshot_every_n_updates,
            rebase_every_k_deltas: decoded.rebase_every_k_deltas,
            wal_segment_max_bytes: decoded.wal_segment_max_bytes,
        };
        let mut session = R2d2Session::from_decoded(decoded);

        // Fingerprint the restored state *before* WAL replay: this is
        // exactly what generation `base_seq`'s snapshot describes, so the
        // resumed session can write its next checkpoint as a delta against
        // it.
        let resume_base = persist::capture_base(
            base_seq,
            base_checksum,
            &persist::SnapshotParts {
                config: &session.config,
                snapshot_every_n_updates: config.snapshot_every_n_updates,
                rebase_every_k_deltas: config.rebase_every_k_deltas,
                wal_segment_max_bytes: config.wal_segment_max_bytes,
                lake: &session.lake,
                graph: &session.graph,
                interner: &session.interner,
                cache: &session.cache,
                bootstrap: &session.bootstrap,
                updates_applied: session.updates_applied,
                log: &session.log,
                advisor: session.advisor.as_ref(),
            },
        );

        // 2. Replay WALs from the base generation forward. Generation N's
        //    WAL holds the updates applied after snapshot N, so when a
        //    newer snapshot was corrupt (base fell back), replaying the
        //    base WAL first reproduces exactly the state that newer
        //    snapshot captured — and the newer WAL then applies cleanly on
        //    top. Each batch re-executes through the exact apply path the
        //    live session used (same planner, caches and RNG streams), so
        //    mutations, metering and update-log entries come out identical
        //    — including batches that originally failed mid-way, which fail
        //    at the same update again.
        let updates_before = session.updates_applied;
        let fell_back = generations.iter().any(|&s| s > base_seq);
        let mut dropped_tail = false;
        'replay: for &seq in generations.iter().filter(|&&s| s >= base_seq) {
            // A generation's segments must run contiguously from 0 and each
            // header must name this generation and its own index: a gap, an
            // unreadable header or a mislabeled segment makes everything
            // behind it unknowable, like a torn tail.
            for (expect, (segment, path)) in persist::list_wal_segments(dir, seq)?
                .into_iter()
                .enumerate()
            {
                if segment as usize != expect {
                    dropped_tail = true;
                    break 'replay;
                }
                let contents = match wal::read_records(&path) {
                    Ok(contents) => contents,
                    Err(_) => {
                        dropped_tail = true;
                        break 'replay;
                    }
                };
                if contents.generation != seq || contents.segment != segment {
                    dropped_tail = true;
                    break 'replay;
                }
                dropped_tail |= contents.dropped_tail;
                for raw in contents.records {
                    let mut cursor = bytes::Bytes::from(raw);
                    let record = WalRecord::decode(&mut cursor)?;
                    if cursor.remaining() != 0 {
                        return Err(r2d2_lake::LakeError::Corrupt(
                            "trailing wal record bytes".into(),
                        ));
                    }
                    match record {
                        WalRecord::Batch(updates) => {
                            let _ = session.apply_batch_inner(&updates, false);
                        }
                        WalRecord::AccessRefresh { counts, meter } => {
                            session.apply_access_counts(&counts)?;
                            // Top the meter up to the recorded totals: replay
                            // reproduces all session-applied work, so any gap
                            // is exactly the read-side traffic served
                            // out-of-band before this sync point.
                            let gap = meter.since(&session.meter.snapshot());
                            session.meter.add_counts(&gap);
                        }
                    }
                }
                if dropped_tail {
                    break 'replay; // nothing behind a torn record can be trusted
                }
            }
        }
        let replayed = session.updates_applied - updates_before;

        // 3. Resume persisting. The clean common case appends to the live
        //    generation's newest WAL segment; any degradation (torn tail,
        //    snapshot fallback) rotates to a fresh generation — a full
        //    rebase, since no live base capture is attached yet — so the
        //    directory is coherent again.
        let live_seq = generations.last().copied().unwrap_or(base_seq);
        if dropped_tail || fell_back {
            session.write_generation(config, live_seq + 1)?;
        } else {
            let segments = persist::list_wal_segments(dir, live_seq)?;
            let (segment, wal) = match segments.last() {
                Some(&(segment, ref path)) => (
                    segment,
                    WalWriter::open_append(path, Some((live_seq, segment)))?,
                ),
                None => (
                    0,
                    WalWriter::create(&persist::wal_segment_path(dir, live_seq, 0), live_seq, 0)?,
                ),
            };
            // The resumed chain keeps its delta depth: rebase cadence
            // carries across restarts.
            let deltas_since_full =
                persist::chain_members(dir, live_seq).map_or(0, |chain| chain.len() - 1);
            session.persist = Some(Persistence {
                config,
                seq: live_seq,
                segment,
                wal,
                retired_segments: WalStats::default(),
                updates_since_snapshot: replayed,
                deltas_since_full,
                base: resume_base,
            });
            session.maybe_auto_checkpoint()?;
        }
        Ok(session)
    }

    /// Assemble a live session from a decoded snapshot. The per-dataset
    /// interned schema sets are rebuilt from the restored interner (every
    /// name is already interned, so symbol ids — and hence all downstream
    /// comparisons — come out identical to the captured session's).
    pub(crate) fn from_decoded(decoded: persist::DecodedSnapshot) -> R2d2Session {
        let persist::DecodedSnapshot {
            config,
            snapshot_every_n_updates: _,
            rebase_every_k_deltas: _,
            wal_segment_max_bytes: _,
            lake,
            graph,
            mut interner,
            cache,
            bootstrap,
            updates_applied,
            log,
            advisor,
        } = decoded;
        let schemas = lake
            .iter()
            .map(|e| (e.id.0, interner.intern_set(&e.data.schema().schema_set())))
            .collect();
        let meter = lake.meter().clone();
        R2d2Session {
            lake,
            graph,
            interner,
            schemas,
            cache,
            meter,
            config,
            bootstrap,
            updates_applied,
            log,
            advisor,
            persist: None,
            wal_retired: WalStats::default(),
            failpoints: Failpoints::none(),
        }
    }
}

impl SessionSnapshot {
    /// Rebuild a live session from this snapshot image alone (no WAL
    /// replay, no persistence attached — pair with
    /// [`R2d2Session::enable_persistence`] to resume durability).
    pub fn restore(&self) -> Result<R2d2Session> {
        let decoded = persist::decode_snapshot(&self.bytes)?;
        Ok(R2d2Session::from_decoded(decoded))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use r2d2_lake::{
        AccessProfile, Column, DataType, PartitionSpec, PartitionedTable, Predicate, Schema, Table,
        Value,
    };

    fn table(ids: std::ops::Range<i64>) -> Table {
        // The float column is a function of the id so any id-range subset is
        // also a true row-tuple subset.
        let schema = Schema::flat(&[("id", DataType::Int), ("v", DataType::Float)]).unwrap();
        Table::new(
            schema,
            vec![
                Column::from_ints(ids.clone()),
                Column::from_floats(ids.map(|i| i as f64 * 0.5)),
            ],
        )
        .unwrap()
    }

    fn part(t: Table) -> PartitionedTable {
        PartitionedTable::from_table(
            t,
            PartitionSpec::ByRowCount {
                rows_per_partition: 16,
            },
        )
        .unwrap()
    }

    fn add_update(name: &str, t: Table) -> LakeUpdate {
        LakeUpdate::AddDataset {
            name: name.into(),
            data: part(t),
            access: AccessProfile::default(),
            lineage: None,
        }
    }

    fn session_with(datasets: &[(&str, Table)]) -> R2d2Session {
        let mut lake = DataLake::new();
        for (name, t) in datasets {
            lake.add_dataset(*name, part(t.clone()), AccessProfile::default(), None)
                .unwrap();
        }
        R2d2Session::bootstrap(lake, PipelineConfig::default().with_seed(3)).unwrap()
    }

    fn fresh_edges(session: &R2d2Session) -> Vec<(u64, u64)> {
        let mut edges = R2d2Pipeline::new(session.config().clone())
            .run(session.lake())
            .unwrap()
            .after_clp
            .edges();
        edges.sort_unstable();
        edges
    }

    fn session_edges(session: &R2d2Session) -> Vec<(u64, u64)> {
        let mut edges = session.graph().edges();
        edges.sort_unstable();
        edges
    }

    #[test]
    fn bootstrap_runs_the_batch_pipeline() {
        let session = session_with(&[("base", table(0..50)), ("sub", table(10..30))]);
        assert_eq!(session.bootstrap_report().stages.len(), 3);
        assert_eq!(session_edges(&session), fresh_edges(&session));
        assert_eq!(session.graph().edge_count(), 1);
        let report = session.report();
        assert_eq!(report.datasets, 2);
        assert_eq!(report.edges, 1);
        assert_eq!(report.updates_applied, 0);
        assert!(report.ops.row_level_ops() > 0);
    }

    #[test]
    fn adding_a_contained_dataset_creates_edges() {
        let mut session = session_with(&[("base", table(0..50))]);
        let before = session.graph().clone();
        let report = session.apply(add_update("sub", table(10..30))).unwrap();
        assert_eq!(report.updates_applied, 1);
        assert_eq!(report.datasets_changed, 1);
        assert_eq!(report.delta.added.len(), 1);
        assert!(report.candidates_checked >= 2);
        // The report's delta is exactly the graph-level edge diff.
        assert_eq!(
            report.delta,
            r2d2_graph::diff::edge_delta(&before, session.graph())
        );
        assert_eq!(session_edges(&session), fresh_edges(&session));
        assert_eq!(session.update_log().len(), 1);
    }

    #[test]
    fn appending_foreign_rows_invalidates_incoming_edges() {
        let mut session = session_with(&[("base", table(0..50)), ("sub", table(10..30))]);
        let (base, sub) = (0u64, 1u64);
        assert!(session.graph().has_edge(base, sub));
        // The child grows past its parent's range.
        let report = session
            .apply(LakeUpdate::AppendRows {
                id: DatasetId(sub),
                rows: table(60..90),
            })
            .unwrap();
        assert!(!session.graph().has_edge(base, sub));
        assert!(report.delta.removed.contains(&(base, sub)));
        assert_eq!(session_edges(&session), fresh_edges(&session));
    }

    #[test]
    fn deleting_rows_can_create_new_incoming_edges() {
        let mut session = session_with(&[("a", table(0..30)), ("b", table(0..60))]);
        let (a, b) = (0u64, 1u64);
        assert!(session.graph().has_edge(b, a), "b ⊇ a initially");
        // b shrinks to a strict subset of a.
        let report = session
            .apply(LakeUpdate::DeleteRows {
                id: DatasetId(b),
                predicate: Predicate::between("id", Value::Int(20), Value::Int(59)),
            })
            .unwrap();
        assert!(session.graph().has_edge(a, b), "a now contains b");
        assert!(report.delta.added.contains(&(a, b)));
        assert_eq!(session_edges(&session), fresh_edges(&session));
    }

    #[test]
    fn dropping_a_dataset_clears_its_edges() {
        let mut session = session_with(&[
            ("base", table(0..50)),
            ("sub", table(10..30)),
            ("other", table(5..25)),
        ]);
        let report = session
            .apply(LakeUpdate::DropDataset { id: DatasetId(0) })
            .unwrap();
        assert!(report.delta.added.is_empty());
        assert!(!report.delta.removed.is_empty());
        assert_eq!(report.candidates_checked, 0, "drops verify nothing");
        assert_eq!(session_edges(&session), fresh_edges(&session));
        assert_eq!(session.report().datasets, 2);
    }

    #[test]
    fn batch_coalesces_repeated_appends_into_one_sweep() {
        let mut seq = session_with(&[("base", table(0..80)), ("sub", table(10..30))]);
        let mut batch = session_with(&[("base", table(0..80)), ("sub", table(10..30))]);
        let updates = vec![
            LakeUpdate::AppendRows {
                id: DatasetId(1),
                rows: table(30..40),
            },
            LakeUpdate::AppendRows {
                id: DatasetId(1),
                rows: table(40..50),
            },
            LakeUpdate::AppendRows {
                id: DatasetId(1),
                rows: table(50..60),
            },
        ];
        let mut seq_candidates = 0;
        for u in &updates {
            seq_candidates += seq.apply(u.clone()).unwrap().candidates_checked;
        }
        let report = batch.apply_batch(&updates).unwrap();
        assert_eq!(report.updates_applied, 3);
        assert_eq!(report.datasets_changed, 1);
        assert!(
            report.candidates_checked < seq_candidates,
            "batch must verify once, not once per append ({} vs {})",
            report.candidates_checked,
            seq_candidates
        );
        // The three appends also merged into ONE catalog rebuild...
        assert_eq!(
            report.applied,
            vec![r2d2_lake::AppliedUpdate::Appended {
                id: DatasetId(1),
                rows: 30
            }]
        );
        // ...so the batch scans strictly less than the three sequential
        // materialise+rebuild cycles did.
        let seq_scanned: u64 = seq.update_log().iter().map(|r| r.ops.rows_scanned).sum();
        assert!(
            report.ops.rows_scanned < seq_scanned,
            "merged append must rebuild once ({} vs {})",
            report.ops.rows_scanned,
            seq_scanned
        );
        // Both routes land on the same graph, which matches a fresh run.
        assert_eq!(session_edges(&seq), session_edges(&batch));
        assert_eq!(session_edges(&batch), fresh_edges(&batch));
    }

    #[test]
    fn append_runs_do_not_merge_across_a_delete_of_the_same_dataset() {
        // append(5 rows) → delete(id ≥ 10) → append(rows 10..15): merging
        // the appends across the delete would resurrect deleted rows.
        let mut session = session_with(&[("d", table(0..10))]);
        session
            .apply_batch(&[
                LakeUpdate::AppendRows {
                    id: DatasetId(0),
                    rows: table(10..15),
                },
                LakeUpdate::DeleteRows {
                    id: DatasetId(0),
                    predicate: Predicate::between("id", Value::Int(10), Value::Int(99)),
                },
                LakeUpdate::AppendRows {
                    id: DatasetId(0),
                    rows: table(10..15),
                },
            ])
            .unwrap();
        assert_eq!(session.lake().dataset(DatasetId(0)).unwrap().num_rows(), 15);
        assert_eq!(session_edges(&session), fresh_edges(&session));

        // Only ADJACENT appends merge — any intervening update (even to
        // another dataset) closes the run, so a merged run always maps to a
        // contiguous slice of the batch and the mid-batch error guarantee
        // ("exactly the updates before the failure are applied") holds.
        let mut session = session_with(&[("a", table(0..10)), ("b", table(0..10))]);
        let report = session
            .apply_batch(&[
                LakeUpdate::AppendRows {
                    id: DatasetId(0),
                    rows: table(10..12),
                },
                LakeUpdate::AppendRows {
                    id: DatasetId(1),
                    rows: table(10..12),
                },
                LakeUpdate::AppendRows {
                    id: DatasetId(0),
                    rows: table(12..14),
                },
            ])
            .unwrap();
        assert_eq!(report.updates_applied, 3);
        assert_eq!(report.applied.len(), 3, "interleaved appends stay separate");
        assert_eq!(session_edges(&session), fresh_edges(&session));
    }

    #[test]
    fn appends_after_a_failing_update_are_not_applied() {
        // Regression: an append AFTER the failure point must never merge
        // into an earlier run and sneak in before the error.
        let mut session = session_with(&[("base", table(0..50)), ("sub", table(10..30))]);
        let err = session
            .apply_batch(&[
                LakeUpdate::AppendRows {
                    id: DatasetId(1),
                    rows: table(30..35),
                },
                LakeUpdate::DropDataset { id: DatasetId(99) },
                LakeUpdate::AppendRows {
                    id: DatasetId(1),
                    rows: table(35..40),
                },
            ])
            .unwrap_err();
        assert!(matches!(err, r2d2_lake::LakeError::DatasetNotFound(_)));
        assert_eq!(
            session.lake().dataset(DatasetId(1)).unwrap().num_rows(),
            25,
            "exactly the updates before the failure are applied"
        );
        assert_eq!(session.report().updates_applied, 1);
        assert_eq!(session_edges(&session), fresh_edges(&session));
    }

    #[test]
    fn add_then_drop_in_one_batch_is_never_verified() {
        let mut session = session_with(&[("base", table(0..40))]);
        let report = session
            .apply_batch(&[
                add_update("ephemeral", table(0..10)),
                LakeUpdate::DropDataset { id: DatasetId(1) },
            ])
            .unwrap();
        assert_eq!(report.candidates_checked, 0);
        assert!(report.delta.is_empty());
        assert_eq!(session.report().datasets, 1);
        assert_eq!(session_edges(&session), fresh_edges(&session));
    }

    #[test]
    fn verification_reuses_cached_parent_multisets_across_updates() {
        let mut session = session_with(&[("base", table(0..64)), ("sub", table(10..30))]);
        let parent_rows = 64;

        // First content update: the sweep builds base's multiset once.
        let first = session
            .apply(LakeUpdate::AppendRows {
                id: DatasetId(1),
                rows: table(30..40),
            })
            .unwrap();
        assert!(
            first.ops.rows_hashed >= parent_rows,
            "first sweep must build the parent's hash multiset ({} hashed)",
            first.ops.rows_hashed
        );
        let cached = session.cached_build_sides();
        assert!(cached >= 1, "parent multiset must stay cached");

        // Second update to the same child: the parent was not mutated, so
        // its multiset is served from the session cache — only the (small)
        // child sample is hashed.
        let second = session
            .apply(LakeUpdate::AppendRows {
                id: DatasetId(1),
                rows: table(40..50),
            })
            .unwrap();
        assert!(
            second.ops.rows_hashed < parent_rows,
            "second sweep must reuse the cached parent multiset ({} hashed)",
            second.ops.rows_hashed
        );
        assert_eq!(session.cached_build_sides(), cached);
        assert_eq!(session_edges(&session), fresh_edges(&session));
    }

    #[test]
    fn mutating_a_parent_invalidates_its_cached_multiset() {
        // cand (rows 60..70) is NOT contained in base (rows 0..64) at
        // bootstrap; once base grows to 0..80 it is. The verification of the
        // new base → cand edge must probe base's *post-append* multiset — a
        // stale cached one (0..64) would wrongly prune rows 64..69.
        let mut session = session_with(&[
            ("base", table(0..64)),
            ("sub", table(10..30)),
            ("cand", table(60..70)),
        ]);
        assert!(!session.graph().has_edge(0, 2));
        // Populate the session cache with base's multiset (an update to sub
        // re-verifies base → sub through the cache).
        session
            .apply(LakeUpdate::AppendRows {
                id: DatasetId(1),
                rows: table(30..40),
            })
            .unwrap();
        assert!(session.cached_build_sides() >= 1);
        // Append to base itself: its cached multiset is stale and evicted.
        let report = session
            .apply(LakeUpdate::AppendRows {
                id: DatasetId(0),
                rows: table(64..80),
            })
            .unwrap();
        assert!(
            session.graph().has_edge(0, 2),
            "base now contains cand — a stale cached multiset would prune this edge"
        );
        assert!(
            report.ops.rows_hashed >= 80,
            "the grown parent's multiset must be rebuilt ({} hashed)",
            report.ops.rows_hashed
        );
        assert_eq!(session_edges(&session), fresh_edges(&session));
    }

    #[test]
    fn mid_batch_error_keeps_graph_consistent_with_lake() {
        let mut session = session_with(&[("base", table(0..50)), ("sub", table(10..30))]);
        let err = session
            .apply_batch(&[
                LakeUpdate::AppendRows {
                    id: DatasetId(1),
                    rows: table(60..90),
                },
                LakeUpdate::DropDataset { id: DatasetId(99) },
            ])
            .unwrap_err();
        assert!(matches!(err, r2d2_lake::LakeError::DatasetNotFound(_)));
        // The append before the failure is applied AND verified: the edge
        // base → sub is gone, exactly as a fresh run over the lake says.
        assert!(!session.graph().has_edge(0, 1));
        assert_eq!(session_edges(&session), fresh_edges(&session));
        assert!(
            session.update_log().is_empty(),
            "failed batches are not logged"
        );
        assert_eq!(session.report().updates_applied, 1);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let mut session = session_with(&[("base", table(0..20))]);
        let report = session.apply_batch(&[]).unwrap();
        assert_eq!(report.updates_applied, 0);
        assert_eq!(report.candidates_checked, 0);
        assert!(report.delta.is_empty());
    }

    #[test]
    fn noop_updates_trigger_no_verification() {
        let mut session = session_with(&[("base", table(0..20)), ("sub", table(5..15))]);
        let report = session
            .apply(LakeUpdate::DeleteRows {
                id: DatasetId(1),
                predicate: Predicate::eq("id", Value::Int(999)),
            })
            .unwrap();
        assert_eq!(report.updates_applied, 1);
        assert_eq!(report.datasets_changed, 0);
        assert_eq!(report.candidates_checked, 0);
    }

    #[test]
    fn into_parts_returns_lake_and_graph() {
        let session = session_with(&[("base", table(0..20)), ("sub", table(5..15))]);
        let edges = session.graph().edge_count();
        let (lake, graph) = session.into_parts();
        assert_eq!(lake.len(), 2);
        assert_eq!(graph.edge_count(), edges);
    }

    #[test]
    fn with_defaults_uses_paper_config() {
        let session = R2d2Session::with_defaults(DataLake::new()).unwrap();
        assert_eq!(session.config(), &PipelineConfig::default());
        assert_eq!(session.report().datasets, 0);
    }

    #[test]
    fn apply_group_commits_queued_batches_as_one_execution() {
        let mut session = session_with(&[("base", table(0..50)), ("sub", table(10..30))]);
        let batches = vec![
            vec![LakeUpdate::AppendRows {
                id: DatasetId(1),
                rows: table(30..40),
            }],
            vec![add_update("extra", table(5..25))],
            vec![LakeUpdate::AppendRows {
                id: DatasetId(0),
                rows: table(50..60),
            }],
        ];
        let outcome = session.apply_group(&batches);
        assert_eq!(outcome.commits.len(), 1, "the whole group is one commit");
        assert!(outcome.commits[0].error.is_none());
        assert_eq!(outcome.updates_applied(), 3);
        let commits: Vec<usize> = outcome
            .results
            .iter()
            .map(|r| *r.as_ref().unwrap())
            .collect();
        assert_eq!(commits, vec![0, 0, 0]);
        assert!(outcome.persist_error.is_none());
        assert_eq!(session.report().updates_applied, 3);
        assert_eq!(session.update_log().len(), 1, "one commit, one log entry");
        // Captured before fresh_edges below — the oracle pipeline run meters
        // into the session's shared meter.
        let session_ops = session.ops();
        assert_eq!(session_edges(&session), fresh_edges(&session));

        // The commit's recorded updates replay bit-identically through the
        // plain batch path (the serve layer's oracle contract).
        let mut replay = session_with(&[("base", table(0..50)), ("sub", table(10..30))]);
        replay.apply_batch(&outcome.commits[0].updates).unwrap();
        assert_eq!(session_edges(&replay), session_edges(&session));
        assert_eq!(replay.ops(), session_ops);
    }

    #[test]
    fn apply_group_isolates_a_failing_batch_and_retries_the_tail() {
        let mut session = session_with(&[("base", table(0..50)), ("sub", table(10..30))]);
        let batches = vec![
            vec![LakeUpdate::AppendRows {
                id: DatasetId(1),
                rows: table(30..35),
            }],
            vec![
                LakeUpdate::AppendRows {
                    id: DatasetId(1),
                    rows: table(35..40),
                },
                LakeUpdate::DropDataset { id: DatasetId(99) },
            ],
            vec![LakeUpdate::AppendRows {
                id: DatasetId(0),
                rows: table(50..60),
            }],
        ];
        let outcome = session.apply_group(&batches);
        // Commit 0 executed the full concat and failed at the drop; the tail
        // batch retried as commit 1.
        assert_eq!(outcome.commits.len(), 2);
        assert!(outcome.commits[0].error.is_some());
        assert!(outcome.commits[1].error.is_none());
        assert_eq!(outcome.results.len(), 3);
        assert_eq!(*outcome.results[0].as_ref().unwrap(), 0);
        assert!(matches!(
            outcome.results[1],
            Err(r2d2_lake::LakeError::DatasetNotFound(_))
        ));
        assert_eq!(*outcome.results[2].as_ref().unwrap(), 1);
        // Exactly the updates before the failure, plus the retried tail, are
        // live: sub has both appends (they precede the bad drop), base grew.
        assert_eq!(session.lake().dataset(DatasetId(1)).unwrap().num_rows(), 30);
        assert_eq!(session.lake().dataset(DatasetId(0)).unwrap().num_rows(), 60);
        assert_eq!(session.report().updates_applied, 3);
        assert_eq!(
            session.update_log().len(),
            1,
            "failed commits are not logged"
        );
        let session_ops = session.ops();
        assert_eq!(session_edges(&session), fresh_edges(&session));

        // Replaying the recorded commits through the plain batch path lands
        // on the identical session (mid-commit failure included).
        let mut replay = session_with(&[("base", table(0..50)), ("sub", table(10..30))]);
        for commit in &outcome.commits {
            let _ = replay.apply_batch(&commit.updates);
        }
        assert_eq!(session_edges(&replay), session_edges(&session));
        assert_eq!(replay.ops(), session_ops);
        // Log entries match up to wall clock (UpdateReport carries a
        // duration).
        assert_eq!(replay.update_log().len(), session.update_log().len());
        for (a, b) in replay.update_log().iter().zip(session.update_log()) {
            assert_eq!(a.applied, b.applied);
            assert_eq!(a.delta, b.delta);
            assert_eq!(a.ops, b.ops);
        }
    }

    #[test]
    fn apply_group_amortizes_wal_records_and_fsyncs() {
        let dir = std::env::temp_dir().join("r2d2_session_group_wal");
        std::fs::remove_dir_all(&dir).ok();
        let batches: Vec<Vec<LakeUpdate>> = (0..4)
            .map(|i| {
                vec![LakeUpdate::AppendRows {
                    id: DatasetId(1),
                    rows: table(30 + i * 5..35 + i * 5),
                }]
            })
            .collect();

        let mut grouped = session_with(&[("base", table(0..80)), ("sub", table(10..30))]);
        grouped
            .enable_persistence(PersistenceConfig::new(dir.join("grouped")).with_snapshot_every(0))
            .unwrap();
        assert_eq!(grouped.wal_stats().unwrap().records, 0);
        let outcome = grouped.apply_group(&batches);
        assert_eq!(outcome.commits.len(), 1);
        let grouped_stats = grouped.wal_stats().unwrap();
        assert_eq!(grouped_stats.records, 1, "4 batches, one WAL record");

        let mut per_batch = session_with(&[("base", table(0..80)), ("sub", table(10..30))]);
        per_batch
            .enable_persistence(
                PersistenceConfig::new(dir.join("per_batch")).with_snapshot_every(0),
            )
            .unwrap();
        for batch in &batches {
            per_batch.apply_batch(batch).unwrap();
        }
        let per_batch_stats = per_batch.wal_stats().unwrap();
        assert_eq!(per_batch_stats.records, 4);
        assert!(grouped_stats.fsyncs < per_batch_stats.fsyncs);

        // Both WAL shapes restore to the identical session state.
        assert_eq!(session_edges(&grouped), session_edges(&per_batch));
        let restored = R2d2Session::restore(dir.join("grouped")).unwrap();
        assert_eq!(session_edges(&restored), session_edges(&grouped));
        // Page counters depend on what was already decoded in memory, so a
        // restore reproduces everything but them (same mask the restart
        // oracle uses).
        assert_eq!(
            restored.ops().without_page_counters(),
            grouped.ops().without_page_counters()
        );
        // Checkpointing folds the rotated WAL's counters into the total.
        grouped.checkpoint().unwrap();
        let after = grouped.wal_stats().unwrap();
        assert_eq!(after.records, grouped_stats.records);
        assert!(after.fsyncs > grouped_stats.fsyncs);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn view_is_an_immutable_snapshot_of_the_session() {
        let mut session = session_with(&[("base", table(0..50)), ("sub", table(10..30))]);
        let view = session.view();
        assert_eq!(view.datasets(), 2);
        assert_eq!(view.edges(), 1);
        assert_eq!(view.updates_applied(), 0);
        assert_eq!(view.batches_applied(), 0);
        assert_eq!(view.ops(), session.ops());
        assert!(view.advice().is_none(), "no advisor attached");

        // Later session mutations are invisible to the captured view.
        session
            .apply(LakeUpdate::AppendRows {
                id: DatasetId(1),
                rows: table(60..90),
            })
            .unwrap();
        assert!(!session.graph().has_edge(0, 1));
        assert!(view.graph().has_edge(0, 1), "view keeps the old graph");
        assert_eq!(
            view.lake().dataset(DatasetId(1)).unwrap().num_rows(),
            20,
            "view keeps the old table"
        );

        // Reads through the view meter into the view, not the session...
        let ops_before = session.ops();
        let rows = view
            .query_dataset(DatasetId(1), &Predicate::True, None)
            .unwrap();
        assert_eq!(rows.num_rows(), 20);
        assert_eq!(session.ops(), ops_before);
        assert!(view.read_ops().rows_scanned > 0);
        // ...but their access tallies land on the shared log, so reader
        // traffic still feeds the session's access profiles.
        assert_eq!(session.refresh_access_profiles().unwrap(), 1);
        assert_eq!(
            session
                .lake()
                .dataset(DatasetId(1))
                .unwrap()
                .access
                .accesses_per_period,
            1.0
        );

        // A session with an advisor exposes its advice through the view.
        let view = session.view();
        assert_eq!(view.updates_applied(), 1);
        assert!(view.advice().is_none());
        session.advise().unwrap();
        assert!(session.view().advice().is_some());
    }

    use r2d2_opt::advisor::{self, AdvisorConfig};
    use r2d2_opt::preprocess::TransformKnowledge;
    use r2d2_opt::CostModel;

    fn advisor_config() -> AdvisorConfig {
        // AssumeKnown: every containment edge is a reconstruction option, so
        // the tiny test lakes produce non-trivial Opt-Ret instances.
        AdvisorConfig::default().with_knowledge(TransformKnowledge::AssumeKnown)
    }

    fn assert_advice_matches_from_scratch(session: &mut R2d2Session) {
        let incremental = session.advise().unwrap();
        let fresh = advisor::from_scratch(
            session.lake(),
            session.graph(),
            &CostModel::default(),
            &advisor_config(),
        )
        .unwrap();
        assert_eq!(incremental, fresh, "advisor diverged from from-scratch");
    }

    #[test]
    fn advisor_stays_in_sync_across_updates() {
        let mut session = session_with(&[("base", table(0..50)), ("sub", table(10..30))]);
        session
            .enable_advisor(CostModel::default(), advisor_config())
            .unwrap();
        assert!(session.advisor_enabled());
        assert_advice_matches_from_scratch(&mut session);

        // Add a contained dataset, append foreign rows, drop a dataset —
        // after every batch the incremental advice equals a fresh solve.
        session.apply(add_update("extra", table(0..20))).unwrap();
        assert_advice_matches_from_scratch(&mut session);

        session
            .apply(LakeUpdate::AppendRows {
                id: DatasetId(1),
                rows: table(60..90),
            })
            .unwrap();
        assert_advice_matches_from_scratch(&mut session);

        session
            .apply(LakeUpdate::DropDataset { id: DatasetId(2) })
            .unwrap();
        assert_advice_matches_from_scratch(&mut session);

        session.disable_advisor();
        assert!(!session.advisor_enabled());
    }

    #[test]
    fn advise_lazily_attaches_a_default_advisor() {
        let mut session = session_with(&[("base", table(0..50)), ("sub", table(10..30))]);
        assert!(!session.advisor_enabled());
        let solution = session.advise().unwrap();
        assert!(session.advisor_enabled());
        // Default knowledge policy is Required; with no lineage recorded the
        // problem has no edges, so everything is retained.
        assert_eq!(solution.deleted.len(), 0);
        assert_eq!(solution.retained.len(), 2);
        let problem = session.advisor_problem().unwrap();
        assert_eq!(problem.edge_count(), 0);
    }

    #[test]
    fn advisor_report_summarises_savings_and_resolves() {
        let mut session = session_with(&[("base", table(0..50)), ("sub", table(10..30))]);
        session
            .enable_advisor(CostModel::default(), advisor_config())
            .unwrap();
        let report = session.advisor_report().unwrap();
        assert_eq!(
            report.table7.deleted_nodes + report.table7.retained_nodes,
            session.report().datasets
        );
        assert!(report.total_cost <= report.retain_all_cost + 1e-12);
        assert_eq!(report.stats.components_reused, 0, "first pass solves all");

        // A second report with no intervening update reuses every component.
        let second = session.advisor_report().unwrap();
        assert_eq!(second.solution, report.solution);
        assert_eq!(second.stats.components_resolved, 0);
        assert_eq!(
            second.stats.components_reused,
            second.stats.components_total
        );
    }

    #[test]
    fn metered_queries_refresh_access_profiles_and_trigger_readvice() {
        let mut session = session_with(&[("base", table(0..50)), ("sub", table(10..30))]);
        session
            .enable_advisor(CostModel::default(), advisor_config())
            .unwrap();
        session.advise().unwrap();

        // Serve query traffic against `sub` through the metered entry point.
        for _ in 0..5 {
            session
                .lake()
                .query_dataset(DatasetId(1), &Predicate::True, Some(4))
                .unwrap();
        }
        let changed = session.refresh_access_profiles().unwrap();
        assert_eq!(changed, 1, "only the queried dataset's profile moved");
        assert_eq!(
            session
                .lake()
                .dataset(DatasetId(1))
                .unwrap()
                .access
                .accesses_per_period,
            5.0
        );
        // The advisor saw the drift and still matches a fresh solve over the
        // updated profiles.
        assert_advice_matches_from_scratch(&mut session);
        // A window with no traffic cools the dataset back down to 0
        // observed accesses (stale heat must not persist)...
        assert_eq!(session.refresh_access_profiles().unwrap(), 1);
        assert_eq!(
            session
                .lake()
                .dataset(DatasetId(1))
                .unwrap()
                .access
                .accesses_per_period,
            0.0
        );
        assert_advice_matches_from_scratch(&mut session);
        // ...after which further idle windows change nothing.
        assert_eq!(session.refresh_access_profiles().unwrap(), 0);
    }
}
