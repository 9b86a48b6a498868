//! Every call the benchmark makes into the system, in one place.
//!
//! The benchmark measures the lake from outside, through public items of
//! `r2d2-lake`, `r2d2-graph`, `r2d2-core`, `r2d2-opt`, `r2d2-serve` and (for
//! inputs) `r2d2-synth`. This file is the complete list of those items: the
//! rest of the benchmark names no system crate. A change that moves or
//! renames one of them has to touch this file and nothing else here, and the
//! signatures below are the ones whose cost the committed numbers describe.
//! `README.md` repeats the list.

use std::path::Path;

pub use r2d2_core::{
    IngestReport, PipelineConfig, PipelineReport, R2d2Session, SessionSnapshot, UpdateReport,
};
pub use r2d2_graph::ContainmentGraph;
pub use r2d2_lake::wal::WalStats;
pub use r2d2_lake::{
    AccessProfile, DataLake, DatasetId, LakeUpdate, Meter, OpCounts, PartitionedTable, Predicate,
    Table, Value,
};
pub use r2d2_opt::advisor::ResolveStats;
pub use r2d2_opt::{OptRetProblem, Solution};
pub use r2d2_serve::{CommitTicket, Epoch, R2d2Server, ReadHandle, ServerStats};
pub use r2d2_synth::corpus::{Corpus, CorpusSpec, DomainTag, OrgProfile};
pub use r2d2_synth::Zipf;

use r2d2_core::{AdvisorConfig, IngestOptions, PersistenceConfig, R2d2Pipeline};
use r2d2_opt::preprocess::TransformKnowledge;
use r2d2_opt::CostModel;
use r2d2_serve::ServeConfig;

pub type Result<T> = r2d2_lake::Result<T>;

// ---- r2d2-synth: inputs ---------------------------------------------------

/// `r2d2_synth::corpus::generate`
pub fn generate_corpus(spec: &CorpusSpec) -> Result<Corpus> {
    r2d2_synth::corpus::generate(spec)
}

/// `r2d2_synth::emit::write_lake_csv`
pub fn write_lake_csv(lake: &DataLake, dir: &Path, sabotage_seed: Option<u64>) -> Result<usize> {
    r2d2_synth::emit::write_lake_csv(lake, dir, sabotage_seed)
}

/// Datasets with at least one child in a containment graph
/// (`ContainmentGraph::datasets` / `children`).
pub fn datasets_with_children(graph: &ContainmentGraph) -> Vec<DatasetId> {
    graph
        .datasets()
        .iter()
        .filter(|&&d| !graph.children(d).is_empty())
        .map(|&d| DatasetId(d))
        .collect()
}

/// Whether two graphs have the same edges (`ContainmentGraph::edges`).
/// `==` also compares node numbering, which an incrementally maintained
/// graph and a freshly built one need not share.
pub fn same_edges(a: &ContainmentGraph, b: &ContainmentGraph) -> bool {
    let (mut a, mut b) = (a.edges(), b.edges());
    a.sort_unstable();
    b.sort_unstable();
    a == b
}

// ---- r2d2-core: batch detection ---------------------------------------------

/// The detection configuration of every phase: the defaults, the run's CLP
/// sampling seed, and a thread count.
pub fn pipeline_config(seed: u64, threads: usize) -> PipelineConfig {
    PipelineConfig::default()
        .with_seed(seed)
        .with_threads(threads)
}

/// `R2d2Pipeline::run`
pub fn detect(lake: &DataLake, config: &PipelineConfig) -> Result<PipelineReport> {
    R2d2Pipeline::new(config.clone()).run(lake)
}

/// `R2d2Pipeline::run_sgb`
pub fn stage_sgb(lake: &DataLake, config: &PipelineConfig, meter: &Meter) -> ContainmentGraph {
    R2d2Pipeline::new(config.clone()).run_sgb(lake, meter).graph
}

/// `r2d2_core::mmp::min_max_prune_threaded`; returns edges pruned by the
/// distinct-count gate.
pub fn stage_mmp(
    lake: &DataLake,
    graph: &mut ContainmentGraph,
    config: &PipelineConfig,
    meter: &Meter,
) -> Result<usize> {
    let stats = r2d2_core::mmp::min_max_prune_threaded(
        lake,
        graph,
        r2d2_core::mmp::MmpOptions::from_config(config),
        config.threads,
        meter,
    )?;
    Ok(stats.edges_pruned_by_distinct)
}

/// `r2d2_core::clp::content_level_prune`; returns `(examined, pruned)`.
pub fn stage_clp(
    lake: &DataLake,
    graph: &mut ContainmentGraph,
    config: &PipelineConfig,
    meter: &Meter,
) -> Result<(usize, usize)> {
    let stats = r2d2_core::clp::content_level_prune(lake, graph, config, meter)?;
    Ok((stats.edges_examined, stats.edges_pruned))
}

// ---- r2d2-core: the session ---------------------------------------------------

/// `R2d2Session::bootstrap`
pub fn bootstrap(lake: DataLake, config: &PipelineConfig) -> Result<R2d2Session> {
    R2d2Session::bootstrap(lake, config.clone())
}

/// `R2d2Session::enable_persistence`, explicit checkpoints only, the default
/// rebase interval ([`REBASE_EVERY`] deltas between two full snapshots).
pub fn enable_persistence(session: &mut R2d2Session, dir: &Path) -> Result<()> {
    session.enable_persistence(PersistenceConfig::new(dir).with_snapshot_every(0))
}

/// `r2d2_core::persist::DEFAULT_REBASE_EVERY`: after this many delta
/// checkpoints the next one is a full snapshot.
pub const REBASE_EVERY: usize = r2d2_core::persist::DEFAULT_REBASE_EVERY;

/// `R2d2Session::enable_advisor` with the default cost model and transform
/// knowledge assumed, as every advisor experiment of this repository runs it.
pub fn enable_advisor(session: &mut R2d2Session) -> Result<()> {
    session.enable_advisor(
        CostModel::default(),
        AdvisorConfig::default().with_knowledge(TransformKnowledge::AssumeKnown),
    )
}

/// `R2d2Session::apply_batch`; a call of one update is what
/// `R2d2Session::apply` does, without handing the update over.
pub fn apply(session: &mut R2d2Session, call: &[LakeUpdate]) -> Result<UpdateReport> {
    session.apply_batch(call)
}

/// `R2d2Session::advise`
pub fn advise(session: &mut R2d2Session) -> Result<Solution> {
    session.advise()
}

/// `R2d2Session::advisor_stats`
pub fn advisor_stats(session: &R2d2Session) -> ResolveStats {
    session.advisor_stats().unwrap_or_default()
}

/// `R2d2Session::advisor_problem`
pub fn advisor_problem(session: &mut R2d2Session) -> Result<OptRetProblem> {
    session.advisor_problem()
}

/// `R2d2Session::checkpoint`
pub fn checkpoint(session: &mut R2d2Session) -> Result<u64> {
    session.checkpoint()
}

/// `R2d2Session::restore`
pub fn restore(dir: &Path) -> Result<R2d2Session> {
    R2d2Session::restore(dir)
}

/// `R2d2Session::snapshot` (encode, no file I/O)
pub fn snapshot(session: &R2d2Session) -> SessionSnapshot {
    session.snapshot()
}

/// `SessionSnapshot::restore` (decode, no file I/O)
pub fn snapshot_restore(snapshot: &SessionSnapshot) -> Result<R2d2Session> {
    snapshot.restore()
}

/// `R2d2Session::wal_stats`
pub fn wal_stats(session: &R2d2Session) -> WalStats {
    session.wal_stats().unwrap_or_default()
}

/// `R2d2Session::ingest_dir` with the default options.
pub fn ingest_dir(session: &mut R2d2Session, dir: &Path) -> Result<IngestReport> {
    session.ingest_dir(dir, &IngestOptions::default())
}

// ---- r2d2-lake: CSV and WAL -----------------------------------------------------

/// `r2d2_lake::csv::read_csv` with the options `ingest_dir` uses; returns
/// `(rows kept, rows quarantined)`.
pub fn parse_csv(text: &str) -> (usize, usize) {
    match r2d2_lake::csv::read_csv(text, &IngestOptions::default().csv) {
        Ok(read) => (read.table.num_rows(), read.quarantined.len()),
        Err(_) => (0, 0),
    }
}

/// `WalWriter::create`
pub fn wal_create(path: &Path) -> Result<r2d2_lake::wal::WalWriter> {
    r2d2_lake::wal::WalWriter::create(path, 1, 0)
}

/// `WalWriter::append` (one record, one fsync)
pub fn wal_append(wal: &mut r2d2_lake::wal::WalWriter, payload: &[u8]) -> Result<()> {
    wal.append(payload)
}

// ---- r2d2-graph: codec and generators --------------------------------------------

/// `r2d2_graph::codec::encode`
pub fn graph_encode(graph: &ContainmentGraph) -> bytes::Bytes {
    r2d2_graph::codec::encode(graph)
}

/// `r2d2_graph::codec::decode`
pub fn graph_decode(encoded: &bytes::Bytes) -> Option<ContainmentGraph> {
    r2d2_graph::codec::decode(&mut encoded.clone()).ok()
}

/// `r2d2_graph::random::erdos_renyi`
pub fn erdos_renyi(nodes: usize, p: f64, rng: &mut impl rand::Rng) -> ContainmentGraph {
    r2d2_graph::random::erdos_renyi(nodes, p, rng)
}

/// `r2d2_graph::random::line_forest`
pub fn line_forest(lengths: &[usize]) -> ContainmentGraph {
    r2d2_graph::random::line_forest(lengths)
}

/// `r2d2_graph::algo::weakly_connected_components`, as dataset ids.
pub fn components(graph: &ContainmentGraph) -> Vec<Vec<u64>> {
    r2d2_graph::algo::weakly_connected_components(graph.digraph())
        .iter()
        .map(|c| c.iter().filter_map(|&n| graph.dataset_of(n)).collect())
        .collect()
}

// ---- r2d2-opt: the solver -----------------------------------------------------------

/// `OptRetProblem::synthetic` under the default cost model.
pub fn synthetic_problem(
    graph: &ContainmentGraph,
    size_bytes: impl Fn(u64) -> u64,
    accesses: impl Fn(u64) -> f64,
) -> OptRetProblem {
    OptRetProblem::synthetic(graph, &CostModel::default(), size_bytes, accesses)
}

/// `r2d2_opt::solve`
pub fn solve(problem: &OptRetProblem) -> Solution {
    r2d2_opt::solve(problem)
}

/// `r2d2_opt::solve_greedy`
pub fn solve_greedy(problem: &OptRetProblem) -> Solution {
    r2d2_opt::solve_greedy(problem)
}

/// `AdjacencyIndex::new`
pub fn adjacency_index(problem: &OptRetProblem) -> r2d2_opt::AdjacencyIndex {
    r2d2_opt::AdjacencyIndex::new(problem)
}

/// The problem's edges as a graph (`OptRetProblem::nodes` / `edges`).
pub fn problem_graph(problem: &OptRetProblem) -> ContainmentGraph {
    let mut graph = ContainmentGraph::with_datasets(problem.nodes.keys().copied());
    for e in &problem.edges {
        graph.add_edge(e.parent, e.child);
    }
    graph
}

// ---- r2d2-serve ----------------------------------------------------------------------

/// `R2d2Server::start` with a queue as deep as the submitter's window, the
/// default group-commit fold and the commit transcript on (the replay oracle
/// needs it).
pub fn serve_start(session: R2d2Session, in_flight: usize) -> R2d2Server {
    R2d2Server::start(
        session,
        ServeConfig::default()
            .with_queue_capacity(in_flight)
            .with_record_commits(true),
    )
}

/// `ReadHandle::epoch` then `SessionView::query_dataset`: one read.
pub fn read(handle: &ReadHandle, id: DatasetId) -> Result<usize> {
    query(&pin(handle), id)
}

/// `ReadHandle::epoch`
pub fn pin(handle: &ReadHandle) -> std::sync::Arc<Epoch> {
    handle.epoch()
}

/// `SessionView::query_dataset`: the first rows of a dataset.
pub fn query(epoch: &Epoch, id: DatasetId) -> Result<usize> {
    epoch
        .query_dataset(id, &Predicate::True, Some(READ_ROWS))
        .map(|t| t.num_rows())
}

/// Rows one read asks for.
pub const READ_ROWS: usize = 16;
