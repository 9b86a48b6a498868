//! # r2d2-serve — snapshot-isolated readers over a group-committing writer
//!
//! [`r2d2_core::R2d2Session`] is a single-threaded mutable engine: every
//! query through `&session` contends with `apply_batch` for the whole
//! session. This crate turns one session into a concurrent service:
//!
//! * **Readers** hold clonable, `Send + Sync` [`ReadHandle`]s. A handle's
//!   [`ReadHandle::epoch`] is one atomic pointer load away from an immutable
//!   [`Epoch`] — a [`SessionView`] (catalog, containment graph, advisor
//!   solution, meter totals) stamped with a commit **generation**. Readers
//!   never block on the writer and never observe a torn state: graph,
//!   advice and catalog in one epoch all correspond to the same prefix of
//!   the committed update stream.
//! * **One writer thread** owns the session. [`R2d2Server::submit`] enqueues
//!   a batch on a bounded queue (backpressure blocks the submitter, never
//!   the readers) and returns a [`CommitTicket`]; the writer drains up to
//!   [`ServeConfig::group_commit_max`] queued batches at a time and applies
//!   them as **one group commit** ([`r2d2_core::R2d2Session::apply_group`]):
//!   one concatenated execution, one write-ahead record, one fsync, one
//!   verification sweep. A fresh epoch is published only after the commit,
//!   then every submitter in the group is acked with its own per-batch
//!   result — a batch that fails mid-group neither blocks nor fails the
//!   batches queued behind it (they retry as a fresh commit).
//!
//! ## Epoch publication protocol
//!
//! The current epoch lives in an `RwLock<Arc<Epoch>>` used as an atomic
//! cell: readers take the read lock just long enough to clone the `Arc`
//! (no allocation, no copying), the writer takes the write lock just long
//! enough to swap in the next `Arc`. Because a published view shares the
//! catalog's `Arc`'d tables and clones the graph/advice once, publication
//! cost is proportional to graph + advice size, never to data size. Old
//! epochs stay alive exactly as long as some reader still holds them.
//!
//! Reader queries meter into their epoch's detached meter, so the writer's
//! op counters remain a deterministic function of the applied update stream
//! — `tests/integration_serve.rs` pins that every observed epoch is
//! bit-identical to a fresh single-threaded session replayed to that
//! epoch's generation. Reader **access tallies** do land on the shared
//! [`r2d2_lake::AccessLog`], so served traffic keeps feeding the Eq. 3
//! access profiles.

#![deny(missing_docs)]
#![warn(clippy::all)]

use r2d2_core::{R2d2Session, SessionView};
use r2d2_lake::{LakeError, LakeUpdate, Result};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;

/// Tuning knobs of an [`R2d2Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bound of the update queue: [`R2d2Server::submit`] blocks (applying
    /// backpressure to producers) while this many batches are pending.
    pub queue_capacity: usize,
    /// Most queued batches folded into one group commit. `1` disables
    /// grouping (one commit — and one fsync — per batch).
    pub group_commit_max: usize,
    /// Record every executed commit's exact update concatenation
    /// ([`R2d2Server::commit_log`]) — the replay transcript the
    /// snapshot-isolation oracle checks epochs against. Off by default
    /// (the log retains every update ever committed).
    pub record_commits: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 64,
            group_commit_max: 16,
            record_commits: false,
        }
    }
}

impl ServeConfig {
    /// Set the bounded queue's capacity (min 1).
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Set the group-commit fold limit (min 1; `1` = per-batch commits).
    pub fn with_group_commit_max(mut self, max: usize) -> Self {
        self.group_commit_max = max.max(1);
        self
    }

    /// Enable the commit transcript for oracle tests.
    pub fn with_record_commits(mut self, on: bool) -> Self {
        self.record_commits = on;
        self
    }
}

/// One published snapshot: an immutable [`SessionView`] stamped with the
/// number of commits that produced it.
#[derive(Debug)]
pub struct Epoch {
    generation: u64,
    view: SessionView,
}

impl Epoch {
    /// How many group commits the writer had executed when this epoch was
    /// published (generation 0 is the bootstrap state).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The snapshot itself.
    pub fn view(&self) -> &SessionView {
        &self.view
    }
}

impl std::ops::Deref for Epoch {
    type Target = SessionView;
    fn deref(&self) -> &SessionView {
        &self.view
    }
}

/// What a committed batch's submitter gets back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitReceipt {
    /// The epoch generation at which this batch's commit became visible to
    /// readers (the ack happens after publication, so
    /// [`ReadHandle::generation`] is already `>=` this).
    pub generation: u64,
    /// Updates of the submitted batch that were applied (all of them — a
    /// partially applied batch reports its error instead).
    pub updates_applied: usize,
}

/// A pending commit acknowledgement for one submitted batch.
#[derive(Debug)]
pub struct CommitTicket {
    rx: mpsc::Receiver<Result<CommitReceipt>>,
}

impl CommitTicket {
    /// Block until the writer has committed (or rejected) the batch.
    pub fn wait(self) -> Result<CommitReceipt> {
        self.rx.recv().unwrap_or_else(|_| {
            Err(LakeError::InvalidArgument(
                "serve writer terminated before acknowledging the batch".into(),
            ))
        })
    }
}

/// Cumulative counters of a server (all monotone; readable from any
/// [`ReadHandle`] at any time).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Batches accepted onto the queue.
    pub batches_submitted: u64,
    /// Batches whose every update committed.
    pub batches_committed: u64,
    /// Batches rejected with an error.
    pub batches_failed: u64,
    /// Queue drains (each one [`r2d2_core::R2d2Session::apply_group`] call).
    pub group_drains: u64,
    /// Executed commits — the current epoch generation. `batches_committed /
    /// commits` is the group-commit amortization ratio (≈ fsyncs saved).
    pub commits: u64,
    /// Updates applied across all commits.
    pub updates_applied: u64,
    /// Post-commit durability failures (snapshot rotation); the commits
    /// they followed are unaffected.
    pub persist_errors: u64,
}

/// One queued submission: the batch and its submitter's ack channel.
type Submission = (Vec<LakeUpdate>, mpsc::Sender<Result<CommitReceipt>>);

#[derive(Debug)]
struct QueueState {
    pending: VecDeque<Submission>,
    shutdown: bool,
}

#[derive(Debug)]
struct Shared {
    epoch: RwLock<Arc<Epoch>>,
    queue: Mutex<QueueState>,
    /// Signals the writer: work arrived (or shutdown).
    work: Condvar,
    /// Signals blocked submitters: queue space freed (or shutdown).
    space: Condvar,
    commit_log: Mutex<Vec<Vec<LakeUpdate>>>,
    batches_submitted: AtomicU64,
    batches_committed: AtomicU64,
    batches_failed: AtomicU64,
    group_drains: AtomicU64,
    updates_applied: AtomicU64,
    persist_errors: AtomicU64,
}

impl Shared {
    fn stats(&self) -> ServerStats {
        ServerStats {
            batches_submitted: self.batches_submitted.load(Ordering::Relaxed),
            batches_committed: self.batches_committed.load(Ordering::Relaxed),
            batches_failed: self.batches_failed.load(Ordering::Relaxed),
            group_drains: self.group_drains.load(Ordering::Relaxed),
            commits: self.current_epoch().generation,
            updates_applied: self.updates_applied.load(Ordering::Relaxed),
            persist_errors: self.persist_errors.load(Ordering::Relaxed),
        }
    }

    fn current_epoch(&self) -> Arc<Epoch> {
        Arc::clone(&self.epoch.read().expect("epoch lock poisoned"))
    }
}

/// A clonable, `Send + Sync` read handle onto a running [`R2d2Server`].
/// Cloning is one `Arc` bump; every read is wait-free with respect to the
/// writer (the only shared lock is held for the duration of a pointer
/// clone/swap).
#[derive(Debug, Clone)]
pub struct ReadHandle {
    shared: Arc<Shared>,
}

impl ReadHandle {
    /// The latest published epoch. Holding the returned `Arc` pins that
    /// snapshot for as long as the caller likes; it never changes under
    /// them.
    pub fn epoch(&self) -> Arc<Epoch> {
        self.shared.current_epoch()
    }

    /// Generation of the latest published epoch.
    pub fn generation(&self) -> u64 {
        self.epoch().generation
    }

    /// Block (politely spinning) until an epoch with `generation >= target`
    /// is published, and return it. Mostly useful in tests and benchmarks;
    /// submitters get the same guarantee for free from
    /// [`CommitTicket::wait`].
    pub fn wait_for_generation(&self, target: u64) -> Arc<Epoch> {
        loop {
            let epoch = self.epoch();
            if epoch.generation >= target {
                return epoch;
            }
            std::thread::yield_now();
        }
    }

    /// Current server counters.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }
}

/// A concurrent serve layer over one [`R2d2Session`]: spawn with
/// [`R2d2Server::start`], read through [`R2d2Server::handle`]s, write
/// through [`R2d2Server::submit`] / [`R2d2Server::apply`], and get the
/// session back with [`R2d2Server::shutdown`].
#[derive(Debug)]
pub struct R2d2Server {
    shared: Arc<Shared>,
    capacity: usize,
    writer: Option<JoinHandle<R2d2Session>>,
}

impl R2d2Server {
    /// Take ownership of a bootstrapped session, publish its state as epoch
    /// 0 and start the writer thread.
    pub fn start(mut session: R2d2Session, config: ServeConfig) -> R2d2Server {
        let config = ServeConfig {
            queue_capacity: config.queue_capacity.max(1),
            group_commit_max: config.group_commit_max.max(1),
            ..config
        };
        let shared = Arc::new(Shared {
            epoch: RwLock::new(Arc::new(Epoch {
                generation: 0,
                view: session.view(),
            })),
            queue: Mutex::new(QueueState {
                pending: VecDeque::new(),
                shutdown: false,
            }),
            work: Condvar::new(),
            space: Condvar::new(),
            commit_log: Mutex::new(Vec::new()),
            batches_submitted: AtomicU64::new(0),
            batches_committed: AtomicU64::new(0),
            batches_failed: AtomicU64::new(0),
            group_drains: AtomicU64::new(0),
            updates_applied: AtomicU64::new(0),
            persist_errors: AtomicU64::new(0),
        });
        let writer_shared = Arc::clone(&shared);
        let capacity = config.queue_capacity;
        let writer = std::thread::Builder::new()
            .name("r2d2-serve-writer".into())
            .spawn(move || writer_loop(session, writer_shared, config))
            .expect("spawn serve writer");
        R2d2Server {
            shared,
            capacity,
            writer: Some(writer),
        }
    }

    /// A fresh read handle (clonable and clone-cheap; hand one to every
    /// reader thread).
    pub fn handle(&self) -> ReadHandle {
        ReadHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Enqueue one batch for the writer, blocking while the queue is at
    /// capacity (backpressure), and return a ticket for its commit ack.
    /// After [`R2d2Server::shutdown`] has been signalled the ticket fails
    /// immediately.
    pub fn submit(&self, updates: Vec<LakeUpdate>) -> CommitTicket {
        let (tx, rx) = mpsc::channel();
        {
            let mut q = self.shared.queue.lock().expect("queue lock poisoned");
            while q.pending.len() >= self.queue_capacity() && !q.shutdown {
                q = self.shared.space.wait(q).expect("queue lock poisoned");
            }
            if q.shutdown {
                let _ = tx.send(Err(LakeError::InvalidArgument(
                    "serve writer is shut down".into(),
                )));
                return CommitTicket { rx };
            }
            q.pending.push_back((updates, tx));
            self.shared
                .batches_submitted
                .fetch_add(1, Ordering::Relaxed);
        }
        self.shared.work.notify_one();
        CommitTicket { rx }
    }

    fn queue_capacity(&self) -> usize {
        self.capacity
    }

    /// Submit one batch and wait for its commit: the synchronous
    /// convenience path.
    pub fn apply(&self, updates: Vec<LakeUpdate>) -> Result<CommitReceipt> {
        self.submit(updates).wait()
    }

    /// Current server counters.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }

    /// The exact update concatenation of every executed commit, in commit
    /// order (empty unless [`ServeConfig::record_commits`] is set).
    /// Replaying entries `0..g` through a fresh session's `apply_batch`
    /// reproduces epoch `g` bit-identically — the snapshot-isolation
    /// oracle's ground truth.
    pub fn commit_log(&self) -> Vec<Vec<LakeUpdate>> {
        self.shared
            .commit_log
            .lock()
            .expect("commit log poisoned")
            .clone()
    }

    /// Stop accepting new batches, let the writer drain everything already
    /// queued (every pending ticket is acked), and return the session.
    pub fn shutdown(mut self) -> R2d2Session {
        self.signal_shutdown();
        self.writer
            .take()
            .expect("writer already joined")
            .join()
            .expect("serve writer panicked")
    }

    fn signal_shutdown(&self) {
        let mut q = self.shared.queue.lock().expect("queue lock poisoned");
        q.shutdown = true;
        drop(q);
        self.shared.work.notify_all();
        self.shared.space.notify_all();
    }
}

impl Drop for R2d2Server {
    fn drop(&mut self) {
        if let Some(writer) = self.writer.take() {
            self.signal_shutdown();
            let _ = writer.join();
        }
    }
}

/// The writer thread: drain → group-commit → publish → ack, until shutdown
/// with an empty queue.
fn writer_loop(mut session: R2d2Session, shared: Arc<Shared>, config: ServeConfig) -> R2d2Session {
    loop {
        // 1. Drain up to group_commit_max queued submissions (blocking while
        //    the queue is empty). Shutdown exits only once the queue is
        //    drained, so every accepted ticket gets an ack.
        let group: Vec<Submission> = {
            let mut q = shared.queue.lock().expect("queue lock poisoned");
            loop {
                if !q.pending.is_empty() {
                    break;
                }
                if q.shutdown {
                    return session;
                }
                q = shared.work.wait(q).expect("queue lock poisoned");
            }
            let n = q.pending.len().min(config.group_commit_max);
            let group: Vec<Submission> = q.pending.drain(..n).collect();
            drop(q);
            shared.space.notify_all();
            group
        };
        shared.group_drains.fetch_add(1, Ordering::Relaxed);

        // 2. Execute the group as the fewest possible commits (one, when
        //    nothing fails): one WAL record + fsync per executed commit.
        let batches: Vec<Vec<LakeUpdate>> = group.iter().map(|(b, _)| b.clone()).collect();
        let outcome = session.apply_group(&batches);
        let r2d2_core::GroupOutcome {
            commits,
            results,
            persist_error,
        } = outcome;

        if config.record_commits && !commits.is_empty() {
            let mut log = shared.commit_log.lock().expect("commit log poisoned");
            log.extend(commits.iter().map(|c| c.updates.clone()));
        }
        for commit in &commits {
            shared
                .updates_applied
                .fetch_add(commit.report.updates_applied as u64, Ordering::Relaxed);
        }
        if persist_error.is_some() {
            shared.persist_errors.fetch_add(1, Ordering::Relaxed);
        }

        // 3. Publish the post-commit epoch BEFORE acking, so a submitter
        //    that sees `Ok` can immediately read its own write; nothing is
        //    published when no commit executed (readers keep the last
        //    committed epoch — a failed group never surfaces a torn state).
        let base_generation = shared.current_epoch().generation;
        if !commits.is_empty() {
            let next = Arc::new(Epoch {
                generation: base_generation + commits.len() as u64,
                view: session.view(),
            });
            *shared.epoch.write().expect("epoch lock poisoned") = next;
        }

        // 4. Ack every submitter with its own per-batch outcome. `Ok`
        //    means every update of that submitter's batch was applied.
        for ((batch, tx), result) in group.into_iter().zip(results) {
            let ack = match result {
                Ok(commit_index) => {
                    shared.batches_committed.fetch_add(1, Ordering::Relaxed);
                    Ok(CommitReceipt {
                        generation: base_generation + commit_index as u64 + 1,
                        updates_applied: batch.len(),
                    })
                }
                Err(e) => {
                    shared.batches_failed.fetch_add(1, Ordering::Relaxed);
                    Err(e)
                }
            };
            let _ = tx.send(ack);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use r2d2_core::PipelineConfig;
    use r2d2_lake::{
        AccessProfile, Column, DataLake, DataType, DatasetId, PartitionSpec, PartitionedTable,
        Predicate, Schema, Table,
    };

    fn table(ids: std::ops::Range<i64>) -> Table {
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

    fn session_with(datasets: &[(&str, Table)]) -> R2d2Session {
        let mut lake = DataLake::new();
        for (name, t) in datasets {
            let part = PartitionedTable::from_table(
                t.clone(),
                PartitionSpec::ByRowCount {
                    rows_per_partition: 16,
                },
            )
            .unwrap();
            lake.add_dataset(*name, part, AccessProfile::default(), None)
                .unwrap();
        }
        R2d2Session::bootstrap(lake, PipelineConfig::default().with_seed(3)).unwrap()
    }

    fn append(id: u64, ids: std::ops::Range<i64>) -> Vec<LakeUpdate> {
        vec![LakeUpdate::AppendRows {
            id: DatasetId(id),
            rows: table(ids),
        }]
    }

    fn _assert_send_sync<T: Send + Sync>() {}

    fn sorted_edges(graph: &r2d2_graph::ContainmentGraph) -> Vec<(u64, u64)> {
        let mut edges = graph.edges();
        edges.sort_unstable();
        edges
    }

    #[test]
    fn handles_and_epochs_are_send_and_sync() {
        _assert_send_sync::<ReadHandle>();
        _assert_send_sync::<Arc<Epoch>>();
        _assert_send_sync::<R2d2Server>();
    }

    #[test]
    fn commits_publish_epochs_and_pinned_epochs_stay_immutable() {
        let session = session_with(&[("base", table(0..50)), ("sub", table(10..30))]);
        let server = R2d2Server::start(session, ServeConfig::default());
        let handle = server.handle();
        let epoch0 = handle.epoch();
        assert_eq!(epoch0.generation(), 0);
        assert_eq!(epoch0.datasets(), 2);
        assert!(epoch0.graph().has_edge(0, 1));

        // Grow sub past base: the edge must disappear in the next epoch.
        let receipt = server.apply(append(1, 60..90)).unwrap();
        assert!(receipt.generation >= 1);
        assert_eq!(receipt.updates_applied, 1);
        let epoch1 = handle.wait_for_generation(receipt.generation);
        assert!(!epoch1.graph().has_edge(0, 1));
        assert_eq!(
            epoch1.lake().dataset(DatasetId(1)).unwrap().num_rows(),
            50,
            "committed write visible to readers"
        );
        // The pinned pre-commit epoch never changed under us.
        assert!(epoch0.graph().has_edge(0, 1));
        assert_eq!(epoch0.lake().dataset(DatasetId(1)).unwrap().num_rows(), 20);

        // Reads through an epoch never touch the writer's meter.
        let ops = epoch1.ops();
        epoch1
            .query_dataset(DatasetId(0), &Predicate::True, None)
            .unwrap();
        let session = server.shutdown();
        assert_eq!(session.ops(), ops);
        // ...and the returned session is exactly the final epoch's state.
        assert_eq!(sorted_edges(session.graph()), sorted_edges(epoch1.graph()));
    }

    #[test]
    fn a_failing_batch_neither_poisons_the_queue_nor_publishes_torn_state() {
        let session = session_with(&[("base", table(0..50)), ("sub", table(10..30))]);
        let server = R2d2Server::start(session, ServeConfig::default().with_record_commits(true));
        let handle = server.handle();
        let t1 = server.submit(append(1, 30..35));
        let t2 = server.submit(vec![LakeUpdate::DropDataset { id: DatasetId(99) }]);
        let t3 = server.submit(append(0, 50..60));
        let r1 = t1.wait().unwrap();
        let err = t2.wait().unwrap_err();
        let r3 = t3.wait().unwrap();
        assert!(matches!(err, LakeError::DatasetNotFound(_)));
        assert!(r3.generation >= r1.generation);

        let epoch = handle.wait_for_generation(r3.generation);
        assert_eq!(epoch.lake().dataset(DatasetId(1)).unwrap().num_rows(), 25);
        assert_eq!(epoch.lake().dataset(DatasetId(0)).unwrap().num_rows(), 60);

        let stats = handle.stats();
        assert_eq!(stats.batches_submitted, 3);
        assert_eq!(stats.batches_committed, 2);
        assert_eq!(stats.batches_failed, 1);
        assert_eq!(stats.updates_applied, 2);

        // The commit transcript replays to exactly the served state.
        let transcript = server.commit_log();
        let final_epoch = handle.epoch();
        let session = server.shutdown();
        let mut replay = session_with(&[("base", table(0..50)), ("sub", table(10..30))]);
        for commit in &transcript {
            let _ = replay.apply_batch(commit);
        }
        assert_eq!(sorted_edges(replay.graph()), sorted_edges(session.graph()));
        assert_eq!(
            sorted_edges(replay.graph()),
            sorted_edges(final_epoch.graph())
        );
        assert_eq!(replay.ops(), final_epoch.ops());
    }

    #[test]
    fn submissions_after_shutdown_fail_and_queued_work_still_drains() {
        let session = session_with(&[("base", table(0..50))]);
        let server = R2d2Server::start(
            session,
            ServeConfig::default()
                .with_queue_capacity(2)
                .with_group_commit_max(2),
        );
        let tickets: Vec<CommitTicket> = (0..5)
            .map(|i| server.submit(append(0, 50 + i * 5..55 + i * 5)))
            .collect();
        server.signal_shutdown();
        let late = server.submit(append(0, 90..95));
        assert!(
            late.wait().is_err(),
            "post-shutdown submissions are rejected"
        );
        for t in tickets {
            t.wait().unwrap();
        }
        let session = server.shutdown();
        assert_eq!(
            session.lake().dataset(DatasetId(0)).unwrap().num_rows(),
            75,
            "every pre-shutdown batch drained"
        );
    }
}
