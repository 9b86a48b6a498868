//! Serve: one reader thread in a closed loop (`epoch()` then
//! `query_dataset` of a Zipf-chosen dataset) beside one submitter thread that
//! keeps the workload's number of batches in flight.
//!
//! Every pass starts a fresh server and submits the whole serve script; the
//! pass is cut into up to [`SLICES`] slices of equally many batches, a slice's
//! window running from the acknowledgement that ends the previous slice to
//! the one that ends it. Throughputs and the read tail are taken per slice
//! and reported as medians over the slices of all passes.

use crate::layers::{
    self, CommitTicket, DatasetId, LakeUpdate, PipelineConfig, R2d2Server, R2d2Session, ReadHandle,
    ServerStats, Zipf,
};
use crate::run::{sub_seed, Ctx, Inputs, CLP_SEED, MIN_PASSES, SHARE_SERVE};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Most slices of one pass.
pub const SLICES: usize = 10;

/// Skew of the reader's choice of dataset.
const READ_SKEW: f64 = 1.1;

/// The traced run records the two spans of one read in this many: a read
/// takes microseconds and a run makes hundreds of thousands.
const TRACE_READ_EVERY: usize = 64;

/// How long the traced run lets the reader run alone, with no writer.
const IDLE_READ_SECS: f64 = 0.25;

/// Reads one pass has room to record before its vectors grow.
const READS_RESERVED: usize = 1 << 18;

/// What one reader loop saw.
#[derive(Default)]
struct Reads {
    /// When each read completed (seconds since the pass started) and how
    /// long it took (µs).
    done_s: Vec<f64>,
    us: Vec<f64>,
    failed: u64,
    /// Epoch pin alone (ns) and query alone (µs), from the sampled reads of
    /// a traced pass.
    pin_ns: Vec<f64>,
    query_us: Vec<f64>,
}

/// The reader: closed loop until `stop`.
fn read_loop(
    handle: &ReadHandle,
    keys: &[DatasetId],
    seed: u64,
    stop: &AtomicBool,
    tracer: &mut Tracer,
) -> Reads {
    let zipf = Zipf::new(keys.len(), READ_SKEW);
    let mut rng = SmallRng::seed_from_u64(seed);
    // Room for a pass's reads up front, so the loop does not stop to grow
    // its own records.
    let mut reads = Reads {
        done_s: Vec::with_capacity(READS_RESERVED),
        us: Vec::with_capacity(READS_RESERVED),
        ..Reads::default()
    };
    let started = Instant::now();
    let mut n = 0usize;
    while !stop.load(Ordering::Relaxed) {
        let id = keys[zipf.sample(&mut rng)];
        n += 1;
        let t0 = Instant::now();
        let ok = if tracer.enabled() && n.is_multiple_of(TRACE_READ_EVERY) {
            tracer.next_op();
            let whole = tracer.open("serve.read");
            let (epoch, pin) = tracer.time("serve.epoch_pin", || layers::pin(handle));
            let (rows, query) = tracer.time("serve.query", || layers::query(&epoch, id));
            tracer.close(whole);
            reads.pin_ns.push(pin.as_nanos() as f64);
            reads.query_us.push(query.as_secs_f64() * 1e6);
            rows.is_ok()
        } else {
            layers::read(handle, id).is_ok()
        };
        let done = Instant::now();
        reads.us.push(done.duration_since(t0).as_secs_f64() * 1e6);
        reads
            .done_s
            .push(done.duration_since(started).as_secs_f64());
        reads.failed += u64::from(!ok);
    }
    reads
}

/// What one submitter loop saw, per batch in submission order.
#[derive(Default)]
struct Writes {
    /// When the batch was acknowledged, seconds since the pass started.
    acked_s: Vec<f64>,
    /// Updates in the batch if it was acknowledged, 0 if it failed.
    updates: Vec<usize>,
    /// Submit-to-acknowledgement time, ms.
    commit_ms: Vec<f64>,
    failed: u64,
}

/// The submitter: keep `in_flight` batches outstanding until the script is
/// through.
fn submit_all(
    server: &R2d2Server,
    batches: Vec<Vec<LakeUpdate>>,
    in_flight: usize,
    tracer: &mut Tracer,
) -> Writes {
    let mut out = Writes::default();
    let mut pending: VecDeque<(CommitTicket, Instant, usize)> = VecDeque::new();
    let started = Instant::now();
    let settle = |out: &mut Writes, (ticket, sent, len): (CommitTicket, Instant, usize)| {
        let acked = ticket.wait().is_ok();
        let now = Instant::now();
        out.updates.push(if acked { len } else { 0 });
        out.failed += u64::from(!acked);
        out.commit_ms
            .push(now.duration_since(sent).as_secs_f64() * 1e3);
        out.acked_s.push(now.duration_since(started).as_secs_f64());
    };
    for batch in batches {
        if pending.len() == in_flight {
            let oldest = pending.pop_front().expect("in_flight >= 1");
            settle(&mut out, oldest);
        }
        tracer.next_op();
        let len = batch.len();
        let sent = Instant::now();
        let (ticket, _) = tracer.time("serve.submit", || server.submit(batch));
        pending.push_back((ticket, sent, len));
    }
    for waiting in pending {
        settle(&mut out, waiting);
    }
    out
}

/// One slice of a pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slice {
    pub commit_updates_per_s: f64,
    pub reads_per_s: f64,
    pub read_p95_us: f64,
}

/// Cut a pass into `slices` slices of equally many batches (the last takes
/// the remainder). `acked_s` and `updates` are per batch; `done_s` and
/// `read_us` per read, in completion order.
pub fn slices(
    acked_s: &[f64],
    updates: &[usize],
    done_s: &[f64],
    read_us: &[f64],
    slices: usize,
) -> Vec<Slice> {
    let per = (acked_s.len() / slices.max(1)).max(1);
    let mut out = Vec::new();
    let mut from_s = 0.0;
    let mut read = 0;
    let mut batch = 0;
    while batch < acked_s.len() {
        let last = out.len() + 1 == slices;
        let end = if last {
            acked_s.len()
        } else {
            (batch + per).min(acked_s.len())
        };
        let to_s = acked_s[end - 1];
        let window = (to_s - from_s).max(f64::MIN_POSITIVE);
        let first_read = read;
        while read < done_s.len() && done_s[read] <= to_s {
            read += 1;
        }
        out.push(Slice {
            commit_updates_per_s: updates[batch..end].iter().sum::<usize>() as f64 / window,
            reads_per_s: (read - first_read) as f64 / window,
            read_p95_us: percentile(&read_us[first_read..read], 95.0),
        });
        from_s = to_s;
        batch = end;
    }
    out
}

/// Bootstrap over a copy of the lake, persistence on, server started.
fn start_server(
    ctx: &mut Ctx<'_>,
    inputs: &Inputs,
    config: &PipelineConfig,
) -> layers::Result<R2d2Server> {
    let dir = ctx.scratch.dir("serve");
    let in_flight = ctx.opts.workload.in_flight;
    ctx.setup("serve.server", |ctx| {
        let mut session = layers::bootstrap(inputs.corpus.lake.clone(), config)?;
        layers::enable_persistence(&mut session, &dir)?;
        let (server, _) = ctx
            .tracer
            .time("serve.start", || layers::serve_start(session, in_flight));
        Ok(server)
    })
}

/// Results of one pass.
struct PassResult {
    window_s: f64,
    slices: Vec<Slice>,
    reads: Reads,
    commit_ms: Vec<f64>,
    stats: ServerStats,
    wal_fsyncs: u64,
}

/// One pass: a fresh server, the whole script, the reader beside it (or
/// not, for the writer-alone probe).
fn pass(
    ctx: &mut Ctx<'_>,
    inputs: &Inputs,
    config: &PipelineConfig,
    with_reader: bool,
    verify: bool,
) -> Option<PassResult> {
    let server = match start_server(ctx, inputs, config) {
        Ok(s) => s,
        Err(e) => {
            ctx.check(false, || format!("serve: server set-up failed: {e}"));
            return None;
        }
    };
    let handle = server.handle();
    let batches = inputs.serve_script.calls.clone();
    let in_flight = ctx.opts.workload.in_flight;
    let read_seed = sub_seed(ctx.opts.seed, 5);
    let stop = AtomicBool::new(!with_reader);
    let start = Barrier::new(2);
    let mut reader_tracer = ctx.tracer.fork(1);
    let mut writer_tracer = ctx.tracer.fork(2);
    let whole = ctx.tracer.open("serve.pass");
    // Two load-generator threads: the reader and the submitter. The
    // server's own writer thread is the system under test.
    let (reads, writes) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            start.wait();
            read_loop(
                &handle,
                &inputs.read_keys,
                read_seed,
                &stop,
                &mut reader_tracer,
            )
        });
        let submitter = scope.spawn(|| {
            start.wait();
            let writes = submit_all(&server, batches, in_flight, &mut writer_tracer);
            stop.store(true, Ordering::Relaxed);
            writes
        });
        (
            reader.join().expect("reader thread panicked"),
            submitter.join().expect("submitter thread panicked"),
        )
    });
    ctx.tracer.absorb(reader_tracer);
    ctx.tracer.absorb(writer_tracer);
    ctx.tracer.close(whole);

    ctx.attempted += (writes.acked_s.len() + reads.us.len()) as u64;
    ctx.failed += writes.failed + reads.failed;
    ctx.check(writes.failed == 0 && reads.failed == 0, || {
        format!(
            "serve: {} batches and {} reads failed",
            writes.failed, reads.failed
        )
    });
    let stats = server.stats();
    let epoch = layers::pin(&handle);
    let transcript = verify.then(|| server.commit_log());
    let session = server.shutdown();
    let wal_fsyncs = layers::wal_stats(&session).fsyncs;
    if let Some(transcript) = transcript {
        // Snapshot isolation: the last epoch is what a single-threaded
        // replay of the commit transcript builds.
        let replayed = replay(inputs, config, &transcript);
        let same = replayed.is_ok_and(|r| {
            layers::same_edges(r.graph(), epoch.graph())
                && r.report().updates_applied == epoch.updates_applied()
        });
        ctx.check(same, || {
            "serve: the final epoch differs from a replay of the commit log".to_string()
        });
    }
    Some(PassResult {
        window_s: writes.acked_s.last().copied().unwrap_or(0.0),
        // Batches in flight together are acknowledged together (one group
        // commit), so a slice holds at least two such windows: cut finer, a
        // slice could begin and end inside one burst of acknowledgements.
        slices: slices(
            &writes.acked_s,
            &writes.updates,
            &reads.done_s,
            &reads.us,
            (writes.acked_s.len() / (2 * in_flight)).clamp(1, SLICES),
        ),
        reads,
        commit_ms: writes.commit_ms,
        stats,
        wal_fsyncs,
    })
}

fn replay(
    inputs: &Inputs,
    config: &PipelineConfig,
    transcript: &[Vec<LakeUpdate>],
) -> layers::Result<R2d2Session> {
    let mut session = layers::bootstrap(inputs.corpus.lake.clone(), config)?;
    for commit in transcript {
        layers::apply(&mut session, commit)?;
    }
    Ok(session)
}

fn over_slices(results: &[PassResult], f: fn(&Slice) -> f64) -> f64 {
    median(
        &results
            .iter()
            .flat_map(|r| r.slices.iter().map(f))
            .collect::<Vec<_>>(),
    )
}

pub fn phase(ctx: &mut Ctx<'_>, inputs: &Inputs) {
    let config = layers::pipeline_config(CLP_SEED, 1);
    let budget = ctx.budget(SHARE_SERVE);
    let mut results: Vec<PassResult> = Vec::new();
    let mut spent = 0.0;
    let mut n = 0;
    while n < MIN_PASSES || spent < budget {
        ctx.begin_pass("serve", n);
        let Some(result) = pass(ctx, inputs, &config, true, n == 0) else {
            return;
        };
        n += 1;
        spent += result.window_s;
        results.push(result);
    }
    let reads_per_s = over_slices(&results, |s| s.reads_per_s);
    ctx.end_to_end(
        "commit_updates_per_s",
        over_slices(&results, |s| s.commit_updates_per_s),
    );
    ctx.end_to_end("reads_per_s", reads_per_s);
    ctx.end_to_end("read_p95_us", over_slices(&results, |s| s.read_p95_us));

    if ctx.opts.trace {
        layer_metrics(ctx, inputs, &config, &results, reads_per_s);
    }
}

fn layer_metrics(
    ctx: &mut Ctx<'_>,
    inputs: &Inputs,
    config: &PipelineConfig,
    results: &[PassResult],
    reads_per_s: f64,
) {
    ctx.tracer.set_enabled(true);
    let first = &results[0];
    ctx.layer("serve.commits", first.stats.commits as f64);
    ctx.layer(
        "serve.batches_committed",
        first.stats.batches_committed as f64,
    );
    ctx.layer(
        "serve.group_ratio",
        first.stats.batches_committed as f64 / first.stats.commits.max(1) as f64,
    );
    ctx.layer("serve.group_drains", first.stats.group_drains as f64);
    ctx.layer("serve.batches_failed", first.stats.batches_failed as f64);
    ctx.layer("serve.persist_errors", first.stats.persist_errors as f64);
    ctx.layer("serve.wal_fsyncs", first.wal_fsyncs as f64);
    let all = |f: fn(&PassResult) -> &Vec<f64>| -> Vec<f64> {
        results.iter().flat_map(|r| f(r).clone()).collect()
    };
    let commit_ms = all(|r| &r.commit_ms);
    ctx.layer("serve.commit_p50_ms", median(&commit_ms));
    ctx.layer("serve.commit_p95_ms", percentile(&commit_ms, 95.0));
    let read_us = all(|r| &r.reads.us);
    ctx.layer("serve.read_p50_us", median(&read_us));
    ctx.layer("serve.read_p99_us", percentile(&read_us, 99.0));
    ctx.layer("serve.epoch_pin_p50_ns", median(&all(|r| &r.reads.pin_ns)));
    ctx.layer("serve.query_p50_us", median(&all(|r| &r.reads.query_us)));

    // The writer alone, then the reader alone: what each side costs the
    // other.
    if let Some(alone) = pass(ctx, inputs, config, false, false) {
        ctx.layer(
            "serve.commit_updates_idle_per_s",
            over_slices(&[alone], |s| s.commit_updates_per_s),
        );
    }
    if let Ok(server) = start_server(ctx, inputs, config) {
        let handle = server.handle();
        let stop = AtomicBool::new(false);
        let mut tracer = ctx.tracer.fork(3);
        let reads = std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                read_loop(
                    &handle,
                    &inputs.read_keys,
                    sub_seed(ctx.opts.seed, 5),
                    &stop,
                    &mut tracer,
                )
            });
            std::thread::sleep(Duration::from_secs_f64(IDLE_READ_SECS));
            stop.store(true, Ordering::Relaxed);
            reader.join().expect("reader thread panicked")
        });
        let idle = reads.us.len() as f64 / reads.done_s.last().copied().unwrap_or(f64::MAX);
        ctx.layer("serve.reads_idle_per_s", idle);
        ctx.layer("serve.writer_interference", 1.0 - reads_per_s / idle);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pass_is_cut_at_acknowledgements_and_reads_fall_in_their_slice() {
        // Four batches of 2 updates acknowledged at 1, 2, 4 and 8 s, cut in
        // two slices: [0, 2] and (2, 8].
        let acked = [1.0, 2.0, 4.0, 8.0];
        let updates = [2, 2, 2, 0]; // the last batch failed
        let done = [0.5, 1.5, 2.0, 3.0, 7.0, 9.0];
        let us = [10.0, 20.0, 30.0, 40.0, 50.0, 60.0];
        let s = slices(&acked, &updates, &done, &us, 2);
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].commit_updates_per_s, 4.0 / 2.0);
        assert_eq!(s[0].reads_per_s, 3.0 / 2.0);
        assert_eq!(s[0].read_p95_us, 30.0);
        assert_eq!(s[1].commit_updates_per_s, 2.0 / 6.0);
        // The read that completed after the last acknowledgement is outside
        // every window.
        assert_eq!(s[1].reads_per_s, 2.0 / 6.0);
        assert_eq!(s[1].read_p95_us, 50.0);
    }

    #[test]
    fn the_last_slice_takes_the_remainder_and_short_passes_still_slice() {
        let acked: Vec<f64> = (1..=7).map(f64::from).collect();
        let updates = vec![1; 7];
        assert_eq!(slices(&acked, &updates, &[], &[], 3).len(), 3);
        assert_eq!(slices(&acked[..2], &updates[..2], &[], &[], 10).len(), 2);
        assert!(slices(&[], &[], &[], &[], 10).is_empty());
    }
}
