//! Ingest: `R2d2Session::ingest_dir` of the lake's CSV emission into a fresh
//! persistent session, one pass per fresh directory.

use crate::layers::{self, DataLake, IngestReport, R2d2Session};
use crate::run::{Ctx, Inputs, CLP_SEED, MIN_PASSES, PROBE_REPS, SHARE_INGEST};
use crate::scratch::files_with_extension;
use crate::stats::median;
use std::path::PathBuf;
use std::time::Instant;

/// What one `ingest_dir` did, as the oracle needs it.
#[derive(Debug, Clone, Copy)]
pub struct Counts {
    pub ingested: usize,
    pub quarantined: usize,
    pub files_failed: usize,
}

impl Counts {
    fn of(report: &IngestReport) -> Counts {
        Counts {
            ingested: report.rows_ingested(),
            quarantined: report.rows_quarantined(),
            files_failed: report.files_failed(),
        }
    }
}

/// The ingest oracle: nothing emitted is lost, exactly the sabotaged rows are
/// quarantined, and no file fails.
pub fn problems(got: Counts, rows: usize, sabotaged: usize) -> Vec<String> {
    let mut out = Vec::new();
    if got.ingested + got.quarantined != rows + sabotaged {
        out.push(format!(
            "ingest: {} ingested + {} quarantined rows, {} emitted",
            got.ingested,
            got.quarantined,
            rows + sabotaged
        ));
    }
    if got.quarantined != sabotaged {
        out.push(format!(
            "ingest: {} rows quarantined, {sabotaged} sabotaged",
            got.quarantined
        ));
    }
    if got.files_failed != 0 {
        out.push(format!("ingest: {} files failed", got.files_failed));
    }
    out
}

/// A fresh session over an empty lake, persisting (or not) into a fresh
/// directory.
fn fresh_session(ctx: &mut Ctx<'_>, persist: bool) -> Option<(R2d2Session, PathBuf)> {
    let config = layers::pipeline_config(CLP_SEED, 1);
    let dir = ctx.scratch.dir("ingest");
    let session: layers::Result<R2d2Session> = ctx.setup("ingest.session", |_| {
        let mut session = layers::bootstrap(DataLake::new(), &config)?;
        if persist {
            layers::enable_persistence(&mut session, &dir)?;
        }
        Ok(session)
    });
    match session {
        Ok(s) => Some((s, dir)),
        Err(e) => {
            ctx.check(false, || format!("ingest: session set-up failed: {e}"));
            None
        }
    }
}

pub fn phase(ctx: &mut Ctx<'_>, inputs: &Inputs) {
    let rows = inputs.corpus.lake.total_rows();
    let budget = ctx.budget(SHARE_INGEST);
    let mut rates = Vec::new();
    let mut first: Option<(R2d2Session, IngestReport, f64)> = None;
    let mut spent = 0.0;
    let mut pass = 0;
    while pass < MIN_PASSES || spent < budget {
        let Some((mut session, dir)) = fresh_session(ctx, true) else {
            return;
        };
        ctx.begin_pass("ingest", pass);
        ctx.tracer.next_op();
        let (report, d) = ctx.tracer.time("core.ingest.ingest_dir", || {
            layers::ingest_dir(&mut session, &inputs.csv_dir)
        });
        let secs = d.as_secs_f64();
        spent += secs;
        ctx.pass_took(secs * 1e3);
        pass += 1;
        // One operation per file; a file that could not be read, parsed or
        // applied is a failed one.
        let report = match report {
            Ok(r) => r,
            Err(e) => {
                ctx.op::<()>("ingest_dir", Err(e));
                drop(session);
                ctx.scratch.discard(&dir);
                continue;
            }
        };
        ctx.attempted += report.files.len() as u64;
        ctx.failed += report.files_failed() as u64;
        rates.push(report.rows_ingested() as f64 / secs);
        if first.is_none() {
            for problem in problems(Counts::of(&report), rows, inputs.sabotaged_rows) {
                ctx.check(false, || problem);
            }
            first = Some((session, report, secs));
        } else {
            drop(session);
            ctx.scratch.discard(&dir);
        }
    }
    ctx.end_to_end("ingest_rows_per_s", median(&rates));

    if let (true, Some((session, report, secs))) = (ctx.opts.trace, first) {
        layer_metrics(ctx, inputs, &session, &report, secs);
    }
}

/// Where ingest time goes: parsing alone, the apply path against a growing
/// lake, and the write-ahead log's share.
fn layer_metrics(
    ctx: &mut Ctx<'_>,
    inputs: &Inputs,
    session: &R2d2Session,
    report: &IngestReport,
    ingest_secs: f64,
) {
    ctx.tracer.set_enabled(true);
    // The same files through the reader alone, no session.
    let files = files_with_extension(&inputs.csv_dir, "csv");
    let mut parse_secs = Vec::new();
    let mut parsed_rows = 0;
    for _ in 0..PROBE_REPS {
        ctx.tracer.next_op();
        let t0 = Instant::now();
        parsed_rows = 0;
        for path in &files {
            let text = std::fs::read_to_string(path).unwrap_or_default();
            let ((kept, _), _) = ctx
                .tracer
                .time("lake.csv.read_csv", || layers::parse_csv(&text));
            parsed_rows += kept;
        }
        parse_secs.push(t0.elapsed().as_secs_f64());
    }
    let parse = median(&parse_secs);
    ctx.check(parsed_rows == report.rows_ingested(), || {
        format!(
            "ingest: the reader alone kept {parsed_rows} rows, ingest_dir {}",
            report.rows_ingested()
        )
    });
    ctx.layer("lake.csv.parse_rows_per_s", parsed_rows as f64 / parse);
    ctx.layer("core.ingest.apply_share", 1.0 - parse / ingest_secs);
    ctx.layer("core.ingest.files", report.files.len() as f64);
    ctx.layer("core.ingest.rows_ingested", report.rows_ingested() as f64);
    ctx.layer(
        "core.ingest.rows_quarantined",
        report.rows_quarantined() as f64,
    );
    ctx.layer("core.ingest.files_failed", report.files_failed() as f64);

    // The same ingest with persistence off: the gap is the WAL's share.
    let mut nopersist = Vec::new();
    for _ in 0..PROBE_REPS {
        let Some((mut volatile, _)) = fresh_session(ctx, false) else {
            break;
        };
        ctx.tracer.next_op();
        let (r, d) = ctx.tracer.time("core.ingest.ingest_dir_nopersist", || {
            layers::ingest_dir(&mut volatile, &inputs.csv_dir)
        });
        if let Ok(r) = r {
            nopersist.push(r.rows_ingested() as f64 / d.as_secs_f64());
        }
    }
    ctx.layer("core.ingest.nopersist_rows_per_s", median(&nopersist));

    // One `apply` per file: its cost against a growing lake.
    let log = session.update_log();
    let per_file: Vec<f64> = log.iter().map(|u| u.duration.as_secs_f64() * 1e3).collect();
    let tenth = (per_file.len() / 10).max(1);
    let head = median(&per_file[..tenth.min(per_file.len())]);
    let tail = median(&per_file[per_file.len().saturating_sub(tenth)..]);
    ctx.layer(
        "core.ingest.file_ms_growth",
        if head > 0.0 { tail / head } else { 0.0 },
    );
    ctx.layer(
        "core.ingest.candidates_checked",
        log.iter().map(|u| u.candidates_checked).sum::<usize>() as f64,
    );
    ctx.layer(
        "core.ingest.wal_fsyncs",
        layers::wal_stats(session).fsyncs as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ingest_oracle_sees_lost_rows_wrong_quarantine_and_failed_files() {
        let good = Counts {
            ingested: 15,
            quarantined: 6,
            files_failed: 0,
        };
        assert!(problems(good, 15, 6).is_empty());
        // One emitted row the report does not account for.
        assert_eq!(problems(good, 16, 6).len(), 1);
        // A good row quarantined in place of a sabotaged one: the totals add
        // up, the quarantine count does not.
        let swapped = Counts {
            ingested: 14,
            quarantined: 7,
            ..good
        };
        assert_eq!(problems(swapped, 15, 6).len(), 1);
        let failed = Counts {
            files_failed: 1,
            ..good
        };
        assert!(problems(failed, 15, 6)[0].contains("files failed"));
    }
}
