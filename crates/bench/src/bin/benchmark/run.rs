//! One run: a lake taken through its whole life in one process —
//! setup → detect → ingest → stream (+ checkpoint, kill, restore) → serve →
//! advise — with the correctness of every phase checked beside its timing.

use crate::json::{self, Json};
use crate::layers::{self, Corpus, DatasetId};
use crate::scratch::Scratch;
use crate::script::{self, Script};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{Workload, SMOKE_SERVE_BATCHES, SMOKE_STEPS};
use crate::{advise, detect, ingest, serve, stream};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Fewest passes of a phase, however small its budget.
pub const MIN_PASSES: usize = 3;

/// Repetitions of each per-layer probe of the traced run.
pub const PROBE_REPS: usize = 3;

/// How often corpus generation and CSV emission are repeated so `setup_s` is
/// a sum of medians, not of single readings (the sessions and servers of the
/// later phases are brought up once per pass, so they repeat by themselves).
const SETUP_REPS: usize = 3;

/// Share of `--seconds` each phase may spend inside timed calls. The same in
/// every workload, so a metric's sample count does not depend on the lake.
pub const SHARE_DETECT: f64 = 0.15;
pub const SHARE_INGEST: f64 = 0.15;
pub const SHARE_STREAM: f64 = 0.40;
pub const SHARE_SERVE: f64 = 0.20;
pub const SHARE_ADVISE: f64 = 0.10;

/// The traced run spends this share of each phase budget on the phase (every
/// other pass recorded) and the rest on the per-layer probes.
const TRACED_PHASE_SHARE: f64 = 0.5;

/// Which kind of update hits which dataset, in the stream and in the serve
/// script: part of the workload, not of the seed (see `script.rs`).
const STREAM_PLAN: u64 = 0x57EA;
const SERVE_PLAN: u64 = 0x5E47;

/// The CLP sampling seed of every detection in the run. Fixed: which
/// borderline edges survive depends on the sample, and `detect_precision` is
/// a count that must repeat exactly.
pub const CLP_SEED: u64 = 0x2D2;

/// Longest `--seconds` of the `--smoke` size: every phase budget ≤ 0.5 s.
pub const SMOKE_SECONDS: f64 = 1.5;

pub struct Options {
    pub workload: &'static Workload,
    pub seed: u64,
    /// Another lake of the workload's profile than the one it fixes.
    pub corpus_seed: Option<u64>,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Parent of the per-run scratch root.
    pub scratch_base: PathBuf,
    /// Where the traced run writes its spans.
    pub trace_out: PathBuf,
}

/// The committed fingerprints: per workload, what a full-size run at the
/// file's seed sees of its inputs.
const FINGERPRINTS_JSON: &str = include_str!("fingerprints.json");

/// What pass 1 saw of its inputs. Printed on every run, and a full-size run
/// at the seed of `fingerprints.json` is incorrect unless it sees the
/// fingerprint committed there, so a change to the generators that silently
/// changes the inputs shows as that and not as a speed-up.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Fingerprint {
    pub datasets: usize,
    pub rows: usize,
    pub total_bytes: usize,
    pub constructed_edges: usize,
    pub final_edges: usize,
    pub script_calls: usize,
    pub script_updates: usize,
    pub script_hash: u64,
    pub serve_script_hash: u64,
    pub optret_nodes: usize,
    pub optret_edges: usize,
}

impl Fingerprint {
    pub fn to_json(&self) -> String {
        format!(
            "{{\"datasets\": {}, \"rows\": {}, \"total_bytes\": {}, \"constructed_edges\": {}, \"final_edges\": {}, \"script_calls\": {}, \"script_updates\": {}, \"script_hash\": \"{:016x}\", \"serve_script_hash\": \"{:016x}\", \"optret_nodes\": {}, \"optret_edges\": {}}}",
            self.datasets,
            self.rows,
            self.total_bytes,
            self.constructed_edges,
            self.final_edges,
            self.script_calls,
            self.script_updates,
            self.script_hash,
            self.serve_script_hash,
            self.optret_nodes,
            self.optret_edges
        )
    }
}

/// Why `seen` is not the fingerprint `committed` (the text of
/// `fingerprints.json`) holds for this workload at this seed; `None` when it
/// is, or when the file was taken at another seed.
pub fn fingerprint_drift(
    committed: &str,
    workload: &str,
    seed: u64,
    seen: &Fingerprint,
) -> Option<String> {
    let file = match json::parse(committed) {
        Ok(file) => file,
        Err(e) => return Some(format!("fingerprints.json does not parse: {e}")),
    };
    if file.get("seed").and_then(Json::as_f64) != Some(seed as f64) {
        return None;
    }
    let seen = json::parse(&seen.to_json()).expect("a fingerprint prints as JSON");
    match file.get("workloads").and_then(|w| w.get(workload)) {
        Some(expected) if *expected == seen => None,
        Some(_) => Some(format!(
            "the inputs of {workload} at seed {seed} are not the ones fingerprints.json records: \
             the generators or the workload table changed"
        )),
        None => Some(format!("fingerprints.json has no {workload}")),
    }
}

pub struct Outcome {
    /// Why the run is incorrect, one line per failed check; empty for a
    /// correct run.
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics of an untraced run, per-layer metrics of a traced
    /// one.
    pub metrics: BTreeMap<&'static str, f64>,
    pub fingerprint: Fingerprint,
    pub nproc: usize,
    /// Wall seconds of each phase, set-up and checks included: where a
    /// run's time went, as opposed to what it measured.
    pub walls: Vec<(&'static str, f64)>,
    /// Traced run: per phase, how much slower the recorded passes were than
    /// the unrecorded ones, in percent.
    pub overhead_pct: Vec<(&'static str, f64)>,
}

/// What every phase shares.
pub struct Ctx<'a> {
    pub opts: &'a Options,
    pub tracer: Tracer,
    pub scratch: Scratch,
    /// Hardware threads: the thread count of the parallel detect runs and
    /// the cap on load-generator threads.
    pub nproc: usize,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    setup: BTreeMap<&'static str, Vec<f64>>,
    /// The pass in progress: its phase and, past the cold first pass,
    /// whether it is recorded.
    pass: (&'static str, Option<bool>),
    /// Per phase, the timed milliseconds of the recorded and of the
    /// unrecorded passes (traced run only): their gap is the tracing
    /// overhead.
    overhead: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)>,
}

impl Ctx<'_> {
    /// Time one piece of set-up; `setup_s` sums each piece's median.
    pub fn setup<T>(&mut self, piece: &'static str, work: impl FnOnce(&mut Self) -> T) -> T {
        let t0 = Instant::now();
        let out = work(self);
        self.setup
            .entry(piece)
            .or_default()
            .push(t0.elapsed().as_secs_f64());
        out
    }

    pub fn setup_median(&self, piece: &str) -> f64 {
        self.setup.get(piece).map_or(0.0, |s| median(s))
    }

    fn setup_total(&self) -> f64 {
        self.setup.values().map(|s| median(s)).sum()
    }

    /// Count one operation; a call that returns `Err` is a failed one.
    pub fn op<T>(&mut self, what: &str, result: layers::Result<T>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.problems.push(format!("{what} failed: {e}"));
                None
            }
        }
    }

    /// One correctness condition: the run is incorrect unless all hold.
    pub fn check(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.problems.push(what());
        }
    }

    /// Report an end-to-end metric (kept only by the untraced run).
    pub fn end_to_end(&mut self, name: &'static str, value: f64) {
        if !self.opts.trace {
            self.metrics.insert(name, value);
        }
    }

    /// Report a per-layer metric (kept only by the traced run).
    pub fn layer(&mut self, name: &'static str, value: f64) {
        if self.opts.trace {
            self.metrics.insert(name, value);
        }
    }

    /// Seconds a phase may spend in timed calls.
    pub fn budget(&self, share: f64) -> f64 {
        let traced = if self.opts.trace {
            TRACED_PHASE_SHARE
        } else {
            1.0
        };
        self.opts.seconds * share * traced
    }

    /// Begin pass `pass` of `phase`. The traced run records every other
    /// pass, so the same run times its phases with and without recording;
    /// the first pass is the cold one and is left out of that comparison.
    pub fn begin_pass(&mut self, phase: &'static str, pass: usize) {
        let on = self.opts.trace && !pass.is_multiple_of(2);
        self.tracer.set_enabled(on);
        self.pass = (phase, (pass > 0).then_some(on));
    }

    /// The timed part of the pass begun last took `ms`: one sample for
    /// `trace.overhead_pct`.
    pub fn pass_took(&mut self, ms: f64) {
        let (phase, Some(on)) = self.pass else {
            return;
        };
        let (recorded, unrecorded) = self.overhead.entry(phase).or_default();
        (if on { recorded } else { unrecorded }).push(ms);
    }

    /// Per phase, the median recorded and unrecorded pass, ms.
    fn overhead(&self) -> Vec<(&'static str, f64, f64)> {
        self.overhead
            .iter()
            .filter(|(_, (on, off))| !on.is_empty() && !off.is_empty())
            .map(|(phase, (on, off))| (*phase, median(on), median(off)))
            .collect()
    }
}

/// Seeds of the run's independent random streams, split off `--seed`.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x1234_5678_9ABC_DEF1);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The run's generated inputs.
pub struct Inputs {
    pub corpus: Corpus,
    pub csv_dir: PathBuf,
    /// Malformed rows the emission added (0 for a clean emission).
    pub sabotaged_rows: usize,
    pub stream_script: Script,
    pub serve_script: Script,
    /// Datasets the reader may be sent to: never dropped by the serve
    /// script.
    pub read_keys: Vec<DatasetId>,
}

fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn make_inputs(ctx: &mut Ctx<'_>) -> Result<Inputs, String> {
    let opts = ctx.opts;
    let w = opts.workload;
    let mut spec = (w.corpus)(opts.smoke);
    if let Some(seed) = opts.corpus_seed {
        spec.seed = seed;
    }
    let mut corpus = None;
    for _ in 0..SETUP_REPS {
        let generated = ctx.setup("synth.generate", |ctx| {
            ctx.tracer
                .time("synth.generate", || layers::generate_corpus(&spec))
                .0
        });
        corpus = Some(generated.map_err(|e| format!("corpus generation failed: {e}"))?);
    }
    let corpus = corpus.expect("SETUP_REPS >= 1");

    let sabotage_seed = w.sabotage.then(|| sub_seed(opts.seed, 1));
    let mut csv_dir = PathBuf::new();
    for _ in 0..SETUP_REPS {
        if !csv_dir.as_os_str().is_empty() {
            ctx.scratch.discard(&csv_dir);
        }
        csv_dir = ctx.scratch.dir("csv");
        let written = ctx.setup("synth.emit_csv", |ctx| {
            ctx.tracer
                .time("synth.emit_csv", || {
                    layers::write_lake_csv(&corpus.lake, &csv_dir, sabotage_seed)
                })
                .0
        });
        let files = written.map_err(|e| format!("CSV emission failed: {e}"))?;
        ctx.check(files == corpus.lake.len(), || {
            format!("emitted {files} files for {} datasets", corpus.lake.len())
        });
    }
    // The emitter appends, per sabotaged file, one over-long row, one row
    // with a dangling quote and (with more than one column) one short row.
    let sabotaged_rows = if w.sabotage {
        corpus
            .lake
            .iter()
            .map(|e| 2 + usize::from(e.data.schema().names().len() > 1))
            .sum()
    } else {
        0
    };

    let parents = layers::datasets_with_children(&corpus.expected);
    let (calls, serve_batches) = if opts.smoke {
        (SMOKE_STEPS, SMOKE_SERVE_BATCHES)
    } else {
        (w.mix.steps, w.mix.serve_batches)
    };
    // Built once: pure computation, the steadiest piece of set-up.
    let (stream_script, serve_script) = ctx.setup("script.build", |_| {
        (
            script::build(
                &corpus.lake,
                &parents,
                &w.mix,
                calls,
                STREAM_PLAN,
                sub_seed(opts.seed, 2),
            ),
            script::build(
                &corpus.lake,
                &parents,
                &w.mix,
                serve_batches,
                SERVE_PLAN,
                sub_seed(opts.seed, 3),
            ),
        )
    });
    let read_keys: Vec<DatasetId> = corpus
        .lake
        .ids()
        .into_iter()
        .filter(|id| !serve_script.dropped.contains(id))
        .collect();
    Ok(Inputs {
        corpus,
        csv_dir,
        sabotaged_rows,
        stream_script,
        serve_script,
        read_keys,
    })
}

/// Run one workload once.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let scratch = Scratch::create(&opts.scratch_base, opts.seed)
        .map_err(|e| format!("cannot create {}: {e}", opts.scratch_base.display()))?;
    let mut ctx = Ctx {
        opts,
        tracer: Tracer::new(opts.trace),
        scratch,
        nproc: hardware_threads(),
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        metrics: BTreeMap::new(),
        setup: BTreeMap::new(),
        pass: ("", None),
        overhead: BTreeMap::new(),
    };

    let mut walls = Vec::new();
    let mut lap = Instant::now();
    let mut wall = |phase: &'static str| {
        walls.push((phase, lap.elapsed().as_secs_f64()));
        lap = Instant::now();
    };
    let inputs = make_inputs(&mut ctx)?;
    wall("inputs");
    let mut fingerprint = Fingerprint {
        datasets: inputs.corpus.lake.len(),
        rows: inputs.corpus.lake.total_rows(),
        total_bytes: inputs.corpus.lake.total_bytes(),
        constructed_edges: inputs.corpus.expected.edge_count(),
        script_calls: inputs.stream_script.calls.len(),
        script_updates: inputs.stream_script.updates(),
        script_hash: inputs.stream_script.hash(),
        serve_script_hash: inputs.serve_script.hash(),
        ..Fingerprint::default()
    };

    fingerprint.final_edges = detect::phase(&mut ctx, &inputs);
    wall("detect");
    ingest::phase(&mut ctx, &inputs);
    wall("ingest");
    let lake_problem = stream::phase(&mut ctx, &inputs);
    wall("stream");
    serve::phase(&mut ctx, &inputs);
    wall("serve");
    let (nodes, edges) = advise::phase(&mut ctx, lake_problem);
    wall("advise");
    fingerprint.optret_nodes = nodes;
    fingerprint.optret_edges = edges;
    if !opts.smoke && opts.corpus_seed.is_none() {
        let drift = fingerprint_drift(
            FINGERPRINTS_JSON,
            opts.workload.name,
            opts.seed,
            &fingerprint,
        );
        ctx.check(drift.is_none(), || drift.unwrap_or_default());
    }

    let setup_s = ctx.setup_total();
    ctx.end_to_end("setup_s", setup_s);
    ctx.end_to_end("peak_rss_mb", peak_rss_mb());
    let generate_s = ctx.setup_median("synth.generate");
    let emit_s = ctx.setup_median("synth.emit_csv");
    ctx.layer("synth.generate_s", generate_s);
    ctx.layer("synth.emit_csv_s", emit_s);

    let overhead = ctx.overhead();
    if opts.trace {
        let (on, off): (f64, f64) = overhead
            .iter()
            .fold((0.0, 0.0), |(a, b), (_, on, off)| (a + on, b + off));
        let spans = ctx.tracer.spans().len() as f64;
        ctx.layer("trace.spans", spans);
        ctx.layer(
            "trace.overhead_pct",
            if off > 0.0 {
                100.0 * (on - off) / off
            } else {
                0.0
            },
        );
        ctx.tracer
            .write(&opts.trace_out)
            .map_err(|e| format!("cannot write {}: {e}", opts.trace_out.display()))?;
    }

    Ok(Outcome {
        problems: ctx.problems,
        attempted: ctx.attempted,
        failed: ctx.failed,
        metrics: ctx.metrics,
        fingerprint,
        nproc: ctx.nproc,
        walls,
        overhead_pct: overhead
            .iter()
            .map(|(phase, on, off)| (*phase, 100.0 * (on - off) / off))
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    #[test]
    fn a_run_at_the_committed_seed_must_see_the_committed_fingerprint() {
        let seen = Fingerprint {
            datasets: 3,
            rows: 7,
            script_hash: 0xABCD,
            ..Fingerprint::default()
        };
        let file = format!(
            "{{\"seed\": 1, \"workloads\": {{\"w\": {}}}}}",
            seen.to_json()
        );
        assert_eq!(fingerprint_drift(&file, "w", 1, &seen), None);
        let other = Fingerprint {
            rows: 8,
            ..seen.clone()
        };
        assert!(fingerprint_drift(&file, "w", 1, &other).is_some());
        assert!(fingerprint_drift(&file, "x", 1, &seen).is_some());
        // Every other seed is another lake: the file has no say.
        assert_eq!(fingerprint_drift(&file, "w", 2, &other), None);
        assert!(fingerprint_drift("{", "w", 1, &seen).is_some());
    }

    #[test]
    fn fingerprints_json_covers_every_workload() {
        let file = json::parse(FINGERPRINTS_JSON).unwrap();
        assert!(file.get("seed").and_then(Json::as_f64).is_some());
        for w in &WORKLOADS {
            let committed = file.get("workloads").and_then(|all| all.get(w.name));
            let fields = committed.map_or(0, |f| f.fields().len());
            assert_eq!(
                fields,
                json::parse(&Fingerprint::default().to_json())
                    .unwrap()
                    .fields()
                    .len(),
                "{}",
                w.name
            );
        }
    }
}
