//! One benchmark for the whole lake lifecycle.
//!
//! `benchmark --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]`
//! takes one lake through setup → detect → ingest → stream (+ checkpoint,
//! kill, restore) → serve → advise in one process, checks every phase's
//! output, and prints every metric by name with its unit; the last line of
//! standard output is the result as one JSON object. `README.md` beside this
//! file has the phase table, the metrics and how to read the output;
//! `BENCHMARK.json` at the repository root declares them.

mod advise;
mod agree;
mod detect;
mod ingest;
mod json;
mod layers;
mod run;
mod scratch;
mod script;
mod serve;
mod spec;
mod stats;
mod stream;
mod trace;
mod workloads;

use run::{Options, Outcome, SMOKE_SECONDS};
use spec::Spec;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: benchmark --workload <name> --seed <n> [--seconds <s>] [--trace 0|1] [--trace-out <file>] [--corpus-seed <n>] [--smoke]
       benchmark --agree <set_a> <set_b>";

enum Command {
    Run(Options),
    Agree(PathBuf, PathBuf),
}

fn parse_seed(text: &str) -> Result<u64, String> {
    text.parse().map_err(|_| format!("bad seed {text}"))
}

fn parse_args(args: &[String], spec: &Spec) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = None;
    let mut corpus_seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut trace_out = None;
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--agree" => return Ok(Command::Agree(value()?.into(), value()?.into())),
            "--workload" => {
                let name = value()?;
                workload = Some(workloads::by_name(name).ok_or_else(|| {
                    let known: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name}; known: {}", known.join(", "))
                })?);
            }
            "--seed" => seed = Some(parse_seed(value()?)?),
            "--corpus-seed" => corpus_seed = Some(parse_seed(value()?)?),
            "--seconds" => {
                let v = value()?;
                seconds = match v.parse::<f64>() {
                    Ok(s) if s > 0.0 && s.is_finite() => Some(s),
                    _ => return Err(format!("bad run length {v}")),
                };
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value()?)),
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let mut seconds = seconds.unwrap_or(spec.run_seconds);
    if smoke {
        seconds = seconds.min(SMOKE_SECONDS);
    }
    let target = scratch::target_dir();
    Ok(Command::Run(Options {
        workload,
        seed,
        corpus_seed,
        seconds,
        trace,
        smoke,
        scratch_base: target.join("benchmark-scratch"),
        trace_out: trace_out.unwrap_or_else(|| {
            target
                .join("benchmark-trace")
                .join(format!("{}-{seed}.jsonl", workload.name))
        }),
    }))
}

/// Everything a run prints. The first line names the run and its input
/// fingerprint, the last is the result; both are JSON, the lines between
/// are for reading.
fn render(opts: &Options, outcome: &Outcome, spec: &Spec) -> (String, bool) {
    let mut out = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"corpus_seed\": {}, \"seconds\": {}, \"trace\": {}, \"smoke\": {}, \"nproc\": {}, \"fingerprint\": {}}}\n",
        opts.workload.name,
        opts.seed,
        opts.corpus_seed
            .map_or("null".to_string(), |s| s.to_string()),
        opts.seconds,
        u8::from(opts.trace),
        opts.smoke,
        outcome.nproc,
        outcome.fingerprint.to_json()
    );
    let mut problems = outcome.problems.clone();
    let declared = spec.metrics(opts.trace);
    for name in outcome.metrics.keys() {
        if !declared.iter().any(|m| m.name == *name) {
            problems.push(format!(
                "{name} is reported but not declared in BENCHMARK.json"
            ));
        }
    }
    let mut fields = Vec::new();
    for metric in declared {
        let value = match outcome.metrics.get(metric.name.as_str()) {
            Some(v) if v.is_finite() => *v,
            Some(v) => {
                problems.push(format!("{} is {v}", metric.name));
                0.0
            }
            None => {
                problems.push(format!("{} was not produced", metric.name));
                0.0
            }
        };
        out.push_str(&format!(
            "  {:<38} {value:>18.6} {}\n",
            metric.name, metric.unit
        ));
        fields.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            metric.name, metric.unit
        ));
    }
    let walls: Vec<String> = outcome
        .walls
        .iter()
        .map(|(phase, s)| format!("{phase} {s:.1}"))
        .collect();
    out.push_str(&format!("  wall seconds: {}\n", walls.join(", ")));
    if opts.trace {
        let overhead: Vec<String> = outcome
            .overhead_pct
            .iter()
            .map(|(phase, pct)| format!("{phase} {pct:+.1}"))
            .collect();
        out.push_str(&format!(
            "  tracing overhead, percent: {}\n",
            overhead.join(", ")
        ));
    }
    for problem in &problems {
        out.push_str(&format!("  INCORRECT: {problem}\n"));
    }
    let correct = problems.is_empty();
    out.push_str(&format!(
        "  correct {correct}  attempted {}  failed {}\n",
        outcome.attempted, outcome.failed
    ));
    out.push_str(&format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}\n",
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    ));
    (out, correct)
}

fn main() -> ExitCode {
    let spec = Spec::load();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse_args(&args, &spec) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let done = match command {
        Command::Agree(a, b) => agree::agree(&spec, &a, &b),
        Command::Run(opts) => run::run(&opts).map(|outcome| {
            let (text, correct) = render(&opts, &outcome, &spec);
            print!("{text}");
            correct
        }),
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: &str, trace: bool, corpus_seed: Option<u64>) {
        let spec = Spec::load();
        let base = std::env::temp_dir().join(format!(
            "r2d2_benchmark_smoke_{workload}_{}",
            u8::from(trace)
        ));
        let opts = Options {
            workload: workloads::by_name(workload).unwrap(),
            seed: 11,
            corpus_seed,
            seconds: SMOKE_SECONDS,
            trace,
            smoke: true,
            scratch_base: base.join("scratch"),
            trace_out: base.join("trace.jsonl"),
        };
        let outcome = run::run(&opts).expect("the run completes");
        assert!(
            outcome.problems.is_empty(),
            "{workload}: {:?}",
            outcome.problems
        );
        assert_eq!(outcome.failed, 0);
        assert!(outcome.attempted > 0);
        let (text, correct) = render(&opts, &outcome, &spec);
        assert!(correct, "{text}");
        // Every declared metric is there and finite, and nothing else is.
        let declared = spec.metrics(trace);
        assert_eq!(outcome.metrics.len(), declared.len());
        for m in declared {
            let v = outcome.metrics[m.name.as_str()];
            assert!(v.is_finite(), "{workload}: {} is {v}", m.name);
        }
        if trace {
            assert!(opts.trace_out.exists());
        } else {
            for m in declared {
                assert!(
                    outcome.metrics[m.name.as_str()] > 0.0,
                    "{workload}: {} must never be 0",
                    m.name
                );
            }
        }
        // The result line parses back to what was measured.
        let last = json::parse(text.lines().last().unwrap()).unwrap();
        assert_eq!(last.fields().len(), 4);
        assert_eq!(
            last.get("correct").and_then(json::Json::as_bool),
            Some(true)
        );
        assert_eq!(last.get("metrics").unwrap().fields().len(), declared.len());
        // Scratch hygiene: the per-run root is gone.
        let left = std::fs::read_dir(&opts.scratch_base).map_or(0, Iterator::count);
        assert_eq!(left, 0, "{workload} left scratch behind");
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn smoke_wide_impostor() {
        smoke("wide_impostor", false, None);
    }

    #[test]
    fn smoke_chains_confirm() {
        smoke("chains_confirm", false, None);
    }

    #[test]
    fn smoke_tiny_hostile() {
        smoke("tiny_hostile", false, None);
    }

    #[test]
    fn smoke_enterprise_churn() {
        smoke("enterprise_churn", false, None);
    }

    #[test]
    fn smoke_traced_run_on_another_lake_reports_every_per_layer_metric() {
        smoke("enterprise_churn", true, Some(5));
    }

    #[test]
    fn an_undeclared_or_missing_metric_makes_the_run_incorrect() {
        let spec = Spec::load();
        let opts = match parse_args(
            &["--workload", "wide_impostor", "--seed", "1", "--smoke"].map(String::from),
            &spec,
        ) {
            Ok(Command::Run(o)) => o,
            _ => panic!("arguments parse"),
        };
        assert_eq!(opts.seconds, SMOKE_SECONDS);
        let mut outcome = Outcome {
            problems: Vec::new(),
            attempted: 1,
            failed: 0,
            metrics: spec
                .end_to_end
                .iter()
                .map(|m| (&*Box::leak(m.name.clone().into_boxed_str()), 1.0))
                .collect(),
            fingerprint: run::Fingerprint::default(),
            nproc: 1,
            walls: Vec::new(),
            overhead_pct: Vec::new(),
        };
        assert!(render(&opts, &outcome, &spec).1);
        outcome.metrics.insert("made_up_ms", 1.0);
        assert!(!render(&opts, &outcome, &spec).1);
        outcome.metrics.remove("made_up_ms");
        outcome.metrics.remove("detect_ms");
        let (text, correct) = render(&opts, &outcome, &spec);
        assert!(!correct && text.contains("detect_ms was not produced"));
    }

    #[test]
    fn bad_arguments_are_refused() {
        let spec = Spec::load();
        for bad in [
            vec!["--workload", "nope", "--seed", "1"],
            vec!["--workload", "wide_impostor"],
            vec!["--seed", "1"],
            vec!["--workload", "wide_impostor", "--seed", "x"],
            vec!["--workload", "wide_impostor", "--seed", "1", "--trace", "2"],
            vec![
                "--workload",
                "wide_impostor",
                "--seed",
                "1",
                "--seconds",
                "0",
            ],
            vec!["--agree", "only_one"],
            vec!["--frobnicate"],
        ] {
            let args: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            assert!(parse_args(&args, &spec).is_err(), "{bad:?} was accepted");
        }
    }
}
