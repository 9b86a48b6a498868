//! `benchmark --agree <set_a> <set_b>`: do two sets of run outputs agree
//! within the benchmark's own bounds?
//!
//! Each directory holds the captured standard output of untraced runs, one
//! file per run. Per workload and end-to-end metric the tool prints both
//! medians and quartiles, the relative gap, the bound and a verdict:
//! `unresolved` (a set's own spread, quartile to quartile over its median, is
//! wider than the bound, so the sets cannot tell, unless every run of one
//! beats every run of the other), `differs` (set b is worse than set a by
//! more than the bound) or `agree`. Runs of one workload and seed whose input
//! fingerprints differ between the sets measured different inputs: that
//! `differs` too, whatever the timings say.

use crate::json::{self, Json};
use crate::spec::{Metric, Spec};
use crate::stats::quartiles;
use std::collections::BTreeMap;
use std::path::Path;

/// One set of runs.
#[derive(Default)]
struct Set {
    /// workload → metric → values, one per run.
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    /// (workload, seed) → the fingerprint that run printed.
    fingerprints: BTreeMap<(String, u64), Json>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Agree,
    Unresolved,
    Differs,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Agree => "agree",
            Verdict::Unresolved => "unresolved",
            Verdict::Differs => "differs",
        }
    }
}

/// One run's output: the first line names the workload, the seed and the
/// input fingerprint, the last carries the metrics.
struct Run {
    workload: String,
    seed: u64,
    fingerprint: Json,
    metrics: Vec<(String, f64)>,
}

fn read_run(text: &str) -> Result<Run, String> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header = json::parse(lines.next().ok_or("empty output")?)?;
    let workload = header
        .get("workload")
        .and_then(Json::as_str)
        .ok_or("the first line names no workload")?
        .to_string();
    let result = json::parse(lines.next_back().ok_or("no result line")?)?;
    if result.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err("the run reports itself incorrect".to_string());
    }
    Ok(Run {
        workload,
        seed: header.get("seed").and_then(Json::as_f64).unwrap_or(0.0) as u64,
        fingerprint: header.get("fingerprint").cloned().unwrap_or(Json::Null),
        metrics: result
            .get("metrics")
            .ok_or("the last line carries no metrics")?
            .fields()
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect(),
    })
}

fn read_set(dir: &Path) -> Result<Set, String> {
    let mut set = Set::default();
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.is_file())
        .collect();
    paths.sort();
    for path in paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let run = read_run(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let per_workload = set.values.entry(run.workload.clone()).or_default();
        for (name, value) in run.metrics {
            per_workload.entry(name).or_default().push(value);
        }
        set.fingerprints
            .insert((run.workload, run.seed), run.fingerprint);
    }
    Ok(set)
}

/// Quartiles of one set, its spread (quartile distance over the median).
fn summarize(values: &[f64]) -> Option<([f64; 3], f64)> {
    let q = quartiles(values)?;
    let spread = if q[1] == 0.0 {
        0.0
    } else {
        (q[2] - q[0]) / q[1].abs()
    };
    Some((q, spread))
}

/// The verdict on one metric. `worse` is how much worse set b's median is
/// than set a's, as a share of set a's (negative when b is the better one).
/// A set whose own spread is wider than the bound cannot resolve a gap of
/// that size, so the metric is `unresolved` unless every run of one set beats
/// every run of the other; otherwise only a worsening past the bound
/// `differs`.
pub fn judge(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Option<(f64, Verdict)> {
    let ((qa, spread_a), (qb, spread_b)) = (summarize(a)?, summarize(b)?);
    let sign = if higher_is_better { -1.0 } else { 1.0 };
    let worse = if qa[1] == 0.0 {
        0.0
    } else {
        sign * (qb[1] - qa[1]) / qa[1].abs()
    };
    let extremes = |v: &[f64]| {
        v.iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
                (lo.min(x), hi.max(x))
            })
    };
    let ((a_lo, a_hi), (b_lo, b_hi)) = (extremes(a), extremes(b));
    let separated = a_hi < b_lo || b_hi < a_lo;
    let verdict = if (spread_a > bound || spread_b > bound) && !separated {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Differs
    } else {
        Verdict::Agree
    };
    Some((worse, verdict))
}

fn row(workload: &str, metric: &Metric, a: &[f64], b: &[f64]) -> Option<(String, Verdict)> {
    let bound = metric.bound?;
    let ((qa, _), (qb, _)) = (summarize(a)?, summarize(b)?);
    // Positive when set b is the worse one.
    let (gap, verdict) = judge(a, b, metric.higher_is_better, bound)?;
    let line = format!(
        "{workload:<17} {:<25} {:<5} a {:>12.4} [{:>12.4} {:>12.4}] n={:<2} b {:>12.4} [{:>12.4} {:>12.4}] n={:<2} gap {:>+7.2}% bound {:>5.1}% {}",
        metric.name,
        metric.unit,
        qa[1],
        qa[0],
        qa[2],
        a.len(),
        qb[1],
        qb[0],
        qb[2],
        b.len(),
        gap * 100.0,
        bound * 100.0,
        verdict.word()
    );
    Some((line, verdict))
}

/// Compare two directories of run outputs; `Ok(true)` when nothing differs.
pub fn agree(spec: &Spec, dir_a: &Path, dir_b: &Path) -> Result<bool, String> {
    let (a, b) = (read_set(dir_a)?, read_set(dir_b)?);
    let mut tally = BTreeMap::new();
    for (run, fingerprint) in &a.fingerprints {
        if b.fingerprints.get(run).is_some_and(|f| f != fingerprint) {
            println!(
                "{:<17} seed {}: the input fingerprints differ, so the two sets measured different inputs",
                run.0, run.1
            );
            *tally.entry(Verdict::Differs.word()).or_insert(0usize) += 1;
        }
    }
    for (workload, _) in &spec.workloads {
        let (Some(ma), Some(mb)) = (a.values.get(workload), b.values.get(workload)) else {
            println!("{workload:<17} (not in both sets)");
            continue;
        };
        for metric in &spec.end_to_end {
            let (Some(va), Some(vb)) = (ma.get(&metric.name), mb.get(&metric.name)) else {
                continue;
            };
            match row(workload, metric, va, vb) {
                Some((line, verdict)) => {
                    println!("{line}");
                    *tally.entry(verdict.word()).or_insert(0usize) += 1;
                }
                None => println!("{workload:<17} {:<25} (fewer than 2 runs)", metric.name),
            }
        }
    }
    let count = |v: Verdict| tally.get(v.word()).copied().unwrap_or(0);
    println!(
        "{} agree, {} unresolved, {} differs",
        count(Verdict::Agree),
        count(Verdict::Unresolved),
        count(Verdict::Differs)
    );
    Ok(count(Verdict::Differs) == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_spread_first_then_the_signed_gap() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let same = [100.2, 100.9, 99.1, 100.4, 99.8];
        let slower = [120.0, 121.0, 119.0, 120.5, 119.5];
        // Median 100.2, like `steady`, but quartiles 40 apart.
        let noisy = [80.0, 150.0, 95.0, 100.2, 120.0];
        let lower = |a: &[f64], b: &[f64]| judge(a, b, false, 0.05).unwrap();
        assert_eq!(lower(&steady, &same).1, Verdict::Agree);
        let (gap, verdict) = lower(&steady, &slower);
        assert!((gap - 0.2).abs() < 1e-9);
        assert_eq!(verdict, Verdict::Differs);
        // The same numbers as a throughput: set b is the better one.
        let (gap, verdict) = judge(&steady, &slower, true, 0.05).unwrap();
        assert!((gap + 0.2).abs() < 1e-9);
        assert_eq!(verdict, Verdict::Agree);
        assert_eq!(lower(&slower, &steady).1, Verdict::Agree);
        // Medians that agree do not make a noisy set agree.
        assert!(lower(&steady, &noisy).0.abs() < 0.05);
        assert_eq!(lower(&steady, &noisy).1, Verdict::Unresolved);
        assert_eq!(lower(&noisy, &steady).1, Verdict::Unresolved);
        // Unless every run of one set beats every run of the other.
        let noisy_and_slow = [180.0, 250.0, 195.0, 200.0, 220.0];
        assert_eq!(lower(&steady, &noisy_and_slow).1, Verdict::Differs);
        assert_eq!(lower(&noisy_and_slow, &steady).1, Verdict::Agree);
        assert_eq!(judge(&steady, &[1.0], false, 0.05), None);
    }

    const RUN: &str = "{\"workload\": \"w\", \"seed\": 3, \"fingerprint\": {\"rows\": 7}}\n  detect_ms 1.5 ms\n\n{\"correct\": true, \"attempted\": 2, \"failed\": 0, \"metrics\": {\"detect_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}\n";

    #[test]
    fn a_run_output_is_read_by_its_first_and_last_line() {
        let run = read_run(RUN).unwrap();
        assert_eq!((run.workload.as_str(), run.seed), ("w", 3));
        assert_eq!(run.metrics, vec![("detect_ms".to_string(), 1.5)]);
        assert_eq!(
            run.fingerprint.get("rows").and_then(Json::as_f64),
            Some(7.0)
        );
        assert!(read_run(&RUN.replace("true", "false")).is_err());
        assert!(read_run("").is_err());
    }

    #[test]
    fn sets_with_different_input_fingerprints_differ() {
        let base =
            std::env::temp_dir().join(format!("r2d2_benchmark_agree_{}", std::process::id()));
        let (a, b) = (base.join("a"), base.join("b"));
        for dir in [&a, &b] {
            std::fs::create_dir_all(dir).unwrap();
            for i in 0..2 {
                std::fs::write(dir.join(format!("run{i}.txt")), RUN).unwrap();
            }
        }
        let spec = Spec::load();
        assert!(agree(&spec, &a, &b).unwrap());
        std::fs::write(
            b.join("run1.txt"),
            RUN.replace("\"rows\": 7", "\"rows\": 8"),
        )
        .unwrap();
        assert!(!agree(&spec, &a, &b).unwrap());
        std::fs::remove_dir_all(&base).unwrap();
    }
}
