//! `BENCHMARK.json`, compiled in: the one place a metric's name, unit,
//! direction and bound are written down. The binary prints units from it,
//! refuses to report a metric it does not declare, and `--agree` takes its
//! bounds from it.

use crate::json::{self, Json};

const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Relative worsening that counts as a regression (end-to-end only).
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

fn metrics(doc: &Json, key: &str) -> Result<Vec<Metric>, String> {
    doc.get(key)
        .ok_or(format!("BENCHMARK.json has no {key}"))?
        .items()
        .iter()
        .map(|m| {
            let text = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or(format!("a {key} metric has no {k}"))
            };
            Ok(Metric {
                name: text("name")?,
                unit: text("unit")?,
                higher_is_better: match text("better")?.as_str() {
                    "higher" => true,
                    "lower" => false,
                    other => return Err(format!("better is \"{other}\"")),
                },
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

impl Spec {
    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = json::parse(text)?;
        Ok(Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json has no run_seconds")?,
            workloads: doc
                .get("workloads")
                .ok_or("BENCHMARK.json has no workloads")?
                .items()
                .iter()
                .map(|w| {
                    let text = |k: &str| w.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                    (text("name"), text("why"))
                })
                .collect(),
            end_to_end: metrics(&doc, "end_to_end")?,
            per_layer: metrics(&doc, "per_layer")?,
        })
    }

    /// The compiled-in `BENCHMARK.json`.
    pub fn load() -> Spec {
        Spec::parse(BENCHMARK_JSON).expect("the committed BENCHMARK.json parses")
    }

    /// The metrics a run of this kind reports.
    pub fn metrics(&self, trace: bool) -> &[Metric] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
            && name.as_bytes()[0].is_ascii_alphanumeric()
    }

    #[test]
    fn benchmark_json_declares_the_workloads_the_binary_runs() {
        let spec = Spec::load();
        let declared: Vec<&str> = spec.workloads.iter().map(|(n, _)| n.as_str()).collect();
        let built: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(declared, built);
        for (name, why) in &spec.workloads {
            assert!(
                !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
                "{name}"
            );
        }
    }

    #[test]
    fn metric_names_are_well_formed_unique_and_bounded() {
        let spec = Spec::load();
        let mut seen = std::collections::BTreeSet::new();
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(well_formed(&m.name), "{:?}", m.name);
            assert!(seen.insert(m.name.clone()), "{} is declared twice", m.name);
            assert!(!m.unit.is_empty() && m.unit.len() <= 16);
        }
        for (name, _) in &spec.workloads {
            assert!(well_formed(name) && seen.insert(name.clone()));
        }
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        for m in &spec.end_to_end {
            let bound = m.bound.expect("every end-to-end metric has a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: {bound}", m.name);
        }
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .unwrap();
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        assert!((1.0..=60.0).contains(&spec.run_seconds) && spec.run_seconds.fract() == 0.0);
    }
}
