//! Experiment runner: regenerates every table and figure of the paper.
//!
//! Usage:
//!
//! ```text
//! cargo run -p r2d2-bench --release --bin experiments -- <which> [--smoke]
//! ```
//!
//! `<which>` is a name from [`EXPERIMENTS`] — the paper's `table1`..`table7`
//! and `fig2`..`fig6`, `shootout-bench` (the §6.4 baseline comparison; writes
//! `BENCH_shootout.json`) and `fuzz-sweep` (asserts the no-panic /
//! no-misdecode decoder contract over thousands of structured mutations per
//! on-disk format; no JSON artifact) — or `all` (the default) for every table
//! and figure. An unknown name prints that same list. `--smoke` switches to
//! the small corpora used by the integration tests. Tables 1 and 2 also
//! check the paper's stage invariants and panic (exit non-zero) if a stage
//! loses a true containment edge or keeps more incorrect edges than the
//! stage before it. Performance is not measured here: see `BENCHMARK.json`
//! and `crates/bench/src/bin/benchmark/`.

use r2d2_bench::experiments::{
    clp_params, containment, enterprise_corpora, figures, fuzz_sweep, optimization,
    schema_baselines, shootout_bench, synthetic_corpora, Scale,
};
use r2d2_core::PipelineConfig;
use r2d2_synth::Corpus;

fn scale_from_args(args: &[String]) -> Scale {
    if args.iter().any(|a| a == "--smoke") {
        Scale::Smoke
    } else {
        Scale::Paper
    }
}

/// Print the edge-quality table, then fail the run if any corpus breaks the
/// stage invariants (zero loss, non-increasing incorrect edges).
fn edge_quality(corpora: &[Corpus]) {
    let evals: Vec<_> = corpora
        .iter()
        .map(|c| containment::evaluate_corpus(c, &PipelineConfig::default()))
        .collect();
    println!("{}", containment::render_edge_quality(&evals));
    for eval in &evals {
        if let Err(violation) = containment::check_stage_invariants(eval) {
            panic!("stage invariant violated: {violation}");
        }
    }
}

fn table1(scale: Scale) {
    println!("== Table 1: enterprise-like corpora, edge quality per stage ==");
    edge_quality(&enterprise_corpora(scale));
}

fn table2(scale: Scale) {
    println!("== Table 2: synthetic corpora (Table-Union-like, Kaggle-like) ==");
    edge_quality(&synthetic_corpora(scale));
}

fn table3(scale: Scale) {
    println!("== Table 3: pairwise row-level operation counts ==");
    let mut corpora = enterprise_corpora(scale);
    corpora.extend(synthetic_corpora(scale));
    let evals: Vec<_> = corpora
        .iter()
        .map(|c| containment::evaluate_corpus(c, &PipelineConfig::default()))
        .collect();
    println!("{}", containment::render_op_counts(&evals));
}

fn table4(scale: Scale) {
    println!("== Table 4: schema containment baselines vs SGB ==");
    let corpora = enterprise_corpora(scale);
    let results: Vec<_> = corpora
        .iter()
        .map(|c| schema_baselines::evaluate_schema_baselines(c, 42))
        .collect();
    println!("{}", schema_baselines::render(&results));
}

fn table5(scale: Scale) {
    println!("== Table 5: wall-clock time per stage vs brute-force ground truth ==");
    let mut corpora = enterprise_corpora(scale);
    corpora.extend(synthetic_corpora(scale));
    let evals: Vec<_> = corpora
        .iter()
        .map(|c| containment::evaluate_corpus(c, &PipelineConfig::default()))
        .collect();
    println!("{}", containment::render_timings(&evals));
}

fn table6(scale: Scale) {
    println!("== Table 6: CLP parameter sweep (incorrect edges remaining) ==");
    // The paper sweeps on its largest (42 TB) customer; we use the densest
    // enterprise-like corpus.
    let corpus = &enterprise_corpora(scale)[0];
    let points = clp_params::sweep(corpus, &[1, 4, 8], &[5, 10, 30], 7);
    println!("{}", clp_params::render(&points));
}

fn table7(scale: Scale) {
    println!("== Table 7: optimization results (1 privacy access per week) ==");
    let corpora = enterprise_corpora(scale);
    let results: Vec<_> = corpora
        .iter()
        .map(|c| optimization::evaluate_optimization(c, 1.0))
        .collect();
    println!("{}", optimization::render_table7(&results));
}

fn fig2(scale: Scale) {
    println!("== Figure 2: schema containment histograms across orgs ==");
    let corpora = enterprise_corpora(scale);
    let results = figures::figure2(&corpora, 10);
    println!("{}", figures::render_figure2(&results));
}

fn fig4(scale: Scale) {
    println!("== Figure 4: pipeline time vs data size ==");
    let sizes: Vec<usize> = match scale {
        Scale::Smoke => vec![32, 64, 128],
        Scale::Paper => vec![64, 128, 256, 512, 1024],
    };
    let points = figures::figure4(0, &sizes);
    println!("{}", figures::render_figure4(&points));
}

fn fig5(_scale: Scale) {
    println!("== Figure 5: savings for a 10 PB lake over 1 year ==");
    let fractions = [0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5];
    let points = optimization::figure5(&fractions);
    println!("{}", optimization::render_figure5(&points));
}

fn fig6(scale: Scale) {
    println!("== Figure 6: optimizer scalability on Erdős–Rényi graphs ==");
    let (node_counts, probs, fixed_n): (Vec<usize>, Vec<f64>, usize) = match scale {
        Scale::Smoke => (vec![50, 100, 200], vec![0.01, 0.05, 0.1], 100),
        Scale::Paper => (
            vec![100, 200, 400, 800, 1600],
            vec![0.005, 0.01, 0.02, 0.05, 0.1],
            500,
        ),
    };
    let nodes = optimization::figure6_nodes(&node_counts, 0.02, 11);
    println!(
        "{}",
        optimization::render_figure6(&nodes, "vary nodes (p=0.02)")
    );
    let edges = optimization::figure6_edges(fixed_n, &probs, 13);
    println!(
        "{}",
        optimization::render_figure6(&edges, &format!("vary edges (n={fixed_n})"))
    );
}

fn shootout_bench_cmd(scale: Scale) {
    println!("== Shootout: baseline precision/recall/runtime vs ground truth ==");
    let snapshot = shootout_bench::collect(scale == Scale::Smoke);
    println!("{}", snapshot.render());
    if scale == Scale::Smoke {
        // Smoke numbers are not representative; don't clobber the
        // checked-in full-size snapshot.
        println!("(--smoke: skipping BENCH_shootout.json write)");
    } else {
        let path = "BENCH_shootout.json";
        std::fs::write(path, snapshot.to_json()).expect("write BENCH_shootout.json");
        println!("wrote {path}");
    }
}

fn fuzz_sweep_cmd(scale: Scale) {
    println!("== Decoder fuzz sweep: structured mutations over every on-disk format ==");
    let snapshot = fuzz_sweep::collect(scale == Scale::Smoke);
    println!("{}", snapshot.render());
}

/// An experiment's command-line name and entry point.
type Experiment = (&'static str, fn(Scale));

/// Every experiment by name. Dispatch, `all` (the `table*` and `fig*`
/// entries, in this order) and the usage text all read this table.
const EXPERIMENTS: &[Experiment] = &[
    ("table1", table1),
    ("table2", table2),
    ("table3", table3),
    ("table4", table4),
    ("table5", table5),
    ("table6", table6),
    ("table7", table7),
    ("fig2", fig2),
    ("fig4", fig4),
    ("fig5", fig5),
    ("fig6", fig6),
    ("shootout-bench", shootout_bench_cmd),
    ("fuzz-sweep", fuzz_sweep_cmd),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = scale_from_args(&args);
    let which = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map_or("all", String::as_str);

    if which == "all" {
        for (name, run) in EXPERIMENTS {
            if name.starts_with("table") || name.starts_with("fig") {
                run(scale);
            }
        }
    } else if let Some((_, run)) = EXPERIMENTS.iter().find(|(name, _)| *name == which) {
        run(scale);
    } else {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
        eprintln!(
            "unknown experiment `{which}`; expected {} or all",
            names.join(", ")
        );
        std::process::exit(2);
    }
}
