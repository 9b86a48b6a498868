//! Detect: `R2d2Pipeline::run` over the lake, one thread and `nproc` threads
//! interleaved.

use crate::layers::{self, ContainmentGraph, Meter, OpCounts};
use crate::run::{Ctx, Inputs, CLP_SEED, MIN_PASSES, PROBE_REPS, SHARE_DETECT};
use crate::stats::median;

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Constructed edges present in `graph`, out of `graph`'s edges: the share
/// of reported edges the corpus vouches for. A false edge becomes a wrong
/// deletion, so this may only go down when detection gets sloppier.
pub fn precision(expected: &ContainmentGraph, graph: &ContainmentGraph) -> f64 {
    let vouched = graph
        .edges()
        .iter()
        .filter(|(p, c)| expected.has_edge(*p, *c))
        .count();
    vouched as f64 / graph.edge_count().max(1) as f64
}

/// Constructed edges missing from `graph`.
pub fn missing_edges(expected: &ContainmentGraph, graph: &ContainmentGraph) -> usize {
    expected
        .edges()
        .iter()
        .filter(|(p, c)| !graph.has_edge(*p, *c))
        .count()
}

/// One stage of the staged run: its span, its meter delta.
fn stage<T>(
    ctx: &mut Ctx<'_>,
    name: &'static str,
    meter: &Meter,
    call: impl FnOnce() -> T,
) -> (T, f64, OpCounts) {
    let before = meter.snapshot();
    let (out, d) = ctx.tracer.time(name, call);
    (out, ms(d), meter.snapshot().since(&before))
}

/// Returns the edge count of the final graph (for the fingerprint).
pub fn phase(ctx: &mut Ctx<'_>, inputs: &Inputs) -> usize {
    let lake = &inputs.corpus.lake;
    let expected = &inputs.corpus.expected;
    let seq = layers::pipeline_config(CLP_SEED, 1);
    let par = layers::pipeline_config(CLP_SEED, ctx.nproc);

    let budget = ctx.budget(SHARE_DETECT);
    let (mut t_seq, mut t_par) = (Vec::new(), Vec::new());
    let mut first: Option<ContainmentGraph> = None;
    let mut spent = 0.0;
    let mut pass = 0;
    while pass < MIN_PASSES || spent < budget {
        ctx.begin_pass("detect", pass);
        for (config, times) in [(&seq, &mut t_seq), (&par, &mut t_par)] {
            ctx.tracer.next_op();
            let (report, d) = ctx
                .tracer
                .time("core.pipeline.run", || layers::detect(lake, config));
            spent += d.as_secs_f64();
            times.push(ms(d));
            if config.threads == 1 {
                ctx.pass_took(ms(d));
            }
            let Some(report) = ctx.op("pipeline run", report) else {
                continue;
            };
            match &first {
                None => first = Some(report.final_graph().clone()),
                // Every later run, at either thread count, must land on the
                // graph of the first.
                Some(graph) => ctx.check(graph == report.final_graph(), || {
                    format!(
                        "detect: a threads={} run's graph differs from the first run's",
                        config.threads
                    )
                }),
            }
        }
        pass += 1;
    }
    let Some(graph) = first else {
        ctx.check(false, || "detect: no pipeline run succeeded".to_string());
        return 0;
    };

    let missing = missing_edges(expected, &graph);
    ctx.check(missing == 0, || {
        format!("detect: {missing} constructed edges are missing from the graph (recall < 1)")
    });
    let (detect_ms, detect_par_ms) = (median(&t_seq), median(&t_par));
    ctx.end_to_end("detect_ms", detect_ms);
    // As a ratio to the interleaved one-thread runs, so that a slow spell of
    // the machine cancels: the raw time drifted 23 % between two sets of runs
    // of the same code, the ratio 6 %.
    ctx.end_to_end("detect_par_speedup", detect_ms / detect_par_ms);
    ctx.end_to_end("detect_precision", precision(expected, &graph));

    if ctx.opts.trace {
        staged(ctx, inputs, &seq, &graph, detect_ms, detect_par_ms);
    }
    graph.edge_count()
}

/// The traced run drives the three stages itself, through the same public
/// functions `run` calls, so each gets a span and a meter delta of its own.
fn staged(
    ctx: &mut Ctx<'_>,
    inputs: &Inputs,
    config: &layers::PipelineConfig,
    run_graph: &ContainmentGraph,
    detect_ms: f64,
    detect_par_ms: f64,
) {
    let lake = &inputs.corpus.lake;
    let meter = lake.meter().clone();
    let (mut sgb_ms, mut mmp_ms, mut clp_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut examined = 0;
    ctx.tracer.set_enabled(true);
    for pass in 0..PROBE_REPS {
        ctx.tracer.next_op();
        let whole = ctx.tracer.open("core.pipeline.staged");
        let (mut graph, t, sgb_ops) = stage(ctx, "core.sgb", &meter, || {
            layers::stage_sgb(lake, config, &meter)
        });
        sgb_ms.push(t);
        let sgb_edges = graph.edge_count();
        let (distinct, t, mmp_ops) = stage(ctx, "core.mmp", &meter, || {
            layers::stage_mmp(lake, &mut graph, config, &meter)
        });
        mmp_ms.push(t);
        let mmp_edges = graph.edge_count();
        let (clp, t, clp_ops) = stage(ctx, "core.clp", &meter, || {
            layers::stage_clp(lake, &mut graph, config, &meter)
        });
        clp_ms.push(t);
        ctx.tracer.close(whole);
        if pass > 0 {
            continue;
        }
        // Counts, from the first staged run: they repeat exactly.
        ctx.check(&graph == run_graph, || {
            "detect: the staged run's graph differs from R2d2Pipeline::run's".to_string()
        });
        let (edges_in, pruned) = clp.unwrap_or((0, 0));
        examined = edges_in;
        let out = graph.edge_count();
        let constructed = inputs.corpus.expected.edge_count();
        let all = sgb_ops.plus(&mmp_ops).plus(&clp_ops);
        for (name, count) in [
            ("core.sgb.schema_comparisons", sgb_ops.schema_comparisons),
            ("core.sgb.edges_out", sgb_edges as u64),
            ("core.mmp.metadata_lookups", mmp_ops.metadata_lookups),
            ("core.mmp.edges_out", mmp_edges as u64),
            ("core.mmp.distinct_prunes", distinct.unwrap_or(0) as u64),
            ("core.clp.edges_in", edges_in as u64),
            ("core.clp.edges_out", out as u64),
            ("core.clp.rows_scanned", clp_ops.rows_scanned),
            ("core.clp.rows_hashed", clp_ops.rows_hashed),
            ("core.clp.row_comparisons", clp_ops.row_comparisons),
            ("core.clp.sketch_probes", clp_ops.sketch_probes),
            ("core.clp.sketch_prunes", clp_ops.sketch_prunes),
            ("lake.storage.string_hash_ops", all.string_hash_ops),
            ("lake.storage.string_cells_hashed", all.string_cells_hashed),
            ("lake.query.partitions_pruned", all.partitions_pruned),
            ("lake.query.partitions_scanned", all.partitions_scanned),
        ] {
            ctx.layer(name, count as f64);
        }
        ctx.layer(
            "core.clp.prune_ratio",
            pruned as f64 / edges_in.max(1) as f64,
        );
        ctx.layer("core.clp.extra_edges", out as f64 - constructed as f64);
    }
    let (sgb, mmp, clp) = (median(&sgb_ms), median(&mmp_ms), median(&clp_ms));
    ctx.layer("core.sgb.ms", sgb);
    ctx.layer("core.mmp.ms", mmp);
    ctx.layer("core.clp.ms", clp);
    ctx.layer("core.clp.us_per_edge", clp * 1e3 / examined.max(1) as f64);
    ctx.layer("core.fanout.detect_par_ms", detect_par_ms);
    ctx.layer(
        "core.pipeline.stage_coverage",
        (sgb + mmp + clp) / detect_ms,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Flipping the oracle's input — one expected edge the graph does not
    /// have — must be seen.
    #[test]
    fn a_dropped_edge_breaks_recall_and_an_extra_edge_lowers_precision() {
        let mut expected = ContainmentGraph::with_datasets([1, 2, 3]);
        expected.add_edge(1, 2);
        expected.add_edge(1, 3);
        let mut graph = expected.clone();
        assert_eq!(missing_edges(&expected, &graph), 0);
        assert_eq!(precision(&expected, &graph), 1.0);
        graph.add_edge(2, 3);
        assert_eq!(missing_edges(&expected, &graph), 0);
        assert_eq!(precision(&expected, &graph), 2.0 / 3.0);
        graph.remove_edge(1, 3);
        assert_eq!(missing_edges(&expected, &graph), 1);
    }
}
