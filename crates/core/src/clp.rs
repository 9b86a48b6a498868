//! CLP — Content-Level Pruning (Algorithm 3 of the paper).
//!
//! For every surviving edge `parent → child`, CLP samples up to `t` rows of
//! the child — either uniformly at random or via a `WHERE` filter built from
//! up to `s` of the common columns — and left-anti joins the sample against
//! the parent on the child's full column set. If any sampled row is absent
//! from the parent, containment cannot hold and the edge is pruned. Because
//! sampling uses predicate queries, a partitioned / indexed lake only needs
//! to touch the partitions admitted by the filter, which is where the
//! order-of-magnitude savings of Table 3's CLP row come from.
//!
//! Every sampled value is first probed against the parent's per-column bloom
//! sketches, *before* the parent's hash multiset is built: a sketch miss
//! proves the sampled row is absent from the parent (sketches have no false
//! negatives), so the edge is pruned without scanning or hashing a single
//! parent row. Sketch hits — including false positives — fall through to the
//! exact anti-join, so the gate never changes the graph: it prunes only when
//! the exact check on the same sample would have pruned.

use crate::config::{ClpSampling, PipelineConfig};
use r2d2_graph::ContainmentGraph;
use r2d2_lake::query::{left_anti_join, left_anti_join_cached, random_rows, scan, Predicate};
use r2d2_lake::row::hash_single;
use r2d2_lake::{DataLake, DatasetId, HashJoinCache, Meter, PartitionedTable, Result, Table};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Statistics of one CLP run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClpStats {
    /// Edges examined.
    pub edges_examined: usize,
    /// Edges removed because a sampled child row was missing from the parent.
    pub edges_pruned: usize,
    /// Edges removed by the bloom-sketch gate (a subset of `edges_pruned`):
    /// a sampled value was provably absent from the parent, so the edge was
    /// dropped before the parent's hash multiset was built or probed.
    pub edges_pruned_by_sketch: usize,
    /// Total child rows sampled across all edges.
    pub rows_sampled: usize,
}

/// Build the WHERE filter for an edge: pick up to `s` of the child's columns
/// (preferring id/timestamp-like columns, which enterprise tables are often
/// partitioned by), read one random child row and equate the chosen columns
/// to that row's values.
fn build_filter(
    child: &r2d2_lake::PartitionedTable,
    columns: &[String],
    s: usize,
    rng: &mut SmallRng,
    meter: &Meter,
) -> Result<Option<Predicate>> {
    if child.num_rows() == 0 || columns.is_empty() || s == 0 {
        return Ok(None);
    }
    // Prefer columns that look like good sampling keys.
    let mut cols: Vec<&String> = columns.iter().collect();
    cols.shuffle(rng);
    cols.sort_by_key(|c| {
        let lower = c.to_lowercase();
        if lower.contains("id") || lower.contains("time") || lower.contains("date") {
            0
        } else {
            1
        }
    });
    let chosen: Vec<&String> = cols.into_iter().take(s).collect();

    // Seed row: one random row of the child (a point read).
    let seed = random_rows(child, 1, rng, meter)?;
    if seed.is_empty() {
        return Ok(None);
    }
    let mut clauses = Vec::with_capacity(chosen.len());
    for col in chosen {
        let idx = match seed.schema().index_of(col) {
            Some(i) => i,
            None => continue,
        };
        let value = seed.row(0).expect("one row").values()[idx].clone();
        if value.is_null() {
            continue;
        }
        clauses.push(Predicate::eq(col.clone(), value));
    }
    if clauses.is_empty() {
        Ok(None)
    } else {
        Ok(Some(Predicate::and(clauses)))
    }
}

/// Sample up to `t` child rows according to the configured strategy.
fn sample_child(
    child: &r2d2_lake::PartitionedTable,
    common: &[String],
    config: &PipelineConfig,
    rng: &mut SmallRng,
    meter: &Meter,
) -> Result<(Table, Option<Predicate>)> {
    match config.clp_sampling {
        ClpSampling::RandomRows => Ok((random_rows(child, config.clp_rows, rng, meter)?, None)),
        ClpSampling::PredicateFilter | ClpSampling::BothSides => {
            match build_filter(child, common, config.clp_columns, rng, meter)? {
                Some(filter) => {
                    let rows = scan(child, &filter, Some(config.clp_rows), meter)?;
                    if rows.is_empty() {
                        // Degenerate filter (e.g. all chosen values NULL in
                        // other rows): fall back to uniform sampling so the
                        // edge still gets checked.
                        Ok((random_rows(child, config.clp_rows, rng, meter)?, None))
                    } else {
                        Ok((rows, Some(filter)))
                    }
                }
                None => Ok((random_rows(child, config.clp_rows, rng, meter)?, None)),
            }
        }
    }
}

/// Mix an edge's endpoints into the pipeline seed (SplitMix64 finaliser), so
/// every edge gets an independent, schedule-free RNG stream. This is what
/// makes CLP embarrassingly parallel *and* deterministic: with a single
/// shared RNG the draws an edge sees would depend on how many draws earlier
/// edges consumed (and, under threads, on scheduling order).
fn edge_seed(seed: u64, parent_id: u64, child_id: u64) -> u64 {
    let mut z = (seed ^ 0xC1B0_5EED)
        .wrapping_add(parent_id.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(child_id.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Outcome of checking one edge, merged deterministically afterwards.
struct EdgeOutcome {
    prune: bool,
    sketch_pruned: bool,
    rows_sampled: usize,
}

/// Probe every non-null sampled value against the parent's per-column bloom
/// sketches. Returns `true` when some value is provably absent from the
/// parent — the sampled row containing it cannot exist in the parent, so
/// containment is disproved without touching parent rows. Columns are
/// visited in the (deterministic) `common` order, values in row order, so
/// the probe count is identical at any thread count.
fn sketch_disproves(
    parent: &PartitionedTable,
    sample: &Table,
    common: &[String],
    meter: &Meter,
) -> bool {
    for col in common {
        let Some(sketch) = parent.column_sketch(col) else {
            continue;
        };
        let Ok(column) = sample.column(col) else {
            continue;
        };
        for value in column.values() {
            if value.is_null() {
                continue;
            }
            meter.add_sketch_probes(1);
            if matches!(value, r2d2_lake::Value::Str(_)) {
                meter.add_string_hash_ops(1);
                meter.add_string_cells_hashed(1);
            }
            if !sketch.contains(hash_single(value)) {
                meter.add_sketch_prunes(1);
                return true;
            }
        }
    }
    false
}

/// Check a single `parent → child` edge by sampling and anti-joining.
fn check_edge(
    lake: &DataLake,
    parent_id: u64,
    child_id: u64,
    config: &PipelineConfig,
    cache: &HashJoinCache,
    meter: &Meter,
) -> Result<EdgeOutcome> {
    let parent = lake.dataset(DatasetId(parent_id))?;
    let child = lake.dataset(DatasetId(child_id))?;

    let child_schema = child.data.schema();
    let parent_set = parent.data.schema().schema_set();
    let common: Vec<String> = child_schema.schema_set().intersection(&parent_set);
    if common.len() < child_schema.len() {
        // The child has columns the parent lacks: containment (over the
        // child's schema) is impossible. SGB normally prevents this, but
        // dynamic updates can surface it.
        return Ok(EdgeOutcome {
            prune: true,
            sketch_pruned: false,
            rows_sampled: 0,
        });
    }
    let join_cols: Vec<&str> = common.iter().map(String::as_str).collect();

    let mut rng = SmallRng::seed_from_u64(edge_seed(config.seed, parent_id, child_id));
    let mut rows_sampled = 0usize;
    for _round in 0..config.clp_rounds.max(1) {
        let (sample, filter) = sample_child(&child.data, &common, config, &mut rng, meter)?;
        rows_sampled += sample.num_rows();
        if sample.is_empty() {
            continue;
        }
        // Bloom gate: a sampled value absent from the parent's sketch
        // proves the sampled row absent from the parent — prune before
        // building or probing the (expensive) parent hash multiset. The
        // exact check below would prune on the same sample, so the gate
        // never changes the graph.
        if sketch_disproves(&parent.data, &sample, &common, meter) {
            return Ok(EdgeOutcome {
                prune: true,
                sketch_pruned: true,
                rows_sampled,
            });
        }
        let missing = match (config.clp_sampling, &filter) {
            (ClpSampling::BothSides, Some(f)) => {
                // Restrict the parent to the same filter before probing;
                // under true containment sA ⊆ sB must hold. The filtered
                // parent is filter-specific, so it bypasses the cache.
                let parent_filtered = scan(&parent.data, f, None, meter)?;
                let parent_part = r2d2_lake::PartitionedTable::single(parent_filtered);
                left_anti_join(&sample, &parent_part, &join_cols, meter)?
            }
            // Unfiltered probes share the parent's hash multiset across all
            // edges (and rounds) with the same parent and column set.
            _ => left_anti_join_cached(
                &sample,
                parent_id,
                parent.generation,
                &parent.data,
                &join_cols,
                meter,
                cache,
            )?,
        };
        if !missing.is_empty() {
            return Ok(EdgeOutcome {
                prune: true,
                sketch_pruned: false,
                rows_sampled,
            });
        }
    }
    Ok(EdgeOutcome {
        prune: false,
        sketch_pruned: false,
        rows_sampled,
    })
}

/// Whether the single edge `parent → child` survives Content-Level Pruning,
/// together with the number of child rows sampled. This is the per-edge
/// primitive behind [`content_level_prune`], shared with the session's
/// dynamic-update verification path: the caller's `HashJoinCache` serves the
/// parent's hash multiset, so repeated verifications against one parent
/// build it once instead of once per candidate edge.
pub(crate) fn edge_passes(
    lake: &DataLake,
    parent_id: u64,
    child_id: u64,
    config: &PipelineConfig,
    cache: &HashJoinCache,
    meter: &Meter,
) -> Result<(bool, usize)> {
    let outcome = check_edge(lake, parent_id, child_id, config, cache, meter)?;
    Ok((!outcome.prune, outcome.rows_sampled))
}

/// Run Content-Level Pruning over `graph`, mutating it in place, on up to
/// `config.threads` workers (`1` = inline sequential, `0` = all hardware
/// threads).
///
/// Each edge draws from its own RNG stream seeded by
/// `(config.seed, parent, child)` and only reads the immutable lake (plus a
/// shared build-side hash cache that computes each parent multiset exactly
/// once), so edges fan out freely; prune decisions are applied in edge
/// order afterwards. The resulting graph, stats and meter totals are
/// identical for every thread count.
pub fn content_level_prune(
    lake: &DataLake,
    graph: &mut ContainmentGraph,
    config: &PipelineConfig,
    meter: &Meter,
) -> Result<ClpStats> {
    let edges = graph.edges();
    let cache = HashJoinCache::new();
    // The edge list is grouped by parent. When running inline (one worker)
    // edges are processed in exactly that order, so a finished parent's
    // multisets can be evicted as soon as the sweep moves past it — keeping
    // peak cache memory at one parent's worth, like the seed. With several
    // workers, parents interleave and eviction could force re-builds (which
    // would also skew meter totals versus a sequential run), so the cache is
    // instead left bounded by the edge list's distinct (parent, column-set)
    // keys for the duration of the stage.
    let sequential = crate::fanout::resolve_threads(config.threads) <= 1;
    let previous_parent = std::sync::Mutex::new(None::<u64>);
    let outcomes: Vec<EdgeOutcome> =
        crate::fanout::try_parallel_map(config.threads, &edges, |&(parent_id, child_id)| {
            if sequential {
                let mut previous = previous_parent.lock().expect("eviction lock poisoned");
                match *previous {
                    Some(prev) if prev != parent_id => cache.evict_dataset(prev),
                    _ => {}
                }
                *previous = Some(parent_id);
            }
            check_edge(lake, parent_id, child_id, config, &cache, meter)
        })?;

    let mut stats = ClpStats::default();
    for (&(parent_id, child_id), outcome) in edges.iter().zip(outcomes) {
        stats.edges_examined += 1;
        stats.rows_sampled += outcome.rows_sampled;
        stats.edges_pruned_by_sketch += outcome.sketch_pruned as usize;
        if outcome.prune {
            graph.remove_edge(parent_id, child_id);
            stats.edges_pruned += 1;
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use r2d2_lake::{
        AccessProfile, Column, DataType, PartitionSpec, PartitionedTable, Schema, Table,
    };

    fn base_table(n: i64) -> Table {
        let schema = Schema::flat(&[
            ("user_id", DataType::Int),
            ("event", DataType::Utf8),
            ("value", DataType::Float),
        ])
        .unwrap();
        Table::new(
            schema,
            vec![
                Column::from_ints(0..n),
                Column::from_strs((0..n).map(|i| format!("e{}", i % 5))),
                Column::from_floats((0..n).map(|i| i as f64 * 0.25)),
            ],
        )
        .unwrap()
    }

    fn add(lake: &mut DataLake, name: &str, t: Table) -> u64 {
        lake.add_dataset(
            name,
            PartitionedTable::from_table(
                t,
                PartitionSpec::ByRowCount {
                    rows_per_partition: 16,
                },
            )
            .unwrap(),
            AccessProfile::default(),
            None,
        )
        .unwrap()
        .0
    }

    fn config() -> PipelineConfig {
        PipelineConfig::default().with_seed(17)
    }

    #[test]
    fn keeps_true_containment_edges() {
        let mut lake = DataLake::new();
        let parent_t = base_table(100);
        let child_t = parent_t.take(&(10..40).collect::<Vec<_>>()).unwrap();
        let p = add(&mut lake, "p", parent_t);
        let c = add(&mut lake, "c", child_t);
        let mut g = ContainmentGraph::new();
        g.add_edge(p, c);
        let stats = content_level_prune(&lake, &mut g, &config(), &Meter::new()).unwrap();
        assert_eq!(stats.edges_pruned, 0);
        assert!(g.has_edge(p, c));
    }

    #[test]
    fn prunes_disjoint_tables() {
        let mut lake = DataLake::new();
        let p = add(&mut lake, "p", base_table(50));
        // Child rows use ids 1000.. which never appear in the parent.
        let schema = base_table(1).schema().clone();
        let child_t = Table::new(
            schema,
            vec![
                Column::from_ints(1000..1020),
                Column::from_strs((0..20).map(|i| format!("e{}", i % 5))),
                Column::from_floats((0..20).map(|i| i as f64)),
            ],
        )
        .unwrap();
        let c = add(&mut lake, "c", child_t);
        let mut g = ContainmentGraph::new();
        g.add_edge(p, c);
        let stats = content_level_prune(&lake, &mut g, &config(), &Meter::new()).unwrap();
        assert_eq!(stats.edges_pruned, 1);
        assert!(!g.has_edge(p, c));
    }

    #[test]
    fn random_rows_strategy_also_works() {
        let mut lake = DataLake::new();
        let parent_t = base_table(60);
        let child_ok = parent_t.take(&(0..30).collect::<Vec<_>>()).unwrap();
        let p = add(&mut lake, "p", parent_t);
        let c = add(&mut lake, "c", child_ok);
        let mut g = ContainmentGraph::new();
        g.add_edge(p, c);
        let cfg = config().with_sampling(ClpSampling::RandomRows);
        let stats = content_level_prune(&lake, &mut g, &cfg, &Meter::new()).unwrap();
        assert_eq!(stats.edges_pruned, 0);
        assert!(stats.rows_sampled > 0);
    }

    #[test]
    fn both_sides_strategy_keeps_true_edges() {
        let mut lake = DataLake::new();
        let parent_t = base_table(80);
        let child_t = parent_t.take(&(0..40).collect::<Vec<_>>()).unwrap();
        let p = add(&mut lake, "p", parent_t);
        let c = add(&mut lake, "c", child_t);
        let mut g = ContainmentGraph::new();
        g.add_edge(p, c);
        let cfg = config().with_sampling(ClpSampling::BothSides);
        let stats = content_level_prune(&lake, &mut g, &cfg, &Meter::new()).unwrap();
        assert_eq!(stats.edges_pruned, 0);
        assert!(g.has_edge(p, c));
    }

    #[test]
    fn detects_modified_rows_with_enough_rounds() {
        // Child = parent rows but with the float column perturbed: no child
        // row exists verbatim in the parent, so any sample disproves
        // containment regardless of the filter drawn.
        let mut lake = DataLake::new();
        let parent_t = base_table(50);
        let schema = parent_t.schema().clone();
        let child_t = Table::new(
            schema,
            vec![
                Column::from_ints(0..50),
                Column::from_strs((0..50).map(|i| format!("e{}", i % 5))),
                Column::from_floats((0..50).map(|i| i as f64 * 0.25 + 1000.0)),
            ],
        )
        .unwrap();
        let p = add(&mut lake, "p", parent_t);
        let c = add(&mut lake, "c", child_t);
        let mut g = ContainmentGraph::new();
        g.add_edge(p, c);
        let stats = content_level_prune(&lake, &mut g, &config(), &Meter::new()).unwrap();
        assert_eq!(stats.edges_pruned, 1);
    }

    #[test]
    fn child_with_extra_columns_is_pruned() {
        let mut lake = DataLake::new();
        let p = add(&mut lake, "p", base_table(20));
        let child_t = base_table(10)
            .with_column(
                r2d2_lake::Field::new("extra", DataType::Int),
                Column::from_ints(0..10),
            )
            .unwrap();
        let c = add(&mut lake, "c", child_t);
        let mut g = ContainmentGraph::new();
        g.add_edge(p, c);
        let stats = content_level_prune(&lake, &mut g, &config(), &Meter::new()).unwrap();
        assert_eq!(stats.edges_pruned, 1);
    }

    #[test]
    fn empty_child_never_pruned() {
        let mut lake = DataLake::new();
        let p = add(&mut lake, "p", base_table(10));
        let c = add(&mut lake, "c", base_table(0));
        let mut g = ContainmentGraph::new();
        g.add_edge(p, c);
        let stats = content_level_prune(&lake, &mut g, &config(), &Meter::new()).unwrap();
        assert_eq!(stats.edges_pruned, 0);
        assert!(g.has_edge(p, c));
    }

    #[test]
    fn sorted_copy_is_recognised_as_contained() {
        // Row order does not matter for containment (§2's point against
        // block-level dedup).
        let mut lake = DataLake::new();
        let parent_t = base_table(40);
        let sorted_child = parent_t.sort_by("value").unwrap();
        let p = add(&mut lake, "p", parent_t);
        let c = add(&mut lake, "c", sorted_child);
        let mut g = ContainmentGraph::new();
        g.add_edge(p, c);
        g.add_edge(c, p);
        let stats = content_level_prune(&lake, &mut g, &config(), &Meter::new()).unwrap();
        assert_eq!(stats.edges_pruned, 0);
        assert!(g.has_edge(p, c) && g.has_edge(c, p));
    }

    #[test]
    fn duplicate_rows_in_child_do_not_prune_when_parent_has_them() {
        let mut lake = DataLake::new();
        let parent_t = base_table(20).concat(&base_table(20)).unwrap(); // every row twice
        let child_t = base_table(20);
        let p = add(&mut lake, "p", parent_t);
        let c = add(&mut lake, "c", child_t);
        let mut g = ContainmentGraph::new();
        g.add_edge(p, c);
        let stats = content_level_prune(&lake, &mut g, &config(), &Meter::new()).unwrap();
        assert_eq!(stats.edges_pruned, 0);
    }

    #[test]
    fn threaded_clp_matches_sequential() {
        // A mix of true, false and extra-column edges across shared parents,
        // under every sampling strategy.
        for sampling in [
            ClpSampling::PredicateFilter,
            ClpSampling::RandomRows,
            ClpSampling::BothSides,
        ] {
            let mut lake = DataLake::new();
            let parent_t = base_table(100);
            let p = add(&mut lake, "p", parent_t.clone());
            let c_ok = add(
                &mut lake,
                "c_ok",
                parent_t.take(&(5..45).collect::<Vec<_>>()).unwrap(),
            );
            let c_ok2 = add(
                &mut lake,
                "c_ok2",
                parent_t.take(&(50..90).collect::<Vec<_>>()).unwrap(),
            );
            let schema = parent_t.schema().clone();
            let c_bad = add(
                &mut lake,
                "c_bad",
                Table::new(
                    schema,
                    vec![
                        Column::from_ints(5000..5030),
                        Column::from_strs((0..30).map(|i| format!("e{}", i % 5))),
                        Column::from_floats((0..30).map(|i| i as f64)),
                    ],
                )
                .unwrap(),
            );
            let build = || {
                let mut g = ContainmentGraph::new();
                g.add_edge(p, c_ok);
                g.add_edge(p, c_ok2);
                g.add_edge(p, c_bad);
                g
            };

            let seq_meter = Meter::new();
            let mut seq_graph = build();
            let seq_cfg = config().with_sampling(sampling).with_threads(1);
            let seq = content_level_prune(&lake, &mut seq_graph, &seq_cfg, &seq_meter).unwrap();

            let par_meter = Meter::new();
            let mut par_graph = build();
            let par_cfg = config().with_sampling(sampling).with_threads(4);
            let par = content_level_prune(&lake, &mut par_graph, &par_cfg, &par_meter).unwrap();

            assert_eq!(seq_graph, par_graph, "{sampling:?}: graphs must match");
            assert_eq!(seq, par, "{sampling:?}: stats must match");
            assert_eq!(
                seq_meter.snapshot(),
                par_meter.snapshot(),
                "{sampling:?}: meter totals must match"
            );
            assert!(!par_graph.has_edge(p, c_bad));
            assert!(par_graph.has_edge(p, c_ok));
        }
    }

    #[test]
    fn bloom_gate_prunes_disjoint_edge_without_touching_parent_rows() {
        let mut lake = DataLake::new();
        let p = add(&mut lake, "p", base_table(50));
        let schema = base_table(1).schema().clone();
        let child_t = Table::new(
            schema,
            vec![
                Column::from_ints(9000..9020),
                Column::from_strs((0..20).map(|i| format!("zz{i}"))),
                Column::from_floats((0..20).map(|i| i as f64 + 0.125)),
            ],
        )
        .unwrap();
        let c = add(&mut lake, "c", child_t);
        let mut g = ContainmentGraph::new();
        g.add_edge(p, c);
        let meter = Meter::new();
        let stats = content_level_prune(&lake, &mut g, &config(), &meter).unwrap();
        assert_eq!(stats.edges_pruned, 1);
        assert_eq!(
            stats.edges_pruned_by_sketch, 1,
            "gate fires before the join"
        );
        let snap = meter.snapshot();
        assert!(snap.sketch_probes > 0);
        assert_eq!(snap.sketch_prunes, 1);
        assert_eq!(
            snap.rows_hashed, 0,
            "no parent multiset was built: the edge died at the sketch"
        );
    }

    /// A random lake mixing honest id-range subsets of `base_table` and
    /// impostors (same schema and keys, float column offset) — edges that
    /// pass schema and min/max pruning and must die at content level.
    fn impostor_lake(seed: u64) -> DataLake {
        use rand::Rng;
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0xA5A5_5A5A).wrapping_add(1));
        let mut lake = DataLake::new();
        add(&mut lake, "root", base_table(60));
        for k in 0..rng.gen_range(2usize..6) {
            let start = rng.gen_range(0i64..40);
            let ids = start..start + rng.gen_range(1i64..30);
            let offset = if rng.gen_bool(0.5) { 0.0 } else { 0.123 };
            let t = Table::new(
                base_table(1).schema().clone(),
                vec![
                    Column::from_ints(ids.clone()),
                    Column::from_strs(ids.clone().map(|i| format!("e{}", i % 5))),
                    Column::from_floats(ids.map(|i| i as f64 * 0.25 + offset)),
                ],
            )
            .unwrap();
            add(&mut lake, &format!("d{k}"), t);
        }
        lake
    }

    #[test]
    fn sketch_disproof_implies_a_non_empty_exact_anti_join() {
        // Why the gate cannot change the graph: whenever it fires, the exact
        // anti-join of the very same sample against the whole parent (a
        // superset of any filtered parent `BothSides` probes) finds a
        // missing row, so the exact check would have pruned too.
        let mut disproved = 0usize;
        for seed in 0..40u64 {
            let lake = impostor_lake(seed);
            let ids: Vec<u64> = lake.iter().map(|e| e.id.0).collect();
            for sampling in [
                ClpSampling::PredicateFilter,
                ClpSampling::RandomRows,
                ClpSampling::BothSides,
            ] {
                let cfg = config().with_sampling(sampling);
                for (&p, &c) in ids.iter().flat_map(|p| ids.iter().map(move |c| (p, c))) {
                    if p == c {
                        continue;
                    }
                    let parent = &lake.dataset(DatasetId(p)).unwrap().data;
                    let child = &lake.dataset(DatasetId(c)).unwrap().data;
                    let common = child
                        .schema()
                        .schema_set()
                        .intersection(&parent.schema().schema_set());
                    let join_cols: Vec<&str> = common.iter().map(String::as_str).collect();
                    let meter = Meter::new();
                    let mut rng = SmallRng::seed_from_u64(edge_seed(cfg.seed, p, c));
                    let (sample, _) = sample_child(child, &common, &cfg, &mut rng, &meter).unwrap();
                    if !sketch_disproves(parent, &sample, &common, &meter) {
                        continue;
                    }
                    disproved += 1;
                    let missing = left_anti_join(&sample, parent, &join_cols, &meter).unwrap();
                    assert!(
                        !missing.is_empty(),
                        "seed {seed}, {sampling:?}, edge {p} -> {c}: the sketch disproved a \
                         sample the exact anti-join finds fully present"
                    );
                }
            }
        }
        assert!(disproved > 0, "the lakes must exercise the gate");
    }

    #[test]
    fn edge_seed_streams_are_independent() {
        let a = edge_seed(1, 10, 20);
        let b = edge_seed(1, 10, 21);
        let c = edge_seed(1, 11, 20);
        let d = edge_seed(2, 10, 20);
        assert!(a != b && a != c && a != d && b != c);
        assert_eq!(a, edge_seed(1, 10, 20), "seed derivation is pure");
    }

    #[test]
    fn missing_dataset_is_error() {
        let lake = DataLake::new();
        let mut g = ContainmentGraph::new();
        g.add_edge(0, 1);
        assert!(content_level_prune(&lake, &mut g, &config(), &Meter::new()).is_err());
    }
}
