//! Dynamic graph maintenance (§7.1 of the paper): verification plans.
//!
//! Enterprise data lakes change: datasets are added, rows are appended or
//! removed, datasets are dropped. §7.1 observes that each update only needs
//! work **linear in the number of datasets**: only pairs involving a changed
//! dataset can change validity, while every other edge keeps its state.
//!
//! This module is the private machinery behind [`crate::session::R2d2Session`].
//! A batch of applied updates is first coalesced into one [`Effect`] per
//! dataset (N appends to one table cause one re-verification sweep, not N),
//! then turned into a sorted candidate-pair list by [`plan_pairs`], and
//! finally verified by [`verify_pairs`] — schema containment on the
//! session's interned schema sets, then the MMP metadata check, then the CLP
//! sampling check through the session's shared [`HashJoinCache`] — fanned
//! out over `config.threads` workers with the same bit-identical-at-any-
//! thread-count guarantee as the batch pipeline (pure per-pair work, RNG
//! streams seeded per edge, results merged in input order).
//!
//! ## Which pairs must be re-verified
//!
//! Every pipeline check of a pair `(parent, child)` — schema, MMP, CLP
//! sampling — is a pure function of the two datasets' current content, the
//! config, and the pair's own RNG stream. A pair therefore needs
//! re-verification exactly when either endpoint's content changed, with two
//! provable exceptions that survive *any* sample draw:
//!
//! * a **grown** parent keeps every existing outgoing edge (its row multiset
//!   only gained rows, so an anti-join that found nothing missing still
//!   finds nothing missing, and its min/max ranges only widened);
//! * a **shrunk** parent gains no new outgoing edge (its row multiset only
//!   lost rows, so an anti-join that disproved containment still does).
//!
//! Everything else — all incoming pairs of a changed dataset, absent
//! outgoing pairs of a grown one, existing outgoing edges of a shrunk one,
//! and both directions for added or mixed-change datasets — is re-verified.
//! This is what makes the session graph *bit-identical* to a fresh batch
//! run over the mutated lake (the oracle pinned by
//! `tests/integration_dynamic.rs`), not merely equal on true edges.

use crate::clp;
use crate::config::PipelineConfig;
use crate::mmp;
use r2d2_graph::ContainmentGraph;
use r2d2_lake::{DataLake, DatasetId, HashJoinCache, InternedSchemaSet, Meter, Result};
use std::collections::{BTreeMap, BTreeSet};

/// Coalesced content effect of a batch of updates on one dataset.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Effect {
    /// The dataset was created by this batch.
    pub added: bool,
    /// The dataset's row multiset gained rows.
    pub grew: bool,
    /// The dataset's row multiset lost rows.
    pub shrank: bool,
    /// The dataset was removed from the lake by this batch.
    pub dropped: bool,
}

impl Effect {
    pub(crate) const ADDED: Effect = Effect {
        added: true,
        grew: false,
        shrank: false,
        dropped: false,
    };
    pub(crate) const GREW: Effect = Effect {
        added: false,
        grew: true,
        shrank: false,
        dropped: false,
    };
    pub(crate) const SHRANK: Effect = Effect {
        added: false,
        grew: false,
        shrank: true,
        dropped: false,
    };
    pub(crate) const DROPPED: Effect = Effect {
        added: false,
        grew: false,
        shrank: false,
        dropped: true,
    };

    /// Merge a later effect into this one. Dropping is terminal (the
    /// catalog refuses further updates to the id), so it wins outright.
    pub(crate) fn merge(&mut self, later: Effect) {
        if later.dropped {
            *self = Effect::DROPPED;
        } else {
            self.added |= later.added;
            self.grew |= later.grew;
            self.shrank |= later.shrank;
        }
    }

    /// Whether both directions of every pair involving the dataset must be
    /// re-verified (new dataset, or mixed growth and shrinkage).
    fn full_recheck(self) -> bool {
        self.added || (self.grew && self.shrank)
    }
}

/// Build the sorted candidate-pair list for one verification sweep.
///
/// `graph` must still hold the pre-sweep edges (drop-clearing aside): the
/// grown/shrunk exceptions are keyed off which outgoing edges currently
/// exist. Pairs are deduplicated across affected datasets; pairs whose
/// partner was dropped never appear because partners are drawn from the
/// post-mutation catalog.
pub(crate) fn plan_pairs(
    lake: &DataLake,
    graph: &ContainmentGraph,
    effects: &BTreeMap<u64, Effect>,
) -> Vec<(u64, u64)> {
    let live: Vec<u64> = lake.ids().iter().map(|d| d.0).collect();
    let mut pairs: BTreeSet<(u64, u64)> = BTreeSet::new();
    for (&d, &e) in effects {
        if e.dropped || !lake.contains(DatasetId(d)) {
            continue;
        }
        for &o in &live {
            if o == d {
                continue;
            }
            // Incoming (o → d): d's content is the child side of the check,
            // so any content change invalidates the previous outcome.
            pairs.insert((o, d));
            // Outgoing (d → o): apply the grown/shrunk parent exceptions.
            let existing = graph.has_edge(d, o);
            let recheck = if e.full_recheck() {
                true
            } else if e.grew {
                !existing
            } else if e.shrank {
                existing
            } else {
                false
            };
            if recheck {
                pairs.insert((d, o));
            }
        }
    }
    pairs.into_iter().collect()
}

/// Outcome of verifying one candidate pair.
#[derive(Debug, Clone, Copy)]
pub(crate) struct VerifyOutcome {
    /// Whether the pair survives all three checks (schema, MMP, CLP).
    pub pass: bool,
    /// Child rows sampled by the CLP check.
    pub rows_sampled: usize,
}

/// Verify candidate pairs on up to `config.threads` workers, returning
/// outcomes aligned with `pairs`. Each pair runs the same checks the batch
/// pipeline would: interned schema containment, the MMP metadata check, and
/// the CLP sampling check through the shared `cache`.
pub(crate) fn verify_pairs(
    lake: &DataLake,
    pairs: &[(u64, u64)],
    schemas: &BTreeMap<u64, InternedSchemaSet>,
    config: &PipelineConfig,
    cache: &HashJoinCache,
    meter: &Meter,
) -> Result<Vec<VerifyOutcome>> {
    crate::fanout::try_parallel_map(config.threads, pairs, |&(parent, child)| {
        verify_pair(lake, parent, child, schemas, config, cache, meter)
    })
}

/// Run the schema → MMP → CLP check cascade on one `parent → child` pair.
fn verify_pair(
    lake: &DataLake,
    parent: u64,
    child: u64,
    schemas: &BTreeMap<u64, InternedSchemaSet>,
    config: &PipelineConfig,
    cache: &HashJoinCache,
    meter: &Meter,
) -> Result<VerifyOutcome> {
    let missing = |id: u64| {
        r2d2_lake::LakeError::DatasetNotFound(format!("no interned schema for dataset ds{id}"))
    };
    let p = schemas.get(&parent).ok_or_else(|| missing(parent))?;
    let c = schemas.get(&child).ok_or_else(|| missing(child))?;
    meter.add_schema_comparisons(1);
    if !c.is_contained_in(p) {
        return Ok(VerifyOutcome {
            pass: false,
            rows_sampled: 0,
        });
    }
    if !mmp::edge_passes(
        lake,
        parent,
        child,
        mmp::MmpOptions::from_config(config),
        meter,
    )? {
        return Ok(VerifyOutcome {
            pass: false,
            rows_sampled: 0,
        });
    }
    let (pass, rows_sampled) = clp::edge_passes(lake, parent, child, config, cache, meter)?;
    Ok(VerifyOutcome { pass, rows_sampled })
}

#[cfg(test)]
mod tests {
    use super::*;
    use r2d2_lake::{
        AccessProfile, Column, DataType, PartitionedTable, Schema, SchemaInterner, Table,
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

    fn lake3() -> (DataLake, u64, u64, u64) {
        let mut lake = DataLake::new();
        let add = |lake: &mut DataLake, name: &str, t: Table| {
            lake.add_dataset(
                name,
                PartitionedTable::single(t),
                AccessProfile::default(),
                None,
            )
            .unwrap()
            .0
        };
        let a = add(&mut lake, "a", table(0..50));
        let b = add(&mut lake, "b", table(10..30));
        let c = add(&mut lake, "c", table(100..120));
        (lake, a, b, c)
    }

    fn interned(lake: &DataLake) -> BTreeMap<u64, InternedSchemaSet> {
        let mut interner = SchemaInterner::new();
        lake.iter()
            .map(|e| (e.id.0, interner.intern_set(&e.data.schema().schema_set())))
            .collect()
    }

    #[test]
    fn effect_merge_coalesces_and_drop_wins() {
        let mut e = Effect::GREW;
        e.merge(Effect::GREW);
        assert_eq!(e, Effect::GREW);
        e.merge(Effect::SHRANK);
        assert!(e.grew && e.shrank && e.full_recheck());
        let mut a = Effect::ADDED;
        a.merge(Effect::GREW);
        assert!(a.added && a.full_recheck());
        a.merge(Effect::DROPPED);
        assert_eq!(a, Effect::DROPPED);
    }

    #[test]
    fn grown_dataset_skips_existing_outgoing_edges_only() {
        let (lake, a, b, c) = lake3();
        let mut graph = ContainmentGraph::new();
        for d in [a, b, c] {
            graph.add_dataset(d);
        }
        graph.add_edge(a, b); // a currently contains b
        let mut effects = BTreeMap::new();
        effects.insert(a, Effect::GREW);
        let pairs = plan_pairs(&lake, &graph, &effects);
        // Incoming pairs of a are all re-checked; the existing outgoing
        // (a, b) is provably still valid; the absent outgoing (a, c) is not.
        assert!(pairs.contains(&(b, a)) && pairs.contains(&(c, a)));
        assert!(pairs.contains(&(a, c)));
        assert!(!pairs.contains(&(a, b)));
    }

    #[test]
    fn shrunk_dataset_skips_absent_outgoing_pairs_only() {
        let (lake, a, b, c) = lake3();
        let mut graph = ContainmentGraph::new();
        for d in [a, b, c] {
            graph.add_dataset(d);
        }
        graph.add_edge(a, b);
        let mut effects = BTreeMap::new();
        effects.insert(a, Effect::SHRANK);
        let pairs = plan_pairs(&lake, &graph, &effects);
        assert!(pairs.contains(&(b, a)) && pairs.contains(&(c, a)));
        assert!(pairs.contains(&(a, b)), "existing outgoing is re-checked");
        assert!(!pairs.contains(&(a, c)), "absent outgoing stays absent");
    }

    #[test]
    fn added_dataset_rechecks_both_directions_and_dropped_none() {
        let (lake, a, b, c) = lake3();
        let graph = ContainmentGraph::with_datasets([a, b, c]);
        let mut effects = BTreeMap::new();
        effects.insert(c, Effect::ADDED);
        let pairs = plan_pairs(&lake, &graph, &effects);
        assert_eq!(
            pairs,
            vec![(a, c), (b, c), (c, a), (c, b)],
            "sorted, both directions, no self pairs"
        );

        let mut dropped = BTreeMap::new();
        dropped.insert(a, Effect::DROPPED);
        assert!(plan_pairs(&lake, &graph, &dropped).is_empty());
    }

    #[test]
    fn pairs_are_deduplicated_across_affected_datasets() {
        let (lake, a, b, c) = lake3();
        let graph = ContainmentGraph::with_datasets([a, b, c]);
        let mut effects = BTreeMap::new();
        effects.insert(a, Effect::ADDED);
        effects.insert(b, Effect::ADDED);
        let pairs = plan_pairs(&lake, &graph, &effects);
        let unique: BTreeSet<_> = pairs.iter().copied().collect();
        assert_eq!(unique.len(), pairs.len());
        assert!(pairs.contains(&(a, b)) && pairs.contains(&(b, a)));
    }

    #[test]
    fn verify_pairs_matches_the_batch_checks() {
        let (lake, a, b, c) = lake3();
        let schemas = interned(&lake);
        let config = PipelineConfig::default();
        let cache = HashJoinCache::new();
        let meter = Meter::new();
        let pairs = vec![(a, b), (b, a), (a, c)];
        let outcomes = verify_pairs(&lake, &pairs, &schemas, &config, &cache, &meter).unwrap();
        assert!(outcomes[0].pass, "b ⊂ a must verify");
        assert!(!outcomes[1].pass, "a ⊄ b");
        assert!(!outcomes[2].pass, "disjoint ranges fail MMP");
        assert!(outcomes[0].rows_sampled > 0);
        assert_eq!(meter.snapshot().schema_comparisons, 3);
    }

    #[test]
    fn verify_pairs_is_identical_across_thread_counts() {
        let (lake, a, b, c) = lake3();
        let schemas = interned(&lake);
        let pairs = vec![(a, b), (a, c), (b, a), (b, c), (c, a), (c, b)];
        let run = |threads: usize| {
            let config = PipelineConfig::default().with_threads(threads);
            let cache = HashJoinCache::new();
            let meter = Meter::new();
            let outcomes = verify_pairs(&lake, &pairs, &schemas, &config, &cache, &meter).unwrap();
            let passes: Vec<bool> = outcomes.iter().map(|o| o.pass).collect();
            let sampled: Vec<usize> = outcomes.iter().map(|o| o.rows_sampled).collect();
            (passes, sampled, meter.snapshot())
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn verify_pair_without_interned_schema_errors() {
        let (lake, a, ..) = lake3();
        let schemas = BTreeMap::new();
        let err = verify_pairs(
            &lake,
            &[(a, a + 1)],
            &schemas,
            &PipelineConfig::default(),
            &HashJoinCache::new(),
            &Meter::new(),
        )
        .unwrap_err();
        assert!(matches!(err, r2d2_lake::LakeError::DatasetNotFound(_)));
    }
}
