//! Corpus generation: whole synthetic data lakes with known containment.
//!
//! A [`Corpus`] is a [`DataLake`] plus the containment edges that are known
//! *by construction* (the transitive closure of the per-transformation
//! [`ContainmentEffect`]s) and the lineage records the optimizer needs. The
//! experiment harness additionally computes the brute-force ground truth on
//! the generated tables (which may contain a few extra "accidental"
//! containment edges); the constructed edges are a lower bound the pipeline
//! must always recover, which is what the recall tests assert.
//!
//! Three families of corpora mirror the paper's §6.1 datasets:
//!
//! * [`CorpusSpec::enterprise_like`] — several "customer org" profiles with
//!   nested clickstream/transaction schemas and different schema-similarity
//!   distributions (the contrast shown in Fig. 2);
//! * [`CorpusSpec::table_union_like`] — many small, flat, string-heavy
//!   open-data tables (the Table Union Benchmark stand-in);
//! * [`CorpusSpec::kaggle_like`] — fewer, wider, numeric tables (the Kaggle
//!   stand-in).

use crate::access::assign_power_law_profiles;
use crate::roots::{root_table, RootDomain};
use crate::transforms::{ContainmentEffect, Transform};
use r2d2_graph::ContainmentGraph;
use r2d2_lake::{AccessProfile, DataLake, Lineage, PartitionSpec, PartitionedTable, Result, Table};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// High-level shape of one customer org's data (controls the schema- and
/// containment-similarity profile of the generated corpus).
#[derive(Debug, Clone, PartialEq)]
pub struct OrgProfile {
    /// Number of root tables.
    pub roots: usize,
    /// Rows per root table.
    pub rows_per_root: usize,
    /// Derived datasets generated per root.
    pub derived_per_root: usize,
    /// Domains the roots are drawn from (round robin).
    pub domains: Vec<DomainTag>,
    /// Probability that a derived dataset is produced from the most recently
    /// derived dataset (building chains / line graphs) rather than from a
    /// uniformly random member of the root's family.
    pub chain_probability: f64,
    /// Probability that a derivation uses a containment-breaking transform
    /// (noise) rather than a containment-preserving one. Higher values give
    /// sparser true-containment graphs.
    pub breaking_probability: f64,
    /// When `true`, containment-breaking derivations use
    /// [`Transform::ResampleInRange`] — fresh float values strictly inside
    /// the source's ranges — instead of additive noise. Such "impostors"
    /// keep the source schema **and** pass min-max pruning, so only
    /// content-level checks can reject them: the adversarial profile the
    /// wide containment benchmark uses to stress CLP.
    pub in_range_noise: bool,
    /// Probability that a derivation uses a *hostile* transform (schema
    /// drift/rename, null flooding, unicode decoration, Int→Float type
    /// widening) instead of the preserving/breaking repertoire. Hostile
    /// derivations guarantee no containment edge; they exist to stress the
    /// ingest, storage and codec paths with realistic mess. `0.0` (the
    /// default of every non-hostile preset) disables them.
    pub hostile_probability: f64,
}

/// Serializable stand-in for [`RootDomain`] (which lives in `roots`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DomainTag {
    /// Flat commerce tables.
    Transactions,
    /// Nested clickstream tables.
    Clickstream,
    /// Wide numeric tables.
    KaggleNumeric,
    /// Categorical open-data tables.
    OpenData,
}

impl From<DomainTag> for RootDomain {
    fn from(tag: DomainTag) -> Self {
        match tag {
            DomainTag::Transactions => RootDomain::Transactions,
            DomainTag::Clickstream => RootDomain::Clickstream,
            DomainTag::KaggleNumeric => RootDomain::KaggleNumeric,
            DomainTag::OpenData => RootDomain::OpenData,
        }
    }
}

/// Full specification of a corpus to generate.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusSpec {
    /// Corpus name (used as a prefix for dataset names).
    pub name: String,
    /// Org profile controlling shape.
    pub profile: OrgProfile,
    /// Rows per storage partition when registering datasets in the lake.
    pub rows_per_partition: usize,
    /// Power-law exponent for access profiles.
    pub access_alpha: f64,
    /// Random seed.
    pub seed: u64,
}

impl CorpusSpec {
    /// An enterprise-like org. `variant` (0, 1, 2) tunes the schema- and
    /// containment-similarity profile so that different variants mimic the
    /// differences between Customer 1/2/3 in the paper (Customer 1 has many
    /// similar schemas and many containment candidates; Customers 2 and 3
    /// have sparser relationships).
    pub fn enterprise_like(variant: usize, scale: usize) -> Self {
        let (roots, derived, breaking, chain, domains) = match variant % 3 {
            // Customer-1-like: few domains, many derived tables, dense.
            0 => (
                4,
                10,
                0.25,
                0.35,
                vec![DomainTag::Transactions, DomainTag::Clickstream],
            ),
            // Customer-2-like: more domains, fewer derived tables, sparse.
            1 => (
                6,
                5,
                0.55,
                0.5,
                vec![
                    DomainTag::Transactions,
                    DomainTag::Clickstream,
                    DomainTag::OpenData,
                    DomainTag::KaggleNumeric,
                ],
            ),
            // Customer-3-like: sparse, numeric-heavy.
            _ => (
                5,
                6,
                0.5,
                0.6,
                vec![DomainTag::KaggleNumeric, DomainTag::Clickstream],
            ),
        };
        CorpusSpec {
            name: format!("enterprise_org{}", variant + 1),
            profile: OrgProfile {
                roots,
                rows_per_root: scale,
                derived_per_root: derived,
                domains,
                chain_probability: chain,
                in_range_noise: false,
                breaking_probability: breaking,
                hostile_probability: 0.0,
            },
            rows_per_partition: (scale / 8).max(32),
            access_alpha: 1.2,
            seed: 0xE17 + variant as u64,
        }
    }

    /// A Table-Union-Benchmark-like corpus: many small, flat, string-heavy
    /// tables (the paper's corpus has ~300 tables / 324 MB).
    pub fn table_union_like(roots: usize, rows_per_root: usize) -> Self {
        CorpusSpec {
            name: "table_union".to_string(),
            profile: OrgProfile {
                roots,
                rows_per_root,
                derived_per_root: 6,
                domains: vec![DomainTag::OpenData, DomainTag::Transactions],
                chain_probability: 0.3,
                in_range_noise: false,
                breaking_probability: 0.35,
                hostile_probability: 0.0,
            },
            rows_per_partition: (rows_per_root / 4).max(16),
            access_alpha: 1.1,
            seed: 0x7AB1E,
        }
    }

    /// A Kaggle-like corpus: fewer, wider numeric tables (the paper's corpus
    /// has ~140 tables / 24 GB).
    pub fn kaggle_like(roots: usize, rows_per_root: usize) -> Self {
        CorpusSpec {
            name: "kaggle".to_string(),
            profile: OrgProfile {
                roots,
                rows_per_root,
                derived_per_root: 8,
                domains: vec![DomainTag::KaggleNumeric],
                chain_probability: 0.4,
                in_range_noise: false,
                breaking_probability: 0.4,
                hostile_probability: 0.0,
            },
            rows_per_partition: (rows_per_root / 4).max(16),
            access_alpha: 1.3,
            seed: 0x4a66,
        }
    }

    /// A **wide** corpus: many small dataset families instead of more rows.
    ///
    /// `families` independent Kaggle-style roots (whose feature columns are
    /// family-tagged, so schema containment never crosses a family and the
    /// true schema graph stays sparse even at hundreds of datasets), each
    /// with a handful of derived datasets. Containment-breaking derivations
    /// use in-range float resampling, producing "impostors" that pass both
    /// schema and min-max pruning and are only rejected at content level —
    /// the workload where candidate generation being quadratic and every
    /// content check building a parent hash multiset actually hurt. Used by
    /// the shootout experiment and the benchmark's `wide_impostor` workload.
    pub fn wide(families: usize, rows_per_root: usize) -> Self {
        CorpusSpec {
            name: "wide".to_string(),
            profile: OrgProfile {
                roots: families,
                rows_per_root,
                derived_per_root: 4,
                domains: vec![DomainTag::KaggleNumeric],
                chain_probability: 0.15,
                in_range_noise: true,
                breaking_probability: 0.95,
                hostile_probability: 0.0,
            },
            rows_per_partition: (rows_per_root / 32).max(16),
            access_alpha: 1.2,
            seed: 0x31DE,
        }
    }

    /// A **hostile** corpus: all four domains with half of all derivations
    /// drawn from the hostile repertoire (schema drift/renames, null
    /// floods, unicode-heavy strings, Int→Float type widening), the mess
    /// profile of real open-data CSV corpora. Used by
    /// `tests/integration_ingest.rs` and the benchmark's `tiny_hostile`
    /// workload to prove the end-to-end CSV ingest path (emit → parse →
    /// session) reproduces batch graphs bit-identically on data that was
    /// not generated to pass. `roots = 8` yields 40 datasets.
    pub fn hostile(roots: usize, rows_per_root: usize) -> Self {
        CorpusSpec {
            name: "hostile".to_string(),
            profile: OrgProfile {
                roots,
                rows_per_root,
                derived_per_root: 4,
                domains: vec![
                    DomainTag::Transactions,
                    DomainTag::Clickstream,
                    DomainTag::KaggleNumeric,
                    DomainTag::OpenData,
                ],
                chain_probability: 0.3,
                in_range_noise: false,
                breaking_probability: 0.25,
                hostile_probability: 0.5,
            },
            rows_per_partition: (rows_per_root / 4).max(16),
            access_alpha: 1.2,
            seed: 0xBAD,
        }
    }

    /// Total number of datasets the spec will generate.
    pub fn dataset_count(&self) -> usize {
        self.profile.roots * (1 + self.profile.derived_per_root)
    }
}

/// A generated corpus: the lake plus construction-implied containment edges.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// The data lake with all datasets registered (lineage + access profiles
    /// populated).
    pub lake: DataLake,
    /// Containment edges implied by construction (transitively closed):
    /// an edge `p → c` means dataset `c` is contained in dataset `p`.
    pub expected: ContainmentGraph,
    /// Name of the corpus (copied from the spec).
    pub name: String,
}

impl Corpus {
    /// Number of datasets in the corpus.
    pub fn dataset_count(&self) -> usize {
        self.lake.len()
    }
}

/// Transitively close a set of implied containment edges.
fn transitive_closure(graph: &ContainmentGraph) -> ContainmentGraph {
    let mut closed = graph.clone();
    // Repeated relaxation; graphs here are small (hundreds of nodes).
    loop {
        let mut added = false;
        for (p, c) in closed.edges() {
            for gc in closed.children(c) {
                if gc != p && !closed.has_edge(p, gc) {
                    closed.add_edge(p, gc);
                    added = true;
                }
            }
        }
        if !added {
            break;
        }
    }
    closed
}

/// Generate a corpus from a spec.
pub fn generate(spec: &CorpusSpec) -> Result<Corpus> {
    let mut rng = SmallRng::seed_from_u64(spec.seed);
    let mut lake = DataLake::new();
    let mut expected = ContainmentGraph::new();

    // The containment-preserving transform repertoire and the breaking one.
    let preserving = [
        Transform::SampleWhere { zipf_exponent: 1.1 },
        Transform::SampleFraction { fraction: 0.4 },
        Transform::SampleFraction { fraction: 0.7 },
        Transform::AddRows {
            count: spec.profile.rows_per_root / 4 + 1,
        },
        Transform::AddDerivedColumn,
        Transform::SortByColumn,
        Transform::DropColumns { count: 1 },
    ];
    // The hostile repertoire: no containment guarantees, maximum mess.
    let hostile = [
        Transform::RenameColumn,
        Transform::NullFlood { fraction: 0.3 },
        Transform::UnicodeDecorate,
        Transform::WidenIntToFloat,
    ];
    let breaking: &[Transform] = if spec.profile.in_range_noise {
        // Impostors: same schema, nested ranges, disjoint content — only
        // content-level checks can reject them.
        &[Transform::ResampleInRange]
    } else {
        &[
            Transform::AddNoise { magnitude: 100.0 },
            Transform::AddNoise { magnitude: 10.0 },
        ]
    };

    for root_idx in 0..spec.profile.roots {
        let domain: RootDomain = spec.profile.domains[root_idx % spec.profile.domains.len()].into();
        let table_tag = (spec.seed % 1000) * 1000 + root_idx as u64;
        let root = root_table(domain, spec.profile.rows_per_root, table_tag, &mut rng);
        let root_id = lake
            .add_dataset(
                format!("{}/root{}", spec.name, root_idx),
                partition(root.clone(), spec.rows_per_partition)?,
                AccessProfile::default(),
                None,
            )?
            .0;
        expected.add_dataset(root_id);

        // Family of (dataset id, table) pairs derived from this root.
        let mut family: Vec<(u64, Table)> = vec![(root_id, root)];

        for d in 0..spec.profile.derived_per_root {
            // Choose the source: chain from the last derived table or pick a
            // random family member.
            let src_idx = if rng.gen_bool(spec.profile.chain_probability) {
                family.len() - 1
            } else {
                rng.gen_range(0..family.len())
            };
            let (src_id, src_table) = family[src_idx].clone();

            // Choose the transform: hostile first (when enabled), then the
            // breaking-vs-preserving coin.
            let use_hostile = spec.profile.hostile_probability > 0.0
                && rng.gen_bool(spec.profile.hostile_probability);
            let use_breaking = rng.gen_bool(spec.profile.breaking_probability);
            let pool: &[Transform] = if use_hostile {
                &hostile
            } else if use_breaking {
                breaking
            } else {
                &preserving
            };
            let mut outcome = None;
            for attempt in 0..pool.len() {
                let t = &pool[(rng.gen_range(0..pool.len()) + attempt) % pool.len()];
                if let Ok(o) = t.apply(&src_table, &mut rng) {
                    if !o.table.is_empty() {
                        outcome = Some(o);
                        break;
                    }
                }
            }
            let outcome = match outcome {
                Some(o) => o,
                // Every transform failed (tiny source): fall back to a copy.
                None => crate::transforms::TransformOutcome {
                    table: src_table.clone(),
                    description: "COPY".to_string(),
                    effect: ContainmentEffect::Equivalent,
                },
            };

            let derived_id = lake
                .add_dataset(
                    format!("{}/root{}_derived{}", spec.name, root_idx, d),
                    partition(outcome.table.clone(), spec.rows_per_partition)?,
                    AccessProfile::default(),
                    Some(Lineage {
                        parent: r2d2_lake::DatasetId(src_id),
                        transform: outcome.description.clone(),
                    }),
                )?
                .0;
            expected.add_dataset(derived_id);

            match outcome.effect {
                ContainmentEffect::DerivedInSource => {
                    expected.add_edge(src_id, derived_id);
                }
                ContainmentEffect::SourceInDerived => {
                    expected.add_edge(derived_id, src_id);
                }
                ContainmentEffect::Equivalent => {
                    expected.add_edge(src_id, derived_id);
                    expected.add_edge(derived_id, src_id);
                }
                ContainmentEffect::None => {}
            }
            family.push((derived_id, outcome.table));
        }
    }

    assign_power_law_profiles(&mut lake, spec.access_alpha, &mut rng);
    let expected = transitive_closure(&expected);
    Ok(Corpus {
        lake,
        expected,
        name: spec.name.clone(),
    })
}

fn partition(table: Table, rows_per_partition: usize) -> Result<PartitionedTable> {
    PartitionedTable::from_table(
        table,
        PartitionSpec::ByRowCount {
            rows_per_partition: rows_per_partition.max(1),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use r2d2_lake::query::containment_check;
    use r2d2_lake::{DatasetId, Meter};

    fn tiny_spec() -> CorpusSpec {
        CorpusSpec {
            name: "tiny".to_string(),
            profile: OrgProfile {
                roots: 2,
                rows_per_root: 60,
                derived_per_root: 4,
                domains: vec![DomainTag::Transactions, DomainTag::Clickstream],
                chain_probability: 0.4,
                in_range_noise: false,
                breaking_probability: 0.3,
                hostile_probability: 0.0,
            },
            rows_per_partition: 16,
            access_alpha: 1.2,
            seed: 99,
        }
    }

    #[test]
    fn generates_expected_number_of_datasets() {
        let spec = tiny_spec();
        let corpus = generate(&spec).unwrap();
        assert_eq!(corpus.dataset_count(), spec.dataset_count());
        assert_eq!(corpus.dataset_count(), 10);
        assert_eq!(corpus.name, "tiny");
    }

    #[test]
    fn expected_edges_are_true_containments() {
        let corpus = generate(&tiny_spec()).unwrap();
        for (parent, child) in corpus.expected.edges() {
            let p = corpus.lake.dataset(DatasetId(parent)).unwrap();
            let c = corpus.lake.dataset(DatasetId(child)).unwrap();
            // Schema containment must hold...
            assert!(
                c.data
                    .schema()
                    .schema_set()
                    .is_contained_in(&p.data.schema().schema_set()),
                "schema of {child} not contained in {parent}"
            );
            // ...and exact content containment must hold.
            let chk = containment_check(&c.data, &p.data, &Meter::new()).unwrap();
            assert!(
                chk.is_exact(),
                "expected edge {parent} → {child} is not a true containment ({})",
                chk.fraction()
            );
        }
    }

    #[test]
    fn lineage_recorded_for_derived_datasets() {
        let corpus = generate(&tiny_spec()).unwrap();
        let with_lineage = corpus.lake.iter().filter(|e| e.lineage.is_some()).count();
        assert_eq!(with_lineage, 8, "every derived dataset has lineage");
        for e in corpus.lake.iter() {
            if let Some(l) = &e.lineage {
                assert!(corpus.lake.contains(l.parent));
                assert!(!l.transform.is_empty());
            }
        }
    }

    #[test]
    fn access_profiles_assigned() {
        let corpus = generate(&tiny_spec()).unwrap();
        assert!(corpus
            .lake
            .iter()
            .all(|e| e.access.accesses_per_period > 0.0));
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&tiny_spec()).unwrap();
        let b = generate(&tiny_spec()).unwrap();
        assert_eq!(a.expected.edges(), b.expected.edges());
        assert_eq!(a.lake.total_rows(), b.lake.total_rows());
    }

    #[test]
    fn different_seeds_differ() {
        let mut spec2 = tiny_spec();
        spec2.seed = 100;
        let a = generate(&tiny_spec()).unwrap();
        let b = generate(&spec2).unwrap();
        assert!(
            a.lake.total_rows() != b.lake.total_rows() || a.expected.edges() != b.expected.edges()
        );
    }

    #[test]
    fn presets_have_sensible_shapes() {
        let e0 = CorpusSpec::enterprise_like(0, 128);
        let e1 = CorpusSpec::enterprise_like(1, 128);
        assert_ne!(e0.name, e1.name);
        assert!(e0.dataset_count() > 0);
        let tu = CorpusSpec::table_union_like(10, 64);
        assert_eq!(tu.profile.roots, 10);
        let kg = CorpusSpec::kaggle_like(5, 64);
        assert_eq!(kg.profile.domains, vec![DomainTag::KaggleNumeric]);
    }

    #[test]
    fn wide_corpus_is_wide_and_family_local() {
        let spec = CorpusSpec::wide(24, 48);
        assert!(spec.dataset_count() >= 96, "many datasets, not many rows");
        let corpus = generate(&spec).unwrap();
        assert_eq!(corpus.dataset_count(), spec.dataset_count());
        // Expected (true) edges never cross a family: family-tagged feature
        // columns make cross-family schema containment impossible.
        let family_of = |id: u64| {
            let name = &corpus.lake.dataset(DatasetId(id)).unwrap().name;
            name.split("/root")
                .nth(1)
                .unwrap()
                .split('_')
                .next()
                .unwrap()
                .to_string()
        };
        for (p, c) in corpus.expected.edges() {
            assert_eq!(family_of(p), family_of(c), "edge {p}->{c} crosses families");
        }
        // The adversarial profile produces plenty of impostors: datasets
        // derived via in-range resampling, recorded in lineage.
        let impostors = corpus
            .lake
            .iter()
            .filter(|e| {
                e.lineage
                    .as_ref()
                    .is_some_and(|l| l.transform.starts_with("RESAMPLE"))
            })
            .count();
        assert!(impostors > 24, "expected many impostors, got {impostors}");
    }

    #[test]
    fn hostile_corpus_mixes_all_four_hostile_transforms() {
        let spec = CorpusSpec::hostile(8, 48);
        assert!(spec.dataset_count() >= 40);
        let corpus = generate(&spec).unwrap();
        assert_eq!(corpus.dataset_count(), spec.dataset_count());
        let lineages: Vec<String> = corpus
            .lake
            .iter()
            .filter_map(|e| e.lineage.as_ref().map(|l| l.transform.clone()))
            .collect();
        for marker in ["RENAME COLUMN", "NULL-FLOOD", "UNICODE-DECORATE", "WIDEN"] {
            assert!(
                lineages.iter().any(|l| l.starts_with(marker)),
                "no {marker} derivation in the hostile corpus"
            );
        }
        // Hostile generation is deterministic like every other preset.
        let again = generate(&spec).unwrap();
        assert_eq!(corpus.expected.edges(), again.expected.edges());
        assert_eq!(corpus.lake.total_rows(), again.lake.total_rows());
    }

    #[test]
    fn enterprise_variants_have_different_densities() {
        // The density gap is a property of the variant *parameters*
        // (breaking probability 0.25 vs 0.55), not of any one seed, so
        // compare mean densities over several seeds to keep the assertion
        // robust to the RNG stream.
        let mean_ratio = |variant: usize| {
            let ratios: Vec<f64> = (0..5u64)
                .map(|extra| {
                    let mut spec = CorpusSpec::enterprise_like(variant, 80);
                    spec.seed += extra * 101;
                    let c = generate(&spec).unwrap();
                    c.expected.edge_count() as f64 / c.dataset_count() as f64
                })
                .collect();
            ratios.iter().sum::<f64>() / ratios.len() as f64
        };
        let dense_ratio = mean_ratio(0);
        let sparse_ratio = mean_ratio(1);
        assert!(
            dense_ratio > sparse_ratio,
            "variant 0 should be denser ({dense_ratio:.2} vs {sparse_ratio:.2})"
        );
    }
}
