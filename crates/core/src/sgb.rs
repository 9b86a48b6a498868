//! SGB — Schema Graph Builder (Algorithm 1 of the paper).
//!
//! The goal of this stage is a schema containment graph with **no missing
//! edges** (Theorem 4.1): an edge `B → A` is added whenever
//! `A.schema ⊆ B.schema`, possibly along with extra edges that later stages
//! prune. Instead of the `O(N²)` all-pairs comparison, SGB:
//!
//! 1. sorts schema sets by non-increasing cardinality,
//! 2. sweeps the sorted list, maintaining a set of *cluster centers*: a
//!    schema contained in no existing center becomes a new center, otherwise
//!    it joins (as a member) every cluster whose center contains it,
//! 3. finally adds an edge `B → A` for every pair with `A.schema ⊆ B.schema`.
//!
//! Both the center sweep (step 2) and the edge generation (step 3) are
//! **candidate-driven** rather than pairwise: a parent of schema `A` must
//! contain *every* column of `A`, so it suffices to probe an inverted
//! `column → schemas` index with `A`'s rarest column (the length-1 prefix
//! of the frequency-ordered column list) and verify only the schemas on
//! that posting list. Posting lists are kept in non-increasing-cardinality
//! order, so the scan stops at the first candidate smaller than `A`. This
//! makes candidate generation *output-sensitive*: disjoint or weakly
//! overlapping corpora do `O(N)` total verifications instead of the
//! `O(K(N−K)) + Σ cluster²` pairwise checks of the previous
//! implementation, while dense clusters still verify exactly the schemas
//! that can possibly contain `A`. Completeness is unchanged (Theorem 4.1):
//! any true parent shares the child's rarest column, so it is always on the
//! probed posting list — the proptest oracle below keeps pinning SGB
//! against the brute-force graph.

use crate::fanout::parallel_map;
use r2d2_graph::ContainmentGraph;
use r2d2_lake::{InternedSchemaSet, Meter, SchemaInterner, SchemaSet};
use std::collections::HashMap;
use std::hash::Hash;

/// One schema cluster produced by SGB: a center plus its members
/// (the center itself is also a member, as in the paper).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaCluster {
    /// Dataset id of the cluster center (the largest schema in the cluster).
    pub center: u64,
    /// Dataset ids of all cluster members, including the center.
    pub members: Vec<u64>,
}

/// Output of the SGB stage.
#[derive(Debug, Clone, PartialEq)]
pub struct SgbResult {
    /// The schema containment graph (parent → child edges).
    pub graph: ContainmentGraph,
    /// The overlapping clusters built during the sweep.
    pub clusters: Vec<SchemaCluster>,
    /// Number of schema-pair containment checks performed (center-candidate
    /// verifications during the sweep plus edge-candidate verifications from
    /// the inverted column index) — the SGB row of Table 3.
    pub schema_comparisons: u64,
}

impl SgbResult {
    /// Number of clusters (`K` in the complexity analysis).
    pub fn cluster_count(&self) -> usize {
        self.clusters.len()
    }
}

/// A set that supports the operations SGB needs: cardinality, subset
/// testing and element enumeration (for the inverted column index).
/// Implemented by the interned representation the stage runs on and, in
/// this module's tests, by the string representation it is checked against,
/// so both share one algorithm and must produce identical graphs and
/// comparison counts.
trait ContainmentSet: Sync {
    /// The element (column) representation the inverted index is keyed by.
    type Elem: Hash + Eq + Sync;

    fn card(&self) -> usize;
    fn subset_of(&self, other: &Self) -> bool;
    fn elements(&self) -> Vec<Self::Elem>;
}

impl ContainmentSet for InternedSchemaSet {
    type Elem = u32;

    fn card(&self) -> usize {
        self.len()
    }

    fn subset_of(&self, other: &Self) -> bool {
        self.is_contained_in(other)
    }

    fn elements(&self) -> Vec<u32> {
        self.ids().to_vec()
    }
}

/// The shortest posting list among `elems`' postings — the best (rarest)
/// candidate prefix for a subset probe. Ties are broken by comparing the
/// lists themselves (they hold dataset *indices*, so the choice — and hence
/// the comparison count — is identical for the string and interned
/// representations). Returns `None` when some element has no postings at
/// all, which proves no indexed set can be a superset.
fn rarest_postings<'a, E: Hash + Eq>(
    postings: &'a HashMap<&E, Vec<usize>>,
    elems: &[E],
) -> Option<&'a [usize]> {
    let mut best: Option<&[usize]> = None;
    for e in elems {
        let list = postings.get(e)?.as_slice();
        best = Some(match best {
            Some(b) if (list.len(), list) >= (b.len(), b) => b,
            _ => list,
        });
    }
    best
}

/// The SGB algorithm over any [`ContainmentSet`] representation.
///
/// `ids[i]` and `sets[i]` describe dataset `i`. Step 6 (edge-candidate
/// verification, the dominant cost) fans out over children on up to
/// `threads` workers; per-child edge lists are merged back in child order,
/// so the resulting graph and comparison count are identical for every
/// thread count.
fn sgb_core<S: ContainmentSet>(ids: &[u64], sets: &[S], threads: usize) -> SgbResult {
    // Step 2: sort by non-increasing schema-set cardinality. Ties are broken
    // by dataset id for determinism.
    let mut order: Vec<usize> = (0..ids.len()).collect();
    order.sort_by(|&a, &b| {
        sets[b]
            .card()
            .cmp(&sets[a].card())
            .then(ids[a].cmp(&ids[b]))
    });

    let mut graph = ContainmentGraph::new();
    for &id in ids {
        graph.add_dataset(id);
    }

    let elements: Vec<Vec<S::Elem>> = sets.iter().map(ContainmentSet::elements).collect();

    // Steps 3–5: sweep in cardinality order, maintaining clusters. A schema
    // is contained in a center only if the center holds *all* of its
    // columns, so candidate centers come from an incrementally maintained
    // inverted `column → centers` index (probed with the schema's rarest
    // column) instead of scanning every cluster — only the candidates are
    // verified and counted.
    struct Cluster {
        center: usize,
        members: Vec<usize>,
    }
    let mut clusters: Vec<Cluster> = Vec::new();
    let mut comparisons: u64 = 0;
    let mut center_postings: HashMap<&S::Elem, Vec<usize>> = HashMap::new();

    for &si in &order {
        let mut contained_in_some_center = false;
        if elements[si].is_empty() {
            // The empty schema is contained in every center.
            contained_in_some_center = !clusters.is_empty();
            for cluster in clusters.iter_mut() {
                cluster.members.push(si);
            }
        } else if let Some(candidates) = rarest_postings(&center_postings, &elements[si]) {
            // Candidates are cluster indices in creation order; membership
            // pushes happen in sweep order either way, so the resulting
            // clusters are identical to the exhaustive scan's.
            let candidates: Vec<usize> = candidates.to_vec();
            for ci in candidates {
                comparisons += 1;
                if sets[si].subset_of(&sets[clusters[ci].center]) {
                    clusters[ci].members.push(si);
                    contained_in_some_center = true;
                }
            }
        }
        if !contained_in_some_center {
            let ci = clusters.len();
            clusters.push(Cluster {
                center: si,
                members: vec![si],
            });
            for e in &elements[si] {
                center_postings.entry(e).or_default().push(ci);
            }
        }
    }
    drop(center_postings);

    // Step 6: emit an edge for every containment-ordered pair. Candidate
    // parents of a schema come from a global inverted `column → datasets`
    // index whose posting lists are kept in non-increasing-cardinality
    // order: probe with the child's rarest column and stop at the first
    // candidate smaller than the child. Children are independent, so the
    // verifications fan out per child and merge back in child order —
    // identical graphs and comparison counts at every thread count.
    let mut postings: HashMap<&S::Elem, Vec<usize>> = HashMap::new();
    for &si in &order {
        for e in &elements[si] {
            postings.entry(e).or_default().push(si);
        }
    }
    let children: Vec<usize> = (0..ids.len()).collect();
    let per_child: Vec<(Vec<(u64, u64)>, u64)> = parallel_map(threads, &children, |&si| {
        let mut edges = Vec::new();
        let mut local_comparisons = 0u64;
        if elements[si].is_empty() {
            // The empty schema is contained in every other dataset (the
            // brute-force graph has those edges too); no subset check is
            // needed to prove it.
            for (oj, &other_id) in ids.iter().enumerate() {
                if oj != si && other_id != ids[si] {
                    edges.push((other_id, ids[si]));
                }
            }
        } else {
            let candidates = rarest_postings(&postings, &elements[si])
                .expect("every element of an indexed set has postings");
            let my_card = sets[si].card();
            for &cj in candidates {
                if sets[cj].card() < my_card {
                    break; // posting lists are cardinality-sorted
                }
                if cj == si || ids[cj] == ids[si] {
                    continue;
                }
                local_comparisons += 1;
                if sets[si].subset_of(&sets[cj]) {
                    edges.push((ids[cj], ids[si]));
                }
            }
        }
        (edges, local_comparisons)
    });
    for (edges, local_comparisons) in per_child {
        comparisons += local_comparisons;
        for (parent, child) in edges {
            graph.add_edge(parent, child);
        }
    }

    let clusters = clusters
        .into_iter()
        .map(|c| SchemaCluster {
            center: ids[c.center],
            members: c.members.iter().map(|&i| ids[i]).collect(),
        })
        .collect();

    SgbResult {
        graph,
        clusters,
        schema_comparisons: comparisons,
    }
}

/// Run the Schema Graph Builder over `(dataset id, schema set)` pairs,
/// single-threaded. See [`build_schema_graph_threaded`].
pub fn build_schema_graph(schemas: &[(u64, SchemaSet)], meter: &Meter) -> SgbResult {
    build_schema_graph_threaded(schemas, 1, meter)
}

/// Run the Schema Graph Builder over `(dataset id, schema set)` pairs on up
/// to `threads` workers (`0` = all hardware threads).
///
/// Every dataset becomes a node of the output graph even if it has no edges.
/// Schema comparisons are counted both in the returned result and on the
/// meter (as `schema_comparisons`). All column names are interned up front
/// so each comparison is a sorted-`u32` merge-walk (with a bitset fast path)
/// rather than a `BTreeSet<String>` subset test; the produced graph,
/// clusters and comparison counts are identical to the string-based
/// implementation at any thread count.
pub fn build_schema_graph_threaded(
    schemas: &[(u64, SchemaSet)],
    threads: usize,
    meter: &Meter,
) -> SgbResult {
    let mut interner = SchemaInterner::new();
    let ids: Vec<u64> = schemas.iter().map(|(id, _)| *id).collect();
    let sets: Vec<InternedSchemaSet> = schemas
        .iter()
        .map(|(_, s)| interner.intern_set(s))
        .collect();
    let result = sgb_core(&ids, &sets, threads);
    meter.add_schema_comparisons(result.schema_comparisons);
    result
}

/// The brute-force `O(N²)` schema containment graph ("Ground Truth Schema"
/// baseline of §6.4.1): compare every ordered pair of schema sets directly.
/// Exposed here because the pipeline tests use it to verify Theorem 4.1; the
/// baselines crate re-exports it alongside the other baselines.
pub fn brute_force_schema_graph(schemas: &[(u64, SchemaSet)], meter: &Meter) -> ContainmentGraph {
    let mut graph = ContainmentGraph::new();
    for (id, _) in schemas {
        graph.add_dataset(*id);
    }
    let mut comparisons = 0u64;
    for (i, (id_a, sa)) in schemas.iter().enumerate() {
        for (id_b, sb) in schemas.iter().skip(i + 1) {
            comparisons += 1;
            if sa.is_contained_in(sb) {
                graph.add_edge(*id_b, *id_a);
            }
            if sb.is_contained_in(sa) {
                graph.add_edge(*id_a, *id_b);
            }
        }
    }
    meter.add_schema_comparisons(comparisons);
    graph
}

#[cfg(test)]
mod tests {
    use super::*;
    use r2d2_graph::diff::diff;

    impl ContainmentSet for SchemaSet {
        type Elem = String;

        fn card(&self) -> usize {
            self.len()
        }

        fn subset_of(&self, other: &Self) -> bool {
            self.is_contained_in(other)
        }

        fn elements(&self) -> Vec<String> {
            self.iter().map(str::to_string).collect()
        }
    }

    /// The pre-interning implementation: identical algorithm, but containment
    /// checks run directly on the string [`SchemaSet`]s. The reference the
    /// interned stage must match in graph, clusters and comparison count.
    fn build_schema_graph_string(schemas: &[(u64, SchemaSet)], meter: &Meter) -> SgbResult {
        let ids: Vec<u64> = schemas.iter().map(|(id, _)| *id).collect();
        let sets: Vec<SchemaSet> = schemas.iter().map(|(_, s)| s.clone()).collect();
        let result = sgb_core(&ids, &sets, 1);
        meter.add_schema_comparisons(result.schema_comparisons);
        result
    }

    fn schema(names: &[&str]) -> SchemaSet {
        SchemaSet::from_names(names.iter().copied())
    }

    /// The worked example of Fig. 3: six schemas over columns c1..c5.
    fn paper_example() -> Vec<(u64, SchemaSet)> {
        vec![
            (1, schema(&["c1", "c2", "c3", "c4", "c5"])), // S1 (largest)
            (2, schema(&["c1", "c2", "c3"])),
            (3, schema(&["c2", "c3", "c4"])),
            (4, schema(&["c1", "c2"])),
            (5, schema(&["c4", "c5"])),
            (6, schema(&["c2"])),
        ]
    }

    #[test]
    fn builds_expected_edges_on_paper_example() {
        let schemas = paper_example();
        let meter = Meter::new();
        let result = build_schema_graph(&schemas, &meter);
        let g = &result.graph;
        // Everything is contained in S1.
        for child in [2u64, 3, 4, 5, 6] {
            assert!(g.has_edge(1, child), "1 → {child} missing");
        }
        // S4 {c1,c2} ⊆ S2 {c1,c2,c3}; S6 {c2} ⊆ S2, S3, S4.
        assert!(g.has_edge(2, 4));
        assert!(g.has_edge(2, 6));
        assert!(g.has_edge(3, 6));
        assert!(g.has_edge(4, 6));
        // No spurious reverse edges.
        assert!(!g.has_edge(4, 2));
        assert!(!g.has_edge(6, 1));
        // S5 {c4,c5} is not contained in S2/S3/S4.
        assert!(!g.has_edge(2, 5));
        assert!(!g.has_edge(3, 5));
    }

    #[test]
    fn matches_brute_force_on_paper_example() {
        let schemas = paper_example();
        let sgb = build_schema_graph(&schemas, &Meter::new());
        let truth = brute_force_schema_graph(&schemas, &Meter::new());
        let d = diff(&sgb.graph, &truth);
        assert_eq!(d.not_detected, 0, "Theorem 4.1: no missing edges");
        assert_eq!(d.incorrect, 0, "SGB only adds true schema edges");
    }

    #[test]
    fn identical_schemas_get_edges_in_both_directions() {
        let schemas = vec![(10, schema(&["a", "b"])), (20, schema(&["a", "b"]))];
        let result = build_schema_graph(&schemas, &Meter::new());
        assert!(result.graph.has_edge(10, 20));
        assert!(result.graph.has_edge(20, 10));
    }

    #[test]
    fn disjoint_schemas_produce_no_edges_and_many_clusters() {
        let schemas = vec![
            (1, schema(&["a", "b"])),
            (2, schema(&["c", "d"])),
            (3, schema(&["e"])),
        ];
        let result = build_schema_graph(&schemas, &Meter::new());
        assert_eq!(result.graph.edge_count(), 0);
        assert_eq!(result.cluster_count(), 3);
    }

    #[test]
    fn cluster_centers_are_largest_members() {
        let schemas = paper_example();
        let result = build_schema_graph(&schemas, &Meter::new());
        for cluster in &result.clusters {
            let center_len = schemas
                .iter()
                .find(|(id, _)| *id == cluster.center)
                .unwrap()
                .1
                .len();
            for m in &cluster.members {
                let len = schemas.iter().find(|(id, _)| id == m).unwrap().1.len();
                assert!(len <= center_len);
            }
            assert!(cluster.members.contains(&cluster.center));
        }
    }

    #[test]
    fn member_of_multiple_clusters_possible() {
        // Two disjoint big schemas plus a tiny schema contained in both.
        let schemas = vec![
            (1, schema(&["a", "b", "x"])),
            (2, schema(&["a", "b", "y"])),
            (3, schema(&["a", "b"])),
        ];
        let result = build_schema_graph(&schemas, &Meter::new());
        let membership: usize = result
            .clusters
            .iter()
            .filter(|c| c.members.contains(&3))
            .count();
        assert_eq!(membership, 2, "schema 3 belongs to both clusters");
        assert!(result.graph.has_edge(1, 3));
        assert!(result.graph.has_edge(2, 3));
        assert!(!result.graph.has_edge(1, 2));
    }

    #[test]
    fn comparisons_counted_and_metered() {
        let schemas = paper_example();
        let meter = Meter::new();
        let result = build_schema_graph(&schemas, &meter);
        assert!(result.schema_comparisons > 0);
        assert_eq!(
            meter.snapshot().schema_comparisons,
            result.schema_comparisons
        );
        // SGB should do fewer comparisons than the N^2 brute force here? Not
        // necessarily for tiny N, but it must be bounded by N*K + sum of
        // cluster pair counts; sanity: below the all-pairs double count.
        let n = schemas.len() as u64;
        assert!(result.schema_comparisons <= n * n);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty = build_schema_graph(&[], &Meter::new());
        assert_eq!(empty.graph.node_count(), 0);
        assert_eq!(empty.cluster_count(), 0);

        let single = build_schema_graph(&[(7, schema(&["a"]))], &Meter::new());
        assert_eq!(single.graph.node_count(), 1);
        assert_eq!(single.graph.edge_count(), 0);
        assert_eq!(single.cluster_count(), 1);
    }

    #[test]
    fn string_interned_and_threaded_variants_agree() {
        let schemas = paper_example();
        let interned = build_schema_graph(&schemas, &Meter::new());
        let string = build_schema_graph_string(&schemas, &Meter::new());
        let threaded = build_schema_graph_threaded(&schemas, 0, &Meter::new());
        assert_eq!(interned.graph, string.graph);
        assert_eq!(interned.graph, threaded.graph);
        assert_eq!(interned.clusters, string.clusters);
        assert_eq!(interned.clusters, threaded.clusters);
        assert_eq!(interned.schema_comparisons, string.schema_comparisons);
        assert_eq!(interned.schema_comparisons, threaded.schema_comparisons);
    }

    #[test]
    fn empty_schema_contained_everywhere() {
        let schemas = vec![(1, schema(&["a", "b"])), (2, schema(&[]))];
        let result = build_schema_graph(&schemas, &Meter::new());
        assert!(result.graph.has_edge(1, 2));
    }

    proptest::proptest! {
        /// Theorem 4.1 (recall guarantee): on random schema families the SGB
        /// graph must contain every edge of the brute-force schema graph.
        #[test]
        fn sgb_never_misses_an_edge(raw in proptest::collection::vec(
            proptest::collection::btree_set(0u8..12, 0..6), 1..24)) {
            let schemas: Vec<(u64, SchemaSet)> = raw
                .iter()
                .enumerate()
                .map(|(i, cols)| {
                    (
                        i as u64,
                        SchemaSet::from_names(cols.iter().map(|c| format!("c{c}"))),
                    )
                })
                .collect();
            let sgb = build_schema_graph(&schemas, &Meter::new());
            let truth = brute_force_schema_graph(&schemas, &Meter::new());
            let d = diff(&sgb.graph, &truth);
            proptest::prop_assert_eq!(d.not_detected, 0);
            // SGB adds only schema-containment edges, so precision is also 1
            // at this stage (incorrectness only appears w.r.t. *content*
            // ground truth, not schema ground truth).
            proptest::prop_assert_eq!(d.incorrect, 0);
        }
    }
}
