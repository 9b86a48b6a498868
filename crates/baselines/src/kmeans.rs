//! KMeans schema-clustering baseline (§6.4.1, Table 4).
//!
//! "We get embedding vectors for each table schema by computing the average
//! of the column embedding vectors for that table. We then employ KMeans
//! clustering to create schema clusters based on these embedding vectors.
//! Pairwise schema containment is computed for members within each cluster
//! similar to SGB." Unlike SGB's containment-based clusters, embedding
//! clusters can separate a contained schema from its parent, which is why
//! the baseline misses edges (the "Not Detected" column of Table 4).
//!
//! Column embeddings are hashed character-n-gram vectors (no pretrained
//! models are available offline); the k-means implementation is standard
//! Lloyd's algorithm with k-means++ seeding.

use r2d2_graph::ContainmentGraph;
use r2d2_lake::SchemaSet;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Dimensionality of the hashed n-gram embedding space.
pub const EMBEDDING_DIM: usize = 32;

/// Embed a single column name: character trigrams hashed into
/// `EMBEDDING_DIM` buckets, L2-normalised.
pub fn embed_column(name: &str) -> [f64; EMBEDDING_DIM] {
    let mut v = [0.0f64; EMBEDDING_DIM];
    let lower = format!("  {}  ", name.to_lowercase());
    let chars: Vec<char> = lower.chars().collect();
    for w in chars.windows(3) {
        let mut h: u64 = 1469598103934665603;
        for c in w {
            h ^= *c as u64;
            h = h.wrapping_mul(1099511628211);
        }
        v[(h % EMBEDDING_DIM as u64) as usize] += 1.0;
    }
    let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm > 0.0 {
        for x in &mut v {
            *x /= norm;
        }
    }
    v
}

/// Embed a schema as the average of its column embeddings.
pub fn embed_schema(schema: &SchemaSet) -> [f64; EMBEDDING_DIM] {
    let mut v = [0.0f64; EMBEDDING_DIM];
    let mut n = 0usize;
    for col in schema.iter() {
        let e = embed_column(col);
        for (a, b) in v.iter_mut().zip(e.iter()) {
            *a += b;
        }
        n += 1;
    }
    if n > 0 {
        for x in &mut v {
            *x /= n as f64;
        }
    }
    v
}

fn dist2(a: &[f64; EMBEDDING_DIM], b: &[f64; EMBEDDING_DIM]) -> f64 {
    a.iter().zip(b.iter()).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Result of a k-means run.
#[derive(Debug, Clone)]
pub struct KMeansResult {
    /// Cluster assignment per input point.
    pub assignment: Vec<usize>,
    /// Final centroids.
    pub centroids: Vec<[f64; EMBEDDING_DIM]>,
    /// Iterations executed.
    pub iterations: usize,
}

/// Lloyd's k-means with k-means++ seeding.
pub fn kmeans(
    points: &[[f64; EMBEDDING_DIM]],
    k: usize,
    max_iter: usize,
    seed: u64,
) -> KMeansResult {
    assert!(k > 0, "k must be positive");
    let k = k.min(points.len().max(1));
    let mut rng = SmallRng::seed_from_u64(seed);
    if points.is_empty() {
        return KMeansResult {
            assignment: Vec::new(),
            centroids: Vec::new(),
            iterations: 0,
        };
    }

    // k-means++ seeding.
    let mut centroids: Vec<[f64; EMBEDDING_DIM]> = Vec::with_capacity(k);
    centroids.push(points[rng.gen_range(0..points.len())]);
    while centroids.len() < k {
        let dists: Vec<f64> = points
            .iter()
            .map(|p| {
                centroids
                    .iter()
                    .map(|c| dist2(p, c))
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        let total: f64 = dists.iter().sum();
        if total <= 0.0 {
            centroids.push(points[rng.gen_range(0..points.len())]);
            continue;
        }
        let mut target = rng.gen_range(0.0..total);
        let mut chosen = 0;
        for (i, d) in dists.iter().enumerate() {
            target -= d;
            if target <= 0.0 {
                chosen = i;
                break;
            }
        }
        centroids.push(points[chosen]);
    }

    let mut assignment = vec![0usize; points.len()];
    let mut iterations = 0;
    for it in 0..max_iter {
        iterations = it + 1;
        // Assign.
        let mut changed = false;
        for (i, p) in points.iter().enumerate() {
            let best = (0..centroids.len())
                .min_by(|&a, &b| {
                    dist2(p, &centroids[a])
                        .partial_cmp(&dist2(p, &centroids[b]))
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .unwrap_or(0);
            if assignment[i] != best {
                assignment[i] = best;
                changed = true;
            }
        }
        // Update.
        let mut sums = vec![[0.0f64; EMBEDDING_DIM]; centroids.len()];
        let mut counts = vec![0usize; centroids.len()];
        for (i, p) in points.iter().enumerate() {
            counts[assignment[i]] += 1;
            for (a, b) in sums[assignment[i]].iter_mut().zip(p.iter()) {
                *a += b;
            }
        }
        for (c, (sum, count)) in centroids.iter_mut().zip(sums.iter().zip(&counts)) {
            if *count > 0 {
                for (a, b) in c.iter_mut().zip(sum.iter()) {
                    *a = b / *count as f64;
                }
            }
        }
        if !changed && it > 0 {
            break;
        }
    }
    KMeansResult {
        assignment,
        centroids,
        iterations,
    }
}

/// The KMeans schema-containment baseline: cluster schema embeddings into
/// `k` clusters, then add containment edges only between members of the same
/// cluster (mirroring what SGB does within its clusters).
pub fn kmeans_schema_graph(schemas: &[(u64, SchemaSet)], k: usize, seed: u64) -> ContainmentGraph {
    let points: Vec<[f64; EMBEDDING_DIM]> = schemas.iter().map(|(_, s)| embed_schema(s)).collect();
    let result = kmeans(&points, k, 50, seed);
    let mut graph = ContainmentGraph::new();
    for (id, _) in schemas {
        graph.add_dataset(*id);
    }
    for i in 0..schemas.len() {
        for j in (i + 1)..schemas.len() {
            if result.assignment[i] != result.assignment[j] {
                continue;
            }
            let (id_i, si) = &schemas[i];
            let (id_j, sj) = &schemas[j];
            if sj.is_contained_in(si) {
                graph.add_edge(*id_i, *id_j);
            }
            if si.is_contained_in(sj) {
                graph.add_edge(*id_j, *id_i);
            }
        }
    }
    graph
}

#[cfg(test)]
mod tests {
    use super::*;
    use r2d2_core::sgb::brute_force_schema_graph;
    use r2d2_graph::diff::diff;
    use r2d2_lake::Meter;

    #[test]
    fn embeddings_similar_for_similar_names() {
        let a = embed_column("user_id");
        let b = embed_column("user_ids");
        let c = embed_column("zzzz_qqqq");
        assert!(dist2(&a, &b) < dist2(&a, &c));
    }

    #[test]
    fn schema_embedding_is_average() {
        let single = SchemaSet::from_names(["alpha"]);
        let double = SchemaSet::from_names(["alpha", "alpha2"]);
        let e1 = embed_schema(&single);
        let e2 = embed_schema(&double);
        assert!(dist2(&e1, &e2) < 0.5, "similar schemas embed nearby");
        let empty = embed_schema(&SchemaSet::from_names(Vec::<String>::new()));
        assert!(empty.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn kmeans_separates_obvious_clusters() {
        // Two well-separated groups of points.
        let mut points = Vec::new();
        for i in 0..10 {
            let mut a = [0.0; EMBEDDING_DIM];
            a[0] = 1.0 + (i as f64) * 0.001;
            points.push(a);
            let mut b = [0.0; EMBEDDING_DIM];
            b[1] = 1.0 + (i as f64) * 0.001;
            points.push(b);
        }
        let result = kmeans(&points, 2, 50, 1);
        assert_eq!(result.centroids.len(), 2);
        // All even-indexed points together, all odd together.
        let c0 = result.assignment[0];
        assert!(points
            .iter()
            .enumerate()
            .all(|(i, _)| (result.assignment[i] == c0) == (i % 2 == 0)));
    }

    #[test]
    fn kmeans_handles_degenerate_inputs() {
        let points = vec![[0.5; EMBEDDING_DIM]; 5];
        let result = kmeans(&points, 3, 10, 2);
        assert_eq!(result.assignment.len(), 5);
        let empty = kmeans(&[], 3, 10, 2);
        assert!(empty.assignment.is_empty());
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        kmeans(&[[0.0; EMBEDDING_DIM]], 0, 5, 0);
    }

    fn schemas() -> Vec<(u64, SchemaSet)> {
        vec![
            (
                1,
                SchemaSet::from_names(["user_id", "amount", "region", "ts"]),
            ),
            (2, SchemaSet::from_names(["user_id", "amount", "region"])),
            (3, SchemaSet::from_names(["user_id", "amount"])),
            (
                4,
                SchemaSet::from_names(["product_name", "product_price", "stock"]),
            ),
            (5, SchemaSet::from_names(["product_name", "product_price"])),
            (
                6,
                SchemaSet::from_names(["sensor", "reading", "unit", "site"]),
            ),
            (7, SchemaSet::from_names(["sensor", "reading"])),
            (8, SchemaSet::from_names(["wholly", "unrelated", "things"])),
        ]
    }

    #[test]
    fn kmeans_baseline_never_beats_brute_force_recall() {
        let s = schemas();
        let truth = brute_force_schema_graph(&s, &Meter::new());
        // With k larger than the number of natural groups, some contained
        // pairs end up in different clusters and are missed — the baseline's
        // weakness in Table 4. With k = 1 everything is one cluster and
        // recall is perfect. Either way it can never exceed the truth.
        for k in [1usize, 3, 6] {
            let g = kmeans_schema_graph(&s, k, 11);
            let d = diff(&g, &truth);
            assert_eq!(d.incorrect, 0, "only true schema edges are ever added");
            assert!(d.correct <= truth.edge_count());
            if k == 1 {
                assert_eq!(d.not_detected, 0, "single cluster = full recall");
            }
        }
    }

    #[test]
    fn kmeans_baseline_misses_edges_with_many_clusters() {
        let s = schemas();
        let truth = brute_force_schema_graph(&s, &Meter::new());
        let g = kmeans_schema_graph(&s, s.len(), 13);
        let d = diff(&g, &truth);
        assert!(
            d.not_detected > 0,
            "with one cluster per schema no intra-cluster pair exists"
        );
    }
}
