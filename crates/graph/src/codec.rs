//! Binary round-trip codec for [`ContainmentGraph`].
//!
//! Durable session snapshots (`r2d2_core::persist`) serialize the graph
//! through this hand-written little-endian format. The encoding preserves
//! everything observable about a graph — *including node-id assignment*:
//! dataset ids are written in insertion order and re-added in that order on
//! decode, so `node_of`/`dataset_of` mappings, `datasets()` order and edge
//! annotations all survive, and the decoded graph is `==` to the original.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! node_count u32 | dataset ids u64* (insertion order)
//! edge_count u32
//! per edge: parent u64 | child u64 | annotation
//! annotation: 4 optional fields, each `present u8` then the payload
//!   (f64 fraction | len-prefixed utf8 transform | f64 cost | f64 latency)
//! ```

use crate::containment::{ContainmentEdge, ContainmentGraph};
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Error raised when decoding a corrupt graph blob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphCodecError(String);

impl std::fmt::Display for GraphCodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "corrupt graph encoding: {}", self.0)
    }
}

impl std::error::Error for GraphCodecError {}

fn corrupt<T>(what: &str) -> Result<T, GraphCodecError> {
    Err(GraphCodecError(what.to_string()))
}

fn need(buf: &Bytes, n: usize, what: &str) -> Result<(), GraphCodecError> {
    if buf.remaining() < n {
        return corrupt(what);
    }
    Ok(())
}

fn put_opt_f64(buf: &mut BytesMut, v: &Option<f64>) {
    match v {
        None => buf.put_u8(0),
        Some(x) => {
            buf.put_u8(1);
            buf.put_f64_le(*x);
        }
    }
}

fn get_opt_f64(buf: &mut Bytes) -> Result<Option<f64>, GraphCodecError> {
    need(buf, 1, "optional f64 tag")?;
    match buf.get_u8() {
        0 => Ok(None),
        1 => {
            need(buf, 8, "f64")?;
            Ok(Some(buf.get_f64_le()))
        }
        _ => corrupt("unknown optional f64 tag"),
    }
}

fn put_opt_str(buf: &mut BytesMut, v: &Option<String>) {
    match v {
        None => buf.put_u8(0),
        Some(s) => {
            buf.put_u8(1);
            buf.put_u32_le(s.len() as u32);
            buf.put_slice(s.as_bytes());
        }
    }
}

fn get_opt_str(buf: &mut Bytes) -> Result<Option<String>, GraphCodecError> {
    need(buf, 1, "optional string tag")?;
    match buf.get_u8() {
        0 => Ok(None),
        1 => {
            need(buf, 4, "string length")?;
            let len = buf.get_u32_le() as usize;
            need(buf, len, "string payload")?;
            let raw = buf.copy_to_bytes(len);
            match String::from_utf8(raw.to_vec()) {
                Ok(s) => Ok(Some(s)),
                Err(_) => corrupt("invalid utf8"),
            }
        }
        _ => corrupt("unknown optional string tag"),
    }
}

/// Encode a graph into the binary format described in the module docs.
pub fn encode(graph: &ContainmentGraph) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_u32_le(graph.node_count() as u32);
    for &dataset in graph.datasets() {
        buf.put_u64_le(dataset);
    }
    let edges = graph.edges();
    buf.put_u32_le(edges.len() as u32);
    for (parent, child) in edges {
        buf.put_u64_le(parent);
        buf.put_u64_le(child);
        let annotation = graph.edge(parent, child).expect("edge just listed");
        put_opt_f64(&mut buf, &annotation.containment_fraction);
        put_opt_str(&mut buf, &annotation.transform);
        put_opt_f64(&mut buf, &annotation.reconstruction_cost);
        put_opt_f64(&mut buf, &annotation.reconstruction_latency);
    }
    buf.freeze()
}

/// Deserialize a graph, reproducing node ids, edges and annotations exactly.
pub fn decode(buf: &mut Bytes) -> Result<ContainmentGraph, GraphCodecError> {
    need(buf, 4, "node count")?;
    let nodes = buf.get_u32_le() as usize;
    let mut graph = ContainmentGraph::new();
    for _ in 0..nodes {
        need(buf, 8, "dataset id")?;
        graph.add_dataset(buf.get_u64_le());
    }
    if graph.node_count() != nodes {
        return corrupt("duplicate dataset id");
    }
    need(buf, 4, "edge count")?;
    let edges = buf.get_u32_le() as usize;
    for _ in 0..edges {
        need(buf, 16, "edge endpoints")?;
        let parent = buf.get_u64_le();
        let child = buf.get_u64_le();
        let annotation = ContainmentEdge {
            containment_fraction: get_opt_f64(buf)?,
            transform: get_opt_str(buf)?,
            reconstruction_cost: get_opt_f64(buf)?,
            reconstruction_latency: get_opt_f64(buf)?,
        };
        if graph.node_of(parent).is_none() || graph.node_of(child).is_none() {
            return corrupt("edge endpoint not in node list");
        }
        if !graph.add_edge_with(parent, child, annotation) {
            return corrupt("duplicate edge");
        }
    }
    Ok(graph)
}

// ---------------------------------------------------------------------------
// Delta codec
// ---------------------------------------------------------------------------
//
// Delta snapshot generations (`r2d2_core::persist`) re-encode only what
// changed since the previous generation. A session graph only ever *appends*
// nodes (dropped datasets keep an isolated node so node ids stay stable), so
// the node side of a delta is a pure tail — exactly like the schema-interner
// tail — while edges diff as removals plus upserts (an upsert covers both a
// new edge and an annotation change on an existing one). Like [`encode`],
// the delta encoding is canonical: equal (base, graph) pairs produce equal
// bytes.

/// Fingerprint of a [`ContainmentGraph`] for delta encoding: the insertion-
/// ordered dataset list and every edge with its annotation.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphCapture {
    datasets: Vec<u64>,
    edges: std::collections::BTreeMap<(u64, u64), ContainmentEdge>,
}

/// Capture the fingerprint a later [`encode_delta`] diffs against.
pub fn capture(graph: &ContainmentGraph) -> GraphCapture {
    GraphCapture {
        datasets: graph.datasets().to_vec(),
        edges: graph
            .edges()
            .into_iter()
            .map(|(p, c)| ((p, c), graph.edge(p, c).expect("edge just listed").clone()))
            .collect(),
    }
}

fn put_annotation(buf: &mut BytesMut, annotation: &ContainmentEdge) {
    put_opt_f64(buf, &annotation.containment_fraction);
    put_opt_str(buf, &annotation.transform);
    put_opt_f64(buf, &annotation.reconstruction_cost);
    put_opt_f64(buf, &annotation.reconstruction_latency);
}

fn get_annotation(buf: &mut Bytes) -> Result<ContainmentEdge, GraphCodecError> {
    Ok(ContainmentEdge {
        containment_fraction: get_opt_f64(buf)?,
        transform: get_opt_str(buf)?,
        reconstruction_cost: get_opt_f64(buf)?,
        reconstruction_latency: get_opt_f64(buf)?,
    })
}

/// Encode the difference between `graph` and a prior [`capture`] of it:
/// the base node count (verified on apply), the appended dataset ids, the
/// removed edges, and the added-or-reannotated edges in full.
///
/// The base capture's node list must be a prefix of the graph's — the
/// session invariant (nodes are only appended) guarantees it; diffing
/// against a capture of some *other* graph is a caller bug and panics in
/// debug builds.
pub fn encode_delta(graph: &ContainmentGraph, base: &GraphCapture) -> Bytes {
    debug_assert!(
        graph.datasets().starts_with(&base.datasets),
        "delta base capture is not a node-prefix of the graph"
    );
    let mut buf = BytesMut::new();
    buf.put_u32_le(base.datasets.len() as u32);
    let appended = &graph.datasets()[base.datasets.len()..];
    buf.put_u32_le(appended.len() as u32);
    for &dataset in appended {
        buf.put_u64_le(dataset);
    }
    let live: std::collections::BTreeMap<(u64, u64), &ContainmentEdge> = graph
        .edges()
        .into_iter()
        .map(|(p, c)| ((p, c), graph.edge(p, c).expect("edge just listed")))
        .collect();
    let removed: Vec<&(u64, u64)> = base
        .edges
        .keys()
        .filter(|k| !live.contains_key(k))
        .collect();
    buf.put_u32_le(removed.len() as u32);
    for &&(parent, child) in &removed {
        buf.put_u64_le(parent);
        buf.put_u64_le(child);
    }
    let upserted: Vec<(&(u64, u64), &&ContainmentEdge)> = live
        .iter()
        .filter(|(k, annotation)| base.edges.get(k) != Some(*annotation))
        .collect();
    buf.put_u32_le(upserted.len() as u32);
    for (&(parent, child), annotation) in upserted {
        buf.put_u64_le(parent);
        buf.put_u64_le(child);
        put_annotation(&mut buf, annotation);
    }
    buf.freeze()
}

/// Apply an [`encode_delta`] section on top of the base generation's decoded
/// graph: verify the node-count splice point, append the new nodes, drop the
/// removed edges, then upsert the changed ones. Any mismatch with the graph
/// being patched — wrong base count, removing an absent edge, upserting onto
/// an unknown endpoint — is a clean corruption error, never a panic.
pub fn apply_delta(graph: &mut ContainmentGraph, buf: &mut Bytes) -> Result<(), GraphCodecError> {
    need(buf, 8, "delta node counts")?;
    let base_nodes = buf.get_u32_le() as usize;
    if graph.node_count() != base_nodes {
        return corrupt("graph delta expects a different base node count");
    }
    let appended = buf.get_u32_le() as usize;
    for _ in 0..appended {
        need(buf, 8, "appended dataset id")?;
        graph.add_dataset(buf.get_u64_le());
    }
    if graph.node_count() != base_nodes + appended {
        return corrupt("appended dataset id already present");
    }
    need(buf, 4, "removed edge count")?;
    let removed = buf.get_u32_le() as usize;
    for _ in 0..removed {
        need(buf, 16, "removed edge")?;
        let parent = buf.get_u64_le();
        let child = buf.get_u64_le();
        if graph.remove_edge(parent, child).is_none() {
            return corrupt("graph delta removes an absent edge");
        }
    }
    need(buf, 4, "upserted edge count")?;
    let upserted = buf.get_u32_le() as usize;
    for _ in 0..upserted {
        need(buf, 16, "upserted edge")?;
        let parent = buf.get_u64_le();
        let child = buf.get_u64_le();
        let annotation = get_annotation(buf)?;
        if graph.node_of(parent).is_none() || graph.node_of(child).is_none() {
            return corrupt("upserted edge endpoint not in node list");
        }
        graph.remove_edge(parent, child);
        if !graph.add_edge_with(parent, child, annotation) {
            return corrupt("duplicate upserted edge");
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ContainmentGraph {
        // Non-contiguous dataset ids in non-sorted insertion order, so the
        // round trip must preserve the id ↔ node mapping, not re-derive it.
        let mut g = ContainmentGraph::with_datasets([7, 2, 40, 11]);
        g.add_edge(7, 2);
        g.add_edge_with(
            40,
            11,
            ContainmentEdge {
                containment_fraction: Some(0.75),
                transform: Some("WHERE ts < 100".into()),
                reconstruction_cost: Some(1.25),
                reconstruction_latency: None,
            },
        );
        g.add_edge(7, 11);
        g
    }

    #[test]
    fn round_trip_is_equal_including_node_ids() {
        let g = sample();
        let bytes = encode(&g);
        let mut cursor = bytes.clone();
        let back = decode(&mut cursor).unwrap();
        assert_eq!(cursor.remaining(), 0);
        assert_eq!(back, g);
        assert_eq!(back.datasets(), g.datasets());
        for &d in g.datasets() {
            assert_eq!(back.node_of(d), g.node_of(d), "node ids must be stable");
        }
        assert_eq!(
            back.edge(40, 11).unwrap().transform.as_deref(),
            Some("WHERE ts < 100")
        );
        // Canonical: re-encoding the decoded graph is bit-identical.
        assert_eq!(encode(&back), bytes);
    }

    #[test]
    fn empty_graph_round_trips() {
        let g = ContainmentGraph::new();
        let mut cursor = encode(&g);
        assert_eq!(decode(&mut cursor).unwrap(), g);
    }

    #[test]
    fn cleared_datasets_keep_their_isolated_nodes() {
        let mut g = sample();
        g.clear_dataset(2);
        let mut cursor = encode(&g);
        let back = decode(&mut cursor).unwrap();
        assert_eq!(back, g);
        assert_eq!(back.node_count(), 4);
        assert!(!back.has_edge(7, 2));
    }

    #[test]
    fn delta_round_trip_matches_full_encode_bit_for_bit() {
        let mut g = sample();
        let base = capture(&g);
        // Mutations since the capture: a new node + edge, a removed edge,
        // and an annotation change on a surviving edge.
        g.add_dataset(99);
        g.add_edge(11, 99);
        g.remove_edge(7, 2);
        g.remove_edge(40, 11);
        g.add_edge_with(
            40,
            11,
            ContainmentEdge {
                containment_fraction: Some(0.5),
                transform: None,
                reconstruction_cost: None,
                reconstruction_latency: Some(3.0),
            },
        );

        // Rebuild the base graph and patch it with the delta.
        let mut patched = decode(&mut encode(&sample())).unwrap();
        let delta = encode_delta(&g, &base);
        let mut cursor = delta.clone();
        apply_delta(&mut patched, &mut cursor).unwrap();
        assert_eq!(cursor.remaining(), 0);
        assert_eq!(patched, g);
        assert_eq!(patched.datasets(), g.datasets());
        for &d in g.datasets() {
            assert_eq!(patched.node_of(d), g.node_of(d));
        }
        // Canonical both ways: patched state full-encodes identically, and an
        // identical mutation sequence produces identical delta bytes.
        assert_eq!(encode(&patched), encode(&g));
        assert_eq!(encode_delta(&patched, &base), delta);
    }

    #[test]
    fn unchanged_graph_delta_is_empty_of_mutations() {
        let g = sample();
        let base = capture(&g);
        let delta = encode_delta(&g, &base);
        // base count + three zero mutation counts.
        assert_eq!(delta.len(), 16);
        let mut patched = sample();
        apply_delta(&mut patched, &mut delta.clone()).unwrap();
        assert_eq!(patched, g);
    }

    #[test]
    fn delta_against_wrong_base_is_a_clean_error() {
        let mut g = sample();
        let base = capture(&g);
        g.add_dataset(99);
        let delta = encode_delta(&g, &base);

        // Wrong node count at the splice point.
        let mut smaller = ContainmentGraph::with_datasets([7, 2]);
        assert!(apply_delta(&mut smaller, &mut delta.clone()).is_err());

        // Right count, but the appended id already exists.
        let mut clash = ContainmentGraph::with_datasets([7, 2, 40, 99]);
        assert!(apply_delta(&mut clash, &mut delta.clone()).is_err());

        // Removing an edge the base never had.
        let mut g2 = sample();
        let base2 = capture(&g2);
        g2.remove_edge(7, 2);
        let removal = encode_delta(&g2, &base2);
        let mut no_edges = ContainmentGraph::with_datasets([7, 2, 40, 11]);
        assert!(apply_delta(&mut no_edges, &mut removal.clone()).is_err());
    }

    #[test]
    fn corrupt_delta_blobs_are_clean_errors() {
        let mut g = sample();
        let base = capture(&g);
        g.add_dataset(99);
        g.add_edge(11, 99);
        g.remove_edge(7, 2);
        let delta = encode_delta(&g, &base);
        for cut in 0..delta.len() {
            let mut patched = sample();
            let mut cursor = delta.slice(0..cut);
            let _ = apply_delta(&mut patched, &mut cursor); // must not panic
        }
    }

    #[test]
    fn corrupt_blobs_are_clean_errors() {
        let bytes = encode(&sample());
        // Truncations at every prefix must error, never panic.
        for cut in 0..bytes.len() {
            let mut cursor = bytes.slice(0..cut);
            if cut == 0 {
                assert!(decode(&mut cursor).is_err());
            } else {
                let _ = decode(&mut cursor); // must not panic
            }
        }
        // Edge referencing an unknown node.
        let mut buf = BytesMut::new();
        buf.put_u32_le(1);
        buf.put_u64_le(5);
        buf.put_u32_le(1);
        buf.put_u64_le(5);
        buf.put_u64_le(99); // child never declared
        buf.put_u8(0);
        buf.put_u8(0);
        buf.put_u8(0);
        buf.put_u8(0);
        assert!(decode(&mut buf.freeze()).is_err());
    }
}
