//! Schemas: flat and nested ("tree") schemas and their flattened schema sets.
//!
//! §4.1 of the paper constructs, for every dataset, a *schema set*: for flat
//! schemas it is the list of column names; for tree schemas (typical in
//! enterprise workloads) it is the set of flattened root-to-leaf paths, e.g.
//! a node `product` with children `price` and `id` flattens to
//! `product.price` and `product.id`. Schema-level containment is then plain
//! set containment between schema sets, which the Schema Graph Builder (SGB)
//! exploits.

use crate::datatype::DataType;
use crate::error::{LakeError, Result};
use std::collections::{BTreeSet, HashMap};

/// A leaf field of a flattened schema: a dotted path plus its data type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Field {
    /// Flattened, dot-separated column path, e.g. `product.price`.
    pub name: String,
    /// Logical data type of the leaf column.
    pub data_type: DataType,
}

impl Field {
    /// Create a new field.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        Field {
            name: name.into(),
            data_type,
        }
    }
}

/// A node in a (possibly nested) schema tree.
///
/// Leaves carry a [`DataType`]; internal nodes only group their children.
/// The enterprise datasets in the paper use such tree schemas (XDM-style
/// event records); the open-data corpora use flat schemas, which are just
/// trees of depth one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaNode {
    /// A leaf column with a name and a type.
    Leaf {
        /// Column name (single path segment, no dots).
        name: String,
        /// Data type of the column.
        data_type: DataType,
    },
    /// An internal node grouping child nodes under a common prefix.
    Group {
        /// Group name (single path segment, no dots).
        name: String,
        /// Child nodes.
        children: Vec<SchemaNode>,
    },
}

impl SchemaNode {
    /// Convenience constructor for a leaf.
    pub fn leaf(name: impl Into<String>, data_type: DataType) -> Self {
        SchemaNode::Leaf {
            name: name.into(),
            data_type,
        }
    }

    /// Convenience constructor for a group.
    pub fn group(name: impl Into<String>, children: Vec<SchemaNode>) -> Self {
        SchemaNode::Group {
            name: name.into(),
            children,
        }
    }

    /// Name of this node (leaf or group).
    pub fn name(&self) -> &str {
        match self {
            SchemaNode::Leaf { name, .. } | SchemaNode::Group { name, .. } => name,
        }
    }

    /// Recursively flatten the node into `(path, type)` pairs.
    fn flatten_into(&self, prefix: &str, out: &mut Vec<Field>) {
        let path = if prefix.is_empty() {
            self.name().to_string()
        } else {
            format!("{prefix}.{}", self.name())
        };
        match self {
            SchemaNode::Leaf { data_type, .. } => out.push(Field::new(path, *data_type)),
            SchemaNode::Group { children, .. } => {
                for child in children {
                    child.flatten_into(&path, out);
                }
            }
        }
    }

    /// Number of leaves under this node.
    pub fn leaf_count(&self) -> usize {
        match self {
            SchemaNode::Leaf { .. } => 1,
            SchemaNode::Group { children, .. } => children.iter().map(SchemaNode::leaf_count).sum(),
        }
    }

    /// Maximum depth of the subtree rooted at this node (a leaf has depth 1).
    pub fn depth(&self) -> usize {
        match self {
            SchemaNode::Leaf { .. } => 1,
            SchemaNode::Group { children, .. } => {
                1 + children.iter().map(SchemaNode::depth).max().unwrap_or(0)
            }
        }
    }
}

/// A table schema: an ordered list of flattened leaf fields.
///
/// The order matters for storage layout and row tuples; containment checks
/// use the unordered [`SchemaSet`] view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    /// Build a schema from flattened fields, rejecting duplicates.
    pub fn new(fields: Vec<Field>) -> Result<Self> {
        let mut seen = BTreeSet::new();
        for f in &fields {
            if !seen.insert(f.name.clone()) {
                return Err(LakeError::DuplicateColumn(f.name.clone()));
            }
        }
        Ok(Schema { fields })
    }

    /// Build a flat schema from `(name, type)` pairs.
    pub fn flat(cols: &[(&str, DataType)]) -> Result<Self> {
        Schema::new(
            cols.iter()
                .map(|(n, t)| Field::new(*n, *t))
                .collect::<Vec<_>>(),
        )
    }

    /// Build a schema by flattening a forest of nested schema nodes
    /// (step 1 of the SGB algorithm).
    pub fn from_tree(roots: &[SchemaNode]) -> Result<Self> {
        let mut fields = Vec::new();
        for root in roots {
            root.flatten_into("", &mut fields);
        }
        Schema::new(fields)
    }

    /// The flattened fields, in declaration order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of leaf columns.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Whether the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Index of a column by flattened name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }

    /// Field by flattened name.
    pub fn field(&self, name: &str) -> Option<&Field> {
        self.fields.iter().find(|f| f.name == name)
    }

    /// Data type of a column, or an error if it does not exist.
    pub fn data_type(&self, name: &str) -> Result<DataType> {
        self.field(name)
            .map(|f| f.data_type)
            .ok_or_else(|| LakeError::ColumnNotFound(name.to_string()))
    }

    /// The unordered set view of flattened column names used for
    /// schema-containment checks.
    pub fn schema_set(&self) -> SchemaSet {
        SchemaSet {
            names: self.fields.iter().map(|f| f.name.clone()).collect(),
        }
    }

    /// Column names in declaration order.
    pub fn names(&self) -> Vec<&str> {
        self.fields.iter().map(|f| f.name.as_str()).collect()
    }

    /// Project this schema onto a subset of column names (keeping this
    /// schema's declaration order). Errors if any name is missing.
    pub fn project(&self, names: &[&str]) -> Result<Schema> {
        let wanted: BTreeSet<&str> = names.iter().copied().collect();
        for n in &wanted {
            if self.index_of(n).is_none() {
                return Err(LakeError::ColumnNotFound((*n).to_string()));
            }
        }
        Schema::new(
            self.fields
                .iter()
                .filter(|f| wanted.contains(f.name.as_str()))
                .cloned()
                .collect(),
        )
    }
}

/// The flattened, unordered set of column names of a schema.
///
/// This is the "schema set" of §4.1; containment between schema sets is the
/// necessary condition for table-level containment that SGB builds its graph
/// from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaSet {
    names: BTreeSet<String>,
}

impl SchemaSet {
    /// Build a schema set directly from names (useful in tests and synthetic
    /// corpora).
    pub fn from_names<I, S>(names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        SchemaSet {
            names: names.into_iter().map(Into::into).collect(),
        }
    }

    /// Cardinality of the schema set (the `size` used to sort schemas in SGB).
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Whether `self` is contained in `other` (`self ⊆ other`).
    pub fn is_contained_in(&self, other: &SchemaSet) -> bool {
        self.names.is_subset(&other.names)
    }

    /// Number of names common to both sets.
    pub fn intersection_size(&self, other: &SchemaSet) -> usize {
        self.names.intersection(&other.names).count()
    }

    /// The common names, in lexicographic order.
    pub fn intersection(&self, other: &SchemaSet) -> Vec<String> {
        self.names.intersection(&other.names).cloned().collect()
    }

    /// Schema containment fraction `CM(self, other) = |self ∩ other| / |self|`
    /// (§3 of the paper, applied to schemas). Returns 1.0 for an empty `self`.
    pub fn containment_fraction(&self, other: &SchemaSet) -> f64 {
        if self.names.is_empty() {
            return 1.0;
        }
        self.intersection_size(other) as f64 / self.names.len() as f64
    }

    /// Iterate over names in lexicographic order.
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        self.names.iter().map(String::as_str)
    }

    /// Whether a specific column name is present.
    pub fn contains(&self, name: &str) -> bool {
        self.names.contains(name)
    }
}

/// A lake-wide column-name interner mapping flattened names to dense `u32`
/// symbol ids.
///
/// Schema-containment-heavy stages (SGB compares `O(K·N)` + intra-cluster
/// pairs of schema sets) spend most of their time in string comparisons when
/// sets are `BTreeSet<String>`. Interning every distinct column name once
/// turns each containment check into a merge-walk over two sorted `u32`
/// slices, with a 256-bit summary mask as a constant-time fast path.
#[derive(Debug, Clone, Default)]
pub struct SchemaInterner {
    ids: HashMap<String, u32>,
    names: Vec<String>,
}

impl SchemaInterner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern one name, returning its stable symbol id.
    pub fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_string());
        self.ids.insert(name.to_string(), id);
        id
    }

    /// Resolve a symbol id back to its name.
    pub fn resolve(&self, id: u32) -> Option<&str> {
        self.names.get(id as usize).map(String::as_str)
    }

    /// Number of distinct interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no names have been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Intern every name of a string schema set.
    pub fn intern_set(&mut self, set: &SchemaSet) -> InternedSchemaSet {
        let mut ids: Vec<u32> = set.iter().map(|n| self.intern(n)).collect();
        ids.sort_unstable();
        InternedSchemaSet::from_sorted_ids(ids)
    }
}

/// A schema set as sorted interned symbol ids plus a 256-bit summary mask.
///
/// The mask stores bit `id % 256` for every member. For a containment check
/// `self ⊆ other` this gives two fast paths:
///
/// * **reject**: if `self` sets a mask bit `other` lacks, containment is
///   impossible — no id walk needed (this catches most non-contained pairs);
/// * **accept**: if *all* ids on both sides are `< 256` the mask is an exact
///   bitset, so mask-subset alone proves containment (the "small schema"
///   case — typical corpora have far fewer than 256 distinct columns).
///
/// Only when neither shortcut applies does the check fall back to a linear
/// merge-walk over the two sorted id slices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InternedSchemaSet {
    /// Sorted ascending, no duplicates.
    ids: Vec<u32>,
    /// Bit `id % 256` for every member.
    mask: [u64; 4],
    /// Whether every id is `< 256` (mask is then an exact bitset).
    exact: bool,
}

impl InternedSchemaSet {
    /// Build from ids that are already sorted and deduplicated.
    pub fn from_sorted_ids(ids: Vec<u32>) -> Self {
        debug_assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "ids must be sorted+unique"
        );
        let mut mask = [0u64; 4];
        let mut exact = true;
        for &id in &ids {
            let bit = (id % 256) as usize;
            mask[bit / 64] |= 1u64 << (bit % 64);
            exact &= id < 256;
        }
        InternedSchemaSet { ids, mask, exact }
    }

    /// Cardinality of the set.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The sorted symbol ids.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// Whether `self ⊆ other`, equivalent to
    /// [`SchemaSet::is_contained_in`] on the un-interned sets.
    pub fn is_contained_in(&self, other: &InternedSchemaSet) -> bool {
        if self.ids.len() > other.ids.len() {
            return false;
        }
        // Mask fast reject: a bit set here but not there → not a subset.
        for i in 0..4 {
            if self.mask[i] & !other.mask[i] != 0 {
                return false;
            }
        }
        // Mask fast accept: both sides exact → mask subset ⇔ set subset.
        if self.exact && other.exact {
            return true;
        }
        // Merge-walk over the sorted id slices.
        let mut oi = 0;
        let other_ids = &other.ids;
        'outer: for &id in &self.ids {
            while oi < other_ids.len() {
                match other_ids[oi].cmp(&id) {
                    std::cmp::Ordering::Less => oi += 1,
                    std::cmp::Ordering::Equal => {
                        oi += 1;
                        continue 'outer;
                    }
                    std::cmp::Ordering::Greater => return false,
                }
            }
            return false;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nested_schema() -> Schema {
        Schema::from_tree(&[
            SchemaNode::group(
                "product",
                vec![
                    SchemaNode::leaf("price", DataType::Float),
                    SchemaNode::leaf("id", DataType::Int),
                ],
            ),
            SchemaNode::leaf("timestamp", DataType::Timestamp),
        ])
        .unwrap()
    }

    #[test]
    fn flatten_tree_schema_matches_paper_example() {
        let s = nested_schema();
        assert_eq!(s.names(), vec!["product.price", "product.id", "timestamp"]);
        assert_eq!(s.data_type("product.price").unwrap(), DataType::Float);
    }

    #[test]
    fn duplicate_columns_rejected() {
        let err = Schema::flat(&[("a", DataType::Int), ("a", DataType::Float)]);
        assert!(matches!(err, Err(LakeError::DuplicateColumn(_))));
    }

    #[test]
    fn schema_set_containment() {
        let big = Schema::flat(&[
            ("a", DataType::Int),
            ("b", DataType::Int),
            ("c", DataType::Utf8),
        ])
        .unwrap()
        .schema_set();
        let small = SchemaSet::from_names(["a", "c"]);
        let other = SchemaSet::from_names(["a", "z"]);
        assert!(small.is_contained_in(&big));
        assert!(!big.is_contained_in(&small));
        assert!(!other.is_contained_in(&big));
        assert_eq!(small.intersection_size(&big), 2);
        assert!((other.containment_fraction(&big) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn containment_fraction_empty_self_is_one() {
        let empty = SchemaSet::from_names(Vec::<String>::new());
        let big = SchemaSet::from_names(["a"]);
        assert_eq!(empty.containment_fraction(&big), 1.0);
    }

    #[test]
    fn projection_preserves_order_and_errors_on_missing() {
        let s = Schema::flat(&[
            ("a", DataType::Int),
            ("b", DataType::Float),
            ("c", DataType::Utf8),
        ])
        .unwrap();
        let p = s.project(&["c", "a"]).unwrap();
        assert_eq!(p.names(), vec!["a", "c"]);
        assert!(s.project(&["zzz"]).is_err());
    }

    #[test]
    fn leaf_count_and_depth() {
        let node = SchemaNode::group(
            "root",
            vec![
                SchemaNode::leaf("x", DataType::Int),
                SchemaNode::group("g", vec![SchemaNode::leaf("y", DataType::Int)]),
            ],
        );
        assert_eq!(node.leaf_count(), 2);
        assert_eq!(node.depth(), 3);
    }

    #[test]
    fn index_and_field_lookup() {
        let s = nested_schema();
        assert_eq!(s.index_of("timestamp"), Some(2));
        assert!(s.field("nope").is_none());
        assert!(s.data_type("nope").is_err());
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
    }

    #[test]
    fn interner_assigns_stable_ids() {
        let mut interner = SchemaInterner::new();
        let a = interner.intern("alpha");
        let b = interner.intern("beta");
        assert_ne!(a, b);
        assert_eq!(interner.intern("alpha"), a, "re-interning is stable");
        assert_eq!(interner.resolve(a), Some("alpha"));
        assert_eq!(interner.resolve(99), None);
        assert_eq!(interner.len(), 2);
        assert!(!interner.is_empty());
    }

    #[test]
    fn interned_containment_matches_string_containment() {
        let mut interner = SchemaInterner::new();
        let big = SchemaSet::from_names(["a", "b", "c", "d"]);
        let small = SchemaSet::from_names(["b", "d"]);
        let other = SchemaSet::from_names(["b", "z"]);
        let ibig = interner.intern_set(&big);
        let ismall = interner.intern_set(&small);
        let iother = interner.intern_set(&other);
        assert!(ismall.is_contained_in(&ibig));
        assert!(!ibig.is_contained_in(&ismall));
        assert!(!iother.is_contained_in(&ibig));
        assert!(ibig.is_contained_in(&ibig));
        assert_eq!(ismall.len(), 2);
        assert!(!ismall.is_empty());
    }

    #[test]
    fn interned_containment_beyond_bitset_range() {
        // Force ids past 256 so the merge-walk path (not the exact-bitset
        // fast path) is exercised, including mask collisions (id % 256).
        let mut interner = SchemaInterner::new();
        for i in 0..300 {
            interner.intern(&format!("pad{i}"));
        }
        let parent = SchemaSet::from_names((0..40).map(|i| format!("col{i}")));
        let child = SchemaSet::from_names((10..20).map(|i| format!("col{i}")));
        // "collides" interns to an id ≡ some parent id (mod 256) with high
        // likelihood once > 256 symbols exist; containment must still be
        // decided exactly.
        let foreign = SchemaSet::from_names(["col10", "collides"]);
        let ip = interner.intern_set(&parent);
        let ic = interner.intern_set(&child);
        let if_ = interner.intern_set(&foreign);
        assert!(ic.is_contained_in(&ip));
        assert!(!if_.is_contained_in(&ip));
        assert!(!ip.is_contained_in(&ic));
    }

    #[test]
    fn empty_interned_set_contained_everywhere() {
        let mut interner = SchemaInterner::new();
        let empty = interner.intern_set(&SchemaSet::from_names(Vec::<String>::new()));
        let any = interner.intern_set(&SchemaSet::from_names(["x"]));
        assert!(empty.is_contained_in(&any));
        assert!(empty.is_contained_in(&empty));
        assert!(!any.is_contained_in(&empty));
    }

    proptest::proptest! {
        /// Interned containment must agree with string-set containment on
        /// random schema families, in both directions, including past the
        /// 256-symbol exact-bitset range.
        #[test]
        fn interned_agrees_with_string_containment(raw in proptest::collection::vec(
            proptest::collection::btree_set(0u16..400, 0..12), 2..10)) {
            let sets: Vec<SchemaSet> = raw
                .iter()
                .map(|cols| SchemaSet::from_names(cols.iter().map(|c| format!("c{c}"))))
                .collect();
            let mut interner = SchemaInterner::new();
            let interned: Vec<InternedSchemaSet> =
                sets.iter().map(|s| interner.intern_set(s)).collect();
            for (i, a) in sets.iter().enumerate() {
                for (j, b) in sets.iter().enumerate() {
                    proptest::prop_assert_eq!(
                        interned[i].is_contained_in(&interned[j]),
                        a.is_contained_in(b),
                        "sets {} vs {}", i, j
                    );
                }
            }
        }
    }
}
