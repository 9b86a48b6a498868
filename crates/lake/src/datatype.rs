//! Logical data types supported by the lake substrate.
//!
//! Enterprise data lakes in the R2D2 paper hold tabular datasets (digital
//! transactions, clickstream event logs) whose leaf columns are integers,
//! floating point numbers, strings, booleans and timestamps. The pipeline
//! treats timestamps and identifiers specially (they are good sampling keys
//! for Content-Level Pruning), so the type is carried explicitly.

/// Logical type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// Absence of a value; only used as the type of an all-null column.
    Null,
    /// Boolean column.
    Bool,
    /// 64-bit signed integer column.
    Int,
    /// 64-bit IEEE-754 floating point column.
    Float,
    /// UTF-8 string column.
    Utf8,
    /// Timestamp expressed as microseconds since the Unix epoch.
    Timestamp,
}

impl DataType {
    /// Returns `true` for types on which min/max pruning is meaningful.
    ///
    /// The paper's Min-Max Pruning step (§4.2) compares the minimum and
    /// maximum values of *numerical* columns; we additionally allow
    /// timestamps (stored as integers in partition metadata, exactly like
    /// parquet does) and strings (parquet also stores min/max for byte
    /// arrays). Booleans and nulls carry no useful range information.
    pub fn supports_min_max(&self) -> bool {
        matches!(
            self,
            DataType::Int | DataType::Float | DataType::Utf8 | DataType::Timestamp
        )
    }

    /// Returns `true` if the type is numeric (int, float or timestamp).
    pub fn is_numeric(&self) -> bool {
        matches!(self, DataType::Int | DataType::Float | DataType::Timestamp)
    }

    /// A short lowercase name used in schema dumps and the storage footer.
    pub fn name(&self) -> &'static str {
        match self {
            DataType::Null => "null",
            DataType::Bool => "bool",
            DataType::Int => "int",
            DataType::Float => "float",
            DataType::Utf8 => "utf8",
            DataType::Timestamp => "timestamp",
        }
    }

    /// Parse a type from its [`name`](Self::name).
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "null" => DataType::Null,
            "bool" => DataType::Bool,
            "int" => DataType::Int,
            "float" => DataType::Float,
            "utf8" => DataType::Utf8,
            "timestamp" => DataType::Timestamp,
            _ => return None,
        })
    }

    /// Stable one-byte tag used by the binary storage format.
    pub(crate) fn tag(&self) -> u8 {
        match self {
            DataType::Null => 0,
            DataType::Bool => 1,
            DataType::Int => 2,
            DataType::Float => 3,
            DataType::Utf8 => 4,
            DataType::Timestamp => 5,
        }
    }

    /// Inverse of [`tag`](Self::tag).
    pub(crate) fn from_tag(tag: u8) -> Option<Self> {
        Some(match tag {
            0 => DataType::Null,
            1 => DataType::Bool,
            2 => DataType::Int,
            3 => DataType::Float,
            4 => DataType::Utf8,
            5 => DataType::Timestamp,
            _ => return None,
        })
    }
}

impl std::fmt::Display for DataType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [DataType; 6] = [
        DataType::Null,
        DataType::Bool,
        DataType::Int,
        DataType::Float,
        DataType::Utf8,
        DataType::Timestamp,
    ];

    #[test]
    fn name_round_trips() {
        for dt in ALL {
            assert_eq!(DataType::from_name(dt.name()), Some(dt));
        }
        assert_eq!(DataType::from_name("decimal"), None);
    }

    #[test]
    fn tag_round_trips() {
        for dt in ALL {
            assert_eq!(DataType::from_tag(dt.tag()), Some(dt));
        }
        assert_eq!(DataType::from_tag(200), None);
    }

    #[test]
    fn min_max_support() {
        assert!(DataType::Int.supports_min_max());
        assert!(DataType::Float.supports_min_max());
        assert!(DataType::Timestamp.supports_min_max());
        assert!(DataType::Utf8.supports_min_max());
        assert!(!DataType::Bool.supports_min_max());
        assert!(!DataType::Null.supports_min_max());
    }

    #[test]
    fn numeric_classification() {
        assert!(DataType::Int.is_numeric());
        assert!(DataType::Timestamp.is_numeric());
        assert!(!DataType::Utf8.is_numeric());
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(DataType::Timestamp.to_string(), "timestamp");
    }
}
