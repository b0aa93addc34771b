//! Schemas: ordered, named, loosely-typed columns.

use std::fmt;

/// Declared column type. Values are not strictly validated against it —
/// real-world tables are dirty, which is the paper's point — but the type
/// guides profiling and the numeric-closeness evaluation metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnType {
    /// Free text / categorical.
    Text,
    /// Integer-valued.
    Int,
    /// Real-valued.
    Float,
}

/// An ordered list of named columns.
#[derive(Debug, Clone, PartialEq)]
pub struct Schema {
    columns: Vec<(String, ColumnType)>,
}

impl Schema {
    /// Builds a schema from `(name, type)` pairs.
    ///
    /// # Panics
    /// If column names are not unique.
    pub fn new(columns: Vec<(String, ColumnType)>) -> Self {
        for (i, (name, _)) in columns.iter().enumerate() {
            assert!(
                !columns[..i].iter().any(|(n, _)| n == name),
                "duplicate column name: {name}"
            );
        }
        Self { columns }
    }

    /// Convenience constructor from `&str` names.
    pub fn of(columns: &[(&str, ColumnType)]) -> Self {
        Self::new(columns.iter().map(|(n, t)| (n.to_string(), *t)).collect())
    }

    /// All-text schema from names (the common case for web-table data).
    pub fn text_columns(names: &[&str]) -> Self {
        Self::new(
            names
                .iter()
                .map(|n| (n.to_string(), ColumnType::Text))
                .collect(),
        )
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Column name by index.
    pub fn name(&self, idx: usize) -> &str {
        &self.columns[idx].0
    }

    /// Column type by index.
    pub fn column_type(&self, idx: usize) -> ColumnType {
        self.columns[idx].1
    }

    /// Index of the column with this name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|(n, _)| n == name)
    }

    /// Iterator over column names.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.columns.iter().map(|(n, _)| n.as_str())
    }

    /// Schema restricted to the given column indices (in the given order).
    pub fn project(&self, indices: &[usize]) -> Schema {
        Schema::new(indices.iter().map(|&i| self.columns[i].clone()).collect())
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (name, ty)) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{name}:{ty:?}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_of_and_names() {
        let s = Schema::text_columns(&["title", "brand", "price"]);
        assert_eq!(s.arity(), 3);
        assert_eq!(s.index_of("brand"), Some(1));
        assert_eq!(s.index_of("missing"), None);
        assert_eq!(
            s.names().collect::<Vec<_>>(),
            vec!["title", "brand", "price"]
        );
    }

    #[test]
    fn project_reorders() {
        let s = Schema::of(&[("a", ColumnType::Text), ("b", ColumnType::Int)]);
        let p = s.project(&[1, 0]);
        assert_eq!(p.name(0), "b");
        assert_eq!(p.column_type(0), ColumnType::Int);
        assert_eq!(p.name(1), "a");
    }

    #[test]
    #[should_panic(expected = "duplicate column name")]
    fn duplicate_columns_rejected() {
        Schema::text_columns(&["x", "x"]);
    }

    #[test]
    fn display_lists_columns() {
        let s = Schema::of(&[("a", ColumnType::Text), ("n", ColumnType::Float)]);
        assert_eq!(s.to_string(), "a:Text, n:Float");
    }
}
