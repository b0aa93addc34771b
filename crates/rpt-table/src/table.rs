//! Tuples and tables.

use crate::schema::Schema;
use crate::value::Value;

/// A tuple: an ordered list of values conforming (positionally) to a
/// [`Schema`]. Per the paper, tuples are the atomic unit of both the data
/// cleaning task (mask one attribute value, recover it from the rest) and
/// the ER task (serialize two tuples, decide match / no-match).
#[derive(Debug, Clone, PartialEq)]
pub struct Tuple {
    values: Vec<Value>,
}

impl Tuple {
    /// Builds a tuple from values.
    pub fn new(values: Vec<Value>) -> Self {
        Self { values }
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Value at a column index.
    pub fn get(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    /// Mutable value at a column index.
    pub fn get_mut(&mut self, idx: usize) -> &mut Value {
        &mut self.values[idx]
    }

    /// Replaces the value at `idx`, returning the old one.
    pub fn replace(&mut self, idx: usize, value: Value) -> Value {
        std::mem::replace(&mut self.values[idx], value)
    }

    /// All values.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Projects onto the given column indices.
    pub fn project(&self, indices: &[usize]) -> Tuple {
        Tuple::new(indices.iter().map(|&i| self.values[i].clone()).collect())
    }

    /// Count of NULL attributes.
    pub fn null_count(&self) -> usize {
        self.values.iter().filter(|v| v.is_null()).count()
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple::new(values)
    }
}

/// A table: a schema plus a bag of tuples.
#[derive(Debug, Clone)]
pub struct Table {
    schema: Schema,
    tuples: Vec<Tuple>,
    name: String,
}

impl Table {
    /// An empty table.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        Self {
            schema,
            tuples: Vec::new(),
            name: name.into(),
        }
    }

    /// The table's name (used in experiment reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Appends a tuple.
    ///
    /// # Panics
    /// If the tuple arity does not match the schema.
    pub fn push(&mut self, tuple: Tuple) {
        assert_eq!(
            tuple.arity(),
            self.schema.arity(),
            "tuple arity {} does not match schema arity {} of table {}",
            tuple.arity(),
            self.schema.arity(),
            self.name
        );
        self.tuples.push(tuple);
    }

    /// Appends a tuple built from raw values.
    pub fn push_values(&mut self, values: Vec<Value>) {
        self.push(Tuple::new(values));
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True if the table has no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// All tuples.
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// Mutable tuples (error injection, repairs).
    pub fn tuples_mut(&mut self) -> &mut [Tuple] {
        &mut self.tuples
    }

    /// Tuple by row index.
    pub fn row(&self, idx: usize) -> &Tuple {
        &self.tuples[idx]
    }

    /// Values of one column across all rows.
    pub fn column(&self, idx: usize) -> Vec<&Value> {
        self.tuples.iter().map(|t| t.get(idx)).collect()
    }

    /// New table with only the given column indices.
    pub fn project(&self, indices: &[usize]) -> Table {
        let mut out = Table::new(self.name.clone(), self.schema.project(indices));
        for t in &self.tuples {
            out.push(t.project(indices));
        }
        out
    }

    /// New table with rows passing the predicate.
    pub fn filter(&self, pred: impl Fn(&Tuple) -> bool) -> Table {
        let mut out = Table::new(self.name.clone(), self.schema.clone());
        for t in &self.tuples {
            if pred(t) {
                out.push(t.clone());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnType;

    fn sample() -> Table {
        let mut t = Table::new(
            "products",
            Schema::of(&[
                ("title", ColumnType::Text),
                ("brand", ColumnType::Text),
                ("price", ColumnType::Float),
            ]),
        );
        t.push_values(vec!["iphone x".into(), "apple".into(), Value::Float(999.0)]);
        t.push_values(vec![
            "galaxy s9".into(),
            "samsung".into(),
            Value::Float(720.0),
        ]);
        t.push_values(vec!["pixel 3".into(), Value::Null, Value::Float(799.0)]);
        t
    }

    #[test]
    fn push_and_access() {
        let t = sample();
        assert_eq!(t.len(), 3);
        assert_eq!(t.row(0).get(1), &Value::text("apple"));
        assert_eq!(t.row(2).null_count(), 1);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let mut t = sample();
        t.push_values(vec!["just one".into()]);
    }

    #[test]
    fn project_and_filter() {
        let t = sample();
        let p = t.project(&[2, 0]);
        assert_eq!(p.schema().name(0), "price");
        assert_eq!(p.row(0).get(0), &Value::Float(999.0));

        let f = t.filter(|tu| tu.get(1).is_null());
        assert_eq!(f.len(), 1);
        assert_eq!(f.row(0).get(0), &Value::text("pixel 3"));
    }

    #[test]
    fn replace_swaps_value() {
        let mut t = sample();
        let old = t.tuples_mut()[0].replace(2, Value::Null);
        assert_eq!(old, Value::Float(999.0));
        assert!(t.row(0).get(2).is_null());
    }

    #[test]
    fn column_extraction() {
        let t = sample();
        let brands = t.column(1);
        assert_eq!(brands.len(), 3);
        assert!(brands[2].is_null());
    }
}
