//! A minimal row/dataset abstraction shared by ingestion and the analytics
//! engine.
//!
//! Importers normalize heterogeneous upstream artifacts (CSV, JSON, …) into
//! this "standard row-based dataset format" (§2.2); the analytics store's
//! legacy baseline also interprets rows directly.

use std::sync::Arc;

use crate::{FxHashMap, Value};

/// A named-column schema shared by all rows of a [`Dataset`].
///
/// Shared via `Arc` so a million rows carry one schema allocation.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    schema: Arc<[String]>,
    cells: Vec<Value>,
}

impl Row {
    /// Build a row from a shared schema and its cells.
    ///
    /// # Panics
    /// Panics if `cells.len() != schema.len()` — rows are always rectangular.
    pub fn new(schema: Arc<[String]>, cells: Vec<Value>) -> Row {
        assert_eq!(schema.len(), cells.len(), "row width must match schema");
        Row { schema, cells }
    }

    /// The column names.
    pub fn schema(&self) -> &[String] {
        &self.schema
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.cells.len()
    }

    /// Cell by column name.
    pub fn get(&self, column: &str) -> Option<&Value> {
        let idx = self.schema.iter().position(|c| c == column)?;
        Some(&self.cells[idx])
    }

    /// Cell by position.
    pub fn at(&self, idx: usize) -> &Value {
        &self.cells[idx]
    }

    /// All cells.
    pub fn cells(&self) -> &[Value] {
        &self.cells
    }

    /// Mutable cell by column name.
    pub fn get_mut(&mut self, column: &str) -> Option<&mut Value> {
        let idx = self.schema.iter().position(|c| c == column)?;
        Some(&mut self.cells[idx])
    }
}

/// A rectangular, row-oriented dataset: the uniform representation importers
/// produce and transformers consume.
#[derive(Clone, Debug, Default)]
pub struct Dataset {
    schema: Arc<[String]>,
    rows: Vec<Row>,
}

impl Dataset {
    /// An empty dataset with the given column names.
    pub fn with_schema(columns: &[&str]) -> Dataset {
        let schema: Arc<[String]> = columns.iter().map(|c| c.to_string()).collect();
        Dataset {
            schema,
            rows: Vec::new(),
        }
    }

    /// The column names.
    pub fn schema(&self) -> &[String] {
        &self.schema
    }

    /// Append a row of cells (must match the schema width).
    pub fn push(&mut self, cells: Vec<Value>) {
        self.rows.push(Row::new(Arc::clone(&self.schema), cells));
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Iterate rows.
    pub fn iter(&self) -> impl Iterator<Item = &Row> {
        self.rows.iter()
    }

    /// Row by index.
    pub fn row(&self, idx: usize) -> &Row {
        &self.rows[idx]
    }

    /// Join this dataset with `other` on equality of `self_col` / `other_col`
    /// (inner hash join), producing a dataset whose schema is the
    /// concatenation (other's join column dropped).
    ///
    /// The data transformer uses this to combine multiple upstream artifacts
    /// into complete entities (e.g. raw artist info ⋈ artist popularity).
    pub fn hash_join(&self, other: &Dataset, self_col: &str, other_col: &str) -> Dataset {
        let other_key = other
            .schema
            .iter()
            .position(|c| c == other_col)
            .unwrap_or_else(|| panic!("join column {other_col} missing"));
        let self_key = self
            .schema
            .iter()
            .position(|c| c == self_col)
            .unwrap_or_else(|| panic!("join column {self_col} missing"));

        let mut index: FxHashMap<&Value, Vec<usize>> = FxHashMap::default();
        for (i, row) in other.rows.iter().enumerate() {
            index.entry(row.at(other_key)).or_default().push(i);
        }

        let out_cols: Vec<&str> = self
            .schema
            .iter()
            .map(String::as_str)
            .chain(
                other
                    .schema
                    .iter()
                    .filter(|c| *c != other_col)
                    .map(String::as_str),
            )
            .collect();
        let mut out = Dataset::with_schema(&out_cols);
        for row in &self.rows {
            if let Some(matches) = index.get(row.at(self_key)) {
                for &m in matches {
                    let mut cells = row.cells.to_vec();
                    let orow = &other.rows[m];
                    for (ci, cell) in orow.cells.iter().enumerate() {
                        if ci != other_key {
                            cells.push(cell.clone());
                        }
                    }
                    out.push(cells);
                }
            }
        }
        out
    }
}

impl<'a> IntoIterator for &'a Dataset {
    type Item = &'a Row;
    type IntoIter = std::slice::Iter<'a, Row>;
    fn into_iter(self) -> Self::IntoIter {
        self.rows.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artists() -> Dataset {
        let mut d = Dataset::with_schema(&["id", "name"]);
        d.push(vec![Value::str("a1"), Value::str("Billie Eilish")]);
        d.push(vec![Value::str("a2"), Value::str("Jay-Z")]);
        d
    }

    fn popularity() -> Dataset {
        let mut d = Dataset::with_schema(&["artist_id", "plays"]);
        d.push(vec![Value::str("a1"), Value::Int(1000)]);
        d.push(vec![Value::str("a2"), Value::Int(2000)]);
        d.push(vec![Value::str("a3"), Value::Int(5)]);
        d
    }

    #[test]
    fn row_access_by_name_and_index() {
        let d = artists();
        let r = d.row(0);
        assert_eq!(
            r.get("name").and_then(|v| v.as_str()),
            Some("Billie Eilish")
        );
        assert_eq!(r.at(0).as_str(), Some("a1"));
        assert_eq!(r.get("nope"), None);
        assert_eq!(r.width(), 2);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn ragged_rows_are_rejected() {
        let mut d = Dataset::with_schema(&["a", "b"]);
        d.push(vec![Value::Int(1)]);
    }

    #[test]
    fn hash_join_combines_artifacts() {
        let joined = artists().hash_join(&popularity(), "id", "artist_id");
        assert_eq!(joined.schema(), &["id", "name", "plays"]);
        assert_eq!(joined.len(), 2, "a3 has no artist row, inner join drops it");
        let r = joined
            .iter()
            .find(|r| r.get("id").unwrap().as_str() == Some("a1"))
            .unwrap();
        assert_eq!(r.get("plays").unwrap().as_int(), Some(1000));
    }

    #[test]
    fn hash_join_handles_duplicate_keys() {
        let mut left = Dataset::with_schema(&["id", "x"]);
        left.push(vec![Value::str("k"), Value::Int(1)]);
        let mut right = Dataset::with_schema(&["id", "y"]);
        right.push(vec![Value::str("k"), Value::Int(10)]);
        right.push(vec![Value::str("k"), Value::Int(20)]);
        let j = left.hash_join(&right, "id", "id");
        assert_eq!(j.len(), 2, "one-to-many join fans out");
    }

    #[test]
    fn get_mut_allows_in_place_normalization() {
        let mut d = artists();
        let row0 = d.rows.get_mut(0).unwrap();
        *row0.get_mut("name").unwrap() = Value::str("billie eilish");
        assert_eq!(
            d.row(0).get("name").unwrap().as_str(),
            Some("billie eilish")
        );
    }
}
