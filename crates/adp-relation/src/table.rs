//! In-memory tables kept sorted on the key attribute.
//!
//! Duplicate key values are allowed: following Section 3.1 of the paper
//! ("duplicate values can be disambiguated by appending a replica number"),
//! each row carries a `replica` number making `(key, replica)` unique, and
//! rows are maintained in `(key, replica)` order.
//!
//! Rows live in a [`CowVec`], so cloning a table is `O(1)` and the clone
//! shares every row an insert, removal or update does not touch — which is
//! what lets a served table be re-published per update batch at the cost
//! of the batch.

use crate::cowvec::CowVec;
use crate::record::Record;
use crate::schema::{Schema, SchemaError};
use std::fmt;
use std::ops::{Bound, Range};
use std::sync::OnceLock;

/// A row: the record plus its replica disambiguator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Row {
    pub replica: u32,
    pub record: Record,
}

impl Row {
    /// The `(key, replica)` sort pair.
    pub fn sort_key(&self, schema: &Schema) -> (i64, u32) {
        (self.record.key(schema), self.replica)
    }
}

/// The contiguous copy of the rows that [`Table::rows`] hands out, built
/// when first asked for. It belongs to one state of one table: a clone
/// starts without it and every mutation discards it.
#[derive(Debug, Default)]
struct FlatRows(OnceLock<Box<[Row]>>);

impl Clone for FlatRows {
    fn clone(&self) -> Self {
        FlatRows::default()
    }
}

/// A relation sorted on its key attribute.
#[derive(Clone, Debug)]
pub struct Table {
    name: String,
    schema: Schema,
    rows: CowVec<Row>,
    flat: FlatRows,
}

impl Table {
    /// Creates an empty table.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        Table {
            name: name.into(),
            schema,
            rows: CowVec::new(),
            flat: FlatRows::default(),
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True iff the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// All rows in `(key, replica)` order, as one slice. The first call
    /// after a mutation (or on a fresh clone) copies the row handles into
    /// contiguous memory, `O(n)`; code on a query or update path uses
    /// [`Table::iter`], [`Table::row`] or [`Table::scan_range`] instead.
    /// Hidden from the docs: it stays for the frozen `adpbench` sources and
    /// goes once they read rows through [`Table::iter`].
    #[doc(hidden)]
    pub fn rows(&self) -> &[Row] {
        self.flat
            .0
            .get_or_init(|| self.rows.iter().cloned().collect())
    }

    /// All rows in `(key, replica)` order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &Row> {
        self.rows.iter()
    }

    /// The rows at `positions`, in order.
    pub fn range(&self, positions: Range<usize>) -> impl ExactSizeIterator<Item = &Row> {
        self.rows.range(positions)
    }

    /// Row at a position.
    pub fn row(&self, pos: usize) -> &Row {
        &self.rows[pos]
    }

    /// Validates and inserts a record, assigning the next replica number for
    /// its key. Returns the insertion position.
    pub fn insert(&mut self, record: Record) -> Result<usize, SchemaError> {
        self.schema.validate(record.values())?;
        let key = record.key(&self.schema);
        // Position after the last row with this key.
        let pos = self
            .rows
            .partition_point(|r| r.record.key(&self.schema) <= key);
        let replica = if pos > 0 && self.rows[pos - 1].record.key(&self.schema) == key {
            self.rows[pos - 1].replica + 1
        } else {
            0
        };
        self.flat = FlatRows::default();
        self.rows.insert(pos, Row { replica, record });
        Ok(pos)
    }

    /// Removes the row at `pos`, returning it.
    pub fn remove_at(&mut self, pos: usize) -> Row {
        self.flat = FlatRows::default();
        self.rows.remove(pos)
    }

    /// Finds the position of `(key, replica)`.
    pub fn position_of(&self, key: i64, replica: u32) -> Option<usize> {
        let start = self
            .rows
            .partition_point(|r| r.sort_key(&self.schema) < (key, replica));
        if start < self.rows.len() && self.rows[start].sort_key(&self.schema) == (key, replica) {
            Some(start)
        } else {
            None
        }
    }

    /// Positions of rows whose key lies within the given bounds.
    /// Returns a half-open position range `[lo, hi)`.
    pub fn key_range_positions(&self, lo: Bound<i64>, hi: Bound<i64>) -> (usize, usize) {
        let start = match lo {
            Bound::Unbounded => 0,
            Bound::Included(a) => self
                .rows
                .partition_point(|r| r.record.key(&self.schema) < a),
            Bound::Excluded(a) => self
                .rows
                .partition_point(|r| r.record.key(&self.schema) <= a),
        };
        let end = match hi {
            Bound::Unbounded => self.rows.len(),
            Bound::Included(b) => self
                .rows
                .partition_point(|r| r.record.key(&self.schema) <= b),
            Bound::Excluded(b) => self
                .rows
                .partition_point(|r| r.record.key(&self.schema) < b),
        };
        (start, end.max(start))
    }

    /// Iterates rows whose key lies within the bounds.
    pub fn scan_range(
        &self,
        lo: Bound<i64>,
        hi: Bound<i64>,
    ) -> impl Iterator<Item = (usize, &Row)> {
        let (s, e) = self.key_range_positions(lo, hi);
        (s..e).zip(self.range(s..e))
    }

    /// Replaces non-key attributes of the row at `pos` in place.
    ///
    /// # Panics
    /// If the new values change the key attribute (use remove + insert for
    /// key changes, which relocates the row).
    pub fn update_in_place(&mut self, pos: usize, record: Record) -> Result<(), SchemaError> {
        self.schema.validate(record.values())?;
        assert_eq!(
            record.key(&self.schema),
            self.rows[pos].record.key(&self.schema),
            "update_in_place cannot change the key attribute"
        );
        self.flat = FlatRows::default();
        self.rows[pos].record = record;
        Ok(())
    }

    /// Minimum and maximum key values, or `None` when empty.
    pub fn key_extent(&self) -> Option<(i64, i64)> {
        if self.rows.is_empty() {
            None
        } else {
            Some((
                self.rows[0].record.key(&self.schema),
                self.rows[self.rows.len() - 1].record.key(&self.schema),
            ))
        }
    }

    /// Builds a table from records (bulk load).
    pub fn from_records(
        name: impl Into<String>,
        schema: Schema,
        records: Vec<Record>,
    ) -> Result<Self, SchemaError> {
        let mut t = Table::new(name, schema);
        // Validate first so a failed bulk load leaves nothing half-inserted.
        for r in &records {
            t.schema.validate(r.values())?;
        }
        let key_idx = t.schema.key_index();
        let mut rows: Vec<Row> = records
            .into_iter()
            .map(|record| Row { replica: 0, record })
            .collect();
        rows.sort_by_key(|r| r.record.get(key_idx).as_int().unwrap());
        // Assign replica numbers within equal-key runs.
        let mut i = 0;
        while i < rows.len() {
            let k = rows[i].record.get(key_idx).as_int().unwrap();
            let mut repl = 0;
            let mut j = i;
            while j < rows.len() && rows[j].record.get(key_idx).as_int().unwrap() == k {
                rows[j].replica = repl;
                repl += 1;
                j += 1;
            }
            i = j;
        }
        t.rows = rows.into();
        Ok(t)
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "TABLE {} ({} rows)", self.name, self.rows.len())?;
        for row in self.iter().take(20) {
            writeln!(f, "  {}", row.record)?;
        }
        if self.rows.len() > 20 {
            writeln!(f, "  … {} more", self.rows.len() - 20)?;
        }
        Ok(())
    }
}

/// Checks referential integrity of `r.fk ⊆ s.pk` (every fk value has a
/// pk match and pk values are unique).
pub fn check_referential_integrity(r: &Table, s: &Table) -> Result<(), String> {
    // pk uniqueness: replica numbers beyond 0 mean duplicates.
    for row in s.iter() {
        if row.replica != 0 {
            return Err(format!(
                "primary key {} duplicated in {}",
                row.record.key(s.schema()),
                s.name()
            ));
        }
    }
    for row in r.iter() {
        let fk = row.record.key(r.schema());
        if s.position_of(fk, 0).is_none() {
            return Err(format!(
                "foreign key {fk} in {} has no match in {}",
                r.name(),
                s.name()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::value::{Value, ValueType};

    fn schema() -> Schema {
        Schema::new(
            vec![
                Column::new("id", ValueType::Int),
                Column::new("salary", ValueType::Int),
            ],
            "salary",
        )
    }

    fn rec(id: i64, salary: i64) -> Record {
        Record::new(vec![Value::Int(id), Value::Int(salary)])
    }

    #[test]
    fn insert_keeps_sorted_order() {
        let mut t = Table::new("emp", schema());
        for (id, sal) in [(4, 12100), (5, 2000), (1, 8010), (2, 3500), (3, 25000)] {
            t.insert(rec(id, sal)).unwrap();
        }
        let keys: Vec<i64> = t.rows().iter().map(|r| r.record.key(t.schema())).collect();
        assert_eq!(keys, vec![2000, 3500, 8010, 12100, 25000]);
    }

    #[test]
    fn duplicate_keys_get_replicas() {
        let mut t = Table::new("t", schema());
        t.insert(rec(1, 100)).unwrap();
        t.insert(rec(2, 100)).unwrap();
        t.insert(rec(3, 100)).unwrap();
        let replicas: Vec<u32> = t.rows().iter().map(|r| r.replica).collect();
        assert_eq!(replicas, vec![0, 1, 2]);
        assert!(t.position_of(100, 1).is_some());
        assert!(t.position_of(100, 3).is_none());
    }

    #[test]
    fn range_positions() {
        let mut t = Table::new("t", schema());
        for sal in [2000, 3500, 8010, 12100, 25000] {
            t.insert(rec(0, sal)).unwrap();
        }
        // salary < 10000 → first three rows.
        assert_eq!(
            t.key_range_positions(Bound::Unbounded, Bound::Excluded(10000)),
            (0, 3)
        );
        // 3500 <= salary <= 12100.
        assert_eq!(
            t.key_range_positions(Bound::Included(3500), Bound::Included(12100)),
            (1, 4)
        );
        // Empty range.
        assert_eq!(
            t.key_range_positions(Bound::Included(26000), Bound::Unbounded),
            (5, 5)
        );
        assert_eq!(
            t.key_range_positions(Bound::Excluded(8010), Bound::Excluded(8010)),
            (3, 3)
        );
    }

    #[test]
    fn scan_range_yields_positions() {
        let mut t = Table::new("t", schema());
        for sal in [10, 20, 30] {
            t.insert(rec(0, sal)).unwrap();
        }
        let got: Vec<(usize, i64)> = t
            .scan_range(Bound::Included(15), Bound::Unbounded)
            .map(|(i, r)| (i, r.record.key(t.schema())))
            .collect();
        assert_eq!(got, vec![(1, 20), (2, 30)]);
    }

    #[test]
    fn bulk_load_assigns_replicas() {
        let t = Table::from_records(
            "t",
            schema(),
            vec![rec(1, 5), rec(2, 5), rec(3, 1), rec(4, 5)],
        )
        .unwrap();
        let pairs: Vec<(i64, u32)> = t.rows().iter().map(|r| r.sort_key(t.schema())).collect();
        assert_eq!(pairs, vec![(1, 0), (5, 0), (5, 1), (5, 2)]);
    }

    #[test]
    fn update_in_place_rejects_key_change() {
        let mut t = Table::new("t", schema());
        t.insert(rec(1, 100)).unwrap();
        assert!(t.update_in_place(0, rec(9, 100)).is_ok());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = t.update_in_place(0, rec(9, 999));
        }));
        assert!(result.is_err());
    }

    #[test]
    fn schema_violations_rejected() {
        let mut t = Table::new("t", schema());
        assert!(t
            .insert(Record::new(vec![Value::from("x"), Value::Int(1)]))
            .is_err());
        assert!(t.insert(Record::new(vec![Value::Int(1)])).is_err());
    }

    #[test]
    fn key_extent() {
        let mut t = Table::new("t", schema());
        assert_eq!(t.key_extent(), None);
        t.insert(rec(1, 7)).unwrap();
        t.insert(rec(2, 3)).unwrap();
        assert_eq!(t.key_extent(), Some((3, 7)));
    }

    fn dept_table() -> Table {
        let schema = Schema::new(
            vec![
                Column::new("dept", ValueType::Int),
                Column::new("dname", ValueType::Text),
            ],
            "dept",
        );
        let mut t = Table::new("dept", schema);
        for (d, n) in [(1i64, "eng"), (2, "sales"), (3, "hr")] {
            t.insert(Record::new(vec![Value::Int(d), Value::from(n)]))
                .unwrap();
        }
        t
    }

    #[test]
    fn referential_integrity_holds() {
        let schema = Schema::new(
            vec![
                Column::new("id", ValueType::Int),
                Column::new("dept", ValueType::Int),
            ],
            "dept",
        );
        let mut r = Table::new("emp_by_dept", schema);
        for (id, d) in [(5i64, 1i64), (1, 1), (2, 2), (3, 2), (4, 3)] {
            r.insert(Record::new(vec![Value::Int(id), Value::Int(d)]))
                .unwrap();
        }
        check_referential_integrity(&r, &dept_table()).unwrap();
    }

    #[test]
    fn referential_integrity_detects_orphan() {
        let schema = Schema::new(vec![Column::new("dept", ValueType::Int)], "dept");
        let mut r = Table::new("r", schema.clone());
        r.insert(Record::new(vec![Value::Int(99)])).unwrap();
        let s = dept_table();
        assert!(check_referential_integrity(&r, &s).is_err());
    }

    #[test]
    fn referential_integrity_detects_duplicate_pk() {
        let r = dept_table();
        let schema = Schema::new(vec![Column::new("dept", ValueType::Int)], "dept");
        let mut s = Table::new("s", schema);
        s.insert(Record::new(vec![Value::Int(1)])).unwrap();
        s.insert(Record::new(vec![Value::Int(1)])).unwrap();
        assert!(check_referential_integrity(&r, &s).is_err());
    }
}
