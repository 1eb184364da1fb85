//! Plain (unauthenticated) query execution over tables.
//!
//! The publisher in `adp-core` layers verification-object construction on
//! top of these primitives; baselines use them directly. Executing a select
//! returns row *positions* alongside records because the authentication
//! layer needs positional context (neighbours, boundaries).

use crate::query::{JoinQuery, Predicate, SelectQuery};
use crate::record::Record;
use crate::table::{Row, Table};

/// One row of a select result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SelectedRow {
    /// Position of the row in the table's sort order.
    pub position: usize,
    /// Replica number.
    pub replica: u32,
    /// The (unprojected) record.
    pub record: Record,
}

/// The outcome of evaluating a select over a table: the matching rows plus,
/// for multipoint queries, the positions inside the key range whose rows
/// failed the non-key filters (the scheme must account for these,
/// Section 4.4).
#[derive(Clone, Debug, Default)]
pub struct SelectOutcome {
    pub matches: Vec<SelectedRow>,
    pub filtered_positions: Vec<usize>,
}

/// Evaluates all of `filters` against a record.
pub fn passes_filters(table: &Table, record: &Record, filters: &[Predicate]) -> bool {
    filters
        .iter()
        .all(|p| p.eval(table.schema(), record.values()))
}

/// Executes the selection part of `query` (range on key + non-key filters).
/// Projection and DISTINCT are applied by the caller, which may need the
/// unprojected rows for authentication.
pub fn execute_select(table: &Table, query: &SelectQuery) -> SelectOutcome {
    let mut out = SelectOutcome::default();
    for (pos, row) in table.scan_range(query.range.lo, query.range.hi) {
        if passes_filters(table, &row.record, &query.filters) {
            out.matches.push(SelectedRow {
                position: pos,
                replica: row.replica,
                record: row.record.clone(),
            });
        } else {
            out.filtered_positions.push(pos);
        }
    }
    out
}

/// Applies a projection to a record, given resolved column indices.
pub fn apply_projection(record: &Record, indices: &[usize]) -> Record {
    record.project(indices)
}

/// Deduplicates projected rows, preserving first occurrences.
/// Returns `(kept, eliminated)` as index lists into the input.
pub fn distinct_partition(projected: &[Record]) -> (Vec<usize>, Vec<usize>) {
    let mut seen: std::collections::HashSet<&Record> = std::collections::HashSet::new();
    let mut kept = Vec::new();
    let mut eliminated = Vec::new();
    for (i, r) in projected.iter().enumerate() {
        if seen.insert(r) {
            kept.push(i);
        } else {
            eliminated.push(i);
        }
    }
    (kept, eliminated)
}

/// One row of a join result: positions into both tables plus both records.
#[derive(Clone, Debug)]
pub struct JoinedRow {
    pub r_position: usize,
    pub s_position: usize,
    pub r_record: Record,
    pub s_record: Record,
}

/// Executes a pk-fk equi-join: for every R row in `fk_range`, finds the S
/// row whose primary key equals R's foreign key.
///
/// Referential integrity is asserted: the paper's Section 4.3 relies on
/// every `R.fk` instance having a matching `S.pk` so the join cannot drop
/// R rows.
pub fn execute_pkfk_join(r: &Table, s: &Table, query: &JoinQuery) -> Vec<JoinedRow> {
    assert_eq!(
        r.schema().key_name(),
        query.fk_column,
        "R must be sorted on the foreign-key column for authenticated joins"
    );
    assert_eq!(
        s.schema().key_name(),
        query.pk_column,
        "S must be sorted on the primary-key column"
    );
    let mut out = Vec::new();
    for (r_pos, r_row) in r.scan_range(query.fk_range.lo, query.fk_range.hi) {
        let fk = r_row.record.key(r.schema());
        let s_pos = s
            .position_of(fk, 0)
            .unwrap_or_else(|| panic!("referential integrity violated: fk {fk} has no pk match"));
        out.push(JoinedRow {
            r_position: r_pos,
            s_position: s_pos,
            r_record: r_row.record.clone(),
            s_record: s.row(s_pos).record.clone(),
        });
    }
    out
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

/// Finds contiguous runs of positions (used to describe multipoint results
/// as unions of ranges).
pub fn contiguous_runs(positions: &[usize]) -> Vec<(usize, usize)> {
    let mut runs = Vec::new();
    let mut it = positions.iter().copied();
    let Some(first) = it.next() else {
        return runs;
    };
    let (mut lo, mut hi) = (first, first);
    for p in it {
        if p == hi + 1 {
            hi = p;
        } else {
            runs.push((lo, hi));
            lo = p;
            hi = p;
        }
    }
    runs.push((lo, hi));
    runs
}

/// Convenience: full rows of a table as `SelectedRow`s (for baselines).
pub fn all_rows(table: &Table) -> Vec<SelectedRow> {
    table
        .iter()
        .enumerate()
        .map(|(position, Row { replica, record })| SelectedRow {
            position,
            replica: *replica,
            record: record.clone(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{CompareOp, KeyRange};
    use crate::schema::{Column, Schema};
    use crate::value::{Value, ValueType};

    /// The paper's Figure 1 Employee table.
    fn emp_table() -> Table {
        let schema = Schema::new(
            vec![
                Column::new("id", ValueType::Int),
                Column::new("name", ValueType::Text),
                Column::new("salary", ValueType::Int),
                Column::new("dept", ValueType::Int),
            ],
            "salary",
        );
        let mut t = Table::new("emp", schema);
        for (id, name, sal, dept) in [
            (5i64, "A", 2000i64, 1i64),
            (2, "C", 3500, 2),
            (1, "D", 8010, 1),
            (4, "B", 12100, 3),
            (3, "E", 25000, 2),
        ] {
            t.insert(Record::new(vec![
                Value::Int(id),
                Value::from(name),
                Value::Int(sal),
                Value::Int(dept),
            ]))
            .unwrap();
        }
        t
    }

    #[test]
    fn figure1_query() {
        // SELECT * FROM Emp WHERE Salary < 10000
        let t = emp_table();
        let q = SelectQuery::range(KeyRange::less_than(10_000));
        let out = execute_select(&t, &q);
        let ids: Vec<i64> = out
            .matches
            .iter()
            .map(|m| m.record.get(0).as_int().unwrap())
            .collect();
        assert_eq!(ids, vec![5, 2, 1]);
        assert!(out.filtered_positions.is_empty());
    }

    #[test]
    fn figure1_multipoint_query() {
        // SELECT * FROM Emp WHERE Salary < 10000 AND Dept = 1 (Section 4.4)
        let t = emp_table();
        let q = SelectQuery::range(KeyRange::less_than(10_000)).filter(Predicate::new(
            "dept",
            CompareOp::Eq,
            1i64,
        ));
        let out = execute_select(&t, &q);
        let ids: Vec<i64> = out
            .matches
            .iter()
            .map(|m| m.record.get(0).as_int().unwrap())
            .collect();
        assert_eq!(ids, vec![5, 1]);
        // [002, C, 3500, 2] at position 1 is inside the range but filtered.
        assert_eq!(out.filtered_positions, vec![1]);
    }

    #[test]
    fn empty_range() {
        let t = emp_table();
        let q = SelectQuery::range(KeyRange::closed(4000, 8000));
        let out = execute_select(&t, &q);
        assert!(out.matches.is_empty());
        assert!(out.filtered_positions.is_empty());
    }

    #[test]
    fn distinct_partitioning() {
        let rows: Vec<Record> = [1i64, 2, 1, 3, 2]
            .iter()
            .map(|v| Record::new(vec![Value::Int(*v)]))
            .collect();
        let (kept, eliminated) = distinct_partition(&rows);
        assert_eq!(kept, vec![0, 1, 3]);
        assert_eq!(eliminated, vec![2, 4]);
    }

    #[test]
    fn contiguous_run_detection() {
        assert_eq!(contiguous_runs(&[]), vec![]);
        assert_eq!(contiguous_runs(&[3]), vec![(3, 3)]);
        assert_eq!(
            contiguous_runs(&[1, 2, 3, 7, 8, 10]),
            vec![(1, 3), (7, 8), (10, 10)]
        );
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
    fn pkfk_join() {
        // Join employees (sorted on dept for this test) to departments.
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
        let s = dept_table();
        check_referential_integrity(&r, &s).unwrap();
        let q = JoinQuery {
            fk_column: "dept".into(),
            pk_column: "dept".into(),
            fk_range: KeyRange::closed(1, 2),
            r_projection: crate::query::Projection::All,
            s_projection: crate::query::Projection::All,
        };
        let joined = execute_pkfk_join(&r, &s, &q);
        assert_eq!(joined.len(), 4);
        for j in &joined {
            assert_eq!(
                j.r_record.key(r.schema()),
                j.s_record.key(s.schema()),
                "join keys must match"
            );
        }
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
