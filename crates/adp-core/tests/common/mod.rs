//! Fixtures shared by the attack-oriented integration suites. Each test
//! binary keeps its own `Owner` (seeds differ deliberately so suites don't
//! mask each other's key-dependent behavior), but the tables under attack
//! are defined once here.
#![allow(dead_code)] // each test binary uses a subset

use adp_relation::{Column, Record, Schema, Table, Value, ValueType};

/// 20 staff rows keyed on salary (1000, 1500, … 10500); `dept` cycles
/// 0,1,2 so adjacent result rows always differ in every non-key column
/// (keeps swap-style tampering a real mutation, never a no-op).
pub fn staff_table() -> Table {
    let schema = Schema::new(
        vec![
            Column::new("id", ValueType::Int),
            Column::new("name", ValueType::Text),
            Column::new("salary", ValueType::Int),
            Column::new("dept", ValueType::Int),
        ],
        "salary",
    );
    let mut t = Table::new("staff", schema);
    for i in 0..20i64 {
        t.insert(Record::new(vec![
            Value::Int(i),
            Value::from(format!("emp{i}")),
            Value::Int(1_000 + i * 500),
            Value::Int(i % 3),
        ]))
        .unwrap();
    }
    t
}

/// [`staff_table`]'s shape at `rows` rows keyed on salary (1000, 1010, …):
/// large enough that an answer over most of it is verified in chunks on
/// several threads.
pub fn large_staff_table(rows: i64) -> Table {
    let mut t = Table::new("staff", staff_table().schema().clone());
    for i in 0..rows {
        t.insert(Record::new(vec![
            Value::Int(i),
            Value::from(format!("emp{i}")),
            Value::Int(1_000 + i * 10),
            Value::Int(i % 3),
        ]))
        .unwrap();
    }
    t
}

/// Employees sorted on their dept foreign key: 6 rows over depts
/// {10, 20, 30, 40}, referentially contained in [`dept_table`].
pub fn emp_by_dept() -> Table {
    let schema = Schema::new(
        vec![
            Column::new("id", ValueType::Int),
            Column::new("name", ValueType::Text),
            Column::new("dept", ValueType::Int),
        ],
        "dept",
    );
    let mut t = Table::new("emp", schema);
    for (id, name, dept) in [
        (5i64, "A", 10i64),
        (1, "D", 10),
        (2, "C", 20),
        (3, "E", 20),
        (4, "B", 30),
        (6, "F", 40),
    ] {
        t.insert(Record::new(vec![
            Value::Int(id),
            Value::from(name),
            Value::Int(dept),
        ]))
        .unwrap();
    }
    t
}

/// Salary caps keyed on `cap`, the S side of the band join
/// `staff.salary ≤ caps.cap`: max cap 7300 lands mid-way through
/// [`staff_table`]'s salaries, so the R partition is a non-trivial prefix
/// (13 of 20 rows) with enough interior for every tampering strategy.
pub fn band_caps_table() -> Table {
    let schema = Schema::new(
        vec![
            Column::new("cap", ValueType::Int),
            Column::new("grade", ValueType::Text),
        ],
        "cap",
    );
    let mut t = Table::new("caps", schema);
    for (cap, grade) in [(2_600i64, "junior"), (4_100, "mid"), (7_300, "senior")] {
        t.insert(Record::new(vec![Value::Int(cap), Value::from(grade)]))
            .unwrap();
    }
    t
}

/// Departments keyed on dept id: 5 rows, one (legal/50) never joined.
pub fn dept_table() -> Table {
    let schema = Schema::new(
        vec![
            Column::new("dept", ValueType::Int),
            Column::new("dname", ValueType::Text),
            Column::new("budget", ValueType::Int),
        ],
        "dept",
    );
    let mut t = Table::new("dept", schema);
    for (d, n, b) in [
        (10i64, "eng", 500i64),
        (20, "sales", 300),
        (30, "hr", 100),
        (40, "ops", 200),
        (50, "legal", 50),
    ] {
        t.insert(Record::new(vec![
            Value::Int(d),
            Value::from(n),
            Value::Int(b),
        ]))
        .unwrap();
    }
    t
}
