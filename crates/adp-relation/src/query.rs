//! Query abstract syntax: selection predicates, projections, range bounds,
//! and the select query form the paper's scheme supports (Section 4: σ and
//! π, plus multipoint selections on non-key attributes). `adp-core` builds
//! its pk-fk and band joins from these parts.

use crate::record::Record;
use crate::schema::Schema;
use crate::table::Table;
use crate::value::Value;
use std::fmt;
use std::ops::Bound;

/// Comparison operators (the paper's Θ ∈ {=, ≠, <, ≤, >, ≥}).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CompareOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CompareOp {
    /// Evaluates `left Θ right`; `None` if the values are not comparable.
    pub fn eval(&self, left: &Value, right: &Value) -> Option<bool> {
        let ord = left.partial_cmp_typed(right)?;
        Some(match self {
            CompareOp::Eq => ord.is_eq(),
            CompareOp::Ne => ord.is_ne(),
            CompareOp::Lt => ord.is_lt(),
            CompareOp::Le => ord.is_le(),
            CompareOp::Gt => ord.is_gt(),
            CompareOp::Ge => ord.is_ge(),
        })
    }
}

impl fmt::Display for CompareOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CompareOp::Eq => "=",
            CompareOp::Ne => "!=",
            CompareOp::Lt => "<",
            CompareOp::Le => "<=",
            CompareOp::Gt => ">",
            CompareOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// A predicate `column Θ constant`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Predicate {
    pub column: String,
    pub op: CompareOp,
    pub value: Value,
}

impl Predicate {
    /// Shorthand constructor.
    pub fn new(column: impl Into<String>, op: CompareOp, value: impl Into<Value>) -> Self {
        Predicate {
            column: column.into(),
            op,
            value: value.into(),
        }
    }

    /// Evaluates the predicate against record values (positionally resolved
    /// through the schema). Unknown columns or type mismatches evaluate to
    /// false.
    pub fn eval(&self, schema: &Schema, values: &[Value]) -> bool {
        schema
            .column_index(&self.column)
            .and_then(|i| self.op.eval(&values[i], &self.value))
            .unwrap_or(false)
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.column, self.op, self.value)
    }
}

/// A closed/open/unbounded key interval `[α, β]` on the sort attribute.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KeyRange {
    pub lo: Bound<i64>,
    pub hi: Bound<i64>,
}

impl KeyRange {
    /// The full domain.
    pub fn all() -> Self {
        KeyRange {
            lo: Bound::Unbounded,
            hi: Bound::Unbounded,
        }
    }

    /// `α ≤ K ≤ β`.
    pub fn closed(alpha: i64, beta: i64) -> Self {
        KeyRange {
            lo: Bound::Included(alpha),
            hi: Bound::Included(beta),
        }
    }

    /// `K ≥ α` (the Section 3.1 greater-than predicate form).
    pub fn at_least(alpha: i64) -> Self {
        KeyRange {
            lo: Bound::Included(alpha),
            hi: Bound::Unbounded,
        }
    }

    /// `K < β`.
    pub fn less_than(beta: i64) -> Self {
        KeyRange {
            lo: Bound::Unbounded,
            hi: Bound::Excluded(beta),
        }
    }

    /// `K = v`, i.e. `v ≤ K ≤ v` (Section 4.1: equality reduces to range).
    pub fn point(v: i64) -> Self {
        KeyRange::closed(v, v)
    }

    /// Whether `k` lies inside the range.
    pub fn contains(&self, k: i64) -> bool {
        let above = match self.lo {
            Bound::Unbounded => true,
            Bound::Included(a) => k >= a,
            Bound::Excluded(a) => k > a,
        };
        let below = match self.hi {
            Bound::Unbounded => true,
            Bound::Included(b) => k <= b,
            Bound::Excluded(b) => k < b,
        };
        above && below
    }

    /// Intersects with another range (used by access-control rewriting).
    pub fn intersect(&self, other: &KeyRange) -> KeyRange {
        fn tighter_lo(a: Bound<i64>, b: Bound<i64>) -> Bound<i64> {
            match (a, b) {
                (Bound::Unbounded, x) | (x, Bound::Unbounded) => x,
                (Bound::Included(x), Bound::Included(y)) => Bound::Included(x.max(y)),
                (Bound::Excluded(x), Bound::Excluded(y)) => Bound::Excluded(x.max(y)),
                (Bound::Included(x), Bound::Excluded(y))
                | (Bound::Excluded(y), Bound::Included(x)) => {
                    if y >= x {
                        Bound::Excluded(y)
                    } else {
                        Bound::Included(x)
                    }
                }
            }
        }
        fn tighter_hi(a: Bound<i64>, b: Bound<i64>) -> Bound<i64> {
            match (a, b) {
                (Bound::Unbounded, x) | (x, Bound::Unbounded) => x,
                (Bound::Included(x), Bound::Included(y)) => Bound::Included(x.min(y)),
                (Bound::Excluded(x), Bound::Excluded(y)) => Bound::Excluded(x.min(y)),
                (Bound::Included(x), Bound::Excluded(y))
                | (Bound::Excluded(y), Bound::Included(x)) => {
                    if y <= x {
                        Bound::Excluded(y)
                    } else {
                        Bound::Included(x)
                    }
                }
            }
        }
        KeyRange {
            lo: tighter_lo(self.lo, other.lo),
            hi: tighter_hi(self.hi, other.hi),
        }
    }

    /// Derives a key range from a predicate on the key column, if the
    /// operator is range-expressible (`≠` is not; the paper maps it to a
    /// union of two ranges, which callers handle as two queries).
    pub fn from_predicate(p: &Predicate) -> Option<KeyRange> {
        let v = p.value.as_int()?;
        Some(match p.op {
            CompareOp::Eq => KeyRange::point(v),
            CompareOp::Lt => KeyRange {
                lo: Bound::Unbounded,
                hi: Bound::Excluded(v),
            },
            CompareOp::Le => KeyRange {
                lo: Bound::Unbounded,
                hi: Bound::Included(v),
            },
            CompareOp::Gt => KeyRange {
                lo: Bound::Excluded(v),
                hi: Bound::Unbounded,
            },
            CompareOp::Ge => KeyRange {
                lo: Bound::Included(v),
                hi: Bound::Unbounded,
            },
            CompareOp::Ne => return None,
        })
    }
}

impl fmt::Display for KeyRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.lo {
            Bound::Unbounded => write!(f, "(-∞")?,
            Bound::Included(a) => write!(f, "[{a}")?,
            Bound::Excluded(a) => write!(f, "({a}")?,
        }
        write!(f, ", ")?;
        match self.hi {
            Bound::Unbounded => write!(f, "+∞)"),
            Bound::Included(b) => write!(f, "{b}]"),
            Bound::Excluded(b) => write!(f, "{b})"),
        }
    }
}

/// Projection: all columns or a named subset. The key attribute is always
/// retained in verified results (the user needs it to check completeness;
/// Section 4.2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Projection {
    All,
    Columns(Vec<String>),
}

impl Projection {
    /// Resolves to column indices. Unknown columns are rejected.
    pub fn resolve(&self, schema: &Schema) -> Option<Vec<usize>> {
        match self {
            Projection::All => Some((0..schema.arity()).collect()),
            Projection::Columns(names) => names.iter().map(|n| schema.column_index(n)).collect(),
        }
    }

    /// Whether a column index is kept.
    pub fn keeps(&self, schema: &Schema, index: usize) -> bool {
        match self {
            Projection::All => true,
            Projection::Columns(names) => {
                names.iter().any(|n| schema.column_index(n) == Some(index))
            }
        }
    }
}

/// A select-project query over a single table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SelectQuery {
    /// Range condition on the sort attribute `K` (`α ≤ K ≤ β`).
    pub range: KeyRange,
    /// Additional predicates on non-key attributes (making the query a
    /// *multipoint* query, Section 4.4).
    pub filters: Vec<Predicate>,
    /// Projection list.
    pub projection: Projection,
    /// SQL DISTINCT (Section 4.2 duplicate handling).
    pub distinct: bool,
}

impl SelectQuery {
    /// Selects a key range with all columns.
    pub fn range(range: KeyRange) -> Self {
        SelectQuery {
            range,
            filters: Vec::new(),
            projection: Projection::All,
            distinct: false,
        }
    }

    /// Builder: adds a non-key filter.
    pub fn filter(mut self, p: Predicate) -> Self {
        self.filters.push(p);
        self
    }

    /// Builder: sets the projection.
    pub fn project(mut self, columns: &[&str]) -> Self {
        self.projection = Projection::Columns(columns.iter().map(|s| s.to_string()).collect());
        self
    }

    /// Builder: requests duplicate elimination.
    pub fn distinct(mut self) -> Self {
        self.distinct = true;
        self
    }

    /// True iff the query has non-key filters (multipoint form).
    pub fn is_multipoint(&self) -> bool {
        !self.filters.is_empty()
    }
}

/// Evaluates all of `filters` against a record.
pub fn passes_filters(table: &Table, record: &Record, filters: &[Predicate]) -> bool {
    filters
        .iter()
        .all(|p| p.eval(table.schema(), record.values()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::value::ValueType;

    fn schema() -> Schema {
        Schema::new(
            vec![
                Column::new("id", ValueType::Int),
                Column::new("name", ValueType::Text),
                Column::new("salary", ValueType::Int),
            ],
            "salary",
        )
    }

    #[test]
    fn compare_ops() {
        use CompareOp::*;
        let three = Value::Int(3);
        let five = Value::Int(5);
        assert_eq!(Lt.eval(&three, &five), Some(true));
        assert_eq!(Ge.eval(&three, &five), Some(false));
        assert_eq!(Eq.eval(&three, &three), Some(true));
        assert_eq!(Ne.eval(&three, &five), Some(true));
        assert_eq!(Le.eval(&three, &three), Some(true));
        assert_eq!(Gt.eval(&five, &three), Some(true));
        assert_eq!(Eq.eval(&three, &Value::from("3")), None);
    }

    #[test]
    fn predicate_eval() {
        let s = schema();
        let vals = vec![Value::Int(1), Value::from("A"), Value::Int(2000)];
        assert!(Predicate::new("salary", CompareOp::Lt, 10_000i64).eval(&s, &vals));
        assert!(!Predicate::new("salary", CompareOp::Gt, 10_000i64).eval(&s, &vals));
        assert!(!Predicate::new("missing", CompareOp::Eq, 1i64).eval(&s, &vals));
        // Type mismatch → false.
        assert!(!Predicate::new("name", CompareOp::Eq, 5i64).eval(&s, &vals));
    }

    #[test]
    fn range_contains() {
        let r = KeyRange::closed(10, 20);
        assert!(r.contains(10) && r.contains(20) && r.contains(15));
        assert!(!r.contains(9) && !r.contains(21));
        let r = KeyRange {
            lo: Bound::Excluded(10),
            hi: Bound::Excluded(20),
        };
        assert!(!r.contains(10) && !r.contains(20) && r.contains(11));
        assert!(KeyRange::all().contains(i64::MIN) && KeyRange::all().contains(i64::MAX));
    }

    #[test]
    fn range_intersection() {
        let a = KeyRange::closed(0, 100);
        let b = KeyRange::less_than(50);
        let c = a.intersect(&b);
        assert!(c.contains(0) && c.contains(49));
        assert!(!c.contains(50) && !c.contains(101));
        // Same endpoint, mixed bounds: exclusive wins.
        let d = KeyRange::closed(0, 50).intersect(&KeyRange::less_than(50));
        assert!(!d.contains(50));
        assert!(d.contains(49));
    }

    #[test]
    fn range_from_predicate() {
        let p = Predicate::new("salary", CompareOp::Lt, 10_000i64);
        let r = KeyRange::from_predicate(&p).unwrap();
        assert!(r.contains(9999) && !r.contains(10_000));
        assert_eq!(
            KeyRange::from_predicate(&Predicate::new("k", CompareOp::Eq, 5i64)),
            Some(KeyRange::point(5))
        );
        assert!(KeyRange::from_predicate(&Predicate::new("k", CompareOp::Ne, 5i64)).is_none());
    }

    #[test]
    fn projection_resolution() {
        let s = schema();
        assert_eq!(Projection::All.resolve(&s), Some(vec![0, 1, 2]));
        let p = Projection::Columns(vec!["salary".into(), "id".into()]);
        assert_eq!(p.resolve(&s), Some(vec![2, 0]));
        assert!(p.keeps(&s, 0) && !p.keeps(&s, 1));
        let bad = Projection::Columns(vec!["nope".into()]);
        assert_eq!(bad.resolve(&s), None);
    }

    #[test]
    fn select_builder() {
        let q = SelectQuery::range(KeyRange::less_than(10_000))
            .filter(Predicate::new("dept", CompareOp::Eq, 1i64))
            .project(&["id", "salary"])
            .distinct();
        assert!(q.is_multipoint());
        assert!(q.distinct);
        assert_eq!(
            q.projection,
            Projection::Columns(vec!["id".into(), "salary".into()])
        );
    }

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

    /// The publisher's selection: the key range on the sort order, then
    /// `passes_filters`. Returns the matching ids and the positions inside
    /// the range whose rows the filters removed.
    fn select(t: &Table, q: &SelectQuery) -> (Vec<i64>, Vec<usize>) {
        let (kept, filtered): (Vec<_>, Vec<_>) = t
            .scan_range(q.range.lo, q.range.hi)
            .partition(|(_, row)| passes_filters(t, &row.record, &q.filters));
        let ids = kept
            .iter()
            .map(|(_, row)| row.record.get(0).as_int().unwrap())
            .collect();
        (ids, filtered.iter().map(|(pos, _)| *pos).collect())
    }

    #[test]
    fn figure1_query() {
        // SELECT * FROM Emp WHERE Salary < 10000
        let q = SelectQuery::range(KeyRange::less_than(10_000));
        assert_eq!(select(&emp_table(), &q), (vec![5, 2, 1], vec![]));
    }

    #[test]
    fn figure1_multipoint_query() {
        // SELECT * FROM Emp WHERE Salary < 10000 AND Dept = 1 (Section 4.4)
        let q = SelectQuery::range(KeyRange::less_than(10_000)).filter(Predicate::new(
            "dept",
            CompareOp::Eq,
            1i64,
        ));
        // [002, C, 3500, 2] at position 1 is inside the range but filtered.
        assert_eq!(select(&emp_table(), &q), (vec![5, 1], vec![1]));
    }

    #[test]
    fn empty_range() {
        let q = SelectQuery::range(KeyRange::closed(4000, 8000));
        assert_eq!(select(&emp_table(), &q), (vec![], vec![]));
    }
}
