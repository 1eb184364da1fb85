//! Records (tuples).

use crate::schema::Schema;
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// A tuple of attribute values, positionally matching a [`Schema`].
///
/// Immutable once built, and the values sit behind a reference count, so a
/// clone is a pointer copy: a row handed from a table to an answer, a delta
/// or the next table epoch is the same allocation.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Record {
    values: Arc<[Value]>,
}

impl Record {
    /// Wraps values into a record (validation happens at table insertion).
    pub fn new(values: Vec<Value>) -> Self {
        Record {
            values: values.into(),
        }
    }

    /// All values.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Value at a column index.
    pub fn get(&self, index: usize) -> &Value {
        &self.values[index]
    }

    /// The key attribute value as an integer.
    pub fn key(&self, schema: &Schema) -> i64 {
        self.values[schema.key_index()]
            .as_int()
            .expect("key column validated as INT")
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Serialized size of the whole record on the wire (the paper's `M_r`).
    pub fn wire_size(&self) -> usize {
        self.values.iter().map(Value::wire_size).sum()
    }

    /// Keeps only the columns at `indices` (projection π). Projecting onto
    /// every column in order hands back the same shared record.
    pub fn project(&self, indices: &[usize]) -> Record {
        if indices.len() == self.values.len() && indices.iter().copied().eq(0..indices.len()) {
            return self.clone();
        }
        Record {
            values: indices.iter().map(|&i| self.values[i].clone()).collect(),
        }
    }
}

impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<Value>> for Record {
    fn from(values: Vec<Value>) -> Self {
        Record::new(values)
    }
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

    fn rec() -> Record {
        Record::new(vec![Value::Int(5), Value::from("A"), Value::Int(2000)])
    }

    #[test]
    fn accessors() {
        let s = schema();
        let r = rec();
        assert_eq!(r.key(&s), 2000);
        assert_eq!(r.get(0), &Value::Int(5));
        assert_eq!(r.arity(), 3);
    }

    #[test]
    fn projection() {
        let r = rec();
        let p = r.project(&[2, 0]);
        assert_eq!(p.values(), &[Value::Int(2000), Value::Int(5)]);
    }

    #[test]
    fn wire_size_sums_values() {
        let r = rec();
        assert_eq!(r.wire_size(), 9 + (1 + 4 + 1) + 9);
    }
}
