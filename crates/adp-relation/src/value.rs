//! Typed attribute values.
//!
//! The engine supports the types the paper's examples need: 64-bit integers
//! (keys such as `Salary`), text (`Name`), raw bytes (`Photo` — the BLOB the
//! paper uses to motivate projection-aware verification), and booleans (the
//! per-role visibility columns of Section 4.4 Case 2).

use std::cmp::Ordering;
use std::fmt;

/// The type of an attribute.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ValueType {
    Int,
    Text,
    Bytes,
    Bool,
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ValueType::Int => "INT",
            ValueType::Text => "TEXT",
            ValueType::Bytes => "BYTES",
            ValueType::Bool => "BOOL",
        };
        f.write_str(s)
    }
}

/// A single attribute value.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Value {
    Int(i64),
    Text(String),
    Bytes(Vec<u8>),
    Bool(bool),
}

impl Value {
    /// The value's type.
    pub fn value_type(&self) -> ValueType {
        match self {
            Value::Int(_) => ValueType::Int,
            Value::Text(_) => ValueType::Text,
            Value::Bytes(_) => ValueType::Bytes,
            Value::Bool(_) => ValueType::Bool,
        }
    }

    /// Canonical byte encoding (type tag + payload). Injective per type, so
    /// hashing the encoding is collision-free across values.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// [`Value::encode`], appended to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Value::Int(v) => {
                out.push(0x01);
                out.extend_from_slice(&v.to_le_bytes());
            }
            Value::Text(s) => {
                out.push(0x02);
                out.extend_from_slice(s.as_bytes());
            }
            Value::Bytes(b) => {
                out.push(0x03);
                out.extend_from_slice(b);
            }
            Value::Bool(b) => {
                out.push(0x04);
                out.push(*b as u8);
            }
        }
    }

    /// Size of the value on the wire, in bytes (payload + 1 type byte +
    /// 4-byte length for variable-size types). This drives the paper's
    /// `M_r` (record size) accounting.
    pub fn wire_size(&self) -> usize {
        match self {
            Value::Int(_) => 1 + 8,
            Value::Text(s) => 1 + 4 + s.len(),
            Value::Bytes(b) => 1 + 4 + b.len(),
            Value::Bool(_) => 1 + 1,
        }
    }

    /// Total ordering within the same type; `None` across types.
    pub fn partial_cmp_typed(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Text(a), Value::Text(b)) => Some(a.cmp(b)),
            (Value::Bytes(a), Value::Bytes(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// Convenience accessor.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Convenience accessor.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Value::Bytes(b) => Some(b),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Text(s) => write!(f, "'{s}'"),
            Value::Bytes(b) => write!(f, "x'{}B'", b.len()),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}
impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Self {
        Value::Bytes(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_reporting() {
        assert_eq!(Value::Int(1).value_type(), ValueType::Int);
        assert_eq!(Value::from("x").value_type(), ValueType::Text);
        assert_eq!(Value::from(vec![1u8]).value_type(), ValueType::Bytes);
        assert_eq!(Value::from(true).value_type(), ValueType::Bool);
    }

    #[test]
    fn encode_injective_within_type() {
        assert_ne!(Value::Int(1).encode(), Value::Int(2).encode());
        assert_ne!(Value::from("a").encode(), Value::from("b").encode());
    }

    #[test]
    fn encode_tags_differ_across_types() {
        // 1i64 and the text "1" must never encode identically.
        assert_ne!(Value::Int(49).encode()[0], Value::from("1").encode()[0]);
    }

    #[test]
    fn ordering_same_type() {
        assert_eq!(
            Value::Int(3).partial_cmp_typed(&Value::Int(5)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::from("b").partial_cmp_typed(&Value::from("a")),
            Some(Ordering::Greater)
        );
    }

    #[test]
    fn ordering_cross_type_is_none() {
        assert_eq!(Value::Int(3).partial_cmp_typed(&Value::from("3")), None);
    }

    #[test]
    fn wire_sizes() {
        assert_eq!(Value::Int(7).wire_size(), 9);
        assert_eq!(Value::from("abc").wire_size(), 8);
        assert_eq!(Value::from(vec![0u8; 10]).wire_size(), 15);
        assert_eq!(Value::from(true).wire_size(), 2);
    }
}
