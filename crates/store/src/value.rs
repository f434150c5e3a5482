//! Typed values and column types.

use edgelet_util::{Error, Result};
use edgelet_wire::{Decode, Encode, Reader, Writer};
use std::cmp::Ordering;
use std::fmt;

/// The type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit float.
    Float,
    /// UTF-8 text (also used for enumerations like `sex`).
    Text,
    /// Boolean.
    Bool,
}

impl fmt::Display for ColumnType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ColumnType::Int => "int",
            ColumnType::Float => "float",
            ColumnType::Text => "text",
            ColumnType::Bool => "bool",
        };
        f.write_str(s)
    }
}

/// A single typed value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Absent value.
    Null,
    /// Integer.
    Int(i64),
    /// Float.
    Float(f64),
    /// Text.
    Text(String),
    /// Boolean.
    Bool(bool),
}

impl Value {
    /// The column type this value belongs to (`None` for `Null`).
    pub fn column_type(&self) -> Option<ColumnType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(ColumnType::Int),
            Value::Float(_) => Some(ColumnType::Float),
            Value::Text(_) => Some(ColumnType::Text),
            Value::Bool(_) => Some(ColumnType::Bool),
        }
    }

    /// True when the value is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view (ints coerce to floats); `None` for non-numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view; `None` for non-integers.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// SQL-style three-valued comparison. `None` when either side is null
    /// or the types are incomparable.
    pub fn compare(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Text(a), Value::Text(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            _ => {
                // Numeric coercion across Int/Float.
                let (a, b) = (self.as_f64()?, other.as_f64()?);
                a.partial_cmp(&b)
            }
        }
    }

    /// A stable key for grouping. Floats are rejected (grouping on floats
    /// is a query-definition error caught at plan time).
    pub fn group_key(&self) -> Result<GroupKeyPart> {
        match self {
            Value::Null => Ok(GroupKeyPart::Null),
            Value::Int(i) => Ok(GroupKeyPart::Int(*i)),
            Value::Text(t) => Ok(GroupKeyPart::Text(t.clone())),
            Value::Bool(b) => Ok(GroupKeyPart::Bool(*b)),
            Value::Float(_) => Err(Error::InvalidQuery("cannot group by a float column".into())),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Text(t) => write!(f, "{t}"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

/// One component of a grouping key (hashable, orderable).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GroupKeyPart {
    /// Null groups together.
    Null,
    /// Integer key.
    Int(i64),
    /// Text key.
    Text(String),
    /// Boolean key.
    Bool(bool),
}

impl GroupKeyPart {
    /// Converts back to a value (for result rows).
    pub fn to_value(&self) -> Value {
        match self {
            GroupKeyPart::Null => Value::Null,
            GroupKeyPart::Int(i) => Value::Int(*i),
            GroupKeyPart::Text(t) => Value::Text(t.clone()),
            GroupKeyPart::Bool(b) => Value::Bool(*b),
        }
    }
}

impl fmt::Display for GroupKeyPart {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_value())
    }
}

const TAG_NULL: u64 = 0;
const TAG_INT: u64 = 1;
const TAG_FLOAT: u64 = 2;
const TAG_TEXT: u64 = 3;
const TAG_BOOL: u64 = 4;

impl Encode for Value {
    fn encode(&self, w: &mut Writer) {
        match self {
            Value::Null => w.put_varint(TAG_NULL),
            Value::Int(i) => {
                w.put_varint(TAG_INT);
                i.encode(w);
            }
            Value::Float(x) => {
                w.put_varint(TAG_FLOAT);
                x.encode(w);
            }
            Value::Text(t) => {
                w.put_varint(TAG_TEXT);
                t.encode(w);
            }
            Value::Bool(b) => {
                w.put_varint(TAG_BOOL);
                b.encode(w);
            }
        }
    }
}

/// A value read in place, its text still borrowed from the input.
///
/// [`ValueRef::read`] is the one grammar of an encoded value:
/// [`Value::decode`] owns what it reads and [`Value::skip`] drops it, so
/// what a decoder accepts and what a skipping reader accepts cannot drift
/// apart.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ValueRef<'a> {
    /// Absent value.
    Null,
    /// Integer.
    Int(i64),
    /// Float.
    Float(f64),
    /// Text, borrowed.
    Text(&'a str),
    /// Boolean.
    Bool(bool),
}

impl<'a> ValueRef<'a> {
    /// Reads one encoded value.
    #[inline]
    pub fn read(r: &mut Reader<'a>) -> Result<Self> {
        match r.varint()? {
            TAG_NULL => Ok(ValueRef::Null),
            TAG_INT => Ok(ValueRef::Int(i64::decode(r)?)),
            TAG_FLOAT => Ok(ValueRef::Float(f64::decode(r)?)),
            TAG_TEXT => Ok(ValueRef::Text(r.str()?)),
            TAG_BOOL => Ok(ValueRef::Bool(bool::decode(r)?)),
            other => Err(Error::Decode(format!("invalid value tag {other}"))),
        }
    }
}

impl From<ValueRef<'_>> for Value {
    fn from(v: ValueRef<'_>) -> Self {
        match v {
            ValueRef::Null => Value::Null,
            ValueRef::Int(i) => Value::Int(i),
            ValueRef::Float(x) => Value::Float(x),
            ValueRef::Text(t) => Value::Text(t.to_owned()),
            ValueRef::Bool(b) => Value::Bool(b),
        }
    }
}

impl Value {
    /// Checks one encoded value and steps over it without building it.
    #[inline]
    pub(crate) fn skip(r: &mut Reader<'_>) -> Result<()> {
        ValueRef::read(r).map(drop)
    }
}

impl Decode for Value {
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        ValueRef::read(r).map(Value::from)
    }
}

impl Encode for GroupKeyPart {
    fn encode(&self, w: &mut Writer) {
        self.to_value().encode(w);
    }
}

impl Decode for GroupKeyPart {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Value::decode(r)?
            .group_key()
            .map_err(|e| Error::Decode(format!("invalid group key: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgelet_wire::{from_bytes, to_bytes};

    #[test]
    fn comparisons() {
        assert_eq!(Value::Int(1).compare(&Value::Int(2)), Some(Ordering::Less));
        assert_eq!(
            Value::Int(2).compare(&Value::Float(2.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Float(3.5).compare(&Value::Int(3)),
            Some(Ordering::Greater)
        );
        assert_eq!(
            Value::Text("a".into()).compare(&Value::Text("b".into())),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Bool(false).compare(&Value::Bool(true)),
            Some(Ordering::Less)
        );
        assert_eq!(Value::Null.compare(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).compare(&Value::Text("1".into())), None);
    }

    #[test]
    fn numeric_views() {
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::Text("x".into()).as_f64(), None);
        assert_eq!(Value::Int(3).as_i64(), Some(3));
        assert_eq!(Value::Float(3.0).as_i64(), None);
        assert!(Value::Null.is_null());
        assert_eq!(Value::Null.column_type(), None);
        assert_eq!(Value::Bool(true).column_type(), Some(ColumnType::Bool));
    }

    #[test]
    fn group_keys() {
        assert_eq!(Value::Int(5).group_key().unwrap(), GroupKeyPart::Int(5));
        assert_eq!(Value::Null.group_key().unwrap(), GroupKeyPart::Null);
        assert!(Value::Float(1.0).group_key().is_err());
        assert_eq!(
            GroupKeyPart::Text("x".into()).to_value(),
            Value::Text("x".into())
        );
    }

    #[test]
    fn wire_roundtrip() {
        for v in [
            Value::Null,
            Value::Int(-42),
            Value::Float(1.25),
            Value::Text("héllo".into()),
            Value::Bool(true),
        ] {
            let back: Value = from_bytes(&to_bytes(&v)).unwrap();
            assert_eq!(back, v);
        }
        let k: GroupKeyPart = from_bytes(&to_bytes(&GroupKeyPart::Int(7))).unwrap();
        assert_eq!(k, GroupKeyPart::Int(7));
        // A float value does not decode as a group key.
        assert!(from_bytes::<GroupKeyPart>(&to_bytes(&Value::Float(1.0))).is_err());
    }

    #[test]
    fn display() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(3).to_string(), "3");
        assert_eq!(ColumnType::Float.to_string(), "float");
        assert_eq!(GroupKeyPart::Bool(true).to_string(), "true");
    }
}
