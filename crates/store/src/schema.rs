//! Schemas: named, typed columns shared by every edgelet store.

use crate::value::{ColumnType, Value};
use edgelet_util::{Error, Result};
use edgelet_wire::{Decode, Encode, Reader, Writer};
use std::sync::Arc;

/// One column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name (unique within a schema).
    pub name: String,
    /// Column type.
    pub ty: ColumnType,
}

/// An ordered set of columns.
///
/// A schema is immutable once built, so it is a handle over shared
/// columns: `clone` is a reference-count bump, and every store of a
/// crowd can carry the same one. Equality is by value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    columns: Arc<[Column]>,
}

impl Schema {
    /// Builds a schema; column names must be unique.
    pub fn new(columns: Vec<(&str, ColumnType)>) -> Result<Self> {
        let mut seen = std::collections::HashSet::new();
        for (name, _) in &columns {
            if !seen.insert(*name) {
                return Err(Error::Schema(format!("duplicate column `{name}`")));
            }
        }
        Ok(Self {
            columns: columns
                .into_iter()
                .map(|(name, ty)| Column {
                    name: name.to_string(),
                    ty,
                })
                .collect(),
        })
    }

    /// The columns, in order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Index of a column by name.
    pub fn index_of(&self, name: &str) -> Result<usize> {
        self.columns
            .iter()
            .position(|c| c.name == name)
            .ok_or_else(|| Error::Schema(format!("unknown column `{name}`")))
    }

    /// The column definition by name.
    pub fn column(&self, name: &str) -> Result<&Column> {
        Ok(&self.columns[self.index_of(name)?])
    }

    /// Checks that a value vector matches the schema (nulls allowed).
    pub fn check_row(&self, values: &[Value]) -> Result<()> {
        if values.len() != self.arity() {
            return Err(Error::Schema(format!(
                "row arity {} != schema arity {}",
                values.len(),
                self.arity()
            )));
        }
        for (v, c) in values.iter().zip(self.columns.iter()) {
            if let Some(ty) = v.column_type() {
                if ty != c.ty {
                    return Err(Error::Schema(format!(
                        "column `{}` expects {}, got {}",
                        c.name, c.ty, ty
                    )));
                }
            }
        }
        Ok(())
    }

    /// Derives the sub-schema for a projection.
    pub fn project(&self, names: &[&str]) -> Result<Schema> {
        let mut cols = Vec::with_capacity(names.len());
        for n in names {
            cols.push(self.column(n)?.clone());
        }
        Ok(Schema {
            columns: cols.into(),
        })
    }

    /// Column names, in order.
    pub fn names(&self) -> Vec<&str> {
        self.columns.iter().map(|c| c.name.as_str()).collect()
    }
}

impl Encode for Column {
    fn encode(&self, w: &mut Writer) {
        self.name.encode(w);
        let tag: u8 = match self.ty {
            ColumnType::Int => 0,
            ColumnType::Float => 1,
            ColumnType::Text => 2,
            ColumnType::Bool => 3,
        };
        tag.encode(w);
    }
}

impl Decode for Column {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let name = String::decode(r)?;
        let ty = match u8::decode(r)? {
            0 => ColumnType::Int,
            1 => ColumnType::Float,
            2 => ColumnType::Text,
            3 => ColumnType::Bool,
            other => return Err(Error::Decode(format!("invalid column type tag {other}"))),
        };
        Ok(Column { name, ty })
    }
}

impl Encode for Schema {
    fn encode(&self, w: &mut Writer) {
        self.columns.encode(w);
    }
}

impl Decode for Schema {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(Schema {
            columns: Vec::<Column>::decode(r)?.into(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgelet_wire::{from_bytes, to_bytes};

    fn health_schema() -> Schema {
        Schema::new(vec![
            ("age", ColumnType::Int),
            ("bmi", ColumnType::Float),
            ("sex", ColumnType::Text),
            ("diabetic", ColumnType::Bool),
        ])
        .unwrap()
    }

    #[test]
    fn lookup_and_projection() {
        let s = health_schema();
        assert_eq!(s.arity(), 4);
        assert_eq!(s.index_of("bmi").unwrap(), 1);
        assert!(s.index_of("nope").is_err());
        assert_eq!(s.column("sex").unwrap().ty, ColumnType::Text);
        let p = s.project(&["sex", "age"]).unwrap();
        assert_eq!(p.names(), vec!["sex", "age"]);
        assert!(s.project(&["missing"]).is_err());
    }

    #[test]
    fn duplicate_columns_rejected() {
        assert!(Schema::new(vec![("a", ColumnType::Int), ("a", ColumnType::Int)]).is_err());
    }

    #[test]
    fn row_checking() {
        let s = health_schema();
        s.check_row(&[
            Value::Int(70),
            Value::Float(24.0),
            Value::Text("F".into()),
            Value::Bool(false),
        ])
        .unwrap();
        // Nulls are allowed anywhere.
        s.check_row(&[Value::Null, Value::Null, Value::Null, Value::Null])
            .unwrap();
        // Wrong arity.
        assert!(s.check_row(&[Value::Int(1)]).is_err());
        // Wrong type.
        assert!(s
            .check_row(&[
                Value::Float(70.0),
                Value::Float(24.0),
                Value::Text("F".into()),
                Value::Bool(false),
            ])
            .is_err());
    }

    #[test]
    fn wire_roundtrip() {
        let s = health_schema();
        let back: Schema = from_bytes(&to_bytes(&s)).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn equality_is_by_value_not_by_handle() {
        let a = health_schema();
        let b = health_schema();
        assert!(!Arc::ptr_eq(&a.columns, &b.columns));
        assert_eq!(a, b);
        assert_eq!(a.clone(), a);
        assert_ne!(a, a.project(&["age", "bmi", "sex"]).unwrap());
        // Same names, one type changed.
        let c = Schema::new(vec![
            ("age", ColumnType::Float),
            ("bmi", ColumnType::Float),
            ("sex", ColumnType::Text),
            ("diabetic", ColumnType::Bool),
        ])
        .unwrap();
        assert_ne!(a, c);
    }
}
