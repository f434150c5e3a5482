//! Rows: ordered value vectors matching a schema.

use crate::schema::Schema;
use crate::value::Value;
use edgelet_util::Result;
use edgelet_wire::{Decode, Encode, Reader, Writer};

/// One tuple.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Row {
    values: Vec<Value>,
}

impl Row {
    /// Wraps a value vector.
    pub fn new(values: Vec<Value>) -> Self {
        Self { values }
    }

    /// The values, in schema order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Number of values.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Value at a column index.
    pub fn get(&self, idx: usize) -> Option<&Value> {
        self.values.get(idx)
    }

    /// Value of a named column under `schema`.
    pub fn get_named(&self, schema: &Schema, name: &str) -> Result<&Value> {
        Ok(&self.values[schema.index_of(name)?])
    }

    /// Writes this row projected onto the column indices `columns`: the
    /// bytes of the projected row's encoding, without building it.
    /// Panics if an index is out of range.
    pub fn encode_columns(&self, columns: &[usize], w: &mut Writer) {
        w.put_varint(columns.len() as u64);
        for &i in columns {
            self.values[i].encode(w);
        }
    }

    /// Checks one encoded row and steps over it without building it: the
    /// grammar of [`Row::decode`], each value read by the same reader
    /// `Value::decode` builds its value from.
    pub fn skip(r: &mut Reader<'_>) -> Result<()> {
        for _ in 0..r.seq_len_for(1)? {
            Value::skip(r)?;
        }
        Ok(())
    }
}

impl From<Vec<Value>> for Row {
    fn from(values: Vec<Value>) -> Self {
        Row::new(values)
    }
}

impl Encode for Row {
    fn encode(&self, w: &mut Writer) {
        self.values.encode(w);
    }
}

impl Decode for Row {
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(Row {
            values: Vec::<Value>::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::ColumnType;
    use edgelet_wire::{from_bytes, to_bytes};
    use proptest::prelude::*;

    fn schema() -> Schema {
        Schema::new(vec![("age", ColumnType::Int), ("bmi", ColumnType::Float)]).unwrap()
    }

    #[test]
    fn access_and_projection() {
        let s = schema();
        let r = Row::new(vec![Value::Int(70), Value::Float(23.5)]);
        assert_eq!(r.arity(), 2);
        assert_eq!(r.get(0), Some(&Value::Int(70)));
        assert_eq!(r.get(9), None);
        assert_eq!(r.get_named(&s, "bmi").unwrap(), &Value::Float(23.5));
        assert!(r.get_named(&s, "zzz").is_err());
        // A projection is written as the projected row would encode.
        for columns in [&[1][..], &[1, 0], &[0, 0], &[]] {
            let mut w = Writer::new();
            r.encode_columns(columns, &mut w);
            let projected = Row::new(columns.iter().map(|&i| r.values()[i].clone()).collect());
            assert_eq!(w.into_bytes(), to_bytes(&projected), "{columns:?}");
        }
    }

    #[test]
    fn wire_roundtrip() {
        let r = Row::new(vec![
            Value::Int(1),
            Value::Null,
            Value::Text("x".into()),
            Value::Bool(true),
            Value::Float(-0.5),
        ]);
        let back: Row = from_bytes(&to_bytes(&r)).unwrap();
        assert_eq!(back, r);
    }

    /// What `skip` makes of `bytes` (how far it read, or that it failed)
    /// against what `decode` makes of them.
    fn skip_and_decode(bytes: &[u8]) -> (Option<usize>, Option<usize>) {
        let consumed = |ok: bool, r: &Reader<'_>| ok.then(|| bytes.len() - r.remaining());
        let mut r = Reader::new(bytes);
        let skipped = consumed(Row::skip(&mut r).is_ok(), &r);
        let mut r = Reader::new(bytes);
        let decoded = consumed(Row::decode(&mut r).is_ok(), &r);
        (skipped, decoded)
    }

    /// A value of the kind `tag` picks, from one draw of each payload.
    fn value((tag, i, text, b): (u8, i64, String, bool)) -> Value {
        match tag {
            0 => Value::Null,
            1 => Value::Int(i),
            2 => Value::Float(f64::from_bits(i as u64)),
            3 => Value::Text(text),
            _ => Value::Bool(b),
        }
    }

    proptest! {
        /// `skip` accepts exactly what `decode` accepts and consumes the
        /// same bytes: on well-formed rows, on those rows cut short or
        /// with one byte overwritten, and on noise.
        #[test]
        fn prop_skip_accepts_what_decode_accepts(
            values in prop::collection::vec((0u8..5, any::<i64>(), ".*", any::<bool>()), 0..6),
            cut in any::<usize>(),
            at in any::<usize>(),
            byte in any::<u8>(),
            noise in prop::collection::vec(any::<u8>(), 0..24),
        ) {
            let bytes = to_bytes(&Row::new(values.into_iter().map(value).collect()));
            let (skipped, decoded) = skip_and_decode(&bytes);
            prop_assert_eq!(skipped, Some(bytes.len()));
            prop_assert_eq!(decoded, Some(bytes.len()));
            let mut flipped = bytes.clone();
            let i = at % flipped.len();
            flipped[i] = byte;
            for input in [&bytes[..cut % (bytes.len() + 1)], &flipped[..], &noise[..]] {
                let (skipped, decoded) = skip_and_decode(input);
                prop_assert_eq!(skipped, decoded, "{:?}", input);
            }
        }
    }
}
