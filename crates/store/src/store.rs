//! The per-edgelet data store: insert, scan, project, sample.

use crate::expr::Predicate;
use crate::row::Row;
use crate::schema::Schema;
use edgelet_util::rng::DetRng;
use edgelet_util::Result;
use edgelet_wire::{Decode, Encode, Reader, Writer};
use std::sync::Arc;

/// An in-memory row store conforming to a schema.
///
/// One instance lives on each edgelet (on the home box it would sit on
/// the micro-SD card). The working set is memory-resident for speed;
/// durability is layered underneath, not bolted on here: service-level
/// state (liability ledgers, epochs, in-flight query intents) is
/// persisted through the [`crate::durable::DurableBackend`] trait as a
/// checksummed write-ahead log plus periodic checkpoints, and replayed
/// idempotently on restart — see [`crate::wal`] and `docs/STORAGE.md`
/// for the recovery model.
///
/// Cloning is two reference-count bumps: the schema is a shared handle
/// and the rows sit behind an `Arc` that [`DataStore::insert`] copies on
/// write, so a later insert into either copy never shows in the other.
#[derive(Debug, Clone)]
pub struct DataStore {
    schema: Schema,
    rows: Arc<Vec<Row>>,
}

impl DataStore {
    /// Creates an empty store.
    pub fn new(schema: Schema) -> Self {
        Self {
            schema,
            rows: Arc::default(),
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of stored rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Inserts one row after validating it against the schema.
    pub fn insert(&mut self, row: Row) -> Result<()> {
        self.schema.check_row(row.values())?;
        Arc::make_mut(&mut self.rows).push(row);
        Ok(())
    }

    /// Inserts many rows; stops at the first invalid one.
    pub fn insert_all(&mut self, rows: impl IntoIterator<Item = Row>) -> Result<usize> {
        let mut n = 0;
        for row in rows {
            self.insert(row)?;
            n += 1;
        }
        Ok(n)
    }

    /// All rows (in insertion order).
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Rows satisfying the predicate.
    pub fn scan(&self, predicate: &Predicate) -> Result<Vec<Row>> {
        predicate.validate(&self.schema)?;
        let mut out = Vec::new();
        for row in self.rows.iter() {
            if predicate.eval(&self.schema, row)? {
                out.push(row.clone());
            }
        }
        Ok(out)
    }

    /// Number of rows satisfying the predicate, without materializing them.
    pub fn count(&self, predicate: &Predicate) -> Result<usize> {
        predicate.validate(&self.schema)?;
        let mut n = 0;
        for row in self.rows.iter() {
            if predicate.eval(&self.schema, row)? {
                n += 1;
            }
        }
        Ok(n)
    }

    /// Rows satisfying the predicate, projected onto `columns`.
    pub fn scan_project(&self, predicate: &Predicate, columns: &[&str]) -> Result<Vec<Row>> {
        predicate.validate(&self.schema)?;
        let idx: Vec<usize> = columns
            .iter()
            .map(|c| self.schema.index_of(c))
            .collect::<Result<_>>()?;
        let mut out = Vec::new();
        for row in self.rows.iter() {
            if predicate.eval(&self.schema, row)? {
                out.push(Row::new(
                    idx.iter().map(|&i| row.values()[i].clone()).collect(),
                ));
            }
        }
        Ok(out)
    }

    /// Uniform reservoir sample of up to `k` rows satisfying the predicate
    /// (Vitter's algorithm R; single pass, deterministic under the RNG).
    pub fn sample(&self, predicate: &Predicate, k: usize, rng: &mut DetRng) -> Result<Vec<Row>> {
        predicate.validate(&self.schema)?;
        if k == 0 {
            return Ok(Vec::new());
        }
        let mut reservoir: Vec<Row> = Vec::with_capacity(k);
        let mut seen = 0usize;
        for row in self.rows.iter() {
            if !predicate.eval(&self.schema, row)? {
                continue;
            }
            seen += 1;
            if reservoir.len() < k {
                reservoir.push(row.clone());
            } else {
                let j = rng.range(0..seen);
                if j < k {
                    reservoir[j] = row.clone();
                }
            }
        }
        Ok(reservoir)
    }
}

impl Encode for DataStore {
    fn encode(&self, w: &mut Writer) {
        self.schema.encode(w);
        self.rows.encode(w);
    }
}

impl Decode for DataStore {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let schema = Schema::decode(r)?;
        let rows = Vec::<Row>::decode(r)?;
        // Re-validate: the wire may carry rows that no longer fit the
        // schema (corruption or version skew).
        let mut store = DataStore::new(schema);
        store.insert_all(rows)?;
        Ok(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;
    use crate::value::{ColumnType, Value};
    use proptest::prelude::*;

    fn store_with(n: i64) -> DataStore {
        let schema =
            Schema::new(vec![("age", ColumnType::Int), ("bmi", ColumnType::Float)]).unwrap();
        let mut s = DataStore::new(schema);
        for i in 0..n {
            s.insert(Row::new(vec![
                Value::Int(i),
                Value::Float(20.0 + (i % 10) as f64),
            ]))
            .unwrap();
        }
        s
    }

    #[test]
    fn insert_validates() {
        let mut s = store_with(0);
        assert!(s.is_empty());
        assert!(s
            .insert(Row::new(vec![Value::Text("x".into()), Value::Float(1.0)]))
            .is_err());
        assert!(s.insert(Row::new(vec![Value::Int(1)])).is_err());
        s.insert(Row::new(vec![Value::Int(1), Value::Null]))
            .unwrap();
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn scan_and_count() {
        let s = store_with(100);
        let p = Predicate::cmp("age", CmpOp::Ge, Value::Int(90));
        let rows = s.scan(&p).unwrap();
        assert_eq!(rows.len(), 10);
        assert_eq!(s.count(&p).unwrap(), 10);
        assert_eq!(s.count(&Predicate::True).unwrap(), 100);
        // Unknown column errors.
        assert!(s
            .scan(&Predicate::cmp("zzz", CmpOp::Eq, Value::Int(1)))
            .is_err());
    }

    #[test]
    fn scan_project_shapes() {
        let s = store_with(10);
        let rows = s
            .scan_project(&Predicate::cmp("age", CmpOp::Lt, Value::Int(3)), &["bmi"])
            .unwrap();
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.arity() == 1));
    }

    #[test]
    fn sample_size_and_membership() {
        let s = store_with(1000);
        let mut rng = DetRng::new(7);
        let p = Predicate::cmp("age", CmpOp::Lt, Value::Int(500));
        let sample = s.sample(&p, 50, &mut rng).unwrap();
        assert_eq!(sample.len(), 50);
        for r in &sample {
            assert!(r.values()[0].as_i64().unwrap() < 500);
        }
        // Requesting more than available returns all matching.
        let small = s
            .sample(
                &Predicate::cmp("age", CmpOp::Lt, Value::Int(5)),
                50,
                &mut rng,
            )
            .unwrap();
        assert_eq!(small.len(), 5);
        assert!(s.sample(&p, 0, &mut rng).unwrap().is_empty());
    }

    #[test]
    fn sample_is_roughly_uniform() {
        // Sample 1 from 10 rows many times; each row should appear ~10%.
        let s = store_with(10);
        let mut rng = DetRng::new(11);
        let mut counts = [0usize; 10];
        for _ in 0..10_000 {
            let sample = s.sample(&Predicate::True, 1, &mut rng).unwrap();
            let v = sample[0].values()[0].as_i64().unwrap() as usize;
            counts[v] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - 1000.0).abs() < 150.0,
                "row {i} sampled {c} times"
            );
        }
    }

    #[test]
    fn wire_roundtrip_revalidates() {
        let store = store_with(25);
        let bytes = edgelet_wire::to_bytes(&store);
        let back: DataStore = edgelet_wire::from_bytes(&bytes).unwrap();
        assert_eq!(back.rows(), store.rows());
        assert_eq!(back.schema(), store.schema());
    }

    #[test]
    fn decode_rejects_a_row_that_violates_the_schema() {
        let schema =
            Schema::new(vec![("age", ColumnType::Int), ("bmi", ColumnType::Float)]).unwrap();
        let encode = |rows: Vec<Row>| {
            let mut w = Writer::new();
            schema.encode(&mut w);
            rows.encode(&mut w);
            w.into_bytes()
        };
        let good = Row::new(vec![Value::Int(1), Value::Float(2.0)]);
        let back: DataStore = edgelet_wire::from_bytes(&encode(vec![good.clone()])).unwrap();
        assert_eq!(back.rows(), std::slice::from_ref(&good));
        for bad in [
            Row::new(vec![Value::Float(1.0), Value::Float(2.0)]),
            Row::new(vec![Value::Int(1)]),
        ] {
            let err = edgelet_wire::from_bytes::<DataStore>(&encode(vec![good.clone(), bad]))
                .unwrap_err();
            assert_eq!(err.kind(), "schema", "{err}");
        }
    }

    #[test]
    fn clone_then_insert_never_shows_in_the_other_copy() {
        let row = |i: i64| Row::new(vec![Value::Int(i), Value::Null]);
        let original = store_with(3);
        let before = original.rows().to_vec();

        let mut copy = original.clone();
        assert!(Arc::ptr_eq(&original.rows, &copy.rows), "clone shares rows");
        copy.insert(row(100)).unwrap();
        assert_eq!(original.rows(), before);
        assert_eq!(original.len(), 3);
        assert_eq!(copy.len(), 4);
        assert_eq!(copy.rows()[..3], before[..]);

        // The other direction: inserting into the original after a clone.
        let mut original = original;
        let snapshot = original.clone();
        original.insert(row(200)).unwrap();
        assert_eq!(snapshot.rows(), before);
        assert_eq!(snapshot.len(), 3);
        assert_eq!(original.rows()[3], row(200));
        assert_eq!(copy.rows()[3], row(100));
        // A rejected insert leaves both untouched.
        assert!(original.insert(Row::new(vec![Value::Null])).is_err());
        assert_eq!(original.len(), 4);
        assert_eq!(snapshot.len(), 3);
    }

    proptest! {
        #[test]
        fn prop_scan_equals_filter(ages in prop::collection::vec(-100i64..100, 0..200), cut in -100i64..100) {
            let schema = Schema::new(vec![("age", ColumnType::Int)]).unwrap();
            let mut s = DataStore::new(schema);
            for a in &ages {
                s.insert(Row::new(vec![Value::Int(*a)])).unwrap();
            }
            let p = Predicate::cmp("age", CmpOp::Gt, Value::Int(cut));
            let got = s.scan(&p).unwrap().len();
            let want = ages.iter().filter(|&&a| a > cut).count();
            prop_assert_eq!(got, want);
            prop_assert_eq!(s.count(&p).unwrap(), want);
        }

        #[test]
        fn prop_sample_subset_of_matching(
            ages in prop::collection::vec(0i64..50, 0..100),
            k in 0usize..20,
            seed in any::<u64>(),
        ) {
            let schema = Schema::new(vec![("age", ColumnType::Int)]).unwrap();
            let mut s = DataStore::new(schema);
            for a in &ages {
                s.insert(Row::new(vec![Value::Int(*a)])).unwrap();
            }
            let p = Predicate::cmp("age", CmpOp::Ge, Value::Int(25));
            let matching = ages.iter().filter(|&&a| a >= 25).count();
            let mut rng = DetRng::new(seed);
            let sample = s.sample(&p, k, &mut rng).unwrap();
            prop_assert_eq!(sample.len(), k.min(matching));
            for r in &sample {
                prop_assert!(r.values()[0].as_i64().unwrap() >= 25);
            }
        }
    }
}
