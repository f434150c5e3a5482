//! Synthetic health-survey data generator.
//!
//! Stands in for the DomYcile medical records (private) and the Santé
//! Publique France survey of the demo scenario. The schema and the
//! dependencies between columns are chosen so that every demo query is
//! meaningful:
//!
//! * `age` — mixture skewed old (home-care population) with a younger tail;
//! * `sex` — `"F"`/`"M"`;
//! * `bmi` — normal around 26, lightly age-dependent;
//! * `systolic_bp` — increases with age;
//! * `gir` — French dependency level 1 (most dependent) … 6 (autonomous),
//!   strongly age-dependent — the K-Means + Group-By demo query looks for
//!   exactly this structure;
//! * `region` — categorical 0..12;
//! * `diabetic` — prevalence increasing with BMI and age.

use crate::row::Row;
use crate::schema::Schema;
use crate::store::DataStore;
use crate::value::{ColumnType, Value};
use edgelet_util::rng::DetRng;
use std::sync::OnceLock;

/// Returns the shared health-survey schema: every call hands out a
/// handle to the same columns.
pub fn health_schema() -> Schema {
    static SCHEMA: OnceLock<Schema> = OnceLock::new();
    SCHEMA
        .get_or_init(|| {
            Schema::new(vec![
                ("age", ColumnType::Int),
                ("sex", ColumnType::Text),
                ("bmi", ColumnType::Float),
                ("systolic_bp", ColumnType::Int),
                ("gir", ColumnType::Int),
                ("region", ColumnType::Int),
                ("diabetic", ColumnType::Bool),
            ])
            .expect("column names are distinct")
        })
        .clone()
}

/// Generates one individual's record.
pub fn health_row(rng: &mut DetRng) -> Row {
    // 70% elderly home-care population, 30% general adult population.
    let age: i64 = if rng.chance(0.7) {
        rng.normal(78.0, 8.0).clamp(65.0, 102.0).round() as i64
    } else {
        rng.normal(45.0, 14.0).clamp(18.0, 64.0).round() as i64
    };
    let sex = if rng.chance(0.55) { "F" } else { "M" };
    let bmi = (rng.normal(26.0, 4.0) + (age as f64 - 60.0) * 0.01).clamp(15.0, 50.0);
    let systolic_bp = (rng.normal(120.0, 12.0) + (age as f64 - 40.0) * 0.35)
        .clamp(90.0, 220.0)
        .round() as i64;
    // Dependency: the older, the lower the GIR (more dependent), with noise.
    let gir_base = match age {
        a if a >= 90 => 1.8,
        a if a >= 80 => 2.6,
        a if a >= 70 => 3.8,
        a if a >= 65 => 4.8,
        _ => 5.8,
    };
    let gir = (rng.normal(gir_base, 0.8).round() as i64).clamp(1, 6);
    let region = rng.range(0..13i64);
    let p_diabetic = 0.04 + 0.010 * (bmi - 22.0).max(0.0) + 0.002 * (age as f64 - 50.0).max(0.0);
    let diabetic = rng.chance(p_diabetic.min(0.65));

    Row::new(vec![
        Value::Int(age),
        Value::Text(sex.to_string()),
        Value::Float(bmi),
        Value::Int(systolic_bp),
        Value::Int(gir),
        Value::Int(region),
        Value::Bool(diabetic),
    ])
}

/// Builds a store holding `n` synthetic individuals.
pub fn health_store(n: usize, rng: &mut DetRng) -> DataStore {
    let mut store = DataStore::new(health_schema());
    for _ in 0..n {
        store
            .insert(health_row(rng))
            .expect("generator respects its own schema");
    }
    store
}

/// Builds `count` single-owner stores (one per edgelet), each holding
/// `rows_per_store` records. The paper's Data Contributors typically hold
/// one personal record each (`rows_per_store = 1`).
pub fn personal_stores(count: usize, rows_per_store: usize, rng: &mut DetRng) -> Vec<DataStore> {
    (0..count)
        .map(|i| {
            let mut dev_rng = rng.fork_indexed("personal-store", i as u64);
            health_store(rows_per_store, &mut dev_rng)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{CmpOp, Predicate};

    #[test]
    fn schema_matches_rows() {
        let mut rng = DetRng::new(1);
        let s = health_store(500, &mut rng);
        assert_eq!(s.len(), 500);
        assert_eq!(s.schema(), &health_schema());
    }

    /// Encoded bytes dumped from the build before `Schema`/`DataStore`
    /// became shared handles: the representation changed, the wire form
    /// did not.
    #[test]
    fn encoded_schema_and_store_match_the_golden_bytes() {
        let hex = |bytes: &[u8]| bytes.iter().map(|b| format!("{b:02x}")).collect::<String>();
        const SCHEMA: &str = "070361676500037365780203626d69010b737973746f6c69635f6270\
            00036769720006726567696f6e0008646961626574696303";
        const ROWS: &str = "0207016c03014d02f4d3664237d4414001fc01010c0114040107016a\
            0301460271e001271f01404001fe01010c01000400";
        assert_eq!(hex(&edgelet_wire::to_bytes(&health_schema())), SCHEMA);
        let store = health_store(2, &mut DetRng::new(5));
        let bytes = edgelet_wire::to_bytes(&store);
        assert_eq!(hex(&bytes), format!("{SCHEMA}{ROWS}"));
        let back: DataStore = edgelet_wire::from_bytes(&bytes).unwrap();
        assert_eq!(back.rows(), store.rows());
        assert_eq!(back.schema(), store.schema());
    }

    #[test]
    fn every_store_shares_the_one_schema() {
        let a = health_store(1, &mut DetRng::new(1));
        let b = health_store(1, &mut DetRng::new(2));
        assert_eq!(a.schema().columns().as_ptr(), b.schema().columns().as_ptr());
        assert_eq!(
            a.schema().columns().as_ptr(),
            health_schema().columns().as_ptr()
        );
    }

    #[test]
    fn distributions_are_plausible() {
        let mut rng = DetRng::new(2);
        let s = health_store(5_000, &mut rng);
        let elderly = s
            .count(&Predicate::cmp("age", CmpOp::Gt, Value::Int(65)))
            .unwrap();
        let frac = elderly as f64 / 5_000.0;
        assert!(frac > 0.55 && frac < 0.8, "elderly fraction {frac}");

        // GIR correlates with age: mean GIR of 65+ should be clearly lower
        // (more dependent) than the younger group's.
        let gir_mean = |pred: &Predicate| -> f64 {
            let rows = s.scan(pred).unwrap();
            let sum: i64 = rows
                .iter()
                .map(|r| r.get_named(s.schema(), "gir").unwrap().as_i64().unwrap())
                .sum();
            sum as f64 / rows.len() as f64
        };
        let old = gir_mean(&Predicate::cmp("age", CmpOp::Ge, Value::Int(80)));
        let young = gir_mean(&Predicate::cmp("age", CmpOp::Lt, Value::Int(65)));
        assert!(
            young - old > 1.5,
            "dependency must increase with age: old {old}, young {young}"
        );
    }

    #[test]
    fn values_within_domains() {
        let mut rng = DetRng::new(3);
        let s = health_store(2_000, &mut rng);
        for r in s.rows() {
            let age = r.get_named(s.schema(), "age").unwrap().as_i64().unwrap();
            assert!((18..=102).contains(&age));
            let gir = r.get_named(s.schema(), "gir").unwrap().as_i64().unwrap();
            assert!((1..=6).contains(&gir));
            let bmi = r.get_named(s.schema(), "bmi").unwrap().as_f64().unwrap();
            assert!((15.0..=50.0).contains(&bmi));
            let region = r.get_named(s.schema(), "region").unwrap().as_i64().unwrap();
            assert!((0..13).contains(&region));
            let sex = r.get_named(s.schema(), "sex").unwrap();
            assert!(matches!(sex, Value::Text(t) if t == "F" || t == "M"));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = health_store(50, &mut DetRng::new(9));
        let b = health_store(50, &mut DetRng::new(9));
        assert_eq!(a.rows(), b.rows());
        let c = health_store(50, &mut DetRng::new(10));
        assert_ne!(a.rows(), c.rows());
    }

    #[test]
    fn personal_stores_are_independent() {
        let mut rng = DetRng::new(4);
        let stores = personal_stores(20, 1, &mut rng);
        assert_eq!(stores.len(), 20);
        assert!(stores.iter().all(|s| s.len() == 1));
        // Not all identical.
        let first = stores[0].rows()[0].clone();
        assert!(stores.iter().any(|s| s.rows()[0] != first));
    }
}
