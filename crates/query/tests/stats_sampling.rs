//! Statistics sampling: a profiled sequential scan sketches exactly the
//! attributes it reads off its scan variable (directly, or as `self`
//! inside a computed body) over its first
//! [`STATS_SAMPLE_ROWS`](ov_query::compile::STATS_SAMPLE_ROWS) scanned
//! rows. Every sketch must equal one built directly from those rows.
//!
//! One test in its own binary: profiling and the statistics registry are
//! process-wide, so no concurrently running test may toggle or feed them.

use std::collections::BTreeSet;

use ov_oodb::stats::{AttrSketch, AttrStatistics};
use ov_oodb::{sym, AttrDef, Database, Expr, Symbol, Type, Value};
use ov_query::compile::STATS_SAMPLE_ROWS;
use ov_query::{run_query, with_planner};

/// `n` objects of a fresh class `class`: `Name` (null on every 7th row),
/// `Age` (0..99), `City` (never read by the queries below) and the
/// computed `Doubled = self.Age + self.Age`.
fn populate(db: &mut Database, class: &str, n: i64) {
    let c = db
        .create_class(
            sym(class),
            &[],
            vec![
                AttrDef::stored(sym("Name"), Type::Str),
                AttrDef::stored(sym("Age"), Type::Int),
                AttrDef::stored(sym("City"), Type::Str),
                AttrDef::computed(
                    sym("Doubled"),
                    Type::Int,
                    Expr::bin(
                        ov_oodb::BinOp::Add,
                        Expr::self_attr("Age"),
                        Expr::self_attr("Age"),
                    ),
                ),
            ],
        )
        .unwrap();
    for i in 0..n {
        let name = if i % 7 == 0 {
            Value::Null
        } else {
            Value::str(&format!("p{}", i % 500))
        };
        db.create_object(
            c,
            Value::tuple([
                ("Name", name),
                ("Age", Value::Int(i % 100)),
                ("City", Value::str("Paris")),
            ]),
        )
        .unwrap();
    }
}

/// The sketch of raw field `attr` over the first `rows` objects of
/// `class`, built directly from the store.
fn direct_sketch(db: &Database, class: &str, attr: &str, rows: usize) -> AttrStatistics {
    let c = db.schema.class_by_name(sym(class)).unwrap();
    let mut s = AttrSketch::default();
    for oid in db.deep_extent(c).into_iter().take(rows) {
        let v = db.store.get(oid).unwrap().value.get(sym(attr)).cloned();
        s.observe(&v.unwrap_or(Value::Null));
    }
    AttrStatistics {
        rows: s.rows,
        nulls: s.nulls,
        ndv: s.ndv(),
        null_fraction: s.null_fraction(),
        min: s.min.clone(),
        max: s.max.clone(),
    }
}

/// Asserts `class`'s statistics: the extent `cardinality`, and a sketch
/// equal to the direct one for exactly the attributes `attrs`, over the
/// first `rows` extent objects.
fn assert_sampled(db: &Database, class: &str, cardinality: u64, attrs: &[&str], rows: usize) {
    let stats = ov_oodb::stats::stats().snapshot();
    let got = stats
        .classes
        .get(&sym(class))
        .unwrap_or_else(|| panic!("{class}: the profiled scan fed no statistics"));
    assert_eq!(got.cardinality, Some(cardinality), "{class}: cardinality");
    let names: BTreeSet<Symbol> = got.attrs.keys().copied().collect();
    let want: BTreeSet<Symbol> = attrs.iter().map(|a| sym(a)).collect();
    assert_eq!(names, want, "{class}: sketched attributes");
    for a in attrs {
        assert_eq!(
            got.attrs[&sym(a)],
            direct_sketch(db, class, a, rows),
            "{class}.{a}: sketch"
        );
    }
}

#[test]
fn profiled_scans_sketch_the_attributes_they_read_over_the_sampled_rows() {
    let mut db = Database::new(sym("SampleDb"));
    populate(&mut db, "Person", 5000);
    populate(&mut db, "Dept", 10);
    populate(&mut db, "Ratio", 10);
    ov_oodb::metrics::set_profiling(true);
    // Planner off: every scan below takes the sequential compiled path.
    let (person, dept, ratio) = with_planner(false, || {
        (
            // Filter reads `Name`; the projection reads `Doubled`, whose
            // compiled body reads `self.Age`. `City` is never read.
            run_query(
                &db,
                r#"select P.Doubled from P in Person where P.Name != "zz""#,
            ),
            // Fewer rows than the sample: every row is sampled.
            run_query(&db, "select D.Name from D in Dept where D.Age >= 0"),
            // Errors at the row with Age 5 (0-based row 5): only the six
            // scanned rows are sampled.
            run_query(
                &db,
                "select R.Name from R in Ratio where 1 / (R.Age - 5) = 0",
            ),
        )
    });
    ov_oodb::metrics::set_profiling(false);
    assert!(person.is_ok() && dept.is_ok(), "{person:?} {dept:?}");
    assert!(ratio.is_err(), "division by zero at the sixth row");
    assert_sampled(
        &db,
        "Person",
        5000,
        &["Age", "Doubled", "Name"],
        STATS_SAMPLE_ROWS,
    );
    assert_sampled(&db, "Dept", 10, &["Age", "Name"], 10);
    assert_sampled(&db, "Ratio", 10, &["Age", "Name"], 6);
}
