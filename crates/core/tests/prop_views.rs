//! Property tests for the view layer's core guarantees:
//!
//! * imaginary identity (§5.1): same core tuple ⇒ same oid, across
//!   arbitrary interleavings of updates and recomputations; distinct
//!   tuples ⇒ distinct oids;
//! * specialization populations always agree with re-filtering the base;
//! * hiding an attribute makes it unreachable from every user query path;
//! * hierarchy inference produces an acyclic hierarchy respecting R1/R2.

use ov_oodb::{sym, ClassId, Database, OodbError, Symbol, System, Type, Value};
use ov_query::DataSource;
use ov_views::{Materialization, ViewDef, ViewError, ViewOptions};
use proptest::prelude::*;

/// Builds a people database with the given (name, age) rows.
fn people_db(rows: &[(String, i64)]) -> System {
    let mut sys = System::new();
    let mut db = Database::new(sym("P"));
    let person = db
        .create_class(
            sym("Person"),
            &[],
            vec![
                ov_oodb::AttrDef::stored(sym("Name"), Type::Str),
                ov_oodb::AttrDef::stored(sym("Age"), Type::Int),
            ],
        )
        .unwrap();
    for (name, age) in rows {
        db.create_object(
            person,
            Value::tuple([("Name", Value::str(name)), ("Age", Value::Int(*age))]),
        )
        .unwrap();
    }
    sys.add_database(db).unwrap();
    sys
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A specialization class's population equals re-filtering the base —
    /// after any sequence of age updates.
    #[test]
    fn specialization_tracks_base(
        rows in prop::collection::vec(("[a-z]{1,6}", 0i64..100), 1..10),
        updates in prop::collection::vec((any::<prop::sample::Index>(), 0i64..100), 0..6),
        threshold in 0i64..100,
    ) {
        let sys = people_db(
            &rows.iter().map(|(n, a)| (n.clone(), *a)).collect::<Vec<_>>(),
        );
        let def = ViewDef::from_script(&format!(
            "create view V; import all classes from database P; \
             class Old includes (select X from Person where X.Age >= {threshold});"
        ))
        .unwrap();
        let view = def.binder(&sys).bind().unwrap();
        let incremental = def
            .binder(&sys).options(ViewOptions::builder()
                    .materialization(Materialization::Incremental)
                    .build()).bind()
            .unwrap();
        // Warm the incremental cache so deltas actually apply.
        incremental.extent_of(sym("Old")).unwrap();
        let db = sys.database(sym("P")).unwrap();
        for (ix, new_age) in &updates {
            let oids = {
                let d = db.read();
                d.deep_extent(d.schema.class_by_name(sym("Person")).unwrap())
            };
            let target = oids[ix.index(oids.len())];
            db.write().set_attr(target, sym("Age"), Value::Int(*new_age)).unwrap();
            // Check agreement after each update.
            let expected: usize = {
                let d = db.read();
                oids.iter()
                    .filter(|&&o| {
                        matches!(d.stored_attr(o, sym("Age")).unwrap(),
                                 Value::Int(a) if *a >= threshold)
                    })
                    .count()
            };
            let got = view.extent_of(sym("Old")).unwrap().len();
            prop_assert_eq!(got, expected);
            // Incremental maintenance agrees with recomputation.
            let inc = incremental.extent_of(sym("Old")).unwrap();
            prop_assert_eq!(inc, view.extent_of(sym("Old")).unwrap());
        }
    }

    /// Imaginary identity: equal core tuples keep their oid across
    /// arbitrary unrelated updates; distinct tuples get distinct oids.
    #[test]
    fn imaginary_identity_is_a_function(
        rows in prop::collection::vec(("[a-z]{1,6}", 0i64..5), 1..8),
        updates in prop::collection::vec((any::<prop::sample::Index>(), 0i64..5), 0..6),
    ) {
        let sys = people_db(
            &rows.iter().map(|(n, a)| (n.clone(), *a)).collect::<Vec<_>>(),
        );
        let view = ViewDef::from_script(
            "create view V; import all classes from database P; \
             class AgeGroup includes imaginary (select [Age: X.Age] from X in Person);",
        )
        .unwrap()
        .binder(&sys).bind()
        .unwrap();
        // Record the oid of each distinct age currently present.
        let mut seen: std::collections::HashMap<i64, ov_oodb::Oid> =
            std::collections::HashMap::new();
        let db = sys.database(sym("P")).unwrap();
        let oids = {
            let d = db.read();
            d.deep_extent(d.schema.class_by_name(sym("Person")).unwrap())
        };
        let mut observe = |view: &ov_views::View| -> Result<(), TestCaseError> {
            let groups = view.extent_of(sym("AgeGroup")).unwrap();
            for g in groups {
                let age = view.attr(g, sym("Age")).unwrap().as_int().unwrap();
                match seen.get(&age) {
                    None => {
                        // New age value: must be a brand-new oid.
                        prop_assert!(!seen.values().any(|&o| o == g));
                        seen.insert(age, g);
                    }
                    Some(&prev) => prop_assert_eq!(prev, g, "age {} changed oid", age),
                }
            }
            Ok(())
        };
        observe(&view)?;
        for (ix, new_age) in &updates {
            let target = oids[ix.index(oids.len())];
            db.write().set_attr(target, sym("Age"), Value::Int(*new_age)).unwrap();
            observe(&view)?;
        }
    }

    /// Hide makes the attribute unreachable via direct access, selects, and
    /// type inference — for the class and any subclass.
    #[test]
    fn hidden_attributes_are_unreachable(
        rows in prop::collection::vec(("[a-z]{1,6}", 0i64..100), 1..6),
    ) {
        let sys = people_db(
            &rows.iter().map(|(n, a)| (n.clone(), *a)).collect::<Vec<_>>(),
        );
        let view = ViewDef::from_script(
            "create view V; import all classes from database P; \
             class Old includes (select X from Person where X.Age >= 0); \
             hide attribute Age in class Person;",
        )
        .unwrap()
        .binder(&sys).bind()
        .unwrap();
        // Unreachable through the base class and through the virtual
        // subclass alike.
        prop_assert!(view.query("select P.Age from P in Person").is_err());
        prop_assert!(view.query("select O.Age from O in Old").is_err());
        let person = DataSource::class_by_name(&view, sym("Person")).unwrap();
        prop_assert!(DataSource::attr_sig(&view, person, sym("Age")).is_none());
        let q = ov_query::parse_select("select P.Age from P in Person").unwrap();
        prop_assert!(ov_query::infer_select(&view, &q).is_err());
        // Direct object access fails too.
        let db = sys.database(sym("P")).unwrap();
        let oid = {
            let d = db.read();
            d.deep_extent(d.schema.class_by_name(sym("Person")).unwrap())[0]
        };
        match view.attr(oid, sym("Age")) {
            Err(ViewError::Oodb(OodbError::UnknownAttr { .. })) => {}
            other => prop_assert!(false, "expected UnknownAttr, got {other:?}"),
        }
    }
}

// Random generalization lattices: define virtual classes over random
// subsets of base classes; R1/R2 and acyclicity must hold.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn inferred_hierarchies_are_sound(
        // Base: a root with `n` children; virtual classes over random
        // non-empty subsets of the children.
        n in 2usize..6,
        subsets in prop::collection::vec(
            prop::collection::vec(any::<bool>(), 6),
            1..4
        ),
    ) {
        let mut sys = System::new();
        let mut db = Database::new(sym("B"));
        let root = db.create_class(sym("Root"), &[], vec![]).unwrap();
        let children: Vec<(Symbol, ClassId)> = (0..n)
            .map(|i| {
                let name = sym(&format!("Leaf{i}"));
                (name, db.create_class(name, &[root], vec![]).unwrap())
            })
            .collect();
        sys.add_database(db).unwrap();

        let mut script = String::from("create view V; import all classes from database B;\n");
        let mut virtuals = Vec::new();
        for (vi, subset) in subsets.iter().enumerate() {
            let picked: Vec<&str> = children
                .iter()
                .enumerate()
                .filter(|(i, _)| subset[*i % subset.len()] || *i == 0)
                .map(|(_, (name, _))| name.as_str())
                .collect();
            let vname = format!("V{vi}_{n}");
            script.push_str(&format!("class {} includes {};\n", vname, picked.join(", ")));
            virtuals.push((vname, picked));
        }
        let view = ViewDef::from_script(&script).unwrap().binder(&sys).bind().unwrap();
        for (vname, picked) in &virtuals {
            // R2: every included class is a subclass of the virtual class.
            for p in picked {
                prop_assert!(view.is_subclass_by_name(sym(p), sym(vname)).unwrap());
                // Acyclicity: the reverse must NOT hold.
                prop_assert!(!view.is_subclass_by_name(sym(vname), sym(p)).unwrap());
            }
            // R1: Root is a superclass.
            prop_assert!(view.is_subclass_by_name(sym(vname), sym("Root")).unwrap());
        }
    }
}

/// A view with a parameterized class, bound fresh for each engine so
/// population caches never carry over from one run to the next.
fn param_view(sys: &System) -> ov_views::View {
    ViewDef::from_script(
        "create view V; import all classes from database P; \
         class Adult includes (select X from Person where X.Age >= 21); \
         class Older(A) includes (select X from Person where X.Age >= A);",
    )
    .unwrap()
    .binder(sys)
    .bind()
    .unwrap()
}

/// Runs `q` on a fresh parameterized view under `mode` and batch width
/// `batch` (ignored by the interpreter), with an unlimited budget: the
/// result, the steps charged, and the scan actuals.
fn run_param(
    sys: &System,
    q: &str,
    mode: ov_query::EngineMode,
    batch: usize,
) -> (
    Result<Value, ov_query::QueryError>,
    u64,
    ov_query::ScanActuals,
) {
    let view = param_view(sys);
    let budget = std::sync::Arc::new(ov_query::Budget::new());
    let (r, actuals) = ov_query::budget::with(budget.clone(), || {
        ov_query::with_engine_mode(mode, || {
            ov_query::with_batch_rows(batch, || {
                ov_query::plan::with_scan_actuals(|| ov_query::run_query(&view, q))
            })
        })
    });
    (r, budget.steps_used(), actuals)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Declaring a parameterized class no longer turns resolution caching
    /// off: scans through such a view compile, serve attribute resolutions
    /// from the per-class slot cache, and still match the interpreter bit
    /// for bit — values, errors and budget steps — including a filter that
    /// instantiates `Older(…)` mid-scan (each instantiation bumps the
    /// view's resolution generation and drops the warm caches).
    #[test]
    fn parameterized_views_compile_like_the_interpreter(
        rows in prop::collection::vec(("[a-c]{1,2}", 0i64..100), 2..10),
        t in 0i64..100,
        pick in 0usize..5,
    ) {
        use ov_query::EngineMode;
        let sys = people_db(&rows);
        let queries = [
            format!("select X.Name from X in Person where X.Age >= {t}"),
            format!("select X.Name from X in Person where X.Age >= {t} and count(Older(X.Age)) >= 1"),
            format!("select O.Name from O in Older({t})"),
            format!("count((select X from X in Older({t}) where X.Name != \"a\"))"),
            format!("select X.Name from X in Adult where X.Age / (X.Age - {t}) >= 0"),
        ];
        let q = &queries[pick];
        let (want, want_steps, _) = run_param(&sys, q, EngineMode::Interp, 0);
        for batch in [0usize, 1, 3, 1024] {
            let (got, steps, actuals) = run_param(&sys, q, EngineMode::Compiled, batch);
            prop_assert_eq!(&got, &want, "`{}` (batch={})", q, batch);
            prop_assert_eq!(steps, want_steps, "steps of `{}` (batch={})", q, batch);
            if pick == 0 {
                // Every row after the first reuses the class's verdict.
                prop_assert!(
                    actuals.cache_hits >= actuals.rows_scanned - 1,
                    "`{}` (batch={}): {:?}", q, batch, actuals
                );
            }
        }
    }
}

/// `Staff` with `Employee` and `Manager` under `Person`, an index on
/// `Name` (which covers the subclasses), and names that repeat across
/// classes.
fn staff_db(rows: &[(String, usize)]) -> System {
    let mut sys = System::new();
    let mut db = Database::new(sym("P"));
    let person = db
        .create_class(
            sym("Person"),
            &[],
            vec![ov_oodb::AttrDef::stored(sym("Name"), Type::Str)],
        )
        .unwrap();
    let employee = db
        .create_class(
            sym("Employee"),
            &[person],
            vec![ov_oodb::AttrDef::stored(sym("Dept"), Type::Str)],
        )
        .unwrap();
    let manager = db
        .create_class(sym("Manager"), &[employee], vec![])
        .unwrap();
    let classes = [person, employee, manager];
    for (name, class) in rows {
        let mut value = Value::tuple([("Name", Value::str(name))]);
        if class % 3 > 0 {
            value = Value::tuple([("Name", Value::str(name)), ("Dept", Value::str("a"))]);
        }
        db.create_object(classes[class % 3], value).unwrap();
    }
    db.create_index(person, sym("Name")).unwrap();
    sys.add_database(db).unwrap();
    sys
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Index pushdown through a view equals the sequential scan, errors
    /// included, under every rule that can make the source index wrong for
    /// the view: a selective import, a hidden attribute, a hidden class, and
    /// a computed override of the indexed attribute. Where the view must
    /// not use the index, `indexed_lookup` says so; where it may, it does,
    /// and the planned query, the planner-off scan, the interpreter, and
    /// the pushed-down population agree.
    #[test]
    fn index_pushdown_through_views_equals_the_scan(
        rows in prop::collection::vec(("[ab]", 0usize..3), 1..12),
        key_pick in 0usize..3,
    ) {
        use ov_query::{run_query, with_engine_mode, with_planner, EngineMode};
        let sys = staff_db(&rows);
        let key = ["a", "b", "zz"][key_pick];
        let all = "import all classes from database P;";
        // (import, what follows the population class, class to query,
        // does the index serve it?)
        let matrix = [
            (all, "", "Person", true),
            ("import class Person from database P;", "", "Person", true),
            ("import class Employee from database P;", "", "Employee", true),
            (all, "hide attribute Name in class Person;", "Person", false),
            (all, "hide class Employee;", "Person", false),
            (all, "attribute Name in class Employee has value self.Dept;", "Person", false),
        ];
        for (import, rest, class, served) in matrix {
            let body = format!("{import} {rest}");
            let view = ViewDef::from_script(&format!(
                "create view V; {import} \
                 class Named includes (select X from {class} where X.Name = \"{key}\"); {rest}"
            ))
            .unwrap()
            .binder(&sys)
            .bind()
            .unwrap();
            let q = format!("select X from X in {class} where X.Name = \"{key}\"");
            let want = with_engine_mode(EngineMode::Interp, || {
                with_planner(false, || run_query(&view, &q))
            });
            let seq = with_planner(false, || run_query(&view, &q));
            let planned = with_planner(true, || run_query(&view, &q));
            prop_assert_eq!(&seq, &want, "{}: `{}`", body, q);
            prop_assert_eq!(&planned, &want, "{}: `{}`", body, q);
            let c = DataSource::class_by_name(&view, sym(class)).unwrap();
            let lookup = DataSource::indexed_lookup(&view, c, sym("Name"), &Value::str(key));
            prop_assert_eq!(lookup.is_some(), served, "{}", body);
            if let (Some(oids), Ok(Value::Set(set))) = (&lookup, &want) {
                let scanned: Vec<ov_oodb::Oid> =
                    set.iter().map(|v| v.as_oid().unwrap()).collect();
                prop_assert_eq!(oids, &scanned, "{}", body);
            }
            // The population's pushdown obeys the same rule; where the
            // attribute is visible at the top level it equals the scan.
            if let Ok(Value::Set(set)) = &want {
                let pop = view.extent_of(sym("Named")).unwrap();
                let scanned: Vec<ov_oodb::Oid> =
                    set.iter().map(|v| v.as_oid().unwrap()).collect();
                prop_assert_eq!(pop, scanned, "{}: population", body);
            }
        }
    }
}
