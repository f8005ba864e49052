//! Property tests: the compiled predicate engine is observationally
//! identical to the tree-walking interpreter. For random predicates over a
//! scan variable, both engines produce the same value or the *same* error
//! (`QueryError` is `PartialEq`, so error variants and messages are
//! compared exactly), charge the same number of budget steps, breach
//! budgets at the same point, and surface injected faults identically.

use std::sync::Arc;

use ov_oodb::{sym, AggFunc, AttrDef, BinOp, Database, Expr, Type, UnOp, Value};
use ov_query::{compile_predicate, Budget, Env, Evaluator, QueryError, Scan};
use proptest::prelude::*;

/// A small database with stored and computed attributes, so random
/// predicates exercise the slot-resolution cache on both kinds.
fn db() -> Database {
    let mut db = Database::new(sym("CompDb"));
    let person = db
        .create_class(
            sym("Person"),
            &[],
            vec![
                AttrDef::stored(sym("Name"), Type::Str),
                AttrDef::stored(sym("Age"), Type::Int),
                AttrDef::computed(
                    sym("Senior"),
                    Type::Bool,
                    Expr::bin(BinOp::Ge, Expr::self_attr("Age"), Expr::lit(Value::Int(65))),
                ),
            ],
        )
        .unwrap();
    for (n, a) in [("a", 10), ("b", 30), ("c", 70)] {
        db.create_object(
            person,
            Value::tuple([("Name", Value::str(n)), ("Age", Value::Int(a))]),
        )
        .unwrap();
    }
    db
}

/// The oids of the three Person rows.
fn rows(db: &Database) -> Vec<Value> {
    let person = db.schema.class_by_name(sym("Person")).unwrap();
    db.store.extent(person).map(Value::Oid).collect()
}

fn arb_lit() -> impl Strategy<Value = Expr> {
    prop_oneof![
        Just(Expr::Lit(Value::Null)),
        any::<bool>().prop_map(|b| Expr::Lit(Value::Bool(b))),
        (-100i64..100).prop_map(|i| Expr::Lit(Value::Int(i))),
        (-10.0f64..10.0).prop_map(|f| Expr::Lit(Value::Float(f))),
        "[a-c]{0,3}".prop_map(|s| Expr::Lit(Value::str(&s))),
    ]
}

/// Random predicates over scan variable `V`: mostly shapes the compiler
/// covers (literals, the variable, attribute access, operators, `if`), plus
/// a low-weight tail of uncovered shapes (set/list constructors) to check
/// the fallback never panics or diverges.
fn arb_pred() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        arb_lit(),
        Just(Expr::name("V")),
        Just(Expr::attr(Expr::name("V"), "Age")),
        Just(Expr::attr(Expr::name("V"), "Name")),
        Just(Expr::attr(Expr::name("V"), "Senior")),
        Just(Expr::attr(Expr::name("V"), "NoSuchAttr")),
        Just(Expr::attr(Expr::lit(Value::Int(3)), "Age")),
    ];
    leaf.prop_recursive(4, 24, 3, |inner| {
        prop_oneof![
            (
                prop_oneof![
                    Just(BinOp::Add),
                    Just(BinOp::Sub),
                    Just(BinOp::Mul),
                    Just(BinOp::Div),
                    Just(BinOp::Mod),
                    Just(BinOp::Concat),
                    Just(BinOp::Eq),
                    Just(BinOp::Ne),
                    Just(BinOp::Lt),
                    Just(BinOp::Le),
                    Just(BinOp::Gt),
                    Just(BinOp::Ge),
                    Just(BinOp::And),
                    Just(BinOp::Or),
                ],
                inner.clone(),
                inner.clone()
            )
                .prop_map(|(op, l, r)| Expr::bin(op, l, r)),
            inner.clone().prop_map(|e| Expr::Unary {
                op: UnOp::Not,
                expr: Box::new(e),
            }),
            inner.clone().prop_map(|e| Expr::Unary {
                op: UnOp::Neg,
                expr: Box::new(e),
            }),
            (inner.clone(), inner.clone(), inner.clone()).prop_map(|(c, t, e)| Expr::If {
                cond: Box::new(c),
                then: Box::new(t),
                els: Box::new(e),
            }),
            prop::collection::vec(inner.clone(), 0..3).prop_map(Expr::SetCons),
        ]
    })
}

/// The interpreter's verdict for `e` with `V` bound to `row`, under an
/// optional budget.
fn interp(
    db: &Database,
    e: &Expr,
    row: &Value,
    budget: Option<Arc<Budget>>,
) -> Result<Value, QueryError> {
    let run = || {
        let mut env = Env::new();
        env.bind(sym("V"), row.clone());
        Evaluator::new(db).eval(e, &mut env)
    };
    match budget {
        Some(b) => ov_query::budget::with(b, run),
        None => run(),
    }
}

/// The compiled engine's verdict, or `None` when the shape is uncovered.
fn compiled(
    db: &Database,
    e: &Expr,
    row: &Value,
    budget: Option<Arc<Budget>>,
) -> Option<Result<Value, QueryError>> {
    let prog = compile_predicate(e, &[sym("V")])?;
    let run = || {
        let mut scan = Scan::new(&prog, db);
        scan.bind(0, row.clone());
        scan.run(0)
    };
    Some(match budget {
        Some(b) => ov_query::budget::with(b, run),
        None => run(),
    })
}

/// Scans `rows` through the interpreter with one shared budget — the
/// sequential scan-loop shape — stopping at the first error.
fn interp_scan_all(
    db: &Database,
    e: &Expr,
    rows: &[Value],
    budget: Arc<Budget>,
) -> (Vec<Value>, Option<QueryError>) {
    ov_query::budget::with(budget, || {
        let ev = Evaluator::new(db);
        let mut vals = Vec::new();
        for row in rows {
            let mut env = Env::new();
            env.bind(sym("V"), row.clone());
            match ev.eval(e, &mut env) {
                Ok(v) => vals.push(v),
                Err(err) => return (vals, Some(err)),
            }
        }
        (vals, None)
    })
}

/// Scans `rows` through one compiled executor, row at a time, sharing one
/// budget across the whole scan. `None` when the predicate is uncovered.
fn compiled_scan_all(
    db: &Database,
    e: &Expr,
    rows: &[Value],
    budget: Arc<Budget>,
) -> Option<(Vec<Value>, Option<QueryError>)> {
    let prog = compile_predicate(e, &[sym("V")])?;
    Some(ov_query::budget::with(budget, || {
        let mut scan = Scan::new(&prog, db);
        let mut vals = Vec::new();
        for row in rows {
            scan.bind(0, row.clone());
            match scan.run(0) {
                Ok(v) => vals.push(v),
                Err(err) => return (vals, Some(err)),
            }
        }
        (vals, None)
    }))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// One executor over empty, one-row and multi-row scans produces the
    /// same values, the same first error, and the same step counts as the
    /// interpreter's row loop.
    #[test]
    fn scans_match_the_interpreter_row_loop(e in arb_pred(), nrows in 0usize..4) {
        let db = db();
        let all = rows(&db);
        let rows = &all[..nrows.min(all.len())];
        let bi = Arc::new(Budget::new());
        let want = interp_scan_all(&db, &e, rows, bi.clone());
        let bc = Arc::new(Budget::new());
        let Some(got) = compiled_scan_all(&db, &e, rows, bc.clone()) else {
            return Ok(()); // uncovered shape
        };
        prop_assert_eq!(&got, &want, "expr: {}", e);
        prop_assert_eq!(bc.steps_used(), bi.steps_used(), "step divergence on {}", e);
    }

    /// A budget breach mid-scan lands on the same row, with the same error
    /// and the same step count.
    #[test]
    fn breach_mid_scan_is_bit_identical(e in arb_pred(), max_steps in 0u64..96) {
        let db = db();
        let rows = rows(&db);
        let bi = Arc::new(Budget::new().with_max_steps(max_steps));
        let want = interp_scan_all(&db, &e, &rows, bi.clone());
        let bc = Arc::new(Budget::new().with_max_steps(max_steps));
        let Some(got) = compiled_scan_all(&db, &e, &rows, bc.clone()) else {
            return Ok(()); // uncovered shape
        };
        prop_assert_eq!(&got, &want, "expr: {} (max_steps={})", e, max_steps);
        prop_assert_eq!(
            bc.steps_used(),
            bi.steps_used(),
            "step divergence on {} (max_steps={})",
            e,
            max_steps
        );
    }

    /// Same value, or the same error (variant *and* payload), on every row.
    #[test]
    fn compiled_matches_interpreter(e in arb_pred()) {
        let db = db();
        for row in rows(&db) {
            let want = interp(&db, &e, &row, None);
            if let Some(got) = compiled(&db, &e, &row, None) {
                prop_assert_eq!(&got, &want, "expr: {}", e);
            }
        }
    }

    /// Under a step budget, both engines charge identical step counts and
    /// breach at exactly the same point with exactly the same error —
    /// including breaches that land mid-expression.
    #[test]
    fn budget_accounting_is_bit_identical(e in arb_pred(), max_steps in 0u64..48) {
        let db = db();
        for row in rows(&db) {
            let bi = Arc::new(Budget::new().with_max_steps(max_steps));
            let want = interp(&db, &e, &row, Some(bi.clone()));
            let bc = Arc::new(Budget::new().with_max_steps(max_steps));
            let Some(got) = compiled(&db, &e, &row, Some(bc.clone())) else {
                continue;
            };
            prop_assert_eq!(&got, &want, "expr: {} (max_steps={})", e, max_steps);
            prop_assert_eq!(
                bc.steps_used(),
                bi.steps_used(),
                "step divergence on {} (max_steps={})",
                e,
                max_steps
            );
        }
    }

    /// EXPLAIN ANALYZE actuals are engine-invariant: for one query, the
    /// tree-walking interpreter and the compiled engine report identical
    /// rows-scanned, rows-matched, and budget-step actuals in the query
    /// trace (resolution-cache counters are compiled-engine diagnostics
    /// and legitimately differ).
    #[test]
    fn actuals_are_engine_invariant(
        threshold in -5i64..105,
        q_idx in 0usize..4,
    ) {
        use ov_query::{run_query_traced, EngineMode};
        let db = db();
        let queries = [
            format!("select V.Name from V in Person where V.Age >= {threshold}"),
            format!("select V from V in Person where V.Age < {threshold}"),
            format!("select V.Age from V in Person where V.Senior and V.Age > {threshold}"),
            format!("count((select V from V in Person where V.Age != {threshold}))"),
        ];
        let q = &queries[q_idx];
        // Each run gets a fresh unlimited budget so the trace's `steps`
        // actual (a bracketed budget delta) is populated and comparable.
        let run = |mode: EngineMode| {
            ov_query::budget::with(Arc::new(Budget::new()), || {
                ov_query::with_engine_mode(mode, || run_query_traced(&db, q))
            })
            .unwrap()
        };
        let (v0, t0) = run(EngineMode::Interp);
        let (v, t) = run(EngineMode::Compiled);
        let (a0, a) = (t0.actuals, t.actuals);
        prop_assert_eq!(v, v0, "result divergence on `{}`", q);
        prop_assert_eq!(a.rows_scanned, a0.rows_scanned, "rows_scanned on `{}`", q);
        prop_assert_eq!(a.rows_matched, a0.rows_matched, "rows_matched on `{}`", q);
        prop_assert_eq!(a.steps, a0.steps, "steps on `{}`", q);
    }

    /// With no budget cap, an uncapped run still meters the same steps —
    /// the accounting itself (not just the breach behaviour) is identical.
    #[test]
    fn uncapped_step_counts_match(e in arb_pred()) {
        let db = db();
        for row in rows(&db) {
            let bi = Arc::new(Budget::new());
            let want = interp(&db, &e, &row, Some(bi.clone()));
            let bc = Arc::new(Budget::new());
            let Some(got) = compiled(&db, &e, &row, Some(bc.clone())) else {
                continue;
            };
            prop_assert_eq!(&got, &want, "expr: {}", e);
            prop_assert_eq!(bc.steps_used(), bi.steps_used(), "expr: {}", e);
        }
    }
}

/// Random predicates over two scan variables `a` and `b` — the raw
/// material for multi-binding filters and correlated sub-select filters.
fn arb_pred2(a: &'static str, b: &'static str) -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        arb_lit(),
        Just(Expr::name(a)),
        Just(Expr::attr(Expr::name(a), "Age")),
        Just(Expr::attr(Expr::name(a), "Name")),
        Just(Expr::attr(Expr::name(a), "Senior")),
        Just(Expr::name(b)),
        Just(Expr::attr(Expr::name(b), "Age")),
        Just(Expr::attr(Expr::name(b), "Name")),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (
                prop_oneof![
                    Just(BinOp::Add),
                    Just(BinOp::Div),
                    Just(BinOp::Eq),
                    Just(BinOp::Ne),
                    Just(BinOp::Lt),
                    Just(BinOp::Ge),
                    Just(BinOp::And),
                    Just(BinOp::Or),
                ],
                inner.clone(),
                inner.clone()
            )
                .prop_map(|(op, l, r)| Expr::bin(op, l, r)),
            inner.clone().prop_map(|e| Expr::Unary {
                op: UnOp::Not,
                expr: Box::new(e),
            }),
        ]
    })
}

/// A predicate over `V` that embeds a sub-select over `Q in Person` with a
/// (possibly correlated) random filter. `exists` picks `Exists` vs a value
/// comparison of the inner `Select`; `the` exercises the single-row
/// cardinality error path.
fn nested_pred(exists: bool, the: bool, filter: Expr) -> Expr {
    let q = ov_oodb::SelectExpr {
        distinct: false,
        the,
        proj: Box::new(Expr::attr(Expr::name("Q"), "Age")),
        bindings: vec![(sym("Q"), Expr::name("Person"))],
        filter: Some(Box::new(filter)),
    };
    if exists {
        Expr::Exists(q)
    } else {
        Expr::bin(BinOp::Ne, Expr::Select(q), Expr::Lit(Value::Null))
    }
}

/// A top-level two-binding select over `V, W in Person` with a random
/// filter and one of three projections (outer attr, inner attr, tuple of
/// both).
fn select2(the: bool, proj_idx: usize, filter: Expr) -> Expr {
    Expr::Select(ov_oodb::SelectExpr {
        distinct: false,
        the,
        proj: Box::new(match proj_idx {
            0 => Expr::attr(Expr::name("V"), "Name"),
            1 => Expr::attr(Expr::name("W"), "Age"),
            _ => Expr::TupleCons(vec![
                (sym("A"), Expr::attr(Expr::name("V"), "Age")),
                (sym("B"), Expr::attr(Expr::name("W"), "Name")),
            ]),
        }),
        bindings: vec![
            (sym("V"), Expr::name("Person")),
            (sym("W"), Expr::name("Person")),
        ],
        filter: Some(Box::new(filter)),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Nested sub-selects (correlated and not, `exists` and value-compared,
    /// `the` and plain): values, error variants, budget breach points, and
    /// step counts are identical across engines.
    #[test]
    fn nested_selects_are_bit_identical(
        filter in arb_pred2("Q", "V"),
        exists in any::<bool>(),
        the in any::<bool>(),
        max_steps in 0u64..400,
    ) {
        let db = db();
        let rows = rows(&db);
        let e = nested_pred(exists, the, filter);
        let bi = Arc::new(Budget::new().with_max_steps(max_steps));
        let want = interp_scan_all(&db, &e, &rows, bi.clone());
        let bc = Arc::new(Budget::new().with_max_steps(max_steps));
        let Some(got) = compiled_scan_all(&db, &e, &rows, bc.clone()) else {
            return Ok(()); // uncovered tail shape
        };
        prop_assert_eq!(&got, &want, "expr: {} (max_steps={})", e, max_steps);
        prop_assert_eq!(
            bc.steps_used(),
            bi.steps_used(),
            "step divergence on {} (max_steps={})",
            e,
            max_steps
        );
    }

    /// Top-level multi-binding selects: the compiled nested-loop produces
    /// the same value (or the same error, at the same budget breach point,
    /// with the same step count) as the interpreter.
    #[test]
    fn multi_binding_selects_are_bit_identical(
        filter in arb_pred2("V", "W"),
        the in any::<bool>(),
        proj_idx in 0usize..3,
        max_steps in 0u64..600,
    ) {
        let db = db();
        let e = select2(the, proj_idx, filter);
        let bi = Arc::new(Budget::new().with_max_steps(max_steps));
        let want = ov_query::budget::with(bi.clone(), || {
            Evaluator::new(&db).eval(&e, &mut Env::new())
        });
        let Some(prog) = compile_predicate(&e, &[]) else {
            return Ok(()); // uncovered tail shape in the filter
        };
        let bc = Arc::new(Budget::new().with_max_steps(max_steps));
        let got = ov_query::budget::with(bc.clone(), || Scan::new(&prog, &db).run(0));
        prop_assert_eq!(&got, &want, "expr: {} (max_steps={})", e, max_steps);
        prop_assert_eq!(
            bc.steps_used(),
            bi.steps_used(),
            "step divergence on {} (max_steps={})",
            e,
            max_steps
        );
    }
}

/// An aggregate over a random argument: covered scalar shapes (so
/// `count(1)` and `sum("ab")` error), a correlated sub-select projecting a
/// number or a string (`sum` over strings errors), a set of sets for
/// `flatten`, and a parameterized-class application (which a base
/// database refuses).
fn arb_agg() -> impl Strategy<Value = Expr> {
    let func = prop_oneof![
        Just(AggFunc::Count),
        Just(AggFunc::Sum),
        Just(AggFunc::Min),
        Just(AggFunc::Max),
        Just(AggFunc::Avg),
        Just(AggFunc::Flatten),
    ];
    let sub = |proj: &'static str| {
        arb_pred2("Q", "V").prop_map(move |f| {
            Expr::Select(ov_oodb::SelectExpr {
                distinct: false,
                the: false,
                proj: Box::new(Expr::attr(Expr::name("Q"), proj)),
                bindings: vec![(sym("Q"), Expr::name("Person"))],
                filter: Some(Box::new(f)),
            })
        })
    };
    let arg = prop_oneof![
        arb_pred(),
        sub("Age"),
        sub("Name"),
        prop::collection::vec(arb_pred(), 0..3).prop_map(|items| {
            Expr::SetCons(items.into_iter().map(|e| Expr::SetCons(vec![e])).collect())
        }),
        arb_pred().prop_map(|e| Expr::Apply {
            name: sym("Older"),
            args: vec![e],
        }),
    ];
    (func, arg).prop_map(|(func, arg)| Expr::Aggregate {
        func,
        arg: Box::new(arg),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Aggregates compile, and match the interpreter bit for bit: the same
    /// value or error, the same step count, and a budget breach at the
    /// same point.
    #[test]
    fn aggregates_are_bit_identical(e in arb_agg(), max_steps in 0u64..400) {
        let db = db();
        let rows = rows(&db);
        let bi = Arc::new(Budget::new().with_max_steps(max_steps));
        let want = interp_scan_all(&db, &e, &rows, bi.clone());
        let bc = Arc::new(Budget::new().with_max_steps(max_steps));
        let got = compiled_scan_all(&db, &e, &rows, bc.clone());
        prop_assert!(got.is_some(), "`{}` should compile", e);
        prop_assert_eq!(&got.unwrap(), &want, "expr: {} (max_steps={})", e, max_steps);
        prop_assert_eq!(
            bc.steps_used(),
            bi.steps_used(),
            "step divergence on {} (max_steps={})",
            e,
            max_steps
        );
    }
}

/// The aggregate error paths the random test relies on, spelled out: each
/// errors in both engines with the same error.
#[test]
fn aggregate_errors_match_the_interpreter() {
    let db = db();
    let rows = rows(&db);
    for src in [
        "count(1)",
        "sum(V.Name)",
        "sum((select Q.Name from Q in Person))",
        "flatten({V.Age})",
        "min(Older(V.Age))",
    ] {
        let e = ov_query::parse_expr(src).unwrap();
        let want = interp_scan_all(&db, &e, &rows, Arc::new(Budget::new()));
        assert!(want.1.is_some(), "`{src}` should error");
        let got = compiled_scan_all(&db, &e, &rows, Arc::new(Budget::new()))
            .unwrap_or_else(|| panic!("`{src}` should compile"));
        assert_eq!(got, want, "`{src}`");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The planner's strategy choice (index pushdown vs sequential scan vs
    /// reordered join) never changes query results: planner-on, planner-off,
    /// and the forced interpreter agree on every error-free workload.
    #[test]
    fn planner_choice_never_changes_results(t in 0i64..100, pick in 0usize..4) {
        use ov_query::{run_query, with_planner, EngineMode};
        let mut db = Database::new(sym("PlanDb"));
        let person = db
            .create_class(
                sym("Person"),
                &[],
                vec![
                    AttrDef::stored(sym("Name"), Type::Str),
                    AttrDef::stored(sym("Age"), Type::Int),
                ],
            )
            .unwrap();
        for i in 0..48 {
            db.create_object(
                person,
                Value::tuple([
                    ("Name", Value::str(&format!("p{i}"))),
                    ("Age", Value::Int(i % 24)),
                ]),
            )
            .unwrap();
        }
        db.create_index(person, sym("Age")).unwrap();
        let queries = [
            format!("select P from P in Person where P.Age = {t}"),
            format!("select P.Name from P in Person where P.Age >= {t}"),
            format!(
                "select P.Name from P in Person, D in Person \
                 where P.Age = D.Age and P.Age >= {t}"
            ),
            format!(
                "select P.Name from P in Person \
                 where exists(select Q from Q in Person where Q.Age > P.Age + {t})"
            ),
        ];
        let q = &queries[pick];
        // Warm the statistics plane so planning runs from measured
        // cardinality/NDV, then compare every strategy's verdict.
        ov_oodb::metrics::set_profiling(true);
        let _ = run_query(&db, "select P.Name from P in Person where P.Age >= 0");
        ov_oodb::metrics::set_profiling(false);
        let want = ov_query::with_engine_mode(EngineMode::Interp, || run_query(&db, q));
        let on = with_planner(true, || run_query(&db, q));
        let off = with_planner(false, || run_query(&db, q));
        prop_assert_eq!(&on, &want, "planner-on divergence on `{}`", q);
        prop_assert_eq!(&off, &want, "planner-off divergence on `{}`", q);
    }
}

/// An injected fault mid-scan surfaces identically through both engines:
/// the parallel scan's per-chunk failpoint fires before any predicate
/// runs, so the resulting error is engine-independent — and with faults
/// cleared, both engines agree on the result.
#[test]
fn injected_faults_surface_identically() {
    use ov_query::ParallelConfig;

    let mut db = Database::new(sym("FaultDb"));
    let person = db
        .create_class(
            sym("Person"),
            &[],
            vec![AttrDef::stored(sym("Age"), Type::Int)],
        )
        .unwrap();
    for i in 0..64 {
        db.create_object(person, Value::tuple([("Age", Value::Int(i))]))
            .unwrap();
    }
    let cfg = ParallelConfig {
        threads: 4,
        threshold: 1,
    };
    // The second query carries a nested sub-select in its filter, so the
    // fault also exercises the compiled sub-select path.
    for q in [
        "select P from P in Person where P.Age >= 21",
        "select P from P in Person \
         where P.Age >= 21 and exists(select Q from Q in Person where Q.Age > P.Age)",
    ] {
        injected_faults_surface_identically_for(&db, &cfg, q);
    }
}

fn injected_faults_surface_identically_for(db: &Database, cfg: &ov_query::ParallelConfig, q: &str) {
    use ov_oodb::faults::{arm, clear, FaultAction, FaultSchedule};
    use ov_query::{run_query_parallel, EngineMode};

    // Thread-scoped overrides: this test no longer mutates the process
    // default, so it cannot leak engine mode into concurrently running
    // tests.
    let run_with =
        |mode: EngineMode| ov_query::with_engine_mode(mode, || run_query_parallel(db, cfg, q));

    // Fault on the 2nd chunk: both engines die with the same typed error.
    arm(
        "query.scan_chunk",
        FaultSchedule::Nth(2),
        FaultAction::Error,
    );
    let compiled_err = run_with(EngineMode::Compiled);
    clear();
    arm(
        "query.scan_chunk",
        FaultSchedule::Nth(2),
        FaultAction::Error,
    );
    let interp_err = run_with(EngineMode::Interp);
    clear();
    assert!(compiled_err.is_err(), "fault must surface");
    assert_eq!(compiled_err, interp_err);

    // Faults cleared: both engines agree on the value.
    let compiled_ok = run_with(EngineMode::Compiled);
    let interp_ok = run_with(EngineMode::Interp);
    assert!(compiled_ok.is_ok());
    assert_eq!(compiled_ok, interp_ok);
}
