//! Cost-based planning for compiled scans.
//!
//! PR 8 grew a statistics plane (`ov_oodb::stats`: cardinality, NDV via
//! HLL, min–max, null fraction) that nothing consumed; scans picked
//! their strategy — index pushdown, sequential compiled scan, parallel
//! split — by fixed shape heuristics. This module closes the loop: it
//! estimates per-scan row counts from the sketches (conjunct splitting,
//! so each `and` leg is costed independently), chooses a [`Strategy`]
//! per scan, and caches chosen plans keyed by the PR 8 query
//! fingerprint. The paper's view mechanism multiplies derived queries
//! (parameterized-class instantiation, stacked-view repopulation), so
//! one planning decision is amortized across thousands of
//! re-evaluations.
//!
//! Two invariants keep estimation honest:
//!
//! - **Estimates never affect correctness.** Every choice is validated
//!   at execution time: a pushdown plan whose index turns out not to
//!   exist is demoted to a sequential scan; a reordered join is only
//!   attempted when reordering provably cannot change the result set
//!   (independent class-extent bindings, no budget installed).
//! - **Plans expire.** A cached plan is invalidated when the source's
//!   `resolution_generation` moves and when the actual row count's
//!   [`q_error`] against the estimate reaches [`DRIFT_FACTOR`] (the
//!   misestimate also counts in `planner.replans`).

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

use ov_oodb::stats::{stats, ClassStatistics};
use ov_oodb::{metric_counter, BinOp, Expr, SelectExpr, Symbol, UnOp, Value};

use crate::fingerprint::fingerprint_expr;
use crate::source::DataSource;

/// Selectivity assumed for a predicate leg the model cannot analyze.
pub const DEFAULT_SELECTIVITY: f64 = 1.0 / 3.0;

/// Cardinality assumed for a class no scan has measured yet.
pub const DEFAULT_CARDINALITY: u64 = 1024;

/// An equality probe is only worth an index round-trip when the expected
/// candidate set is a fraction of the extent: `ndv` must exceed this.
/// (At NDV 2 — a boolean-ish column — the "index" hands back half the
/// extent and the sequential scan wins.)
pub const PUSHDOWN_MIN_NDV: u64 = 4;

/// Estimate-vs-actual divergence (either direction, as a [`q_error`])
/// that evicts a cached plan and forces a re-plan.
pub const DRIFT_FACTOR: u64 = 10;

/// Row count below which [`q_error`] stops telling estimates apart: every
/// access path is cheap at that size, so a miss there cannot pick a bad
/// plan. It must exceed a tenth of the no-statistics estimate of an
/// equality leg (`DEFAULT_CARDINALITY` × `DEFAULT_SELECTIVITY` ≈ 341), or
/// every cold key probe (one row) would count as a 10× misestimate.
pub const QERROR_ROW_FLOOR: u64 = 64;

// ---------------------------------------------------------------------
// Enablement: a process default plus a thread-scoped override, same
// shape as the engine-mode switch in `compile.rs`.
// ---------------------------------------------------------------------

static PLANNER_ON: AtomicBool = AtomicBool::new(true);

thread_local! {
    static TLS_PLANNER: Cell<Option<bool>> = const { Cell::new(None) };
    static LAST_DECISION: RefCell<Option<Decision>> = const { RefCell::new(None) };
}

/// Turns the cost-based planner on or off process-wide. Off reproduces
/// the pre-planner fixed heuristics exactly (the E19 baseline).
pub fn set_planner_enabled(on: bool) {
    PLANNER_ON.store(on, Ordering::SeqCst);
}

/// Is the planner consulted for strategy choices on this thread?
pub fn planner_enabled() -> bool {
    TLS_PLANNER
        .with(|t| t.get())
        .unwrap_or_else(|| PLANNER_ON.load(Ordering::SeqCst))
}

/// Runs `f` with the planner forced on or off on this thread only.
pub fn with_planner<R>(on: bool, f: impl FnOnce() -> R) -> R {
    TLS_PLANNER.with(|t| {
        let prev = t.replace(Some(on));
        let r = f();
        t.set(prev);
        r
    })
}

// ---------------------------------------------------------------------
// Decisions
// ---------------------------------------------------------------------

/// The access path the planner chose for one scan.
#[derive(Clone, Debug, PartialEq)]
pub enum Strategy {
    /// Sequential compiled scan over the extent.
    Seq,
    /// Probe an equality index on `attr` for `value`, then re-test the
    /// candidates. Demoted to [`Strategy::Seq`] at execution time if the
    /// source has no such index.
    IndexPushdown {
        /// The attribute whose equality conjunct drives the probe.
        attr: Symbol,
        /// The literal being probed for.
        value: Value,
    },
    /// Split the extent across worker threads.
    Parallel {
        /// Number of workers the estimate was costed against.
        workers: usize,
    },
    /// Multi-binding nested loop with bindings iterated in `order`
    /// (indices into the select's binding list), cheapest first.
    Join {
        /// Binding order by estimated output rows, ascending.
        order: Vec<usize>,
    },
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Strategy::Seq => write!(f, "seq"),
            Strategy::IndexPushdown { attr, .. } => write!(f, "index({attr})"),
            Strategy::Parallel { workers } => write!(f, "parallel x{workers}"),
            Strategy::Join { order } => {
                write!(f, "join(")?;
                for (i, b) in order.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{b}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// One planning outcome: the strategy, its row estimate, and whether it
/// came out of the plan cache.
#[derive(Clone, Debug, PartialEq)]
pub struct Decision {
    /// The chosen access path.
    pub strategy: Strategy,
    /// Estimated result rows (cardinality × selectivity, floored at 1
    /// for non-empty extents).
    pub est_rows: u64,
    /// `true` when the plan was served from the fingerprint-keyed cache.
    pub cache_hit: bool,
}

/// Clears the thread's "last planner decision" slot. Called at the top
/// of every planned query so EXPLAIN never reports a stale decision.
pub fn clear_last_decision() {
    LAST_DECISION.with(|d| *d.borrow_mut() = None);
}

/// Publishes the decision the planner just made for the running query,
/// so EXPLAIN and the workload registry can surface it.
pub fn set_last_decision(d: Decision) {
    LAST_DECISION.with(|slot| *slot.borrow_mut() = Some(d));
}

/// Takes the decision recorded for the query that just ran, if any.
pub fn take_last_decision() -> Option<Decision> {
    LAST_DECISION.with(|d| d.borrow_mut().take())
}

// ---------------------------------------------------------------------
// The plan cache
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
struct CachedPlan {
    strategy: Strategy,
    est_rows: u64,
    /// `resolution_generation` of the source the plan was made under; a
    /// moved generation invalidates the entry.
    generation: u64,
}

fn cache() -> &'static Mutex<HashMap<String, CachedPlan>> {
    static CACHE: OnceLock<Mutex<HashMap<String, CachedPlan>>> = OnceLock::new();
    CACHE.get_or_init(Mutex::default)
}

/// Drops every cached plan (tests and benchmarks use this to start from
/// a cold planner).
pub fn clear_plan_cache() {
    cache().lock().expect("plan cache poisoned").clear();
}

fn cache_lookup(fp: &str, generation: u64) -> Option<CachedPlan> {
    let guard = cache().lock().expect("plan cache poisoned");
    match guard.get(fp) {
        Some(c) if c.generation == generation => {
            metric_counter!("planner.plan_cache.hits").inc();
            Some(c.clone())
        }
        _ => {
            metric_counter!("planner.plan_cache.misses").inc();
            None
        }
    }
}

fn cache_store(fp: String, plan: CachedPlan) {
    cache()
        .lock()
        .expect("plan cache poisoned")
        .insert(fp, plan);
}

/// Rewrites the cached plan for `expr` to a sequential scan — called
/// when execution discovers a pushdown plan's index does not exist, so
/// later queries skip the doomed probe.
pub fn demote_to_seq(expr: &Expr) {
    let (fp, _) = fingerprint_expr(expr);
    let mut guard = cache().lock().expect("plan cache poisoned");
    if let Some(c) = guard.get_mut(&fp) {
        c.strategy = Strategy::Seq;
    }
}

/// The q-error of a row estimate (Moerkotte et al., VLDB 2009): the
/// factor by which it misses the actual count in either direction, with
/// both sides raised to [`QERROR_ROW_FLOOR`] first.
pub fn q_error(est_rows: u64, actual_rows: u64) -> f64 {
    let est = est_rows.max(QERROR_ROW_FLOOR) as f64;
    let act = actual_rows.max(QERROR_ROW_FLOOR) as f64;
    est.max(act) / est.min(act)
}

/// Feeds a query's measured result rows back into the cache: when the
/// [`q_error`] of the cached estimate reaches [`DRIFT_FACTOR`] the plan
/// is evicted (counted in `planner.replans`) and the next execution
/// re-plans from fresher statistics.
pub fn observe_actual(expr: &Expr, actual_rows: u64) {
    let (fp, _) = fingerprint_expr(expr);
    let mut guard = cache().lock().expect("plan cache poisoned");
    if let Some(c) = guard.get(&fp) {
        if q_error(c.est_rows, actual_rows) >= DRIFT_FACTOR as f64 {
            guard.remove(&fp);
            metric_counter!("planner.replans").inc();
        }
    }
}

// ---------------------------------------------------------------------
// Selectivity estimation
// ---------------------------------------------------------------------

/// Splits a filter into its top-level `and` legs, in evaluation order.
/// `truthy(a and b)` ⇔ `truthy(a) && truthy(b)`, so the legs can be
/// costed (and, where provably safe, evaluated) independently.
pub fn conjuncts(e: &Expr) -> Vec<&Expr> {
    let mut out = Vec::new();
    fn walk<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
        match e {
            Expr::Binary {
                op: BinOp::And,
                lhs,
                rhs,
            } => {
                walk(lhs, out);
                walk(rhs, out);
            }
            _ => out.push(e),
        }
    }
    walk(e, &mut out);
    out
}

/// `var.Attr = literal` (either orientation) with no call arguments —
/// the shape an equality index can serve.
pub fn eq_conjunct(leg: &Expr, var: Symbol) -> Option<(Symbol, &Value)> {
    let Expr::Binary {
        op: BinOp::Eq,
        lhs,
        rhs,
    } = leg
    else {
        return None;
    };
    let attr_of = |e: &Expr| -> Option<Symbol> {
        if let Expr::Attr { recv, name, args } = e {
            if args.is_empty() && matches!(recv.as_ref(), Expr::Name(n) if *n == var) {
                return Some(*name);
            }
        }
        None
    };
    if let (Some(attr), Expr::Lit(v)) = (attr_of(lhs), rhs.as_ref()) {
        return Some((attr, v));
    }
    if let (Some(attr), Expr::Lit(v)) = (attr_of(rhs), lhs.as_ref()) {
        return Some((attr, v));
    }
    None
}

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(x) => Some(*x),
        _ => None,
    }
}

/// Fraction of the `[min, max]` range selected by `op lit` (for `var.A
/// op lit`), assuming a uniform distribution.
fn range_fraction(op: BinOp, lit: f64, min: f64, max: f64) -> f64 {
    let width = max - min;
    if width <= 0.0 {
        // Degenerate (single-valued) range: the comparison either takes
        // everything or nothing; split the difference like an unknown.
        return DEFAULT_SELECTIVITY;
    }
    let below = ((lit - min) / width).clamp(0.0, 1.0);
    match op {
        BinOp::Lt | BinOp::Le => below,
        BinOp::Gt | BinOp::Ge => 1.0 - below,
        _ => DEFAULT_SELECTIVITY,
    }
}

/// Selectivity of one predicate leg over `var`, from the class's
/// sketches. Unknown shapes and unmeasured attributes cost
/// [`DEFAULT_SELECTIVITY`].
fn leg_selectivity(cs: &ClassStatistics, var: Symbol, leg: &Expr) -> f64 {
    // var.Attr op literal (either orientation), no call arguments.
    let attr_cmp = |lhs: &Expr, rhs: &Expr| -> Option<(Symbol, Value, bool)> {
        let attr_of = |e: &Expr| -> Option<Symbol> {
            if let Expr::Attr { recv, name, args } = e {
                if args.is_empty() && matches!(recv.as_ref(), Expr::Name(n) if *n == var) {
                    return Some(*name);
                }
            }
            None
        };
        if let (Some(a), Expr::Lit(v)) = (attr_of(lhs), rhs) {
            return Some((a, v.clone(), false));
        }
        if let (Some(a), Expr::Lit(v)) = (attr_of(rhs), lhs) {
            return Some((a, v.clone(), true));
        }
        None
    };
    match leg {
        Expr::Binary { op, lhs, rhs } => match op {
            BinOp::And => leg_selectivity(cs, var, lhs) * leg_selectivity(cs, var, rhs),
            BinOp::Or => {
                let a = leg_selectivity(cs, var, lhs);
                let b = leg_selectivity(cs, var, rhs);
                (a + b - a * b).clamp(0.0, 1.0)
            }
            BinOp::Eq | BinOp::Ne => {
                let Some((attr, _, _)) = attr_cmp(lhs, rhs) else {
                    return DEFAULT_SELECTIVITY;
                };
                let Some(s) = cs.attrs.get(&attr) else {
                    return DEFAULT_SELECTIVITY;
                };
                // Column sketches come from *sampled* rows, so the HLL
                // NDV is bounded by the sample size, not the extent. When
                // the sample is (nearly) all-distinct, the column is a key
                // as far as we can tell — extrapolate NDV to the full
                // class cardinality instead of the sample's ceiling
                // (the textbook distinct-value estimator's key case).
                let observed = s.rows.saturating_sub(s.nulls).max(1);
                let ndv = if s.ndv.saturating_mul(10) >= observed.saturating_mul(9) {
                    cs.cardinality.unwrap_or(s.ndv).max(s.ndv).max(1) as f64
                } else {
                    s.ndv.max(1) as f64
                };
                let non_null = 1.0 - s.null_fraction;
                if *op == BinOp::Eq {
                    (non_null / ndv).clamp(0.0, 1.0)
                } else {
                    (non_null * (1.0 - 1.0 / ndv)).clamp(0.0, 1.0)
                }
            }
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                let Some((attr, lit, flipped)) = attr_cmp(lhs, rhs) else {
                    return DEFAULT_SELECTIVITY;
                };
                let Some(s) = cs.attrs.get(&attr) else {
                    return DEFAULT_SELECTIVITY;
                };
                let (Some(lit), Some(min), Some(max)) = (
                    as_f64(&lit),
                    s.min.as_ref().and_then(as_f64),
                    s.max.as_ref().and_then(as_f64),
                ) else {
                    return DEFAULT_SELECTIVITY;
                };
                // `lit op var.A` mirrors to `var.A flip(op) lit`.
                let op = if flipped {
                    match op {
                        BinOp::Lt => BinOp::Gt,
                        BinOp::Le => BinOp::Ge,
                        BinOp::Gt => BinOp::Lt,
                        BinOp::Ge => BinOp::Le,
                        other => *other,
                    }
                } else {
                    *op
                };
                (range_fraction(op, lit, min, max) * (1.0 - s.null_fraction)).clamp(0.0, 1.0)
            }
            _ => DEFAULT_SELECTIVITY,
        },
        Expr::Unary {
            op: UnOp::Not,
            expr,
        } => (1.0 - leg_selectivity(cs, var, expr)).clamp(0.0, 1.0),
        Expr::Lit(Value::Bool(true)) => 1.0,
        Expr::Lit(Value::Bool(false)) => 0.0,
        _ => DEFAULT_SELECTIVITY,
    }
}

/// Combined selectivity of a filter over `var`: the product of its
/// conjunct legs' selectivities.
fn filter_selectivity(cs: &ClassStatistics, var: Symbol, filter: Option<&Expr>) -> f64 {
    let Some(f) = filter else { return 1.0 };
    conjuncts(f)
        .iter()
        .map(|leg| leg_selectivity(cs, var, leg))
        .product::<f64>()
        .clamp(0.0, 1.0)
}

fn est_rows_from(card: u64, selectivity: f64) -> u64 {
    if card == 0 {
        return 0;
    }
    ((card as f64 * selectivity).round() as u64).max(1)
}

/// Estimated result rows for a single-binding scan of `class` filtered
/// by `filter`, from statistics alone. `None` when no scan has measured
/// the class yet (cold statistics — display call sites show nothing
/// rather than a guess).
pub fn estimate_select(class: Symbol, var: Symbol, filter: Option<&Expr>) -> Option<u64> {
    let cs = stats().class(class).snapshot();
    let card = cs.cardinality?;
    Some(est_rows_from(card, filter_selectivity(&cs, var, filter)))
}

// ---------------------------------------------------------------------
// Strategy choice
// ---------------------------------------------------------------------

/// Is an equality-index probe on `class.attr` expected to beat the
/// sequential scan? `true` when statistics are absent (the
/// probe itself is cheap and execution validates), `false` when the
/// sketch says the column is low-NDV — the candidate set would be a
/// large slice of the extent and per-candidate retests lose to the
/// sequential scan.
pub fn index_worthwhile(class: Symbol, attr: Symbol) -> bool {
    let cs = stats().class(class).snapshot();
    match cs.attrs.get(&attr) {
        Some(s) if s.rows > 0 => s.ndv > PUSHDOWN_MIN_NDV,
        _ => true,
    }
}

/// Should a scan of `rows` rows split across `workers` threads? Costs
/// the parallel path as `rows / workers` plus a fixed per-split
/// overhead of `overhead_rows` row-equivalents (thread spawn, chunk
/// bookkeeping, result merge) and splits only when that beats the
/// sequential `rows`.
pub fn choose_split(rows: usize, workers: usize, overhead_rows: usize) -> bool {
    workers > 1 && rows >= 2 && rows / workers + overhead_rows < rows
}

/// Plans a canonical single-binding class scan: index pushdown when the
/// filter has a high-NDV equality conjunct, sequential otherwise.
/// Consults and fills the fingerprint-keyed plan cache.
pub fn plan_select(src: &dyn DataSource, expr: &Expr, q: &SelectExpr) -> Decision {
    let generation = src.resolution_generation();
    let (fp, _) = fingerprint_expr(expr);
    if let Some(c) = cache_lookup(&fp, generation) {
        // Fingerprints are literal-normalized, so one cache entry serves
        // every literal value of the same query shape. The pushdown probe
        // value must therefore come from *this* query's filter, not the
        // cached plan (which holds the literal of whichever query planned
        // first).
        let strategy = match c.strategy {
            Strategy::IndexPushdown {
                attr,
                value: cached,
            } => {
                let rebound = q.filter.as_deref().and_then(|f| {
                    conjuncts(f).into_iter().find_map(|leg| {
                        let (a, v) = eq_conjunct(leg, q.bindings[0].0)?;
                        (a == attr).then(|| v.clone())
                    })
                });
                Strategy::IndexPushdown {
                    attr,
                    value: rebound.unwrap_or(cached),
                }
            }
            other => other,
        };
        return Decision {
            strategy,
            est_rows: c.est_rows,
            cache_hit: true,
        };
    }
    let (var, coll) = &q.bindings[0];
    let class = match coll {
        Expr::Name(n) => *n,
        _ => Symbol::from("?"),
    };
    let cs = stats().class(class).snapshot();
    let card = cs.cardinality.unwrap_or(DEFAULT_CARDINALITY);
    let est_rows = est_rows_from(card, filter_selectivity(&cs, *var, q.filter.as_deref()));
    let strategy = q
        .filter
        .as_deref()
        .and_then(|f| {
            conjuncts(f).into_iter().find_map(|leg| {
                let (attr, value) = eq_conjunct(leg, *var)?;
                if index_worthwhile(class, attr) {
                    Some(Strategy::IndexPushdown {
                        attr,
                        value: value.clone(),
                    })
                } else {
                    None
                }
            })
        })
        .unwrap_or(Strategy::Seq);
    cache_store(
        fp,
        CachedPlan {
            strategy: strategy.clone(),
            est_rows,
            generation,
        },
    );
    Decision {
        strategy,
        est_rows,
        cache_hit: false,
    }
}

/// Orders a multi-binding select's bindings by estimated per-binding
/// output rows (extent cardinality × the selectivity of the legs that
/// mention only that binding), cheapest first. `classes[i]` names the
/// collection of binding `i`; `cards[i]` is its measured extent size.
/// Consults and fills the plan cache; `est_rows` is the product of the
/// per-binding estimates discounted by [`DEFAULT_SELECTIVITY`] per
/// cross-binding leg.
pub fn plan_join(
    src: &dyn DataSource,
    expr: &Expr,
    q: &SelectExpr,
    classes: &[Symbol],
    cards: &[u64],
) -> Decision {
    let generation = src.resolution_generation();
    let (fp, _) = fingerprint_expr(expr);
    if let Some(c) = cache_lookup(&fp, generation) {
        if let Strategy::Join { .. } = c.strategy {
            return Decision {
                strategy: c.strategy,
                est_rows: c.est_rows,
                cache_hit: true,
            };
        }
    }
    let vars: Vec<Symbol> = q.bindings.iter().map(|(v, _)| *v).collect();
    let legs: Vec<&Expr> = q.filter.as_deref().map(conjuncts).unwrap_or_default();
    let mut per_binding: Vec<f64> = Vec::with_capacity(vars.len());
    let mut cross_legs = 0usize;
    let mut counted = vec![false; legs.len()];
    for (i, var) in vars.iter().enumerate() {
        let cs = stats().class(classes[i]).snapshot();
        let mut sel = 1.0f64;
        for (li, leg) in legs.iter().enumerate() {
            let mentioned = mentioned_vars(leg, &vars);
            if mentioned == Some(vec![i]) {
                sel *= leg_selectivity(&cs, *var, leg);
                counted[li] = true;
            }
        }
        per_binding.push((cards[i] as f64 * sel).max(if cards[i] == 0 { 0.0 } else { 1.0 }));
    }
    for (li, leg) in legs.iter().enumerate() {
        if !counted[li] && mentioned_vars(leg, &vars).is_some_and(|m| m.len() > 1) {
            cross_legs += 1;
        }
    }
    let mut order: Vec<usize> = (0..vars.len()).collect();
    order.sort_by(|&a, &b| {
        per_binding[a]
            .partial_cmp(&per_binding[b])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let est = per_binding.iter().product::<f64>() * DEFAULT_SELECTIVITY.powi(cross_legs as i32);
    let est_rows = (est.round() as u64).max(if cards.contains(&0) { 0 } else { 1 });
    let strategy = Strategy::Join { order };
    cache_store(
        fp,
        CachedPlan {
            strategy: strategy.clone(),
            est_rows,
            generation,
        },
    );
    Decision {
        strategy,
        est_rows,
        cache_hit: false,
    }
}

/// The set of select-variable indices a leg mentions, or `None` when
/// the leg contains anything the reorderer must not touch: a free name,
/// `self`, a nested select, an aggregate, or a parameterized-class
/// application. (Those shapes may shadow variables or depend on
/// evaluation context, so the leg — and with it the whole join — stays
/// on the exact-order path.)
pub fn mentioned_vars(e: &Expr, vars: &[Symbol]) -> Option<Vec<usize>> {
    fn walk(e: &Expr, vars: &[Symbol], seen: &mut Vec<bool>) -> bool {
        match e {
            Expr::Lit(_) => true,
            Expr::Name(n) => match vars.iter().rposition(|v| v == n) {
                Some(i) => {
                    seen[i] = true;
                    true
                }
                None => false,
            },
            Expr::Attr { recv, args, .. } => {
                walk(recv, vars, seen) && args.iter().all(|a| walk(a, vars, seen))
            }
            Expr::Unary { expr, .. } => walk(expr, vars, seen),
            Expr::Binary { lhs, rhs, .. } => walk(lhs, vars, seen) && walk(rhs, vars, seen),
            Expr::If { cond, then, els } => {
                walk(cond, vars, seen) && walk(then, vars, seen) && walk(els, vars, seen)
            }
            Expr::TupleCons(fields) => fields.iter().all(|(_, e)| walk(e, vars, seen)),
            Expr::SetCons(items) | Expr::ListCons(items) => {
                items.iter().all(|e| walk(e, vars, seen))
            }
            Expr::IsA { expr, .. } => walk(expr, vars, seen),
            Expr::SelfRef
            | Expr::Select(_)
            | Expr::Exists(_)
            | Expr::Aggregate { .. }
            | Expr::Apply { .. } => false,
        }
    }
    let mut seen = vec![false; vars.len()];
    if !walk(e, vars, &mut seen) {
        return None;
    }
    Some(
        seen.iter()
            .enumerate()
            .filter_map(|(i, &s)| s.then_some(i))
            .collect(),
    )
}

/// Records the decision for the query that just executed and, on
/// success, feeds the measured row count back for drift detection.
pub fn record_outcome(expr: &Expr, decision: Decision, result_rows: Option<u64>) {
    if let Some(rows) = result_rows {
        observe_actual(expr, rows);
    }
    set_last_decision(decision);
}

/// Plan-cache hit/miss/replan counters, for `.engine`-style reporting.
pub fn plan_cache_counters() -> (u64, u64, u64) {
    (
        metric_counter!("planner.plan_cache.hits").get(),
        metric_counter!("planner.plan_cache.misses").get(),
        metric_counter!("planner.replans").get(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expr;
    use ov_oodb::sym;

    fn leg(src: &str) -> Expr {
        parse_expr(src).expect("parse")
    }

    fn measured(card: u64, attr: &str, values: impl IntoIterator<Item = Value>) -> Symbol {
        // A unique class name per call keeps global-registry tests
        // independent of each other and of execution order.
        use std::sync::atomic::AtomicU64;
        static N: AtomicU64 = AtomicU64::new(0);
        let class = sym(&format!("PlannerT{}", N.fetch_add(1, Ordering::SeqCst)));
        let cs = stats().class(class);
        cs.note_cardinality(0, card);
        let vals: Vec<Value> = values.into_iter().collect();
        cs.observe_column(0, sym(attr), vals.iter().map(Some));
        class
    }

    #[test]
    fn conjuncts_split_only_top_level_ands() {
        let e = leg("P.Age > 1 and (P.Age < 9 or P.Age = 4) and P.Name = \"x\"");
        assert_eq!(conjuncts(&e).len(), 3);
        let single = leg("P.Age > 1 or P.Age < 9");
        assert_eq!(conjuncts(&single).len(), 1);
    }

    #[test]
    fn eq_selectivity_uses_ndv_and_null_fraction() {
        // 100 observed rows cycling through 10 cities: a genuinely
        // repeating column, so NDV is used as-is (no key extrapolation).
        let class = measured(
            100,
            "City",
            (0..100).map(|i| Value::str(&format!("c{}", i % 10))),
        );
        let est = estimate_select(class, sym("P"), Some(&leg("P.City = \"c3\""))).unwrap();
        // 100 rows / ndv≈10 ≈ 10 rows.
        assert!((5..=20).contains(&est), "est={est}");
    }

    #[test]
    fn all_distinct_samples_extrapolate_to_a_key() {
        // The sample saw 200 rows, all distinct — but the class holds
        // 100_000. A key column's equality estimate must extrapolate NDV
        // to the cardinality (est ≈ 1), not stop at the sample's ceiling
        // (est ≈ 500), or the drift canary would evict every key probe.
        let class = measured(
            100_000,
            "Name",
            (0..200).map(|i| Value::str(&format!("p{i}"))),
        );
        let est = estimate_select(class, sym("P"), Some(&leg("P.Name = \"p7\""))).unwrap();
        assert!(est <= 5, "est={est}");
    }

    #[test]
    fn range_selectivity_uses_min_max() {
        let class = measured(1000, "Age", (0..100).map(Value::Int));
        let est = estimate_select(class, sym("P"), Some(&leg("P.Age >= 90"))).unwrap();
        assert!((50..=200).contains(&est), "est={est}");
        let half = estimate_select(class, sym("P"), Some(&leg("P.Age < 50"))).unwrap();
        assert!((300..=700).contains(&half), "half={half}");
    }

    #[test]
    fn conjunction_multiplies_and_cold_stats_are_none() {
        let class = measured(1000, "Age", (0..100).map(Value::Int));
        let both =
            estimate_select(class, sym("P"), Some(&leg("P.Age >= 90 and P.Age >= 90"))).unwrap();
        assert!(both < 50, "both={both}");
        assert_eq!(
            estimate_select(sym("NoSuchClassEver"), sym("P"), None),
            None
        );
    }

    #[test]
    fn low_ndv_vetoes_the_index_and_unknown_allows_it() {
        let class = measured(
            100,
            "Sex",
            (0..100).map(|i| Value::str(if i % 2 == 0 { "m" } else { "f" })),
        );
        assert!(!index_worthwhile(class, sym("Sex")));
        assert!(index_worthwhile(class, sym("NeverObserved")));
        let unique = measured(100, "Name", (0..100).map(|i| Value::str(&format!("p{i}"))));
        assert!(index_worthwhile(unique, sym("Name")));
    }

    #[test]
    fn split_choice_weighs_overhead_against_rows() {
        assert!(!choose_split(10, 4, 1000), "tiny scan must stay sequential");
        assert!(choose_split(100_000, 4, 1024));
        assert!(!choose_split(100_000, 1, 0), "one worker never splits");
    }

    #[test]
    fn mentioned_vars_classifies_legs() {
        let vars = [sym("P"), sym("Q")];
        assert_eq!(mentioned_vars(&leg("P.Age > 5"), &vars), Some(vec![0]));
        assert_eq!(
            mentioned_vars(&leg("P.Age > Q.Age"), &vars),
            Some(vec![0, 1])
        );
        assert_eq!(mentioned_vars(&leg("1 = 1"), &vars), Some(vec![]));
        assert_eq!(
            mentioned_vars(&leg("maggy.Age > 5"), &vars),
            None,
            "free name"
        );
        assert_eq!(
            mentioned_vars(&leg("exists(select R from R in Person)"), &vars),
            None,
            "nested select"
        );
    }

    #[test]
    fn with_planner_scopes_to_the_thread() {
        let default = planner_enabled();
        with_planner(!default, || assert_eq!(planner_enabled(), !default));
        assert_eq!(planner_enabled(), default);
    }

    #[test]
    fn drift_evicts_and_counts_a_replan() {
        let fp_expr = leg("select P from P in PlannerDriftClass where P.Age = 1");
        let class = measured(1000, "Age", (0..100).map(Value::Int));
        // Manufacture a cached plan with a wild estimate, then observe.
        let (fp, _) = fingerprint_expr(&fp_expr);
        cache_store(
            fp.clone(),
            CachedPlan {
                strategy: Strategy::Seq,
                est_rows: 1000,
                generation: 0,
            },
        );
        let before = metric_counter!("planner.replans").get();
        observe_actual(&fp_expr, 1); // 1000x off
        assert!(cache().lock().unwrap().get(&fp).is_none(), "plan evicted");
        assert_eq!(metric_counter!("planner.replans").get(), before + 1);
        let _ = class;
    }

    #[test]
    fn cold_key_probe_keeps_its_plan() {
        // No statistics: the equality leg estimates ≈341 rows of a
        // default-size class, and a key probe returns one. Under the row
        // floor that is no misestimate, so the plan stays cached and the
        // next run hits it instead of re-planning every time.
        let db = ov_oodb::Database::new(sym("PlannerColdKey"));
        let expr =
            parse_expr("select P from P in PlannerColdKeyClass where P.Name = \"p7\"").unwrap();
        let Expr::Select(q) = &expr else {
            unreachable!()
        };
        let first = plan_select(&db, &expr, q);
        assert!(!first.cache_hit);
        assert!(q_error(first.est_rows, 1) < DRIFT_FACTOR as f64);
        for _ in 0..3 {
            observe_actual(&expr, 1);
            assert!(plan_select(&db, &expr, q).cache_hit, "plan evicted");
        }
    }

    #[test]
    fn misestimate_canary_still_replans() {
        // The E19 canary's case: statistics say `Name` is a key, so the
        // probe estimates one row; thousands come back. That q-error is far
        // past the drift factor, so the plan is evicted and re-planned.
        let class = measured(
            100_000,
            "Name",
            (0..200).map(|i| Value::str(&format!("p{i}"))),
        );
        let db = ov_oodb::Database::new(sym("PlannerCanary"));
        let expr =
            parse_expr(&format!("select P from P in {class} where P.Name = \"p7\"")).unwrap();
        let Expr::Select(q) = &expr else {
            unreachable!()
        };
        let d = plan_select(&db, &expr, q);
        assert!(d.est_rows <= 5, "est={}", d.est_rows);
        let before = metric_counter!("planner.replans").get();
        observe_actual(&expr, 5_000);
        assert!(metric_counter!("planner.replans").get() > before);
        assert!(!plan_select(&db, &expr, q).cache_hit, "plan must re-plan");
    }

    #[test]
    fn q_error_is_symmetric_and_floored() {
        assert_eq!(q_error(1000, 10), q_error(10, 1000));
        assert_eq!(q_error(0, 1), 1.0, "both under the floor");
        assert_eq!(q_error(341, 1), 341.0 / QERROR_ROW_FLOOR as f64);
        assert!(q_error(1000, 1) >= DRIFT_FACTOR as f64);
    }

    #[test]
    fn cache_hit_rebinds_the_pushdown_literal() {
        // Fingerprints normalize literals, so `Age = 6` and `Age = 21`
        // share one cache entry; the served plan must probe the *current*
        // query's literal, not the one that planned first.
        let db = ov_oodb::Database::new(sym("PlannerRebind"));
        for lit in [6, 21] {
            let expr = parse_expr(&format!(
                "select P from P in PlannerRebindClass where P.Age = {lit}"
            ))
            .unwrap();
            let Expr::Select(q) = &expr else {
                unreachable!()
            };
            let d = plan_select(&db, &expr, q);
            if lit == 6 {
                // Seed the shared entry with a pushdown plan for value 6.
                let (fp, _) = fingerprint_expr(&expr);
                cache_store(
                    fp,
                    CachedPlan {
                        strategy: Strategy::IndexPushdown {
                            attr: sym("Age"),
                            value: Value::Int(6),
                        },
                        est_rows: d.est_rows,
                        generation: db.resolution_generation(),
                    },
                );
            } else {
                assert!(d.cache_hit, "second literal should hit the shared entry");
                assert_eq!(
                    d.strategy,
                    Strategy::IndexPushdown {
                        attr: sym("Age"),
                        value: Value::Int(21)
                    },
                    "probe value must come from the current query"
                );
            }
        }
    }
}
