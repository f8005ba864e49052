//! The three workloads, their ops, and the checks on their outputs.
//!
//! Every op goes through the public API. With the tracer off an op is the
//! single call a user makes (`run_query`, `View::query`, `set_attr`, …).
//! With it on, the same op is split into the public layer functions the
//! call is made of, and the layer calls the query path repeats internally
//! (fold, fingerprint, plan, compile, index probe, extent, instantiate)
//! are measured again as *replicas* right after the op, so their cost can
//! be subtracted from `run_expr` without instrumenting the program.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::time::{Duration, Instant};

use ov_oodb::{metrics, Database, Expr, Oid, Value};
use ov_query::planner::{observe_actual, plan_cache_counters, plan_select};
use ov_query::{
    compile_fallbacks, compile_select_scan, fingerprint_expr, optimize_expr, parse_expr, run_expr,
    run_query, DataSource, ScanActuals,
};
use ov_views::{Materialization, View, ViewDef, ViewOptions, ViewStats};

use crate::fixture::{check_against_model, Fixture, Names, Warm, OLDER_ARGS, STACK};
use crate::gen::{self, Person, Rng};
use crate::trace::{layer, Tracer};

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Unique-key lookups on the base database, with a light write share.
    Point,
    /// A fixed read-only rotation of scans and a key lookup through a view.
    Views,
    /// Base writes, each followed by a read of the top of a stacked view.
    Maintain,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::Point, Workload::Views, Workload::Maintain];

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Point => "point",
            Workload::Views => "views",
            Workload::Maintain => "maintain",
        }
    }

    /// The populations set-up warms: the ones the workload reads.
    pub fn warm(self) -> Warm {
        Warm {
            staff: self == Workload::Views,
            maintained: self == Workload::Maintain,
        }
    }

    /// The op types the workload issues (each gets its latency metrics).
    pub fn op_kinds(self) -> &'static [&'static str] {
        match self {
            Workload::Point => &["lookup", "write"],
            Workload::Views => &["scan", "view_lookup"],
            Workload::Maintain => &["write", "refresh", "imaginary", "checkpoint"],
        }
    }
}

/// Percent of `point` ops that are `Income` updates.
const POINT_WRITE_PCT: u64 = 5;
/// Lookup keys are drawn from `n + n / ABSENT_DIV` names, so about 3% are
/// absent.
const ABSENT_DIV: usize = 32;
/// Every this many `maintain` ops, the op also reads `Family`.
const IMAGINARY_EVERY: u64 = 100;
/// The `maintain` op after which the one checkpoint runs.
const CHECKPOINT_AT: u64 = 100;
/// How often, at the least, [`Runner::run_sampled`] stops the clock to
/// sample the machine's speed.
const SAMPLE_EVERY: Duration = Duration::from_secs(1);
/// The `views` rotation: four scan shapes, then the key lookup.
const ROTATION: u64 = 5;
/// Distinct keys the `views` lookup cycles through (the last one absent).
/// A view lookup costs the same for any key, and a small set bounds the
/// interpreter-oracle checks.
const VIEW_KEYS: usize = 2;

/// The point-lookup query for key `k`, on the base database or a view.
pub fn lookup_query(k: usize) -> String {
    format!("select P.Name from P in Person where P.Name = \"p{k}\"")
}

fn op_span(kind: &str) -> &'static str {
    match kind {
        "lookup" => "op.lookup",
        "scan" => "op.scan",
        _ => "op.view_lookup",
    }
}

/// What one timed phase measured.
#[derive(Clone, Debug, Default)]
pub struct Phase {
    /// Wall-clock length of the phase.
    pub elapsed: Duration,
    /// Ops started.
    pub attempted: u64,
    /// Ops that returned an error.
    pub failed: u64,
    /// Latency of every completed op, ns.
    pub op_ns: Vec<u64>,
    /// Latency per op type, ns (an op may contain several types).
    pub kind_ns: BTreeMap<&'static str, Vec<u64>>,
    /// Acknowledged base writes (a spouse re-pairing counts its four).
    pub writes: u64,
    /// Bytes of attribute values those writes carried.
    pub user_bytes: u64,
    /// WAL bytes appended.
    pub wal_bytes: u64,
    /// WAL fsyncs and their total time, ns.
    pub fsyncs: u64,
    pub fsync_ns: u64,
    /// Plan-cache hits, misses and replans.
    pub plan: (u64, u64, u64),
    /// Compiled-engine fallbacks to the interpreter.
    pub fallbacks: u64,
    /// Population counters of the stacked `Top` view.
    pub top: ViewStats,
    /// Population cache hits and misses over every bound view.
    pub pop_cache: (u64, u64),
    /// Scan actuals per op type (traced phases only).
    pub actuals: BTreeMap<&'static str, ScanActuals>,
    /// Query ops per op type (traced phases only).
    pub query_ops: BTreeMap<&'static str, u64>,
}

impl Phase {
    /// Completed ops per second.
    pub fn ops_per_s(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Counters read at the start and end of a phase.
struct Counters {
    fsync: (u64, u64),
    plan: (u64, u64, u64),
    fallbacks: u64,
    top: ViewStats,
    pop_cache: (u64, u64),
}

fn wal_bytes(db: &Database) -> u64 {
    db.durable_core().map_or(0, |c| c.status().wal_bytes)
}

impl Counters {
    fn read(fx: &Fixture) -> Counters {
        let h = metrics::registry().histogram("wal_fsync_ns").snapshot();
        let mut pop_cache = (0, 0);
        for v in [&fx.staff, &fx.top, &fx.families] {
            let s = v.stats();
            pop_cache.0 += s.cache_hits;
            pop_cache.1 += s.cache_misses;
        }
        Counters {
            fsync: (h.count, h.sum),
            plan: plan_cache_counters(),
            fallbacks: compile_fallbacks(),
            top: fx.top.stats(),
            pop_cache,
        }
    }
}

fn stats_delta(a: ViewStats, b: ViewStats) -> ViewStats {
    ViewStats {
        cache_hits: b.cache_hits - a.cache_hits,
        cache_misses: b.cache_misses - a.cache_misses,
        recomputations: b.recomputations - a.recomputations,
        incremental_updates: b.incremental_updates - a.incremental_updates,
        index_pushdowns: b.index_pushdowns - a.index_pushdowns,
        lock_contention: b.lock_contention - a.lock_contention,
        parallel_scans: b.parallel_scans - a.parallel_scans,
        stale_serves: b.stale_serves - a.stale_serves,
        fault_retries: b.fault_retries - a.fault_retries,
        seq_fallbacks: b.seq_fallbacks - a.seq_fallbacks,
    }
}

/// Bytes of user data a value carries (8 per scalar, string lengths).
pub fn user_bytes(v: &Value) -> u64 {
    match v {
        Value::Str(s) => s.len() as u64,
        Value::Tuple(t) => t.iter().map(|(_, f)| user_bytes(f)).sum(),
        _ => 8,
    }
}

/// Total size of the files in `dir`.
fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// The result of one query op.
struct QueryOut {
    value: Result<Value, String>,
    ns: u64,
    actuals: ScanActuals,
}

/// Runs one query op. Untraced, `public` is the whole op. Traced, the op
/// is `parse_expr` + `run_expr`, followed (outside the op span) by replicas
/// of the layer calls `run_expr` makes: for a canonical single-binding
/// select that is one fold, one compile, one plan (which fingerprints
/// once) and one more fingerprint (the plan-drift check); `replicas` adds
/// the workload's access-path calls. The replica plan is fed the op's row
/// count as `run_expr` feeds its own, so the plan cache is left as the op
/// left it: a plan the drift check evicted is evicted again, and the next
/// op's `run_expr` misses as it would untraced.
fn query_op(
    tr: &mut Tracer,
    op: u64,
    kind: &'static str,
    src: &dyn DataSource,
    text: &str,
    public: impl FnOnce(&str) -> Result<Value, String>,
    replicas: impl FnOnce(&mut Tracer),
) -> QueryOut {
    if !tr.on() {
        let t0 = Instant::now();
        let value = public(text);
        return QueryOut {
            value,
            ns: t0.elapsed().as_nanos() as u64,
            actuals: ScanActuals::default(),
        };
    }
    let t0 = Instant::now();
    let parsed = tr.time(op, layer::PARSE, || parse_expr(text));
    let (value, actuals) = match &parsed {
        Ok(e) => {
            let (r, a) = tr.time(op, layer::RUN_EXPR, || {
                ov_query::plan::with_scan_actuals(|| run_expr(src, e))
            });
            (r.map_err(|e| e.to_string()), a)
        }
        Err(e) => (Err(e.to_string()), ScanActuals::default()),
    };
    let dt = t0.elapsed();
    tr.push(op, op_span(kind), t0, dt);
    if let Ok(e) = &parsed {
        let folded = tr.time(op, layer::FOLD, || optimize_expr(e));
        if let Expr::Select(q) = &folded {
            let scan = tr.time(op, layer::COMPILE, || compile_select_scan(src, q));
            if scan.is_some() {
                tr.time(op, layer::PLAN, || plan_select(src, &folded, q));
                tr.time(op, layer::FINGERPRINT, || fingerprint_expr(&folded));
                if let Ok(v) = &value {
                    let rows = match v {
                        Value::Set(s) => s.len() as u64,
                        _ => 1,
                    };
                    observe_actual(&folded, rows);
                }
            }
        }
        replicas(tr);
    }
    QueryOut {
        value,
        ns: dt.as_nanos() as u64,
        actuals,
    }
}

/// Drives one workload over a fixture.
pub struct Runner {
    /// Which workload this is.
    pub workload: Workload,
    /// The set-up it runs against.
    pub fx: Fixture,
    names: Names,
    rng: Rng,
    next_op: u64,
    /// Wrong outputs seen (the first few, with what was expected).
    wrong: Vec<String>,
    wrong_count: u64,
    /// `views`: the first result of each distinct query text.
    seen: BTreeMap<String, Value>,
    /// `maintain`: people whose `Spouse` a re-pairing changed.
    touched: HashSet<usize>,
    /// `maintain`: the `Family` oid of each core tuple before the run.
    family_before: BTreeMap<(Oid, Oid), Oid>,
    /// Duration of the checkpoint and the bytes it left on disk.
    pub checkpoint: Option<(Duration, u64)>,
    /// Bytes of live user data when the checkpoint ran.
    pub checkpoint_user_bytes: u64,
    wal_base: u64,
    /// `maintain` ops issued so far.
    maintain_ops: u64,
    /// The keys the `views` lookup cycles through.
    view_keys: [usize; VIEW_KEYS],
}

impl Runner {
    /// A runner for `workload` whose op stream is drawn from `seed`.
    pub fn new(workload: Workload, fx: Fixture, seed: u64) -> Runner {
        let n = fx.model.len();
        let mut keys = Rng::new(seed, gen::KEYS);
        let mut view_keys = [0; VIEW_KEYS];
        for (i, k) in view_keys.iter_mut().enumerate() {
            *k = if i + 1 == VIEW_KEYS {
                n + keys.below((n / ABSENT_DIV).max(1) as u64) as usize
            } else {
                keys.below(n as u64) as usize
            };
        }
        Runner {
            workload,
            fx,
            names: Names::new(),
            rng: Rng::new(seed, gen::OPS),
            next_op: 1,
            wrong: Vec::new(),
            wrong_count: 0,
            seen: BTreeMap::new(),
            touched: HashSet::new(),
            family_before: BTreeMap::new(),
            checkpoint: None,
            checkpoint_user_bytes: 0,
            wal_base: 0,
            maintain_ops: 0,
            view_keys,
        }
    }

    /// Runs one untimed cycle of the workload, so the first timed op finds
    /// plans cached and every population warm (part of set-up).
    pub fn warm_up(&mut self) {
        let ops = match self.workload {
            Workload::Point => 64,
            Workload::Views => ROTATION,
            Workload::Maintain => 1,
        };
        let (mut tr, mut ph) = (Tracer::new(false), Phase::default());
        for _ in 0..ops {
            self.step(&mut tr, &mut ph);
        }
    }

    /// Records what the end-of-run checks compare against: the `Family`
    /// identity of every core tuple (`maintain`).
    pub fn begin(&mut self) {
        if self.workload == Workload::Maintain {
            self.family_before = self.family_identity();
        }
    }

    fn wrong(&mut self, msg: String) {
        self.wrong_count += 1;
        if self.wrong.len() < 8 {
            self.wrong.push(msg);
        }
    }

    /// Runs ops until `secs` have passed or `max_ops` ops were issued.
    pub fn run_phase(&mut self, secs: f64, max_ops: u64, tr: &mut Tracer) -> Phase {
        self.run_sampled(secs, max_ops, tr, &mut || {})
    }

    /// [`Runner::run_phase`], calling `sample` with the phase's clock
    /// stopped: before the first op, at the first cycle boundary after
    /// each [`SAMPLE_EVERY`], and after the last op.
    pub fn run_sampled(
        &mut self,
        secs: f64,
        max_ops: u64,
        tr: &mut Tracer,
        sample: &mut dyn FnMut(),
    ) -> Phase {
        let mut ph = Phase::default();
        let before = Counters::read(&self.fx);
        self.wal_base = wal_bytes(&self.fx.db.read());
        sample();
        let start = Instant::now();
        let length = Duration::from_secs_f64(secs);
        let (mut paused, mut sampled) = (Duration::ZERO, start);
        let mut issued = 0u64;
        // A phase ends on a cycle boundary (a whole `views` rotation, a
        // whole `maintain` imaginary cycle), so every phase has the same op
        // mix and its throughput does not depend on where the clock ran out.
        while issued < max_ops && (start.elapsed() - paused < length || !self.at_cycle_boundary()) {
            self.step(tr, &mut ph);
            issued += 1;
            if sampled.elapsed() >= SAMPLE_EVERY && self.at_cycle_boundary() {
                let t = Instant::now();
                sample();
                sampled = Instant::now();
                paused += sampled - t;
            }
        }
        ph.elapsed = start.elapsed() - paused;
        sample();
        ph.wal_bytes += wal_bytes(&self.fx.db.read()).saturating_sub(self.wal_base);
        let after = Counters::read(&self.fx);
        ph.fsyncs = after.fsync.0 - before.fsync.0;
        ph.fsync_ns = after.fsync.1 - before.fsync.1;
        ph.plan = (
            after.plan.0 - before.plan.0,
            after.plan.1 - before.plan.1,
            after.plan.2 - before.plan.2,
        );
        ph.fallbacks = after.fallbacks - before.fallbacks;
        ph.top = stats_delta(before.top, after.top);
        ph.pop_cache = (
            after.pop_cache.0 - before.pop_cache.0,
            after.pop_cache.1 - before.pop_cache.1,
        );
        ph
    }

    /// Issues the workload's next op.
    fn step(&mut self, tr: &mut Tracer, ph: &mut Phase) {
        let op = self.next_op;
        self.next_op += 1;
        match self.workload {
            Workload::Point => self.point_op(op, tr, ph),
            Workload::Views => self.views_op(op, tr, ph),
            Workload::Maintain => self.maintain_op(op, tr, ph),
        }
    }

    fn at_cycle_boundary(&self) -> bool {
        match self.workload {
            Workload::Point => true,
            Workload::Views => (self.next_op - 1).is_multiple_of(ROTATION),
            Workload::Maintain => self.maintain_ops.is_multiple_of(IMAGINARY_EVERY),
        }
    }

    fn record(ph: &mut Phase, kind: &'static str, ns: u64) {
        ph.kind_ns.entry(kind).or_default().push(ns);
    }

    fn record_actuals(ph: &mut Phase, kind: &'static str, a: ScanActuals, on: bool) {
        if on {
            ph.actuals.entry(kind).or_default().absorb(&a);
            *ph.query_ops.entry(kind).or_default() += 1;
        }
    }

    // ---- point ---------------------------------------------------------

    fn point_op(&mut self, op: u64, tr: &mut Tracer, ph: &mut Phase) {
        ph.attempted += 1;
        if self.rng.below(100) < POINT_WRITE_PCT {
            let i = self.rng.below(self.fx.model.len() as u64) as usize;
            let income = self.rng.range(0, 200_000);
            let t0 = Instant::now();
            let r = self.write_attr(op, tr, i, self.names.income, income);
            tr.push(op, "op.write", t0, t0.elapsed());
            match r {
                Ok(ns) => {
                    self.fx.model[i].income = income;
                    ph.writes += 1;
                    ph.user_bytes += 8;
                    ph.op_ns.push(ns);
                    Self::record(ph, "write", ns);
                }
                Err(_) => ph.failed += 1,
            }
            return;
        }
        let n = self.fx.model.len();
        let k = self.rng.below((n + n / ABSENT_DIV) as u64) as usize;
        let text = lookup_query(k);
        let db = self.fx.db.read();
        let person = self.fx.classes[0];
        let key = Value::str(&format!("p{k}"));
        let name = self.names.name;
        let out = query_op(
            tr,
            op,
            "lookup",
            &*db,
            &text,
            |t| run_query(&*db, t).map_err(|e| e.to_string()),
            |tr| {
                tr.time(op, layer::PROBE, || {
                    db.indexed_deep_lookup(person, name, &key)
                });
            },
        );
        drop(db);
        Self::record_actuals(ph, "lookup", out.actuals, tr.on());
        match out.value {
            Ok(v) => {
                let want = if k < n {
                    Value::set([Value::str(&format!("p{k}"))])
                } else {
                    Value::set([])
                };
                if v != want {
                    self.wrong(format!("lookup p{k}: got {v}, model {want}"));
                }
                ph.op_ns.push(out.ns);
                Self::record(ph, "lookup", out.ns);
            }
            Err(_) => ph.failed += 1,
        }
    }

    /// `set_attr` of one integer attribute of person `i`, timed; traced,
    /// the fsyncs it triggered become `oodb.wal.fsync_us` spans.
    fn write_attr(
        &mut self,
        op: u64,
        tr: &mut Tracer,
        i: usize,
        attr: ov_oodb::Symbol,
        v: i64,
    ) -> Result<u64, String> {
        let oid = self.fx.oids[i];
        self.set_timed(op, tr, |db| db.set_attr(oid, attr, Value::Int(v)))
    }

    fn set_timed(
        &mut self,
        op: u64,
        tr: &mut Tracer,
        f: impl FnOnce(&mut Database) -> ov_oodb::Result<()>,
    ) -> Result<u64, String> {
        let fsync = metrics::registry().histogram("wal_fsync_ns");
        let before = tr.on().then(|| fsync.snapshot());
        let t0 = Instant::now();
        let r = f(&mut self.fx.db.write());
        let dt = t0.elapsed();
        if let Some(b) = before {
            tr.push(op, layer::SET_ATTR, t0, dt);
            let a = fsync.snapshot();
            if a.count > b.count {
                tr.push(op, layer::FSYNC, t0, Duration::from_nanos(a.sum - b.sum));
            }
        }
        r.map_err(|e| e.to_string())?;
        Ok(dt.as_nanos() as u64)
    }

    // ---- views ---------------------------------------------------------

    fn views_op(&mut self, op: u64, tr: &mut Tracer, ph: &mut Phase) {
        let slot = (op - 1) % ROTATION;
        let turn = ((op - 1) / ROTATION) as usize;
        let (kind, texts): (&'static str, Vec<String>) = match slot {
            0 => (
                "scan",
                vec!["select P.Name from P in Person where P.Age >= 90".into()],
            ),
            1 => (
                "scan",
                vec!["count((select A from A in Adult where A.Income >= 150000))".into()],
            ),
            2 => (
                "scan",
                vec![r#"select S.Address from S in Senior where S.City = "Paris""#.into()],
            ),
            3 => (
                "scan",
                vec![
                    "select F from F in Family".into(),
                    format!(
                        "select O from O in Older({})",
                        OLDER_ARGS[turn % OLDER_ARGS.len()]
                    ),
                ],
            ),
            _ => (
                "view_lookup",
                vec![lookup_query(self.view_keys[turn % VIEW_KEYS])],
            ),
        };
        ph.attempted += 1;
        let mut total = 0u64;
        for (part, text) in texts.iter().enumerate() {
            let out = self.view_query(op, tr, kind, slot, part, text);
            Self::record_actuals(ph, kind, out.actuals, tr.on());
            match out.value {
                Ok(v) => {
                    total += out.ns;
                    match self.seen.get(text) {
                        Some(first) if *first != v => {
                            self.wrong(format!("{text}: result changed on a read-only view"))
                        }
                        Some(_) => {}
                        None => {
                            self.seen.insert(text.clone(), v);
                        }
                    }
                }
                Err(e) => {
                    ph.failed += 1;
                    self.wrong(format!("{text}: {e}"));
                    return;
                }
            }
        }
        ph.op_ns.push(total);
        Self::record(ph, kind, total);
        if tr.on() && slot == 2 {
            self.attr_probes(tr);
        }
    }

    fn view_query(
        &self,
        op: u64,
        tr: &mut Tracer,
        kind: &'static str,
        slot: u64,
        part: usize,
        text: &str,
    ) -> QueryOut {
        let staff = &self.fx.staff;
        let names = &self.names;
        let db = &self.fx.db;
        let person = self.fx.classes[0];
        let turn_arg = OLDER_ARGS[((op - 1) / ROTATION) as usize % OLDER_ARGS.len()];
        query_op(
            tr,
            op,
            kind,
            staff,
            text,
            |t| staff.query(t).map_err(|e| e.to_string()),
            |tr| {
                // The access path `run_expr` takes for the scanned class.
                let view_extent = |tr: &mut Tracer, class| {
                    let _ = tr.time(op, layer::VIEW_EXTENT, || {
                        staff.extent_of(class).map(|v| v.len())
                    });
                };
                match (slot, part) {
                    (0, _) | (4, _) => {
                        view_extent(tr, names.person);
                        let db = db.read();
                        tr.time(op, layer::DB_EXTENT, || db.deep_extent(person).len());
                    }
                    (1, _) => view_extent(tr, names.adult),
                    (2, _) => view_extent(tr, names.senior),
                    (3, 0) => view_extent(tr, names.family),
                    _ => {
                        let args = [Value::Int(turn_arg)];
                        let c = tr.time(op, layer::INSTANTIATE, || {
                            staff.instantiate(names.older, &args)
                        });
                        if let Ok(c) = c {
                            let _ = tr.time(op, layer::VIEW_EXTENT, || {
                                DataSource::extent(staff, c).map(|v| v.len())
                            });
                        }
                    }
                }
            },
        )
    }

    /// Per-call cost of `View::attr` on a stored (`City`) and a computed
    /// (`Address`) attribute, over a few `Senior` objects. Recorded under
    /// op id 0, so it stays out of the per-op reconciliation.
    fn attr_probes(&self, tr: &mut Tracer) {
        let staff = &self.fx.staff;
        let Ok(seniors) = staff.extent_of(self.names.senior) else {
            return;
        };
        for &o in seniors.iter().take(8) {
            for a in [self.names.city, self.names.address] {
                let _ = tr.time(0, layer::ATTR, || staff.attr(o, a));
            }
        }
    }

    // ---- maintain ------------------------------------------------------

    fn maintain_op(&mut self, op: u64, tr: &mut Tracer, ph: &mut Phase) {
        ph.attempted += 1;
        self.maintain_ops += 1;
        let nth = self.maintain_ops;
        let t0 = Instant::now();
        let roll = self.rng.below(100);
        let written = if roll < 90 {
            let i = self.rng.below(self.fx.model.len() as u64) as usize;
            if self.rng.chance(500) {
                let age = self.rng.range(0, 100);
                self.write_attr(op, tr, i, self.names.age, age).map(|ns| {
                    self.fx.model[i].age = age;
                    (ns, 1, 8)
                })
            } else {
                let income = self.rng.range(0, 200_000);
                self.write_attr(op, tr, i, self.names.income, income)
                    .map(|ns| {
                        self.fx.model[i].income = income;
                        (ns, 1, 8)
                    })
            }
        } else if roll < 95 {
            self.insert(op, tr)
        } else {
            self.repair(op, tr)
        };
        let (write_ns, writes, bytes) = match written {
            Ok(w) => w,
            Err(e) => {
                ph.failed += 1;
                self.wrong(format!("write failed: {e}"));
                return;
            }
        };
        ph.writes += writes;
        ph.user_bytes += bytes;
        Self::record(ph, "write", write_ns);

        // The first `Elite` read after a write propagates it through the
        // three levels as delta retests, as E15 does. `View::refresh` is
        // not called: on this stack it caches a wrong `Elite` (README.md,
        // "Known defect").
        let top = &self.fx.top;
        let elite = self.names.elite;
        let t1 = Instant::now();
        let read = tr.time(op, layer::REFRESH, || top.extent_of(elite));
        let refresh_ns = t1.elapsed().as_nanos() as u64;
        if let Err(e) = read {
            ph.failed += 1;
            self.wrong(format!("Elite read failed: {e}"));
            return;
        }
        Self::record(ph, "refresh", refresh_ns);

        if nth.is_multiple_of(IMAGINARY_EVERY) {
            let families = &self.fx.families;
            let family = self.names.family;
            let t2 = Instant::now();
            let r = tr.time(op, layer::IMAGINARY, || families.extent_of(family));
            if let Err(e) = r {
                ph.failed += 1;
                self.wrong(format!("Family read failed: {e}"));
                return;
            }
            Self::record(ph, "imaginary", t2.elapsed().as_nanos() as u64);
        }
        let dt = t0.elapsed();
        tr.push(op, "op.maintain", t0, dt);
        ph.op_ns.push(dt.as_nanos() as u64);

        if nth == CHECKPOINT_AT {
            let cp = self.next_op;
            self.next_op += 1;
            self.run_checkpoint(cp, tr, ph);
        }
    }

    fn insert(&mut self, op: u64, tr: &mut Tracer) -> Result<(u64, u64, u64), String> {
        let i = self.fx.model.len();
        let p = Person::draw(i, &mut self.rng);
        let value = Value::Tuple(crate::fixture::person_tuple(&p));
        let bytes = user_bytes(&value);
        let class = crate::fixture::class_of(&self.fx.classes, p.kind);
        let mut oid = None;
        let ns = self.set_timed(op, tr, |db| {
            oid = Some(db.create_object(class, value)?);
            Ok(())
        })?;
        self.fx.model.push(p);
        self.fx.oids.push(oid.expect("created"));
        Ok((ns, 1, bytes))
    }

    /// Swaps the wives of two married men: four `Spouse` writes that
    /// replace two `Family` core tuples.
    fn repair(&mut self, op: u64, tr: &mut Tracer) -> Result<(u64, u64, u64), String> {
        let married = |m: &[Person], i: usize| m[i].male && m[i].spouse.is_some();
        let n = self.fx.model.len();
        let mut pick = || loop {
            let i = self.rng.below(n as u64) as usize;
            if married(&self.fx.model, i) {
                return i;
            }
        };
        let h1 = pick();
        let h2 = loop {
            let h = pick();
            if h != h1 {
                break h;
            }
        };
        let (w1, w2) = (
            self.fx.model[h1].spouse.expect("married"),
            self.fx.model[h2].spouse.expect("married"),
        );
        let spouse = self.names.spouse;
        let o = |i: usize| self.fx.oids[i];
        let pairs = [(h1, w2), (w2, h1), (h2, w1), (w1, h2)];
        let writes: Vec<(Oid, Oid)> = pairs.iter().map(|&(a, b)| (o(a), o(b))).collect();
        let ns = self.set_timed(op, tr, |db| {
            for (a, b) in writes {
                db.set_attr(a, spouse, Value::Oid(b))?;
            }
            Ok(())
        })?;
        for (a, b) in pairs {
            self.fx.model[a].spouse = Some(b);
            self.touched.insert(a);
        }
        Ok((ns, 4, 32))
    }

    fn run_checkpoint(&mut self, op: u64, tr: &mut Tracer, ph: &mut Phase) {
        ph.attempted += 1;
        let db = self.fx.db.read();
        ph.wal_bytes += wal_bytes(&db).saturating_sub(self.wal_base);
        let t0 = Instant::now();
        let r = db.checkpoint();
        let dt = t0.elapsed();
        tr.push(op, "op.checkpoint", t0, dt);
        tr.push(op, layer::CHECKPOINT, t0, dt);
        self.wal_base = wal_bytes(&db);
        drop(db);
        match r {
            Ok(()) => {
                Self::record(ph, "checkpoint", dt.as_nanos() as u64);
                self.checkpoint = Some((dt, dir_bytes(&self.fx.dir)));
                self.checkpoint_user_bytes = self
                    .fx
                    .model
                    .iter()
                    .map(|p| user_bytes(&Value::Tuple(crate::fixture::person_tuple(p))) + 8)
                    .sum();
            }
            Err(e) => {
                ph.failed += 1;
                self.wrong(format!("checkpoint failed: {e}"));
            }
        }
    }

    /// `(husband, wife) → oid` for every `Family` object of the
    /// `Families` view.
    fn family_identity(&self) -> BTreeMap<(Oid, Oid), Oid> {
        let v = &self.fx.families;
        let mut out = BTreeMap::new();
        for o in v.extent_of(self.names.family).unwrap_or_default() {
            let h = v.attr(o, self.names.husband).ok().and_then(|x| x.as_oid());
            let w = v.attr(o, self.names.wife).ok().and_then(|x| x.as_oid());
            if let (Some(h), Some(w)) = (h, w) {
                out.insert((h, w), o);
            }
        }
        out
    }

    // ---- checks ----------------------------------------------------------

    /// The workload's own output checks, run after the timed phases.
    /// Returns the failures found.
    pub fn check(&mut self) -> Vec<String> {
        let mut fails = std::mem::take(&mut self.wrong);
        if self.wrong_count > fails.len() as u64 {
            fails.push(format!("… {} wrong outputs in all", self.wrong_count));
        }
        match self.workload {
            Workload::Point => {}
            Workload::Views => fails.extend(self.check_views()),
            Workload::Maintain => fails.extend(self.check_maintain()),
        }
        fails
    }

    /// Every distinct `views` query against the interpreter oracle: the
    /// same text under `EngineMode::Interp` with the planner off.
    fn check_views(&self) -> Vec<String> {
        let mut fails = Vec::new();
        for (text, got) in &self.seen {
            let oracle = ov_query::with_engine_mode(ov_query::EngineMode::Interp, || {
                ov_query::with_planner(false, || self.fx.staff.query(text))
            });
            match oracle {
                Ok(o) if o == *got => {}
                Ok(_) => fails.push(format!("{text}: result differs from the interpreter")),
                Err(e) => fails.push(format!("{text}: oracle failed: {e}")),
            }
        }
        if self.seen.is_empty() {
            fails.push("views: no query completed".into());
        }
        fails
    }

    /// The stacked extents against a fresh full recompute and the model;
    /// `Family` identity of untouched core tuples.
    fn check_maintain(&self) -> Vec<String> {
        let mut fails = Vec::new();
        let fresh = (|| -> Result<View, String> {
            let defs: Vec<ViewDef> = STACK[..2]
                .iter()
                .map(|s| ViewDef::from_script(s).map_err(|e| e.to_string()))
                .collect::<Result<_, _>>()?;
            ViewDef::from_script(STACK[2])
                .map_err(|e| e.to_string())?
                .binder(&self.fx.sys)
                .over_all(&defs)
                .options(
                    ViewOptions::builder()
                        .materialization(Materialization::AlwaysRecompute)
                        .build(),
                )
                .bind()
                .map_err(|e| e.to_string())
        })();
        let fresh = match fresh {
            Ok(v) => v,
            Err(e) => return vec![format!("binding the recompute oracle: {e}")],
        };
        for class in [self.names.adult, self.names.rich, self.names.elite] {
            let a = self.fx.top.extent_of(class).map_err(|e| e.to_string());
            let b = fresh.extent_of(class).map_err(|e| e.to_string());
            if a != b {
                fails.push(format!(
                    "{class}: incremental extent differs from a full recompute"
                ));
            }
        }
        let want: BTreeSet<Oid> = self
            .fx
            .model
            .iter()
            .zip(&self.fx.oids)
            .filter(|(p, _)| p.age >= 60 && p.income >= 100_000)
            .map(|(_, &o)| o)
            .collect();
        match self.fx.top.extent_of(self.names.elite) {
            Ok(got) if got.iter().copied().collect::<BTreeSet<_>>() == want => {}
            Ok(got) => fails.push(format!(
                "Elite: {} objects, model has {}",
                got.len(),
                want.len()
            )),
            Err(e) => fails.push(format!("Elite: {e}")),
        }
        let index: HashMap<Oid, usize> = self
            .fx
            .oids
            .iter()
            .enumerate()
            .map(|(i, &o)| (o, i))
            .collect();
        let now = self.family_identity();
        let untouched = |o: &Oid| index.get(o).is_some_and(|i| !self.touched.contains(i));
        let mut kept = 0usize;
        for ((h, w), oid) in &self.family_before {
            if untouched(h) && untouched(w) {
                kept += 1;
                if now.get(&(*h, *w)) != Some(oid) {
                    fails.push(format!("Family [{h}, {w}] changed oid (§5.1)"));
                    break;
                }
            }
        }
        if kept == 0 && !self.family_before.is_empty() {
            fails.push("Family: no untouched core tuple left to check".into());
        }
        let married_men = self
            .fx
            .model
            .iter()
            .filter(|p| p.male && p.spouse.is_some())
            .count();
        if now.len() != married_men {
            fails.push(format!(
                "Family: {} objects, model has {married_men} couples",
                now.len()
            ));
        }
        fails
    }
}

/// Drops the fixture and reopens its database from disk (snapshot + WAL),
/// comparing every stored person with the model of acknowledged writes.
/// Returns the reopen time and the check's outcome; removes the data
/// directory afterwards.
pub fn reopen_check(fx: Fixture) -> (Duration, Result<(), String>) {
    let Fixture {
        model,
        oids,
        sys,
        db,
        staff,
        top,
        families,
        dir,
        ..
    } = fx;
    // Every handle on the database goes before it is opened again.
    drop((staff, top, families, db, sys));
    let t0 = Instant::now();
    let db = Database::open(ov_oodb::sym("Staff"), &dir, crate::fixture::DURABILITY);
    let dt = t0.elapsed();
    let r = match db {
        Ok(db) => {
            let r = check_against_model(&db, &model, &oids);
            drop(db);
            r
        }
        Err(e) => Err(format!("reopen failed: {e}")),
    };
    let _ = std::fs::remove_dir_all(&dir);
    (dt, r)
}
