//! The traced run's span recorder. Spans are taken from the benchmark's own
//! code around each call into a layer's public functions; nothing inside
//! the program is instrumented. Every span carries the id of the op that
//! caused it, spans stay in memory while the run measures, and
//! [`Tracer::write`] puts them on disk once the run is over.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded interval.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// The op this span belongs to (0 = set-up).
    pub op: u64,
    /// `<crate>.<module>.<what>` for a layer call, `op.<type>` for an op.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Records spans when on; when off, [`Tracer::time`] is a plain call, so
/// the untraced run executes exactly the ops the traced run does.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records (`on`) or only forwards calls.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Is this tracer recording?
    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f`, recording it as span `name` of `op` when on.
    pub fn time<R>(&mut self, op: u64, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let t0 = Instant::now();
        let r = f();
        self.push(op, name, t0, t0.elapsed());
        r
    }

    /// Records an interval measured by the caller.
    pub fn push(&mut self, op: u64, name: &'static str, start: Instant, dur: Duration) {
        if self.on {
            self.spans.push(Span {
                op,
                name,
                start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
                dur_ns: dur.as_nanos() as u64,
            });
        }
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one `op name start_ns dur_ns` line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(out, "{} {} {} {}", s.op, s.name, s.start_ns, s.dur_ns)?;
        }
        out.flush()
    }
}

/// Span and layer names (`<crate>.<module>.<what>`).
pub mod layer {
    pub const BIND: &str = "views.def.bind_ms";
    pub const WARM: &str = "views.view.warm_ms";
    pub const PARSE: &str = "query.parser.parse_us";
    pub const FOLD: &str = "query.optimize.fold_us";
    pub const FINGERPRINT: &str = "query.fingerprint.render_us";
    pub const PLAN: &str = "query.planner.plan_us";
    pub const COMPILE: &str = "query.compile.compile_us";
    /// The `run_expr` call; its self time is `query.exec.execute_us`.
    pub const RUN_EXPR: &str = "query.exec.run_expr";
    pub const EXECUTE: &str = "query.exec.execute_us";
    pub const PROBE: &str = "oodb.index.probe_us";
    pub const DB_EXTENT: &str = "oodb.database.extent_us";
    pub const SET_ATTR: &str = "oodb.database.set_attr_us";
    pub const FSYNC: &str = "oodb.wal.fsync_us";
    pub const CHECKPOINT: &str = "oodb.pager.checkpoint_ms";
    /// The first `View::extent_of(Elite)` after a write: the delta
    /// propagation through the stack and the copy-out.
    pub const REFRESH: &str = "views.view.refresh_us";
    pub const VIEW_EXTENT: &str = "views.view.extent_us";
    pub const IMAGINARY: &str = "views.view.imaginary_us";
    pub const ATTR: &str = "views.view.attr_us";
    pub const INSTANTIATE: &str = "views.view.instantiate_us";
}

/// Per-op-type attribution of a traced phase: the op's total, each layer's
/// self time, and the remainder no layer span covers.
#[derive(Clone, Debug, Default)]
pub struct Attribution {
    /// Number of ops of this type.
    pub ops: u64,
    /// Sum of the op spans, ns.
    pub total_ns: u64,
    /// Per layer: self time summed over the ops (ns), and how many of the
    /// ops called the layer.
    pub layers: BTreeMap<&'static str, (u64, u64)>,
}

impl Attribution {
    /// Sum of the layer self times, ns.
    pub fn layer_sum_ns(&self) -> u64 {
        self.layers.values().map(|(ns, _)| ns).sum()
    }
}

/// Folds spans into per-op-type attributions. An op span is named
/// `op.<type>` (an op may run several, e.g. two queries); every other span with the same op id is a layer call, and
/// a layer's self time is the sum of its spans, except where one measured
/// call contains others:
///
/// * `run_expr` repeats the calls measured as replicas after it (fold,
///   compile, plan, probe, extent, instantiate, and the fingerprint of the
///   plan-drift check), so `query.exec.execute_us` is `run_expr` minus
///   them;
/// * `plan_select` computes one fingerprint itself, so the fingerprint
///   layer counts the measured fingerprint twice and the planner once
///   less;
/// * a view's extent of an imported class contains the database's;
/// * `set_attr` and `create_object` contain the WAL fsyncs they trigger.
///
/// Op id 0 (set-up and per-call probes) is left out.
pub fn attribute(spans: &[Span]) -> BTreeMap<&'static str, Attribution> {
    use layer::*;
    let mut by_op: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.op != 0) {
        by_op.entry(s.op).or_default().push(s);
    }
    let mut out: BTreeMap<&'static str, Attribution> = BTreeMap::new();
    for spans in by_op.values() {
        let ops: Vec<&&Span> = spans.iter().filter(|s| s.name.starts_with("op.")).collect();
        let Some(op) = ops.first() else {
            continue;
        };
        let mut l: BTreeMap<&'static str, u64> = BTreeMap::new();
        for s in spans.iter().filter(|s| !s.name.starts_with("op.")) {
            *l.entry(s.name).or_default() += s.dur_ns;
        }
        let get = |l: &BTreeMap<&str, u64>, n: &str| l.get(n).copied().unwrap_or(0);
        if let Some(run) = l.remove(RUN_EXPR) {
            let fp = get(&l, FINGERPRINT);
            let repeated: u64 = [FOLD, COMPILE, PLAN, PROBE, VIEW_EXTENT, INSTANTIATE]
                .iter()
                .map(|n| get(&l, n))
                .sum();
            l.insert(EXECUTE, run.saturating_sub(repeated + fp));
            if let Some(p) = l.get_mut(PLAN) {
                *p = p.saturating_sub(fp);
                l.insert(FINGERPRINT, 2 * fp);
            }
        }
        let db_extent = get(&l, DB_EXTENT);
        if let Some(v) = l.get_mut(VIEW_EXTENT) {
            *v = v.saturating_sub(db_extent);
        }
        let fsync = get(&l, FSYNC);
        if let Some(w) = l.get_mut(SET_ATTR) {
            *w = w.saturating_sub(fsync);
        }
        let a = out.entry(op.name).or_default();
        a.ops += 1;
        a.total_ns += ops.iter().map(|s| s.dur_ns).sum::<u64>();
        for (name, ns) in l {
            let e = a.layers.entry(name).or_default();
            e.0 += ns;
            e.1 += 1;
        }
    }
    out
}
