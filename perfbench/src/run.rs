//! One benchmark invocation.
//!
//! With `--trace 0` the run is split over [`SETUPS`] child processes of
//! this binary, run one after another: each sets up once, runs the workload
//! for its share of the seconds, checks its own outputs and hands its raw
//! samples to the parent, which pools them. Every set-up is then a fresh
//! process's, and per-process effects (heap layout, hash seeds) average
//! out instead of moving a whole run. Each child samples the reference
//! kernel in a helper process through its timed phase (`crate::calib`).
//! With `--trace 1` one set-up runs in this process, followed by an
//! untraced half and a traced half.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use ov_query::{planner::clear_plan_cache, with_engine_mode, EngineMode};

use crate::calib::{Helper, NOMINAL_PASS_NS};
use crate::fixture::{Fixture, DURABILITY};
use crate::stats::{median, percentile, ratio, Json};
use crate::trace::{attribute, layer, Tracer};
use crate::workloads::{reopen_check, Phase, Runner, Workload};

/// End-to-end metrics, reported by every workload with `--trace 0`.
/// `setup_s` is the median set-up time of the run's set-ups and
/// `ops_per_s_norm` their median throughput, each process's times scaled
/// by the reference kernel (`crate::calib`) to a machine of nominal speed.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("ops_per_s_norm", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`. Each is
/// measured on every workload (a counter or ratio of a layer the workload
/// leaves idle reads 0). Per-layer times of layers only some workloads call
/// are printed in the report instead (see `README.md`).
pub const PER_LAYER: [(&str, &str); 16] = [
    ("views.def.bind_ms", "ms"),
    ("oodb.durable.recovery_ms", "ms"),
    ("query.planner.cache_hit_ratio", "ratio"),
    ("query.planner.replans", "count"),
    ("query.compile.fallbacks", "count"),
    ("query.exec.rows_examined_per_row", "ratio"),
    ("query.exec.batches_per_op", "ratio"),
    ("oodb.wal.bytes_per_user_byte", "ratio"),
    ("oodb.wal.fsyncs_per_write", "ratio"),
    ("oodb.pager.snapshot_bytes_per_user_byte", "ratio"),
    ("views.view.deltas_per_write", "ratio"),
    ("views.view.recomputes_per_write", "ratio"),
    ("views.view.cache_hit_ratio", "ratio"),
    ("views.view.identity_entries", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_share", "ratio"),
];

/// Set-ups (child processes) a `--trace 0` run is split over; `setup_s`
/// is their median.
pub const SETUPS: usize = 3;

/// Ops the traced phase records at most (bounds span memory).
const TRACE_MAX_OPS: u64 = 20_000;

/// One invocation's parameters.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Size of the `Staff` data set.
    pub people: usize,
    /// Directory for the databases and the span file.
    pub work_dir: PathBuf,
    /// This process is one child of a `--trace 0` run.
    pub child: bool,
    /// The benchmark binary, for starting children.
    pub exe: PathBuf,
}

/// What an invocation produced.
pub struct Outcome {
    /// Human-readable report lines (printed before the result).
    pub report: Vec<String>,
    /// Output-check failures; empty when every output was correct.
    pub failures: Vec<String>,
    /// The result object (the last line of standard output).
    pub result: Json,
    /// The reported metrics, by name.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The CPU model, from `/proc/cpuinfo`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// One process's share of a run: one set-up, the timed phase(s), the
/// output checks and the reopen from disk.
pub struct Single {
    /// Set-up time: fixture plus one untimed cycle of the workload.
    pub setup_s: f64,
    pub bind_ms: f64,
    pub warm_ms: f64,
    /// Peak RSS at the end of the timed phase(s).
    pub rss_mb: f64,
    /// Mean reference-kernel pass time over the timed phase, ns
    /// (`--trace 0`).
    pub ref_ns: Option<f64>,
    /// The untraced phase.
    pub phase: Phase,
    /// The traced phase and its spans (`--trace 1`).
    pub traced: Option<(Phase, Tracer)>,
    /// Output-check failures.
    pub failures: Vec<String>,
    /// Reopen (snapshot + WAL replay) time.
    pub recovery_ms: f64,
    /// Checkpoint time and the bytes it left on disk (`maintain`).
    pub checkpoint: Option<(f64, u64)>,
    /// Live user bytes when the checkpoint ran.
    pub checkpoint_user_bytes: u64,
    /// `Family` identity-table entries at the end.
    pub identity: usize,
}

/// Runs one set-up and the timed phase(s) in this process.
pub fn run_single(args: &Args) -> Result<Single, String> {
    std::fs::create_dir_all(&args.work_dir)
        .map_err(|e| format!("creating {}: {e}", args.work_dir.display()))?;
    let dir = args.work_dir.join(format!(
        "db-{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    clear_plan_cache();
    let mut tr = Tracer::new(true);
    let t0 = Instant::now();
    let fx = Fixture::build(args.seed, args.people, &dir, args.workload.warm(), &mut tr)?;
    let mut runner = Runner::new(args.workload, fx, args.seed);
    runner.warm_up();
    let setup_s = t0.elapsed().as_secs_f64();
    let span_ms = |name: &str| {
        tr.spans()
            .iter()
            .find(|s| s.name == name)
            .map_or(0.0, |s| s.dur_ns as f64 / 1e6)
    };
    let (bind_ms, warm_ms) = (span_ms(layer::BIND), span_ms(layer::WARM));

    runner.begin();
    let (phase, traced, ref_ns) = if args.trace {
        let half = args.seconds / 2.0;
        let untraced = runner.run_phase(half, u64::MAX, &mut Tracer::new(false));
        let mut tr = Tracer::new(true);
        // `Compiled` behaves as the default `Auto` but counts fallbacks.
        let traced = with_engine_mode(EngineMode::Compiled, || {
            runner.run_phase(half, TRACE_MAX_OPS, &mut tr)
        });
        (untraced, Some((traced, tr)), None)
    } else {
        let mut helper = Helper::spawn(&args.exe)?;
        let mut samples = Vec::new();
        let ph = runner.run_sampled(args.seconds, u64::MAX, &mut Tracer::new(false), &mut || {
            samples.push(helper.sample())
        });
        drop(helper);
        let samples = samples.into_iter().collect::<Result<Vec<f64>, _>>()?;
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        (ph, None, Some(mean))
    };
    let rss_mb = peak_rss_mb();

    let mut failures = runner.check();
    let identity = runner
        .fx
        .families
        .identity_table_len(ov_oodb::sym("Family"));
    let checkpoint = runner.checkpoint.map(|(d, b)| (d.as_secs_f64() * 1e3, b));
    let checkpoint_user_bytes = runner.checkpoint_user_bytes;
    let (recovery, reopened) = reopen_check(runner.fx);
    if let Err(e) = reopened {
        failures.push(format!("reopen from the WAL: {e}"));
    }
    Ok(Single {
        setup_s,
        bind_ms,
        warm_ms,
        rss_mb,
        ref_ns,
        phase,
        traced,
        failures,
        recovery_ms: recovery.as_secs_f64() * 1e3,
        checkpoint,
        checkpoint_user_bytes,
        identity,
    })
}

/// A child's hand-over to the parent: one item per line.
pub fn child_dump(s: &Single) -> String {
    use std::fmt::Write as _;
    let p = &s.phase;
    let mut out = String::new();
    let _ = writeln!(out, "setup_s {}", s.setup_s);
    let _ = writeln!(out, "rss_mb {}", s.rss_mb);
    let _ = writeln!(out, "recovery_ms {}", s.recovery_ms);
    if let Some(ns) = s.ref_ns {
        let _ = writeln!(out, "ref_ns {ns}");
    }
    let _ = writeln!(out, "elapsed_s {}", p.elapsed.as_secs_f64());
    let _ = writeln!(out, "attempted {}", p.attempted);
    let _ = writeln!(out, "failed {}", p.failed);
    let _ = writeln!(out, "writes {}", p.writes);
    let _ = writeln!(out, "fsyncs {}", p.fsyncs);
    for f in &s.failures {
        let _ = writeln!(out, "fail {}", f.replace('\n', " "));
    }
    for ns in &p.op_ns {
        let _ = writeln!(out, "op {ns}");
    }
    for (kind, v) in &p.kind_ns {
        for ns in v {
            let _ = writeln!(out, "kind {kind} {ns}");
        }
    }
    out
}

/// What the parent keeps of one child.
#[derive(Default)]
struct Child {
    setup_s: f64,
    rss_mb: f64,
    ref_ns: f64,
    recovery_ms: f64,
    /// The child's timed seconds and completed ops.
    elapsed_s: f64,
    ops: u64,
    failures: Vec<String>,
}

/// Parses a child's hand-over, adding its samples to `pooled`.
fn parse_child(w: Workload, text: &str, pooled: &mut Phase) -> Result<Child, String> {
    let mut c = Child::default();
    let before = (pooled.attempted, pooled.failed);
    let mut seen_setup = false;
    for line in text.lines() {
        let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
        let num = || -> Result<f64, String> {
            rest.parse().map_err(|_| format!("bad child line `{line}`"))
        };
        let int = || -> Result<u64, String> {
            rest.parse().map_err(|_| format!("bad child line `{line}`"))
        };
        match key {
            "setup_s" => {
                c.setup_s = num()?;
                seen_setup = true;
            }
            "rss_mb" => c.rss_mb = num()?,
            "ref_ns" => c.ref_ns = num()?,
            "recovery_ms" => c.recovery_ms = num()?,
            "elapsed_s" => {
                c.elapsed_s = num()?;
                pooled.elapsed += std::time::Duration::from_secs_f64(c.elapsed_s);
            }
            "attempted" => pooled.attempted += int()?,
            "failed" => pooled.failed += int()?,
            "writes" => pooled.writes += int()?,
            "fsyncs" => pooled.fsyncs += int()?,
            "fail" => c.failures.push(rest.to_string()),
            "op" => pooled.op_ns.push(int()?),
            "kind" => {
                let (kind, ns) = rest
                    .split_once(' ')
                    .ok_or_else(|| format!("bad child line `{line}`"))?;
                let kind = w
                    .op_kinds()
                    .iter()
                    .find(|k| **k == kind)
                    .ok_or_else(|| format!("unknown op type `{kind}`"))?;
                let ns = ns.parse().map_err(|_| format!("bad child line `{line}`"))?;
                pooled.kind_ns.entry(kind).or_default().push(ns);
            }
            _ => {}
        }
    }
    if !seen_setup || c.ref_ns <= 0.0 {
        return Err("child printed no result".into());
    }
    c.ops = (pooled.attempted - before.0) - (pooled.failed - before.1);
    Ok(c)
}

fn header(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "workload={} seed={} seconds={} trace={} people={} setups={} nproc={nproc} cpu=\"{}\" \
         durability={DURABILITY} (group fsync every {} records) clients=1 parallel_workers=1",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.people,
        if args.trace { 1 } else { SETUPS },
        cpu_model(),
        ov_oodb::wal::GROUP_COMMIT_INTERVAL,
    )
}

fn result_json(
    failures: &[String],
    attempted: u64,
    failed: u64,
    metrics: &[(&'static str, f64, &'static str)],
) -> Json {
    Json::obj([
        ("correct", Json::Bool(failures.is_empty())),
        ("attempted", Json::Int(attempted)),
        ("failed", Json::Int(failed)),
        (
            "metrics",
            Json::obj(
                metrics
                    .iter()
                    .map(|&(name, v, unit)| (name, Json::metric(v, unit))),
            ),
        ),
    ])
}

/// Runs one invocation (see the module docs).
pub fn run(args: &Args) -> Result<Outcome, String> {
    if args.trace {
        run_traced(args)
    } else {
        run_children(args)
    }
}

/// `--trace 0`: the end-to-end metrics, pooled over the children.
fn run_children(args: &Args) -> Result<Outcome, String> {
    let mut report = vec![header(args)];
    let share = args.seconds / SETUPS as f64;
    let mut pooled = Phase::default();
    let mut children = Vec::new();
    for i in 0..SETUPS {
        let out = Command::new(&args.exe)
            .args([
                "--workload",
                args.workload.name(),
                "--seed",
                &args.seed.to_string(),
                "--seconds",
                &share.to_string(),
                "--trace",
                "0",
                "--people",
                &args.people.to_string(),
                "--child",
                "1",
            ])
            .output()
            .map_err(|e| format!("starting child {i}: {e}"))?;
        if !out.status.success() {
            return Err(format!(
                "child {i} exited with {}: {}",
                out.status,
                String::from_utf8_lossy(&out.stderr).trim()
            ));
        }
        let text = String::from_utf8_lossy(&out.stdout);
        children.push(parse_child(args.workload, &text, &mut pooled)?);
    }
    let mut failures: Vec<String> = Vec::new();
    for c in &children {
        for f in &c.failures {
            if !failures.contains(f) {
                failures.push(f.clone());
            }
        }
    }
    let setup: Vec<f64> = children.iter().map(|c| c.setup_s).collect();
    let setup_norm: Vec<f64> = children
        .iter()
        .map(|c| c.setup_s * NOMINAL_PASS_NS / c.ref_ns)
        .collect();
    let rss: Vec<f64> = children.iter().map(|c| c.rss_mb).collect();
    let recovery: Vec<f64> = children.iter().map(|c| c.recovery_ms).collect();
    let refs: Vec<f64> = children.iter().map(|c| c.ref_ns / 1e6).collect();
    // Which code paths the views take depends on each process's hash
    // seeds, so a process's throughput has modes; the median of the
    // set-ups drops one process that lands in an outlying mode.
    let norm: Vec<f64> = children
        .iter()
        .map(|c| ratio(c.ops as f64, c.elapsed_s * NOMINAL_PASS_NS / c.ref_ns))
        .collect();
    let mut sorted = pooled.op_ns.clone();
    sorted.sort_unstable();
    let values = [median(&setup_norm), median(&norm), median(&rss)];
    let metrics: Vec<_> = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, v, unit))
        .collect();
    report.extend(op_report(args.workload, &pooled));
    report.push(format!(
        "op_p50_us={:.2} op_p90_us={:.2} op_p99_us={:.2} (n={})",
        us(percentile(&sorted, 0.50)),
        us(percentile(&sorted, 0.90)),
        us(percentile(&sorted, 0.99)),
        sorted.len()
    ));
    report.push(format!(
        "per set-up: setup_s={setup:?} setup_s_norm={setup_norm:?} peak_rss_mb={rss:?} \
         recovery_ms={recovery:?} reference_pass_ms={refs:?} (nominal {}) ops_per_s_norm={norm:?}",
        NOMINAL_PASS_NS / 1e6
    ));
    let result = result_json(&failures, pooled.attempted, pooled.failed, &metrics);
    Ok(Outcome {
        report,
        failures,
        result,
        metrics,
    })
}

/// `--trace 1`: the per-layer metrics of one traced process.
fn run_traced(args: &Args) -> Result<Outcome, String> {
    let mut report = vec![header(args)];
    let s = run_single(args)?;
    let untraced = &s.phase;
    let (traced, tr) = s.traced.as_ref().expect("traced run");
    report.extend(op_report(args.workload, untraced));
    let (lines, unattributed) = layer_report(untraced, traced, tr);
    report.extend(lines);
    let path = args
        .work_dir
        .join(format!("spans-{}.txt", args.workload.name()));
    match tr.write(&path) {
        Ok(()) => report.push(format!(
            "spans: {} written to {}",
            tr.spans().len(),
            path.display()
        )),
        Err(e) => report.push(format!("spans: not written ({e})")),
    }
    let a = traced
        .actuals
        .values()
        .fold(ov_query::ScanActuals::default(), |mut acc, a| {
            acc.absorb(a);
            acc
        });
    let query_ops: u64 = traced.query_ops.values().sum();
    let (hits, misses, replans) = untraced.plan;
    let per_write = |x: u64| ratio(x as f64, untraced.writes as f64);
    let values = [
        s.bind_ms,
        s.recovery_ms,
        ratio(hits as f64, (hits + misses) as f64),
        replans as f64,
        traced.fallbacks as f64,
        ratio(a.rows_scanned as f64, a.rows_matched as f64),
        ratio(a.batches as f64, query_ops as f64),
        ratio(untraced.wal_bytes as f64, untraced.user_bytes as f64),
        per_write(untraced.fsyncs),
        s.checkpoint.map_or(0.0, |(_, b)| {
            ratio(b as f64, s.checkpoint_user_bytes as f64)
        }),
        per_write(untraced.top.incremental_updates),
        per_write(untraced.top.recomputations),
        ratio(
            untraced.pop_cache.0 as f64,
            (untraced.pop_cache.0 + untraced.pop_cache.1) as f64,
        ),
        s.identity as f64,
        ratio(untraced.ops_per_s(), traced.ops_per_s()),
        unattributed,
    ];
    let metrics: Vec<_> = PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, v, unit))
        .collect();
    report.push(format!(
        "tracing overhead: untraced {:.1} ops/s, traced {:.1} ops/s",
        untraced.ops_per_s(),
        traced.ops_per_s()
    ));
    report.push(format!(
        "setup_s={:.3} (views.view.warm_ms={:.1}); recovery {:.1} ms; checkpoint {}",
        s.setup_s,
        s.warm_ms,
        s.recovery_ms,
        s.checkpoint.map_or("none".into(), |(ms, b)| format!(
            "{ms:.1} ms, {b} bytes on disk"
        ))
    ));
    let result = result_json(
        &s.failures,
        untraced.attempted + traced.attempted,
        untraced.failed + traced.failed,
        &metrics,
    );
    Ok(Outcome {
        report,
        failures: s.failures.clone(),
        result,
        metrics,
    })
}

/// The end-to-end latency of each op type the workload issues, by the
/// names `README.md` lists, with sample counts.
fn op_report(w: Workload, ph: &Phase) -> Vec<String> {
    let mut out = vec![format!(
        "ops: attempted={} failed={} ops_per_s={:.2} writes={} fsyncs={}",
        ph.attempted,
        ph.failed,
        ph.ops_per_s(),
        ph.writes,
        ph.fsyncs
    )];
    for &kind in w.op_kinds() {
        let mut v = ph.kind_ns.get(kind).cloned().unwrap_or_default();
        v.sort_unstable();
        let n = v.len();
        let qs: &[(&str, f64)] = match kind {
            "scan" => &[("p50", 0.5), ("p90", 0.9)],
            "view_lookup" | "imaginary" | "checkpoint" => &[("p50", 0.5)],
            _ => &[("p50", 0.5), ("p99", 0.99)],
        };
        let cells: Vec<String> = qs
            .iter()
            .map(|(q, f)| format!("{kind}_{q}_us={:.2}", us(percentile(&v, *f))))
            .collect();
        out.push(format!("  {} (n={n})", cells.join(" ")));
    }
    out
}

/// Per-layer self times and the reconciliation of each traced op type.
/// Returns the lines and the unattributed share of all traced op time: the
/// size of each op type's remainder (replica estimates can also exceed the
/// op, leaving it negative), summed over the op types, over their total.
fn layer_report(untraced: &Phase, traced: &Phase, tr: &Tracer) -> (Vec<String>, f64) {
    let mut out = vec!["layers (traced; self time per op that calls the layer):".to_string()];
    let attribution = attribute(tr.spans());
    let (mut total, mut unattributed) = (0u64, 0u128);
    for (op, a) in &attribution {
        let n = a.ops.max(1) as f64;
        let sum = a.layer_sum_ns();
        let rest = a.total_ns as i128 - sum as i128;
        total += a.total_ns;
        unattributed += rest.unsigned_abs();
        let kind = op.trim_start_matches("op.");
        let untraced_mean = match kind {
            "maintain" => Some(&untraced.op_ns),
            k => untraced.kind_ns.get(k),
        }
        .filter(|v| !v.is_empty())
        .map(|v| v.iter().sum::<u64>() as f64 / v.len() as f64 / 1e3);
        out.push(format!(
            "  {op} n={}: op {:.2} us = layers {:.2} us + unattributed {:.2} us ({:.1}%); untraced op {}",
            a.ops,
            a.total_ns as f64 / n / 1e3,
            sum as f64 / n / 1e3,
            rest as f64 / n / 1e3,
            100.0 * ratio(rest as f64, a.total_ns as f64),
            untraced_mean.map_or("-".into(), |m| format!("{m:.2} us")),
        ));
        for (name, (ns, calls)) in &a.layers {
            out.push(format!(
                "    {name} = {:.3} (per op, over {calls} ops)",
                scaled(name, *ns as f64 / *calls as f64)
            ));
        }
    }
    // Per-call probes (op id 0) stay out of the reconciliation above.
    let attr: Vec<u64> = tr
        .spans()
        .iter()
        .filter(|s| s.name == layer::ATTR)
        .map(|s| s.dur_ns)
        .collect();
    if !attr.is_empty() {
        let mean = attr.iter().sum::<u64>() as f64 / attr.len() as f64;
        out.push(format!(
            "  {} = {:.3} (per call, n={})",
            layer::ATTR,
            us(mean as u64),
            attr.len()
        ));
    }
    for (kind, a) in &traced.actuals {
        let q = traced.query_ops.get(kind).copied().unwrap_or(0);
        out.push(format!(
            "  {kind}: query.exec.rows_examined_per_row={:.2} query.exec.batches_per_op={:.2} ({q} queries, scanned={} matched={})",
            ratio(a.rows_scanned as f64, a.rows_matched as f64),
            ratio(a.batches as f64, q as f64),
            a.rows_scanned,
            a.rows_matched
        ));
    }
    let (hits, misses, replans) = untraced.plan;
    out.push(format!(
        "  query.planner: hits={hits} misses={misses} replans={replans} (untraced phase)"
    ));
    if untraced.fsyncs > 0 {
        out.push(format!(
            "  oodb.wal.fsync_us={:.2} (mean of {} fsyncs, untraced phase)",
            us(untraced.fsync_ns) / untraced.fsyncs as f64,
            untraced.fsyncs
        ));
    }
    (out, ratio(unattributed as f64, total as f64))
}

/// A layer time in the unit its name ends with.
fn scaled(name: &str, ns: f64) -> f64 {
    if name.ends_with("_ms") {
        ns / 1e6
    } else {
        ns / 1e3
    }
}

/// The directory a benchmark run keeps its databases and spans in: under
/// Cargo's target directory, inside the checkout.
pub fn default_work_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new("perfbench").join("target"));
    target.join("perfbench-work")
}
