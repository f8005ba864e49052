//! Self-tests of the benchmark: every workload runs at small n and emits
//! exactly the metrics `BENCHMARK.json` names, the output checks reject
//! corrupted results, and a seed regenerates identical inputs.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::PathBuf;

use ov_oodb::{sym, Value};
use ov_perfbench::fixture::Fixture;
use ov_perfbench::gen::{self, Rng};
use ov_perfbench::run::{run, run_single, Args, END_TO_END, PER_LAYER};
use ov_perfbench::trace::Tracer;
use ov_perfbench::workloads::{reopen_check, Runner, Workload};

const PEOPLE: usize = 600;

fn work_dir(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("selftest-{tag}"))
}

fn args(workload: Workload, trace: bool) -> Args {
    Args {
        workload,
        seed: 7,
        seconds: 0.6,
        trace,
        // At 600 people, `maintain`'s spouse re-pairings touch every couple
        // within the run, leaving no untouched `Family` core tuple for the
        // §5.1 oid check to test.
        people: if workload == Workload::Maintain {
            4_000
        } else {
            PEOPLE
        },
        work_dir: work_dir(workload.name()),
        child: false,
        exe: PathBuf::from(env!("CARGO_BIN_EXE_perfbench")),
    }
}

/// The metric names of one section of `BENCHMARK.json`, in order.
fn spec_names(section: &str) -> Vec<String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json next to perfbench/");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section ends")];
    body.split("\"name\"")
        .skip(1)
        .map(|s| {
            let s = &s[s.find('"').expect("name value") + 1..];
            s[..s.find('"').expect("name ends")].to_string()
        })
        .collect()
}

fn fixture(workload: Workload, tag: &str) -> Fixture {
    Fixture::build(
        11,
        PEOPLE,
        &work_dir(tag).join("db"),
        workload.warm(),
        &mut Tracer::new(false),
    )
    .expect("set-up")
}

#[test]
fn every_workload_runs_at_small_n_and_emits_every_named_metric() {
    let e2e = spec_names("end_to_end");
    let per_layer = spec_names("per_layer");
    assert_eq!(
        e2e,
        END_TO_END
            .iter()
            .map(|(n, _)| n.to_string())
            .collect::<Vec<_>>()
    );
    assert_eq!(
        per_layer,
        PER_LAYER
            .iter()
            .map(|(n, _)| n.to_string())
            .collect::<Vec<_>>()
    );
    for w in Workload::ALL {
        for trace in [false, true] {
            let out = run(&args(w, trace)).expect("run completes");
            let names: Vec<String> = out.metrics.iter().map(|(n, ..)| n.to_string()).collect();
            assert_eq!(&names, if trace { &per_layer } else { &e2e }, "{w:?}");
            for (name, v, _) in &out.metrics {
                assert!(v.is_finite() && *v >= 0.0, "{w:?} {name} = {v}");
            }
            let line = out.result.render();
            for key in ["\"correct\"", "\"attempted\"", "\"failed\"", "\"metrics\""] {
                assert!(line.contains(key), "{line}");
            }
            assert!(out.failures.is_empty(), "{w:?}: {:?}", out.failures);
        }
    }
}

#[test]
fn traced_point_lookups_find_the_plan_cache_as_untraced_ones_do() {
    // The traced half re-plans each lookup as a replica after the op; the
    // replica must leave the plan cache as `run_expr` left it, or the next
    // traced `run_expr` would hit a plan the untraced path never sees.
    let s = run_single(&args(Workload::Point, true)).expect("run completes");
    let (traced, _) = s.traced.as_ref().expect("traced half");
    let hit_ratio = |(hits, misses, _): (u64, u64, u64)| {
        assert!(hits + misses > 0);
        hits as f64 / (hits + misses) as f64
    };
    let (untraced, traced) = (hit_ratio(s.phase.plan), hit_ratio(traced.plan));
    assert!(
        (untraced - traced).abs() < 0.05,
        "plan-cache hit ratio: untraced {untraced}, traced {traced}"
    );
}

#[test]
fn views_check_rejects_a_result_that_differs_from_the_oracle() {
    let fx = fixture(Workload::Views, "corrupt-views");
    let mut r = Runner::new(Workload::Views, fx, 3);
    r.run_phase(60.0, 5, &mut Tracer::new(false));
    assert!(r.check().is_empty());
    // Behind the runner's back, move someone across `P.Age >= 90`: the
    // recorded result of that scan no longer matches the interpreter.
    let oid = r.fx.oids[r.fx.model.iter().position(|p| p.age < 90).unwrap()];
    r.fx.db
        .write()
        .set_attr(oid, sym("Age"), Value::Int(95))
        .unwrap();
    let fails = r.check();
    assert!(fails.iter().any(|f| f.contains("interpreter")), "{fails:?}");
}

#[test]
fn point_reopen_check_rejects_a_model_that_differs_from_disk() {
    let fx = fixture(Workload::Point, "corrupt-point");
    let mut r = Runner::new(Workload::Point, fx, 3);
    r.run_phase(60.0, 200, &mut Tracer::new(false));
    assert!(r.check().is_empty());
    r.fx.model[17].income += 1;
    let (_, reopened) = reopen_check(r.fx);
    assert!(reopened.unwrap_err().contains("p17"));
}

#[test]
fn maintain_check_rejects_a_family_model_that_differs() {
    let fx = fixture(Workload::Maintain, "corrupt-maintain");
    let mut r = Runner::new(Workload::Maintain, fx, 3);
    r.begin();
    r.run_phase(60.0, 1, &mut Tracer::new(false));
    let h =
        r.fx.model
            .iter()
            .position(|p| p.male && p.spouse.is_some())
            .expect("a married man");
    r.fx.model[h].spouse = None;
    let fails = r.check();
    assert!(fails.iter().any(|f| f.contains("couples")), "{fails:?}");
}

#[test]
fn same_seed_regenerates_identical_inputs() {
    assert_eq!(gen::people(5, 2_000), gen::people(5, 2_000));
    assert_ne!(gen::people(5, 2_000), gen::people(6, 2_000));
    let draws = |seed| {
        let mut r = Rng::new(seed, gen::OPS);
        (0..64).map(|_| r.next_u64()).collect::<Vec<_>>()
    };
    assert_eq!(draws(9), draws(9));
    assert_ne!(draws(9), draws(10));
    // The stored data follows the generator exactly.
    let fx = fixture(Workload::Point, "same-seed");
    assert_eq!(fx.model, gen::people(11, PEOPLE));
    let dir = fx.dir.clone();
    let (_, reopened) = reopen_check(fx);
    reopened.unwrap();
    assert!(!dir.exists());
}
