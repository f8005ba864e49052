//! `perfbench --workload <point|views|maintain> --seed <n> --seconds <s>
//! --trace <0|1> [--people <n>]`
//!
//! Prints a report, then the result object as the last line of standard
//! output. Exits 2 on bad arguments and 1 when a set-up fails. `--child 1`
//! marks one of the processes a `--trace 0` run is split over; it prints
//! its raw samples for the parent instead. `--reference`, alone, makes the
//! process the reference-kernel helper a child samples (see `calib`).

use std::process::ExitCode;

use ov_perfbench::run::{child_dump, default_work_dir, run, run_single, Args};
use ov_perfbench::workloads::Workload;

const USAGE: &str = "usage: perfbench --workload <point|views|maintain> --seed <n> \
                     --seconds <s> --trace <0|1> [--people <n>]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut people = 100_000usize;
    let mut child = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("not a whole number"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            "--people" => {
                people = value.parse().map_err(|_| bad("not a whole number"))?;
                if people < 100 {
                    return Err(bad("must be at least 100"));
                }
            }
            "--child" => child = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        people,
        work_dir: default_work_dir(),
        child,
        exe: std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?,
    })
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--reference") {
        return match ov_perfbench::calib::serve() {
            Ok(()) => ExitCode::SUCCESS,
            Err(_) => ExitCode::from(1),
        };
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.child {
        return match run_single(&args) {
            Ok(s) => {
                print!("{}", child_dump(&s));
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: set-up failed: {e}");
                ExitCode::from(1)
            }
        };
    }
    let out = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            return ExitCode::from(1);
        }
    };
    for line in &out.report {
        println!("# {line}");
    }
    for f in &out.failures {
        eprintln!("perfbench: WRONG OUTPUT: {f}");
    }
    println!("{}", out.result.render());
    ExitCode::SUCCESS
}
