//! A fixed reference kernel that measures how fast the machine is right
//! now. Its work is the same kind as the workloads': heap objects, string
//! clones and B-tree inserts.
//!
//! On a shared VM the machine's speed flips between modes from one tenth
//! of a second to the next and drifts by ±20% over tens of seconds. A
//! workload process samples the kernel every second or so of its timed
//! phase, with the clock stopped, and its time is scaled by the mean pass
//! time; that cancels most of the drift.
//!
//! The kernel runs in a helper process of its own ([`Helper`]): its heap is
//! fresh and holds nothing of the program's, so a program change that grows
//! or fragments the workload process's heap cannot move it.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

/// Objects the kernel walks.
const OBJECTS: u64 = 100_000;

/// Passes per sample: about a tenth of a second, so one sample spans
/// several of the machine's speed flips.
const PASSES: usize = 12;

/// The pass time the normalized metrics are scaled to, in ns: about one
/// pass on a 2-vCPU Intel Xeon VM.
pub const NOMINAL_PASS_NS: f64 = 8.0e6;

/// The kernel's working set: one heap allocation per object, as the
/// store's objects are.
pub struct Reference {
    #[allow(clippy::vec_box)]
    objects: Vec<Box<(u64, String)>>,
}

impl Reference {
    /// Builds the working set.
    pub fn new() -> Reference {
        Reference {
            objects: (0..OBJECTS)
                .map(|i| Box::new((i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40, format!("p{i}"))))
                .collect(),
        }
    }

    /// One pass: collect the names of a fifth of the objects into a set.
    fn pass(&self) -> usize {
        let mut set = BTreeSet::new();
        for o in &self.objects {
            if o.0 % 5 == 0 {
                set.insert(o.1.clone());
            }
        }
        set.len()
    }

    /// Mean time of [`PASSES`] passes, ns. The mean, not the median:
    /// throughput follows the share of time the machine spends in each of
    /// its speed modes.
    pub fn sample(&self) -> f64 {
        let t0 = Instant::now();
        for _ in 0..PASSES {
            std::hint::black_box(self.pass());
        }
        t0.elapsed().as_nanos() as f64 / PASSES as f64
    }
}

impl Default for Reference {
    fn default() -> Reference {
        Reference::new()
    }
}

/// The helper's side (`perfbench --reference`): one sample per line read
/// from standard input, written as one line of nanoseconds, until standard
/// input closes.
pub fn serve() -> std::io::Result<()> {
    let reference = Reference::new();
    let mut out = std::io::stdout().lock();
    for line in std::io::stdin().lock().lines() {
        line?;
        writeln!(out, "{}", reference.sample())?;
        out.flush()?;
    }
    Ok(())
}

/// A helper process running the kernel next to a workload process. It
/// sleeps on its standard input between samples, so it takes no CPU while
/// the workload measures. Dropping it stops the process and waits for it.
pub struct Helper {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl Helper {
    /// Starts `exe --reference`.
    pub fn spawn(exe: &Path) -> Result<Helper, String> {
        let mut child = Command::new(exe)
            .arg("--reference")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("starting the reference helper: {e}"))?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        Ok(Helper {
            child,
            stdin,
            stdout,
        })
    }

    /// One sample: the helper's mean pass time, ns.
    pub fn sample(&mut self) -> Result<f64, String> {
        let bad = |e: String| format!("reference helper: {e}");
        writeln!(self.stdin, "sample")
            .and_then(|()| self.stdin.flush())
            .map_err(|e| bad(e.to_string()))?;
        let mut line = String::new();
        self.stdout
            .read_line(&mut line)
            .map_err(|e| bad(e.to_string()))?;
        match line.trim().parse::<f64>() {
            Ok(ns) if ns > 0.0 => Ok(ns),
            _ => Err(bad(format!("bad sample `{}`", line.trim()))),
        }
    }
}

impl Drop for Helper {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
