//! The repository benchmark: the `point`, `views` and `maintain`
//! workloads over one shared set-up, with end-to-end metrics from an
//! untraced run and per-layer attribution from a traced one. See
//! `README.md` for what each workload is for and what each metric means.

pub mod calib;
pub mod fixture;
pub mod gen;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;
