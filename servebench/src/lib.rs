//! The serving benchmark for `e2nvm-server`; see `NOTES.md` beside this
//! package for what each workload and metric is for.
//!
//! * [`workload`] — the three workloads, generated from a seed.
//! * [`wire`] — the server process and the closed-loop driver.
//! * [`check`] — the output check every response goes through.
//! * [`layers`] — the traced in-process replay behind the per-layer
//!   metrics, with [`trace`] recording its spans.
//! * [`stats`], [`json`] — helpers shared with the `compare` tool.

pub mod check;
pub mod json;
pub mod layers;
pub mod stats;
pub mod trace;
pub mod wire;
pub mod workload;
