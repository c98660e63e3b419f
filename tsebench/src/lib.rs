//! End-to-end benchmark of the temporal-streaming simulator's host
//! performance: replay throughput, fig08 sweep wall time (in-process,
//! cold and warm through `sweepd`) and daemon responsiveness, with a
//! traced mode that attributes time to each layer by wrapping calls to
//! the layers' public functions. See `README.md` in this directory.

pub mod bench;
pub mod daemon;
mod probes;
pub mod spans;
pub mod stats;

pub use bench::{bless, run, Metric, Options, Outcome, WORKLOADS};
