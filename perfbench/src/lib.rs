//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! One command runs one workload against a real `sider_server` process
//! and prints every end-to-end metric by name with its unit; with
//! `--trace 1` the same run also replays the workload in-process with a
//! span around each layer call and prints the per-layer metrics. See
//! `README.md` in this directory for the workloads and metrics.

pub mod net;
pub mod probes;
pub mod replay;
pub mod stats;
pub mod trace;
pub mod workload;
