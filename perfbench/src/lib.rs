//! The repository benchmark.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload in this process on the single-threaded simulator,
//! checks every LB result, and prints its metrics by name with their
//! units; the last line of standard output is one JSON object. With
//! `--trace 0` it prints the end-to-end metrics, with `--trace 1` the
//! per-layer ones. `perfbench/README.md` describes the workloads and
//! every metric.

pub mod calls;
pub mod checks;
pub mod layers;
pub mod model;
pub mod stats;
pub mod workloads;
