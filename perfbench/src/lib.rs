//! End-to-end and per-layer benchmark of the overlay-multicast crates.
//!
//! `run.py` builds this package and runs its binary once per workload
//! and seed; see `README.md` for the workloads, the metrics and which
//! layer each per-layer metric should move.

pub mod checks;
pub mod contract;
pub mod metrics;
pub mod trace;
pub mod workloads;
