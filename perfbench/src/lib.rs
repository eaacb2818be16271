//! End-to-end and per-layer benchmark of the BASRPT fabric simulator.
//!
//! The benchmark drives three workloads through the simulator's public
//! API only (`dcn-workload` generators, the `dcn-fabric` engines, the
//! `basrpt-core` `Scheduler` trait and the `dcn-probe` `Probe` trait) and
//! measures each layer from outside, by timing the calls it makes into
//! them. See `README.md` for the workloads and the metrics.

#![forbid(unsafe_code)]

pub mod fingerprint;
pub mod sys;
pub mod trace;
pub mod workloads;
