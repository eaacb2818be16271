//! The reference event loops, kept for differential testing.
//!
//! The production engine ([`crate::simulate`]) is the **delta-rate**
//! engine: it keeps a persistent [`DeltaAllocator`](crate::DeltaAllocator)
//! across events and pays calendar work only for the flows whose rate
//! allocation actually changed. This module retains the two earlier
//! engines it replaced:
//!
//! * [`simulate_scan`] — the seed engine's strategy: a linear rescan of
//!   every scheduled flow on every wakeup, `O(n)` per event;
//! * [`simulate_full_rebuild`] — the PR 3–5 production engine: the indexed
//!   [`CompletionCalendar`](crate::CompletionCalendar) for next-event
//!   lookup, but with the full allocation state (carry-over map, entry
//!   vector, calendar live map) rebuilt on every reschedule, also `O(n)`
//!   per event with a higher constant.
//!
//! All three paths share the exact epoch-based drain accounting, the
//! core admission filter and the same event ordering within an instant,
//! so their outputs must be **bit-identical**: any divergence is an
//! engine bug, not a modelling difference. `tests/calendar_differential.rs`
//! pins full-rebuild against scan, and `tests/delta_differential.rs` pins
//! the delta engine against both, across seeds × disciplines — the same
//! technique PR 1 used to pin the incremental scheduler against the
//! from-scratch one.
//!
//! Per-event costs are measured in the `event_loop` and `delta_reschedule`
//! bench groups of `sched_overhead` and modelled in `PERFMODEL.md`; these
//! paths are for tests and benches — production callers should use
//! [`crate::simulate`] or the [`FabricSim`](crate::FabricSim) builder.

use crate::engine::{run_loop, CalendarLookup, ScanLookup};
use crate::{FabricError, FabricRun, SimConfig, Topology};
use basrpt_core::Scheduler;
use dcn_probe::{NoProbe, Probe};
use dcn_workload::FlowArrival;

/// Runs one simulation with the linear-rescan completion lookup.
///
/// Identical semantics to [`crate::simulate`] — same inputs, same exact
/// accounting, bit-identical outputs — differing only in how the next
/// completion instant is found.
///
/// # Errors
///
/// Returns [`FabricError::BadArrival`] under the same conditions as
/// [`crate::simulate`].
pub fn simulate_scan<T: Topology + ?Sized, S: Scheduler + ?Sized>(
    topo: &T,
    scheduler: &mut S,
    generator: impl IntoIterator<Item = FlowArrival>,
    config: SimConfig,
) -> Result<FabricRun, FabricError> {
    run_loop(topo, scheduler, generator, config, NoProbe, ScanLookup)
}

/// Probe-instrumented variant of [`simulate_scan`], for differential tests
/// that compare full event streams, not just run summaries.
///
/// # Errors
///
/// Returns [`FabricError::BadArrival`] under the same conditions as
/// [`crate::simulate`].
pub fn simulate_scan_probed<T: Topology + ?Sized, S: Scheduler + ?Sized, P: Probe>(
    topo: &T,
    scheduler: &mut S,
    generator: impl IntoIterator<Item = FlowArrival>,
    config: SimConfig,
    probe: P,
) -> Result<FabricRun, FabricError> {
    run_loop(topo, scheduler, generator, config, probe, ScanLookup)
}

/// Runs one simulation with the full-recompute calendar engine: indexed
/// next-completion lookup, but the allocation state is rebuilt from
/// scratch on every reschedule.
///
/// Identical semantics to [`crate::simulate`] — same inputs, same exact
/// accounting, bit-identical outputs — differing only in how much state
/// survives between events.
///
/// # Errors
///
/// Returns [`FabricError::BadArrival`] under the same conditions as
/// [`crate::simulate`].
pub fn simulate_full_rebuild<T: Topology + ?Sized, S: Scheduler + ?Sized>(
    topo: &T,
    scheduler: &mut S,
    generator: impl IntoIterator<Item = FlowArrival>,
    config: SimConfig,
) -> Result<FabricRun, FabricError> {
    let lookup = CalendarLookup::default();
    run_loop(topo, scheduler, generator, config, NoProbe, lookup)
}

/// Probe-instrumented variant of [`simulate_full_rebuild`], for
/// differential tests that compare full event streams.
///
/// # Errors
///
/// Returns [`FabricError::BadArrival`] under the same conditions as
/// [`crate::simulate`].
pub fn simulate_full_rebuild_probed<T: Topology + ?Sized, S: Scheduler + ?Sized, P: Probe>(
    topo: &T,
    scheduler: &mut S,
    generator: impl IntoIterator<Item = FlowArrival>,
    config: SimConfig,
    probe: P,
) -> Result<FabricRun, FabricError> {
    let lookup = CalendarLookup::default();
    run_loop(topo, scheduler, generator, config, probe, lookup)
}

/// Runs one max-min fair-share simulation with the **naive** `O(n²)`
/// reference water-filler and the linear completion rescan — the
/// differential-testing reference for
/// [`simulate_fair_share`](crate::simulate_fair_share), which
/// `tests/fairshare_differential.rs` pins bit-identical across seeds ×
/// topologies × shard counts (see the `fairshare` module docs for the
/// arithmetic contract that makes two genuinely different implementations
/// agree to the last bit).
///
/// # Errors
///
/// Returns [`FabricError::BadArrival`] under the same conditions as
/// [`crate::simulate`].
pub fn simulate_fair_share_naive<T: Topology + ?Sized>(
    topo: &T,
    generator: impl IntoIterator<Item = FlowArrival>,
    config: SimConfig,
) -> Result<FabricRun, FabricError> {
    crate::fairshare::run_fair_share_naive(topo, generator, config, NoProbe)
}

/// Probe-instrumented variant of [`simulate_fair_share_naive`], for
/// differential tests that compare full event streams.
///
/// # Errors
///
/// Returns [`FabricError::BadArrival`] under the same conditions as
/// [`crate::simulate`].
pub fn simulate_fair_share_naive_probed<T: Topology + ?Sized, P: Probe>(
    topo: &T,
    generator: impl IntoIterator<Item = FlowArrival>,
    config: SimConfig,
    probe: P,
) -> Result<FabricRun, FabricError> {
    crate::fairshare::run_fair_share_naive(topo, generator, config, probe)
}
