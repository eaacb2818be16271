//! Max-min fair-share fabric allocation: the "no scheduling" baseline.
//!
//! The disciplines in `basrpt-core` pick a crossbar matching — at most one
//! flow per source and destination NIC transmits, at line rate. The
//! related work (Abbasloo et al., "To schedule or not to schedule";
//! Roberts & Rossi) argues the interesting comparison is against *no*
//! scheduling at all: every active flow transmits simultaneously and the
//! fabric divides capacity **max-min fairly**. This module implements that
//! baseline with the same exact byte accounting as the matching engine, so
//! the fig2/table1 grids can put FairShare next to SRPT/BASRPT.
//!
//! # The water-filling model
//!
//! Capacity constraints come from the [`Topology`]: every source NIC and
//! every destination NIC caps the sum of its flows' rates at the edge
//! rate, and — when core capacity is enforced (oversubscribed fabrics, or
//! [`SimConfig::enforce_core_capacity`]) — every rack's uplink and
//! downlink cap the sum over its inter-rack flows. Progressive filling
//! raises every unfrozen flow's rate uniformly until some constraint
//! saturates, freezes that constraint's flows at the saturation level, and
//! repeats — the classic max-min fair allocation.
//!
//! Two implementations compute it:
//!
//! * [`FairShareAllocator`] — the production allocator: an `O(n + C)`
//!   setup (per-flow constraint lists, per-constraint member lists, every
//!   constraint's level), then per round a compare-only pass over the
//!   cached levels of the open constraints and work only for the flows
//!   the round freezes and the constraints they touch;
//! * [`crate::reference::simulate_fair_share_naive`] — a deliberately
//!   naive reference that rescans **every flow for every constraint on
//!   every round** (`O(n²)` per reschedule) with dumb data structures.
//!
//! Both follow the *same canonical arithmetic contract*, so their outputs
//! are **bit-identical**:
//!
//! * a constraint's fill level is `(residual / unfrozen).max(0.0)` of its
//!   current pair — the same pair gives the same bits whether the level
//!   is recomputed or cached;
//! * the round's level λ is the first smallest level in constraint-index
//!   order (a `<` scan), and the round freezes every unfrozen member of a
//!   constraint whose level has λ's exact bits, judged on the levels
//!   before the round;
//! * each constraint's residual drops by λ once per member frozen in the
//!   round. That subtraction sequence is what is pinned: all of a round's
//!   subtractions are of the same λ, so the order in which the round's
//!   flows are met cannot change a residual.
//!
//! `tests/fairshare_differential.rs` pins the two engines against each
//! other across seeds × topologies × shard counts, the same technique
//! that pins the delta engine against the scan engine.
//!
//! # The event loop
//!
//! [`simulate_fair_share`] mirrors the matching engine's loop — same event
//! ordering within an instant (completions, arrivals, sample,
//! reallocation), same epoch-based drain accounting, same analytic
//! completion instants — but every active flow holds a per-flow *rate*
//! rather than being on/off at line rate. Reallocation happens on every
//! arrival and completion; in the spirit of the [`crate::DeltaAllocator`]
//! delta path, only flows whose rate actually changed re-open their drain
//! epoch and pay a [`CompletionCalendar`] edit — a flow whose fair share
//! is unaffected keeps its epoch, so its completion instant (and every
//! output bit) is invariant to unrelated churn.
//!
//! Between reallocations the loop keeps its active flows in a list
//! ordered by id, inserting arrivals and removing completions in place, so
//! a reallocation neither collects nor sorts the flow table. The previous
//! entries, ordered the same way, are paired with the new rates in one
//! merge pass, with no per-event map.
//!
//! The production loop also settles byte accounts **lazily** (see
//! [`crate::settle`]): per event only the flows actually *due* drain into
//! the table, and an unchanged-rate flow's account is left untouched
//! until a sample instant, the horizon, or its own rate change observes
//! it. Because each account settles through the same exact
//! `drain_target` conversion no matter when it is read, lazy and eager
//! runs are bit-identical — the naive reference stays eager and
//! `tests/fairshare_differential.rs` pins exactly that.

use crate::calendar::CompletionCalendar;
use crate::engine::{validate_arrival, FabricError, FabricRun, FlowMeta, SimConfig};
use crate::topology::Topology;
use basrpt_core::{FlowState, FlowTable};
use dcn_metrics::{FctRecorder, SizeBucketRecorder, ThroughputMeter};
use dcn_probe::{
    ArrivalEvent, BacklogSampler, CompletionEvent, DrainEvent, Fanout, NoProbe, Probe, SampleEvent,
};
use dcn_types::{Bytes, FastMap, FlowId, Rate, SimTime, Voq};
use dcn_workload::FlowArrival;

/// The capacity-constraint system of one topology, shared by the
/// production and reference water-fillers so both see the identical
/// constraint indexing, capacities and membership rule.
///
/// Constraint indices are canonical: `0..H` are source-NIC constraints,
/// `H..2H` destination-NIC constraints, then (only when core capacity is
/// enforced) `2H..2H+R` rack uplinks and `2H+R..2H+2R` rack downlinks.
/// Intra-rack flows are not members of any rack constraint.
#[derive(Debug, Clone)]
pub struct ConstraintSpec {
    num_hosts: usize,
    num_racks: usize,
    rack_of: Vec<u32>,
    edge_cap: f64,
    uplink_cap: f64,
    enforce_core: bool,
}

impl ConstraintSpec {
    /// Builds the constraint system of `topo`. Rack constraints are
    /// included only when `enforce_core` is set (the engine passes
    /// `config.enforce_core_capacity || !topo.is_full_bisection()`, the
    /// same rule as the matching engine's core filter).
    pub fn new<T: Topology + ?Sized>(topo: &T, enforce_core: bool) -> Self {
        let num_hosts = topo.num_hosts() as usize;
        let rack_of = (0..num_hosts as u32)
            .map(|h| topo.rack_of(dcn_types::HostId::new(h)).index())
            .collect();
        ConstraintSpec {
            num_hosts,
            num_racks: topo.num_racks() as usize,
            rack_of,
            edge_cap: topo.edge_rate().bytes_per_sec(),
            uplink_cap: topo.rack_uplink_capacity().bytes_per_sec(),
            enforce_core,
        }
    }

    /// Total number of constraints.
    pub fn len(&self) -> usize {
        2 * self.num_hosts
            + if self.enforce_core {
                2 * self.num_racks
            } else {
                0
            }
    }

    /// Whether the system has no constraints (an empty topology cannot be
    /// built, so this is always false in practice).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Capacity of constraint `c`, in bytes/second.
    pub fn cap(&self, c: usize) -> f64 {
        if c < 2 * self.num_hosts {
            self.edge_cap
        } else {
            self.uplink_cap
        }
    }

    /// Writes the constraints `voq` is a member of into `out` in canonical
    /// order (source NIC, destination NIC, rack uplink, rack downlink) and
    /// returns how many there are (2 for intra-rack or unenforced-core
    /// flows, 4 otherwise).
    pub fn constraints_of(&self, voq: Voq, out: &mut [u32; 4]) -> usize {
        let (src, dst) = (voq.src().as_usize(), voq.dst().as_usize());
        out[0] = src as u32;
        out[1] = (self.num_hosts + dst) as u32;
        let (sr, dr) = (self.rack_of[src], self.rack_of[dst]);
        if !self.enforce_core || sr == dr {
            return 2;
        }
        out[2] = (2 * self.num_hosts) as u32 + sr;
        out[3] = (2 * self.num_hosts + self.num_racks) as u32 + dr;
        4
    }
}

/// The production progressive water-filler.
///
/// Reusable across reallocations: internal vectors are cleared, not
/// reallocated. One reallocation of `n` flows over `C` constraints costs
/// an `O(n + C)` setup — per-flow constraint lists, per-constraint member
/// lists and every constraint's fill level, each computed once — and then
/// per filling round only the work the round changes:
///
/// * λ and the tight constraints come from one compare-only pass over the
///   cached levels of the constraints that still have unfrozen members;
/// * the round's flows are found by walking the tight constraints' member
///   lists (each constraint is tight at most once, so all rounds together
///   walk every list once);
/// * only the constraints those flows belong to get a new level.
///
/// A constraint no frozen flow touches keeps its `(residual, unfrozen)`
/// pair, so its cached level already has the bits the naive reference
/// recomputes for it; see the module docs for the arithmetic contract.
///
/// # Example
///
/// ```
/// use dcn_fabric::{ConstraintSpec, FairShareAllocator, FatTree};
/// use dcn_types::{FlowId, HostId, Voq};
///
/// let topo = FatTree::scaled(2, 4, 1)?;
/// let mut alloc = FairShareAllocator::new(ConstraintSpec::new(&topo, false));
/// // Two flows out of host 0: the 10 Gbps NIC is split fairly.
/// let flows = vec![
///     (FlowId::new(0), Voq::new(HostId::new(0), HostId::new(1))),
///     (FlowId::new(1), Voq::new(HostId::new(0), HostId::new(2))),
/// ];
/// let mut rates = Vec::new();
/// alloc.allocate(&flows, &mut rates);
/// assert_eq!(rates[0], topo.edge_rate().bytes_per_sec() / 2.0);
/// assert_eq!(rates[0], rates[1]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct FairShareAllocator {
    spec: ConstraintSpec,
    /// Per constraint: remaining capacity, unfrozen member count and the
    /// cached fill level `(residual / unfrozen).max(0.0)`, valid while
    /// `unfrozen > 0`.
    residual: Vec<f64>,
    unfrozen: Vec<u32>,
    level: Vec<f64>,
    /// Per flow: its constraints in canonical order, and whether it froze.
    cons: Vec<[u32; 4]>,
    cons_len: Vec<u8>,
    frozen: Vec<bool>,
    /// Member lists, flattened: constraint `c`'s flows are
    /// `members[head[c]..head[c + 1]]`, in ascending flow order.
    head: Vec<u32>,
    members: Vec<u32>,
    /// Constraints with unfrozen members, in ascending index order.
    open: Vec<u32>,
    /// Round scratch: the tight constraints, and the constraints whose
    /// level the round changed (each once, deduplicated by `dirty`).
    tight: Vec<u32>,
    touched: Vec<u32>,
    dirty: Vec<bool>,
}

impl FairShareAllocator {
    /// Creates an allocator for the given constraint system.
    pub fn new(spec: ConstraintSpec) -> Self {
        let c = spec.len();
        FairShareAllocator {
            spec,
            residual: Vec::with_capacity(c),
            unfrozen: Vec::with_capacity(c),
            level: Vec::with_capacity(c),
            cons: Vec::new(),
            cons_len: Vec::new(),
            frozen: Vec::new(),
            head: Vec::with_capacity(c + 1),
            members: Vec::new(),
            open: Vec::with_capacity(c),
            tight: Vec::new(),
            touched: Vec::new(),
            dirty: vec![false; c],
        }
    }

    /// The constraint system this allocator fills.
    pub fn spec(&self) -> &ConstraintSpec {
        &self.spec
    }

    /// Computes the max-min fair rate (bytes/second) of every flow.
    ///
    /// `flows` must be sorted by ascending [`FlowId`] (the engine keeps
    /// its active-flow list in that order). `rates` is cleared and filled
    /// so `rates[i]` is the rate of `flows[i]`.
    pub fn allocate(&mut self, flows: &[(FlowId, Voq)], rates: &mut Vec<f64>) {
        debug_assert!(
            flows.windows(2).all(|w| w[0].0 < w[1].0),
            "flows must be sorted by ascending id"
        );
        let c = self.spec.len();
        rates.clear();
        rates.resize(flows.len(), 0.0);
        self.residual.clear();
        self.residual.extend((0..c).map(|i| self.spec.cap(i)));
        self.unfrozen.clear();
        self.unfrozen.resize(c, 0);
        self.cons.clear();
        self.cons_len.clear();
        for &(_, voq) in flows {
            let mut buf = [0u32; 4];
            let n = self.spec.constraints_of(voq, &mut buf);
            for &cc in &buf[..n] {
                self.unfrozen[cc as usize] += 1;
            }
            self.cons.push(buf);
            self.cons_len.push(n as u8);
        }
        self.frozen.clear();
        self.frozen.resize(flows.len(), false);

        // Member lists: `head[c]` starts at the end of `c`'s range and
        // counts down as the flows are placed, in reverse, so each list
        // comes out ascending and `head[c]` ends at its start.
        self.head.clear();
        let mut end = 0u32;
        self.head.extend(self.unfrozen.iter().map(|&count| {
            end += count;
            end
        }));
        self.head.push(end);
        self.members.clear();
        self.members.resize(end as usize, 0);
        for f in (0..flows.len()).rev() {
            for &cc in &self.cons[f][..self.cons_len[f] as usize] {
                let slot = &mut self.head[cc as usize];
                *slot -= 1;
                self.members[*slot as usize] = f as u32;
            }
        }

        self.level.clear();
        self.level.resize(c, 0.0);
        self.open.clear();
        for i in 0..c {
            if self.unfrozen[i] > 0 {
                self.level[i] = (self.residual[i] / self.unfrozen[i] as f64).max(0.0);
                self.open.push(i as u32);
            }
        }

        loop {
            // The round's fill level: the first smallest cached level in
            // index order, as a `<` scan finds it; the tight constraints
            // are those whose level has λ's exact bits. Constraints that
            // ran out of unfrozen members leave the open list here.
            let mut lambda = f64::INFINITY;
            let (unfrozen, level, tight) = (&self.unfrozen, &self.level, &mut self.tight);
            tight.clear();
            self.open.retain(|&cc| {
                let ci = cc as usize;
                if unfrozen[ci] == 0 {
                    return false;
                }
                if level[ci] < lambda {
                    lambda = level[ci];
                    tight.clear();
                    tight.push(cc);
                } else if level[ci].to_bits() == lambda.to_bits() {
                    tight.push(cc);
                }
                true
            });
            if self.open.is_empty() {
                break;
            }
            debug_assert!(lambda.is_finite(), "open constraints have finite levels");

            // Freeze every unfrozen member of a tight constraint, marking
            // against the pre-round levels. Each constraint's residual
            // drops by λ once per member frozen: the same subtraction
            // sequence whatever order the members are met in.
            self.touched.clear();
            for &t in &self.tight {
                let t = t as usize;
                let (lo, hi) = (self.head[t] as usize, self.head[t + 1] as usize);
                for &f in &self.members[lo..hi] {
                    let fi = f as usize;
                    if self.frozen[fi] {
                        continue;
                    }
                    self.frozen[fi] = true;
                    rates[fi] = lambda;
                    for &cc in &self.cons[fi][..self.cons_len[fi] as usize] {
                        let ci = cc as usize;
                        self.residual[ci] -= lambda;
                        self.unfrozen[ci] -= 1;
                        if !self.dirty[ci] {
                            self.dirty[ci] = true;
                            self.touched.push(cc);
                        }
                    }
                }
            }
            debug_assert!(!self.touched.is_empty(), "each round freezes a flow");

            // Only the touched constraints' `(residual, unfrozen)` pairs
            // moved; every other cached level is still exact.
            for &cc in &self.touched {
                let ci = cc as usize;
                self.dirty[ci] = false;
                if self.unfrozen[ci] > 0 {
                    self.level[ci] = (self.residual[ci] / self.unfrozen[ci] as f64).max(0.0);
                }
            }
        }
    }
}

/// The naive reference water-filler: every round recounts every
/// constraint's unfrozen membership by scanning **all** flows — `O(n · C)`
/// per round, `O(n² · C)` worst case per reallocation — with no retained
/// state beyond the canonical residuals. Kept as the differential-testing
/// reference for [`FairShareAllocator`] (see the module docs).
pub(crate) fn waterfill_naive(
    spec: &ConstraintSpec,
    flows: &[(FlowId, Voq)],
    rates: &mut Vec<f64>,
) {
    let c = spec.len();
    rates.clear();
    rates.resize(flows.len(), 0.0);
    let mut residual: Vec<f64> = (0..c).map(|i| spec.cap(i)).collect();
    let mut frozen = vec![false; flows.len()];
    let member = |voq: Voq, target: usize| {
        let mut buf = [0u32; 4];
        let n = spec.constraints_of(voq, &mut buf);
        buf[..n].contains(&(target as u32))
    };
    loop {
        // Recount and re-level every constraint from scratch.
        let mut lambda = f64::INFINITY;
        let mut level_of = vec![None; c];
        for (ci, level_slot) in level_of.iter_mut().enumerate() {
            let count = flows
                .iter()
                .enumerate()
                .filter(|&(fi, &(_, voq))| !frozen[fi] && member(voq, ci))
                .count();
            if count > 0 {
                let level = (residual[ci] / count as f64).max(0.0);
                *level_slot = Some(level);
                if level < lambda {
                    lambda = level;
                }
            }
        }
        if !lambda.is_finite() {
            break;
        }
        // Two passes — mark against pre-round levels, then apply in
        // ascending flow order (the canonical subtraction sequence).
        let marked: Vec<usize> = flows
            .iter()
            .enumerate()
            .filter(|&(fi, &(_, voq))| {
                !frozen[fi] && {
                    let mut buf = [0u32; 4];
                    let n = spec.constraints_of(voq, &mut buf);
                    buf[..n].iter().any(|&cc| {
                        level_of[cc as usize]
                            .is_some_and(|level| level.to_bits() == lambda.to_bits())
                    })
                }
            })
            .map(|(fi, _)| fi)
            .collect();
        for fi in marked {
            rates[fi] = lambda;
            frozen[fi] = true;
            let mut buf = [0u32; 4];
            let n = spec.constraints_of(flows[fi].1, &mut buf);
            for &cc in &buf[..n] {
                residual[cc as usize] -= lambda;
            }
        }
    }
}

/// Drain-accounting state of one transmitting flow, at its allocated
/// fair-share rate — the per-rate analogue of the matching engine's
/// `ScheduledEntry`, with the same epoch anchoring: cumulative bytes are
/// derived once from `t - epoch`, and the completion instant is the
/// analytic `epoch + remaining / rate`.
#[derive(Debug, Clone, Copy)]
struct FairEntry {
    flow: FlowId,
    voq: Voq,
    rate: Rate,
    epoch: SimTime,
    epoch_remaining: u64,
    settled: u64,
    completes_at: SimTime,
}

impl FairEntry {
    fn new(flow: FlowId, voq: Voq, now: SimTime, remaining: u64, rate: Rate) -> Self {
        FairEntry {
            flow,
            voq,
            rate,
            epoch: now,
            epoch_remaining: remaining,
            settled: 0,
            completes_at: crate::settle::completion_instant(now, remaining, rate),
        }
    }

    fn target_at(&self, t: SimTime) -> u64 {
        crate::settle::drain_target(
            self.epoch,
            self.completes_at,
            self.epoch_remaining,
            self.rate,
            t,
        )
    }
}

/// How the fair-share loop finds the earliest completion: the production
/// path keeps a [`CompletionCalendar`] edited per changed flow (the
/// delta-style integration); the reference path rescans the entries.
/// Both read the same `completes_at` instants, so the choice cannot
/// change a bit of output.
trait FairLookup {
    fn update(&mut self, flow: FlowId, at: SimTime);
    fn remove(&mut self, flow: FlowId);
    fn next_completion(&mut self, entries: &[FairEntry]) -> SimTime;
}

#[derive(Debug, Default)]
struct CalendarFairLookup(CompletionCalendar);

impl FairLookup for CalendarFairLookup {
    fn update(&mut self, flow: FlowId, at: SimTime) {
        self.0.update(flow, at);
    }
    fn remove(&mut self, flow: FlowId) {
        self.0.remove(flow);
    }
    fn next_completion(&mut self, _entries: &[FairEntry]) -> SimTime {
        self.0.next_completion()
    }
}

#[derive(Debug, Default)]
struct ScanFairLookup;

impl FairLookup for ScanFairLookup {
    fn update(&mut self, _flow: FlowId, _at: SimTime) {}
    fn remove(&mut self, _flow: FlowId) {}
    fn next_completion(&mut self, entries: &[FairEntry]) -> SimTime {
        entries
            .iter()
            .map(|e| e.completes_at)
            .min()
            .unwrap_or(SimTime::INFINITY)
    }
}

/// Runs one max-min fair-share simulation with the production
/// [`FairShareAllocator`] (see the module docs for the model).
///
/// Accepts the same inputs as [`crate::simulate`] minus the scheduler —
/// fair sharing *is* the discipline — and produces the same [`FabricRun`]
/// measurements with the same exact accounting, so runs are directly
/// comparable. Also reachable through the builder:
/// [`FabricSim::fair_share`](crate::FabricSim::fair_share).
///
/// # Errors
///
/// Returns [`FabricError::BadArrival`] under the same conditions as
/// [`crate::simulate`].
///
/// # Example
///
/// ```
/// use dcn_fabric::{simulate_fair_share, FatTree, SimConfig};
/// use dcn_types::SimTime;
/// use dcn_workload::TrafficSpec;
///
/// let topo = FatTree::scaled(2, 4, 1)?;
/// let spec = TrafficSpec::scaled(2, 4, 0.5)?;
/// let run = simulate_fair_share(
///     &topo,
///     spec.generator(7)?,
///     SimConfig::builder().horizon(SimTime::from_secs(0.05)).build(),
/// )?;
/// assert_eq!(run.arrived_bytes, run.throughput.delivered() + run.leftover_bytes);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn simulate_fair_share<T: Topology + ?Sized>(
    topo: &T,
    generator: impl IntoIterator<Item = FlowArrival>,
    config: SimConfig,
) -> Result<FabricRun, FabricError> {
    simulate_fair_share_probed(topo, generator, config, NoProbe)
}

/// Probe-instrumented variant of [`simulate_fair_share`].
///
/// The fair-share loop emits arrival, drain, completion and sample events;
/// it has no crossbar schedule, so no decision events are emitted.
///
/// # Errors
///
/// Returns [`FabricError::BadArrival`] under the same conditions as
/// [`crate::simulate`].
pub fn simulate_fair_share_probed<T: Topology + ?Sized, P: Probe>(
    topo: &T,
    generator: impl IntoIterator<Item = FlowArrival>,
    config: SimConfig,
    probe: P,
) -> Result<FabricRun, FabricError> {
    let enforce_core = config.enforce_core_capacity || !topo.is_full_bisection();
    let mut alloc = FairShareAllocator::new(ConstraintSpec::new(topo, enforce_core));
    run_fair_loop(
        topo,
        generator,
        config,
        probe,
        CalendarFairLookup::default(),
        |flows, rates| alloc.allocate(flows, rates),
        true,
    )
}

/// The naive-reference fair-share loop (see [`crate::reference`]): the
/// `O(n²)` water-filler plus the linear completion rescan. Bit-identical
/// to [`simulate_fair_share`] by the arithmetic contract.
pub(crate) fn run_fair_share_naive<T: Topology + ?Sized, P: Probe>(
    topo: &T,
    generator: impl IntoIterator<Item = FlowArrival>,
    config: SimConfig,
    probe: P,
) -> Result<FabricRun, FabricError> {
    let enforce_core = config.enforce_core_capacity || !topo.is_full_bisection();
    let spec = ConstraintSpec::new(topo, enforce_core);
    run_fair_loop(
        topo,
        generator,
        config,
        probe,
        ScanFairLookup,
        |flows, rates| waterfill_naive(&spec, flows, rates),
        false,
    )
}

/// The fair-share event loop, generic over the allocator implementation
/// and the completion-lookup strategy — the two axes the differential
/// suite varies. Mirrors the matching engine's event ordering within an
/// instant: completions settle first, then arrivals, then the sample,
/// then the reallocation.
///
/// `lazy_capable` opts the loop into lazy exact settlement (see
/// [`crate::settle`]): the production calendar path passes `true`, the
/// naive reference `false` so it stays the eagerly settled yardstick.
/// The mode is still forced eager when the probe wants per-flow drain
/// fidelity or `BASRPT_SETTLE=eager` is set, and lazy/eager runs are
/// bit-identical either way — only *when* accounts settle moves.
#[allow(clippy::too_many_arguments)]
fn run_fair_loop<T, P, L, A>(
    topo: &T,
    generator: impl IntoIterator<Item = FlowArrival>,
    config: SimConfig,
    probe: P,
    mut lookup: L,
    mut allocate: A,
    lazy_capable: bool,
) -> Result<FabricRun, FabricError>
where
    T: Topology + ?Sized,
    P: Probe,
    L: FairLookup,
    A: FnMut(&[(FlowId, Voq)], &mut Vec<f64>),
{
    let mode = crate::settle::SettleMode::choose(probe.wants_flow_fidelity(), lazy_capable);
    let mut generator = generator.into_iter();

    let mut table = FlowTable::new();
    let mut meta: FastMap<FlowId, FlowMeta> = FastMap::default();
    // Every active flow in ascending id order, kept so as flows arrive
    // and complete: the allocator's input.
    let mut active: Vec<(FlowId, Voq)> = Vec::new();
    // Transmitting flows in ascending id order, with per-entry rates, and
    // the previous reallocation's entries while the next one is bound.
    let mut entries: Vec<FairEntry> = Vec::new();
    let mut prev: Vec<FairEntry> = Vec::new();
    let mut rates: Vec<f64> = Vec::new();

    let mut fct = FctRecorder::new();
    let mut fct_by_size = SizeBucketRecorder::pfabric_buckets();
    let mut throughput = ThroughputMeter::new();
    let mut sampler = BacklogSampler::new(config.monitored_port);
    let mut fan = Fanout::new(&mut sampler, probe);
    let mut arrivals_count = 0usize;
    let mut completions_count = 0usize;
    let mut arrived_bytes = Bytes::ZERO;
    let mut reschedules = 0u64;

    let mut clock = SimTime::ZERO;
    let mut next_sample = SimTime::ZERO;
    let mut next_arrival = generator.next();
    let mut last_arrival_time = SimTime::ZERO;

    loop {
        let t_arrival = next_arrival.as_ref().map_or(SimTime::INFINITY, |a| a.time);
        let t_completion = lookup.next_completion(&entries);
        let t = t_arrival
            .min(t_completion)
            .min(next_sample)
            .min(config.horizon);

        // --- advance: settle transmitting flows' accounts at t ---
        // Eager mode settles every account at every event; lazy mode
        // settles only the flows *due* at t (one linear scan of cheap
        // compares, no table or meter work for the rest), deferring the
        // others until a sample instant, the horizon, or their own rate
        // change observes them.
        let observe_all = !mode.is_lazy() || next_sample <= t || t >= config.horizon;
        let elapsed = t - clock;
        let mut completed_any = false;
        if elapsed > SimTime::ZERO {
            let mut i = 0;
            while i < entries.len() {
                let entry = &mut entries[i];
                if !observe_all && t < entry.completes_at {
                    i += 1;
                    continue;
                }
                let target = entry.target_at(t);
                let amount = target - entry.settled;
                if amount == 0 {
                    i += 1;
                    continue;
                }
                entry.settled = target;
                let (id, voq) = (entry.flow, entry.voq);
                let outcome = table.drain(id, amount).expect("allocated flow is active");
                debug_assert_eq!(outcome.drained, amount, "exact drain cannot be short");
                throughput.deliver(Bytes::new(outcome.drained));
                fan.on_drain(&DrainEvent {
                    time: t.as_secs(),
                    flow: id,
                    voq,
                    amount: outcome.drained,
                });
                if outcome.completed.is_some() {
                    let info = meta.remove(&id).expect("active flow has metadata");
                    let flow_fct = t - info.arrival + config.base_latency;
                    fct.record(info.class, info.size, flow_fct);
                    fct_by_size.record(info.size, flow_fct);
                    fan.on_completion(&CompletionEvent {
                        time: t.as_secs(),
                        flow: id,
                        voq,
                        size: info.size.as_u64(),
                        fct: flow_fct.as_secs(),
                    });
                    completions_count += 1;
                    completed_any = true;
                    lookup.remove(id);
                    entries.remove(i);
                    let at = active
                        .binary_search_by_key(&id, |&(f, _)| f)
                        .expect("completed flow is active");
                    active.remove(at);
                } else {
                    i += 1;
                }
            }
        }
        clock = t;

        if clock >= config.horizon {
            break;
        }

        // --- arrivals landing at (or before) the current instant ---
        let mut arrived_any = false;
        while let Some(arrival) = next_arrival.as_ref() {
            if arrival.time > clock {
                break;
            }
            let arrival = *next_arrival.as_ref().expect("checked above");
            validate_arrival(topo, &arrival, last_arrival_time)?;
            last_arrival_time = arrival.time;
            table
                .insert(FlowState::new(
                    arrival.id,
                    arrival.voq,
                    arrival.size.as_u64(),
                ))
                .map_err(|e| FabricError::BadArrival(e.to_string()))?;
            // Ids mostly arrive ascending, so this is usually a push.
            let at = active.partition_point(|&(f, _)| f < arrival.id);
            active.insert(at, (arrival.id, arrival.voq));
            meta.insert(
                arrival.id,
                FlowMeta {
                    class: arrival.class,
                    size: arrival.size,
                    arrival: arrival.time,
                },
            );
            arrivals_count += 1;
            arrived_bytes += arrival.size;
            arrived_any = true;
            fan.on_arrival(&ArrivalEvent {
                time: arrival.time.as_secs(),
                flow: arrival.id,
                voq: arrival.voq,
                size: arrival.size.as_u64(),
            });
            next_arrival = generator.next();
        }

        // --- sampling (after same-instant arrivals) ---
        if next_sample <= clock {
            fan.on_sample(&SampleEvent {
                time: clock.as_secs(),
                table: &table,
                delivered: throughput.delivered().as_f64(),
            });
            next_sample += config.sample_every;
        }

        // --- reallocate on arrival or completion ---
        if arrived_any || completed_any {
            debug_assert_eq!(active.len(), table.len(), "active list tracks the table");
            allocate(&active, &mut rates);
            // Both `active` and the old entries ascend by id, and every
            // old entry is still active: one merge pass pairs them.
            std::mem::swap(&mut entries, &mut prev);
            let mut carried = prev.drain(..).peekable();
            for (i, &(id, voq)) in active.iter().enumerate() {
                let rate = Rate::from_bytes_per_sec(rates[i]);
                match carried.next_if(|e| e.flow == id) {
                    // An unchanged rate keeps its drain epoch: the
                    // completion instant is bit-invariant to unrelated
                    // churn, and the calendar is not touched.
                    Some(old)
                        if old.rate.bytes_per_sec().to_bits() == rate.bytes_per_sec().to_bits() =>
                    {
                        entries.push(old);
                    }
                    had_entry => {
                        if let Some(old) = had_entry {
                            // A rate change (or starvation) re-opens the
                            // epoch over the *current* remaining bytes, so
                            // any unsettled residue must drain first — in
                            // eager mode the advance phase already settled
                            // it and this owes nothing.
                            let target = old.target_at(clock);
                            let amount = target - old.settled;
                            if amount > 0 {
                                debug_assert!(
                                    target < old.epoch_remaining,
                                    "due completions settle in the advance phase"
                                );
                                let outcome =
                                    table.drain(id, amount).expect("allocated flow is active");
                                debug_assert_eq!(outcome.drained, amount);
                                throughput.deliver(Bytes::new(outcome.drained));
                                fan.on_drain(&DrainEvent {
                                    time: clock.as_secs(),
                                    flow: id,
                                    voq,
                                    amount: outcome.drained,
                                });
                            }
                            if rate.is_zero() {
                                lookup.remove(id);
                            }
                        }
                        if !rate.is_zero() {
                            // A zero rate is pathological rounding: the
                            // flow starves for one epoch and re-enters at
                            // the next event.
                            let remaining =
                                table.get(id).expect("allocated flow is active").remaining();
                            let entry = FairEntry::new(id, voq, clock, remaining, rate);
                            lookup.update(id, entry.completes_at);
                            entries.push(entry);
                        }
                    }
                }
            }
            debug_assert!(
                carried.next().is_none(),
                "every active flow was reallocated"
            );
            reschedules += 1;
        }
    }
    drop(fan);
    let series = sampler.into_series();

    Ok(FabricRun {
        fct,
        fct_by_size,
        throughput,
        total_backlog: series.total_backlog,
        monitored_port_backlog: series.monitored_port_backlog,
        max_port_backlog: series.max_port_backlog,
        cumulative_delivered: series.cumulative_delivered,
        arrivals: arrivals_count,
        completions: completions_count,
        arrived_bytes,
        leftover_bytes: Bytes::new(table.total_backlog()),
        leftover_flows: table.len(),
        reschedules,
        horizon: config.horizon,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FatTree, KAryFatTree};
    use dcn_types::{FlowClass, HostId};

    fn arrival(id: u64, t: f64, src: u32, dst: u32, size: u64) -> FlowArrival {
        FlowArrival {
            id: FlowId::new(id),
            time: SimTime::from_secs(t),
            voq: Voq::new(HostId::new(src), HostId::new(dst)),
            size: Bytes::new(size),
            class: FlowClass::Background,
        }
    }

    fn config(horizon_secs: f64) -> SimConfig {
        SimConfig::builder()
            .horizon(SimTime::from_secs(horizon_secs))
            .build()
    }

    #[test]
    fn solo_flow_gets_line_rate_and_exact_fct() {
        let topo = FatTree::scaled(2, 4, 1).unwrap();
        let run = simulate_fair_share(&topo, vec![arrival(0, 0.0, 0, 1, 1_250_000)], config(0.01))
            .unwrap();
        assert_eq!(run.completions, 1);
        let want = topo
            .edge_rate()
            .transfer_time(Bytes::new(1_250_000))
            .as_secs();
        let got = run.fct.summary(FlowClass::Background).unwrap().mean_secs;
        assert_eq!(got.to_bits(), want.to_bits(), "solo flow runs at line rate");
    }

    #[test]
    fn contending_flows_split_the_nic_fairly() {
        // Two equal flows out of host 0: each gets 5 Gbps, both finish at
        // exactly twice the solo time — where SRPT would serialize them.
        let topo = FatTree::scaled(2, 4, 1).unwrap();
        let run = simulate_fair_share(
            &topo,
            vec![
                arrival(0, 0.0, 0, 1, 1_250_000),
                arrival(1, 0.0, 0, 2, 1_250_000),
            ],
            config(0.01),
        )
        .unwrap();
        assert_eq!(run.completions, 2);
        let s = run.fct.summary(FlowClass::Background).unwrap();
        let solo = topo
            .edge_rate()
            .transfer_time(Bytes::new(1_250_000))
            .as_secs();
        assert!((s.max_secs - 2.0 * solo).abs() < 1e-9, "max {}", s.max_secs);
        assert!((s.mean_secs - 2.0 * solo).abs() < 1e-9);
    }

    #[test]
    fn released_capacity_is_refilled() {
        // A short and a long flow share a NIC; once the short one ends the
        // long one speeds back up to line rate: total time is the
        // work-conserving 1 ms + 2 ms... as fair share: both at 5 Gbps,
        // short (625 KB) done at 1 ms; long (2.5 MB) then finishes its
        // remaining 1.875 MB at 10 Gbps by 2.5 ms.
        let topo = FatTree::scaled(2, 4, 1).unwrap();
        let run = simulate_fair_share(
            &topo,
            vec![
                arrival(0, 0.0, 0, 1, 2_500_000),
                arrival(1, 0.0, 0, 2, 625_000),
            ],
            config(0.02),
        )
        .unwrap();
        assert_eq!(run.completions, 2);
        let s = run.fct.summary(FlowClass::Background).unwrap();
        assert!((s.max_secs - 0.0025).abs() < 1e-9, "max {}", s.max_secs);
        assert_eq!(
            run.throughput.delivered(),
            Bytes::new(3_125_000),
            "all bytes delivered"
        );
    }

    #[test]
    fn bytes_are_conserved_mid_flight() {
        let topo = FatTree::scaled(2, 4, 1).unwrap();
        let run = simulate_fair_share(
            &topo,
            vec![
                arrival(0, 0.0, 0, 1, 50_000_000),
                arrival(1, 0.001, 2, 3, 1_000),
                arrival(2, 0.002, 1, 0, 7_777),
            ],
            config(0.01),
        )
        .unwrap();
        assert_eq!(
            run.arrived_bytes,
            run.throughput.delivered() + run.leftover_bytes
        );
        assert_eq!(run.completions + run.leftover_flows, run.arrivals);
    }

    #[test]
    fn oversubscribed_uplink_is_shared() {
        // 8 hosts/rack, one 40 Gbps core: the uplink is the bottleneck for
        // 8 inter-rack flows — each gets 5 Gbps, where the matching engine
        // would serialize them in two batches of four.
        let topo = FatTree::scaled(2, 8, 1).unwrap();
        assert!(!topo.is_full_bisection());
        let flows: Vec<FlowArrival> = (0..8)
            .map(|i| arrival(i, 0.0, i as u32, 8 + i as u32, 1_250_000))
            .collect();
        let run = simulate_fair_share(&topo, flows, config(0.05)).unwrap();
        assert_eq!(run.completions, 8);
        let s = run.fct.summary(FlowClass::Background).unwrap();
        // 1.25 MB at 5 Gbps = 2 ms, all identical.
        assert!((s.max_secs - 0.002).abs() < 1e-9, "max {}", s.max_secs);
        assert!((s.mean_secs - 0.002).abs() < 1e-9);
    }

    #[test]
    fn allocator_matches_naive_reference_bitwise() {
        let topo = KAryFatTree::builder(4)
            .hosts_per_edge(4)
            .oversubscription(4.0)
            .build()
            .unwrap();
        let mut alloc = FairShareAllocator::new(ConstraintSpec::new(&topo, true));
        // A messy mix: shared sources, shared destinations, intra- and
        // inter-rack flows.
        let flows: Vec<(FlowId, Voq)> = [
            (0u64, 0u32, 1u32),
            (1, 0, 9),
            (2, 0, 17),
            (3, 1, 9),
            (4, 2, 9),
            (5, 8, 9),
            (6, 16, 9),
            (7, 16, 24),
            (8, 17, 25),
            (9, 3, 2),
        ]
        .iter()
        .map(|&(id, s, d)| (FlowId::new(id), Voq::new(HostId::new(s), HostId::new(d))))
        .collect();
        assert_allocations_agree(&mut alloc, &flows, "messy mix");
    }

    /// Asserts `allocate` and `waterfill_naive` agree to the bit on
    /// `flows` and that the allocation is feasible.
    fn assert_allocations_agree(
        alloc: &mut FairShareAllocator,
        flows: &[(FlowId, Voq)],
        label: &str,
    ) {
        let spec = alloc.spec().clone();
        let (mut fast, mut naive) = (Vec::new(), Vec::new());
        alloc.allocate(flows, &mut fast);
        waterfill_naive(&spec, flows, &mut naive);
        assert_eq!(fast.len(), flows.len(), "{label}");
        for (i, (a, b)) in fast.iter().zip(&naive).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{label}: flow {i}: {a} vs {b}");
        }
        let mut used = vec![0.0; spec.len()];
        for (&rate, &(_, voq)) in fast.iter().zip(flows) {
            assert!(rate >= 0.0 && rate.is_finite(), "{label}: rate {rate}");
            let mut buf = [0u32; 4];
            let n = spec.constraints_of(voq, &mut buf);
            for &c in &buf[..n] {
                used[c as usize] += rate;
            }
        }
        for (c, &u) in used.iter().enumerate() {
            assert!(
                u <= spec.cap(c) * (1.0 + 1e-9),
                "{label}: constraint {c} oversubscribed: {u} > {}",
                spec.cap(c)
            );
        }
    }

    #[test]
    fn allocator_matches_naive_on_random_constraint_systems() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let k4 = KAryFatTree::builder(4)
            .hosts_per_edge(4)
            .oversubscription(2.0)
            .build()
            .unwrap();
        let paper = FatTree::scaled(2, 4, 1).unwrap();
        let topos: [(&str, &dyn Topology); 2] = [("k4-2:1", &k4), ("fat-tree-8", &paper)];
        for (name, topo) in topos {
            let hosts = topo.num_hosts();
            let per_rack = topo.hosts_per_rack();
            for enforce_core in [false, true] {
                // One allocator per system, reused across cases as the
                // engine reuses it across events.
                let mut alloc = FairShareAllocator::new(ConstraintSpec::new(topo, enforce_core));
                let mut rng = StdRng::seed_from_u64(0x5eed ^ hosts as u64 ^ enforce_core as u64);
                for case in 0..60 {
                    let n = match case % 6 {
                        0 => 1,
                        1 => 512,
                        _ => rng.gen_range(1..=128usize),
                    };
                    // Shapes: anywhere-to-anywhere; two hot NICs with
                    // equal fan-out, so their levels tie in one round;
                    // all traffic between two racks.
                    let shape = case % 3;
                    let mut id = 0u64;
                    let flows: Vec<(FlowId, Voq)> = (0..n)
                        .map(|i| {
                            id += rng.gen_range(1..5u64);
                            let (src, dst) = match shape {
                                0 => {
                                    let src = rng.gen_range(0..hosts);
                                    (src, (src + rng.gen_range(1..hosts)) % hosts)
                                }
                                1 => {
                                    let src = (i % 2) as u32;
                                    (src, 2 + rng.gen_range(0..hosts - 2))
                                }
                                _ => (
                                    rng.gen_range(0..per_rack),
                                    per_rack + rng.gen_range(0..per_rack),
                                ),
                            };
                            (
                                FlowId::new(id),
                                Voq::new(HostId::new(src), HostId::new(dst)),
                            )
                        })
                        .collect();
                    let label = format!("{name}/core={enforce_core}/case {case} ({n} flows)");
                    assert_allocations_agree(&mut alloc, &flows, &label);
                }
            }
        }
    }

    #[test]
    fn engine_matches_naive_engine_bitwise() {
        let topo = FatTree::scaled(3, 4, 1).unwrap();
        let arrivals = vec![
            arrival(0, 0.0, 0, 4, 300_000),
            arrival(1, 0.0001, 0, 5, 40_000),
            arrival(2, 0.0002, 4, 8, 1_000_000),
            arrival(3, 0.0003, 8, 0, 7_777),
            arrival(4, 0.0004, 1, 0, 250_000),
        ];
        let cfg = config(0.01);
        let fast = simulate_fair_share(&topo, arrivals.clone(), cfg).unwrap();
        let naive = run_fair_share_naive(&topo, arrivals, cfg, NoProbe).unwrap();
        assert_eq!(fast.completions, naive.completions);
        assert_eq!(fast.arrived_bytes, naive.arrived_bytes);
        assert_eq!(fast.leftover_bytes, naive.leftover_bytes);
        assert_eq!(fast.total_backlog, naive.total_backlog);
        assert_eq!(fast.cumulative_delivered, naive.cumulative_delivered);
        let (a, b) = (
            fast.fct.summary(FlowClass::Background).unwrap(),
            naive.fct.summary(FlowClass::Background).unwrap(),
        );
        assert_eq!(a.mean_secs.to_bits(), b.mean_secs.to_bits());
        assert_eq!(a.max_secs.to_bits(), b.max_secs.to_bits());
    }

    #[test]
    fn lazy_and_eager_fair_loops_agree_bitwise() {
        // A probe with the default `wants_flow_fidelity` forces eager
        // settlement; `NoProbe` leaves the production loop lazy. Both
        // must produce bit-identical runs.
        struct EagerProbe;
        impl Probe for EagerProbe {}

        let topo = FatTree::scaled(3, 4, 1).unwrap();
        let arrivals = vec![
            arrival(0, 0.0, 0, 4, 2_000_000),
            arrival(1, 0.0001, 0, 5, 40_000),
            arrival(2, 0.0002, 4, 8, 1_000_000),
            arrival(3, 0.0003, 8, 0, 7_777),
            arrival(4, 0.0004, 1, 0, 250_000),
            arrival(5, 0.0005, 2, 4, 555_555),
        ];
        let cfg = config(0.01);
        let lazy = simulate_fair_share(&topo, arrivals.clone(), cfg).unwrap();
        let eager = simulate_fair_share_probed(&topo, arrivals, cfg, EagerProbe).unwrap();
        assert_eq!(lazy.completions, eager.completions);
        assert_eq!(lazy.reschedules, eager.reschedules);
        assert_eq!(lazy.arrived_bytes, eager.arrived_bytes);
        assert_eq!(lazy.leftover_bytes, eager.leftover_bytes);
        assert_eq!(lazy.throughput.delivered(), eager.throughput.delivered());
        assert_eq!(lazy.total_backlog, eager.total_backlog);
        assert_eq!(lazy.max_port_backlog, eager.max_port_backlog);
        assert_eq!(lazy.cumulative_delivered, eager.cumulative_delivered);
        assert_eq!(lazy.fct.overall_summary(), eager.fct.overall_summary());
    }

    #[test]
    fn empty_workload_produces_the_sample_grid() {
        let topo = FatTree::scaled(2, 4, 1).unwrap();
        let run = simulate_fair_share(&topo, Vec::new(), config(0.001)).unwrap();
        assert_eq!(run.arrivals, 0);
        assert!(!run.total_backlog.is_empty());
    }

    #[test]
    fn bad_arrivals_are_rejected() {
        let topo = FatTree::scaled(2, 4, 1).unwrap();
        let err = simulate_fair_share(&topo, vec![arrival(0, 0.0, 0, 99, 1_000)], config(0.001));
        assert!(matches!(err, Err(FabricError::BadArrival(_))));
        let err = simulate_fair_share(&topo, vec![arrival(0, 0.0, 3, 3, 1_000)], config(0.001));
        assert!(matches!(err, Err(FabricError::BadArrival(_))));
    }
}
