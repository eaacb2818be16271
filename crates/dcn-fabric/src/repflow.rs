//! ECMP plane assignment and RepFlow-style short-flow replication.
//!
//! The multi-path [`Topology`] exposes `core_planes` independent core
//! planes (a k-ary fat-tree has `k/2`). This module models them on the
//! production engine — the [`OnlineFabric`] event loop with its delta
//! allocator, completion calendar and lazy settlement, driven by the same
//! batch driver as [`crate::simulate`]:
//!
//! * [`simulate_ecmp`] — single-path routing: every inter-rack flow is
//!   hashed onto one plane ([`plane_of`], FNV-1a over the flow id — the
//!   deterministic stand-in for ECMP's five-tuple hash) and the engine's
//!   core filter is enforced **per plane** (each plane carries
//!   `uplink / planes` of a rack's budget). Hash collisions can reject a
//!   flow even when another plane is idle — exactly the ECMP pathology
//!   RepFlow exploits. This is [`crate::simulate`] with the topology's
//!   plane count instead of one aggregate plane, and nothing else.
//! * [`simulate_repflow`] — the RepFlow discipline (Xu & Li): flows
//!   shorter than the [`RepFlow`] threshold additionally place one
//!   replica on an alternate plane whenever their primary plane is
//!   saturated, and the **first copy to finish wins**. The races are a
//!   crate-private layer ([`Races`]) the ECMP engine calls at five sites
//!   of its event loop. Replication is opportunistic and subordinate: a
//!   replica transmits only in intervals where its flow was
//!   crossbar-matched but plane-rejected (the NICs are provably idle
//!   then), and replicas consume only budget left over after every
//!   single-path admission — so the base trajectory of a RepFlow run is
//!   **bit-identical** to the [`simulate_ecmp`] run of the same workload.
//!   That gives the dominance property `tests/repflow_props.rs` pins:
//!   every flow's RepFlow FCT is ≤ its single-path FCT, with equality on
//!   one-plane topologies.
//!
//! Byte accounting for the race is exact ([`RepFlowStats`]): every copy's
//! transmitted bytes ride the same epoch-anchored arithmetic as the base
//! engine, the winning copy accounts the flow's full size, and the
//! cancelled copies' bytes (including everything the primary transmits
//! after losing — the engine cancels lazily, a conservative model of
//! RepFlow's transport-level cutoff) are tallied to the last byte.

use crate::delta::CoreBudgets;
use crate::engine::{feed, FabricError, FabricRun, FlowMeta, SimConfig};
use crate::online::OnlineFabric;
use crate::settle::{completion_instant, drain_target};
use crate::topology::Topology;
use basrpt_core::{RepFlow, Scheduler};
use dcn_probe::{NoProbe, Probe};
use dcn_types::{Bytes, FastMap, FlowId, PlaneId, Rate, SimTime, Voq};
use dcn_workload::FlowArrival;

/// The plane an inter-rack flow is hashed onto: FNV-1a over the flow id,
/// modulo the plane count — the deterministic stand-in for ECMP's
/// five-tuple hash (a flow's packets all ride one path).
///
/// # Panics
///
/// Panics if `planes` is zero.
///
/// # Example
///
/// ```
/// use dcn_fabric::plane_of;
/// use dcn_types::FlowId;
///
/// let p = plane_of(FlowId::new(7), 4);
/// assert!(p.index() < 4);
/// assert_eq!(p, plane_of(FlowId::new(7), 4), "deterministic");
/// ```
pub fn plane_of(flow: FlowId, planes: u32) -> PlaneId {
    assert!(planes > 0, "a fabric has at least one core plane");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in flow.raw().to_le_bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    PlaneId::new((h % u64::from(planes)) as u32)
}

/// One copy of a replicated flow on an alternate plane. While selected
/// it drains in an epoch with the shared settlement arithmetic of every
/// scheduled flow ([`completion_instant`], [`drain_target`]).
#[derive(Debug, Clone, Copy)]
struct ReplicaCopy {
    plane: PlaneId,
    /// Bytes this copy has transmitted in its closed epochs.
    sent: u64,
    /// The open epoch while the copy transmits: its start and its
    /// analytic completion instant.
    epoch: Option<(SimTime, SimTime)>,
}

impl ReplicaCopy {
    fn idle(plane: PlaneId) -> Self {
        ReplicaCopy {
            plane,
            sent: 0,
            epoch: None,
        }
    }

    /// (Re)opens a transmission epoch at `now`; keeps the current epoch if
    /// the copy is already transmitting (its completion instant must not
    /// drift across reschedules that keep it selected).
    fn select(&mut self, now: SimTime, size: u64, rate: Rate) {
        if self.epoch.is_none() {
            self.epoch = Some((now, completion_instant(now, size - self.sent, rate)));
        }
    }

    /// Settles the copy's account at instant `t` and closes its epoch.
    fn deselect(&mut self, t: SimTime, size: u64, rate: Rate) {
        if let Some((epoch, completes_at)) = self.epoch.take() {
            self.sent += drain_target(epoch, completes_at, size - self.sent, rate, t);
        }
    }

    /// When the copy finishes if it keeps transmitting; `None` when idle.
    fn completes_at(&self) -> Option<SimTime> {
        self.epoch.map(|(_, at)| at)
    }
}

/// The replication race of one short inter-rack flow. It stays open
/// until a replica wins or the primary completes.
#[derive(Debug)]
struct RaceState {
    size: u64,
    /// One copy per alternate plane, in ascending plane order.
    copies: Vec<ReplicaCopy>,
    /// `Some((plane, instant))` once a replica finished first.
    replica_won: Option<(PlaneId, SimTime)>,
    /// The plane the current decision's replica pass picked.
    pick: Option<PlaneId>,
}

/// The replication races of one RepFlow run: the crate-private layer an
/// [`OnlineFabric`] carries only when [`simulate_repflow`] builds it. The
/// engine calls it at five sites of its event loop:
/// [`resolve_wins`](Races::resolve_wins) at the start of every event,
/// [`open`](Races::open) on admission, [`replicate`](Races::replicate)
/// after the core filter, [`on_drain`](Races::on_drain) and
/// [`on_completion`](Races::on_completion) for every settled drain, and
/// [`finish`](Races::finish) once the horizon is reached.
///
/// The same code is exact under lazy settlement. A copy transmits only
/// while its primary is plane-rejected, and the decision that rejected the
/// primary evicted — and so settled — it. Every primary drain settled
/// after a win therefore belongs to an epoch that opened after the win,
/// and wins resolve at the same event instants in both settle modes.
#[derive(Debug)]
pub(crate) struct Races {
    threshold: u64,
    planes: u32,
    rate: Rate,
    /// The race of every active replicated flow, including those a
    /// replica already won, until the primary completes.
    races: FastMap<FlowId, RaceState>,
    stats: RepFlowStats,
    completions: Vec<RepFlowCompletion>,
}

impl Races {
    /// No races yet: flows shorter than `threshold` bytes will race
    /// copies over the other `planes - 1` planes at `rate`.
    pub(crate) fn new(threshold: u64, planes: u32, rate: Rate) -> Self {
        Races {
            threshold,
            planes,
            rate,
            races: FastMap::default(),
            stats: RepFlowStats::default(),
            completions: Vec::new(),
        }
    }

    /// Resolves every replica win at or before `t`. Copy completion
    /// instants are analytic, so wins are taken lazily at the next event;
    /// a win cannot change the base trajectory, and races never interact,
    /// so they resolve in any order.
    pub(crate) fn resolve_wins(&mut self, t: SimTime) {
        for race in self.races.values_mut() {
            if race.replica_won.is_some() {
                continue;
            }
            let first = race
                .copies
                .iter()
                .filter_map(ReplicaCopy::completes_at)
                .min();
            let Some(w) = first.filter(|&w| w <= t) else {
                continue;
            };
            // Lowest plane wins ties (copies are in ascending plane order).
            let winner = race.copies.iter().find(|c| c.completes_at() == Some(w));
            let winner = winner.expect("a copy completed").plane;
            for copy in &mut race.copies {
                // Freeze the race at the win instant: siblings keep only
                // the bytes they moved before w.
                copy.deselect(w, race.size, self.rate);
            }
            race.replica_won = Some((winner, w));
            self.stats.replica_wins += 1;
        }
    }

    /// Opens a race for a newly admitted flow if it is short and
    /// `crosses_core` (inter-rack under an enforced core) on a fabric with
    /// alternate planes.
    pub(crate) fn open(&mut self, id: FlowId, size: Bytes, crosses_core: bool) {
        if !crosses_core || self.planes < 2 || size.as_u64() >= self.threshold {
            return;
        }
        let primary = plane_of(id, self.planes);
        let copies = (0..self.planes)
            .map(PlaneId::new)
            .filter(|&p| p != primary)
            .map(ReplicaCopy::idle)
            .collect();
        let race = RaceState {
            size: size.as_u64(),
            copies,
            replica_won: None,
            pick: None,
        };
        self.races.insert(id, race);
        self.stats.replicated_flows += 1;
    }

    /// The replica pass of a decision, run after the core filter charged
    /// every single-path admission. Each plane-rejected flow with an open
    /// race may ride the residual budget of an alternate plane (its NICs
    /// are idle — the matching reserved them and the plane filter
    /// declined), in priority order so replica-replica contention is
    /// deterministic. The picked copies then (re)open epochs at `now` and
    /// every other copy settles and closes its epoch.
    pub(crate) fn replicate<T: Topology + ?Sized>(
        &mut self,
        topo: &T,
        budgets: &mut CoreBudgets,
        now: SimTime,
    ) {
        let rejected = std::mem::take(&mut budgets.rejected);
        for &(id, voq) in &rejected {
            if let Some(race) = self.races.get_mut(&id) {
                if race.replica_won.is_none() {
                    let racks = (topo.rack_of(voq.src()), topo.rack_of(voq.dst()));
                    let mut planes = race.copies.iter().map(|c| c.plane);
                    race.pick = planes.find(|&p| budgets.admit(racks, p));
                }
            }
        }
        budgets.rejected = rejected;
        for race in self.races.values_mut() {
            if race.replica_won.is_some() {
                continue;
            }
            let pick = race.pick.take();
            for copy in &mut race.copies {
                if pick == Some(copy.plane) {
                    copy.select(now, race.size, self.rate);
                } else {
                    copy.deselect(now, race.size, self.rate);
                }
            }
        }
    }

    /// Tallies one settled primary drain: everything a primary moves after
    /// a replica won its race is cancelled work.
    pub(crate) fn on_drain(&mut self, id: FlowId, amount: u64) {
        if self.races.get(&id).is_some_and(|r| r.replica_won.is_some()) {
            self.stats.cancelled_primary_bytes += Bytes::new(amount);
        }
    }

    /// Closes the race of a primary that completed at `t`, logs the
    /// completion and returns the FCT to record: the first copy's.
    pub(crate) fn on_completion(
        &mut self,
        flow: FlowId,
        voq: Voq,
        info: FlowMeta,
        t: SimTime,
        base_latency: SimTime,
    ) -> SimTime {
        let base_fct = t - info.arrival + base_latency;
        let mut fct = base_fct;
        let mut winner = None;
        let race = self.races.remove(&flow);
        let replicated = race.is_some();
        if let Some(mut race) = race {
            if let Some((plane, w)) = race.replica_won {
                fct = w - info.arrival + base_latency;
                winner = Some(plane);
            }
            // The race is over: a primary that finished first cancels the
            // copies' bytes.
            retire_race(&mut race, t, self.rate, true, &mut self.stats);
        }
        self.completions.push(RepFlowCompletion {
            flow,
            voq,
            size: info.size,
            replicated,
            fct,
            base_fct,
            winner,
        });
        fct
    }

    /// Retires the races still open at the horizon of `run` — every copy
    /// settles there and its bytes count as racing, or as lost when a
    /// replica won but the primary never finished draining — and
    /// completes the RepFlow measurements.
    pub(crate) fn finish(mut self, run: FabricRun) -> RepFlowRun {
        for race in self.races.values_mut() {
            let over = race.replica_won.is_some();
            retire_race(race, run.horizon, self.rate, over, &mut self.stats);
        }
        RepFlowRun {
            run,
            completions: self.completions,
            stats: self.stats,
        }
    }
}

/// One completed flow of a RepFlow (or ECMP) run, with both race
/// outcomes: the recorded first-copy FCT and the single-path FCT the
/// primary alone would have scored. `fct ≤ base_fct` always;
/// `fct == base_fct` exactly unless a replica won.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepFlowCompletion {
    /// The completed flow.
    pub flow: FlowId,
    /// The VOQ the flow occupied.
    pub voq: Voq,
    /// The flow's size.
    pub size: Bytes,
    /// Whether the flow was eligible for replication (short, inter-rack,
    /// 2+ planes) and raced replicas.
    pub replicated: bool,
    /// The recorded FCT: first copy to finish (includes any configured
    /// base latency).
    pub fct: SimTime,
    /// The single-path FCT of the primary copy — bit-identical to what
    /// [`simulate_ecmp`] records for this flow.
    pub base_fct: SimTime,
    /// The plane of the winning replica, or `None` when the primary won.
    pub winner: Option<PlaneId>,
}

/// Exact byte accounting of the replication races of one run.
///
/// Every field is an exact `u64` tally; the identity
/// `replica_bytes == winning_replica_bytes + losing_replica_bytes +
/// racing_replica_bytes` holds to the byte (pinned by
/// `tests/conservation.rs`), and the base run's own conservation
/// (`arrived == delivered + leftover`) is untouched by replication.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepFlowStats {
    /// Flows that raced replicas (short, inter-rack, 2+ planes).
    pub replicated_flows: usize,
    /// Races a replica won.
    pub replica_wins: usize,
    /// Total bytes transmitted by replica copies.
    pub replica_bytes: Bytes,
    /// Bytes of winning replica copies (the full size of each
    /// replica-won flow).
    pub winning_replica_bytes: Bytes,
    /// Bytes transmitted by replica copies that lost their race —
    /// cancelled work on the alternate plane.
    pub losing_replica_bytes: Bytes,
    /// Bytes of replica copies whose race was still open at the horizon.
    pub racing_replica_bytes: Bytes,
    /// Bytes the primary transmitted *after* a replica had already won —
    /// the cancelled-copy cost of lazy cancellation on the primary path.
    pub cancelled_primary_bytes: Bytes,
}

/// The measurements of one RepFlow run: the merged [`FabricRun`] (FCTs
/// are first-copy-completes), the per-flow completion log with both race
/// outcomes, and the exact replica byte accounting.
#[derive(Debug, Clone)]
pub struct RepFlowRun {
    /// The run measurements. `fct`/`fct_by_size` record the
    /// first-copy-completes FCT of every flow whose primary finished
    /// within the horizon; counts, byte totals and series keep the base
    /// (primary-path) semantics, so conservation identities are unchanged.
    pub run: FabricRun,
    /// Every completed flow, in completion order.
    pub completions: Vec<RepFlowCompletion>,
    /// The replication-race byte accounting.
    pub stats: RepFlowStats,
}

/// Runs one single-path (ECMP-hashed) simulation: [`crate::simulate`] on
/// the same engine (delta allocator, completion calendar, lazy
/// settlement), but with the core filter enforced **per plane** — each
/// inter-rack flow rides only its [`plane_of`] plane, which carries
/// `1/planes` of the rack uplink budget. On a one-plane topology this is
/// bit-identical to [`crate::simulate`] with the aggregate filter.
///
/// This is the single-path baseline RepFlow is measured against; the
/// plane filter only matters when core capacity is enforced
/// (oversubscribed topologies or [`SimConfig::enforce_core_capacity`]).
///
/// # Errors
///
/// Returns [`FabricError::BadArrival`] under the same conditions as
/// [`crate::simulate`].
pub fn simulate_ecmp<T: Topology + ?Sized, S: Scheduler + ?Sized>(
    topo: &T,
    scheduler: &mut S,
    generator: impl IntoIterator<Item = FlowArrival>,
    config: SimConfig,
) -> Result<FabricRun, FabricError> {
    simulate_ecmp_probed(topo, scheduler, generator, config, NoProbe)
}

/// Probe-instrumented variant of [`simulate_ecmp`], for differential
/// tests that compare full event streams.
///
/// # Errors
///
/// Returns [`FabricError::BadArrival`] under the same conditions as
/// [`crate::simulate`].
pub fn simulate_ecmp_probed<T: Topology + ?Sized, S: Scheduler + ?Sized, P: Probe>(
    topo: &T,
    scheduler: &mut S,
    generator: impl IntoIterator<Item = FlowArrival>,
    config: SimConfig,
    probe: P,
) -> Result<FabricRun, FabricError> {
    let online = OnlineFabric::multi_plane(topo, scheduler, config, probe, None);
    feed(online, generator)?.finish()
}

/// Runs one RepFlow simulation: the [`simulate_ecmp`] engine plus
/// replication of short flows (shorter than the [`RepFlow`] discipline's
/// threshold) onto alternate core planes with first-copy-completes
/// semantics. A replica rides only budget left over after every
/// single-path admission, so the base run is bit-identical to the
/// [`simulate_ecmp`] run of the same workload and every flow's recorded
/// FCT is at most its single-path FCT.
///
/// # Errors
///
/// Returns [`FabricError::BadArrival`] under the same conditions as
/// [`crate::simulate`].
///
/// # Example
///
/// ```
/// use basrpt_core::RepFlow;
/// use dcn_fabric::{simulate_repflow, KAryFatTree, SimConfig};
/// use dcn_types::SimTime;
/// use dcn_workload::TrafficSpec;
///
/// // Two core planes, oversubscribed so the plane filter binds.
/// let topo = KAryFatTree::builder(4).oversubscription(2.0).build()?;
/// let spec = TrafficSpec::scaled(8, 2, 0.5)?;
/// let out = simulate_repflow(
///     &topo,
///     &mut RepFlow::default(),
///     spec.generator(7)?.take(100),
///     SimConfig::builder().horizon(SimTime::from_secs(0.05)).build(),
/// )?;
/// for c in &out.completions {
///     assert!(c.fct <= c.base_fct, "first copy can only help");
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn simulate_repflow<T: Topology + ?Sized>(
    topo: &T,
    discipline: &mut RepFlow,
    generator: impl IntoIterator<Item = FlowArrival>,
    config: SimConfig,
) -> Result<RepFlowRun, FabricError> {
    simulate_repflow_probed(topo, discipline, generator, config, NoProbe)
}

/// Probe-instrumented variant of [`simulate_repflow`]. Probe events
/// describe the base (primary-path) trajectory; replica transmissions are
/// reported only through [`RepFlowStats`].
///
/// # Errors
///
/// Returns [`FabricError::BadArrival`] under the same conditions as
/// [`crate::simulate`].
pub fn simulate_repflow_probed<T: Topology + ?Sized, P: Probe>(
    topo: &T,
    discipline: &mut RepFlow,
    generator: impl IntoIterator<Item = FlowArrival>,
    config: SimConfig,
    probe: P,
) -> Result<RepFlowRun, FabricError> {
    let planes = topo.core_planes().max(1);
    let races = Races::new(discipline.threshold(), planes, topo.edge_rate());
    let online = OnlineFabric::multi_plane(topo, discipline, config, probe, Some(races));
    let (run, races) = feed(online, generator)?.finish_with_races()?;
    Ok(races.expect("built with races").finish(run))
}

/// Settles every copy of a race at `t` and tallies its exact byte
/// account: the winner's bytes, then every other copy's as lost once the
/// race is `over` (a replica won or the primary completed) and as racing
/// otherwise. The primary's own bytes live in the base run's throughput;
/// only its post-win drains are tallied (`cancelled_primary_bytes`).
fn retire_race(race: &mut RaceState, t: SimTime, rate: Rate, over: bool, stats: &mut RepFlowStats) {
    for copy in &mut race.copies {
        copy.deselect(t, race.size, rate);
        stats.replica_bytes += Bytes::new(copy.sent);
        match race.replica_won {
            Some((plane, _)) if plane == copy.plane => {
                debug_assert_eq!(copy.sent, race.size, "the winner moved the whole flow");
                stats.winning_replica_bytes += Bytes::new(copy.sent);
            }
            _ if over => stats.losing_replica_bytes += Bytes::new(copy.sent),
            _ => stats.racing_replica_bytes += Bytes::new(copy.sent),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate, FatTree, KAryFatTree};
    use basrpt_core::Srpt;
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
            .enforce_core_capacity(true)
            .build()
    }

    #[test]
    fn plane_hash_is_deterministic_and_in_range() {
        for id in 0..1000u64 {
            let p = plane_of(FlowId::new(id), 3);
            assert!(p.index() < 3);
            assert_eq!(p, plane_of(FlowId::new(id), 3));
        }
        // And not degenerate: all three planes are hit.
        let mut seen = [false; 3];
        for id in 0..1000u64 {
            seen[plane_of(FlowId::new(id), 3).as_usize()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn one_plane_ecmp_matches_aggregate_filter_bitwise() {
        // FatTree::scaled(2, 8, 1): one core plane, oversubscribed — the
        // per-plane filter degenerates to the aggregate one.
        let topo = FatTree::scaled(2, 8, 1).unwrap();
        assert_eq!(topo.core_planes(), 1);
        let flows: Vec<FlowArrival> = (0..8)
            .map(|i| arrival(i, 0.0001 * i as f64, i as u32, 8 + i as u32, 500_000))
            .collect();
        let cfg = config(0.05);
        let a = simulate(&topo, &mut Srpt::new(), flows.clone(), cfg).unwrap();
        let b = simulate_ecmp(&topo, &mut Srpt::new(), flows, cfg).unwrap();
        assert_eq!(a.completions, b.completions);
        assert_eq!(a.throughput.delivered(), b.throughput.delivered());
        assert_eq!(a.total_backlog, b.total_backlog);
        let (sa, sb) = (
            a.fct.summary(FlowClass::Background).unwrap(),
            b.fct.summary(FlowClass::Background).unwrap(),
        );
        assert_eq!(sa.mean_secs.to_bits(), sb.mean_secs.to_bits());
        assert_eq!(sa.max_secs.to_bits(), sb.max_secs.to_bits());
    }

    #[test]
    fn repflow_base_trajectory_matches_ecmp_bitwise() {
        // 2:1 oversubscribed, two planes of one edge-rate flow each — the
        // plane filter binds (hash collisions reject) without starving.
        let topo = KAryFatTree::builder(4)
            .hosts_per_edge(4)
            .oversubscription(2.0)
            .build()
            .unwrap();
        assert!(topo.core_planes() >= 2);
        let flows: Vec<FlowArrival> = (0..24)
            .map(|i| {
                arrival(
                    i,
                    0.00002 * i as f64,
                    (i % 8) as u32,
                    (8 + (i * 3) % 24) as u32,
                    30_000 + 10_000 * (i % 5),
                )
            })
            .collect();
        let cfg = config(0.02);
        let ecmp = simulate_ecmp(&topo, &mut Srpt::new(), flows.clone(), cfg).unwrap();
        let rep = simulate_repflow(&topo, &mut RepFlow::new(100_000), flows, cfg).unwrap();
        // Base observables are bit-identical: replicas never affect the
        // primary path.
        assert_eq!(rep.run.completions, ecmp.completions);
        assert_eq!(rep.run.arrived_bytes, ecmp.arrived_bytes);
        assert_eq!(rep.run.leftover_bytes, ecmp.leftover_bytes);
        assert_eq!(rep.run.throughput.delivered(), ecmp.throughput.delivered());
        assert_eq!(rep.run.total_backlog, ecmp.total_backlog);
        assert_eq!(rep.run.cumulative_delivered, ecmp.cumulative_delivered);
        assert!(rep.run.completions > 0, "non-vacuous: flows must finish");
        // And every per-flow FCT dominates.
        for c in &rep.completions {
            assert!(
                c.fct <= c.base_fct,
                "{}: {} > {}",
                c.flow,
                c.fct.as_secs(),
                c.base_fct.as_secs()
            );
            if !c.replicated {
                assert_eq!(c.fct.as_secs().to_bits(), c.base_fct.as_secs().to_bits());
            }
        }
    }

    #[test]
    fn replica_wins_when_primary_plane_is_jammed() {
        // Two planes, 10 Gbps budget each (uplink 20 Gbps): one flow per
        // plane per direction. SRPT protects the shortest flow, so the
        // only way a replicable flow gets plane-rejected is a stream of
        // even-shorter flows hogging its hashed plane: three 30 KB flows
        // (one VOQ, back to back, 24 µs each) hold plane 0 for 72 µs
        // while the 50 KB victim's replica rides plane 1 and finishes in
        // 40 µs — before the primary plane ever frees up.
        let topo = KAryFatTree::builder(4).hosts_per_edge(2).build().unwrap();
        assert_eq!(topo.core_planes(), 2);
        // Four flow ids all hashed onto plane 0.
        let ids: Vec<u64> = (0u64..)
            .filter(|&i| plane_of(FlowId::new(i), 2) == PlaneId::new(0))
            .take(4)
            .collect();
        let victim = ids[3];
        let flows = vec![
            arrival(ids[0], 0.0, 0, 2, 30_000),
            arrival(ids[1], 0.0, 0, 2, 30_000),
            arrival(ids[2], 0.0, 0, 2, 30_000),
            arrival(victim, 0.0, 1, 4, 50_000),
        ];
        let cfg = SimConfig::builder()
            .horizon(SimTime::from_secs(0.05))
            .enforce_core_capacity(true)
            .build();
        let rep = simulate_repflow(&topo, &mut RepFlow::new(60_000), flows, cfg).unwrap();
        assert_eq!(rep.stats.replicated_flows, 4, "all four are short");
        assert_eq!(rep.stats.replica_wins, 1, "the victim's replica wins");
        let short = rep
            .completions
            .iter()
            .find(|c| c.flow == FlowId::new(victim))
            .expect("victim completes");
        assert_eq!(short.winner, Some(PlaneId::new(1)));
        // Replica: 50 KB at 10 Gbps from t=0 → 40 µs. Primary: plane 0
        // frees at 72 µs → base FCT 112 µs.
        assert_eq!(short.fct, SimTime::from_micros(40.0));
        assert!((short.base_fct.as_secs() - 112e-6).abs() < 1e-12);
        // The winning replica moved the whole flow; the primary's
        // post-win bytes are tallied as cancelled.
        assert_eq!(rep.stats.winning_replica_bytes, Bytes::new(50_000));
        assert_eq!(rep.stats.cancelled_primary_bytes, Bytes::new(50_000));
        // Exact replica accounting identity; the jammers' replicas never
        // transmitted (their primaries were always admitted).
        assert_eq!(rep.stats.losing_replica_bytes, Bytes::ZERO);
        assert_eq!(rep.stats.racing_replica_bytes, Bytes::ZERO);
        assert_eq!(
            rep.stats.replica_bytes,
            rep.stats.winning_replica_bytes
                + rep.stats.losing_replica_bytes
                + rep.stats.racing_replica_bytes
        );
    }

    #[test]
    fn full_bisection_disables_replication() {
        let topo = KAryFatTree::builder(4).build().unwrap();
        let flows = vec![arrival(0, 0.0, 0, 8, 50_000)];
        let cfg = SimConfig::builder()
            .horizon(SimTime::from_secs(0.01))
            .build();
        let rep = simulate_repflow(&topo, &mut RepFlow::default(), flows, cfg).unwrap();
        assert_eq!(rep.stats.replicated_flows, 0);
        assert_eq!(rep.stats.replica_bytes, Bytes::ZERO);
    }
}
