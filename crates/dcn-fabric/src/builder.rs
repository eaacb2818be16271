//! The [`FabricSim`] builder: the front door of the flow-level simulator.
//!
//! `simulate(topo, sched, gen, config)` takes four positional arguments, two
//! of which are easy to swap, and offers no place to hang an observer. The
//! builder names every ingredient and enforces the assembly order at the
//! type level: topology → (optional config) → scheduler → workload →
//! (optional probe) → run.
//!
//! ```
//! use basrpt_core::Srpt;
//! use dcn_fabric::{FabricSim, FatTree, SimConfig};
//! use dcn_probe::EventCounterProbe;
//! use dcn_types::SimTime;
//! use dcn_workload::TrafficSpec;
//!
//! let topo = FatTree::scaled(2, 4, 1)?;
//! let spec = TrafficSpec::scaled(2, 4, 0.5)?;
//! let mut counter = EventCounterProbe::new();
//! let run = FabricSim::new(&topo)
//!     .config(SimConfig::builder().horizon(SimTime::from_secs(0.05)).build())
//!     .scheduler(&mut Srpt::new())
//!     .workload(spec.generator(7)?)
//!     .probe(&mut counter)
//!     .run()?;
//! assert_eq!(counter.completions() as usize, run.completions);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::engine::{feed, FabricError, FabricRun, SimConfig};
use crate::online::OnlineFabric;
use crate::topology::Topology;
use crate::FatTree;
use basrpt_core::Scheduler;
use dcn_probe::{NoProbe, Probe};
use dcn_workload::FlowArrival;

/// Entry point of the builder chain: a topology plus a configuration.
///
/// Created by [`FabricSim::new`]; continue with
/// [`scheduler`](FabricSim::scheduler). The typestate chain only compiles
/// in assembly order — topology → config → scheduler → workload → probe →
/// run — so a simulation can never launch half-assembled.
///
/// # Example
///
/// ```
/// use basrpt_core::Srpt;
/// use dcn_fabric::{FabricSim, FatTree, SimConfig};
/// use dcn_types::SimTime;
/// use dcn_workload::TrafficSpec;
///
/// let topo = FatTree::scaled(2, 4, 1)?; // 8 hosts, 1 core
/// let spec = TrafficSpec::scaled(2, 4, 0.5)?;
/// let run = FabricSim::new(&topo)
///     .config(SimConfig::builder().horizon(SimTime::from_secs(0.05)).build())
///     .scheduler(&mut Srpt::new())
///     .workload(spec.generator(7)?)
///     .run()?;
/// assert!(run.completions > 0);
/// assert_eq!(
///     run.arrived_bytes,
///     run.throughput.delivered() + run.leftover_bytes,
///     "bytes are conserved",
/// );
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// To watch the event stream, attach an observer with
/// [`probe`](FabricSimReady::probe) before running.
#[must_use = "chain .scheduler(..).workload(..).run() to simulate"]
#[derive(Debug)]
pub struct FabricSim<'t, T: Topology + ?Sized = FatTree> {
    topo: &'t T,
    config: SimConfig,
}

impl<'t, T: Topology + ?Sized> FabricSim<'t, T> {
    /// Starts assembling a simulation of `topo` — any [`Topology`]
    /// implementation — with the default configuration (1 s horizon,
    /// automatic sampling — see [`SimConfig::builder`]).
    pub fn new(topo: &'t T) -> Self {
        FabricSim {
            topo,
            config: SimConfig::builder().build(),
        }
    }

    /// Replaces the run configuration.
    pub fn config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// Attaches the scheduling discipline, consulted on every flow arrival
    /// and completion.
    pub fn scheduler<S: Scheduler + ?Sized>(
        self,
        scheduler: &mut S,
    ) -> FabricSimSched<'t, '_, S, T> {
        FabricSimSched {
            topo: self.topo,
            config: self.config,
            scheduler,
        }
    }

    /// Selects max-min fair sharing instead of a scheduling discipline:
    /// every active flow transmits simultaneously at its water-filled fair
    /// rate (see [`crate::simulate_fair_share`]) — the "no scheduling"
    /// baseline. Continue with [`workload`](FairShareSim::workload).
    ///
    /// # Example
    ///
    /// ```
    /// use dcn_fabric::{FabricSim, FatTree, SimConfig};
    /// use dcn_types::SimTime;
    /// use dcn_workload::TrafficSpec;
    ///
    /// let topo = FatTree::scaled(2, 4, 1)?;
    /// let spec = TrafficSpec::scaled(2, 4, 0.5)?;
    /// let run = FabricSim::new(&topo)
    ///     .config(SimConfig::builder().horizon(SimTime::from_secs(0.05)).build())
    ///     .fair_share()
    ///     .workload(spec.generator(7)?)
    ///     .run()?;
    /// assert_eq!(
    ///     run.arrived_bytes,
    ///     run.throughput.delivered() + run.leftover_bytes,
    /// );
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn fair_share(self) -> FairShareSim<'t, T> {
        FairShareSim {
            topo: self.topo,
            config: self.config,
        }
    }
}

/// Builder state for a max-min fair-share run (no scheduler); continue
/// with [`workload`](FairShareSim::workload).
#[must_use = "chain .workload(..).run() to simulate"]
#[derive(Debug)]
pub struct FairShareSim<'t, T: Topology + ?Sized = FatTree> {
    topo: &'t T,
    config: SimConfig,
}

impl<'t, T: Topology + ?Sized> FairShareSim<'t, T> {
    /// Attaches the arrival stream: any time-ordered `FlowArrival`
    /// iterator — a `dcn-workload` generator or a scripted `Vec`.
    pub fn workload<G>(self, generator: G) -> FairShareSimReady<'t, G, NoProbe, T>
    where
        G: IntoIterator<Item = FlowArrival>,
    {
        FairShareSimReady {
            topo: self.topo,
            config: self.config,
            generator,
            probe: NoProbe,
        }
    }
}

/// Fully assembled fair-share simulation: [`run`](FairShareSimReady::run)
/// it, optionally attaching an observer first with
/// [`probe`](FairShareSimReady::probe).
#[must_use = "call .run() to simulate"]
#[derive(Debug)]
pub struct FairShareSimReady<'t, G, P, T: Topology + ?Sized = FatTree> {
    topo: &'t T,
    config: SimConfig,
    generator: G,
    probe: P,
}

impl<'t, G, P, T> FairShareSimReady<'t, G, P, T>
where
    G: IntoIterator<Item = FlowArrival>,
    P: Probe,
    T: Topology + ?Sized,
{
    /// Attaches an observer of the event stream (replacing any previous
    /// one).
    pub fn probe<Q: Probe>(self, probe: Q) -> FairShareSimReady<'t, G, Q, T> {
        FairShareSimReady {
            topo: self.topo,
            config: self.config,
            generator: self.generator,
            probe,
        }
    }

    /// Runs the fair-share simulation to the configured horizon.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::BadArrival`] under the same conditions as
    /// [`crate::simulate`].
    pub fn run(self) -> Result<FabricRun, FabricError> {
        crate::fairshare::simulate_fair_share_probed(
            self.topo,
            self.generator,
            self.config,
            self.probe,
        )
    }
}

/// Builder state with a scheduler attached; continue with
/// [`workload`](FabricSimSched::workload).
#[must_use = "chain .workload(..).run() to simulate"]
#[derive(Debug)]
pub struct FabricSimSched<'t, 's, S: ?Sized, T: Topology + ?Sized = FatTree> {
    topo: &'t T,
    config: SimConfig,
    scheduler: &'s mut S,
}

impl<'t, 's, S: Scheduler + ?Sized, T: Topology + ?Sized> FabricSimSched<'t, 's, S, T> {
    /// Attaches the arrival stream: any time-ordered `FlowArrival`
    /// iterator — a `dcn-workload` generator or a scripted `Vec`.
    pub fn workload<G>(self, generator: G) -> FabricSimReady<'t, 's, S, G, NoProbe, T>
    where
        G: IntoIterator<Item = FlowArrival>,
    {
        FabricSimReady {
            topo: self.topo,
            config: self.config,
            scheduler: self.scheduler,
            generator,
            probe: NoProbe,
        }
    }

    /// Leaves the batch path: instead of attaching a whole workload,
    /// produce the step-able [`OnlineFabric`](crate::OnlineFabric) engine
    /// and feed it arrivals one at a time (see the
    /// [`online` module](crate::OnlineFabric) for the protocol).
    pub fn online(self) -> crate::OnlineFabric<'t, 's, T, S> {
        crate::OnlineFabric::new(self.topo, self.scheduler, self.config)
    }
}

/// Fully assembled simulation: [`run`](FabricSimReady::run) it, optionally
/// attaching an observer first with [`probe`](FabricSimReady::probe).
#[must_use = "call .run() to simulate"]
#[derive(Debug)]
pub struct FabricSimReady<'t, 's, S: ?Sized, G, P, T: Topology + ?Sized = FatTree> {
    topo: &'t T,
    config: SimConfig,
    scheduler: &'s mut S,
    generator: G,
    probe: P,
}

impl<'t, 's, S, G, P, T> FabricSimReady<'t, 's, S, G, P, T>
where
    S: Scheduler + ?Sized,
    G: IntoIterator<Item = FlowArrival>,
    P: Probe,
    T: Topology + ?Sized,
{
    /// Attaches an observer of the event stream (replacing any previous
    /// one). Pass `&mut probe` to keep ownership and read the results
    /// after [`run`](FabricSimReady::run); pass several observers by
    /// nesting them in a [`dcn_probe::Fanout`].
    pub fn probe<Q: Probe>(self, probe: Q) -> FabricSimReady<'t, 's, S, G, Q, T> {
        FabricSimReady {
            topo: self.topo,
            config: self.config,
            scheduler: self.scheduler,
            generator: self.generator,
            probe,
        }
    }

    /// Runs the simulation to the configured horizon.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::BadArrival`] if an arrival references hosts
    /// outside the topology, is a self-loop, has zero size, or goes
    /// backwards in time.
    pub fn run(self) -> Result<FabricRun, FabricError> {
        let online = OnlineFabric::with_probe(self.topo, self.scheduler, self.config, self.probe);
        feed(online, self.generator)?.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate;
    use basrpt_core::Srpt;
    use dcn_probe::EventCounterProbe;
    use dcn_types::{Bytes, FlowClass, FlowId, HostId, SimTime, Voq};

    fn arrivals() -> Vec<FlowArrival> {
        vec![
            FlowArrival {
                id: FlowId::new(0),
                time: SimTime::ZERO,
                voq: Voq::new(HostId::new(0), HostId::new(1)),
                size: Bytes::new(1_250_000),
                class: FlowClass::Background,
            },
            FlowArrival {
                id: FlowId::new(1),
                time: SimTime::from_millis(1.0),
                voq: Voq::new(HostId::new(2), HostId::new(3)),
                size: Bytes::new(20_000),
                class: FlowClass::Query,
            },
        ]
    }

    #[test]
    fn builder_matches_simulate() {
        let topo = FatTree::scaled(2, 4, 1).unwrap();
        let config = SimConfig::builder()
            .horizon(SimTime::from_secs(0.01))
            .build();
        let via_builder = FabricSim::new(&topo)
            .config(config)
            .scheduler(&mut Srpt::new())
            .workload(arrivals())
            .run()
            .unwrap();
        let via_simulate = simulate(&topo, &mut Srpt::new(), arrivals(), config).unwrap();
        assert_eq!(via_builder.completions, via_simulate.completions);
        assert_eq!(via_builder.total_backlog, via_simulate.total_backlog);
        assert_eq!(
            via_builder.throughput.delivered(),
            via_simulate.throughput.delivered()
        );
    }

    #[test]
    fn probe_observes_the_run() {
        let topo = FatTree::scaled(2, 4, 1).unwrap();
        let mut counter = EventCounterProbe::new();
        let run = FabricSim::new(&topo)
            .config(
                SimConfig::builder()
                    .horizon(SimTime::from_secs(0.01))
                    .build(),
            )
            .scheduler(&mut Srpt::new())
            .workload(arrivals())
            .probe(&mut counter)
            .run()
            .unwrap();
        assert_eq!(counter.arrivals() as usize, run.arrivals);
        assert_eq!(counter.completions() as usize, run.completions);
        assert_eq!(counter.decisions(), run.reschedules);
        assert_eq!(counter.samples() as usize, run.total_backlog.len());
        assert_eq!(counter.drained_units(), run.throughput.delivered().as_u64());
        // The default wants_decision_timing() == true fills latencies.
        assert_eq!(counter.decision_latency().count(), counter.decisions());
    }

    #[test]
    fn default_config_is_one_second_horizon() {
        let topo = FatTree::scaled(2, 4, 1).unwrap();
        let sim = FabricSim::new(&topo);
        assert_eq!(sim.config.horizon, SimTime::from_secs(1.0));
    }
}
