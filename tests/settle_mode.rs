//! Pins the settlement mode the fabric engine picks for every shipped
//! scheduler, and the reason it gives for an eager one.
//!
//! Lazy settlement composes only with disciplines that decide from
//! per-VOQ views and can read them through the allocator's adjusting
//! lens (`Scheduler::supports_lazy_views`). Every other scheduler makes
//! the engine fall back to eager settlement, an `O(n)` sweep per event,
//! and `OnlineFabric::settle_reason` names why. A scheduler that loses
//! lazy support — or a doc that claims a pairing composes when it does
//! not — is caught here.

use basrpt::core::{
    ExactBasrpt, FastBasrpt, Fifo, IncrementalScheduler, MaxWeight, RepFlow, RoundRobin, Scheduler,
    Srpt, ThresholdBacklogSrpt,
};
use basrpt::fabric::{
    settle_forced_eager, EagerReason, FatTree, OnlineFabric, SettleMode, SimConfig,
};
use basrpt::probe::Probe;
use basrpt::types::SimTime;

fn topo() -> FatTree {
    FatTree::scaled(2, 2, 1).expect("valid scaled fat-tree")
}

fn config() -> SimConfig {
    SimConfig::builder()
        .horizon(SimTime::from_millis(1.0))
        .build()
}

fn mode_and_reason(scheduler: &mut dyn Scheduler) -> (SettleMode, Option<EagerReason>) {
    let topo = topo();
    let online = OnlineFabric::new(&topo, scheduler, config());
    (online.settle_mode(), online.settle_reason())
}

#[test]
fn every_shipped_scheduler_gets_its_documented_settle_mode() {
    if settle_forced_eager() {
        eprintln!("skipped: eager settlement is forced by the environment");
        return;
    }
    let hosts = 4;
    let v = 2500.0;
    let cases: Vec<(&str, Box<dyn Scheduler>, SettleMode)> = vec![
        ("Srpt", Box::new(Srpt::new()), SettleMode::Lazy),
        (
            "FastBasrpt",
            Box::new(FastBasrpt::new(v, hosts)),
            SettleMode::Lazy,
        ),
        ("MaxWeight", Box::new(MaxWeight::new()), SettleMode::Lazy),
        ("Fifo", Box::new(Fifo::new()), SettleMode::Lazy),
        (
            "ThresholdBacklogSrpt",
            Box::new(ThresholdBacklogSrpt::new(100_000)),
            SettleMode::Lazy,
        ),
        ("RepFlow", Box::new(RepFlow::default()), SettleMode::Lazy),
        ("RoundRobin", Box::new(RoundRobin::new()), SettleMode::Eager),
        (
            "ExactBasrpt",
            Box::new(ExactBasrpt::new(v)),
            SettleMode::Eager,
        ),
        (
            "IncrementalScheduler<Srpt>",
            Box::new(IncrementalScheduler::new(Srpt::new())),
            SettleMode::Eager,
        ),
        (
            "IncrementalScheduler<FastBasrpt>",
            Box::new(IncrementalScheduler::new(FastBasrpt::new(v, hosts))),
            SettleMode::Eager,
        ),
        (
            "IncrementalScheduler<MaxWeight>",
            Box::new(IncrementalScheduler::new(MaxWeight::new())),
            SettleMode::Eager,
        ),
        (
            "IncrementalScheduler<Fifo>",
            Box::new(IncrementalScheduler::new(Fifo::new())),
            SettleMode::Eager,
        ),
        (
            "IncrementalScheduler<ThresholdBacklogSrpt>",
            Box::new(IncrementalScheduler::new(ThresholdBacklogSrpt::new(
                100_000,
            ))),
            SettleMode::Eager,
        ),
    ];
    for (name, mut scheduler, want) in cases {
        let want_reason = match want {
            SettleMode::Lazy => None,
            SettleMode::Eager => Some(EagerReason::SchedulerReadsTable),
        };
        assert_eq!(
            mode_and_reason(scheduler.as_mut()),
            (want, want_reason),
            "{name}"
        );
    }
}

/// A probe that keeps the trait's default: it wants every drain.
struct FidelityProbe;

impl Probe for FidelityProbe {}

#[test]
fn a_fidelity_probe_and_the_caller_each_force_eager_with_their_reason() {
    if settle_forced_eager() {
        eprintln!("skipped: eager settlement is forced by the environment");
        return;
    }
    let topo = topo();
    let mut srpt = Srpt::new();
    let probed = OnlineFabric::with_probe(&topo, &mut srpt, config(), FidelityProbe);
    assert_eq!(probed.settle_mode(), SettleMode::Eager);
    assert_eq!(probed.settle_reason(), Some(EagerReason::FlowFidelityProbe));

    let mut srpt = Srpt::new();
    let forced = OnlineFabric::new(&topo, &mut srpt, config()).force_eager_settle();
    assert_eq!(forced.settle_mode(), SettleMode::Eager);
    assert_eq!(forced.settle_reason(), Some(EagerReason::ForcedByCaller));

    // Forcing keeps an existing reason rather than hiding it.
    let mut round_robin = RoundRobin::new();
    let forced = OnlineFabric::new(&topo, &mut round_robin, config()).force_eager_settle();
    assert_eq!(
        forced.settle_reason(),
        Some(EagerReason::SchedulerReadsTable)
    );
}

#[test]
fn an_environment_forced_eager_run_says_so() {
    if !settle_forced_eager() {
        eprintln!("skipped: BASRPT_SETTLE=eager is not set");
        return;
    }
    let mut srpt = Srpt::new();
    assert_eq!(
        mode_and_reason(&mut srpt),
        (SettleMode::Eager, Some(EagerReason::ForcedByEnv))
    );
}
