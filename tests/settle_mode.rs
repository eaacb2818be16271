//! Pins the settlement mode the fabric engine picks for every shipped
//! scheduler.
//!
//! Lazy settlement composes only with disciplines that decide from
//! per-VOQ views and can read them through the allocator's adjusting
//! lens (`Scheduler::supports_lazy_views`). Every other scheduler makes
//! the engine fall back to eager settlement, an `O(n)` sweep per event.
//! The fallback is silent, so a scheduler that loses lazy support — or a
//! doc that claims a pairing composes when it does not — is caught here.

use basrpt::core::{
    ExactBasrpt, FastBasrpt, Fifo, IncrementalScheduler, MaxWeight, RepFlow, RoundRobin, Scheduler,
    Srpt, ThresholdBacklogSrpt,
};
use basrpt::fabric::{settle_forced_eager, FatTree, OnlineFabric, SettleMode, SimConfig};
use basrpt::types::SimTime;

fn mode_of(scheduler: &mut dyn Scheduler) -> SettleMode {
    let topo = FatTree::scaled(2, 2, 1).expect("valid scaled fat-tree");
    let config = SimConfig::builder()
        .horizon(SimTime::from_millis(1.0))
        .build();
    OnlineFabric::new(&topo, scheduler, config).settle_mode()
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
        assert_eq!(mode_of(scheduler.as_mut()), want, "{name}");
    }
}
