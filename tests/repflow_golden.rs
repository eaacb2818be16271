//! Golden fingerprints of the multi-plane baseline engines.
//!
//! `simulate_ecmp` and `simulate_repflow` route inter-rack flows over
//! individual core planes, so their outputs are not covered by the
//! aggregate-filter goldens. This suite pins them bit for bit across
//! seeds {1, 2, 3} × three fabrics: a two-plane k=4 fat-tree at 2:1, a
//! three-plane oversubscribed k=6 fat-tree, and a one-plane scaled
//! fat-tree with the core enforced. Each case pins:
//!
//! * the ECMP run: its counters, per-class FCT summaries and the
//!   [`fingerprint`] of its sampled series;
//! * the RepFlow run: the same, plus every [`RepFlowStats`] field and an
//!   FNV-1a hash over the completion log (flow, FCT bits, single-path
//!   FCT bits, winning plane).
//!
//! Any change to plane hashing, the per-plane admission filter, the
//! replica race or the engine underneath shows up here as a changed
//! line.

mod support;

use basrpt::core::{RepFlow, Srpt};
use basrpt::fabric::{
    simulate_ecmp, simulate_repflow, FabricRun, FatTree, KAryFatTree, RepFlowStats, SimConfig,
    Topology,
};
use basrpt::types::{FlowClass, SimTime};
use basrpt::workload::{FlowArrival, TrafficSpec};
use support::fingerprint::{fingerprint, fnv, FNV_OFFSET};

/// The fabrics of the matrix, by name.
fn topologies() -> Vec<(&'static str, Box<dyn Topology>, SimConfig)> {
    let horizon = SimTime::from_millis(8.0);
    let plain = SimConfig::builder().horizon(horizon).build();
    let enforced = SimConfig::builder()
        .horizon(horizon)
        .enforce_core_capacity(true)
        .build();
    // 2:1, two planes of one edge-rate flow each (20 Gbps / 2).
    let k4 = KAryFatTree::builder(4)
        .hosts_per_edge(4)
        .oversubscription(2.0)
        .build()
        .expect("valid k-ary parameters");
    // 2:1, three planes of one edge-rate flow each (30 Gbps / 3).
    let k6 = KAryFatTree::builder(6)
        .hosts_per_edge(6)
        .oversubscription(2.0)
        .build()
        .expect("valid k-ary parameters");
    let one_plane = FatTree::scaled(4, 4, 1).expect("valid scaled fat-tree");
    assert_eq!(k4.core_planes(), 2);
    assert_eq!(k6.core_planes(), 3);
    assert_eq!(one_plane.core_planes(), 1);
    vec![
        ("k4-2to1", Box::new(k4), plain),
        ("k6-2to1", Box::new(k6), plain),
        ("scaled-4x4-1core", Box::new(one_plane), enforced),
    ]
}

fn arrivals(topo: &dyn Topology, seed: u64, horizon: SimTime) -> Vec<FlowArrival> {
    TrafficSpec::scaled(topo.num_racks(), topo.hosts_per_rack(), 0.8)
        .expect("valid scaled spec")
        .generator(seed)
        .expect("valid generator")
        .take_while(|a| a.time < horizon)
        .collect()
}

/// Counters, per-class FCT summary bits and the series fingerprint.
fn describe_run(run: &FabricRun) -> String {
    let mut fct = FNV_OFFSET;
    for class in FlowClass::ALL {
        if let Some(s) = run.fct.summary(class) {
            fnv(&mut fct, s.count as u64);
            for x in [s.mean_secs, s.p50_secs, s.p99_secs, s.max_secs] {
                fnv(&mut fct, x.to_bits());
            }
        }
    }
    format!(
        "arrivals={} completions={} reschedules={} delivered={} leftover={} \
         leftover_flows={} fct={fct:016x} series={:016x}",
        run.arrivals,
        run.completions,
        run.reschedules,
        run.throughput.delivered().as_u64(),
        run.leftover_bytes.as_u64(),
        run.leftover_flows,
        fingerprint(run),
    )
}

fn describe_stats(s: &RepFlowStats) -> String {
    format!(
        "replicated={} wins={} replica={} won={} lost={} racing={} cancelled={}",
        s.replicated_flows,
        s.replica_wins,
        s.replica_bytes.as_u64(),
        s.winning_replica_bytes.as_u64(),
        s.losing_replica_bytes.as_u64(),
        s.racing_replica_bytes.as_u64(),
        s.cancelled_primary_bytes.as_u64(),
    )
}

/// One line per (fabric, seed): the ECMP run, then the RepFlow run.
fn observed() -> Vec<String> {
    let mut lines = Vec::new();
    for (name, topo, config) in topologies() {
        for seed in [1, 2, 3] {
            let flows = arrivals(topo.as_ref(), seed, config.horizon);
            let ecmp = simulate_ecmp(topo.as_ref(), &mut Srpt::new(), flows.clone(), config)
                .expect("valid simulation");
            let rep = simulate_repflow(topo.as_ref(), &mut RepFlow::default(), flows, config)
                .expect("valid simulation");
            let mut log = FNV_OFFSET;
            for c in &rep.completions {
                fnv(&mut log, c.flow.raw());
                fnv(&mut log, c.fct.as_secs().to_bits());
                fnv(&mut log, c.base_fct.as_secs().to_bits());
                fnv(
                    &mut log,
                    c.winner.map_or(u64::MAX, |p| u64::from(p.index())),
                );
            }
            lines.push(format!("{name} {seed} ecmp {}", describe_run(&ecmp)));
            lines.push(format!(
                "{name} {seed} rf {} {} log={log:016x}",
                describe_run(&rep.run),
                describe_stats(&rep.stats)
            ));
        }
    }
    lines
}

/// The committed outputs, one line per run.
const EXPECTED: &[&str] = &[
    "k4-2to1 1 ecmp arrivals=1413 completions=1384 reschedules=2751 delivered=115653142 leftover=177179070 leftover_flows=29 fct=e9bfb324631ea5f5 series=2b1ef6246fd37c24",
    "k4-2to1 1 rf arrivals=1413 completions=1384 reschedules=2751 delivered=115653142 leftover=177179070 leftover_flows=29 fct=a7183114c9333ec9 series=2b1ef6246fd37c24 replicated=1181 wins=16 replica=1988381 won=320000 lost=1639555 racing=28826 cancelled=320000 log=c280cab41a27b168",
    "k4-2to1 2 ecmp arrivals=1405 completions=1379 reschedules=2740 delivered=124468581 leftover=158770907 leftover_flows=26 fct=8b26ad809c848e4f series=e7eb594dd594d71a",
    "k4-2to1 2 rf arrivals=1405 completions=1379 reschedules=2740 delivered=124468581 leftover=158770907 leftover_flows=26 fct=98a0ca0ebf633c8d series=e7eb594dd594d71a replicated=1172 wins=11 replica=1737669 won=220000 lost=1516133 racing=1536 cancelled=220000 log=47f59c2247daab7e",
    "k4-2to1 3 ecmp arrivals=1442 completions=1413 reschedules=2823 delivered=109419504 leftover=134093835 leftover_flows=29 fct=85c268db113c8e04 series=728aed8ec472bb0e",
    "k4-2to1 3 rf arrivals=1442 completions=1413 reschedules=2823 delivered=109419504 leftover=134093835 leftover_flows=29 fct=166e70bb2476f21f series=728aed8ec472bb0e replicated=1183 wins=13 replica=1669480 won=260000 lost=1394483 racing=14997 cancelled=260000 log=a693713a00fe86d0",
    "k6-2to1 1 ecmp arrivals=4759 completions=4669 reschedules=9230 delivered=360274670 leftover=525576526 leftover_flows=90 fct=0f03c9ff7a0d2f1f series=27456cab14299bfd",
    "k6-2to1 1 rf arrivals=4759 completions=4669 reschedules=9230 delivered=360274670 leftover=525576526 leftover_flows=90 fct=085a835c9bd9178c series=27456cab14299bfd replicated=4142 wins=98 replica=10402099 won=1960000 lost=8411276 racing=30823 cancelled=1960000 log=c5d2d6490bff46f0",
    "k6-2to1 2 ecmp arrivals=4803 completions=4702 reschedules=9296 delivered=415114759 leftover=509565890 leftover_flows=101 fct=8e369ded8045eb0d series=0ca3960cffdc6282",
    "k6-2to1 2 rf arrivals=4803 completions=4702 reschedules=9296 delivered=415114759 leftover=509565890 leftover_flows=101 fct=26715da8ec01d57f series=0ca3960cffdc6282 replicated=4151 wins=79 replica=10079872 won=1580000 lost=8469705 racing=30167 cancelled=1580000 log=868b7de3a02bd036",
    "k6-2to1 3 ecmp arrivals=4696 completions=4592 reschedules=9111 delivered=377326241 leftover=569124949 leftover_flows=104 fct=66287698de705b15 series=0996379aee8415d2",
    "k6-2to1 3 rf arrivals=4696 completions=4592 reschedules=9111 delivered=377326241 leftover=569124949 leftover_flows=104 fct=83595f354aa8ee53 series=0996379aee8415d2 replicated=4067 wins=76 replica=9295238 won=1520000 lost=7727305 racing=47933 cancelled=1520000 log=9b634771aa031010",
    "scaled-4x4-1core 1 ecmp arrivals=753 completions=739 reschedules=1490 delivered=44045032 leftover=51949011 leftover_flows=14 fct=1d1f2c9a0efb0e69 series=b9ec8dcb947419df",
    "scaled-4x4-1core 1 rf arrivals=753 completions=739 reschedules=1490 delivered=44045032 leftover=51949011 leftover_flows=14 fct=1d1f2c9a0efb0e69 series=b9ec8dcb947419df replicated=0 wins=0 replica=0 won=0 lost=0 racing=0 cancelled=0 log=920e01276df06a52",
    "scaled-4x4-1core 2 ecmp arrivals=666 completions=655 reschedules=1318 delivered=46055959 leftover=39712735 leftover_flows=11 fct=3fefc873b577a06c series=2cbc27b8f38fdad7",
    "scaled-4x4-1core 2 rf arrivals=666 completions=655 reschedules=1318 delivered=46055959 leftover=39712735 leftover_flows=11 fct=3fefc873b577a06c series=2cbc27b8f38fdad7 replicated=0 wins=0 replica=0 won=0 lost=0 racing=0 cancelled=0 log=eb028c4e0cfb2d23",
    "scaled-4x4-1core 3 ecmp arrivals=706 completions=685 reschedules=1390 delivered=70418062 leftover=84131093 leftover_flows=21 fct=23a9207b2305fccb series=c713b190d6e8ca9e",
    "scaled-4x4-1core 3 rf arrivals=706 completions=685 reschedules=1390 delivered=70418062 leftover=84131093 leftover_flows=21 fct=23a9207b2305fccb series=c713b190d6e8ca9e replicated=0 wins=0 replica=0 won=0 lost=0 racing=0 cancelled=0 log=4f0bdce96e9f3a56",
];

#[test]
fn ecmp_and_repflow_outputs_are_pinned() {
    let got = observed();
    assert_eq!(got, EXPECTED, "observed:\n{}", got.join("\n"));
}
