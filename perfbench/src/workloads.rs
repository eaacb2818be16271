//! The three benchmark workloads, each runnable untraced (the measured
//! program, exactly as a user calls it) or traced (spans around every
//! call into a layer).

use crate::fingerprint::{conserves, Fingerprint};
use crate::trace::{
    DecideCounts, NoSpans, ProbeCounts, SharedTracer, Spans, TracedProbe, TracedScheduler, Tracer,
    RUN,
};
use basrpt_core::{FastBasrpt, RepFlow, Scheduler, Srpt};
use dcn_fabric::{
    simulate, simulate_ecmp, simulate_ecmp_probed, simulate_fair_share, simulate_fair_share_probed,
    simulate_repflow, simulate_repflow_probed, Accepted, DeltaStats, FabricRun, FatTree,
    KAryFatTree, OfferError, OnlineFabric, RepFlowRun, RepFlowStats, SimConfig, Topology,
};
use dcn_probe::Probe;
use dcn_types::SimTime;
use dcn_workload::{FlowArrival, QueryScope, TrafficSpec};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Span names of the calls the benchmark makes into `dcn-fabric`.
pub mod calls {
    /// `OnlineFabric::step_before` / `step_until`.
    pub const STEP: &str = "dcn-fabric.step";
    /// `OnlineFabric::offer`.
    pub const OFFER: &str = "dcn-fabric.offer";
    /// `OnlineFabric::drain_completions`.
    pub const DRAIN: &str = "dcn-fabric.drain";
    /// `OnlineFabric::finish`.
    pub const FINISH: &str = "dcn-fabric.finish";
    /// The max-min fair-share engine, one whole run.
    pub const FAIR_SHARE: &str = "dcn-fabric.fair_share";
    /// The ECMP engine, one whole run.
    pub const ECMP: &str = "dcn-fabric.ecmp";
    /// The RepFlow engine, one whole run.
    pub const REPFLOW: &str = "dcn-fabric.repflow";
    /// Summarizing a run's outputs.
    pub const SUMMARY: &str = "dcn-metrics.summary";
}

/// The seed used when none is given; the committed fingerprints are for
/// this seed.
pub const DEFAULT_SEED: u64 = 11;

/// Table I's V for fast BASRPT on the 144-host paper fabric.
const PAPER_V: f64 = 2500.0;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// §V-A: the 144-host paper fabric at Fig. 2's saturating load under
    /// fast BASRPT, through batch `simulate`.
    PaperSaturated,
    /// A 9216-host k = 32 fat-tree under SRPT, arrivals fed one at a time
    /// into `OnlineFabric` by one closed-loop caller.
    ScaleStream,
    /// One 2:1 oversubscribed k = 4 fabric through the fair-share, ECMP
    /// and RepFlow engines.
    Baselines,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperSaturated,
        Workload::ScaleStream,
        Workload::Baselines,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSaturated => "paper_saturated",
            Workload::ScaleStream => "scale_stream",
            Workload::Baselines => "baselines",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Arrival sets one untraced run covers, each generated from its own
    /// seed (see [`set_seed`]). `baselines` runs several, so that the
    /// work of a run does not hang on what one seed happens to draw.
    pub fn arrival_sets(self) -> usize {
        match self {
            Workload::Baselines => 16,
            Workload::PaperSaturated | Workload::ScaleStream => 1,
        }
    }

    /// Host seconds of one untraced repetition over one arrival set and
    /// its set-ups on the machine the benchmark was written on, in its
    /// slower periods (README.md). It only turns `--seconds` into a
    /// repetition count, which must not depend on the speed of the
    /// program being measured.
    pub fn nominal_rep_s(self) -> f64 {
        match self {
            Workload::PaperSaturated => 1.8,
            Workload::ScaleStream => 3.5,
            Workload::Baselines => 0.36,
        }
    }

    /// The simulated horizon of one repetition at full size.
    pub fn horizon(self) -> SimTime {
        match self {
            Workload::PaperSaturated => SimTime::from_millis(30.0),
            Workload::ScaleStream => SimTime::from_micros(250.0),
            Workload::Baselines => SimTime::from_millis(30.0),
        }
    }
}

/// The seed of arrival set `set` of a run seeded with `seed`. Set 0 is
/// `seed` itself, so its outputs are the ones committed for that seed.
pub fn set_seed(seed: u64, set: usize) -> u64 {
    seed ^ (set as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// A built workload: topology and arrivals, ready to run.
pub enum Bench {
    /// See [`Workload::PaperSaturated`].
    Paper(Input<FatTree>),
    /// See [`Workload::ScaleStream`].
    Scale(Input<KAryFatTree>),
    /// See [`Workload::Baselines`]: one input per arrival set.
    Baselines(Vec<Input<KAryFatTree>>),
}

/// A topology, the arrivals generated for it and the run configuration.
pub struct Input<T> {
    topo: T,
    seed: u64,
    arrivals: Vec<FlowArrival>,
    config: SimConfig,
}

/// Wall times of one set-up.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    /// Topology build, arrival generation and engine construction.
    pub total_ns: u64,
    /// Arrival generation alone.
    pub gen_ns: u64,
}

/// What one repetition produced.
pub struct Rep {
    /// Wall time of the whole run.
    pub host_ns: u64,
    /// Simulated seconds the run covered (summed over engines).
    pub sim_s: f64,
    /// Host time per arrival, in nanoseconds: on the streaming workload
    /// from starting to handle it until `offer` accepts it, on the batch
    /// workloads the interval between the engine's pulls from its
    /// arrival iterator (stamped by the `Pulls` wrapper). Arrival sets
    /// follow one another.
    pub arrival_ns: Vec<u64>,
    /// `offer` calls made (streaming workload only).
    pub offers: u64,
    /// Offers the engine refused.
    pub refused: u64,
    /// Problems found in the outputs.
    pub errors: Vec<String>,
    /// The outputs' fingerprint for each arrival set, with the set's seed.
    pub fingerprints: Vec<(u64, Fingerprint)>,
    /// Layer data, for traced repetitions.
    pub traced: Option<TracedData>,
}

/// Layer data gathered by a traced repetition.
pub struct TracedData {
    /// Every span of the repetition (the run and its summary).
    pub tracer: Tracer,
    /// Probe event counts (summed over engines; `active_max` is the
    /// largest of any engine).
    pub probe: ProbeCounts,
    /// What the engines and the scheduler wrapper counted.
    pub engine: EngineData,
}

/// Counters a traced repetition reads from the engines and the
/// scheduler wrapper.
pub struct EngineData {
    /// Decision-layer counters.
    pub decide: DecideCounts,
    /// Engine reschedules (summed over engines).
    pub reschedules: u64,
    /// The delta allocator's counters, where an `OnlineFabric` ran.
    pub delta: Option<DeltaStats>,
    /// Whether the `OnlineFabric` settled lazily, where one ran.
    pub settle_lazy: Option<bool>,
    /// Largest in-flight buffer seen after an offer.
    pub in_flight_max: usize,
    /// Offers refused with backpressure.
    pub backpressure: u64,
    /// RepFlow's replica counters, where RepFlow ran.
    pub replicas: Option<RepFlowStats>,
}

impl Bench {
    /// Builds `workload` from `seed` at its full horizon, with `sets`
    /// arrival sets where the workload takes more than one.
    pub fn setup(
        workload: Workload,
        seed: u64,
        sets: usize,
    ) -> Result<(Bench, SetupTimes), String> {
        Bench::setup_with_horizon(workload, seed, workload.horizon(), sets)
    }

    /// Builds `workload` from `seed`, cut at `horizon` (tests use short
    /// horizons).
    pub fn setup_with_horizon(
        workload: Workload,
        seed: u64,
        horizon: SimTime,
        sets: usize,
    ) -> Result<(Bench, SetupTimes), String> {
        let start = Instant::now();
        let config = SimConfig::builder().horizon(horizon).build();
        let (bench, gen_ns) = match workload {
            Workload::PaperSaturated => {
                let topo = FatTree::paper_topology();
                let spec = TrafficSpec::paper_default(0.92).map_err(|e| e.to_string())?;
                let (arrivals, gen_ns) = generate(&spec, seed, horizon)?;
                std::hint::black_box(paper_scheduler(&topo));
                (
                    Bench::Paper(Input {
                        topo,
                        seed,
                        arrivals,
                        config,
                    }),
                    gen_ns,
                )
            }
            Workload::ScaleStream => {
                let topo = KAryFatTree::builder(32)
                    .hosts_per_edge(18)
                    .oversubscription(3.0)
                    .build()
                    .map_err(|e| e.to_string())?;
                let spec = TrafficSpec::scaled(topo.num_racks(), topo.hosts_per_rack(), 0.6)
                    .and_then(|s| s.with_query_scope(QueryScope::Cluster(16)))
                    .map_err(|e| e.to_string())?;
                let (arrivals, gen_ns) = generate(&spec, seed, horizon)?;
                let mut sched = Srpt::new();
                std::hint::black_box(OnlineFabric::new(&topo, &mut sched, config).in_flight());
                (
                    Bench::Scale(Input {
                        topo,
                        seed,
                        arrivals,
                        config,
                    }),
                    gen_ns,
                )
            }
            Workload::Baselines => {
                let mut inputs = Vec::with_capacity(sets);
                let mut gen_total = 0;
                for set in 0..sets.max(1) {
                    let topo = KAryFatTree::builder(4)
                        .hosts_per_edge(4)
                        .oversubscription(2.0)
                        .build()
                        .map_err(|e| e.to_string())?;
                    let spec = TrafficSpec::scaled(topo.num_racks(), topo.hosts_per_rack(), 0.8)
                        .map_err(|e| e.to_string())?;
                    let seed = set_seed(seed, set);
                    let (arrivals, gen_ns) = generate(&spec, seed, horizon)?;
                    gen_total += gen_ns;
                    inputs.push(Input {
                        topo,
                        seed,
                        arrivals,
                        config,
                    });
                }
                std::hint::black_box((Srpt::new(), RepFlow::default()));
                (Bench::Baselines(inputs), gen_total)
            }
        };
        let total_ns = start.elapsed().as_nanos() as u64;
        Ok((bench, SetupTimes { total_ns, gen_ns }))
    }

    /// How many arrivals were generated, on all arrival sets together.
    pub fn arrivals(&self) -> usize {
        match self {
            Bench::Paper(i) => i.arrivals.len(),
            Bench::Scale(i) => i.arrivals.len(),
            Bench::Baselines(inputs) => inputs.iter().map(|i| i.arrivals.len()).sum(),
        }
    }

    /// Runs one untraced repetition.
    pub fn run(&self) -> Result<Rep, String> {
        match self {
            Bench::Paper(i) => paper(i),
            Bench::Scale(i) => {
                let mut sched = Srpt::new();
                let online = OnlineFabric::new(&i.topo, &mut sched, i.config);
                let out = stream(i, online, &NoSpans)?;
                Ok(out.rep)
            }
            Bench::Baselines(inputs) => baselines(inputs),
        }
    }

    /// Runs one traced repetition.
    pub fn run_traced(&self) -> Result<Rep, String> {
        let tracer: SharedTracer = Rc::new(RefCell::new(Tracer::new()));
        let counts = Rc::new(RefCell::new(ProbeCounts::default()));
        let (mut rep, engine) = match self {
            Bench::Paper(i) => paper_traced(i, &tracer, &counts)?,
            Bench::Scale(i) => {
                let mut sched = TracedScheduler::new(Srpt::new(), tracer.clone());
                let probe = TracedProbe::new(tracer.clone(), counts.clone());
                let online = OnlineFabric::with_probe(&i.topo, &mut sched, i.config, probe);
                let lazy = online.settle_mode().is_lazy();
                let out = stream(i, online, &tracer)?;
                let engine = EngineData {
                    decide: sched.counts(),
                    reschedules: out.reschedules,
                    delta: Some(out.delta),
                    settle_lazy: Some(lazy),
                    in_flight_max: out.in_flight_max,
                    backpressure: out.backpressure,
                    replicas: None,
                };
                (out.rep, engine)
            }
            Bench::Baselines(inputs) => baselines_traced(inputs, &tracer, &counts)?,
        };
        let probe = *counts.borrow();
        let tracer = Rc::try_unwrap(tracer)
            .map_err(|_| "tracer still shared after the run".to_string())?
            .into_inner();
        rep.traced = Some(TracedData {
            tracer,
            probe,
            engine,
        });
        Ok(rep)
    }

    /// Whether an untraced and a traced `OnlineFabric` over this input
    /// pick lazy settlement, in that order. `None` for the baselines,
    /// which run no `OnlineFabric`.
    pub fn settle_modes(&self) -> Option<(bool, bool)> {
        let tracer: SharedTracer = Rc::new(RefCell::new(Tracer::new()));
        let counts = Rc::new(RefCell::new(ProbeCounts::default()));
        fn modes<T: Topology, S: Scheduler>(
            i: &Input<T>,
            mut bare: S,
            mut traced: TracedScheduler<S>,
            probe: TracedProbe,
        ) -> (bool, bool) {
            let plain = OnlineFabric::new(&i.topo, &mut bare, i.config).settle_mode();
            let with =
                OnlineFabric::with_probe(&i.topo, &mut traced, i.config, probe).settle_mode();
            (plain.is_lazy(), with.is_lazy())
        }
        let probe = TracedProbe::new(tracer.clone(), counts);
        match self {
            Bench::Paper(i) => {
                let s = paper_scheduler(&i.topo);
                let t = TracedScheduler::new(paper_scheduler(&i.topo), tracer);
                Some(modes(i, s, t, probe))
            }
            Bench::Scale(i) => Some(modes(
                i,
                Srpt::new(),
                TracedScheduler::new(Srpt::new(), tracer),
                probe,
            )),
            Bench::Baselines(_) => None,
        }
    }
}

fn paper_scheduler(topo: &FatTree) -> FastBasrpt {
    FastBasrpt::new(PAPER_V, topo.num_hosts() as usize)
}

/// Generates the arrivals of `spec` before `horizon`, timing generation.
fn generate(
    spec: &TrafficSpec,
    seed: u64,
    horizon: SimTime,
) -> Result<(Vec<FlowArrival>, u64), String> {
    let start = Instant::now();
    let arrivals: Vec<FlowArrival> = spec
        .generator(seed)
        .map_err(|e| e.to_string())?
        .take_while(|a| a.time < horizon)
        .collect();
    Ok((arrivals, start.elapsed().as_nanos() as u64))
}

/// Hands the engine one arrival per pull and stamps the instant of each
/// pull. The gaps between stamps follow the engine's pull order: batch
/// `simulate` pulls an arrival, steps to it and admits it before the next
/// pull, while the baseline engines pull the next arrival right after
/// inserting one and reallocate afterwards, so there a gap carries the
/// previous arrival's reallocation and same-instant arrivals show gaps
/// near zero.
struct Pulls<'a> {
    arrivals: std::slice::Iter<'a, FlowArrival>,
    stamps: &'a mut Vec<Instant>,
}

impl<'a> Pulls<'a> {
    fn new(arrivals: &'a [FlowArrival], stamps: &'a mut Vec<Instant>) -> Self {
        stamps.clear();
        Pulls {
            arrivals: arrivals.iter(),
            stamps,
        }
    }
}

impl Iterator for Pulls<'_> {
    type Item = FlowArrival;

    fn next(&mut self) -> Option<FlowArrival> {
        self.stamps.push(Instant::now());
        self.arrivals.next().copied()
    }
}

/// The intervals between the pulls of one engine run.
fn pull_gaps(stamps: &[Instant], out: &mut Vec<u64>) {
    out.extend(stamps.windows(2).map(|w| (w[1] - w[0]).as_nanos() as u64));
}

fn run_error(e: impl std::fmt::Display) -> String {
    format!("engine error: {e}")
}

fn check_run(label: &str, run: &FabricRun, arrivals: usize, errors: &mut Vec<String>) {
    if !conserves(run) {
        errors.push(format!(
            "{label}: arrived {} != delivered {} + leftover {}",
            run.arrived_bytes,
            run.throughput.delivered(),
            run.leftover_bytes
        ));
    }
    if run.arrivals != arrivals {
        errors.push(format!(
            "{label}: admitted {} of {arrivals} arrivals",
            run.arrivals
        ));
    }
}

fn rep_of(host_ns: u64, sim_s: f64, arrival_ns: Vec<u64>) -> Rep {
    Rep {
        host_ns,
        sim_s,
        arrival_ns,
        offers: 0,
        refused: 0,
        errors: Vec::new(),
        fingerprints: Vec::new(),
        traced: None,
    }
}

/// The fingerprint of one arrival set's outputs.
fn fingerprint_of<T>(i: &Input<T>, facts: impl FnOnce(&mut Fingerprint)) -> (u64, Fingerprint) {
    let mut fp = Fingerprint::default();
    facts(&mut fp);
    (i.seed, fp)
}

/// The paper run through batch `simulate`.
fn paper(i: &Input<FatTree>) -> Result<Rep, String> {
    let mut sched = paper_scheduler(&i.topo);
    let mut stamps = Vec::with_capacity(i.arrivals.len() + 1);
    let start = Instant::now();
    let pulls = Pulls::new(&i.arrivals, &mut stamps);
    let run = simulate(&i.topo, &mut sched, pulls, i.config).map_err(run_error)?;
    let host_ns = start.elapsed().as_nanos() as u64;
    let mut gaps = Vec::with_capacity(i.arrivals.len());
    pull_gaps(&stamps, &mut gaps);
    let mut rep = rep_of(host_ns, i.config.horizon.as_secs(), gaps);
    check_run("simulate", &run, i.arrivals.len(), &mut rep.errors);
    rep.fingerprints
        .push(fingerprint_of(i, |fp| fp.push_run("", &run)));
    Ok(rep)
}

/// The paper run, traced. This is a hand copy of the driver loop inside
/// batch `simulate` (`OnlineFabric` with an unbounded buffer, completions
/// not collected, `step_before` then `offer` per arrival); driving it
/// here exposes the engine's delta counters and settlement mode, which
/// `simulate` hides. The fingerprint check catches a copy whose outputs
/// drift from `simulate`, not one that takes another code path to the
/// same outputs, so the copy must follow any change to that loop.
fn paper_traced(
    i: &Input<FatTree>,
    tracer: &SharedTracer,
    counts: &Rc<RefCell<ProbeCounts>>,
) -> Result<(Rep, EngineData), String> {
    use calls::{FINISH, OFFER, STEP};
    let mut sched = TracedScheduler::new(paper_scheduler(&i.topo), tracer.clone());
    let probe = TracedProbe::new(tracer.clone(), counts.clone());
    let start = Instant::now();
    let root = tracer.borrow_mut().open(RUN);
    let mut online = OnlineFabric::with_probe(&i.topo, &mut sched, i.config, probe)
        .high_watermark(usize::MAX)
        .collect_completions(false);
    let lazy = online.settle_mode().is_lazy();
    let mut in_flight_max = 0;
    for &arrival in &i.arrivals {
        tracer
            .call(STEP, || online.step_before(arrival.time))
            .map_err(run_error)?;
        if online.is_finished() {
            break;
        }
        tracer
            .call(OFFER, || online.offer(arrival))
            .map_err(run_error)?;
        in_flight_max = in_flight_max.max(online.in_flight());
    }
    let delta = online.delta_stats();
    let run = tracer.call(FINISH, || online.finish()).map_err(run_error)?;
    tracer.borrow_mut().close(root);
    let host_ns = start.elapsed().as_nanos() as u64;
    let mut rep = rep_of(host_ns, i.config.horizon.as_secs(), Vec::new());
    check_run("simulate", &run, i.arrivals.len(), &mut rep.errors);
    tracer.call(calls::SUMMARY, || {
        rep.fingerprints
            .push(fingerprint_of(i, |fp| fp.push_run("", &run)))
    });
    let engine = EngineData {
        decide: sched.counts(),
        reschedules: run.reschedules,
        delta: Some(delta),
        settle_lazy: Some(lazy),
        in_flight_max,
        backpressure: 0,
        replicas: None,
    };
    Ok((rep, engine))
}

/// What a streaming run produced besides its [`Rep`].
struct StreamOut {
    rep: Rep,
    reschedules: u64,
    delta: DeltaStats,
    in_flight_max: usize,
    backpressure: u64,
}

/// Feeds the arrivals one at a time into `online`, the way a serving
/// loop does: step strictly before the arrival, drain the completions,
/// offer it; on backpressure, step through the arrival's instant and
/// retry. Each arrival is timed from the start of its handling until
/// `offer` accepts it.
fn stream<S: Scheduler + ?Sized, P: Probe, X: Spans>(
    i: &Input<KAryFatTree>,
    mut online: OnlineFabric<'_, '_, KAryFatTree, S, P>,
    spans: &X,
) -> Result<StreamOut, String> {
    use calls::{DRAIN, FINISH, OFFER, STEP};
    let mut arrival_ns = Vec::with_capacity(i.arrivals.len());
    let (mut offers, mut refused, mut backpressure) = (0u64, 0u64, 0u64);
    let mut streamed = 0usize;
    let mut in_flight_max = 0usize;
    let mut errors = Vec::new();
    let horizon = i.config.horizon;
    let start = Instant::now();
    let (run, delta) = spans.call(RUN, || {
        for &arrival in &i.arrivals {
            let begin = Instant::now();
            loop {
                spans
                    .call(STEP, || online.step_before(arrival.time))
                    .map_err(run_error)?;
                streamed += spans.call(DRAIN, || online.drain_completions()).len();
                offers += 1;
                match spans.call(OFFER, || online.offer(arrival)) {
                    Ok(Accepted::Queued { in_flight }) => {
                        in_flight_max = in_flight_max.max(in_flight);
                        break;
                    }
                    Ok(Accepted::IgnoredAfterHorizon) => {
                        refused += 1;
                        errors.push(format!("flow {} ignored past the horizon", arrival.id));
                        break;
                    }
                    Err(OfferError::Backpressure { .. }) => {
                        refused += 1;
                        backpressure += 1;
                        spans
                            .call(STEP, || online.step_until(arrival.time))
                            .map_err(run_error)?;
                    }
                    Err(e) => {
                        refused += 1;
                        errors.push(format!("flow {} refused: {e}", arrival.id));
                        break;
                    }
                }
            }
            arrival_ns.push(begin.elapsed().as_nanos() as u64);
        }
        spans
            .call(STEP, || online.step_until(horizon))
            .map_err(run_error)?;
        streamed += spans.call(DRAIN, || online.drain_completions()).len();
        let delta = online.delta_stats();
        let run = spans.call(FINISH, || online.finish()).map_err(run_error)?;
        Ok::<_, String>((run, delta))
    })?;
    let host_ns = start.elapsed().as_nanos() as u64;
    let mut rep = rep_of(host_ns, horizon.as_secs(), arrival_ns);
    rep.offers = offers;
    rep.refused = refused;
    rep.errors = errors;
    check_run("online", &run, i.arrivals.len(), &mut rep.errors);
    if streamed != run.completions {
        rep.errors.push(format!(
            "streamed {streamed} completions but the run recorded {}",
            run.completions
        ));
    }
    spans.call(calls::SUMMARY, || {
        rep.fingerprints.push(fingerprint_of(i, |fp| {
            fp.push_run("", &run);
            fp.push("streamed", streamed);
        }))
    });
    Ok(StreamOut {
        rep,
        reschedules: run.reschedules,
        delta,
        in_flight_max,
        backpressure,
    })
}

/// The outputs of the three engines over one arrival set.
struct Legs {
    fair: FabricRun,
    ecmp: FabricRun,
    repflow: RepFlowRun,
}

impl Legs {
    /// Checks the outputs and appends the set's fingerprint to `rep`.
    fn record(&self, i: &Input<KAryFatTree>, rep: &mut Rep) {
        let runs = [
            ("fs", &self.fair),
            ("ecmp", &self.ecmp),
            ("rf", &self.repflow.run),
        ];
        for (label, run) in runs {
            let label = format!("seed {} {label}", i.seed);
            check_run(&label, run, i.arrivals.len(), &mut rep.errors);
        }
        rep.fingerprints.push(fingerprint_of(i, |fp| {
            for (label, run) in runs {
                fp.push_run(&format!("{label}."), run);
            }
            fp.push_replicas("rf.", &self.repflow.stats);
        }));
    }
}

/// The three baseline engines over the same arrivals, for each arrival
/// set in turn. Only the engine runs are timed; each set's outputs are
/// checked and dropped before the next set runs.
fn baselines(inputs: &[Input<KAryFatTree>]) -> Result<Rep, String> {
    let n: usize = inputs.iter().map(|i| i.arrivals.len()).sum();
    let mut rep = rep_of(0, 0.0, Vec::with_capacity(3 * n));
    let mut stamps = Vec::new();
    for i in inputs {
        let start = Instant::now();
        let a = &i.arrivals;
        let fair = simulate_fair_share(&i.topo, Pulls::new(a, &mut stamps), i.config);
        pull_gaps(&stamps, &mut rep.arrival_ns);
        let ecmp = simulate_ecmp(
            &i.topo,
            &mut Srpt::new(),
            Pulls::new(a, &mut stamps),
            i.config,
        );
        pull_gaps(&stamps, &mut rep.arrival_ns);
        let repflow = simulate_repflow(
            &i.topo,
            &mut RepFlow::default(),
            Pulls::new(a, &mut stamps),
            i.config,
        );
        pull_gaps(&stamps, &mut rep.arrival_ns);
        let legs = Legs {
            fair: fair.map_err(run_error)?,
            ecmp: ecmp.map_err(run_error)?,
            repflow: repflow.map_err(run_error)?,
        };
        rep.host_ns += start.elapsed().as_nanos() as u64;
        rep.sim_s += 3.0 * i.config.horizon.as_secs();
        legs.record(i, &mut rep);
    }
    Ok(rep)
}

/// The three baseline engines, traced, for each arrival set in turn
/// under one run span. Each leg gets its own probe counters across the
/// sets; the totals are merged afterwards.
fn baselines_traced(
    inputs: &[Input<KAryFatTree>],
    tracer: &SharedTracer,
    counts: &Rc<RefCell<ProbeCounts>>,
) -> Result<(Rep, EngineData), String> {
    use calls::{ECMP, FAIR_SHARE, REPFLOW};
    let legs: [Rc<RefCell<ProbeCounts>>; 3] = Default::default();
    let probe = |k: usize| TracedProbe::new(tracer.clone(), legs[k].clone());
    let mut sched = TracedScheduler::new(Srpt::new(), tracer.clone());
    let mut all = Vec::with_capacity(inputs.len());
    let start = Instant::now();
    let root = tracer.borrow_mut().open(RUN);
    for i in inputs {
        let arrivals = || i.arrivals.iter().copied();
        let fair = tracer
            .call(FAIR_SHARE, || {
                simulate_fair_share_probed(&i.topo, arrivals(), i.config, probe(0))
            })
            .map_err(run_error)?;
        let ecmp = tracer
            .call(ECMP, || {
                simulate_ecmp_probed(&i.topo, &mut sched, arrivals(), i.config, probe(1))
            })
            .map_err(run_error)?;
        let repflow = tracer
            .call(REPFLOW, || {
                simulate_repflow_probed(
                    &i.topo,
                    &mut RepFlow::default(),
                    arrivals(),
                    i.config,
                    probe(2),
                )
            })
            .map_err(run_error)?;
        all.push(Legs {
            fair,
            ecmp,
            repflow,
        });
    }
    tracer.borrow_mut().close(root);
    let host_ns = start.elapsed().as_nanos() as u64;
    let sim_s: f64 = inputs
        .iter()
        .map(|i| 3.0 * i.config.horizon.as_secs())
        .sum();
    let mut rep = rep_of(host_ns, sim_s, Vec::new());
    tracer.call(calls::SUMMARY, || {
        for (i, legs) in inputs.iter().zip(&all) {
            legs.record(i, &mut rep);
        }
    });
    let mut total = ProbeCounts::default();
    for leg in &legs {
        let c = *leg.borrow();
        total.callbacks += c.callbacks;
        total.arrivals += c.arrivals;
        total.completions += c.completions;
        total.samples += c.samples;
        total.active_max = total.active_max.max(c.active_max);
    }
    *counts.borrow_mut() = total;
    let mut replicas = RepFlowStats::default();
    let mut reschedules = 0;
    for legs in &all {
        let r = &legs.repflow.stats;
        replicas.replicated_flows += r.replicated_flows;
        replicas.replica_wins += r.replica_wins;
        replicas.replica_bytes += r.replica_bytes;
        replicas.winning_replica_bytes += r.winning_replica_bytes;
        replicas.losing_replica_bytes += r.losing_replica_bytes;
        replicas.racing_replica_bytes += r.racing_replica_bytes;
        replicas.cancelled_primary_bytes += r.cancelled_primary_bytes;
        reschedules += legs.fair.reschedules + legs.ecmp.reschedules + legs.repflow.run.reschedules;
    }
    let engine = EngineData {
        decide: sched.counts(),
        reschedules,
        delta: None,
        settle_lazy: None,
        in_flight_max: 0,
        backpressure: 0,
        replicas: Some(replicas),
    };
    Ok((rep, engine))
}
