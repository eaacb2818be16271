//! The benchmark command.
//!
//! ```text
//! perfbench --workload <paper_saturated|scale_stream|baselines> \
//!     [--seed N] [--seconds S] [--trace 0|1] [--expected FILE]
//! ```
//!
//! Prints one line per metric, then, as its last line, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the per-layer ones,
//! and the spans of the reported repetition go to `.bench_trace/`. Exits
//! non-zero when any output check fails.

use perfbench::fingerprint::{self, Fingerprint};
use perfbench::sys::{calibration_ms, calibration_pass_ms, median, percentile, proc_status_bytes};
use perfbench::trace::{LayerTime, CALLBACK, DECIDE, RUN};
use perfbench::workloads::{calls, set_seed, Bench, Rep, TracedData, Workload, DEFAULT_SEED};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Fingerprints committed for the default and held-out seeds.
const EXPECTED: &str = include_str!("../expected.txt");

/// Set-ups timed after each untraced repetition; `setup_s` is the median
/// over the run.
const SETUPS_PER_REP: usize = 3;

/// Set-ups timed before a traced run.
const TRACE_SETUPS: usize = 9;

/// A calibration pass (`calibration_pass_ms`) on the machine the
/// benchmark was written on, a shared 2-core VM, in its quiet state
/// (README.md). The end-to-end times are scaled to it: that machine's
/// speed moves by up to 2x for minutes at a time, and scaling each
/// repetition by a pass taken right after it keeps most of that out of
/// the figures.
const REFERENCE_PASS_MS: f64 = 8.0;

/// Untraced repetitions per run, at least.
const MIN_REPS: usize = 3;

/// No repetition starts after this much measuring, so that a much
/// slower program still exits in time. Below it the repetition count is
/// fixed by `--seconds` alone.
const MAX_MEASURE: Duration = Duration::from_secs(140);

/// Where the traced run writes its spans.
const TRACE_DIR: &str = ".bench_trace";

/// Environment knobs that would switch the engines off their production
/// path.
const FORBIDDEN_ENV: [&str; 3] = ["BASRPT_SETTLE", "BASRPT_SHARDS", "BASRPT_ENGINE"];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    expected: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::PaperSaturated,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        expected: None,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad(&"unknown workload"))?)
            }
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--expected" => args.expected = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Op accounting and output checks across repetitions.
struct Checks {
    workload: Workload,
    /// The committed fingerprints (`expected.txt` or `--expected`).
    expected: String,
    reference: Option<Vec<(u64, Fingerprint)>>,
    attempted: u64,
    failed: u64,
}

impl Checks {
    /// Counts one repetition: one op for the run, one per offer. A
    /// refused offer, a problem in the outputs or an arrival set whose
    /// fingerprint differs from the committed one (or, for a seed without
    /// one, from the first repetition's) counts as failed.
    fn record(&mut self, rep: &Rep) {
        self.attempted += 1 + rep.offers;
        self.failed += rep.refused;
        let mut problems = rep.errors.clone();
        let reference = self.reference.get_or_insert_with(|| {
            for (seed, fp) in &rep.fingerprints {
                println!("fingerprint of seed {seed}: {}", fp.render());
            }
            rep.fingerprints.clone()
        });
        if reference.len() != rep.fingerprints.len() {
            problems.push("repetitions covered different arrival sets".into());
        }
        for ((seed, fp), (_, first)) in rep.fingerprints.iter().zip(reference.iter()) {
            match fingerprint::lookup(&self.expected, self.workload.name(), *seed) {
                Some(expected) => problems.extend(
                    fp.diff(expected)
                        .into_iter()
                        .map(|p| format!("seed {seed} {p}")),
                ),
                None if fp != first => problems.push(format!(
                    "seed {seed}: fingerprint differs between repetitions"
                )),
                None => {}
            }
        }
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                println!("check failed: {p}");
            }
        }
    }

    fn engine_error(&mut self, e: &str) {
        self.attempted += 1;
        self.failed += 1;
        println!("check failed: {e}");
    }
}

/// Metrics in output order: name, value, unit.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name.to_string(), value, unit));
    }

    fn json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (k, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if k == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Set-up wall times, in seconds.
#[derive(Default)]
struct Setups {
    total_s: Vec<f64>,
    gen_s: Vec<f64>,
}

impl Setups {
    /// Builds the workload once with `sets` arrival sets, recording how
    /// long it took, multiplied by `scale` (see [`machine_scale`]).
    fn run(&mut self, w: Workload, seed: u64, sets: usize, scale: f64) -> Result<Bench, String> {
        let (bench, t) = Bench::setup(w, seed, sets)?;
        self.total_s.push(secs(t.total_ns) * scale);
        self.gen_s.push(secs(t.gen_ns) * scale);
        Ok(bench)
    }
}

/// The factor that turns a time taken now into one on the machine the
/// benchmark was written on in a quiet state: [`REFERENCE_PASS_MS`] over
/// a calibration pass taken now.
fn machine_scale() -> f64 {
    REFERENCE_PASS_MS / calibration_pass_ms()
}

/// Units of work one run makes, each costing `unit_cost` untraced
/// repetitions over one arrival set: as many as `seconds` holds at the
/// workload's nominal repetition time, at least `least`. The count
/// depends on `--seconds` alone, not on how fast the program runs, so
/// the parent and a change take their figures over the same number of
/// repetitions.
fn planned_reps(w: Workload, seconds: f64, unit_cost: f64, least: usize) -> usize {
    ((seconds / (w.nominal_rep_s() * unit_cost)).round() as usize).max(least)
}

/// The untraced workload's times, each the median over the run's
/// repetitions of that repetition's figure scaled to the quiet machine.
struct Untraced {
    host_s_per_sim_s: f64,
    offer_p50_us: f64,
    offer_p99_us: f64,
    arrivals: usize,
    reps: usize,
    peak_bytes: u64,
}

/// Repeats the untraced workload `reps` times (fewer only if
/// [`MAX_MEASURE`] runs out). A calibration pass follows each
/// repetition and scales its figures (see [`machine_scale`]); the
/// workload is then built [`SETUPS_PER_REP`] times under the same scale,
/// so that set-up is sampled across the whole run. Peak memory is read
/// before the first of those, so it covers one set-up and one run.
fn measure_untraced(
    bench: &Bench,
    reps: usize,
    checks: &mut Checks,
    setups: &mut Setups,
    (w, seed, sets): (Workload, u64, usize),
) -> Result<Option<Untraced>, String> {
    let start = Instant::now();
    let (mut raw, mut scales) = (Vec::new(), Vec::new());
    let (mut rates, mut p50s, mut p99s) = (Vec::new(), Vec::new(), Vec::new());
    let mut arrivals = None;
    let mut peak_bytes = 0;
    while rates.len() < reps && (rates.is_empty() || start.elapsed() < MAX_MEASURE) {
        let mut rep = match bench.run() {
            Ok(rep) => rep,
            Err(e) => {
                checks.engine_error(&e);
                return Ok(None);
            }
        };
        let scale = machine_scale();
        checks.record(&rep);
        if *arrivals.get_or_insert(rep.arrival_ns.len()) != rep.arrival_ns.len() {
            return Err("repetitions handled different numbers of arrivals".into());
        }
        let rate = rep.host_ns as f64 * 1e-9 / rep.sim_s;
        raw.push(rate);
        scales.push(scale);
        rates.push(rate * scale);
        let mut us = |p| percentile(&mut rep.arrival_ns, p).map_or(0.0, |ns| ns as f64 * 1e-3);
        p50s.push(us(50.0) * scale);
        p99s.push(us(99.0) * scale);
        if rates.len() == 1 {
            peak_bytes = proc_status_bytes("VmHWM").ok_or("no VmHWM in /proc/self/status")?;
        }
        drop(rep);
        for _ in 0..SETUPS_PER_REP {
            std::hint::black_box(setups.run(w, seed, sets, scale)?);
        }
    }
    let show = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("raw host_s_per_sim_s of each repetition: {}", show(&raw));
    println!("machine scale after each repetition: {}", show(&scales));
    Ok(Some(Untraced {
        host_s_per_sim_s: median(&rates),
        offer_p50_us: median(&p50s),
        offer_p99_us: median(&p99s),
        arrivals: arrivals.unwrap_or(0),
        reps: rates.len(),
        peak_bytes,
    }))
}

/// The traced run: its fastest traced repetition and the tracing
/// overhead.
struct Traced {
    rep: Rep,
    overhead_ratio: f64,
    pairs: usize,
}

/// Runs `pairs` pairs of an untraced and a traced repetition (fewer only
/// if [`MAX_MEASURE`] runs out). The two halves of a pair see the same
/// machine state, so the median over pairs of traced over untraced host
/// time is the tracing overhead.
fn measure_traced(bench: &Bench, pairs: usize, checks: &mut Checks) -> Option<Traced> {
    let start = Instant::now();
    let mut ratios = Vec::new();
    let mut best: Option<Rep> = None;
    while ratios.len() < pairs && (ratios.is_empty() || start.elapsed() < MAX_MEASURE) {
        let (plain, traced) = match (bench.run(), bench.run_traced()) {
            (Ok(plain), Ok(traced)) => (plain, traced),
            (Err(e), _) | (_, Err(e)) => {
                checks.engine_error(&e);
                break;
            }
        };
        checks.record(&plain);
        checks.record(&traced);
        ratios.push(traced.host_ns as f64 / plain.host_ns as f64);
        if best.as_ref().is_none_or(|b| traced.host_ns < b.host_ns) {
            best = Some(traced);
        }
    }
    best.map(|rep| Traced {
        rep,
        overhead_ratio: median(&ratios),
        pairs: ratios.len(),
    })
}

fn secs(ns: u64) -> f64 {
    ns as f64 * 1e-9
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The per-layer metrics of one traced repetition. Returns the problems
/// found in the trace itself (self times not adding up to the run span).
fn layer_metrics(
    m: &mut Metrics,
    data: &TracedData,
    gen_s: f64,
    arrivals: usize,
    overhead_ratio: f64,
    grown_bytes: f64,
) -> Vec<String> {
    let profile = data.tracer.profile();
    let get = |name: &str| profile.get(name).copied().unwrap_or(LayerTime::default());
    let run = get(RUN);
    let decide = get(DECIDE);
    let callback = get(CALLBACK);
    let fabric_self: u64 = profile
        .iter()
        .filter(|(name, _)| **name == RUN || name.starts_with("dcn-fabric."))
        .map(|(_, t)| t.self_ns)
        .sum();
    let mut problems = Vec::new();
    let in_run: u64 = profile
        .iter()
        .filter(|(name, _)| **name != calls::SUMMARY)
        .map(|(_, t)| t.self_ns)
        .sum();
    if run.calls != 1 || in_run != run.total_ns {
        problems.push(format!(
            "trace: self times sum to {in_run} ns over a {} ns run span",
            run.total_ns
        ));
    }
    if fabric_self + decide.total_ns + callback.total_ns != run.total_ns {
        problems.push("trace: decisions or callbacks nest inside each other".into());
    }
    let mut decide_ns = data.tracer.durations(DECIDE);
    let p50 = percentile(&mut decide_ns, 50.0).unwrap_or(0);
    let p99 = percentile(&mut decide_ns, 99.0).unwrap_or(0);
    let d = data.engine.decide;
    let calls_f = d.calls as f64;

    m.put("dcn-workload.gen_s", gen_s, "s");
    m.put("dcn-workload.arrivals", arrivals as f64, "count");

    m.put("basrpt-core.decide_calls", calls_f, "count");
    m.put("basrpt-core.decide_s", secs(decide.total_ns), "s");
    m.put(
        "basrpt-core.decide_share",
        ratio(decide.total_ns as f64, run.total_ns as f64),
        "ratio",
    );
    m.put("basrpt-core.decide_p50_us", p50 as f64 * 1e-3, "us");
    m.put("basrpt-core.decide_p99_us", p99 as f64 * 1e-3, "us");
    m.put(
        "basrpt-core.voqs_per_decide",
        ratio(d.voqs as f64, calls_f),
        "count",
    );
    m.put(
        "basrpt-core.flows_per_decide",
        ratio(d.flows as f64, calls_f),
        "count",
    );
    m.put(
        "basrpt-core.matched_per_decide",
        ratio(d.matched as f64, calls_f),
        "count",
    );

    let events = data.probe.events() as f64;
    let delta = data.engine.delta.unwrap_or_default();
    let delta_resched = delta.reschedules as f64;
    m.put("dcn-fabric.self_s", secs(fabric_self), "s");
    m.put(
        "dcn-fabric.self_ns_per_event",
        ratio(fabric_self as f64, events),
        "ns",
    );
    m.put("dcn-fabric.events", events, "count");
    m.put(
        "dcn-fabric.reschedules",
        data.engine.reschedules as f64,
        "count",
    );
    m.put(
        "dcn-fabric.delta_per_reschedule",
        ratio((delta.entered + delta.left) as f64, delta_resched),
        "count",
    );
    m.put(
        "dcn-fabric.kept_per_reschedule",
        ratio(delta.kept as f64, delta_resched),
        "count",
    );
    m.put(
        "dcn-fabric.settle_lazy",
        f64::from(u8::from(data.engine.settle_lazy == Some(true))),
        "bool",
    );
    m.put(
        "dcn-fabric.active_flows_max",
        data.probe.active_max as f64,
        "count",
    );

    m.put("dcn-fabric.step_s", secs(get(calls::STEP).total_ns), "s");
    m.put("dcn-fabric.offer_s", secs(get(calls::OFFER).total_ns), "s");
    m.put("dcn-fabric.drain_s", secs(get(calls::DRAIN).total_ns), "s");
    m.put(
        "dcn-fabric.backpressure",
        data.engine.backpressure as f64,
        "count",
    );
    m.put(
        "dcn-fabric.in_flight_max",
        data.engine.in_flight_max as f64,
        "count",
    );

    let r = data.engine.replicas.unwrap_or_default();
    m.put(
        "dcn-fabric.fair_share_s",
        secs(get(calls::FAIR_SHARE).total_ns),
        "s",
    );
    m.put("dcn-fabric.ecmp_s", secs(get(calls::ECMP).total_ns), "s");
    m.put(
        "dcn-fabric.repflow_s",
        secs(get(calls::REPFLOW).total_ns),
        "s",
    );
    m.put(
        "dcn-fabric.replica_win_ratio",
        ratio(r.replica_wins as f64, r.replicated_flows as f64),
        "ratio",
    );
    m.put(
        "dcn-fabric.replica_waste_ratio",
        ratio(
            (r.losing_replica_bytes + r.cancelled_primary_bytes).as_f64(),
            r.replica_bytes.as_f64(),
        ),
        "ratio",
    );

    m.put("dcn-probe.callbacks", data.probe.callbacks as f64, "count");
    m.put("dcn-probe.callback_s", secs(callback.total_ns), "s");
    m.put("dcn-probe.overhead_ratio", overhead_ratio, "ratio");

    m.put(
        "dcn-metrics.summary_s",
        secs(get(calls::SUMMARY).total_ns),
        "s",
    );

    m.put(
        "mem.bytes_per_active_flow",
        ratio(grown_bytes, data.probe.active_max as f64),
        "B",
    );
    problems
}

fn run(args: &Args) -> Result<bool, String> {
    if let Some(var) = FORBIDDEN_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        return Err(format!(
            "{var} is set: it switches the engines off their production path; unset it"
        ));
    }
    let w = args.workload;
    let expected_text = match &args.expected {
        Some(path) => std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?,
        None => EXPECTED.to_string(),
    };
    // The traced run covers the seed's own arrival set alone: spans over
    // every set would take hundreds of megabytes.
    let sets = if args.trace { 1 } else { w.arrival_sets() };
    let committed = (0..sets)
        .filter(|&set| {
            fingerprint::lookup(&expected_text, w.name(), set_seed(args.seed, set)).is_some()
        })
        .count();
    println!(
        "workload {} seed {}: {sets} arrival set(s), {committed} with a committed fingerprint",
        w.name(),
        args.seed,
    );
    let calibration_start = calibration_ms();

    // The end-to-end times are scaled to the quiet machine; the
    // per-layer ones are raw.
    let scale = if args.trace { 1.0 } else { machine_scale() };
    let mut setups = Setups::default();
    let mut bench = setups.run(w, args.seed, sets, scale)?;
    if args.trace {
        // The traced run times its set-ups here, none later: memory
        // growth is measured from this point.
        for _ in 1..TRACE_SETUPS {
            drop(bench);
            bench = setups.run(w, args.seed, sets, scale)?;
        }
    }
    let rss_after_setup = proc_status_bytes("VmRSS").ok_or("no VmRSS in /proc/self/status")?;

    let mut checks = Checks {
        workload: w,
        expected: expected_text,
        reference: None,
        attempted: 0,
        failed: 0,
    };
    let mut metrics = Metrics::default();
    let mut trace_ok = true;
    if !args.trace {
        let reps = planned_reps(w, args.seconds, sets as f64, MIN_REPS);
        let plain = measure_untraced(&bench, reps, &mut checks, &mut setups, (w, args.seed, sets))?;
        if let Some(u) = &plain {
            println!(
                "{} of {reps} planned repetitions, {} arrivals each; times are medians over them",
                u.reps, u.arrivals
            );
            metrics.put("host_s_per_sim_s", u.host_s_per_sim_s, "s/s");
            metrics.put("offer_p50_us", u.offer_p50_us, "us");
            metrics.put("offer_p99_us", u.offer_p99_us, "us");
            metrics.put("peak_rss_mb", u.peak_bytes as f64 / (1024.0 * 1024.0), "MB");
        }
        println!("setup_s over {} set-ups", setups.total_s.len());
        metrics.put("setup_s", median(&setups.total_s), "s");
    } else {
        // One untraced repetition first: memory growth is measured before
        // any span takes memory.
        match bench.run() {
            Ok(rep) => checks.record(&rep),
            Err(e) => checks.engine_error(&e),
        }
        let peak = proc_status_bytes("VmHWM").ok_or("no VmHWM in /proc/self/status")?;
        // A pair costs about two untraced repetitions and the tracing.
        let pairs = planned_reps(w, args.seconds, 2.2, 1);
        if let Some(t) = measure_traced(&bench, pairs, &mut checks) {
            let data = t.rep.traced.as_ref().expect("traced repetition");
            println!(
                "{} of {pairs} planned untraced/traced pairs; reporting the fastest traced repetition",
                t.pairs
            );
            let grown = peak.saturating_sub(rss_after_setup) as f64;
            let problems = layer_metrics(
                &mut metrics,
                data,
                median(&setups.gen_s),
                bench.arrivals(),
                t.overhead_ratio,
                grown,
            );
            if let Some((plain_lazy, traced_lazy)) = bench.settle_modes() {
                if plain_lazy != traced_lazy || data.engine.settle_lazy != Some(traced_lazy) {
                    trace_ok = false;
                    println!("check failed: traced run settles lazily = {traced_lazy}, untraced = {plain_lazy}");
                }
            }
            for p in &problems {
                println!("check failed: {p}");
            }
            trace_ok &= problems.is_empty();
            std::fs::create_dir_all(TRACE_DIR).map_err(|e| e.to_string())?;
            let path = Path::new(TRACE_DIR).join(format!("{}.csv", w.name()));
            data.tracer.write_csv(&path).map_err(|e| e.to_string())?;
            println!(
                "spans: {} written to {}",
                data.tracer.spans().len(),
                path.display()
            );
        }
    }
    println!(
        "calibration: {calibration_start:.3} ms at start, {:.3} ms at end \
         (a fixed sorting kernel; compares machines, not a metric)",
        calibration_ms()
    );
    let correct = trace_ok && checks.failed == 0 && checks.attempted > 0;
    for (name, value, unit) in &metrics.0 {
        println!("{name} = {value} {unit}");
    }
    println!("ops = {}, ops_failed = {}", checks.attempted, checks.failed);
    println!(
        "{}",
        metrics.json(correct, checks.attempted.max(1), checks.failed)
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
