//! In-memory span tracing around calls into the simulator's crates.
//!
//! A [`Tracer`] records one [`Span`] per call the benchmark makes into a
//! layer (name, start, end, parent). Spans are kept in memory and written
//! out once, when the run ends. The [`Spans`] trait lets one loop serve
//! both modes: [`NoSpans`] compiles to direct calls, so the untraced run
//! pays nothing for the hooks.

use basrpt_core::{FlowTable, Schedule, Scheduler, ViewAdjust};
use dcn_probe::{ArrivalEvent, CompletionEvent, DecisionEvent, DrainEvent, Probe, SampleEvent};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

/// Span name of the root span around one workload repetition.
pub const RUN: &str = "run";
/// Span name of one scheduling decision.
pub const DECIDE: &str = "basrpt-core.decide";
/// Span name of one probe callback.
pub const CALLBACK: &str = "dcn-probe.callback";

/// One timed call into a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified call name, e.g. `dcn-fabric.offer`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
}

impl Span {
    /// The span's wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Totals of all spans sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Number of spans.
    pub calls: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of span durations minus the time their children cover.
    pub self_ns: u64,
}

/// A single-threaded span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: u32) {
        let end_ns = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals. Spans of one thread nest properly, so a span's
    /// children are disjoint and their durations sum to the time they
    /// cover.
    pub fn profile(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p as usize] += span.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(child_ns) {
            let t = out.entry(span.name).or_default();
            t.calls += 1;
            t.total_ns += span.duration_ns();
            t.self_ns += span
                .duration_ns()
                .checked_sub(covered)
                .expect("children lie inside their parent span");
        }
        out
    }

    /// Durations of every span named `name`, in nanoseconds.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// Writes the spans as CSV: `id,name,start_ns,end_ns,parent`.
    pub fn write_csv(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,name,start_ns,end_ns,parent")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            writeln!(out, "{id},{},{},{},{parent}", s.name, s.start_ns, s.end_ns)?;
        }
        out.flush()
    }
}

/// A tracer shared between the benchmark loop, the scheduler wrapper and
/// the probe.
pub type SharedTracer = Rc<RefCell<Tracer>>;

/// Wraps calls into a layer, in a span or not at all.
pub trait Spans {
    /// Runs `f` as one call named `name`.
    fn call<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R;
}

/// No spans: every call runs directly.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoSpans;

impl Spans for NoSpans {
    #[inline(always)]
    fn call<R>(&self, _name: &'static str, f: impl FnOnce() -> R) -> R {
        f()
    }
}

impl Spans for SharedTracer {
    fn call<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.borrow_mut().open(name);
        let out = f();
        self.borrow_mut().close(id);
        out
    }
}

/// Decision-layer counters, read outside the timed spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecideCounts {
    /// Scheduler consultations.
    pub calls: u64,
    /// Sum over calls of the non-empty VOQs the decision ranked (Q).
    pub voqs: u64,
    /// Sum over calls of the active flows in the table.
    pub flows: u64,
    /// Sum over calls of the flows the decision matched.
    pub matched: u64,
}

/// A [`Scheduler`] that times every decision in a [`DECIDE`] span and
/// forwards every trait method, so the engine picks the same settlement
/// mode and the same decision path as for the bare scheduler.
pub struct TracedScheduler<S> {
    inner: S,
    tracer: SharedTracer,
    counts: DecideCounts,
}

impl<S: Scheduler> TracedScheduler<S> {
    /// Wraps `inner`, recording into `tracer`.
    pub fn new(inner: S, tracer: SharedTracer) -> Self {
        TracedScheduler {
            inner,
            tracer,
            counts: DecideCounts::default(),
        }
    }

    /// The counters so far.
    pub fn counts(&self) -> DecideCounts {
        self.counts
    }

    fn before(&mut self, table: &FlowTable) {
        self.counts.calls += 1;
        self.counts.voqs += table.num_nonempty_voqs() as u64;
        self.counts.flows += table.len() as u64;
    }
}

impl<S: Scheduler> Scheduler for TracedScheduler<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn schedule(&mut self, table: &FlowTable) -> Schedule {
        self.before(table);
        let schedule = self.tracer.call(DECIDE, || self.inner.schedule(table));
        self.counts.matched += schedule.len() as u64;
        schedule
    }

    fn schedule_validity(&self, table: &FlowTable, schedule: &Schedule) -> u64 {
        self.inner.schedule_validity(table, schedule)
    }

    fn supports_lazy_views(&self) -> bool {
        self.inner.supports_lazy_views()
    }

    fn schedule_adjusted(&mut self, table: &FlowTable, adjust: &dyn ViewAdjust) -> Schedule {
        self.before(table);
        let schedule = self
            .tracer
            .call(DECIDE, || self.inner.schedule_adjusted(table, adjust));
        self.counts.matched += schedule.len() as u64;
        schedule
    }
}

/// Event counts seen by a [`TracedProbe`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeCounts {
    /// Callbacks of any kind.
    pub callbacks: u64,
    /// Arrival callbacks.
    pub arrivals: u64,
    /// Completion callbacks.
    pub completions: u64,
    /// Sample callbacks.
    pub samples: u64,
    /// Flows arrived and not yet completed, at most.
    pub active_max: u64,
    active: u64,
}

impl ProbeCounts {
    /// Engine events: arrivals, completions and sampling instants.
    pub fn events(&self) -> u64 {
        self.arrivals + self.completions + self.samples
    }
}

/// A probe that counts events, times each callback in a [`CALLBACK`] span
/// and asks the engine for nothing [`dcn_probe::NoProbe`] does not: no
/// decision timing, no slot or flow fidelity, so the engine keeps lazy
/// settlement.
pub struct TracedProbe {
    tracer: SharedTracer,
    counts: Rc<RefCell<ProbeCounts>>,
}

impl TracedProbe {
    /// A probe recording into `tracer` and `counts`.
    pub fn new(tracer: SharedTracer, counts: Rc<RefCell<ProbeCounts>>) -> Self {
        TracedProbe { tracer, counts }
    }

    fn record(&self, f: impl FnOnce(&mut ProbeCounts)) {
        self.tracer.call(CALLBACK, || {
            let mut c = self.counts.borrow_mut();
            c.callbacks += 1;
            f(&mut c);
        });
    }
}

impl Probe for TracedProbe {
    fn wants_decision_timing(&self) -> bool {
        false
    }

    fn wants_slot_fidelity(&self) -> bool {
        false
    }

    fn wants_flow_fidelity(&self) -> bool {
        false
    }

    fn on_arrival(&mut self, _event: &ArrivalEvent) {
        self.record(|c| {
            c.arrivals += 1;
            c.active += 1;
            c.active_max = c.active_max.max(c.active);
        });
    }

    fn on_drain(&mut self, _event: &DrainEvent) {
        self.record(|_| {});
    }

    fn on_completion(&mut self, _event: &CompletionEvent) {
        self.record(|c| {
            c.completions += 1;
            c.active -= 1;
        });
    }

    fn on_decision(&mut self, _event: &DecisionEvent<'_>) {
        self.record(|_| {});
    }

    fn on_sample(&mut self, _event: &SampleEvent<'_>) {
        self.record(|c| c.samples += 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_partition_the_root() {
        let tracer: SharedTracer = Rc::new(RefCell::new(Tracer::new()));
        tracer.call(RUN, || {
            tracer.call("a", || tracer.call(DECIDE, || std::hint::black_box(1)));
            tracer.call(DECIDE, || std::hint::black_box(2));
        });
        let t = tracer.borrow();
        let profile = t.profile();
        let root = profile[RUN];
        let self_sum: u64 = profile.values().map(|l| l.self_ns).sum();
        assert_eq!(self_sum, root.total_ns);
        assert_eq!(profile[DECIDE].calls, 2);
        assert_eq!(t.spans()[2].parent, Some(1));
        assert_eq!(t.spans()[3].parent, Some(0));
    }
}
