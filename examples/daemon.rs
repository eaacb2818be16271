//! Streaming scheduler daemon: arrivals in, JSONL completions out.
//!
//! Reads whitespace-separated flow arrivals from a file (or stdin with
//! `-`), feeds them one at a time into the step-able [`OnlineFabric`]
//! engine — honoring its backpressure — and streams every completion to
//! stdout as one JSON line in the `dcn-probe` trace schema:
//!
//! ```text
//! {"event":"completion","t":0.0012,"flow":3,"src":0,"dst":1,"size":80000,"fct":0.0012}
//! ```
//!
//! Input format (one arrival per line, `#` comments and blank lines
//! ignored; times in seconds, finite and non-decreasing; class optional).
//! An arrival at or past the horizon is counted as ignored; reading goes
//! on, so every parsed line is counted as offered or ignored:
//!
//! ```text
//! # time  src  dst  size_bytes  [query|background]
//! 0.000   0    1    1250000
//! 0.0001  2    1    80000       query
//! ```
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example daemon -- flows.txt [--validate]
//! cat flows.txt | cargo run --release --example daemon -- -
//! ```
//!
//! `--validate` re-parses every emitted line with the probe crate's own
//! `parse_line` before writing it and exits non-zero on any schema
//! violation — `make daemon-smoke` uses this as the streaming-schema gate.
//!
//! Environment knobs:
//!
//! | Variable | Default | Meaning |
//! |----------|---------|---------|
//! | `BASRPT_WATERMARK` | 65536 | in-flight arrival high-watermark |
//! | `BASRPT_HORIZON_MS` | 1000 | simulated horizon in milliseconds |
//! | `BASRPT_SCHED` | `fast-basrpt` | discipline: `srpt` or `fast-basrpt` |
//!
//! The run summary goes to stderr so stdout stays a clean JSONL stream.

use basrpt::fabric::OfferError;
use basrpt::prelude::*;
use basrpt::probe::jsonl::parse_line;
use std::error::Error;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Parses one input line into an arrival, or `None` for blanks/comments.
fn parse_arrival(line: &str, id: u64, num: usize) -> Result<Option<FlowArrival>, String> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let mut fields = line.split_whitespace();
    let mut next = |what: &str| {
        fields
            .next()
            .ok_or_else(|| format!("line {num}: missing {what}"))
    };
    let time: f64 = next("time")?
        .parse()
        .map_err(|e| format!("line {num}: bad time: {e}"))?;
    if time.is_infinite() {
        return Err(format!(
            "line {num}: bad time: time must be finite, got {time}"
        ));
    }
    let time = SimTime::try_from_secs(time).map_err(|e| format!("line {num}: bad time: {e}"))?;
    let src: u32 = next("src")?
        .parse()
        .map_err(|e| format!("line {num}: bad src: {e}"))?;
    let dst: u32 = next("dst")?
        .parse()
        .map_err(|e| format!("line {num}: bad dst: {e}"))?;
    let size: u64 = next("size")?
        .parse()
        .map_err(|e| format!("line {num}: bad size: {e}"))?;
    let class = match fields.next() {
        None | Some("background") => FlowClass::Background,
        Some("query") => FlowClass::Query,
        Some(other) => return Err(format!("line {num}: unknown class {other:?}")),
    };
    if let Some(extra) = fields.next() {
        return Err(format!("line {num}: trailing field {extra:?}"));
    }
    Ok(Some(FlowArrival {
        id: FlowId::new(id),
        time,
        voq: Voq::new(HostId::new(src), HostId::new(dst)),
        size: Bytes::new(size),
        class,
    }))
}

/// Formats one completion in the `dcn-probe` JSONL completion schema.
fn completion_line(buf: &mut String, c: &basrpt::fabric::CompletionRecord) {
    buf.clear();
    let _ = write!(
        buf,
        "{{\"event\":\"completion\",\"t\":{:?},\"flow\":{},\"src\":{},\"dst\":{},\"size\":{},\"fct\":{:?}}}",
        c.time.as_secs(),
        c.flow.raw(),
        c.voq.src().index(),
        c.voq.dst().index(),
        c.size.as_u64(),
        c.fct.as_secs(),
    );
}

fn emit_completions(
    online: &mut OnlineFabric<'_, '_, FatTree, dyn Scheduler>,
    out: &mut impl Write,
    buf: &mut String,
    validate: bool,
    emitted: &mut u64,
) -> Result<(), Box<dyn Error>> {
    for completion in online.drain_completions() {
        completion_line(buf, &completion);
        if validate {
            parse_line(buf).map_err(|e| format!("emitted line failed validation: {e}"))?;
        }
        out.write_all(buf.as_bytes())?;
        out.write_all(b"\n")?;
        *emitted += 1;
    }
    Ok(())
}

/// What [`serve`] did with its input.
#[derive(Default)]
struct Tally {
    /// Arrivals queued into the engine.
    offered: u64,
    /// Arrivals at or past the horizon, counted but never simulated.
    ignored: u64,
    /// Completion lines written.
    emitted: u64,
}

/// Feeds every arrival line of `input` into `online`, streaming
/// completions to `out`, then runs the clock out to `horizon`. Every
/// parsed arrival is counted as offered or ignored: one at or past the
/// horizon is ignored without stepping the engine to the horizon, so the
/// lines after it are still read and counted.
fn serve(
    input: impl BufRead,
    online: &mut OnlineFabric<'_, '_, FatTree, dyn Scheduler>,
    horizon: SimTime,
    out: &mut impl Write,
    validate: bool,
) -> Result<Tally, Box<dyn Error>> {
    let mut buf = String::with_capacity(128);
    let mut tally = Tally::default();
    let mut next_id = 0u64;

    for (num, line) in input.lines().enumerate() {
        let line = line?;
        let Some(arrival) = parse_arrival(&line, next_id, num + 1)? else {
            continue;
        };
        next_id += 1;
        loop {
            // Never step to the horizon here: the engine would finish and
            // refuse the rest of the input. `offer` itself counts an
            // arrival at or past the horizon as ignored.
            online.step_before(arrival.time.min(horizon))?;
            emit_completions(online, out, &mut buf, validate, &mut tally.emitted)?;
            match online.offer(arrival) {
                Ok(basrpt::fabric::Accepted::Queued { .. }) => {
                    tally.offered += 1;
                    break;
                }
                Ok(basrpt::fabric::Accepted::IgnoredAfterHorizon) => {
                    tally.ignored += 1;
                    break;
                }
                Err(OfferError::Backpressure { .. }) => {
                    // The buffer is full of same-instant arrivals; drain
                    // them through the admission path and retry.
                    online.step_until(arrival.time)?;
                    emit_completions(online, out, &mut buf, validate, &mut tally.emitted)?;
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    // Input exhausted: run out the clock and flush the completion tail.
    online.step_until(horizon)?;
    emit_completions(online, out, &mut buf, validate, &mut tally.emitted)?;
    Ok(tally)
}

fn main() -> Result<(), Box<dyn Error>> {
    let mut path = None;
    let mut validate = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--validate" => validate = true,
            other if path.is_none() => path = Some(other.to_string()),
            other => return Err(format!("unexpected argument {other:?}").into()),
        }
    }
    let path = path.ok_or("usage: daemon <flows-file|-> [--validate]")?;
    let input: Box<dyn BufRead> = if path == "-" {
        Box::new(BufReader::new(io::stdin()))
    } else {
        Box::new(BufReader::new(File::open(&path)?))
    };

    let horizon = SimTime::from_millis(env_f64("BASRPT_HORIZON_MS", 1000.0));
    let watermark = env_usize("BASRPT_WATERMARK", 65_536);
    let topo = FatTree::paper_topology(); // 144 hosts, 12 racks, 10 Gbps edge
    let sched_name = std::env::var("BASRPT_SCHED").unwrap_or_else(|_| "fast-basrpt".into());
    let mut sched: Box<dyn Scheduler> = match sched_name.as_str() {
        "srpt" => Box::new(Srpt::new()),
        "fast-basrpt" => Box::new(FastBasrpt::new(
            2500.0 * 8.0 / topo.num_hosts() as f64,
            topo.num_hosts() as usize,
        )),
        other => return Err(format!("unknown BASRPT_SCHED {other:?}").into()),
    };
    let config = SimConfig::builder().horizon(horizon).build();
    let mut online = OnlineFabric::new(&topo, sched.as_mut(), config).high_watermark(watermark);

    let stdout = io::stdout();
    let mut out = BufWriter::new(stdout.lock());
    let tally = serve(input, &mut online, horizon, &mut out, validate)?;
    out.flush()?;
    let run = online.finish()?;

    eprintln!(
        "daemon: {} offered, {} ignored (past horizon), {} completions streamed, \
         {} flows left in fabric at t = {} s ({} decisions, scheduler {})",
        tally.offered,
        tally.ignored,
        tally.emitted,
        run.leftover_flows,
        run.horizon.as_secs(),
        run.reschedules,
        sched_name,
    );
    if tally.emitted != run.completions as u64 {
        return Err(format!(
            "streamed {} completions but the run recorded {}",
            tally.emitted, run.completions
        )
        .into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bad_arrival_times_are_errors_not_panics() {
        for time in ["nan", "-1"] {
            let err = parse_arrival(&format!("{time} 0 1 1000"), 0, 7).unwrap_err();
            assert!(
                err.starts_with("line 7: bad time: time must be >= 0"),
                "{err}"
            );
        }
        let ok = parse_arrival("0.5 0 1 1000 query", 3, 1).unwrap().unwrap();
        assert_eq!(
            (ok.id, ok.time),
            (FlowId::new(3), SimTime::from_millis(500.0))
        );
        assert_eq!(parse_arrival("  # comment", 0, 1), Ok(None));
    }

    #[test]
    fn non_finite_arrival_times_are_line_numbered_errors() {
        for time in ["inf", "+inf", "-inf", "infinity"] {
            let err = parse_arrival(&format!("{time} 0 1 1000"), 0, 4).unwrap_err();
            assert!(err.starts_with("line 4: bad time: "), "{time}: {err}");
        }
    }

    #[test]
    fn arrivals_past_the_horizon_are_counted_and_later_lines_still_read() {
        let topo = FatTree::paper_topology();
        let mut sched: Box<dyn Scheduler> = Box::new(Srpt::new());
        let horizon = SimTime::from_millis(1.0);
        let config = SimConfig::builder().horizon(horizon).build();
        let mut online = OnlineFabric::new(&topo, sched.as_mut(), config);
        let input = "0 0 1 1000\n\
                     0.0005 2 3 1000\n\
                     # the horizon is 1 ms\n\
                     0.001 0 1 1000\n\
                     0.5 1 2 1000\n\
                     1e300 4 5 1000\n";
        let mut out = Vec::new();
        let tally = serve(input.as_bytes(), &mut online, horizon, &mut out, true).unwrap();
        assert_eq!((tally.offered, tally.ignored), (2, 3));
        let run = online.finish().unwrap();
        assert_eq!(run.arrivals as u64, tally.offered);
        assert_eq!(tally.emitted, run.completions as u64);
        assert_eq!(
            String::from_utf8(out).unwrap().lines().count(),
            run.completions
        );
    }
}
