//! Fingerprints of simulated outputs and the committed values they are
//! checked against.

use dcn_fabric::{FabricRun, RepFlowStats};
use dcn_metrics::TrendConfig;
use dcn_types::FlowClass;
use std::fmt::Display;

/// An ordered list of `key=value` facts about one repetition's outputs.
/// Floating-point values are recorded by their bits, so two fingerprints
/// are equal exactly when the outputs are bit-identical.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Fingerprint(Vec<(String, String)>);

impl Fingerprint {
    /// Appends one fact.
    pub fn push(&mut self, key: impl Into<String>, value: impl Display) {
        self.0.push((key.into(), value.to_string()));
    }

    /// Appends a float by its bit pattern.
    pub fn push_bits(&mut self, key: impl Into<String>, value: f64) {
        self.push(key, format!("{:016x}", value.to_bits()));
    }

    /// Appends the counters and summaries of one fabric run, each key
    /// prefixed with `prefix`.
    pub fn push_run(&mut self, prefix: &str, run: &FabricRun) {
        self.push(format!("{prefix}arrivals"), run.arrivals);
        self.push(format!("{prefix}completions"), run.completions);
        self.push(format!("{prefix}reschedules"), run.reschedules);
        self.push(format!("{prefix}arrived"), run.arrived_bytes.as_u64());
        self.push(
            format!("{prefix}delivered"),
            run.throughput.delivered().as_u64(),
        );
        self.push(format!("{prefix}leftover"), run.leftover_bytes.as_u64());
        self.push(format!("{prefix}leftover_flows"), run.leftover_flows);
        for class in FlowClass::ALL {
            let tag = match class {
                FlowClass::Query => "q",
                FlowClass::Background => "bg",
            };
            match run.fct.summary(class) {
                Some(s) => {
                    self.push_bits(format!("{prefix}{tag}_mean"), s.mean_secs);
                    self.push_bits(format!("{prefix}{tag}_p99"), s.p99_secs);
                }
                None => {
                    self.push(format!("{prefix}{tag}_mean"), "none");
                    self.push(format!("{prefix}{tag}_p99"), "none");
                }
            }
        }
        self.push_bits(
            format!("{prefix}throughput"),
            run.average_throughput().bytes_per_sec(),
        );
        let trend = run.total_backlog_stability(TrendConfig::default());
        self.push(format!("{prefix}trend"), trend.verdict);
    }

    /// Appends RepFlow's replica byte split.
    pub fn push_replicas(&mut self, prefix: &str, stats: &RepFlowStats) {
        self.push(format!("{prefix}replicated"), stats.replicated_flows);
        self.push(format!("{prefix}replica_wins"), stats.replica_wins);
        self.push(format!("{prefix}replica"), stats.replica_bytes.as_u64());
        self.push(
            format!("{prefix}replica_won"),
            stats.winning_replica_bytes.as_u64(),
        );
        self.push(
            format!("{prefix}replica_lost"),
            stats.losing_replica_bytes.as_u64(),
        );
        self.push(
            format!("{prefix}replica_racing"),
            stats.racing_replica_bytes.as_u64(),
        );
        self.push(
            format!("{prefix}primary_cancelled"),
            stats.cancelled_primary_bytes.as_u64(),
        );
    }

    /// The canonical one-line rendering: space-separated `key=value`.
    pub fn render(&self) -> String {
        self.0
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// The keys whose values differ between `self` and a rendered
    /// fingerprint, or that only one side has.
    pub fn diff(&self, rendered: &str) -> Vec<String> {
        let theirs: Vec<(&str, &str)> = rendered
            .split_whitespace()
            .map(|kv| kv.split_once('=').unwrap_or((kv, "")))
            .collect();
        let mut out = Vec::new();
        for (k, v) in &self.0 {
            match theirs.iter().find(|(tk, _)| tk == k) {
                Some((_, tv)) if tv == v => {}
                Some((_, tv)) => out.push(format!("{k}: expected {tv}, got {v}")),
                None => out.push(format!("{k}: not in the expected fingerprint")),
            }
        }
        for (tk, _) in &theirs {
            if !self.0.iter().any(|(k, _)| k == tk) {
                out.push(format!("{tk}: expected but not produced"));
            }
        }
        out
    }
}

/// Exact byte conservation of one run: every arrived byte was delivered
/// or is still queued at the horizon.
pub fn conserves(run: &FabricRun) -> bool {
    run.arrived_bytes == run.throughput.delivered() + run.leftover_bytes
}

/// Looks up the committed fingerprint of `workload` at `seed` in
/// `expected`, whose lines read `<workload> <seed> <fingerprint>`; blank
/// lines and `#` comments are skipped.
pub fn lookup<'a>(expected: &'a str, workload: &str, seed: u64) -> Option<&'a str> {
    expected.lines().find_map(|line| {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return None;
        }
        let mut parts = line.splitn(3, ' ');
        let (w, s, rest) = (parts.next()?, parts.next()?, parts.next()?);
        (w == workload && s.parse() == Ok(seed)).then_some(rest)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diff_names_changed_missing_and_extra_keys() {
        let mut fp = Fingerprint::default();
        fp.push("a", 1);
        fp.push("b", 2);
        assert!(fp.diff("a=1 b=2").is_empty());
        assert_eq!(fp.diff("a=1 b=3").len(), 1);
        assert_eq!(fp.diff("a=1 b=2 c=4").len(), 1);
        assert_eq!(fp.diff("a=1").len(), 1);
    }

    #[test]
    fn lookup_matches_workload_and_seed() {
        let table = "# comment\nw 11 a=1 b=2\nw 12 a=3\nv 11 a=9\n";
        assert_eq!(lookup(table, "w", 11), Some("a=1 b=2"));
        assert_eq!(lookup(table, "v", 11), Some("a=9"));
        assert_eq!(lookup(table, "w", 13), None);
    }
}
