//! The benchmark's own checks: a wrong committed fingerprint fails the
//! command, forbidden engine knobs stop it before any result, and traced
//! and untraced runs measure the same program.

use dcn_types::SimTime;
use perfbench::trace::RUN;
use perfbench::workloads::{calls, Bench, Workload, DEFAULT_SEED};
use std::path::PathBuf;
use std::process::{Command, Output};

fn perfbench(args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.args(args);
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.output().expect("benchmark binary runs")
}

fn last_line(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .unwrap_or_default()
        .to_string()
}

#[test]
fn a_wrong_expected_fingerprint_fails_the_command() {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("wrong_expected.txt");
    std::fs::write(&path, "baselines 11 fs.arrivals=1 fs.completions=0\n").unwrap();
    let out = perfbench(
        &[
            "--workload",
            "baselines",
            "--seed",
            "11",
            "--seconds",
            "0.1",
            "--trace",
            "0",
            "--expected",
            path.to_str().unwrap(),
        ],
        &[],
    );
    assert!(!out.status.success(), "a mismatch must exit non-zero");
    let result = last_line(&out);
    assert!(result.starts_with("{\"correct\": false"), "{result}");
    assert!(!result.contains("\"failed\": 0,"), "{result}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("check failed: seed 11 fs.arrivals: expected 1"),
        "{stdout}"
    );
}

#[test]
fn forbidden_engine_knobs_stop_the_command_without_a_result() {
    for var in ["BASRPT_SETTLE", "BASRPT_SHARDS", "BASRPT_ENGINE"] {
        let out = perfbench(&["--workload", "baselines"], &[(var, "eager")]);
        assert_eq!(out.status.code(), Some(2), "{var}");
        assert!(!last_line(&out).starts_with('{'), "{var} printed a result");
    }
}

#[test]
fn traced_and_untraced_runs_agree() {
    let cases = [
        (Workload::PaperSaturated, SimTime::from_millis(2.0), 1),
        (Workload::ScaleStream, SimTime::from_micros(20.0), 1),
        (Workload::Baselines, SimTime::from_millis(2.0), 2),
    ];
    for (w, horizon, sets) in cases {
        let (bench, _) = Bench::setup_with_horizon(w, DEFAULT_SEED, horizon, sets).unwrap();
        let plain = bench.run().unwrap();
        let traced = bench.run_traced().unwrap();
        assert!(plain.errors.is_empty(), "{w:?}: {:?}", plain.errors);
        assert!(traced.errors.is_empty(), "{w:?}: {:?}", traced.errors);
        assert_eq!(plain.fingerprints.len(), sets, "{w:?}");
        assert_eq!(plain.fingerprints, traced.fingerprints, "{w:?}");
        let data = traced.traced.expect("traced data");
        match bench.settle_modes() {
            Some((plain_lazy, traced_lazy)) => {
                assert!(plain_lazy, "{w:?} runs lazily untraced");
                assert_eq!(plain_lazy, traced_lazy, "{w:?}");
                assert_eq!(data.engine.settle_lazy, Some(traced_lazy), "{w:?}");
            }
            None => assert_eq!(data.engine.settle_lazy, None, "{w:?}"),
        }

        let profile = data.tracer.profile();
        let run = profile[RUN];
        let in_run: u64 = profile
            .iter()
            .filter(|(name, _)| **name != calls::SUMMARY)
            .map(|(_, t)| t.self_ns)
            .sum();
        assert_eq!(run.calls, 1, "{w:?}");
        assert_eq!(in_run, run.total_ns, "{w:?}: self times cover the run span");
        assert!(data.engine.decide.calls > 0, "{w:?}");
        assert!(data.probe.callbacks > 0, "{w:?}");
    }
}
