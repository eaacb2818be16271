# Developer entry points. `make verify` is the tier-1 gate from ROADMAP.md.

.PHONY: verify lint test test-baselines bench-smoke trace-smoke daemon-smoke docs doc-tests loc clean

# Tier-1: release build + the root package's quiet test run, plus the
# trace round-trip smoke, a warning-free lint/format gate, and the doc
# gates (rustdoc warnings — including broken intra-doc links — fail the
# build, and every worked example must execute).
verify: trace-smoke lint docs doc-tests
	cargo build --release
	cargo test -q
	BASRPT_SHARDS=2 cargo test --release --test shard_differential
	$(MAKE) test-baselines

# Zero-warning clippy across every target, and formatting is canonical.
lint:
	cargo clippy --workspace --all-targets -- -D warnings
	cargo fmt --check

# The baseline-discipline invariants at release speed and a non-default
# shard count: the fair-share production-vs-naive differential matrix and
# the RepFlow dominance/degeneracy property suite.
test-baselines:
	BASRPT_SHARDS=4 cargo test --release --test fairshare_differential
	cargo test --release --test repflow_props

# The full workspace test suite (unit + integration + property + doctests).
test:
	cargo test --workspace

# One quick pass over the headline experiments at smoke scale, then the
# perf-regression gate: freshly recorded medians of the event_loop,
# delta_reschedule and settle_cost groups must stay within 1.5x of the
# committed results/bench.json (snapshotted before the benches rewrite it).
bench-smoke:
	@mkdir -p target
	cp results/bench.json target/bench-baseline.json
	BASRPT_SCALE=quick cargo bench -p basrpt-bench --bench fig2
	BASRPT_SCALE=quick cargo bench -p basrpt-bench --bench fig5
	BASRPT_SCALE=quick cargo bench -p basrpt-bench --bench table1
	BASRPT_SCALE=quick cargo bench -p basrpt-bench --bench sched_overhead
	BASRPT_SCALE=quick cargo bench -p basrpt-bench --bench fabric_scale
	BASRPT_SCALE=quick cargo bench -p basrpt-bench --bench daemon_throughput
	BASRPT_SCALE=quick cargo bench -p basrpt-bench --bench baseline_disciplines
	cargo run --release -p basrpt-bench --bin perf_gate -- target/bench-baseline.json

# Short traced simulation: streams every event to JSONL, re-parses each
# emitted line and exits non-zero on any schema violation.
trace-smoke:
	cargo run --release --example trace_run target/trace-smoke

# Pipes the sample flows file through the streaming daemon; `--validate`
# re-parses every emitted completion line with `dcn_probe::jsonl::parse_line`
# and the daemon exits non-zero on any schema violation or count mismatch.
daemon-smoke:
	BASRPT_HORIZON_MS=50 cargo run --release --example daemon -- \
		examples/daemon_flows.txt --validate > /dev/null

# API docs for the workspace crates; `-D warnings` turns every rustdoc
# warning (broken intra-doc links above all) into a hard failure.
docs:
	RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

# Every rustdoc worked example across the workspace, compiled and run.
doc-tests:
	cargo test --workspace --doc -q

# Non-test lines per crate: the lines of every crates/<crate>/src/**/*.rs
# above that file's first `#[cfg(test)]` (the whole file when it has none).
loc:
	@for crate in crates/*/; do \
		find $$crate/src -name '*.rs' -exec awk \
			'FNR == 1 { t = 0 } /^[[:space:]]*#\[cfg\(test\)\]/ { t = 1 } !t { n++ } END { print n + 0 }' {} + \
			| awk -v c="$$(basename $$crate)" '{ s += $$1 } END { printf "%-14s %6d\n", c, s }'; \
	done

clean:
	cargo clean
