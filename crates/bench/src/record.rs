//! Merging writer for `results/bench.json`.
//!
//! Several `[[bench]]` targets record machine-readable medians
//! (`sched_overhead`, `fabric_scale`). Each used to overwrite the whole
//! file, so running one target silently dropped the other's numbers. The
//! writer here merges instead: groups recorded by *this* invocation
//! replace their previous entries, every other group is carried over
//! verbatim, and the output stays deterministic (groups and rows sorted
//! by recording order within sorted groups).
//!
//! The file format is the hand-rolled JSON this module itself emits —
//! `{ group: { "function/parameter": { "median_ns": …, "min_ns": …,
//! "mad_ns": …, "n": … } } }`, where `min_ns` is the fastest sample and
//! `mad_ns` the median absolute deviation — so the reader only has to
//! understand its own writer (the workspace deliberately vendors no JSON
//! parser). Rows recorded before the spread fields existed carry only
//! `median_ns` and `n`; the reader accepts both.

use criterion::BenchResult;
use std::collections::BTreeMap;
use std::io;

/// Workspace-level path of the recorded medians, anchored on this crate's
/// manifest so `cargo bench` resolves it regardless of its CWD.
pub const BENCH_JSON_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/bench.json");

/// `group → [(bench key, raw row object)]` in file order.
pub type Groups = BTreeMap<String, Vec<(String, String)>>;

/// Reads back the groups of an existing `bench.json`. Only lines in the
/// shape this module writes are recognised; anything else is ignored, so
/// a corrupt file degrades to "start fresh" rather than an error.
///
/// Public for the `perf_gate` binary, which compares a committed baseline
/// against freshly recorded medians.
pub fn parse_groups(text: &str) -> Groups {
    let mut groups = Groups::new();
    let mut current: Option<String> = None;
    for line in text.lines() {
        let t = line.trim();
        if let Some(stripped) = t.strip_suffix("\": {") {
            if let Some(name) = stripped.strip_prefix('"') {
                current = Some(name.to_string());
                groups.entry(name.to_string()).or_default();
                continue;
            }
        }
        if t == "}" || t == "}," {
            current = None;
            continue;
        }
        if let (Some(group), Some(rest)) = (&current, t.strip_prefix('"')) {
            if let Some((key, row)) = rest.split_once("\": ") {
                let row = row.trim_end_matches(',').to_string();
                if let Some(rows) = groups.get_mut(group) {
                    rows.push((key.to_string(), row));
                }
            }
        }
    }
    groups
}

/// Extracts the `median_ns` field from a row object in this module's own
/// format. Returns `None` on anything it did not write itself.
///
/// # Example
///
/// ```
/// use basrpt_bench::record::median_ns;
/// assert_eq!(median_ns("{ \"median_ns\": 12.5, \"n\": 15 }"), Some(12.5));
/// assert_eq!(median_ns("{}"), None);
/// ```
pub fn median_ns(row: &str) -> Option<f64> {
    let rest = row.split("\"median_ns\":").nth(1)?;
    let number: String = rest
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-' || *c == 'e' || *c == '+')
        .collect();
    number.parse().ok()
}

fn render(groups: &Groups) -> String {
    let mut json = String::from("{\n");
    for (gi, (group, rows)) in groups.iter().enumerate() {
        json.push_str(&format!("  {group:?}: {{\n"));
        for (ri, (key, row)) in rows.iter().enumerate() {
            json.push_str(&format!(
                "    {key:?}: {row}{}\n",
                if ri + 1 < rows.len() { "," } else { "" }
            ));
        }
        json.push_str(&format!(
            "  }}{}\n",
            if gi + 1 < groups.len() { "," } else { "" }
        ));
    }
    json.push_str("}\n");
    json
}

/// Groups freshly recorded results as `group → [(key, row object)]`.
fn group_results(results: &[BenchResult]) -> Groups {
    let mut fresh = Groups::new();
    for r in results {
        let group = r.id.split('/').next().unwrap_or(&r.id).to_string();
        let key =
            r.id.strip_prefix(group.as_str())
                .and_then(|s| s.strip_prefix('/'))
                .unwrap_or(&r.id)
                .to_string();
        let row = format!(
            "{{ \"median_ns\": {:.1}, \"min_ns\": {:.1}, \"mad_ns\": {:.1}, \"n\": {} }}",
            r.median_ns, r.min_ns, r.mad_ns, r.n
        );
        fresh.entry(group).or_default().push((key, row));
    }
    fresh
}

/// Merges `results` into `results/bench.json` and returns the path
/// written. Groups present in `results` are replaced wholesale (a rerun
/// of one bench target refreshes all of its rows); groups recorded by
/// other targets survive untouched.
///
/// # Errors
///
/// Propagates the I/O error if the file cannot be written.
pub fn write_merged(results: &[BenchResult]) -> io::Result<String> {
    let mut groups = std::fs::read_to_string(BENCH_JSON_PATH)
        .map(|text| parse_groups(&text))
        .unwrap_or_default();
    for (group, rows) in group_results(results) {
        groups.insert(group, rows);
    }
    std::fs::write(BENCH_JSON_PATH, render(&groups))?;
    Ok(BENCH_JSON_PATH.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(id: &str, median_ns: f64, n: usize) -> BenchResult {
        BenchResult {
            id: id.to_string(),
            median_ns,
            min_ns: median_ns - 1.0,
            mad_ns: 0.5,
            n,
        }
    }

    fn row(median_ns: f64, n: usize) -> String {
        format!(
            "{{ \"median_ns\": {median_ns:.1}, \"min_ns\": {:.1}, \"mad_ns\": 0.5, \"n\": {n} }}",
            median_ns - 1.0
        )
    }

    #[test]
    fn roundtrip_preserves_groups_and_rows() {
        let rendered = render(&group_results(&[
            result("alpha/one_pass/100", 12.5, 15),
            result("alpha/one_pass/200", 25.0, 15),
            result("beta/scan/100", 7.0, 20),
        ]));
        let parsed = parse_groups(&rendered);
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed["alpha"].len(), 2);
        assert_eq!(parsed["alpha"][0].0, "one_pass/100");
        assert_eq!(parsed["beta"][0].1, row(7.0, 20));
        assert_eq!(median_ns(&parsed["beta"][0].1), Some(7.0));
        assert_eq!(render(&parsed), rendered);
    }

    #[test]
    fn merge_replaces_only_the_recorded_groups() {
        let mut on_disk = group_results(&[
            result("alpha/one_pass/100", 12.5, 15),
            result("beta/scan/100", 7.0, 20),
        ]);
        let fresh = group_results(&[result("beta/scan/100", 9.0, 25)]);
        for (group, rows) in fresh {
            on_disk.insert(group, rows);
        }
        assert_eq!(on_disk["alpha"][0].1, row(12.5, 15));
        assert_eq!(on_disk["beta"][0].1, row(9.0, 25));
    }

    #[test]
    fn unrecognised_lines_are_ignored() {
        let parsed = parse_groups("not json at all\n{\n  garbage\n}\n");
        assert!(parsed.is_empty());
    }
}
