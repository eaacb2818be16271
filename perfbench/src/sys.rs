//! Process memory, percentiles and the machine-calibration kernel.

use std::time::Instant;

/// A `kB` field of `/proc/self/status` (`VmHWM`, `VmRSS`), in bytes.
pub fn proc_status_bytes(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        let kb: u64 = rest.trim().strip_suffix("kB")?.trim().parse().ok()?;
        Some(kb * 1024)
    })
}

/// The `p`-th percentile (0–100) of `samples`, by the nearest-rank rule.
/// Sorts `samples` in place; `None` when empty.
pub fn percentile(samples: &mut [u64], p: f64) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    Some(samples[rank.clamp(1, samples.len()) - 1])
}

/// The median of `values` (mean of the middle two for an even count);
/// `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Wall time, in milliseconds, of one pass of a fixed kernel: sorting the
/// same 64 Ki pseudo-random integers (512 KiB, cache resident) eight
/// times. It is CPU-bound and not part of the simulator, so it tells how
/// fast the machine runs at the moment.
pub fn calibration_pass_ms() -> f64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let data: Vec<u64> = (0..1 << 16)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    let start = Instant::now();
    for _ in 0..8 {
        let mut v = data.clone();
        v.sort_unstable();
        std::hint::black_box(&v);
    }
    start.elapsed().as_secs_f64() * 1e3
}

/// The median of five calibration passes, in milliseconds. Printed beside
/// each run, it lets runs on different machines, or in different states
/// of one shared machine, be compared.
pub fn calibration_ms() -> f64 {
    let times: Vec<f64> = (0..5).map(|_| calibration_pass_ms()).collect();
    median(&times)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 50.0), Some(50));
        assert_eq!(percentile(&mut v, 99.0), Some(99));
        assert_eq!(percentile(&mut v, 100.0), Some(100));
        assert_eq!(percentile(&mut [], 50.0), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn reads_own_peak_memory() {
        if cfg!(target_os = "linux") {
            assert!(proc_status_bytes("VmHWM").unwrap() > 0);
        }
    }
}
