//! Sample statistics with the benchmark's reporting rule.
//!
//! A timing is reported as its median plus the highest tail percentile
//! that has at least [`MIN_BEYOND`] samples beyond it; a tail estimated
//! from fewer samples is noise (the 2048-rank workloads take seconds
//! per LB call, so a run holds a handful of calls, and a "p90" of five
//! samples is just the maximum).

/// Samples that must lie beyond a tail percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// The `p`-th percentile (0..=100) of `samples` by linear interpolation
/// between closest ranks; `None` when there are no samples.
pub fn percentile(samples: &[f64], p: u32) -> Option<f64> {
    assert!(p <= 100, "percentile out of range: {p}");
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = (sorted.len() - 1) as f64 * f64::from(p) / 100.0;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of `samples`; `None` when there are none.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50)
}

/// How many of `n` samples lie beyond the `p`-th percentile, in exact
/// integer arithmetic (`n · (100 − p) / 100`, rounded down).
pub fn beyond(n: usize, p: u32) -> usize {
    n * (100 - p as usize) / 100
}

/// The `p`-th percentile of `samples` if at least [`MIN_BEYOND`] of
/// them lie beyond it, else `None` (the tail is omitted).
pub fn tail(samples: &[f64], p: u32) -> Option<f64> {
    if beyond(samples.len(), p) < MIN_BEYOND {
        return None;
    }
    percentile(samples, p)
}

/// Arithmetic mean; `0.0` for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Each call's fastest repeat: `runs[i][j]` is the time of call `j` in
/// run `i` of the same call sequence, and the result holds, for every
/// `j` present in all runs, the minimum over `i`. Contention from other
/// tenants of the host only ever slows a call down, so the fastest of
/// several identical repeats is the steadiest estimate of its cost.
pub fn best_of_repeats(runs: &[Vec<f64>]) -> Vec<f64> {
    let n = runs.iter().map(Vec::len).min().unwrap_or(0);
    (0..n)
        .map(|j| runs.iter().map(|r| r[j]).fold(f64::INFINITY, f64::min))
        .collect()
}
