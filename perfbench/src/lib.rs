//! Campaign benchmark for RustFI.
//!
//! `src/main.rs` is the command; this library holds the pieces it is built
//! from so the benchmark's own tests can reach them. See `README.md` for the
//! workloads, the metrics and how to run it.

pub mod host;
pub mod ledger;
pub mod workload;
pub mod wrap;

use rustfi::TrialRecord;

/// Whether two records are identical, comparing floats bit for bit (so a
/// NaN confidence delta equals itself).
pub fn same_record(a: &TrialRecord, b: &TrialRecord) -> bool {
    a.trial == b.trial
        && a.image_index == b.image_index
        && a.layer == b.layer
        && a.site == b.site
        && a.outcome == b.outcome
        && a.due_layer == b.due_layer
        && a.top5_miss == b.top5_miss
        && a.confidence_delta.to_bits() == b.confidence_delta.to_bits()
}

/// How many of the first `expected` reference records `got` reproduces,
/// position by position. Missing and differing records both fail to match.
pub fn matching_records(got: &[TrialRecord], reference: &[TrialRecord], expected: usize) -> usize {
    got.iter()
        .zip(reference.iter().take(expected))
        .filter(|(g, r)| same_record(g, r))
        .count()
}

/// The median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The `q`-quantile of `values` by nearest rank (0 for an empty slice).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::{median, percentile};

    #[test]
    fn percentile_by_nearest_rank() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9), 18.0);
        assert_eq!(percentile(&v, 0.1), 2.0);
        assert_eq!(percentile(&[5.0], 0.9), 5.0);
        assert_eq!(percentile(&[], 0.9), 0.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
