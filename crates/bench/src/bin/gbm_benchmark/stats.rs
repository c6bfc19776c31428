//! Order statistics over exact samples.
//!
//! Op latencies are kept as exact nanosecond samples, not in
//! `gbm_obs::LatencyHistogram`: its 1/32 log-linear buckets would quantise
//! `op_p50_ms` in 3 % steps, a third of the metric's regression bound.
//! Server-side distributions are still read from the histograms
//! `Server::metrics()` already keeps.

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `q · n` samples at or below it. `0` on an empty slice.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the `q` percentile's rank — the support a tail
/// percentile needs at least ten of.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).min(n)
}

/// Median of unsorted values (mean of the two middle values when the count
/// is even). `0` on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Slices a window is cut into for the timing metrics: twelve, fewer when
/// a slice would hold under a hundred samples, so that at least ten lie
/// beyond each slice's p90.
pub fn slice_count(samples: usize) -> usize {
    (samples / 100).clamp(1, 12)
}

/// The slice an event `at_ns` into a `window_ns` window falls in; an event
/// past the window's end belongs to the last slice.
pub fn slice_of(at_ns: u64, window_ns: u64, slices: usize) -> usize {
    let i = at_ns as u128 * slices as u128 / window_ns.max(1) as u128;
    (i as usize).min(slices - 1)
}

/// Work per second across `(at_ns, units)` completions: the units completed
/// after the first, over the time from the first completion to the last.
/// `0` with fewer than two completions: nothing got done in between.
pub fn completion_rate(events: &[(u64, f64)]) -> f64 {
    let Some(first) = events.iter().map(|e| e.0).min() else {
        return 0.0;
    };
    let last = events.iter().map(|e| e.0).max().unwrap_or(first);
    if last == first {
        return 0.0;
    }
    let first_units = events.iter().find(|e| e.0 == first).map_or(0.0, |e| e.1);
    let units: f64 = events.iter().map(|e| e.1).sum::<f64>() - first_units;
    units * 1e9 / (last - first) as f64
}

/// Median latency balanced over input classes: the median of each class
/// present among `(class, ns)`, averaged. With one class it is the median.
/// (`bin2src` serves binaries born of two languages, half and half, one
/// twice as dear as the other: the pooled median sits in the gap between
/// two modes and read 4.7–5.6 ms over six seeds while each mode's own
/// median moved by 3 %.)
pub fn balanced_median(samples: &[(u8, u64)]) -> f64 {
    let mut classes: std::collections::BTreeMap<u8, Vec<u64>> = Default::default();
    for &(class, ns) in samples {
        classes.entry(class).or_default().push(ns);
    }
    let medians: Vec<f64> = classes
        .into_values()
        .map(|ns| percentile(&sorted(ns), 0.5) as f64)
        .collect();
    mean(&medians)
}

/// Arithmetic mean (`0` when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Ascending sort of a sample vector, returned for chaining.
pub fn sorted(mut samples: Vec<u64>) -> Vec<u64> {
    samples.sort_unstable();
    samples
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 0.5), 50);
        assert_eq!(percentile(&s, 0.95), 95);
        assert_eq!(percentile(&s, 0.99), 99);
        assert_eq!(percentile(&s, 1.0), 100);
        assert_eq!(percentile(&s, 0.0), 1);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(percentile(&[], 0.5), 0);
        // odd count: the middle sample
        assert_eq!(percentile(&[10, 20, 30], 0.5), 20);
    }

    #[test]
    fn tail_support_counts_samples_past_the_rank() {
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert_eq!(samples_beyond(100, 0.90), 10);
        assert_eq!(samples_beyond(0, 0.5), 0);
    }

    #[test]
    fn slices_keep_ten_samples_beyond_their_tail() {
        assert_eq!(slice_count(0), 1);
        assert_eq!(slice_count(199), 1);
        assert_eq!(slice_count(650), 6);
        assert_eq!(slice_count(1_000_000), 12);
        assert!(samples_beyond(650 / slice_count(650), 0.90) >= 10);
        assert_eq!(slice_of(0, 1200, 12), 0);
        assert_eq!(slice_of(99, 1200, 12), 0);
        assert_eq!(slice_of(100, 1200, 12), 1);
        assert_eq!(slice_of(1199, 1200, 12), 11);
        assert_eq!(slice_of(5000, 1200, 12), 11, "late events: last slice");
        assert_eq!(slice_of(7, 0, 1), 0);
    }

    #[test]
    fn completion_rate_counts_what_followed_the_first_completion() {
        // five completions of 2 units, 250 ms apart: 8 units in one second
        let events: Vec<(u64, f64)> = (0..5).map(|i| (1_000 + i * 250_000_000, 2.0)).collect();
        assert_eq!(completion_rate(&events), 8.0);
        assert_eq!(completion_rate(&events[..1]), 0.0);
        assert_eq!(completion_rate(&[]), 0.0);
        assert_eq!(completion_rate(&[(5, 1.0), (5, 1.0)]), 0.0);
    }

    #[test]
    fn balanced_median_averages_the_class_medians() {
        // three cheap ops, one dear: pooled median 10, balanced (10 + 50) / 2
        let mixed = [(0, 9), (0, 10), (1, 50), (0, 11)];
        assert_eq!(balanced_median(&mixed), 30.0);
        assert_eq!(balanced_median(&[(0, 3), (0, 1), (0, 2)]), 2.0);
        assert_eq!(balanced_median(&[]), 0.0);
    }

    #[test]
    fn median_and_mean_on_hand_made_inputs() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(sorted(vec![3, 1, 2]), vec![1, 2, 3]);
    }
}
