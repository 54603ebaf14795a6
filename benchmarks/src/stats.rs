//! Order statistics used by every timing metric.

use genpip_genomics::stats::{mean, median};

/// Nearest-rank percentile (`p` in `0..=1`) of `values`; sorts in place.
/// Returns 0 for an empty slice.
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((p * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

/// The fastest of the repetitions: the estimate behind the as-measured
/// times of the traced run and the standalone kernels (interference only
/// ever adds time). The end-to-end times are estimated otherwise, see
/// `run::AtReferenceSpeed`. Returns 0 when empty.
pub fn fastest(times: &[f64]) -> f64 {
    fastest_index(times).map_or(0.0, |i| times[i])
}

/// Index of the fastest repetition.
pub fn fastest_index(times: &[f64]) -> Option<usize> {
    (0..times.len()).min_by(|&a, &b| times[a].total_cmp(&times[b]))
}

/// Durations of one pass's segments. `marks[i]` is the time since the pass
/// began at which its read *i* was delivered and `end` the time at which the
/// pass ended; a segment is `per` consecutive deliveries, and the last one
/// runs to `end` (it may hold fewer reads, and holds the final flush).
pub fn segment_durations(marks: &[f64], end: f64, per: usize) -> Vec<f64> {
    let per = per.max(1);
    let segments = marks.len().div_ceil(per).max(1);
    let mut from = 0.0;
    (1..=segments)
        .map(|j| {
            let to = if j == segments {
                end
            } else {
                marks[j * per - 1]
            };
            let duration = to - from;
            from = to;
            duration
        })
        .collect()
}

/// Mean of every `per` consecutive values (the last group may hold fewer):
/// one value per segment of [`segment_durations`].
pub fn segment_means(values: &[f64], per: usize) -> Vec<f64> {
    values.chunks(per.max(1)).map(mean).collect()
}

/// Element by element, the median over the repetitions, which all have the
/// length of the first.
pub fn median_each(repetitions: &[Vec<f64>]) -> Vec<f64> {
    let len = repetitions.first().map_or(0, Vec::len);
    (0..len)
        .map(|i| median(&mut repetitions.iter().map(|r| r[i]).collect::<Vec<_>>()))
        .collect()
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the default "exclusive" method), so `spread` here is the number the
/// acceptance procedure computes. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some([at(1), at(2), at(3)])
}

/// `(Q3 − Q1) / median`; 0 when there are too few values or the median is 0.
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some([q1, q2, q3]) if q2 != 0.0 => (q3 - q1) / q2,
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        v.reverse();
        assert_eq!(percentile(&mut v.clone(), 0.50), 50.0);
        assert_eq!(percentile(&mut v.clone(), 0.95), 95.0);
        assert_eq!(percentile(&mut v.clone(), 1.0), 100.0);
        assert_eq!(percentile(&mut v, 0.0), 1.0);
        assert_eq!(percentile(&mut [7.0], 0.95), 7.0);
        assert_eq!(percentile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn fastest_ignores_the_slow_passes() {
        let t = [1.3, 9.0, 1.0, 4.0, 1.2, 7.0, 1.1, 5.0];
        assert_eq!(fastest(&t), 1.0);
        assert_eq!(fastest_index(&t), Some(2));
        assert_eq!(fastest(&[]), 0.0);
        assert_eq!(fastest_index(&[]), None);
    }

    #[test]
    fn a_pass_is_cut_at_every_few_deliveries_and_ends_with_its_flush() {
        // Seven deliveries, three per segment, the pass ends at 10.
        let marks = [1.0, 2.0, 4.0, 5.0, 5.5, 6.0, 9.0];
        assert_eq!(segment_durations(&marks, 10.0, 3), [4.0, 2.0, 4.0]);
        assert_eq!(segment_means(&marks, 3), [7.0 / 3.0, 5.5, 9.0]);
        // The same number of segments either way, also for an exact fit.
        assert_eq!(segment_durations(&marks[..6], 6.5, 3), [4.0, 2.5]);
        assert_eq!(segment_means(&marks[..6], 3).len(), 2);
        assert_eq!(segment_durations(&[], 2.0, 3), [2.0]);
    }

    #[test]
    fn median_each_takes_every_element_at_its_median_repetition() {
        let reps = vec![vec![1.0, 9.0], vec![2.0, 7.0], vec![30.0, 8.0]];
        assert_eq!(median_each(&reps), [2.0, 8.0]);
        assert_eq!(median_each(&[]), Vec::<f64>::new());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&v).unwrap();
        assert!((q[0] - 2.75).abs() < 1e-12 && (q[1] - 5.5).abs() < 1e-12);
        assert!((q[2] - 8.25).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        let q = quartiles(&[3.0, 1.0]).unwrap();
        assert_eq!(q, [0.5, 2.0, 3.5]);
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
    }
}
