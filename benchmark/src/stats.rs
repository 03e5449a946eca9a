//! Order statistics and span arithmetic used by the runner and `compare`.

/// Sorts a sample ascending (NaNs last; the benchmark never produces one).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of an empty sample");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of the sample at or below it. `p` is in `(0, 100]`.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "percentile of an empty sample");
    v[rank(v.len(), p) - 1]
}

/// How many samples lie strictly beyond the nearest-rank `p`-th
/// percentile of a sample of `n` — the count that must be at least ten
/// for a tail percentile to be worth reporting.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), so spreads computed here agree with
/// the ones the benchmark contract is checked by. A single value is its
/// own quartiles.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    assert!(!v.is_empty(), "quartiles of an empty sample");
    if v.len() == 1 {
        return (v[0], v[0]);
    }
    let cut = |i: usize| {
        let m = v.len() + 1;
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Nanoseconds of `[start, end)` that the child intervals cover, counting
/// overlapping children once and ignoring what lies outside the parent.
pub fn covered_ns(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// A span's self time: its duration minus the part its children cover.
pub fn self_ns(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    (end - start) - covered_ns(start, end, children)
}

/// Self time when the children are known only as aggregate busy times
/// (callback totals without start stamps): the duration minus their sum,
/// floored at zero because children on parallel workers can sum past the
/// parent's wall-clock.
pub fn self_ns_aggregate(duration: u64, children_busy: &[u64]) -> u64 {
    duration.saturating_sub(children_busy.iter().sum())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        // 10 samples: p90 is the 9th, one sample beyond it.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 90.0), 9.0);
    }

    #[test]
    fn p90_needs_a_hundred_samples_for_ten_beyond() {
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(99, 90.0), 9);
        assert_eq!(samples_beyond(136, 90.0), 13);
        assert_eq!(samples_beyond(100, 50.0), 50);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 4.0, 2.0, 8.0]), (1.5, 12.0));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Parent [0, 100); children overlap on [20, 30) and one sticks out.
        let children = [(10, 30), (20, 50), (90, 140)];
        assert_eq!(covered_ns(0, 100, &children), 50);
        assert_eq!(self_ns(0, 100, &children), 50);
        assert_eq!(self_ns(0, 100, &[]), 100);
        assert_eq!(self_ns(0, 100, &[(0, 100), (5, 6)]), 0);
        // A child entirely outside the parent covers nothing.
        assert_eq!(self_ns(50, 60, &[(0, 10)]), 10);
    }

    #[test]
    fn aggregate_self_time_floors_at_zero() {
        assert_eq!(self_ns_aggregate(100, &[30, 20]), 50);
        assert_eq!(self_ns_aggregate(100, &[80, 70]), 0);
    }
}
