//! Order statistics over timing samples.

/// Quartiles `(q1, median, q3)` by the "exclusive" method — the default
/// of Python's `statistics.quantiles(values, n=4)`, so spreads printed
/// here match the ones a reader recomputes from the raw values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => (f64::NAN, f64::NAN, f64::NAN),
        1 => (v[0], v[0], v[0]),
        n => {
            let at = |p: f64| -> f64 {
                // Position m = (n + 1) * p, 1-based, clamped to the data.
                let m = ((n + 1) as f64 * p).clamp(1.0, n as f64);
                let lo = m.floor() as usize;
                let frac = m - lo as f64;
                let a = v[lo - 1];
                let b = v[lo.min(n - 1)];
                a + (b - a) * frac
            };
            (at(0.25), at(0.5), at(0.75))
        }
    }
}

/// The median (`NaN` for no samples).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// The arithmetic mean (`0` for no samples).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The nearest-rank `p`-th percentile (`p` in `0..=100`).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Samples strictly beyond the nearest-rank `p`-th percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n.saturating_sub(rank.max(1))
}

/// The tail percentile a workload reports: `wanted` when at least ten
/// samples lie beyond it, otherwise the highest lower rung of
/// 99.9/99/95/90/75/50 that has ten.
pub fn tail_percentile(n: usize, wanted: f64) -> f64 {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .filter(|&p| p <= wanted)
        .find(|&p| beyond(n, p) >= 10)
        .unwrap_or(50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn tail_needs_ten_beyond() {
        assert_eq!(tail_percentile(2000, 99.0), 99.0);
        assert_eq!(tail_percentile(500, 99.0), 95.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.0);
    }
}
