//! Order statistics over per-round samples.

/// First quartile, median and third quartile of a sample, computed the
/// way Python's `statistics.quantiles(values, n=4)` does (the
/// "exclusive" method), so a reader can reproduce them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

impl Quartiles {
    /// Quartiles of `values`; all three equal the value for fewer than two
    /// samples. Panics on an empty sample (a round loop that ran no round).
    pub fn of(values: &[f64]) -> Quartiles {
        assert!(!values.is_empty(), "quartiles of an empty sample");
        let mut v = values.to_vec();
        v.sort_by(|a, b| a.total_cmp(b));
        let n = v.len();
        if n == 1 {
            return Quartiles { q1: v[0], median: v[0], q3: v[0], n };
        }
        Quartiles { q1: exclusive(&v, 1), median: exclusive(&v, 2), q3: exclusive(&v, 3), n }
    }

    /// Interquartile range as a share of the median's magnitude.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            return 0.0;
        }
        (self.q3 - self.q1) / self.median.abs()
    }
}

/// Cut point `i` of 4 by Python's exclusive method: position
/// `i * (n + 1) / 4` (1-based), interpolated and clamped to the ends.
fn exclusive(sorted: &[f64], i: usize) -> f64 {
    let n = sorted.len();
    let m = n + 1;
    let j = (i * m / 4).clamp(1, n - 1);
    let delta = (i * m) as f64 / 4.0 - j as f64;
    sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
}

/// The arithmetic mean of `values`.
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of an empty sample");
    values.iter().sum::<f64>() / values.len() as f64
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    Quartiles::of(values).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_exclusive_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = Quartiles::of(&v);
        assert_eq!((q.q1, q.median, q.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let q = Quartiles::of(&[3.0, 1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
    }
}
