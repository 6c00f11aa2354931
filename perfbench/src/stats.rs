//! Order statistics and the registry snapshot-diff reader.

use simvid_obs::{MetricValue, Registry, Snapshot};

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics; `0.0` for an empty slice.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The arithmetic mean; `0.0` for an empty slice.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or `0.0` when the base is empty.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// What one or more registries recorded between two points in time: the
/// difference of `Registry::snapshot()` taken before and after a timed
/// window, so nothing recorded during set-up or warm-up leaks in.
pub struct RegDiff {
    pairs: Vec<(Snapshot, Snapshot)>,
}

/// Snapshots of registries taken at the start of a window.
pub struct RegMark(Vec<Snapshot>);

impl RegMark {
    #[must_use]
    pub fn take(registries: &[&Registry]) -> RegMark {
        RegMark(registries.iter().map(|r| r.snapshot()).collect())
    }

    /// Closes the window on the same registries, in the same order.
    #[must_use]
    pub fn diff(self, registries: &[&Registry]) -> RegDiff {
        assert_eq!(self.0.len(), registries.len(), "same registries as marked");
        RegDiff {
            pairs: self
                .0
                .into_iter()
                .zip(registries.iter().map(|r| r.snapshot()))
                .collect(),
        }
    }
}

impl RegDiff {
    /// Growth of counter `name` over the window (summed over registries).
    #[must_use]
    pub fn counter(&self, name: &str) -> f64 {
        self.pairs
            .iter()
            .map(|(a, b)| b.counter(name).unwrap_or(0) - a.counter(name).unwrap_or(0))
            .sum::<u64>() as f64
    }

    /// Growth of histogram `name`'s sum over the window, in the
    /// histogram's unit (seconds for latency histograms).
    #[must_use]
    pub fn hist_sum(&self, name: &str) -> f64 {
        let sum = |s: &Snapshot| match s.get(name) {
            Some(MetricValue::Histogram(h)) => h.sum,
            _ => 0.0,
        };
        self.pairs.iter().map(|(a, b)| sum(b) - sum(a)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&v, 0.625), 3.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn diff_sees_only_what_the_window_recorded() {
        let r = Registry::new();
        r.counter("c").add(5);
        r.histogram("h").record(1.0);
        let mark = RegMark::take(&[&r]);
        r.counter("c").add(2);
        r.histogram("h").record(0.5);
        r.counter("fresh").inc();
        let d = mark.diff(&[&r]);
        assert_eq!(d.counter("c"), 2.0);
        assert_eq!(d.counter("fresh"), 1.0);
        assert_eq!(d.hist_sum("h"), 0.5);
        assert_eq!(d.counter("absent"), 0.0);
    }
}
