//! Summary statistics for timings and for the spread between runs.

/// The value at quantile `q` (0..=1) of ascending `sorted`, by linear
/// interpolation between closest ranks.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    v
}

/// The value at quantile `q` (0..=1) of `values`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    quantile_sorted(&sorted(values), q)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the exclusive method), which is what the acceptance check
/// for run-to-run spread uses. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    assert!(n >= 2, "quartiles need at least two values");
    let at = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(3))
}

/// Median, quartiles and the interquartile distance as a share of the
/// median, for one metric across repeated runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub relative: f64,
}

pub fn spread(values: &[f64]) -> Spread {
    let median = median(values);
    let (q1, q3) = quartiles(values);
    let relative = if median == 0.0 {
        0.0
    } else {
        (q3 - q1) / median.abs()
    };
    Spread {
        median,
        q1,
        q3,
        relative,
    }
}

/// A latency sample summarised as the guide asks: the median, and the
/// highest percentile that still has at least ten samples beyond it (never
/// below the median), with the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    pub count: usize,
    pub p50: f64,
    pub tail: f64,
    /// Which quantile `tail` is, e.g. 0.999.
    pub tail_quantile: f64,
}

pub fn latency(values: &[f64]) -> Latency {
    let v = sorted(values);
    let n = v.len();
    let supported = if n > 10 {
        (n - 10) as f64 / n as f64
    } else {
        0.0
    };
    let tail_quantile = supported.max(0.5);
    Latency {
        count: n,
        p50: quantile_sorted(&v, 0.5),
        tail: quantile_sorted(&v, tail_quantile),
        tail_quantile,
    }
}

/// Open-loop timing: each request is timed from when it was *due*, so a
/// stall is charged to every request it delayed; how late the generator
/// itself sent is kept apart, to show whether the loop stayed open.
#[derive(Debug, Clone, Default)]
pub struct OpenLoopSample {
    pub latency_us: Vec<f64>,
    pub lateness_us: Vec<f64>,
}

impl OpenLoopSample {
    /// One line for the human reader: sample count, median, p95, p99 and the
    /// highest supported percentile of the latency, and how late the
    /// generator sent.
    pub fn describe(&self) -> String {
        let lat = latency(&self.latency_us);
        let late = latency(&self.lateness_us);
        format!(
            "{} samples: p50 {:.1}, p95 {:.1}, p99 {:.1}, p{:.2} {:.1} us; generator lateness p50 {:.1}, p{:.2} {:.1} us",
            lat.count,
            lat.p50,
            quantile(&self.latency_us, 0.95),
            quantile(&self.latency_us, 0.99),
            lat.tail_quantile * 100.0,
            lat.tail,
            late.p50,
            late.tail_quantile * 100.0,
            late.tail
        )
    }

    /// All offsets are nanoseconds on the generator's clock.
    pub fn record(&mut self, due_ns: u64, sent_ns: u64, done_ns: u64) {
        self.latency_us
            .push(done_ns.saturating_sub(due_ns) as f64 / 1e3);
        self.lateness_us
            .push(sent_ns.saturating_sub(due_ns) as f64 / 1e3);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn spread_is_the_interquartile_distance_over_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = spread(&v);
        assert_eq!(s.median, 5.5);
        assert!((s.relative - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0, 0.0]).relative, 0.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
        let v: Vec<f64> = (0..2_000).map(f64::from).collect();
        let l = latency(&v);
        assert_eq!(l.count, 2_000);
        assert!((l.tail_quantile - 0.995).abs() < 1e-12);
        assert!((l.tail - 1989.005).abs() < 1e-6);
        // 100 samples support p90, not p95.
        let l = latency(&v[..100]);
        assert!((l.tail_quantile - 0.90).abs() < 1e-12);
        // A handful of samples supports nothing beyond the median.
        let l = latency(&v[..8]);
        assert_eq!(l.tail_quantile, 0.5);
        assert_eq!(l.tail, l.p50);
    }

    #[test]
    fn open_loop_latency_runs_from_the_due_time() {
        let mut s = OpenLoopSample::default();
        // Due at 1 ms, sent 0.5 ms late, answered 0.2 ms after sending.
        s.record(1_000_000, 1_500_000, 1_700_000);
        assert_eq!(s.latency_us, vec![700.0]);
        assert_eq!(s.lateness_us, vec![500.0]);
    }
}
