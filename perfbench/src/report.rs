//! Metric values, nearest-rank percentiles, and the two output formats:
//! the human-readable report (every metric, with unit, clock and sample
//! count) and the one-line JSON result that closes standard output.

use std::fmt::Write as _;

/// Which clock a metric is measured on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Simulated time: the modelled system. Bit-identical at a fixed seed.
    Sim,
    /// Wall-clock time (or a count derived from it): our implementation.
    Wall,
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value (ops, runs, calls).
    pub samples: u64,
    pub clock: Clock,
}

/// An ordered set of metrics.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: &str, unit: &'static str, value: f64, samples: u64, clock: Clock) {
        assert!(
            self.get(name).is_none(),
            "metric {name} reported twice in one run"
        );
        self.0.push(Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
            clock,
        });
    }

    pub fn sim(&mut self, name: &str, unit: &'static str, value: f64, samples: u64) {
        self.push(name, unit, value, samples, Clock::Sim);
    }

    pub fn wall(&mut self, name: &str, unit: &'static str, value: f64, samples: u64) {
        self.push(name, unit, value, samples, Clock::Wall);
    }

    /// Nearest-rank p50, and p99 only when at least ten samples lie beyond it.
    pub fn percentiles(&mut self, prefix: &str, samples: &[u64], p99: bool) {
        let mut v = samples.to_vec();
        v.sort_unstable();
        if let Some(p50) = nearest_rank(&v, 50) {
            self.sim(
                &format!("{prefix}_p50_us"),
                "us",
                p50 as f64,
                v.len() as u64,
            );
        }
        if p99 {
            if let Some(p99) = nearest_rank(&v, 99).filter(|_| beyond(v.len(), 99) >= 10) {
                self.sim(
                    &format!("{prefix}_p99_us"),
                    "us",
                    p99 as f64,
                    v.len() as u64,
                );
            }
        }
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.0.iter().find(|m| m.name == name)
    }

    pub fn extend(&mut self, other: Metrics) {
        for m in other.0 {
            self.push(&m.name, m.unit, m.value, m.samples, m.clock);
        }
    }

    /// Exact rendering of every simulated-time value: equal strings mean
    /// bit-identical metrics.
    pub fn sim_fingerprint(&self) -> String {
        let mut s = String::new();
        for m in self.0.iter().filter(|m| m.clock == Clock::Sim) {
            let _ = writeln!(s, "{} {:?} {}", m.name, m.value.to_bits(), m.samples);
        }
        s
    }
}

/// Rank (1-based) of the `p`-th percentile among `n` samples.
fn rank(n: usize, p: u64) -> usize {
    ((p as usize * n).div_ceil(100)).max(1)
}

/// Samples strictly beyond the `p`-th percentile's rank.
fn beyond(n: usize, p: u64) -> usize {
    n - rank(n, p)
}

/// Nearest-rank percentile of sorted samples.
pub fn nearest_rank(sorted: &[u64], p: u64) -> Option<u64> {
    (!sorted.is_empty()).then(|| sorted[rank(sorted.len(), p) - 1])
}

/// Median of wall samples (mean of the middle pair for even counts).
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Prints every metric as one report line.
pub fn print_report(title: &str, metrics: &Metrics) {
    println!("== {title}");
    for m in &metrics.0 {
        let clock = match m.clock {
            Clock::Sim => "sim",
            Clock::Wall => "wall",
        };
        println!(
            "  {:<32} {:>16} {:<6} n={:<8} {clock}",
            m.name,
            format!("{:.4}", m.value),
            m.unit,
            m.samples
        );
    }
}

/// The closing result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the latter restricted to `names`.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
    names: &[&str],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, name) in names.iter().enumerate() {
        let m = metrics
            .get(name)
            .unwrap_or_else(|| panic!("result metric {name} was not measured"));
        assert!(m.value.is_finite(), "metric {name} is not finite");
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_definition() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&v, 50), Some(50));
        assert_eq!(nearest_rank(&v, 99), Some(99));
        assert_eq!(nearest_rank(&[7], 99), Some(7));
        assert_eq!(nearest_rank(&[], 50), None);
        assert_eq!(beyond(1000, 99), 10);
        assert_eq!(beyond(999, 99), 9);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let mut m = Metrics::default();
        m.percentiles("a", &(0..999).collect::<Vec<_>>(), true);
        assert!(m.get("a_p99_us").is_none());
        m.percentiles("b", &(0..1000).collect::<Vec<_>>(), true);
        assert_eq!(m.get("b_p99_us").map(|x| x.value), Some(989.0));
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
