//! The one timing-statistics helper: median and quartiles over repeats,
//! the highest percentile that still has at least ten samples beyond it,
//! and the sample count, reported together.

/// Standard percentile ladder the tail is picked from.
const LADDER: [f64; 7] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// Samples a percentile needs beyond it before it is worth reporting.
pub const TAIL_SUPPORT: usize = 10;

/// Summary of one set of timings (or any other samples).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// The highest ladder percentile with at least [`TAIL_SUPPORT`] samples
    /// beyond it (`None` with fewer than 20 samples).
    pub tail_pct: Option<f64>,
    pub tail: Option<f64>,
}

/// Percentile `p` (0..=100) of ascending-sorted `sorted`, interpolating
/// linearly between closest ranks.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Sort a copy of `samples` ascending.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `samples` (0 for none).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    percentile(&sorted(samples), 50.0)
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let v = sorted(samples);
        if v.is_empty() {
            return Summary {
                count: 0,
                median: 0.0,
                q1: 0.0,
                q3: 0.0,
                tail_pct: None,
                tail: None,
            };
        }
        let n = v.len() as f64;
        let tail_pct = LADDER
            .iter()
            .copied()
            .rfind(|p| n * (100.0 - p) / 100.0 >= TAIL_SUPPORT as f64 - 1e-9);
        Summary {
            count: v.len(),
            median: percentile(&v, 50.0),
            q1: percentile(&v, 25.0),
            q3: percentile(&v, 75.0),
            tail_pct,
            tail: tail_pct.map(|p| percentile(&v, p)),
        }
    }

    /// One JSON object for the detail lines: every figure beside its
    /// sample count.
    pub fn to_json(self) -> String {
        let opt = |v: Option<f64>| v.map_or_else(|| "null".to_string(), |v| format!("{v}"));
        format!(
            "{{\"n\":{},\"median\":{},\"q1\":{},\"q3\":{},\"tail_pct\":{},\"tail\":{}}}",
            self.count,
            self.median,
            self.q1,
            self.q3,
            opt(self.tail_pct),
            opt(self.tail)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_interpolate_between_ranks() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.0, 3.0, 4.0));
        let s = Summary::of(&[10.0, 20.0]);
        assert_eq!((s.q1, s.median, s.q3), (12.5, 15.0, 17.5));
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&samples);
        assert_eq!(s.count, 1000);
        // 1% of 1000 leaves exactly 10 beyond p99; 0.1% leaves only 1.
        assert_eq!(s.tail_pct, Some(99.0));
        assert!((s.tail.unwrap() - 990.01).abs() < 1e-9);

        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(Summary::of(&hundred).tail_pct, Some(90.0));
        let few: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(Summary::of(&few).tail_pct, None);
        assert_eq!(Summary::of(&few).tail, None);
    }

    #[test]
    fn empty_summary_reports_no_samples() {
        let s = Summary::of(&[]);
        assert_eq!(s.count, 0);
        assert!(s.to_json().contains("\"n\":0"));
    }

    #[test]
    fn order_of_samples_does_not_matter() {
        let a = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        let b = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(a, b);
    }
}
