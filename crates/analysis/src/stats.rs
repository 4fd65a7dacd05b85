//! Statistics: CDFs, PDFs, Jaccard, mean/std.

use std::collections::BTreeSet;

/// Sort floats in a total, NaN-safe order (IEEE 754 totalOrder).
///
/// `f64::total_cmp` never panics, unlike `partial_cmp(..).unwrap()`,
/// and gives NaNs a defined position (negative NaN first, positive NaN
/// last) so a stray NaN degrades output instead of crashing a run.
pub fn sort_floats(samples: &mut [f64]) {
    samples.sort_by(f64::total_cmp);
}

/// An empirical CDF over integer or real values.
#[derive(Clone, Debug, PartialEq)]
pub struct Cdf {
    values: Vec<f64>,
}

impl Cdf {
    /// Build from samples (order irrelevant).
    pub fn new(mut samples: Vec<f64>) -> Self {
        sort_floats(&mut samples);
        Cdf { values: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the CDF has no samples.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Fraction of samples ≤ `x`, in `[0, 1]`.
    pub fn at(&self, x: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let count = self.values.partition_point(|v| *v <= x);
        count as f64 / self.values.len() as f64
    }

    /// The `q`-quantile (`q` in `[0,1]`).
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(!self.values.is_empty(), "quantile of empty CDF");
        let q = q.clamp(0.0, 1.0);
        let idx = ((self.values.len() as f64 - 1.0) * q).round() as usize;
        self.values[idx]
    }

    /// Plot points `(x, percent ≤ x)` for every distinct sample value —
    /// the series format of the paper's Figure 1 CDFs.
    pub fn points(&self) -> Vec<(f64, f64)> {
        let mut out = Vec::new();
        for (i, v) in self.values.iter().enumerate() {
            let pct = (i + 1) as f64 / self.values.len() as f64 * 100.0;
            match out.last_mut() {
                Some((x, p)) if *x == *v => *p = pct,
                _ => out.push((*v, pct)),
            }
        }
        out
    }

    /// Fraction of samples strictly below zero (the paper's headline
    /// "X% of services contact more domains via Web" statistic).
    pub fn fraction_negative(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let count = self.values.partition_point(|v| *v < 0.0);
        count as f64 / self.values.len() as f64
    }
}

/// A discrete PDF (histogram normalized to percentages).
#[derive(Clone, Debug, PartialEq)]
pub struct Pdf {
    /// `(value, percent of samples)` in ascending value order.
    pub bins: Vec<(i64, f64)>,
}

impl Pdf {
    /// Build from integer samples.
    pub fn new(samples: &[i64]) -> Self {
        let mut counts = std::collections::BTreeMap::new();
        for &s in samples {
            *counts.entry(s).or_insert(0usize) += 1;
        }
        let n = samples.len().max(1) as f64;
        Pdf {
            bins: counts
                .into_iter()
                .map(|(v, c)| (v, c as f64 / n * 100.0))
                .collect(),
        }
    }

    /// The modal value (highest bin; ties break toward the smaller value).
    pub fn mode(&self) -> Option<i64> {
        self.bins
            .iter()
            .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)))
            .map(|(v, _)| *v)
    }

    /// Percent of mass at strictly positive values.
    pub fn positive_mass(&self) -> f64 {
        self.bins
            .iter()
            .filter(|(v, _)| *v > 0)
            .map(|(_, p)| p)
            .sum()
    }
}

/// Jaccard index of two sets: |∩| / |∪|, with the empty-∪ convention 0
/// (matching the paper's treatment of services that leak nothing).
pub fn jaccard<T: Ord>(a: &BTreeSet<T>, b: &BTreeSet<T>) -> f64 {
    let inter = a.intersection(b).count();
    let union = a.union(b).count();
    if union == 0 {
        0.0
    } else {
        inter as f64 / union as f64
    }
}

/// Mean of samples (0 for empty input).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Population standard deviation (0 for empty input) — Table 1 reports
/// `avg ± std` over the services in each group.
pub fn std_dev(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let m = mean(samples);
    (samples.iter().map(|s| (s - m).powi(2)).sum::<f64>() / samples.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_basics() {
        let cdf = Cdf::new(vec![3.0, 1.0, 2.0, 2.0]);
        assert_eq!(cdf.at(0.5), 0.0);
        assert_eq!(cdf.at(1.0), 0.25);
        assert_eq!(cdf.at(2.0), 0.75);
        assert_eq!(cdf.at(10.0), 1.0);
        assert_eq!(cdf.quantile(0.0), 1.0);
        assert_eq!(cdf.quantile(1.0), 3.0);
    }

    #[test]
    fn cdf_points_are_monotonic_and_end_at_100() {
        let cdf = Cdf::new(vec![5.0, -3.0, 0.0, 5.0, 7.0]);
        let pts = cdf.points();
        for w in pts.windows(2) {
            assert!(w[0].0 < w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
        assert_eq!(pts.last().unwrap().1, 100.0);
    }

    #[test]
    fn fraction_negative() {
        let cdf = Cdf::new(vec![-2.0, -1.0, 0.0, 1.0]);
        assert_eq!(cdf.fraction_negative(), 0.5);
        assert_eq!(Cdf::new(vec![]).fraction_negative(), 0.0);
    }

    #[test]
    fn pdf_mode_and_mass() {
        let pdf = Pdf::new(&[1, 1, 1, 0, -1, 2]);
        assert_eq!(pdf.mode(), Some(1));
        assert!((pdf.positive_mass() - (4.0 / 6.0 * 100.0)).abs() < 1e-9);
    }

    #[test]
    fn jaccard_cases() {
        let a: BTreeSet<i32> = [1, 2, 3].into();
        let b: BTreeSet<i32> = [2, 3, 4].into();
        let e: BTreeSet<i32> = BTreeSet::new();
        assert!((jaccard(&a, &b) - 0.5).abs() < 1e-9);
        assert_eq!(jaccard(&a, &a), 1.0);
        assert_eq!(jaccard(&a, &e), 0.0);
        assert_eq!(jaccard(&e, &e), 0.0);
    }

    #[test]
    fn mean_std() {
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(std_dev(&[2.0, 4.0]), 1.0);
        assert_eq!(std_dev(&[]), 0.0);
    }
}
