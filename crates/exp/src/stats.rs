//! Sample statistics for experiment aggregation.

/// Summary of a sample: the paper plots means over 15 topologies; the
/// harness additionally reports dispersion so EXPERIMENTS.md can show
/// confidence intervals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample size.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (Bessel-corrected; 0 for n < 2).
    pub std_dev: f64,
    /// Half-width of the 95% normal-approximation confidence interval.
    pub ci95: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarizes a slice of samples.
    ///
    /// # Panics
    /// Panics on an empty slice or non-finite samples — experiment code
    /// always has at least one repetition.
    pub fn of(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "cannot summarize zero samples");
        assert!(
            samples.iter().all(|s| s.is_finite()),
            "non-finite sample in {samples:?}"
        );
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = if n < 2 {
            0.0
        } else {
            samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        };
        let std_dev = var.sqrt();
        let ci95 = if n < 2 {
            0.0
        } else {
            1.96 * std_dev / (n as f64).sqrt()
        };
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Self {
            n,
            mean,
            std_dev,
            ci95,
            min,
            max,
        }
    }

    /// `mean ± ci95` formatted for tables, at `decimals` places.
    pub fn display_ci(&self, decimals: usize) -> String {
        format!("{:.*} ± {:.*}", decimals, self.mean, decimals, self.ci95)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_sample() {
        let s = Summary::of(&[4.2]);
        assert_eq!(s.n, 1);
        assert_eq!(s.mean, 4.2);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.ci95, 0.0);
        assert_eq!(s.min, 4.2);
        assert_eq!(s.max, 4.2);
    }

    #[test]
    fn known_sample_statistics() {
        // Sample: 2, 4, 4, 4, 5, 5, 7, 9 — mean 5, sample std dev ~2.138.
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.mean, 5.0);
        assert!((s.std_dev - 2.1380899).abs() < 1e-6);
        assert!((s.ci95 - 1.96 * 2.1380899 / 8f64.sqrt()).abs() < 1e-6);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
    }

    #[test]
    fn constant_sample_has_zero_spread() {
        let s = Summary::of(&[3.0; 10]);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.ci95, 0.0);
    }

    #[test]
    #[should_panic(expected = "zero samples")]
    fn empty_rejected() {
        Summary::of(&[]);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn nan_rejected() {
        Summary::of(&[1.0, f64::NAN]);
    }

    #[test]
    fn display_format() {
        let s = Summary::of(&[1.0, 2.0, 3.0]);
        assert!(s.display_ci(2).starts_with("2.00 ± "));
        assert_eq!(s.display_ci(3), "2.000 ± 1.132");
    }
}
