//! Order statistics shared by the benchmark and the compare tool.

/// Median of `v` (mean of the two middle values for an even count).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartiles, computed like Python's
/// `statistics.quantiles(v, n=4)` (the default "exclusive" method), so
/// spreads printed here match a check made with Python.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let ld = s.len();
    if ld < 2 {
        let x = s.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let n = 4usize;
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64
    };
    (q(1), q(3))
}

/// Inter-quartile range as a share of the median.
pub fn spread(v: &[f64]) -> f64 {
    let (q1, q3) = quartiles(v);
    (q3 - q1) / median(v).abs()
}

/// Bits of each value a [`Histogram`] bucket keeps.
const SUB_BITS: u32 = 8;

/// Counts of `u32` samples in buckets at most 1/128 of their values
/// wide (values below 256 exactly), so quantiles of any number of
/// samples come from a fixed 50 KiB table.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    n: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; ((32 - SUB_BITS + 1) << SUB_BITS) as usize],
            n: 0,
        }
    }
}

impl Histogram {
    pub fn record(&mut self, v: u32) {
        let shift = (32 - v.leading_zeros()).saturating_sub(SUB_BITS);
        self.counts[((shift << SUB_BITS) + (v >> shift)) as usize] += 1;
        self.n += 1;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// The `p`-quantile (0..=1) by nearest rank, as the middle of its
    /// bucket.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!(self.n > 0, "quantile of nothing");
        let rank = ((p * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0;
        let i = self
            .counts
            .iter()
            .position(|&c| {
                seen += c;
                seen >= rank
            })
            .expect("rank is within the count");
        let (shift, top) = (i >> SUB_BITS, (i & ((1 << SUB_BITS) - 1)) as f64);
        if shift == 0 {
            top
        } else {
            (top + 0.5) * (1u64 << shift) as f64
        }
    }
}

/// How a metric moved between two result sets, by the benchmark's rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Either side's spread is wider than the bound and neither side
    /// beat the other in every run: the data cannot tell.
    Unresolved,
    /// Every new run beat every base run, though the spread is wide.
    BetterEveryRun,
    /// Every new run lost to every base run, though the spread is wide.
    WorseEveryRun,
    /// The new median is worse than the base median by more than the bound.
    Regression,
    /// The new side won at least 9 of every 10 pairs and the medians
    /// differ by more than the base's inter-quartile range.
    Gain,
    /// None of the above.
    WithinBound,
}

/// Judge `new` against `base` for a metric with relative `bound`.
/// `pairs` are (base, new) values of runs that share a seed.
pub fn verdict(
    base: &[f64],
    new: &[f64],
    pairs: &[(f64, f64)],
    higher_is_better: bool,
    bound: f64,
) -> Verdict {
    // Positive when `x` is better than `y`.
    let better = |x: f64, y: f64| if higher_is_better { x - y } else { y - x };
    let (bm, nm) = (median(base), median(new));
    if spread(base) > bound || spread(new) > bound {
        return if new
            .iter()
            .all(|&y| base.iter().all(|&x| better(y, x) > 0.0))
        {
            Verdict::BetterEveryRun
        } else if new
            .iter()
            .all(|&y| base.iter().all(|&x| better(y, x) < 0.0))
        {
            Verdict::WorseEveryRun
        } else {
            Verdict::Unresolved
        };
    }
    let wins = pairs.iter().filter(|&&(x, y)| better(y, x) > 0.0).count();
    let (q1, q3) = quartiles(base);
    if -better(nm, bm) / bm.abs() > bound {
        Verdict::Regression
    } else if wins * 10 >= pairs.len() * 9 && better(nm, bm) > q3 - q1 {
        Verdict::Gain
    } else {
        Verdict::WithinBound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&v), 5.5);
    }

    #[test]
    fn histogram_quantiles_by_nearest_rank() {
        let mut h = Histogram::default();
        for v in (1..=100).rev() {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile(0.5), 50.0);
        assert_eq!(h.quantile(0.99), 99.0);
        assert_eq!(h.quantile(1.0), 100.0);
        let mut big = Histogram::default();
        for v in [1_000, 250_000, 3_000_000, u32::MAX] {
            big.record(v);
        }
        for (p, v) in [
            (0.25, 1_000.0),
            (0.5, 250_000.0),
            (0.75, 3e6),
            (1.0, 4.295e9),
        ] {
            let q = big.quantile(p);
            assert!((q - v).abs() / v < 1.0 / 128.0, "p{p}: {q} vs {v}");
        }
    }

    fn pairs(base: &[f64], new: &[f64]) -> Vec<(f64, f64)> {
        base.iter().copied().zip(new.iter().copied()).collect()
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        let base = [100.0, 60.0, 140.0, 100.0, 80.0, 120.0];
        let new = [101.0, 59.0, 141.0, 99.0, 81.0, 119.0];
        assert_eq!(
            verdict(&base, &new, &pairs(&base, &new), true, 0.1),
            Verdict::Unresolved
        );
        let all_better: Vec<f64> = base.iter().map(|x| x + 200.0).collect();
        let v = verdict(&base, &all_better, &pairs(&base, &all_better), true, 0.1);
        assert_eq!(v, Verdict::BetterEveryRun);
    }

    #[test]
    fn regressions_gains_and_noise() {
        let base: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i)).collect();
        let slower: Vec<f64> = base.iter().map(|x| x * 0.7).collect();
        assert_eq!(
            verdict(&base, &slower, &pairs(&base, &slower), true, 0.1),
            Verdict::Regression
        );
        let faster: Vec<f64> = base.iter().map(|x| x + 8.0).collect();
        assert_eq!(
            verdict(&base, &faster, &pairs(&base, &faster), true, 0.1),
            Verdict::Gain
        );
        // Lower is better: the same shift is a loss, still within the bound.
        assert_eq!(
            verdict(&base, &faster, &pairs(&base, &faster), false, 0.1),
            Verdict::WithinBound
        );
        let mut mixed = faster.clone();
        mixed[0] = base[0] - 1.0;
        mixed[1] = base[1] - 1.0;
        assert_eq!(
            verdict(&base, &mixed, &pairs(&base, &mixed), true, 0.1),
            Verdict::WithinBound
        );
    }
}
