//! Sample statistics with honest percentiles, and the FNV-1a fingerprint
//! printed per simulator cell.

/// Fewest samples that must lie strictly beyond a percentile's rank before
/// the benchmark reports it. Below this the tail is a guess, so the value
/// is withheld and only the sample count is printed.
pub const MIN_BEYOND: usize = 10;

/// A nearest-rank percentile and the sample count it was taken from.
/// `value` is `None` when fewer than [`MIN_BEYOND`] samples lie beyond
/// the rank.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pct {
    pub value: Option<f64>,
    pub n: usize,
}

/// Nearest-rank percentile `p` (in `(0, 1]`) of `samples`: the value at
/// 1-based rank `ceil(p · n)` of the sorted samples, reported only when at
/// least [`MIN_BEYOND`] samples rank above it.
pub fn percentile(samples: &[f64], p: f64) -> Pct {
    assert!(p > 0.0 && p <= 1.0, "percentile rank must be in (0, 1]");
    let n = samples.len();
    if n == 0 {
        return Pct { value: None, n };
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return Pct { value: None, n };
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Pct {
        value: Some(sorted[rank - 1]),
        n,
    }
}

/// Median of a non-empty sample set (mean of the middle pair for an even
/// count). Used to fold repeats of one measurement, never for a tail.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// 64-bit FNV-1a over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_a_known_vector() {
        // 1..=100 shuffled: rank ceil(p·100) is the value itself.
        let v: Vec<f64> = (0..100).map(|i| ((i * 37) % 100 + 1) as f64).collect();
        assert_eq!(
            percentile(&v, 0.5),
            Pct {
                value: Some(50.0),
                n: 100
            }
        );
        assert_eq!(
            percentile(&v, 0.9),
            Pct {
                value: Some(90.0),
                n: 100
            }
        );
        // p99 has one sample beyond it: withheld, count kept.
        assert_eq!(
            percentile(&v, 0.99),
            Pct {
                value: None,
                n: 100
            }
        );
        // Exactly ten beyond is enough.
        let w: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(
            percentile(&w, 0.5),
            Pct {
                value: Some(10.0),
                n: 20
            }
        );
        // Nine beyond is not.
        let x: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(percentile(&x, 0.5), Pct { value: None, n: 19 });
        assert_eq!(percentile(&[], 0.5), Pct { value: None, n: 0 });
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn fnv1a_reference_values() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
