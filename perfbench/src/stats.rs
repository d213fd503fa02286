//! Order statistics for latency samples.
//!
//! Every timing is reported as a median plus the highest percentile that
//! still has at least [`MIN_BEYOND`] samples above its nearest rank, so a
//! tail is never read off a handful of points.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
pub const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Nearest-rank percentile of an ascending slice: the value at 1-based
/// rank `ceil(q/100 · n)`. `None` for an empty slice.
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<f64> {
    rank(sorted.len(), q).map(|r| sorted[r - 1])
}

/// 1-based nearest rank of percentile `q` among `n` samples.
fn rank(n: usize, q: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    // The epsilon keeps float error in `q/100 · n` (99.9 · 10⁴ is not
    // exact) from pushing an exact rank up by one.
    let r = ((q / 100.0) * n as f64 - 1e-9).ceil() as usize;
    Some(r.clamp(1, n))
}

/// The highest ladder percentile not above `cap` that leaves at least
/// [`MIN_BEYOND`] samples beyond its rank, with its value. `None` when
/// even the median has fewer than that many samples beyond it.
pub fn tail(sorted: &[f64], cap: f64) -> Option<(f64, f64)> {
    let n = sorted.len();
    TAIL_LADDER
        .iter()
        .filter(|&&q| q <= cap)
        .find(|&&q| rank(n, q).is_some_and(|r| n - r >= MIN_BEYOND))
        .map(|&q| (q, sorted[rank(n, q).expect("non-empty") - 1]))
}

/// Median (nearest rank) of an unsorted sample; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    nearest_rank(&sorted(values), 50.0)
}

/// An ascending copy of `values` (NaN-free input assumed).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("latency samples are finite"));
    v
}

/// Median, tail and count of one latency sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// Percentile chosen by [`tail`], and its value (`None` when the
    /// sample is too small for any tail).
    pub tail: Option<(f64, f64)>,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarise `values`, reporting the tail at most at percentile `cap`.
    pub fn of(values: &[f64], cap: f64) -> Option<Summary> {
        let s = sorted(values);
        Some(Summary {
            n: s.len(),
            p50: nearest_rank(&s, 50.0)?,
            tail: tail(&s, cap),
            max: *s.last()?,
        })
    }
}

/// FNV-1a 64-bit hash, the digest of response bodies.
pub fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = if seed == 0 {
        0xcbf2_9ce4_8422_2325
    } else {
        seed
    };
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Digest of one response: its status code and body bytes.
pub fn response_hash(status: u16, body: &[u8]) -> u64 {
    fnv1a(fnv1a(0, &status.to_le_bytes()), body)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_matches_definition() {
        let v = ramp(10);
        assert_eq!(nearest_rank(&v, 50.0), Some(5.0));
        assert_eq!(nearest_rank(&v, 99.0), Some(10.0));
        assert_eq!(nearest_rank(&v, 1.0), Some(1.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
    }

    #[test]
    fn tail_requires_ten_samples_beyond() {
        // 1000 samples: p99 is rank 990 with exactly 10 beyond; p99.9 has 1.
        assert_eq!(tail(&ramp(1000), 99.9), Some((99.0, 990.0)));
        // 999 samples: p99 is rank 990 with 9 beyond, so p95 is reported.
        assert_eq!(tail(&ramp(999), 99.9), Some((95.0, 950.0)));
        // 10 000 samples support p99.9 (rank 9990, 10 beyond).
        assert_eq!(tail(&ramp(10_000), 99.9), Some((99.9, 9990.0)));
        // The cap keeps a p99 metric from reporting p99.9.
        assert_eq!(tail(&ramp(10_000), 99.0), Some((99.0, 9900.0)));
        // 40 samples: p75 is rank 30 with 10 beyond; p90 has only 4.
        assert_eq!(tail(&ramp(40), 99.0), Some((75.0, 30.0)));
        // 19 samples: even the median (rank 10) has only 9 beyond.
        assert_eq!(tail(&ramp(19), 99.0), None);
    }

    #[test]
    fn summary_of_unsorted_sample() {
        let mut v = ramp(2000);
        v.reverse();
        let s = Summary::of(&v, 99.0).unwrap();
        assert_eq!(s.n, 2000);
        assert_eq!(s.p50, 1000.0);
        assert_eq!(s.tail, Some((99.0, 1980.0)));
        assert_eq!(s.max, 2000.0);
    }

    #[test]
    fn response_hash_separates_status_and_body() {
        assert_ne!(response_hash(200, b"{}"), response_hash(201, b"{}"));
        assert_ne!(response_hash(200, b"{}"), response_hash(200, b"{} "));
        assert_eq!(response_hash(200, b"x"), response_hash(200, b"x"));
    }
}
