//! Log-linear latency histograms.
//!
//! Durations are recorded in whole nanoseconds into buckets that are exact
//! below 64 ns and 32 to an octave above (at most 3% wide), so one
//! histogram covers a 20 ns lock call and a 50 ms stall in 15 KiB.
//! Quantiles interpolate inside the bucket that holds the requested rank,
//! treating the integer samples of a bucket as spread evenly over it; a
//! median of samples that all read `v` ns is therefore `v`, and a median
//! that sits on a tie of several values moves smoothly with the mix.

use std::sync::atomic::{AtomicU64, Ordering};

const SUB_BITS: u32 = 5;
const SUB: usize = 1 << SUB_BITS;
/// Enough buckets for any `u64` value.
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    let shift = exp - SUB_BITS;
    let mantissa = (v >> shift) as usize & (SUB - 1);
    ((shift as usize + 1) << SUB_BITS) | mantissa
}

/// First value and width of bucket `b`.
fn bucket_span(b: usize) -> (f64, f64) {
    let (octave, mantissa) = (b >> SUB_BITS, b & (SUB - 1));
    if octave == 0 {
        return (mantissa as f64, 1.0);
    }
    let shift = octave - 1;
    (((SUB + mantissa) << shift) as f64, (1u64 << shift) as f64)
}

/// A plain histogram, owned by one thread or merged from several.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

impl Hist {
    /// Records one sample of `v` ns.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.total += 1;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// The samples of `self` that `earlier` (a previous snapshot of the
    /// same monotone recorder) does not hold.
    pub fn since(&self, earlier: &Hist) -> Hist {
        let counts: Vec<u64> = self
            .counts
            .iter()
            .zip(&earlier.counts)
            .map(|(a, b)| a - b)
            .collect();
        Hist {
            counts,
            total: self.total - earlier.total,
        }
    }

    /// The `q`-quantile (`0 < q < 1`) in ns, or 0 with no samples.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let target = q * self.total as f64;
        let mut below = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (below + c) as f64 >= target {
                let (lo, width) = bucket_span(b);
                let frac = ((target - below as f64) / c as f64).clamp(0.0, 1.0);
                // Integers lo..lo+width cover [lo - 0.5, lo + width - 0.5).
                return (lo - 0.5 + frac * width).max(0.0);
            }
            below += c;
        }
        let (lo, width) = bucket_span(BUCKETS - 1);
        lo + width
    }
}

/// A histogram one thread writes and any thread may snapshot.
///
/// Writes are a relaxed load and store, not a read-modify-write, so the
/// cost on the recording thread is that of a plain increment; this is
/// sound only while a single thread records into it. Readers see a
/// consistent picture once the writer has synchronized with them (a
/// join, or a barrier both passed).
#[derive(Debug)]
pub struct AtomicHist {
    counts: Box<[AtomicU64]>,
}

impl Default for AtomicHist {
    fn default() -> Self {
        AtomicHist {
            counts: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

impl AtomicHist {
    /// Records one sample of `v` ns (single writer; see the type docs).
    pub fn record(&self, v: u64) {
        let c = &self.counts[bucket_of(v)];
        c.store(c.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
    }

    /// Adds the current contents into `into`.
    pub fn add_to(&self, into: &mut Hist) {
        for (a, c) in into.counts.iter_mut().zip(self.counts.iter()) {
            let n = c.load(Ordering::Relaxed);
            *a += n;
            into.total += n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_exact_below_64_and_contiguous_above() {
        for v in 0..64u64 {
            assert_eq!(bucket_span(bucket_of(v)), (v as f64, 1.0));
        }
        let mut prev_end = 64.0;
        for b in bucket_of(64)..bucket_of(1 << 40) {
            let (lo, w) = bucket_span(b);
            assert_eq!(
                lo,
                prev_end,
                "bucket {b} does not start where {} ended",
                b - 1
            );
            assert!(w / lo <= 1.0 / 32.0 + 1e-12);
            assert_eq!(bucket_of(lo as u64), b);
            assert_eq!(bucket_of((lo + w) as u64 - 1), b);
            prev_end = lo + w;
        }
        assert!(bucket_of(u64::MAX) < BUCKETS);
    }

    #[test]
    fn quantiles_interpolate_within_ties() {
        let mut h = Hist::default();
        assert_eq!(h.quantile(0.5), 0.0);
        for _ in 0..100 {
            h.record(20);
        }
        assert_eq!(h.quantile(0.5), 20.0);
        for _ in 0..100 {
            h.record(21);
        }
        // Half the samples at 20 and half at 21: the median sits at the
        // boundary between them.
        assert!((h.quantile(0.5) - 20.5).abs() < 1e-9);
        assert!(h.quantile(0.99) > 21.0 && h.quantile(0.99) < 21.5);
    }

    #[test]
    fn since_and_merge_are_inverse() {
        let a = AtomicHist::default();
        for v in [5, 70, 900, 1 << 20] {
            a.record(v);
        }
        let mut before = Hist::default();
        a.add_to(&mut before);
        a.record(33);
        let mut after = Hist::default();
        a.add_to(&mut after);
        let delta = after.since(&before);
        assert_eq!(delta.count(), 1);
        assert_eq!(delta.quantile(0.5), 33.0);
        let mut back = before.clone();
        back.merge(&delta);
        assert_eq!(back, after);
    }
}
