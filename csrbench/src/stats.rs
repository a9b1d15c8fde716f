//! The benchmark's own arithmetic: quantiles of latency samples and
//! medians of repeated measurements.

/// The tail quantiles a latency report may use, highest first. A report
/// uses the highest one that still has at least [`TAIL_MIN_BEYOND`]
/// samples beyond it, so a tail figure is never one or two outliers.
pub const TAIL_LADDER: [f64; 5] = [0.99, 0.95, 0.9, 0.75, 0.5];

/// Samples that must lie beyond a reported tail quantile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank quantile `q` of ascending `sorted` samples: the smallest
/// sample with at least `q * n` samples at or below it.
///
/// # Panics
///
/// Panics if `sorted` is empty.
#[must_use]
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    sorted[rank(sorted.len(), q) - 1]
}

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The highest ladder quantile with at least [`TAIL_MIN_BEYOND`] of `n`
/// samples strictly above its rank, or `None` when even the median
/// lacks them.
#[must_use]
pub fn tail_quantile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&q| n > 0 && n - rank(n, q) >= TAIL_MIN_BEYOND)
}

/// Median and tail of one latency population, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    /// Samples behind both figures.
    pub samples: usize,
    /// Median.
    pub p50_ns: u64,
    /// The quantile the tail figure reports (see [`tail_quantile`]);
    /// `None` with fewer samples than any ladder step needs.
    pub tail_q: Option<f64>,
    /// The tail figure (the maximum when `tail_q` is `None`).
    pub tail_ns: u64,
}

impl Latency {
    /// Summarizes `samples` (sorted in place); `None` when empty.
    #[must_use]
    pub fn of(samples: &mut [u64]) -> Option<Latency> {
        if samples.is_empty() {
            return None;
        }
        samples.sort_unstable();
        let tail_q = tail_quantile(samples.len());
        Some(Latency {
            samples: samples.len(),
            p50_ns: quantile(samples, 0.5),
            tail_q,
            tail_ns: tail_q.map_or(samples[samples.len() - 1], |q| quantile(samples, q)),
        })
    }

    /// The tail quantile as a label such as `p99`.
    #[must_use]
    pub fn tail_label(&self) -> String {
        self.tail_q
            .map_or_else(|| "max".to_owned(), |q| format!("p{:.0}", q * 100.0))
    }
}

/// Requests per chunk of [`Chunks`]: enough for a p90 with twenty
/// samples beyond it.
pub const CHUNK: usize = 200;

/// Throughput and tail per chunk of one connection's consecutive
/// requests in one timed phase, accumulated as they complete (memory per
/// chunk, not per request). A trailing partial chunk is not counted.
///
/// Medians over short chunks keep a stall that hits a few chunks (CPU
/// stolen from a shared host) from deciding a figure, while a change that
/// slows every request moves every chunk.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Chunks {
    /// Per chunk: its size ÷ the time it took, per second.
    pub rates: Vec<f64>,
    /// Per chunk: its p90 latency, ns.
    pub p90_ns: Vec<f64>,
    open: Vec<u64>,
    start_ns: u64,
}

impl Chunks {
    /// Records a request that completed `done_ns` after the phase start
    /// and took `latency_ns`.
    pub fn push(&mut self, done_ns: u64, latency_ns: u64) {
        self.open.push(latency_ns);
        if self.open.len() == CHUNK {
            let took = done_ns.saturating_sub(self.start_ns).max(1);
            self.rates.push(CHUNK as f64 * 1e9 / took as f64);
            self.open.sort_unstable();
            self.p90_ns.push(quantile(&self.open, 0.9) as f64);
            self.open.clear();
            self.start_ns = done_ns;
        }
    }

    /// Adds `other`'s whole chunks.
    pub fn extend(&mut self, other: &Chunks) {
        self.rates.extend(&other.rates);
        self.p90_ns.extend(&other.p90_ns);
    }

    /// Whole chunks seen.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rates.len()
    }
}

/// Throughput over connections: the sum of each connection's median
/// chunk rate, per second.
#[must_use]
pub fn chunk_throughput(conns: &[Chunks]) -> f64 {
    conns
        .iter()
        .filter(|c| c.len() > 0)
        .map(|c| median(&c.rates))
        .sum()
}

/// The median over every connection's chunks of the chunk p90, ns; 0
/// without a whole chunk.
#[must_use]
pub fn chunk_p90_ns(conns: &[Chunks]) -> f64 {
    let all: Vec<f64> = conns
        .iter()
        .flat_map(|c| c.p90_ns.iter().copied())
        .collect();
    if all.is_empty() {
        0.0
    } else {
        median(&all)
    }
}

/// Fine buckets: 100 ns wide, up to 1 ms.
const FINE_NS: u64 = 100;
const FINE: usize = 10_000;
/// Coarse buckets: 10 µs wide, from 1 ms up to 100 ms.
const COARSE_NS: u64 = 10_000;
const COARSE: usize = 9_900;

/// A latency histogram of fixed size, so that what the benchmark keeps
/// does not grow with the number of requests: 100 ns buckets below 1 ms,
/// 10 µs buckets below 100 ms, and one bucket above.
#[derive(Debug, Clone, PartialEq)]
pub struct Hist {
    counts: Vec<u64>,
    max_ns: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; FINE + COARSE + 1],
            max_ns: 0,
        }
    }
}

impl Hist {
    /// Records one latency.
    pub fn record(&mut self, ns: u64) {
        let fine_top = FINE_NS * FINE as u64;
        let idx = if ns < fine_top {
            (ns / FINE_NS) as usize
        } else {
            (FINE + ((ns - fine_top) / COARSE_NS) as usize).min(FINE + COARSE)
        };
        self.counts[idx] += 1;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Adds `other`'s samples.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Nearest-rank quantile `q`, as the upper edge of its bucket (the
    /// maximum for the top bucket); 0 when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let want = rank(n as usize, q) as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= want {
                let edge = if i < FINE {
                    (i as u64 + 1) * FINE_NS
                } else if i < FINE + COARSE {
                    FINE_NS * FINE as u64 + (i - FINE + 1) as u64 * COARSE_NS
                } else {
                    self.max_ns
                };
                return edge.min(self.max_ns);
            }
        }
        self.max_ns
    }

    /// Median and the highest ladder tail; `None` when empty.
    #[must_use]
    pub fn summary(&self) -> Option<Latency> {
        let n = usize::try_from(self.count()).unwrap_or(usize::MAX);
        (n > 0).then(|| {
            let tail_q = tail_quantile(n);
            Latency {
                samples: n,
                p50_ns: self.quantile(0.5),
                tail_q,
                tail_ns: self.quantile(tail_q.unwrap_or(1.0)),
            }
        })
    }
}

/// Median of `values` (the mean of the middle two for an even count).
///
/// # Panics
///
/// Panics if `values` is empty or holds a NaN.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN among measurements"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was counted in the denominator.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&s, 0.5), 50);
        assert_eq!(quantile(&s, 0.99), 99);
        assert_eq!(quantile(&s, 1.0), 100);
        assert_eq!(quantile(&s, 0.0), 1);
        assert_eq!(quantile(&[7], 0.99), 7);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // p99 needs n - ceil(0.99 n) >= 10, first true at n = 1000.
        assert_eq!(tail_quantile(1000), Some(0.99));
        assert_eq!(tail_quantile(999), Some(0.95));
        assert_eq!(tail_quantile(200), Some(0.95));
        assert_eq!(tail_quantile(199), Some(0.9));
        assert_eq!(tail_quantile(100), Some(0.9));
        assert_eq!(tail_quantile(40), Some(0.75));
        assert_eq!(tail_quantile(20), Some(0.5));
        assert_eq!(tail_quantile(19), None);
        assert_eq!(tail_quantile(0), None);
        for n in 1..3000 {
            if let Some(q) = tail_quantile(n) {
                assert!(n - rank(n, q) >= TAIL_MIN_BEYOND, "n={n} q={q}");
            }
        }
    }

    #[test]
    fn latency_summary_sorts_and_labels() {
        let mut s: Vec<u64> = (1..=2000).rev().collect();
        let l = Latency::of(&mut s).unwrap();
        assert_eq!(l.samples, 2000);
        assert_eq!(l.p50_ns, 1000);
        assert_eq!(l.tail_ns, 1980);
        assert_eq!(l.tail_label(), "p99");
        let mut few = vec![5, 1, 3];
        let l = Latency::of(&mut few).unwrap();
        assert_eq!(
            (l.p50_ns, l.tail_ns, l.tail_label().as_str()),
            (3, 5, "max")
        );
        assert!(Latency::of(&mut []).is_none());
    }

    #[test]
    fn chunks_close_every_chunk_requests() {
        let mut c = Chunks::default();
        // 1.5 chunks: 200 requests 10 ns apart, then 100 more.
        for i in 1..=300u64 {
            c.push(i * 10, i);
        }
        assert_eq!(c.len(), 1);
        assert_eq!(c.rates[0], CHUNK as f64 * 1e9 / 2000.0);
        assert_eq!(c.p90_ns[0], 180.0);
        // Another phase's chunks join; the partial chunk does not.
        let mut d = Chunks::default();
        for i in 1..=200u64 {
            d.push(i * 20, 7);
        }
        c.extend(&d);
        assert_eq!(c.len(), 2);
        assert_eq!(c.rates[1], CHUNK as f64 * 1e9 / 4000.0);
        assert_eq!(c.p90_ns[1], 7.0);
    }

    #[test]
    fn histogram_quantiles_are_bucket_edges() {
        let mut h = Hist::default();
        assert_eq!((h.count(), h.quantile(0.5)), (0, 0));
        for ns in 1..=1000u64 {
            h.record(ns * 50); // 50 ns .. 50 µs
        }
        assert_eq!(h.count(), 1000);
        // 25 µs sits in the bucket [25.0, 25.1) µs.
        assert_eq!(h.quantile(0.5), 25_100);
        assert_eq!(h.quantile(0.99), 49_600);
        let s = h.summary().unwrap();
        assert_eq!((s.samples, s.tail_label().as_str()), (1000, "p99"));
        // Coarse and overflow buckets; merging adds counts.
        let mut g = Hist::default();
        g.record(2_500_000);
        g.record(500_000_000);
        h.merge(&g);
        assert_eq!(h.count(), 1002);
        assert_eq!(h.quantile(1.0), 500_000_000);
        let mut only = Hist::default();
        only.record(2_500_000);
        assert_eq!(only.quantile(0.5), 2_500_000);
    }

    #[test]
    fn medians_and_ratios() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }
}
