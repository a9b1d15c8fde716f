//! What defines each serve workload's traffic, and the seeded request
//! streams the connections replay.
//!
//! The key space is split between connections: connection `c` of `n`
//! only ever touches key ids `id ≡ c (mod n)`, drawn Zipf by rank within
//! its share. Every key therefore has one writer, which makes "the last
//! acknowledged SET" exact without cross-connection ordering, while the
//! traffic summed over connections stays Zipf over the whole space.

use csr_serve::SimBacking;
use mem_trace::rng::SplitMix64;
use std::fmt::Write as _;
use std::time::Duration;

/// The traffic of one serve workload. Everything the benchmark pins is
/// here; the engine, shard count and worker counts stay the server's
/// defaults so that changes to them are measured.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    /// Workload name on the command line.
    pub name: &'static str,
    /// Distinct keys.
    pub keys: u32,
    /// Zipf skew.
    pub theta: f64,
    /// Bytes per value, from the origin and in SETs.
    pub value_len: usize,
    /// Cache capacity in entries.
    pub capacity: usize,
    /// Nominal fast-tier origin latency, µs.
    pub fast_us: u64,
    /// Nominal slow-tier origin latency, µs.
    pub slow_us: u64,
    /// One key in this many lives in the slow tier.
    pub slow_every: u64,
    /// Share of requests that are SETs.
    pub set_share: f64,
    /// Persistence on, fsync at most once per 10 ms, with a restart
    /// after the timed phase.
    pub durable: bool,
    /// Set-up GETs key ids `0..warm_keys` once each (the hottest ranks).
    pub warm_keys: u32,
}

impl ServeSpec {
    /// The tiered origin's latencies and values.
    #[must_use]
    pub fn sim(&self) -> SimBacking {
        SimBacking {
            fast: Duration::from_micros(self.fast_us),
            slow: Duration::from_micros(self.slow_us),
            slow_every: self.slow_every,
            value_len: self.value_len,
        }
    }
}

/// The cache policy, chosen by its command-line name.
pub const POLICY: &str = "dcl";

/// `hit_heavy`: all keys fit and are warmed, so every timed GET is a hit
/// and the cost per request is engine + protocol + a cache hit.
pub const HIT_HEAVY: ServeSpec = ServeSpec {
    name: "hit_heavy",
    keys: 16_384,
    theta: 0.9,
    value_len: 128,
    capacity: 65_536,
    fast_us: 20,
    slow_us: 160,
    slow_every: 8,
    set_share: 0.0,
    durable: false,
    warm_keys: 16_384,
};

/// `evict_heavy`: a key space 16x the capacity, filled before timing, so
/// every timed miss fetches from the tiered origin and evicts.
pub const EVICT_HEAVY: ServeSpec = ServeSpec {
    name: "evict_heavy",
    keys: 1 << 20,
    warm_keys: 65_536,
    ..HIT_HEAVY
};

/// `write_durable`: half SETs through the WAL beside GET hits on the same
/// cache; nothing is evicted. Ends with a graceful shutdown and restart.
pub const WRITE_DURABLE: ServeSpec = ServeSpec {
    name: "write_durable",
    set_share: 0.5,
    durable: true,
    ..HIT_HEAVY
};

/// Requests in each connection's stream. Longer than any connection gets
/// through in a run, so no run wraps around; a run that did would replay
/// from the start.
pub const STREAM_LEN: usize = 1 << 20;

const SET_BIT: u32 = 1 << 31;

/// One request of a stream: a key id, and whether it is a SET.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op(u32);

impl Op {
    /// The key id.
    #[must_use]
    pub fn id(self) -> u32 {
        self.0 & !SET_BIT
    }

    /// Whether this is a SET (else a GET).
    #[must_use]
    pub fn is_set(self) -> bool {
        self.0 & SET_BIT != 0
    }
}

/// Cumulative Zipf weights over ranks `1..=n` with skew `theta`.
#[must_use]
pub fn zipf_cdf(n: usize, theta: f64) -> Vec<f64> {
    let mut total = 0.0;
    let mut cdf: Vec<f64> = (1..=n)
        .map(|rank| {
            total += (rank as f64).powf(-theta);
            total
        })
        .collect();
    for p in &mut cdf {
        *p /= total;
    }
    cdf
}

/// The stream seed of connection `conn` under workload seed `seed`.
fn conn_seed(seed: u64, conn: usize) -> u64 {
    SplitMix64::new(seed ^ (conn as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// Connection `conn`'s `len` requests out of `conns`, drawn from `cdf`
/// (the Zipf CDF over one connection's share of ranks).
#[must_use]
pub fn stream(
    spec: &ServeSpec,
    cdf: &[f64],
    seed: u64,
    conn: usize,
    conns: usize,
    len: usize,
) -> Vec<Op> {
    let mut rng = SplitMix64::new(conn_seed(seed, conn));
    (0..len)
        .map(|_| {
            let r = rng.next_f64();
            let rank = cdf.partition_point(|&p| p < r).min(cdf.len() - 1);
            let id = u32::try_from(rank * conns + conn).expect("key ids fit in 31 bits");
            let set = spec.set_share > 0.0 && rng.chance(spec.set_share);
            Op(if set { id | SET_BIT } else { id })
        })
        .collect()
}

/// Ranks in each connection's share of the key space.
#[must_use]
pub fn ranks_per_conn(spec: &ServeSpec, conns: usize) -> usize {
    (spec.keys as usize).div_ceil(conns)
}

/// Which connection owns key `id`.
#[must_use]
pub fn owner(id: u32, conns: usize) -> usize {
    id as usize % conns
}

/// Writes the wire key of `id` into `buf`.
pub fn key_into(buf: &mut String, id: u32) {
    buf.clear();
    write!(buf, "k{id:07}").expect("writing to a String");
}

/// The wire key of `id`.
#[must_use]
pub fn key(id: u32) -> String {
    let mut k = String::new();
    key_into(&mut k, id);
    k
}

/// The value the `seq`-th request of connection `conn` SETs under `key`:
/// distinct from the origin's value and from every other SET.
pub fn set_value_into(buf: &mut Vec<u8>, key: &str, conn: usize, seq: usize, len: usize) {
    buf.clear();
    write!(VecWriter(buf), "{key}={conn}.{seq}").expect("writing to a Vec");
    buf.resize(buf.len().max(len), b'*');
}

struct VecWriter<'a>(&'a mut Vec<u8>);

impl std::fmt::Write for VecWriter<'_> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0.extend_from_slice(s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_a_function_of_seed_and_connection() {
        let spec = WRITE_DURABLE;
        let cdf = zipf_cdf(ranks_per_conn(&spec, 2), spec.theta);
        let a = stream(&spec, &cdf, 7, 0, 2, 4096);
        assert_eq!(a, stream(&spec, &cdf, 7, 0, 2, 4096));
        assert_ne!(a, stream(&spec, &cdf, 8, 0, 2, 4096));
        let b = stream(&spec, &cdf, 7, 1, 2, 4096);
        assert_ne!(a, b);
        assert!(a
            .iter()
            .all(|op| owner(op.id(), 2) == 0 && op.id() < spec.keys));
        assert!(b
            .iter()
            .all(|op| owner(op.id(), 2) == 1 && op.id() < spec.keys));
        let sets = a.iter().filter(|op| op.is_set()).count();
        assert!((1800..2300).contains(&sets), "{sets} SETs of 4096");
    }

    #[test]
    fn get_only_streams_are_skewed() {
        let spec = HIT_HEAVY;
        let cdf = zipf_cdf(ranks_per_conn(&spec, 2), spec.theta);
        let s = stream(&spec, &cdf, 1, 0, 2, 20_000);
        assert!(s.iter().all(|op| !op.is_set()));
        let hottest = s.iter().filter(|op| op.id() == 0).count();
        let cold = s.iter().filter(|op| op.id() == 8000).count();
        assert!(hottest > 50 * cold.max(1), "hottest {hottest}, cold {cold}");
    }

    #[test]
    fn set_values_are_distinct_and_padded() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        set_value_into(&mut a, "k0000001", 0, 5, 128);
        set_value_into(&mut b, "k0000001", 0, 6, 128);
        assert_eq!(a.len(), 128);
        assert_ne!(a, b);
        assert!(a.starts_with(b"k0000001=0.5*"));
        assert_eq!(key(42), "k0000042");
    }
}
