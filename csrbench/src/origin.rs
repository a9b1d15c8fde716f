//! The benchmark's origin: `SimBacking`'s tiered latencies and values,
//! plus accounting of what each fetch cost.
//!
//! The paper's figure of merit is aggregate miss cost. Here that is the
//! *nominal* tier latency each fetch was assigned (20 or 160 µs), summed
//! apart from the measured busy time, so that sleep jitter moves the
//! measured overshoot but not the miss cost.

use crate::spans::{Clock, Span};
use csr_serve::{Backing, BackingError, InfallibleBacking, SimBacking};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A read-through origin that counts fetches, nominal cost and busy time,
/// and in a traced run records a span per fetch under the request that
/// caused it.
pub struct Origin {
    sim: SimBacking,
    fetches: AtomicU64,
    nominal_us: AtomicU64,
    busy_ns: AtomicU64,
    tracing: AtomicBool,
    clock: Clock,
    /// Key → id of the client request in flight for it (traced runs).
    in_flight: Mutex<HashMap<String, u64>>,
    spans: Mutex<Vec<Span>>,
    next_span: AtomicU64,
}

/// Counters of an [`Origin`] at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OriginCounts {
    /// Fetches served.
    pub fetches: u64,
    /// Sum of the nominal tier latency of every fetch, µs.
    pub nominal_us: u64,
    /// Measured time spent in fetches, ns.
    pub busy_ns: u64,
}

impl OriginCounts {
    /// Counts accrued since `before`.
    #[must_use]
    pub fn since(self, before: OriginCounts) -> OriginCounts {
        OriginCounts {
            fetches: self.fetches - before.fetches,
            nominal_us: self.nominal_us - before.nominal_us,
            busy_ns: self.busy_ns - before.busy_ns,
        }
    }
}

impl Origin {
    /// An origin with `sim`'s tiers and values; spans are timed on
    /// `clock`.
    #[must_use]
    pub fn new(sim: SimBacking, clock: Clock) -> Self {
        Origin {
            sim,
            fetches: AtomicU64::new(0),
            nominal_us: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            tracing: AtomicBool::new(false),
            clock,
            in_flight: Mutex::new(HashMap::new()),
            spans: Mutex::new(Vec::new()),
            next_span: AtomicU64::new(1 << 62),
        }
    }

    /// The value every fetch of `key` returns.
    #[must_use]
    pub fn value_for(&self, key: &str) -> Vec<u8> {
        self.sim.value_for(key)
    }

    /// The nominal latency of fetching `key`, µs.
    #[must_use]
    pub fn nominal_us(&self, key: &str) -> u64 {
        let tier = if self.sim.is_slow(key) {
            self.sim.slow
        } else {
            self.sim.fast
        };
        u64::try_from(tier.as_micros()).unwrap_or(u64::MAX)
    }

    /// Current counters.
    #[must_use]
    pub fn counts(&self) -> OriginCounts {
        OriginCounts {
            fetches: self.fetches.load(Ordering::Relaxed),
            nominal_us: self.nominal_us.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
        }
    }

    /// Starts or stops span recording.
    pub fn set_tracing(&self, on: bool) {
        self.tracing.store(on, Ordering::SeqCst);
    }

    /// Marks request `id` as in flight for `key`, so a fetch of `key`
    /// records its span under it.
    pub fn begin_request(&self, key: &str, id: u64) {
        self.in_flight
            .lock()
            .expect("in-flight map lock poisoned")
            .insert(key.to_owned(), id);
    }

    /// Clears the in-flight mark of `key`.
    pub fn end_request(&self, key: &str) {
        self.in_flight
            .lock()
            .expect("in-flight map lock poisoned")
            .remove(key);
    }

    /// Takes the fetch spans recorded so far.
    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span lock poisoned"))
    }
}

impl Backing for Origin {
    fn try_fetch(&self, key: &str) -> Result<Option<Vec<u8>>, BackingError> {
        let tracing = self.tracing.load(Ordering::Relaxed);
        let start_ns = if tracing { self.clock.now_ns() } else { 0 };
        let t0 = Instant::now();
        let value = self.sim.fetch(key);
        let busy = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.fetches.fetch_add(1, Ordering::Relaxed);
        self.nominal_us
            .fetch_add(self.nominal_us(key), Ordering::Relaxed);
        self.busy_ns.fetch_add(busy, Ordering::Relaxed);
        if tracing {
            let parent = self
                .in_flight
                .lock()
                .expect("in-flight map lock poisoned")
                .get(key)
                .copied()
                .unwrap_or(0);
            let span = Span {
                id: self.next_span.fetch_add(1, Ordering::Relaxed),
                parent,
                name: "origin.fetch",
                start_ns,
                end_ns: self.clock.now_ns(),
            };
            self.spans.lock().expect("span lock poisoned").push(span);
        }
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn nominal_cost_is_the_tier_latency_not_the_sleep() {
        let sim = SimBacking {
            fast: Duration::from_micros(1),
            slow: Duration::from_micros(8),
            slow_every: 8,
            value_len: 32,
        };
        let origin = Origin::new(sim, Clock::start());
        let keys: Vec<String> = (0..400).map(crate::workload::key).collect();
        let slow = keys.iter().filter(|k| origin.sim.is_slow(k)).count() as u64;
        assert!(slow > 0 && slow < 400);
        for k in &keys {
            let v = origin.try_fetch(k).unwrap().unwrap();
            assert_eq!(v, origin.value_for(k));
        }
        let c = origin.counts();
        assert_eq!(c.fetches, 400);
        assert_eq!(c.nominal_us, slow * 8 + (400 - slow));
        // A sleep lasts at least its nominal time; the excess is overshoot.
        assert!(c.busy_ns >= c.nominal_us * 1000);
        let later = origin.counts();
        assert_eq!(later.since(c), OriginCounts::default());
    }

    #[test]
    fn traced_fetches_link_to_the_request_in_flight() {
        let sim = SimBacking {
            fast: Duration::ZERO,
            slow: Duration::ZERO,
            slow_every: 8,
            value_len: 16,
        };
        let origin = Origin::new(sim, Clock::start());
        origin.try_fetch("a").unwrap();
        assert!(
            origin.take_spans().is_empty(),
            "untraced fetches record nothing"
        );
        origin.set_tracing(true);
        origin.begin_request("a", 42);
        origin.try_fetch("a").unwrap();
        origin.end_request("a");
        origin.try_fetch("a").unwrap();
        let spans = origin.take_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, 42);
        assert_eq!(spans[1].parent, 0);
        assert_ne!(spans[0].id, spans[1].id);
    }
}
