//! Deterministic single-thread equivalence: a 1-shard `CsrCache` driven
//! with an identity hasher must make exactly the same residency decisions
//! as the `cache-sim` simulator running the same policy on one set of the
//! same associativity over an identical reference stream — for every
//! policy core in [`Policy::ALL`], on a small 8-way region and on one
//! 4096-entry region, where the shard's victim walk is long.
//!
//! The identity hasher makes the policy-visible block identity equal the
//! raw key, so the shard's policy core and the simulator's per-set core
//! observe byte-for-byte identical event streams.

use cache_sim::{AccessType, BlockAddr, Cache, Cost, Geometry, Lru, ReplacementPolicy};
use csr::etd::EtdConfig;
use csr::{Acl, Bcl, Camp, Dcl, Gdsf, GreedyDual, Lfuda, S3Fifo, Slru};
use csr_cache::{CsrCache, Policy};
use std::hash::{BuildHasher, Hasher};

/// One replacement region and the reference stream driven through it.
struct Region {
    ways: usize,
    universe: u64,
    /// Fill keys `0..ways` in order before the random accesses, so a large
    /// region is full (and evicting) from the first random access on.
    warm_fill: bool,
    /// Random accesses over the key universe.
    accesses: usize,
    /// Compare the residency of every key after each step (O(universe));
    /// otherwise only the hit/miss outcome and the evicted key are
    /// compared per step, and full residency once at the end.
    full_check_every_step: bool,
}

const SMALL: Region = Region {
    ways: 8,
    universe: 24,
    warm_fill: false,
    accesses: 4000,
    full_check_every_step: true,
};

/// One 4096-entry region over a 1.5x key universe: about a third of the
/// random accesses miss and evict, several hundred evictions in all.
const LARGE: Region = Region {
    ways: 4096,
    universe: 6144,
    warm_fill: true,
    accesses: 2400,
    full_check_every_step: false,
};

/// A hasher whose output is the last `u64` written — `hash(k) == k`.
#[derive(Clone, Default)]
struct IdentityState;

struct IdentityHasher(u64);

impl Hasher for IdentityHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        // u64's Hash impl goes through write_u64; this path is only taken
        // by HashMap metadata writes on some platforms.
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }
    fn write_u64(&mut self, i: u64) {
        self.0 = i;
    }
}

impl BuildHasher for IdentityState {
    type Hasher = IdentityHasher;
    fn build_hasher(&self) -> IdentityHasher {
        IdentityHasher(0)
    }
}

/// Skewed costs: every fourth key is 16x more expensive to re-fetch.
fn cost_of(key: u64) -> u64 {
    if key.is_multiple_of(4) {
        16
    } else {
        1
    }
}

/// Deterministic reference stream: the optional in-order warm fill, then
/// an LCG over the region's key universe.
fn stream(region: &Region) -> impl Iterator<Item = u64> {
    let warm = if region.warm_fill {
        region.ways as u64
    } else {
        0
    };
    let mut state = 0x1E12_AC4Eu64;
    let universe = region.universe;
    let random = std::iter::repeat_with(move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % universe
    });
    (0..warm).chain(random.take(region.accesses))
}

/// The simulator policy running the same core as the shard's `policy`,
/// configured as `Policy::build_core` configures the shard's.
fn sim_policy(policy: Policy, geom: &Geometry) -> Box<dyn ReplacementPolicy> {
    // The shard caps its ETD at 1024 entries (`s - 1` below that).
    let etd = EtdConfig {
        entries_per_set: (geom.assoc() - 1).min(1024),
        tag_bits: None,
    };
    match policy {
        Policy::Lru => Box::new(Lru::new()),
        Policy::Gd => Box::new(GreedyDual::new(geom)),
        Policy::Bcl => Box::new(Bcl::new(geom)),
        Policy::Dcl => Box::new(Dcl::with_etd_config(geom, etd)),
        Policy::Acl => Box::new(Acl::with_etd_config(geom, etd)),
        Policy::S3Fifo => Box::new(S3Fifo::new(geom)),
        Policy::Slru => Box::new(Slru::new(geom)),
        Policy::Lfuda => Box::new(Lfuda::new(geom)),
        Policy::Gdsf => Box::new(Gdsf::new(geom)),
        Policy::Camp => Box::new(Camp::new(geom)),
    }
}

fn run_equivalence(policy: Policy, region: &Region) {
    let ways = region.ways;
    let geom = Geometry::new((ways * 64) as u64, 64, ways); // exactly one set
    assert_eq!(geom.num_sets(), 1);
    let mut sim = Cache::new(geom, sim_policy(policy, &geom));

    let cache: CsrCache<u64, u64, IdentityState> = CsrCache::builder(ways)
        .shards(1)
        .policy(policy)
        .cost_fn(|k: &u64, _v: &u64| cost_of(*k))
        .hasher(IdentityState)
        .build();
    assert_eq!(cache.capacity(), ways);

    let assert_same_residency = |sim: &Cache<_>, step: usize| {
        for probe in 0..region.universe {
            assert_eq!(
                cache.contains(&probe),
                sim.contains(BlockAddr(probe)),
                "{policy}/{ways}: residency of key {probe} diverged after step {step}",
            );
        }
    };

    let mut steps = 0;
    for (step, key) in stream(region).enumerate() {
        steps += 1;
        let outcome = sim.access(BlockAddr(key), AccessType::Read, Cost(cost_of(key)));
        let hit = cache.get(&key).is_some();
        if !hit {
            cache.insert(key, key);
        }
        assert_eq!(
            hit, outcome.hit,
            "{policy}/{ways}: hit/miss diverged at step {step} (key {key})",
        );
        // Both sides fill the same key and evict at most one; if the
        // shard also dropped the simulator's victim, residency stays equal.
        if let Some(ev) = outcome.evicted {
            assert!(
                !cache.contains(&ev.block.0),
                "{policy}/{ways}: the simulator evicted key {} at step {step}, the shard kept it",
                ev.block.0,
            );
        }
        if region.full_check_every_step {
            assert_same_residency(&sim, step);
        }
    }
    assert_same_residency(&sim, steps);

    let stats = cache.stats();
    assert_eq!(stats.lookups, steps as u64);
    if region.warm_fill {
        assert!(
            stats.evictions >= 500,
            "{policy}/{ways}: only {} evictions — the region never got under pressure",
            stats.evictions,
        );
    }
    assert_eq!(stats.hits + stats.misses, stats.lookups);
    assert_eq!(
        stats.aggregate_miss_cost,
        sim.stats().aggregate_cost.0,
        "{policy}/{ways}: aggregate miss cost diverged",
    );
    assert_eq!(stats.misses, stats.insertions);
}

#[test]
fn every_core_matches_the_simulator_on_a_small_region() {
    for policy in Policy::ALL {
        run_equivalence(policy, &SMALL);
    }
}

#[test]
fn every_core_matches_the_simulator_on_a_4096_entry_region() {
    for policy in Policy::ALL {
        run_equivalence(policy, &LARGE);
    }
}
