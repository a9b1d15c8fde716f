//! How far each core pulls the victim walk, counted item by item (no
//! timing). The walk runs LRU → MRU; the paper's Figure 1 scan is
//! incremental, so LRU reads one item and BCL/DCL/ACL stop at the first
//! block cheaper than `Acost`. With `Acost == 0` no block can be cheaper,
//! and they read only the LRU block. Under one reserved LRU block, later
//! scans resume past the blocks earlier ones skipped, so `k` reservations
//! over an `n`-block region pull at most `n + 2k` items in total.

use cache_sim::{BlockAddr, Cost, Way, WayView};
use csr::{
    AclCore, BclCore, CampCore, DclCore, EvictionPolicy, GdCore, GdsfCore, LfudaCore, LruCore,
    S3FifoCore, SlruCore, Walk,
};

const WAYS: usize = 16;

/// A walk over `region` (LRU first) that counts the items pulled from it.
/// Resuming finds the way by a search that is not counted: only the items
/// a core reads are.
struct CountingWalk<'a> {
    region: &'a [WayView],
    pos: usize,
    pulled: usize,
}

impl<'a> CountingWalk<'a> {
    fn new(region: &'a [WayView]) -> Self {
        CountingWalk {
            region,
            pos: 0,
            pulled: 0,
        }
    }
}

impl Iterator for CountingWalk<'_> {
    type Item = WayView;

    fn next(&mut self) -> Option<WayView> {
        let &e = self.region.get(self.pos)?;
        self.pos += 1;
        self.pulled += 1;
        Some(e)
    }
}

impl Walk for CountingWalk<'_> {
    fn resume_after(&mut self, way: Way, block: BlockAddr) -> bool {
        match self.region.iter().position(|e| e.way == way) {
            Some(i) if self.region[i].block == block => {
                self.pos = i + 1;
                true
            }
            _ => false,
        }
    }
}

fn block(i: usize) -> BlockAddr {
    BlockAddr(100 + i as u64)
}

/// A full region from `costs` (LRU first): block `i` sits in way `i`.
fn region(costs: &[u64]) -> Vec<WayView> {
    costs
        .iter()
        .enumerate()
        .map(|(i, &cost)| WayView {
            way: Way(i),
            block: block(i),
            cost: Cost(cost),
            dirty: false,
        })
        .collect()
}

/// Costs of a full region, LRU first: the LRU block and the `k - 1`
/// blocks above it cost 10, the block `k` places above the LRU costs 1,
/// and so does everything beyond it.
fn first_cheaper_at(k: usize) -> Vec<u64> {
    (0..WAYS).map(|i| if i < k { 10 } else { 1 }).collect()
}

/// Runs one victim selection; returns the chosen way and the items pulled.
fn pull(core: &mut dyn EvictionPolicy, costs: &[u64]) -> (Way, usize) {
    pull_region(core, &region(costs))
}

fn pull_region(core: &mut dyn EvictionPolicy, region: &[WayView]) -> (Way, usize) {
    let mut walk = CountingWalk::new(region);
    let way = core.victim(&mut walk);
    (way, walk.pulled)
}

/// An ACL core switched into reservation mode: a watch-mode eviction
/// records the LRU block in the ETD, and a miss on it triggers the
/// automaton.
fn enabled_acl() -> AclCore {
    let mut acl = AclCore::for_ways(WAYS);
    let (way, _) = pull(&mut acl, &first_cheaper_at(1));
    assert_eq!(way, Way(0), "watch mode evicts the LRU block");
    acl.on_miss(block(0), None);
    assert_eq!(
        acl.stats().triggers,
        1,
        "the watch hit enables reservations"
    );
    acl
}

#[test]
fn lru_pulls_only_the_lru_block() {
    for k in 1..WAYS {
        assert_eq!(pull(&mut LruCore::new(), &first_cheaper_at(k)), (Way(0), 1));
    }
}

#[test]
fn reservation_scans_stop_at_the_first_cheaper_block() {
    for k in 1..WAYS {
        let costs = first_cheaper_at(k);
        let expect = (Way(k), k + 1);
        assert_eq!(pull(&mut BclCore::new(), &costs), expect, "BCL, k = {k}");
        assert_eq!(
            pull(&mut DclCore::for_ways(WAYS), &costs),
            expect,
            "DCL, k = {k}"
        );
        assert_eq!(pull(&mut enabled_acl(), &costs), expect, "ACL, k = {k}");
        // Watch mode evicts the LRU block, but its "could a reservation
        // have been made" check stops at the same place.
        assert_eq!(
            pull(&mut AclCore::for_ways(WAYS), &costs),
            (Way(0), k + 1),
            "ACL watch mode, k = {k}"
        );
    }
}

#[test]
fn zero_acost_pulls_only_the_lru_block() {
    // A free LRU block: Acost loads as 0.
    let mut costs = first_cheaper_at(WAYS / 2);
    costs[0] = 0;
    let cores: [Box<dyn EvictionPolicy>; 4] = [
        Box::new(BclCore::new()),
        Box::new(DclCore::for_ways(WAYS)),
        Box::new(enabled_acl()),
        Box::new(AclCore::for_ways(WAYS)),
    ];
    for mut core in cores {
        assert_eq!(pull(&mut *core, &costs), (Way(0), 1), "{}", core.name());
    }

    // A reservation depreciated to 0: BCL charges twice the victim's cost
    // (2 x 1), exhausting the LRU block's Acost of 2.
    let mut costs = first_cheaper_at(1);
    costs[0] = 2;
    let mut bcl = BclCore::new();
    assert_eq!(pull(&mut bcl, &costs), (Way(1), 2));
    assert_eq!(bcl.acost(), 0);
    assert_eq!(pull(&mut bcl, &costs), (Way(0), 1));
}

#[test]
fn priority_and_queue_cores_read_the_whole_walk() {
    let costs = first_cheaper_at(3);
    let cores: [Box<dyn EvictionPolicy>; 6] = [
        Box::new(GdCore::new(WAYS)),
        Box::new(GdsfCore::new(WAYS)),
        Box::new(LfudaCore::new(WAYS)),
        Box::new(S3FifoCore::new(WAYS)),
        Box::new(SlruCore::new(WAYS)),
        Box::new(CampCore::new(WAYS)),
    ];
    for mut core in cores {
        assert_eq!(pull(&mut *core, &costs).1, WAYS, "{}", core.name());
    }
}

#[test]
fn consecutive_reservations_resume_where_the_last_scan_stopped() {
    // An n-block region under one expensive LRU block (cost 1000): two in
    // three blocks above it cost at least 1000, every third is cheap.
    const N: usize = 96;
    const K: usize = 24;
    let costs: Vec<u64> = (0..N)
        .map(|i| match i {
            0 => 1000,
            _ if i % 3 == 0 => 1,
            _ => 1000 + i as u64,
        })
        .collect();
    let cores: [Box<dyn EvictionPolicy>; 3] = [
        Box::new(BclCore::new()),
        Box::new(DclCore::for_ways(N)),
        Box::new(enabled_acl()),
    ];
    for mut core in cores {
        let mut live = region(&costs);
        let mut total = 0;
        for r in 0..K {
            let (way, pulled) = pull_region(&mut *core, &live);
            assert_ne!(
                way,
                Way(0),
                "{}: reservation {r} keeps the LRU block",
                core.name()
            );
            total += pulled;
            // Evict the victim and fill an expensive block at the MRU end
            // in its way.
            let i = live.iter().position(|e| e.way == way).unwrap();
            let gone = live.remove(i);
            let fresh = BlockAddr(10_000 + r as u64);
            core.on_miss(fresh, Some((live[0].block, live[0].cost)));
            core.on_fill(fresh, way, Cost(5000));
            live.push(WayView {
                way,
                block: fresh,
                cost: Cost(5000),
                dirty: gone.dirty,
            });
        }
        assert!(
            total <= N + 2 * K,
            "{}: {K} reservations pulled {total} items (bound {})",
            core.name(),
            N + 2 * K
        );
    }
}
