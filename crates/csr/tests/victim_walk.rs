//! How far each core pulls the victim walk, counted item by item (no
//! timing). The walk runs LRU → MRU; the paper's Figure 1 scan is
//! incremental, so LRU reads one item and BCL/DCL/ACL stop at the first
//! block cheaper than `Acost`. With `Acost == 0` no block can be cheaper,
//! and they read only the LRU block.

use cache_sim::{BlockAddr, Cost, Way, WayView};
use csr::{
    AclCore, BclCore, CampCore, DclCore, EvictionPolicy, GdCore, GdsfCore, LfudaCore, LruCore,
    S3FifoCore, SlruCore,
};

const WAYS: usize = 16;

/// A walk over `costs` (LRU first) that counts the items pulled from it.
struct CountingWalk<'a> {
    costs: &'a [u64],
    pulled: usize,
}

impl<'a> CountingWalk<'a> {
    fn new(costs: &'a [u64]) -> Self {
        CountingWalk { costs, pulled: 0 }
    }
}

impl Iterator for CountingWalk<'_> {
    type Item = WayView;

    fn next(&mut self) -> Option<WayView> {
        let i = self.pulled;
        let &cost = self.costs.get(i)?;
        self.pulled += 1;
        Some(WayView {
            way: Way(i),
            block: block(i),
            cost: Cost(cost),
            dirty: false,
        })
    }
}

fn block(i: usize) -> BlockAddr {
    BlockAddr(100 + i as u64)
}

/// Costs of a full region, LRU first: the LRU block and the `k - 1`
/// blocks above it cost 10, the block `k` places above the LRU costs 1,
/// and so does everything beyond it.
fn first_cheaper_at(k: usize) -> Vec<u64> {
    (0..WAYS).map(|i| if i < k { 10 } else { 1 }).collect()
}

/// Runs one victim selection; returns the chosen way and the items pulled.
fn pull(core: &mut dyn EvictionPolicy, costs: &[u64]) -> (Way, usize) {
    let mut walk = CountingWalk::new(costs);
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
