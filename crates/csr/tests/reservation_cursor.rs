//! The resumable Figure-1 scan against a scan from the LRU end.
//!
//! BCL, DCL and ACL remember the last block their reservation scan skipped
//! and resume past it on the next eviction under the same reserved LRU
//! block. This test drives each policy twice in lockstep over one large
//! region (4096 blocks, continuous costs): one core gets a walk that can
//! resume, its twin a walk that refuses every resume, so each of the twin's
//! scans starts over from the LRU end exactly as Figure 1 is written. A
//! seeded random mix of fills, hits (on the LRU block and on the cursor
//! block too), removals, refills at new costs, in-place cost updates and
//! re-references of blocks a reservation displaced (ETD hits, which also
//! flip ACL's automaton) must produce the same victim on every eviction
//! and the same decision events.

use cache_sim::{BlockAddr, Cost, Way, WayView};
use csr::{AclCore, BclCore, DclCore, EvictionPolicy, Walk};
use csr_obs::EventTracer;
use std::collections::HashMap;
use std::sync::Arc;

const CAPACITY: usize = 4096;
const KEYS: u64 = 6000;
const STEPS: usize = 30_000;
const NIL: usize = usize::MAX;

struct Slot {
    block: BlockAddr,
    cost: u64,
    prev: usize,
    next: usize,
}

/// A full-size replacement region: slots on a doubly linked list, MRU at
/// the head, LRU at the tail; a block's slot index is its way.
struct Region {
    slots: Vec<Option<Slot>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    by_block: HashMap<BlockAddr, usize>,
}

impl Region {
    fn new() -> Self {
        Region {
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            by_block: HashMap::new(),
        }
    }

    fn slot(&self, i: usize) -> &Slot {
        self.slots[i].as_ref().expect("linked slot")
    }

    fn slot_mut(&mut self, i: usize) -> &mut Slot {
        self.slots[i].as_mut().expect("linked slot")
    }

    fn len(&self) -> usize {
        self.by_block.len()
    }

    fn lru(&self) -> Option<(BlockAddr, Cost)> {
        (self.tail != NIL).then(|| {
            let s = self.slot(self.tail);
            (s.block, Cost(s.cost))
        })
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slot(i).prev, self.slot(i).next);
        match prev {
            NIL => self.head = next,
            p => self.slot_mut(p).next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slot_mut(n).prev = prev,
        }
    }

    fn link_front(&mut self, i: usize) {
        let old = self.head;
        let s = self.slot_mut(i);
        s.prev = NIL;
        s.next = old;
        if old != NIL {
            self.slot_mut(old).prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    fn insert(&mut self, block: BlockAddr, cost: u64) -> usize {
        let slot = Slot {
            block,
            cost,
            prev: NIL,
            next: NIL,
        };
        let i = match self.free.pop() {
            Some(i) => {
                self.slots[i] = Some(slot);
                i
            }
            None => {
                self.slots.push(Some(slot));
                self.slots.len() - 1
            }
        };
        self.link_front(i);
        self.by_block.insert(block, i);
        i
    }

    fn remove(&mut self, i: usize) -> BlockAddr {
        self.unlink(i);
        let block = self.slots[i].take().expect("occupied slot").block;
        self.free.push(i);
        self.by_block.remove(&block);
        block
    }

    fn promote(&mut self, i: usize) {
        if self.head != i {
            self.unlink(i);
            self.link_front(i);
        }
    }

    fn walk(&self, resumable: bool) -> RegionWalk<'_> {
        RegionWalk {
            region: self,
            cur: self.tail,
            resumable,
            pulled: Vec::new(),
            resumed: 0,
        }
    }
}

/// The region LRU → MRU. `resumable: false` makes every resume fail, so a
/// policy's scan starts over from the LRU end.
struct RegionWalk<'a> {
    region: &'a Region,
    cur: usize,
    resumable: bool,
    /// Every item pulled, in order.
    pulled: Vec<WayView>,
    /// Successful resumes.
    resumed: usize,
}

impl Iterator for RegionWalk<'_> {
    type Item = WayView;

    fn next(&mut self) -> Option<WayView> {
        if self.cur == NIL {
            return None;
        }
        let s = self.region.slot(self.cur);
        let e = WayView {
            way: Way(self.cur),
            block: s.block,
            cost: Cost(s.cost),
            dirty: false,
        };
        self.cur = s.prev;
        self.pulled.push(e);
        Some(e)
    }
}

impl Walk for RegionWalk<'_> {
    fn resume_after(&mut self, way: Way, block: BlockAddr) -> bool {
        match self.region.slots.get(way.0) {
            Some(Some(s)) if self.resumable && s.block == block => {
                self.cur = s.prev;
                self.resumed += 1;
                true
            }
            _ => false,
        }
    }
}

/// SplitMix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A continuous miss cost: mostly 100..10100, one in forty cheap
    /// (1..100), so reserved LRU blocks collect long runs of blocks that
    /// cost at least their `Acost`.
    fn cost(&mut self) -> u64 {
        if self.below(40) == 0 {
            1 + self.below(99)
        } else {
            100 + self.below(10_000)
        }
    }
}

/// The same policy twice, one core per walk flavour, with its own event
/// trace.
struct Twin {
    resuming: Box<dyn EvictionPolicy>,
    restarting: Box<dyn EvictionPolicy>,
    traces: [Arc<EventTracer>; 2],
}

/// What one lockstep run exercised.
#[derive(Debug, Default)]
struct Tally {
    evictions: usize,
    reservations: usize,
    resumes: usize,
    pulled_resuming: usize,
    pulled_restarting: usize,
    lru_hits: usize,
    cursor_hits: usize,
    etd_probes: usize,
    cost_updates: usize,
}

impl Twin {
    fn both(&mut self, f: impl Fn(&mut dyn EvictionPolicy)) {
        f(&mut *self.resuming);
        f(&mut *self.restarting);
    }
}

/// Drives `twin` over one seeded operation mix and checks every victim.
fn run(mut twin: Twin, seed: u64) -> Tally {
    let mut rng = Rng(seed);
    let mut region = Region::new();
    let mut tally = Tally::default();
    // Blocks recently displaced by a reservation (re-referencing one is an
    // ETD hit for DCL/ACL), and the block the last reservation scan
    // skipped last (the resuming core's likely cursor).
    let mut displaced: Vec<BlockAddr> = Vec::new();
    let mut cursor: Option<BlockAddr> = None;

    for step in 0..STEPS {
        let resident = |region: &Region, b: BlockAddr| region.by_block.get(&b).copied();
        // Pick the block this step touches, then what happens to it.
        let target = match rng.below(100) {
            0..=4 => region.lru().map(|(b, _)| b),
            5..=9 => cursor.filter(|&b| resident(&region, b).is_some()),
            10..=19 if !displaced.is_empty() => {
                Some(displaced[rng.below(displaced.len() as u64) as usize])
            }
            _ => None,
        }
        .unwrap_or_else(|| BlockAddr(rng.below(KEYS)));
        match (rng.below(100), resident(&region, target)) {
            // Remove a resident block.
            (0..=2, Some(i)) => {
                region.remove(i);
                twin.both(|c| c.on_remove(target));
            }
            // Refill a resident block at a new cost: a hit, then a fill.
            (3..=9, Some(i)) => {
                let cost = rng.cost();
                let is_lru = region.tail == i;
                let old = Cost(region.slot(i).cost);
                twin.both(|c| c.on_hit(target, Way(i), old, is_lru));
                region.promote(i);
                region.slot_mut(i).cost = cost;
                twin.both(|c| c.on_fill(target, Way(i), Cost(cost)));
            }
            // A cost changed in place, with no access (as a latency
            // predictor's fresher estimate does in the NUMA simulator).
            (10..=14, Some(i)) => {
                let cost = rng.cost();
                region.slot_mut(i).cost = cost;
                tally.cost_updates += 1;
                twin.both(|c| c.on_cost_update(target, Way(i), Cost(cost)));
            }
            // A hit.
            (_, Some(i)) => {
                let is_lru = region.tail == i;
                tally.lru_hits += usize::from(is_lru);
                tally.cursor_hits += usize::from(cursor == Some(target));
                let cost = Cost(region.slot(i).cost);
                twin.both(|c| c.on_hit(target, Way(i), cost, is_lru));
                region.promote(i);
            }
            // A miss: evict when full, then fill at the MRU end.
            (_, None) => {
                tally.etd_probes += usize::from(displaced.contains(&target));
                let lru = region.lru();
                twin.both(|c| c.on_miss(target, lru));
                if region.len() == CAPACITY {
                    let mut fast = region.walk(true);
                    let way = twin.resuming.victim(&mut fast);
                    let mut slow = region.walk(false);
                    let want = twin.restarting.victim(&mut slow);
                    assert_eq!(
                        way,
                        want,
                        "{} step {step}: resumed scan chose another victim",
                        twin.resuming.name()
                    );
                    tally.evictions += 1;
                    tally.resumes += fast.resumed;
                    tally.pulled_resuming += fast.pulled.len();
                    tally.pulled_restarting += slow.pulled.len();
                    if way.0 != region.tail {
                        tally.reservations += 1;
                        let victim = region.slot(way.0).block;
                        displaced.push(victim);
                        if displaced.len() > 16 {
                            displaced.remove(0);
                        }
                        // The item the restarting scan pulled just before the
                        // victim, unless that was the LRU block.
                        let n = slow.pulled.len();
                        if n >= 3 {
                            cursor = Some(slow.pulled[n - 2].block);
                        }
                    } else {
                        cursor = None;
                    }
                    region.remove(way.0);
                }
                let cost = rng.cost();
                let i = region.insert(target, cost);
                twin.both(|c| c.on_fill(target, Way(i), Cost(cost)));
            }
        }
        assert_eq!(
            twin.traces[0].total(),
            twin.traces[1].total(),
            "{} step {step}: event counts diverged",
            twin.resuming.name()
        );
    }
    for t in &twin.traces {
        assert_eq!(t.dropped(), 0, "trace ring sized for the whole run");
    }
    assert_eq!(
        twin.traces[0].events(),
        twin.traces[1].events(),
        "{}: decision events diverged",
        twin.resuming.name()
    );
    tally
}

fn traces() -> [Arc<EventTracer>; 2] {
    [
        Arc::new(EventTracer::new(1 << 18)),
        Arc::new(EventTracer::new(1 << 18)),
    ]
}

/// The run must have stressed what it claims to check.
fn check_coverage(name: &str, t: &Tally) {
    assert!(t.evictions > 5_000, "{name}: {t:?}");
    assert!(t.reservations > 1_000, "{name}: {t:?}");
    assert!(t.resumes > 500, "{name}: {t:?}");
    assert!(t.lru_hits > 100 && t.cursor_hits > 100, "{name}: {t:?}");
    assert!(t.etd_probes > 500, "{name}: {t:?}");
    assert!(t.cost_updates > 500, "{name}: {t:?}");
    assert!(
        t.pulled_resuming < t.pulled_restarting,
        "{name}: resuming must read fewer items: {t:?}"
    );
}

#[test]
fn bcl_resumed_scan_matches_scan_from_the_lru_end() {
    for seed in 1..=2 {
        let traces = traces();
        let bcl = |t: &Arc<EventTracer>| BclCore::new().with_observer(Arc::clone(t));
        let (a, b) = (bcl(&traces[0]), bcl(&traces[1]));
        let tally = run(
            Twin {
                resuming: Box::new(a),
                restarting: Box::new(b),
                traces,
            },
            seed,
        );
        check_coverage("BCL", &tally);
    }
}

#[test]
fn dcl_resumed_scan_matches_scan_from_the_lru_end() {
    for seed in 1..=2 {
        let traces = traces();
        let dcl = |t: &Arc<EventTracer>| DclCore::for_ways(CAPACITY).with_observer(Arc::clone(t));
        let (a, b) = (dcl(&traces[0]), dcl(&traces[1]));
        let tally = run(
            Twin {
                resuming: Box::new(a),
                restarting: Box::new(b),
                traces,
            },
            seed,
        );
        check_coverage("DCL", &tally);
    }
}

#[test]
fn acl_resumed_scan_matches_scan_from_the_lru_end() {
    for seed in 1..=2 {
        let traces = traces();
        let acl = |t: &Arc<EventTracer>| AclCore::for_ways(CAPACITY).with_observer(Arc::clone(t));
        let (a, b) = (acl(&traces[0]), acl(&traces[1]));
        let tally = run(
            Twin {
                resuming: Box::new(a),
                restarting: Box::new(b),
                traces: traces.clone(),
            },
            seed,
        );
        check_coverage("ACL", &tally);
        let flips = traces[0]
            .events()
            .iter()
            .filter(|e| e.event.kind() == "automaton_flip")
            .count();
        assert!(flips >= 2, "ACL must flip both ways, saw {flips}");
    }
}
