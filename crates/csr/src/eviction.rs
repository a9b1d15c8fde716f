//! Set-size-agnostic eviction policies.
//!
//! The simulator's [`cache_sim::ReplacementPolicy`] addresses a policy by
//! [`SetIndex`](cache_sim::SetIndex) because a hardware cache replicates the
//! same decision logic across every set. The logic itself, however, only
//! ever concerns **one replacement region**: a recency stack, its costs, and
//! (for DCL/ACL) a shadow directory. [`EvictionPolicy`] captures exactly
//! that single-region contract, so the same cores drive both
//!
//! * the set-indexed simulator policies (`GreedyDual`, `Bcl`, `Dcl`, `Acl`
//!   each hold one core per set and delegate), and
//! * the shards of the concurrent `csr-cache` key-value cache, where a
//!   "set" is an arbitrarily large shard and no `SetIndex` exists.
//!
//! Every notification carries only O(1) facts (block identity, cost,
//! whether the block is at the LRU end). Victim selection receives a
//! **walk**: an iterator that yields the region's blocks one at a time,
//! from the LRU end toward the MRU end, only as far as the policy pulls it.
//! The paper's Figure 1 scan is already incremental, so LRU reads one item
//! and BCL/DCL/ACL stop at the first block cheaper than `Acost`; a
//! linked-list shard of any size never copies its recency order. The
//! simulator adapts its materialized [`SetView`] with
//! `view.iter().rev().copied()`.

use cache_sim::{BlockAddr, Cost, SetView, Way, WayView};
use csr_obs::{NopObserver, Observer};
use std::collections::HashMap;

/// A replacement policy for a single region (one cache set, one shard).
///
/// # Contract
///
/// * [`victim`](Self::victim) is called exactly once per replacement, only
///   on a full region (every way holds a valid block). Its walk yields the
///   valid blocks in LRU → MRU order, the first item being the LRU block;
///   the policy pulls only as many items as its decision needs, and the
///   returned way (one the walk yielded) will be evicted. The walk borrows
///   the region, so it is short-lived: a policy must not retain it.
/// * [`on_hit`](Self::on_hit) is delivered *before* the block is promoted
///   to the MRU position; `is_lru` reports whether it currently sits at the
///   LRU end.
/// * [`on_miss`](Self::on_miss) is delivered for every access that misses,
///   before victim selection or fill, together with the identity and cost
///   of the current LRU block (if any). Delivering it more than once for
///   the same missing access (as a get-then-insert key-value flow does) is
///   harmless for all cores in this crate: the first delivery consumes any
///   matching ETD entry, so repeats are no-ops.
/// * [`on_remove`](Self::on_remove) must be called when a block leaves the
///   region for any reason other than eviction chosen by
///   [`victim`](Self::victim) (coherence invalidation, explicit removal).
pub trait EvictionPolicy {
    /// A short human-readable name ("LRU", "GD", "BCL", …).
    fn name(&self) -> &'static str;

    /// Selects the way to evict from the full region, pulling blocks from
    /// `walk` (LRU first) only as far as the decision requires.
    fn victim(&mut self, walk: &mut dyn Iterator<Item = WayView>) -> Way;

    /// An access hit `block` on `way` (cost as loaded at fill time);
    /// `is_lru` is true when the block is currently at the LRU end.
    fn on_hit(&mut self, block: BlockAddr, way: Way, cost: Cost, is_lru: bool) {
        let _ = (block, way, cost, is_lru);
    }

    /// An access to `block` missed; `lru` is the current LRU block and its
    /// cost, if the region is non-empty.
    fn on_miss(&mut self, block: BlockAddr, lru: Option<(BlockAddr, Cost)>) {
        let _ = (block, lru);
    }

    /// `block` was filled into `way` with miss cost `cost`.
    fn on_fill(&mut self, block: BlockAddr, way: Way, cost: Cost) {
        let _ = (block, way, cost);
    }

    /// `block` left the region without being chosen by
    /// [`victim`](Self::victim).
    fn on_remove(&mut self, block: BlockAddr) {
        let _ = block;
    }
}

impl<P: EvictionPolicy + ?Sized> EvictionPolicy for Box<P> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn victim(&mut self, walk: &mut dyn Iterator<Item = WayView>) -> Way {
        (**self).victim(walk)
    }
    fn on_hit(&mut self, block: BlockAddr, way: Way, cost: Cost, is_lru: bool) {
        (**self).on_hit(block, way, cost, is_lru);
    }
    fn on_miss(&mut self, block: BlockAddr, lru: Option<(BlockAddr, Cost)>) {
        (**self).on_miss(block, lru);
    }
    fn on_fill(&mut self, block: BlockAddr, way: Way, cost: Cost) {
        (**self).on_fill(block, way, cost);
    }
    fn on_remove(&mut self, block: BlockAddr) {
        (**self).on_remove(block);
    }
}

/// Plain LRU as an [`EvictionPolicy`]: evict the LRU block, keep no state
/// beyond the (default no-op) decision observer.
///
/// The cost-oblivious baseline every cost-sensitive policy is measured
/// against (and the shard baseline of `csr-cache`).
#[derive(Debug, Clone, Copy, Default)]
pub struct LruCore<O: Observer = NopObserver> {
    obs: O,
}

impl LruCore {
    /// Creates the (stateless) LRU core.
    #[must_use]
    pub fn new() -> Self {
        LruCore { obs: NopObserver }
    }
}

impl<O: Observer> LruCore<O> {
    /// Attaches a decision observer, replacing any existing one.
    #[must_use]
    pub fn with_observer<O2: Observer>(self, obs: O2) -> LruCore<O2> {
        LruCore { obs }
    }
}

impl<O: Observer> EvictionPolicy for LruCore<O> {
    fn name(&self) -> &'static str {
        "LRU"
    }

    fn victim(&mut self, walk: &mut dyn Iterator<Item = WayView>) -> Way {
        let lru = lru_item(walk);
        self.obs.on_evict(lru.block, lru.cost);
        lru.way
    }

    fn on_hit(&mut self, block: BlockAddr, _way: Way, cost: Cost, _is_lru: bool) {
        self.obs.on_hit(block, cost);
    }

    fn on_miss(&mut self, block: BlockAddr, _lru: Option<(BlockAddr, Cost)>) {
        self.obs.on_miss(block);
    }
}

/// The first item of a victim walk: the LRU block of the (full) region.
///
/// # Panics
///
/// Panics if the walk is empty, which the [`EvictionPolicy`] contract rules
/// out.
pub(crate) fn lru_item(walk: &mut dyn Iterator<Item = WayView>) -> WayView {
    walk.next().expect("victim() requires a non-empty region")
}

/// One allocation-free pass over a whole victim walk for the priority
/// policies (GD, GDSF, LFUDA): returns the LRU block, the block with the
/// smallest `key` and that key. The strict `<` resolves ties toward the LRU
/// end.
pub(crate) fn min_victim(
    walk: &mut dyn Iterator<Item = WayView>,
    key: impl Fn(&WayView) -> u64,
) -> (WayView, WayView, u64) {
    let lru = lru_item(walk);
    let (mut best, mut kmin) = (lru, key(&lru));
    for e in walk {
        let k = key(&e);
        if k < kmin {
            (best, kmin) = (e, k);
        }
    }
    (lru, best, kmin)
}

/// Collects a whole victim walk for the queue policies (S3-FIFO, SLRU,
/// CAMP), whose own queues name the victim by block identity: returns the
/// LRU block and a block → way-view map of every resident block.
pub(crate) fn collect_walk(
    walk: &mut dyn Iterator<Item = WayView>,
) -> (WayView, HashMap<BlockAddr, WayView>) {
    let lru = lru_item(walk);
    let (lower, _) = walk.size_hint();
    let mut by_block = HashMap::with_capacity(lower + 1);
    by_block.insert(lru.block, lru);
    for e in walk {
        by_block.insert(e.block, e);
    }
    (lru, by_block)
}

/// Extracts the `(block, cost, is_lru)` triple for a hit at `stack_pos`
/// from a materialized view (the set-indexed delegation path).
pub(crate) fn hit_args(view: &SetView<'_>, stack_pos: usize) -> (BlockAddr, Cost, bool) {
    let e = view.at(stack_pos);
    (e.block, e.cost, stack_pos + 1 == view.len())
}

/// The `(block, cost)` of the LRU entry of a materialized view, if any.
pub(crate) fn lru_of(view: &SetView<'_>) -> Option<(BlockAddr, Cost)> {
    if view.is_empty() {
        None
    } else {
        let l = view.lru();
        Some((l.block, l.cost))
    }
}

/// Implements [`cache_sim::ReplacementPolicy`] for a wrapper holding one
/// [`EvictionPolicy`] core per set in a `cores: Vec<_>` field, by pure
/// delegation. The wrapper is generic over its cores' decision observer.
macro_rules! impl_replacement_via_cores {
    ($wrapper:ident, $name:expr) => {
        impl<OBS: csr_obs::Observer> cache_sim::ReplacementPolicy for $wrapper<OBS> {
            fn name(&self) -> &'static str {
                $name
            }

            fn victim(
                &mut self,
                set: cache_sim::SetIndex,
                view: &cache_sim::SetView<'_>,
            ) -> cache_sim::Way {
                crate::eviction::EvictionPolicy::victim(
                    &mut self.cores[set.0],
                    &mut view.iter().rev().copied(),
                )
            }

            fn on_hit(
                &mut self,
                set: cache_sim::SetIndex,
                view: &cache_sim::SetView<'_>,
                way: cache_sim::Way,
                stack_pos: usize,
            ) {
                let (block, cost, is_lru) = crate::eviction::hit_args(view, stack_pos);
                crate::eviction::EvictionPolicy::on_hit(
                    &mut self.cores[set.0],
                    block,
                    way,
                    cost,
                    is_lru,
                );
            }

            fn on_miss(
                &mut self,
                set: cache_sim::SetIndex,
                view: &cache_sim::SetView<'_>,
                block: cache_sim::BlockAddr,
            ) {
                let lru = crate::eviction::lru_of(view);
                crate::eviction::EvictionPolicy::on_miss(&mut self.cores[set.0], block, lru);
            }

            fn on_fill(
                &mut self,
                set: cache_sim::SetIndex,
                block: cache_sim::BlockAddr,
                way: cache_sim::Way,
                cost: cache_sim::Cost,
            ) {
                crate::eviction::EvictionPolicy::on_fill(&mut self.cores[set.0], block, way, cost);
            }

            fn on_invalidate(
                &mut self,
                set: cache_sim::SetIndex,
                block: cache_sim::BlockAddr,
                _resident: Option<(cache_sim::Way, usize)>,
                _kind: cache_sim::InvalidateKind,
            ) {
                crate::eviction::EvictionPolicy::on_remove(&mut self.cores[set.0], block);
            }
        }
    };
}

pub(crate) use impl_replacement_via_cores;

#[cfg(test)]
mod tests {
    use super::*;

    fn entries(costs: &[(u64, u64)]) -> Vec<WayView> {
        costs
            .iter()
            .enumerate()
            .map(|(i, &(b, c))| WayView {
                way: Way(i),
                block: BlockAddr(b),
                cost: Cost(c),
                dirty: false,
            })
            .collect()
    }

    #[test]
    fn lru_core_picks_the_lru_way() {
        let e = entries(&[(1, 5), (2, 9), (3, 1)]);
        let mut core = LruCore::new();
        assert_eq!(core.victim(&mut e.iter().rev().copied()), Way(2));
        assert_eq!(core.name(), "LRU");
    }

    #[test]
    fn boxed_core_dispatches() {
        let e = entries(&[(1, 5), (2, 9)]);
        let mut boxed: Box<dyn EvictionPolicy> = Box::new(LruCore::new());
        assert_eq!(boxed.victim(&mut e.iter().rev().copied()), Way(1));
        // Default notifications are no-ops and must not panic.
        boxed.on_hit(BlockAddr(1), Way(0), Cost(5), false);
        boxed.on_miss(BlockAddr(7), Some((BlockAddr(2), Cost(9))));
        boxed.on_fill(BlockAddr(7), Way(1), Cost(3));
        boxed.on_remove(BlockAddr(7));
    }

    #[test]
    fn hit_args_reports_lru_position() {
        let e = entries(&[(1, 5), (2, 9)]);
        let v = SetView::new(&e);
        assert_eq!(hit_args(&v, 0), (BlockAddr(1), Cost(5), false));
        assert_eq!(hit_args(&v, 1), (BlockAddr(2), Cost(9), true));
        assert_eq!(lru_of(&v), Some((BlockAddr(2), Cost(9))));
        assert_eq!(lru_of(&SetView::new(&[])), None);
    }
}
