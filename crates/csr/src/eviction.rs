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
//! [`Walk`]: an iterator that yields the region's blocks one at a time,
//! from the LRU end toward the MRU end, only as far as the policy pulls it,
//! and that can jump to just past a block it yielded in an earlier walk
//! ([`Walk::resume_after`]). The paper's Figure 1 scan is incremental, so
//! LRU reads one item and BCL/DCL/ACL stop at the first block cheaper than
//! `Acost`. Across evictions under one reserved LRU block, BCL/DCL/ACL also
//! resume where their last scan stopped instead of re-reading the blocks it
//! skipped (see `reserve`), so a linked-list shard of any size neither
//! copies its recency order nor re-walks it. The simulator adapts its
//! materialized [`SetView`] with [`ViewWalk`].

use cache_sim::{BlockAddr, Cost, SetView, Way, WayView};
use csr_obs::{NopObserver, Observer};
use std::collections::HashMap;

/// A victim walk: the blocks of one full region, yielded from the LRU end
/// toward the MRU end, plus a jump to just past a block a policy saw in an
/// earlier walk of the same region.
pub trait Walk: Iterator<Item = WayView> {
    /// Repositions the walk just past `way` (toward the MRU end), so the
    /// next item is the block one place more recent than `block`. Returns
    /// `false` and leaves the walk unchanged if `way` no longer holds
    /// `block`.
    fn resume_after(&mut self, way: Way, block: BlockAddr) -> bool;
}

/// The [`Walk`] over a materialized [`SetView`] (MRU → LRU order), as the
/// set-indexed simulator policies hand it to their cores. Resuming finds
/// the way by a linear search of the set: at most one compare per way.
#[derive(Debug)]
pub struct ViewWalk<'v, 'a> {
    view: &'v SetView<'a>,
    /// Items not yet yielded; the next one sits at stack position
    /// `remaining - 1`.
    remaining: usize,
}

impl<'v, 'a> ViewWalk<'v, 'a> {
    /// A walk over every block of `view`, starting at its LRU end.
    #[must_use]
    pub fn new(view: &'v SetView<'a>) -> Self {
        ViewWalk {
            view,
            remaining: view.len(),
        }
    }
}

impl Iterator for ViewWalk<'_, '_> {
    type Item = WayView;

    fn next(&mut self) -> Option<WayView> {
        self.remaining = self.remaining.checked_sub(1)?;
        Some(*self.view.at(self.remaining))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for ViewWalk<'_, '_> {}

impl Walk for ViewWalk<'_, '_> {
    fn resume_after(&mut self, way: Way, block: BlockAddr) -> bool {
        match self.view.position_of(way) {
            Some(pos) if self.view.at(pos).block == block => {
                self.remaining = pos;
                true
            }
            _ => false,
        }
    }
}

/// A replacement policy for a single region (one cache set, one shard).
///
/// # Contract
///
/// * [`victim`](Self::victim) is called exactly once per replacement, only
///   on a full region (every way holds a valid block). Its walk yields the
///   valid blocks in LRU → MRU order, the first item being the LRU block;
///   the policy pulls only as many items as its decision needs, and the
///   returned way (one the walk yielded, or one at or past a block it
///   resumed after) will be evicted. The walk borrows the region, so it is
///   short-lived: a policy must not retain it, though it may remember a
///   `(way, block)` pair to [`resume_after`](Walk::resume_after) in a later
///   walk.
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
/// * A block moves in the recency order only through
///   [`on_hit`](Self::on_hit) (before its promotion), enters only at the
///   MRU end ([`on_fill`](Self::on_fill)), and changes cost either by a
///   hit followed by a fill or in place, announced by
///   [`on_cost_update`](Self::on_cost_update). A policy that resumes its
///   walk relies on these facts: the blocks between the LRU end and a
///   remembered block can only leave, never arrive, until a notification
///   names one of the two or announces a cost change.
pub trait EvictionPolicy {
    /// A short human-readable name ("LRU", "GD", "BCL", …).
    fn name(&self) -> &'static str;

    /// Selects the way to evict from the full region, pulling blocks from
    /// `walk` (LRU first) only as far as the decision requires.
    fn victim(&mut self, walk: &mut dyn Walk) -> Way;

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

    /// The resident `block` in `way` now costs `cost`, changed in place
    /// without an access (no promotion, no fill).
    fn on_cost_update(&mut self, block: BlockAddr, way: Way, cost: Cost) {
        let _ = (block, way, cost);
    }
}

impl<P: EvictionPolicy + ?Sized> EvictionPolicy for Box<P> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn victim(&mut self, walk: &mut dyn Walk) -> Way {
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
    fn on_cost_update(&mut self, block: BlockAddr, way: Way, cost: Cost) {
        (**self).on_cost_update(block, way, cost);
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

    fn victim(&mut self, walk: &mut dyn Walk) -> Way {
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
pub(crate) fn lru_item(walk: &mut dyn Walk) -> WayView {
    walk.next().expect("victim() requires a non-empty region")
}

/// One allocation-free pass over a whole victim walk for the priority
/// policies (GD, GDSF, LFUDA): returns the LRU block, the block with the
/// smallest `key` and that key. The strict `<` resolves ties toward the LRU
/// end.
pub(crate) fn min_victim(
    walk: &mut dyn Walk,
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
pub(crate) fn collect_walk(walk: &mut dyn Walk) -> (WayView, HashMap<BlockAddr, WayView>) {
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
                    &mut crate::eviction::ViewWalk::new(view),
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

            fn on_cost_update(
                &mut self,
                set: cache_sim::SetIndex,
                block: cache_sim::BlockAddr,
                way: cache_sim::Way,
                cost: cache_sim::Cost,
            ) {
                crate::eviction::EvictionPolicy::on_cost_update(
                    &mut self.cores[set.0],
                    block,
                    way,
                    cost,
                );
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
        assert_eq!(core.victim(&mut ViewWalk::new(&SetView::new(&e))), Way(2));
        assert_eq!(core.name(), "LRU");
    }

    #[test]
    fn boxed_core_dispatches() {
        let e = entries(&[(1, 5), (2, 9)]);
        let mut boxed: Box<dyn EvictionPolicy> = Box::new(LruCore::new());
        assert_eq!(boxed.victim(&mut ViewWalk::new(&SetView::new(&e))), Way(1));
        // Default notifications are no-ops and must not panic.
        boxed.on_hit(BlockAddr(1), Way(0), Cost(5), false);
        boxed.on_miss(BlockAddr(7), Some((BlockAddr(2), Cost(9))));
        boxed.on_fill(BlockAddr(7), Way(1), Cost(3));
        boxed.on_remove(BlockAddr(7));
    }

    #[test]
    fn view_walk_resumes_past_a_block_it_still_holds() {
        // MRU → LRU: blocks 1, 2, 3, 4 in ways 0..4.
        let e = entries(&[(1, 5), (2, 9), (3, 1), (4, 2)]);
        let view = SetView::new(&e);
        let mut walk = ViewWalk::new(&view);
        assert_eq!(walk.len(), 4);
        assert_eq!(walk.next().map(|v| v.block), Some(BlockAddr(4)));
        // Way 2 holds block 3: the walk continues with block 2.
        assert!(walk.resume_after(Way(2), BlockAddr(3)));
        assert_eq!(walk.len(), 2);
        assert_eq!(walk.next().map(|v| v.block), Some(BlockAddr(2)));
        // A stale pair leaves the walk where it was.
        assert!(!walk.resume_after(Way(2), BlockAddr(9)));
        assert!(!walk.resume_after(Way(7), BlockAddr(3)));
        assert_eq!(walk.next().map(|v| v.block), Some(BlockAddr(1)));
        assert_eq!(walk.next(), None);
        // Resuming after the MRU block ends the walk.
        let mut walk = ViewWalk::new(&view);
        assert!(walk.resume_after(Way(0), BlockAddr(1)));
        assert_eq!(walk.next(), None);
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
