//! Shared reservation bookkeeping for the LRU-based cost-sensitive policies.
//!
//! BCL, DCL and ACL all keep one *depreciated cost* per set — the paper's
//! `Acost` field, "loaded with `c(s)` whenever a block takes the LRU
//! position" (Fig. 1) and reduced as the reservation is charged for misses
//! it caused. [`AcostTracker`] implements that lifecycle: the tracker is
//! synchronized lazily against the current LRU block and reset whenever the
//! tracked block is hit, evicted or invalidated (each of which ends its stay
//! in the LRU position).
//!
//! # The scan cursor
//!
//! The Figure-1 scan ([`AcostTracker::reservation_victim`]) starts above
//! the LRU block and evicts the first block cheaper than `Acost`. In a
//! 4-way set that is at most three compares, but in a large region every
//! block costing at least `Acost` piles up between the reserved LRU block
//! and the first cheaper one, and a scan from the LRU end would re-read
//! the whole pile on every eviction. The tracker therefore remembers the
//! last block the scan skipped (its *cursor*) and the next scan resumes
//! just past it. Invariant: every block strictly between the tracked LRU
//! block and the cursor costs at least the current `Acost`. It holds
//! because
//!
//! * blocks enter the region only at the MRU end, above the cursor;
//! * a block moves only when hit, so a block between the two can only
//!   leave;
//! * a cost changes either by a hit followed by a fill (the block leaves
//!   the stretch first) or in place, which drops the cursor
//!   ([`AcostTracker::note_cost_update`]);
//! * `Acost` only falls while the same block is tracked (BCL's
//!   per-reservation depreciation and DCL/ACL's ETD depreciation both
//!   lower it);
//! * the cursor is dropped whenever the tracker reloads or resets, and when
//!   the cursor block itself departs ([`AcostTracker::note_departure`]).
//!
//! So resuming chooses exactly the block a scan from the LRU end would.

use crate::eviction::Walk;
use cache_sim::{BlockAddr, Cost, Way, WayView};

/// Per-set `Acost` state: which block is being tracked in the LRU position,
/// its remaining (depreciated) cost, and the scan cursor.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct AcostTracker {
    lru_block: Option<BlockAddr>,
    acost: u64,
    /// The last block the reservation scan skipped under the tracked LRU
    /// block, and its way.
    cursor: Option<(Way, BlockAddr)>,
}

impl AcostTracker {
    /// Reloads `Acost` from the current LRU block if the LRU identity
    /// changed since the last synchronization ("upon entering LRU position:
    /// Acost <- c(s)"). No-op while the same block stays in the LRU position,
    /// preserving accumulated depreciation and the scan cursor; `None` (an
    /// empty region) clears.
    pub(crate) fn sync_to(&mut self, lru: Option<(BlockAddr, Cost)>) {
        match lru {
            None => self.reset(),
            Some((block, cost)) => {
                if self.lru_block != Some(block) {
                    *self = AcostTracker {
                        lru_block: Some(block),
                        acost: cost.0,
                        cursor: None,
                    };
                }
            }
        }
    }

    /// The remaining depreciated cost of the tracked LRU block.
    pub(crate) fn acost(&self) -> u64 {
        self.acost
    }

    /// Depreciates the tracked cost by `amount`, saturating at zero. The
    /// cursor stays valid: a lower `Acost` keeps every skipped block at or
    /// above it.
    pub(crate) fn depreciate(&mut self, amount: Cost) {
        self.acost = self.acost.saturating_sub(amount.0);
    }

    /// The tracked block, if any.
    pub(crate) fn tracked(&self) -> Option<BlockAddr> {
        self.lru_block
    }

    /// Forgets the tracked block and the cursor; the next
    /// [`sync_to`](Self::sync_to) reloads.
    pub(crate) fn reset(&mut self) {
        *self = AcostTracker::default();
    }

    /// Must be called when `block` is hit, evicted or invalidated: if it is
    /// the tracked block, the tracker resets so a later return of the same
    /// block to the LRU position reloads a fresh `Acost`; if it is the
    /// cursor block, the next scan starts over from the LRU end.
    pub(crate) fn note_departure(&mut self, block: BlockAddr) {
        if self.lru_block == Some(block) {
            self.reset();
        } else if self.cursor.is_some_and(|(_, b)| b == block) {
            self.cursor = None;
        }
    }

    /// Must be called when a resident block's cost changes in place: the
    /// block may sit between the LRU block and the cursor and now be
    /// cheaper than `Acost`, so the next scan starts over from the LRU
    /// end.
    pub(crate) fn note_cost_update(&mut self) {
        self.cursor = None;
    }

    /// The Figure-1 victim scan shared by BCL, DCL and ACL. The caller has
    /// already taken the LRU block off `walk` and synchronized the tracker
    /// to it; the scan continues from the second-LRU position (or just past
    /// the cursor) toward the MRU and returns the first block whose miss
    /// cost is strictly below `Acost`, pulling nothing past it. Every block
    /// it skips becomes the cursor. `None` means no reservation is possible
    /// and the LRU block itself must go. With `Acost == 0` no cost can
    /// qualify, so the walk is not advanced at all.
    pub(crate) fn reservation_victim(&mut self, walk: &mut dyn Walk) -> Option<WayView> {
        if self.acost == 0 {
            return None;
        }
        if let Some((way, block)) = self.cursor {
            if !walk.resume_after(way, block) {
                self.cursor = None;
            }
        }
        for e in walk {
            if e.cost.0 < self.acost {
                return Some(e);
            }
            self.cursor = Some((e.way, e.block));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eviction::ViewWalk;
    use cache_sim::SetView;

    fn lru(block: u64, cost: u64) -> Option<(BlockAddr, Cost)> {
        Some((BlockAddr(block), Cost(cost)))
    }

    /// A region's entries in `SetView` (MRU → LRU) order from
    /// `(block, cost)` pairs listed LRU first; block `b` sits in way `b`.
    fn region(lru_first: &[(u64, u64)]) -> Vec<WayView> {
        lru_first
            .iter()
            .rev()
            .map(|&(b, c)| WayView {
                way: Way(b as usize),
                block: BlockAddr(b),
                cost: Cost(c),
                dirty: false,
            })
            .collect()
    }

    /// A walk that counts the items pulled from it.
    struct Counted<'v, 'a> {
        inner: ViewWalk<'v, 'a>,
        pulled: usize,
    }

    impl Iterator for Counted<'_, '_> {
        type Item = WayView;

        fn next(&mut self) -> Option<WayView> {
            let e = self.inner.next()?;
            self.pulled += 1;
            Some(e)
        }
    }

    impl Walk for Counted<'_, '_> {
        fn resume_after(&mut self, way: Way, block: BlockAddr) -> bool {
            self.inner.resume_after(way, block)
        }
    }

    /// Syncs `t` to the LRU block of `entries` and runs one scan; returns
    /// the chosen block and the items the scan pulled past the LRU block.
    fn scan(t: &mut AcostTracker, entries: &[WayView]) -> (Option<u64>, usize) {
        let view = SetView::new(entries);
        let mut walk = Counted {
            inner: ViewWalk::new(&view),
            pulled: 0,
        };
        let l = walk.next().expect("non-empty region");
        t.sync_to(Some((l.block, l.cost)));
        let chosen = t.reservation_victim(&mut walk).map(|e| e.block.0);
        (chosen, walk.pulled - 1)
    }

    #[test]
    fn sync_loads_lru_cost_once() {
        let mut t = AcostTracker::default();
        t.sync_to(lru(2, 8));
        assert_eq!(t.acost(), 8);
        t.depreciate(Cost(3));
        assert_eq!(t.acost(), 5);
        // Same LRU: depreciation persists across syncs.
        t.sync_to(lru(2, 8));
        assert_eq!(t.acost(), 5);
    }

    #[test]
    fn sync_reloads_on_lru_change() {
        let mut t = AcostTracker::default();
        t.sync_to(lru(2, 8));
        t.depreciate(Cost(8));
        assert_eq!(t.acost(), 0);
        t.sync_to(lru(3, 4)); // new LRU = block 3
        assert_eq!(t.acost(), 4);
    }

    #[test]
    fn departure_of_tracked_block_resets() {
        let mut t = AcostTracker::default();
        t.sync_to(lru(2, 8));
        t.depreciate(Cost(6));
        t.note_departure(BlockAddr(2));
        assert_eq!(t.tracked(), None);
        // Same block back in LRU position: Acost reloads fully.
        t.sync_to(lru(2, 8));
        assert_eq!(t.acost(), 8);
    }

    #[test]
    fn departure_of_other_block_is_ignored() {
        let mut t = AcostTracker::default();
        t.sync_to(lru(2, 8));
        t.depreciate(Cost(1));
        t.note_departure(BlockAddr(1));
        assert_eq!(t.tracked(), Some(BlockAddr(2)));
        assert_eq!(t.acost(), 7);
    }

    #[test]
    fn depreciation_saturates() {
        let mut t = AcostTracker::default();
        t.sync_to(lru(2, 8));
        t.depreciate(Cost(100));
        assert_eq!(t.acost(), 0);
    }

    #[test]
    fn empty_region_clears() {
        let mut t = AcostTracker::default();
        t.sync_to(lru(1, 5));
        assert_eq!(t.acost(), 5);
        t.sync_to(None);
        assert_eq!(t.tracked(), None);
    }

    #[test]
    fn scan_returns_first_cheaper_block_above_lru() {
        // LRU block 1 (cost 5), then 2 (cost 9), 3 (cost 4), 4 (cost 1).
        let e = region(&[(1, 5), (2, 9), (3, 4), (4, 1)]);
        let view = SetView::new(&e);
        let mut w = ViewWalk::new(&view);
        w.next();
        let mut t = AcostTracker::default();
        t.sync_to(lru(1, 5));
        let chosen = t.reservation_victim(&mut w).expect("block 3 is cheaper");
        assert_eq!(chosen.block, BlockAddr(3));
        // Nothing past the chosen block was pulled.
        assert_eq!(w.next().map(|e| e.block), Some(BlockAddr(4)));
        let mut t = AcostTracker::default();
        t.sync_to(lru(1, 1));
        assert_eq!(scan(&mut t, &e), (None, 3));
    }

    #[test]
    fn zero_acost_never_advances_the_walk() {
        let e = region(&[(1, 0), (2, 0), (3, 0)]);
        let view = SetView::new(&e);
        let mut w = ViewWalk::new(&view);
        w.next();
        let mut t = AcostTracker::default();
        t.sync_to(lru(1, 0));
        assert_eq!(t.reservation_victim(&mut w), None);
        assert_eq!(w.next().map(|e| e.block), Some(BlockAddr(2)));
    }

    #[test]
    fn next_scan_resumes_past_the_skipped_blocks() {
        // LRU 1 (cost 8); 2 and 3 cost at least 8; 4 and 5 are cheaper.
        let mut e = region(&[(1, 8), (2, 9), (3, 8), (4, 1), (5, 2)]);
        let mut t = AcostTracker::default();
        assert_eq!(scan(&mut t, &e), (Some(4), 3));
        // Block 4 is evicted; the next scan reads only block 5.
        e.retain(|v| v.block != BlockAddr(4));
        assert_eq!(scan(&mut t, &e), (Some(5), 1));
        // Depreciation keeps the cursor: 2 and 3 are still not cheaper.
        t.depreciate(Cost(7));
        e.retain(|v| v.block != BlockAddr(5));
        assert_eq!(scan(&mut t, &e), (None, 0));
    }

    #[test]
    fn cursor_departure_or_reload_restarts_the_scan() {
        let e = region(&[(1, 8), (2, 9), (3, 8), (4, 1)]);
        let mut t = AcostTracker::default();
        assert_eq!(scan(&mut t, &e), (Some(4), 3));
        // The cursor block 3 is hit: the next scan starts over.
        t.note_departure(BlockAddr(3));
        assert_eq!(scan(&mut t, &e), (Some(4), 3));
        // A different LRU block reloads Acost and drops the cursor.
        let e2 = region(&[(2, 9), (3, 8), (4, 1)]);
        assert_eq!(scan(&mut t, &e2), (Some(3), 1));
        // A cursor whose way now holds another block is ignored.
        let mut e3 = region(&[(2, 9), (3, 9), (4, 1)]);
        let mut t = AcostTracker::default();
        assert_eq!(scan(&mut t, &e3), (Some(4), 2));
        e3[1].block = BlockAddr(6);
        assert_eq!(scan(&mut t, &e3), (Some(4), 2));
    }
}
