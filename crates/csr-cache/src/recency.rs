//! The recency list shared by a shard and the selector's ghost caches: a
//! slab of nodes threaded on an intrusive doubly linked list, MRU at the
//! head and LRU at the tail.
//!
//! A node's slab index is the "way" its policy core sees, and its key hash
//! is the "block address". The list also drives the core's notifications
//! (hit, miss, fill, eviction) so both users feed it identical event
//! streams. Victim selection hands the core a lazy walk from the tail
//! along the `prev` links: the core pulls only the nodes its decision
//! needs, and nothing the size of the list is ever copied. A core that
//! remembers a node from an earlier walk resumes just past it in O(1): the
//! walk checks the slot's `id` and follows its `prev` link.

use cache_sim::{BlockAddr, Cost, Way, WayView};
use csr::{EvictionPolicy, Walk};

/// Sentinel slot index for list ends.
const NIL: u32 = u32::MAX;

/// One resident entry: its policy-visible identity and cost, the caller's
/// payload, and the list links.
pub(crate) struct Node<T> {
    /// Stable policy-visible identity: the 64-bit hash of the key.
    pub(crate) id: BlockAddr,
    /// Miss cost as computed at fill time.
    pub(crate) cost: u64,
    pub(crate) item: T,
    prev: u32,
    next: u32,
}

pub(crate) struct RecencyList<T> {
    slots: Vec<Option<Node<T>>>,
    free: Vec<u32>,
    /// MRU end.
    head: u32,
    /// LRU end.
    tail: u32,
    /// Linked nodes.
    len: usize,
}

impl<T> RecencyList<T> {
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        assert!(
            capacity < NIL as usize,
            "list capacity must fit in a u32 slot index"
        );
        RecencyList {
            slots: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }

    pub(crate) fn get(&self, i: u32) -> &Node<T> {
        self.slots[i as usize]
            .as_ref()
            .expect("linked slot must be occupied")
    }

    pub(crate) fn get_mut(&mut self, i: u32) -> &mut Node<T> {
        self.slots[i as usize]
            .as_mut()
            .expect("linked slot must be occupied")
    }

    fn unlink(&mut self, i: u32) {
        let (prev, next) = {
            let n = self.get(i);
            (n.prev, n.next)
        };
        if prev == NIL {
            self.head = next;
        } else {
            self.get_mut(prev).next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.get_mut(next).prev = prev;
        }
    }

    fn link_front(&mut self, i: u32) {
        let old_head = self.head;
        {
            let n = self.get_mut(i);
            n.prev = NIL;
            n.next = old_head;
        }
        if old_head != NIL {
            self.get_mut(old_head).prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    fn promote(&mut self, i: u32) {
        if self.head != i {
            self.unlink(i);
            self.link_front(i);
        }
    }

    /// The nodes from the LRU end toward the MRU end, with their slots.
    pub(crate) fn iter_lru(&self) -> IterLru<'_, T> {
        IterLru {
            list: self,
            cur: self.tail,
            remaining: self.len,
        }
    }

    /// The victim walk: [`iter_lru`](Self::iter_lru) as the policy sees it.
    pub(crate) fn walk(&self) -> LruWalk<'_, T> {
        LruWalk {
            inner: self.iter_lru(),
            pulled: 0,
            resumed: false,
        }
    }

    /// An access hit the node in slot `i`: notifies `policy` (before the
    /// promotion, as the contract requires) and moves it to the MRU end.
    pub(crate) fn hit(&mut self, i: u32, policy: &mut dyn EvictionPolicy) {
        let is_lru = self.tail == i;
        let n = self.get(i);
        policy.on_hit(n.id, Way(i as usize), Cost(n.cost), is_lru);
        self.promote(i);
    }

    /// An access to the absent `id` missed: notifies `policy` with the
    /// current LRU block.
    pub(crate) fn miss(&self, id: BlockAddr, policy: &mut dyn EvictionPolicy) {
        let lru = (self.tail != NIL).then(|| {
            let n = self.get(self.tail);
            (n.id, Cost(n.cost))
        });
        policy.on_miss(id, lru);
    }

    /// Overwrites the resident node in slot `i` with a new cost: a hit
    /// (promote and notify), then a fill at the new cost.
    pub(crate) fn refill(&mut self, i: u32, cost: u64, policy: &mut dyn EvictionPolicy) {
        self.hit(i, policy);
        let n = self.get_mut(i);
        n.cost = cost;
        policy.on_fill(n.id, Way(i as usize), Cost(cost));
    }

    /// Fills a new node at the MRU end and notifies `policy`; returns its
    /// slot.
    pub(crate) fn insert(
        &mut self,
        id: BlockAddr,
        cost: u64,
        item: T,
        policy: &mut dyn EvictionPolicy,
    ) -> u32 {
        let node = Node {
            id,
            cost,
            item,
            prev: NIL,
            next: NIL,
        };
        let i = match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = Some(node);
                i
            }
            None => {
                self.slots.push(Some(node));
                (self.slots.len() - 1) as u32
            }
        };
        self.link_front(i);
        self.len += 1;
        policy.on_fill(id, Way(i as usize), Cost(cost));
        i
    }

    /// Unlinks and returns the node in slot `i`, freeing the slot. The
    /// caller notifies the policy if the departure needs it.
    pub(crate) fn remove(&mut self, i: u32) -> Node<T> {
        self.unlink(i);
        let node = self.slots[i as usize]
            .take()
            .expect("removed slot must be occupied");
        self.free.push(i);
        self.len -= 1;
        node
    }

    /// Lets `policy` pick a victim from the lazy LRU → MRU walk and removes
    /// it.
    pub(crate) fn evict(&mut self, policy: &mut dyn EvictionPolicy) -> Evicted<T> {
        let mut walk = self.walk();
        let victim = policy.victim(&mut walk).0 as u32;
        let walked = walk.pulled;
        let was_lru = self.tail == victim;
        Evicted {
            node: self.remove(victim),
            was_lru,
            walked,
        }
    }

    /// Drops every node.
    pub(crate) fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        self.len = 0;
    }
}

/// A node [`RecencyList::evict`] removed.
pub(crate) struct Evicted<T> {
    pub(crate) node: Node<T>,
    /// Whether it was the LRU node (`false` is a reservation).
    pub(crate) was_lru: bool,
    /// Items the policy pulled from the victim walk.
    pub(crate) walked: usize,
}

/// [`RecencyList::iter_lru`]: follows the `prev` links from the tail.
pub(crate) struct IterLru<'a, T> {
    list: &'a RecencyList<T>,
    cur: u32,
    remaining: usize,
}

impl<'a, T> Iterator for IterLru<'a, T> {
    type Item = (u32, &'a Node<T>);

    fn next(&mut self) -> Option<Self::Item> {
        if self.cur == NIL {
            return None;
        }
        let i = self.cur;
        let n = self.list.get(i);
        self.cur = n.prev;
        self.remaining -= 1;
        Some((i, n))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<T> ExactSizeIterator for IterLru<'_, T> {}

/// [`RecencyList::walk`]: the nodes LRU → MRU as [`WayView`]s, counting
/// the items pulled.
pub(crate) struct LruWalk<'a, T> {
    inner: IterLru<'a, T>,
    pulled: usize,
    /// After a resume the walk no longer knows its exact length, only a
    /// bound (`inner.remaining`).
    resumed: bool,
}

impl<T> Iterator for LruWalk<'_, T> {
    type Item = WayView;

    fn next(&mut self) -> Option<WayView> {
        let (i, n) = self.inner.next()?;
        self.pulled += 1;
        Some(WayView {
            way: Way(i as usize),
            block: n.id,
            cost: Cost(n.cost),
            dirty: false,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.inner.remaining;
        (if self.resumed { 0 } else { left }, Some(left))
    }
}

impl<T> Walk for LruWalk<'_, T> {
    fn resume_after(&mut self, way: Way, block: BlockAddr) -> bool {
        match self.inner.list.slots.get(way.0) {
            Some(Some(n)) if n.id == block => {
                self.inner.cur = n.prev;
                self.resumed = true;
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csr::LruCore;

    fn order(list: &RecencyList<()>) -> Vec<u64> {
        list.walk().map(|e| e.block.0).collect()
    }

    #[test]
    fn walk_runs_lru_to_mru_and_reuses_slots() {
        let mut core = LruCore::new();
        let mut list = RecencyList::with_capacity(4);
        let a = list.insert(BlockAddr(1), 5, (), &mut core);
        let b = list.insert(BlockAddr(2), 6, (), &mut core);
        list.insert(BlockAddr(3), 7, (), &mut core);
        assert_eq!(order(&list), [1, 2, 3]);
        assert_eq!(list.walk().size_hint(), (3, Some(3)));
        list.hit(a, &mut core);
        assert_eq!(order(&list), [2, 3, 1]);
        assert_eq!(list.remove(b).id, BlockAddr(2));
        assert_eq!(order(&list), [3, 1]);
        // The freed slot is the next one filled.
        assert_eq!(list.insert(BlockAddr(4), 1, (), &mut core), b);
        list.refill(a, 9, &mut core);
        assert_eq!(order(&list), [3, 4, 1]);
        assert_eq!(list.get(a).cost, 9);
    }

    #[test]
    fn evict_takes_the_policy_victim() {
        let mut core = LruCore::new();
        let mut list = RecencyList::with_capacity(2);
        list.insert(BlockAddr(1), 5, (), &mut core);
        list.insert(BlockAddr(2), 6, (), &mut core);
        let e = list.evict(&mut core);
        assert_eq!((e.node.id, e.was_lru, e.walked), (BlockAddr(1), true, 1));
        assert_eq!(order(&list), [2]);
        assert_eq!(list.walk().size_hint(), (1, Some(1)));
        list.clear();
        assert_eq!(order(&list), Vec::<u64>::new());
    }

    #[test]
    fn walk_resumes_past_a_slot_that_still_holds_its_block() {
        let mut core = LruCore::new();
        let mut list = RecencyList::with_capacity(4);
        for b in 1..=4 {
            list.insert(BlockAddr(b), 1, (), &mut core);
        }
        // LRU → MRU: 1 2 3 4 in slots 0..4.
        let mut walk = list.walk();
        assert_eq!(walk.next().map(|e| e.block), Some(BlockAddr(1)));
        assert!(walk.resume_after(Way(2), BlockAddr(3)));
        assert_eq!(walk.size_hint(), (0, Some(3)));
        assert_eq!(walk.next().map(|e| e.block), Some(BlockAddr(4)));
        assert_eq!(walk.next(), None);
        assert_eq!(walk.pulled, 2);
        // A freed slot, a reused slot and an out-of-range slot all refuse.
        list.remove(1);
        let mut walk = list.walk();
        assert!(!walk.resume_after(Way(1), BlockAddr(2)));
        assert!(!walk.resume_after(Way(9), BlockAddr(2)));
        list.insert(BlockAddr(5), 1, (), &mut core);
        let mut walk = list.walk();
        assert!(!walk.resume_after(Way(1), BlockAddr(2)));
        assert_eq!(walk.next().map(|e| e.block), Some(BlockAddr(1)));
    }
}
