//! The client-side object cache of a query: what it holds, in fetch
//! order, with O(1) membership.
//!
//! The paper's point is that a moving query is guarded by a *small* set
//! of objects, so the cache costs what that set costs: an ordered list
//! (the source of truth the validation scan iterates) beside a small
//! open-addressed table of site ordinals, both sized to the held set and
//! independent of the number of sites in the index.

/// A free table slot. Never a key: the table stores ordinals as `u32`
/// and refuses any that does not fit below this (every in-tree site id
/// is `u32`-backed, so an index holds at most `u32::MAX` sites and
/// ordinals stop one short).
const EMPTY: u32 = u32::MAX;

/// Smallest table allocated; always a power of two.
const MIN_SLOTS: usize = 16;

/// The objects a query holds: `list` in fetch order, `slots` a
/// linear-probing hash table of their ordinals, a power of two long and
/// at most half full.
#[derive(Debug, Clone)]
pub(crate) struct HeldSet<Id> {
    list: Vec<Id>,
    slots: Vec<u32>,
}

impl<Id> Default for HeldSet<Id> {
    fn default() -> HeldSet<Id> {
        HeldSet {
            list: Vec::new(),
            slots: Vec::new(),
        }
    }
}

impl<Id: Copy> HeldSet<Id> {
    /// The held objects in fetch order.
    #[inline]
    pub(crate) fn as_slice(&self) -> &[Id] {
        &self.list
    }

    /// The table key of an ordinal. Truncating instead would make two
    /// sites share a key and the cache claim objects it never fetched.
    #[inline]
    fn key(ordinal: usize) -> u32 {
        assert!(ordinal < EMPTY as usize, "site ordinal beyond u32 range");
        ordinal as u32
    }

    /// Fibonacci hashing: the high bits of the product are the mixed
    /// ones, so the table index is taken from the top.
    #[inline]
    fn home(slots: &[u32], key: u32) -> usize {
        (key.wrapping_mul(0x9E37_79B9) >> (32 - slots.len().trailing_zeros())) as usize
    }

    /// The slot holding `key`, or the free slot it would go into.
    #[inline]
    fn probe(slots: &[u32], key: u32) -> usize {
        let mask = slots.len() - 1;
        let mut at = Self::home(slots, key);
        while slots[at] != EMPTY && slots[at] != key {
            at = (at + 1) & mask;
        }
        at
    }

    /// Whether the object with this ordinal is held.
    #[inline]
    pub(crate) fn contains(&self, ordinal: usize) -> bool {
        !self.slots.is_empty() && self.slots[Self::probe(&self.slots, Self::key(ordinal))] != EMPTY
    }

    /// Holds `id` (whose ordinal is `ordinal`); returns whether it was
    /// new. Allocates only when the held set outgrows every earlier one.
    pub(crate) fn insert(&mut self, ordinal: usize, id: Id) -> bool {
        let key = Self::key(ordinal);
        if (self.list.len() + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let at = Self::probe(&self.slots, key);
        if self.slots[at] != EMPTY {
            return false;
        }
        self.slots[at] = key;
        self.list.push(id);
        true
    }

    /// Doubles the table and re-seats the stored ordinals.
    fn grow(&mut self) {
        let len = (self.slots.len() * 2).max(MIN_SLOTS);
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; len]);
        for key in old.into_iter().filter(|&key| key != EMPTY) {
            let at = Self::probe(&self.slots, key);
            self.slots[at] = key;
        }
    }

    /// Drops every object and makes room for `n` new ones, keeping both
    /// allocations when they are large enough and replacing each at most
    /// once when not — a recomputation knows how many objects it is
    /// about to hold, so it never pays a chain of doublings.
    pub(crate) fn reset(&mut self, n: usize) {
        self.list.clear();
        self.list.reserve(n);
        let want = (n * 2).next_power_of_two().max(MIN_SLOTS);
        if want > self.slots.len() {
            self.slots = vec![EMPTY; want];
        } else {
            self.slots.fill(EMPTY);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn membership_tracks_the_list_through_growth_and_clear() {
        let mut held: HeldSet<u32> = HeldSet::default();
        assert!(!held.contains(0), "an unallocated table holds nothing");
        // Sparse ordinals (multiples of a large power of two, equal in
        // their low bits) interleaved with dense ones.
        let ordinals: Vec<usize> = (0..200usize)
            .map(|i| if i % 2 == 0 { i << 20 } else { i })
            .collect();
        for round in 0..3 {
            for (n, &o) in ordinals.iter().enumerate() {
                assert!(!held.contains(o), "round {round}");
                assert!(held.insert(o, o as u32));
                assert!(!held.insert(o, o as u32), "a second insert is a no-op");
                assert!(held.contains(o));
                assert_eq!(held.as_slice().len(), n + 1);
            }
            assert!(held.slots.len() >= 2 * ordinals.len(), "at most half full");
            let want: Vec<u32> = ordinals.iter().map(|&o| o as u32).collect();
            assert_eq!(held.as_slice(), &want[..], "fetch order is kept");
            let cap = held.slots.len();
            held.reset(0);
            assert_eq!(held.slots.len(), cap, "a reset keeps the table");
            assert!(held.as_slice().is_empty());
            assert!(ordinals.iter().all(|&o| !held.contains(o)));
        }
        // Room asked for up front is room that never grows.
        held.reset(1_000);
        let cap = held.slots.len();
        assert!(cap >= 2_000 && held.list.capacity() >= 1_000);
        for o in 0..1_000 {
            held.insert(o, o as u32);
        }
        assert_eq!(held.slots.len(), cap);
    }
}
