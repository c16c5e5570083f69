//! The one bounded store under every `(start context, name suffix)` cache.
//!
//! A cached binding is a name resolved in an earlier context; the caches
//! built on this store differ only in the rule under which an entry may
//! still stand (generation footprints in [`crate::memo`], leases and zone
//! serials in the resolver's lease plane). What they share lives here:
//!
//! * a **slab** of slots holding key and value, with an intrusive free
//!   list — a removed slot keeps its buffers, and the next insert refills
//!   them in place, so a store in steady state allocates nothing;
//! * an **open-addressed index** of `(hash tag, slot)` cells, probed with a
//!   borrowed `(ObjectId, &[Name])` key — the key is stored once, in the
//!   slot, and a probe is one Fx hash plus a short linear scan of cells;
//! * an **intrusive LRU list** through the slots, so touch, insert and
//!   evict are O(1);
//! * a **capacity bound**: an insert into a full store evicts the least
//!   recently used entry first, so the slab never outgrows the bound.
//!
//! Nothing is allocated until the first insert.

use std::hash::{Hash, Hasher};

use crate::entity::ObjectId;
use crate::hash::FxHasher;
use crate::name::Name;

/// Sentinel for "no slot" in the lists and "empty" in the index.
const NIL: u32 = u32::MAX;

/// A free slot's `prev`, which no live slot has.
const FREE: u32 = NIL - 1;

/// Smallest index allocated (cells); always a power of two.
const MIN_CELLS: usize = 8;

/// Handle to a live entry, valid until the entry is removed or evicted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlotId(u32);

/// What [`SlabLru::upsert`] did to make room for the value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Upsert {
    /// The key was already held; its entry is now the most recently used.
    Refreshed,
    /// A new entry was linked in; `evicted` tells whether the least
    /// recently used entry had to go to respect the capacity bound.
    Inserted {
        /// True when the insert displaced the least recently used entry.
        evicted: bool,
    },
}

/// One index cell: the high half of the key's hash, and the slot holding
/// the key. The cell's home position is the tag's top bits, so the index
/// grows and back-shifts without touching a slot.
#[derive(Clone, Copy, Debug)]
struct Cell {
    tag: u32,
    slot: u32,
}

const EMPTY: Cell = Cell { tag: 0, slot: NIL };

#[derive(Clone, Debug)]
struct Slot<V> {
    tag: u32,
    /// Previous (more recently used) live slot, or [`FREE`] on a free one.
    prev: u32,
    /// Next (less recently used) live slot — or, on a free slot, the next
    /// free one.
    next: u32,
    start: ObjectId,
    suffix: Vec<Name>,
    value: V,
}

/// A bounded `(ObjectId, [Name]) → V` store with O(1) borrowed-key probes
/// and least-recently-used eviction. See the module docs.
#[derive(Clone, Debug)]
pub struct SlabLru<V> {
    /// Open-addressed, linear-probed; empty until the first insert, then a
    /// power of two kept at most half full.
    cells: Vec<Cell>,
    /// `32 - log2(cells.len())`: a tag's home is `tag >> shift`.
    shift: u32,
    slots: Vec<Slot<V>>,
    /// Head of the free-slot chain, or NIL.
    free: u32,
    /// Most recently used slot, or NIL.
    head: u32,
    /// Least recently used slot, or NIL.
    tail: u32,
    len: usize,
    capacity: usize,
}

fn tag_of(start: ObjectId, suffix: &[Name]) -> u32 {
    let mut h = FxHasher::default();
    start.hash(&mut h);
    suffix.hash(&mut h);
    // Fx ends on a multiply: the high half is the well-mixed one.
    (h.finish() >> 32) as u32
}

impl<V> SlabLru<V> {
    /// An empty store holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> SlabLru<V> {
        assert!(capacity > 0, "a zero-capacity store cannot hold entries");
        SlabLru {
            cells: Vec::new(),
            shift: 32,
            slots: Vec::new(),
            free: NIL,
            head: NIL,
            tail: NIL,
            len: 0,
            capacity,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Slots ever allocated (live plus free); never exceeds the capacity.
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// Finds the entry for `(start, suffix)` without touching recency.
    #[inline]
    pub fn find(&self, start: ObjectId, suffix: &[Name]) -> Option<SlotId> {
        self.find_tagged(tag_of(start, suffix), start, suffix)
    }

    #[inline]
    fn find_tagged(&self, tag: u32, start: ObjectId, suffix: &[Name]) -> Option<SlotId> {
        if self.cells.is_empty() {
            return None;
        }
        let mask = self.cells.len() - 1;
        let mut pos = (tag >> self.shift) as usize;
        loop {
            let cell = self.cells[pos];
            if cell.slot == NIL {
                return None;
            }
            if cell.tag == tag {
                let s = &self.slots[cell.slot as usize];
                if s.start == start && s.suffix == suffix {
                    return Some(SlotId(cell.slot));
                }
            }
            pos = (pos + 1) & mask;
        }
    }

    /// The value of a live entry.
    #[inline]
    pub fn value(&self, id: SlotId) -> &V {
        &self.slots[id.0 as usize].value
    }

    /// The value of a live entry, mutably.
    #[inline]
    pub fn value_mut(&mut self, id: SlotId) -> &mut V {
        &mut self.slots[id.0 as usize].value
    }

    /// Marks a live entry most recently used.
    #[inline]
    pub fn touch(&mut self, id: SlotId) {
        if self.head != id.0 {
            self.detach(id.0);
            self.push_front(id.0);
        }
    }

    /// Removes a live entry. Its slot — key and value buffers included —
    /// goes on the free list for the next insert to refill.
    pub fn remove(&mut self, id: SlotId) {
        let slot = id.0;
        self.detach(slot);
        self.unindex(slot);
        let s = &mut self.slots[slot as usize];
        (s.prev, s.next) = (FREE, self.free);
        self.free = slot;
        self.len -= 1;
    }

    /// Keeps the entries `keep` approves and removes the rest in place;
    /// returns how many were removed. `keep` sees each entry's suffix and
    /// may update its value as it judges it. Visits live slots in slab
    /// (memory) order, not along the recency list, which survivors keep.
    pub fn retain(&mut self, mut keep: impl FnMut(&[Name], &mut V) -> bool) -> usize {
        let mut removed = 0;
        for slot in 0..self.slots.len() {
            let s = &mut self.slots[slot];
            if s.prev != FREE && !keep(&s.suffix, &mut s.value) {
                self.remove(SlotId(slot as u32));
                removed += 1;
            }
        }
        removed
    }

    /// The live entries, most recently used first.
    pub fn iter(&self) -> impl Iterator<Item = (ObjectId, &[Name], &V)> + '_ {
        let mut slot = self.head;
        std::iter::from_fn(move || {
            let s = self.slots.get(slot as usize)?;
            slot = s.next;
            Some((s.start, &*s.suffix, &s.value))
        })
    }

    /// Drops every entry and every slot (the index keeps its size).
    pub fn clear(&mut self) {
        self.cells.fill(EMPTY);
        self.slots.clear();
        (self.free, self.head, self.tail, self.len) = (NIL, NIL, NIL, 0);
    }

    /// Returns the entry for `(start, suffix)` as the most recently used
    /// one, linking a new entry in if the key was not held — evicting the
    /// least recently used entry first when the store is full. A new entry
    /// reuses a free slot when there is one: its value is then whatever the
    /// slot last held, for the caller to overwrite in place (fresh slots
    /// start from `V::default()`).
    pub fn upsert(&mut self, start: ObjectId, suffix: &[Name]) -> (Upsert, &mut V)
    where
        V: Default,
    {
        let tag = tag_of(start, suffix);
        if let Some(id) = self.find_tagged(tag, start, suffix) {
            self.touch(id);
            return (Upsert::Refreshed, self.value_mut(id));
        }
        let evicted = self.len >= self.capacity;
        if evicted {
            self.remove(SlotId(self.tail));
        }
        let slot = if self.free != NIL {
            let slot = self.free;
            let s = &mut self.slots[slot as usize];
            self.free = s.next;
            s.tag = tag;
            s.start = start;
            s.suffix.clear();
            s.suffix.extend_from_slice(suffix);
            slot
        } else {
            let slot = u32::try_from(self.slots.len()).expect("slab slot overflow");
            assert!(slot < FREE, "slab slot overflow");
            self.slots.push(Slot {
                tag,
                prev: NIL,
                next: NIL,
                start,
                suffix: suffix.to_vec(),
                value: V::default(),
            });
            slot
        };
        self.index(tag, slot);
        self.push_front(slot);
        self.len += 1;
        (Upsert::Inserted { evicted }, self.value_mut(SlotId(slot)))
    }

    // --- index ------------------------------------------------------------

    /// Adds a cell for `slot`, doubling the index first if it would pass
    /// half full.
    fn index(&mut self, tag: u32, slot: u32) {
        if (self.len + 1) * 2 > self.cells.len() {
            let grown = (self.cells.len() * 2).max(MIN_CELLS);
            let bits = grown.trailing_zeros();
            assert!(bits <= 32, "slab index overflow");
            let old = std::mem::replace(&mut self.cells, vec![EMPTY; grown]);
            self.shift = 32 - bits;
            for cell in old.into_iter().filter(|c| c.slot != NIL) {
                self.place(cell);
            }
        }
        self.place(Cell { tag, slot });
    }

    fn place(&mut self, cell: Cell) {
        let mask = self.cells.len() - 1;
        let mut pos = (cell.tag >> self.shift) as usize;
        while self.cells[pos].slot != NIL {
            pos = (pos + 1) & mask;
        }
        self.cells[pos] = cell;
    }

    /// Removes `slot`'s cell, shifting the cells behind it back over the
    /// hole so no probe sequence is ever broken (no tombstones).
    fn unindex(&mut self, slot: u32) {
        let mask = self.cells.len() - 1;
        let mut hole = (self.slots[slot as usize].tag >> self.shift) as usize;
        while self.cells[hole].slot != slot {
            debug_assert_ne!(
                self.cells[hole].slot, NIL,
                "live slot missing from the index"
            );
            hole = (hole + 1) & mask;
        }
        let mut pos = hole;
        loop {
            pos = (pos + 1) & mask;
            let cell = self.cells[pos];
            if cell.slot == NIL {
                break;
            }
            // A cell may move back to the hole only if that keeps it at or
            // after its home: its probe distance reaches at least that far.
            let home = (cell.tag >> self.shift) as usize;
            if (pos.wrapping_sub(home) & mask) >= (pos.wrapping_sub(hole) & mask) {
                self.cells[hole] = cell;
                hole = pos;
            }
        }
        self.cells[hole] = EMPTY;
    }

    // --- recency list -----------------------------------------------------

    fn detach(&mut self, slot: u32) {
        let s = &self.slots[slot as usize];
        let (prev, next) = (s.prev, s.next);
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    fn push_front(&mut self, slot: u32) {
        let s = &mut self.slots[slot as usize];
        (s.prev, s.next) = (NIL, self.head);
        match self.head {
            NIL => self.tail = slot,
            h => self.slots[h as usize].prev = slot,
        }
        self.head = slot;
    }
}

#[cfg(test)]
mod tests {
    //! Model test: the store against the obvious implementation — an ordered
    //! map plus a recency list — under random interleavings of every
    //! operation, with index, slab and recency list checked against each other
    //! after every mutation. Keys come from a pool small enough that refreshes,
    //! evictions and free-slot reuse happen constantly, and varied enough
    //! (mixed lengths, shared prefixes, two start contexts) that index cells
    //! collide and back-shift.

    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::*;

    impl<V> SlabLru<V> {
        /// Panics unless index, slab and recency list describe the same set
        /// of entries.
        fn assert_consistent(&self) {
            assert!(self.len <= self.capacity, "len exceeds capacity");
            assert!(self.slots.len() <= self.capacity, "slab exceeds capacity");
            let mut listed = vec![false; self.slots.len()];
            let (mut slot, mut prev, mut n) = (self.head, NIL, 0);
            while slot != NIL {
                let s = &self.slots[slot as usize];
                assert_eq!(s.prev, prev, "list back-link broken at slot {slot}");
                assert!(
                    !std::mem::replace(&mut listed[slot as usize], true),
                    "list cycle"
                );
                assert_eq!(
                    s.tag,
                    tag_of(s.start, &s.suffix),
                    "stale tag in slot {slot}"
                );
                assert_eq!(
                    self.find(s.start, &s.suffix),
                    Some(SlotId(slot)),
                    "listed slot not indexed"
                );
                (prev, slot, n) = (slot, s.next, n + 1);
            }
            assert_eq!(self.tail, prev, "tail is not the last listed slot");
            assert_eq!(n, self.len, "list length disagrees with len");
            let indexed = self.cells.iter().filter(|c| c.slot != NIL);
            assert_eq!(indexed.count(), self.len, "index size disagrees with len");
            assert!(
                self.cells.len() >= 2 * self.len,
                "index more than half full"
            );
            let (mut slot, mut free) = (self.free, 0);
            while slot != NIL {
                assert!(
                    !std::mem::replace(&mut listed[slot as usize], true),
                    "free slot is live"
                );
                let s = &self.slots[slot as usize];
                assert_eq!(s.prev, FREE, "free slot {slot} not marked free");
                (slot, free) = (s.next, free + 1);
            }
            assert_eq!(
                free + self.len,
                self.slots.len(),
                "slots neither live nor free"
            );
        }
    }

    type Key = (ObjectId, Vec<Name>);

    /// The reference: values by key, and keys from most to least recently used.
    #[derive(Default)]
    struct Model {
        values: BTreeMap<Key, u32>,
        recency: Vec<Key>,
    }

    impl Model {
        fn touch(&mut self, key: &Key) {
            self.recency.retain(|k| k != key);
            self.recency.insert(0, key.clone());
        }

        fn remove(&mut self, key: &Key) {
            self.values.remove(key);
            self.recency.retain(|k| k != key);
        }
    }

    fn key(pick: u8) -> Key {
        const LABELS: [&str; 5] = ["a", "b", "c", "d", "e"];
        let pick = pick as usize;
        let start = ObjectId::from_index((pick % 2) as u32);
        let len = 1 + (pick / 2) % 3;
        let suffix = (0..len)
            .map(|k| Name::new(LABELS[(pick / 6 + k * (1 + pick % 3)) % LABELS.len()]))
            .collect();
        (start, suffix)
    }

    /// The store holds exactly the model's entries, in the model's recency
    /// order, and every internal structure agrees with every other.
    fn check(store: &SlabLru<u32>, model: &Model, capacity: usize) {
        store.assert_consistent();
        assert_eq!(store.len(), model.values.len());
        assert!(store.len() <= capacity);
        assert!(store.slots() <= capacity);
        let listed: Vec<(Key, u32)> = store
            .iter()
            .map(|(start, suffix, &v)| ((start, suffix.to_vec()), v))
            .collect();
        let expected: Vec<(Key, u32)> = model
            .recency
            .iter()
            .map(|k| (k.clone(), model.values[k]))
            .collect();
        assert_eq!(listed, expected, "recency order or values diverged");
    }

    proptest! {
        #[test]
        fn slab_lru_matches_the_map_and_recency_list_model(
            capacity in 1usize..12,
            ops in proptest::collection::vec((0u8..8, any::<u8>(), any::<u8>()), 1..400),
        ) {
            let mut store: SlabLru<u32> = SlabLru::with_capacity(capacity);
            let mut model = Model::default();
            let mut slots_hwm = 0;
            for (step, (op, pick, arg)) in ops.into_iter().enumerate() {
                let k = key(pick);
                match op {
                    // Insert or refresh — twice as likely as anything else, so
                    // the store actually sits at its bound.
                    0..=2 => {
                        let held = model.values.contains_key(&k);
                        let victim = (!held && model.values.len() == capacity)
                            .then(|| model.recency.last().cloned().expect("full model has a tail"));
                        let (how, v) = store.upsert(k.0, &k.1);
                        *v = step as u32;
                        let expected = match (held, &victim) {
                            (true, _) => Upsert::Refreshed,
                            (false, v) => Upsert::Inserted { evicted: v.is_some() },
                        };
                        prop_assert_eq!(how, expected);
                        if let Some(victim) = victim {
                            model.remove(&victim);
                            prop_assert!(
                                store.find(victim.0, &victim.1).is_none(),
                                "the least recently used entry was not the one evicted"
                            );
                        }
                        model.values.insert(k.clone(), step as u32);
                        model.touch(&k);
                        // A slot freed by remove/retain/evict is reused before
                        // the slab grows.
                        prop_assert!(store.slots() >= slots_hwm);
                        prop_assert!(store.slots() <= slots_hwm + 1);
                        if store.slots() > slots_hwm {
                            prop_assert_eq!(store.len(), store.slots(), "slab grew past a free slot");
                        }
                    }
                    // Get and touch.
                    3 => match store.find(k.0, &k.1) {
                        Some(id) => {
                            prop_assert_eq!(Some(store.value(id)), model.values.get(&k));
                            store.touch(id);
                            model.touch(&k);
                        }
                        None => prop_assert!(!model.values.contains_key(&k)),
                    },
                    // Peek: recency must not move.
                    4 => {
                        let got = store.find(k.0, &k.1).map(|id| *store.value(id));
                        prop_assert_eq!(got, model.values.get(&k).copied());
                    }
                    // Mutate in place through the handle.
                    5 => {
                        if let Some(id) = store.find(k.0, &k.1) {
                            *store.value_mut(id) += 1;
                            *model.values.get_mut(&k).expect("store and model agree") += 1;
                        }
                    }
                    // Remove.
                    6 => {
                        if let Some(id) = store.find(k.0, &k.1) {
                            store.remove(id);
                        }
                        model.remove(&k);
                    }
                    // Retain by a predicate over the value, bumping every
                    // survivor in place; rarely, clear.
                    _ => {
                        if arg == 0 {
                            store.clear();
                            model = Model::default();
                            slots_hwm = 0;
                        } else {
                            let keep = |v: u32| !(v as usize).is_multiple_of(2 + arg as usize % 3);
                            let doomed: Vec<Key> = model
                                .values
                                .iter()
                                .filter(|(_, &v)| !keep(v))
                                .map(|(k, _)| k.clone())
                                .collect();
                            // Live slots are visited once each, in slab order,
                            // each with its own suffix.
                            let in_slab_order: Vec<(Vec<Name>, u32)> = store
                                .slots
                                .iter()
                                .filter(|s| s.prev != FREE)
                                .map(|s| (s.suffix.clone(), s.value))
                                .collect();
                            let mut visited = Vec::new();
                            let removed = store.retain(|suffix, v| {
                                visited.push((suffix.to_vec(), *v));
                                *v += 1;
                                keep(*v - 1)
                            });
                            prop_assert_eq!(visited, in_slab_order);
                            prop_assert_eq!(removed, doomed.len());
                            for k in &doomed {
                                model.remove(k);
                            }
                            model.values.values_mut().for_each(|v| *v += 1);
                        }
                    }
                }
                slots_hwm = slots_hwm.max(store.slots());
                check(&store, &model, capacity);
            }
        }
    }

    /// The index grows by doubling and back-shifts on removal; drive it far
    /// past the proptest's small capacities, removing from the middle of
    /// probe runs, and check every survivor is still reachable.
    #[test]
    fn index_survives_growth_and_interleaved_removal_at_scale() {
        let mut store: SlabLru<u64> = SlabLru::with_capacity(5_000);
        let name = |i: u32| {
            [
                Name::new(&format!("n{}", i % 97)),
                Name::new(&format!("m{i}")),
            ]
        };
        for i in 0..5_000u32 {
            *store.upsert(ObjectId::from_index(i % 7), &name(i)).1 = u64::from(i);
        }
        for i in (0..5_000u32).filter(|i| i % 3 != 0) {
            let id = store
                .find(ObjectId::from_index(i % 7), &name(i))
                .expect("held");
            store.remove(id);
        }
        store.assert_consistent();
        for i in 0..5_000u32 {
            let got = store
                .find(ObjectId::from_index(i % 7), &name(i))
                .map(|id| *store.value(id));
            assert_eq!(got, (i % 3 == 0).then_some(u64::from(i)));
        }
        // Refill through the free list: the slab does not grow.
        for i in 5_000..8_000u32 {
            store.upsert(ObjectId::from_index(i % 7), &name(i));
        }
        assert_eq!(store.slots(), 5_000);
        store.assert_consistent();
    }
}
