//! A small, deterministic LRU cache for hot query answers.
//!
//! Keyed on the *normalized* query (sorted, deduplicated labels), the
//! algorithm, and the search config — see
//! [`crate::wire::QueryKey`] — so a repeated hot query skips the whole
//! search path. Recency is an intrusive doubly-linked list threaded
//! through a slab, making every operation `O(1)` and the eviction order
//! fully deterministic: no timestamps, no hash-iteration order.
//!
//! ```
//! use ctc_server::cache::LruCache;
//!
//! let mut cache = LruCache::new(2);
//! cache.insert("a", 1);
//! cache.insert("b", 2);
//! cache.get(&"a");        // refresh "a"
//! cache.insert("c", 3);   // evicts "b", the least recently used
//! assert_eq!(cache.get(&"b"), None);
//! assert_eq!(cache.get(&"a"), Some(1));
//! assert_eq!(cache.get(&"c"), Some(3));
//! ```

use std::collections::HashMap;
use std::hash::Hash;

/// Sentinel slab index meaning "no neighbour".
const NIL: usize = usize::MAX;

#[derive(Clone, Debug)]
struct Slot<K, V> {
    key: K,
    /// `None` once [`LruCache::retain`] freed the slot: a dropped value
    /// is released at once, not when an insert reuses the slot.
    value: Option<V>,
    prev: usize,
    next: usize,
}

/// A least-recently-used cache with a fixed capacity.
///
/// Capacity `0` disables caching entirely (every [`LruCache::insert`] is a
/// no-op) — the switch the server's `--cache-cap 0` maps to. Entries live
/// in a slab threaded by an intrusive doubly-linked recency list
/// (most-recent at the head), so `get`, `insert`, and eviction are all
/// `O(1)`; the previous min-stamp scan was `O(capacity)` under the global
/// cache lock, which showed up once caches stopped being tiny. A miss does
/// not touch recency at all.
#[derive(Clone, Debug)]
pub struct LruCache<K, V> {
    cap: usize,
    map: HashMap<K, usize>,
    slots: Vec<Slot<K, V>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
}

impl<K: Eq + Hash + Clone, V: Clone> LruCache<K, V> {
    /// An empty cache holding at most `cap` entries.
    pub fn new(cap: usize) -> Self {
        let prealloc = cap.min(1024);
        LruCache {
            cap,
            map: HashMap::with_capacity(prealloc),
            slots: Vec::with_capacity(prealloc),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The cached values, most recently used first.
    pub fn values(&self) -> impl Iterator<Item = &V> + '_ {
        let mut idx = self.head;
        std::iter::from_fn(move || {
            if idx == NIL {
                return None;
            }
            let slot = &self.slots[idx];
            idx = slot.next;
            slot.value.as_ref()
        })
    }

    /// Unlinks slot `idx` from the recency list without freeing it.
    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.slots[idx].prev, self.slots[idx].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.slots[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slots[next].prev = prev;
        }
    }

    /// Links slot `idx` at the head (most recently used).
    fn link_front(&mut self, idx: usize) {
        self.slots[idx].prev = NIL;
        self.slots[idx].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: &K) -> Option<V> {
        let idx = *self.map.get(key)?;
        if self.head != idx {
            self.unlink(idx);
            self.link_front(idx);
        }
        self.slots[idx].value.clone()
    }

    /// Inserts (or refreshes) `key → value`, evicting the least recently
    /// used entry when a new key would exceed capacity.
    pub fn insert(&mut self, key: K, value: V) {
        if self.cap == 0 {
            return;
        }
        if let Some(&idx) = self.map.get(&key) {
            self.slots[idx].value = Some(value);
            if self.head != idx {
                self.unlink(idx);
                self.link_front(idx);
            }
            return;
        }
        if self.map.len() >= self.cap {
            // Evict the list tail — the least recently touched entry.
            let victim = self.tail;
            self.unlink(victim);
            self.map.remove(&self.slots[victim].key);
            self.slots[victim].key = key.clone();
            self.slots[victim].value = Some(value);
            self.map.insert(key, victim);
            self.link_front(victim);
            return;
        }
        let idx = match self.free.pop() {
            Some(idx) => {
                self.slots[idx].key = key.clone();
                self.slots[idx].value = Some(value);
                idx
            }
            None => {
                self.slots.push(Slot {
                    key: key.clone(),
                    value: Some(value),
                    prev: NIL,
                    next: NIL,
                });
                self.slots.len() - 1
            }
        };
        self.map.insert(key, idx);
        self.link_front(idx);
    }

    /// Drops every entry (capacity is kept).
    pub fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Keeps only the entries for which `keep` returns `true` — the
    /// invalidation primitive for online updates, where only answers in
    /// affected trussness classes need to go. Recency order of the
    /// survivors is untouched, so eviction order among them is stable.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &V) -> bool) {
        let mut idx = self.head;
        while idx != NIL {
            let next = self.slots[idx].next;
            let slot = &self.slots[idx];
            if !slot.value.as_ref().is_some_and(|v| keep(&slot.key, v)) {
                self.map.remove(&self.slots[idx].key);
                self.unlink(idx);
                self.slots[idx].value = None;
                self.free.push(idx);
            }
            idx = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_refreshes_and_returns_the_stored_value() {
        let mut c = LruCache::new(3);
        c.insert(1, "one");
        assert_eq!(c.get(&1), Some("one"));
        assert_eq!(c.get(&2), None);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn eviction_at_capacity_is_deterministic_lru() {
        // Same operation sequence → same eviction victim, every run.
        for _ in 0..10 {
            let mut c = LruCache::new(3);
            c.insert('a', 1);
            c.insert('b', 2);
            c.insert('c', 3);
            c.get(&'a'); // order now: b (oldest), c, a
            c.insert('d', 4); // evicts b
            assert_eq!(c.get(&'b'), None);
            assert_eq!(c.len(), 3);
            c.insert('e', 5); // evicts c (a and d are fresher)
            assert_eq!(c.get(&'c'), None);
            assert_eq!(c.get(&'a'), Some(1));
            assert_eq!(c.get(&'d'), Some(4));
            assert_eq!(c.get(&'e'), Some(5));
        }
    }

    #[test]
    fn reinsert_refreshes_instead_of_evicting() {
        let mut c = LruCache::new(2);
        c.insert('a', 1);
        c.insert('b', 2);
        c.insert('a', 10); // refresh, not a new key: no eviction
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&'a'), Some(10));
        assert_eq!(c.get(&'b'), Some(2));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = LruCache::new(0);
        c.insert(1, 1);
        assert_eq!(c.get(&1), None);
        assert!(c.is_empty());
        assert_eq!(c.capacity(), 0);
    }

    #[test]
    fn capacity_one_always_keeps_the_newest() {
        let mut c = LruCache::new(1);
        for i in 0..100 {
            c.insert(i, i * 10);
            assert_eq!(c.len(), 1);
            assert_eq!(c.get(&i), Some(i * 10));
        }
    }

    #[test]
    fn retain_drops_matching_entries_and_keeps_order() {
        let mut c = LruCache::new(3);
        c.insert('a', 1);
        c.insert('b', 2);
        c.insert('c', 3);
        c.retain(|_, v| *v != 2);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&'b'), None);
        // Survivors keep their order: 'a' is still the LRU victim
        // relative to 'c' after an unrelated insert fills the cache.
        c.insert('d', 4);
        c.insert('e', 5); // evicts 'a' (oldest survivor)
        assert_eq!(c.get(&'a'), None);
        assert_eq!(c.get(&'c'), Some(3));
    }

    #[test]
    fn retain_releases_dropped_values_at_once() {
        use std::sync::Arc;
        let dropped = Arc::new(vec![0u8; 64]);
        let mut c = LruCache::new(4);
        c.insert(1, Arc::clone(&dropped));
        c.insert(2, Arc::new(Vec::new()));
        c.retain(|k, _| *k != 1);
        assert_eq!(
            Arc::strong_count(&dropped),
            1,
            "a freed slot must not keep its value alive"
        );
        assert_eq!(c.values().count(), 1);
    }

    #[test]
    fn values_walk_live_entries_most_recent_first() {
        let mut c = LruCache::new(3);
        for (k, v) in [('a', 1), ('b', 2), ('c', 3), ('d', 4)] {
            c.insert(k, v); // 'd' evicts 'a'
        }
        c.get(&'b');
        c.retain(|_, v| *v != 3);
        assert_eq!(c.values().copied().collect::<Vec<_>>(), [2, 4]);
    }

    #[test]
    fn clear_empties_but_keeps_capacity() {
        let mut c = LruCache::new(4);
        c.insert(1, 1);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.capacity(), 4);
        c.insert(2, 2);
        assert_eq!(c.get(&2), Some(2));
    }

    /// The old implementation, kept as an executable specification: a
    /// logical clock with min-stamp eviction. The linked-list rewrite must
    /// evict in exactly the same order for any operation sequence.
    struct ModelLru {
        cap: usize,
        clock: u64,
        map: HashMap<u32, (u64, u32)>,
    }

    impl ModelLru {
        fn new(cap: usize) -> Self {
            ModelLru {
                cap,
                clock: 0,
                map: HashMap::new(),
            }
        }

        fn get(&mut self, key: &u32) -> Option<u32> {
            self.clock += 1;
            let clock = self.clock;
            self.map.get_mut(key).map(|slot| {
                slot.0 = clock;
                slot.1
            })
        }

        fn insert(&mut self, key: u32, value: u32) {
            if self.cap == 0 {
                return;
            }
            self.clock += 1;
            if !self.map.contains_key(&key) && self.map.len() >= self.cap {
                if let Some(victim) = self
                    .map
                    .iter()
                    .min_by_key(|(_, (stamp, _))| *stamp)
                    .map(|(k, _)| *k)
                {
                    self.map.remove(&victim);
                }
            }
            self.map.insert(key, (self.clock, value));
        }

        fn retain(&mut self, mut keep: impl FnMut(&u32, &u32) -> bool) {
            self.map.retain(|k, (_, v)| keep(k, v));
        }
    }

    #[test]
    fn differential_fuzz_against_min_stamp_model() {
        // Deterministic xorshift op stream: every get/insert/retain agrees
        // with the old min-stamp implementation across thousands of steps.
        for cap in [1usize, 2, 3, 7] {
            let mut real = LruCache::new(cap);
            let mut model = ModelLru::new(cap);
            let mut x = 0x9e3779b97f4a7c15u64 ^ (cap as u64);
            for step in 0..4000u32 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let key = (x % 16) as u32;
                match x >> 60 {
                    0..=5 => {
                        real.insert(key, step);
                        model.insert(key, step);
                    }
                    6..=13 => {
                        assert_eq!(real.get(&key), model.get(&key), "step {step} cap {cap}");
                    }
                    _ => {
                        real.retain(|k, _| k % 3 != key % 3);
                        model.retain(|k, _| k % 3 != key % 3);
                    }
                }
                assert_eq!(real.len(), model.map.len(), "step {step} cap {cap}");
            }
            for key in 0..16u32 {
                assert_eq!(real.get(&key), model.get(&key), "final cap {cap}");
            }
        }
    }
}
