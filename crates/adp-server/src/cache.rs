//! A fixed-capacity LRU map backing the server's VO cache.
//!
//! The server keys entries on `(table_id, canonical query)` — the query's
//! range is normalized against the table's key domain first, so e.g.
//! `K < 100` and `K ≤ 99` share one entry. Values are the already-encoded
//! `(result, vo)` byte blobs behind an `Arc`, so a hit clones two pointers
//! and writes straight to the socket without re-running the publisher or
//! the codec.
//!
//! The implementation is a standard intrusive doubly-linked list over a
//! slab of nodes plus a `HashMap` from key to slab index: `get`, `insert`
//! and eviction are all O(1). No external crates — `std` only, like the
//! rest of the server.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;

const NIL: usize = usize::MAX;

struct Node<K, V> {
    key: K,
    /// `None` only while the slot sits on the free list.
    value: Option<V>,
    prev: usize,
    next: usize,
}

/// A least-recently-used map with a fixed capacity.
pub struct LruCache<K, V> {
    map: HashMap<K, usize>,
    slab: Vec<Node<K, V>>,
    head: usize, // most recently used
    tail: usize, // least recently used
    capacity: usize,
    /// Slab slots vacated by [`LruCache::remove`], recycled before the
    /// slab grows.
    free: Vec<usize>,
}

impl<K: Clone + Eq + Hash, V> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries.
    ///
    /// # Panics
    /// If `capacity` is zero (use `Option<LruCache>` to disable caching).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LruCache capacity must be non-zero");
        LruCache {
            map: HashMap::with_capacity(capacity),
            slab: Vec::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            capacity,
            free: Vec::new(),
        }
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The fixed capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Looks up `key` (any borrowed form of `K`, so a `Vec<u8>` key can be
    /// probed with a `&[u8]`), marking the entry most-recently-used on a hit.
    pub fn get<Q>(&mut self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        let idx = *self.map.get(key)?;
        self.detach(idx);
        self.attach_front(idx);
        self.slab[idx].value.as_ref()
    }

    /// Inserts (or replaces) `key`, evicting the least-recently-used entry
    /// when at capacity. Returns the evicted `(key, value)` pair, if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if let Some(&idx) = self.map.get(&key) {
            self.slab[idx].value = Some(value);
            self.detach(idx);
            self.attach_front(idx);
            return None;
        }
        if let Some(idx) = self.free.pop() {
            // Recycle a slot vacated by remove().
            self.slab[idx].key = key.clone();
            self.slab[idx].value = Some(value);
            self.map.insert(key, idx);
            self.attach_front(idx);
            return None;
        }
        if self.map.len() == self.capacity {
            // Recycle the LRU node's slot for the new entry.
            let lru = self.tail;
            self.detach(lru);
            let old_key = std::mem::replace(&mut self.slab[lru].key, key.clone());
            let old_value = self.slab[lru].value.replace(value);
            self.map.remove(&old_key);
            self.map.insert(key, lru);
            self.attach_front(lru);
            return old_value.map(|v| (old_key, v));
        }
        self.slab.push(Node {
            key: key.clone(),
            value: Some(value),
            prev: NIL,
            next: NIL,
        });
        let idx = self.slab.len() - 1;
        self.map.insert(key, idx);
        self.attach_front(idx);
        None
    }

    /// Removes `key` (e.g. an entry invalidated by a table update),
    /// returning its value. The vacated slab slot joins the free list and
    /// is recycled by a later insert.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let idx = self.map.remove(key)?;
        self.detach(idx);
        self.free.push(idx);
        self.slab[idx].value.take()
    }

    fn detach(&mut self, idx: usize) {
        let (prev, next) = (self.slab[idx].prev, self.slab[idx].next);
        if prev != NIL {
            self.slab[prev].next = next;
        } else if self.head == idx {
            self.head = next;
        }
        if next != NIL {
            self.slab[next].prev = prev;
        } else if self.tail == idx {
            self.tail = prev;
        }
        self.slab[idx].prev = NIL;
        self.slab[idx].next = NIL;
    }

    fn attach_front(&mut self, idx: usize) {
        self.slab[idx].prev = NIL;
        self.slab[idx].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_and_miss() {
        let mut c: LruCache<u32, &'static str> = LruCache::new(2);
        assert!(c.get(&1).is_none());
        c.insert(1, "one");
        assert_eq!(c.get(&1), Some(&"one"));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        // Touch 1 so 2 becomes LRU.
        assert_eq!(c.get(&1), Some(&10));
        let evicted = c.insert(3, 30);
        assert_eq!(evicted, Some((2, 20)));
        assert!(c.get(&2).is_none());
        assert_eq!(c.get(&1), Some(&10));
        assert_eq!(c.get(&3), Some(&30));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn replace_updates_value_without_eviction() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        assert_eq!(c.insert(1, 11), None);
        assert_eq!(c.get(&1), Some(&11));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn capacity_one() {
        let mut c: LruCache<u32, u32> = LruCache::new(1);
        c.insert(1, 10);
        assert_eq!(c.insert(2, 20), Some((1, 10)));
        assert!(c.get(&1).is_none());
        assert_eq!(c.get(&2), Some(&20));
    }

    #[test]
    fn slot_reuse_after_eviction_chain() {
        let mut c: LruCache<u32, u32> = LruCache::new(3);
        for i in 0..100u32 {
            c.insert(i, i * 2);
        }
        assert_eq!(c.len(), 3);
        for i in 97..100u32 {
            assert_eq!(c.get(&i), Some(&(i * 2)));
        }
        // The slab never grew past capacity.
        assert!(c.slab.len() <= 3);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        let _ = LruCache::<u32, u32>::new(0);
    }

    #[test]
    fn remove_vacates_and_recycles_slots() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        assert_eq!(c.remove(&1), Some(10));
        assert_eq!(c.len(), 1);
        assert!(c.get(&1).is_none());
        assert_eq!(c.remove(&1), None);
        // The vacated slot is recycled: no eviction, no slab growth.
        assert_eq!(c.insert(3, 30), None);
        assert_eq!(c.len(), 2);
        assert!(c.slab.len() <= 2);
        assert_eq!(c.get(&2), Some(&20));
        assert_eq!(c.get(&3), Some(&30));
        // Eviction still works after the recycle dance.
        let evicted = c.insert(4, 40);
        assert_eq!(evicted, Some((2, 20)));
    }

    #[test]
    fn remove_head_and_tail_keep_list_consistent() {
        let mut c: LruCache<u32, u32> = LruCache::new(3);
        c.insert(1, 10);
        c.insert(2, 20);
        c.insert(3, 30);
        assert_eq!(c.remove(&3), Some(30)); // head
        assert_eq!(c.remove(&1), Some(10)); // tail
        assert_eq!(c.get(&2), Some(&20));
        c.insert(4, 40);
        c.insert(5, 50);
        assert_eq!(c.len(), 3);
        for (k, v) in [(2, 20), (4, 40), (5, 50)] {
            assert_eq!(c.get(&k), Some(&v));
        }
    }
}
