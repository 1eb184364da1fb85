//! An order-configurable B+-tree keyed on `(key, replica)` pairs.
//!
//! Section 6.3 of the paper observes that the scheme's per-record signatures
//! can live *inside the B+-tree leaf entries*, so that a record update —
//! which re-signs the record and its two neighbours — touches at most two
//! adjacent leaf nodes, in contrast to Merkle-hash-tree schemes that must
//! recompute a path of digests up to the root (a locking hot-spot).
//!
//! To let the evaluation quantify exactly that claim, the tree counts node
//! visits ([`BPlusTree::stats`]) and can report which leaf a key resides in
//! ([`BPlusTree::leaf_id_of`]).
//!
//! Nodes are reference counted and a mutation copies only the nodes on its
//! root path that another tree still shares (`Arc::make_mut`), so a clone
//! is `O(1)` and an update batch staged on a clone leaves the original —
//! the epoch readers are still answering from — untouched.

use std::fmt;
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Composite key: `(key attribute value, replica number)`.
pub type TreeKey = (i64, u32);

/// Node-visit statistics, updated by every operation (atomics so trees —
/// and the signed tables embedding them — can be shared across publisher
/// threads).
#[derive(Debug, Default)]
pub struct TreeStats {
    nodes_visited: AtomicU64,
    leaves_visited: AtomicU64,
}

impl Clone for TreeStats {
    fn clone(&self) -> Self {
        TreeStats {
            nodes_visited: AtomicU64::new(self.nodes_visited()),
            leaves_visited: AtomicU64::new(self.leaves_visited()),
        }
    }
}

impl TreeStats {
    /// Total nodes (internal + leaf) touched since the last reset.
    pub fn nodes_visited(&self) -> u64 {
        self.nodes_visited.load(Ordering::Relaxed)
    }

    /// Leaf nodes touched since the last reset.
    pub fn leaves_visited(&self) -> u64 {
        self.leaves_visited.load(Ordering::Relaxed)
    }

    /// Zeroes both counters.
    pub fn reset(&self) {
        self.nodes_visited.store(0, Ordering::Relaxed);
        self.leaves_visited.store(0, Ordering::Relaxed);
    }

    fn touch(&self, is_leaf: bool) {
        self.nodes_visited.fetch_add(1, Ordering::Relaxed);
        if is_leaf {
            self.leaves_visited.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[derive(Clone)]
enum Node<V> {
    Leaf {
        entries: Vec<(TreeKey, V)>,
    },
    Internal {
        keys: Vec<TreeKey>,
        children: Vec<Arc<Node<V>>>,
    },
}

impl<V> Node<V> {
    fn is_leaf(&self) -> bool {
        matches!(self, Node::Leaf { .. })
    }

    fn len(&self) -> usize {
        match self {
            Node::Leaf { entries } => entries.len(),
            Node::Internal { children, .. } => children.len(),
        }
    }

    /// Smallest key in the subtree.
    fn min_key(&self) -> TreeKey {
        match self {
            Node::Leaf { entries } => entries[0].0,
            Node::Internal { children, .. } => children[0].min_key(),
        }
    }
}

/// A B+-tree mapping `(key, replica)` to values of type `V`.
///
/// A clone is an independent tree that shares every node with the original
/// until one of them changes it (used when a signed table stages an update
/// batch beside the served epoch); the visit counters are cloned at their
/// current values.
#[derive(Clone)]
pub struct BPlusTree<V> {
    root: Arc<Node<V>>,
    order: usize,
    len: usize,
    stats: TreeStats,
}

impl<V> fmt::Debug for BPlusTree<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "BPlusTree(len={}, order={}, height={})",
            self.len,
            self.order,
            self.height()
        )
    }
}

impl<V> Default for BPlusTree<V> {
    fn default() -> Self {
        Self::new(64)
    }
}

impl<V> BPlusTree<V> {
    /// Creates an empty tree with the given fanout (max entries per node).
    ///
    /// # Panics
    /// If `order < 4`.
    pub fn new(order: usize) -> Self {
        assert!(order >= 4, "B+-tree order must be at least 4");
        BPlusTree {
            root: Arc::new(Node::Leaf {
                entries: Vec::new(),
            }),
            order,
            len: 0,
            stats: TreeStats::default(),
        }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Node-visit statistics.
    pub fn stats(&self) -> &TreeStats {
        &self.stats
    }

    /// Height of the tree (1 for a lone leaf).
    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut node = &*self.root;
        while let Node::Internal { children, .. } = node {
            h += 1;
            node = &children[0];
        }
        h
    }

    /// Total node count (for memory accounting).
    pub fn node_count(&self) -> usize {
        fn count<V>(n: &Node<V>) -> usize {
            match n {
                Node::Leaf { .. } => 1,
                Node::Internal { children, .. } => {
                    1 + children.iter().map(|c| count(c)).sum::<usize>()
                }
            }
        }
        count(&self.root)
    }

    /// Looks up the value for `key`.
    pub fn get(&self, key: TreeKey) -> Option<&V> {
        let mut node = &*self.root;
        loop {
            self.stats.touch(node.is_leaf());
            match node {
                Node::Leaf { entries } => {
                    return entries
                        .binary_search_by_key(&key, |(k, _)| *k)
                        .ok()
                        .map(|i| &entries[i].1);
                }
                Node::Internal { keys, children } => {
                    let idx = keys.partition_point(|k| *k <= key);
                    node = &children[idx];
                }
            }
        }
    }
}

impl<V: Clone> BPlusTree<V> {
    /// Mutable lookup.
    pub fn get_mut(&mut self, key: TreeKey) -> Option<&mut V> {
        let stats = &self.stats;
        let mut node = Arc::make_mut(&mut self.root);
        loop {
            stats.touch(node.is_leaf());
            match node {
                Node::Leaf { entries } => {
                    return match entries.binary_search_by_key(&key, |(k, _)| *k) {
                        Ok(i) => Some(&mut entries[i].1),
                        Err(_) => None,
                    };
                }
                Node::Internal { keys, children } => {
                    let idx = keys.partition_point(|k| *k <= key);
                    node = Arc::make_mut(&mut children[idx]);
                }
            }
        }
    }

    /// Inserts `value` under `key`, returning the previous value if any.
    pub fn insert(&mut self, key: TreeKey, value: V) -> Option<V> {
        let order = self.order;
        let root = Arc::make_mut(&mut self.root);
        let (old, split) = Self::insert_rec(root, key, value, order, &self.stats);
        if let Some((sep, right)) = split {
            self.root = Arc::new(Node::Internal {
                keys: vec![sep],
                children: vec![Arc::clone(&self.root), Arc::new(right)],
            });
        }
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    fn insert_rec(
        node: &mut Node<V>,
        key: TreeKey,
        value: V,
        order: usize,
        stats: &TreeStats,
    ) -> (Option<V>, Option<(TreeKey, Node<V>)>) {
        stats.touch(node.is_leaf());
        match node {
            Node::Leaf { entries } => match entries.binary_search_by_key(&key, |(k, _)| *k) {
                Ok(i) => {
                    let old = std::mem::replace(&mut entries[i].1, value);
                    (Some(old), None)
                }
                Err(i) => {
                    entries.insert(i, (key, value));
                    if entries.len() > order {
                        let right = entries.split_off(entries.len() / 2);
                        let sep = right[0].0;
                        (None, Some((sep, Node::Leaf { entries: right })))
                    } else {
                        (None, None)
                    }
                }
            },
            Node::Internal { keys, children } => {
                let idx = keys.partition_point(|k| *k <= key);
                let child = Arc::make_mut(&mut children[idx]);
                let (old, split) = Self::insert_rec(child, key, value, order, stats);
                if let Some((sep, right)) = split {
                    keys.insert(idx, sep);
                    children.insert(idx + 1, Arc::new(right));
                    if children.len() > order {
                        let mid = children.len() / 2;
                        let right_children = children.split_off(mid);
                        let right_keys = keys.split_off(mid);
                        // keys has `mid` entries now; the separator promoted
                        // upward is the last of them.
                        let sep_up = keys.pop().expect("internal node has keys");
                        let right_node = Node::Internal {
                            keys: right_keys,
                            children: right_children,
                        };
                        return (old, Some((sep_up, right_node)));
                    }
                }
                (old, None)
            }
        }
    }

    /// Removes `key`, returning its value.
    pub fn remove(&mut self, key: TreeKey) -> Option<V> {
        let order = self.order;
        let removed = Self::remove_rec(Arc::make_mut(&mut self.root), key, order, &self.stats);
        if removed.is_some() {
            self.len -= 1;
        }
        // Collapse a root that lost all separators.
        let collapse = match &*self.root {
            Node::Internal { children, .. } if children.len() == 1 => {
                Some(Arc::clone(&children[0]))
            }
            _ => None,
        };
        if let Some(child) = collapse {
            self.root = child;
        }
        removed
    }

    fn remove_rec(node: &mut Node<V>, key: TreeKey, order: usize, stats: &TreeStats) -> Option<V> {
        stats.touch(node.is_leaf());
        match node {
            Node::Leaf { entries } => match entries.binary_search_by_key(&key, |(k, _)| *k) {
                Ok(i) => Some(entries.remove(i).1),
                Err(_) => None,
            },
            Node::Internal { keys, children } => {
                let idx = keys.partition_point(|k| *k <= key);
                let child = Arc::make_mut(&mut children[idx]);
                let removed = Self::remove_rec(child, key, order, stats);
                if removed.is_some() {
                    Self::rebalance_child(keys, children, idx, order, stats);
                }
                removed
            }
        }
    }

    /// Restores the minimum-occupancy invariant of `children[idx]` after a
    /// removal, by borrowing from or merging with a sibling.
    fn rebalance_child(
        keys: &mut Vec<TreeKey>,
        children: &mut Vec<Arc<Node<V>>>,
        idx: usize,
        order: usize,
        stats: &TreeStats,
    ) {
        let min = order / 2;
        if children[idx].len() >= min {
            return;
        }
        // Try borrowing from the left sibling.
        if idx > 0 && children[idx - 1].len() > min {
            stats.touch(children[idx - 1].is_leaf());
            let (left, right) = children.split_at_mut(idx);
            match (
                Arc::make_mut(&mut left[idx - 1]),
                Arc::make_mut(&mut right[0]),
            ) {
                (Node::Leaf { entries: le }, Node::Leaf { entries: re }) => {
                    let moved = le.pop().unwrap();
                    keys[idx - 1] = moved.0;
                    re.insert(0, moved);
                }
                (
                    Node::Internal {
                        keys: lk,
                        children: lc,
                    },
                    Node::Internal {
                        keys: rk,
                        children: rc,
                    },
                ) => {
                    let moved_child = lc.pop().unwrap();
                    let moved_key = lk.pop().unwrap();
                    rk.insert(0, keys[idx - 1]);
                    keys[idx - 1] = moved_key;
                    rc.insert(0, moved_child);
                }
                _ => unreachable!("siblings are at the same level"),
            }
            return;
        }
        // Try borrowing from the right sibling.
        if idx + 1 < children.len() && children[idx + 1].len() > min {
            stats.touch(children[idx + 1].is_leaf());
            let (left, right) = children.split_at_mut(idx + 1);
            match (Arc::make_mut(&mut left[idx]), Arc::make_mut(&mut right[0])) {
                (Node::Leaf { entries: le }, Node::Leaf { entries: re }) => {
                    let moved = re.remove(0);
                    le.push(moved);
                    keys[idx] = re[0].0;
                }
                (
                    Node::Internal {
                        keys: lk,
                        children: lc,
                    },
                    Node::Internal {
                        keys: rk,
                        children: rc,
                    },
                ) => {
                    lk.push(keys[idx]);
                    keys[idx] = rk.remove(0);
                    lc.push(rc.remove(0));
                }
                _ => unreachable!("siblings are at the same level"),
            }
            return;
        }
        // Merge with a sibling.
        let merge_left = if idx > 0 { idx - 1 } else { idx };
        let right_node = Arc::unwrap_or_clone(children.remove(merge_left + 1));
        let sep = keys.remove(merge_left);
        stats.touch(right_node.is_leaf());
        match (Arc::make_mut(&mut children[merge_left]), right_node) {
            (Node::Leaf { entries: le }, Node::Leaf { entries: re }) => {
                le.extend(re);
            }
            (
                Node::Internal {
                    keys: lk,
                    children: lc,
                },
                Node::Internal {
                    keys: rk,
                    children: rc,
                },
            ) => {
                lk.push(sep);
                lk.extend(rk);
                lc.extend(rc);
            }
            _ => unreachable!("siblings are at the same level"),
        }
    }
}

impl<V> BPlusTree<V> {
    /// Iterates entries with keys in the given bounds, in order, invoking
    /// `f` for each. Returns the number of entries visited.
    pub fn range_for_each(
        &self,
        lo: Bound<TreeKey>,
        hi: Bound<TreeKey>,
        mut f: impl FnMut(TreeKey, &V),
    ) -> usize {
        fn walk<V>(
            node: &Node<V>,
            lo: &Bound<TreeKey>,
            hi: &Bound<TreeKey>,
            stats: &TreeStats,
            f: &mut impl FnMut(TreeKey, &V),
            count: &mut usize,
        ) {
            stats.touch(node.is_leaf());
            match node {
                Node::Leaf { entries } => {
                    for (k, v) in entries {
                        let above_lo = match lo {
                            Bound::Unbounded => true,
                            Bound::Included(a) => k >= a,
                            Bound::Excluded(a) => k > a,
                        };
                        let below_hi = match hi {
                            Bound::Unbounded => true,
                            Bound::Included(b) => k <= b,
                            Bound::Excluded(b) => k < b,
                        };
                        if above_lo && below_hi {
                            f(*k, v);
                            *count += 1;
                        }
                    }
                }
                Node::Internal { keys, children } => {
                    let start = match lo {
                        Bound::Unbounded => 0,
                        Bound::Included(a) | Bound::Excluded(a) => keys.partition_point(|k| k <= a),
                    };
                    let end = match hi {
                        Bound::Unbounded => children.len() - 1,
                        Bound::Included(b) | Bound::Excluded(b) => keys.partition_point(|k| k <= b),
                    };
                    for child in &children[start..=end] {
                        walk(child, lo, hi, stats, f, count);
                    }
                }
            }
        }
        let mut count = 0;
        walk(&self.root, &lo, &hi, &self.stats, &mut f, &mut count);
        count
    }

    /// Collects the key range into a vector (convenience for tests).
    pub fn range_keys(&self, lo: Bound<TreeKey>, hi: Bound<TreeKey>) -> Vec<TreeKey> {
        let mut out = Vec::new();
        self.range_for_each(lo, hi, |k, _| out.push(k));
        out
    }

    /// Identifies the leaf containing `key` by the smallest key stored in
    /// that leaf (a stable id as long as the leaf is not restructured).
    /// Used by the update-locality benchmark to show that re-signing a
    /// record and its neighbours touches at most two adjacent leaves.
    pub fn leaf_id_of(&self, key: TreeKey) -> Option<TreeKey> {
        let mut node = &*self.root;
        loop {
            self.stats.touch(node.is_leaf());
            match node {
                Node::Leaf { entries } => {
                    return if entries.binary_search_by_key(&key, |(k, _)| *k).is_ok() {
                        Some(entries[0].0)
                    } else {
                        None
                    };
                }
                Node::Internal { keys, children } => {
                    let idx = keys.partition_point(|k| *k <= key);
                    node = &children[idx];
                }
            }
        }
    }

    /// Checks structural invariants (sortedness, occupancy, separator
    /// consistency). Test helper; `O(n)`.
    pub fn check_invariants(&self) {
        fn check<V>(
            node: &Node<V>,
            order: usize,
            is_root: bool,
            depth: usize,
            leaf_depth: &mut Option<usize>,
        ) {
            match node {
                Node::Leaf { entries } => {
                    assert!(entries.windows(2).all(|w| w[0].0 < w[1].0), "leaf sorted");
                    match leaf_depth {
                        None => *leaf_depth = Some(depth),
                        Some(d) => assert_eq!(*d, depth, "all leaves at same depth"),
                    }
                    if !is_root {
                        assert!(entries.len() >= order / 2, "leaf occupancy");
                    }
                    assert!(entries.len() <= order, "leaf overflow");
                }
                Node::Internal { keys, children } => {
                    assert_eq!(keys.len() + 1, children.len(), "separator count");
                    assert!(keys.windows(2).all(|w| w[0] < w[1]), "separators sorted");
                    if !is_root {
                        assert!(children.len() >= order / 2, "internal occupancy");
                    }
                    assert!(children.len() <= order, "internal overflow");
                    for (i, sep) in keys.iter().enumerate() {
                        assert!(children[i + 1].min_key() >= *sep, "separator bound");
                    }
                    for c in children {
                        check(c, order, false, depth + 1, leaf_depth);
                    }
                }
            }
        }
        let mut leaf_depth = None;
        check(&self.root, self.order, true, 0, &mut leaf_depth);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{seq::SliceRandom, Rng, SeedableRng};

    #[test]
    fn insert_get_roundtrip() {
        let mut t = BPlusTree::new(4);
        for i in 0..100i64 {
            assert!(t.insert((i, 0), i * 10).is_none());
        }
        assert_eq!(t.len(), 100);
        for i in 0..100i64 {
            assert_eq!(t.get((i, 0)), Some(&(i * 10)));
        }
        assert_eq!(t.get((200, 0)), None);
        t.check_invariants();
    }

    #[test]
    fn insert_replaces() {
        let mut t = BPlusTree::new(4);
        assert_eq!(t.insert((1, 0), "a"), None);
        assert_eq!(t.insert((1, 0), "b"), Some("a"));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get((1, 0)), Some(&"b"));
    }

    #[test]
    fn replica_keys_are_distinct() {
        let mut t = BPlusTree::new(4);
        t.insert((5, 0), "first");
        t.insert((5, 1), "second");
        assert_eq!(t.len(), 2);
        assert_eq!(t.get((5, 0)), Some(&"first"));
        assert_eq!(t.get((5, 1)), Some(&"second"));
    }

    #[test]
    fn random_inserts_maintain_invariants() {
        let mut rng = StdRng::seed_from_u64(42);
        for order in [4usize, 8, 64] {
            let mut t = BPlusTree::new(order);
            let mut keys: Vec<i64> = (0..500).collect();
            keys.shuffle(&mut rng);
            for k in &keys {
                t.insert((*k, 0), *k);
                if k % 97 == 0 {
                    t.check_invariants();
                }
            }
            t.check_invariants();
            assert_eq!(t.len(), 500);
            let all = t.range_keys(Bound::Unbounded, Bound::Unbounded);
            assert!(all.windows(2).all(|w| w[0] < w[1]));
            assert_eq!(all.len(), 500);
        }
    }

    #[test]
    fn range_bounds() {
        let mut t = BPlusTree::new(4);
        for i in 0..20i64 {
            t.insert((i, 0), ());
        }
        assert_eq!(
            t.range_keys(Bound::Included((5, 0)), Bound::Excluded((8, 0))),
            vec![(5, 0), (6, 0), (7, 0)]
        );
        assert_eq!(
            t.range_keys(Bound::Excluded((17, 0)), Bound::Unbounded),
            vec![(18, 0), (19, 0)]
        );
        assert_eq!(
            t.range_keys(Bound::Included((50, 0)), Bound::Unbounded),
            vec![]
        );
    }

    #[test]
    fn removal_with_rebalance() {
        let mut rng = StdRng::seed_from_u64(7);
        for order in [4usize, 8] {
            let mut t = BPlusTree::new(order);
            let n = 300i64;
            for i in 0..n {
                t.insert((i, 0), i);
            }
            let mut keys: Vec<i64> = (0..n).collect();
            keys.shuffle(&mut rng);
            for (step, k) in keys.iter().enumerate() {
                assert_eq!(t.remove((*k, 0)), Some(*k), "order {order}");
                if step % 31 == 0 {
                    t.check_invariants();
                }
            }
            assert!(t.is_empty());
            t.check_invariants();
        }
    }

    #[test]
    fn remove_missing_returns_none() {
        let mut t: BPlusTree<()> = BPlusTree::new(4);
        t.insert((1, 0), ());
        assert_eq!(t.remove((2, 0)), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn mixed_workload_matches_btreemap() {
        use std::collections::BTreeMap;
        let mut rng = StdRng::seed_from_u64(99);
        let mut t = BPlusTree::new(6);
        let mut model: BTreeMap<TreeKey, u64> = BTreeMap::new();
        for _ in 0..3000 {
            let key = (rng.gen_range(0..200i64), rng.gen_range(0..3u32));
            match rng.gen_range(0..3) {
                0 => {
                    let v = rng.gen::<u64>();
                    assert_eq!(t.insert(key, v), model.insert(key, v));
                }
                1 => {
                    assert_eq!(t.remove(key), model.remove(&key));
                }
                _ => {
                    assert_eq!(t.get(key), model.get(&key));
                }
            }
        }
        t.check_invariants();
        assert_eq!(t.len(), model.len());
        let got = t.range_keys(Bound::Unbounded, Bound::Unbounded);
        let want: Vec<TreeKey> = model.keys().copied().collect();
        assert_eq!(got, want);
    }

    #[test]
    fn get_mut_updates() {
        let mut t = BPlusTree::new(4);
        t.insert((1, 0), 10);
        *t.get_mut((1, 0)).unwrap() = 20;
        assert_eq!(t.get((1, 0)), Some(&20));
        assert_eq!(t.get_mut((9, 9)), None);
    }

    #[test]
    fn stats_count_node_visits() {
        let mut t = BPlusTree::new(4);
        for i in 0..100i64 {
            t.insert((i, 0), ());
        }
        t.stats().reset();
        let _ = t.get((50, 0));
        let visited = t.stats().nodes_visited();
        assert!(visited as usize <= t.height());
        assert!(visited >= 2);
        assert_eq!(t.stats().leaves_visited(), 1);
    }

    #[test]
    fn neighbour_updates_stay_leaf_local() {
        // The Section 6.3 claim: three adjacent records live in at most two
        // adjacent leaves.
        let mut t = BPlusTree::new(16);
        for i in 0..1000i64 {
            t.insert((i, 0), ());
        }
        for mid in 1..999i64 {
            let ids: Vec<_> = [(mid - 1, 0), (mid, 0), (mid + 1, 0)]
                .iter()
                .filter_map(|k| t.leaf_id_of(*k))
                .collect();
            let mut distinct = ids.clone();
            distinct.dedup();
            assert!(
                distinct.len() <= 2,
                "three neighbours span {} leaves",
                distinct.len()
            );
        }
    }

    #[test]
    fn clone_is_isolated_and_costs_the_same_visits() {
        // A clone shares nodes with the original; mutating the clone must
        // leave the original's content alone, and sharing must not change
        // what an operation visits (the Section 6.3 cells count visits).
        let build = || {
            let mut t = BPlusTree::new(4);
            for i in 0..300i64 {
                t.insert((i * 2, 0), i);
            }
            t
        };
        let dump = |t: &BPlusTree<i64>| {
            let mut out = Vec::new();
            t.range_for_each(Bound::Unbounded, Bound::Unbounded, |k, v| out.push((k, *v)));
            out
        };
        let edits = |t: &mut BPlusTree<i64>| {
            let mut visits = Vec::new();
            let mut step = |t: &mut BPlusTree<i64>, f: &dyn Fn(&mut BPlusTree<i64>)| {
                t.stats().reset();
                f(t);
                visits.push((t.stats().nodes_visited(), t.stats().leaves_visited()));
            };
            for i in 0..120i64 {
                step(t, &|t| {
                    t.insert((i * 5 + 1, 0), -i);
                });
                step(t, &|t| {
                    t.remove((i * 4, 0));
                });
                step(t, &|t| {
                    if let Some(v) = t.get_mut((i * 6 + 2, 0)) {
                        *v += 1;
                    }
                });
            }
            visits
        };

        let original = build();
        let before = dump(&original);
        let mut copy = original.clone();
        let shared_visits = edits(&mut copy);
        copy.check_invariants();
        assert_eq!(dump(&original), before, "the original moved");
        assert_eq!(original.len(), 300);
        original.check_invariants();
        assert_ne!(dump(&copy), before);

        // The same edits on a tree nobody shares: same visits, same result.
        let mut alone = build();
        assert_eq!(edits(&mut alone), shared_visits);
        assert_eq!(dump(&alone), dump(&copy));
        assert_eq!(alone.len(), copy.len());
    }

    #[test]
    fn height_and_node_count_grow_sublinearly() {
        let mut t = BPlusTree::new(64);
        for i in 0..10_000i64 {
            t.insert((i, 0), ());
        }
        assert!(t.height() <= 4);
        assert!(t.node_count() < 1000);
    }
}
