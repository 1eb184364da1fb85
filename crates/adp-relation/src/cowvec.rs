//! A copy-on-write sequence: positional access like a `Vec`, but cloning is
//! `O(1)` and a clone shares every node a later mutation does not touch.
//!
//! A served signed table is swapped in epoch by epoch: a batch of `k`
//! mutations is staged on a copy while readers keep answering from the
//! previous one. With a `Vec` that copy costs the whole table; here the
//! elements sit in the leaves of a counted tree whose nodes are reference
//! counted, an insert, removal or in-place change copies only the nodes on
//! its root path (`Arc::make_mut`), and dropping the older copy frees only
//! what the newer one replaced.
//!
//! Node occupancy is a performance matter, not an invariant anything relies
//! on: removal merges a node that fell under half full into a sibling when
//! the two fit in one node, and otherwise leaves it.

use std::fmt;
use std::ops::{Index, IndexMut, Range};
use std::sync::Arc;

/// Most elements in a leaf, and most children of an inner node.
const MAX: usize = 64;

/// What a bulk load fills a node to, leaving room for inserts.
const FILL: usize = MAX / 4 * 3;

#[derive(Clone)]
enum Node<T> {
    Leaf(Vec<T>),
    Inner {
        /// `ends[i]` = number of elements under `kids[..=i]`.
        ends: Vec<usize>,
        kids: Vec<Arc<Node<T>>>,
    },
}

impl<T> Node<T> {
    /// Elements under this node.
    fn len(&self) -> usize {
        match self {
            Node::Leaf(items) => items.len(),
            Node::Inner { ends, .. } => ends.last().copied().unwrap_or(0),
        }
    }

    /// Direct children (elements of a leaf, kids of an inner node).
    fn slots(&self) -> usize {
        match self {
            Node::Leaf(items) => items.len(),
            Node::Inner { kids, .. } => kids.len(),
        }
    }

    /// The last element under this node.
    fn last(&self) -> Option<&T> {
        match self {
            Node::Leaf(items) => items.last(),
            Node::Inner { kids, .. } => kids.last()?.last(),
        }
    }

    fn inner(kids: Vec<Arc<Node<T>>>) -> Node<T> {
        let mut total = 0;
        let ends = kids
            .iter()
            .map(|k| {
                total += k.len();
                total
            })
            .collect();
        Node::Inner { ends, kids }
    }
}

/// Which kid of an inner node holds element `pos`, and the position of
/// that kid's first element.
fn locate(ends: &[usize], pos: usize) -> (usize, usize) {
    let i = ends.partition_point(|&e| e <= pos);
    (i, if i == 0 { 0 } else { ends[i - 1] })
}

impl<T: Clone> Node<T> {
    /// Inserts below this node; a node that overflowed hands back its
    /// split-off right half.
    fn insert(&mut self, pos: usize, value: T) -> Option<Node<T>> {
        match self {
            Node::Leaf(items) => {
                items.insert(pos, value);
                (items.len() > MAX).then(|| Node::Leaf(items.split_off(items.len() / 2)))
            }
            Node::Inner { ends, kids } => {
                // `pos == len` appends to the last kid. (An inner node is
                // never empty: `remove` drops empty kids and collapses the
                // root.)
                let (i, base) = locate(ends, pos.min(ends[ends.len() - 1] - 1));
                let split = Arc::make_mut(&mut kids[i]).insert(pos - base, value);
                for e in &mut ends[i..] {
                    *e += 1;
                }
                if let Some(right) = split {
                    ends.insert(i, base + kids[i].len());
                    kids.insert(i + 1, Arc::new(right));
                }
                (kids.len() > MAX).then(|| {
                    let right = kids.split_off(kids.len() / 2);
                    ends.truncate(kids.len());
                    Node::inner(right)
                })
            }
        }
    }

    fn remove(&mut self, pos: usize) -> T {
        match self {
            Node::Leaf(items) => items.remove(pos),
            Node::Inner { ends, kids } => {
                let (i, base) = locate(ends, pos);
                let removed = Arc::make_mut(&mut kids[i]).remove(pos - base);
                for e in &mut ends[i..] {
                    *e -= 1;
                }
                if kids[i].slots() == 0 {
                    kids.remove(i);
                    ends.remove(i);
                } else if kids[i].slots() < MAX / 2 {
                    // Merge into whichever neighbour leaves room.
                    let fits = |a: usize| {
                        a + 1 < kids.len() && kids[a].slots() + kids[a + 1].slots() <= MAX
                    };
                    let left = if fits(i) {
                        Some(i)
                    } else {
                        i.checked_sub(1).filter(|&a| fits(a))
                    };
                    if let Some(a) = left {
                        let right = Arc::unwrap_or_clone(kids.remove(a + 1));
                        ends.remove(a);
                        Arc::make_mut(&mut kids[a]).absorb(right);
                    }
                }
                removed
            }
        }
    }

    /// Appends a right sibling's content to this node.
    fn absorb(&mut self, right: Node<T>) {
        match (self, right) {
            (Node::Leaf(items), Node::Leaf(more)) => items.extend(more),
            (
                Node::Inner { ends, kids },
                Node::Inner {
                    ends: more_ends,
                    kids: more_kids,
                },
            ) => {
                let base = ends.last().copied().unwrap_or(0);
                ends.extend(more_ends.into_iter().map(|e| base + e));
                kids.extend(more_kids);
            }
            _ => unreachable!("siblings are at the same level"),
        }
    }

    fn get_mut(&mut self, pos: usize) -> &mut T {
        match self {
            Node::Leaf(items) => &mut items[pos],
            Node::Inner { ends, kids } => {
                let (i, base) = locate(ends, pos);
                Arc::make_mut(&mut kids[i]).get_mut(pos - base)
            }
        }
    }
}

/// A sequence with `Vec`-like positional access whose clones share
/// structure (see the module docs). `insert`, `remove` and `IndexMut` cost
/// `O(log n)` and copy one root path when the sequence is shared.
pub struct CowVec<T> {
    root: Arc<Node<T>>,
}

impl<T> Clone for CowVec<T> {
    fn clone(&self) -> Self {
        CowVec {
            root: Arc::clone(&self.root),
        }
    }
}

impl<T> Default for CowVec<T> {
    fn default() -> Self {
        CowVec {
            root: Arc::new(Node::Leaf(Vec::new())),
        }
    }
}

impl<T> CowVec<T> {
    /// An empty sequence.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.root.len()
    }

    /// True iff the sequence has no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The leaf holding element `pos` and the element's offset in it.
    ///
    /// # Panics
    /// If `pos >= len`.
    fn leaf_at(&self, mut pos: usize) -> (&[T], usize) {
        assert!(pos < self.len(), "position {pos} out of bounds");
        let mut node = &*self.root;
        loop {
            match node {
                Node::Leaf(items) => return (items, pos),
                Node::Inner { ends, kids } => {
                    let (i, base) = locate(ends, pos);
                    pos -= base;
                    node = &kids[i];
                }
            }
        }
    }

    /// The elements at positions `range`, in order.
    ///
    /// # Panics
    /// If the range reaches past the end.
    pub fn range(&self, range: Range<usize>) -> Iter<'_, T> {
        assert!(range.end <= self.len(), "range end out of bounds");
        Iter {
            seq: self,
            pos: range.start,
            end: range.end.max(range.start),
            leaf: [].iter(),
        }
    }

    /// All elements, in order.
    pub fn iter(&self) -> Iter<'_, T> {
        self.range(0..self.len())
    }

    /// Position of the first element for which `pred` is false, for a
    /// sequence partitioned by `pred` (as `slice::partition_point`). One
    /// descent: an inner node picks the first kid whose last element fails
    /// `pred`, the leaf it ends in is searched as a slice.
    pub fn partition_point(&self, mut pred: impl FnMut(&T) -> bool) -> usize {
        let mut node = &*self.root;
        let mut base = 0;
        loop {
            match node {
                Node::Leaf(items) => return base + items.partition_point(&mut pred),
                Node::Inner { ends, kids } => {
                    let i = kids.partition_point(|kid| kid.last().is_some_and(&mut pred));
                    if i == kids.len() {
                        return base + node.len();
                    }
                    base += if i == 0 { 0 } else { ends[i - 1] };
                    node = &kids[i];
                }
            }
        }
    }
}

impl<T: Clone> CowVec<T> {
    /// Inserts `value` at `pos`, shifting later elements right.
    ///
    /// # Panics
    /// If `pos > len`.
    pub fn insert(&mut self, pos: usize, value: T) {
        assert!(pos <= self.len(), "insert position {pos} out of bounds");
        if let Some(right) = Arc::make_mut(&mut self.root).insert(pos, value) {
            let left = std::mem::replace(&mut self.root, Arc::new(Node::Leaf(Vec::new())));
            self.root = Arc::new(Node::inner(vec![left, Arc::new(right)]));
        }
    }

    /// Removes and returns the element at `pos`, shifting later ones left.
    ///
    /// # Panics
    /// If `pos >= len`.
    pub fn remove(&mut self, pos: usize) -> T {
        assert!(pos < self.len(), "remove position {pos} out of bounds");
        let removed = Arc::make_mut(&mut self.root).remove(pos);
        // A root left with a single kid (or none) loses a level.
        loop {
            let only = match &*self.root {
                Node::Inner { kids, .. } if kids.len() == 1 => Arc::clone(&kids[0]),
                Node::Inner { kids, .. } if kids.is_empty() => Arc::new(Node::Leaf(Vec::new())),
                _ => break,
            };
            self.root = only;
        }
        removed
    }
}

impl<T> From<Vec<T>> for CowVec<T> {
    /// Bulk load: nodes are filled to three quarters.
    fn from(items: Vec<T>) -> Self {
        let mut items = items.into_iter();
        let mut level: Vec<Arc<Node<T>>> = Vec::new();
        loop {
            let leaf: Vec<T> = items.by_ref().take(FILL).collect();
            if leaf.is_empty() {
                break;
            }
            level.push(Arc::new(Node::Leaf(leaf)));
        }
        while level.len() > 1 {
            let mut kids = level.into_iter();
            level = Vec::new();
            loop {
                let group: Vec<Arc<Node<T>>> = kids.by_ref().take(FILL).collect();
                if group.is_empty() {
                    break;
                }
                level.push(Arc::new(Node::inner(group)));
            }
        }
        level
            .pop()
            .map_or_else(CowVec::default, |root| CowVec { root })
    }
}

impl<T> Index<usize> for CowVec<T> {
    type Output = T;

    fn index(&self, pos: usize) -> &T {
        let (leaf, off) = self.leaf_at(pos);
        &leaf[off]
    }
}

impl<T: Clone> IndexMut<usize> for CowVec<T> {
    fn index_mut(&mut self, pos: usize) -> &mut T {
        assert!(pos < self.len(), "position {pos} out of bounds");
        Arc::make_mut(&mut self.root).get_mut(pos)
    }
}

impl<T: fmt::Debug> fmt::Debug for CowVec<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Iterator over a position range of a [`CowVec`], leaf by leaf.
pub struct Iter<'a, T> {
    seq: &'a CowVec<T>,
    /// Position of the next element not yet handed to `leaf`.
    pos: usize,
    end: usize,
    leaf: std::slice::Iter<'a, T>,
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        loop {
            if let Some(item) = self.leaf.next() {
                return Some(item);
            }
            if self.pos >= self.end {
                return None;
            }
            let (leaf, off) = self.seq.leaf_at(self.pos);
            let take = (leaf.len() - off).min(self.end - self.pos);
            self.leaf = leaf[off..off + take].iter();
            self.pos += take;
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.leaf.len() + (self.end - self.pos);
        (left, Some(left))
    }
}

impl<T> ExactSizeIterator for Iter<'_, T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn seq_of(items: impl Iterator<Item = u32>) -> CowVec<u32> {
        CowVec::from(items.collect::<Vec<u32>>())
    }

    /// Checks what the lookups rely on: `ends` are the running totals of
    /// the kids, no kid is empty, all leaves sit at one depth.
    fn check<T>(seq: &CowVec<T>) {
        fn walk<T>(node: &Node<T>, depth: usize, leaf_depth: &mut Option<usize>) {
            match node {
                Node::Leaf(items) => {
                    assert!(items.len() <= MAX);
                    assert_eq!(*leaf_depth.get_or_insert(depth), depth);
                }
                Node::Inner { ends, kids } => {
                    assert!(!kids.is_empty() && kids.len() <= MAX);
                    assert_eq!(ends.len(), kids.len());
                    let mut total = 0;
                    for (end, kid) in ends.iter().zip(kids) {
                        assert!(kid.len() > 0, "empty kid");
                        total += kid.len();
                        assert_eq!(*end, total);
                        walk(kid, depth + 1, leaf_depth);
                    }
                }
            }
        }
        walk(&seq.root, 0, &mut None);
    }

    #[test]
    fn matches_vec_under_random_edits() {
        let mut rng = StdRng::seed_from_u64(0xC0);
        let mut model: Vec<u32> = (0..5_000).collect();
        let mut seq = seq_of(model.iter().copied());
        check(&seq);
        for step in 0..30_000u32 {
            // Shrink in the second half, down to empty and back up a bit.
            let grow = if step < 12_000 { 6 } else { 3 };
            match rng.gen_range(0..10) {
                k if k < grow || model.is_empty() => {
                    let pos = rng.gen_range(0..=model.len());
                    model.insert(pos, step);
                    seq.insert(pos, step);
                }
                9 => {
                    let pos = rng.gen_range(0..model.len());
                    model[pos] = step;
                    seq[pos] = step;
                }
                _ => {
                    let pos = rng.gen_range(0..model.len());
                    assert_eq!(seq.remove(pos), model.remove(pos));
                }
            }
            if step % 997 == 0 {
                check(&seq);
                assert!(seq.iter().eq(model.iter()));
            }
        }
        while let Some(last) = model.pop() {
            assert_eq!(seq.remove(model.len()), last);
        }
        check(&seq);
        assert!(seq.is_empty());
        seq.insert(0, 7);
        assert_eq!(seq[0], 7);
    }

    #[test]
    fn clones_are_isolated_and_share_untouched_leaves() {
        let base = seq_of(0..10_000);
        let mut copy = base.clone();
        copy.insert(5_000, 99);
        copy.remove(0);
        copy[9_000] = 1;
        assert!(base.iter().copied().eq(0..10_000), "original unchanged");
        assert_eq!(copy.len(), 10_000);
        assert_eq!(copy[4_999], 99);
        // The first leaves differ (removal), a far-away leaf is the same
        // allocation.
        let leaf = |s: &CowVec<u32>, pos| s.leaf_at(pos).0.as_ptr();
        assert_ne!(leaf(&base, 0), leaf(&copy, 0));
        assert_eq!(leaf(&base, 2_000), leaf(&copy, 1_999));
    }

    #[test]
    fn ranges_and_partition_point() {
        let seq = seq_of((0..1_000).map(|i| i * 2));
        assert!(seq.range(100..300).copied().eq((100..300).map(|i| i * 2)));
        assert_eq!(seq.range(40..40).len(), 0);
        assert_eq!(seq.range(990..1_000).len(), 10);
        assert_eq!(seq.partition_point(|&v| v < 501), 251);
        assert_eq!(seq.partition_point(|_| true), 1_000);
        assert_eq!(seq.partition_point(|_| false), 0);
        assert_eq!(CowVec::<u32>::new().partition_point(|_| true), 0);
        // Every cut of a three-level tree, leaf and node boundaries included.
        let deep = seq_of(0..5_000);
        for cut in 0..=5_000 {
            assert_eq!(deep.partition_point(|&v| v < cut), cut as usize);
        }
        assert_eq!(format!("{:?}", seq_of(1..4)), "[1, 2, 3]");
    }

    #[test]
    fn removals_keep_the_tree_compact() {
        // Delete all but every 50th element: without merging that would
        // leave a leaf per survivor.
        let mut seq = seq_of(0..20_000);
        for pos in (0..20_000).rev() {
            if pos % 50 != 0 {
                seq.remove(pos);
            }
        }
        check(&seq);
        assert_eq!(seq.len(), 400);
        fn leaves<T>(node: &Node<T>) -> usize {
            match node {
                Node::Leaf(_) => 1,
                Node::Inner { kids, .. } => kids.iter().map(|k| leaves(k)).sum(),
            }
        }
        assert!(leaves(&seq.root) <= 2 * 400 / (MAX / 2) + 1);
    }
}
