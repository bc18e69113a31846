//! Finger B-tree aggregator (FiBA) window state.
//!
//! An order-maintaining B-tree over `(timestamp, seq)` keys whose nodes cache
//! the combined partial aggregate, entry count, and key range of their
//! subtree. Two *finger* pointers (leftmost / rightmost leaf) make the common
//! insert positions — appends at the front of eviction or the back of arrival
//! — reachable without a full root descent: an insert climbs from the nearer
//! finger only as far as the first ancestor whose cached key range covers the
//! new key, then descends. For an insertion at distance `d` from the nearest
//! end the search walks `O(log d)` levels (Tangwongsan/Hirzel/Schneider,
//! arXiv 1810.11308); cache repair is an eager `O(log n)` walk back to the
//! root, trading the paper's lazy up-spine scheme for a simpler structure —
//! what the tree eliminates is a sorted vector's `O(n)` per-straggler data
//! movement, not the logarithmic repair.
//!
//! Window slides use [`FibaTree::evict_before`], the bulk eviction of the
//! FiBA sequel (arXiv 2307.11210) adapted to this layout: whole subtrees left
//! of the cut are freed without visiting their entries, and the relaxed
//! invariant allows underfull nodes *only on the leftmost spine* — exactly
//! the region a prefix eviction can thin out.
//!
//! Subtree counts double as an order-statistic index: a tree keyed by the
//! order-preserving bit image of an `f64` ([`f64_to_ordered`]) supports
//! `select(k)` in `O(log n)`, which is how Median/Quantile windows avoid a
//! sorted `Vec`'s `O(n)` memmove per out-of-order insert. See `DESIGN.md` §17.

use serde::{Deserialize, Serialize};

/// The window-state backend. FiBA is the only one: this one-variant enum and
/// the no-op builder on `WindowAggregateOp` that takes it survive only
/// because the `quill-e2e` benchmark (`benchmark/src/layers.rs`) names them,
/// and a change may not edit the benchmark it is judged by. DESIGN.md §17
/// records the measured decision.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum WindowState {
    /// Finger B-tree aggregator state (this module).
    #[default]
    Fiba,
}

/// Composite tree key: `(timestamp, seq)` for event-time trees, or
/// `(ordered f64 bits, disambiguator)` for value-indexed trees.
pub type FibaKey = (u64, u64);

/// A partial aggregate stored at tree entries and combined into node caches.
///
/// `combine` must be associative over key order: the tree always combines a
/// subtree's partials left-to-right, so `later` covers keys sorting after
/// everything already in `self`.
pub trait FibaItem: Clone {
    /// Fold `later` (covering strictly later keys) into `self`.
    fn combine(&mut self, later: &Self);

    /// Overwrite `self` with `src`, reusing existing buffers where possible
    /// (the cache-repair path calls this once per level per insert).
    fn assign_from(&mut self, src: &Self) {
        self.clone_from(src);
    }
}

/// Unit item for trees used purely as order-statistic indexes.
impl FibaItem for () {
    fn combine(&mut self, _later: &Self) {}
}

/// Map an `f64` to a `u64` whose unsigned order equals `f64::total_cmp`
/// order (sign-magnitude flip). Bijective, so NaN payloads and `-0.0` round
/// trip exactly through [`ordered_to_f64`].
#[inline]
pub fn f64_to_ordered(x: f64) -> u64 {
    let b = x.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

/// Inverse of [`f64_to_ordered`].
#[inline]
pub fn ordered_to_f64(u: u64) -> f64 {
    let b = if u >> 63 == 1 { u & !(1 << 63) } else { !u };
    f64::from_bits(b)
}

/// Minimum entries (leaf) / children (internal) for nodes *off* the leftmost
/// spine; the spine may run underfull after bulk evictions.
const MIN_FANOUT: usize = 4;
/// Nodes split once they exceed this many entries/children.
const MAX_FANOUT: usize = 2 * MIN_FANOUT;

const NIL: u32 = u32::MAX;

struct Node<I> {
    parent: u32,
    /// Leaf: sorted entry keys. Internal: empty (children route by range).
    keys: Vec<FibaKey>,
    /// Leaf: per-entry items, parallel to `keys`.
    items: Vec<I>,
    /// Internal: child node indices in key order. Empty for leaves.
    children: Vec<u32>,
    /// Entries in this subtree.
    count: u64,
    /// Combined items of this subtree in key order (`None` iff empty).
    agg: Option<I>,
    /// Smallest key in this subtree (valid when `count > 0`).
    lo: FibaKey,
    /// Largest key in this subtree (valid when `count > 0`).
    hi: FibaKey,
}

impl<I> Node<I> {
    fn new_leaf(parent: u32) -> Node<I> {
        Node {
            parent,
            keys: Vec::new(),
            items: Vec::new(),
            children: Vec::new(),
            count: 0,
            agg: None,
            lo: (0, 0),
            hi: (0, 0),
        }
    }

    #[inline]
    fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }
}

/// Counters exposed for benchmarks and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FibaStats {
    /// Inserts whose finger climb stopped below the root.
    pub finger_short_climbs: u64,
    /// Inserts that climbed all the way to the root.
    pub root_climbs: u64,
    /// Node splits performed.
    pub splits: u64,
    /// Entries removed by `evict_before` (bulk, without per-entry visits
    /// for whole subtrees).
    pub evicted: u64,
}

/// A finger B-tree aggregator: ordered map from [`FibaKey`] to partial
/// aggregates with cached subtree combines, counts, and key ranges.
pub struct FibaTree<I: FibaItem> {
    nodes: Vec<Node<I>>,
    free: Vec<u32>,
    root: u32,
    /// Leftmost leaf.
    left_finger: u32,
    /// Rightmost leaf.
    right_finger: u32,
    len: u64,
    stats: FibaStats,
}

impl<I: FibaItem> Default for FibaTree<I> {
    fn default() -> Self {
        Self::new()
    }
}

impl<I: FibaItem> FibaTree<I> {
    /// An empty tree.
    pub fn new() -> FibaTree<I> {
        let root = Node::new_leaf(NIL);
        FibaTree {
            nodes: vec![root],
            free: Vec::new(),
            root: 0,
            left_finger: 0,
            right_finger: 0,
            len: 0,
            stats: FibaStats::default(),
        }
    }

    /// Total entries.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Operation counters.
    pub fn stats(&self) -> FibaStats {
        self.stats
    }

    /// Smallest key, if any.
    pub fn min_key(&self) -> Option<FibaKey> {
        (self.len > 0).then(|| self.nodes[self.root as usize].lo)
    }

    /// Largest key, if any.
    pub fn max_key(&self) -> Option<FibaKey> {
        (self.len > 0).then(|| self.nodes[self.root as usize].hi)
    }

    /// Height of the tree (levels of nodes; 1 for a lone leaf).
    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut cur = self.root;
        while !self.nodes[cur as usize].is_leaf() {
            cur = self.nodes[cur as usize].children[0];
            h += 1;
        }
        h
    }

    fn alloc(&mut self, node: Node<I>) -> u32 {
        match self.free.pop() {
            Some(i) => {
                self.nodes[i as usize] = node;
                i
            }
            None => {
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            }
        }
    }

    /// Recompute `count`, `agg`, `lo`, `hi` of `n` from its entries or
    /// children. Reuses the existing aggregate buffer via
    /// [`FibaItem::assign_from`].
    fn recompute(&mut self, n: u32) {
        let mut agg = self.nodes[n as usize].agg.take();
        let node = &self.nodes[n as usize];
        if node.is_leaf() {
            let count = node.keys.len() as u64;
            let (lo, hi) = if count > 0 {
                (node.keys[0], *node.keys.last().expect("nonempty"))
            } else {
                ((0, 0), (0, 0))
            };
            let mut first = true;
            for i in 0..self.nodes[n as usize].items.len() {
                // Split the borrow: the accumulator is a local, the source
                // item lives in the arena.
                let (acc, src) = (&mut agg, &self.nodes[n as usize].items[i]);
                if first {
                    match acc {
                        Some(a) => a.assign_from(src),
                        // quill-lint: allow(hot-path-alloc, reason = "one-time aggregate buffer allocation when a node first gains entries; reused via assign_from afterwards")
                        None => *acc = Some(src.clone()),
                    }
                    first = false;
                } else {
                    acc.as_mut().expect("seeded above").combine(src);
                }
            }
            if first {
                agg = None;
            }
            let node = &mut self.nodes[n as usize];
            node.count = count;
            node.lo = lo;
            node.hi = hi;
            node.agg = agg;
        } else {
            let children = self.nodes[n as usize].children.clone();
            let mut count = 0u64;
            let mut lo = (0, 0);
            let mut hi = (0, 0);
            let mut first = true;
            for &c in &children {
                let child_count = self.nodes[c as usize].count;
                if child_count == 0 {
                    continue;
                }
                count += child_count;
                if first {
                    lo = self.nodes[c as usize].lo;
                }
                hi = self.nodes[c as usize].hi;
                let (acc, src) = (&mut agg, &self.nodes[c as usize].agg);
                let src = src.as_ref().expect("nonempty child has an aggregate");
                if first {
                    match acc {
                        Some(a) => a.assign_from(src),
                        // quill-lint: allow(hot-path-alloc, reason = "one-time aggregate buffer allocation when a node first gains entries; reused via assign_from afterwards")
                        None => *acc = Some(src.clone()),
                    }
                    first = false;
                } else {
                    acc.as_mut().expect("seeded above").combine(src);
                }
            }
            if first {
                agg = None;
            }
            let node = &mut self.nodes[n as usize];
            node.count = count;
            node.lo = lo;
            node.hi = hi;
            node.agg = agg;
        }
    }

    /// Find the leaf where `key` belongs, climbing from the nearer finger.
    fn locate_leaf(&mut self, key: FibaKey) -> u32 {
        if self.nodes[self.root as usize].is_leaf() {
            return self.root;
        }
        // Pick the finger whose end of the key space is nearer. The parent
        // chain of a finger is the tree's spine on that side, so nothing
        // beyond a spine node's range exists on its outer side — the climb
        // only needs to clear the *inner* bound.
        let from_left = {
            let lf = &self.nodes[self.left_finger as usize];
            lf.count > 0 && key <= lf.hi
        };
        let mut cur = if from_left {
            self.left_finger
        } else {
            self.right_finger
        };
        while cur != self.root {
            let n = &self.nodes[cur as usize];
            let covered = if from_left { key <= n.hi } else { key >= n.lo };
            if n.count > 0 && covered {
                break;
            }
            cur = n.parent;
        }
        if cur == self.root {
            self.stats.root_climbs += 1;
        } else {
            self.stats.finger_short_climbs += 1;
        }
        // Descend: first child whose cached range can hold the key.
        while !self.nodes[cur as usize].is_leaf() {
            let n = &self.nodes[cur as usize];
            let mut i = 0;
            while i + 1 < n.children.len() && self.nodes[n.children[i] as usize].hi < key {
                i += 1;
            }
            cur = n.children[i];
        }
        cur
    }

    /// Split an overfull node, pushing the right half into the parent
    /// (creating a new root when `n` was the root).
    fn split(&mut self, n: u32) {
        self.stats.splits += 1;
        let parent = self.nodes[n as usize].parent;
        let right = if self.nodes[n as usize].is_leaf() {
            let mid = self.nodes[n as usize].keys.len() / 2;
            let keys = self.nodes[n as usize].keys.split_off(mid);
            let items = self.nodes[n as usize].items.split_off(mid);
            let mut r = Node::new_leaf(parent);
            r.keys = keys;
            r.items = items;
            self.alloc(r)
        } else {
            let mid = self.nodes[n as usize].children.len() / 2;
            let children = self.nodes[n as usize].children.split_off(mid);
            let mut r = Node::new_leaf(parent);
            r.children = children;
            let ri = self.alloc(r);
            let moved = self.nodes[ri as usize].children.clone();
            for c in moved {
                self.nodes[c as usize].parent = ri;
            }
            ri
        };
        self.recompute(n);
        self.recompute(right);
        if parent == NIL {
            // Grow a new root above both halves.
            let mut root = Node::new_leaf(NIL);
            root.children = vec![n, right];
            let root_idx = self.alloc(root);
            self.nodes[n as usize].parent = root_idx;
            self.nodes[right as usize].parent = root_idx;
            self.recompute(root_idx);
            self.root = root_idx;
        } else {
            let pos = self.nodes[parent as usize]
                .children
                .iter()
                .position(|&c| c == n)
                .expect("child listed in its parent");
            self.nodes[parent as usize].children.insert(pos + 1, right);
        }
    }

    /// Insert an entry. Keys need not be unique; an equal key lands after
    /// existing equals (stable order).
    pub fn insert(&mut self, key: FibaKey, item: I) {
        let leaf = self.locate_leaf(key);
        {
            let node = &mut self.nodes[leaf as usize];
            let pos = node.keys.partition_point(|k| *k <= key);
            node.keys.insert(pos, key);
            node.items.insert(pos, item);
        }
        self.len += 1;
        // Repair (and split where overfull) from the leaf to the root.
        let mut cur = leaf;
        let mut split_any = false;
        loop {
            let over = if self.nodes[cur as usize].is_leaf() {
                self.nodes[cur as usize].keys.len() > MAX_FANOUT
            } else {
                self.nodes[cur as usize].children.len() > MAX_FANOUT
            };
            if over {
                self.split(cur);
                split_any = true;
            } else {
                self.recompute(cur);
            }
            let parent = self.nodes[cur as usize].parent;
            if parent == NIL {
                break;
            }
            cur = parent;
        }
        // Splits move leaves; a plain insert can still extend past the old
        // fingers on either side.
        if split_any
            || self.nodes[self.left_finger as usize].lo > key
            || self.nodes[self.left_finger as usize].count == 0
            || self.nodes[self.right_finger as usize].hi < key
        {
            self.refresh_fingers();
        }
    }

    fn refresh_fingers(&mut self) {
        let mut l = self.root;
        while !self.nodes[l as usize].is_leaf() {
            l = self.nodes[l as usize].children[0];
        }
        self.left_finger = l;
        let mut r = self.root;
        while !self.nodes[r as usize].is_leaf() {
            r = *self.nodes[r as usize].children.last().expect("internal");
        }
        self.right_finger = r;
    }

    /// Combined aggregate and entry count over keys in `[lo, hi]`
    /// (inclusive). Whole subtrees inside the range contribute their cached
    /// aggregate without descending.
    pub fn range_agg(&self, lo: FibaKey, hi: FibaKey) -> (Option<I>, u64) {
        let mut acc: Option<I> = None;
        let mut count = 0u64;
        if self.len > 0 {
            self.range_rec(self.root, lo, hi, &mut acc, &mut count);
        }
        (acc, count)
    }

    fn range_rec(&self, n: u32, lo: FibaKey, hi: FibaKey, acc: &mut Option<I>, count: &mut u64) {
        let node = &self.nodes[n as usize];
        if node.count == 0 || node.hi < lo || hi < node.lo {
            return;
        }
        if lo <= node.lo && node.hi <= hi {
            let src = node.agg.as_ref().expect("nonempty subtree");
            match acc {
                Some(a) => a.combine(src),
                None => *acc = Some(src.clone()),
            }
            *count += node.count;
            return;
        }
        if node.is_leaf() {
            // Leaf keys are sorted, so the in-range entries are contiguous.
            // Seeding the accumulator happens outside the loop: at most one
            // clone per range query, never one per element.
            let start = node.keys.partition_point(|k| *k < lo);
            let end = node.keys.partition_point(|k| *k <= hi);
            if start < end {
                match acc {
                    Some(a) => a.combine(&node.items[start]),
                    None => *acc = Some(node.items[start].clone()),
                }
                for src in &node.items[start + 1..end] {
                    acc.as_mut().expect("seeded above").combine(src);
                }
                *count += (end - start) as u64;
            }
        } else {
            for &c in &node.children {
                self.range_rec(c, lo, hi, acc, count);
            }
        }
    }

    /// Number of entries with keys in `[lo, hi]` (inclusive), without
    /// touching aggregates.
    pub fn count_range(&self, lo: FibaKey, hi: FibaKey) -> u64 {
        let mut n = 0u64;
        if self.len > 0 {
            self.count_rec(self.root, lo, hi, &mut n);
        }
        n
    }

    fn count_rec(&self, n: u32, lo: FibaKey, hi: FibaKey, acc: &mut u64) {
        let node = &self.nodes[n as usize];
        if node.count == 0 || node.hi < lo || hi < node.lo {
            return;
        }
        if lo <= node.lo && node.hi <= hi {
            *acc += node.count;
            return;
        }
        if node.is_leaf() {
            *acc += node.keys.iter().filter(|k| lo <= **k && **k <= hi).count() as u64;
        } else {
            for &c in &node.children {
                self.count_rec(c, lo, hi, acc);
            }
        }
    }

    /// Key of the `k`-th entry (0-based) in key order, or `None` when out of
    /// range. `O(log n)` via subtree counts.
    pub fn select(&self, k: u64) -> Option<FibaKey> {
        if k >= self.len {
            return None;
        }
        let mut remaining = k;
        let mut cur = self.root;
        loop {
            let node = &self.nodes[cur as usize];
            if node.is_leaf() {
                return Some(node.keys[remaining as usize]);
            }
            let mut next = None;
            for &c in &node.children {
                let cc = self.nodes[c as usize].count;
                if remaining < cc {
                    next = Some(c);
                    break;
                }
                remaining -= cc;
            }
            cur = next.expect("counts cover the subtree");
        }
    }

    /// Visit every entry in key order.
    pub fn for_each(&self, f: &mut dyn FnMut(FibaKey, &I)) {
        if self.len > 0 {
            self.for_each_rec(self.root, f);
        }
    }

    fn for_each_rec(&self, n: u32, f: &mut dyn FnMut(FibaKey, &I)) {
        let node = &self.nodes[n as usize];
        if node.is_leaf() {
            for (k, item) in node.keys.iter().zip(node.items.iter()) {
                f(*k, item);
            }
        } else {
            for &c in &node.children {
                self.for_each_rec(c, f);
            }
        }
    }

    fn free_subtree(&mut self, n: u32) {
        let children = std::mem::take(&mut self.nodes[n as usize].children);
        for c in children {
            self.free_subtree(c);
        }
        self.nodes[n as usize].keys.clear();
        self.nodes[n as usize].items.clear();
        self.nodes[n as usize].count = 0;
        self.nodes[n as usize].agg = None;
        self.free.push(n);
    }

    /// Bulk-evict every entry with key `< cut`. Whole subtrees left of the
    /// cut are freed without visiting their entries; only the boundary path
    /// is repaired. Returns the number of entries removed. Nodes on the
    /// leftmost spine may be left underfull (the relaxed FiBA invariant).
    pub fn evict_before(&mut self, cut: FibaKey) -> u64 {
        if self.len == 0 || self.nodes[self.root as usize].lo >= cut {
            return 0;
        }
        let removed = self.evict_rec(self.root, cut);
        self.len -= removed;
        self.stats.evicted += removed;
        // Collapse single-child root chains so height tracks the population.
        while !self.nodes[self.root as usize].is_leaf()
            && self.nodes[self.root as usize].children.len() == 1
        {
            let old = self.root;
            let child = self.nodes[old as usize].children[0];
            self.nodes[child as usize].parent = NIL;
            self.root = child;
            self.nodes[old as usize].children.clear();
            self.free_subtree(old);
        }
        self.refresh_fingers();
        removed
    }

    fn evict_rec(&mut self, n: u32, cut: FibaKey) -> u64 {
        let mut removed = 0u64;
        if self.nodes[n as usize].is_leaf() {
            let drop = self.nodes[n as usize].keys.partition_point(|k| *k < cut);
            self.nodes[n as usize].keys.drain(..drop);
            self.nodes[n as usize].items.drain(..drop);
            removed = drop as u64;
        } else {
            // Free whole children strictly left of the cut.
            while !self.nodes[n as usize].children.is_empty() {
                let c = self.nodes[n as usize].children[0];
                if self.nodes[c as usize].count > 0 && self.nodes[c as usize].hi >= cut {
                    break;
                }
                removed += self.nodes[c as usize].count;
                self.nodes[n as usize].children.remove(0);
                self.free_subtree(c);
                if self.nodes[n as usize].children.is_empty() {
                    break;
                }
            }
            // Recurse into the (new) boundary child.
            if let Some(&c) = self.nodes[n as usize].children.first() {
                if self.nodes[c as usize].count > 0 && self.nodes[c as usize].lo < cut {
                    removed += self.evict_rec(c, cut);
                    if self.nodes[c as usize].count == 0
                        && self.nodes[n as usize].children.len() > 1
                    {
                        self.nodes[n as usize].children.remove(0);
                        self.free_subtree(c);
                    }
                }
            }
        }
        self.recompute(n);
        removed
    }

    /// Structural invariant check, used by the fuzz battery. Verifies parent
    /// pointers, uniform leaf depth, arity bounds (underfull only on the
    /// leftmost spine), sorted disjoint key ranges, cached counts and
    /// ranges, finger validity, and — via `item_eq` — that every cached
    /// subtree aggregate equals a from-scratch recombination of its entries.
    pub fn check_invariants(&self, item_eq: &dyn Fn(&I, &I) -> bool) -> Result<(), String> {
        let root = &self.nodes[self.root as usize];
        if root.parent != NIL {
            return Err("root has a parent".into());
        }
        let mut leaf_depth = None;
        self.check_node(self.root, 0, true, &mut leaf_depth, item_eq)?;
        if self.nodes[self.root as usize].count != self.len {
            return Err(format!(
                "root count {} != tree len {}",
                self.nodes[self.root as usize].count, self.len
            ));
        }
        // Fingers must be the extreme leaves.
        let mut l = self.root;
        while !self.nodes[l as usize].is_leaf() {
            l = self.nodes[l as usize].children[0];
        }
        if l != self.left_finger {
            return Err("left finger is not the leftmost leaf".into());
        }
        let mut r = self.root;
        while !self.nodes[r as usize].is_leaf() {
            r = *self.nodes[r as usize].children.last().expect("internal");
        }
        if r != self.right_finger {
            return Err("right finger is not the rightmost leaf".into());
        }
        Ok(())
    }

    fn check_node(
        &self,
        n: u32,
        depth: usize,
        on_left_spine: bool,
        leaf_depth: &mut Option<usize>,
        item_eq: &dyn Fn(&I, &I) -> bool,
    ) -> Result<(), String> {
        let node = &self.nodes[n as usize];
        let is_root = n == self.root;
        if node.is_leaf() {
            match leaf_depth {
                None => *leaf_depth = Some(depth),
                Some(d) if *d != depth => {
                    return Err(format!("leaf depth {depth} != expected {d}"));
                }
                _ => {}
            }
            if node.keys.len() != node.items.len() {
                return Err("leaf keys/items length mismatch".into());
            }
            if node.keys.len() > MAX_FANOUT {
                return Err(format!(
                    "leaf holds {} > {MAX_FANOUT} entries",
                    node.keys.len()
                ));
            }
            if !is_root && !on_left_spine && node.keys.len() < MIN_FANOUT {
                return Err(format!(
                    "off-spine leaf holds {} < {MIN_FANOUT} entries",
                    node.keys.len()
                ));
            }
            if node.keys.windows(2).any(|w| w[0] > w[1]) {
                return Err("leaf keys out of order".into());
            }
            if node.count != node.keys.len() as u64 {
                return Err("leaf count cache wrong".into());
            }
            if node.count > 0 && (node.lo != node.keys[0] || node.hi != *node.keys.last().unwrap())
            {
                return Err("leaf lo/hi cache wrong".into());
            }
        } else {
            if node.children.len() > MAX_FANOUT {
                return Err(format!(
                    "internal holds {} > {MAX_FANOUT} children",
                    node.children.len()
                ));
            }
            if !is_root && !on_left_spine && node.children.len() < MIN_FANOUT {
                return Err(format!(
                    "off-spine internal holds {} < {MIN_FANOUT} children",
                    node.children.len()
                ));
            }
            if is_root && node.children.len() < 2 {
                return Err("internal root with fewer than 2 children".into());
            }
            let mut count = 0u64;
            let mut prev_hi: Option<FibaKey> = None;
            for (i, &c) in node.children.iter().enumerate() {
                let child = &self.nodes[c as usize];
                if child.parent != n {
                    return Err("child parent pointer wrong".into());
                }
                self.check_node(c, depth + 1, on_left_spine && i == 0, leaf_depth, item_eq)?;
                count += child.count;
                if child.count > 0 {
                    if let Some(ph) = prev_hi {
                        if ph > child.lo {
                            return Err("child key ranges overlap or misorder".into());
                        }
                    }
                    prev_hi = Some(child.hi);
                }
            }
            if node.count != count {
                return Err("internal count cache wrong".into());
            }
            if node.count > 0 {
                let first = node
                    .children
                    .iter()
                    .find(|&&c| self.nodes[c as usize].count > 0)
                    .expect("nonempty subtree");
                let last = node
                    .children
                    .iter()
                    .rev()
                    .find(|&&c| self.nodes[c as usize].count > 0)
                    .expect("nonempty subtree");
                if node.lo != self.nodes[*first as usize].lo
                    || node.hi != self.nodes[*last as usize].hi
                {
                    return Err("internal lo/hi cache wrong".into());
                }
            }
        }
        // Aggregate cache: recombine from scratch and compare.
        let node = &self.nodes[n as usize];
        if node.count == 0 {
            if node.agg.is_some() {
                return Err("empty subtree caches an aggregate".into());
            }
        } else {
            let mut fresh: Option<I> = None;
            self.for_each_rec(n, &mut |_, item| match &mut fresh {
                Some(a) => a.combine(item),
                None => fresh = Some(item.clone()),
            });
            let cached = node
                .agg
                .as_ref()
                .ok_or("nonempty subtree missing aggregate")?;
            let fresh = fresh.expect("nonempty subtree combined");
            if !item_eq(cached, &fresh) {
                return Err("cached subtree aggregate differs from recombination".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sum item: checks combine plumbing with exact integer arithmetic.
    #[derive(Clone, Debug, PartialEq)]
    struct SumItem(i64);
    impl FibaItem for SumItem {
        fn combine(&mut self, later: &Self) {
            self.0 += later.0;
        }
    }

    fn eq(a: &SumItem, b: &SumItem) -> bool {
        a == b
    }

    #[test]
    fn insert_range_and_select_match_a_sorted_model() {
        let mut tree = FibaTree::new();
        let mut model: Vec<(FibaKey, i64)> = Vec::new();
        // Deterministic scramble: multiplicative hop around a prime ring.
        for i in 0..500u64 {
            let k = (i * 373) % 1009;
            tree.insert((k, i), SumItem(k as i64));
            model.push(((k, i), k as i64));
        }
        model.sort_by_key(|(k, _)| *k);
        tree.check_invariants(&eq).expect("invariants");
        assert_eq!(tree.len(), 500);
        assert_eq!(tree.min_key(), Some(model[0].0));
        assert_eq!(tree.max_key(), Some(model.last().unwrap().0));
        for (lo, hi) in [(0, 100), (100, 400), (0, 2000), (990, 1009), (500, 499)] {
            let lo_k = (lo, 0);
            let hi_k = (hi, u64::MAX);
            let expect: i64 = model
                .iter()
                .filter(|(k, _)| lo_k <= *k && *k <= hi_k)
                .map(|(_, v)| *v)
                .sum();
            let n_expect = model
                .iter()
                .filter(|(k, _)| lo_k <= *k && *k <= hi_k)
                .count() as u64;
            let (agg, n) = tree.range_agg(lo_k, hi_k);
            assert_eq!(n, n_expect, "count for [{lo},{hi}]");
            assert_eq!(tree.count_range(lo_k, hi_k), n_expect);
            assert_eq!(agg.map(|a| a.0).unwrap_or(0), expect, "sum for [{lo},{hi}]");
        }
        for k in [0u64, 1, 250, 499] {
            assert_eq!(tree.select(k), Some(model[k as usize].0));
        }
        assert_eq!(tree.select(500), None);
    }

    #[test]
    fn bulk_eviction_drops_exactly_the_prefix() {
        let mut tree = FibaTree::new();
        for i in 0..300u64 {
            tree.insert((i, 0), SumItem(1));
        }
        let removed = tree.evict_before((120, 0));
        assert_eq!(removed, 120);
        assert_eq!(tree.len(), 180);
        assert_eq!(tree.min_key(), Some((120, 0)));
        tree.check_invariants(&eq).expect("invariants after evict");
        // Evicting before the minimum is a no-op.
        assert_eq!(tree.evict_before((50, 0)), 0);
        // Evict everything.
        assert_eq!(tree.evict_before((1000, 0)), 180);
        assert!(tree.is_empty());
        tree.check_invariants(&eq).expect("invariants when empty");
        // The tree keeps working after a full eviction.
        tree.insert((7, 7), SumItem(7));
        assert_eq!(tree.range_agg((0, 0), (u64::MAX, u64::MAX)).1, 1);
    }

    #[test]
    fn interleaved_inserts_and_evictions_hold_invariants() {
        let mut tree = FibaTree::new();
        let mut model: Vec<(FibaKey, i64)> = Vec::new();
        let mut x = 12345u64;
        for step in 0..2000u64 {
            // xorshift for deterministic pseudo-random keys.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = x % 10_000;
            tree.insert((k, step), SumItem(1));
            model.push(((k, step), 1));
            if step % 97 == 96 {
                let cut = (x % 8000, 0);
                tree.evict_before(cut);
                model.retain(|(key, _)| *key >= cut);
                tree.check_invariants(&eq).expect("invariants mid-fuzz");
            }
            assert_eq!(tree.len(), model.len() as u64, "step {step}");
        }
        let total: i64 = model.iter().map(|(_, v)| v).sum();
        let (agg, n) = tree.range_agg((0, 0), (u64::MAX, u64::MAX));
        assert_eq!(n, model.len() as u64);
        assert_eq!(agg.unwrap().0, total);
    }

    #[test]
    fn appends_stay_near_the_right_finger() {
        let mut tree = FibaTree::new();
        for i in 0..4096u64 {
            tree.insert((i, 0), SumItem(1));
        }
        let s = tree.stats();
        // In-order appends should overwhelmingly resolve below the root once
        // the tree has any height.
        assert!(
            s.finger_short_climbs > s.root_climbs,
            "expected finger hits to dominate: {s:?}"
        );
    }

    #[test]
    fn ordered_f64_bits_preserve_total_order_and_roundtrip() {
        let vals = [
            f64::NEG_INFINITY,
            -1.5,
            -0.0,
            0.0,
            1.0e-300,
            2.5,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for &a in &vals {
            // Bijective roundtrip preserves the exact bit pattern.
            assert_eq!(ordered_to_f64(f64_to_ordered(a)).to_bits(), a.to_bits());
            for &b in &vals {
                assert_eq!(
                    f64_to_ordered(a).cmp(&f64_to_ordered(b)),
                    a.total_cmp(&b),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn unit_item_tree_serves_as_an_order_statistic_index() {
        let mut tree: FibaTree<()> = FibaTree::new();
        let xs = [3.5f64, -1.0, 3.5, 0.0, -0.0, f64::NAN, 100.0];
        for (i, &x) in xs.iter().enumerate() {
            tree.insert((f64_to_ordered(x), i as u64), ());
        }
        let mut sorted = xs.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        for (k, want) in sorted.iter().enumerate() {
            let (bits, _) = tree.select(k as u64).expect("in range");
            assert_eq!(ordered_to_f64(bits).to_bits(), want.to_bits(), "rank {k}");
        }
    }
}
