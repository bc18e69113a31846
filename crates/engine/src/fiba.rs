//! Finger B-tree aggregator (FiBA) window state.
//!
//! An order-maintaining B-tree over `(timestamp, seq)` keys with two *finger*
//! pointers at the leftmost and rightmost leaf (Tangwongsan/Hirzel/Schneider,
//! arXiv 1810.11308). A leaf **stores entries** — a key plus a fixed number
//! of values, inline in two arrays per leaf, no heap block per entry; every
//! node **caches** the partial aggregate, entry count and key range of its
//! subtree. Partials exist only in those caches and in a range query's
//! accumulator: a [`FibaFold`] says how one entry becomes a partial
//! (`seed`), how partials combine, and `absorb ≡ combine ∘ seed` folds an
//! entry into a partial without materialising the one in between.
//!
//! One repair rule: **a node's cached partial is folded only when a range
//! query reads it.** Nothing that writes to the tree combines a partial. An
//! insert finds its leaf — the right finger for a key at or past the largest
//! (an *append*), the left finger for a key inside its range, otherwise by
//! climbing from the right finger as far as the first ancestor whose key
//! range reaches down to the key and descending from there (`O(log d)`
//! levels for distance `d` from the right end) — places the entry,
//! updates the counts and key ranges on its leaf-to-root path (routing reads
//! them) and marks the path's partials *stale*. A split or an eviction gives
//! the nodes it reshapes exact counts and ranges and marks them and their
//! ancestors stale the same way. A stale partial is re-folded once, when a
//! range query next reads it, however many inserts, splits and evictions
//! touched it in between — so how a cache nests its entries depends on the
//! tree's shape alone, never on when it was read.
//!
//! Window slides use [`FibaTree::evict_before`], the bulk eviction of the
//! FiBA sequel (arXiv 2307.11210) adapted to this layout: whole subtrees left
//! of the cut are freed without visiting their entries, and no entry left
//! standing is re-folded until a query asks. The relaxed invariant
//! allows underfull nodes *only on the two spines*: the leftmost is what a
//! prefix eviction thins out, and the rightmost leaf starts from the one
//! entry that overflowed its full left sibling, so in-order leaves stay full.
//! Freed nodes keep their buffers for the next split. See `DESIGN.md` §17.

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

/// Composite tree key: `(timestamp, seq)`.
pub type FibaKey = (u64, u64);

/// What a tree stores per entry and caches per node.
///
/// `combine` must be associative over key order: the tree always combines a
/// subtree's partials left-to-right, so `later` covers keys sorting after
/// everything already in `acc`.
pub trait FibaFold {
    /// One stored value; an entry is its key and the tree's `width` of these.
    type Val: Clone;
    /// A partial aggregate over a run of entries in key order.
    type Agg: Clone;

    /// The partial covering exactly this entry.
    fn seed(&self, key: FibaKey, vals: &[Self::Val]) -> Self::Agg;

    /// Fold `later` (covering strictly later keys) into `acc`.
    fn combine(&self, acc: &mut Self::Agg, later: &Self::Agg);

    /// Fold an entry later than everything in `acc` into it. *Defined* as
    /// `combine(acc, &seed(key, vals))`; override only to build the one-entry
    /// partial without a heap allocation, never to compute anything else.
    /// A cache is the combine of its entries' one-entry partials in key
    /// order, nested as the tree is shaped: a leaf absorbs its entries one
    /// by one, an internal node combines its children's caches, and a range
    /// query absorbs the entries of its boundary leaves. Counts, extrema,
    /// first/last and arg-extrema do not see the nesting; float sums and
    /// moments differ in their last bits between two shapes of the same
    /// entries, and a shortcut with roundings of its own would widen that.
    fn absorb(&self, acc: &mut Self::Agg, key: FibaKey, vals: &[Self::Val]) {
        self.combine(acc, &self.seed(key, vals));
    }
}

/// Production minimum of entries (leaf) / children (internal) for nodes off
/// the two spines; a node splits once it exceeds twice that. Picked from the
/// recorded sweep of {4, 8, 16, 32} in DESIGN.md §17.2.
pub const MIN_FANOUT: usize = 16;

const NIL: u32 = u32::MAX;
const FIRST_KEY: FibaKey = (0, 0);
const LAST_KEY: FibaKey = (u64::MAX, u64::MAX);

struct Node<V, A> {
    parent: u32,
    /// Leaf: sorted entry keys. Internal: empty (children route by range).
    keys: Vec<FibaKey>,
    /// Leaf: the entries' values, `width` per key, in key order.
    vals: Vec<V>,
    /// Internal: child node indices in key order. Empty for leaves.
    children: Vec<u32>,
    /// Entries in this subtree.
    count: u64,
    /// Combined partial of this subtree in key order (`None` iff empty),
    /// unless `stale`: then an out-of-date partial, or `None` after a split
    /// or an eviction reshaped the node.
    agg: Option<A>,
    /// Smallest key in this subtree (valid when `count > 0`).
    lo: FibaKey,
    /// Largest key in this subtree (valid when `count > 0`).
    hi: FibaKey,
    /// The subtree changed since `agg` was last folded. A stale node's
    /// ancestors are stale, so a fresh node's whole subtree is fresh.
    /// `count`, `lo` and `hi` are exact either way.
    stale: bool,
}

impl<V, A> Node<V, A> {
    fn new_leaf(parent: u32) -> Node<V, A> {
        Node {
            parent,
            keys: Vec::new(),
            vals: Vec::new(),
            children: Vec::new(),
            count: 0,
            agg: None,
            lo: FIRST_KEY,
            hi: FIRST_KEY,
            stale: false,
        }
    }

    #[inline]
    fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }

    /// A leaf's entries at positions `from..to`, `width` values each.
    fn entries(
        &self,
        width: usize,
        from: usize,
        to: usize,
    ) -> impl Iterator<Item = (FibaKey, &[V])> {
        let keys = self.keys[from..to].iter().copied();
        keys.zip(self.vals[from * width..to * width].chunks_exact(width))
    }

    /// The positions of a leaf's entries with keys in `[lo, hi]` — contiguous,
    /// because leaf keys are sorted.
    fn span(&self, lo: FibaKey, hi: FibaKey) -> (usize, usize) {
        let from = self.keys.partition_point(|k| *k < lo);
        (from, self.keys.partition_point(|k| *k <= hi))
    }
}

/// Fold an entry, later than anything in `acc`, into `acc`.
fn absorb_entry<F: FibaFold>(fold: &F, acc: &mut Option<F::Agg>, key: FibaKey, vals: &[F::Val]) {
    match acc {
        Some(a) => fold.absorb(a, key, vals),
        None => *acc = Some(fold.seed(key, vals)),
    }
}

/// Fold a cached partial, covering later keys than anything in `acc`, into it.
fn absorb_cache<F: FibaFold>(fold: &F, acc: &mut Option<F::Agg>, part: &F::Agg) {
    match acc {
        Some(a) => fold.combine(a, part),
        None => *acc = Some(part.clone()),
    }
}

/// How much of a subtree a key range covers.
enum Cover {
    None,
    Whole,
    Part,
}

/// Counters exposed for benchmarks and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FibaStats {
    /// Inserts that never climbed to the root: appends at the right finger
    /// and stragglers whose finger climb stopped below it.
    pub finger_short_climbs: u64,
    /// Inserts that climbed all the way to the root.
    pub root_climbs: u64,
    /// Node splits performed.
    pub splits: u64,
    /// Entries removed by `evict_before` (bulk, without per-entry visits
    /// for whole subtrees).
    pub evicted: u64,
    /// Node caches rebuilt from their entries or children. Only a range
    /// query rebuilds one: each stale cache it reads, and the stale caches
    /// below those, once each.
    pub refolds: u64,
}

/// A finger B-tree aggregator: ordered multimap from [`FibaKey`] to entries of
/// `width` values, with cached subtree partials, counts and key ranges. `MIN`
/// is the minimum fan-out ([`MIN_FANOUT`] in production; the test suites also
/// run a small one, whose trees are deep). The fold is passed to the reads
/// that build partials, so one descriptor serves all of an operator's trees.
pub struct FibaTree<F: FibaFold, const MIN: usize = MIN_FANOUT> {
    nodes: Vec<Node<F::Val, F::Agg>>,
    free: Vec<u32>,
    root: u32,
    /// Leftmost leaf.
    left_finger: u32,
    /// Rightmost leaf.
    right_finger: u32,
    /// Values per entry.
    width: usize,
    len: u64,
    stats: FibaStats,
}

impl<F: FibaFold, const MIN: usize> FibaTree<F, MIN> {
    /// Nodes split once they exceed this many entries/children.
    pub const MAX: usize = 2 * MIN;

    /// An empty tree whose entries carry `width >= 1` values each.
    pub fn new(width: usize) -> Self {
        assert!(width > 0, "an entry stores at least one value");
        FibaTree {
            nodes: vec![Node::new_leaf(NIL)],
            free: Vec::new(),
            root: 0,
            left_finger: 0,
            right_finger: 0,
            width,
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

    /// Bytes the tree has allocated: the node arena and every node's key,
    /// value and child arrays at their capacity (freed nodes keep theirs),
    /// plus `cache_heap` — what one cached `Agg` owns on the heap — for every
    /// node that holds a partial.
    pub fn state_bytes(&self, cache_heap: usize) -> usize {
        let arrays = |n: &Node<F::Val, F::Agg>| {
            n.keys.capacity() * size_of::<FibaKey>()
                + n.vals.capacity() * size_of::<F::Val>()
                + n.children.capacity() * size_of::<u32>()
        };
        let caches = self.nodes.iter().filter(|n| n.agg.is_some()).count();
        self.nodes.capacity() * size_of::<Node<F::Val, F::Agg>>()
            + self.nodes.iter().map(arrays).sum::<usize>()
            + caches * cache_heap
    }

    /// An empty node under `parent`: a freed one, with the buffers it kept,
    /// when there is one.
    fn alloc(&mut self, parent: u32) -> u32 {
        match self.free.pop() {
            Some(i) => {
                self.nodes[i as usize].parent = parent;
                i
            }
            None => {
                self.nodes.push(Node::new_leaf(parent));
                (self.nodes.len() - 1) as u32
            }
        }
    }

    fn overfull(&self, n: u32) -> bool {
        let node = &self.nodes[n as usize];
        node.keys.len().max(node.children.len()) > Self::MAX
    }

    /// Re-fold `n`'s partial from its entries (absorbed one by one) or its
    /// children's caches (combined), re-folding the stale children first;
    /// `n`'s whole subtree is fresh afterwards. Only a range query's read
    /// comes here.
    fn recompute(&mut self, fold: &F, n: u32) {
        self.stats.refolds += 1;
        for i in 0..self.nodes[n as usize].children.len() {
            let c = self.nodes[n as usize].children[i];
            if self.nodes[c as usize].stale {
                self.recompute(fold, c);
            }
        }
        let node = &self.nodes[n as usize];
        let mut agg = None;
        for (key, vals) in node.entries(self.width, 0, node.keys.len()) {
            absorb_entry(fold, &mut agg, key, vals);
        }
        for child in node.children.iter().map(|&c| &self.nodes[c as usize]) {
            if let Some(part) = &child.agg {
                absorb_cache(fold, &mut agg, part);
            }
        }
        let node = &mut self.nodes[n as usize];
        node.agg = agg;
        node.stale = false;
    }

    /// Give `n` exact `count`, `lo` and `hi` from its entries or its
    /// children, drop its partial, and mark it and its ancestors stale: the
    /// bookkeeping half of repairing a node a split or an eviction reshaped.
    /// The folding half waits for a read.
    fn recount(&mut self, n: u32) {
        let node = &self.nodes[n as usize];
        let (count, lo, hi) = match (node.keys.first(), node.keys.last()) {
            (Some(&first), Some(&last)) => (node.keys.len() as u64, first, last),
            _ => {
                let parts = || {
                    let children = node.children.iter().map(|&c| &self.nodes[c as usize]);
                    children.filter(|c| c.count > 0)
                };
                (
                    parts().map(|c| c.count).sum(),
                    parts().next().map_or(FIRST_KEY, |c| c.lo),
                    parts().next_back().map_or(FIRST_KEY, |c| c.hi),
                )
            }
        };
        let node = &mut self.nodes[n as usize];
        (node.count, node.lo, node.hi, node.agg) = (count, lo, hi, None);
        self.mark_stale(n);
    }

    /// Mark `n` and its ancestors stale, up to the first that already is:
    /// the ancestors of a stale node are stale.
    fn mark_stale(&mut self, mut n: u32) {
        while n != NIL && !self.nodes[n as usize].stale {
            self.nodes[n as usize].stale = true;
            n = self.nodes[n as usize].parent;
        }
    }

    /// Find the leaf where `key` belongs: the left finger when the key lies
    /// inside its range, otherwise by a climb from the right finger.
    fn locate_leaf(&mut self, key: FibaKey) -> u32 {
        if self.nodes[self.root as usize].is_leaf() {
            return self.root;
        }
        // A key inside the left finger's range belongs in the left finger.
        let lf = &self.nodes[self.left_finger as usize];
        if lf.count > 0 && key <= lf.hi {
            self.stats.finger_short_climbs += 1;
            return self.left_finger;
        }
        // Otherwise climb from the right finger. Its parent chain is the
        // right spine, so nothing right of a spine node's range exists — the
        // climb only needs to clear the node's `lo`.
        let mut cur = self.right_finger;
        while cur != self.root {
            let n = &self.nodes[cur as usize];
            if n.count > 0 && key >= n.lo {
                break;
            }
            cur = n.parent;
        }
        if cur == self.root {
            self.stats.root_climbs += 1;
        } else {
            self.stats.finger_short_climbs += 1;
        }
        // Descend into the first child whose range reaches the key (the
        // last child when none does). The climb started on the right, so
        // scan from the right: the first child that reaches the key follows
        // the last one that does not, because siblings' ranges are sorted.
        while !self.nodes[cur as usize].is_leaf() {
            let children = &self.nodes[cur as usize].children;
            let reaches = |i: usize| self.nodes[children[i] as usize].hi >= key;
            let i = (0..children.len() - 1)
                .rev()
                .find(|&i| !reaches(i))
                .map_or(0, |i| i + 1);
            cur = children[i];
        }
        cur
    }

    /// Split an overfull node: the right half moves to a new sibling (under a
    /// new root when `n` was the root) and both halves are recounted. The
    /// parent's count and range stay exact: it covers the same entries as
    /// before.
    fn split(&mut self, n: u32) {
        self.stats.splits += 1;
        let parent = self.nodes[n as usize].parent;
        let right = self.alloc(parent);
        let [left, new] = self
            .nodes
            .get_disjoint_mut([n as usize, right as usize])
            .expect("a fresh node is not the node it splits");
        if left.is_leaf() {
            // The rightmost leaf stays full and hands on only its last
            // entry: appends fill the new one, which the right spine's
            // relaxed minimum lets start that small.
            let mid = if n == self.right_finger {
                left.keys.len() - 1
            } else {
                left.keys.len() / 2
            };
            // Exactly a node's worth: doubling would reserve twice that.
            new.keys.reserve_exact(Self::MAX + 1);
            new.vals.reserve_exact((Self::MAX + 1) * self.width);
            new.keys.extend(left.keys.drain(mid..));
            new.vals.extend(left.vals.drain(mid * self.width..));
            if n == self.right_finger {
                self.right_finger = right;
            }
        } else {
            let mid = left.children.len() / 2;
            new.children.extend(left.children.drain(mid..));
            for i in 0..self.nodes[right as usize].children.len() {
                let c = self.nodes[right as usize].children[i];
                self.nodes[c as usize].parent = right;
            }
        }
        self.recount(n);
        self.recount(right);
        if parent == NIL {
            // Grow a new root above both halves.
            let root = self.alloc(NIL);
            self.nodes[root as usize].children.extend([n, right]);
            self.nodes[n as usize].parent = root;
            self.nodes[right as usize].parent = root;
            self.recount(root);
            self.root = root;
        } else {
            let siblings = &mut self.nodes[parent as usize].children;
            let pos = siblings
                .iter()
                .position(|&c| c == n)
                .expect("child listed in its parent");
            siblings.insert(pos + 1, right);
        }
    }

    /// Insert an entry of `width` values. Keys need not be unique; an equal
    /// key lands after existing equals (stable order).
    pub fn insert(&mut self, key: FibaKey, vals: &[F::Val]) {
        assert_eq!(vals.len(), self.width, "entry width");
        self.len += 1;
        // An append — at or past the largest key, or into an empty tree,
        // whose root is its rightmost leaf — lands on the right finger.
        let tail = &self.nodes[self.right_finger as usize];
        let leaf = if tail.count == 0 || key >= tail.hi {
            self.stats.finger_short_climbs += 1;
            self.right_finger
        } else {
            self.locate_leaf(key)
        };
        let width = self.width;
        let node = &mut self.nodes[leaf as usize];
        let pos = node.keys.partition_point(|k| *k <= key);
        node.keys.insert(pos, key);
        node.vals.extend_from_slice(vals);
        node.vals[pos * width..].rotate_right(width);
        // Every partial on the path now misses the entry; counts and key
        // ranges stay exact, because `locate_leaf` routes on them.
        let mut cur = leaf;
        while cur != NIL {
            let node = &mut self.nodes[cur as usize];
            (node.lo, node.hi) = if node.count == 0 {
                (key, key)
            } else {
                (node.lo.min(key), node.hi.max(key))
            };
            node.count += 1;
            node.stale = true;
            cur = node.parent;
        }
        // Split overfull nodes upwards; the walk ends at the first with room.
        let mut n = leaf;
        while n != NIL && self.overfull(n) {
            self.split(n);
            n = self.nodes[n as usize].parent;
        }
    }

    /// The leftmost or rightmost leaf.
    fn edge_leaf(&self, rightmost: bool) -> u32 {
        let mut n = self.root;
        while !self.nodes[n as usize].is_leaf() {
            let children = &self.nodes[n as usize].children;
            n = children[if rightmost { children.len() - 1 } else { 0 }];
        }
        n
    }

    /// Combined partial and entry count over keys in `[lo, hi]` (inclusive).
    /// Whole subtrees inside the range contribute their cached partial
    /// without descending, re-folded first if stale; boundary leaves absorb
    /// their in-range entries.
    pub fn range_agg(&mut self, fold: &F, lo: FibaKey, hi: FibaKey) -> (Option<F::Agg>, u64) {
        let mut acc = None;
        let mut count = 0u64;
        if self.len > 0 {
            self.range_rec(fold, self.root, lo, hi, &mut acc, &mut count);
        }
        (acc, count)
    }

    fn range_rec(
        &mut self,
        fold: &F,
        n: u32,
        lo: FibaKey,
        hi: FibaKey,
        acc: &mut Option<F::Agg>,
        count: &mut u64,
    ) {
        match self.cover(n, lo, hi) {
            Cover::None => {}
            Cover::Whole => {
                if self.nodes[n as usize].stale {
                    self.recompute(fold, n);
                }
                let node = &self.nodes[n as usize];
                absorb_cache(fold, acc, node.agg.as_ref().expect("nonempty subtree"));
                *count += node.count;
            }
            Cover::Part if self.nodes[n as usize].is_leaf() => {
                let node = &self.nodes[n as usize];
                let (from, to) = node.span(lo, hi);
                for (key, vals) in node.entries(self.width, from, to) {
                    absorb_entry(fold, acc, key, vals);
                }
                *count += (to - from) as u64;
            }
            Cover::Part => {
                for i in 0..self.nodes[n as usize].children.len() {
                    let c = self.nodes[n as usize].children[i];
                    self.range_rec(fold, c, lo, hi, acc, count);
                }
            }
        }
    }

    /// How much of `n`'s subtree `[lo, hi]` covers.
    fn cover(&self, n: u32, lo: FibaKey, hi: FibaKey) -> Cover {
        let node = &self.nodes[n as usize];
        if node.count == 0 || node.hi < lo || hi < node.lo {
            Cover::None
        } else if lo <= node.lo && node.hi <= hi {
            Cover::Whole
        } else {
            Cover::Part
        }
    }

    /// Smallest key `>= lo`, if any.
    pub fn first_key_from(&self, lo: FibaKey) -> Option<FibaKey> {
        let mut cur = self.root;
        loop {
            let node = &self.nodes[cur as usize];
            if node.count == 0 || node.hi < lo {
                return None;
            }
            if node.is_leaf() {
                return node.keys.iter().copied().find(|k| *k >= lo);
            }
            // Some child reaches `lo`, because the node's own `hi` does.
            let reaches =
                |&&c: &&u32| self.nodes[c as usize].count > 0 && self.nodes[c as usize].hi >= lo;
            cur = *node.children.iter().find(reaches)?;
        }
    }

    /// Visit every entry with key in `[lo, hi]` (inclusive) in key order,
    /// its values read in place from the leaf arrays.
    pub fn for_each_range<'a>(
        &'a self,
        lo: FibaKey,
        hi: FibaKey,
        f: &mut dyn FnMut(FibaKey, &'a [F::Val]),
    ) {
        self.visit(self.root, lo, hi, f);
    }

    /// Visit every entry in key order.
    pub fn for_each<'a>(&'a self, f: &mut dyn FnMut(FibaKey, &'a [F::Val])) {
        self.visit(self.root, FIRST_KEY, LAST_KEY, f);
    }

    fn visit<'a>(
        &'a self,
        n: u32,
        lo: FibaKey,
        hi: FibaKey,
        f: &mut dyn FnMut(FibaKey, &'a [F::Val]),
    ) {
        if let Cover::None = self.cover(n, lo, hi) {
            return;
        }
        let node = &self.nodes[n as usize];
        if node.is_leaf() {
            let (from, to) = node.span(lo, hi);
            node.entries(self.width, from, to)
                .for_each(|(key, vals)| f(key, vals));
        } else {
            for &c in &node.children {
                self.visit(c, lo, hi, f);
            }
        }
    }

    /// Free `n` and everything below it. Freed nodes keep their (emptied)
    /// buffers for [`FibaTree::alloc`] to hand out again.
    fn free_subtree(&mut self, n: u32) {
        while let Some(c) = self.nodes[n as usize].children.pop() {
            self.free_subtree(c);
        }
        let node = &mut self.nodes[n as usize];
        node.keys.clear();
        node.vals.clear();
        node.count = 0;
        node.agg = None;
        node.stale = false;
        self.free.push(n);
    }

    /// Bulk-evict every entry with key `< cut`. Whole subtrees left of the
    /// cut are freed without visiting their entries; only the boundary path
    /// is recounted, and left stale for the next read to re-fold. Returns
    /// the number of entries removed. Nodes on the leftmost spine may be left
    /// underfull (the relaxed FiBA invariant).
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
        self.left_finger = self.edge_leaf(false);
        self.right_finger = self.edge_leaf(true);
        removed
    }

    fn evict_rec(&mut self, n: u32, cut: FibaKey) -> u64 {
        let mut removed = 0u64;
        if self.nodes[n as usize].is_leaf() {
            let node = &mut self.nodes[n as usize];
            let drop = node.keys.partition_point(|k| *k < cut);
            node.keys.drain(..drop);
            node.vals.drain(..drop * self.width);
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
        self.recount(n);
        removed
    }

    /// Structural invariant check, used by the fuzz battery. Verifies parent
    /// pointers, uniform leaf depth, arity bounds (underfull only on the two
    /// spines), sorted disjoint key ranges, every node's cached count and
    /// range, finger validity, that a stale node's parent is stale, and —
    /// via `agg_eq` — that every fresh node's partial equals a from-scratch
    /// fold of its entries.
    pub fn check_invariants(
        &self,
        fold: &F,
        agg_eq: &dyn Fn(&F::Agg, &F::Agg) -> bool,
    ) -> Result<(), String> {
        let root = &self.nodes[self.root as usize];
        if root.parent != NIL {
            return Err("root has a parent".into());
        }
        let mut leaf_depth = None;
        self.check_node(fold, self.root, 0, (true, true), &mut leaf_depth, agg_eq)?;
        if self.nodes[self.root as usize].count != self.len {
            return Err(format!(
                "root count {} != tree len {}",
                self.nodes[self.root as usize].count, self.len
            ));
        }
        if self.edge_leaf(false) != self.left_finger {
            return Err("left finger is not the leftmost leaf".into());
        }
        if self.edge_leaf(true) != self.right_finger {
            return Err("right finger is not the rightmost leaf".into());
        }
        Ok(())
    }

    /// `spines`: whether `n` lies on the leftmost / rightmost spine.
    fn check_node(
        &self,
        fold: &F,
        n: u32,
        depth: usize,
        spines: (bool, bool),
        leaf_depth: &mut Option<usize>,
        agg_eq: &dyn Fn(&F::Agg, &F::Agg) -> bool,
    ) -> Result<(), String> {
        let node = &self.nodes[n as usize];
        let may_be_underfull = n == self.root || spines.0 || spines.1;
        let (max, min) = (Self::MAX, MIN);
        if node.is_leaf() {
            match leaf_depth {
                None => *leaf_depth = Some(depth),
                Some(d) if *d != depth => {
                    return Err(format!("leaf depth {depth} != expected {d}"));
                }
                _ => {}
            }
            if node.keys.len() * self.width != node.vals.len() {
                return Err("leaf keys/values length mismatch".into());
            }
            if node.keys.len() > max {
                return Err(format!("leaf holds {} > {max} entries", node.keys.len()));
            }
            if !may_be_underfull && node.keys.len() < min {
                return Err(format!(
                    "off-spine leaf holds {} < {min} entries",
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
            let arity = node.children.len();
            if arity > max {
                return Err(format!("internal holds {arity} > {max} children"));
            }
            if !may_be_underfull && arity < min {
                return Err(format!("off-spine internal holds {arity} < {min} children"));
            }
            if n == self.root && arity < 2 {
                return Err("internal root with fewer than 2 children".into());
            }
            let mut count = 0u64;
            let mut prev_hi: Option<FibaKey> = None;
            for (i, &c) in node.children.iter().enumerate() {
                let child = &self.nodes[c as usize];
                if child.parent != n {
                    return Err("child parent pointer wrong".into());
                }
                let below = (spines.0 && i == 0, spines.1 && i + 1 == arity);
                self.check_node(fold, c, depth + 1, below, leaf_depth, agg_eq)?;
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
        let node = &self.nodes[n as usize];
        if !node.stale {
            return self.check_cache(fold, n, agg_eq);
        }
        if node.parent != NIL && !self.nodes[node.parent as usize].stale {
            return Err("stale node under a fresh parent".into());
        }
        Ok(())
    }

    /// `n`'s cached partial against a from-scratch fold of its entries.
    fn check_cache(
        &self,
        fold: &F,
        n: u32,
        agg_eq: &dyn Fn(&F::Agg, &F::Agg) -> bool,
    ) -> Result<(), String> {
        let node = &self.nodes[n as usize];
        if node.count == 0 {
            if node.agg.is_some() {
                return Err("empty subtree caches a partial".into());
            }
            return Ok(());
        }
        let mut refolded = None;
        self.visit(n, FIRST_KEY, LAST_KEY, &mut |key, vals| {
            absorb_entry(fold, &mut refolded, key, vals)
        });
        let cached = node
            .agg
            .as_ref()
            .ok_or("nonempty subtree missing partial")?;
        let refolded = refolded.expect("nonempty subtree folded");
        if !agg_eq(cached, &refolded) {
            return Err("cached subtree partial differs from a fold of its entries".into());
        }
        Ok(())
    }

    /// The read side of fold-on-read, used by the fuzz battery after
    /// a [`FibaTree::range_agg`] over `[lo, hi]`: every node whose cache
    /// that query read is fresh and equals a from-scratch fold.
    pub fn check_range_read(
        &self,
        fold: &F,
        lo: FibaKey,
        hi: FibaKey,
        agg_eq: &dyn Fn(&F::Agg, &F::Agg) -> bool,
    ) -> Result<(), String> {
        let mut todo = vec![self.root];
        while let Some(n) = todo.pop() {
            match self.cover(n, lo, hi) {
                Cover::None => {}
                Cover::Whole if self.nodes[n as usize].stale => {
                    return Err("a range query read a stale cache".into());
                }
                Cover::Whole => self.check_cache(fold, n, agg_eq)?,
                Cover::Part => todo.extend(&self.nodes[n as usize].children),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sum fold: checks combine plumbing with exact integer arithmetic.
    struct Sum;
    impl FibaFold for Sum {
        type Val = i64;
        type Agg = i64;
        fn seed(&self, _: FibaKey, vals: &[i64]) -> i64 {
            vals[0]
        }
        fn combine(&self, acc: &mut i64, later: &i64) {
            *acc += later;
        }
    }

    fn eq(a: &i64, b: &i64) -> bool {
        a == b
    }

    #[test]
    fn insert_range_and_visit_match_a_sorted_model() {
        let mut tree = FibaTree::<Sum>::new(1);
        let mut model: Vec<(FibaKey, i64)> = Vec::new();
        // Deterministic scramble: multiplicative hop around a prime ring.
        for i in 0..500u64 {
            let k = (i * 373) % 1009;
            tree.insert((k, i), &[k as i64]);
            model.push(((k, i), k as i64));
        }
        model.sort_by_key(|(k, _)| *k);
        tree.check_invariants(&Sum, &eq).expect("invariants");
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
            let (agg, n) = tree.range_agg(&Sum, lo_k, hi_k);
            assert_eq!(n, n_expect, "count for [{lo},{hi}]");
            assert_eq!(agg.unwrap_or(0), expect, "sum for [{lo},{hi}]");
            let in_range = model.iter().filter(|(k, _)| lo_k <= *k && *k <= hi_k);
            let mut walked = Vec::new();
            tree.for_each_range(lo_k, hi_k, &mut |k, item| walked.push((k, item[0])));
            assert_eq!(walked, in_range.cloned().collect::<Vec<_>>());
            let next = model.iter().map(|(k, _)| *k).find(|k| *k >= lo_k);
            assert_eq!(tree.first_key_from(lo_k), next, "first key from {lo}");
        }
    }

    #[test]
    fn bulk_eviction_drops_exactly_the_prefix() {
        let mut tree = FibaTree::<Sum>::new(1);
        for i in 0..300u64 {
            tree.insert((i, 0), &[1]);
        }
        let removed = tree.evict_before((120, 0));
        assert_eq!(removed, 120);
        assert_eq!(tree.len(), 180);
        assert_eq!(tree.min_key(), Some((120, 0)));
        tree.check_invariants(&Sum, &eq)
            .expect("invariants after evict");
        // Evicting before the minimum is a no-op.
        assert_eq!(tree.evict_before((50, 0)), 0);
        // Evict everything.
        assert_eq!(tree.evict_before((1000, 0)), 180);
        assert!(tree.is_empty());
        tree.check_invariants(&Sum, &eq)
            .expect("invariants when empty");
        // The tree keeps working after a full eviction.
        tree.insert((7, 7), &[7]);
        assert_eq!(tree.range_agg(&Sum, (0, 0), (u64::MAX, u64::MAX)).1, 1);
    }

    #[test]
    fn interleaved_inserts_and_evictions_hold_invariants() {
        let mut tree = FibaTree::<Sum>::new(1);
        let mut model: Vec<(FibaKey, i64)> = Vec::new();
        let mut x = 12345u64;
        for step in 0..2000u64 {
            // xorshift for deterministic pseudo-random keys.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = x % 10_000;
            tree.insert((k, step), &[1]);
            model.push(((k, step), 1));
            if step % 97 == 96 {
                let cut = (x % 8000, 0);
                tree.evict_before(cut);
                model.retain(|(key, _)| *key >= cut);
                tree.check_invariants(&Sum, &eq)
                    .expect("invariants mid-fuzz");
            }
            assert_eq!(tree.len(), model.len() as u64, "step {step}");
        }
        let total: i64 = model.iter().map(|(_, v)| v).sum();
        let (agg, n) = tree.range_agg(&Sum, (0, 0), (u64::MAX, u64::MAX));
        assert_eq!(n, model.len() as u64);
        assert_eq!(agg.unwrap(), total);
    }

    #[test]
    fn stragglers_between_two_queries_refold_their_path_once() {
        // 64 full leaves and a rightmost leaf holding one entry, at 10·i.
        let mut tree = FibaTree::<Sum>::new(1);
        let n = 64 * FibaTree::<Sum>::MAX as u64 + 1;
        for i in 0..n {
            tree.insert((10 * i, 0), &[1]);
        }
        let height = tree.height() as u64;
        assert!(height >= 3, "a leaf with two ancestors or more");
        let all = (FIRST_KEY, LAST_KEY);
        assert_eq!(tree.range_agg(&Sum, all.0, all.1), (Some(n as i64), n));
        let (before, splits) = (tree.stats().refolds, tree.stats().splits);
        // Five stragglers just behind the largest key: the rightmost leaf
        // takes them all without splitting.
        let last = 10 * (n - 1);
        for k in 1..=5 {
            tree.insert((last - k, k), &[1]);
        }
        assert_eq!(tree.stats().refolds, before, "inserts defer the repair");
        assert_eq!(tree.stats().splits, splits);
        tree.check_invariants(&Sum, &eq).expect("stale path");
        let total = (Some(n as i64 + 5), n + 5);
        assert_eq!(tree.range_agg(&Sum, all.0, all.1), total);
        assert_eq!(
            tree.stats().refolds,
            before + height,
            "the leaf and each ancestor once"
        );
        tree.check_range_read(&Sum, all.0, all.1, &eq)
            .expect("fresh after the read");
        assert_eq!(tree.range_agg(&Sum, all.0, all.1), total);
        assert_eq!(tree.stats().refolds, before + height, "nothing left stale");
    }

    /// Sum that counts every call that builds or combines a partial.
    #[derive(Default)]
    struct Counted {
        calls: std::cell::Cell<u64>,
    }
    impl FibaFold for Counted {
        type Val = i64;
        type Agg = i64;
        fn seed(&self, _: FibaKey, vals: &[i64]) -> i64 {
            self.calls.set(self.calls.get() + 1);
            vals[0]
        }
        fn combine(&self, acc: &mut i64, later: &i64) {
            self.calls.set(self.calls.get() + 1);
            *acc += later;
        }
        fn absorb(&self, acc: &mut i64, _: FibaKey, vals: &[i64]) {
            self.calls.set(self.calls.get() + 1);
            *acc += vals[0];
        }
    }

    /// Appends through leaf and root splits, near-finger stragglers, a
    /// straggler burst that splits a leaf mid-tree, and an eviction: none
    /// folds a partial. The next whole-tree query re-folds every stale node
    /// once, and the one after it folds nothing.
    fn writes_never_fold<const MIN: usize>() {
        let fold = Counted::default();
        let mut tree = FibaTree::<Counted, MIN>::new(1);
        let max = FibaTree::<Counted, MIN>::MAX as u64;
        let n = 2 * max * max;
        for i in 0..n {
            tree.insert((10 * i, 0), &[1]);
        }
        assert!(tree.height() >= 3, "root splits: height {}", tree.height());
        let last = 10 * (n - 1);
        for k in 1..=max {
            tree.insert((last - k % 10, k), &[1]);
        }
        let splits = tree.stats().splits;
        for k in 0..=max {
            tree.insert((10 * (n / 2) + 1, k), &[1]);
        }
        assert!(tree.stats().splits > splits, "a mid-tree leaf split");
        assert_eq!(tree.evict_before((10 * (n / 4), 0)), n / 4);
        assert_eq!(fold.calls.get(), 0, "a write folded a partial");
        assert_eq!(tree.stats().refolds, 0);
        let stale = tree.nodes.iter().filter(|node| node.stale).count() as u64;
        assert!(stale > 0);
        let total = n - n / 4 + 2 * max + 1;
        let all = (FIRST_KEY, LAST_KEY);
        assert_eq!(
            tree.range_agg(&fold, all.0, all.1),
            (Some(total as i64), total)
        );
        assert_eq!(tree.stats().refolds, stale, "each stale node once");
        assert!(tree.nodes.iter().all(|node| !node.stale));
        let calls = fold.calls.get();
        assert_eq!(
            tree.range_agg(&fold, all.0, all.1),
            (Some(total as i64), total)
        );
        assert_eq!(tree.stats().refolds, stale, "nothing left to re-fold");
        assert_eq!(fold.calls.get(), calls, "a fresh root answers alone");
    }

    #[test]
    fn an_insert_a_split_or_an_eviction_never_folds() {
        writes_never_fold::<4>();
        writes_never_fold::<MIN_FANOUT>();
    }

    #[test]
    fn appends_stay_near_the_right_finger() {
        let mut tree = FibaTree::<Sum>::new(1);
        for i in 0..4096u64 {
            tree.insert((i, 0), &[1]);
        }
        let s = tree.stats();
        // In-order appends should overwhelmingly resolve below the root once
        // the tree has any height.
        assert!(
            s.finger_short_climbs > s.root_climbs,
            "expected finger hits to dominate: {s:?}"
        );
    }
}
