//! A sorted multiset of floats with rank queries: the per-key index the
//! window operator answers Median/Quantile from (DESIGN.md §17.3).
//!
//! A value is stored as its order-preserving `u64` image ([`image`]): integer
//! order is `f64::total_cmp` order, and `total_cmp`-equal floats are
//! bit-identical, so equal images are the same float and ties need no
//! tie-break. The values live in sorted chunks of at most [`CHUNK`], each
//! allocated once at that size; a Fenwick tree over the chunk lengths turns a
//! position into a chunk and a chunk into the number of values before it, so
//! insert, remove, the value at a position and the rank of a value all cost
//! O(log m).

/// Most values a chunk holds. A full chunk splits in half before it takes
/// another value.
const CHUNK: usize = 64;

/// A chunk shorter than this merges into a neighbour that has room for it,
/// so `m` values never spread over more than about `m / 24` chunks.
const LOW: usize = CHUNK / 4;

/// The `u64` whose integer order is `x`'s place in `f64::total_cmp` order:
/// negative floats (sign bit set) have all their bits flipped, the others
/// only the sign bit.
pub(crate) fn image(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// The float [`image`] maps to `k`.
pub(crate) fn float(k: u64) -> f64 {
    f64::from_bits(if k >> 63 == 1 { k & !(1 << 63) } else { !k })
}

/// A sorted multiset of [`image`]s.
#[derive(Default)]
pub(crate) struct RankIndex {
    /// Non-empty chunks, each sorted and allocated for exactly [`CHUNK`]
    /// values; every value of a chunk is `<=` every value of the next.
    chunks: Vec<Vec<u64>>,
    /// Fenwick tree over the chunk lengths, 1-based: `sizes[k - 1]` sums the
    /// lengths of chunks `k - lowbit(k) .. k`.
    sizes: Vec<usize>,
    len: usize,
}

impl RankIndex {
    /// Values held.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Bytes allocated: the chunk list, every chunk at its capacity and the
    /// Fenwick tree.
    pub(crate) fn state_bytes(&self) -> usize {
        self.chunks.capacity() * size_of::<Vec<u64>>()
            + self.chunks.iter().map(Vec::capacity).sum::<usize>() * size_of::<u64>()
            + self.sizes.capacity() * size_of::<usize>()
    }

    /// Add one `x`.
    pub(crate) fn insert(&mut self, x: u64) {
        self.len += 1;
        // The first chunk whose last value reaches `x`, else the last one.
        let i = self
            .chunk_from(0, x, false)
            .min(self.chunks.len().saturating_sub(1));
        let Some(chunk) = self.chunks.get_mut(i) else {
            let mut first = Vec::with_capacity(CHUNK);
            first.push(x);
            self.chunks.push(first);
            self.rebuild();
            return;
        };
        if chunk.len() < CHUNK {
            let at = chunk.partition_point(|&y| y <= x);
            chunk.insert(at, x);
            self.resize(i, true);
            return;
        }
        let mut upper = Vec::with_capacity(CHUNK);
        upper.extend_from_slice(&chunk[CHUNK / 2..]);
        chunk.truncate(CHUNK / 2);
        let half = if upper.first().is_some_and(|&y| y <= x) {
            &mut upper
        } else {
            chunk
        };
        let at = half.partition_point(|&y| y <= x);
        half.insert(at, x);
        self.chunks.insert(i + 1, upper);
        self.rebuild();
    }

    /// Remove one `x`; `false` if there is none.
    pub(crate) fn remove(&mut self, x: u64) -> bool {
        let i = self.chunk_from(0, x, false);
        let Some(chunk) = self.chunks.get_mut(i) else {
            return false;
        };
        let at = chunk.partition_point(|&y| y < x);
        if chunk.get(at) != Some(&x) {
            return false;
        }
        chunk.remove(at);
        self.len -= 1;
        let n = chunk.len();
        if n == 0 {
            self.chunks.remove(i);
        } else if n >= LOW || !self.merge(i, n) {
            self.resize(i, false);
            return true;
        }
        self.rebuild();
        true
    }

    /// The value at position `p` of the sorted order.
    fn get(&self, p: usize) -> Option<u64> {
        let (i, at) = self.locate(p);
        self.chunks.get(i)?.get(at).copied()
    }

    /// The value at rank `r` of this multiset less `minus`, a sorted
    /// sub-multiset of it; `None` unless `r < len - minus.len()`.
    ///
    /// Removing `|minus|` values moves a rank up by at most that many
    /// positions, so the answer sits at one of the positions
    /// `r..=r + |minus|`: the first position `p` there with more than `r`
    /// values of the difference at or below `get(p)`. Binary search finds it
    /// in O(log |minus|) steps of O(log m) each.
    pub(crate) fn select_without(&self, r: usize, minus: &[u64]) -> Option<u64> {
        let (mut lo, mut hi) = (r, r + minus.len());
        if hi >= self.len {
            return None;
        }
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let (i, at) = self.locate(mid);
            let v = *self.chunks.get(i)?.get(at)?;
            let kept = self
                .count_le_from(i, v)
                .saturating_sub(minus.partition_point(|&y| y <= v));
            if kept > r {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        self.get(lo)
    }

    /// Every value in ascending order.
    #[cfg(test)]
    pub(crate) fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.chunks.iter().flatten().copied()
    }

    /// How many values are `<= x`, searching from chunk `i` on (every
    /// value of the chunks before `i` must be `<= x`).
    fn count_le_from(&self, i: usize, x: u64) -> usize {
        let j = self.chunk_from(i, x, true);
        let within = self
            .chunks
            .get(j)
            .map_or(0, |c| c.partition_point(|&y| y <= x));
        self.before(j) + within
    }

    /// The first chunk at or after `i` whose last value is `> x`
    /// (`inclusive`) or `>= x`; the chunk count if there is none. Chunk `i`
    /// is tried first: a select asks about a value it holds.
    fn chunk_from(&self, i: usize, x: u64, inclusive: bool) -> usize {
        let rest = self.chunks.get(i..).unwrap_or_default();
        let below = |c: &Vec<u64>| {
            c.last()
                .is_some_and(|&last| last < x || (inclusive && last == x))
        };
        if rest.first().is_some_and(|c| !below(c)) {
            return i;
        }
        i + rest.partition_point(below)
    }

    /// Merge chunk `i`, holding `n` values, into a neighbour with room for
    /// them; `false` if neither has room.
    fn merge(&mut self, i: usize, n: usize) -> bool {
        let fits = |j: usize| self.chunks.get(j).is_some_and(|c| c.len() + n <= CHUNK);
        let (keep, gone) = if fits(i + 1) {
            (i, i + 1)
        } else if i > 0 && fits(i - 1) {
            (i - 1, i)
        } else {
            return false;
        };
        let moved = self.chunks.remove(gone);
        if let Some(chunk) = self.chunks.get_mut(keep) {
            chunk.extend_from_slice(&moved);
        }
        true
    }

    /// Rebuild the Fenwick tree after the chunk list changed shape.
    fn rebuild(&mut self) {
        self.sizes.clear();
        self.sizes.extend(self.chunks.iter().map(Vec::len));
        for k in 1..=self.sizes.len() {
            let up = k + (k & k.wrapping_neg());
            let part = self.sizes.get(k - 1).copied().unwrap_or(0);
            if let Some(s) = self.sizes.get_mut(up - 1) {
                *s += part;
            }
        }
    }

    /// Chunk `i` grew or shrank by one value.
    fn resize(&mut self, i: usize, grew: bool) {
        let mut k = i + 1;
        while let Some(s) = self.sizes.get_mut(k - 1) {
            *s = if grew { *s + 1 } else { s.saturating_sub(1) };
            k += k & k.wrapping_neg();
        }
    }

    /// Values in the chunks before chunk `i`.
    fn before(&self, i: usize) -> usize {
        let (mut k, mut sum) = (i.min(self.sizes.len()), 0);
        while k > 0 {
            sum += self.sizes.get(k - 1).copied().unwrap_or(0);
            k &= k - 1;
        }
        sum
    }

    /// The chunk holding position `p` and `p`'s offset in it (the chunk
    /// count if `p >= len`).
    fn locate(&self, mut p: usize) -> (usize, usize) {
        let mut k = 0;
        let mut step = self.sizes.len().checked_ilog2().map_or(0, |b| 1 << b);
        while step > 0 {
            if let Some(&s) = self.sizes.get(k + step - 1) {
                if s <= p {
                    k += step;
                    p -= s;
                }
            }
            step >>= 1;
        }
        (k, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small deterministic generator (xorshift), so the tests need no RNG
    /// crate.
    fn stream(mut s: u64, n: usize, range: u64) -> Vec<u64> {
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s % range
            })
            .collect()
    }

    fn check(index: &RankIndex, model: &[u64]) {
        assert_eq!(index.len(), model.len());
        assert!(index.iter().eq(model.iter().copied()));
        assert!(index
            .chunks
            .iter()
            .all(|c| !c.is_empty() && c.capacity() == CHUNK));
        for (i, &v) in model.iter().enumerate() {
            assert_eq!(index.get(i), Some(v), "position {i}");
        }
        assert_eq!(index.get(model.len()), None);
        for x in [0, 1, 50, 99, 100, u64::MAX] {
            let want = model.partition_point(|&y| y <= x);
            assert_eq!(index.count_le_from(0, x), want, "count_le({x})");
        }
    }

    #[test]
    fn image_is_total_cmp_order_and_round_trips() {
        let floats = [
            -f64::NAN,
            f64::NEG_INFINITY,
            -1e300,
            -1.0,
            -5e-324,
            -0.0,
            0.0,
            5e-324,
            1.0,
            i64::MAX as f64,
            f64::INFINITY,
            f64::NAN,
        ];
        for a in floats {
            assert_eq!(float(image(a)).to_bits(), a.to_bits());
            for b in floats {
                assert_eq!(image(a).cmp(&image(b)), a.total_cmp(&b), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn follows_a_sorted_vec_through_splits_merges_and_ties() {
        // Narrow ranges make long runs of ties across chunk boundaries.
        for (seed, range) in [(7, 10), (11, 100), (13, 1 << 40)] {
            let mut index = RankIndex::default();
            let mut model: Vec<u64> = Vec::new();
            let ops = stream(seed, 4_000, range);
            for (n, &x) in ops.iter().enumerate() {
                // Grow to ~1 500 values, then shrink to empty: every split,
                // merge and chunk removal path runs.
                if n < 2_000 || n % 4 == 0 {
                    index.insert(x);
                    let at = model.partition_point(|&y| y <= x);
                    model.insert(at, x);
                } else {
                    let present = model.binary_search(&x).is_ok();
                    assert_eq!(index.remove(x), present);
                    if present {
                        let at = model.partition_point(|&y| y < x);
                        model.remove(at);
                    }
                    if let Some(&y) = model.get(n % model.len().max(1)) {
                        assert!(index.remove(y));
                        let at = model.partition_point(|&z| z < y);
                        model.remove(at);
                    }
                }
                if n % 97 == 0 {
                    check(&index, &model);
                }
            }
            check(&index, &model);
            for y in std::mem::take(&mut model) {
                assert!(index.remove(y));
            }
            check(&index, &model);
            assert!(index.chunks.is_empty());
        }
    }

    #[test]
    fn select_without_is_the_rank_of_the_difference() {
        for (seed, range) in [(3, 8), (5, 1_000)] {
            let values = stream(seed, 700, range);
            let mut index = RankIndex::default();
            values.iter().for_each(|&x| index.insert(x));
            // `minus`: every k-th value, for several k, sorted.
            for k in [1, 2, 5, 50, 701] {
                let mut minus: Vec<u64> = values.iter().copied().step_by(k).collect();
                minus.sort_unstable();
                let mut kept: Vec<u64> = values.clone();
                kept.sort_unstable();
                for y in &minus {
                    let at = kept.partition_point(|z| z < y);
                    kept.remove(at);
                }
                for (r, &want) in kept.iter().enumerate() {
                    assert_eq!(
                        index.select_without(r, &minus),
                        Some(want),
                        "k {k} rank {r}"
                    );
                }
                assert_eq!(index.select_without(kept.len(), &minus), None);
            }
        }
    }

    #[test]
    fn an_empty_index_answers_nothing() {
        let mut index = RankIndex::default();
        assert!(!index.remove(3));
        assert_eq!((index.get(0), index.select_without(0, &[])), (None, None));
        assert_eq!((index.len(), index.state_bytes()), (0, 0));
        index.insert(3);
        assert_eq!(index.select_without(0, &[]), Some(3));
        assert_eq!(index.select_without(0, &[3]), None);
    }
}
