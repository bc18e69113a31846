//! Structural-invariant fuzz for the finger B-tree aggregator.
//!
//! A seeded operation fuzz drives `FibaTree` through adversarial insert /
//! bulk-evict mixes (appends, prepends, tie storms, deep stragglers,
//! uniform noise, the regimes of the right-finger append path: long runs,
//! ties at the finger, appends onto a just-emptied tree, and fold-on-read's:
//! straggler bursts between range queries and evictions) and calls
//! [`FibaTree::check_invariants`] after **every** mutation: B-tree arity
//! bounds, finger validity, subtree counts and ranges, the stale-closure
//! rule and every fresh partial against a re-fold. Every range query is
//! followed by [`FibaTree::check_range_read`]: each cache it read is fresh
//! and exact. A flat mirror vector checks the observable behaviour (length,
//! order, range aggregates, range visits, first-key search) so a
//! structurally valid but semantically wrong tree cannot pass. A second
//! fuzz feeds two trees the same writes over a float sum whose rounding
//! depends on grouping and queries one of them far more often: their
//! answers must agree bit for bit.
//!
//! Every test runs at two fan-outs: [`DEEP`], where a few hundred entries
//! make a 4–5 level tree and root splits and multi-level repairs are routine,
//! and the production [`MIN_FANOUT`], where the same runs build 2-level trees.
//!
//! This suite runs in the CI `sim` job alongside the quill-sim
//! differential battery.

use quill_engine::fiba::{FibaFold, FibaKey, FibaTree, MIN_FANOUT};

/// The small fan-out of the two every test runs at: deep trees.
const DEEP: usize = 4;

/// Exact (wrapping) integer sum of one-value entries: parent
/// partial-aggregate consistency is checked with `==`, so the fold must be
/// associative and drift-free.
struct Sum;

impl FibaFold for Sum {
    type Val = u64;
    type Agg = u64;
    fn seed(&self, _: FibaKey, vals: &[u64]) -> u64 {
        vals[0]
    }
    fn combine(&self, acc: &mut u64, later: &u64) {
        *acc = acc.wrapping_add(*later);
    }
}

/// Tiny deterministic RNG (xorshift64*), independent of any external crate
/// state so failures reproduce from the seed alone.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

/// Flat mirror of the tree: `(key, weight)` in stable key order.
struct Mirror {
    entries: Vec<((u64, u64), u64)>,
}

impl Mirror {
    fn insert(&mut self, key: (u64, u64), w: u64) {
        let at = self.entries.partition_point(|(k, _)| *k <= key);
        self.entries.insert(at, (key, w));
    }

    fn evict_before(&mut self, cut: (u64, u64)) -> u64 {
        let before = self.entries.len();
        self.entries.retain(|(k, _)| *k >= cut);
        (before - self.entries.len()) as u64
    }

    fn range_sum(&self, lo: (u64, u64), hi: (u64, u64)) -> (Option<u64>, u64) {
        let mut acc: Option<u64> = None;
        let mut n = 0u64;
        for (k, w) in &self.entries {
            if *k >= lo && *k <= hi {
                n += 1;
                acc = Some(acc.unwrap_or(0).wrapping_add(*w));
            }
        }
        (acc, n)
    }
}

/// A tree and its mirror, driven in lockstep: every mutation re-checks the
/// structural invariants and the length, every probe compares the range
/// aggregate, the in-order range visit and the first-key search.
struct Harness<const MIN: usize> {
    tree: FibaTree<Sum, MIN>,
    mirror: Mirror,
    rng: XorShift,
    seed: u64,
    seq: u64,
    step: usize,
    /// Re-check the structural invariants every this many steps.
    check_every: usize,
}

impl<const MIN: usize> Harness<MIN> {
    fn new(seed: u64) -> Self {
        Harness {
            tree: FibaTree::new(1),
            mirror: Mirror {
                entries: Vec::new(),
            },
            rng: XorShift(seed | 1),
            seed,
            seq: 0,
            step: 0,
            check_every: 1,
        }
    }

    fn min_ts(&self) -> u64 {
        self.mirror.entries.first().map_or(0, |(k, _)| k.0)
    }

    fn max_ts(&self) -> u64 {
        self.mirror.entries.last().map_or(0, |(k, _)| k.0)
    }

    fn checked(&mut self, what: &str) {
        let (seed, step) = (self.seed, self.step);
        if step.is_multiple_of(self.check_every) {
            if let Err(e) = self.tree.check_invariants(&Sum, &|a, b| a == b) {
                panic!("seed {seed} step {step} after {what}: {e}");
            }
        }
        assert_eq!(
            self.tree.len(),
            self.mirror.entries.len() as u64,
            "seed {seed} step {step}: length diverged after {what}"
        );
        self.step += 1;
    }

    /// Insert at `ts` under the next sequence number.
    fn insert(&mut self, ts: u64) {
        self.seq += 1;
        self.insert_key((ts, self.seq));
    }

    fn insert_key(&mut self, key: (u64, u64)) {
        let w = self.rng.next() % 1_000;
        self.tree.insert(key, &[w]);
        self.mirror.insert(key, w);
        self.checked("insert");
    }

    fn evict(&mut self, cut: (u64, u64)) {
        let (seed, step) = (self.seed, self.step);
        assert_eq!(
            self.tree.evict_before(cut),
            self.mirror.evict_before(cut),
            "seed {seed} step {step}: eviction count diverged at cut {cut:?}"
        );
        self.checked("evict_before");
    }

    fn probe(&mut self, lo: (u64, u64), hi: (u64, u64)) {
        let at = format!("seed {} step {}", self.seed, self.step);
        let (got, got_n) = self.tree.range_agg(&Sum, lo, hi);
        let (want, want_n) = self.mirror.range_sum(lo, hi);
        assert_eq!(got, want, "{at}: range_agg");
        assert_eq!(got_n, want_n, "{at}: range count");
        if let Err(e) = self.tree.check_range_read(&Sum, lo, hi, &|a, b| a == b) {
            panic!("{at}: after range_agg: {e}");
        }
        let mut walked = Vec::new();
        self.tree
            .for_each_range(lo, hi, &mut |k, vals| walked.push((k, vals[0])));
        let inside = |(k, _): &&((u64, u64), u64)| *k >= lo && *k <= hi;
        let want: Vec<_> = self.mirror.entries.iter().filter(inside).copied().collect();
        assert_eq!(walked, want, "{at}: for_each_range");
        assert_eq!(
            self.tree.first_key_from(lo),
            self.mirror
                .entries
                .iter()
                .map(|(k, _)| *k)
                .find(|k| *k >= lo),
            "{at}: first_key_from"
        );
        self.step += 1;
    }

    /// A random range over (and a little beyond) the live span.
    fn probe_somewhere(&mut self) {
        let lo_ts = self.min_ts() + self.rng.next() % (self.max_ts() - self.min_ts() + 5);
        let hi_ts = lo_ts + self.rng.next() % 60;
        self.probe((lo_ts, 0), (hi_ts, u64::MAX));
    }

    /// End-state: traversal order and the full-range aggregate must match
    /// the mirror exactly.
    fn finish(self) {
        let Harness {
            mut tree,
            mirror,
            seed,
            ..
        } = self;
        let mut walked = Vec::new();
        tree.for_each(&mut |k, vals| walked.push((k, vals[0])));
        assert_eq!(walked, mirror.entries, "seed {seed}: final traversal order");
        let (total, n) = tree.range_agg(&Sum, (0, 0), (u64::MAX, u64::MAX));
        let (want_total, want_n) = mirror.range_sum((0, 0), (u64::MAX, u64::MAX));
        assert_eq!(total, want_total, "seed {seed}: final total");
        assert_eq!(n, want_n, "seed {seed}: final count");
        assert_eq!(tree.min_key(), mirror.entries.first().map(|(k, _)| *k));
        assert_eq!(tree.max_key(), mirror.entries.last().map(|(k, _)| *k));
    }
}

/// The general mix: appends, prepends, tie storms, deep stragglers and
/// uniform noise against random-rank evictions and probes.
fn fuzz_one_seed<const MIN: usize>(seed: u64, steps: usize) {
    let mut h = Harness::<MIN>::new(seed);
    while h.step < steps {
        let roll = h.rng.next() % 100;
        let (min_ts, max_ts) = (h.min_ts(), h.max_ts());
        if roll < 70 || h.tree.is_empty() {
            // Insert, with the ts drawn from one of five adversarial
            // regimes chosen per step.
            let ts = match h.rng.next() % 5 {
                // In-order append near the right finger.
                0 => max_ts + h.rng.next() % 3,
                // Prepend near the left finger.
                1 => min_ts.saturating_sub(h.rng.next() % 3),
                // Tie storm: reuse an existing timestamp exactly.
                2 if !h.mirror.entries.is_empty() => {
                    let at = (h.rng.next() % h.mirror.entries.len() as u64) as usize;
                    h.mirror.entries[at].0 .0
                }
                // Deep straggler: far behind the current maximum.
                3 => max_ts.saturating_sub(50 + h.rng.next() % 200),
                // Uniform noise over the live span.
                _ => min_ts + h.rng.next() % (max_ts - min_ts + 10),
            };
            h.insert(ts);
        } else if roll < 85 {
            // Bulk eviction at a random rank's key (plus occasionally past
            // the end, which must empty the tree).
            let cut = if h.rng.next().is_multiple_of(8) {
                (max_ts + 1, 0)
            } else {
                let at = (h.rng.next() % h.mirror.entries.len() as u64) as usize;
                h.mirror.entries[at].0
            };
            h.evict(cut);
        } else {
            h.probe_somewhere();
        }
    }
    h.finish();
}

/// The regimes that live on the append path: long in-order runs (timestamp
/// ties and exact duplicates of the largest key included) broken by single
/// stragglers, and evictions that leave the right finger nearly or wholly
/// empty straight before the next append.
fn fuzz_append_path<const MIN: usize>(seed: u64, steps: usize) {
    let mut h = Harness::<MIN>::new(seed);
    while h.step < steps {
        match h.rng.next() % 10 {
            // An append run; every third key or so ties with the finger.
            0..=5 => {
                for _ in 0..1 + h.rng.next() % 40 {
                    let ts = h.max_ts() + h.rng.next() % 3 / 2;
                    h.insert(ts);
                }
            }
            // The largest key again, bit for bit: `key == hi`.
            6 => {
                if let Some(&(key, _)) = h.mirror.entries.last() {
                    h.insert_key(key);
                }
            }
            // One straggler somewhere behind, then straight back to appends.
            7 => {
                let depth = h.rng.next() % (h.max_ts() - h.min_ts() + 1);
                h.insert(h.max_ts() - depth);
            }
            // Evict down to the last few entries, to the largest key alone
            // (with its ties), or everything; append at once.
            8 => {
                let cut = match h.rng.next() % 3 {
                    0 => (h.max_ts() + 1, 0),
                    1 => (h.max_ts(), 0),
                    _ => {
                        let keep = 1 + (h.rng.next() % 12) as usize;
                        let at = h.mirror.entries.len().saturating_sub(keep);
                        h.mirror.entries.get(at).map_or((0, 0), |(k, _)| *k)
                    }
                };
                h.evict(cut);
                let ts = h.max_ts().max(cut.0) + h.rng.next() % 2;
                h.insert(ts);
            }
            _ => h.probe_somewhere(),
        }
    }
    h.finish();
}

/// Fold-on-read's regime: bursts of stragglers into one region of a
/// standing tree (each leaves its leaf-to-root path stale), queries that
/// read some of the stale caches and not others, a few appends onto stale
/// spines, and evictions that cut through stale subtrees.
fn fuzz_query_stragglers<const MIN: usize>(seed: u64, steps: usize) {
    let mut h = Harness::<MIN>::new(seed);
    for ts in 0..40 * MIN as u64 {
        h.insert(2 * ts);
    }
    while h.step < steps {
        let (min_ts, max_ts) = (h.min_ts(), h.max_ts());
        let span = max_ts - min_ts + 1;
        let at = min_ts + h.rng.next() % span;
        for _ in 0..1 + h.rng.next() % 8 {
            let ts = at + h.rng.next() % (MIN as u64);
            h.insert(ts.min(max_ts));
        }
        match h.rng.next() % 6 {
            // The whole tree: every stale cache is read.
            0 => h.probe((0, 0), (u64::MAX, u64::MAX)),
            // A window around the burst, or anywhere.
            1 | 2 => {
                let lo = at.saturating_sub(h.rng.next() % span);
                let hi = at + h.rng.next() % span;
                h.probe((lo, 0), (hi, u64::MAX));
            }
            3 => h.probe_somewhere(),
            // Appends onto a possibly stale right spine.
            4 => {
                for _ in 0..1 + h.rng.next() % (2 * MIN as u64) {
                    let ts = h.max_ts() + h.rng.next() % 3;
                    h.insert(ts);
                }
            }
            // A slide: cut somewhere in the oldest quarter.
            _ => {
                let cut = min_ts + h.rng.next() % (span / 4 + 1);
                h.evict((cut, 0));
                if h.tree.is_empty() {
                    h.insert(cut);
                }
            }
        }
    }
    h.finish();
}

/// The pinned seeds, plus `QUILL_FIBA_FUZZ_SEEDS` derived ones (the
/// `scripts/check.sh` soak sets it; plain `cargo test` runs the pinned six).
fn seeds() -> impl Iterator<Item = u64> {
    let extra = std::env::var("QUILL_FIBA_FUZZ_SEEDS")
        .ok()
        .and_then(|n| n.parse::<u64>().ok())
        .unwrap_or(0);
    let pinned = [
        0x5eed_0001,
        0x5eed_0002,
        0xdead_beef,
        0x0bad_cafe,
        0x1234_5678,
        0xfeed_f00d,
    ];
    let derived = (0..extra).map(|i| 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i + 1));
    pinned.into_iter().chain(derived)
}

#[test]
fn invariants_hold_after_every_mutation_across_seeds() {
    for seed in seeds() {
        fuzz_one_seed::<DEEP>(seed, 3_000);
        fuzz_one_seed::<MIN_FANOUT>(seed, 3_000);
    }
}

#[test]
fn append_path_holds_invariants_through_runs_ties_stragglers_and_evictions() {
    for seed in seeds() {
        fuzz_append_path::<DEEP>(seed, 3_000);
        fuzz_append_path::<MIN_FANOUT>(seed, 3_000);
    }
}

#[test]
fn deferred_repair_holds_invariants_through_queries_stragglers_and_evictions() {
    for seed in seeds() {
        fuzz_query_stragglers::<DEEP>(seed, 3_000);
        fuzz_query_stragglers::<MIN_FANOUT>(seed, 3_000);
    }
}

/// f64 sum: how partials are grouped decides the rounding (`1e16 + 1.0`
/// loses the `1.0`, `1.0 + 1.0 + 1e16` does not), so two trees agree bit for
/// bit only where their caches nest alike.
struct FloatSum;

impl FibaFold for FloatSum {
    type Val = f64;
    type Agg = f64;
    fn seed(&self, _: FibaKey, vals: &[f64]) -> f64 {
        vals[0]
    }
    fn combine(&self, acc: &mut f64, later: &f64) {
        *acc += later;
    }
}

/// Two trees fed the same appends, near and deep stragglers and evictions:
/// one answers a range query after every operation, the other only at the
/// checkpoints, where both answer the same queries and must agree bit for
/// bit. A cache's nesting may depend on the tree's shape, never on when it
/// was read.
fn read_timing_cannot_change_a_result<const MIN: usize>(seed: u64, steps: usize) {
    const VALUES: [f64; 6] = [1.0e16, 1.0, -1.0e16, 0.1, 3.0, -1.0];
    let mut rng = XorShift(seed | 1);
    let mut often: FibaTree<FloatSum, MIN> = FibaTree::new(1);
    let mut seldom: FibaTree<FloatSum, MIN> = FibaTree::new(1);
    let (mut seq, mut floor) = (0u64, 0u64);
    let bits = |(agg, n): (Option<f64>, u64)| (agg.map(f64::to_bits), n);
    for step in 0..steps {
        let min_ts = often.min_key().map_or(floor, |k| k.0);
        let max_ts = often.max_key().map_or(floor, |k| k.0);
        let span = max_ts - min_ts + 1;
        let roll = rng.next() % 10;
        if roll < 8 {
            let ts = match roll {
                0..=4 => max_ts + rng.next() % 3,
                5 | 6 => max_ts.saturating_sub(rng.next() % 8).max(min_ts),
                _ => min_ts + rng.next() % span,
            };
            let v = VALUES[(rng.next() % VALUES.len() as u64) as usize];
            seq += 1;
            often.insert((ts, seq), &[v]);
            seldom.insert((ts, seq), &[v]);
        } else if roll == 8 {
            floor = min_ts + rng.next() % (span / 4 + 1);
            assert_eq!(
                often.evict_before((floor, 0)),
                seldom.evict_before((floor, 0))
            );
        }
        let ranges = [
            (0, u64::MAX),
            (min_ts + rng.next() % span, max_ts),
            (min_ts, min_ts + rng.next() % span),
        ];
        if roll == 9 || step + 1 == steps {
            for (lo, hi) in ranges {
                let (lo, hi) = ((lo, 0), (hi, u64::MAX));
                assert_eq!(
                    bits(often.range_agg(&FloatSum, lo, hi)),
                    bits(seldom.range_agg(&FloatSum, lo, hi)),
                    "seed {seed} step {step} fan-out {MIN}: [{lo:?}, {hi:?}]"
                );
            }
        } else {
            let (lo, hi) = ranges[(rng.next() % 3) as usize];
            often.range_agg(&FloatSum, (lo, 0), (hi, u64::MAX));
        }
    }
}

#[test]
fn read_timing_cannot_change_a_float_result() {
    for seed in seeds() {
        read_timing_cannot_change_a_result::<DEEP>(seed, 3_000);
        read_timing_cannot_change_a_result::<MIN_FANOUT>(seed, 3_000);
    }
}

/// Nothing but appends: every split is a right-spine split, and each new
/// level is a root split that must leave both fingers, every count and key
/// range exact and every cache a later query reads exact. The run is sized
/// in the fan-out: a full leaf hands on one entry, so leaves hold `2 * MIN`;
/// an internal node hands on half its children, so once there is a third
/// level its root gains a child per `MIN` leaves and splits at `2 * MIN + 1`
/// — a fourth level after about `2 * MIN * (2 * MIN * MIN + MIN)` appends.
/// Invariants (a re-fold of every subtree) are checked every mutation on the
/// deep tree and every sixteenth on the wide one, whose run is 64 times longer.
fn append_only_growth<const MIN: usize>() {
    let mut h = Harness::<MIN>::new(0xa99e_11d5);
    h.check_every = MIN * MIN / 16;
    let mut heights = vec![h.tree.height()];
    for i in 0..5 * (MIN as u64).pow(3) {
        h.insert(i / 2);
        if h.tree.height() != *heights.last().expect("seeded") {
            heights.push(h.tree.height());
            h.probe((0, 0), (u64::MAX, u64::MAX));
            h.probe((i / 4, 0), (i / 3, u64::MAX));
        }
    }
    assert!(heights.len() >= 4, "three root splits or more: {heights:?}");
    assert_eq!(
        h.tree.stats().root_climbs,
        0,
        "no append climbs to the root"
    );
    h.check_every = 1;
    h.checked("the last append");
    h.finish();
}

#[test]
fn append_only_growth_holds_invariants_across_root_splits() {
    append_only_growth::<DEEP>();
    append_only_growth::<MIN_FANOUT>();
}

/// Degenerate regimes that stress one spine at a time: the finger fast-path
/// must stay valid while the opposite spine goes stale-cold.
fn pure_append_and_pure_prepend<const MIN: usize>() {
    let mut tree: FibaTree<Sum, MIN> = FibaTree::new(1);
    for i in 0..2_000u64 {
        tree.insert((i, i), &[i]);
        if i % 97 == 0 {
            tree.check_invariants(&Sum, &|a, b| a == b)
                .unwrap_or_else(|e| panic!("append step {i}: {e}"));
        }
    }
    tree.check_invariants(&Sum, &|a, b| a == b)
        .expect("after appends");
    let appends_cheap = tree.stats().finger_short_climbs;
    assert!(
        appends_cheap > 1_500,
        "appends should overwhelmingly take the finger fast path, got {appends_cheap}"
    );

    let mut tree: FibaTree<Sum, MIN> = FibaTree::new(1);
    for i in 0..2_000u64 {
        tree.insert((u64::MAX - i, i), &[i]);
        if i % 97 == 0 {
            tree.check_invariants(&Sum, &|a, b| a == b)
                .unwrap_or_else(|e| panic!("prepend step {i}: {e}"));
        }
    }
    tree.check_invariants(&Sum, &|a, b| a == b)
        .expect("after prepends");
}

#[test]
fn pure_append_and_pure_prepend_keep_fingers_valid() {
    pure_append_and_pure_prepend::<DEEP>();
    pure_append_and_pure_prepend::<MIN_FANOUT>();
}

/// Arena reuse under churn: grow to ~1k entries, evict ~90%, repeat. Heights
/// must stay logarithmic (`max_height` for ~1 100 entries at this fan-out)
/// and invariants must hold at every boundary.
fn grow_shrink_cycles<const MIN: usize>(max_height: usize) {
    let mut tree: FibaTree<Sum, MIN> = FibaTree::new(1);
    let mut rng = XorShift(0xc0ff_ee00_c0ff_ee01);
    let mut seq = 0u64;
    let mut low = 0u64;
    for cycle in 0..20 {
        for _ in 0..1_000 {
            let ts = low + rng.next() % 500;
            tree.insert((ts, seq), &[1]);
            seq += 1;
        }
        tree.check_invariants(&Sum, &|a, b| a == b)
            .unwrap_or_else(|e| panic!("cycle {cycle} after growth: {e}"));
        assert!(
            tree.height() <= max_height,
            "cycle {cycle}: height {} is not logarithmic for {} entries",
            tree.height(),
            tree.len()
        );
        low += 450;
        tree.evict_before((low, 0));
        tree.check_invariants(&Sum, &|a, b| a == b)
            .unwrap_or_else(|e| panic!("cycle {cycle} after eviction: {e}"));
    }
    let (total, n) = tree.range_agg(&Sum, (0, 0), (u64::MAX, u64::MAX));
    assert_eq!(total, Some(n), "unit weights must sum to the count");
}

#[test]
fn repeated_grow_shrink_cycles_do_not_degrade_structure() {
    grow_shrink_cycles::<DEEP>(7);
    grow_shrink_cycles::<MIN_FANOUT>(4);
}
