//! FiBA aggregator property battery.
//!
//! Three layers of differential evidence for the finger B-tree aggregator
//! and the window operator built on it:
//!
//! 1. **Structure vs. a naive sorted-Vec model** — random interleavings of
//!    in-order / out-of-order inserts, bulk evictions and range queries are
//!    replayed against a flat sorted vector, at a small fan-out (deep trees)
//!    and the production one. The fold is order-*recording* (concatenation),
//!    so a matching range aggregate proves both membership and left-to-right
//!    combine order, not just a commutative summary.
//! 2. **Operator-level differential across all 14 aggregate kinds** — the
//!    operator against the naive per-window reference in `common` on
//!    scrambled streams with deep stragglers, exact for every kind except
//!    the non-associative float reductions (Sum/Mean/Variance/StdDev over
//!    arbitrary floats), which are gated on the tolerance rule documented in
//!    DESIGN.md §17.4. `LatePolicy::Revise` is held to the same reference:
//!    with unbounded lateness the last revision of every window must equal
//!    the full-information answer, and every revision of an order-statistic
//!    window the fold of what had arrived by then.
//! 3. **Order statistics from the time tree** — Median/Quantile/DistinctCount
//!    sharing a field with each other and with combinable kinds, and over
//!    NaN, `-0.0`, infinities, non-numeric and null values, bit for bit
//!    against the same fold; one tree insert per accepted event throughout.

mod common;

use proptest::prelude::*;
use quill_engine::aggregate::{AggregateKind, AggregateSpec};
use quill_engine::fiba::{FibaFold, FibaKey, FibaTree, MIN_FANOUT};
use quill_engine::operator::{
    LatePolicy, Operator, WindowAggregateOp, WindowOpStats, WindowResult,
};
use quill_engine::prelude::*;
use quill_engine::value::Key;
use std::collections::BTreeMap;

// ---------------------------------------------------------------------------
// Layer 1: FibaTree vs. a naive sorted-Vec model
// ---------------------------------------------------------------------------

/// Order-recording fold: an entry stores its own key as two values, a partial
/// is the list of keys it covers and combining concatenates, so the subtree
/// caches are only consistent if every node combines its children strictly
/// left-to-right and every entry's values stay with its key. Any mis-ordered
/// repair, stale cache, wrong routing or slipped value stride shows up as a
/// permuted (not merely different) aggregate.
struct Trace;

impl FibaFold for Trace {
    type Val = u64;
    type Agg = Vec<FibaKey>;
    fn seed(&self, key: FibaKey, vals: &[u64]) -> Vec<FibaKey> {
        assert_eq!(vals, [key.0, key.1], "an entry's values moved with its key");
        vec![key]
    }
    fn combine(&self, acc: &mut Vec<FibaKey>, later: &Vec<FibaKey>) {
        acc.extend_from_slice(later);
    }
}

/// The reference model: a flat vector of keys in stable `(ts, seq)` order
/// with the same insert tie-breaking as the tree (new entries go after
/// equals).
#[derive(Default)]
struct Model {
    entries: Vec<FibaKey>,
}

impl Model {
    fn insert(&mut self, key: FibaKey) {
        let at = self.entries.partition_point(|k| *k <= key);
        self.entries.insert(at, key);
    }

    fn range(&self, lo: FibaKey, hi: FibaKey) -> Vec<FibaKey> {
        let inside = |k: &&FibaKey| **k >= lo && **k <= hi;
        self.entries.iter().filter(inside).copied().collect()
    }

    fn range_agg(&self, lo: FibaKey, hi: FibaKey) -> (Option<Vec<FibaKey>>, u64) {
        let inside = self.range(lo, hi);
        let n = inside.len() as u64;
        (Some(inside).filter(|_| n > 0), n)
    }

    fn evict_before(&mut self, cut: FibaKey) -> u64 {
        let before = self.entries.len();
        self.entries.retain(|k| *k >= cut);
        (before - self.entries.len()) as u64
    }
}

#[derive(Debug, Clone)]
enum TreeOp {
    /// Insert at this timestamp (seq is assigned monotonically at replay, so
    /// equal timestamps are tie-dense but stably ordered).
    Insert(u64),
    /// Bulk-evict everything strictly below `(cut, 0)`.
    Evict(u64),
    /// Inclusive range aggregate + count, in-order visit and first key over
    /// `[lo, lo + span]`.
    Range(u64, u64),
}

fn tree_ops() -> impl Strategy<Value = Vec<TreeOp>> {
    // Timestamps on a narrow band so ties and out-of-order inserts are the
    // common case, not the exception. The insert arm is repeated to bias
    // the uniform union toward growth.
    let op = prop_oneof![
        (0u64..64).prop_map(TreeOp::Insert),
        (0u64..64).prop_map(TreeOp::Insert),
        (0u64..64).prop_map(TreeOp::Insert),
        (0u64..64).prop_map(TreeOp::Insert),
        (0u64..64).prop_map(TreeOp::Insert),
        (0u64..64).prop_map(TreeOp::Evict),
        (0u64..64, 0u64..32).prop_map(|(lo, span)| TreeOp::Range(lo, span)),
        (0u64..64, 0u64..32).prop_map(|(lo, span)| TreeOp::Range(lo, span)),
    ];
    proptest::collection::vec(op, 1..250)
}

/// Cases per property: the pinned count, or `PROPTEST_CASES` when set
/// (`scripts/check.sh` soaks this suite with 2 000).
fn cases(pinned: u32) -> ProptestConfig {
    let soak = std::env::var("PROPTEST_CASES").ok();
    ProptestConfig::with_cases(soak.and_then(|n| n.parse().ok()).unwrap_or(pinned))
}

/// Replay `ops` against a tree of minimum fan-out `MIN` and the model.
fn replay_against_model<const MIN: usize>(ops: &[TreeOp]) -> Result<(), TestCaseError> {
    let mut tree: FibaTree<Trace, MIN> = FibaTree::new(2);
    let mut model = Model::default();
    let mut seq = 0u64;
    let mut evicted_total = 0u64;
    for op in ops {
        match *op {
            TreeOp::Insert(ts) => {
                let key = (ts, seq);
                seq += 1;
                tree.insert(key, &[ts, key.1]);
                model.insert(key);
            }
            TreeOp::Evict(cut) => {
                let dropped = tree.evict_before((cut, 0));
                prop_assert_eq!(dropped, model.evict_before((cut, 0)));
                evicted_total += dropped;
            }
            TreeOp::Range(lo, span) => {
                let (lo, hi) = ((lo, 0), (lo + span, u64::MAX));
                prop_assert_eq!(tree.range_agg(&Trace, lo, hi), model.range_agg(lo, hi));
                tree.check_range_read(&Trace, lo, hi, &|a, b| a == b)
                    .expect("the caches a range query read are fresh and exact");
                tree.check_invariants(&Trace, &|a, b| a == b)
                    .expect("structural invariants after a range query");
                let mut walked = Vec::new();
                tree.for_each_range(lo, hi, &mut |k, vals| {
                    assert_eq!(vals, [k.0, k.1]);
                    walked.push(k)
                });
                prop_assert_eq!(walked, model.range(lo, hi));
                let from = model.entries.iter().copied().find(|k| *k >= lo);
                prop_assert_eq!(tree.first_key_from(lo), from);
            }
        }
        prop_assert_eq!(tree.len(), model.entries.len() as u64);
    }
    // Exhaustive end-state checks: traversal order, the full range,
    // min/max, eviction accounting, and structural invariants.
    let mut walked = Vec::new();
    tree.for_each(&mut |k, _| walked.push(k));
    prop_assert_eq!(&walked, &model.entries);
    let everything = ((0, 0), (u64::MAX, u64::MAX));
    let full = tree.range_agg(&Trace, everything.0, everything.1);
    prop_assert_eq!(full, model.range_agg(everything.0, everything.1));
    prop_assert_eq!(tree.min_key(), model.entries.first().copied());
    prop_assert_eq!(tree.max_key(), model.entries.last().copied());
    prop_assert_eq!(tree.stats().evicted, evicted_total);
    tree.check_invariants(&Trace, &|a, b| a == b)
        .expect("structural invariants");
    Ok(())
}

proptest! {
    #![proptest_config(cases(48))]
    #[test]
    fn tree_matches_sorted_vec_model_under_random_interleavings(ops in tree_ops()) {
        // A deep tree (up to 250 entries at fan-out 4–8: four levels) and the
        // production one (two).
        replay_against_model::<4>(&ops)?;
        replay_against_model::<MIN_FANOUT>(&ops)?;
    }
}

// ---------------------------------------------------------------------------
// Layer 2: operator-level differential across all 14 aggregate kinds
// ---------------------------------------------------------------------------

/// All 14 aggregate kinds over field 1, with field 2 as the Arg* companion.
fn all_kinds() -> Vec<AggregateSpec> {
    vec![
        AggregateSpec::new(AggregateKind::Count, 1, "count"),
        AggregateSpec::new(AggregateKind::Sum, 1, "sum"),
        AggregateSpec::new(AggregateKind::Mean, 1, "mean"),
        AggregateSpec::new(AggregateKind::Min, 1, "min"),
        AggregateSpec::new(AggregateKind::Max, 1, "max"),
        AggregateSpec::new(AggregateKind::StdDev, 1, "stddev"),
        AggregateSpec::new(AggregateKind::Variance, 1, "var"),
        AggregateSpec::new(AggregateKind::Median, 1, "median"),
        AggregateSpec::new(AggregateKind::Quantile(0.25), 1, "q25"),
        AggregateSpec::new(AggregateKind::DistinctCount, 1, "distinct"),
        AggregateSpec::new(AggregateKind::First, 1, "first"),
        AggregateSpec::new(AggregateKind::Last, 1, "last"),
        AggregateSpec::new(AggregateKind::ArgMin(2), 1, "argmin"),
        AggregateSpec::new(AggregateKind::ArgMax(2), 1, "argmax"),
    ]
}

/// Non-associative float reductions: the operator combines per-event
/// partials in a tree shape, the reference folds sequentially, so equality is
/// gated on the relative tolerance documented in DESIGN.md §17.4. Everything
/// else —
/// including Min/Max/Median/Quantile on floats, which only *order* values —
/// must be bit-exact. Sum and Mean become exact again when every input is
/// an integer-valued float with an exactly representable sum (addition is
/// then exact in every nesting), while Variance/StdDev stay
/// nesting-sensitive even on integers: Welford inserts and Chan-style
/// partial merges round their divisions differently.
fn must_be_exact(name: &str, integer_inputs: bool) -> bool {
    match name {
        "sum" | "mean" => integer_inputs,
        "stddev" | "var" => false,
        _ => true,
    }
}

/// DESIGN.md §17.4 tolerance rule for non-associative float aggregates.
const FLOAT_COMBINE_REL_TOL: f64 = 1e-9;

fn values_close(a: &Value, b: &Value) -> bool {
    match (a.as_f64(), b.as_f64()) {
        (Some(x), Some(y)) => {
            (x.is_nan() && y.is_nan())
                || x == y
                || (x - y).abs() <= FLOAT_COMBINE_REL_TOL * x.abs().max(y.abs())
        }
        _ => a == b,
    }
}

/// Exact means exact: floats by bit pattern (so NaN matches itself and
/// `-0.0` does not match `0.0`), everything else by `==`.
fn bit_equal(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

fn run_op(
    window: WindowSpec,
    aggs: &[AggregateSpec],
    key_field: Option<usize>,
    late_policy: LatePolicy,
    input: &[StreamElement],
) -> (Vec<WindowResult>, WindowOpStats) {
    let mut op =
        WindowAggregateOp::new(window, aggs.to_vec(), key_field, late_policy).expect("valid spec");
    let mut out = Vec::new();
    for el in input.iter().cloned().chain([StreamElement::Flush]) {
        op.process(el, &mut |o| {
            if let Some(e) = o.as_event() {
                if let Some(r) = WindowResult::from_row(&e.row) {
                    out.push(r);
                }
            }
        });
    }
    (out, op.stats())
}

/// One operator row against the reference's row for the same window: exact
/// or within tolerance per [`must_be_exact`].
fn check_row(
    aggs: &[AggregateSpec],
    got: &WindowResult,
    want: &WindowResult,
    integer_inputs: bool,
) -> Result<(), String> {
    if (got.window, &got.key, got.count) != (want.window, &want.key, want.count) {
        return Err(format!(
            "expected {:?} key {:?} count {}, got {:?} key {:?} count {}",
            want.window, want.key, want.count, got.window, got.key, got.count
        ));
    }
    for (spec, (g, w)) in aggs.iter().zip(got.aggregates.iter().zip(&want.aggregates)) {
        let name = spec.name.as_str();
        let ok = if must_be_exact(name, integer_inputs) {
            bit_equal(g, w)
        } else {
            values_close(g, w)
        };
        if !ok {
            return Err(format!(
                "{name} diverged in window {:?} key {:?}: {g:?} vs reference {w:?}",
                got.window, got.key
            ));
        }
    }
    Ok(())
}

fn check_against_reference(
    window: WindowSpec,
    aggs: &[AggregateSpec],
    key_field: Option<usize>,
    input: &[StreamElement],
    integer_inputs: bool,
) -> Result<(), String> {
    let (got, _) = run_op(window, aggs, key_field, LatePolicy::Drop, input);
    let want = common::reference(window, aggs, key_field, input);
    if got.len() != want.len() {
        return Err(format!(
            "result counts diverged: {} vs reference {}",
            got.len(),
            want.len()
        ));
    }
    if got.is_empty() {
        return Err("stream produced no windows".into());
    }
    got.iter()
        .zip(&want)
        .try_for_each(|(g, w)| check_row(aggs, g, w, integer_inputs))
}

fn assert_matches_reference(
    window: WindowSpec,
    aggs: &[AggregateSpec],
    key_field: Option<usize>,
    input: &[StreamElement],
    integer_inputs: bool,
) {
    if let Err(why) = check_against_reference(window, aggs, key_field, input, integer_inputs) {
        panic!("{window}: {why}");
    }
}

/// Deterministic scrambled stream: integer-valued floats (so Sum/Mean are
/// exact in f64 and the whole battery can assert bit-equality), a null every
/// 11th event, deep stragglers every 7th event, and periodic watermarks that
/// make some of those stragglers late.
fn scrambled_stream(n: u64, keys: u64) -> Vec<StreamElement> {
    let mut out = Vec::new();
    let mut max_ts = 0u64;
    for i in 0..n {
        let base = (i / 3) * 9;
        let ts = if i % 7 == 3 {
            base.saturating_sub(70) // deep straggler, >= W/2 behind
        } else {
            base + (i * 5) % 13
        };
        max_ts = max_ts.max(ts);
        let v = if i % 11 == 10 {
            Value::Null
        } else {
            Value::Float(((i * 37) % 101) as f64 - 50.0)
        };
        let by = Value::Float(((i * 29) % 53) as f64);
        out.push(StreamElement::Event(Event::new(
            ts,
            i,
            Row::new([Value::Int((i % keys) as i64), v, by]),
        )));
        if i % 13 == 12 {
            out.push(StreamElement::Watermark(Timestamp(
                max_ts.saturating_sub(25),
            )));
        }
    }
    out
}

#[test]
fn all_fourteen_kinds_are_exact_on_integer_valued_floats() {
    let input = scrambled_stream(400, 5);
    for window in [
        WindowSpec::tumbling(40u64),
        WindowSpec::sliding(60u64, 20u64),
        // Misaligned slide: the windows share no pane grid.
        WindowSpec::sliding(50u64, 15u64),
    ] {
        assert_matches_reference(window, &all_kinds(), Some(0), &input, true);
        assert_matches_reference(window, &all_kinds(), None, &input, true);
    }
}

#[test]
fn float_combine_nesting_stays_within_documented_tolerance() {
    // Catastrophic-cancellation values: different combine tree shapes give
    // different roundings, which is exactly what the DESIGN.md §17 tolerance
    // rule exists for. Min/Max/Median/Quantile stay bit-exact even here.
    let mut out = Vec::new();
    let vals = [
        1.0e16,
        1.0,
        -1.0e16,
        0.1,
        3.333_333_3,
        -7.77e-3,
        1.0e12,
        -0.999,
    ];
    for i in 0..240u64 {
        let base = (i / 4) * 10;
        let ts = if i % 5 == 2 {
            base.saturating_sub(45)
        } else {
            base + i % 7
        };
        out.push(StreamElement::Event(Event::new(
            ts,
            i,
            Row::new([
                Value::Int((i % 3) as i64),
                Value::Float(vals[(i % 8) as usize] * (1.0 + (i % 9) as f64 * 1e-6)),
                Value::Float((i % 10) as f64),
            ]),
        )));
        if i % 12 == 11 {
            out.push(StreamElement::Watermark(Timestamp(base.saturating_sub(20))));
        }
    }
    assert_matches_reference(
        WindowSpec::sliding(40u64, 10u64),
        &all_kinds(),
        Some(0),
        &out,
        false,
    );
}

#[test]
fn disorder_and_lateness_stream_matches_reference() {
    // Every 7th event jumps far enough back that all its windows are behind
    // the watermark (lag 30..130 plus window length 40): late, dropped and
    // counted, and absent from every window.
    let aggs = [
        AggregateSpec::new(AggregateKind::Count, 0, "n"),
        AggregateSpec::new(AggregateKind::Max, 0, "m"),
        AggregateSpec::new(AggregateKind::Last, 0, "l"),
        AggregateSpec::new(AggregateKind::Median, 0, "med"),
        AggregateSpec::new(AggregateKind::DistinctCount, 0, "d"),
    ];
    let mut input = Vec::new();
    for i in 0..300u64 {
        let ts = if i % 7 == 3 {
            (i * 5).saturating_sub(200)
        } else {
            i * 5
        };
        input.push(StreamElement::Event(Event::new(
            ts,
            i,
            Row::new([Value::Float((ts % 11) as f64)]),
        )));
        if i % 20 == 19 {
            input.push(StreamElement::Watermark(Timestamp(
                (i * 5).saturating_sub(30),
            )));
        }
    }
    let window = WindowSpec::sliding(40u64, 10u64);
    assert_matches_reference(window, &aggs, None, &input, true);
    let (_, stats) = run_op(window, &aggs, None, LatePolicy::Drop, &input);
    assert!(stats.late_dropped > 0, "disorder must produce lates");
    assert_eq!(stats.accepted + stats.late_dropped, 300);
}

#[test]
fn keyed_misaligned_slide_with_order_stats_matches_reference() {
    // Misaligned slide (7 ∤ 30), order statistics, mild disorder: every 5th
    // event arrives 31 units back. Integer-valued floats keep Mean/Quantile
    // arithmetic bit-identical (same sums, same interpolation formula).
    let aggs = [
        AggregateSpec::new(AggregateKind::Mean, 1, "mean"),
        AggregateSpec::new(AggregateKind::Median, 1, "med"),
        AggregateSpec::new(AggregateKind::Quantile(0.9), 1, "p90"),
        AggregateSpec::new(AggregateKind::DistinctCount, 1, "d"),
    ];
    let mut input = Vec::new();
    for i in 0..250u64 {
        let ts = if i % 5 == 2 {
            (i * 3).saturating_sub(31)
        } else {
            i * 3
        };
        input.push(StreamElement::Event(Event::new(
            ts,
            i,
            Row::new([Value::Int((i % 4) as i64), Value::Float((i % 23) as f64)]),
        )));
        if i % 25 == 24 {
            input.push(StreamElement::Watermark(Timestamp(
                (i * 3).saturating_sub(40),
            )));
        }
    }
    assert_matches_reference(
        WindowSpec::sliding(30u64, 7u64),
        &aggs,
        Some(0),
        &input,
        true,
    );
}

proptest! {
    #![proptest_config(cases(64))]
    #[test]
    fn backends_agree_on_random_streams(
        raw in proptest::collection::vec((0u64..240, 0i64..40, any::<bool>()), 20..200),
        len in 1u64..80,
        slide_frac in 1u64..=4,
        keyed in any::<bool>(),
    ) {
        let slide = (len / slide_frac).max(1);
        let mut input = Vec::new();
        let mut max_ts = 0u64;
        for (i, (ts, v, null)) in raw.iter().enumerate() {
            max_ts = max_ts.max(*ts);
            let val = if *null { Value::Null } else { Value::Float(*v as f64) };
            input.push(StreamElement::Event(Event::new(
                *ts,
                i as u64,
                Row::new([Value::Int(v % 4), val, Value::Float((*ts % 19) as f64)]),
            )));
            if i % 16 == 15 {
                input.push(StreamElement::Watermark(Timestamp(max_ts.saturating_sub(len))));
            }
        }
        let key_field = if keyed { Some(0) } else { None };
        let specs = all_kinds();
        // Integer-valued floats: everything except Variance/StdDev (whose
        // Welford-vs-Chan roundings differ even on integers) is bit-exact.
        let checked = check_against_reference(WindowSpec::sliding(len, slide), &specs, key_field, &input, true);
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
    }
}

proptest! {
    #![proptest_config(cases(48))]
    #[test]
    fn revisions_converge_to_the_full_information_answer(
        raw in proptest::collection::vec((0u64..240, 0i64..40, any::<bool>()), 20..160),
        len in 1u64..80,
        slide_frac in 1u64..=4,
        keyed in any::<bool>(),
    ) {
        // K = 0: the watermark follows the largest timestamp seen, so every
        // out-of-order event is late for whatever closed in between, and
        // `Revise` with unbounded lateness must make up for all of it.
        let mut events = Vec::new();
        let mut input = Vec::new();
        let mut clock = 0u64;
        for (i, (ts, v, null)) in raw.iter().enumerate() {
            clock = clock.max(*ts);
            let val = if *null { Value::Null } else { Value::Float(*v as f64) };
            events.push(StreamElement::Event(Event::new(
                *ts,
                i as u64,
                Row::new([Value::Int(v % 4), val, Value::Float((*ts % 19) as f64)]),
            )));
            input.extend([events[i].clone(), StreamElement::Watermark(Timestamp(clock))]);
        }
        let window = WindowSpec::sliding(len, (len / slide_frac).max(1));
        let key_field = if keyed { Some(0) } else { None };
        let specs = all_kinds();
        let unbounded = LatePolicy::Revise { allowed_lateness: u64::MAX };
        let (rows, stats) = run_op(window, &specs, key_field, unbounded, &input);
        prop_assert_eq!(stats.late_dropped, 0);
        // Revisions of a window count 0, 1, 2, … without gaps; keep the last.
        let mut last: BTreeMap<(Timestamp, Timestamp, Key), WindowResult> = BTreeMap::new();
        for r in rows {
            let id = (r.window.end, r.window.start, Key(r.key.clone()));
            let expected = last.get(&id).map_or(0, |prev| prev.revision + 1);
            prop_assert_eq!(r.revision, expected, "revision gap in {:?} key {:?}", r.window, r.key);
            last.insert(id, r);
        }
        prop_assert_eq!(stats.revisions + stats.windows_emitted, last.values().map(|r| r.revision + 1).sum::<u64>());
        // The last row of every window is the answer with nothing missing.
        let full = common::reference(window, &specs, key_field, &events);
        prop_assert_eq!(last.len(), full.len());
        for (got, want) in last.values().zip(&full) {
            let checked = check_row(&specs, got, want, true);
            prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
        }
    }
}

// ---------------------------------------------------------------------------
// Layer 3: order statistics from the time tree
// ---------------------------------------------------------------------------

#[test]
fn order_statistics_share_fields_with_each_other_and_with_combinable_kinds() {
    // Field 1 feeds three quantiles, a distinct count and two combinable
    // kinds; field 2 a median and a distinct count of its own. One tree
    // insert per accepted event, whatever the mix and the window shape.
    let aggs = [
        AggregateSpec::new(AggregateKind::Sum, 1, "sum"),
        AggregateSpec::new(AggregateKind::Median, 1, "median"),
        AggregateSpec::new(AggregateKind::Quantile(0.1), 1, "p10"),
        AggregateSpec::new(AggregateKind::Max, 1, "max"),
        AggregateSpec::new(AggregateKind::Quantile(0.9), 1, "p90"),
        AggregateSpec::new(AggregateKind::DistinctCount, 1, "distinct"),
        AggregateSpec::new(AggregateKind::Median, 2, "by_median"),
        AggregateSpec::new(AggregateKind::DistinctCount, 2, "by_distinct"),
    ];
    let input = scrambled_stream(400, 5);
    for window in [
        WindowSpec::tumbling(40u64),
        WindowSpec::sliding(60u64, 20u64),
        WindowSpec::sliding(50u64, 15u64),
    ] {
        for key_field in [Some(0), None] {
            assert_matches_reference(window, &aggs, key_field, &input, true);
            let (_, stats) = run_op(window, &aggs, key_field, LatePolicy::Drop, &input);
            assert_eq!(stats.agg_inserts, stats.accepted, "{window}");
            assert!(stats.late_dropped > 0 && stats.accepted > 300, "{window}");
        }
    }
    // Order statistics alone: the tree item carries no partial at all.
    let alone = [aggs[1].clone(), aggs[4].clone()];
    assert_matches_reference(
        WindowSpec::sliding(60u64, 20u64),
        &alone,
        Some(0),
        &input,
        true,
    );
}

#[test]
fn special_values_finalize_bit_for_bit_as_the_naive_fold_does() {
    // Both NaN signs, both zeros, infinities, an int and the float equal to
    // it, a string, a bool and nulls: quantiles sort by `total_cmp` and skip
    // what is not numeric, distinct counts compare by `Key` and skip nulls.
    let specials = [
        Value::Float(f64::NAN),
        Value::Float(-0.0),
        Value::Int(3),
        Value::Null,
        Value::Float(f64::INFINITY),
        Value::str("x"),
        Value::Float(0.0),
        Value::Float(-f64::NAN),
        Value::Float(3.0),
        Value::Bool(true),
        Value::Float(f64::NEG_INFINITY),
        Value::Float(-2.5),
        Value::Null,
    ];
    let aggs = [
        AggregateSpec::new(AggregateKind::Median, 1, "median"),
        AggregateSpec::new(AggregateKind::Quantile(0.0), 1, "p0"),
        AggregateSpec::new(AggregateKind::Quantile(0.3), 1, "p30"),
        AggregateSpec::new(AggregateKind::Quantile(1.0), 1, "p100"),
        AggregateSpec::new(AggregateKind::DistinctCount, 1, "distinct"),
        AggregateSpec::new(AggregateKind::Count, 1, "count"),
        AggregateSpec::new(AggregateKind::Min, 1, "min"),
    ];
    let mut input = Vec::new();
    for i in 0..360u64 {
        // Strides coprime to the cycle length: every window sees a different
        // mix, some none of a kind at all.
        let v = specials[((i * 7 + i / 13) % specials.len() as u64) as usize].clone();
        let ts = if i % 6 == 4 {
            (i * 2).saturating_sub(35)
        } else {
            i * 2
        };
        input.push(StreamElement::Event(Event::new(
            ts,
            i,
            Row::new([Value::Int((i % 3) as i64), v]),
        )));
        if i % 17 == 16 {
            input.push(StreamElement::Watermark(Timestamp(
                (i * 2).saturating_sub(20),
            )));
        }
    }
    for window in [WindowSpec::tumbling(6u64), WindowSpec::sliding(24u64, 8u64)] {
        assert_matches_reference(window, &aggs, Some(0), &input, true);
        assert_matches_reference(window, &aggs, None, &input, true);
    }
    // The battery compares; this pins that it compared something special.
    let tumbling = WindowSpec::tumbling(6u64);
    let (mut rows, _) = run_op(tumbling, &aggs, None, LatePolicy::Drop, &input);
    rows.extend(run_op(tumbling, &aggs, Some(0), LatePolicy::Drop, &input).0);
    let nan_medians = rows
        .iter()
        .filter(|r| r.aggregates[0].as_f64().is_some_and(f64::is_nan));
    assert!(nan_medians.count() > 0, "some window's median is NaN");
    // `-0.0` sorts below `0.0`; the interpolation `lo + (hi - lo) * frac`
    // turns a lone `-0.0` rank into `0.0`, in the fold as in the operator.
    let zero_p0_over_negative_zero = |r: &&WindowResult| {
        bit_equal(&r.aggregates[1], &Value::Float(0.0))
            && bit_equal(&r.aggregates[6], &Value::Float(-0.0))
    };
    assert!(rows.iter().any(|r| zero_p0_over_negative_zero(&r)));
    assert!(rows
        .iter()
        .any(|r| r.aggregates[0] == Value::Null && r.count > 0));
}

#[test]
fn every_revision_of_an_order_statistic_window_refolds_what_has_arrived() {
    // K = 0 and unbounded lateness: each out-of-order event revises every
    // emitted window it falls into, at once. Revision n of a window must be
    // the naive fold of the window's events seen so far — the collection is
    // redone from the time tree, not patched.
    let aggs = [
        AggregateSpec::new(AggregateKind::Median, 1, "median"),
        AggregateSpec::new(AggregateKind::Quantile(0.8), 1, "p80"),
        AggregateSpec::new(AggregateKind::DistinctCount, 1, "distinct"),
        AggregateSpec::new(AggregateKind::Last, 1, "last"),
    ];
    let window = WindowSpec::sliding(30u64, 10u64);
    let policy = LatePolicy::Revise {
        allowed_lateness: u64::MAX,
    };
    let mut op = WindowAggregateOp::new(window, aggs.to_vec(), Some(0), policy).expect("valid");
    let mut seen: Vec<StreamElement> = Vec::new();
    let (mut clock, mut revisions) = (0u64, 0u64);
    for i in 0..160u64 {
        let ts = match i % 5 {
            1 => (i * 3).saturating_sub(25),
            3 => (i * 3).saturating_sub(7),
            _ => i * 3,
        };
        clock = clock.max(ts);
        let v = Value::Float(((i * 31) % 17) as f64 - 8.0);
        let event = Event::new(ts, i, Row::new([Value::Int((i % 2) as i64), v]));
        seen.push(StreamElement::Event(event.clone()));
        let mut rows = Vec::new();
        for el in [
            StreamElement::Event(event),
            StreamElement::Watermark(Timestamp(clock)),
        ] {
            op.process(el, &mut |o| {
                rows.extend(o.as_event().and_then(|e| WindowResult::from_row(&e.row)));
            });
        }
        // No watermark in `seen`: the reference keeps every event.
        let full = common::reference(window, &aggs, Some(0), &seen);
        for got in rows {
            let same = |w: &&WindowResult| w.window == got.window && w.key == got.key;
            let mut want = full
                .iter()
                .find(same)
                .expect("emitted window exists")
                .clone();
            want.revision = got.revision;
            revisions += u64::from(got.revision > 0);
            if let Err(why) = check_row(&aggs, &got, &want, true) {
                panic!("after event {i}, revision {}: {why}", got.revision);
            }
        }
    }
    assert!(revisions > 50, "the stream must revise: {revisions}");
    assert_eq!(op.stats().revisions, revisions);
    assert_eq!(op.stats().agg_inserts, op.stats().accepted);
}
