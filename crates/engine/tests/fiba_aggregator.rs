//! Window-state property battery.
//!
//! The file keeps the name it had when the window state was a finger B-tree
//! (FiBA) and a third layer checked that tree; its tests are the operator's
//! and keep their names. Two layers of differential evidence for the window
//! operator's pane state (DESIGN.md §17):
//!
//! 1. **Operator-level differential across all 14 aggregate kinds** — the
//!    operator against the naive per-window reference in `common` (the
//!    watermark filter there, each window folded by
//!    `quill_metrics::oracle::naive_aggregate`, which shares no code with
//!    the engine) on scrambled streams with deep stragglers, exact for every
//!    kind except
//!    the non-associative float reductions (Sum/Mean/Variance/StdDev over
//!    arbitrary floats), which are gated on the tolerance rule documented in
//!    DESIGN.md §17.4.
//! 2. **Order statistics from the pane state** — Median/Quantile/DistinctCount
//!    sharing a field with each other and with combinable kinds, and over
//!    NaN, `-0.0`, infinities, non-numeric and null values, bit for bit
//!    against the oracle's fold; one pane fold per accepted event
//!    throughout.

mod common;

use proptest::prelude::*;
use quill_engine::aggregate::{AggregateKind, AggregateSpec};
use quill_engine::operator::{LatePolicy, WindowAggregateOp, WindowOpStats, WindowResult};
use quill_engine::prelude::*;

/// Cases per property: the pinned count, or `PROPTEST_CASES` when set
/// (`scripts/check.sh` soaks this suite with 2 000).
fn cases(pinned: u32) -> ProptestConfig {
    let soak = std::env::var("PROPTEST_CASES").ok();
    ProptestConfig::with_cases(soak.and_then(|n| n.parse().ok()).unwrap_or(pinned))
}

// ---------------------------------------------------------------------------
// Layer 1: operator-level differential across all 14 aggregate kinds
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
/// partials pane by pane, the reference folds sequentially, so equality is
/// gated on the relative tolerance documented in DESIGN.md §17.4. Everything
/// else —
/// including Min/Max/Median/Quantile on floats, which only *order* values —
/// must be bit-exact. Sum and Mean become exact again when every input is
/// an integer-valued float with an exactly representable sum (addition is
/// then exact in every nesting), while Variance/StdDev stay
/// rounding-sensitive even on integers: the reference's two-pass formula
/// and the operator's Chan-style partial merges round their divisions
/// differently.
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
    input: &[StreamElement],
) -> (Vec<WindowResult>, WindowOpStats) {
    let mut op = WindowAggregateOp::new(window, aggs.to_vec(), key_field, LatePolicy::Drop)
        .expect("valid spec");
    let mut out = Vec::new();
    for el in input.iter().chain([&StreamElement::Flush]) {
        op.process_ref(el, &mut |r| out.push(r));
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
    let (got, _) = run_op(window, aggs, key_field, input);
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
    // Catastrophic-cancellation values: different combine nestings give
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
    let (_, stats) = run_op(window, &aggs, None, &input);
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
        // two-pass-vs-Chan roundings differ even on integers) is bit-exact.
        let checked = check_against_reference(WindowSpec::sliding(len, slide), &specs, key_field, &input, true);
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
    }
}

// ---------------------------------------------------------------------------
// Layer 2: order statistics from the pane state
// ---------------------------------------------------------------------------

#[test]
fn order_statistics_share_fields_with_each_other_and_with_combinable_kinds() {
    // Field 1 feeds three quantiles, a distinct count and two combinable
    // kinds; field 2 a median and a distinct count of its own. One pane
    // fold per accepted event, whatever the mix and the window shape.
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
            let (_, stats) = run_op(window, &aggs, key_field, &input);
            assert_eq!(stats.agg_inserts, stats.accepted, "{window}");
            assert!(stats.late_dropped > 0 && stats.accepted > 300, "{window}");
        }
    }
    // Order statistics alone: a pane carries no partial at all.
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
    let (mut rows, _) = run_op(tumbling, &aggs, None, &input);
    rows.extend(run_op(tumbling, &aggs, Some(0), &input).0);
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
