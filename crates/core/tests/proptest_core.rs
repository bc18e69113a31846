//! Property-based tests of the disorder-control invariants (DESIGN.md §4):
//! the slack buffer under arbitrary arrival sequences and arbitrary online
//! K changes, the delay estimator against a brute-force model, and the
//! controller's bounds.

use proptest::prelude::*;
use quill_core::prelude::*;

/// Arbitrary arrival sequence: (timestamp, K to set before the insert).
fn arrivals() -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::vec((0u64..5_000, 0u64..2_000), 1..300)
}

/// Arrivals whose `(ts, seq)` keys repeat: (timestamp, seq, K to set
/// before the insert), over narrow ranges so that duplicates are common.
fn duplicate_arrivals() -> impl Strategy<Value = Vec<(u64, u64, u64)>> {
    prop::collection::vec((0u64..200, 0u64..6, 0u64..100), 1..200)
}

/// The estimator's dense bound: delays below it are counted by value,
/// larger ones in its overflow map.
const DENSE: u64 = 1 << 13;

/// Delays on both sides of the dense bound: small ones, ones within ±64 of
/// it, and ones up to `u64::MAX / 4`.
fn straddling_delays() -> impl Strategy<Value = Vec<u64>> {
    let delay = prop_oneof![0u64..300, DENSE - 64..DENSE + 64, 0u64..u64::MAX / 4];
    prop::collection::vec(delay, 1..600)
}

/// `G(k) = Σ min(s, (d − k)⁺)` of a delay sample, by its definition.
fn brute_overrun(sample: &[u64], k: u64, s: u64) -> u128 {
    sample
        .iter()
        .map(|&d| u128::from(d.saturating_sub(k).min(s)))
        .sum()
}

/// Cases per property: the default 48, or `PROPTEST_CASES` when set
/// (`scripts/check.sh` soaks this suite with 2 000).
fn cases() -> ProptestConfig {
    let soak = std::env::var("PROPTEST_CASES").ok();
    ProptestConfig::with_cases(soak.and_then(|n| n.parse().ok()).unwrap_or(48))
}

/// `C_S(k)` of a delay sample by its definition — the mean over tuples of
/// `1 − min(s, (d − k)⁺) / s` — and the empirical CDF at `s = 0`.
fn brute_completeness(sample: &[u64], k: u64, s: u64) -> f64 {
    let n = sample.len() as f64;
    if s == 0 {
        return sample.iter().filter(|&&d| d <= k).count() as f64 / n;
    }
    let overrun: u64 = sample.iter().map(|&d| d.saturating_sub(k).min(s)).sum();
    1.0 - overrun as f64 / (n * s as f64)
}

/// The order properties of `window_slack`: `s = 0` is the quantile, and K*
/// falls with the slide and rises with the target.
fn check_window_slack_order(
    est: &DelayEstimator,
    q: f64,
    q2: f64,
    s: u64,
    s2: u64,
) -> Result<(), TestCaseError> {
    let ws = |q: f64, s: u64| est.window_slack(q, TimeDelta(s));
    prop_assert_eq!(ws(q, 0), est.quantile(q));
    let (lo, hi) = (s.min(s2), s.max(s2));
    prop_assert!(ws(q, hi) <= ws(q, lo), "rises with the slide");
    prop_assert!(ws(q, lo) <= ws(q, 0), "above the quantile");
    let (qa, qb) = (q.min(q2), q.max(q2));
    prop_assert!(ws(qa, s) <= ws(qb, s), "falls with the target");
    Ok(())
}

proptest! {
    #![proptest_config(cases())]

    #[test]
    fn slack_buffer_invariants_hold_under_arbitrary_k_changes(seq in arrivals()) {
        let mut buf = SlackBuffer::new(seq[0].1);
        let mut out = Vec::new();
        for (i, &(ts, k)) in seq.iter().enumerate() {
            buf.set_k(k);
            let before = out.len();
            buf.insert(Event::new(ts, i as u64, Row::empty()), &mut out);
            // (1) The insert forwards its event first, ahead of any
            // watermark it emits.
            let first = out.get(before).and_then(|e| e.as_event()).map(|e| e.seq);
            prop_assert_eq!(first, Some(i as u64), "event {} not forwarded first", i);
            prop_assert!(out[before + 1..]
                .iter()
                .all(|e| matches!(e, StreamElement::Watermark(_))));
        }
        buf.finish(&mut out);

        // (1) So the output events are the input, in arrival order.
        let seqs: Vec<u64> =
            out.iter().filter_map(|e| e.as_event()).map(|e| e.seq).collect();
        prop_assert_eq!(seqs, (0..seq.len() as u64).collect::<Vec<_>>());

        // (2) Watermarks never regress; (3) late accounting matches.
        let mut wm = 0u64;
        let mut late = 0u64;
        for el in &out {
            match el {
                StreamElement::Watermark(t) => {
                    prop_assert!(t.raw() >= wm);
                    wm = t.raw();
                }
                StreamElement::Event(e) if e.ts.raw() < wm => late += 1,
                _ => {}
            }
        }
        prop_assert_eq!(late, buf.stats().late_passed);
        prop_assert_eq!(
            buf.stats().released + buf.stats().late_passed,
            seq.len() as u64
        );
    }

    #[test]
    fn slack_buffer_keeps_events_whose_order_keys_repeat(seq in duplicate_arrivals()) {
        let mut buf = SlackBuffer::new(seq[0].2);
        let mut out = Vec::new();
        for (i, &(ts, s, k)) in seq.iter().enumerate() {
            buf.set_k(k);
            // The payload names the arrival; timestamp and seq repeat.
            buf.insert(Event::new(ts, s, Row::new([Value::Int(i as i64)])), &mut out);
            let st = buf.stats();
            prop_assert_eq!(st.inserted, st.released + buf.len() as u64, "step {}", i);
        }
        buf.finish(&mut out);
        let st = buf.stats();
        prop_assert_eq!(buf.len(), 0);
        prop_assert_eq!(st.inserted, st.released);

        // Every arrival comes out exactly once, in arrival order.
        let ids: Vec<i64> = out
            .iter()
            .filter_map(|el| el.as_event()?.row.get(0).as_i64())
            .collect();
        prop_assert_eq!(ids, (0..seq.len() as i64).collect::<Vec<_>>());
    }

    #[test]
    fn estimator_quantile_matches_brute_force(
        delays in prop::collection::vec(0u64..100_000, 1..150),
        cap in 1usize..200,
        q in 0.0f64..=1.0,
    ) {
        let mut est = DelayEstimator::new(cap);
        for &d in &delays {
            est.observe(TimeDelta(d));
        }
        // Brute force over the same sliding window (last `cap` values).
        let window: Vec<u64> =
            delays[delays.len().saturating_sub(cap)..].to_vec();
        let mut sorted = window.clone();
        sorted.sort_unstable();
        let n = sorted.len();
        let target = ((q * n as f64).ceil() as usize).clamp(1, n);
        let expected = sorted[target - 1];
        prop_assert_eq!(est.quantile(q), Some(TimeDelta(expected)));
        // CDF/quantile coherence.
        prop_assert!(est.cdf(TimeDelta(expected)) >= q - 1e-9);
    }

    #[test]
    fn window_slack_is_the_minimal_slack_meeting_the_target(
        delays in prop::collection::vec(0u64..5_000, 1..150),
        cap in 1usize..200,
        q in 0.0f64..=1.0,
        q2 in 0.0f64..=1.0,
        s in 1u64..3_000,
        s2 in 0u64..3_000,
    ) {
        let mut est = DelayEstimator::new(cap);
        for &d in &delays {
            est.observe(TimeDelta(d));
        }
        let window = &delays[delays.len().saturating_sub(cap)..];
        let k = est.window_slack(q, TimeDelta(s)).expect("non-empty").raw();
        let c = brute_completeness(window, k, s);
        prop_assert!(c >= q - 1e-9, "C_S({k}) = {c} < {q}");
        if k > 0 {
            let below = brute_completeness(window, k - 1, s);
            prop_assert!(below < q + 1e-9, "C_S({}) = {below} already meets {q}", k - 1);
        }
        for probe in [k, k / 2, k + s / 2] {
            let model = est.window_completeness(TimeDelta(probe), TimeDelta(s));
            prop_assert!((model - brute_completeness(window, probe, s)).abs() < 1e-9);
        }
        check_window_slack_order(&est, q, q2, s, s2)?;
    }

    #[test]
    fn estimator_answers_like_a_brute_force_sample_across_the_dense_bound(
        delays in straddling_delays(),
        cap in 1usize..300,
        qs in (0.0f64..=1.0, 0.0f64..=1.0, 0.0f64..=1.0, 0.0f64..=1.0),
        mid_s in 2u64..20_000,
        probe in 0u64..u64::MAX / 4,
    ) {
        let mut est = DelayEstimator::new(cap);
        for &d in &delays {
            est.observe(TimeDelta(d));
        }
        // Evictions move the largest delay in and out of the overflow map.
        let window = &delays[delays.len().saturating_sub(cap)..];
        let mut sorted = window.to_vec();
        sorted.sort_unstable();
        let n = sorted.len();
        let qs = [qs.0, qs.1, qs.2, qs.3, 0.0, 1.0];
        let expected = qs.map(|q| {
            let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
            Some(TimeDelta(sorted[rank - 1]))
        });
        prop_assert_eq!(est.quantiles(qs), expected);
        prop_assert_eq!(est.max_ever(), TimeDelta(delays.iter().copied().max().unwrap_or(0)));
        prop_assert_eq!(est.len(), n);

        let cdf = |x: u64| sorted.iter().filter(|&&d| d <= x).count() as f64 / n as f64;
        let mut probes = vec![0, probe, DENSE - 1, DENSE, sorted[n / 2], sorted[n - 1]];
        for s in [1, mid_s, u64::MAX / 2 + 1] {
            for &q in &qs {
                let budget = (1.0 - q) * n as f64 * s as f64;
                let fits = |k: u64| brute_overrun(window, k, s) as f64 <= budget;
                let k = est.window_slack(q, TimeDelta(s)).expect("non-empty").raw();
                prop_assert!(k <= sorted[n - 1], "K {} above the sample", k);
                prop_assert!(fits(k), "G({}) misses q = {} at s = {}", k, q, s);
                prop_assert!(k == 0 || !fits(k - 1), "G({}) meets q = {} at s = {}", k - 1, q, s);
                probes.extend([k, k.saturating_sub(1)]);
            }
            prop_assert_eq!(est.window_slack(qs[0], TimeDelta::ZERO), expected[0]);
            for &x in &probes {
                let model = est.window_completeness(TimeDelta(x), TimeDelta(s));
                let brute = 1.0 - brute_overrun(window, x, s) as f64 / (n as f64 * s as f64);
                prop_assert_eq!(model.to_bits(), brute.to_bits(), "C_S({}) at s = {}", x, s);
            }
        }
        for &x in &probes {
            prop_assert_eq!(est.cdf(TimeDelta(x)).to_bits(), cdf(x).to_bits(), "cdf({})", x);
            prop_assert_eq!(
                est.window_completeness(TimeDelta(x), TimeDelta::ZERO).to_bits(),
                cdf(x).to_bits()
            );
        }
    }

    #[test]
    fn estimator_cdf_is_monotone(
        delays in prop::collection::vec(0u64..10_000, 1..100),
        probes in prop::collection::vec(0u64..12_000, 2..20),
    ) {
        let mut est = DelayEstimator::new(64);
        for &d in &delays {
            est.observe(TimeDelta(d));
        }
        let mut sorted_probes = probes.clone();
        sorted_probes.sort_unstable();
        let mut last = 0.0;
        for p in sorted_probes {
            let c = est.cdf(TimeDelta(p));
            prop_assert!(c >= last - 1e-12);
            prop_assert!((0.0..=1.0).contains(&c));
            last = c;
        }
    }

    #[test]
    fn controller_output_always_within_bounds(
        kp in 0.0f64..5.0,
        ki in 0.0f64..5.0,
        lo in -2.0f64..0.0,
        hi in 0.0f64..2.0,
        errors in prop::collection::vec(-10.0f64..10.0, 1..100),
    ) {
        let mut c = PiController::new(kp, ki, lo, hi);
        for e in errors {
            let out = c.update(e);
            prop_assert!((lo..=hi).contains(&out), "output {out} outside [{lo}, {hi}]");
            prop_assert_eq!(out, c.output());
        }
    }

    #[test]
    fn aq_never_violates_k_bounds_and_accounts_all_events(
        // Past AQ's warm-up (256 events) and several adaptation steps (one
        // every 64 events).
        ts in prop::collection::vec(0u64..20_000, 600..1_200),
        k_min in 0u64..50,
        k_span in 1u64..500,
    ) {
        let mut cfg = AqConfig::completeness(0.9);
        cfg.k_min = TimeDelta(k_min);
        cfg.k_max = TimeDelta(k_min + k_span);
        let mut s = AqKSlack::new(cfg);
        let mut out = Vec::new();
        for (i, &t) in ts.iter().enumerate() {
            s.on_event(Event::new(t, i as u64, Row::new([Value::Float(1.0)])), &mut out);
            let k = s.current_k();
            prop_assert!(k >= TimeDelta(k_min), "K {k} below k_min");
            prop_assert!(k <= TimeDelta(k_min + k_span), "K {k} above k_max");
        }
        prop_assert!(s.aq_stats().adaptations >= 5);
        s.finish(&mut out);
        let n: u64 = out.iter().filter(|e| e.as_event().is_some()).count() as u64;
        prop_assert_eq!(n, ts.len() as u64);
    }

    #[test]
    fn sensitivity_required_completeness_is_monotone_in_epsilon(
        values in prop::collection::vec(0.1f64..1000.0, 2..50),
        eps_lo in 0.001f64..0.1,
        eps_ratio in 1.1f64..10.0,
    ) {
        let mut model = SensitivityModel::new();
        for &v in &values {
            model.observe(v);
        }
        let tight = QualityTarget::MaxRelError { epsilon: eps_lo, field: 0 }
            .required_completeness(&model);
        let loose = QualityTarget::MaxRelError { epsilon: eps_lo * eps_ratio, field: 0 }
            .required_completeness(&model);
        prop_assert!(tight >= loose, "tighter epsilon must require more completeness");
        prop_assert!((0.0..=1.0).contains(&tight));
    }
}
