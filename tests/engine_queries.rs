//! Engine-level query integration: the window operator driven directly,
//! keyed over generated data and revising under heavy disorder.

use quill_engine::prelude::*;
use quill_gen::workload::stock;
use quill_integration::uniform_disordered;

#[test]
fn keyed_sliding_windows_over_stock_stream() {
    let cfg = stock::StockConfig::default();
    let stream = stock::generate(&cfg, 10_000, 55);
    let mut op = WindowAggregateOp::new(
        WindowSpec::sliding(4_000u64, 2_000u64),
        vec![
            AggregateSpec::new(AggregateKind::Mean, stock::PRICE_FIELD, "mean_price"),
            AggregateSpec::new(AggregateKind::Count, stock::PRICE_FIELD, "n"),
        ],
        Some(stock::SYMBOL_FIELD),
        LatePolicy::Drop,
    )
    .expect("valid op");
    // Order via a big fixed buffer so the engine sees clean watermarks.
    let mut buffer = quill_core::prelude::FixedKSlack::new(100_000u64);
    let mut elements = Vec::new();
    for e in &stream.events {
        quill_core::prelude::DisorderControl::on_event(&mut buffer, e.clone(), &mut elements);
    }
    quill_core::prelude::DisorderControl::finish(&mut buffer, &mut elements);
    let mut results = Vec::new();
    for el in &elements {
        op.process_ref(el, &mut |r| results.push(r));
    }
    assert!(!results.is_empty());
    // Every result's count is positive and the keyed mean is a sane price.
    for r in &results {
        assert!(r.count > 0);
        let mean = r.aggregates[0].as_f64().expect("numeric mean");
        assert!((1.0..10_000.0).contains(&mean), "price {mean} out of range");
    }
    // Hot symbol 0 must appear in many windows (Zipf skew).
    let hot = results.iter().filter(|r| r.key == Value::Int(0)).count();
    assert!(hot >= results.len() / (cfg.symbols * 2));
}

#[test]
fn revise_policy_converges_to_oracle_counts() {
    // With unlimited lateness, first emissions + revisions must end at the
    // oracle's per-window counts even under heavy disorder and K=0.
    let events = uniform_disordered(3_000, 10, 1_000, 45);
    let mut op = WindowAggregateOp::new(
        WindowSpec::tumbling(500u64),
        vec![AggregateSpec::new(AggregateKind::Count, 0, "n")],
        None,
        LatePolicy::Revise {
            allowed_lateness: u64::MAX / 2,
        },
    )
    .expect("valid op");
    let mut latest: std::collections::BTreeMap<Window, u64> = Default::default();
    let drive = |el: StreamElement,
                 op: &mut WindowAggregateOp,
                 latest: &mut std::collections::BTreeMap<Window, u64>| {
        op.process_ref(&el, &mut |r| {
            latest.insert(r.window, r.count);
        });
    };
    // K = 0 ordering: feed raw arrival order with per-event watermarks.
    let mut clock = 0u64;
    for e in &events {
        clock = clock.max(e.ts.raw());
        drive(StreamElement::Event(e.clone()), &mut op, &mut latest);
        drive(
            StreamElement::Watermark(Timestamp(clock)),
            &mut op,
            &mut latest,
        );
    }
    drive(StreamElement::Flush, &mut op, &mut latest);

    let oracle = quill_metrics::oracle_results(
        &events,
        WindowSpec::tumbling(500u64),
        &[AggregateSpec::new(AggregateKind::Count, 0, "n")],
        None,
    );
    for truth in &oracle {
        assert_eq!(
            latest.get(&truth.window),
            Some(&truth.count),
            "window {} did not converge",
            truth.window
        );
    }
}
