//! Engine-level query integration: the window operator driven directly,
//! keyed over generated data.

use quill_engine::prelude::*;
use quill_gen::workload::stock;

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
