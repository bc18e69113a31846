//! Minimal JSON rendering for the HTTP control surface.
//!
//! The workspace is dependency-free, so responses are built with a small
//! hand-rolled writer whose strings go through the telemetry exporters' one
//! escaper, [`json_string`]. Only rendering is needed: requests use the
//! compact query DSL (`crate::config::parse_query`), not JSON bodies.

use quill_core::prelude::{QueryInfo, QueryStats, SessionStats};
use quill_engine::operator::WindowResult;
use quill_engine::prelude::Value;
use quill_telemetry::json::json_string;

/// Render an f64 as JSON (JSON has no spelling for non-finite values; they
/// become `null`).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Render an engine value as JSON.
pub fn value(v: &Value) -> String {
    match v {
        Value::Null => "null".into(),
        Value::Int(i) => i.to_string(),
        Value::Float(f) => num(*f),
        Value::Str(s) => json_string(s),
        Value::Bool(b) => b.to_string(),
    }
}

/// Render one window result as a JSON object.
pub fn window_result(r: &WindowResult) -> String {
    let aggs: Vec<String> = r.aggregates.iter().map(value).collect();
    format!(
        "{{\"key\":{},\"start\":{},\"end\":{},\"count\":{},\"revision\":{},\"aggregates\":[{}]}}",
        value(&r.key),
        r.window.start.raw(),
        r.window.end.raw(),
        r.count,
        r.revision,
        aggs.join(",")
    )
}

/// Render a query's counters as a JSON object.
pub fn query_stats(s: &QueryStats) -> String {
    format!(
        "{{\"emitted\":{},\"overflow_dropped\":{},\"pending\":{},\"accepted\":{},\
         \"late_dropped\":{},\"mean_latency\":{},\"slo_breaches\":{},\"closed\":{}}}",
        s.emitted,
        s.overflow_dropped,
        s.pending,
        s.window.accepted,
        s.window.late_dropped,
        num(s.mean_latency),
        s.slo_breaches,
        s.closed
    )
}

/// Render one `/queries` listing entry.
pub fn query_info(info: &QueryInfo, dsl: &str) -> String {
    let target = match info.config.required_completeness {
        Some(q) => num(q),
        None => "null".into(),
    };
    format!(
        "{{\"id\":{},\"query\":{},\"required_completeness\":{},\"stats\":{}}}",
        info.id.raw(),
        json_string(dsl),
        target,
        query_stats(&info.stats)
    )
}

/// Render session-wide counters.
pub fn session_stats(s: &SessionStats) -> String {
    let clock = match s.clock {
        Some(t) => t.raw().to_string(),
        None => "null".into(),
    };
    format!(
        "{{\"events\":{},\"heartbeats\":{},\"queries\":{},\"results\":{},\"current_k\":{},\
         \"buffered\":{},\"clock\":{},\"finished\":{}}}",
        s.events,
        s.heartbeats,
        s.queries,
        s.results,
        s.current_k.raw(),
        s.buffered,
        clock,
        s.finished
    )
}

/// Render a JSON array from rendered elements.
pub fn array(items: &[String]) -> String {
    format!("[{}]", items.join(","))
}

/// Render an error object.
pub fn error(message: &str) -> String {
    format!("{{\"error\":{}}}", json_string(message))
}

#[cfg(test)]
mod tests {
    use super::*;
    use quill_engine::prelude::{Timestamp, Window};

    #[test]
    fn window_results_render_all_value_kinds() {
        let r = WindowResult {
            key: Value::str("host\"1"),
            window: Window::new(Timestamp(0), Timestamp(100)),
            count: 3,
            revision: 0,
            aggregates: vec![Value::Int(7), Value::Float(2.5), Value::Null],
        };
        let j = window_result(&r);
        assert!(j.contains("\"key\":\"host\\\"1\""), "{j}");
        assert!(j.contains("\"aggregates\":[7,2.5,null]"), "{j}");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
        assert_eq!(value(&Value::Float(f64::NAN)), "null");
    }

    #[test]
    fn control_characters_are_escaped() {
        assert_eq!(json_string("a\nb\t\u{1}"), "\"a\\nb\\t\\u0001\"");
        assert_eq!(error("x\"y"), "{\"error\":\"x\\\"y\"}");
    }
}
