//! Daemon configuration: per-connection policies, the daemon's settings,
//! and the plan vocabulary it speaks.
//!
//! The strategy grammar ([`StrategySpec`]) and the query DSL
//! ([`parse_query`] / [`query_to_dsl`]) live in [`quill_core::dsl`] and are
//! re-exported here, so a running daemon's configuration is always
//! reproducible from the same text the simulator and the experiments use.

pub use quill_core::dsl::{parse_query, query_to_dsl, StrategySpec};
use std::time::Duration;

/// Per-connection transport policy (lightflus-style: every socket carries
/// its own timeout/eviction/limit envelope).
#[derive(Debug, Clone, PartialEq)]
pub struct ConnConfig {
    /// Socket read timeout: the granularity at which a reader notices
    /// shutdown and accumulates idle time.
    pub read_timeout: Duration,
    /// Evict a connection once it has been idle (no bytes) this long.
    /// Idleness is counted in whole read-timeout ticks, so eviction needs no
    /// wall-clock reads on the data path.
    pub idle_timeout: Duration,
    /// Upper bound on one binary frame's payload; oversized frames close the
    /// connection with a protocol error.
    pub max_frame_len: usize,
}

impl Default for ConnConfig {
    fn default() -> ConnConfig {
        ConnConfig {
            read_timeout: Duration::from_millis(50),
            idle_timeout: Duration::from_secs(30),
            max_frame_len: 1 << 16,
        }
    }
}

impl ConnConfig {
    /// Idle read-timeout ticks after which a connection is evicted.
    pub fn idle_ticks(&self) -> u64 {
        let read = self.read_timeout.as_millis().max(1);
        (self.idle_timeout.as_millis() / read).max(1) as u64
    }
}

/// Client-side reconnect policy: how many times to retry a failed connect
/// and the (linear) backoff between attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Connect attempts before giving up (total attempts = 1 + retries).
    pub max_retries: u32,
    /// Sleep between attempt `n` and `n + 1` is `backoff * n`.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 5,
            backoff: Duration::from_millis(50),
        }
    }
}

/// Full daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// TCP address the ingest listener binds (`:0` for ephemeral).
    pub ingest_addr: String,
    /// TCP address the HTTP control/metrics listener binds.
    pub http_addr: String,
    /// The shared disorder-control strategy.
    pub strategy: StrategySpec,
    /// Per-connection transport policy.
    pub conn: ConnConfig,
    /// Ring capacity of the span recorder backing `GET /trace` (`0`
    /// disables span tracing entirely — the zero-cost path); default
    /// [`SERVE_SPAN_CAPACITY`].
    pub span_capacity: usize,
}

/// Default ring capacity of the daemon's span recorder: 4 096 records,
/// 0.23 MB. The ring records every late arrival and K decision, so on a
/// disordered stream it is full within seconds and its capacity is
/// resident memory; `GET /trace` shows the most recent records.
pub const SERVE_SPAN_CAPACITY: usize = 4_096;

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            ingest_addr: "127.0.0.1:0".into(),
            http_addr: "127.0.0.1:0".into(),
            strategy: StrategySpec::Fixed(500),
            conn: ConnConfig::default(),
            span_capacity: SERVE_SPAN_CAPACITY,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quill_core::prelude::WindowSpec;

    #[test]
    fn strategy_specs_parse_and_build() {
        for (s, name_part) in [
            ("dropall", "drop"),
            ("fixed:100", "fixed"),
            ("mp", "mp"),
            ("mp:500", "mp"),
            ("aq:0.95", "aq"),
            ("aqe:0.05:0", "aq"),
            ("oracle", "oracle"),
            ("punct:0:2", "punct"),
            ("punct:0:2:50", "punct"),
        ] {
            let spec = StrategySpec::parse(s).unwrap_or_else(|e| panic!("{s}: {e}"));
            let strategy = spec.build();
            assert!(
                strategy.name().contains(name_part),
                "{s} built {}",
                strategy.name()
            );
        }
        assert!(StrategySpec::parse("aq:1.5").is_err());
        assert!(StrategySpec::parse("fixed").is_err());
        assert!(StrategySpec::parse("nope:1").is_err());
    }

    #[test]
    fn query_dsl_round_trips() {
        let (spec, cfg) =
            parse_query("tumbling:1000;sum:0:bytes,mean:1:lat;key=2;completeness=0.99").unwrap();
        assert_eq!(spec.aggregates.len(), 2);
        assert_eq!(spec.key_field, Some(2));
        assert_eq!(cfg.required_completeness, Some(0.99));
        let dsl = query_to_dsl(&spec, &cfg);
        let (spec2, cfg2) = parse_query(&dsl).unwrap();
        assert_eq!(dsl, query_to_dsl(&spec2, &cfg2));
        assert_eq!(cfg2.required_completeness, Some(0.99));
    }

    #[test]
    fn sliding_and_capacity_clauses_parse() {
        let (spec, cfg) = parse_query("sliding:200:50;max:3:peak;capacity=16").unwrap();
        assert!(matches!(spec.window, WindowSpec::Sliding { .. }));
        assert_eq!(cfg.result_capacity, 16);
    }

    #[test]
    fn slo_clause_parses_into_query_config() {
        let (_, cfg) = parse_query("tumbling:100;sum:0:s;slo=250").unwrap();
        assert_eq!(cfg.latency_slo, Some(250));
        assert!(parse_query("tumbling:100;sum:0:s;slo=fast").is_err());
    }

    #[test]
    fn malformed_queries_are_refused() {
        assert!(parse_query("").is_err(), "no window");
        assert!(parse_query("tumbling:100").is_err(), "no aggregates");
        assert!(parse_query("tumbling:x;sum:0:s").is_err());
        assert!(parse_query("tumbling:100;sum:0").is_err(), "agg arity");
        assert!(parse_query("tumbling:100;warp:0:s").is_err(), "agg kind");
        assert!(parse_query("bogus;sum:0:s").is_err());
    }

    #[test]
    fn idle_ticks_derive_from_timeouts() {
        let conn = ConnConfig {
            read_timeout: Duration::from_millis(50),
            idle_timeout: Duration::from_secs(1),
            max_frame_len: 1024,
        };
        assert_eq!(conn.idle_ticks(), 20);
    }
}
