//! Daemon configuration: strategy specs, per-connection policies and the
//! compact query DSL used for live registration.
//!
//! Everything here is parseable from CLI flags / HTTP request bodies and
//! printable back, so a running daemon's configuration is always
//! reproducible from text.

use crate::error::{ServeError, ServeResult};
use quill_core::prelude::{
    AggregateKind, AggregateSpec, AqKSlack, DisorderControl, DropAll, FixedKSlack, MpKSlack,
    PunctuatedBuffer, QueryConfig, QuerySpec, WindowSpec,
};
use std::time::Duration;

/// Which disorder-control strategy the session core runs, in a form that
/// parses from a CLI flag (`--strategy aq:0.95`) and rebuilds fresh
/// [`DisorderControl`] instances.
#[derive(Debug, Clone, PartialEq)]
pub enum StrategySpec {
    /// `dropall`: K = 0, no reordering.
    DropAll,
    /// `fixed:<k>`: constant slack.
    Fixed(u64),
    /// `mp` / `mp:<cap>`: max-delay ratchet, optionally capped.
    Mp(Option<u64>),
    /// `aq:<q>`: quality-driven adaptive slack targeting completeness `q`.
    Aq(f64),
    /// `punct:<source_field>:<expected_sources>[:<slack>]`: per-source
    /// punctuation (heartbeat-driven watermarks).
    Punctuated {
        /// Row index carrying the source id.
        source_field: usize,
        /// Distinct sources the combined watermark waits for.
        expected_sources: usize,
        /// Extra per-source slack (intra-source disorder compensation).
        slack: u64,
    },
}

impl StrategySpec {
    /// Parse a spec string (see the variant docs for the grammar).
    ///
    /// # Errors
    /// [`ServeError::Config`] on unknown names or malformed parameters.
    pub fn parse(s: &str) -> ServeResult<StrategySpec> {
        let mut parts = s.split(':');
        let head = parts.next().unwrap_or_default();
        let rest: Vec<&str> = parts.collect();
        let bad = |what: &str| ServeError::Config(format!("strategy `{s}`: {what}"));
        match (head, rest.as_slice()) {
            ("dropall", []) => Ok(StrategySpec::DropAll),
            ("fixed", [k]) => Ok(StrategySpec::Fixed(
                k.parse().map_err(|_| bad("K must be an integer"))?,
            )),
            ("mp", []) => Ok(StrategySpec::Mp(None)),
            ("mp", [cap]) => Ok(StrategySpec::Mp(Some(
                cap.parse().map_err(|_| bad("cap must be an integer"))?,
            ))),
            ("aq", [q]) => {
                let q: f64 = q.parse().map_err(|_| bad("target must be a float"))?;
                if !(q > 0.0 && q <= 1.0) {
                    return Err(bad("completeness target must be in (0, 1]"));
                }
                Ok(StrategySpec::Aq(q))
            }
            ("punct", [field, sources]) => Ok(StrategySpec::Punctuated {
                source_field: field.parse().map_err(|_| bad("source field index"))?,
                expected_sources: sources.parse().map_err(|_| bad("expected sources"))?,
                slack: 0,
            }),
            ("punct", [field, sources, slack]) => Ok(StrategySpec::Punctuated {
                source_field: field.parse().map_err(|_| bad("source field index"))?,
                expected_sources: sources.parse().map_err(|_| bad("expected sources"))?,
                slack: slack.parse().map_err(|_| bad("slack"))?,
            }),
            _ => Err(bad("expected dropall | fixed:<k> | mp[:<cap>] | aq:<q> | \
                 punct:<field>:<sources>[:<slack>]")),
        }
    }

    /// Build a fresh strategy instance for a session core.
    pub fn build(&self) -> Box<dyn DisorderControl> {
        match *self {
            StrategySpec::DropAll => Box::new(DropAll::new()),
            StrategySpec::Fixed(k) => Box::new(FixedKSlack::new(k)),
            StrategySpec::Mp(None) => Box::new(MpKSlack::new()),
            StrategySpec::Mp(Some(cap)) => Box::new(MpKSlack::bounded(cap)),
            StrategySpec::Aq(q) => Box::new(AqKSlack::for_completeness(q)),
            StrategySpec::Punctuated {
                source_field,
                expected_sources,
                slack,
            } => Box::new(
                PunctuatedBuffer::new(source_field, expected_sources).with_source_slack(slack),
            ),
        }
    }
}

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
    /// Bound, in events, on the ingest queue between socket readers and the
    /// session core; the server derives from it how many frames one batch
    /// may carry and how many batches may wait. A full queue blocks readers,
    /// which stalls the TCP receive window: backpressure instead of
    /// unbounded memory.
    pub queue_capacity: usize,
    /// Per-connection transport policy.
    pub conn: ConnConfig,
    /// Ring capacity of the pipeline span recorders backing `GET /trace`
    /// (`0` disables span tracing entirely — the zero-cost path); default
    /// [`SERVE_SPAN_CAPACITY`].
    pub span_capacity: usize,
}

/// Default ring capacity of the daemon's two span recorders: 4 096
/// records, 0.23 MB each. The logical ring records every late arrival and
/// K decision, so on a disordered stream it is full within seconds and its
/// capacity is resident memory; `GET /trace` shows the most recent records.
pub const SERVE_SPAN_CAPACITY: usize = 4_096;

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            ingest_addr: "127.0.0.1:0".into(),
            http_addr: "127.0.0.1:0".into(),
            strategy: StrategySpec::Fixed(500),
            queue_capacity: 4096,
            conn: ConnConfig::default(),
            span_capacity: SERVE_SPAN_CAPACITY,
        }
    }
}

/// Parse one aggregate kind name from the query DSL.
fn parse_agg_kind(s: &str) -> ServeResult<AggregateKind> {
    Ok(match s {
        "count" => AggregateKind::Count,
        "sum" => AggregateKind::Sum,
        "mean" => AggregateKind::Mean,
        "min" => AggregateKind::Min,
        "max" => AggregateKind::Max,
        "stddev" => AggregateKind::StdDev,
        "variance" => AggregateKind::Variance,
        "median" => AggregateKind::Median,
        "distinct" => AggregateKind::DistinctCount,
        "first" => AggregateKind::First,
        "last" => AggregateKind::Last,
        q if q.starts_with('q') => {
            let p: f64 = q[1..]
                .parse()
                .map_err(|_| ServeError::Config(format!("bad quantile `{q}`")))?;
            AggregateKind::Quantile(p)
        }
        other => {
            return Err(ServeError::Config(format!(
                "unknown aggregate `{other}` (count, sum, mean, min, max, stddev, variance, \
                 median, distinct, first, last, q<p>)"
            )))
        }
    })
}

/// Parse the compact query DSL used by `POST /queries` bodies and the
/// `--query` CLI flag:
///
/// ```text
/// <window>;<aggregates>[;key=<field>][;completeness=<q>][;capacity=<n>][;slo=<lat>]
/// window     = tumbling:<len> | sliding:<len>:<slide>
/// aggregates = <kind>:<field>:<name> [, ...]
/// ```
///
/// Example: `tumbling:1000;sum:0:bytes,mean:1:lat;key=2;completeness=0.99`.
///
/// # Errors
/// [`ServeError::Config`] describing the offending clause.
pub fn parse_query(dsl: &str) -> ServeResult<(QuerySpec, QueryConfig)> {
    let mut window = None;
    let mut aggregates = Vec::new();
    let mut key_field = None;
    let mut cfg = QueryConfig::default();
    for clause in dsl.split(';').map(str::trim) {
        if clause.is_empty() {
            continue;
        }
        if let Some(rest) = clause.strip_prefix("tumbling:") {
            let len: u64 = rest
                .parse()
                .map_err(|_| ServeError::Config(format!("bad tumbling length `{rest}`")))?;
            window = Some(WindowSpec::tumbling(len));
        } else if let Some(rest) = clause.strip_prefix("sliding:") {
            let (len, slide) = rest
                .split_once(':')
                .ok_or_else(|| ServeError::Config("sliding needs <len>:<slide>".into()))?;
            let len: u64 = len
                .parse()
                .map_err(|_| ServeError::Config(format!("bad sliding length `{len}`")))?;
            let slide: u64 = slide
                .parse()
                .map_err(|_| ServeError::Config(format!("bad slide `{slide}`")))?;
            window = Some(WindowSpec::sliding(len, slide));
        } else if let Some(rest) = clause.strip_prefix("key=") {
            key_field = Some(
                rest.parse()
                    .map_err(|_| ServeError::Config(format!("bad key field `{rest}`")))?,
            );
        } else if let Some(rest) = clause.strip_prefix("completeness=") {
            let q: f64 = rest
                .parse()
                .map_err(|_| ServeError::Config(format!("bad completeness `{rest}`")))?;
            cfg = cfg.with_required_completeness(q);
        } else if let Some(rest) = clause.strip_prefix("capacity=") {
            let n: usize = rest
                .parse()
                .map_err(|_| ServeError::Config(format!("bad capacity `{rest}`")))?;
            cfg = cfg.with_result_capacity(n);
        } else if let Some(rest) = clause.strip_prefix("slo=") {
            let n: u64 = rest
                .parse()
                .map_err(|_| ServeError::Config(format!("bad latency SLO `{rest}`")))?;
            cfg = cfg.with_latency_slo(n);
        } else if clause.contains(':') {
            // The aggregate list clause: comma-separated kind:field:name.
            for agg in clause.split(',').map(str::trim) {
                let mut it = agg.splitn(3, ':');
                let (kind, field, name) = (it.next(), it.next(), it.next());
                let (Some(kind), Some(field), Some(name)) = (kind, field, name) else {
                    return Err(ServeError::Config(format!(
                        "aggregate `{agg}` must be <kind>:<field>:<name>"
                    )));
                };
                let field: usize = field
                    .parse()
                    .map_err(|_| ServeError::Config(format!("bad field index `{field}`")))?;
                aggregates.push(AggregateSpec::new(parse_agg_kind(kind)?, field, name));
            }
        } else {
            return Err(ServeError::Config(format!(
                "unrecognised clause `{clause}`"
            )));
        }
    }
    let window = window.ok_or_else(|| ServeError::Config("query needs a window clause".into()))?;
    if aggregates.is_empty() {
        return Err(ServeError::Config(
            "query needs at least one aggregate".into(),
        ));
    }
    Ok((QuerySpec::new(window, aggregates, key_field), cfg))
}

/// Render a query spec back into the DSL (round-trips through
/// [`parse_query`] for every kind the DSL can name).
pub fn query_to_dsl(spec: &QuerySpec, required_completeness: Option<f64>) -> String {
    let mut out = match spec.window {
        WindowSpec::Tumbling { length } => format!("tumbling:{}", length.raw()),
        WindowSpec::Sliding { length, slide } => {
            format!("sliding:{}:{}", length.raw(), slide.raw())
        }
    };
    out.push(';');
    let aggs: Vec<String> = spec
        .aggregates
        .iter()
        .map(|a| format!("{}:{}:{}", a.kind, a.field, a.name))
        .collect();
    out.push_str(&aggs.join(","));
    if let Some(k) = spec.key_field {
        out.push_str(&format!(";key={k}"));
    }
    if let Some(q) = required_completeness {
        out.push_str(&format!(";completeness={q}"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_specs_parse_and_build() {
        for (s, name_part) in [
            ("dropall", "drop"),
            ("fixed:100", "fixed"),
            ("mp", "mp"),
            ("mp:500", "mp"),
            ("aq:0.95", "aq"),
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
        let dsl = query_to_dsl(&spec, cfg.required_completeness);
        let (spec2, cfg2) = parse_query(&dsl).unwrap();
        assert_eq!(dsl, query_to_dsl(&spec2, cfg2.required_completeness));
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
