//! The one text vocabulary of a plan: which disorder-control strategy runs
//! ([`StrategySpec`]) and what each continuous query computes and needs (the
//! query DSL, [`parse_query`] / [`query_to_dsl`]).
//!
//! The daemon reads both from CLI flags and `POST /queries` bodies and lists
//! registered queries in them, the simulator writes them into reproducer
//! files, and the experiments name their sweeps with them. Every form here
//! parses back from what it prints; every refusal is
//! [`EngineError::InvalidSpec`].

use crate::aq::{AqConfig, AqKSlack};
use crate::punctuated::PunctuatedBuffer;
use crate::quality::QualityTarget;
use crate::runner::QuerySpec;
use crate::session::{QueryConfig, DEFAULT_RESULT_CAPACITY};
use crate::strategy::{DisorderControl, DropAll, FixedKSlack, MpKSlack, OracleBuffer};
use quill_engine::aggregate::AggregateSpec;
use quill_engine::error::{EngineError, Result};
use quill_engine::window::WindowSpec;
use std::fmt;
use std::str::FromStr;

/// Which disorder-control strategy a session or run uses, in a form that
/// parses from text (`--strategy aq:0.95`) and rebuilds fresh
/// [`DisorderControl`] instances.
#[derive(Debug, Clone, PartialEq)]
pub enum StrategySpec {
    /// `dropall`: K = 0, no reordering.
    DropAll,
    /// `fixed:<k>`: constant slack.
    Fixed(u64),
    /// `mp` / `mp:<cap>`: max-delay ratchet, optionally capped.
    Mp(Option<u64>),
    /// `aq:<q>`: quality-driven adaptive slack targeting completeness `q`
    /// in (0, 1].
    Aq(f64),
    /// `aqe:<eps>:<field>`: adaptive slack targeting a relative aggregate
    /// error below `epsilon` (> 0) on row field `field`.
    AqError {
        /// Error bound.
        epsilon: f64,
        /// Row index of the aggregated numeric field.
        field: usize,
    },
    /// `oracle`: full buffering, zero loss (offline reference).
    Oracle,
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
    /// [`EngineError::InvalidSpec`] on unknown names, malformed parameters
    /// or a quality target out of range.
    pub fn parse(s: &str) -> Result<StrategySpec> {
        let mut parts = s.split(':');
        let head = parts.next().unwrap_or_default();
        let rest: Vec<&str> = parts.collect();
        let context = format!("strategy `{s}`: ");
        let bad = |what: &str| EngineError::InvalidSpec(format!("{context}{what}"));
        let valid = |target: QualityTarget| target.validate().map_err(|e| bad(&e));
        let spec = match (head, rest.as_slice()) {
            ("dropall", []) => StrategySpec::DropAll,
            ("fixed", [k]) => StrategySpec::Fixed(token(k, "K", &context)?),
            ("mp", []) => StrategySpec::Mp(None),
            ("mp", [cap]) => StrategySpec::Mp(Some(token(cap, "cap", &context)?)),
            ("aq", [q]) => {
                let q = token(q, "completeness target", &context)?;
                valid(QualityTarget::Completeness { q })?;
                StrategySpec::Aq(q)
            }
            ("aqe", [eps, field]) => {
                let epsilon = token(eps, "error bound", &context)?;
                let field = token(field, "field index", &context)?;
                valid(QualityTarget::MaxRelError { epsilon, field })?;
                StrategySpec::AqError { epsilon, field }
            }
            ("oracle", []) => StrategySpec::Oracle,
            ("punct", [field, sources, slack @ ..]) if slack.len() <= 1 => {
                StrategySpec::Punctuated {
                    source_field: token(field, "source field index", &context)?,
                    expected_sources: token(sources, "expected sources", &context)?,
                    slack: slack
                        .first()
                        .map_or(Ok(0), |t| token(t, "slack", &context))?,
                }
            }
            _ => {
                return Err(bad("expected dropall | fixed:<k> | mp[:<cap>] | aq:<q> | \
                     aqe:<eps>:<field> | oracle | punct:<field>:<sources>[:<slack>]"))
            }
        };
        Ok(spec)
    }

    /// Build a fresh strategy instance.
    pub fn build(&self) -> Box<dyn DisorderControl> {
        match *self {
            StrategySpec::DropAll => Box::new(DropAll::new()),
            StrategySpec::Fixed(k) => Box::new(FixedKSlack::new(k)),
            StrategySpec::Mp(None) => Box::new(MpKSlack::new()),
            StrategySpec::Mp(Some(cap)) => Box::new(MpKSlack::bounded(cap)),
            StrategySpec::Aq(q) => Box::new(AqKSlack::for_completeness(q)),
            StrategySpec::AqError { epsilon, field } => {
                Box::new(AqKSlack::new(AqConfig::max_rel_error(epsilon, field)))
            }
            StrategySpec::Oracle => Box::new(OracleBuffer::new()),
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

/// The text [`StrategySpec::parse`] reads back to the same spec.
impl fmt::Display for StrategySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StrategySpec::DropAll => write!(f, "dropall"),
            StrategySpec::Fixed(k) => write!(f, "fixed:{k}"),
            StrategySpec::Mp(None) => write!(f, "mp"),
            StrategySpec::Mp(Some(cap)) => write!(f, "mp:{cap}"),
            StrategySpec::Aq(q) => write!(f, "aq:{q}"),
            StrategySpec::AqError { epsilon, field } => write!(f, "aqe:{epsilon}:{field}"),
            StrategySpec::Oracle => write!(f, "oracle"),
            StrategySpec::Punctuated {
                source_field,
                expected_sources,
                slack,
            } => write!(f, "punct:{source_field}:{expected_sources}:{slack}"),
        }
    }
}

/// Parse one numeric token, or refuse it as `<context>bad <what> `<text>``.
fn token<T: FromStr>(text: &str, what: &str, context: &str) -> Result<T> {
    text.parse()
        .map_err(|_| EngineError::InvalidSpec(format!("{context}bad {what} `{text}`")))
}

/// Parse the compact query DSL:
///
/// ```text
/// <window>;<aggregates>[;key=<field>][;completeness=<q>][;capacity=<n>][;slo=<lat>]
/// window     = tumbling:<len> | sliding:<len>:<slide>
/// aggregates = <kind>:<field>:<name> [, ...]
/// ```
///
/// `<kind>` is an [`AggregateKind`](quill_engine::aggregate::AggregateKind)
/// as it displays (`sum`, `q0.9`, `argmax(by=2)`, ...). Example:
/// `tumbling:1000;sum:0:bytes,mean:1:lat;key=2;completeness=0.99`. Values
/// the engine refuses (a zero window, a quantile outside [0, 1]) parse and
/// are refused at registration.
///
/// # Errors
/// [`EngineError::InvalidSpec`] describing the offending clause.
pub fn parse_query(dsl: &str) -> Result<(QuerySpec, QueryConfig)> {
    let bad = EngineError::InvalidSpec;
    let mut window = None;
    let mut aggregates = Vec::new();
    let mut key_field = None;
    let mut cfg = QueryConfig::default();
    for clause in dsl.split(';').map(str::trim) {
        if clause.is_empty() {
            continue;
        }
        if let Some(rest) = clause.strip_prefix("tumbling:") {
            let len: u64 = token(rest, "tumbling length", "")?;
            window = Some(WindowSpec::tumbling(len));
        } else if let Some(rest) = clause.strip_prefix("sliding:") {
            let (len, slide) = rest
                .split_once(':')
                .ok_or_else(|| bad("sliding needs <len>:<slide>".into()))?;
            let len = token::<u64>(len, "sliding length", "")?;
            window = Some(WindowSpec::sliding(len, token::<u64>(slide, "slide", "")?));
        } else if let Some(rest) = clause.strip_prefix("key=") {
            key_field = Some(token(rest, "key field", "")?);
        } else if let Some(rest) = clause.strip_prefix("completeness=") {
            cfg = cfg.with_required_completeness(token(rest, "completeness", "")?);
        } else if let Some(rest) = clause.strip_prefix("capacity=") {
            cfg = cfg.with_result_capacity(token(rest, "capacity", "")?);
        } else if let Some(rest) = clause.strip_prefix("slo=") {
            cfg = cfg.with_latency_slo(token(rest, "latency SLO", "")?);
        } else if clause.contains(':') {
            // The aggregate list clause: comma-separated kind:field:name.
            for agg in clause.split(',').map(str::trim) {
                let mut it = agg.splitn(3, ':');
                let (Some(kind), Some(field), Some(name)) = (it.next(), it.next(), it.next())
                else {
                    return Err(bad(format!(
                        "aggregate `{agg}` must be <kind>:<field>:<name>"
                    )));
                };
                let field = token(field, "field index", "")?;
                aggregates.push(AggregateSpec::new(kind.parse()?, field, name));
            }
        } else {
            return Err(bad(format!("unrecognised clause `{clause}`")));
        }
    }
    let window = window.ok_or_else(|| bad("query needs a window clause".into()))?;
    if aggregates.is_empty() {
        return Err(bad("query needs at least one aggregate".into()));
    }
    Ok((QuerySpec::new(window, aggregates, key_field), cfg))
}

/// Render a query and its registration options back into the DSL;
/// [`parse_query`] returns the same pair. Options at their defaults are
/// left out.
pub fn query_to_dsl(spec: &QuerySpec, cfg: &QueryConfig) -> String {
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
    if let Some(q) = cfg.required_completeness {
        out.push_str(&format!(";completeness={q}"));
    }
    if cfg.result_capacity != DEFAULT_RESULT_CAPACITY {
        out.push_str(&format!(";capacity={}", cfg.result_capacity));
    }
    if let Some(slo) = cfg.latency_slo {
        out.push_str(&format!(";slo={slo}"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Every valid spec: `q` over all of (0, 1] and `epsilon` over every
    /// positive finite float, both drawn by bit pattern.
    fn arb_spec() -> impl Strategy<Value = StrategySpec> {
        let one = 1.0f64.to_bits();
        let max = f64::MAX.to_bits();
        prop_oneof![
            Just(StrategySpec::DropAll),
            any::<u64>().prop_map(StrategySpec::Fixed),
            Just(StrategySpec::Mp(None)),
            any::<u64>().prop_map(|cap| StrategySpec::Mp(Some(cap))),
            (1..=one).prop_map(|q| StrategySpec::Aq(f64::from_bits(q))),
            (1..=max, any::<usize>()).prop_map(|(eps, field)| StrategySpec::AqError {
                epsilon: f64::from_bits(eps),
                field
            }),
            Just(StrategySpec::Oracle),
            (any::<usize>(), any::<usize>(), any::<u64>()).prop_map(
                |(source_field, expected_sources, slack)| StrategySpec::Punctuated {
                    source_field,
                    expected_sources,
                    slack
                }
            ),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn every_strategy_spec_reads_back_from_its_text(spec in arb_spec()) {
            prop_assert_eq!(StrategySpec::parse(&spec.to_string()), Ok(spec));
        }
    }
}
