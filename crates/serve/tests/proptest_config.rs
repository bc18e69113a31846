//! Property tests of the daemon's text parsers and its JSON writer (ROADMAP
//! 6a): the query DSL and the strategy grammar (`quill_core::dsl`, as the
//! daemon re-exports them) take arbitrary bytes and near-miss inputs without
//! panicking and refuse them with [`EngineError::InvalidSpec`]; whatever
//! they accept, the engine either runs or refuses with a typed error;
//! `query_to_dsl ∘ parse_query` is a fixed point; and `json_string` always
//! renders a string a JSON reader gives back unchanged.

use proptest::prelude::*;
use quill_core::prelude::{EngineError, Event, Row, Session, Value};
use quill_serve::config::{parse_query, query_to_dsl, StrategySpec};
use quill_serve::json;
use quill_telemetry::json::json_string;

/// Numbers as a hostile client spells them: in range, boundary, overflowing,
/// signed, fractional, non-finite, empty.
const NUMBERS: &[&str] = &[
    "0",
    "1",
    "2",
    "100",
    "200",
    "0.5",
    "0.95",
    "1.0",
    "1.5",
    "-1",
    "-0",
    "+7",
    "18446744073709551615",
    "18446744073709551616",
    "1e3",
    "1e400",
    "1e-400",
    "NaN",
    "inf",
    "-inf",
    "",
    " 3",
    "x",
    "0x10",
];

const AGG_KINDS: &[&str] = &[
    "count", "sum", "mean", "min", "max", "stddev", "variance", "median", "distinct", "first",
    "last", "q0.5", "q1", "q1.5", "qinf", "qNaN", "q-0.1", "q", "argmin", "warp", "",
];

/// Seven times in eight one of `good`, else one of [`NUMBERS`].
fn number(good: &'static [&'static str]) -> impl Strategy<Value = String> {
    (0..8usize, 0..good.len(), 0..NUMBERS.len())
        .prop_map(move |(w, g, b)| if w < 7 { good[g] } else { NUMBERS[b] }.to_string())
}

/// A query that is well-formed but for a slot or two: a window, an aggregate
/// list, then a few option clauses, each number mostly sane. About half
/// parse; the rest miss by a token.
fn near_miss_query() -> impl Strategy<Value = String> {
    let window = prop_oneof![
        number(&["1", "100", "1000"]).prop_map(|n| format!("tumbling:{n}")),
        (number(&["100", "1000"]), number(&["1", "50", "100"]))
            .prop_map(|(a, b)| format!("sliding:{a}:{b}")),
    ];
    let agg = (
        0..8usize,
        0..12usize,
        0..AGG_KINDS.len(),
        number(&["0", "1", "2"]),
        "[a-z]{0,4}",
    )
        .prop_map(|(w, good, any, field, name)| {
            let kind = AGG_KINDS[if w < 7 { good } else { any }];
            format!("{kind}:{field}:{name}")
        });
    let option = prop_oneof![
        number(&["0", "2"]).prop_map(|n| format!("key={n}")),
        number(&["0.5", "0.95", "1"]).prop_map(|n| format!("completeness={n}")),
        number(&["1", "100"]).prop_map(|n| format!("capacity={n}")),
        number(&["0", "200"]).prop_map(|n| format!("slo={n}")),
        "[a-z:=, ]{0,6}",
    ];
    let aggs = prop::collection::vec(agg, 1..4).prop_map(|aggs| aggs.join(","));
    (window, aggs, prop::collection::vec(option, 0..3)).prop_map(|(window, aggs, options)| {
        let mut clauses = vec![window, aggs];
        clauses.extend(options);
        clauses.join(";")
    })
}

fn near_miss_strategy() -> impl Strategy<Value = String> {
    let head = prop_oneof![
        Just("dropall"),
        Just("fixed"),
        Just("mp"),
        Just("aq"),
        Just("punct"),
        Just("nope"),
        Just("")
    ];
    (
        head,
        prop::collection::vec(number(&["0", "1", "0.95", "100"]), 0..4),
    )
        .prop_map(|(head, args)| {
            let mut s = head.to_string();
            for a in args {
                s.push(':');
                s.push_str(&a);
            }
            s
        })
}

fn lossy(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

/// Three events through a session running `query` over `strategy`: enough to
/// insert, slide and flush. Returns the registration's verdict.
fn run(strategy: &StrategySpec, dsl: &str) -> Result<(), EngineError> {
    let (spec, cfg) = parse_query(dsl).expect("the caller parsed it");
    let mut session = Session::new(strategy.build());
    let handle = session.register_with(&spec, cfg)?;
    for (i, ts) in [5u64, 3, 1_000_000].into_iter().enumerate() {
        let row = Row::new([Value::Int(i as i64), Value::Float(0.5), Value::str("k")]);
        session.push(Event::new(ts, i as u64, row));
    }
    session.finish();
    handle.poll();
    Ok(())
}

fn is_typed_refusal(e: &EngineError) -> bool {
    matches!(
        e,
        EngineError::InvalidWindow(_)
            | EngineError::InvalidAggregate(_)
            | EngineError::InvalidSpec(_)
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_are_refused_or_parsed_never_panic(
        bytes in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let text = lossy(&bytes);
        for parsed in [parse_query(&text).err(), StrategySpec::parse(&text).err()] {
            prop_assert!(matches!(parsed, None | Some(EngineError::InvalidSpec(_))), "{text:?}: {parsed:?}");
        }
    }

    #[test]
    fn a_parsed_query_registers_or_is_refused_with_a_typed_error(dsl in near_miss_query()) {
        match parse_query(&dsl) {
            Err(e) => prop_assert!(matches!(e, EngineError::InvalidSpec(_)), "{dsl:?}: {e:?}"),
            Ok((spec, cfg)) => {
                // Printing what was parsed and parsing that again changes
                // nothing more.
                let once = query_to_dsl(&spec, &cfg);
                let (spec2, cfg2) = parse_query(&once)
                    .map_err(|e| TestCaseError::fail(format!("{dsl:?} printed {once:?}: {e}")))?;
                prop_assert_eq!(&once, &query_to_dsl(&spec2, &cfg2));
                if let Err(e) = run(&StrategySpec::Fixed(10), &dsl) {
                    prop_assert!(is_typed_refusal(&e), "{dsl:?}: {e:?}");
                }
            }
        }
    }

    #[test]
    fn a_parsed_strategy_builds_and_runs(text in near_miss_strategy()) {
        match StrategySpec::parse(&text) {
            Err(e) => prop_assert!(matches!(e, EngineError::InvalidSpec(_)), "{text:?}: {e:?}"),
            Ok(strategy) => {
                let ran = run(&strategy, "sliding:100:50;sum:1:s,median:1:m;key=2");
                prop_assert!(ran.as_ref().map_or_else(is_typed_refusal, |()| true), "{text:?}: {ran:?}");
            }
        }
    }

    #[test]
    fn escaped_strings_read_back_unchanged(
        bytes in prop::collection::vec(any::<u8>(), 0..48),
        picks in prop::collection::vec(0usize..8, 0..12),
    ) {
        // Arbitrary text, salted with the characters JSON treats specially.
        let special = ['"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{2028}'];
        let mut s = lossy(&bytes);
        s.extend(picks.iter().map(|&i| special[i]));
        let quoted = json_string(&s);
        let inner = quoted.strip_prefix('"').and_then(|q| q.strip_suffix('"'));
        prop_assert_eq!(inner.and_then(unescape), Some(s), "{:?}", quoted);
    }

    #[test]
    fn numbers_render_as_json_numbers_or_null(v in any::<f64>(), pick in 0usize..6) {
        let v = [v, v * 1e300 * 1e300, f64::NAN, f64::NEG_INFINITY, -0.0, v / 1e300][pick];
        let text = json::num(v);
        if v.is_finite() {
            prop_assert_eq!(text.parse::<f64>().ok(), Some(v), "{}", text);
            prop_assert!(text.bytes().all(|b| b.is_ascii_digit() || b"+-.eE".contains(&b)), "{}", text);
        } else {
            prop_assert_eq!(text, "null");
        }
    }
}

/// Read the inside of a JSON string literal as RFC 8259 defines it: `None`
/// for an unescaped quote or control character, or a malformed escape.
fn unescape(s: &str) -> Option<String> {
    let mut out = String::new();
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return None,
            c if (c as u32) < 0x20 => return None,
            '\\' => out.push(match chars.next()? {
                '"' => '"',
                '\\' => '\\',
                '/' => '/',
                'n' => '\n',
                't' => '\t',
                'r' => '\r',
                'b' => '\u{8}',
                'f' => '\u{c}',
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    char::from_u32(
                        u32::from_str_radix(&hex, 16)
                            .ok()
                            .filter(|_| hex.len() == 4)?,
                    )?
                }
                _ => return None,
            }),
            c => out.push(c),
        }
    }
    Some(out)
}

/// The inputs ROADMAP 6(a) had only probed by hand, pinned: each is parsed
/// (or not) and registered (or not) exactly like this, and none panics.
#[test]
fn hand_probed_edge_inputs_are_pinned() {
    let fixed = StrategySpec::Fixed(10);
    // `completeness=NaN` parses — it is a float — and registration refuses
    // a requirement outside (0, 1].
    let (_, cfg) = parse_query("tumbling:100;sum:0:s;completeness=NaN").expect("parses");
    assert!(cfg.required_completeness.is_some_and(f64::is_nan));
    let refused = run(&fixed, "tumbling:100;sum:0:s;completeness=NaN");
    assert!(
        matches!(refused, Err(EngineError::InvalidSpec(_))),
        "{refused:?}"
    );
    // Degenerate windows parse and are the engine's to refuse.
    for dsl in [
        "tumbling:0;sum:0:s",
        "sliding:100:200;sum:0:s",
        "sliding:100:0;sum:0:s",
    ] {
        let refused = run(&fixed, dsl);
        assert!(
            matches!(refused, Err(EngineError::InvalidWindow(_))),
            "{dsl}: {refused:?}"
        );
    }
    // A quantile outside [0, 1] likewise.
    for dsl in [
        "tumbling:100;qinf:0:q",
        "tumbling:100;qNaN:0:q",
        "tumbling:100;q1.5:0:q",
    ] {
        let refused = run(&fixed, dsl);
        assert!(
            matches!(refused, Err(EngineError::InvalidAggregate(_))),
            "{dsl}: {refused:?}"
        );
    }
    // A key field no row has groups everything under `Null`.
    assert_eq!(
        run(&fixed, "tumbling:100;sum:0:s;key=18446744073709551615"),
        Ok(())
    );
    assert!(parse_query("tumbling:100;sum:0:s;key=18446744073709551616").is_err());
    // Zero expected sources: the combined watermark waits for nobody.
    let punct = StrategySpec::parse("punct:0:0").expect("parses");
    assert_eq!(run(&punct, "tumbling:100;sum:0:s"), Ok(()));
    for s in [
        "aq:NaN",
        "aq:0",
        "aq:-0",
        "aq:inf",
        "aq:1e-400",
        "fixed:-1",
        "mp:",
        "punct:0",
        "punct:0:2:1:1",
        "aqe:-1:0",
        "aqe:0.1",
        "oracle:1",
    ] {
        assert!(
            matches!(StrategySpec::parse(s), Err(EngineError::InvalidSpec(_))),
            "{s}"
        );
    }
}
