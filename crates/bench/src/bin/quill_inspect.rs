//! `quill-inspect` — render a span record or violation post-mortem JSONL
//! file as a human-readable report.
//!
//! ```text
//! quill-inspect <records.jsonl> [--top N]
//! quill-inspect timeline <spans.jsonl>
//! ```
//!
//! The default mode sniffs span files (`write_spans_jsonl`, or what
//! `quill-serve`'s `GET /trace` serves) and post-mortem files
//! (`write_post_mortems_jsonl`). The `timeline` mode is the
//! latency-attribution view over span JSON-lines.
//!
//! Malformed input is reported as `file:line: what`, followed by the
//! record itself, and exits with status 2 (status 1 is reserved for
//! usage/IO errors).

use quill_bench::inspect::{describe_malformed, render_report, render_timeline};
use std::process::ExitCode;

const USAGE: &str = "usage: quill-inspect <records.jsonl> [--top N]\n\
                     \x20      quill-inspect timeline <spans.jsonl>";

/// Exit status for malformed (but readable) input.
const MALFORMED: u8 = 2;

fn read(path: &str) -> Result<String, ExitCode> {
    std::fs::read_to_string(path).map_err(|e| {
        eprintln!("cannot read `{path}`: {e}");
        ExitCode::FAILURE
    })
}

/// Report a parse failure with file, line and the offending record.
fn report_malformed(path: &str, text: &str, err: &str) -> ExitCode {
    eprintln!("{}", describe_malformed(path, text, err));
    ExitCode::from(MALFORMED)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("timeline") {
        return timeline_main(&args[1..]);
    }
    let mut path: Option<String> = None;
    let mut top_k: usize = 10;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--top" => {
                let Some(v) = args.get(i + 1).and_then(|v| v.parse().ok()) else {
                    eprintln!("--top requires a positive integer");
                    return ExitCode::FAILURE;
                };
                top_k = v;
                i += 2;
            }
            "-h" | "--help" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if path.is_none() && !other.starts_with('-') => {
                path = Some(other.to_string());
                i += 1;
            }
            other => {
                eprintln!("unexpected argument `{other}`\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(path) = path else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let text = match read(&path) {
        Ok(t) => t,
        Err(code) => return code,
    };
    match render_report(&text, top_k) {
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => report_malformed(&path, &text, &e),
    }
}

fn timeline_main(args: &[String]) -> ExitCode {
    let mut path: Option<String> = None;
    for arg in args {
        match arg.as_str() {
            "-h" | "--help" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if path.is_none() && !other.starts_with('-') => path = Some(other.to_string()),
            other => {
                eprintln!("unexpected argument `{other}`\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(path) = path else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let text = match read(&path) {
        Ok(t) => t,
        Err(code) => return code,
    };
    match render_timeline(&text) {
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => report_malformed(&path, &text, &e),
    }
}
