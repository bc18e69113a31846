//! `quill-repro` — replay a simulation-harness failure reproducer.
//!
//! ```text
//! quill-repro <case.repro>
//! ```
//!
//! The input is a file written by `quill-sim` to `results/failures/` when a
//! differential check diverged from the naive oracle (see DESIGN.md §12).
//! The case is parsed, re-run through the full `check_case` battery, and the
//! process exits nonzero while the mismatch persists — so a reproducer
//! doubles as a regression gate: it fails before the fix and passes after.

use std::path::Path;
use std::process::ExitCode;

use quill_sim::harness::check_case;
use quill_sim::repro::load_case;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let path = match args.as_slice() {
        [p] if p != "-h" && p != "--help" => p.clone(),
        _ => {
            println!("usage: quill-repro <case.repro>");
            return if args.is_empty() {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            };
        }
    };
    let case = match load_case(Path::new(&path)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("quill-repro: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "replaying seed {} / strategy {} / {} events",
        case.seed,
        case.strategy,
        case.events.len()
    );
    match check_case(&case) {
        Ok(stats) => {
            println!(
                "clean: {} executions, {} windows matched the oracle",
                stats.executions, stats.windows_checked
            );
            ExitCode::SUCCESS
        }
        Err(m) => {
            eprintln!("mismatch reproduced: {m}");
            ExitCode::FAILURE
        }
    }
}
