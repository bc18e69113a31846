//! `quill-repro` on files the simulation harness writes: a clean case
//! replays clean, and a reproducer whose strategy line names an
//! out-of-range quality target is refused with the parse error (exit 1),
//! never a panic.

use std::path::Path;
use std::process::{Command, Output};

use quill_core::prelude::{
    AggregateKind, AggregateSpec, Event, Row, StrategySpec, Value, WindowSpec,
};
use quill_sim::repro::write_reproducer;
use quill_sim::{Mismatch, SimCase};

fn repro(path: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_quill-repro"))
        .arg(path)
        .output()
        .expect("quill-repro runs")
}

fn clean_case() -> SimCase {
    SimCase {
        seed: 0,
        window: WindowSpec::sliding(60u64, 20u64),
        aggregates: vec![
            AggregateSpec::new(AggregateKind::Sum, 1, "a0"),
            AggregateSpec::new(AggregateKind::ArgMax(2), 1, "a1"),
        ],
        key_field: Some(0),
        strategy: StrategySpec::Fixed(30),
        events: (0..40u64)
            .map(|i| {
                let row = [
                    Value::Int((i % 3) as i64),
                    Value::Float(i as f64),
                    Value::Float((i * 7 % 11) as f64),
                ];
                Event::new(i * 9 % 200, i, Row::new(row))
            })
            .collect(),
    }
}

#[test]
fn harness_reproducers_replay_and_bad_targets_are_refused() {
    let dir = std::env::temp_dir().join(format!("quill-repro-cli-{}", std::process::id()));
    let mismatch = Mismatch {
        check: "oracle-values".into(),
        exec: "sequential".into(),
        detail: "hand-built".into(),
    };
    let path = write_reproducer(&dir, &clean_case(), &mismatch);

    let out = repro(&path);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("clean:"), "{stdout}");

    let text = std::fs::read_to_string(&path).expect("reproducer reads");
    let edited = text.replace("strategy: fixed:30\n", "strategy: aq:1.5\n");
    assert_ne!(edited, text, "the reproducer has a strategy line");
    std::fs::write(&path, edited).expect("reproducer writes");
    let out = repro(&path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("completeness q=1.5 outside (0, 1]"),
        "{stderr}"
    );

    std::fs::remove_dir_all(&dir).ok();
}
