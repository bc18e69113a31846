//! Fixture: direct telemetry construction outside the telemetry crate
//! (linted as `crates/engine/src/operator/window_op.rs`).

#![forbid(unsafe_code)]

fn emit(at: u64) {
    let _span = Span {
        seq: 0,
        stage: Stage::BufferResidency,
        begin: at,
        end: at,
        shard: 0,
        query: 0,
        detail: [1, at],
        reason: None,
    };
    let _counter = Counter(Some(Default::default()));
}
