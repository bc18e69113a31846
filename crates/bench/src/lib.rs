//! # quill-bench
//!
//! The experiment harness: one module per reconstructed table/figure (see
//! DESIGN.md §5), each regenerating its rows/series from scratch via the
//! public APIs of the other crates. The `experiments` binary drives them;
//! per-layer wall-clock costs are the quill-e2e benchmark's (`benchmark/`).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod harness;
pub mod inspect;

pub use harness::{Artifact, ExperimentCtx};

/// All experiment ids in run order.
pub const ALL_EXPERIMENTS: &[&str] = &["t1", "f2", "f3", "f4", "f5", "t6", "f7", "f8", "f9"];

/// Run one experiment by id.
///
/// # Panics
/// Panics on an unknown id; use [`ALL_EXPERIMENTS`] to enumerate valid ones.
pub fn run_experiment(id: &str, ctx: &ExperimentCtx) -> Vec<Artifact> {
    match id {
        "t1" => experiments::t1_workloads::run(ctx),
        "f2" => experiments::f2_quality_vs_k::run(ctx),
        "f3" => experiments::f3_latency_vs_quality::run(ctx),
        "f4" => experiments::f4_adaptivity::run(ctx),
        "f5" => experiments::f5_compliance::run(ctx),
        "t6" => experiments::t6_summary::run(ctx),
        "f7" => experiments::f7_throughput::run(ctx),
        "f8" => experiments::f8_ablations::run(ctx),
        "f9" => experiments::f9_error_targets::run(ctx),
        other => panic!("unknown experiment id `{other}`"),
    }
}
