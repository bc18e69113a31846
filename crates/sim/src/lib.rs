//! # quill-sim
//!
//! Deterministic simulation harness: differential and metamorphic testing of
//! every strategy/executor pair against a naive full-sort reference oracle.
//!
//! The harness closes the loop the individual crates leave open: each crate
//! tests its own layer, but nothing proves that an arbitrary query, run
//! through an arbitrary disorder-control strategy, on an arbitrary executor
//! configuration, over an adversarially mutated stream, produces exactly the
//! results (and exactly the quality report) that the paper's semantics
//! prescribe. `quill-sim` does, case by generated case:
//!
//! * [`spec`] — seeded random [`spec::SimCase`] generation: query shapes
//!   covering all aggregate kinds, every strategy family, and streams
//!   perturbed by the `quill_gen::mutate` adversarial mutators;
//! * [`oracle`] — `quill-metrics`' naive oracle
//!   ([`oracle::oracle_results`]), re-exported: it fully sorts the stream
//!   and recomputes every window from first principles, sharing no code
//!   with the engine's incremental aggregates, and it is also what scores
//!   every run;
//! * [`harness`] — the differential battery ([`harness::check_case`]):
//!   staging invariants, sequential-vs-oracle comparison, shard-count and
//!   batch-size invariance sweeps, scheduler independence, telemetry
//!   reconciliation, reported-quality agreement, and permutation invariance
//!   within the disorder bound; on failure the case is greedily shrunk and
//!   written as a self-contained reproducer;
//! * [`repro`] — the text reproducer format read back by the `quill-repro`
//!   binary in `quill-bench`;
//! * [`support`] — the shared test-support helpers (stream builders, query
//!   builders, the canonical strategy roster) re-exported to the integration
//!   test package so they exist in exactly one place.
//!
//! Everything is seeded; a failing seed replays bit-for-bit. The crate
//! deliberately constructs no entropy of its own — the lint rule
//! `no-nondeterminism` enforces that for every file under `crates/sim` and
//! for the oracle's file in `quill-metrics`.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod harness;
pub mod repro;
pub mod spec;
pub mod support;

pub use harness::{check_case, run_seed, CaseStats, Mismatch};
// The oracle lives in `quill-metrics`; this path stays for callers that
// import `quill_sim::oracle` (the quill-e2e benchmark's replay).
pub use quill_metrics::oracle;
pub use spec::{sample_suite, SimCase, StrategySpec};
