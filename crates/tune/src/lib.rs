//! # augem-tune
//!
//! Empirical auto-tuning (paper §2.1): "because loop unrolling factors are
//! extremely sensitive to variations of the underlying machine
//! architecture, our Optimized C Kernel Generator automatically experiments
//! with different unrolling and unroll&jam configurations and selects the
//! best performing configurations based on the performance of their
//! optimized code."
//!
//! In the paper, candidates are compiled and run on hardware; here they
//! are generated through the full pipeline and *timed on the
//! cycle-approximate simulator* (`augem-sim`) over a micro-problem — the
//! same feedback loop, with the simulator standing in for the testbed
//! (DESIGN.md substitution table).
//!
//! The crate is one loop over one abstraction:
//!
//! * [`Candidate`] — a point of a tuning space. [`GemmConfig`] and
//!   [`VectorConfig`] implement it with their per-family facts: tag,
//!   breaker family, kernel, transform and codegen recipe, evaluation
//!   micro-problem and cache regime, translation-validation instance.
//! * [`EvalCache`] — builds ([`EvalCache::logged`]), measures
//!   ([`EvalCache::evaluate`]) and profiles ([`EvalCache::profile`]) any
//!   candidate, memoized by content.
//! * [`sweep`] — the one sweep: sandboxed, budgeted, retried,
//!   circuit-broken and journaled evaluation of every candidate, with an
//!   optional legality phase ([`reject_logged`]) and optional best-first
//!   bound pruning, selected by [`ResilOptions`]. [`tune_gemm`] and
//!   [`tune_vector`] are its zero-configuration form.
//!
//! The sweep also measures ablations: every configuration
//! dimension (unroll&jam factors, inner unrolling, Vdup vs Shuf, FMA
//! policy, prefetching, instruction scheduling) can be frozen to measure
//! its contribution.

#![forbid(unsafe_code)]

pub mod cache;
pub mod config;
pub mod evaluate;
pub mod resilient;
pub mod search;

/// The telemetry crate the tune API takes its tracers from, re-exported
/// so dependents can pass one without depending on it themselves.
pub use augem_obs as obs;
pub use cache::{cache_enabled, note_cache_disabled, EvalCache};
pub use config::{
    build_pipeline_logged, build_pipeline_traced, gemm_candidates, vector_candidates, BuildError,
    Candidate, GemmConfig, LoggedBuild, VectorConfig, VectorKernel,
};
pub use evaluate::{
    gemm_eval_args, vector_eval_args, EvalClass, EvalError, Evaluation, ProfiledEvaluation,
};
pub use resilient::{reject_logged, sweep, ResilOptions};
pub use search::{tune_gemm, tune_vector, SweepStats, TuneError, TuneResult};
