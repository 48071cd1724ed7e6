//! # augem-sim
//!
//! Simulators for AUGEM-generated assembly kernels — this reproduction's
//! substitute for the paper's physical Sandy Bridge / Piledriver testbed
//! (see DESIGN.md's substitution table).
//!
//! * [`func`] — a **functional simulator**: executes the concrete
//!   [`augem_asm::XInst`] stream over real `f64` memory with faithful
//!   SSE/AVX lane semantics (legacy-SSE upper-lane preservation vs VEX
//!   zeroing included), proving the generated kernels compute exactly what
//!   the C kernels compute.
//! * [`mod@decode`] — a **pre-decoded engine**: a one-time [`fn@decode`] pass
//!   lowers the instruction stream into a dense, string-free
//!   [`DecodedOp`] table (labels resolved to pc indices, VEX rules baked
//!   in) driven by a tight dispatch loop that hands each executed step
//!   to one consumer: nothing, a recorded [`Trace`], or the timing
//!   scoreboard. [`FuncSim::run`] uses it; `FuncSim::run_legacy` keeps
//!   the original loop as the reference.
//! * [`cache`] — a set-associative write-allocate cache simulator with a
//!   stream prefetcher, fed by the executed memory accesses.
//! * [`timing`] — a **cycle-approximate timing model**: an issue-width +
//!   execution-port scoreboard with data-dependence latencies and
//!   cache-modeled load latencies, yielding cycles and Mflops for a
//!   kernel invocation. `simulate_timing*` streams the engine's steps
//!   straight into it, with no trace in between; [`replay`] feeds it a
//!   recorded [`Trace`] instead, with the same result.
//!
//! The timing model captures the first-order effects the paper's
//! optimizations target — SIMD width, FMA fusion, false dependences from
//! register reuse, port contention, prefetch coverage — and is calibrated
//! (not validated) against the paper's absolute numbers; EXPERIMENTS.md
//! compares shapes only.

#![forbid(unsafe_code)]

pub mod cache;
pub mod decode;
pub mod func;
pub mod timing;

pub use cache::CacheSim;
pub use decode::{decode, DecodedOp, DecodedProgram};
pub use func::{FuncSim, MemAccess, SimError, SimValue, Trace};
pub use timing::{
    replay, replay_profiled, simulate_timing, simulate_timing_budgeted, simulate_timing_profiled,
    simulate_timing_steady, simulate_timing_steady_budgeted, PcProfile, TimingReport,
};
