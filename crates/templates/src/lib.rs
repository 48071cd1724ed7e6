//! # augem-templates
//!
//! The AUGEM code templates (paper Figure 3) and the **Template
//! Identifier** (§2.2): "a simple recursive-descent tree traversal
//! algorithm to identify the instruction sequences that match the
//! pre-defined code templates. These instruction sequences are then tagged
//! with the corresponding templates to be further optimized by our Template
//! Optimizer."
//!
//! Single-statement-sequence templates:
//!
//! * **mmCOMP**`(A, idx1, B, idx2, res)` — load, load, multiply, accumulate
//!   (4 statements);
//! * **mmSTORE**`(C, idx, res)` — load, add, store (3 statements);
//! * **mvCOMP**`(A, idx1, B, idx2, scal)` — load, load, scale, add, store
//!   (5 statements).
//!
//! Merged (unrolled) templates, built by grouping consecutive matches:
//!
//! * **mmUnrolledCOMP** — `n1 x n2` mmCOMPs covering all combinations of
//!   `n1` contiguous A elements and `n2` contiguous B elements, one result
//!   scalar per combination. The *diagonal* variant (the paper applies the
//!   same mm templates to the unrolled DOT kernel, whose repetitions step
//!   both subscripts together) is tagged with `diag=1`.
//! * **mmUnrolledSTORE** — `n` mmSTOREs over `n` contiguous elements of one
//!   array ("because the first two STORE templates operate on ptr_C0 while
//!   the latter two operate on ptr_C1, these templates are divided into two
//!   mmUnrollSTORE templates").
//! * **mvUnrolledCOMP** — `n` mvCOMPs stepping both subscripts by 1.
//!
//! [`fn@identify`] rewrites a kernel in place, wrapping every match in an
//! [`augem_ir::Stmt::Region`] whose annotation carries the instantiated
//! template parameters, and returns match statistics.

#![forbid(unsafe_code)]

pub mod def;
pub mod identify;
pub mod matcher;

pub use def::TemplateKind;
pub use identify::{identify, identify_traced, IdentifyStats};
