//! # augem-ir
//!
//! The low-level C intermediate representation at the heart of the AUGEM
//! pipeline (paper §2).
//!
//! AUGEM's input is "a simple C implementation of a DLA kernel" (Figures 12,
//! 15, 16, 17 of the paper); the Optimized C Kernel Generator rewrites it
//! into *low-level* C — three-address statements over scalar temporaries and
//! strength-reduced pointers — which the Template Identifier then scans for
//! the code templates of Figure 3. This crate provides:
//!
//! * a typed AST ([`ast`]) covering exactly the C subset the paper's kernels
//!   use: counted `for` loops, scalar/array assignments, pointer arithmetic,
//!   and software prefetches;
//! * an interned symbol table ([`sym`]);
//! * construction helpers ([`build`]) used by `augem-kernels` and by tests;
//! * a C pretty-printer ([`mod@print`]) so every pipeline stage can be dumped as
//!   compilable-looking C for golden tests and debugging;
//! * a reference interpreter ([`interp`]) used to prove that every
//!   source-to-source pass is semantics-preserving;
//! * liveness analysis ([`liveness`]) — the paper computes "the live range
//!   of each variable ... globally during the template identification
//!   process" (§3.1) to drive register release;
//! * generic AST walkers ([`visit`]).

#![forbid(unsafe_code)]

pub mod ast;
pub mod build;
pub mod interp;
pub mod liveness;
pub mod print;
pub mod sym;
pub mod visit;

pub use ast::{Annot, AnnotValue, BinOp, Expr, Kernel, LValue, Stmt};
pub use build::*;
pub use interp::{ArgValue, ArgValueOf, ExecError, Interpreter, ScalarValue};
pub use liveness::{LiveRange, Liveness};
pub use sym::{Sym, SymKind, SymbolTable, Ty};
