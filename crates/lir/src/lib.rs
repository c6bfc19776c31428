//! # gbm-lir
//!
//! **LIR** — a small, typed, SSA intermediate representation that stands in
//! for LLVM IR throughout the GraphBinMatch reproduction.
//!
//! The paper lowers C/C++ (via clang), Java (via JLang), and decompiled
//! binaries (via RetDec) to LLVM IR, then builds ProGraML graphs from it.
//! GraphBinMatch never inspects anything LLVM-specific beyond instruction
//! *structure* (control/data/call flow) and instruction *text*; LIR models
//! exactly that surface:
//!
//! * [`Module`] / [`Function`] / [`Block`] / [`Inst`] — the object model,
//!   with function-scoped SSA value numbering,
//! * [`Ty`] — integer/float/pointer/array types,
//! * a textual format close to `.ll` syntax with a printer / parser
//!   round-trip,
//! * a [`verify_module`] pass (operand defined-ness, type and terminator
//!   discipline),
//! * [`cfg`] utilities (successors, predecessors, reverse postorder,
//!   dominators) used by the optimizer and the graph builder,
//! * a fuel-limited [`interp`] interpreter used by the test suite to prove
//!   optimization and compile→decompile round-trips preserve semantics.
//!
//! ```
//! use gbm_lir::{FunctionBuilder, Module, Ty, Operand, BinOp};
//!
//! let mut module = Module::new("demo");
//! let mut fb = FunctionBuilder::new("add1", vec![Ty::I64], Ty::I64);
//! let entry = fb.entry_block();
//! let p0 = fb.param_operand(0);
//! let sum = fb.binop(entry, BinOp::Add, Ty::I64, p0, Operand::const_i64(1));
//! fb.ret(entry, Some(sum));
//! module.push_function(fb.finish());
//! assert!(gbm_lir::verify_module(&module).is_ok());
//! let text = module.to_text();
//! assert!(text.contains("add i64"));
//! ```

#![forbid(unsafe_code)]

pub mod cfg;
pub mod interp;
mod module;
mod parser;
mod printer;
mod types;
mod verify;

pub use module::{
    BinOp, Block, BlockId, CastKind, Function, FunctionBuilder, Global, GlobalInit, IcmpPred, Inst,
    InstKind, Module, Operand, ValueId,
};
pub use parser::{parse_module, ParseError};
pub use printer::{operand_ty, print_function, print_inst};
pub use types::Ty;
pub use verify::{verify_module, VerifyError};
