//! # gbm-binary
//!
//! The binary substrate of the GraphBinMatch reproduction: everything between
//! "LIR from a front-end" and "LIR from a decompiled binary".
//!
//! * [`opt`] — optimization pipelines `O0`/`O1`/`O2`/`O3`/`Oz` (const fold,
//!   DCE, CFG simplification, mem2reg, inlining, strength reduction),
//! * [`codegen`] — two compiler personas ([`Compiler::Clang`] and
//!   [`Compiler::Gcc`]) emitting VISA machine code with different idioms,
//! * [`isa`] — the VISA virtual ISA and the byte-level [`ObjectFile`] format,
//! * [`vm`] — a VISA virtual machine (the oracle proving codegen correct),
//! * [`decompile`] — a RetDec-like lifter producing degraded LIR from
//!   binaries.
//!
//! The end-to-end pipeline the paper's experiments need:
//!
//! ```
//! use gbm_binary::{compile_to_binary, decompile::decompile, Compiler, OptLevel};
//! use gbm_frontends::{compile, SourceLang};
//!
//! let m = compile(SourceLang::MiniC, "t", "int main() { print(7); return 0; }").unwrap();
//! let obj = compile_to_binary(&m, Compiler::Clang, OptLevel::O2).unwrap();
//! let lifted = decompile(&obj);                       // "binary-side" LIR
//! let out = gbm_lir::interp::run_function(&lifted, "main", &[], 100_000).unwrap();
//! assert_eq!(out.output, vec![7]);
//! ```

#![forbid(unsafe_code)]

pub mod codegen;
pub mod decompile;
pub mod isa;
pub mod opt;
pub mod vm;

pub use codegen::{compile_module, Compiler};
pub use decompile::{decompile_with, DecompileOptions};
pub use isa::ObjectFile;
pub use opt::{optimize, OptLevel};

/// Optimizes a copy of the module at `level` and compiles it with `style`.
/// This is the "compiler invocation" of the paper's pipeline.
pub fn compile_to_binary(
    m: &gbm_lir::Module,
    style: Compiler,
    level: OptLevel,
) -> Result<ObjectFile, codegen::CodegenError> {
    let mut opt_m = m.clone();
    opt::optimize(&mut opt_m, level);
    codegen::compile_module(&opt_m, style)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbm_frontends::{compile, SourceLang};

    #[test]
    fn compile_to_binary_is_one_call() {
        let m = compile(SourceLang::MiniC, "t", "int main() { return 3; }").unwrap();
        for style in [Compiler::Clang, Compiler::Gcc] {
            for level in OptLevel::ALL {
                let obj = compile_to_binary(&m, style, level).unwrap();
                let out = vm::Vm::new(&obj, 10_000).run("main", &[]).unwrap();
                assert_eq!(out.ret, 3, "{style}/{level}");
            }
        }
    }
}
