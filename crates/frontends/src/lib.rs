//! # gbm-frontends
//!
//! Compiler front-ends for the GraphBinMatch reproduction: **MiniC** (a C-like
//! language lowered clang-style) and **MiniJava** (a Java-like language
//! lowered JLang-style), both targeting the [`gbm_lir`] SSA IR.
//!
//! The paper's pipeline compiles C/C++ with clang-5.0 and Java with JLang and
//! feeds the resulting LLVM IR into graph construction. These front-ends play
//! those roles: same surface semantics per task, deliberately different
//! lowering idioms per language (int width, array representation, runtime
//! checks, helper libraries), reproducing the cross-language IR divergence
//! the paper studies.
//!
//! ```
//! use gbm_frontends::{compile, SourceLang};
//!
//! let module = compile(
//!     SourceLang::MiniC,
//!     "demo",
//!     "int main() { print(21 * 2); return 0; }",
//! ).unwrap();
//! let out = gbm_lir::interp::run_function(&module, "main", &[], 10_000).unwrap();
//! assert_eq!(out.output, vec![42]);
//! ```

#![forbid(unsafe_code)]

pub mod ast;
mod lex;
pub mod lower;
pub mod minic_parse;
pub mod minijava_parse;

pub use ast::{FrontendError, Program};
pub use lower::{lower_c, lower_java, Style};

/// The supported surface languages.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SourceLang {
    /// C-like; plays the role of C and C++ in the paper's datasets.
    MiniC,
    /// Java-like; plays the role of Java.
    MiniJava,
}

impl SourceLang {
    /// Human-readable name used in reports and dataset statistics.
    pub fn name(&self) -> &'static str {
        match self {
            SourceLang::MiniC => "MiniC",
            SourceLang::MiniJava => "MiniJava",
        }
    }
}

/// Compiles source text in the given language to a verified LIR module.
pub fn compile(
    lang: SourceLang,
    module_name: &str,
    src: &str,
) -> Result<gbm_lir::Module, FrontendError> {
    let module = match lang {
        SourceLang::MiniC => {
            let prog = minic_parse::parse(src)?;
            lower_c(module_name, &prog)?
        }
        SourceLang::MiniJava => {
            let prog = minijava_parse::parse(src)?;
            lower_java(module_name, &prog)?
        }
    };
    gbm_lir::verify_module(&module).map_err(|e| FrontendError {
        line: 0,
        message: format!("internal: lowered module failed verification: {e}"),
    })?;
    Ok(module)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_both_languages_end_to_end() {
        let c = compile(SourceLang::MiniC, "c", "int main() { print(7); return 0; }").unwrap();
        let j = compile(
            SourceLang::MiniJava,
            "j",
            "class Main { public static void main(String[] args) { System.out.println(7); } }",
        )
        .unwrap();
        for m in [&c, &j] {
            let out = gbm_lir::interp::run_function(m, "main", &[], 10_000).unwrap();
            assert_eq!(out.output, vec![7]);
        }
    }

    #[test]
    fn parse_errors_surface() {
        assert!(compile(SourceLang::MiniC, "bad", "int main( {").is_err());
        assert!(compile(SourceLang::MiniJava, "bad", "class X {").is_err());
    }

    #[test]
    fn lang_names() {
        assert_eq!(SourceLang::MiniC.name(), "MiniC");
        assert_eq!(SourceLang::MiniJava.name(), "MiniJava");
    }
}
