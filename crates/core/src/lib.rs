//! # graphbinmatch
//!
//! Graph-based similarity learning for cross-language binary and source code
//! matching — a from-scratch Rust reproduction of *GraphBinMatch*
//! (TehraniJamsaz, Chen & Jannesari, IPDPS 2024, arXiv:2304.04658).
//!
//! Given a **source file** (MiniC or MiniJava — the reproduction's stand-ins
//! for C/C++ and Java) and a **binary** (a VISA object file), the pipeline
//! lowers both to a common IR, builds heterogeneous program graphs
//! (control/data/call flow, ProGraML-style), and scores the pair with a
//! Siamese GATv2 network.
//!
//! ```
//! use graphbinmatch::prelude::*;
//!
//! // 1. Compile one program from each language.
//! let c = Pipeline::compile_source(SourceLang::MiniC,
//!     "int main() { int s = 0; for (int i = 0; i < 9; i++) { s += i; } print(s); return 0; }")
//!     .unwrap();
//! let j = Pipeline::compile_source(SourceLang::MiniJava,
//!     "class Main { public static void main(String[] args) {
//!          int t = 0;
//!          for (int k = 0; k < 9; k++) { t += k; }
//!          System.out.println(t);
//!      } }")
//!     .unwrap();
//!
//! // 2. Turn the C program into a binary and decompile it (RetDec-style).
//! let binary = Pipeline::compile_to_binary(&c, Compiler::Clang, OptLevel::Oz).unwrap();
//! let lifted = Pipeline::decompile(&binary);
//!
//! // 3. Build graphs and score the (binary, source) pair with a fresh model.
//! let mut pipeline = Pipeline::fit_tokenizer(&[&lifted, &j.clone()]);
//! let score = pipeline.score_pair(&lifted, &j);
//! assert!((0.0..=1.0).contains(&score));
//! ```
//!
//! The crates underneath are re-exported for direct use:
//! [`lir`](gbm_lir), [`frontends`](gbm_frontends), [`binary`](gbm_binary),
//! [`progml`](gbm_progml), [`tokenizer`](gbm_tokenizer), [`nn`](gbm_nn),
//! [`datasets`](gbm_datasets), [`eval`](gbm_eval).

#![forbid(unsafe_code)]

pub use gbm_binary as binary;
pub use gbm_datasets as datasets;
pub use gbm_eval as eval;
pub use gbm_frontends as frontends;
pub use gbm_lir as lir;
pub use gbm_nn as nn;
pub use gbm_progml as progml;
pub use gbm_tensor as tensor;
pub use gbm_tokenizer as tokenizer;

/// One-stop imports for the common workflow.
pub mod prelude {
    pub use crate::Pipeline;
    pub use gbm_binary::{Compiler, ObjectFile, OptLevel};
    pub use gbm_frontends::SourceLang;
    pub use gbm_lir::Module;
    pub use gbm_nn::{GraphBinMatch, GraphBinMatchConfig, PairSet, TrainConfig};
    pub use gbm_progml::{build_graph, NodeTextMode, ProgramGraph};
    pub use gbm_tokenizer::{Tokenizer, TokenizerConfig};
}

use gbm_binary::{Compiler, ObjectFile, OptLevel};
use gbm_frontends::{FrontendError, SourceLang};
use gbm_lir::Module;
use gbm_nn::{encode_graph, EncodedGraph, GraphBinMatch, GraphBinMatchConfig};
use gbm_progml::{build_graph, NodeTextMode};
use gbm_tokenizer::{Tokenizer, TokenizerConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// High-level end-to-end pipeline: compile → (binary →) graph → score.
///
/// For training and full experiments use [`gbm_eval::run_experiment`]; this
/// facade covers the inference-style workflow of the paper's Fig. 1.
pub struct Pipeline {
    tokenizer: Tokenizer,
    model: GraphBinMatch,
    mode: NodeTextMode,
}

impl Pipeline {
    /// Compiles source text to its source-side IR module.
    pub fn compile_source(lang: SourceLang, src: &str) -> Result<Module, FrontendError> {
        gbm_frontends::compile(lang, "input", src)
    }

    /// Optimizes and compiles an IR module to a VISA binary.
    pub fn compile_to_binary(
        m: &Module,
        compiler: Compiler,
        level: OptLevel,
    ) -> Result<ObjectFile, gbm_binary::codegen::CodegenError> {
        gbm_binary::compile_to_binary(m, compiler, level)
    }

    /// Decompiles a binary back to (degraded) IR, RetDec-style.
    pub fn decompile(obj: &ObjectFile) -> Module {
        gbm_binary::decompile::decompile(obj)
    }

    /// Builds a pipeline whose tokenizer is fitted on the given modules and
    /// whose model has fresh (untrained) weights. Load trained weights into
    /// `model_mut().store` via `ParamStore::restore` for real matching.
    pub fn fit_tokenizer(corpus: &[&Module]) -> Pipeline {
        let graphs: Vec<gbm_progml::ProgramGraph> = corpus.iter().map(|m| build_graph(m)).collect();
        let refs: Vec<&gbm_progml::ProgramGraph> = graphs.iter().collect();
        let tokenizer =
            Tokenizer::train_on_graphs(&refs, NodeTextMode::FullText, TokenizerConfig::default());
        let mut rng = StdRng::seed_from_u64(0);
        let model =
            GraphBinMatch::new(GraphBinMatchConfig::small(tokenizer.vocab_size()), &mut rng);
        Pipeline {
            tokenizer,
            model,
            mode: NodeTextMode::FullText,
        }
    }

    /// The underlying model (train it, or restore trained weights).
    pub fn model(&self) -> &GraphBinMatch {
        &self.model
    }

    /// Mutable model access.
    pub fn model_mut(&mut self) -> &mut GraphBinMatch {
        &mut self.model
    }

    /// The fitted tokenizer.
    pub fn tokenizer(&self) -> &Tokenizer {
        &self.tokenizer
    }

    /// Encodes a module for the model.
    pub fn encode(&self, m: &Module) -> EncodedGraph {
        encode_graph(&build_graph(m), &self.tokenizer, self.mode)
    }

    /// Scores a pair of IR modules (either side may be source or decompiled).
    pub fn score_pair(&mut self, a: &Module, b: &Module) -> f32 {
        let ea = self.encode(a);
        let eb = self.encode(b);
        self.model.score(&ea, &eb)
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_end_to_end() {
        let c = Pipeline::compile_source(SourceLang::MiniC, "int main() { print(42); return 0; }")
            .unwrap();
        let obj = Pipeline::compile_to_binary(&c, Compiler::Gcc, OptLevel::O2).unwrap();
        let lifted = Pipeline::decompile(&obj);
        let mut p = Pipeline::fit_tokenizer(&[&c, &lifted]);
        let s = p.score_pair(&c, &lifted);
        assert!((0.0..=1.0).contains(&s));
    }

    #[test]
    fn prelude_exposes_key_types() {
        let _cfg = GraphBinMatchConfig::paper(2048);
        let _tok = TokenizerConfig::default();
        let _ = NodeTextMode::FullText;
    }
}
