//! # gbm-baselines
//!
//! Reimplementations of the comparison systems the paper evaluates against
//! (§IV-C). The paper quotes baseline numbers from the XLIR paper; here every
//! baseline is re-run on the synthetic datasets so all table rows are
//! *measured*, not copied:
//!
//! * [`binpro`] — BinPro: static code properties + Hungarian bipartite
//!   function matching + a trained logistic combiner,
//! * [`b2sfinder`] — B2SFinder: seven traceable features with
//!   specificity-weighted matching,
//! * [`xlir`] — XLIR in both variants (LSTM and Transformer): token-sequence
//!   encoders over linearized IR with a triplet loss,
//! * [`licca`] — LICCA: source-level unified-AST similarity.

#![forbid(unsafe_code)]

pub mod b2sfinder;
pub mod binpro;
pub mod features;
pub mod licca;
pub mod xlir;

pub use b2sfinder::B2sFinder;
pub use binpro::BinPro;
pub use licca::Licca;
pub use xlir::{
    tokenize_module, train_xlir, xlir_tokenizer, Xlir, XlirConfig, XlirTrainConfig, XlirVariant,
};
