//! # gbm-tokenizer
//!
//! The IR-instruction tokenizer of the GraphBinMatch pipeline (§III-C).
//!
//! Node attribute strings (`full_text` or `text` of ProGraML nodes) become
//! fixed-length integer sequences:
//!
//! 1. **Normalization** — SSA registers `%N` map to the `[VAR]` special
//!    token; block labels `%bbN` map to `[LABEL]` (the paper normalizes
//!    variables so the model generalizes across value numberings).
//! 2. **Pre-tokenization** — split on whitespace and punctuation, keeping
//!    punctuation as tokens (`i32*` → `i32`, `*`).
//! 3. **Vocabulary** — most frequent tokens, capped (paper: 2048); unknown
//!    tokens map to `[UNK]`.
//! 4. **Length** — the mean sequence length over the training corpus rounded
//!    *up to the next power of two* (paper §III-C); longer sequences are
//!    truncated, shorter ones padded with `[PAD]`.
//!
//! ```
//! use gbm_tokenizer::{Tokenizer, TokenizerConfig};
//!
//! let corpus = ["%3 = add i64 %1, %2", "%4 = load i64, i64* %3"];
//! let tok = Tokenizer::train(corpus.iter().copied(), TokenizerConfig::default());
//! let ids = tok.encode("%9 = add i64 %7, 5");
//! assert_eq!(ids.len(), tok.seq_len());
//! assert_eq!(ids[0], Tokenizer::VAR);
//! ```

#![forbid(unsafe_code)]

use std::collections::HashMap;

use gbm_progml::{NodeTextMode, ProgramGraph};

/// Tokenizer hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct TokenizerConfig {
    /// Maximum vocabulary size including specials (paper: 2048).
    pub vocab_cap: usize,
    /// Overrides the derived power-of-two sequence length (None = derive).
    pub seq_len_override: Option<usize>,
    /// Map `%N` to `[VAR]` (paper's normalization; off for the ablation).
    pub normalize_vars: bool,
}

impl Default for TokenizerConfig {
    fn default() -> Self {
        TokenizerConfig {
            vocab_cap: 2048,
            seq_len_override: None,
            normalize_vars: true,
        }
    }
}

/// A trained tokenizer: vocabulary plus fixed sequence length.
#[derive(Clone, Debug)]
pub struct Tokenizer {
    vocab: HashMap<String, u32>,
    seq_len: usize,
    normalize_vars: bool,
}

impl Tokenizer {
    /// `[PAD]` id (also the padding value of every encoded sequence).
    pub const PAD: u32 = 0;
    /// `[UNK]` id for out-of-vocabulary tokens.
    pub const UNK: u32 = 1;
    /// `[VAR]` id for normalized SSA registers.
    pub const VAR: u32 = 2;
    /// `[LABEL]` id for normalized block labels.
    pub const LABEL: u32 = 3;
    const NUM_SPECIALS: u32 = 4;

    /// Trains on an iterator of attribute strings.
    pub fn train<'a>(corpus: impl Iterator<Item = &'a str>, cfg: TokenizerConfig) -> Tokenizer {
        let mut freq: HashMap<String, usize> = HashMap::new();
        let mut total_len = 0usize;
        let mut count = 0usize;
        for text in corpus {
            let toks = pre_tokenize_with(text, cfg.normalize_vars);
            total_len += toks.len();
            count += 1;
            for t in toks {
                if !is_special(&t) {
                    *freq.entry(t).or_insert(0) += 1;
                }
            }
        }
        let mut by_freq: Vec<(String, usize)> = freq.into_iter().collect();
        // frequency desc, then lexicographic for determinism
        by_freq.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let budget = cfg.vocab_cap.saturating_sub(Self::NUM_SPECIALS as usize);
        let mut vocab = HashMap::new();
        for (i, (tok, _)) in by_freq.into_iter().take(budget).enumerate() {
            vocab.insert(tok, Self::NUM_SPECIALS + i as u32);
        }
        let seq_len = cfg.seq_len_override.unwrap_or_else(|| {
            let mean = if count == 0 {
                1
            } else {
                total_len.div_ceil(count)
            };
            mean.max(1).next_power_of_two()
        });
        Tokenizer {
            vocab,
            seq_len,
            normalize_vars: cfg.normalize_vars,
        }
    }

    /// Trains on the node attributes of a set of program graphs.
    pub fn train_on_graphs(
        graphs: &[&ProgramGraph],
        mode: NodeTextMode,
        cfg: TokenizerConfig,
    ) -> Tokenizer {
        let corpus: Vec<&str> = graphs
            .iter()
            .flat_map(|g| g.nodes.iter().map(move |n| n.text_for(mode)))
            .collect();
        Tokenizer::train(corpus.into_iter(), cfg)
    }

    /// Encodes one attribute string into exactly `seq_len` token ids.
    pub fn encode(&self, text: &str) -> Vec<u32> {
        let mut ids: Vec<u32> = pre_tokenize_with(text, self.normalize_vars)
            .into_iter()
            .take(self.seq_len)
            .map(|t| match t.as_str() {
                "[VAR]" => Self::VAR,
                "[LABEL]" => Self::LABEL,
                _ => self.vocab.get(&t).copied().unwrap_or(Self::UNK),
            })
            .collect();
        ids.resize(self.seq_len, Self::PAD);
        ids
    }

    /// Fixed output length (power of two).
    pub fn seq_len(&self) -> usize {
        self.seq_len
    }

    /// Vocabulary size including specials.
    pub fn vocab_size(&self) -> usize {
        self.vocab.len() + Self::NUM_SPECIALS as usize
    }

    /// Whether SSA registers / block labels are normalized to specials.
    pub fn normalize_vars(&self) -> bool {
        self.normalize_vars
    }

    /// The learned (non-special) vocabulary as `(token, id)` pairs sorted
    /// by id — the persistence image of a trained tokenizer. Specials are
    /// implicit (fixed ids below [`Tokenizer::NUM_SPECIALS`]).
    pub fn vocab_entries(&self) -> Vec<(String, u32)> {
        let mut entries: Vec<(String, u32)> =
            self.vocab.iter().map(|(t, &id)| (t.clone(), id)).collect();
        entries.sort_by_key(|(_, id)| *id);
        entries
    }

    /// Rebuilds a tokenizer from [`Tokenizer::vocab_entries`] output plus
    /// the config it was trained with. Rejects entries that collide with
    /// special ids or repeat a token/id, so a corrupt vocabulary cannot
    /// silently change encodings.
    pub fn from_parts(
        entries: Vec<(String, u32)>,
        seq_len: usize,
        normalize_vars: bool,
    ) -> Result<Tokenizer, String> {
        if seq_len == 0 {
            return Err("seq_len must be positive".into());
        }
        let mut vocab = HashMap::with_capacity(entries.len());
        let mut seen_ids = std::collections::HashSet::with_capacity(entries.len());
        for (token, id) in entries {
            if id < Self::NUM_SPECIALS {
                return Err(format!("token {token:?} claims special id {id}"));
            }
            if !seen_ids.insert(id) {
                return Err(format!("duplicate token id {id}"));
            }
            if vocab.insert(token.clone(), id).is_some() {
                return Err(format!("duplicate token {token:?}"));
            }
        }
        Ok(Tokenizer {
            vocab,
            seq_len,
            normalize_vars,
        })
    }
}

fn is_special(t: &str) -> bool {
    matches!(t, "[VAR]" | "[LABEL]" | "[PAD]" | "[UNK]")
}

/// Normalizes and splits an IR attribute string into raw tokens.
///
/// `%bbN` → `[LABEL]`, `%N` → `[VAR]`; words (`add`, `i64`, `@main`,
/// numbers) are kept whole; other punctuation becomes single-char tokens.
pub fn pre_tokenize(text: &str) -> Vec<String> {
    pre_tokenize_with(text, true)
}

/// [`pre_tokenize`] with variable normalization switchable (the tokenizer
/// ablation keeps raw `%N` tokens).
pub fn pre_tokenize_with(text: &str, normalize_vars: bool) -> Vec<String> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        if c == '%' {
            // %bbN or %N
            let start = i + 1;
            let mut j = start;
            while j < bytes.len()
                && ((bytes[j] as char).is_ascii_alphanumeric() || bytes[j] == b'_')
            {
                j += 1;
            }
            let name = &text[start..j];
            if name.starts_with("bb") {
                out.push("[LABEL]".to_string());
            } else if normalize_vars {
                out.push("[VAR]".to_string());
            } else {
                out.push(format!("%{name}"));
            }
            i = j.max(i + 1);
            continue;
        }
        if c == '@'
            || c.is_ascii_alphanumeric()
            || c == '_'
            || c == '-' && i + 1 < bytes.len() && (bytes[i + 1] as char).is_ascii_digit()
        {
            let start = i;
            i += 1;
            while i < bytes.len()
                && ((bytes[i] as char).is_ascii_alphanumeric()
                    || bytes[i] == b'_'
                    || bytes[i] == b'.')
            {
                i += 1;
            }
            out.push(text[start..i].to_string());
            continue;
        }
        out.push(c.to_string());
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pre_tokenize_normalizes_vars_and_labels() {
        let toks = pre_tokenize("%16 = load i32, i32* %15");
        assert_eq!(
            toks,
            vec!["[VAR]", "=", "load", "i32", ",", "i32", "*", "[VAR]"]
        );
        let toks = pre_tokenize("br i1 %3, label %bb1, label %bb2");
        assert!(toks.contains(&"[LABEL]".to_string()));
        assert!(toks.contains(&"[VAR]".to_string()));
    }

    #[test]
    fn pre_tokenize_keeps_symbols_and_numbers() {
        let toks = pre_tokenize("call i64 @fdec_3(i64 -42)");
        assert!(toks.contains(&"@fdec_3".to_string()));
        assert!(toks.contains(&"-42".to_string()));
    }

    #[test]
    fn seq_len_is_power_of_two_of_mean() {
        // mean token count: (8 + 2) / 2 = 5 → 8
        let corpus = ["%1 = add i64 %2, %3", "ret void"];
        let tok = Tokenizer::train(corpus.iter().copied(), TokenizerConfig::default());
        assert_eq!(tok.seq_len(), 8);
    }

    #[test]
    fn encode_pads_and_truncates() {
        let corpus = ["%1 = add i64 %2, %3"];
        let tok = Tokenizer::train(
            corpus.iter().copied(),
            TokenizerConfig {
                vocab_cap: 2048,
                seq_len_override: Some(4),
                normalize_vars: true,
            },
        );
        let short = tok.encode("ret");
        assert_eq!(short.len(), 4);
        assert_eq!(short[1..], [Tokenizer::PAD; 3]);
        let long = tok.encode("%1 = add i64 %2, %3");
        assert_eq!(long.len(), 4);
        assert_ne!(long[3], Tokenizer::PAD);
    }

    #[test]
    fn unknown_tokens_map_to_unk() {
        let corpus = ["add i64"];
        let tok = Tokenizer::train(corpus.iter().copied(), TokenizerConfig::default());
        let ids = tok.encode("frobnicate");
        assert_eq!(ids[0], Tokenizer::UNK);
    }

    #[test]
    fn vocab_cap_enforced() {
        let texts: Vec<String> = (0..5000).map(|i| format!("tok{i}")).collect();
        let tok = Tokenizer::train(
            texts.iter().map(|s| s.as_str()),
            TokenizerConfig {
                vocab_cap: 100,
                seq_len_override: None,
                normalize_vars: true,
            },
        );
        assert!(tok.vocab_size() <= 100);
    }

    #[test]
    fn var_normalization_generalizes_across_numbering() {
        let corpus = ["%1 = add i64 %2, %3"];
        let tok = Tokenizer::train(corpus.iter().copied(), TokenizerConfig::default());
        assert_eq!(
            tok.encode("%1 = add i64 %2, %3"),
            tok.encode("%900 = add i64 %901, %902"),
            "same instruction shape must encode identically"
        );
    }

    #[test]
    fn training_is_deterministic() {
        let corpus = ["a b c", "b c d", "c d e"];
        let t1 = Tokenizer::train(corpus.iter().copied(), TokenizerConfig::default());
        let t2 = Tokenizer::train(corpus.iter().copied(), TokenizerConfig::default());
        assert_eq!(t1.encode("a b c d e"), t2.encode("a b c d e"));
    }

    #[test]
    fn trains_on_graphs_both_modes() {
        let m = gbm_frontends::compile(
            gbm_frontends::SourceLang::MiniC,
            "t",
            "int main() { int x = 1 + 2; print(x); return x; }",
        )
        .unwrap();
        let g = gbm_progml::build_graph(&m);
        let full =
            Tokenizer::train_on_graphs(&[&g], NodeTextMode::FullText, TokenizerConfig::default());
        let text =
            Tokenizer::train_on_graphs(&[&g], NodeTextMode::Text, TokenizerConfig::default());
        // full_text corpora have longer sequences and bigger vocabularies
        assert!(full.seq_len() >= text.seq_len());
        assert!(full.vocab_size() >= text.vocab_size());
    }

    #[test]
    fn vocab_entries_roundtrip_preserves_encodings() {
        let corpus = ["add i64 %1 %2", "mul i64 %3 %1", "br %bb1", "ret i64 %3"];
        let tok = Tokenizer::train(corpus.iter().copied(), TokenizerConfig::default());
        let entries = tok.vocab_entries();
        assert!(entries.windows(2).all(|w| w[0].1 < w[1].1), "sorted by id");
        let rebuilt = Tokenizer::from_parts(entries, tok.seq_len(), tok.normalize_vars()).unwrap();
        assert_eq!(rebuilt.vocab_size(), tok.vocab_size());
        for text in corpus.iter().chain(["sub i32 %9", ""].iter()) {
            assert_eq!(rebuilt.encode(text), tok.encode(text), "{text:?}");
        }
    }

    #[test]
    fn from_parts_rejects_inconsistent_vocabularies() {
        let ok = vec![("add".to_string(), 4), ("mul".to_string(), 5)];
        assert!(Tokenizer::from_parts(ok.clone(), 8, true).is_ok());
        assert!(
            Tokenizer::from_parts(ok.clone(), 0, true).is_err(),
            "zero seq_len"
        );
        let special = vec![("add".to_string(), 2)];
        assert!(
            Tokenizer::from_parts(special, 8, true).is_err(),
            "special id"
        );
        let dup_id = vec![("add".to_string(), 4), ("mul".to_string(), 4)];
        assert!(
            Tokenizer::from_parts(dup_id, 8, true).is_err(),
            "duplicate id"
        );
        let dup_tok = vec![("add".to_string(), 4), ("add".to_string(), 5)];
        assert!(
            Tokenizer::from_parts(dup_tok, 8, true).is_err(),
            "duplicate token"
        );
    }
}
