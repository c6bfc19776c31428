//! # gbm-datasets
//!
//! Synthetic stand-ins for the paper's datasets:
//!
//! * [`clcdsa`] — cross-language (MiniC + MiniJava) solutions to shared
//!   programming tasks, playing the role of the CLCDSA corpus (AtCoder /
//!   Google CodeJam submissions in C/C++/Java);
//! * [`poj104`] — single-language (MiniC) solutions, playing the role of
//!   POJ-104.
//!
//! The operative property of the originals — *solutions to the same task
//! share algorithmic structure, across languages and coding styles; solutions
//! to different tasks do not* — is reproduced by the task library in
//! [`tasks`] with per-solution stylistic randomization from [`style`].
//!
//! The crate also provides stratified 6:2:2 splits (the paper's ratio),
//! balanced positive/negative pair construction (§II), binary-side artifact
//! materialization (compile → decompile, parallelized with rayon), and the
//! per-language statistics behind Table I.

#![forbid(unsafe_code)]

pub mod style;
pub mod tasks;

use std::collections::HashMap;

use gbm_binary::{compile_to_binary, decompile::decompile, Compiler, OptLevel};
use gbm_frontends::{compile, SourceLang};
use gbm_lir::Module;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};
use rayon::prelude::*;

/// Dataset generation parameters.
#[derive(Clone, Copy, Debug)]
pub struct DatasetConfig {
    /// Number of tasks drawn from the library (≤ [`tasks::NUM_TASKS`]).
    pub num_tasks: usize,
    /// Solutions generated per task per language.
    pub solutions_per_task: usize,
    /// Generation seed.
    pub seed: u64,
}

impl Default for DatasetConfig {
    fn default() -> Self {
        DatasetConfig {
            num_tasks: tasks::NUM_TASKS,
            solutions_per_task: 5,
            seed: 42,
        }
    }
}

/// One generated solution: source text plus its source-side LIR module.
#[derive(Clone, Debug)]
pub struct Solution {
    /// Task index (`tasks::TASK_NAMES`).
    pub task: usize,
    /// Surface language.
    pub lang: SourceLang,
    /// Source text.
    pub source: String,
    /// Compiled (source-side) LIR.
    pub module: Module,
}

/// A generated dataset.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// Dataset name (reports).
    pub name: String,
    /// Languages present.
    pub languages: Vec<SourceLang>,
    /// All solutions.
    pub solutions: Vec<Solution>,
    /// Number of tasks used.
    pub num_tasks: usize,
}

/// Generates a dataset over the given languages (parallel compile).
pub fn generate(name: &str, languages: &[SourceLang], cfg: DatasetConfig) -> Dataset {
    assert!(
        cfg.num_tasks <= tasks::NUM_TASKS,
        "task count exceeds library"
    );
    let jobs: Vec<(usize, SourceLang, u64)> = (0..cfg.num_tasks)
        .flat_map(|t| {
            languages.iter().flat_map(move |&lang| {
                (0..cfg.solutions_per_task).map(move |k| {
                    let lang_tag = match lang {
                        SourceLang::MiniC => 1u64,
                        SourceLang::MiniJava => 2,
                    };
                    let seed = cfg
                        .seed
                        .wrapping_mul(1_000_003)
                        .wrapping_add((t as u64) << 20)
                        .wrapping_add(lang_tag << 40)
                        .wrapping_add(k as u64);
                    (t, lang, seed)
                })
            })
        })
        .collect();
    let solutions: Vec<Solution> = jobs
        .par_iter()
        .map(|&(task, lang, seed)| {
            let mut st = style::Style::new(seed);
            let source = tasks::emit(task, lang, &mut st);
            let module = compile(lang, tasks::TASK_NAMES[task], &source)
                .unwrap_or_else(|e| panic!("generated solution must compile: {e}\n{source}"));
            Solution {
                task,
                lang,
                source,
                module,
            }
        })
        .collect();
    Dataset {
        name: name.to_string(),
        languages: languages.to_vec(),
        solutions,
        num_tasks: cfg.num_tasks,
    }
}

/// The cross-language dataset (CLCDSA stand-in): MiniC + MiniJava.
pub fn clcdsa(cfg: DatasetConfig) -> Dataset {
    generate(
        "CLCDSA-syn",
        &[SourceLang::MiniC, SourceLang::MiniJava],
        cfg,
    )
}

/// The single-language dataset (POJ-104 stand-in): MiniC only.
pub fn poj104(cfg: DatasetConfig) -> Dataset {
    generate("POJ-104-syn", &[SourceLang::MiniC], cfg)
}

/// Per-language counts for the Table I report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LangStats {
    /// Language.
    pub lang: SourceLang,
    /// Source files generated.
    pub sources: usize,
    /// Source files that compiled to IR (generator guarantees 100%).
    pub ir: usize,
    /// Binaries produced.
    pub binaries: usize,
    /// Binaries decompiled back to IR.
    pub decompiled: usize,
}

impl Dataset {
    /// Solutions of one language.
    pub fn of_lang(&self, lang: SourceLang) -> Vec<usize> {
        self.solutions
            .iter()
            .enumerate()
            .filter(|(_, s)| s.lang == lang)
            .map(|(i, _)| i)
            .collect()
    }

    /// Per-language dataset statistics (Table I analogue). Binary/decompiled
    /// counts are verified by actually running the pipeline on every
    /// solution.
    pub fn stats(&self, compiler: Compiler, level: OptLevel) -> Vec<LangStats> {
        self.languages
            .iter()
            .map(|&lang| {
                let idxs = self.of_lang(lang);
                let ok: usize = idxs
                    .par_iter()
                    .map(|&i| {
                        compile_to_binary(&self.solutions[i].module, compiler, level).is_ok()
                            as usize
                    })
                    .sum();
                LangStats {
                    lang,
                    sources: idxs.len(),
                    ir: idxs.len(),
                    binaries: ok,
                    decompiled: ok,
                }
            })
            .collect()
    }

    /// Stratified split of solution indices by the paper's 6:2:2 ratio:
    /// within every (task, language) cell, 60% of solutions train, 20%
    /// validate, 20% test — so test pairs are unseen solutions of seen tasks.
    pub fn split(&self, seed: u64) -> Split {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut split = Split::default();
        for t in 0..self.num_tasks {
            for &lang in &self.languages {
                let mut cell: Vec<usize> = self
                    .solutions
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.task == t && s.lang == lang)
                    .map(|(i, _)| i)
                    .collect();
                cell.shuffle(&mut rng);
                let n = cell.len();
                let n_train = (n as f64 * 0.6).round() as usize;
                let n_valid = (n as f64 * 0.2).round() as usize;
                for (j, idx) in cell.into_iter().enumerate() {
                    if j < n_train {
                        split.train.push(idx);
                    } else if j < n_train + n_valid {
                        split.valid.push(idx);
                    } else {
                        split.test.push(idx);
                    }
                }
            }
        }
        split
    }
}

/// Solution-index partitions.
#[derive(Clone, Debug, Default)]
pub struct Split {
    /// Training solutions.
    pub train: Vec<usize>,
    /// Validation solutions.
    pub valid: Vec<usize>,
    /// Test solutions.
    pub test: Vec<usize>,
}

/// One labelled pair of solution indices (`label` 1 = same task).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PairSpec {
    /// Left solution index.
    pub a: usize,
    /// Right solution index.
    pub b: usize,
    /// 1.0 = matching (same task), 0.0 = non-matching.
    pub label: f32,
}

/// Builds balanced positive/negative pairs between two sides (§II).
///
/// `a_side`/`b_side` are solution indices (possibly overlapping); positives
/// pair same-task solutions (`a != b`), negatives sample different-task
/// combinations to an equal count. `max_pos` caps the positive count.
pub fn make_pairs(
    ds: &Dataset,
    a_side: &[usize],
    b_side: &[usize],
    seed: u64,
    max_pos: usize,
) -> Vec<PairSpec> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut positives = Vec::new();
    for &a in a_side {
        for &b in b_side {
            if a != b && ds.solutions[a].task == ds.solutions[b].task {
                positives.push(PairSpec { a, b, label: 1.0 });
            }
        }
    }
    positives.shuffle(&mut rng);
    positives.truncate(max_pos);

    let mut negatives = Vec::new();
    let target = positives.len();
    let mut guard = 0;
    while negatives.len() < target && guard < target * 100 + 1000 {
        guard += 1;
        let a = a_side[rng.random_range(0..a_side.len())];
        let b = b_side[rng.random_range(0..b_side.len())];
        if ds.solutions[a].task != ds.solutions[b].task {
            negatives.push(PairSpec { a, b, label: 0.0 });
        }
    }
    let mut pairs = positives;
    pairs.append(&mut negatives);
    pairs.shuffle(&mut rng);
    pairs
}

/// Reorders labelled pairs into anchor-grouped minibatches of `batch_size`:
/// every positive pair of an anchor (`a`-side solution) lands in the same
/// batch window, and negatives fill the remaining slots.
///
/// In-batch contrastive objectives (triplet mining, InfoNCE) need this
/// layout: an anchor's positives must be co-located with it so they can be
/// targets, while pairs from *other* anchors in the window supply the
/// in-batch negatives. A uniform pair shuffle gives neither guarantee. The
/// trainer's group-preserving epoch shuffle permutes whole windows, never
/// their contents, so the property holds across epochs.
///
/// The trainer reconstructs windows by chunking the returned list at
/// `batch_size`, so every window except the last is emitted at exactly
/// `batch_size` pairs: a group that does not fit the current window's
/// remaining space is pushed to the next boundary by padding with
/// negatives. Only when the negatives run out (or a group exceeds
/// `batch_size` outright) does a group split — and then across *adjacent*
/// windows. A split never corrupts training: the trainer masks false
/// negatives through the global positive-link set, not window membership.
///
/// Returns the same multiset of pairs.
pub fn group_pairs_by_anchor(pairs: &[PairSpec], batch_size: usize, seed: u64) -> Vec<PairSpec> {
    let batch_size = batch_size.max(1);
    let mut rng = StdRng::seed_from_u64(seed);

    // positive groups per anchor, in first-seen order, then shuffled
    let mut anchor_of: HashMap<usize, usize> = HashMap::new();
    let mut groups: Vec<Vec<PairSpec>> = Vec::new();
    let mut negatives: Vec<PairSpec> = Vec::new();
    for p in pairs {
        if p.label >= 0.5 {
            let slot = *anchor_of.entry(p.a).or_insert_with(|| {
                groups.push(Vec::new());
                groups.len() - 1
            });
            groups[slot].push(*p);
        } else {
            negatives.push(*p);
        }
    }
    groups.shuffle(&mut rng);
    negatives.shuffle(&mut rng);

    // next-fit emission aligned to batch_size boundaries: a group either
    // fits the current window's remaining space or starts a fresh window
    // after negative padding fills the current one to the boundary
    let mut out: Vec<PairSpec> = Vec::with_capacity(pairs.len());
    for group in groups {
        let space = (batch_size - out.len() % batch_size) % batch_size;
        if group.len() > space {
            for _ in 0..space {
                match negatives.pop() {
                    Some(n) => out.push(n),
                    None => break, // padding exhausted: the group splits
                }
            }
        }
        out.extend(group);
    }
    // remaining negatives fill the last window, then trail
    out.append(&mut negatives);
    out
}

/// Materializes the binary-side module for one solution:
/// optimize → compile → encode/decode bytes → decompile.
pub fn decompiled_module(sol: &Solution, compiler: Compiler, level: OptLevel) -> Module {
    let obj = compile_to_binary(&sol.module, compiler, level)
        .unwrap_or_else(|e| panic!("binary compilation failed: {e}"));
    let obj = gbm_binary::ObjectFile::decode(&obj.encode()).expect("object bytes round-trip");
    decompile(&obj)
}

/// Decompiles many solutions in parallel; returns `solution index → module`.
pub fn decompile_all(
    ds: &Dataset,
    indices: &[usize],
    compiler: Compiler,
    level: OptLevel,
) -> HashMap<usize, Module> {
    indices
        .par_iter()
        .map(|&i| (i, decompiled_module(&ds.solutions[i], compiler, level)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> DatasetConfig {
        DatasetConfig {
            num_tasks: 6,
            solutions_per_task: 5,
            seed: 7,
        }
    }

    #[test]
    fn clcdsa_generates_both_languages() {
        let ds = clcdsa(tiny_cfg());
        assert_eq!(ds.solutions.len(), 6 * 2 * 5);
        assert!(ds.of_lang(SourceLang::MiniC).len() == 30);
        assert!(ds.of_lang(SourceLang::MiniJava).len() == 30);
    }

    #[test]
    fn poj_is_single_language() {
        let ds = poj104(tiny_cfg());
        assert_eq!(ds.solutions.len(), 30);
        assert!(ds.solutions.iter().all(|s| s.lang == SourceLang::MiniC));
    }

    #[test]
    fn generation_is_deterministic() {
        let a = clcdsa(tiny_cfg());
        let b = clcdsa(tiny_cfg());
        assert_eq!(a.solutions.len(), b.solutions.len());
        for (x, y) in a.solutions.iter().zip(b.solutions.iter()) {
            assert_eq!(x.source, y.source);
        }
    }

    #[test]
    fn split_ratios_and_disjointness() {
        let ds = clcdsa(tiny_cfg());
        let split = ds.split(3);
        let n = ds.solutions.len();
        assert_eq!(split.train.len() + split.valid.len() + split.test.len(), n);
        // 6:2:2 within rounding
        assert!(
            split.train.len() > n / 2,
            "train {} of {n}",
            split.train.len()
        );
        assert!(!split.test.is_empty());
        let mut all: Vec<usize> = split
            .train
            .iter()
            .chain(&split.valid)
            .chain(&split.test)
            .copied()
            .collect();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), n, "splits must be disjoint");
    }

    #[test]
    fn pairs_are_balanced_and_correctly_labelled() {
        let ds = clcdsa(tiny_cfg());
        let c = ds.of_lang(SourceLang::MiniC);
        let j = ds.of_lang(SourceLang::MiniJava);
        let pairs = make_pairs(&ds, &c, &j, 5, 200);
        assert!(!pairs.is_empty());
        let pos = pairs.iter().filter(|p| p.label == 1.0).count();
        let neg = pairs.len() - pos;
        assert_eq!(pos, neg, "balanced sampling");
        for p in &pairs {
            let same = ds.solutions[p.a].task == ds.solutions[p.b].task;
            assert_eq!(same, p.label == 1.0);
        }
    }

    #[test]
    fn anchor_grouping_preserves_pairs_and_colocates_positives() {
        let ds = clcdsa(tiny_cfg());
        let c = ds.of_lang(SourceLang::MiniC);
        let j = ds.of_lang(SourceLang::MiniJava);
        let pairs = make_pairs(&ds, &c, &j, 5, 40);
        let batch_size = 8;
        let grouped = group_pairs_by_anchor(&pairs, batch_size, 7);

        // same multiset of pairs
        assert_eq!(grouped.len(), pairs.len());
        let key = |p: &PairSpec| (p.a, p.b, p.label as u8);
        let mut a: Vec<_> = pairs.iter().map(key).collect();
        let mut b: Vec<_> = grouped.iter().map(key).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);

        // every anchor's positives land in one batch window (groups fit here)
        let mut window_of: HashMap<usize, usize> = HashMap::new();
        for (i, p) in grouped.iter().enumerate() {
            if p.label >= 0.5 {
                let w = i / batch_size;
                if let Some(&prev) = window_of.get(&p.a) {
                    assert_eq!(prev, w, "anchor {} split across windows", p.a);
                } else {
                    window_of.insert(p.a, w);
                }
            }
        }

        // windows holding positives mix several distinct anchors
        let n_pos_windows = window_of.values().collect::<std::collections::HashSet<_>>();
        assert!(
            window_of.len() > n_pos_windows.len(),
            "each positive window should hold multiple anchors"
        );
    }

    #[test]
    fn anchor_grouping_is_deterministic_and_splits_oversized_groups() {
        let pairs: Vec<PairSpec> = (0..10)
            .map(|b| PairSpec {
                a: 0,
                b: b + 1,
                label: 1.0,
            })
            .collect();
        let g1 = group_pairs_by_anchor(&pairs, 4, 3);
        let g2 = group_pairs_by_anchor(&pairs, 4, 3);
        assert_eq!(g1, g2, "same seed, same layout");
        assert_eq!(g1.len(), 10, "oversized groups split, nothing dropped");
    }

    #[test]
    fn anchor_grouping_stays_window_aligned_when_negatives_pad() {
        // two 3-positive anchors + plenty of negatives at batch_size 4: the
        // flat list chunked at 4 must keep each anchor inside one window
        // (a group that misses the boundary gets negative padding first)
        let mut pairs: Vec<PairSpec> = Vec::new();
        for a in [0usize, 1] {
            for b in 0..3 {
                pairs.push(PairSpec {
                    a,
                    b: 10 + a * 10 + b,
                    label: 1.0,
                });
            }
        }
        for n in 0..6 {
            pairs.push(PairSpec {
                a: 50 + n,
                b: 90 + n,
                label: 0.0,
            });
        }
        let batch_size = 4;
        let grouped = group_pairs_by_anchor(&pairs, batch_size, 11);
        assert_eq!(grouped.len(), pairs.len());
        let mut window_of: HashMap<usize, usize> = HashMap::new();
        for (i, p) in grouped.iter().enumerate() {
            if p.label >= 0.5 {
                let w = i / batch_size;
                assert_eq!(
                    *window_of.entry(p.a).or_insert(w),
                    w,
                    "anchor {} split across chunked windows",
                    p.a
                );
            }
        }
        // without negatives the same layout must fall back to an *adjacent*
        // split rather than dropping or duplicating pairs
        let no_neg: Vec<PairSpec> = pairs.iter().filter(|p| p.label >= 0.5).copied().collect();
        let grouped = group_pairs_by_anchor(&no_neg, batch_size, 11);
        assert_eq!(grouped.len(), no_neg.len());
    }

    #[test]
    fn stats_report_full_pipeline_success() {
        let ds = clcdsa(DatasetConfig {
            num_tasks: 3,
            solutions_per_task: 2,
            seed: 1,
        });
        let stats = ds.stats(Compiler::Clang, OptLevel::O0);
        assert_eq!(stats.len(), 2);
        for s in stats {
            assert_eq!(s.sources, s.ir);
            assert_eq!(
                s.binaries, s.sources,
                "all solutions must compile to binary"
            );
            assert_eq!(s.decompiled, s.binaries);
        }
    }

    #[test]
    fn decompiled_modules_run_like_sources() {
        let ds = poj104(DatasetConfig {
            num_tasks: 4,
            solutions_per_task: 2,
            seed: 9,
        });
        for sol in ds.solutions.iter().take(4) {
            let src_out = gbm_lir::interp::run_function(&sol.module, "main", &[], 5_000_000)
                .expect("source runs");
            let dec = decompiled_module(sol, Compiler::Clang, OptLevel::Oz);
            let dec_out = gbm_lir::interp::run_function(&dec, "main", &[], 50_000_000)
                .expect("decompiled runs");
            assert_eq!(src_out.output, dec_out.output, "{}", sol.source);
        }
    }

    #[test]
    fn decompile_all_is_parallel_and_complete() {
        let ds = poj104(DatasetConfig {
            num_tasks: 3,
            solutions_per_task: 2,
            seed: 2,
        });
        let idxs: Vec<usize> = (0..ds.solutions.len()).collect();
        let map = decompile_all(&ds, &idxs, Compiler::Gcc, OptLevel::O1);
        assert_eq!(map.len(), ds.solutions.len());
    }

    #[test]
    fn java_solutions_have_bigger_ir() {
        let ds = clcdsa(DatasetConfig {
            num_tasks: 4,
            solutions_per_task: 3,
            seed: 5,
        });
        let c_mean: f64 = ds
            .of_lang(SourceLang::MiniC)
            .iter()
            .map(|&i| ds.solutions[i].module.num_insts() as f64)
            .sum::<f64>()
            / 12.0;
        let j_mean: f64 = ds
            .of_lang(SourceLang::MiniJava)
            .iter()
            .map(|&i| ds.solutions[i].module.num_insts() as f64)
            .sum::<f64>()
            / 12.0;
        assert!(j_mean > c_mean * 1.5, "java {j_mean:.1} vs c {c_mean:.1}");
    }
}
