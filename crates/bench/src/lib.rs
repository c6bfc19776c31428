//! # gbm-bench
//!
//! Regeneration harness for every table and figure in the paper, plus
//! criterion benchmarks over the pipeline stages.
//!
//! Each `table_*` / `figure_*` binary prints the corresponding rows:
//!
//! ```text
//! cargo run --release -p gbm-bench --bin table3_cross_language
//! ```
//!
//! Scale is selected with the `GBM_SCALE` environment variable:
//! `quick` (seconds, smoke test) or `standard` (the EXPERIMENTS.md setting,
//! minutes on a laptop). Default: `standard`.

pub use gbm_obs::LatencyHistogram;

use gbm_eval::{HarnessConfig, MethodScore};
use gbm_frontends::{compile, SourceLang};
use gbm_nn::{encode_graph, EncodedGraph, TrainObjective};
use gbm_progml::{build_graph, NodeTextMode};
use gbm_tokenizer::{Tokenizer, TokenizerConfig};

/// Reads and parses an environment knob. Invalid values warn loudly on
/// stderr and fall back to the built-in default instead of being silently
/// ignored — a typo'd `GBM_EPOCHS=1O` must not masquerade as a real run.
fn env_knob<T: std::str::FromStr>(name: &str, what: &str) -> Option<T> {
    let raw = std::env::var(name).ok()?;
    match raw.parse() {
        Ok(v) => Some(v),
        Err(_) => {
            eprintln!(
                "warning: ignoring invalid {name}={raw:?} (expected {what}); using the default"
            );
            None
        }
    }
}

/// The shared CLI contract of the `probe_*` binaries, parsed once by
/// [`probe_args`]: every probe accepts `-- --json` for the
/// machine-readable document, and the multi-process drills re-exec
/// themselves with `--flag value` pairs ([`ProbeArgs::flag_value`]).
pub struct ProbeArgs {
    /// `--json` was passed: print the JSON document instead of the table.
    pub json: bool,
    args: Vec<String>,
}

impl ProbeArgs {
    /// The value following `--<name>`, for probes that re-exec themselves
    /// with role flags (e.g. `--role writer --dir /tmp/x`).
    pub fn flag_value(&self, name: &str) -> Option<&str> {
        let flag = format!("--{name}");
        self.args
            .iter()
            .position(|a| *a == flag)
            .and_then(|i| self.args.get(i + 1))
            .map(String::as_str)
    }
}

/// Parses the probe CLI contract from `std::env::args()` — the one place
/// every probe binary's `--json` (and role-flag) handling lives.
pub fn probe_args() -> ProbeArgs {
    let args: Vec<String> = std::env::args().skip(1).collect();
    ProbeArgs {
        json: args.iter().any(|a| a == "--json"),
        args,
    }
}

/// Reads `GBM_SCALE` (and optional `GBM_EPOCHS` / `GBM_SEED` /
/// `GBM_ENCODE_BATCH` / `GBM_OBJECTIVE` overrides) and returns the
/// corresponding harness configuration. Invalid values warn and fall back.
pub fn scale_from_env() -> HarnessConfig {
    let mut cfg = match std::env::var("GBM_SCALE").ok().as_deref() {
        Some("quick") => HarnessConfig::quick(),
        Some("standard") | None => HarnessConfig::standard(),
        Some(other) => {
            eprintln!(
                "warning: ignoring invalid GBM_SCALE={other:?} (expected quick | standard); \
                 using standard"
            );
            HarnessConfig::standard()
        }
    };
    if let Some(n) = env_knob("GBM_EPOCHS", "a non-negative integer") {
        cfg.epochs = n;
    }
    if let Some(n) = env_knob("GBM_SEED", "an unsigned integer") {
        cfg.seed = n;
    }
    if let Some(n) = env_knob("GBM_ENCODE_BATCH", "a positive integer") {
        cfg.encode_batch_size = n;
    }
    if let Some(o) = env_knob::<TrainObjective>(
        "GBM_OBJECTIVE",
        "bce | triplet[:margin] | infonce[:temperature]",
    ) {
        cfg.objective = o;
    }
    cfg
}

/// A shared bench workload: `n` MiniC programs with deliberately uneven
/// graph shapes (straight line, loop, nested loops — the mix a real
/// candidate pool has), encoded against a tokenizer trained on themselves.
/// Used by the `serve_query` bench and the `probe_serve` load probe, so
/// their pools cannot drift apart.
pub fn minic_pool(n: usize) -> (Tokenizer, Vec<EncodedGraph>) {
    let sources: Vec<String> = (0..n)
        .map(|k| match k % 3 {
            0 => format!(
                "int main() {{ int s = {k} + 2; int t = s * 3; print(s + t); return 0; }}"
            ),
            1 => format!(
                "int f(int n) {{ int s = {k}; for (int i = 0; i < n; i++) {{ s += i * {}; }} return s; }}
                 int main() {{ print(f({})); return 0; }}",
                k % 17 + 1,
                k % 23 + 10
            ),
            _ => format!(
                "int main() {{ int s = 0; for (int i = 0; i < {}; i++) {{ for (int j = 0; j < i; j++) {{ s += i * j + {k}; }} }} print(s); return s; }}",
                k % 11 + 3
            ),
        })
        .collect();
    let graphs: Vec<gbm_progml::ProgramGraph> = sources
        .iter()
        .map(|s| build_graph(&compile(SourceLang::MiniC, "t", s).unwrap()))
        .collect();
    let refs: Vec<&gbm_progml::ProgramGraph> = graphs.iter().collect();
    let tok = Tokenizer::train_on_graphs(&refs, NodeTextMode::FullText, TokenizerConfig::default());
    let pool = graphs
        .iter()
        .map(|g| encode_graph(g, &tok, NodeTextMode::FullText))
        .collect();
    (tok, pool)
}

/// Deterministic unit-norm synthetic rows (splitmix64 driven): the spread
/// embedding pool for quantized-scan benchmarking. Shared by the
/// `serve_query` bench's `scan_*` group and the `probe_quant` probe, so
/// the pool the probe characterizes is *by construction* the pool the
/// gated bench times.
pub fn synth_unit_rows(n: usize, hidden: usize, seed: u64) -> Vec<f32> {
    let mut state = seed;
    let mut next = || {
        // splitmix64, mapped to [-1, 1)
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z % 2_000_000) as f32 / 1_000_000.0 - 1.0
    };
    let mut rows = vec![0.0f32; n * hidden];
    for row in rows.chunks_exact_mut(hidden) {
        let mut norm = 0.0f32;
        for v in row.iter_mut() {
            *v = next();
            norm += *v * *v;
        }
        let inv = 1.0 / norm.sqrt().max(1e-12);
        for v in row.iter_mut() {
            *v *= inv;
        }
    }
    rows
}

/// Deterministic *clustered* unit-norm synthetic rows: `clusters` random
/// unit centers, each row a center plus scaled noise, renormalized. This is
/// the distribution real embedding pools have (encoder outputs concentrate
/// around program families — `probe_quant`'s near-dup pool is the extreme
/// case), and the regime IVF's sub-linear scan is built for. The IVF
/// acceptance gate runs here; the uniform [`synth_unit_rows`] pool, where
/// top-K neighbors are structureless and IVF provably cannot win, stays as
/// the exact-scan gate pool and documents the hostile regime in
/// EXPERIMENTS.md. Rows cycle through clusters (`row i → cluster i %
/// clusters`), so any contiguous slice stays balanced.
pub fn synth_clustered_rows(n: usize, hidden: usize, clusters: usize, seed: u64) -> Vec<f32> {
    let centers = synth_unit_rows(clusters, hidden, seed);
    let noise = synth_unit_rows(n, hidden, seed ^ 0xC1A5_7E2D);
    let mut rows = vec![0.0f32; n * hidden];
    for (i, row) in rows.chunks_exact_mut(hidden).enumerate() {
        let c = &centers[(i % clusters) * hidden..(i % clusters + 1) * hidden];
        let e = &noise[i * hidden..(i + 1) * hidden];
        let mut norm = 0.0f32;
        for d in 0..hidden {
            row[d] = c[d] + 0.25 * e[d];
            norm += row[d] * row[d];
        }
        let inv = 1.0 / norm.sqrt().max(1e-12);
        for v in row.iter_mut() {
            *v *= inv;
        }
    }
    rows
}

/// Prints a `P / R / F1` method table with an optional title.
pub fn print_method_table(title: &str, rows: &[MethodScore]) {
    println!("\n## {title}");
    println!(
        "{:<24} {:>9} {:>9} {:>9} {:>10}",
        "Method", "Precision", "Recall", "F1", "Threshold"
    );
    println!("{}", "-".repeat(66));
    for m in rows {
        println!(
            "{:<24} {:>9.2} {:>9.2} {:>9.2} {:>10.2}",
            m.method, m.prf.precision, m.prf.recall, m.prf.f1, m.threshold
        );
    }
}

/// Prints a retrieval-metrics block (MRR / recall@k) for one query set.
pub fn print_retrieval(title: &str, r: &gbm_eval::RetrievalMetrics) {
    println!("\n## {title}");
    println!(
        "{} queries ranked over {} candidates",
        r.num_queries, r.num_candidates
    );
    println!("{:<12} {:>8}", "Metric", "Value");
    println!("{}", "-".repeat(21));
    println!("{:<12} {:>8.3}", "MRR", r.mrr);
    for &(k, v) in &r.recall_at {
        println!("{:<12} {:>8.3}", format!("recall@{k}"), v);
    }
}

/// Standard banner for every harness binary.
pub fn banner(what: &str, cfg: &HarnessConfig) {
    println!("=== GraphBinMatch reproduction — {what} ===");
    println!(
        "scale: tasks={} solutions/task/lang={} dims={}/{} layers={} epochs={}",
        cfg.num_tasks,
        cfg.solutions_per_task,
        cfg.embed_dim,
        cfg.hidden_dim,
        cfg.num_layers,
        cfg.epochs
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One test covers every env knob: setting/reading process-wide
    /// environment from parallel tests would race.
    #[test]
    fn default_scale_is_standard_and_env_knobs_fall_back_loudly() {
        let cfg = scale_from_env();
        assert!(cfg.num_tasks >= HarnessConfig::quick().num_tasks);
        assert_eq!(cfg.objective, TrainObjective::PairwiseBce);

        // valid overrides apply
        std::env::set_var("GBM_SCALE", "quick");
        std::env::set_var("GBM_EPOCHS", "3");
        std::env::set_var("GBM_OBJECTIVE", "triplet:0.4");
        let cfg = scale_from_env();
        assert_eq!(cfg.num_tasks, HarnessConfig::quick().num_tasks);
        assert_eq!(cfg.epochs, 3);
        assert_eq!(cfg.objective, TrainObjective::Triplet { margin: 0.4 });

        // invalid values warn (stderr) and fall back to the scale default
        std::env::set_var("GBM_EPOCHS", "1O");
        std::env::set_var("GBM_ENCODE_BATCH", "many");
        std::env::set_var("GBM_OBJECTIVE", "hinge");
        std::env::set_var("GBM_SCALE", "enormous");
        let cfg = scale_from_env();
        assert_eq!(cfg.epochs, HarnessConfig::standard().epochs);
        assert_eq!(
            cfg.encode_batch_size,
            HarnessConfig::standard().encode_batch_size
        );
        assert_eq!(cfg.objective, TrainObjective::PairwiseBce);
        assert_eq!(cfg.num_tasks, HarnessConfig::standard().num_tasks);

        for var in [
            "GBM_SCALE",
            "GBM_EPOCHS",
            "GBM_ENCODE_BATCH",
            "GBM_OBJECTIVE",
        ] {
            std::env::remove_var(var);
        }
    }

    #[test]
    fn printing_does_not_panic() {
        print_method_table(
            "t",
            &[MethodScore {
                method: "X".into(),
                prf: gbm_eval::Prf {
                    precision: 0.5,
                    recall: 0.5,
                    f1: 0.5,
                },
                threshold: 0.5,
            }],
        );
        banner("test", &HarnessConfig::quick());
    }
}
