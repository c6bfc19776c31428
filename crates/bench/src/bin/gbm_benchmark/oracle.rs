//! Correctness checks. Every workload runs its checks before timing and
//! again on a seeded sample of the answers it timed; a fast wrong answer
//! must never be reported as a result. A failing check prints one
//! greppable `ORACLE FAIL` line, sets `"correct": false` and makes `run`
//! exit non-zero.

use gbm_serve::{GraphId, ServerReport};

/// A ranked answer as the serving layer returns it.
pub type Ranking = Vec<(GraphId, f32)>;

/// Collects the outcome of a workload's checks.
#[derive(Default)]
pub struct Oracle {
    checks: usize,
    failures: Vec<String>,
}

impl Oracle {
    /// Records one check; `detail` is only rendered on failure.
    pub fn check(&mut self, what: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            let line = format!("ORACLE FAIL {what}: {}", detail());
            println!("{line}");
            self.failures.push(line);
        }
    }

    /// `same / total`, recording a failure unless every one of at least one
    /// sampled answer was the same — the "must be 1" quality of the
    /// identity workloads.
    pub fn share(
        &mut self,
        what: &str,
        same: usize,
        total: usize,
        detail: impl FnOnce() -> String,
    ) -> f64 {
        self.check(what, same == total && total > 0, || {
            if total == 0 {
                "no answers were sampled".into()
            } else {
                format!("{} of {total} answers differ; {}", total - same, detail())
            }
        });
        same as f64 / total.max(1) as f64
    }

    /// [`share`](Self::share) over `(got, want)` pairs.
    pub fn identical_share<T: PartialEq + std::fmt::Debug>(
        &mut self,
        what: &str,
        pairs: &[(T, T)],
    ) -> f64 {
        let same = pairs.iter().filter(|(a, b)| a == b).count();
        self.share(what, same, pairs.len(), || {
            let (got, want) = pairs.iter().find(|(a, b)| a != b).expect("a pair differs");
            format!("first: got {got:?}, want {want:?}")
        })
    }

    /// A clean shutdown leaks nothing, and a durable server's log is synced.
    pub fn shutdown(&mut self, report: &ServerReport, durable: bool) {
        self.check("shutdown.is_drained", report.is_drained(), || {
            format!("{report:?}")
        });
        if durable {
            self.check("shutdown.is_durable", report.is_durable(), || {
                format!("{report:?}")
            });
        }
    }

    pub fn checks(&self) -> usize {
        self.checks
    }

    pub fn is_correct(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Top-`k` of a brute-force f32 scan over row-major unit rows (row `i` has
/// id `i`), in the serving layer's order: score descending, id ascending.
/// Scores accumulate in element order, as the exact scan tiers do, so
/// equal inputs give equal bits.
pub fn brute_force_top_k(rows: &[f32], hidden: usize, query: &[f32], k: usize) -> Ranking {
    let mut scored: Ranking = rows
        .chunks_exact(hidden)
        .enumerate()
        .map(|(i, row)| {
            let dot: f32 = row.iter().zip(query).map(|(x, y)| x * y).sum();
            (i as GraphId, dot)
        })
        .collect();
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    scored.truncate(k);
    scored
}

/// Share of `exact`'s ids that `approx` also returned.
pub fn recall(exact: &Ranking, approx: &Ranking) -> f64 {
    let hits = exact
        .iter()
        .filter(|(id, _)| approx.iter().any(|(a, _)| a == id))
        .count();
    hits as f64 / exact.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_check_flips_correct() {
        let mut o = Oracle::default();
        o.check("fine", true, || unreachable!());
        assert!(o.is_correct());
        assert_eq!(o.identical_share("same", &[(1, 1), (2, 2)]), 1.0);
        assert!(o.is_correct());
        assert_eq!(o.identical_share("differs", &[(1, 1), (2, 3)]), 0.5);
        assert!(!o.is_correct());
        assert_eq!(o.checks(), 3);
        let mut empty = Oracle::default();
        empty.identical_share::<u8>("nothing sampled", &[]);
        assert!(!empty.is_correct(), "an empty sample proves nothing");
    }

    #[test]
    fn brute_force_orders_by_score_then_id() {
        // rows 0 and 2 tie; the lower id ranks first
        let rows = [1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.6, 0.8];
        let top = brute_force_top_k(&rows, 2, &[1.0, 0.0], 3);
        assert_eq!(top, vec![(0, 1.0), (2, 1.0), (3, 0.6)]);
        assert_eq!(recall(&top, &vec![(2, 1.0), (9, 0.5), (3, 0.1)]), 2.0 / 3.0);
    }
}
