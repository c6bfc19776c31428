//! `gbm_benchmark compare A.json B.json`: B against A, metric by metric,
//! under the bounds `BENCHMARK.json` fixes. The tool for the A/A check and
//! for every later before/after.
//!
//! `BENCHMARK.json` can only say "a share of A's value". Two metrics have
//! rules a share cannot express, and `compare` applies them as well:
//! `quality` may not drop by more than [`QUALITY_ABS`], and not at all on
//! the workloads where it is an identity that must be 1; `setup_s` may
//! always grow by [`SETUP_FLOOR_S`], because a set-up of forty
//! milliseconds jitters by more than any share of itself.

use crate::json::Json;
use crate::report::Workload;

/// The most `quality` may drop, absolutely, whatever its relative bound.
pub const QUALITY_ABS: f64 = 0.02;
/// Growth of `setup_s`, in seconds, that is never a breach.
pub const SETUP_FLOOR_S: f64 = 0.25;
/// What the issue wanted a timing to repeat within. The reference host
/// drifts by more than that between two runs of one binary, so the bounds
/// in `BENCHMARK.json` are wider; a timing that is worse by more than this
/// and still inside its bound is printed as unresolved, not as unchanged:
/// one pair of runs cannot tell it from the host, ten alternating pairs can.
pub const RESOLUTION: f64 = 0.10;

/// One end-to-end metric's contract, read from `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct Bound {
    pub name: String,
    pub higher_is_better: bool,
    /// Share of A's value by which B may be worse.
    pub bound: f64,
}

/// The `end_to_end` entries of a parsed `BENCHMARK.json`.
pub fn bounds(benchmark: &Json) -> Result<Vec<Bound>, String> {
    let entries = benchmark
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    entries
        .iter()
        .map(|e| {
            let field = |k: &str| e.get(k).ok_or(format!("an end_to_end entry lacks {k:?}"));
            Ok(Bound {
                name: field("name")?
                    .as_str()
                    .ok_or("name is not a string")?
                    .to_string(),
                higher_is_better: match field("better")?.as_str() {
                    Some("higher") => true,
                    Some("lower") => false,
                    other => return Err(format!("better must be higher or lower, not {other:?}")),
                },
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// One compared cell.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    /// How much worse B is than A, as a share of A (negative: better).
    pub worse_by: f64,
    /// The rule the verdict was reached under, as printed.
    pub rule: String,
    pub ok: bool,
    /// Inside the bound, but worse by more than [`RESOLUTION`].
    pub unresolved: bool,
}

/// The verdict on one cell and the rule behind it.
fn verdict(workload: &str, bound: &Bound, a: f64, b: f64, worse_by: f64) -> (bool, String) {
    let share = format!("{:.1}%", 100.0 * bound.bound);
    let within = worse_by <= bound.bound;
    match bound.name.as_str() {
        "quality" if Workload::parse(workload).is_some_and(Workload::quality_must_be_one) => {
            (b >= a, "no drop".into())
        }
        "quality" => (
            within && a - b <= QUALITY_ABS,
            format!("{share} and {QUALITY_ABS}"),
        ),
        "setup_s" => (
            within || b - a <= SETUP_FLOOR_S,
            format!("{share} or {SETUP_FLOOR_S} s"),
        ),
        _ => (within, share),
    }
}

/// Compares two results documents. Returns every row and the breaches that
/// are not a metric row: incorrect runs, more failures, a workload in one
/// file only, other inputs under the same seed.
pub fn compare(a: &Json, b: &Json, bounds: &[Bound]) -> Result<(Vec<Row>, Vec<String>), String> {
    let workloads = |doc: &Json| {
        doc.get("workloads")
            .and_then(Json::as_object)
            .map(<[_]>::to_vec)
            .ok_or("a results file has no workloads object")
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let seed = |doc: &Json| doc.get("seed").and_then(Json::as_f64);
    let same_seed = seed(a).is_some() && seed(a) == seed(b);
    let mut rows = Vec::new();
    let mut breaches = Vec::new();
    for (name, _) in &wb {
        if !wa.iter().any(|(n, _)| n == name) {
            breaches.push(format!("{name}: missing from A"));
        }
    }
    for (name, ra) in &wa {
        let Some((_, rb)) = wb.iter().find(|(n, _)| n == name) else {
            breaches.push(format!("{name}: missing from B"));
            continue;
        };
        let num = |r: &Json, k: &str| r.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        for (side, r) in [("A", ra), ("B", rb)] {
            if r.get("correct").and_then(Json::as_bool) != Some(true) {
                breaches.push(format!("{name}: {side} is not correct"));
            }
        }
        let digest = |r: &Json| r.get("digest").and_then(Json::as_str).map(str::to_string);
        if same_seed && digest(ra) != digest(rb) {
            breaches.push(format!(
                "{name}: one seed, two inputs digests ({:?}, {:?})",
                digest(ra),
                digest(rb)
            ));
        }
        let fail_share = |r: &Json| num(r, "failed") / num(r, "attempted").max(1.0);
        if fail_share(rb) > fail_share(ra) {
            breaches.push(format!(
                "{name}: failed/attempted rose from {} to {}",
                fail_share(ra),
                fail_share(rb)
            ));
        }
        for bound in bounds {
            let value = |r: &Json| {
                r.get("metrics")
                    .and_then(|m| m.get(&bound.name))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
                    .ok_or(format!("{name}: no {} in a results file", bound.name))
            };
            let (va, vb) = (value(ra)?, value(rb)?);
            let change = (vb - va) / va.abs().max(f64::MIN_POSITIVE);
            let worse_by = if bound.higher_is_better {
                -change
            } else {
                change
            };
            let (ok, rule) = verdict(name, bound, va, vb, worse_by);
            let timing = !matches!(bound.name.as_str(), "quality" | "setup_s" | "peak_rss_mb");
            rows.push(Row {
                unresolved: ok && timing && worse_by > RESOLUTION,
                workload: name.clone(),
                metric: bound.name.clone(),
                a: va,
                b: vb,
                worse_by,
                rule,
                ok,
            });
        }
    }
    Ok((rows, breaches))
}

/// Prints the table; returns whether everything held.
pub fn report(rows: &[Row], breaches: &[String]) -> bool {
    println!(
        "{:<13} {:<12} {:>14} {:>14} {:>9}  {:<16} verdict",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    for r in rows {
        println!(
            "{:<13} {:<12} {:>14.6} {:>14.6} {:>8.2}%  {:<16} {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            100.0 * r.worse_by,
            r.rule,
            match (r.ok, r.unresolved) {
                (false, _) => "BREACH",
                (true, true) => "UNRESOLVED",
                (true, false) => "ok",
            }
        );
    }
    for b in breaches {
        println!("BREACH {b}");
    }
    let held = breaches.is_empty() && rows.iter().all(|r| r.ok);
    let unresolved = rows.iter().filter(|r| r.unresolved).count();
    match (held, unresolved) {
        (false, _) => println!("compare: FAILED"),
        (true, 0) => println!("compare: within bounds"),
        (true, n) => println!(
            "compare: within bounds; {n} timings are worse by more than {:.0} % and unresolved: \
             one pair of runs cannot tell that from the host, ten alternating pairs can",
            100.0 * RESOLUTION
        ),
    }
    held
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A results file with one workload.
    fn file(
        workload: &str,
        (seed, digest): (f64, &str),
        (failed, correct): (f64, bool),
        metrics: &[(&str, f64)],
    ) -> Json {
        let cells = metrics.iter().map(|&(n, v)| (n, Json::metric(v, "")));
        Json::obj([
            ("seed", Json::Num(seed)),
            (
                "workloads",
                Json::obj([(
                    workload,
                    Json::obj([
                        ("correct", Json::Bool(correct)),
                        ("attempted", Json::Num(100.0)),
                        ("failed", Json::Num(failed)),
                        ("digest", Json::Str(digest.into())),
                        ("metrics", Json::obj(cells)),
                    ]),
                )]),
            ),
        ])
    }

    fn results(p50: f64, ops: f64, failed: f64, correct: bool) -> Json {
        let metrics = [("op_p50_ms", p50), ("ops_per_s", ops)];
        file("scan_exact", (1.0, "d"), (failed, correct), &metrics)
    }

    /// A correct run of `workload` reporting one metric.
    fn one_metric(workload: &str, metric: &str, value: f64) -> Json {
        file(workload, (1.0, "d"), (0.0, true), &[(metric, value)])
    }

    fn bounds_of(entries: &str) -> Vec<Bound> {
        bounds(&Json::parse(&format!(r#"{{"end_to_end": [{entries}]}}"#)).unwrap()).unwrap()
    }

    fn two_bounds() -> Vec<Bound> {
        bounds_of(
            r#"{"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
               {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}"#,
        )
    }

    #[test]
    fn direction_and_bound_decide_the_verdict() {
        let b = two_bounds();
        // 5 % slower, 5 % less throughput: inside 10 %
        let (rows, breaches) = compare(
            &results(1.0, 100.0, 0.0, true),
            &results(1.05, 95.0, 0.0, true),
            &b,
        )
        .unwrap();
        assert!(breaches.is_empty() && rows.iter().all(|r| r.ok));
        assert!((rows[0].worse_by - 0.05).abs() < 1e-12);
        assert!((rows[1].worse_by - 0.05).abs() < 1e-12);
        assert!(rows.iter().all(|r| !r.unresolved));
        // 20 % faster is never a breach; 20 % less throughput is
        let (rows, _) = compare(
            &results(1.0, 100.0, 0.0, true),
            &results(0.8, 80.0, 0.0, true),
            &b,
        )
        .unwrap();
        assert!(rows[0].ok && rows[0].worse_by < 0.0);
        assert!(!rows[1].ok);
        assert!(!report(&rows, &[]));
        // inside a wide bound but past what one pair of runs resolves
        let wide =
            bounds_of(r#"{"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25}"#);
        let (rows, _) = compare(
            &results(1.0, 100.0, 0.0, true),
            &results(1.2, 100.0, 0.0, true),
            &wide,
        )
        .unwrap();
        assert!(rows[0].ok && rows[0].unresolved);
        assert!(report(&rows, &[]), "unresolved is printed, not failed");
    }

    #[test]
    fn more_failures_or_an_incorrect_run_breach() {
        let b = two_bounds();
        let good = results(1.0, 100.0, 0.0, true);
        let (_, breaches) = compare(&good, &results(1.0, 100.0, 1.0, true), &b).unwrap();
        assert_eq!(breaches.len(), 1);
        let (_, breaches) = compare(&good, &results(1.0, 100.0, 0.0, false), &b).unwrap();
        assert_eq!(breaches.len(), 1);
        let (rows, breaches) = compare(&good, &good, &b).unwrap();
        assert!(report(&rows, &breaches));
        assert!(compare(&good, &Json::Null, &b).is_err());
        assert!(bounds(&Json::Null).is_err());
    }

    #[test]
    fn quality_has_an_absolute_bound_and_identities_may_not_drop() {
        let b =
            bounds_of(r#"{"name": "quality", "unit": "score", "better": "higher", "bound": 0.03}"#);
        let ok_of = |workload: &str, qa: f64, qb: f64| {
            let side = |q| one_metric(workload, "quality", q);
            compare(&side(qa), &side(qb), &b).unwrap().0[0].ok
        };
        // an MRR: 0.62 → 0.605 is inside both bounds, → 0.50 is outside both
        assert!(ok_of("bin2src", 0.62, 0.605));
        assert!(!ok_of("bin2src", 0.62, 0.50));
        // 0.98 → 0.955 is inside 3 % of 0.98 but more than 0.02: breach
        assert!(!ok_of("train_step", 0.98, 0.955));
        // 0.30 → 0.285 is inside 0.02 but more than 3 % of 0.30: breach
        assert!(!ok_of("bin2src", 0.30, 0.285));
        assert!(ok_of("bin2src", 0.60, 0.70), "better is never a breach");
        // an identity: exactly no drop
        assert!(ok_of("scan_exact", 1.0, 1.0));
        assert!(!ok_of("scan_exact", 1.0, 0.999));
        assert!(!ok_of("ingest_churn", 1.0, 0.97));
        assert!(
            ok_of("scan_ivf", 1.0, 0.99),
            "recall is a floor, not an identity"
        );
    }

    #[test]
    fn a_short_set_up_may_grow_by_a_quarter_second() {
        let b = bounds_of(r#"{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.1}"#);
        let ok_of = |sa: f64, sb: f64| {
            let side = |v| one_metric("train_step", "setup_s", v);
            compare(&side(sa), &side(sb), &b).unwrap().0[0].ok
        };
        assert!(ok_of(0.04, 0.05), "+25 %, but ten milliseconds");
        assert!(ok_of(9.0, 9.8), "+0.8 s, but inside 10 %");
        assert!(!ok_of(2.0, 2.4), "+20 % and +0.4 s");
    }

    #[test]
    fn other_inputs_under_one_seed_or_a_workload_on_one_side_breach() {
        let b = two_bounds();
        let run = |workload: &str, seed: f64, digest: &str| {
            let metrics = [("op_p50_ms", 1.0), ("ops_per_s", 100.0)];
            file(workload, (seed, digest), (0.0, true), &metrics)
        };
        let a = run("scan_exact", 7.0, "aaaa");
        let held = |other: &Json| compare(&a, other, &b).unwrap().1;
        assert!(held(&run("scan_exact", 7.0, "aaaa")).is_empty());
        assert_eq!(held(&run("scan_exact", 7.0, "bbbb")).len(), 1);
        assert!(
            held(&run("scan_exact", 8.0, "bbbb")).is_empty(),
            "another seed has other inputs"
        );
        let only_b = held(&run("scan_ivf", 7.0, "aaaa"));
        assert_eq!(only_b.len(), 2, "{only_b:?}");
        assert!(only_b.iter().any(|m| m.contains("missing from A")));
        assert!(only_b.iter().any(|m| m.contains("missing from B")));
    }
}
