//! gbm_benchmark: one seeded command that times a query's whole life on six
//! workloads and attributes it to layers. See `README.md` beside this file
//! for the metric glossary and the reasons behind each workload.
//!
//! ```text
//! gbm_benchmark run [--workload W] [--seed N] [--seconds S] [--trace [0|1]]
//!                   [--smoke] [--reverse] [--label TEXT] [--out FILE]
//! gbm_benchmark compare A.json B.json [--benchmark BENCHMARK.json]
//! ```
//!
//! `run --workload W` runs one workload in this process and ends with one
//! JSON line (`correct`, `attempted`, `failed`, `metrics`): the end-to-end
//! metrics, or with `--trace` the per-layer metrics. `run` without
//! `--workload` re-executes itself once per workload, so `peak_rss_mb` is
//! per workload, and writes one results file. The seed drives only the
//! generated inputs; no `GBM_*` environment knob is read.

mod compare;
mod host;
mod inputs;
mod json;
mod oracle;
mod probes;
mod report;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use json::Json;
use report::{Ctx, Outcome, Workload};

struct RunArgs {
    workload: Option<Workload>,
    ctx: Ctx,
    reverse: bool,
    label: String,
    out: Option<PathBuf>,
}

fn usage() -> String {
    "usage: gbm_benchmark run [--workload W] [--seed N] [--seconds S] [--trace [0|1]] \
     [--smoke] [--reverse] [--label TEXT] [--out FILE]\n       \
     gbm_benchmark compare A.json B.json [--benchmark BENCHMARK.json]\n\
     workloads: bin2src serve_open scan_exact scan_ivf ingest_churn train_step"
        .to_string()
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workload: None,
        ctx: Ctx {
            seed: 1,
            seconds: 15.0,
            trace: false,
            smoke: false,
        },
        reverse: false,
        label: String::new(),
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}")).cloned();
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                run.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                run.ctx.seed = value("an unsigned integer")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number of seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                run.ctx.seconds = s;
            }
            // the driver passes `--trace 0|1`; a bare `--trace` means on
            "--trace" => {
                run.ctx.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => run.ctx.smoke = true,
            "--reverse" => run.reverse = true,
            "--label" => run.label = value("a label")?,
            "--out" => run.out = Some(PathBuf::from(value("a file path")?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if run.ctx.smoke {
        run.ctx.seconds = run.ctx.seconds.min(0.2);
    }
    Ok(run)
}

/// The full record of one workload's run, for results files.
fn record(ctx: &Ctx, outcome: &Outcome) -> Json {
    let latencies = outcome.latencies();
    Json::obj([
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("digest", Json::Str(format!("{:016x}", outcome.digest))),
        ("samples", Json::Num(latencies.len() as f64)),
        // pooled over the whole window, beside the sliced end-to-end metrics
        (
            "latency_ms",
            Json::obj([0.5, 0.9, 0.95, 0.99, 1.0].map(|q| {
                let ms = stats::percentile(&latencies, q) as f64 / 1e6;
                (format!("p{:.0}", 100.0 * q), Json::Num(ms))
            })),
        ),
        ("metrics", outcome.metrics_json(ctx.trace)),
    ])
}

/// Runs one workload here, prints every metric by name with its unit, then
/// the result line.
fn run_one(workload: Workload, args: &RunArgs) -> ExitCode {
    let ctx = &args.ctx;
    let outcome = workloads::run(workload, ctx);
    println!(
        "workload {} seed {} window {:.2} s trace {} cores {}",
        workload.name(),
        ctx.seed,
        outcome.window_s,
        ctx.trace as u8,
        host::cores()
    );
    println!("inputs_digest {:016x}", outcome.digest);
    let (samples, slices) = (outcome.samples.len(), outcome.slices());
    let tail_support = stats::samples_beyond(samples / slices, report::TAIL_Q);
    println!(
        "samples {samples} in {slices} slices, tail p{:.0} with {} samples beyond it in a slice{}",
        100.0 * report::TAIL_Q,
        tail_support,
        if tail_support < 10 {
            " (fewer than ten)"
        } else {
            ""
        }
    );
    println!(
        "oracle checks {} correct {}",
        outcome.oracle.checks(),
        outcome.correct()
    );
    let full = record(ctx, &outcome);
    let metrics = full.get("metrics").and_then(Json::as_object);
    for (name, cell) in metrics.expect("the record has a metrics object") {
        let value = cell.get("value").and_then(Json::as_f64).unwrap_or(0.0);
        let unit = cell.get("unit").and_then(Json::as_str).unwrap_or("");
        println!("{name:<32} {value:>16.6} {unit}");
    }
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, full.render_pretty()) {
            eprintln!("could not write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    // the driver's line: exactly these four keys, last on stdout
    let line = Json::obj(
        ["correct", "attempted", "failed", "metrics"]
            .into_iter()
            .map(|k| {
                (
                    k,
                    full.get(k)
                        .expect("the record has every result key")
                        .clone(),
                )
            }),
    );
    println!("{}", line.render());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Today's UTC date, `YYYY-MM-DD` (civil-from-days, no calendar crate).
fn utc_date() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let (d, m) = (
        doy - (153 * mp + 2) / 5 + 1,
        if mp < 10 { mp + 3 } else { mp - 9 },
    );
    let y = yoe + era * 400 + (m <= 2) as i64;
    format!("{y:04}-{m:02}-{d:02}")
}

/// Runs every workload, each in a process of its own, and writes one
/// results file.
fn run_all(args: &RunArgs) -> ExitCode {
    let exe = std::env::current_exe().expect("the benchmark knows its own path");
    let dir = host::state_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("could not create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let mut order = Workload::ALL.to_vec();
    if args.reverse {
        order.reverse();
    }
    let mut records = Vec::new();
    let mut all_correct = true;
    for workload in order {
        let part = dir.join(format!(
            "part-{}-{}.json",
            workload.name(),
            std::process::id()
        ));
        let mut cmd = Command::new(&exe);
        cmd.arg("run")
            .args(["--workload", workload.name()])
            .args(["--seed", &args.ctx.seed.to_string()])
            .args(["--seconds", &args.ctx.seconds.to_string()])
            .args(["--trace", if args.ctx.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&part);
        if args.ctx.smoke {
            cmd.arg("--smoke");
        }
        let status = cmd.status();
        all_correct &= status.as_ref().is_ok_and(|s| s.success());
        let parsed = std::fs::read_to_string(&part)
            .map_err(|e| e.to_string())
            .and_then(|text| Json::parse(&text));
        let _ = std::fs::remove_file(&part);
        match parsed {
            Ok(rec) => records.push((workload.name(), rec)),
            Err(e) => {
                eprintln!("{}: no result ({e}; exit {status:?})", workload.name());
                all_correct = false;
            }
        }
    }
    // file order is canonical whatever order the workloads ran in
    records.sort_by_key(|(name, _)| Workload::ALL.iter().position(|w| w.name() == *name));
    let doc = Json::obj([
        ("date", Json::Str(utc_date())),
        ("label", Json::Str(args.label.clone())),
        ("seed", Json::Num(args.ctx.seed as f64)),
        ("seconds", Json::Num(args.ctx.seconds)),
        ("trace", Json::Bool(args.ctx.trace)),
        ("host_cores", Json::Num(host::cores() as f64)),
        ("workloads", Json::obj(records)),
    ]);
    let out = args.out.clone().unwrap_or_else(|| {
        dir.join(format!(
            "results-seed{}{}.json",
            args.ctx.seed,
            if args.ctx.trace { "-trace" } else { "" }
        ))
    });
    match std::fs::write(&out, doc.render_pretty()) {
        Ok(()) => println!("results written to {}", out.display()),
        Err(e) => {
            eprintln!("could not write {}: {e}", out.display());
            return ExitCode::FAILURE;
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_compare(args: &[String]) -> Result<bool, String> {
    let mut files = Vec::new();
    let mut benchmark = PathBuf::from("BENCHMARK.json");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--benchmark" {
            benchmark = PathBuf::from(it.next().ok_or("--benchmark needs a path")?);
        } else {
            files.push(arg);
        }
    }
    let [a, b] = files[..] else {
        return Err("compare takes exactly two results files".into());
    };
    let load = |path: &std::path::Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let bounds = compare::bounds(&load(&benchmark)?)?;
    let (rows, breaches) = compare::compare(&load(a.as_ref())?, &load(b.as_ref())?, &bounds)?;
    Ok(compare::report(&rows, &breaches))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => match parse_run(&args[1..]) {
            Ok(run) => match run.workload {
                Some(w) => run_one(w, &run),
                None => run_all(&run),
            },
            Err(e) => {
                eprintln!("{e}\n{}", usage());
                ExitCode::from(2)
            }
        },
        Some("compare") => match run_compare(&args[1..]) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("{e}\n{}", usage());
                ExitCode::from(2)
            }
        },
        _ => {
            eprintln!("{}", usage());
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::{END_TO_END, PER_LAYER};

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn run_arguments_parse_in_both_trace_spellings() {
        let r = parse_run(&args(&[
            "--workload",
            "scan_ivf",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "0",
        ]))
        .unwrap();
        assert_eq!(r.workload, Some(Workload::ScanIvf));
        assert_eq!((r.ctx.seed, r.ctx.seconds, r.ctx.trace), (7, 12.0, false));
        assert!(parse_run(&args(&["--trace", "1"])).unwrap().ctx.trace);
        assert!(parse_run(&args(&["--trace"])).unwrap().ctx.trace);
        let r = parse_run(&args(&["--trace", "--seed", "3"])).unwrap();
        assert!(r.ctx.trace && r.ctx.seed == 3);
        let r = parse_run(&args(&["--smoke", "--seconds", "9"])).unwrap();
        assert!(r.ctx.smoke && r.ctx.seconds <= 0.2);
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "x"],
            &["--seconds", "0"],
            &["--seed"],
            &["--frobnicate"],
        ] {
            assert!(parse_run(&args(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn utc_date_is_well_formed() {
        let d = utc_date();
        assert_eq!(d.len(), 10);
        assert!(d[..4].parse::<u32>().unwrap() >= 2024);
        assert!((1..=12).contains(&d[5..7].parse::<u32>().unwrap()));
        assert!((1..=31).contains(&d[8..].parse::<u32>().unwrap()));
    }

    /// The names this binary prints are the names `BENCHMARK.json` declares.
    #[test]
    fn benchmark_json_declares_exactly_these_metrics_and_workloads() {
        let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let Some(path) = manifest
            .ancestors()
            .map(|d| d.join("BENCHMARK.json"))
            .find(|p| p.exists())
        else {
            return; // built outside the repository: nothing to compare with
        };
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|e| {
                    let s = |k: &str| e.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
        assert!(compare::bounds(&doc).is_ok());
    }

    /// This directory's own manifest is a workspace of its own, which does
    /// not inherit the repository's `[profile.*]` tables; it repeats them,
    /// and the copy must not drift, or the driver would time other code
    /// than `cargo build --release` at the root builds.
    #[test]
    fn own_manifest_repeats_the_repository_profiles() {
        let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let Some(root) = manifest
            .ancestors()
            .find(|d| d.join("BENCHMARK.json").exists())
        else {
            return; // built outside the repository: nothing to compare with
        };
        let profiles = |path: std::path::PathBuf| -> Vec<String> {
            let text = std::fs::read_to_string(&path).unwrap();
            text.lines()
                .skip_while(|l| !l.starts_with("[profile"))
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(str::to_string)
                .collect()
        };
        let own = profiles(root.join("crates/bench/src/bin/gbm_benchmark/Cargo.toml"));
        assert!(!own.is_empty());
        assert_eq!(own, profiles(root.join("Cargo.toml")));
    }

    /// `--smoke`: every workload's set-up, op, oracle and restart path, once,
    /// traced and untraced, with tiny sizes. Numbers are discarded; what is
    /// asserted is that every check passes and every metric is produced.
    #[test]
    fn smoke_drives_every_workload_once() {
        for trace in [false, true] {
            for workload in Workload::ALL {
                let ctx = Ctx {
                    seed: 5,
                    seconds: 0.2,
                    trace,
                    smoke: true,
                };
                let outcome = workloads::run(workload, &ctx);
                assert!(outcome.correct(), "{} trace={trace}", workload.name());
                assert!(outcome.attempted > 0 && outcome.failed == 0);
                assert!(!outcome.samples.is_empty(), "{}", workload.name());
                let e2e = outcome.end_to_end();
                assert!(e2e.iter().all(|v| v.is_finite() && *v > 0.0), "{e2e:?}");
                let line = record(&ctx, &outcome).render();
                let parsed = Json::parse(&line).unwrap();
                let metrics = parsed.get("metrics").and_then(Json::as_object).unwrap();
                assert_eq!(
                    metrics.len(),
                    if trace {
                        PER_LAYER.len()
                    } else {
                        END_TO_END.len()
                    }
                );
            }
        }
    }

    /// Same seed, same inputs; another seed, other inputs; tracing changes
    /// nothing about what is generated.
    #[test]
    fn input_digests_follow_the_seed_and_ignore_trace() {
        let digest = |workload, seed, trace| {
            let ctx = Ctx {
                seed,
                seconds: 0.05,
                trace,
                smoke: true,
            };
            workloads::run(workload, &ctx).digest
        };
        for workload in [Workload::ScanExact, Workload::TrainStep, Workload::Bin2src] {
            let a = digest(workload, 11, false);
            assert_eq!(a, digest(workload, 11, false), "{}", workload.name());
            assert_eq!(a, digest(workload, 11, true), "{}", workload.name());
            assert_ne!(a, digest(workload, 12, false), "{}", workload.name());
        }
    }
}
