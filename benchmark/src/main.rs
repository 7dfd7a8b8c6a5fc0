//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <xmark-path|xmark-join|serve-mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root.  The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`).  The line before it is the run's record: host facts and
//! per-query detail.  Traced runs also write their spans under
//! `bench-out/`.  See `benchmark/README.md` for what each workload and
//! metric means.

mod json;
mod layers;
mod serve;
mod stats;
mod trace;
mod xmark;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Json;

/// Every end-to-end metric, with its unit, in report order.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("throughput_qps", "1/s"),
    ("warm_geomean_ms", "ms"),
    ("cold_geomean_ms", "ms"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("load_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

const WORKLOADS: [&str; 3] = ["xmark-path", "xmark-join", "serve-mix"];

/// The command line of one run.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// The commit measured (a git hash when the tree is a git checkout,
    /// otherwise a digest of the sources).
    pub commit: String,
}

/// What a workload run reports.
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    /// Checks beyond answer equality (sample counts, repeatable counters).
    pub checks_ok: bool,
    pub metrics: Vec<(&'static str, f64)>,
    pub record: Json,
}

/// Where a traced run writes its spans.
pub fn spans_path(workload: &str, seed: u64) -> PathBuf {
    PathBuf::from("bench-out").join(format!("spans-{workload}-seed{seed}.json"))
}

fn parse_args(args: &[String]) -> Result<Run, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Run {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
        commit: commit(),
    })
}

/// The git commit of the repository, or a digest of its sources when the
/// tree is not a git checkout (a source export such as `git archive` has no
/// `.git`, and the benchmark must still say which code it measured).
fn commit() -> String {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
    if root.join(".git").exists() {
        if let Ok(out) = std::process::Command::new("git")
            .arg("-C")
            .arg(&root)
            .args(["rev-parse", "HEAD"])
            .stderr(std::process::Stdio::null())
            .output()
        {
            if out.status.success() {
                return String::from_utf8_lossy(&out.stdout).trim().to_string();
            }
        }
    }
    let mut files = Vec::new();
    collect_sources(&root.join("crates"), &mut files);
    files.sort();
    let mut text = String::new();
    for f in &files {
        if let Ok(body) = std::fs::read_to_string(f) {
            text.push_str(&f.display().to_string());
            text.push_str(&body);
        }
    }
    format!("source:{:016x}", stats::digest(&text))
}

fn collect_sources(dir: &std::path::Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(path);
        }
    }
}

fn main() -> ExitCode {
    // The environment must not change what is measured: the engine reads
    // several PF_* variables for its defaults.
    let set: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("PF_"))
        .collect();
    if !set.is_empty() {
        eprintln!(
            "refusing to run with {} set: unset every PF_* variable",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = match parse_args(&args) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("{e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };

    let outcome = match (run.workload.as_str(), run.trace) {
        ("xmark-path", false) => xmark::run(&xmark::PATH, &run),
        ("xmark-path", true) => xmark::run_traced(&xmark::PATH, &run),
        ("xmark-join", false) => xmark::run(&xmark::JOIN, &run),
        ("xmark-join", true) => xmark::run_traced(&xmark::JOIN, &run),
        ("serve-mix", false) => serve::run(&run),
        _ => serve::run_traced(&run),
    };

    let declared: &[(&str, &str)] = if run.trace {
        &layers::PER_LAYER
    } else {
        &END_TO_END
    };
    // Every measured metric must be a finite number; a per-layer metric
    // that does not apply to the workload reads 0.
    let mut metrics = Json::obj();
    let mut all_finite = true;
    for (name, unit) in declared {
        let value = if run.trace && !layers::applies(name, &run.workload) {
            0.0
        } else {
            let v = outcome
                .metrics
                .iter()
                .find(|(n, _)| n == name)
                .map_or(f64::NAN, |(_, v)| *v);
            all_finite &= v.is_finite();
            v
        };
        let mut m = Json::obj();
        m.set("value", value).set("unit", *unit);
        metrics.set(name, m);
    }
    let mut result = Json::obj();
    result
        .set(
            "correct",
            outcome.failed == 0 && outcome.checks_ok && all_finite,
        )
        .set("attempted", outcome.attempted)
        .set("failed", outcome.failed)
        .set("metrics", metrics);
    println!("{}", outcome.record);
    println!("{result}");
    ExitCode::SUCCESS
}
