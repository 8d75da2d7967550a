//! `beware-benchmark`: run the five workloads, compare two result files.
//!
//! ```text
//! beware-benchmark run --workload NAME [--seed 7] [--seconds 12] [--trace 0|1]
//!                      [--scale full|smoke] [--out FILE] [--spans-out FILE]
//! beware-benchmark run --all [same flags]     one child process per workload
//! beware-benchmark compare A.json B.json      exit 1 on any regression
//! ```
//!
//! Exit codes: 0 ok, 1 incorrect output / regression / runtime failure,
//! 2 usage.

#![forbid(unsafe_code)]

use beware_benchmark::harness::{self, RunCfg};
use beware_benchmark::result::ResultSet;
use beware_benchmark::workloads::Scale;
use beware_benchmark::{compare, report, spec};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage:
  beware-benchmark run (--workload NAME | --all) [--seed N] [--seconds N] [--trace 0|1]
                       [--scale full|smoke] [--out FILE] [--spans-out FILE]
  beware-benchmark compare A.json B.json
workloads: survey_analyze sweep_dense simserve_query simserve_report tcp_pipeline";

/// Default seed; the seed reaches the program only through generated inputs.
const DEFAULT_SEED: u64 = 7;
/// Default measuring time: five repeats of the longest workload.
const DEFAULT_SECONDS: f64 = 12.0;

enum Failure {
    Usage(String),
    Runtime(String),
}

struct RunArgs {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: f64,
    traced: bool,
    scale: Scale,
    out: Option<PathBuf>,
    spans_out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        all: false,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        scale: Scale::Full,
        out: None,
        spans_out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--all" {
            parsed.all = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => {
                spec::workload(value).ok_or_else(|| format!("unknown workload `{value}`"))?;
                parsed.workload = Some(value.clone());
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds = value.parse().ok().filter(|s| *s > 0.0).ok_or_else(bad)?;
            }
            "--trace" => {
                parsed.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--scale" => parsed.scale = Scale::from_name(value).ok_or_else(bad)?,
            "--out" => parsed.out = Some(PathBuf::from(value)),
            "--spans-out" => parsed.spans_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if parsed.all == parsed.workload.is_some() {
        return Err("give exactly one of --workload NAME and --all".into());
    }
    Ok(parsed)
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Where spans go when no path is given: beside the build, which every
/// checkout ignores.
fn default_spans_path(workload: &str) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
    target.join("beware-benchmark").join(format!("spans-{workload}.json"))
}

/// Run one workload in this process. Returns whether its outputs were
/// correct.
fn run_one(args: &RunArgs, workload: &str) -> Result<bool, String> {
    let cfg = RunCfg {
        workload: workload.to_string(),
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        scale: args.scale,
    };
    let (result, tracer) = harness::run(&cfg)?;
    if args.traced {
        let path = args.spans_out.clone().unwrap_or_else(|| default_spans_path(workload));
        write_file(&path, &tracer.to_json().pretty())?;
        eprintln!("{} spans -> {}", tracer.spans().len(), path.display());
    }
    if let Some(path) = &args.out {
        write_file(path, &ResultSet { runs: vec![result.clone()] }.to_json().pretty())?;
    }
    print!("{}", report::render(&result));
    println!("{}", report::contract_line(&result));
    Ok(result.correct)
}

/// `--all`: one child process per workload, so `peak_rss_mb` is each
/// workload's own; their result files are merged into `--out`.
fn run_all(args: &RunArgs) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut merged = ResultSet::default();
    let mut correct = true;
    for w in &spec::WORKLOADS {
        let part = args.out.as_ref().map(|out| out.with_extension(format!("{}.part", w.name)));
        let mut child = Command::new(&exe);
        child
            .args(["run", "--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.traced { "1" } else { "0" }])
            .args(["--scale", args.scale.name()]);
        if let Some(part) = &part {
            child.arg("--out").arg(part);
        }
        // `status` waits for the child to exit.
        let status = child.status().map_err(|e| format!("cannot start {}: {e}", w.name))?;
        correct &= status.success();
        if let Some(part) = &part {
            // A child that failed before writing leaves no part behind.
            if let Ok(set) = ResultSet::read(part) {
                merged.runs.extend(set.runs);
            }
            let _ = std::fs::remove_file(part);
        }
    }
    if let Some(out) = &args.out {
        write_file(out, &merged.to_json().pretty())?;
        eprintln!("{} run(s) -> {}", merged.runs.len(), out.display());
    }
    Ok(correct)
}

fn cmd_run(args: &[String]) -> Result<ExitCode, Failure> {
    let parsed = parse_run(args).map_err(Failure::Usage)?;
    let correct = match &parsed.workload {
        Some(w) => run_one(&parsed, w),
        None => run_all(&parsed),
    }
    .map_err(Failure::Runtime)?;
    Ok(if correct { ExitCode::SUCCESS } else { ExitCode::from(1) })
}

fn cmd_compare(args: &[String]) -> Result<ExitCode, Failure> {
    let [a, b] = args else {
        return Err(Failure::Usage("compare takes exactly two result files".into()));
    };
    let base = ResultSet::read(Path::new(a)).map_err(Failure::Runtime)?;
    let new = ResultSet::read(Path::new(b)).map_err(Failure::Runtime)?;
    let rows = compare::compare(&base, &new).map_err(Failure::Runtime)?;
    print!("{}", compare::render(&rows));
    let regressed = compare::any_regressed(&rows);
    println!("{}", if regressed { "REGRESSED" } else { "no regression" });
    Ok(if regressed { ExitCode::from(1) } else { ExitCode::SUCCESS })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => cmd_run(rest),
        Some((cmd, rest)) if cmd == "compare" => cmd_compare(rest),
        _ => Err(Failure::Usage("expected `run` or `compare`".into())),
    };
    match outcome {
        Ok(code) => code,
        Err(Failure::Usage(why)) => {
            eprintln!("error: {why}\n{USAGE}");
            ExitCode::from(2)
        }
        Err(Failure::Runtime(why)) => {
            eprintln!("error: {why}");
            ExitCode::from(1)
        }
    }
}
