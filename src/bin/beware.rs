//! `beware` — command-line front end to the reproduction stack.
//!
//! ```text
//! beware generate  --blocks 1024 --year 2015 --seed 7 --out plan.tsv
//! beware survey    --plan plan.tsv --rounds 60 --out survey.bwss [--sample N]
//! beware scan      --plan plan.tsv --duration 1800 --out scan.tsv
//! beware analyze   --survey survey.bwss [--csv cdf.csv]
//! beware recommend --survey survey.bwss [--addr-pct 95] [--ping-pct 95] [--timeout 3]
//! ```
//!
//! Argument parsing is deliberately dependency-free: flags are `--name
//! value` pairs, orders don't matter, unknown flags are errors.

use beware::analysis::pipeline::{run_pipeline, PipelineCfg};
use beware::analysis::recommend;
use beware::analysis::report::{fmt_count, series_to_csv, Series};
use beware::analysis::timeout_table::TimeoutTable;
use beware::analysis::Cdf;
use beware::asdb::gen::{GenConfig, InternetPlan};
use beware::asdb::persist;
use beware::bench::{ExperimentCtx, FullSpaceCfg, Scale};
use beware::dataset::stream::{StreamReader, StreamWriter};
use beware::dataset::{Record, ScanMeta};
use beware::faultsim::{ChaosProxy, FaultCfg};
use beware::netsim::scenario::{vantage, Scenario, ScenarioCfg};
use beware::netsim::{LinkEvent, LinkEventKind, LinkId};
use beware::policy::{shootout, PolicyKind, ShootoutCfg};
use beware::probe::census::select_survey_blocks;
use beware::probe::prelude::*;
use beware::serve::{
    build_snapshot, loadgen, server, Client, ClientError, Oracle, ReloadKind, SnapshotCfg, Status,
};
use beware::telemetry::Registry;
use std::collections::HashMap;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write as _};
use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

/// A classified CLI failure. The variant picks the process exit code, so
/// scripts (and the CI reload smoke job) can tell a typo'd flag from a
/// missing file from a corrupt snapshot without parsing stderr:
///
/// * `Usage`   → exit 2 (bad flags, bad values, invalid server config)
/// * `Io`      → exit 3 (missing/unreadable/unwritable files)
/// * `Corrupt` → exit 4 (snapshot/delta decode or validation failures)
/// * `Other`   → exit 1 (everything else)
#[derive(Debug)]
enum CliError {
    Usage(String),
    Io(String),
    Corrupt(String),
    Other(String),
}

impl CliError {
    fn exit_code(&self) -> ExitCode {
        ExitCode::from(match self {
            CliError::Other(_) => 1,
            CliError::Usage(_) => 2,
            CliError::Io(_) => 3,
            CliError::Corrupt(_) => 4,
        })
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "{m}"),
            CliError::Io(m) => write!(f, "{m}"),
            CliError::Corrupt(m) => write!(f, "{m}"),
            CliError::Other(m) => write!(f, "{m}"),
        }
    }
}

/// Legacy plumbing: unclassified `String` errors stay exit 1.
impl From<String> for CliError {
    fn from(m: String) -> Self {
        CliError::Other(m)
    }
}

impl From<&str> for CliError {
    fn from(m: &str) -> Self {
        CliError::Other(m.to_string())
    }
}

/// A load run's out-of-range setting is a usage error; a refused
/// thread or a failed run is a runtime one.
impl From<loadgen::LoadError> for CliError {
    fn from(e: loadgen::LoadError) -> Self {
        match e {
            loadgen::LoadError::Config(m) => CliError::Usage(m),
            other => CliError::Other(other.to_string()),
        }
    }
}

/// Rejected server configuration is a usage error: the flags asked for
/// something the server refuses to run with.
impl From<server::ConfigError> for CliError {
    fn from(e: server::ConfigError) -> Self {
        CliError::Usage(e.to_string())
    }
}

/// Classify a snapshot/delta decode failure: transport problems are I/O,
/// everything else means the bytes themselves are bad.
fn decode_err(path: &str, e: beware::dataset::binfmt::DecodeError) -> CliError {
    use beware::dataset::binfmt::DecodeError as E;
    match e {
        E::Io(e) => CliError::Io(format!("reading {path}: {e}")),
        other => CliError::Corrupt(format!("decoding {path}: {other}")),
    }
}

/// Same classification for survey stream decode failures.
fn stream_err(path: &str, e: beware::dataset::stream::StreamError) -> CliError {
    use beware::dataset::stream::StreamError as E;
    match e {
        E::Io(e) => CliError::Io(format!("reading {path}: {e}")),
        other => CliError::Corrupt(format!("decoding {path}: {other}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    if matches!(cmd.as_str(), "help" | "--help" | "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let Some(command) = COMMANDS.iter().find(|c| c.name == cmd) else {
        eprintln!("error: unknown command `{cmd}`\n\n{USAGE}");
        return ExitCode::from(2);
    };
    let flags = match Flags::parse(command, rest) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match (command.run)(&flags) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            e.exit_code()
        }
    }
}

const USAGE: &str = "beware — 'Timeouts: Beware Surprisingly High Delay' toolkit

commands:
  generate   --blocks N --year Y --seed S --out plan.tsv
  campaign   --out DIR [--threads N] [--scale small|bench] [--blocks N]
             [--survey-blocks N] [--rounds R] [--scans N] [--seed S]
             [--metrics metrics.json]
  survey     --plan plan.tsv --rounds R [--sample N] [--seed S] [--vantage w|c|j|g] --out survey.bwss
  scan       --plan plan.tsv [--duration SECS] [--seed S] --out scan.tsv
  census     --plan plan.tsv [--count N] [--seed S] --out blocks.txt
  analyze    --survey survey.bwss [--csv cdf.csv]
  metrics    --in metrics.json
  recommend  --survey survey.bwss [--addr-pct P] [--ping-pct P] [--timeout T]
  serve      --snapshot snap.bwts | --survey survey.bwss [--prefix-len L] [--min-addrs N]
             [--bind ADDR] [--port P] [--shards N] [--read-timeout SECS]
             [--policy NAME] (answer from an online estimator fed by Report frames;
             see `shootout --list-policies`; `oracle` = snapshot mode)
             [--reload-from snap.bwts [--reload-poll SECS]]
             [--save-snapshot snap.bwts] [--metrics serve-metrics.json]
  query      --host ADDR:PORT [--addr A.B.C.D] [--addr-pct P] [--ping-pct P]
             [--op query|stats|shutdown]
  admin      --op info                   --host ADDR:PORT
             --op reload [--kind full|delta] --host ADDR:PORT
             --op diff --base old.bwts --target new.bwts --out delta.bwtd
  loadgen    --host ADDR:PORT [--snapshot snap.bwts] [--workers N] [--requests N]
             [--addr-pct P] [--ping-pct P] [--seed S] [--report-rtts] [--out BENCH_3.json]
             mass mode (in-process server, idle-pool sweep -> BENCH_4.json):
             --conns N [--hot-workers N] [--shards N] [--idle-settle SECS]
             [--requests N] [--seed S] [--out BENCH_4.json]
             reload mode (in-process server, hot reloads under load -> BENCH_5.json):
             --reload-bench N [--workers N] [--shards N] [--gap-ms MS]
             [--cooldown-ms MS] [--seed S] [--out BENCH_5.json]
  shootout   [--blocks N] [--rounds R] [--round-secs SECS] [--seed S] [--threads N]
             [--addr-pct P] [--ping-pct P] [--penalty SECS] [--out BENCH_6.json]
             [--metrics shootout-metrics.json] | --list-policies
  fullspace  [--bits N] [--base A.B.C.D] [--blocks N] [--year Y] [--seed S]
             [--vantage w|c|j|g] [--threads N] [--lazy-hosts CAP] [--quiescence SECS]
             [--probe-ns NS] [--chunk-bits N] [--out summary.json]
             [--event kind:tier:id:from:until[:scale]]  (e.g. degrade:access:0x0100:10:60:0.01,
             partition:core:64512:30:inf; tiers: access=/16 idx, core=ASN, spine=continent)
  simserve   [--clients N] [--queries N] [--cell-bits B] [--seed S]
             [--regime steady|covid_step|diurnal_drift] [--partition]
             [--interval-us U] [--threads N] [--policy NAME]
             [--out summary.json]
             (oracle server + N closed-loop clients inside the netsim;
             summary is byte-identical across --threads and repeat runs)
  chaos      [--snapshot snap.bwts | --survey survey.bwss] [--seed S]
             [--profile chaos|split|off] [--workers N] [--requests N]
             [--shards N] [--metrics chaos-metrics.json]

exit codes: 0 ok | 1 runtime failure | 2 usage/config | 3 file I/O | 4 corrupt snapshot";

/// One subcommand: its name, every flag it (or a helper it calls) reads
/// (space-separated), and its body.
struct Command {
    name: &'static str,
    flags: &'static str,
    run: fn(&Flags) -> Result<(), CliError>,
}

impl Command {
    fn reads(&self, flag: &str) -> bool {
        self.flags.split(' ').any(|f| f == flag)
    }
}

const COMMANDS: &[Command] = &[
    Command { name: "generate", flags: "blocks year seed out", run: cmd_generate },
    Command {
        name: "campaign",
        flags: "out threads scale blocks survey-blocks rounds scans seed metrics",
        run: cmd_campaign,
    },
    Command { name: "survey", flags: "plan rounds sample seed vantage out", run: cmd_survey },
    Command { name: "scan", flags: "plan duration seed vantage out", run: cmd_scan },
    Command { name: "census", flags: "plan count duration seed vantage out", run: cmd_census },
    Command { name: "analyze", flags: "survey csv", run: cmd_analyze },
    Command { name: "metrics", flags: "in", run: cmd_metrics },
    Command { name: "recommend", flags: "survey addr-pct ping-pct timeout", run: cmd_recommend },
    Command {
        name: "serve",
        flags: "snapshot survey prefix-len min-addrs bind port shards read-timeout policy \
                reload-from reload-poll save-snapshot metrics",
        run: cmd_serve,
    },
    Command { name: "query", flags: "host addr addr-pct ping-pct op", run: cmd_query },
    Command { name: "admin", flags: "op host kind base target out", run: cmd_admin },
    Command {
        name: "loadgen",
        flags: "host snapshot survey prefix-len min-addrs workers requests addr-pct ping-pct seed \
                report-rtts out conns hot-workers shards idle-settle reload-bench gap-ms \
                cooldown-ms",
        run: cmd_loadgen,
    },
    Command {
        name: "shootout",
        flags: "blocks rounds round-secs seed threads addr-pct ping-pct penalty out metrics \
                list-policies",
        run: cmd_shootout,
    },
    Command {
        name: "fullspace",
        flags: "bits base blocks year seed vantage threads lazy-hosts quiescence probe-ns \
                chunk-bits out event",
        run: cmd_fullspace,
    },
    Command {
        name: "simserve",
        flags: "clients queries cell-bits seed regime partition interval-us threads policy out",
        run: cmd_simserve,
    },
    Command {
        name: "chaos",
        flags: "snapshot survey prefix-len min-addrs seed profile workers requests shards metrics",
        run: cmd_chaos,
    },
];

/// Flags that are pure switches: present means `true`, no value token.
const SWITCH_FLAGS: &[&str] = &["list-policies", "report-rtts", "partition"];

/// Parsed `--name value` flags, restricted to the ones the command reads.
struct Flags {
    values: HashMap<String, String>,
    command: &'static Command,
}

impl Flags {
    /// Parse `args` for `command`. A flag the command does not read is a
    /// usage error, so a typo fails before any work instead of silently
    /// running with the default.
    fn parse(command: &'static Command, args: &[String]) -> Result<Flags, String> {
        let mut values = HashMap::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("expected a --flag, got `{flag}`"))?;
            if !command.reads(name) {
                return Err(format!("unknown flag --{name} for `{}`", command.name));
            }
            if SWITCH_FLAGS.contains(&name) {
                values.insert(name.to_string(), "true".to_string());
                continue;
            }
            let value = it.next().ok_or_else(|| format!("flag --{name} needs a value"))?;
            values.insert(name.to_string(), value.clone());
        }
        Ok(Flags { values, command })
    }

    fn str(&self, name: &str) -> Option<&str> {
        debug_assert!(self.command.reads(name), "--{name} is read but not in the command's table");
        self.values.get(name).map(String::as_str)
    }

    fn required(&self, name: &str) -> Result<&str, CliError> {
        self.str(name).ok_or_else(|| CliError::Usage(format!("missing required flag --{name}")))
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, CliError> {
        match self.str(name) {
            None => Ok(default),
            Some(v) => {
                v.parse().map_err(|_| CliError::Usage(format!("bad value for --{name}: `{v}`")))
            }
        }
    }
}

fn load_plan(flags: &Flags) -> Result<InternetPlan, CliError> {
    let path = flags.required("plan")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    persist::load(&text).map_err(|e| CliError::Corrupt(format!("parsing {path}: {e}")))
}

fn scenario_from(flags: &Flags, plan: InternetPlan) -> Result<Scenario, CliError> {
    let code = flags.str("vantage").unwrap_or("w");
    let v =
        code.chars().next().and_then(vantage).ok_or_else(|| {
            CliError::Usage(format!("unknown vantage `{code}` (use w, c, j or g)"))
        })?;
    let seed = flags.num("seed", 7u64)?;
    Ok(Scenario::from_plan(
        ScenarioCfg { year: plan.year, seed, total_blocks: 0, vantage: v },
        plan,
    ))
}

fn cmd_generate(flags: &Flags) -> Result<(), CliError> {
    let cfg = GenConfig {
        year: flags.num("year", 2015u16)?,
        seed: flags.num("seed", 7u64)?,
        total_blocks: flags.num("blocks", 1024u32)?,
    };
    let plan = InternetPlan::generate(&cfg);
    let out = flags.required("out")?;
    std::fs::write(out, persist::save(&plan)).map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "generated {}-block Internet for {} ({} ASes, {} addresses) -> {out}",
        plan.block_count(),
        plan.year,
        plan.registry.len(),
        fmt_count(plan.address_count())
    );
    Ok(())
}

/// Run the full shared campaign (two surveys + pipelines + the zmap scan
/// campaign) on a worker pool and write the datasets plus a summary
/// report. The written files — including the `--metrics` telemetry JSON —
/// are byte-identical for any `--threads` value: the fan-out is
/// deterministic (see `beware::netsim::exec`) and per-task metrics merge
/// in fixed task order.
fn cmd_campaign(flags: &Flags) -> Result<(), CliError> {
    let mut scale = match flags.str("scale").unwrap_or("small") {
        "small" => Scale::small(),
        "bench" => Scale::bench(),
        other => {
            return Err(CliError::Usage(format!("unknown scale `{other}` (use small or bench)")))
        }
    };
    scale.internet_blocks = flags.num("blocks", scale.internet_blocks)?;
    scale.survey_blocks = flags.num("survey-blocks", scale.survey_blocks)?;
    scale.survey_rounds = flags.num("rounds", scale.survey_rounds)?;
    scale.zmap_scans = flags.num("scans", scale.zmap_scans)?;
    scale.seed = flags.num("seed", scale.seed)?;
    let threads: usize = flags.num("threads", beware::netsim::default_threads())?;
    let out_dir = std::path::Path::new(flags.required("out")?);
    std::fs::create_dir_all(out_dir).map_err(|e| format!("creating {}: {e}", out_dir.display()))?;

    let metrics_path = flags.str("metrics");
    let t0 = std::time::Instant::now();
    let mut metrics = if metrics_path.is_some() { Registry::new() } else { Registry::disabled() };
    let ctx = ExperimentCtx::build_with_metrics(scale, threads, &mut metrics);

    for survey in [&ctx.survey_w, &ctx.survey_c] {
        let name = format!("survey_{}.bwss", survey.meta.vantage);
        let path = out_dir.join(&name);
        let file = File::create(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        let mut writer = StreamWriter::new(BufWriter::new(file)).map_err(|e| e.to_string())?;
        for r in &survey.records {
            beware::dataset::RecordSink::push(&mut writer, *r);
        }
        writer.finish().map_err(|e| e.to_string())?;
    }
    for (i, scan) in ctx.scans.iter().enumerate() {
        let path = out_dir.join(format!("scan_{i:02}.tsv"));
        let mut w = BufWriter::new(File::create(&path).map_err(|e| e.to_string())?);
        writeln!(w, "probed\tresponder\trtt_us").map_err(|e| e.to_string())?;
        for r in &scan.records {
            writeln!(w, "{}\t{}\t{}", r.probed, r.responder, r.rtt_us)
                .map_err(|e| e.to_string())?;
        }
        w.flush().map_err(|e| e.to_string())?;
    }

    // The report carries only simulation-derived numbers — nothing about
    // wall-clock or thread count — so it byte-compares across runs.
    let mut report = String::new();
    report.push_str(&format!(
        "campaign seed {} | {} blocks | {} survey blocks x {} rounds | {} scans\n\n",
        scale.seed,
        scale.internet_blocks,
        scale.survey_blocks,
        scale.survey_rounds,
        scale.zmap_scans,
    ));
    for (survey, pipe) in [(&ctx.survey_w, &ctx.pipeline_w), (&ctx.survey_c, &ctx.pipeline_c)] {
        let acc = pipe.accounting;
        report.push_str(&format!(
            "{}: {} probes, {:.2}% matched, {} unmatched responses\n  \
             survey-detected {}/{} | naive {}/{} | broadcast -{}/{} | dup -{}/{} | final {}/{}\n",
            survey.meta.display_name(),
            survey.stats.probes(),
            100.0 * survey.stats.response_rate(),
            survey.stats.unmatched,
            acc.survey_detected.packets,
            acc.survey_detected.addresses,
            acc.naive_matching.packets,
            acc.naive_matching.addresses,
            acc.broadcast_responses.packets,
            acc.broadcast_responses.addresses,
            acc.duplicate_responses.packets,
            acc.duplicate_responses.addresses,
            acc.survey_plus_delayed.packets,
            acc.survey_plus_delayed.addresses,
        ));
    }
    report.push('\n');
    if let Some(table) = TimeoutTable::compute(&ctx.combined_samples) {
        report.push_str(&table.render("minimum timeout (s): c% of pings from r% of addresses"));
    }
    report.push('\n');
    for (i, scan) in ctx.scans.iter().enumerate() {
        report.push_str(&format!(
            "scan {i:02} [{} {} {}]: {} responses from {} responders\n",
            scan.meta.label,
            scan.meta.day,
            scan.meta.begin,
            scan.response_count(),
            scan.responder_count(),
        ));
    }
    let report_path = out_dir.join("report.txt");
    std::fs::write(&report_path, report).map_err(|e| e.to_string())?;

    if let Some(path) = metrics_path {
        // No wall-clock here: walltime/ metrics are excluded from the
        // JSON export anyway, so the file stays deterministic.
        std::fs::write(path, metrics.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
        println!("telemetry -> {path} ({} metrics)", metrics.len());
    }

    println!(
        "campaign complete on {threads} thread(s) in {:?}: 2 surveys ({} + {} records), \
         {} scans -> {}",
        t0.elapsed(),
        ctx.survey_w.records.len(),
        ctx.survey_c.records.len(),
        ctx.scans.len(),
        out_dir.display(),
    );
    Ok(())
}

fn cmd_survey(flags: &Flags) -> Result<(), CliError> {
    let plan = load_plan(flags)?;
    let scenario = scenario_from(flags, plan)?;
    let all: Vec<u32> = scenario.plan.blocks().map(|(b, _)| b).collect();
    let sample: usize = flags.num("sample", all.len())?;
    let sample = sample.clamp(1, all.len());
    // Spread the sample across the plan — taking the head would bias it
    // toward whichever ASes the registry lists first.
    let stride = (all.len() / sample).max(1);
    let blocks: Vec<u32> = all.into_iter().step_by(stride).take(sample).collect();
    let cfg = SurveyCfg {
        blocks,
        rounds: flags.num("rounds", 40u32)?,
        seed: flags.num("seed", 7u64)?,
        ..Default::default()
    };
    let out_path = flags.required("out")?;
    let file = File::create(out_path).map_err(|e| format!("creating {out_path}: {e}"))?;
    let writer = StreamWriter::new(BufWriter::new(file)).map_err(|e| e.to_string())?;
    let mut world = scenario.build_world();
    let ((writer, stats), summary) = cfg.build(writer).run(&mut world);
    let inner = writer.finish().map_err(|e| e.to_string())?;
    inner.into_inner().map_err(|e| e.to_string())?.sync_all().map_err(|e| e.to_string())?;
    println!(
        "survey complete: {} probes, {:.1}% matched, {} unmatched responses, {} sim events -> {out_path}",
        fmt_count(stats.probes()),
        100.0 * stats.response_rate(),
        fmt_count(stats.unmatched),
        fmt_count(summary.events)
    );
    Ok(())
}

fn cmd_scan(flags: &Flags) -> Result<(), CliError> {
    let plan = load_plan(flags)?;
    let scenario = scenario_from(flags, plan)?;
    let cfg = ZmapCfg {
        blocks: scenario.plan.blocks().map(|(b, _)| b).collect(),
        duration_secs: flags.num("duration", 1800.0f64)?,
        seed: flags.num("seed", 7u64)?,
        ..Default::default()
    };
    let meta = ScanMeta { label: "cli scan".into(), day: "-".into(), begin: "-".into() };
    let mut world = scenario.build_world();
    let (scan, summary) = cfg.build(meta).run(&mut world);
    let out = flags.required("out")?;
    let mut w = BufWriter::new(File::create(out).map_err(|e| e.to_string())?);
    writeln!(w, "probed,responder,rtt_us").map_err(|e| e.to_string())?;
    for r in &scan.records {
        writeln!(
            w,
            "{},{},{}",
            std::net::Ipv4Addr::from(r.probed),
            std::net::Ipv4Addr::from(r.responder),
            r.rtt_us
        )
        .map_err(|e| e.to_string())?;
    }
    w.flush().map_err(|e| e.to_string())?;
    println!(
        "scan complete: {} probes, {} responses, {} responders -> {out}",
        fmt_count(summary.packets_sent),
        fmt_count(scan.response_count() as u64),
        fmt_count(scan.responder_count() as u64)
    );
    Ok(())
}

fn cmd_census(flags: &Flags) -> Result<(), CliError> {
    let plan = load_plan(flags)?;
    let scenario = scenario_from(flags, plan)?;
    let cfg = CensusCfg {
        blocks: scenario.plan.blocks().map(|(b, _)| b).collect(),
        duration_secs: flags.num("duration", 600.0f64)?,
        seed: flags.num("seed", 7u64)?,
        ..Default::default()
    };
    let mut world = scenario.build_world();
    let (result, _) = cfg.build().run(&mut world);
    let count: usize = flags.num("count", 64usize)?;
    let blocks = select_survey_blocks(&result, &[], count, flags.num("seed", 7u64)?);
    let out = flags.required("out")?;
    let mut text = String::new();
    for b in &blocks {
        text.push_str(&format!("{}/24\n", std::net::Ipv4Addr::from(b << 8)));
    }
    std::fs::write(out, text).map_err(|e| e.to_string())?;
    println!(
        "census: {:.0}% of {} blocks responsive; selected {} survey blocks -> {out}",
        100.0 * result.responsive_fraction(),
        result.responders.len(),
        blocks.len()
    );
    Ok(())
}

fn read_survey(flags: &Flags) -> Result<Vec<Record>, CliError> {
    let path = flags.required("survey")?;
    let file = File::open(path).map_err(|e| CliError::Io(format!("opening {path}: {e}")))?;
    let reader = StreamReader::new(BufReader::new(file)).map_err(|e| stream_err(path, e))?;
    reader.collect::<Result<Vec<Record>, _>>().map_err(|e| stream_err(path, e))
}

fn cmd_analyze(flags: &Flags) -> Result<(), CliError> {
    let records = read_survey(flags)?;
    let out = run_pipeline(&records, &PipelineCfg::default());
    let acc = out.accounting;
    println!("records: {}", fmt_count(records.len() as u64));
    println!(
        "survey-detected: {} packets / {} addresses",
        fmt_count(acc.survey_detected.packets),
        fmt_count(acc.survey_detected.addresses)
    );
    println!(
        "recovered delayed responses: {}",
        fmt_count(acc.naive_matching.packets - acc.survey_detected.packets)
    );
    println!(
        "filtered: {} broadcast responders, {} duplicate offenders",
        fmt_count(acc.broadcast_responses.addresses),
        fmt_count(acc.duplicate_responses.addresses)
    );
    let Some(table) = TimeoutTable::compute(&out.samples) else {
        return Err("no usable samples in survey".into());
    };
    println!("\n{}", table.render("minimum timeout (s): c% of pings from r% of addresses"));
    if let Some(csv) = flags.str("csv") {
        let p99: Vec<f64> = out.samples.values().filter_map(|s| s.percentile(99.0)).collect();
        let series = Series::new("p99_per_address", Cdf::new(p99).to_series(400));
        std::fs::write(csv, series_to_csv(&[series])).map_err(|e| e.to_string())?;
        println!("wrote per-address p99 CDF to {csv}");
    }
    Ok(())
}

/// Pretty-print a telemetry JSON file written by `campaign --metrics`.
fn cmd_metrics(flags: &Flags) -> Result<(), CliError> {
    let path = flags.required("in")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let reg = Registry::from_json(&text).map_err(|e| format!("parsing {path}: {e}"))?;
    print!("{}", reg.render_text());
    Ok(())
}

fn cmd_recommend(flags: &Flags) -> Result<(), CliError> {
    let records = read_survey(flags)?;
    let out = run_pipeline(&records, &PipelineCfg::default());
    let addr_pct: f64 = flags.num("addr-pct", 95.0)?;
    let ping_pct: f64 = flags.num("ping-pct", 95.0)?;
    let timeout: f64 = flags.num("timeout", 3.0)?;
    let rec = recommend::recommend_timeout(&out.samples, addr_pct, ping_pct)
        .ok_or("no usable samples in survey")?;
    println!(
        "to capture {ping_pct}% of pings from {addr_pct}% of addresses: wait {:.2} s \
         (evidence: {} addresses)",
        rec.timeout_secs, rec.addresses
    );
    let frac = recommend::addresses_with_false_loss_above(&out.samples, timeout, 0.05);
    println!(
        "a {timeout} s timeout would impose a false loss rate of ≥5% on {:.2}% of addresses",
        100.0 * frac
    );
    Ok(())
}

/// Parse a `--addr-pct`-style flag (percent, possibly fractional like
/// `99.9`) into the protocol's tenths-of-a-percent representation.
fn pct_tenths(flags: &Flags, name: &str, default: u16) -> Result<u16, CliError> {
    match flags.str(name) {
        None => Ok(default),
        Some(v) => {
            let pct: f64 = v.parse().map_err(|_| format!("bad value for --{name}: `{v}`"))?;
            let tenths = (pct * 10.0).round();
            if !(1.0..=1000.0).contains(&tenths) {
                return Err(CliError::Usage(format!("--{name} must be in (0, 100], got {v}")));
            }
            Ok(tenths as u16)
        }
    }
}

/// Load a snapshot from `--snapshot FILE`, or build one from
/// `--survey FILE` via the analysis pipeline.
fn load_or_build_snapshot(flags: &Flags) -> Result<beware::dataset::TimeoutSnapshot, CliError> {
    if let Some(path) = flags.str("snapshot") {
        let file = File::open(path).map_err(|e| CliError::Io(format!("opening {path}: {e}")))?;
        return beware::dataset::snapshot::read_snapshot(&mut BufReader::new(file))
            .map_err(|e| decode_err(path, e));
    }
    if flags.str("survey").is_none() {
        return Err(CliError::Usage("need --snapshot FILE or --survey FILE".into()));
    }
    let records = read_survey(flags)?;
    let out = run_pipeline(&records, &PipelineCfg::default());
    let cfg = SnapshotCfg {
        prefix_len: flags.num("prefix-len", 24u8)?,
        min_addresses: flags.num("min-addrs", 1usize)?,
        ..Default::default()
    };
    build_snapshot(&out.samples, &cfg).map_err(|e| CliError::Other(e.to_string()))
}

/// Built-in fixture snapshot: a small simulated campaign, so self-hosted
/// commands (`chaos`, `loadgen --conns`) work with no input files — the
/// oracle's content only has to be non-trivial and offline-recomputable.
fn builtin_snapshot() -> Result<beware::dataset::TimeoutSnapshot, CliError> {
    builtin_snapshot_gen(0)
}

/// Generation `gen` of the built-in snapshot: the same simulated
/// Internet surveyed with a different probe seed, so successive
/// generations share most prefixes but differ in their timeout cells —
/// exactly the shape a periodic re-survey produces, and what the
/// reload benchmark swaps between.
fn builtin_snapshot_gen(gen: u64) -> Result<beware::dataset::TimeoutSnapshot, CliError> {
    let sc = Scenario::new(ScenarioCfg {
        year: 2015,
        seed: 11,
        total_blocks: 48,
        vantage: vantage('w').expect("built-in vantage"),
    });
    let blocks: Vec<u32> = sc.plan.blocks().map(|(b, _)| b).take(12).collect();
    let cfg = SurveyCfg { blocks, rounds: 10, seed: 11 + 13 * gen, ..Default::default() };
    let mut world = sc.build_world();
    let ((records, _), _) = cfg.build(Vec::new()).run(&mut world);
    let samples = run_pipeline(&records, &PipelineCfg::default()).samples;
    build_snapshot(&samples, &SnapshotCfg::default()).map_err(|e| e.to_string().into())
}

fn parse_host(flags: &Flags) -> Result<SocketAddr, CliError> {
    let host = flags.str("host").unwrap_or("127.0.0.1:4615");
    host.parse().map_err(|_| CliError::Usage(format!("bad --host `{host}` (expected ADDR:PORT)")))
}

fn connect(flags: &Flags) -> Result<Client, CliError> {
    let addr = parse_host(flags)?;
    Client::connect_retry(addr, Duration::from_secs(5), Duration::from_secs(2))
        .map_err(|e| CliError::Other(format!("connecting to {addr}: {e}")))
}

/// Run the timeout-oracle daemon until a shutdown frame arrives.
fn cmd_serve(flags: &Flags) -> Result<(), CliError> {
    // Validate the server configuration before any expensive input work,
    // so flag mistakes surface as usage errors no matter what the
    // snapshot flags point at.
    let bind = flags.str("bind").unwrap_or("127.0.0.1");
    let port: u16 = flags.num("port", 4615u16)?;
    let metrics_path = flags.str("metrics");
    let mut builder = server::ServerCfg::builder()
        .shards(flags.num("shards", beware::netsim::default_threads())?)
        .idle_timeout(Duration::from_secs_f64(flags.num("read-timeout", 60.0f64)?))
        .metrics(metrics_path.is_some());
    let policy = match flags.str("policy") {
        None => None,
        Some(name) => Some(PolicyKind::from_name(name).ok_or_else(|| {
            let known: Vec<&str> = PolicyKind::ALL.iter().map(|k| k.name()).collect();
            CliError::Usage(format!("unknown --policy `{name}` (use {})", known.join(", ")))
        })?),
    };
    if let Some(kind) = policy {
        builder = builder.policy(kind);
    }
    if let Some(path) = flags.str("reload-from") {
        builder = builder.reload_from(path);
    }
    if let Some(secs) = flags.str("reload-poll") {
        let secs: f64 = secs
            .parse()
            .map_err(|_| CliError::Usage(format!("bad value for --reload-poll: `{secs}`")))?;
        builder = builder.reload_poll(Duration::from_secs_f64(secs));
    }
    let cfg = builder.build()?;

    // Policy mode answers from the online estimator, so the snapshot is
    // only the boot-time fallback — the built-in fixture will do when no
    // input was named.
    let snap =
        if cfg.policy.is_some() && flags.str("snapshot").is_none() && flags.str("survey").is_none()
        {
            builtin_snapshot()?
        } else {
            load_or_build_snapshot(flags)?
        };
    if let Some(path) = flags.str("save-snapshot") {
        let file = File::create(path).map_err(|e| format!("creating {path}: {e}"))?;
        let mut w = BufWriter::new(file);
        beware::dataset::snapshot::write_snapshot(&mut w, &snap)
            .and_then(|()| w.flush())
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("snapshot ({} prefixes) -> {path}", snap.entries.len());
    }
    let oracle = Arc::new(Oracle::from_snapshot(snap).map_err(|e| e.to_string())?);
    let shards = cfg.shards;
    let mode = match cfg.policy {
        Some(kind) => format!(", online policy {}", kind.name()),
        None => String::new(),
    };
    let handle = server::start(Arc::clone(&oracle), (bind, port), cfg)
        .map_err(|e| format!("binding {bind}:{port}: {e}"))?;
    println!(
        "oracle listening on {} ({} prefixes, {} shards{mode})",
        handle.local_addr(),
        oracle.entry_count(),
        shards,
    );
    // The port line is what scripts (and tests) parse — make sure it is
    // out before we block.
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    let metrics = handle.join();
    if let Some(path) = metrics_path {
        std::fs::write(path, metrics.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
        println!("telemetry -> {path} ({} metrics)", metrics.len());
    }
    println!("oracle stopped");
    Ok(())
}

/// One round-trip against a running oracle: a query (default), a stats
/// fetch, or a shutdown request.
fn cmd_query(flags: &Flags) -> Result<(), CliError> {
    let mut client = connect(flags)?;
    match flags.str("op").unwrap_or("query") {
        "query" => {
            let addr_text = flags.str("addr").unwrap_or("192.0.2.1");
            let addr: std::net::Ipv4Addr =
                addr_text.parse().map_err(|_| format!("bad --addr `{addr_text}`"))?;
            let r = pct_tenths(flags, "addr-pct", 950)?;
            let c = pct_tenths(flags, "ping-pct", 950)?;
            let ans = client.query(u32::from(addr), r, c).map_err(|e| e.to_string())?;
            let source = match ans.status {
                Status::Exact => {
                    format!("prefix {}/{}", std::net::Ipv4Addr::from(ans.prefix), ans.prefix_len)
                }
                Status::Fallback => "global fallback".into(),
            };
            println!(
                "{addr_text} at ({:.1}%, {:.1}%): wait {:.6} s ({source})",
                f64::from(r) / 10.0,
                f64::from(c) / 10.0,
                ans.timeout_secs,
            );
        }
        "stats" => {
            let s = client.stats().map_err(|e| e.to_string())?;
            println!(
                "queries {} | exact {} | fallback {}",
                s.queries, s.hits_exact, s.hits_fallback
            );
        }
        "shutdown" => {
            client.shutdown().map_err(|e| e.to_string())?;
            println!("server acknowledged shutdown");
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown --op `{other}` (use query, stats or shutdown)"
            )))
        }
    }
    Ok(())
}

/// Operational commands around hot snapshot reload: inspect the served
/// snapshot, trigger a reload over the wire, or build a `.bwtd` delta
/// offline.
fn cmd_admin(flags: &Flags) -> Result<(), CliError> {
    let read_snap = |path: &str| -> Result<beware::dataset::TimeoutSnapshot, CliError> {
        let file = File::open(path).map_err(|e| CliError::Io(format!("opening {path}: {e}")))?;
        beware::dataset::snapshot::read_snapshot(&mut BufReader::new(file))
            .map_err(|e| decode_err(path, e))
    };
    match flags.required("op")? {
        "info" => {
            let mut client = connect(flags)?;
            let info = client.snapshot_info().map_err(|e| e.to_string())?;
            println!(
                "snapshot version {} | {} prefixes | checksum {:016x}",
                info.version, info.entries, info.checksum
            );
        }
        "reload" => {
            let kind = match flags.str("kind").unwrap_or("full") {
                "full" => ReloadKind::Full,
                "delta" => ReloadKind::Delta,
                other => {
                    return Err(CliError::Usage(format!(
                        "unknown --kind `{other}` (use full or delta)"
                    )))
                }
            };
            let mut client = connect(flags)?;
            let info = client.reload(kind).map_err(|e| e.to_string())?;
            println!(
                "reloaded: version {} | {} prefixes | checksum {:016x}",
                info.version, info.entries, info.checksum
            );
        }
        "diff" => {
            let base = read_snap(flags.required("base")?)?;
            let target = read_snap(flags.required("target")?)?;
            let delta = beware::dataset::snapshot::diff_snapshot(&base, &target)
                .map_err(|e| CliError::Corrupt(format!("diffing snapshots: {e}")))?;
            let out = flags.required("out")?;
            let file =
                File::create(out).map_err(|e| CliError::Io(format!("creating {out}: {e}")))?;
            let mut w = BufWriter::new(file);
            beware::dataset::snapshot::write_delta(&mut w, &delta)
                .and_then(|()| w.flush())
                .map_err(|e| CliError::Io(format!("writing {out}: {e}")))?;
            println!(
                "delta {:016x} -> {:016x}: {} upserts, {} removals{} -> {out}",
                delta.base_checksum,
                delta.target_checksum,
                delta.upserts.len(),
                delta.removed.len(),
                if delta.new_fallback.is_some() { ", new fallback" } else { "" },
            );
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown --op `{other}` (use info, reload or diff)"
            )))
        }
    }
    Ok(())
}

/// Self-contained chaos run: serve a snapshot, put the seeded fault proxy
/// in front of it, hammer it with verifying clients, and report whether
/// the no-hang / no-wrong-answer contract held (see DESIGN.md §9).
///
/// Without `--snapshot`/`--survey` a small built-in simulated campaign
/// supplies the snapshot, so `beware chaos --seed 101` works out of the
/// box (and in CI).
fn cmd_chaos(flags: &Flags) -> Result<(), CliError> {
    let snap = if flags.str("snapshot").is_some() || flags.str("survey").is_some() {
        load_or_build_snapshot(flags)?
    } else {
        builtin_snapshot()?
    };
    let oracle = Arc::new(Oracle::from_snapshot(snap).map_err(|e| e.to_string())?);

    let seed: u64 = flags.num("seed", 101u64)?;
    let fault_cfg = match flags.str("profile").unwrap_or("chaos") {
        "chaos" => FaultCfg::chaos(seed),
        "split" => FaultCfg::split_only(seed),
        "off" => FaultCfg::disabled(seed),
        other => {
            return Err(CliError::Usage(format!(
                "unknown --profile `{other}` (use chaos, split or off)"
            )))
        }
    };
    let workers: usize = flags.num("workers", 3usize)?;
    let requests: u32 = flags.num("requests", 200u32)?;
    let metrics_path = flags.str("metrics");

    let cfg = server::ServerCfg::builder()
        .shards(flags.num("shards", 2usize)?)
        .idle_timeout(Duration::from_secs(30))
        .metrics(metrics_path.is_some())
        .build()?;
    let handle = server::start(Arc::clone(&oracle), "127.0.0.1:0", cfg)
        .map_err(|e| format!("binding the chaos target server: {e}"))?;
    let server_addr = handle.local_addr();
    let proxy = ChaosProxy::start(server_addr, fault_cfg)
        .map_err(|e| format!("starting the chaos proxy: {e}"))?;
    let proxy_addr = proxy.local_addr();
    println!(
        "chaos: oracle {server_addr} behind fault proxy {proxy_addr} \
         (seed {seed}, {workers} workers x {requests} requests)"
    );

    // Workers: every answered query is verified bit-for-bit against the
    // in-process oracle; every failure must be a typed ClientError; a
    // faulted connection is replaced. `(ok, typed errors, wrong answers)`
    // per worker.
    let mut joins = Vec::new();
    for w in 0..workers as u64 {
        let oracle = Arc::clone(&oracle);
        joins.push(std::thread::spawn(move || {
            let mut rng = beware::runtime::rng::SplitMix64::new(seed ^ w.wrapping_mul(0x9e37_79b9));
            let connect = || {
                Client::connect_retry(proxy_addr, Duration::from_secs(2), Duration::from_secs(2))
            };
            let (mut ok, mut errs, mut wrong) = (0u64, 0u64, 0u64);
            let Ok(mut client) = connect() else { return (0, 1, 0) };
            for _ in 0..requests {
                let addr = rng.next_u64() as u32;
                match client.query(addr, 950, 950) {
                    Ok(ans) => {
                        let truth = oracle.lookup(addr, 950, 950).expect("950 supported");
                        if ans.timeout_bits == truth.timeout_bits && ans.status == truth.status {
                            ok += 1;
                        } else {
                            wrong += 1;
                        }
                    }
                    Err(
                        ClientError::Io(_)
                        | ClientError::Proto(_)
                        | ClientError::Server(_)
                        | ClientError::UnexpectedReply
                        | ClientError::Poisoned,
                    ) => {
                        errs += 1;
                        match connect() {
                            Ok(c) => client = c,
                            Err(_) => {
                                errs += 1;
                                break;
                            }
                        }
                    }
                }
            }
            (ok, errs, wrong)
        }));
    }
    let (mut ok, mut errs, mut wrong) = (0u64, 0u64, 0u64);
    for j in joins {
        let (o, e, x) = j.join().map_err(|_| "chaos worker panicked")?;
        ok += o;
        errs += e;
        wrong += x;
    }

    proxy.stop();
    let fault_metrics = proxy.join();
    let mut c = Client::connect_retry(server_addr, Duration::from_secs(5), Duration::from_secs(2))
        .map_err(|e| format!("reconnecting for shutdown: {e}"))?;
    c.shutdown().map_err(|e| format!("shutting the target server down: {e}"))?;
    let mut metrics = handle.join();

    let count = |name: &str| fault_metrics.counter(name).unwrap_or(0);
    println!(
        "injected: {} splits, {} delays, {} corruptions, {} truncations, {} closes, {} stalls",
        count("faults/injected/splits"),
        count("faults/injected/delays"),
        count("faults/injected/corruptions"),
        count("faults/injected/truncations"),
        count("faults/injected/closes"),
        count("faults/injected/stalls"),
    );
    println!("requests: {ok} correct, {errs} typed errors, {wrong} wrong answers");
    if let Some(path) = metrics_path {
        metrics.merge(&fault_metrics);
        std::fs::write(path, metrics.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
        println!("telemetry -> {path} ({} metrics)", metrics.len());
    }
    if wrong > 0 {
        return Err(format!("{wrong} wrong answer(s) under fault injection").into());
    }
    Ok(())
}

/// Address pool for load generation: prefixes from the snapshot when
/// given (so most queries exercise exact-match lookups), plus a
/// deterministic salt of fallback addresses; otherwise a pure
/// pseudorandom pool.
fn addr_pool_from(snap: Option<&beware::dataset::TimeoutSnapshot>, seed: u64) -> Vec<u32> {
    let mut pool = Vec::new();
    if let Some(snap) = snap {
        for e in &snap.entries {
            pool.push(e.prefix);
            pool.push(e.prefix | (!beware::dataset::snapshot::prefix_mask(e.len) & 0x7));
        }
    }
    let mut state = seed ^ 0x5eed_f00d;
    let extra = if pool.is_empty() { 256 } else { 16 };
    for _ in 0..extra {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        pool.push((state >> 32) as u32);
    }
    pool
}

/// Closed-loop load generator; writes the `BENCH_3.json` report. With
/// `--conns N` it switches to the mass-connection benchmark instead
/// (see [`cmd_loadgen_mass`]).
fn cmd_loadgen(flags: &Flags) -> Result<(), CliError> {
    if flags.str("reload-bench").is_some() {
        return cmd_loadgen_reload(flags);
    }
    if flags.str("conns").is_some() {
        return cmd_loadgen_mass(flags);
    }
    let addr = parse_host(flags)?;
    let seed: u64 = flags.num("seed", 0xbe0a_2e11u64)?;
    let snap =
        if flags.str("snapshot").is_some() { Some(load_or_build_snapshot(flags)?) } else { None };
    let cfg = loadgen::LoadCfg {
        workers: flags.num("workers", 4usize)?,
        requests_per_worker: flags.num("requests", 1000usize)?,
        addr_pool: addr_pool_from(snap.as_ref(), seed),
        addr_pct_tenths: pct_tenths(flags, "addr-pct", 950)?,
        ping_pct_tenths: pct_tenths(flags, "ping-pct", 950)?,
        seed,
        report_rtts: flags.num("report-rtts", false)?,
    };
    let report = loadgen::run(addr, &cfg)?;
    println!("{}", report.render());
    let out = flags.str("out").unwrap_or("BENCH_3.json");
    std::fs::write(out, report.to_json()).map_err(|e| format!("writing {out}: {e}"))?;
    println!("report -> {out}");
    Ok(())
}

/// Mass-connection benchmark (`loadgen --conns N`): start an in-process
/// oracle server, then sweep idle-connection pools up to `N` — at each
/// scale hold the pool open, sample process CPU over a quiet window, and
/// drive a hot closed-loop subset — writing `BENCH_4.json`. In-process
/// is what makes the CPU numbers honest: `CLOCK_PROCESS_CPUTIME_ID`
/// covers the server's shards, so near-zero idle CPU at 10k connections
/// demonstrates the readiness-driven serve path (a spin-polling server
/// burns CPU proportional to connections whether or not they speak).
fn cmd_loadgen_mass(flags: &Flags) -> Result<(), CliError> {
    let conns: usize = flags.num("conns", 1000usize)?;
    if conns == 0 {
        return Err("--conns must be >= 1".into());
    }
    let seed: u64 = flags.num("seed", 0xbe0a_2e11u64)?;
    let snap = if flags.str("snapshot").is_some() || flags.str("survey").is_some() {
        load_or_build_snapshot(flags)?
    } else {
        builtin_snapshot()?
    };
    let pool = addr_pool_from(Some(&snap), seed);
    let oracle = Arc::new(Oracle::from_snapshot(snap).map_err(|e| e.to_string())?);

    let shards: usize = flags.num("shards", beware::netsim::default_threads())?;
    // The idle pool must survive the whole sweep: eviction here would
    // measure the server closing connections, not holding them.
    let cfg = server::ServerCfg::builder()
        .shards(shards)
        .idle_timeout(Duration::from_secs(600))
        .metrics(false)
        .build()?;
    let handle = server::start(oracle, "127.0.0.1:0", cfg)
        .map_err(|e| format!("starting the in-process oracle: {e}"))?;
    let addr = handle.local_addr();
    println!("mass benchmark: in-process oracle on {addr} ({shards} shards)");

    // Three scales up to the requested count (fewer when they collapse),
    // so one invocation records how cost moves with connection count.
    let floor = conns.min(100);
    let mut scales = vec![(conns / 10).clamp(floor, conns), (conns / 2).clamp(floor, conns), conns];
    scales.sort_unstable();
    scales.dedup();

    let idle_settle = Duration::from_secs_f64(flags.num("idle-settle", 0.5f64)?);
    let mut runs = Vec::new();
    for &n in &scales {
        let mcfg = loadgen::MassCfg {
            load: loadgen::LoadCfg {
                workers: flags.num("hot-workers", 4usize)?,
                requests_per_worker: flags.num("requests", 1000usize)?,
                addr_pool: pool.clone(),
                addr_pct_tenths: pct_tenths(flags, "addr-pct", 950)?,
                ping_pct_tenths: pct_tenths(flags, "ping-pct", 950)?,
                seed,
                report_rtts: false,
            },
            conns: n,
            idle_settle,
            shards,
        };
        let report = loadgen::run_mass(addr, &mcfg)?;
        println!("{}", report.render());
        runs.push(report);
    }

    handle.shutdown();
    let _ = handle.join();
    let out = flags.str("out").unwrap_or("BENCH_4.json");
    std::fs::write(out, loadgen::mass_sweep_json(&runs))
        .map_err(|e| format!("writing {out}: {e}"))?;
    println!("report -> {out}");
    Ok(())
}

/// Reload-under-load benchmark (`loadgen --reload-bench N`): start an
/// in-process oracle server with a reload source file, hammer it with
/// verifying workers, and hot-swap the snapshot `N` times mid-load —
/// alternating full (`.bwts`) and delta (`.bwtd`) reloads — writing
/// `BENCH_5.json`. Every answer is checked bit-for-bit against the set
/// of snapshot generations, so a nonzero `wrong_answers` means a torn
/// read escaped the epoch swap; the run fails on any wrong answer or
/// reload failure.
fn cmd_loadgen_reload(flags: &Flags) -> Result<(), CliError> {
    let reloads: usize = flags.num("reload-bench", 4usize)?;
    if reloads == 0 {
        return Err(CliError::Usage("--reload-bench must be >= 1".into()));
    }
    let seed: u64 = flags.num("seed", 0xbe0a_2e11u64)?;
    let shards: usize = flags.num("shards", 2usize)?;

    // One snapshot generation per reload, plus the one served at boot.
    let mut snaps = Vec::with_capacity(reloads + 1);
    for g in 0..=reloads as u64 {
        snaps.push(builtin_snapshot_gen(g)?);
    }
    let truth = snaps
        .iter()
        .map(|s| Oracle::from_snapshot(s.clone()).map_err(|e| CliError::Other(e.to_string())))
        .collect::<Result<Vec<Oracle>, CliError>>()?;

    // The reload source lives in the temp dir; full and delta files are
    // both written there and the server is pointed at whichever the next
    // reload should pick up.
    let source = std::env::temp_dir().join(format!("beware-reload-{}.snap", std::process::id()));
    let write_file = |bytes: Vec<u8>| -> Result<(), String> {
        std::fs::write(&source, bytes).map_err(|e| format!("writing {}: {e}", source.display()))
    };
    let full_bytes = |snap: &beware::dataset::TimeoutSnapshot| -> Result<Vec<u8>, String> {
        let mut buf = Vec::new();
        beware::dataset::snapshot::write_snapshot(&mut buf, snap).map_err(|e| e.to_string())?;
        Ok(buf)
    };

    let cfg = server::ServerCfg::builder()
        .shards(shards)
        .idle_timeout(Duration::from_secs(60))
        .metrics(true)
        .reload_from(&source)
        .build()?;
    let oracle = Oracle::from_snapshot(snaps[0].clone()).map_err(|e| e.to_string())?;
    let handle = server::start(oracle, "127.0.0.1:0", cfg)
        .map_err(|e| format!("starting the in-process oracle: {e}"))?;
    let addr = handle.local_addr();
    println!(
        "reload benchmark: in-process oracle on {addr} ({shards} shards, \
         {reloads} reloads, source {})",
        source.display()
    );

    let mut admin = Client::connect_retry(addr, Duration::from_secs(5), Duration::from_secs(5))
        .map_err(|e| format!("connecting the admin client: {e}"))?;
    let rcfg = loadgen::ReloadCfg {
        load: loadgen::LoadCfg {
            workers: flags.num("workers", 4usize)?,
            addr_pool: addr_pool_from(Some(&snaps[0]), seed),
            addr_pct_tenths: pct_tenths(flags, "addr-pct", 950)?,
            ping_pct_tenths: pct_tenths(flags, "ping-pct", 950)?,
            seed,
            ..Default::default()
        },
        reloads,
        reload_gap: Duration::from_millis(flags.num("gap-ms", 100u64)?),
        cooldown: Duration::from_millis(flags.num("cooldown-ms", 100u64)?),
        truth,
    };
    let result = loadgen::run_reload(addr, &rcfg, |i| {
        // Alternate full and delta reloads so both paths are exercised;
        // either way the server must end up serving generation i+1.
        let target = &snaps[i + 1];
        let kind = if i % 2 == 0 {
            write_file(full_bytes(target)?)?;
            ReloadKind::Full
        } else {
            let delta = beware::dataset::snapshot::diff_snapshot(&snaps[i], target)
                .map_err(|e| e.to_string())?;
            let mut buf = Vec::new();
            beware::dataset::snapshot::write_delta(&mut buf, &delta).map_err(|e| e.to_string())?;
            write_file(buf)?;
            ReloadKind::Delta
        };
        let info = admin.reload(kind).map_err(|e| format!("reload {i}: {e}"))?;
        if info.checksum != beware::dataset::snapshot::snapshot_checksum(target) {
            return Err(format!(
                "reload {i} landed on checksum {:016x}, wanted {:016x}",
                info.checksum,
                beware::dataset::snapshot::snapshot_checksum(target)
            ));
        }
        Ok(())
    });
    handle.shutdown();
    let metrics = handle.join();
    let _ = std::fs::remove_file(&source);
    let report = result?;

    println!("{}", report.render());
    let failures = metrics.counter("oracle/reload_failures").unwrap_or(0);
    if failures > 0 {
        return Err(format!("{failures} reload failure(s) recorded by the server").into());
    }
    if report.wrong_answers > 0 {
        return Err(format!(
            "{} answer(s) matched no snapshot generation: torn read",
            report.wrong_answers
        )
        .into());
    }
    let out = flags.str("out").unwrap_or("BENCH_5.json");
    std::fs::write(out, report.to_json()).map_err(|e| format!("writing {out}: {e}"))?;
    println!("report -> {out}");
    Ok(())
}

/// Adaptive-RTO shootout (`beware shootout`): replay simulated probe
/// campaigns through every registered timeout policy — the three online
/// estimators plus the paper's static oracle — and score false-timeout
/// rate, tail waiting cost and estimator memory under regime shifts,
/// including a staleness sweep that finds the snapshot age where online
/// adaptation overtakes the stale oracle. Writes `BENCH_6.json`; every
/// number in it is simulation-derived, so the file is byte-identical
/// for any `--threads` value.
fn cmd_shootout(flags: &Flags) -> Result<(), CliError> {
    if flags.str("list-policies").is_some() {
        for k in PolicyKind::ALL {
            println!("{:<16} {}", k.name(), k.summary());
        }
        return Ok(());
    }
    let threads: usize = flags.num("threads", beware::netsim::default_threads())?;
    let mut cfg = ShootoutCfg::standard(
        flags.num("seed", 7u64)?,
        flags.num("blocks", 6u32)?,
        flags.num("rounds", 60u32)?,
        flags.num("round-secs", 60.0f64)?,
        threads,
    );
    cfg.addr_pct_tenths = pct_tenths(flags, "addr-pct", cfg.addr_pct_tenths)?;
    cfg.ping_pct_tenths = pct_tenths(flags, "ping-pct", cfg.ping_pct_tenths)?;
    cfg.penalty_secs = flags.num("penalty", cfg.penalty_secs)?;

    let metrics_path = flags.str("metrics");
    let mut metrics = if metrics_path.is_some() { Registry::new() } else { Registry::disabled() };
    let t0 = std::time::Instant::now();
    let build: shootout::SnapshotBuild<'_> = &|samples, addr_t, ping_t| {
        let cfg = SnapshotCfg {
            addr_pct_tenths: vec![addr_t],
            ping_pct_tenths: vec![ping_t],
            ..Default::default()
        };
        build_snapshot(samples, &cfg).map_err(|e| e.to_string())
    };
    let report = shootout::run(&cfg, build, &mut metrics)?;
    print!("{}", report.summary());

    let out = flags.str("out").unwrap_or("BENCH_6.json");
    std::fs::write(out, report.to_json()).map_err(|e| format!("writing {out}: {e}"))?;
    let sim_secs: f64 = report.scenarios.iter().map(|s| s.sim_span_secs).sum();
    println!(
        "shootout complete on {threads} thread(s): {:.0} simulated seconds in {:?} -> {out}",
        sim_secs,
        t0.elapsed()
    );
    if let Some(path) = metrics_path {
        std::fs::write(path, metrics.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
        println!("telemetry -> {path} ({} metrics)", metrics.len());
    }
    Ok(())
}

/// A `--event` spec: `kind:tier:id:from:until[:scale]`. `until` may be
/// `inf`; `id` takes decimal or `0x` hex.
fn parse_link_event(spec: &str) -> Result<LinkEvent, CliError> {
    let usage = || {
        CliError::Usage(format!(
            "bad --event `{spec}` (expected kind:tier:id:from:until[:scale], \
             e.g. degrade:access:0x0100:10:60:0.01 or partition:spine:3:30:inf)"
        ))
    };
    let parts: Vec<&str> = spec.split(':').collect();
    if parts.len() < 5 {
        return Err(usage());
    }
    let id = if let Some(hex) = parts[2].strip_prefix("0x") {
        u32::from_str_radix(hex, 16).map_err(|_| usage())?
    } else {
        parts[2].parse::<u32>().map_err(|_| usage())?
    };
    let link = match parts[1] {
        "access" => LinkId::Access(u16::try_from(id).map_err(|_| usage())?),
        "core" => LinkId::Core(id),
        "spine" => LinkId::Spine(u8::try_from(id).map_err(|_| usage())?),
        _ => return Err(usage()),
    };
    let secs = |s: &str| -> Result<f64, CliError> {
        if s == "inf" {
            Ok(f64::INFINITY)
        } else {
            s.parse().map_err(|_| usage())
        }
    };
    let kind = match (parts[0], parts.len()) {
        ("partition", 5) => LinkEventKind::Partition,
        ("degrade", 6) => {
            LinkEventKind::Degrade { capacity_scale: parts[5].parse().map_err(|_| usage())? }
        }
        _ => return Err(usage()),
    };
    Ok(LinkEvent { link, at_secs: secs(parts[3])?, until_secs: secs(parts[4])?, kind })
}

fn cmd_fullspace(flags: &Flags) -> Result<(), CliError> {
    let code = flags.str("vantage").unwrap_or("w");
    let v =
        code.chars().next().and_then(vantage).ok_or_else(|| {
            CliError::Usage(format!("unknown vantage `{code}` (use w, c, j or g)"))
        })?;
    let base: std::net::Ipv4Addr =
        flags.str("base").unwrap_or("0.0.0.0").parse().map_err(|_| {
            CliError::Usage("bad value for --base (expected a dotted quad)".to_string())
        })?;
    let space_bits = flags.num("bits", 30u32)?;
    let mut cfg = FullSpaceCfg {
        space_bits,
        base_addr: u32::from(base),
        total_blocks: flags.num("blocks", 65_536u32)?,
        year: flags.num("year", 2015u16)?,
        seed: flags.num("seed", 0x1511_0b5eu64)?,
        vantage: v,
        threads: flags.num("threads", beware::netsim::default_threads())?,
        host_cap: flags.num("lazy-hosts", 16_384usize)?,
        quiescence_secs: None,
        probe_interval_ns: flags.num("probe-ns", 10_000u64)?,
        chunk_bits: flags.num("chunk-bits", space_bits.min(24))?,
        link_events: Vec::new(),
    };
    if let Some(q) = flags.str("quiescence") {
        let secs: f64 =
            q.parse().map_err(|_| CliError::Usage(format!("bad value for --quiescence: `{q}`")))?;
        cfg.quiescence_secs = Some(secs);
    }
    if let Some(spec) = flags.str("event") {
        cfg.link_events.push(parse_link_event(spec)?);
    }
    // run() rejects inconsistent geometry (bits/chunk-bits/base overflow):
    // those are all flag problems.
    let report = beware::bench::fullspace::run(&cfg).map_err(CliError::Usage)?;
    print!("{}", report.summary_text());
    if let Some(out) = flags.str("out") {
        std::fs::write(out, report.summary_json())
            .map_err(|e| CliError::Io(format!("writing {out}: {e}")))?;
        println!("summary -> {out}");
    }
    Ok(())
}

/// `beware simserve`: the oracle server plus N closed-loop clients run
/// entirely inside the netsim — the serve engine over channel
/// transports, every timeout a cancellable wheel timer, faults as
/// topology events. The summary is a pure function of the campaign
/// identity (everything except `--threads`), so CI can `cmp` it across
/// thread counts and repeat runs.
fn cmd_simserve(flags: &Flags) -> Result<(), CliError> {
    let regime_name = flags.str("regime").unwrap_or("steady");
    let regime = beware::bench::simserve::Regime::from_name(regime_name).ok_or_else(|| {
        CliError::Usage(format!(
            "unknown --regime `{regime_name}` (use steady, covid_step or diurnal_drift)"
        ))
    })?;
    let policy = match flags.str("policy") {
        None => None,
        Some(name) => Some(PolicyKind::from_name(name).ok_or_else(|| {
            let known: Vec<&str> = PolicyKind::ALL.iter().map(|k| k.name()).collect();
            CliError::Usage(format!("unknown --policy `{name}` (use {})", known.join(", ")))
        })?),
    };
    let cfg = beware::bench::SimServeCfg {
        clients: flags.num("clients", 1_000_000u64)?,
        queries_per_client: flags.num("queries", 2u32)?,
        cell_bits: flags.num("cell-bits", 16u32)?,
        seed: flags.num("seed", 0x1511_0b5eu64)?,
        regime,
        partition: flags.str("partition").is_some(),
        interval_us: flags.num("interval-us", 1_000_000u64)?,
        threads: flags.num("threads", beware::netsim::default_threads())?,
        policy,
    };
    let report = beware::bench::simserve::run(&cfg).map_err(CliError::Usage)?;
    print!("{}", report.summary_text());
    if let Some(out) = flags.str("out") {
        std::fs::write(out, report.summary_json())
            .map_err(|e| CliError::Io(format!("writing {out}: {e}")))?;
        println!("summary -> {out}");
    }
    Ok(())
}
