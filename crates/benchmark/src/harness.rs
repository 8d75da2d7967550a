//! The run shape every workload shares.
//!
//! **Untraced run** (end-to-end numbers): set up several times and keep
//! the median as `setup_s`, one warm-up repeat, then timed repeats of
//! fixed work until the measuring time is used up (at least three). Every
//! timing metric is the median over the repeats, reported with its
//! quartiles, extremes and raw values: single repeats on a shared
//! two-core VM spread by ±12 %, their medians of five by about 1 %.
//!
//! **Traced run** (per-layer numbers): warm up, then alternate untraced
//! and traced repeats to price the tracing itself, then the workload's
//! ladder over the same seeded inputs. End-to-end numbers are never taken
//! from a traced run.

use crate::env::{peak_rss_mb, Environment};
use crate::result::{MetricValue, RunResult};
use crate::spec::{self, MetricDef};
use crate::stats::{tail_percentile, Summary};
use crate::trace::Tracer;
use crate::workloads::{self, Repeat, Scale, Workload};
use beware_runtime::process_cpu_time;
use std::time::{Duration, Instant};

/// Set-ups timed per run: at least this many ...
const MIN_SETUPS: usize = 3;
/// ... and more while they are cheap: up to this many, or until this
/// share of the measuring time is spent.
const MAX_SETUPS: usize = 101;
const SETUP_SHARE: f64 = 0.08;
/// Fewest timed repeats a median is taken over.
const MIN_REPEATS: usize = 3;
/// Most timed repeats, whatever `--seconds` says.
const MAX_REPEATS: usize = 64;
/// Untraced/traced repeat pairs the traced run prices tracing with.
const OVERHEAD_PAIRS: usize = 2;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunCfg {
    /// Workload name.
    pub workload: String,
    /// Seed for input generation.
    pub seed: u64,
    /// How long the timed repeats measure for.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub traced: bool,
    /// Work per repeat.
    pub scale: Scale,
}

/// One timed repeat.
struct Timed {
    repeat: Repeat,
    wall: Duration,
    cpu: Duration,
}

impl Timed {
    fn ops_per_s(&self) -> f64 {
        self.repeat.ops as f64 / self.wall.as_secs_f64()
    }

    fn cpu_ns_per_op(&self) -> f64 {
        self.cpu.as_nanos() as f64 / self.repeat.ops as f64
    }
}

fn timed_repeat(w: &mut dyn Workload, t: &mut Tracer) -> Result<Timed, String> {
    let cpu_clock = || process_cpu_time().ok_or("this platform has no process CPU clock");
    let cpu_before = cpu_clock()?;
    let started = Instant::now();
    let repeat = w.repeat(t)?;
    let wall = started.elapsed();
    let cpu = cpu_clock()?.saturating_sub(cpu_before);
    w.verify()?;
    if repeat.ops == 0 {
        return Err("a repeat completed no operations".into());
    }
    Ok(Timed { repeat, wall, cpu })
}

/// Set the workload up repeatedly; returns the last instance and every
/// set-up's duration.
fn timed_set_up(cfg: &RunCfg) -> Result<(Box<dyn Workload>, Vec<f64>), String> {
    let mut secs = Vec::new();
    let budget = Duration::from_secs_f64(cfg.seconds * SETUP_SHARE);
    let began = Instant::now();
    loop {
        let started = Instant::now();
        let w = workloads::set_up(&cfg.workload, cfg.seed, cfg.scale)?;
        secs.push(started.elapsed().as_secs_f64());
        let enough =
            secs.len() >= MIN_SETUPS && (secs.len() >= MAX_SETUPS || began.elapsed() >= budget);
        if enough {
            return Ok((w, secs));
        }
        // Tear down (the socket workload stops its server) before the next.
        drop(w);
    }
}

fn metric(def: &MetricDef, summary: Summary) -> MetricValue {
    MetricValue { name: def.name.into(), unit: def.unit.into(), summary }
}

fn e2e(name: &str, summary: Summary) -> MetricValue {
    metric(spec::end_to_end(name).expect("metric is in the spec"), summary)
}

/// The metrics defined on some workloads only, from one or more repeats.
fn partial_metrics(repeats: &[&Repeat]) -> Result<Vec<MetricValue>, String> {
    let mut out = Vec::new();
    let per_op: Vec<f64> =
        repeats.iter().filter_map(|r| r.sim_events.map(|e| e as f64 / r.ops as f64)).collect();
    if let Some(&first) = per_op.first() {
        // Deterministic: reported once, checked on every repeat.
        if per_op.iter().any(|&v| v != first) {
            return Err(format!("sim_events_per_op differs between repeats: {per_op:?}"));
        }
        out.push(e2e("sim_events_per_op", Summary::single(first)));
    }
    if repeats.iter().any(|r| !r.window_rtt_ns.is_empty()) {
        let (mut p50, mut p99) = (Vec::new(), Vec::new());
        for r in repeats {
            let mut rtts = r.window_rtt_ns.clone();
            rtts.sort_unstable();
            let us = |q| {
                tail_percentile(&rtts, q)
                    .map(|ns| ns as f64 / 1_000.0)
                    .ok_or_else(|| format!("{} windows are too few for p{}", rtts.len(), q * 100.0))
            };
            p50.push(us(0.5)?);
            p99.push(us(0.99)?);
        }
        out.push(e2e("window_rtt_p50_us", Summary::of(p50)));
        out.push(e2e("window_rtt_p99_us", Summary::of(p99)));
    }
    Ok(out)
}

/// Digest shared by all repeats, or an error naming the mismatch.
fn stable_digest(repeats: &[&Repeat]) -> Result<Option<u64>, String> {
    let first = repeats.first().and_then(|r| r.digest);
    match repeats.iter().find(|r| r.digest != first) {
        Some(r) => {
            Err(format!("sim_digest differs between repeats: {first:x?} vs {:x?}", r.digest))
        }
        None => Ok(first),
    }
}

/// Run one workload. Returns the result and, for a traced run, the
/// tracer holding its spans.
pub fn run(cfg: &RunCfg) -> Result<(RunResult, Tracer), String> {
    if spec::workload(&cfg.workload).is_none() {
        return Err(format!("unknown workload `{}`", cfg.workload));
    }
    let env = Environment::capture();
    let (mut w, setup_secs) = timed_set_up(cfg)?;
    let mut tracer = Tracer::new(&cfg.workload, false);
    // Warm-up: caches fill and lazy set-up finishes outside the timing.
    timed_repeat(w.as_mut(), &mut tracer)?;

    let mut result = RunResult {
        workload: cfg.workload.clone(),
        seed: cfg.seed,
        scale: cfg.scale.name().into(),
        traced: cfg.traced,
        threads: w.threads(),
        repeats: 0,
        setups: setup_secs.len(),
        correct: true,
        attempted: 0,
        failed: 0,
        sim_digest: None,
        env,
        metrics: Vec::new(),
        rungs: Vec::new(),
    };
    let timed = if cfg.traced {
        run_traced(w.as_mut(), &mut tracer, &mut result)?
    } else {
        run_untraced(w.as_mut(), &mut tracer, cfg.seconds, setup_secs, &mut result)?
    };
    let repeats: Vec<&Repeat> = timed.iter().map(|t| &t.repeat).collect();
    result.repeats = repeats.len();
    result.attempted = repeats.iter().map(|r| r.attempted).sum();
    result.failed = repeats.iter().map(|r| r.failed).sum();
    result.sim_digest = stable_digest(&repeats)?;
    result.correct = result.failed == 0;
    if !cfg.traced {
        let share = result.failed as f64 / result.attempted.max(1) as f64;
        result.metrics.push(e2e("failed_share", Summary::single(share)));
    }
    // Stop the workload's threads before anything is reported.
    drop(w);
    Ok((result, tracer))
}

fn run_untraced(
    w: &mut dyn Workload,
    off: &mut Tracer,
    seconds: f64,
    setup_secs: Vec<f64>,
    result: &mut RunResult,
) -> Result<Vec<Timed>, String> {
    let mut timed = Vec::new();
    let mut peak_rss = 0.0;
    let began = Instant::now();
    while timed.len() < MIN_REPEATS
        || (began.elapsed().as_secs_f64() < seconds && timed.len() < MAX_REPEATS)
    {
        timed.push(timed_repeat(w, off)?);
        // Read the high-water mark after a fixed amount of work: the heap
        // keeps creeping up over further repeats, and how many of those
        // fit into `seconds` depends on the speed being measured.
        if timed.len() == MIN_REPEATS {
            peak_rss = peak_rss_mb().ok_or("cannot read VmHWM")?;
        }
    }
    let repeats: Vec<&Repeat> = timed.iter().map(|t| &t.repeat).collect();
    result.metrics = vec![
        e2e("setup_s", Summary::of(setup_secs)),
        e2e("ops_per_s", Summary::of(timed.iter().map(Timed::ops_per_s).collect())),
        e2e("cpu_ns_per_op", Summary::of(timed.iter().map(Timed::cpu_ns_per_op).collect())),
        e2e("peak_rss_mb", Summary::single(peak_rss)),
    ];
    result.metrics.extend(partial_metrics(&repeats)?);
    Ok(timed)
}

fn run_traced(
    w: &mut dyn Workload,
    tracer: &mut Tracer,
    result: &mut RunResult,
) -> Result<Vec<Timed>, String> {
    // Price the tracing: the same repeat with spans off and on,
    // alternating, best of each (the floor is the least disturbed run).
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    for pair in 0..OVERHEAD_PAIRS {
        tracer.set_enabled(false);
        untraced.push(timed_repeat(w, tracer)?);
        tracer.set_enabled(true);
        tracer.set_repeat(pair as u32);
        // The ladder relies on this order: a traced repeat ran last.
        traced.push(timed_repeat(w, tracer)?);
    }
    let floor =
        |runs: &[Timed]| runs.iter().map(|t| t.wall.as_secs_f64()).fold(f64::INFINITY, f64::min);
    let overhead = (floor(&traced) - floor(&untraced)) / floor(&untraced);
    let cpu_ns_per_op = untraced.iter().map(Timed::cpu_ns_per_op).fold(f64::INFINITY, f64::min);

    let ladder = w.ladder(tracer, cpu_ns_per_op)?;
    result.rungs = ladder.rungs;
    let reference: Vec<&Repeat> = untraced.iter().map(|t| &t.repeat).collect();
    let mut layers = ladder.layers;
    layers.push(("trace.overhead_share", overhead));
    // Every per-layer metric is reported; a layer the workload does not
    // exercise reads 0.
    result.metrics = spec::PER_LAYER
        .iter()
        .map(|def| {
            let value = layers.iter().find(|(name, _)| *name == def.name).map_or(0.0, |l| l.1);
            metric(def, Summary::single(value))
        })
        .collect();
    result.metrics.extend(partial_metrics(&reference)?);
    Ok(untraced)
}
