//! The five workloads behind one interface.
//!
//! A workload is set up from a seed (several times, so set-up time has a
//! median), then asked for fixed-size **repeats** of the same work; the
//! harness times each repeat from outside. The traced run additionally
//! asks it for its **ladder**: per-layer numbers over the same seeded
//! inputs.

mod simserve;
mod survey;
mod sweep;
mod tcp;

use crate::result::Rung;
use crate::trace::Tracer;

/// How much work a repeat does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark proper: repeats of 1.5–3 s on the reference box.
    Full,
    /// Tiny: every code path in well under a second, for tests.
    Smoke,
}

impl Scale {
    /// Parse the CLI spelling.
    pub fn from_name(name: &str) -> Option<Scale> {
        match name {
            "full" => Some(Scale::Full),
            "smoke" => Some(Scale::Smoke),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }
}

/// What one repeat did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Repeat {
    /// Operations completed and validated (the workload's `op`).
    pub ops: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: wrong answers, error frames, I/O errors,
    /// timeouts no scheduled link drop explains.
    pub failed: u64,
    /// Identity of the deterministic output (hash of `summary_json()`, or
    /// the snapshot checksum); must repeat exactly.
    pub digest: Option<u64>,
    /// Simulation events processed (sim workloads).
    pub sim_events: Option<u64>,
    /// Socket workload: per-window round-trip times, nanoseconds.
    pub window_rtt_ns: Vec<u64>,
}

/// Per-layer output of the traced run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ladder {
    /// `(per-layer metric name, value)`; metrics not listed read 0.
    pub layers: Vec<(&'static str, f64)>,
    /// Each rung's share of one operation, for the printed report.
    pub rungs: Vec<Rung>,
}

impl Ladder {
    /// Record a per-layer metric the spec names.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            crate::spec::PER_LAYER.iter().any(|d| d.name == name),
            "`{name}` is not in the spec"
        );
        self.layers.push((name, value));
    }

    /// Record a rung of the attribution sum.
    pub fn rung(&mut self, name: &str, ns_per_call: f64, calls_per_op: f64, ns_per_op: f64) {
        let share = ns_per_call * calls_per_op / ns_per_op;
        self.rungs.push(Rung { name: name.into(), ns_per_call, calls_per_op, share });
    }

    /// Share of an operation the rungs recorded so far leave unexplained.
    pub fn unattributed(&self) -> f64 {
        1.0 - self.rungs.iter().map(|r| r.share).sum::<f64>()
    }
}

/// One workload, set up and ready to repeat.
pub trait Workload {
    /// Threads doing work during a repeat.
    fn threads(&self) -> usize;

    /// Do one repeat of fixed work. Spans go to `t` (a disabled tracer in
    /// the untraced run).
    fn repeat(&mut self, t: &mut Tracer) -> Result<Repeat, String>;

    /// Check the outputs of the last repeat beyond what `failed` counts;
    /// runs outside the timed region.
    fn verify(&self) -> Result<(), String>;

    /// Per-layer numbers for the traced run. `cpu_ns_per_op` is the
    /// untraced reference the rungs are summed against.
    fn ladder(&mut self, t: &mut Tracer, cpu_ns_per_op: f64) -> Result<Ladder, String>;
}

/// Set up workload `name` from `seed`.
pub fn set_up(name: &str, seed: u64, scale: Scale) -> Result<Box<dyn Workload>, String> {
    match name {
        "survey_analyze" => Ok(Box::new(survey::SurveyAnalyze::set_up(seed, scale))),
        "sweep_dense" => Ok(Box::new(sweep::SweepDense::set_up(seed, scale))),
        "simserve_query" => Ok(Box::new(simserve::SimServe::set_up(seed, scale, None))),
        "simserve_report" => Ok(Box::new(simserve::SimServe::set_up(
            seed,
            scale,
            Some(beware_policy::PolicyKind::CodelQuantile),
        ))),
        "tcp_pipeline" => Ok(Box::new(tcp::TcpPipeline::set_up(seed, scale)?)),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// FNV-1a over `bytes`: the `sim_digest` of a deterministic summary.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}
