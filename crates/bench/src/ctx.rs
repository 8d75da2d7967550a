//! Shared experiment context: the expensive data-collection steps, run
//! once and reused by every table/figure module.

use crate::scale::Scale;
use beware_asdb::AsDb;
use beware_core::pipeline::{merge_samples, run_pipeline_with, PipelineCfg, PipelineOutput};
use beware_core::LatencySamples;
use beware_dataset::{Record, ScanMeta, SurveyMeta, SurveyStats, ZmapScan};
use beware_netsim::exec::{default_threads, run_tasks};
use beware_netsim::scenario::{vantage, Scenario, ScenarioCfg};
use beware_probe::prelude::*;
use beware_runtime::rng::derive_seed;
use beware_telemetry::Registry;
use std::collections::BTreeMap;

/// The 17 scan slots of the paper's Table 3 (date label, weekday, begin).
pub const SCAN_SLOTS: [(&str, &str, &str); 17] = [
    ("Apr 17, 2015", "Fri", "02:44"),
    ("Apr 19, 2015", "Sun", "12:07"),
    ("Apr 23, 2015", "Thu", "12:07"),
    ("Apr 26, 2015", "Sun", "12:07"),
    ("Apr 30, 2015", "Thu", "12:08"),
    ("May 3, 2015", "Sun", "12:08"),
    ("May 17, 2015", "Sun", "12:09"),
    ("May 22, 2015", "Fri", "00:57"),
    ("May 24, 2015", "Sun", "12:09"),
    ("May 31, 2015", "Sun", "12:09"),
    ("Jun 4, 2015", "Thu", "12:10"),
    ("Jun 15, 2015", "Mon", "13:53"),
    ("Jun 21, 2015", "Sun", "12:11"),
    ("Jul 2, 2015", "Thu", "12:00"),
    ("Jul 5, 2015", "Sun", "12:00"),
    ("Jul 9, 2015", "Thu", "12:00"),
    ("Jul 12, 2015", "Sun", "12:00"),
];

/// Indices (into [`SCAN_SLOTS`] / `ExperimentCtx::scans`) of the three
/// scans Tables 4–6 analyze: May 22, Jun 21, Jul 9. When fewer scans were
/// run (small scale), the first three are used instead.
pub const TURTLE_SCAN_SLOTS: [usize; 3] = [7, 12, 15];

/// One completed survey.
#[derive(Debug, Clone)]
pub struct SurveyRun {
    /// Identity.
    pub meta: SurveyMeta,
    /// All records.
    pub records: Vec<Record>,
    /// Aggregate statistics.
    pub stats: SurveyStats,
}

/// The shared context.
#[derive(Debug)]
pub struct ExperimentCtx {
    /// Scale everything was run at.
    pub scale: Scale,
    /// Worker threads used for campaign fan-out (1 = serial). Outputs are
    /// byte-identical regardless of this value — see
    /// [`beware_netsim::exec`] for the determinism contract.
    pub threads: usize,
    /// The generated Internet (2015).
    pub scenario: Scenario,
    /// Attribution database.
    pub db: AsDb,
    /// The IT63w-like survey (vantage `w`).
    pub survey_w: SurveyRun,
    /// The IT63c-like survey (vantage `c`).
    pub survey_c: SurveyRun,
    /// Pipeline output for survey `w`.
    pub pipeline_w: PipelineOutput,
    /// Pipeline output for survey `c`.
    pub pipeline_c: PipelineOutput,
    /// Filtered per-address samples of both surveys combined — the
    /// paper's Table 2 substrate.
    pub combined_samples: BTreeMap<u32, LatencySamples>,
    /// The zmap scan campaign, in [`SCAN_SLOTS`] order.
    pub scans: Vec<ZmapScan>,
}

/// One unit of the shared data-collection fan-out.
enum BuildJob {
    Survey(char),
    Scan(usize),
}

/// Its result.
enum BuildOut {
    Survey(Box<(SurveyRun, PipelineOutput)>),
    Scan(Box<ZmapScan>),
}

impl ExperimentCtx {
    /// Run the shared data collection at `scale` with the machine's
    /// available parallelism.
    pub fn build(scale: Scale) -> Self {
        Self::build_with_threads(scale, default_threads())
    }

    /// Run the shared data collection at `scale` on `threads` workers.
    /// Every task (each survey+pipeline, each scan slot) is independently
    /// seeded, so the result does not depend on `threads`.
    pub fn build_with_threads(scale: Scale, threads: usize) -> Self {
        Self::build_with_metrics(scale, threads, &mut Registry::disabled())
    }

    /// Like [`build_with_threads`](Self::build_with_threads), additionally
    /// collecting telemetry. Each fan-out task records into its own
    /// registry; the per-task registries are merged into `metrics` in
    /// fixed task order (surveys first, then scan slots ascending), so the
    /// merged result is byte-identical for any `threads` value.
    pub fn build_with_metrics(scale: Scale, threads: usize, metrics: &mut Registry) -> Self {
        let scenario = scenario_for(&scale, 2015, 'w');
        let scenario_c = scenario_for(&scale, 2015, 'c');
        let db = scenario.db();
        let enabled = metrics.enabled();

        let mut jobs = vec![BuildJob::Survey('w'), BuildJob::Survey('c')];
        jobs.extend((0..scale.zmap_scans).map(BuildJob::Scan));
        let outs = run_tasks(threads, jobs, |_, job| {
            let mut local = if enabled { Registry::new() } else { Registry::disabled() };
            let out = match job {
                BuildJob::Survey(v) => {
                    let (scenario, name) = match v {
                        'w' => (&scenario, "IT63w"),
                        _ => (&scenario_c, "IT63c"),
                    };
                    let run = run_survey_like_with(scenario, &scale, name, v, 0.0, &mut local);
                    let pipe = run_pipeline_with(&run.records, &PipelineCfg::paper(), &mut local);
                    BuildOut::Survey(Box::new((run, pipe)))
                }
                BuildJob::Scan(i) => {
                    BuildOut::Scan(Box::new(run_scan_slot_with(&scenario, &scale, i, &mut local)))
                }
            };
            (out, local)
        });

        let mut surveys = Vec::with_capacity(2);
        let mut scans = Vec::with_capacity(scale.zmap_scans);
        for (out, local) in outs {
            metrics.merge(&local);
            match out {
                BuildOut::Survey(b) => surveys.push(*b),
                BuildOut::Scan(s) => scans.push(*s),
            }
        }
        let (survey_c, pipeline_c) = surveys.pop().expect("c survey task");
        let (survey_w, pipeline_w) = surveys.pop().expect("w survey task");

        let combined_samples =
            merge_samples(vec![pipeline_w.samples.clone(), pipeline_c.samples.clone()]);

        ExperimentCtx {
            scale,
            threads,
            scenario,
            db,
            survey_w,
            survey_c,
            pipeline_w,
            pipeline_c,
            combined_samples,
            scans,
        }
    }

    /// The three scans Tables 4–6 analyze.
    pub fn turtle_scans(&self) -> Vec<&ZmapScan> {
        if self.scans.len() > *TURTLE_SCAN_SLOTS.iter().max().expect("non-empty") {
            TURTLE_SCAN_SLOTS.iter().map(|&i| &self.scans[i]).collect()
        } else {
            self.scans.iter().take(3).collect()
        }
    }

    /// Addresses whose filtered survey percentile exceeds `threshold`
    /// seconds at percentile `pct`, capped at the scale's target budget —
    /// the selection step for the targeted re-probing experiments.
    pub fn high_latency_addrs(&self, pct: f64, threshold: f64) -> Vec<u32> {
        let mut out: Vec<u32> = self
            .combined_samples
            .iter()
            .filter(|(_, s)| s.percentile(pct).is_some_and(|v| v > threshold))
            .map(|(&a, _)| a)
            .collect();
        out.truncate(self.scale.target_addrs);
        out
    }

    /// Run a set of scamper jobs against fresh instances of this
    /// context's world, fanned out in fixed-size chunks.
    ///
    /// The chunk size is a constant — never derived from the thread
    /// count — and each chunk runs in its own world under a seed derived
    /// from the chunk index, so the result is identical whether the
    /// chunks run serially or in parallel.
    pub fn run_scamper(&self, jobs: Vec<PingJob>, grace_secs: f64) -> Vec<JobResult> {
        const CHUNK: usize = 32;
        let base = derive_seed(self.scale.seed, 0x5ca3_9e44);
        let mut chunks: Vec<Vec<PingJob>> = Vec::new();
        let mut jobs = jobs;
        while !jobs.is_empty() {
            let rest = jobs.split_off(jobs.len().min(CHUNK));
            chunks.push(std::mem::replace(&mut jobs, rest));
        }
        let results = run_tasks(self.threads, chunks, |i, chunk| {
            let mut world = self.scenario.build_world();
            let cfg = ScamperCfg {
                prober_addr: 0xC0_00_02_07,
                seed: derive_seed(base, i as u64),
                grace_secs,
            };
            cfg.build(chunk).run(&mut world).0
        });
        results.into_iter().flatten().collect()
    }
}

/// Build the scenario for a year and vantage at this scale.
pub fn scenario_for(scale: &Scale, year: u16, vantage_code: char) -> Scenario {
    Scenario::new(ScenarioCfg {
        year,
        seed: scale.seed,
        total_blocks: scale.internet_blocks,
        vantage: vantage(vantage_code).expect("known vantage code"),
    })
}

/// Deterministic sample of the plan's blocks for the survey to probe.
/// Blocks are ranked by a per-block hash and the first `count` taken —
/// stride sampling is avoided because it aliases against any structure in
/// the plan's block order. Result is in ascending block order.
pub fn survey_block_sample(scenario: &Scenario, count: u32) -> Vec<u32> {
    let mut all: Vec<u32> = scenario.plan.blocks().map(|(b, _)| b).collect();
    if all.len() as u32 <= count {
        return all;
    }
    all.sort_by_key(|&b| derive_seed(scenario.cfg.seed ^ 0x5a17, u64::from(b)));
    all.truncate(count as usize);
    all.sort_unstable();
    all
}

/// Run one ISI-style survey over the scenario.
pub fn run_survey_like(
    scenario: &Scenario,
    scale: &Scale,
    name: &str,
    vantage_code: char,
    match_drop_prob: f64,
) -> SurveyRun {
    run_survey_like_with(
        scenario,
        scale,
        name,
        vantage_code,
        match_drop_prob,
        &mut Registry::disabled(),
    )
}

/// [`run_survey_like`] with telemetry: engine counters land under
/// `probe/survey/`, world/run counters under `netsim/`.
pub fn run_survey_like_with(
    scenario: &Scenario,
    scale: &Scale,
    name: &str,
    vantage_code: char,
    match_drop_prob: f64,
    metrics: &mut Registry,
) -> SurveyRun {
    let blocks = survey_block_sample(scenario, scale.survey_blocks);
    let cfg = SurveyCfg {
        blocks,
        rounds: scale.survey_rounds,
        match_drop_prob,
        seed: derive_seed(scale.seed, u64::from(vantage_code as u32)),
        ..Default::default()
    };
    let mut world = scenario.build_world();
    let ((records, stats), _) = cfg.build(Vec::new()).run_with(&mut world, metrics);
    SurveyRun {
        meta: SurveyMeta {
            name: name.into(),
            vantage: vantage_code,
            year: scenario.cfg.year,
            date_label: 20150117,
        },
        records,
        stats,
    }
}

/// Run one scan slot of the campaign.
fn run_scan_slot_with(
    scenario: &Scenario,
    scale: &Scale,
    slot: usize,
    metrics: &mut Registry,
) -> ZmapScan {
    let (label, day, begin) = SCAN_SLOTS[slot % SCAN_SLOTS.len()];
    let blocks: Vec<u32> = scenario.plan.blocks().map(|(b, _)| b).collect();
    let cfg = ZmapCfg {
        blocks,
        duration_secs: scale.zmap_duration_secs,
        cooldown_secs: 240.0,
        seed: derive_seed(scale.seed, 0x2a00 + slot as u64),
        ..Default::default()
    };
    let mut world = scenario.build_world();
    let meta = ScanMeta { label: label.into(), day: day.into(), begin: begin.into() };
    let (scan, _) = cfg.build(meta).run_with(&mut world, metrics);
    scan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_sample_is_sorted_subset() {
        let scenario = scenario_for(&Scale::small(), 2015, 'w');
        let sample = survey_block_sample(&scenario, 16);
        assert_eq!(sample.len(), 16);
        let all: Vec<u32> = scenario.plan.blocks().map(|(b, _)| b).collect();
        for b in &sample {
            assert!(all.contains(b));
        }
        assert!(sample.windows(2).all(|w| w[0] < w[1]), "ascending, deduped");
        // Deterministic.
        assert_eq!(sample, survey_block_sample(&scenario, 16));
    }

    #[test]
    fn sample_larger_than_plan_returns_all() {
        let scenario = scenario_for(&Scale::small(), 2015, 'w');
        let total = scenario.plan.block_count();
        let sample = survey_block_sample(&scenario, total + 100);
        assert_eq!(sample.len() as u32, total);
    }
}
