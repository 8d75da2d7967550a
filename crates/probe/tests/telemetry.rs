//! Recording telemetry must not change what a prober measures: for every
//! engine, `run` and `run_with` an enabled registry over identically
//! seeded worlds return identical outputs and run summaries.

use beware_dataset::ScanMeta;
use beware_netsim::scenario::{Scenario, ScenarioCfg};
use beware_probe::prelude::*;
use std::fmt::Debug;

fn scenario() -> Scenario {
    Scenario::new(ScenarioCfg { total_blocks: 48, ..ScenarioCfg::default() })
}

fn blocks(scenario: &Scenario) -> Vec<u32> {
    scenario.plan.blocks().map(|(b, _)| b).collect()
}

/// Eight interior addresses of every block: a mix of live hosts and
/// silent ones.
fn addrs(scenario: &Scenario) -> Vec<u32> {
    blocks(scenario).iter().flat_map(|&b| (1..255).step_by(32).map(move |o| (b << 8) | o)).collect()
}

/// Run `build()` twice, plain and instrumented, assert the two agree,
/// and return the output so the caller can check it is non-trivial.
fn assert_telemetry_invisible<P>(scenario: &Scenario, build: impl Fn() -> P) -> P::Output
where
    P: Prober,
    P::Output: PartialEq + Debug,
{
    let engine = build().engine();
    let plain = build().run(&mut scenario.build_world());
    let mut metrics = Registry::new();
    let recorded = build().run_with(&mut scenario.build_world(), &mut metrics);
    assert!(
        metrics.iter().any(|(name, _)| name.starts_with(&format!("probe/{engine}/"))),
        "{engine}: the instrumented run recorded no engine metrics"
    );
    assert_eq!(plain, recorded, "{engine}: telemetry changed the output");
    plain.0
}

#[test]
fn survey_output_ignores_telemetry() {
    let s = scenario();
    let (records, stats) = assert_telemetry_invisible(&s, || {
        SurveyCfg { blocks: blocks(&s)[..6].to_vec(), rounds: 3, ..Default::default() }
            .build(Vec::new())
    });
    assert!(stats.matched > 0 && records.len() as u64 >= stats.probes());
}

#[test]
fn zmap_output_ignores_telemetry() {
    let s = scenario();
    let scan = assert_telemetry_invisible(&s, || {
        let meta = ScanMeta { label: "t".into(), day: "Fri".into(), begin: "00:00".into() };
        ZmapCfg { blocks: blocks(&s), duration_secs: 60.0, ..Default::default() }.build(meta)
    });
    assert!(!scan.records.is_empty());
}

#[test]
fn census_output_ignores_telemetry() {
    let s = scenario();
    let census = assert_telemetry_invisible(&s, || {
        CensusCfg { blocks: blocks(&s), duration_secs: 60.0, ..Default::default() }.build()
    });
    assert!(census.responders.values().any(|&n| n > 0));
}

#[test]
fn scamper_output_ignores_telemetry() {
    let s = scenario();
    let results = assert_telemetry_invisible(&s, || {
        let jobs = addrs(&s)
            .into_iter()
            .enumerate()
            .map(|(i, a)| PingJob::train(a, PingProto::Icmp, 5, 1.0, i as f64))
            .collect();
        ScamperCfg { grace_secs: 30.0, ..Default::default() }.build(jobs)
    });
    assert!(results.iter().any(|r| !r.answered().is_empty()));
}

#[test]
fn adaptive_output_ignores_telemetry() {
    let s = scenario();
    let reports = assert_telemetry_invisible(&s, || {
        AdaptiveCfg { cycles: 3, ..Default::default() }.build(addrs(&s))
    });
    assert!(reports.iter().any(|r| r.outages < r.cycles), "no monitored address ever answered");
}
