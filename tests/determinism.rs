//! Reproducibility guarantees: the same seed must produce byte-identical
//! datasets through the entire stack, and different seeds must not.

use beware::analysis::pipeline::{run_pipeline, CountRow, PipelineCfg, PipelineOutput};
use beware::dataset::{binfmt, ScanMeta};
use beware::netsim::scenario::{Scenario, ScenarioCfg, VANTAGES};
use beware::probe::prelude::*;

fn scenario(seed: u64) -> Scenario {
    Scenario::new(ScenarioCfg { year: 2015, seed, total_blocks: 48, vantage: VANTAGES[0] })
}

fn survey_records(seed: u64) -> Vec<beware::dataset::Record> {
    let sc = scenario(seed);
    let blocks: Vec<u32> = sc.plan.blocks().map(|(b, _)| b).take(12).collect();
    let cfg = SurveyCfg { blocks, rounds: 8, seed, ..Default::default() };
    let mut world = sc.build_world();
    cfg.build(Vec::new()).run(&mut world).0 .0
}

#[test]
fn same_seed_identical_survey_bytes() {
    let a = survey_records(7);
    let b = survey_records(7);
    assert_eq!(a, b);
    let mut ba = Vec::new();
    let mut bb = Vec::new();
    binfmt::write_records(&mut ba, &a).unwrap();
    binfmt::write_records(&mut bb, &b).unwrap();
    assert_eq!(ba, bb, "binary serialization must be byte-identical");
}

#[test]
fn different_seed_different_survey() {
    let a = survey_records(7);
    let b = survey_records(8);
    assert_ne!(a, b);
}

#[test]
fn survey_binary_roundtrip_preserves_pipeline_output() {
    let records = survey_records(11);
    let mut bytes = Vec::new();
    binfmt::write_records(&mut bytes, &records).unwrap();
    let restored = binfmt::read_records(&mut &bytes[..]).unwrap();
    assert_eq!(records, restored);
    let a = run_pipeline(&records, &PipelineCfg::default());
    let b = run_pipeline(&restored, &PipelineCfg::default());
    assert_eq!(a.accounting, b.accounting);
    assert_eq!(a.samples, b.samples);
}

#[test]
fn same_seed_identical_zmap_scan() {
    let run = |seed| {
        let sc = scenario(5);
        let blocks: Vec<u32> = sc.plan.blocks().map(|(b, _)| b).collect();
        let cfg = ZmapCfg {
            blocks,
            duration_secs: 120.0,
            cooldown_secs: 60.0,
            seed,
            ..Default::default()
        };
        let meta = ScanMeta { label: "d".into(), day: "Mon".into(), begin: "00:00".into() };
        let mut world = sc.build_world();
        cfg.build(meta).run(&mut world).0
    };
    assert_eq!(run(3).records, run(3).records);
    assert_ne!(run(3).records, run(4).records);
}

#[test]
fn text_and_binary_codecs_agree() {
    use beware::dataset::textfmt;
    let records = survey_records(13);
    let text = textfmt::to_text(&records);
    let from_text = textfmt::from_text(&text).unwrap();
    assert_eq!(records, from_text);
}

/// Every file a campaign writes, name → bytes.
fn dir_contents(dir: &std::path::Path) -> std::collections::BTreeMap<String, Vec<u8>> {
    let mut out = std::collections::BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("output dir readable") {
        let entry = entry.expect("dir entry");
        let name = entry.file_name().into_string().expect("utf-8 file name");
        out.insert(name, std::fs::read(entry.path()).expect("file readable"));
    }
    out
}

fn run_campaign(out_dir: &std::path::Path, threads: u32) {
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_beware"))
        .args(["campaign", "--threads", &threads.to_string()])
        .args(["--blocks", "48", "--survey-blocks", "12", "--rounds", "12", "--scans", "4"])
        .arg("--out")
        .arg(out_dir)
        .status()
        .expect("campaign runs");
    assert!(status.success(), "campaign --threads {threads} failed");
}

/// The parallel-determinism contract, end to end: `--threads 4` must
/// produce byte-identical datasets and reports to `--threads 1` (the
/// serial reference path). See `beware::netsim::exec` for the contract
/// and DESIGN.md §6 for the seed-derivation scheme.
#[test]
fn parallel_matches_serial() {
    let base = std::env::temp_dir().join(format!("beware-determinism-{}", std::process::id()));
    let serial_dir = base.join("threads1");
    let parallel_dir = base.join("threads4");
    run_campaign(&serial_dir, 1);
    run_campaign(&parallel_dir, 4);

    let serial = dir_contents(&serial_dir);
    let parallel = dir_contents(&parallel_dir);
    assert!(
        serial.keys().any(|n| n.starts_with("scan_")),
        "campaign wrote no scans: {:?}",
        serial.keys().collect::<Vec<_>>()
    );
    assert!(serial.contains_key("survey_w.bwss") && serial.contains_key("report.txt"));
    assert_eq!(
        serial.keys().collect::<Vec<_>>(),
        parallel.keys().collect::<Vec<_>>(),
        "file sets differ"
    );
    for (name, bytes) in &serial {
        assert_eq!(
            Some(bytes),
            parallel.get(name),
            "{name} differs between --threads 1 and --threads 4"
        );
    }
    std::fs::remove_dir_all(&base).ok();
}

/// FNV-1a over a canonical byte image of everything the pipeline returns:
/// both sample partitions (sorted values as f64 bits), both filter sets,
/// Figure 5's maxima and every Table 1 row.
fn pipeline_digest(out: &PipelineOutput) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for part in [&out.samples, &out.rejected_samples] {
        eat(part.len() as u64);
        for (&addr, s) in part {
            eat(u64::from(addr));
            eat(s.len() as u64);
            s.values().iter().for_each(|v| eat(v.to_bits()));
        }
    }
    for set in [&out.broadcast_responders, &out.duplicate_offenders] {
        eat(set.len() as u64);
        set.iter().for_each(|&a| eat(u64::from(a)));
    }
    eat(out.max_responses.len() as u64);
    for (&addr, &max) in &out.max_responses {
        eat(u64::from(addr));
        eat(u64::from(max));
    }
    let acc = &out.accounting;
    for row in [
        acc.survey_detected,
        acc.naive_matching,
        acc.broadcast_responses,
        acc.duplicate_responses,
        acc.survey_plus_delayed,
    ] {
        eat(row.packets);
        eat(row.addresses);
    }
    h
}

/// The whole `PipelineOutput` of two seeded surveys, pinned. Any change
/// to matching, either filter, sample accumulation or Table 1's
/// accounting moves a digest; a change meant to be output-preserving
/// must leave both in place.
#[test]
fn pipeline_output_is_pinned() {
    let run = |seed: u64, blocks: usize, rounds: u32| {
        let sc = scenario(seed);
        let blocks: Vec<u32> = sc.plan.blocks().map(|(b, _)| b).take(blocks).collect();
        let cfg = SurveyCfg { blocks, rounds, seed, ..Default::default() };
        let mut world = sc.build_world();
        let records = cfg.build(Vec::new()).run(&mut world).0 .0;
        run_pipeline(&records, &PipelineCfg::paper())
    };
    let a = run(7, 48, 40);
    // Both filters fire here, so the pin covers their sets and rows.
    assert_eq!(a.accounting.broadcast_responses, CountRow { packets: 400, addresses: 10 });
    assert_eq!(a.accounting.duplicate_responses, CountRow { packets: 40, addresses: 1 });
    let b = run(1511, 24, 30);
    assert_eq!(pipeline_digest(&a), 0xf883_e109_52de_6a7b);
    assert_eq!(pipeline_digest(&b), 0xe8aa_4e73_5282_3cd3);
}

/// FNV-1a over a `simserve` campaign's deterministic summary and its
/// simulated event count.
fn simserve_digest(cfg: &beware::bench::simserve::SimServeCfg) -> u64 {
    let r = beware::bench::simserve::run(cfg).unwrap();
    assert_eq!(r.wrong, 0, "a served answer failed validation");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in r.summary_json().bytes().chain(r.sim_events.to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Three small in-sim serving campaigns, pinned: snapshot mode under the
/// partition, codel-quantile policy mode under the partition, and the
/// `covid_step` demand regime. Any change to the simulated clients'
/// protocol handling, timers or counters moves a digest; a refactor of
/// the client must leave all three in place, along with the simulated
/// event order they hash.
#[test]
fn simserve_campaigns_are_pinned() {
    use beware::bench::simserve::{Regime, SimServeCfg};
    use beware::policy::PolicyKind;
    let small = SimServeCfg {
        clients: 3_000,
        queries_per_client: 3,
        cell_bits: 10,
        threads: 1,
        ..SimServeCfg::default()
    };
    let snapshot = SimServeCfg { seed: 7, partition: true, ..small.clone() };
    let policy =
        SimServeCfg { partition: true, policy: Some(PolicyKind::CodelQuantile), ..small.clone() };
    let covid = SimServeCfg { regime: Regime::CovidStep, ..small };
    assert_eq!(simserve_digest(&snapshot), 0xad71_93d5_cb10_f3ce);
    assert_eq!(simserve_digest(&policy), 0xae20_7087_b92a_dc79);
    assert_eq!(simserve_digest(&covid), 0x5931_15bc_1e3b_c47c);
}
