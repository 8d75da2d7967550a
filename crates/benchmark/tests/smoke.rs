//! Every workload, tiny, untraced and traced: every named metric is
//! present and finite, outputs verify, and digests hold across seeds.

use beware_benchmark::harness::{run, RunCfg};
use beware_benchmark::result::RunResult;
use beware_benchmark::workloads::Scale;
use beware_benchmark::{report, spec};

fn smoke(workload: &str, seed: u64, traced: bool) -> RunResult {
    let cfg =
        RunCfg { workload: workload.into(), seed, seconds: 0.05, traced, scale: Scale::Smoke };
    let (result, tracer) = run(&cfg).unwrap_or_else(|e| panic!("{workload} seed {seed}: {e}"));
    assert_eq!(tracer.spans().is_empty(), !traced, "spans are recorded exactly when traced");
    result
}

/// Which of the partial end-to-end metrics a workload defines.
fn defines(workload: &str, metric: &str) -> bool {
    match metric {
        "sim_events_per_op" => workload != "tcp_pipeline",
        "window_rtt_p50_us" | "window_rtt_p99_us" => workload == "tcp_pipeline",
        _ => true,
    }
}

fn check_untraced(workload: &str, seed: u64) -> RunResult {
    let r = smoke(workload, seed, false);
    assert!(r.correct && r.failed == 0 && r.attempted > 0, "{workload}: {r:?}");
    assert!(r.repeats >= 3 && r.setups >= 3);
    for def in &spec::END_TO_END {
        match r.metric(def.name) {
            Some(m) => {
                assert!(defines(workload, def.name), "{workload} reports {}", def.name);
                assert_eq!(m.unit, def.unit);
                assert!(m.summary.raw.iter().all(|v| v.is_finite()), "{workload} {}", def.name);
            }
            None => assert!(!defines(workload, def.name), "{workload} lacks {}", def.name),
        }
    }
    for name in ["setup_s", "ops_per_s", "cpu_ns_per_op", "peak_rss_mb"] {
        assert!(r.metric(name).unwrap().value() > 0.0, "{workload} {name} must never read 0");
    }
    assert_eq!(r.metric("failed_share").unwrap().value(), 0.0);
    assert_eq!(r.sim_digest.is_some(), workload != "tcp_pipeline");
    assert!(report::contract_line(&r).starts_with("{\"correct\":true,"));
    r
}

fn check_traced(workload: &str, seed: u64, moved: &[&str]) {
    let r = smoke(workload, seed, true);
    assert!(r.correct, "{workload}");
    for def in &spec::PER_LAYER {
        let m = r.metric(def.name).unwrap_or_else(|| panic!("{workload} lacks {}", def.name));
        assert!(m.value().is_finite(), "{workload} {} = {}", def.name, m.value());
    }
    // The layers the workload exists to stress are measured, not zero.
    for name in moved {
        assert!(r.metric(name).unwrap().value() > 0.0, "{workload}: {name} reads 0");
    }
    assert!(!r.rungs.is_empty(), "{workload}: the traced run reports its rungs");
    assert!(r.rungs.iter().all(|g| g.share.is_finite() && g.ns_per_call.is_finite()));
}

fn check(workload: &str, moved: &[&str]) {
    let a = check_untraced(workload, 7);
    let b = check_untraced(workload, 1511);
    if workload != "tcp_pipeline" {
        // Another seed is another input: the deterministic output differs.
        assert_ne!(a.sim_digest, b.sim_digest, "{workload}: the seed must reach the inputs");
    }
    check_traced(workload, 7, moved);
}

#[test]
fn survey_analyze_smoke() {
    check(
        "survey_analyze",
        &[
            "probe.survey.run_ns_per_record",
            "dataset.stream.encode_ns_per_record",
            "dataset.stream.decode_ns_per_record",
            "dataset.snapshot.write_ns_per_entry",
            "dataset.snapshot.read_ns_per_entry",
            "core.pipeline.run_ns_per_record",
            "core.matching.match_ns_per_record",
            "core.timeout_table.compute_ns_per_addr",
            "core.pipeline.kept_ratio",
            "serve.builder.snapshot_ns_per_addr",
            "netsim.world.build_ns_per_block",
            "netsim.world.probe_ns",
            "runtime.wheel.pop_once_ns",
            "netsim.event.push_pop_ns",
            "netsim.event.events_per_op",
        ],
    );
}

#[test]
fn sweep_dense_smoke() {
    check(
        "sweep_dense",
        &[
            "netsim.world.probe_ns",
            "netsim.world.probe_unrouted_ns",
            "netsim.world.build_ns_per_block",
            "netsim.space.hosts_evicted_per_op",
            "netsim.space.hosts_peak",
            "netsim.link.traverse_ns",
            "netsim.link.traversals_per_op",
            "netsim.link.queue_peak_us",
            "netsim.packet.encode_ns",
            "netsim.packet.decode_ns",
            "wire.checksum.ns_per_kb",
            "asdb.trie.lookup_ns",
        ],
    );
}

#[test]
fn simserve_query_smoke() {
    check(
        "simserve_query",
        &[
            "serve.proto.encode_ns",
            "serve.proto.decode_ns",
            "serve.oracle.lookup_ns",
            "serve.engine.service_ns",
            "serve.engine.channel_ns",
            "runtime.wheel.schedule_ns",
            "runtime.wheel.cancel_ns",
            "runtime.wheel.pop_ns",
            "netsim.event.events_per_op",
            "netsim.event.queue_peak",
            "netsim.link.traverse_ns",
            "netsim.link.traversals_per_op",
            "netsim.link.drop_ratio",
        ],
    );
}

#[test]
fn simserve_report_smoke() {
    check(
        "simserve_report",
        &[
            "serve.engine.service_ns",
            "serve.engine.report_ns",
            "policy.map.observe_ns",
            "policy.map.freeze_ns",
            "runtime.wheel.schedule_ns",
        ],
    );
}

#[test]
fn tcp_pipeline_smoke() {
    check(
        "tcp_pipeline",
        &[
            "serve.proto.decode_ns",
            "serve.engine.service_ns",
            "serve.engine.cache_hit_ratio",
            "serve.server.wakeups_per_op",
        ],
    );
}

#[test]
fn unknown_workloads_are_refused() {
    let cfg = RunCfg {
        workload: "nope".into(),
        seed: 7,
        seconds: 0.05,
        traced: false,
        scale: Scale::Smoke,
    };
    assert!(run(&cfg).is_err_and(|e| e.contains("unknown workload")));
}
