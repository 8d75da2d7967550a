//! The benchmark's contract: workload names, metric names, units,
//! directions and regression bounds. `BENCHMARK.json` at the repo root
//! mirrors this file (a test keeps the two in step); later issues refer
//! to these names, so they are final.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling used in JSON.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How far a metric's median may worsen before `compare` calls it a
/// regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// A share of the baseline median, with an absolute floor in the
    /// metric's unit (0 = none) for metrics whose baseline can be tiny.
    Relative {
        /// Allowed worsening as a share of the baseline median.
        share: f64,
        /// Worsening below this many units never counts.
        floor: f64,
    },
    /// Deterministic: any worsening at the same seed is a regression.
    Exact,
    /// Diagnostic only (per-layer metrics): never judged.
    Unbounded,
}

/// One named metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Final name.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Regression bound.
    pub bound: Bound,
}

/// One workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadDef {
    /// Final name.
    pub name: &'static str,
    /// What one operation is.
    pub op: &'static str,
    /// Why the workload exists — which layers it stresses and bypasses.
    pub why: &'static str,
}

/// The five workloads, in `run --all` order.
pub const WORKLOADS: [WorkloadDef; 5] = [
    WorkloadDef {
        name: "survey_analyze",
        op: "one survey record carried end to end",
        why: "the paper's own path: probe, BWSS codec, analysis pipeline, timeout table, BWTS \
              snapshot, oracle; bypasses serve::engine, wheel cancels and the link layer",
    },
    WorkloadDef {
        name: "sweep_dense",
        op: "one probe",
        why: "93% routed Zmap-style sweep: lazy host materialisation and eviction, asdb LPM, \
              packet codec and a queueing link layer; bypasses serve, core and dataset",
    },
    WorkloadDef {
        name: "simserve_query",
        op: "one validated answer",
        why: "in-sim oracle serving on the reply-cache miss path with schedule-and-cancel wheel \
              timers at depth 67k, plus netsim event and link layers; no sockets",
    },
    WorkloadDef {
        name: "simserve_report",
        op: "one validated answer, each preceded by a Report write",
        why: "same campaign in codel-quantile policy mode: Report writes mutate the policy map \
              beside reads; bypasses the Oracle LPM and the reply cache",
    },
    WorkloadDef {
        name: "tcp_pipeline",
        op: "one validated answer",
        why: "epoll socket server on the reply-cache hit path, closed loop, 1 connection, window \
              of 64 queries; no sim, no wheel churn, no link layer",
    },
];

const fn rel(share: f64) -> Bound {
    Bound::Relative { share, floor: 0.0 }
}

/// End-to-end metrics. The first four are defined on every workload and
/// are the `end_to_end` list of `BENCHMARK.json`; the rest are defined
/// on some workloads only and are judged by `compare`.
///
/// The speed bounds are set by the reference box's measured noise, not
/// by taste: ten runs of unchanged code spread (quartile distance over
/// median) by up to 11 % on `ops_per_s` and `cpu_ns_per_op`, and single
/// runs differ by up to 17 %, so a tighter bound would reject unchanged
/// code. See the README's noise floor.
pub const END_TO_END: [MetricDef; 8] = [
    // median time of one set-up: input generation, oracle/snapshot build,
    // server start and connect
    MetricDef {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: Bound::Relative { share: 0.25, floor: 0.05 },
    },
    // operations of a repeat over its wall time, median over repeats
    MetricDef { name: "ops_per_s", unit: "op/s", better: Better::Higher, bound: rel(0.25) },
    // process CPU time of a repeat over its operations, median over repeats
    MetricDef { name: "cpu_ns_per_op", unit: "ns", better: Better::Lower, bound: rel(0.25) },
    // VmHWM of the workload's process after the warm-up and three timed
    // repeats
    MetricDef { name: "peak_rss_mb", unit: "MiB", better: Better::Lower, bound: rel(0.10) },
    // failed over attempted operations; expected 0
    MetricDef { name: "failed_share", unit: "ratio", better: Better::Lower, bound: Bound::Exact },
    // simulation events over operations (sim workloads); deterministic per
    // seed
    MetricDef {
        name: "sim_events_per_op",
        unit: "count",
        better: Better::Lower,
        bound: Bound::Exact,
    },
    // tcp_pipeline: write of a 64-query window to last reply decoded, per-
    // repeat median
    MetricDef { name: "window_rtt_p50_us", unit: "us", better: Better::Lower, bound: rel(0.10) },
    // tcp_pipeline: the same, per-repeat p99 (at least ten samples beyond
    // it). Runs of unchanged code read 116–169 us: a tail percentile on
    // two shared cores is that loose.
    MetricDef { name: "window_rtt_p99_us", unit: "us", better: Better::Lower, bound: rel(0.50) },
];

/// Names of the end-to-end metrics defined on every workload: the
/// `end_to_end` list of `BENCHMARK.json`, printed by `--trace 0`.
pub const EVERYWHERE: [&str; 4] = ["setup_s", "ops_per_s", "cpu_ns_per_op", "peak_rss_mb"];

/// End-to-end metrics defined on some workloads only. `BENCHMARK.json`
/// wants every listed metric from every workload and none that can read
/// 0, so it lists these beside the per-layer metrics (`--trace 1`), where
/// a workload they do not apply to reports 0. `failed_share` is carried
/// by the result line's `attempted` and `failed` instead.
pub const ELSEWHERE: [&str; 3] = ["sim_events_per_op", "window_rtt_p50_us", "window_rtt_p99_us"];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, bound: Bound::Unbounded }
}

const fn ns(name: &'static str) -> MetricDef {
    layer(name, "ns", Better::Lower)
}

/// Per-layer metrics of the traced run (layer = crate.module). A
/// workload that does not exercise a layer reports 0 for it.
pub const PER_LAYER: [MetricDef; 47] = [
    // proto::encode on the workload's frames, per call
    ns("serve.proto.encode_ns"),
    // proto::try_decode on the workload's frames, per call
    ns("serve.proto.decode_ns"),
    // Oracle::lookup on the workload's addresses, per call
    ns("serve.oracle.lookup_ns"),
    // Engine::service + flush over a bare channel_pair, per request
    ns("serve.engine.service_ns"),
    // the channel_pair byte queues alone, moving one request and one reply
    ns("serve.engine.channel_ns"),
    // service_ns minus the channel, one decode, one encode and (on a cache
    // miss) one lookup
    ns("serve.engine.self_ns"),
    // Engine::service on a Report frame in policy mode, per frame
    ns("serve.engine.report_ns"),
    // sched/serve/cache_hits over hits + misses
    layer("serve.engine.cache_hit_ratio", "ratio", Better::Higher),
    // share of bare-engine time that disappears with Registry::disabled()
    layer("serve.engine.telemetry_share", "ratio", Better::Lower),
    // tcp_pipeline CPU ns/op minus the bare engine net of its channel minus
    // the client's decode
    ns("serve.server.driver_ns"),
    // sched/serve/epoll_wakeups over answers served
    layer("serve.server.wakeups_per_op", "count", Better::Lower),
    // sched/serve/spurious_wakeups over epoll_wakeups
    layer("serve.server.spurious_wakeup_ratio", "ratio", Better::Lower),
    // build_snapshot span over addresses with samples
    ns("serve.builder.snapshot_ns_per_addr"),
    // PrefixPolicyMap::observe on the workload's addresses, per call
    ns("policy.map.observe_ns"),
    // PrefixPolicyMap::snapshot_table at the workload's map size
    ns("policy.map.freeze_ns"),
    // DeadlineWheel::schedule in simserve's timer shape
    ns("runtime.wheel.schedule_ns"),
    // DeadlineWheel::cancel in simserve's timer shape
    ns("runtime.wheel.cancel_ns"),
    // DeadlineWheel::pop_next in simserve's timer shape, per live key
    ns("runtime.wheel.pop_ns"),
    // DeadlineWheel schedule-once/pop-once at the survey's depth, per key
    ns("runtime.wheel.pop_once_ns"),
    // EventQueue push-once/pop-once at the survey's depth, per event
    ns("netsim.event.push_pop_ns"),
    // simulation events over operations
    layer("netsim.event.events_per_op", "count", Better::Lower),
    // deepest event queue of the run
    layer("netsim.event.queue_peak", "count", Better::Lower),
    // LinkLayer::traverse on the workload's 3-tier paths, per call
    ns("netsim.link.traverse_ns"),
    // link-layer traversals over operations
    layer("netsim.link.traversals_per_op", "count", Better::Lower),
    // link drops over traversals
    layer("netsim.link.drop_ratio", "ratio", Better::Lower),
    // high-water queueing backlog across links
    layer("netsim.link.queue_peak_us", "us", Better::Lower),
    // World::probe on routed addresses of a procedural world
    ns("netsim.world.probe_ns"),
    // World::probe on unrouted addresses
    ns("netsim.world.probe_unrouted_ns"),
    // Scenario::build_world over routed /24 blocks
    ns("netsim.world.build_ns_per_block"),
    // host state machines reclaimed over probes
    layer("netsim.space.hosts_evicted_per_op", "count", Better::Lower),
    // most simultaneously resident hosts
    layer("netsim.space.hosts_peak", "count", Better::Lower),
    // Packet::encode of an echo request, per call
    ns("netsim.packet.encode_ns"),
    // Packet::decode of the same bytes, per call
    ns("netsim.packet.decode_ns"),
    // internet_checksum over 1500-byte buffers, per KiB
    ns("wire.checksum.ns_per_kb"),
    // longest-prefix match on the workload's addresses, per call
    ns("asdb.trie.lookup_ns"),
    // Prober::run span over records produced
    ns("probe.survey.run_ns_per_record"),
    // BWSS StreamWriter span over records
    ns("dataset.stream.encode_ns_per_record"),
    // BWSS StreamReader span over records
    ns("dataset.stream.decode_ns_per_record"),
    // write_snapshot span over snapshot entries
    ns("dataset.snapshot.write_ns_per_entry"),
    // read_snapshot span over snapshot entries
    ns("dataset.snapshot.read_ns_per_entry"),
    // run_pipeline span over records
    ns("core.pipeline.run_ns_per_record"),
    // match_unmatched span over records
    ns("core.matching.match_ns_per_record"),
    // TimeoutTable::compute span over addresses
    ns("core.timeout_table.compute_ns_per_addr"),
    // Accounting: final over naive packets (useful over attempted)
    layer("core.pipeline.kept_ratio", "ratio", Better::Higher),
    // share of simserve CPU ns/op the ladder's rungs do not explain
    layer("bench.simserve.unattributed_share", "ratio", Better::Lower),
    // share of sweep CPU ns/op the ladder's rungs do not explain
    layer("bench.fullspace.unattributed_share", "ratio", Better::Lower),
    // (traced - untraced) over untraced wall time of one repeat
    layer("trace.overhead_share", "ratio", Better::Lower),
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Look any metric up by name.
pub fn metric(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(&PER_LAYER).find(|m| m.name == name)
}

/// Look an end-to-end metric up by name.
pub fn end_to_end(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(seen.insert(name), "{name} used twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(m.unit.len() <= 16, "{}", m.name);
            assert!(m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn everywhere_metrics_are_bounded_end_to_end_metrics() {
        for name in EVERYWHERE {
            let def = end_to_end(name).expect("listed metric exists");
            assert!(matches!(def.bound, Bound::Relative { share, .. } if share <= 0.25));
        }
        assert!(PER_LAYER.iter().all(|m| m.bound == Bound::Unbounded));
    }
}
