//! `survey_analyze`: the paper's own path, composed by the harness.
//!
//! build world → ISI-style survey → BWSS round trip in memory → analysis
//! pipeline → timeout table → BWTS snapshot round trip → oracle. Host
//! models, the `dataset` codecs and `core` do nearly all the work;
//! `serve::engine`, the wheel's cancel path and the link layer do none,
//! and every event is scheduled once and popped once. Because the
//! harness composes the chain itself, its spans are the real stages of
//! the real run.

use super::{digest, Ladder, Repeat, Scale, Workload};
use crate::ladder;
use crate::trace::Tracer;
use beware_bench::ctx::survey_block_sample;
use beware_core::matching::match_unmatched;
use beware_core::pipeline::{run_pipeline, PipelineCfg, PipelineOutput};
use beware_core::recommend::recommend_timeout;
use beware_core::timeout_table::TimeoutTable;
use beware_dataset::snapshot::{read_snapshot, write_snapshot};
use beware_dataset::stream::{StreamReader, StreamWriter};
use beware_dataset::{Record, RecordSink};
use beware_netsim::scenario::{Scenario, ScenarioCfg};
use beware_probe::{Prober, SurveyCfg};
use beware_serve::oracle::Oracle;
use beware_serve::proto::Status;
use beware_serve::{build_snapshot, SnapshotCfg};
use std::collections::BTreeMap;
use std::hint::black_box;

/// The paper's headline: the 95/95 cell is about 5 s. Outside this band
/// the reproduction no longer reproduces. (Full scale only: a smoke
/// survey is too short to meet the slow tail.)
const HEADLINE_BAND_SECS: (f64, f64) = (3.0, 8.0);

/// What the last repeat produced, kept for `verify` and the ladder.
struct Outputs {
    /// Kept only under an enabled tracer (the ladder re-matches them);
    /// holding them across untraced repeats would double peak memory.
    records: Vec<Record>,
    record_count: u64,
    sim_events: u64,
    queue_peak: u64,
    pipeline: PipelineOutput,
    headline_secs: f64,
    oracle: Oracle,
}

pub struct SurveyAnalyze {
    scenario: Scenario,
    blocks: Vec<u32>,
    rounds: u32,
    seed: u64,
    scale: Scale,
    last: Option<Outputs>,
}

impl SurveyAnalyze {
    pub fn set_up(seed: u64, scale: Scale) -> SurveyAnalyze {
        let (total_blocks, survey_blocks, rounds) = match scale {
            Scale::Full => (768, 128, 100),
            Scale::Smoke => (64, 12, 24),
        };
        let scenario = Scenario::new(ScenarioCfg { seed, total_blocks, ..ScenarioCfg::default() });
        let blocks = survey_block_sample(&scenario, survey_blocks);
        SurveyAnalyze { scenario, blocks, rounds, seed, scale, last: None }
    }
}

impl Workload for SurveyAnalyze {
    fn threads(&self) -> usize {
        1
    }

    fn repeat(&mut self, t: &mut Tracer) -> Result<Repeat, String> {
        self.last = None;
        let root = t.begin("survey_analyze.repeat");

        let open = t.begin("netsim.world.build");
        let mut world = self.scenario.build_world();
        t.end(open, u64::from(self.scenario.plan.block_count()));

        let open = t.begin("probe.survey.run");
        let cfg = SurveyCfg {
            blocks: self.blocks.clone(),
            rounds: self.rounds,
            seed: self.seed,
            ..SurveyCfg::default()
        };
        let ((records, _stats), summary) = cfg.build(Vec::new()).run(&mut world);
        drop(world);
        let record_count = records.len() as u64;
        t.end(open, record_count);

        let open = t.begin("dataset.stream.encode");
        let mut writer = StreamWriter::new(Vec::with_capacity(records.len() * 13 + 32))
            .map_err(|e| format!("BWSS header: {e}"))?;
        for r in &records {
            writer.push(*r);
        }
        let bytes = writer.finish().map_err(|e| format!("BWSS trailer: {e}"))?;
        t.end(open, record_count);

        let open = t.begin("dataset.stream.decode");
        let decoded: Vec<Record> = StreamReader::new(&bytes[..])
            .map_err(|e| format!("BWSS reopen: {e}"))?
            .collect::<Result<_, _>>()
            .map_err(|e| format!("BWSS decode: {e}"))?;
        t.end(open, record_count);
        drop(bytes);
        if decoded != records {
            return Err("BWSS round trip changed the records".into());
        }
        let records = if t.enabled() { records } else { Vec::new() };

        let open = t.begin("core.pipeline.run");
        let pipeline = run_pipeline(&decoded, &PipelineCfg::paper());
        t.end(open, record_count);
        drop(decoded);

        let open = t.begin("core.timeout_table.compute");
        let table = TimeoutTable::compute(&pipeline.samples).ok_or("no address has samples")?;
        t.end(open, table.addresses as u64);
        let headline_secs = table.cell(95.0, 95.0).ok_or("table lacks the 95/95 cell")?;

        let open = t.begin("serve.builder.snapshot");
        let snapshot = build_snapshot(&pipeline.samples, &SnapshotCfg::default())
            .map_err(|e| format!("build_snapshot: {e}"))?;
        t.end(open, table.addresses as u64);
        let entries = snapshot.entries.len() as u64;

        let open = t.begin("dataset.snapshot.write");
        let mut encoded = Vec::new();
        write_snapshot(&mut encoded, &snapshot).map_err(|e| format!("write_snapshot: {e}"))?;
        t.end(open, entries);

        let open = t.begin("dataset.snapshot.read");
        let reread =
            read_snapshot(&mut &encoded[..]).map_err(|e| format!("read_snapshot: {e:?}"))?;
        t.end(open, entries);
        if reread != snapshot {
            return Err("BWTS round trip changed the snapshot".into());
        }

        let open = t.begin("serve.oracle.build");
        let oracle = Oracle::from_snapshot(reread).map_err(|e| format!("oracle: {e}"))?;
        t.end(open, entries);
        t.end(root, 1);

        let mut identity = oracle.checksum().to_le_bytes().to_vec();
        identity.extend_from_slice(&record_count.to_le_bytes());
        self.last = Some(Outputs {
            records,
            record_count,
            sim_events: summary.events,
            queue_peak: summary.queue_peak,
            pipeline,
            headline_secs,
            oracle,
        });
        Ok(Repeat {
            ops: record_count,
            attempted: record_count,
            failed: 0,
            digest: Some(digest(&identity)),
            sim_events: Some(summary.events),
            window_rtt_ns: Vec::new(),
        })
    }

    fn verify(&self) -> Result<(), String> {
        let out = self.last.as_ref().ok_or("verify before any repeat")?;
        let (lo, hi) = HEADLINE_BAND_SECS;
        if self.scale == Scale::Full && !(lo..=hi).contains(&out.headline_secs) {
            return Err(format!(
                "95/95 timeout is {:.3} s, outside [{lo}, {hi}] s (paper: about 5 s)",
                out.headline_secs
            ));
        }
        // Served bits must be the offline recommendation, bit for bit:
        // the fallback over everyone, and per-/24 tables over their own.
        let samples = &out.pipeline.samples;
        let served = |addr: u32, r: u16, c: u16, over: &BTreeMap<u32, _>, want: Status| {
            let offline = recommend_timeout(over, f64::from(r) / 10.0, f64::from(c) / 10.0)
                .ok_or("no offline recommendation")?;
            let got = out.oracle.lookup(addr, r, c).map_err(|e| format!("lookup: {e}"))?;
            if got.status != want || got.timeout_bits != offline.timeout_secs.to_bits() {
                return Err(format!(
                    "served {:?} {} s for {addr:#010x} at ({r},{c}), offline says {want:?} {} s",
                    got.status,
                    got.timeout_secs(),
                    offline.timeout_secs
                ));
            }
            Ok::<(), String>(())
        };
        // 0.0.0.1 lies below the plan's first block (1.0.0.0): fallback.
        for (r, c) in [(950, 950), (10, 990), (990, 10)] {
            served(1, r, c, samples, Status::Fallback)?;
        }
        let prefixes = out.oracle.prefixes();
        for &(prefix, len) in [prefixes.first(), prefixes.get(prefixes.len() / 2), prefixes.last()]
            .into_iter()
            .flatten()
        {
            let last = prefix | !beware_dataset::snapshot::prefix_mask(len);
            let group: BTreeMap<u32, _> =
                samples.range(prefix..=last).map(|(&a, s)| (a, s.clone())).collect();
            served(prefix | 1, 950, 950, &group, Status::Exact)?;
        }
        Ok(())
    }

    fn ladder(&mut self, t: &mut Tracer, cpu_ns_per_op: f64) -> Result<Ladder, String> {
        let out = self.last.as_ref().ok_or("ladder before any repeat")?;
        if out.records.is_empty() {
            return Err("the ladder needs a traced repeat before it".into());
        }
        let mut l = Ladder::default();
        let records = out.record_count as f64;

        // The chain's spans are the real stages: report them as measured.
        let open = t.begin("core.matching.match");
        black_box(match_unmatched(&out.records));
        t.end(open, out.record_count);
        let layers = crate::trace::by_layer(t.spans());
        for (metric, span) in [
            ("netsim.world.build_ns_per_block", "netsim.world.build"),
            ("probe.survey.run_ns_per_record", "probe.survey.run"),
            ("dataset.stream.encode_ns_per_record", "dataset.stream.encode"),
            ("dataset.stream.decode_ns_per_record", "dataset.stream.decode"),
            ("core.pipeline.run_ns_per_record", "core.pipeline.run"),
            ("core.matching.match_ns_per_record", "core.matching.match"),
            ("core.timeout_table.compute_ns_per_addr", "core.timeout_table.compute"),
            ("serve.builder.snapshot_ns_per_addr", "serve.builder.snapshot"),
            ("dataset.snapshot.write_ns_per_entry", "dataset.snapshot.write"),
            ("dataset.snapshot.read_ns_per_entry", "dataset.snapshot.read"),
        ] {
            l.set(metric, layers[span].ns_per_call());
        }
        let repeats = layers["survey_analyze.repeat"].calls as f64;
        for (name, totals) in &layers {
            // `match` is the ladder's own extra call, not a stage of the chain.
            if name == "core.matching.match" {
                continue;
            }
            // Stages have no child spans, so their self time is their time;
            // the repeat's own self time is the harness's glue (comparing
            // the round trips, dropping buffers).
            let ns_per_call = totals.self_ns as f64 / totals.calls.max(1) as f64;
            let name = if name == "survey_analyze.repeat" { "(harness glue)" } else { name };
            l.rung(name, ns_per_call, totals.calls as f64 / repeats / records, cpu_ns_per_op);
        }

        let acc = &out.pipeline.accounting;
        l.set(
            "core.pipeline.kept_ratio",
            acc.survey_plus_delayed.packets as f64 / acc.naive_matching.packets.max(1) as f64,
        );
        l.set("netsim.event.events_per_op", out.sim_events as f64 / records);
        l.set("netsim.event.queue_peak", out.queue_peak as f64);

        // Micro rungs over this workload's inputs: its scheduler shape
        // (schedule once, pop once, at the survey's depth), its world,
        // and the codecs under every simulated packet.
        let depth = out.queue_peak as usize;
        l.set("runtime.wheel.pop_once_ns", ladder::wheel_pop_once(t, depth));
        l.set("netsim.event.push_pop_ns", ladder::event_push_pop(t, depth));
        let mut world = self.scenario.build_world();
        let blocks = &self.blocks;
        let addrs = |_| blocks.iter().cycle().flat_map(|&b| (0..256).map(move |h| (b << 8) | h));
        // One probe per 2.58 s per block in the survey; any spacing works
        // for a world without links.
        l.set(
            "netsim.world.probe_ns",
            ladder::world_probe(t, "netsim.world.probe", &mut world, 10_000, addrs),
        );
        let (encode, decode) = ladder::packet_codec(t);
        l.set("netsim.packet.encode_ns", encode);
        l.set("netsim.packet.decode_ns", decode);
        l.set("wire.checksum.ns_per_kb", ladder::checksum_per_kb(t));
        let db = self.scenario.db();
        let hosts: Vec<u32> = blocks.iter().map(|&b| (b << 8) | 0x42).collect();
        l.set("asdb.trie.lookup_ns", ladder::lpm_lookup(t, &hosts, |a| db.lookup(a).is_some()));
        Ok(l)
    }
}
