//! `sweep_dense`: a Zmap-style sweep of a densely routed /9.
//!
//! `fullspace::run` over 2^23 addresses from 1.0.0.0 with 65 536 routed
//! /24s, so about 93 % of probes hit routed space (the committed
//! `BENCH_7` sweep was 98 % unrouted). Stresses lazy block/host
//! materialisation and eviction, the asdb LPM, the packet model and a
//! link layer that actually queues; bypasses `serve`, `core` and
//! `dataset`. There is no event queue on this path: the campaign calls
//! `World::probe` directly.

use super::{digest, Ladder, Repeat, Scale, Workload};
use crate::ladder;
use crate::trace::Tracer;
use beware_bench::fullspace::{self, FullSpaceCfg, FullSpaceReport};
use beware_netsim::link::{LinkEvent, LinkEventKind, LinkId};
use beware_netsim::scenario::{ProceduralSpace, Scenario, ScenarioCfg};
use beware_netsim::space::{LazyCfg, ProfileSource};
use beware_netsim::world::World;
use std::sync::Arc;

/// First address of the sweep: the plan allocates upward from 1.0.0.0.
const BASE_ADDR: u32 = 0x0100_0000;

pub struct SweepDense {
    cfg: FullSpaceCfg,
    /// The set-up `fullspace::run` repeats internally; built here so its
    /// cost is on record as `setup_s` and the ladder can reuse it.
    scenario: Scenario,
    space: Arc<ProceduralSpace>,
    last: Option<FullSpaceReport>,
}

impl SweepDense {
    pub fn set_up(seed: u64, scale: Scale) -> SweepDense {
        let (space_bits, total_blocks, chunk_bits, host_cap) = match scale {
            Scale::Full => (23, 65_536, 20, 16_384),
            Scale::Smoke => (16, 256, 13, 512),
        };
        let cfg = FullSpaceCfg {
            space_bits,
            base_addr: BASE_ADDR,
            total_blocks,
            seed,
            threads: 1,
            host_cap,
            chunk_bits,
            // 50 kpps: a /16 of probes fills its 25 kpps access link to
            // just under the 2 s queue cap, so links queue everywhere
            // (`link_queue_peak_us` > 0) yet tail-drop well under 5 %.
            probe_interval_ns: 20_000,
            // The one scheduled fault: the first /16's access link at
            // half capacity for the whole sweep, which does overflow.
            link_events: vec![LinkEvent {
                link: LinkId::Access((BASE_ADDR >> 16) as u16),
                at_secs: 0.0,
                until_secs: f64::INFINITY,
                kind: LinkEventKind::Degrade { capacity_scale: 0.5 },
            }],
            ..FullSpaceCfg::default()
        };
        let scenario = Scenario::new(ScenarioCfg {
            year: cfg.year,
            seed: cfg.seed,
            total_blocks: cfg.total_blocks,
            vantage: cfg.vantage,
        });
        let space = Arc::new(scenario.lazy_space());
        SweepDense { cfg, scenario, space, last: None }
    }

    fn lazy_world(&self) -> World {
        let lazy = LazyCfg { host_cap: self.cfg.host_cap, ..LazyCfg::default() };
        let source: Arc<dyn ProfileSource> = self.space.clone();
        World::procedural(self.scenario.world_seed(), source, &lazy)
            .with_links(self.scenario.link_cfg(self.cfg.link_events.clone()))
    }
}

impl Workload for SweepDense {
    fn threads(&self) -> usize {
        self.cfg.threads
    }

    fn repeat(&mut self, t: &mut Tracer) -> Result<Repeat, String> {
        let open = t.begin("bench.fullspace.run");
        let report = fullspace::run(&self.cfg)?;
        t.end(open, report.probes);
        let repeat = Repeat {
            ops: report.probes,
            attempted: report.probes,
            failed: 0,
            digest: Some(digest(report.summary_json().as_bytes())),
            sim_events: Some(report.probes + report.arrivals),
            window_rtt_ns: Vec::new(),
        };
        self.last = Some(report);
        Ok(repeat)
    }

    fn verify(&self) -> Result<(), String> {
        let r = self.last.as_ref().ok_or("verify before any repeat")?;
        // Every probe is unrouted, silent (link drops included) or
        // answered at least once; every response arrives exactly once.
        let answered = r.probes.checked_sub(r.unrouted + r.no_response);
        let conserved = r.probes == 1u64 << self.cfg.space_bits
            && answered.is_some_and(|a| a <= r.responses && (a > 0) == (r.responses > 0))
            && r.link_drops <= r.no_response
            && r.arrivals == r.responses
            && r.rtt_hist.iter().sum::<u64>() == r.arrivals;
        if !conserved {
            return Err(format!(
                "sweep counters do not conserve: probes {} unrouted {} no_response {} \
                 link_drops {} responses {} arrivals {}",
                r.probes, r.unrouted, r.no_response, r.link_drops, r.responses, r.arrivals
            ));
        }
        if r.link_queue_peak_us == 0 {
            return Err("the link layer never queued: the workload lost its point".into());
        }
        Ok(())
    }

    fn ladder(&mut self, t: &mut Tracer, cpu_ns_per_op: f64) -> Result<Ladder, String> {
        let r = self.last.as_ref().ok_or("ladder before any repeat")?;
        let mut l = Ladder::default();
        let probes = r.probes as f64;
        let routed = (r.probes - r.unrouted) as f64;
        l.set("netsim.event.events_per_op", (r.probes + r.arrivals) as f64 / probes);
        l.set("netsim.link.traversals_per_op", routed / probes);
        l.set("netsim.link.drop_ratio", r.link_drops as f64 / routed);
        l.set("netsim.link.queue_peak_us", r.link_queue_peak_us as f64);
        l.set("netsim.space.hosts_evicted_per_op", r.hosts_evicted as f64 / probes);
        l.set("netsim.space.hosts_peak", r.peak_resident_hosts as f64);

        // The sweep's own access pattern: consecutive addresses of routed
        // blocks at the sweep's probe spacing, in a world like a chunk's.
        let interval = self.cfg.probe_interval_ns;
        let routed_blocks: Vec<u32> = self.scenario.plan.blocks().map(|(b, _)| b).collect();
        let per_batch = ladder::BATCH / 256;
        let mut world = self.lazy_world();
        let probe = ladder::world_probe(t, "netsim.world.probe", &mut world, interval, |b| {
            routed_blocks
                .iter()
                .cycle()
                .skip((b * per_batch) % routed_blocks.len())
                .flat_map(|&blk| (0..256).map(move |h| (blk << 8) | h))
        });
        // Below 1.0.0.0 nothing is routed.
        let unrouted =
            ladder::world_probe(t, "netsim.world.probe_unrouted", &mut world, interval, |b| {
                (b as u32 * ladder::BATCH as u32)..
            });
        l.set("netsim.world.probe_ns", probe);
        l.set("netsim.world.probe_unrouted_ns", unrouted);

        let open = t.begin("netsim.world.build");
        let built = self.scenario.build_world();
        t.end(open, built.block_count() as u64);
        drop(built);
        let build = &crate::trace::by_layer(t.spans())["netsim.world.build"];
        l.set("netsim.world.build_ns_per_block", build.ns_per_call());

        // The same three-tier paths `World::probe` derives per routed /24.
        let db = self.scenario.db();
        let paths: Vec<[LinkId; 3]> = routed_blocks
            .iter()
            .take(ladder::BATCH)
            .filter_map(|&blk| {
                let info = db.lookup(blk << 8)?;
                Some([
                    LinkId::Access((blk >> 8) as u16),
                    LinkId::Core(info.asn.0),
                    LinkId::Spine(info.continent as u8),
                ])
            })
            .collect();
        let link_cfg = self.scenario.link_cfg(self.cfg.link_events.clone());
        l.set("netsim.link.traverse_ns", ladder::link_traverse(t, &link_cfg, &paths, interval));
        let (encode, decode) = ladder::packet_codec(t);
        l.set("netsim.packet.encode_ns", encode);
        l.set("netsim.packet.decode_ns", decode);
        l.set("wire.checksum.ns_per_kb", ladder::checksum_per_kb(t));
        let hosts: Vec<u32> = routed_blocks.iter().map(|&blk| (blk << 8) | 0x42).collect();
        l.set("asdb.trie.lookup_ns", ladder::lpm_lookup(t, &hosts, |a| db.lookup(a).is_some()));

        // `World::probe` contains the link traversal, the LPM and the host
        // model, so the attribution sum takes it whole, weighted by how
        // many probes were routed.
        l.rung("netsim.world.probe", probe, routed / probes, cpu_ns_per_op);
        l.rung("netsim.world.probe_unrouted", unrouted, r.unrouted as f64 / probes, cpu_ns_per_op);
        l.set("bench.fullspace.unattributed_share", l.unattributed());
        Ok(l)
    }
}
