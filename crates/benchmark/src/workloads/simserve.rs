//! `simserve_query` and `simserve_report`: the oracle served to 131 072
//! closed-loop clients inside the netsim.
//!
//! In snapshot mode every `(address, percentile pair)` key is new, so
//! the engine runs its reply-cache **miss** path: frame decode, oracle
//! LPM, frame encode. Each query arms four wheel timers and cancels one
//! (the timeout) at a queue depth of about 67 k — the wheel's
//! schedule-and-cancel pattern — and crosses the link layer twice. In
//! policy mode (`simserve_report`) every query after a client's first is
//! preceded by a `Report` write that mutates the per-prefix policy map
//! and republishes its table; the oracle LPM and the reply cache are
//! bypassed. A read-path gain that costs the write path shows there.
//!
//! Every eighth access link is partitioned mid-campaign, so about a
//! tenth of queries time out; a timeout a scheduled link drop explains
//! is not a failure.

use super::{digest, Ladder, Repeat, Scale, Workload};
use crate::ladder::{self, EngineShape};
use crate::trace::Tracer;
use beware_asdb::PrefixTrie;
use beware_bench::simserve::{self, campaign_oracle, Regime, SimServeCfg, SimServeReport};
use beware_netsim::link::{LinkCfg, LinkId};
use beware_netsim::SimClock;
use beware_policy::PolicyKind;
use beware_serve::oracle::Oracle;
use beware_serve::proto::Message;
use std::sync::Arc;

/// Mirrors of `simserve`'s private campaign constants, needed to replay
/// its inputs from outside: first client address, the percentile pairs
/// clients cycle through, and the link tiers of a cell.
const CLIENT_BASE: u32 = 0x0a00_0000;
const PCT_PAIRS: [(u16, u16); 4] = [(500, 500), (900, 950), (950, 990), (990, 980)];
const LINK_PPS: (f64, f64, f64) = (1_000_000.0, 5_000_000.0, 20_000_000.0);

pub struct SimServe {
    cfg: SimServeCfg,
    /// The snapshot build `simserve::run` repeats internally; built here
    /// so its cost is on record as `setup_s` and the ladder can reuse it.
    oracle: Arc<Oracle>,
    last: Option<SimServeReport>,
}

impl SimServe {
    pub fn set_up(seed: u64, scale: Scale, policy: Option<PolicyKind>) -> SimServe {
        let (clients, cell_bits) = match scale {
            Scale::Full => (131_072, 16),
            Scale::Smoke => (2_048, 10),
        };
        let cfg = SimServeCfg {
            clients,
            queries_per_client: 4,
            cell_bits,
            seed,
            regime: Regime::Steady,
            partition: true,
            threads: 1,
            policy,
            ..SimServeCfg::default()
        };
        SimServe { cfg, oracle: Arc::new(campaign_oracle()), last: None }
    }

    /// What client `i % clients` asks on attempt `i / clients`: address
    /// and percentile pair.
    fn key(&self, i: usize) -> (u32, u16, u16) {
        let addr = CLIENT_BASE + (i as u64 % self.cfg.clients) as u32;
        let attempt = i as u64 / self.cfg.clients;
        let (r, p) = PCT_PAIRS[(addr as usize + attempt as usize) % PCT_PAIRS.len()];
        (addr, r, p)
    }

    fn query(&self, i: usize) -> Message {
        let (addr, addr_pct_tenths, ping_pct_tenths) = self.key(i);
        Message::Query { addr, addr_pct_tenths, ping_pct_tenths }
    }
}

impl Workload for SimServe {
    fn threads(&self) -> usize {
        self.cfg.threads
    }

    fn repeat(&mut self, t: &mut Tracer) -> Result<Repeat, String> {
        let open = t.begin("bench.simserve.run");
        let r = simserve::run(&self.cfg)?;
        t.end(open, r.ok);
        // A timeout is explained when the link layer dropped that query's
        // request or reply; anything beyond that is the program's fault.
        let unexplained = r.timeouts.saturating_sub(r.requests_dropped + r.replies_dropped);
        let repeat = Repeat {
            ops: r.ok,
            attempted: r.queries_sent,
            failed: r.wrong + r.errors + unexplained,
            digest: Some(digest(r.summary_json().as_bytes())),
            sim_events: Some(r.sim_events),
            window_rtt_ns: Vec::new(),
        };
        self.last = Some(r);
        Ok(repeat)
    }

    fn verify(&self) -> Result<(), String> {
        let r = self.last.as_ref().ok_or("verify before any repeat")?;
        let resolved = r.ok + r.wrong + r.errors + r.timeouts;
        if resolved != r.queries_sent || r.ok == 0 {
            return Err(format!(
                "campaign did not drain: {} sent, {} ok + {} wrong + {} errors + {} timeouts",
                r.queries_sent, r.ok, r.wrong, r.errors, r.timeouts
            ));
        }
        Ok(())
    }

    fn ladder(&mut self, t: &mut Tracer, cpu_ns_per_op: f64) -> Result<Ladder, String> {
        let r = self.last.as_ref().ok_or("ladder before any repeat")?;
        let policy = self.cfg.policy;
        let mut l = Ladder::default();
        let ok = r.ok as f64;
        let per_op = |count: u64| count as f64 / ok;

        // Counts from the campaign's own report.
        let hits = r.registry.counter("sched/serve/cache_hits").unwrap_or(0);
        let misses = r.registry.counter("sched/serve/cache_misses").unwrap_or(0);
        l.set("serve.engine.cache_hit_ratio", hits as f64 / (hits + misses).max(1) as f64);
        l.set("netsim.event.events_per_op", per_op(r.sim_events));
        l.set("netsim.event.queue_peak", r.queue_peak as f64);
        // One traversal per request sent and one per reply the engine wrote.
        let traversals = r.queries_sent + r.served_queries;
        l.set("netsim.link.traversals_per_op", per_op(traversals));
        l.set("netsim.link.drop_ratio", r.link_drops as f64 / traversals as f64);

        // The frames this campaign puts on the wire, both directions.
        let window = ladder::BATCH;
        let keys: Vec<(u32, u16, u16)> = (0..window).map(|i| self.key(i)).collect();
        let mut frames = Vec::with_capacity(4 * window);
        for &(addr, r_pct, p_pct) in &keys {
            let ans = self.oracle.lookup(addr, r_pct, p_pct).map_err(|e| e.to_string())?;
            frames.push(Message::Query { addr, addr_pct_tenths: r_pct, ping_pct_tenths: p_pct });
            frames.push(Message::Answer {
                status: ans.status,
                timeout_bits: ans.timeout_bits,
                prefix: ans.prefix,
                prefix_len: ans.prefix_len,
            });
            if policy.is_some() {
                frames.push(Message::Report { addr, rtt_us: 20_000 });
                frames.push(Message::ReportAck { reports: u64::from(addr) });
            }
        }
        let (encode, decode) = ladder::proto_codec(t, &frames);
        l.set("serve.proto.encode_ns", encode);
        l.set("serve.proto.decode_ns", decode);

        // The bare engine on this campaign's request stream: every key
        // new, one frame per service call, sim clock.
        let shape = |telemetry| EngineShape {
            policy,
            window: 1,
            telemetry,
            clock: SimClock::new().handle(),
        };
        let service =
            ladder::engine_service(t, "serve.engine.service", &self.oracle, &shape(true), |i| {
                self.query(i)
            });
        let quiet = ladder::engine_service(
            t,
            "serve.engine.service_untelemetered",
            &self.oracle,
            &shape(false),
            |i| self.query(i),
        );
        l.set("serve.engine.service_ns", service);
        l.set("serve.engine.telemetry_share", (service - quiet) / service);
        let frame_len = |i: usize| beware_serve::proto::encode(&frames[i]).len();
        let channel = ladder::channel_transport(t, 1, frame_len(0), frame_len(1));
        l.set("serve.engine.channel_ns", channel);

        let lookup = if policy.is_none() {
            let lookup = ladder::oracle_lookup(t, &self.oracle, &keys);
            l.set("serve.oracle.lookup_ns", lookup);
            let mut trie = PrefixTrie::new();
            for &(prefix, len) in self.oracle.prefixes() {
                trie.insert(prefix, len, ());
            }
            let addrs: Vec<u32> = keys.iter().map(|k| k.0).collect();
            l.set(
                "asdb.trie.lookup_ns",
                ladder::lpm_lookup(t, &addrs, |a| trie.lookup(a).is_some()),
            );
            lookup
        } else {
            0.0
        };
        // Nothing hits the reply cache here, so a request pays one whole
        // lookup (none in policy mode, which answers from the table).
        l.set("serve.engine.self_ns", service - channel - decode - encode - lookup);

        let mut report = 0.0;
        if let Some(kind) = policy {
            report =
                ladder::engine_service(t, "serve.engine.report", &self.oracle, &shape(true), |i| {
                    match self.query(i) {
                        Message::Query { addr, .. } => Message::Report { addr, rtt_us: 20_000 },
                        _ => unreachable!("query() builds queries"),
                    }
                });
            l.set("serve.engine.report_ns", report);
            let addrs: Vec<u32> = keys.iter().map(|k| k.0).collect();
            let (observe, freeze) = ladder::policy_map(t, kind, &addrs);
            l.set("policy.map.observe_ns", observe);
            l.set("policy.map.freeze_ns", freeze);
        }

        let (schedule, cancel, pop) = ladder::wheel_timer_shape(t, r.queue_peak as usize);
        l.set("runtime.wheel.schedule_ns", schedule);
        l.set("runtime.wheel.cancel_ns", cancel);
        l.set("runtime.wheel.pop_ns", pop);

        let link_cfg = LinkCfg {
            seed: self.cfg.seed,
            access_pps: LINK_PPS.0,
            core_pps: LINK_PPS.1,
            spine_pps: LINK_PPS.2,
            ..LinkCfg::default()
        };
        let paths: Vec<[LinkId; 3]> = keys
            .iter()
            .map(|&(addr, ..)| {
                [
                    LinkId::Access((addr >> 16) as u16),
                    LinkId::Core(addr >> 12 & 0xf_ff00),
                    LinkId::Spine(0),
                ]
            })
            .collect();
        // A cell's clients fire one think interval apart in total.
        let spacing_ns = self.cfg.interval_us * 1_000 / (1u64 << self.cfg.cell_bits);
        let traverse = ladder::link_traverse(t, &link_cfg, &paths, spacing_ns);
        l.set("netsim.link.traverse_ns", traverse);

        // Attribution: what one validated answer costs, rung by rung.
        // `service` already contains the server's decode, lookup and
        // encode, so only the client's codec calls are added beside it.
        let reports = per_op(r.reports_sent);
        let sent = per_op(r.queries_sent);
        let served = per_op(r.served_queries);
        l.rung("serve.proto.encode", encode, sent + reports, cpu_ns_per_op);
        l.rung("serve.proto.decode", decode, served + reports, cpu_ns_per_op);
        if policy.is_none() {
            // The client's own expected-bits lookup, once per query sent.
            l.rung("serve.oracle.lookup", lookup, sent, cpu_ns_per_op);
        }
        l.rung("serve.engine.service", service, served, cpu_ns_per_op);
        if policy.is_some() {
            l.rung("serve.engine.report", report, reports, cpu_ns_per_op);
        }
        l.rung("netsim.link.traverse", traverse, per_op(traversals), cpu_ns_per_op);
        // Timers: fire + timeout per query sent, one delivery per leg the
        // link layer let through; the timeout is cancelled by an answer or
        // cancels the in-flight leg; every processed event was a live pop.
        let legs = (r.queries_sent - r.requests_dropped) + (r.served_queries - r.replies_dropped);
        l.rung("runtime.wheel.schedule", schedule, 2.0 * sent + per_op(legs), cpu_ns_per_op);
        l.rung("runtime.wheel.cancel", cancel, 1.0 + per_op(r.gave_up_inflight), cpu_ns_per_op);
        l.rung("runtime.wheel.pop", pop, per_op(r.sim_events), cpu_ns_per_op);
        l.set("bench.simserve.unattributed_share", l.unattributed());
        Ok(l)
    }
}
