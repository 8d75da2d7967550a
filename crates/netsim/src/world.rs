//! The simulated Internet: routed /24 blocks, lazily instantiated hosts,
//! and the probe → responses transfer function.
//!
//! The world is *passive*: it holds no timers. A prober hands it a packet
//! and the current time; the world returns the arrivals that packet causes.
//! All host state advances lazily on access, which is what lets a scan of a
//! million addresses run without a million timer events.
//!
//! Two address-space backings share this transfer function:
//!
//! * **routed** ([`World::new`] + [`World::add_block`]) — an explicit
//!   block table, the right tool for small scripted worlds;
//! * **procedural** ([`World::procedural`]) — blocks resolved on demand
//!   from a pure [`ProfileSource`], with host state bounded by
//!   [`LazyCfg`], which is what lets a full-IPv4-scale sweep stream in
//!   fixed memory (see [`crate::space`] for the eviction invariants).
//!
//! Either backing can additionally route probes through a shared
//! [`crate::link::LinkLayer`] ([`World::with_links`]): prefixes then share
//! queues, and congestion or a scenario-scheduled degrade on one uplink
//! shows up as *correlated* extra delay across every host behind it.

use crate::host::{self, HostState, Reply};
use crate::link::{LinkCfg, LinkId, LinkLayer};
use crate::packet::{Arrival, Packet, L4};
use crate::profile::{BlockProfile, PROFILE_KINDS};
use crate::rng::seeded;
use crate::space::{HostTable, LazyCfg, ProfileCache, ProfileSource};
use crate::time::{SimDuration, SimTime};
use beware_asdb::{Asn, Continent};
use beware_runtime::rng::{derive_seed, Xoshiro256pp};
use beware_wire::icmp::IcmpKind;
use std::collections::HashMap;
use std::sync::Arc;

/// Counters the world keeps for reporting and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorldStats {
    /// Probes delivered to the world.
    pub probes: u64,
    /// Response packets generated.
    pub responses: u64,
    /// Probes that fell on unrouted space.
    pub unrouted: u64,
    /// Routed probes that drew no response at all (dead address, loss,
    /// episode blackout, rate limit, ...). Unrouted probes are counted
    /// under `unrouted` only.
    pub no_response: u64,
    /// Responses synthesized by firewalls rather than hosts.
    pub firewall_rsts: u64,
    /// Broadcast-triggered responses.
    pub broadcast_responses: u64,
    /// Responses per dominant profile kind, indexed like
    /// [`PROFILE_KINDS`].
    pub responses_by_profile: [u64; PROFILE_KINDS.len()],
    /// Host state machines reclaimed by the bounded host table (capacity
    /// plus quiescence evictions). Zero for unbounded worlds.
    pub hosts_evicted: u64,
    /// High-water mark of simultaneously resident host state machines —
    /// the number a memory ceiling must accommodate.
    pub hosts_peak: u64,
    /// Probes black-holed by the link layer (partitions + full queues).
    pub link_drops: u64,
    /// High-water queueing backlog across all shared links, microseconds.
    pub link_queue_peak_us: u64,
}

impl WorldStats {
    /// Flush these counters into a telemetry scope (counters `probes`,
    /// `responses`, `unrouted`, `no_response`, `firewall_rsts`,
    /// `broadcast_responses`, `hosts_evicted`, `link_drops` and
    /// `responses_by_profile/<kind>` under the scope's prefix, plus
    /// max-merged gauges `hosts_peak` and `link_queue_peak_us`). Zero
    /// buckets and zero gauges are skipped so the export only names what
    /// the run actually exercised.
    pub fn record(&self, scope: &mut beware_telemetry::Scope<'_>) {
        scope.add("probes", self.probes);
        scope.add("responses", self.responses);
        scope.add("unrouted", self.unrouted);
        scope.add("no_response", self.no_response);
        scope.add("firewall_rsts", self.firewall_rsts);
        scope.add("broadcast_responses", self.broadcast_responses);
        if self.hosts_evicted > 0 {
            scope.add("hosts_evicted", self.hosts_evicted);
        }
        if self.link_drops > 0 {
            scope.add("link_drops", self.link_drops);
        }
        if self.hosts_peak > 0 {
            scope.gauge_max("hosts_peak", self.hosts_peak);
        }
        if self.link_queue_peak_us > 0 {
            scope.gauge_max("link_queue_peak_us", self.link_queue_peak_us);
        }
        let mut by_kind = scope.scope("responses_by_profile");
        for (kind, &n) in PROFILE_KINDS.iter().zip(&self.responses_by_profile) {
            if n > 0 {
                by_kind.add(kind, n);
            }
        }
    }

    /// Flush the difference `after - self` into a telemetry scope —
    /// what a run contributed to a world that already had history.
    /// Counters subtract; the peak gauges carry `after`'s high-water mark
    /// unchanged (gauges merge by max, so re-reporting the peak is safe).
    pub fn record_delta(&self, after: &WorldStats, scope: &mut beware_telemetry::Scope<'_>) {
        let mut d = WorldStats {
            probes: after.probes - self.probes,
            responses: after.responses - self.responses,
            unrouted: after.unrouted - self.unrouted,
            no_response: after.no_response - self.no_response,
            firewall_rsts: after.firewall_rsts - self.firewall_rsts,
            broadcast_responses: after.broadcast_responses - self.broadcast_responses,
            responses_by_profile: [0; PROFILE_KINDS.len()],
            hosts_evicted: after.hosts_evicted - self.hosts_evicted,
            hosts_peak: after.hosts_peak,
            link_drops: after.link_drops - self.link_drops,
            link_queue_peak_us: after.link_queue_peak_us,
        };
        for i in 0..PROFILE_KINDS.len() {
            d.responses_by_profile[i] =
                after.responses_by_profile[i] - self.responses_by_profile[i];
        }
        d.record(scope);
    }
}

#[derive(Debug, Clone)]
struct BlockEntry {
    profile: Arc<BlockProfile>,
    /// Cached [`BlockProfile::kind_index`] so the per-probe hot path
    /// never re-derives it.
    kind: usize,
    /// Routing identity `(AS, continent)` when known — what the link
    /// layer aggregates core and spine queues on. Explicitly added blocks
    /// carry `None` and only share their access (`/16`) link.
    route: Option<(Asn, Continent)>,
}

/// How the world backs its address space: an explicit block table, or a
/// pure resolve-on-demand source fronted by a bounded cache.
#[derive(Debug)]
enum Space {
    Routed(HashMap<u32, BlockEntry>),
    Procedural { source: Arc<dyn ProfileSource>, cache: ProfileCache<BlockEntry> },
}

/// The simulated address space.
#[derive(Debug)]
pub struct World {
    seed: u64,
    space: Space,
    hosts: HostTable,
    links: Option<LinkLayer>,
    rng: Xoshiro256pp,
    stats: WorldStats,
}

impl Default for World {
    /// An empty seed-0 world — exists so APIs can `std::mem::take` a
    /// `&mut World` (the [`crate::sim::Simulation`] constructor consumes
    /// the world by value).
    fn default() -> Self {
        World::new(0)
    }
}

impl World {
    /// An empty routed world with the given determinism seed and an
    /// unbounded host table.
    pub fn new(seed: u64) -> Self {
        World {
            seed,
            space: Space::Routed(HashMap::new()),
            hosts: HostTable::unbounded(),
            links: None,
            rng: seeded(derive_seed(seed, 0xF17E_AA11)),
            stats: WorldStats::default(),
        }
    }

    /// A procedural world: blocks resolved on demand from `source`, host
    /// state bounded per `lazy`. Because the source is a pure function of
    /// the prefix, neither the profile-cache capacity nor (for workloads
    /// that probe each address at most once) the host bounds can change
    /// results — see [`crate::space`].
    pub fn procedural(seed: u64, source: Arc<dyn ProfileSource>, lazy: &LazyCfg) -> Self {
        World {
            seed,
            space: Space::Procedural { source, cache: ProfileCache::new(lazy.profile_cache) },
            hosts: HostTable::bounded(lazy.host_cap, lazy.quiescence),
            links: None,
            rng: seeded(derive_seed(seed, 0xF17E_AA11)),
            stats: WorldStats::default(),
        }
    }

    /// Builder: bound the host table of any world (panics if hosts were
    /// already materialized — bounds are a construction-time choice).
    pub fn with_host_bounds(mut self, cap: usize, quiescence: Option<SimDuration>) -> Self {
        assert_eq!(self.hosts.len(), 0, "host bounds must be set before the first probe");
        self.hosts = HostTable::bounded(cap, quiescence);
        self
    }

    /// Builder: route probes through a shared link layer, so prefixes
    /// behind the same uplink see correlated queueing delay and
    /// scheduled [`crate::link::LinkEvent`]s.
    pub fn with_links(mut self, cfg: LinkCfg) -> Self {
        self.links = Some(LinkLayer::new(cfg));
        self
    }

    /// Route a /24 block (identified by `addr >> 8`) with the given
    /// behavior. Panics on an invalid profile — scenario bugs should fail
    /// at build time, not during a multi-hour run — and on procedural
    /// worlds, whose space is defined by their source alone.
    pub fn add_block(&mut self, prefix24: u32, profile: Arc<BlockProfile>) {
        if let Err(e) = profile.validate() {
            panic!("invalid BlockProfile for block {prefix24:#08x}: {e}");
        }
        let kind = profile.kind_index();
        match &mut self.space {
            Space::Routed(blocks) => {
                blocks.insert(prefix24, BlockEntry { profile, kind, route: None });
            }
            Space::Procedural { .. } => {
                panic!("add_block on a procedural world: its source defines the space")
            }
        }
    }

    /// The block behind a /24 prefix, resolving (and caching) it on
    /// procedural worlds.
    fn lookup_block(&mut self, prefix24: u32) -> Option<BlockEntry> {
        match &mut self.space {
            Space::Routed(blocks) => blocks.get(&prefix24).cloned(),
            Space::Procedural { source, cache } => cache.get_or_insert_with(prefix24, || {
                source.resolve(prefix24).map(|r| {
                    let kind = r.profile.kind_index();
                    BlockEntry {
                        profile: Arc::new(r.profile),
                        kind,
                        route: Some((r.asn, r.continent)),
                    }
                })
            }),
        }
    }

    /// Resolve without touching the cache — for `&self` accessors; the
    /// source is pure, so this always agrees with [`Self::lookup_block`].
    fn peek_block(&self, prefix24: u32) -> Option<Arc<BlockProfile>> {
        match &self.space {
            Space::Routed(blocks) => blocks.get(&prefix24).map(|b| Arc::clone(&b.profile)),
            Space::Procedural { source, .. } => {
                source.resolve(prefix24).map(|r| Arc::new(r.profile))
            }
        }
    }

    /// Whether a /24 block is routed.
    pub fn has_block(&self, prefix24: u32) -> bool {
        self.peek_block(prefix24).is_some()
    }

    /// Profile of a routed block.
    pub fn block_profile(&self, prefix24: u32) -> Option<Arc<BlockProfile>> {
        self.peek_block(prefix24)
    }

    /// Number of routed blocks.
    pub fn block_count(&self) -> usize {
        match &self.space {
            Space::Routed(blocks) => blocks.len(),
            Space::Procedural { source, .. } => source.routed_blocks(),
        }
    }

    /// Number of host state machines currently resident.
    pub fn hosts_instantiated(&self) -> usize {
        self.hosts.len()
    }

    /// Accumulated counters, including the host-table and link-layer
    /// high-water marks.
    pub fn stats(&self) -> WorldStats {
        let mut s = self.stats;
        s.hosts_evicted = self.hosts.evicted();
        s.hosts_peak = self.hosts.peak() as u64;
        if let Some(layer) = &self.links {
            s.link_drops = layer.drops();
            s.link_queue_peak_us = layer.peak_backlog_us();
        }
        s
    }

    /// True if `addr` hosts a live device (static property).
    pub fn is_live(&self, addr: u32) -> bool {
        match self.peek_block(addr >> 8) {
            Some(profile) => host::is_live(self.seed, &profile, addr),
            None => false,
        }
    }

    /// Deliver a probe; returns the arrivals it causes at the prober.
    pub fn probe(&mut self, pkt: &Packet, now: SimTime) -> Vec<Arrival> {
        self.stats.probes += 1;
        let prefix24 = pkt.dst >> 8;
        let Some(entry) = self.lookup_block(prefix24) else {
            self.stats.unrouted += 1;
            return Vec::new();
        };

        // The probe crosses the shared uplinks before any middlebox or
        // host sees it; whatever they charge delays every response, and a
        // partition or full queue black-holes the probe outright.
        let mut link_extra = SimDuration::from_ns(0);
        if let Some(layer) = &mut self.links {
            let mut path = [LinkId::Access((pkt.dst >> 16) as u16); 3];
            let mut hops = 1;
            if let Some((asn, continent)) = entry.route {
                path[1] = LinkId::Core(asn.0);
                path[2] = LinkId::Spine(continent as u8);
                hops = 3;
            }
            match layer.traverse(&path[..hops], now) {
                Some(extra) => link_extra = extra,
                None => {
                    self.stats.no_response += 1;
                    return Vec::new();
                }
            }
        }

        let mut out = self.probe_behind_links(pkt, now, &entry);
        if link_extra > SimDuration::from_ns(0) {
            for a in &mut out {
                a.at += link_extra;
            }
        }
        out
    }

    /// The probe → responses transfer function past the link layer:
    /// middleboxes, broadcast fan-out, and the destination host itself.
    fn probe_behind_links(
        &mut self,
        pkt: &Packet,
        now: SimTime,
        entry: &BlockEntry,
    ) -> Vec<Arrival> {
        let kind = entry.kind;
        let profile = Arc::clone(&entry.profile);

        // A TCP-answering middlebox intercepts before the host sees it.
        if let (L4::Tcp(tcp), Some(fw)) = (&pkt.l4, &profile.firewall) {
            if tcp.flags.ack && !tcp.flags.syn && !tcp.flags.rst {
                let delay = fw.rst_delay.sample(&mut self.rng).max(0.001);
                let rst = Packet {
                    src: pkt.dst,
                    dst: pkt.src,
                    ttl: fw.ttl,
                    l4: L4::Tcp(tcp.rst_reply()),
                };
                self.stats.responses += 1;
                self.stats.firewall_rsts += 1;
                self.stats.responses_by_profile[kind] += 1;
                return vec![Arrival { at: now + SimDuration::from_secs_f64(delay), pkt: rst }];
            }
        }

        // Broadcast destinations solicit responses from subnet neighbors.
        if let Some(bcast) = &profile.broadcast {
            let hb = u32::from(profile.subnet_host_bits);
            let is_bcast = beware_wire::addr::is_subnet_broadcast(pkt.dst, hb);
            let is_net =
                bcast.network_addr_responds && beware_wire::addr::is_subnet_network(pkt.dst, hb);
            if is_bcast || is_net {
                let out = self.broadcast_responses(pkt, now, &profile);
                if out.is_empty() {
                    self.stats.no_response += 1;
                } else {
                    self.stats.responses_by_profile[kind] += out.len() as u64;
                }
                return out;
            }
        }

        // Ordinary unicast delivery. Unicast-silent broadcast responders
        // never answer probes aimed directly at them.
        if !host::is_live(self.seed, &profile, pkt.dst)
            || host::broadcast_unicast_silent(self.seed, &profile, pkt.dst)
        {
            self.stats.no_response += 1;
            return Vec::new();
        }
        let seed = self.seed;
        let state =
            self.hosts.entry_with(pkt.dst, now, || HostState::new(seed, &profile, pkt.dst, now));
        let responses = state.respond(&profile, now);
        let ttl = state.recv_ttl;
        let mut out = Vec::with_capacity(responses.len());
        for r in responses {
            if let Some(reply) = Self::synthesize(pkt, pkt.dst, ttl, r.kind) {
                out.push(Arrival {
                    at: now + SimDuration::from_secs_f64(r.delay_secs),
                    pkt: reply,
                });
            }
        }
        if out.is_empty() {
            self.stats.no_response += 1;
        } else {
            self.stats.responses_by_profile[kind] += out.len() as u64;
        }
        self.stats.responses += out.len() as u64;
        out
    }

    /// Responses to a probe aimed at a broadcast (or network) address:
    /// every configured responder in the subnet answers *from its own
    /// address* — "no device should send an echo response with the source
    /// address that is the broadcast destination".
    fn broadcast_responses(
        &mut self,
        pkt: &Packet,
        now: SimTime,
        profile: &Arc<BlockProfile>,
    ) -> Vec<Arrival> {
        // Broadcast semantics only exist for ICMP echo.
        let is_echo = matches!(&pkt.l4, L4::Icmp { kind: IcmpKind::EchoRequest { .. }, .. });
        if !is_echo {
            return Vec::new();
        }
        let hb = u32::from(profile.subnet_host_bits);
        let size = 1u32 << hb;
        let base = pkt.dst & !(size - 1);
        let mut out = Vec::new();
        for addr in base..base + size {
            if addr == pkt.dst
                || !host::is_live(self.seed, profile, addr)
                || !host::answers_broadcast(self.seed, profile, addr)
            {
                continue;
            }
            // Responders answer from ephemeral state that is never entered
            // into the host table: a broadcast fan-out must not couple one
            // address's observable behavior to another address's table
            // residency, or single-probe sweeps would stop being invariant
            // under the host-cap setting (an evicted-then-recreated
            // neighbor would see a fresh rng stream while a resident one
            // continues its advanced stream).
            let mut state = HostState::new(self.seed, profile, addr, now);
            for r in state.respond(profile, now) {
                // Broadcast responses are echo replies from the neighbor.
                if r.kind == Reply::Normal {
                    if let Some(mut reply) = pkt.echo_reply_from(addr) {
                        reply.ttl = state.recv_ttl;
                        out.push(Arrival {
                            at: now + SimDuration::from_secs_f64(r.delay_secs),
                            pkt: reply,
                        });
                    }
                }
            }
        }
        self.stats.responses += out.len() as u64;
        self.stats.broadcast_responses += out.len() as u64;
        out
    }

    /// Build the concrete response packet for a host reply.
    fn synthesize(probe: &Packet, responder: u32, ttl: u8, kind: Reply) -> Option<Packet> {
        match kind {
            Reply::Normal => match &probe.l4 {
                L4::Icmp { kind: IcmpKind::EchoRequest { .. }, .. } => {
                    let mut reply = probe.echo_reply_from(responder)?;
                    reply.ttl = ttl;
                    Some(reply)
                }
                L4::Icmp { .. } => None,
                L4::Udp { .. } => Some(Packet {
                    src: responder,
                    dst: probe.src,
                    ttl,
                    l4: L4::Icmp {
                        // Port unreachable, quoting the original datagram.
                        kind: IcmpKind::DestUnreachable { code: 3 },
                        payload: quote(probe),
                    },
                }),
                L4::Tcp(tcp) => Some(Packet {
                    src: responder,
                    dst: probe.src,
                    ttl,
                    l4: L4::Tcp(tcp.rst_reply()),
                }),
            },
            Reply::Error => {
                // Host unreachable from the block gateway.
                let gateway = (probe.dst & 0xffff_ff00) | 1;
                Some(Packet {
                    src: gateway,
                    dst: probe.src,
                    ttl: 250,
                    l4: L4::Icmp {
                        kind: IcmpKind::DestUnreachable { code: 1 },
                        payload: quote(probe),
                    },
                })
            }
        }
    }
}

/// RFC 792 quotation: the original IP header plus the first 8 payload
/// bytes, which is what real errors carry and all a prober may rely on.
fn quote(probe: &Packet) -> Vec<u8> {
    let mut bytes = probe.encode();
    bytes.truncate(beware_wire::ipv4::HEADER_LEN + 8);
    bytes
}

/// Recover the original destination address from an ICMP error quotation
/// produced by `quote` (or any RFC 792-conforming stack).
pub fn quoted_destination(quoted: &[u8]) -> Option<u32> {
    if quoted.len() < beware_wire::ipv4::HEADER_LEN {
        return None;
    }
    // The quotation may be truncated below what Ipv4Packet::parse demands
    // (it checks total length), so read the destination field directly
    // after sanity-checking version/IHL.
    if quoted[0] >> 4 != 4 {
        return None;
    }
    Some(u32::from_be_bytes([quoted[16], quoted[17], quoted[18], quoted[19]]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{BroadcastCfg, DosCfg, FirewallCfg};
    use crate::rng::Dist;
    use beware_wire::tcp::{TcpFlags, TcpRepr};

    const PROBER: u32 = 0x0101_0101;

    fn t(secs: f64) -> SimTime {
        SimTime::EPOCH + SimDuration::from_secs_f64(secs)
    }

    fn dense_profile() -> BlockProfile {
        BlockProfile {
            base_rtt: Dist::Constant(0.05),
            jitter: Dist::Constant(0.0),
            density: 1.0,
            response_prob: 1.0,
            error_prob: 0.0,
            dup_prob: 0.0,
            ..Default::default()
        }
    }

    fn world_with(profile: BlockProfile) -> World {
        let mut w = World::new(7);
        w.add_block(0x0a0000, Arc::new(profile));
        w
    }

    #[test]
    fn unicast_echo_round_trip() {
        let mut w = world_with(dense_profile());
        let probe = Packet::echo_request(PROBER, 0x0a000010, 9, 1, vec![0xab; 24]);
        let arrivals = w.probe(&probe, t(1.0));
        assert_eq!(arrivals.len(), 1);
        let a = &arrivals[0];
        assert_eq!(a.pkt.src, 0x0a000010);
        assert_eq!(a.pkt.dst, PROBER);
        assert_eq!(a.at, t(1.05));
        match &a.pkt.l4 {
            L4::Icmp { kind, payload } => {
                assert_eq!(*kind, IcmpKind::EchoReply { ident: 9, seq: 1 });
                assert_eq!(payload, &vec![0xab; 24]);
            }
            _ => panic!("expected icmp"),
        }
        assert_eq!(w.stats().responses, 1);
    }

    #[test]
    fn unrouted_space_is_silent() {
        let mut w = world_with(dense_profile());
        let probe = Packet::echo_request(PROBER, 0x0b000010, 9, 1, vec![]);
        assert!(w.probe(&probe, t(1.0)).is_empty());
        assert_eq!(w.stats().unrouted, 1);
    }

    #[test]
    fn broadcast_probe_draws_neighbor_responses() {
        let profile = BlockProfile {
            broadcast: Some(BroadcastCfg {
                responder_prob: 1.0,
                edge_responder_prob: 1.0,
                unicast_silent_prob: 0.0,
                network_addr_responds: true,
            }),
            ..dense_profile()
        };
        let mut w = world_with(profile);
        let bcast = Packet::echo_request(PROBER, 0x0a0000ff, 9, 1, vec![1, 2, 3]);
        let arrivals = w.probe(&bcast, t(0.0));
        // All live hosts (254 of them: .0 and .255 excluded) respond, each
        // from its own address, never from the broadcast address.
        assert_eq!(arrivals.len(), 254);
        assert!(arrivals.iter().all(|a| a.pkt.src != 0x0a0000ff));
        let srcs: std::collections::HashSet<u32> = arrivals.iter().map(|a| a.pkt.src).collect();
        assert_eq!(srcs.len(), 254);
        assert_eq!(w.stats().broadcast_responses, 254);
        // The payload (with the embedded original destination) is echoed.
        match &arrivals[0].pkt.l4 {
            L4::Icmp { payload, .. } => assert_eq!(payload, &vec![1, 2, 3]),
            _ => panic!(),
        }
    }

    #[test]
    fn network_address_responds_only_when_configured() {
        let profile = BlockProfile {
            broadcast: Some(BroadcastCfg {
                responder_prob: 1.0,
                edge_responder_prob: 1.0,
                unicast_silent_prob: 0.0,
                network_addr_responds: false,
            }),
            ..dense_profile()
        };
        let mut w = world_with(profile);
        let net = Packet::echo_request(PROBER, 0x0a000000, 9, 1, vec![]);
        // .0 is not a live host and network-addr broadcast is off: silent.
        assert!(w.probe(&net, t(0.0)).is_empty());
    }

    #[test]
    fn subnetted_block_has_multiple_broadcast_addrs() {
        let profile = BlockProfile {
            subnet_host_bits: 6, // /26 subnets: .63, .127, .191, .255
            broadcast: Some(BroadcastCfg {
                responder_prob: 1.0,
                edge_responder_prob: 1.0,
                unicast_silent_prob: 0.0,
                network_addr_responds: false,
            }),
            ..dense_profile()
        };
        let mut w = world_with(profile);
        for bcast_octet in [63u32, 127, 191, 255] {
            let probe = Packet::echo_request(PROBER, 0x0a000000 + bcast_octet, 9, 1, vec![]);
            let arrivals = w.probe(&probe, t(0.0));
            // 62 live neighbors per /26 (bcast + network excluded).
            assert_eq!(arrivals.len(), 62, "octet {bcast_octet}");
            // Responders come from the same /26.
            assert!(arrivals.iter().all(|a| a.pkt.src >> 6 == (0x0a000000 + bcast_octet) >> 6));
        }
        // An interior address is a normal host.
        let probe = Packet::echo_request(PROBER, 0x0a000005, 9, 1, vec![]);
        assert_eq!(w.probe(&probe, t(0.0)).len(), 1);
    }

    #[test]
    fn firewall_intercepts_tcp_ack_with_constant_ttl() {
        let profile = BlockProfile {
            firewall: Some(FirewallCfg { rst_delay: Dist::Constant(0.2), ttl: 243 }),
            ..dense_profile()
        };
        let mut w = world_with(profile);
        let ack = Packet {
            src: PROBER,
            dst: 0x0a000020,
            ttl: 64,
            l4: L4::Tcp(TcpRepr {
                src_port: 40000,
                dst_port: 80,
                seq: 5,
                ack_no: 77,
                flags: TcpFlags::ACK,
                window: 1024,
            }),
        };
        for dst in [0x0a000020u32, 0x0a000021, 0x0a0000f0] {
            let mut probe = ack.clone();
            probe.dst = dst;
            let arrivals = w.probe(&probe, t(0.0));
            assert_eq!(arrivals.len(), 1);
            assert_eq!(arrivals[0].pkt.ttl, 243, "constant fw TTL");
            assert_eq!(arrivals[0].at, t(0.2));
            match &arrivals[0].pkt.l4 {
                L4::Tcp(r) => {
                    assert!(r.flags.rst);
                    assert_eq!(r.seq, 77);
                }
                _ => panic!("expected tcp"),
            }
        }
        assert_eq!(w.stats().firewall_rsts, 3);
        // ICMP passes through the firewall to the host.
        let echo = Packet::echo_request(PROBER, 0x0a000020, 1, 1, vec![]);
        let arrivals = w.probe(&echo, t(10.0));
        assert_eq!(arrivals.len(), 1);
        assert_ne!(arrivals[0].pkt.ttl, 243);
    }

    #[test]
    fn udp_probe_draws_port_unreachable_with_quote() {
        let mut w = world_with(dense_profile());
        let probe = Packet {
            src: PROBER,
            dst: 0x0a000030,
            ttl: 64,
            l4: L4::Udp { src_port: 44444, dst_port: 33435, payload: vec![7; 16] },
        };
        let arrivals = w.probe(&probe, t(0.0));
        assert_eq!(arrivals.len(), 1);
        match &arrivals[0].pkt.l4 {
            L4::Icmp { kind: IcmpKind::DestUnreachable { code: 3 }, payload } => {
                assert_eq!(payload.len(), 28);
                assert_eq!(quoted_destination(payload), Some(0x0a000030));
            }
            other => panic!("expected port unreachable, got {other:?}"),
        }
    }

    #[test]
    fn tcp_ack_to_host_draws_rst_with_host_ttl() {
        let mut w = world_with(dense_profile());
        let probe = Packet {
            src: PROBER,
            dst: 0x0a000031,
            ttl: 64,
            l4: L4::Tcp(TcpRepr {
                src_port: 40000,
                dst_port: 80,
                seq: 1,
                ack_no: 2,
                flags: TcpFlags::ACK,
                window: 64,
            }),
        };
        let a = w.probe(&probe, t(0.0));
        assert_eq!(a.len(), 1);
        match &a[0].pkt.l4 {
            L4::Tcp(r) => assert!(r.flags.rst),
            _ => panic!(),
        }
    }

    #[test]
    fn error_reply_comes_from_gateway() {
        let profile = BlockProfile { error_prob: 1.0, ..dense_profile() };
        let mut w = world_with(profile);
        let probe = Packet::echo_request(PROBER, 0x0a000040, 1, 1, vec![]);
        let a = w.probe(&probe, t(0.0));
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].pkt.src, 0x0a000001);
        match &a[0].pkt.l4 {
            L4::Icmp { kind: IcmpKind::DestUnreachable { code: 1 }, payload } => {
                assert_eq!(quoted_destination(payload), Some(0x0a000040));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn reflector_flood_counts_in_stats() {
        let profile = BlockProfile {
            dos: Some(DosCfg {
                addr_prob: 1.0,
                count: Dist::Constant(50.0),
                max_responses: 1000,
                spread_secs: 1.0,
            }),
            ..dense_profile()
        };
        let mut w = world_with(profile);
        let probe = Packet::echo_request(PROBER, 0x0a000055, 1, 1, vec![]);
        let a = w.probe(&probe, t(0.0));
        assert_eq!(a.len(), 50);
        assert_eq!(w.stats().responses, 50);
    }

    #[test]
    fn same_seed_same_trace() {
        let run = || {
            let mut w = world_with(BlockProfile {
                jitter: Dist::Exponential { mean: 0.01 },
                ..dense_profile()
            });
            let mut arrivals = Vec::new();
            for i in 0..64u32 {
                let probe =
                    Packet::echo_request(PROBER, 0x0a000000 + (i % 250) + 2, 1, i as u16, vec![]);
                arrivals.extend(w.probe(&probe, t(f64::from(i))));
            }
            arrivals
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn hosts_instantiated_lazily() {
        let mut w = world_with(dense_profile());
        assert_eq!(w.hosts_instantiated(), 0);
        let probe = Packet::echo_request(PROBER, 0x0a000010, 1, 1, vec![]);
        w.probe(&probe, t(0.0));
        assert_eq!(w.hosts_instantiated(), 1);
        w.probe(&probe, t(1.0));
        assert_eq!(w.hosts_instantiated(), 1);
    }

    #[test]
    fn no_response_and_per_profile_counters() {
        // Sparse block: most addresses are dead → routed silence.
        let profile = BlockProfile { density: 0.0, ..dense_profile() };
        let mut w = world_with(profile);
        let probe = Packet::echo_request(PROBER, 0x0a000010, 9, 1, vec![]);
        assert!(w.probe(&probe, t(0.0)).is_empty());
        assert_eq!(w.stats().no_response, 1);
        // Unrouted space counts separately.
        let stray = Packet::echo_request(PROBER, 0x0b000010, 9, 1, vec![]);
        w.probe(&stray, t(0.0));
        assert_eq!(w.stats().unrouted, 1);
        assert_eq!(w.stats().no_response, 1);

        // A firewall block attributes its RSTs to the firewall kind.
        let mut w = world_with(BlockProfile {
            firewall: Some(FirewallCfg { rst_delay: Dist::Constant(0.2), ttl: 243 }),
            ..dense_profile()
        });
        let ack = Packet {
            src: PROBER,
            dst: 0x0a000020,
            ttl: 64,
            l4: L4::Tcp(TcpRepr {
                src_port: 40000,
                dst_port: 80,
                seq: 5,
                ack_no: 77,
                flags: TcpFlags::ACK,
                window: 1024,
            }),
        };
        w.probe(&ack, t(0.0));
        let kind = crate::profile::PROFILE_KINDS.iter().position(|&k| k == "firewall").unwrap();
        assert_eq!(w.stats().responses_by_profile[kind], 1);

        // Delta recording only reports what the second probe added.
        let before = w.stats();
        w.probe(&ack, t(1.0));
        let mut reg = beware_telemetry::Registry::new();
        before.record_delta(&w.stats(), &mut reg.scope("netsim"));
        assert_eq!(reg.counter("netsim/probes"), Some(1));
        assert_eq!(reg.counter("netsim/responses_by_profile/firewall"), Some(1));
    }

    #[test]
    fn quoted_destination_rejects_garbage() {
        assert_eq!(quoted_destination(&[0u8; 10]), None);
        assert_eq!(quoted_destination(&[0x65; 28]), None);
    }

    /// The flagship streaming invariant: for a workload that probes each
    /// address at most once, a tightly bounded host table produces the
    /// exact same arrivals as an unbounded one — evicted state is never
    /// read again, so eviction cannot show.
    #[test]
    fn single_probe_sweep_is_invariant_under_host_bounds() {
        let sweep = |world: &mut World| {
            let mut arrivals = Vec::new();
            for i in 0..256u32 {
                let probe = Packet::echo_request(PROBER, 0x0a000000 + i, 1, i as u16, vec![]);
                arrivals.extend(world.probe(&probe, t(f64::from(i) * 0.01)));
            }
            arrivals
        };
        let profile = BlockProfile { jitter: Dist::Exponential { mean: 0.02 }, ..dense_profile() };
        let mut unbounded = world_with(profile.clone());
        let mut bounded = world_with(profile).with_host_bounds(8, None);

        assert_eq!(sweep(&mut unbounded), sweep(&mut bounded));
        let (u, b) = (unbounded.stats(), bounded.stats());
        assert_eq!((u.probes, u.responses, u.no_response), (b.probes, b.responses, b.no_response));
        assert_eq!(u.hosts_evicted, 0);
        assert!(b.hosts_evicted > 200, "cap 8 over 254 hosts must evict continuously");
        assert!(b.hosts_peak <= 8, "peak residency respects the cap, got {}", b.hosts_peak);
        assert!(bounded.hosts_instantiated() <= 8);
    }

    /// Degrading one shared access link inflates delay for *every* host
    /// behind that /16 — and leaves hosts behind other links untouched.
    #[test]
    fn degraded_access_link_correlates_delay_across_its_hosts() {
        use crate::link::{LinkEvent, LinkEventKind};
        let cfg = LinkCfg {
            events: vec![LinkEvent {
                link: LinkId::Access(0x0a00),
                at_secs: 10.0,
                until_secs: f64::INFINITY,
                // 25k pps → 2.5 pps: ~0.4 s per packet of added service.
                kind: LinkEventKind::Degrade { capacity_scale: 1e-4 },
            }],
            ..LinkCfg::default()
        };
        let mut w = World::new(7).with_links(cfg);
        w.add_block(0x0a0000, Arc::new(dense_profile()));
        w.add_block(0x0b0000, Arc::new(dense_profile()));

        let rtt = |w: &mut World, addr: u32, at: SimTime| -> f64 {
            let probe = Packet::echo_request(PROBER, addr, 1, 1, vec![]);
            let arrivals = w.probe(&probe, at);
            assert_eq!(arrivals.len(), 1, "{addr:#010x}");
            arrivals[0].at.saturating_since(at).as_secs_f64()
        };

        // Before the event both /16s answer in ~base RTT + ~40 µs service.
        for (i, addr) in [0x0a000010u32, 0x0a0000c0, 0x0b000010].iter().enumerate() {
            let d = rtt(&mut w, *addr, t(f64::from(i as u32)));
            assert!(d < 0.06, "pre-event RTT inflated at {addr:#010x}: {d}");
        }
        // After: every host behind Access(0x0a00) is slow, not just one.
        for addr in [0x0a000011u32, 0x0a0000c1, 0x0a0000f7] {
            let d = rtt(&mut w, addr, t(20.0));
            assert!(d > 0.2, "degrade must inflate {addr:#010x}, got {d}");
        }
        // The sibling /16 rides an unaffected link.
        let d = rtt(&mut w, 0x0b000011, t(20.0));
        assert!(d < 0.06, "0x0b hosts must be unaffected, got {d}");
        assert!(w.stats().link_queue_peak_us > 0);
    }
}
