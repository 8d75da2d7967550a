//! In-sim serving campaign: the oracle server and up to a million
//! closed-loop clients inside the deterministic netsim — zero sockets,
//! zero real sleeps.
//!
//! This is the payoff of two seams built for it:
//!
//! * the **scheduler seam** (netsim's event loop runs on
//!   `beware_runtime::TimerQueue` and drives a `SimClock`): the serve
//!   [`Engine`] stamps request latency through
//!   [`Ctx::clock`](beware_netsim::Ctx::clock) and observes the simulated
//!   timeline, and every client's timeout is a genuinely cancellable
//!   wheel timer ([`Ctx::cancel_timer`](beware_netsim::Ctx)) — set when
//!   the query departs, cancelled when the answer lands, exactly the
//!   pattern the paper says real probers get wrong;
//! * the **transport seam** (`beware_serve::engine`): the very same
//!   protocol state machine the epoll server runs is hosted here over
//!   [`ChannelTransport`] byte queues, so campaign conclusions transfer
//!   to the socket server.
//!
//! Following `fullspace`, the campaign is decomposed into fixed **cells**
//! of `2^cell_bits` clients. A cell is one single-threaded netsim
//! [`Simulation`]: one engine shard plus its clients, connected by
//! in-memory channels, with request/reply bytes delayed by the shared
//! three-tier link layer ([`LinkLayer`]) — an access link per client
//! /16, an aggregation link per /20, one spine. The cell decomposition
//! is part of the campaign's identity; worker threads only decide which
//! cells run concurrently, and per-cell results (all `u64` arithmetic)
//! merge in cell order — so the deterministic summary is byte-identical
//! for any `--threads` and across repeat runs.
//!
//! Faults are **topology events**, not byte mangling: `--partition`
//! black-holes every eighth access link during the middle fifth of the
//! campaign (`beware_faultsim::topology::mid_campaign_partitions`).
//! Queries in flight across a dead link are dropped by
//! `LinkLayer::traverse`, the clients' timeouts fire, and the acceptance
//! bar is the chaos suite's: bounded error rates, zero wrong answers.
//! In snapshot mode every delivered answer is compared **bit for bit**
//! against a direct `Oracle::lookup`; `--policy` serves an online
//! estimator instead (fed by the clients' own measured RTTs via `Report`
//! frames) and validates answers for sane bounds.

use beware_faultsim::topology::mid_campaign_partitions;
use beware_netsim::link::{LinkCfg, LinkId, LinkLayer};
use beware_netsim::time::{SimDuration, SimTime};
use beware_netsim::world::World;
use beware_netsim::{run_tasks, Agent, Ctx, Packet, Simulation, TimerId};
use beware_policy::PolicyKind;
use beware_runtime::reactor::StopSignal;
use beware_serve::engine::{channel_pair, ChannelPeer, ChannelTransport, Conn, Engine, EngineCore};
use beware_serve::machine::{AfterTimeout, ClientMachine, Outcome, Reply};
use beware_serve::oracle::Oracle;
use beware_serve::proto::Message;
use beware_serve::{build_snapshot, SnapshotCfg};
use beware_telemetry::Registry;
use std::collections::BTreeMap;
use std::sync::Arc;

/// First client address: clients occupy `10.0.0.0/8` upward.
const CLIENT_BASE: u32 = 0x0a00_0000;

/// `/24`s covered by their own snapshot entry — every *other* `/24` of
/// the first [`COVERED_SLASH24`]·2, so even small campaigns exercise
/// both exact and byte-exact *fallback* answers (the validator checks
/// both the same way).
const COVERED_SLASH24: u32 = 64;

/// One-way propagation floor per direction, before link queueing.
const PROP_ONE_WAY: SimDuration = SimDuration::from_millis(10);

/// Floor on the dog-fooded client timeout: a served recommendation below
/// the network's own floor would self-DoS the campaign.
const MIN_CLIENT_TIMEOUT_SECS: f64 = 0.1;

/// Timeout applied before the first answer arrives (matches the policy
/// plane's boot value).
const INITIAL_TIMEOUT_SECS: f64 = 1.0;

/// Per-connection output bound, mirroring the socket server's default.
const OUT_QUEUE_CAP: usize = 64 * 1024;

/// Percentile pairs the clients cycle through — all on the snapshot's
/// paper grid, biased toward the high-coverage corner the paper cares
/// about.
const PCT_PAIRS: [(u16, u16); 4] = [(500, 500), (900, 950), (950, 990), (990, 980)];

/// Log₂ RTT histogram buckets (microseconds).
const RTT_BUCKETS: usize = 40;

/// Demand regime the closed-loop clients replay (names shared with the
/// policy shootout's scenario matrix).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    /// Stationary think time.
    Steady,
    /// A permanent 4× demand surge at half the campaign.
    CovidStep,
    /// Think time swings ±50% on a triangle wave (two periods per
    /// campaign) — sin-free so the summary stays bit-stable.
    DiurnalDrift,
}

impl Regime {
    /// Parse the CLI spelling.
    pub fn from_name(name: &str) -> Option<Regime> {
        match name {
            "steady" => Some(Regime::Steady),
            "covid_step" => Some(Regime::CovidStep),
            "diurnal_drift" => Some(Regime::DiurnalDrift),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            Regime::Steady => "steady",
            Regime::CovidStep => "covid_step",
            Regime::DiurnalDrift => "diurnal_drift",
        }
    }
}

/// In-sim campaign parameters. Everything except `threads` is part of
/// the campaign's identity.
#[derive(Debug, Clone)]
pub struct SimServeCfg {
    /// Simulated closed-loop clients.
    pub clients: u64,
    /// Queries each client attempts (a timeout consumes an attempt).
    pub queries_per_client: u32,
    /// Clients per cell = `2^cell_bits`; fixed decomposition, part of
    /// the campaign identity (unlike `threads`).
    pub cell_bits: u32,
    /// Campaign seed (engine/link wobble derivation).
    pub seed: u64,
    /// Demand regime.
    pub regime: Regime,
    /// Partition every eighth access link mid-campaign.
    pub partition: bool,
    /// Base think time between one client's queries, microseconds.
    pub interval_us: u64,
    /// Worker threads (1 = serial reference run).
    pub threads: usize,
    /// `None` = snapshot mode with bit-exact validation; `Some` = the
    /// online estimator, validated for bounds.
    pub policy: Option<PolicyKind>,
}

impl Default for SimServeCfg {
    fn default() -> Self {
        SimServeCfg {
            clients: 1_000_000,
            queries_per_client: 2,
            cell_bits: 16,
            seed: 0x1511_0b5e,
            regime: Regime::Steady,
            partition: false,
            interval_us: 1_000_000,
            threads: 1,
            policy: None,
        }
    }
}

impl SimServeCfg {
    /// Nominal campaign span: the regime and partition windows are
    /// defined over it.
    fn duration_secs(&self) -> f64 {
        f64::from(self.queries_per_client) * self.interval_us as f64 / 1e6
    }
}

/// Build the campaign's oracle: distinct per-/24 tables for the first
/// `COVERED_SLASH24` client blocks, fallback for the rest. Pure
/// function of nothing — the snapshot is fixed so `Exact`/`Fallback`
/// splits are part of the campaign identity.
pub fn campaign_oracle() -> Oracle {
    let mut samples = BTreeMap::new();
    for p in 0..COVERED_SLASH24 {
        // Mostly-fast with a slow tail whose height grows with the
        // prefix index, so high-coverage cells differ per /24.
        let mut v = vec![0.05 + f64::from(p) * 0.002; 45];
        v.extend(vec![0.8 + f64::from(p) * 0.05; 5]);
        samples
            .insert(CLIENT_BASE | ((2 * p) << 8) | 1, beware_core::LatencySamples::from_values(v));
    }
    let cfg = SnapshotCfg { min_addresses: 1, ..SnapshotCfg::default() };
    let snap = build_snapshot(&samples, &cfg).expect("campaign snapshot builds");
    Oracle::from_snapshot(snap).expect("campaign oracle builds")
}

/// The three-tier path a client's bytes traverse (each direction):
/// access per /16, aggregation per /20, one spine.
fn path_of(addr: u32) -> [LinkId; 3] {
    [LinkId::Access((addr >> 16) as u16), LinkId::Core(addr >> 12 & 0xf_ff00), LinkId::Spine(0)]
}

/// Timer-token kinds; the low 32 bits carry the cell-local client index.
const FIRE: u64 = 0 << 32;
const SERVER_RX: u64 = 1 << 32;
const CLIENT_RX: u64 = 2 << 32;
const TIMEOUT: u64 = 3 << 32;
const KIND_MASK: u64 = 0xffff_ffff_0000_0000;

/// One client's closed loop: the client machine plus the cell's timers.
#[derive(Debug)]
struct Client {
    addr: u32,
    attempts_left: u32,
    attempt: u32,
    /// Dog-fooded timeout: the last served recommendation (floored).
    timeout_secs: f64,
    /// Last measured RTT, reported to the policy plane with the next query.
    last_rtt_us: Option<u64>,
    /// The protocol half, under [`AfterTimeout::Drain`].
    machine: ClientMachine,
    /// The cancellable timeout — set at send, cancelled on answer.
    timeout_timer: Option<TimerId>,
    /// The in-flight network delivery (request or reply leg).
    net_timer: Option<TimerId>,
}

impl Client {
    /// The `(addr_pct, ping_pct)` pair of attempt number `attempt`.
    fn pct_pair(&self, attempt: u32) -> (u16, u16) {
        PCT_PAIRS[(self.addr as usize + attempt as usize) % PCT_PAIRS.len()]
    }
}

/// One cell: the engine shard plus its clients, driven as a netsim
/// agent. All per-client work is dispatched through wheel timers whose
/// tokens encode `(kind, client)`.
///
/// No client holds bytes of its own. A request is encoded into the
/// cell's scratch buffer when it departs and queued on the channel only
/// if the link carries it; the engine reads it when it *arrives* at the
/// server. The reply waits in the channel's outbound queue until it
/// arrives back at the client; a reply the link drops, or anything a
/// timed-out client gives up on, is discarded.
struct CellAgent {
    cfg: SimServeCfg,
    core: EngineCore,
    engine: Option<Engine>,
    links: LinkLayer,
    conns: Vec<Conn<ChannelTransport>>,
    peers: Vec<ChannelPeer>,
    clients: Vec<Client>,
    oracle: Arc<Oracle>,
    /// Request bytes of the departure being handled.
    scratch: Vec<u8>,
    /// This cell's counters (`u64` arithmetic), merged in cell order.
    out: SimServeReport,
}

impl CellAgent {
    fn new(cfg: &SimServeCfg, oracle: &Arc<Oracle>, cell: u64) -> CellAgent {
        let first = cell << cfg.cell_bits;
        let count = (cfg.clients - first).min(1u64 << cfg.cell_bits) as usize;
        let mut conns = Vec::with_capacity(count);
        let mut peers = Vec::with_capacity(count);
        let mut clients = Vec::with_capacity(count);
        for i in 0..count {
            let addr = CLIENT_BASE + (first + i as u64) as u32;
            let (transport, peer) = channel_pair();
            conns.push(Conn::new(i as u64, transport));
            peers.push(peer);
            clients.push(Client {
                addr,
                attempts_left: cfg.queries_per_client,
                attempt: 0,
                timeout_secs: INITIAL_TIMEOUT_SECS,
                last_rtt_us: None,
                machine: ClientMachine::new(AfterTimeout::Drain),
                timeout_timer: None,
                net_timer: None,
            });
        }
        // Generous tier capacities: this campaign studies partitions and
        // timeout hygiene, not congestion collapse — fullspace covers
        // queueing. Service times still accrue per packet.
        let mut link_cfg = LinkCfg {
            seed: cfg.seed,
            access_pps: 1_000_000.0,
            core_pps: 5_000_000.0,
            spine_pps: 20_000_000.0,
            ..LinkCfg::default()
        };
        if cfg.partition {
            // Every eighth /16 of the whole campaign loses its access
            // link mid-run; collect the /16s this cell's clients span.
            let lo = (CLIENT_BASE + first as u32) >> 16;
            let hi = (CLIENT_BASE + first as u32 + count as u32 - 1) >> 16;
            let targets: Vec<LinkId> = (lo..=hi)
                .filter(|p16| p16 % 8 == 0)
                .map(|p16| LinkId::Access(p16 as u16))
                .collect();
            link_cfg.events = mid_campaign_partitions(&targets, cfg.duration_secs());
        }
        let core =
            EngineCore::new(Arc::clone(oracle), Arc::new(StopSignal::new()), cfg.policy, None);
        CellAgent {
            cfg: cfg.clone(),
            core,
            engine: None,
            links: LinkLayer::new(link_cfg),
            conns,
            peers,
            clients,
            oracle: Arc::clone(oracle),
            scratch: Vec::new(),
            out: SimServeReport::empty(cfg),
        }
    }

    /// Regime-modulated think time at `now`.
    fn think_time(&self, now: SimTime) -> SimDuration {
        let base_us = self.cfg.interval_us;
        let us = match self.cfg.regime {
            Regime::Steady => base_us,
            Regime::CovidStep => {
                if now.as_secs_f64() >= self.cfg.duration_secs() * 0.5 {
                    (base_us / 4).max(1)
                } else {
                    base_us
                }
            }
            Regime::DiurnalDrift => {
                // Two triangle periods per campaign, factor in
                // [0.5, 1.5] — pure +/*, no libm.
                let period = (self.cfg.duration_secs() * 0.5).max(1e-9);
                let frac = (now.as_secs_f64() / period).fract();
                let tri = 1.0 - (2.0 * frac - 1.0).abs();
                ((base_us as f64) * (0.5 + tri)) as u64
            }
        };
        SimDuration::from_ns(us.max(1).saturating_mul(1_000))
    }

    /// Resolve one attempt and either rearm the client or retire it.
    fn next_attempt(&mut self, i: usize, ctx: &mut Ctx<'_>) {
        if self.clients[i].attempts_left > 0 {
            let at = ctx.now() + self.think_time(ctx.now());
            ctx.set_timer(at, FIRE | i as u64);
        }
    }

    fn fire(&mut self, i: usize, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let c = &mut self.clients[i];
        debug_assert!(c.attempts_left > 0, "fired with no attempts left");
        c.attempts_left -= 1;
        let (r, p) = c.pct_pair(c.attempt);
        c.attempt += 1;
        // In policy mode a Report of the last RTT rides ahead of the Query.
        self.scratch.clear();
        if let (Some(rtt_us), Some(_)) = (c.last_rtt_us, self.cfg.policy) {
            let rtt_us = rtt_us.min(u64::from(u32::MAX)) as u32;
            c.machine.feedback(c.addr, rtt_us, &mut self.scratch);
            self.out.reports_sent += 1;
        }
        self.out.queries_sent += 1;
        let query = Message::Query { addr: c.addr, addr_pct_tenths: r, ping_pct_tenths: p };
        let timeout = SimDuration::from_secs_f64(c.timeout_secs);
        let sent = c.machine.send(now.into(), timeout.into(), &query, &mut self.scratch);
        let deadline = SimTime::try_from(sent.expect("a draining client is never poisoned"));
        let deadline = deadline.expect("deadlines stay inside the simulated horizon");
        c.timeout_timer = Some(ctx.set_timer(deadline, TIMEOUT | i as u64));
        let addr = c.addr;
        match self.links.traverse(&path_of(addr), now) {
            Some(extra) => {
                self.peers[i].send(&self.scratch);
                let at = now + PROP_ONE_WAY + extra;
                self.clients[i].net_timer = Some(ctx.set_timer(at, SERVER_RX | i as u64));
            }
            None => {
                // Black-holed (partition) or tail-dropped: the timeout
                // timer is now the only thing pending for this client.
                self.out.requests_dropped += 1;
            }
        }
    }

    fn server_rx(&mut self, i: usize, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        self.clients[i].net_timer = None;
        let engine = self.engine.as_mut().expect("engine built at start");
        engine.service(&mut self.conns[i], &mut self.out.registry);
        engine.flush(&mut self.conns[i], &mut self.out.registry);
        if self.peers[i].pending() == 0 {
            return;
        }
        let addr = self.clients[i].addr;
        match self.links.traverse(&path_of(addr), now) {
            Some(extra) => {
                let at = now + PROP_ONE_WAY + extra;
                self.clients[i].net_timer = Some(ctx.set_timer(at, CLIENT_RX | i as u64));
            }
            None => {
                self.out.replies_dropped += 1;
                self.peers[i].discard();
            }
        }
    }

    fn client_rx(&mut self, i: usize, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let c = &mut self.clients[i];
        c.net_timer = None;
        let Some(outcome) = self.peers[i].deliver(&mut c.machine, now.into()) else {
            return; // a partial reply: the timeout is still armed
        };
        // The answer made it: cancel the timeout — this is the wheel
        // cancellation the refactor bought.
        if let Some(id) = c.timeout_timer.take() {
            let cancelled = ctx.cancel_timer(id);
            debug_assert!(cancelled, "reply in hand implies a pending timeout");
        }
        let (served, rtt) = match outcome {
            Outcome::Reply { reply: Ok(Reply::Answer(a)), rtt } => (a, rtt),
            _ => {
                self.out.errors += 1;
                self.next_attempt(i, ctx);
                return;
            }
        };
        let valid = if self.cfg.policy.is_some() {
            // Policy mode: a finite, positive, sane recommendation.
            let secs = served.timeout_secs;
            secs.is_finite() && secs > 0.0 && secs <= 3_600.0
        } else {
            // Snapshot mode: bit-exact against a direct oracle lookup.
            let (r, p) = c.pct_pair(c.attempt - 1);
            let expected = self.oracle.lookup(c.addr, r, p).expect("grid pair resolves");
            served.timeout_bits == expected.timeout_bits
        };
        let rtt_us = u64::try_from(rtt.as_micros()).unwrap_or(u64::MAX);
        if valid {
            self.out.ok += 1;
            self.out.rtt_sum_us += rtt_us;
            self.out.rtt_max_us = self.out.rtt_max_us.max(rtt_us);
            let bucket = (u64::BITS - 1 - (rtt_us | 1).leading_zeros()) as usize;
            self.out.rtt_hist[bucket.min(RTT_BUCKETS - 1)] += 1;
            c.last_rtt_us = Some(rtt_us);
            c.timeout_secs = served.timeout_secs.clamp(MIN_CLIENT_TIMEOUT_SECS, 3_600.0);
        } else {
            self.out.wrong += 1;
        }
        self.next_attempt(i, ctx);
    }

    fn timed_out(&mut self, i: usize, ctx: &mut Ctx<'_>) {
        let c = &mut self.clients[i];
        c.timeout_timer = None;
        c.machine.on_deadline();
        self.out.timeouts += 1;
        // Give up on whatever leg is still in flight — the paper's
        // bounded-listen discipline, applied by the client.
        if let Some(id) = c.net_timer.take() {
            ctx.cancel_timer(id);
            self.out.gave_up_inflight += 1;
        }
        self.peers[i].discard();
        self.next_attempt(i, ctx);
    }
}

impl Agent for CellAgent {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        // The engine stamps time through the simulation's own clock —
        // the scheduler seam in one line.
        self.engine = Some(self.core.engine(ctx.clock(), OUT_QUEUE_CAP));
        // Stagger first queries across one think interval so the cell
        // doesn't fire as a single thundering herd.
        let interval_ns = self.cfg.interval_us.saturating_mul(1_000).max(1);
        let slots = self.clients.len().max(1) as u64;
        for i in 0..self.clients.len() {
            let offset = SimDuration::from_ns(interval_ns * i as u64 / slots);
            ctx.set_timer(SimTime::EPOCH + offset, FIRE | i as u64);
        }
    }

    fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {
        // No world traffic: every byte rides the channel transports.
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        let i = (token & !KIND_MASK) as usize;
        match token & KIND_MASK {
            FIRE => self.fire(i, ctx),
            SERVER_RX => self.server_rx(i, ctx),
            CLIENT_RX => self.client_rx(i, ctx),
            TIMEOUT => self.timed_out(i, ctx),
            _ => unreachable!("unknown timer kind"),
        }
    }
}

/// Campaign results: deterministic counters plus run-specific perf.
#[derive(Debug, Clone, Default)]
pub struct SimServeReport {
    /// The configuration the campaign ran with.
    pub cfg: SimServeCfg,
    /// Query attempts issued across all clients.
    pub queries_sent: u64,
    /// Answers delivered and validated.
    pub ok: u64,
    /// Answers that failed validation (must be 0).
    pub wrong: u64,
    /// Attempts that hit the client's dog-fooded timeout.
    pub timeouts: u64,
    /// Protocol-level failures (unexpected or undecodable frames).
    pub errors: u64,
    /// Requests black-holed by the link layer.
    pub requests_dropped: u64,
    /// Replies black-holed by the link layer.
    pub replies_dropped: u64,
    /// In-flight legs abandoned when the client's timeout fired first.
    pub gave_up_inflight: u64,
    /// `Report` frames fed to the policy plane.
    pub reports_sent: u64,
    /// Sum of validated-answer RTTs, microseconds.
    pub rtt_sum_us: u64,
    /// Slowest validated answer, microseconds.
    pub rtt_max_us: u64,
    /// Log₂ RTT histogram: bucket `i` counts RTTs in `[2^i, 2^(i+1))` µs.
    pub rtt_hist: Vec<u64>,
    /// Oracle queries the engine shards served (from telemetry).
    pub served_queries: u64,
    /// Exact-prefix answers served.
    pub served_exact: u64,
    /// Fallback answers served.
    pub served_fallback: u64,
    /// Simulation events processed across all cells.
    pub sim_events: u64,
    /// Deepest per-cell event queue.
    pub queue_peak: u64,
    /// Packets dropped by the link layer (partitions + tail drops).
    pub link_drops: u64,
    /// Wall-clock seconds of the campaign.
    pub wall_secs: f64,
    /// Merged per-cell telemetry (cell order).
    pub registry: Registry,
}

/// Run the campaign. Spawns `cfg.threads` workers over the fixed cell
/// decomposition; wall-clock aside, the result depends only on the
/// campaign identity.
pub fn run(cfg: &SimServeCfg) -> Result<SimServeReport, String> {
    if cfg.clients == 0 {
        return Err("--clients must be at least 1".into());
    }
    if cfg.queries_per_client == 0 {
        return Err("--queries must be at least 1".into());
    }
    if cfg.cell_bits > 20 {
        return Err(format!("--cell-bits {} too large (max 20)", cfg.cell_bits));
    }
    if cfg.interval_us == 0 {
        return Err("--interval-us must be at least 1".into());
    }
    if cfg.clients > 1u64 << 24 {
        return Err(format!("--clients {} exceeds the 10/8 client space (max 2^24)", cfg.clients));
    }
    let oracle = Arc::new(campaign_oracle());
    let cell_count = cfg.clients.div_ceil(1u64 << cfg.cell_bits);
    let cells: Vec<u64> = (0..cell_count).collect();
    // Hard stop well past the nominal span: think times are at most
    // 1.5× base (diurnal peak) and every attempt resolves within the
    // clamped client timeout, so a cell that hasn't drained by then is
    // a bug, not a long tail.
    let worst = cfg.duration_secs() * 2.0 + f64::from(cfg.queries_per_client) * 3_600.0 + 60.0;
    let deadline = SimTime::EPOCH + SimDuration::from_secs_f64(worst);

    let t0 = std::time::Instant::now();
    let outs = run_tasks(cfg.threads, cells, |_, cell| {
        let agent = CellAgent::new(cfg, &oracle, cell);
        let world = World::new(beware_runtime::rng::derive_seed(cfg.seed, cell));
        let (mut agent, _world, summary) =
            Simulation::new(world, agent).with_deadline(deadline).run();
        agent.out.sim_events = summary.events;
        agent.out.queue_peak = summary.queue_peak;
        agent.out.link_drops = agent.links.drops();
        agent.out
    });

    // Merge in cell order (run_tasks already returns input order).
    let mut r = SimServeReport::empty(cfg);
    r.wall_secs = t0.elapsed().as_secs_f64();
    for out in outs {
        r.queries_sent += out.queries_sent;
        r.ok += out.ok;
        r.wrong += out.wrong;
        r.timeouts += out.timeouts;
        r.errors += out.errors;
        r.requests_dropped += out.requests_dropped;
        r.replies_dropped += out.replies_dropped;
        r.gave_up_inflight += out.gave_up_inflight;
        r.reports_sent += out.reports_sent;
        r.rtt_sum_us += out.rtt_sum_us;
        r.rtt_max_us = r.rtt_max_us.max(out.rtt_max_us);
        for (acc, n) in r.rtt_hist.iter_mut().zip(&out.rtt_hist) {
            *acc += n;
        }
        r.sim_events += out.sim_events;
        r.queue_peak = r.queue_peak.max(out.queue_peak);
        r.link_drops += out.link_drops;
        r.registry.merge(&out.registry);
    }
    r.served_queries = r.registry.counter("serve/queries").unwrap_or(0);
    r.served_exact = r.registry.counter("serve/hits_exact").unwrap_or(0);
    r.served_fallback = r.registry.counter("serve/hits_fallback").unwrap_or(0);
    Ok(r)
}

impl SimServeReport {
    /// All counters zero.
    fn empty(cfg: &SimServeCfg) -> SimServeReport {
        let (rtt_hist, registry) = (vec![0; RTT_BUCKETS], Registry::new());
        SimServeReport { cfg: cfg.clone(), rtt_hist, registry, ..Default::default() }
    }

    /// The deterministic summary: every field is a pure function of the
    /// campaign identity, so two runs produce byte-identical documents
    /// regardless of `--threads` — the artifact the CI smoke `cmp`s.
    pub fn summary_json(&self) -> String {
        let c = &self.cfg;
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": 1,\n");
        out.push_str(&format!(
            "  \"clients\": {}, \"queries_per_client\": {}, \"cell_bits\": {}, \"seed\": {},\n",
            c.clients, c.queries_per_client, c.cell_bits, c.seed
        ));
        out.push_str(&format!(
            "  \"regime\": \"{}\", \"partition\": {}, \"interval_us\": {}, \"mode\": \"{}\",\n",
            c.regime.name(),
            c.partition,
            c.interval_us,
            c.policy.map_or("snapshot", PolicyKind::name),
        ));
        out.push_str(&format!(
            "  \"queries_sent\": {}, \"ok\": {}, \"wrong\": {}, \"timeouts\": {}, \
             \"errors\": {},\n",
            self.queries_sent, self.ok, self.wrong, self.timeouts, self.errors
        ));
        out.push_str(&format!(
            "  \"requests_dropped\": {}, \"replies_dropped\": {}, \"gave_up_inflight\": {}, \
             \"link_drops\": {},\n",
            self.requests_dropped, self.replies_dropped, self.gave_up_inflight, self.link_drops
        ));
        out.push_str(&format!(
            "  \"reports_sent\": {}, \"served_queries\": {}, \"served_exact\": {}, \
             \"served_fallback\": {},\n",
            self.reports_sent, self.served_queries, self.served_exact, self.served_fallback
        ));
        out.push_str(&format!(
            "  \"rtt_sum_us\": {}, \"rtt_max_us\": {},\n",
            self.rtt_sum_us, self.rtt_max_us
        ));
        let hist: Vec<String> = (self.rtt_hist.iter().enumerate())
            .filter(|&(_, &n)| n > 0)
            .map(|(i, n)| format!("{{\"bucket\": {i}, \"count\": {n}}}"))
            .collect();
        out.push_str(&format!("  \"rtt_hist_log2_us\": [{}]\n}}\n", hist.join(", ")));
        out
    }

    /// One-paragraph human summary for the CLI.
    pub fn summary_text(&self) -> String {
        format!(
            "simserve: {} clients x {} queries ({} regime{}) on {} thread(s) in {:.2}s\n  \
             ok {} | wrong {} | timeouts {} | errors {} | link drops {}\n  \
             served: {} queries ({} exact, {} fallback) | mean rtt {:.1} ms | max {:.1} ms\n",
            self.cfg.clients,
            self.cfg.queries_per_client,
            self.cfg.regime.name(),
            if self.cfg.partition { ", mid-campaign partition" } else { "" },
            self.cfg.threads,
            self.wall_secs,
            self.ok,
            self.wrong,
            self.timeouts,
            self.errors,
            self.link_drops,
            self.served_queries,
            self.served_exact,
            self.served_fallback,
            if self.ok > 0 { self.rtt_sum_us as f64 / self.ok as f64 / 1_000.0 } else { 0.0 },
            self.rtt_max_us as f64 / 1_000.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(threads: usize) -> SimServeCfg {
        SimServeCfg {
            clients: 3_000,
            queries_per_client: 2,
            cell_bits: 10,
            threads,
            ..SimServeCfg::default()
        }
    }

    #[test]
    fn summary_is_thread_invariant_and_answers_are_exact() {
        let serial = run(&tiny(1)).unwrap();
        let parallel = run(&tiny(4)).unwrap();
        assert_eq!(serial.summary_json(), parallel.summary_json());
        assert_eq!(serial.queries_sent, 6_000);
        assert_eq!(serial.ok, 6_000, "no faults -> every answer validated");
        assert_eq!(serial.wrong, 0);
        assert_eq!(serial.timeouts, 0);
        assert!(serial.served_exact > 0 && serial.served_fallback > 0);
        // Attempt accounting closes.
        assert_eq!(serial.ok + serial.wrong + serial.timeouts + serial.errors, 6_000);
    }

    #[test]
    fn partition_bounds_errors_and_never_corrupts_answers() {
        let mut cfg = tiny(2);
        cfg.partition = true;
        // Spread clients over several /16s so some are (and some are
        // not) behind partitioned access links.
        cfg.clients = 3_000;
        let r = run(&cfg).unwrap();
        assert_eq!(r.wrong, 0, "partitions may delay or drop, never corrupt");
        assert_eq!(r.ok + r.wrong + r.timeouts + r.errors, r.queries_sent);
        // The partitioned /16 (10.0/16 -> Access(0x0a00), 0x0a00 % 8 == 0)
        // must actually hurt mid-campaign...
        assert!(r.timeouts > 0, "partition window must cost timeouts");
        assert!(r.link_drops > 0);
        // ...but the fault is bounded: most attempts still succeed.
        assert!(r.ok * 2 > r.queries_sent, "ok {} of {}", r.ok, r.queries_sent);
        // Thread invariance holds under faults too.
        cfg.threads = 1;
        assert_eq!(run(&cfg).unwrap().summary_json(), r.summary_json());
    }

    #[test]
    fn regimes_change_the_timeline_not_the_correctness() {
        for regime in [Regime::CovidStep, Regime::DiurnalDrift] {
            let cfg = SimServeCfg { regime, queries_per_client: 3, ..tiny(2) };
            let r = run(&cfg).unwrap();
            assert_eq!(r.wrong, 0, "{}", regime.name());
            assert_eq!(r.ok, r.queries_sent, "{}", regime.name());
            assert_eq!(
                run(&cfg).unwrap().summary_json(),
                r.summary_json(),
                "{} repeat-run invariance",
                regime.name()
            );
        }
    }

    #[test]
    fn policy_mode_dogfoods_reports_and_stays_sane() {
        let cfg = SimServeCfg {
            policy: Some(PolicyKind::JacobsonKarn),
            queries_per_client: 3,
            ..tiny(2)
        };
        let r = run(&cfg).unwrap();
        assert_eq!(r.wrong, 0);
        assert_eq!(r.ok, r.queries_sent);
        // Every attempt after a client's first success carries a Report.
        assert!(r.reports_sent > 0);
        assert!(r.summary_json().contains("\"mode\": \"jacobson-karn\""));
    }

    #[test]
    fn geometry_is_validated() {
        assert!(run(&SimServeCfg { clients: 0, ..tiny(1) }).is_err());
        assert!(run(&SimServeCfg { queries_per_client: 0, ..tiny(1) }).is_err());
        assert!(run(&SimServeCfg { cell_bits: 30, ..tiny(1) }).is_err());
        assert!(run(&SimServeCfg { clients: 1 << 25, ..tiny(1) }).is_err());
    }
}
