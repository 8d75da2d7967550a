//! The oracle daemon: a sharded, thread-per-core, readiness-driven TCP
//! server.
//!
//! One acceptor thread distributes connections round-robin to `shards`
//! worker threads. Each shard owns its connections outright — an
//! [`EpollReactor`] (Linux only), per-connection reassembly buffers, a
//! per-shard answer cache, and a per-shard [`Registry`] — so the hot
//! path takes no locks and shares no mutable state beyond three global
//! stats counters. Shard registries are merged **in fixed shard order**
//! when the server stops, so the deterministic metric families are
//! byte-identical no matter how connections were scheduled (the
//! scheduling-dependent counters — cache hits, idle closures, wakeup
//! counts, per-shard assignment — live under the `sched/` family, which
//! the JSON export excludes; see DESIGN.md §8).
//!
//! The protocol state machine itself lives in [`crate::engine`], behind
//! the [`Transport`](crate::engine::Transport) seam: this module is only
//! the *socket* incarnation — listener, acceptor, reactor registration,
//! interest flips, the idle wheel. `beware simserve` runs the same
//! [`Engine`] over in-memory channels inside netsim.
//!
//! **Nobody spins.** A shard blocks in [`EpollReactor::wait`] with a
//! timeout derived from its [`DeadlineWheel`] next deadline on the wall
//! clock (idle eviction, the reload poll, the shutdown drain bound), so
//! an idle connection costs ~zero CPU: the shard wakes on I/O
//! readiness, on an eventfd ring from the acceptor (new connection) or
//! a [`StopSignal`] (shutdown), or when a deadline it owns comes due —
//! never on a fixed nap (DESIGN.md §11). Interest flips between
//! readable and writable as a connection's output queue fills and
//! drains.
//!
//! No peer can make a shard wait (DESIGN.md §9). Replies go through a
//! **bounded per-connection output queue** drained on writability with
//! nonblocking writes: a peer that stops reading costs its shard
//! nothing, and is closed outright once [`ServerCfg::out_queue_cap`]
//! reply bytes pile up. Reads are budgeted per readiness event so one
//! firehose connection cannot starve its shard siblings — the
//! level-triggered reactor simply re-reports the leftover — and a
//! connection idle past the configured timeout is closed rather than
//! waited on forever: bounded listen, not infinite patience, applied to
//! ourselves. Faults handled on the way (write backpressure, queue
//! overflows) are counted under the nondeterministic `faults/` family.

use crate::engine::{Conn, Engine, EngineCore, OUT_QUEUE_CAP};
use crate::oracle::OracleHandle;
use crate::proto;
use beware_policy::PolicyKind;
use beware_runtime::clock::{SharedClock, WallClock};
use beware_runtime::reactor::{EpollReactor, Event, Interest, StopSignal, Waker};
use beware_runtime::wheel::DeadlineWheel;
use beware_telemetry::{CounterId, GaugeId, Registry};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::path::PathBuf;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Server configuration.
///
/// `#[non_exhaustive]`: construct one with [`ServerCfg::builder`] (or
/// take [`ServerCfg::default`] as-is). The fields stay `pub` for
/// reading, but a new knob is no longer a breaking change for every
/// downstream struct literal, and [`ServerCfgBuilder::build`] gets to
/// validate combinations up front.
#[non_exhaustive]
#[derive(Debug, Clone)]
pub struct ServerCfg {
    /// Worker shards (≥ 1). Each shard is one thread owning a disjoint
    /// set of connections.
    pub shards: usize,
    /// Per-connection idle bound: a connection that stays silent this
    /// long is closed.
    pub idle_timeout: Duration,
    /// After shutdown is requested, shards keep draining queued replies
    /// (most importantly the `ShutdownAck`) for at most this long.
    pub drain_timeout: Duration,
    /// Upper bound on one connection's queued-but-unsent reply bytes;
    /// past it the connection is closed.
    pub out_queue_cap: usize,
    /// Whether telemetry is recorded.
    pub metrics: bool,
    /// Snapshot source for hot reloads: the file `Reload` admin frames
    /// (and the poller, if enabled) load from — a full `.bwts` snapshot
    /// or a `.bwtd` delta. `None` disables the reload plane; `Reload`
    /// then answers `ErrorCode::ReloadUnavailable`.
    pub reload_from: Option<PathBuf>,
    /// When set, shard 0 re-reads [`reload_from`](Self::reload_from) on
    /// this period through its deadline wheel — no extra thread, no
    /// fixed nap — and swaps the oracle whenever the file's content no
    /// longer matches the snapshot being served.
    pub reload_poll: Option<Duration>,
    /// When set, the server answers queries from an **online estimator**
    /// of this kind instead of the static snapshot: clients feed it
    /// measured RTTs via `Report` frames, and the per-prefix state is
    /// periodically frozen into a `PolicyTable` published through the
    /// same epoch-swap mechanism hot reloads use. `None` (the default)
    /// serves the snapshot; `Report` then answers
    /// `ErrorCode::PolicyUnavailable`.
    pub policy: Option<PolicyKind>,
}

impl Default for ServerCfg {
    fn default() -> Self {
        ServerCfg {
            shards: std::thread::available_parallelism().map_or(1, |n| n.get()).min(8),
            idle_timeout: Duration::from_secs(60),
            drain_timeout: Duration::from_millis(500),
            out_queue_cap: OUT_QUEUE_CAP,
            metrics: true,
            reload_from: None,
            reload_poll: None,
            policy: None,
        }
    }
}

impl ServerCfg {
    /// Start from the defaults and adjust:
    /// `ServerCfg::builder().shards(2).build()?`.
    pub fn builder() -> ServerCfgBuilder {
        ServerCfgBuilder { cfg: ServerCfg::default() }
    }
}

/// Builder for [`ServerCfg`] — the way to spell a non-default
/// configuration now that the struct is `#[non_exhaustive]`.
/// [`build`](Self::build) validates the combination so a zero shard
/// count or an output queue that cannot hold one reply frame fails at
/// configuration time instead of surfacing as a hung server.
#[derive(Debug, Clone)]
pub struct ServerCfgBuilder {
    cfg: ServerCfg,
}

impl Default for ServerCfgBuilder {
    fn default() -> Self {
        ServerCfg::builder()
    }
}

impl ServerCfgBuilder {
    /// Worker shard count. See [`ServerCfg::shards`].
    pub fn shards(mut self, shards: usize) -> Self {
        self.cfg.shards = shards;
        self
    }

    /// See [`ServerCfg::idle_timeout`].
    pub fn idle_timeout(mut self, d: Duration) -> Self {
        self.cfg.idle_timeout = d;
        self
    }

    /// See [`ServerCfg::drain_timeout`].
    pub fn drain_timeout(mut self, d: Duration) -> Self {
        self.cfg.drain_timeout = d;
        self
    }

    /// See [`ServerCfg::out_queue_cap`].
    pub fn out_queue_cap(mut self, cap: usize) -> Self {
        self.cfg.out_queue_cap = cap;
        self
    }

    /// See [`ServerCfg::metrics`].
    pub fn metrics(mut self, on: bool) -> Self {
        self.cfg.metrics = on;
        self
    }

    /// See [`ServerCfg::reload_from`].
    pub fn reload_from(mut self, path: impl Into<PathBuf>) -> Self {
        self.cfg.reload_from = Some(path.into());
        self
    }

    /// See [`ServerCfg::reload_poll`]. Requires a reload source.
    pub fn reload_poll(mut self, period: Duration) -> Self {
        self.cfg.reload_poll = Some(period);
        self
    }

    /// See [`ServerCfg::policy`]. [`PolicyKind::Oracle`] means "serve the
    /// snapshot" and is the same as not setting a policy at all.
    pub fn policy(mut self, kind: PolicyKind) -> Self {
        self.cfg.policy = match kind {
            PolicyKind::Oracle => None,
            online => Some(online),
        };
        self
    }

    /// Validate and produce the configuration.
    pub fn build(self) -> Result<ServerCfg, ConfigError> {
        let cfg = self.cfg;
        if cfg.shards == 0 {
            return Err(ConfigError::ZeroShards);
        }
        if cfg.idle_timeout.is_zero() {
            return Err(ConfigError::ZeroIdleTimeout);
        }
        let min = proto::MAX_FRAME + 2;
        if cfg.out_queue_cap < min {
            return Err(ConfigError::QueueCapTooSmall { min, got: cfg.out_queue_cap });
        }
        match cfg.reload_poll {
            Some(_) if cfg.reload_from.is_none() => return Err(ConfigError::PollWithoutSource),
            Some(p) if p.is_zero() => return Err(ConfigError::ZeroReloadPoll),
            _ => {}
        }
        Ok(cfg)
    }
}

/// Why [`ServerCfgBuilder::build`] refused a configuration.
///
/// `#[non_exhaustive]`: validation grows with the config surface.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `shards == 0`: the server would accept and never answer.
    ZeroShards,
    /// A zero idle timeout would evict every connection on its first
    /// wheel tick.
    ZeroIdleTimeout,
    /// The output queue cannot hold even one maximum-size reply frame,
    /// so every connection would be closed on its first answer.
    QueueCapTooSmall {
        /// Smallest workable cap (one encoded max-size frame).
        min: usize,
        /// The cap that was requested.
        got: usize,
    },
    /// `reload_poll` was set without `reload_from`: nothing to poll.
    PollWithoutSource,
    /// A zero poll period would busy-loop shard 0.
    ZeroReloadPoll,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroShards => write!(f, "shard count must be at least 1"),
            ConfigError::ZeroIdleTimeout => write!(f, "idle timeout must be nonzero"),
            ConfigError::QueueCapTooSmall { min, got } => {
                write!(f, "output queue cap {got} cannot hold one reply frame (min {min})")
            }
            ConfigError::PollWithoutSource => {
                write!(f, "reload poll requires a reload source (reload_from)")
            }
            ConfigError::ZeroReloadPoll => write!(f, "reload poll period must be nonzero"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// A running server. Dropping the handle without calling
/// [`ServerHandle::join`] leaves the threads running detached until a
/// `Shutdown` frame arrives.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<StopSignal>,
    oracle: OracleHandle,
    acceptor: Option<JoinHandle<Registry>>,
    shards: Vec<JoinHandle<Registry>>,
}

impl ServerHandle {
    /// The bound address (resolves an ephemeral port request).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The swappable oracle slot this server answers from. Publishing
    /// through it is an in-process hot reload — every shard picks up
    /// the new snapshot on its next request, mid-connection, with no
    /// listener downtime.
    pub fn oracle(&self) -> &OracleHandle {
        &self.oracle
    }

    /// Request shutdown from in-process (equivalent to a `Shutdown`
    /// frame): raises the stop flag and rings every shard's and the
    /// acceptor's wakeup doorbell, so threads blocked in
    /// [`EpollReactor::wait`] notice immediately.
    pub fn shutdown(&self) {
        self.stop.request_stop();
    }

    /// Wait for the server to stop (via [`shutdown`](Self::shutdown) or a
    /// `Shutdown` frame) and return the merged telemetry: acceptor first,
    /// then every shard in index order — the fixed merge order the
    /// determinism contract requires.
    pub fn join(mut self) -> Registry {
        let mut merged = self
            .acceptor
            .take()
            .expect("join called once")
            .join()
            .expect("acceptor thread panicked");
        for shard in self.shards.drain(..) {
            merged.merge(&shard.join().expect("shard thread panicked"));
        }
        merged
    }
}

/// Token every reactor reserves for its wakeup doorbell; connection
/// tokens count up from zero and can never collide with it.
const WAKER_TOKEN: u64 = u64::MAX;
/// The acceptor's token for the listening socket.
const LISTENER_TOKEN: u64 = 0;

/// Bind and start serving `oracle` on `bind` (e.g. `"127.0.0.1:0"` for an
/// ephemeral port).
///
/// `oracle` is anything convertible into an [`OracleHandle`]: a bare
/// [`Oracle`](crate::oracle::Oracle) or `Arc<Oracle>` wraps into a fresh
/// slot at version 1; passing an existing handle shares the slot, so the
/// caller can publish hot reloads from outside the server.
pub fn start(
    oracle: impl Into<OracleHandle>,
    bind: impl ToSocketAddrs,
    cfg: ServerCfg,
) -> io::Result<ServerHandle> {
    let shards = cfg.shards.max(1);
    let listener = TcpListener::bind(bind)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let stop = Arc::new(StopSignal::new());
    let core =
        Arc::new(EngineCore::new(oracle, Arc::clone(&stop), cfg.policy, cfg.reload_from.clone()));
    let handle = core.oracle().clone();
    let clock = WallClock::shared();

    // Reactors and doorbells are created here, not in the threads, so a
    // resource failure (fd limit, unsupported platform) surfaces as an
    // `Err` from `start` instead of a dead shard.
    let mut senders: Vec<(Sender<TcpStream>, Arc<Waker>)> = Vec::with_capacity(shards);
    let mut shard_handles = Vec::with_capacity(shards);
    for shard_index in 0..shards {
        let (tx, rx) = std::sync::mpsc::channel::<TcpStream>();
        let waker = Arc::new(Waker::new()?);
        let mut reactor = EpollReactor::new()?;
        reactor.add_waker(Arc::clone(&waker), WAKER_TOKEN)?;
        stop.subscribe(Arc::clone(&waker));
        senders.push((tx, waker));
        let engine = core.engine(Arc::clone(&clock), cfg.out_queue_cap);
        // One reload poller per server, riding shard 0's wheel; every
        // shard can still execute an admin `Reload`.
        let schedule_poll =
            shard_index == 0 && core.reload_source().is_some() && cfg.reload_poll.is_some();
        let stop = Arc::clone(&stop);
        let clock = Arc::clone(&clock);
        let cfg = cfg.clone();
        shard_handles.push(std::thread::spawn(move || {
            shard_loop(rx, reactor, engine, schedule_poll, stop, clock, &cfg)
        }));
    }

    let acceptor_waker = Arc::new(Waker::new()?);
    let mut acceptor_reactor = EpollReactor::new()?;
    acceptor_reactor.add_waker(Arc::clone(&acceptor_waker), WAKER_TOKEN)?;
    acceptor_reactor.register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READABLE)?;
    stop.subscribe(acceptor_waker);

    let stop_a = Arc::clone(&stop);
    let metrics = cfg.metrics;
    let acceptor = std::thread::spawn(move || {
        acceptor_loop(listener, acceptor_reactor, senders, stop_a, metrics)
    });

    Ok(ServerHandle { addr, stop, oracle: handle, acceptor: Some(acceptor), shards: shard_handles })
}

/// Accept loop: drain every pending connection, hand each to a shard
/// (round-robin, skipping dead shards) and ring that shard's doorbell,
/// then block in the reactor until the listener is readable again or the
/// stop signal rings. No fixed naps: the only sleep left is a short
/// error backoff for accept failures that epoll would otherwise convert
/// into a hot loop (`EMFILE` reports the listener readable forever).
fn acceptor_loop(
    listener: TcpListener,
    mut reactor: EpollReactor,
    senders: Vec<(Sender<TcpStream>, Arc<Waker>)>,
    stop: Arc<StopSignal>,
    metrics: bool,
) -> Registry {
    let mut reg = if metrics { Registry::new() } else { Registry::disabled() };
    let mut next = 0usize;
    let mut events: Vec<Event> = Vec::new();
    loop {
        if stop.is_stopped() {
            break;
        }
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nodelay(true);
                    let _ = stream.set_nonblocking(true);
                    reg.scope("serve").incr("connections");
                    // A dead shard (panicked) drops its receiver; fall
                    // through to the next one rather than losing the
                    // connection.
                    let mut conn = Some(stream);
                    for i in 0..senders.len() {
                        let (tx, waker) = &senders[(next + i) % senders.len()];
                        match tx.send(conn.take().expect("connection unrouted")) {
                            Ok(()) => {
                                waker.wake();
                                break;
                            }
                            Err(std::sync::mpsc::SendError(c)) => conn = Some(c),
                        }
                    }
                    next = next.wrapping_add(1);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => {
                    // The peer gave up between SYN and accept — routine
                    // under mass connects; take the next one.
                    reg.scope("serve").incr("accept_errors");
                }
                Err(_) => {
                    reg.scope("serve").incr("accept_errors");
                    // Error backoff (fd exhaustion, ENOMEM): the pending
                    // connection keeps the listener readable, so waiting
                    // on the reactor would return instantly and spin.
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
        }
        let _ = reactor.wait(None, &mut events);
    }
    reg
}

/// Re-register a connection when its desired interest changed. A failed
/// re-registration is unrecoverable for the connection (the reactor has
/// lost track of it), so it is closed and counted.
fn sync_interest(
    reactor: &mut EpollReactor,
    conn: &mut Conn<TcpStream>,
    draining: bool,
    reg: &mut Registry,
) {
    let want = conn.desired_interest(draining);
    if want == conn.interest || !conn.open {
        return;
    }
    match reactor.reregister(conn.transport().as_raw_fd(), conn.id, want) {
        Ok(()) => conn.interest = want,
        Err(_) => {
            reg.scope("faults").scope("serve").incr("reactor_lost");
            conn.open = false;
        }
    }
}

/// The shard loop's per-wakeup metrics, resolved once per shard so a
/// wakeup formats no name.
struct ShardIds {
    connections_assigned: CounterId,
    conns_open: GaugeId,
    epoll_wakeups: CounterId,
    spurious_wakeups: CounterId,
}

impl ShardIds {
    fn resolve(reg: &mut Registry) -> ShardIds {
        ShardIds {
            connections_assigned: reg.counter_id("sched/serve/connections_assigned"),
            conns_open: reg.gauge_id("sched/serve/conns_open"),
            epoll_wakeups: reg.counter_id("sched/serve/epoll_wakeups"),
            spurious_wakeups: reg.counter_id("sched/serve/spurious_wakeups"),
        }
    }
}

/// Deadline-wheel key reserved for shard 0's reload poll. Connection
/// ids count up from zero and can never reach it.
const RELOAD_WHEEL_KEY: u64 = u64::MAX;

fn shard_loop(
    rx: Receiver<TcpStream>,
    mut reactor: EpollReactor,
    mut engine: Engine,
    schedule_poll: bool,
    stop: Arc<StopSignal>,
    clock: SharedClock,
    cfg: &ServerCfg,
) -> Registry {
    let mut reg = if cfg.metrics { Registry::new() } else { Registry::disabled() };
    let ids = ShardIds::resolve(&mut reg);
    let mut conns: HashMap<u64, Conn<TcpStream>> = HashMap::new();
    // The gauge exists on every shard so the merged export is identical
    // whichever shard (if any) ends up handling a reload.
    reg.scope("oracle").gauge_max("snapshot_version", engine.snapshot_version());
    // Every idle deadline on this shard lives in one wheel, keyed by
    // connection id: scheduled on adoption, pushed out on read activity,
    // popped (→ eviction) when the wall clock passes it. Its
    // next deadline is also the shard's wait timeout — the wheel⇄reactor
    // contract (DESIGN.md §11).
    let mut wheel: DeadlineWheel<u64> = DeadlineWheel::new();
    // The reload poll rides the same wheel on shard 0 only.
    if schedule_poll {
        if let Some(period) = cfg.reload_poll {
            wheel.schedule(RELOAD_WHEEL_KEY, clock.now() + period);
        }
    }
    let mut next_conn_id = 0u64;
    // Set when the stop signal is first observed: replies already queued
    // (the ShutdownAck above all) still get a bounded chance to drain.
    let mut drain_deadline: Option<Duration> = None;
    let mut events: Vec<Event> = Vec::new();

    loop {
        // Adopt newly assigned connections (the acceptor rang our
        // doorbell — or we were between waits anyway).
        while let Ok(stream) = rx.try_recv() {
            reg.incr(ids.connections_assigned);
            let id = next_conn_id;
            next_conn_id += 1;
            let conn = Conn::new(id, stream);
            match reactor.register(conn.transport().as_raw_fd(), id, Interest::READABLE) {
                Ok(()) => {
                    wheel.schedule(id, clock.now() + cfg.idle_timeout);
                    conns.insert(id, conn);
                }
                Err(_) => {
                    // Dropping the stream closes it; the peer sees a
                    // reset rather than a black hole.
                    reg.scope("faults").scope("serve").incr("reactor_lost");
                }
            }
        }
        reg.gauge_max(ids.conns_open, conns.len() as u64);

        if drain_deadline.is_none() && stop.is_stopped() {
            drain_deadline = Some(clock.now() + cfg.drain_timeout);
            // Draining: stop reading everywhere, keep writability only
            // where a backlog remains — a flooding peer must not keep
            // waking a shard that will never answer it again.
            for conn in conns.values_mut() {
                sync_interest(&mut reactor, conn, true, &mut reg);
            }
        }
        let draining = drain_deadline.is_some();

        // Dog food: bounded listen. Stop waiting on a silent peer —
        // whether it has gone quiet or stopped draining replies.
        while let Some((id, _)) = wheel.pop_expired(clock.now()) {
            if id == RELOAD_WHEEL_KEY {
                reg.scope("sched").scope("serve").incr("reload_polls");
                engine.poll_reload(&mut reg);
                if let Some(period) = cfg.reload_poll {
                    wheel.schedule(RELOAD_WHEEL_KEY, clock.now() + period);
                }
                continue;
            }
            if let Some(conn) = conns.get_mut(&id) {
                if conn.open {
                    reg.scope("sched").scope("serve").incr("idle_closed");
                    conn.open = false;
                }
            }
        }
        // Dropping a closed connection closes its fd, which also removes
        // it from epoll.
        conns.retain(|id, c| {
            if !c.open {
                wheel.cancel(id);
            }
            c.open
        });

        if let Some(deadline) = drain_deadline {
            let drained = conns.values().all(|c| c.backlog() == 0);
            if drained || clock.now() >= deadline {
                break;
            }
        }

        // Sleep until I/O, a doorbell, or the next deadline this shard
        // owns — idle eviction or the drain bound, whichever is sooner.
        // No deadline and no I/O means a blocking wait: an idle shard
        // costs nothing.
        let mut next_deadline = wheel.next_deadline();
        if let Some(d) = drain_deadline {
            next_deadline = Some(next_deadline.map_or(d, |n| n.min(d)));
        }
        // `wait` rounds the gap up to epoll's milliseconds.
        let timeout = next_deadline.map(|at| at.saturating_sub(clock.now()));
        if reactor.wait(timeout, &mut events).is_err() {
            // A broken reactor cannot deliver another event; abandoning
            // the shard beats spinning on the error.
            reg.scope("faults").scope("serve").incr("reactor_lost");
            break;
        }
        reg.incr(ids.epoll_wakeups);

        let mut progress = false;
        let mut conn_events = false;
        for &ev in &events {
            if ev.token == WAKER_TOKEN {
                // Doorbell: adoption and stop are handled at the top of
                // the loop.
                continue;
            }
            let Some(conn) = conns.get_mut(&ev.token) else { continue };
            conn_events = true;
            if ev.readable && !draining {
                progress |= engine.service(conn, &mut reg);
            }
            if conn.open && (ev.writable || conn.backlog() > 0) {
                progress |= engine.flush(conn, &mut reg);
            }
            if conn.touched {
                conn.touched = false;
                wheel.schedule(conn.id, clock.now() + cfg.idle_timeout);
            }
            sync_interest(&mut reactor, conn, draining, &mut reg);
        }
        if conn_events && !progress {
            reg.incr(ids.spurious_wakeups);
        }
    }
    reg
}
