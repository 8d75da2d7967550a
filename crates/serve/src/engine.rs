//! The transport-independent server engine: the oracle+policy protocol
//! state machine, split out of the epoll-specific shard loop.
//!
//! [`server`](crate::server) used to fuse three concerns in one loop:
//! readiness plumbing (reactor registration, interest flips, the idle
//! wheel), per-connection byte shuffling, and the request/reply protocol.
//! Only the first is socket-specific. This module owns the other two
//! behind a seam of three types:
//!
//! * [`Transport`] — the five lines of I/O a connection actually needs:
//!   nonblocking read and write. [`std::net::TcpStream`] implements it
//!   (the production server), and [`ChannelTransport`] implements it over
//!   in-memory byte queues (the in-sim server `beware simserve` hosts
//!   inside netsim — zero sockets, zero syscalls).
//! * [`Conn`] — per-connection state (reassembly buffer, bounded output
//!   queue, lifecycle flags) generic over its transport.
//! * [`Engine`] — one shard's protocol state: the lock-free oracle
//!   reader, the policy plane, the reply cache, reload execution. Its
//!   [`service`](Engine::service)/[`flush`](Engine::flush) methods run
//!   **identical logic** whether bytes arrive from a kernel socket or a
//!   simulated link, which is what makes in-sim campaign results
//!   transferable to the socket server.
//!
//! The request path allocates nothing in steady state. Each reply frame
//! is encoded in place ([`proto::encode_into`]) into one buffer the
//! engine reuses, then copied onto the connection's output queue. The
//! reply cache holds finished wire bytes, so a cache hit is a copy of at
//! most 24 bytes. Every per-request metric records through a handle
//! resolved once. `tests/alloc.rs` pins this with a counting allocator.
//!
//! Shared-across-shards state (global stats, the policy estimator, the
//! reload context, the stop signal) lives in [`EngineCore`]; each shard
//! derives its [`Engine`] from it. The multi-node cluster (ROADMAP
//! item 1) gets its transport seam here too: a remote-peer transport is
//! just another `Transport` impl.

use crate::machine::{ClientMachine, Outcome};
use crate::oracle::{LookupError, Oracle, OracleHandle, OracleReader};
use crate::proto::{self, ErrorCode, Message, ProtoError, ReloadKind, Status};
use beware_dataset::snapshot::{
    prefix_mask, read_delta, read_snapshot, snapshot_checksum, SnapshotError,
};
use beware_policy::{PolicyKind, PolicyTable, PrefixPolicyMap, RttSample, INITIAL_TIMEOUT_SECS};
use beware_runtime::clock::SharedClock;
use beware_runtime::reactor::{Interest, StopSignal};
use beware_runtime::swap::{Slot, SlotReader};
use beware_telemetry::{CounterId, HistogramId, Registry, RegistryId};
use std::cell::RefCell;
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasher, Hasher};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The byte-I/O surface a connection needs from its medium. Both methods
/// are nonblocking: they move what they can now and report
/// [`io::ErrorKind::WouldBlock`] instead of waiting — the engine never
/// parks a shard on a peer.
pub trait Transport {
    /// Read available bytes into `buf`. `Ok(0)` means the peer closed.
    fn read_nb(&mut self, buf: &mut [u8]) -> io::Result<usize>;
    /// Write as much of `buf` as the medium accepts right now.
    fn write_nb(&mut self, buf: &[u8]) -> io::Result<usize>;
}

/// The production transport: a nonblocking kernel socket.
impl Transport for TcpStream {
    fn read_nb(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        Read::read(self, buf)
    }

    fn write_nb(&mut self, buf: &[u8]) -> io::Result<usize> {
        Write::write(self, buf)
    }
}

/// The simulated transport: a duplex pair of in-memory byte queues,
/// created with [`channel_pair`]. The server side implements
/// [`Transport`]; the [`ChannelPeer`] side is the simulated client's
/// handle. Single-threaded by construction (`Rc`) — an in-sim cell owns
/// both ends, and determinism forbids cross-thread traffic anyway.
#[derive(Debug)]
pub struct ChannelTransport {
    inbound: Rc<RefCell<VecDeque<u8>>>,
    outbound: Rc<RefCell<VecDeque<u8>>>,
    peer_open: Rc<RefCell<bool>>,
}

/// The client end of a [`ChannelTransport`].
#[derive(Debug)]
pub struct ChannelPeer {
    /// Bytes the client sends (the server's inbound queue).
    to_server: Rc<RefCell<VecDeque<u8>>>,
    /// Bytes the server sent (the server's outbound queue).
    from_server: Rc<RefCell<VecDeque<u8>>>,
    open: Rc<RefCell<bool>>,
}

/// An in-memory duplex byte channel: `(server_side, client_side)`.
pub fn channel_pair() -> (ChannelTransport, ChannelPeer) {
    let inbound = Rc::new(RefCell::new(VecDeque::new()));
    let outbound = Rc::new(RefCell::new(VecDeque::new()));
    let open = Rc::new(RefCell::new(true));
    (
        ChannelTransport {
            inbound: Rc::clone(&inbound),
            outbound: Rc::clone(&outbound),
            peer_open: Rc::clone(&open),
        },
        ChannelPeer { to_server: inbound, from_server: outbound, open },
    )
}

impl Transport for ChannelTransport {
    fn read_nb(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut q = self.inbound.borrow_mut();
        if q.is_empty() {
            if *self.peer_open.borrow() {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            return Ok(0); // peer hung up and everything is drained
        }
        // Copies from the ring's front slice only, so a read that wraps
        // comes back short; the engine reads again until `WouldBlock`.
        q.read(buf)
    }

    fn write_nb(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.outbound.borrow_mut().extend(buf.iter().copied());
        Ok(buf.len())
    }
}

impl ChannelPeer {
    /// Queue request bytes for the server to read.
    pub fn send(&self, bytes: &[u8]) {
        self.to_server.borrow_mut().extend(bytes.iter().copied());
    }

    /// Take every reply byte the server has written so far.
    pub fn drain(&self, into: &mut Vec<u8>) {
        let mut q = self.from_server.borrow_mut();
        into.extend(q.iter().copied());
        q.clear();
    }

    /// Hand the queued reply bytes to `machine`, received by `now`, and
    /// drop the ones it used; a partial frame stays queued.
    pub fn deliver(&self, machine: &mut ClientMachine, now: Duration) -> Option<Outcome> {
        let mut q = self.from_server.borrow_mut();
        let (used, outcome) = machine.on_bytes(now, q.make_contiguous());
        q.drain(..used);
        outcome
    }

    /// Drop every byte queued in either direction: the client gave up on
    /// whatever was in flight.
    pub fn discard(&self) {
        self.to_server.borrow_mut().clear();
        self.from_server.borrow_mut().clear();
    }

    /// Reply bytes currently queued.
    pub fn pending(&self) -> usize {
        self.from_server.borrow().len()
    }

    /// Hang up: the server's next read observes EOF once the inbound
    /// queue is drained.
    pub fn close(&self) {
        *self.open.borrow_mut() = false;
    }
}

/// Aggregate counters served by the `Stats` request. Shared across
/// shards; relaxed ordering is fine for monotone counters. Every query
/// ends in exactly one of the three outcome counters, and the reply's
/// query count is their sum, so a `Stats` reply taken while other shards
/// are mid-query still satisfies `queries ≥ hits_exact + hits_fallback`
/// with equality when no query was refused.
#[derive(Debug, Default)]
pub(crate) struct GlobalStats {
    pub(crate) hits_exact: AtomicU64,
    pub(crate) hits_fallback: AtomicU64,
    pub(crate) unsupported_pct: AtomicU64,
    pub(crate) reports: AtomicU64,
}

/// How many absorbed `Report`s between [`PolicyTable`] publications.
/// Small enough that a fresh estimate reaches the read path promptly,
/// large enough that the freeze-and-swap cost amortizes.
const POLICY_PUBLISH_EVERY: u64 = 64;

/// The online-estimator plane, shared by every shard when a policy is
/// configured. The mutable per-prefix map lives behind a mutex touched
/// only by `Report` handling; the read path answers from the last
/// published [`PolicyTable`] through a lock-free slot reader — a query
/// never waits on a report.
pub(crate) struct PolicyCtx {
    map: Mutex<PrefixPolicyMap>,
    pub(crate) table: Slot<PolicyTable>,
}

impl PolicyCtx {
    pub(crate) fn new(kind: PolicyKind) -> PolicyCtx {
        let map = PrefixPolicyMap::for_kind(kind);
        let empty = PolicyTable::empty(map.prefix_len(), INITIAL_TIMEOUT_SECS);
        PolicyCtx { map: Mutex::new(map), table: Slot::new(Arc::new(empty)) }
    }

    /// Absorb one RTT report; freeze and publish the table on the very
    /// first report and every [`POLICY_PUBLISH_EVERY`] thereafter.
    /// Returns the running report count.
    ///
    /// Publishing on the first report matters on low-traffic prefixes: a
    /// publish-every-64 cadence alone leaves readers on the initial empty
    /// boot table indefinitely when fewer than 64 reports ever arrive.
    fn absorb(&self, addr: u32, rtt_us: u32, stats: &GlobalStats) -> u64 {
        let mut map = self.map.lock().expect("policy map poisoned");
        let n = stats.reports.fetch_add(1, Ordering::Relaxed) + 1;
        // Estimators key on order, not wall time; the report sequence
        // number is a deterministic monotone stand-in.
        map.observe(addr, RttSample::new(f64::from(rtt_us) / 1e6, n as f64));
        if n == 1 || n.is_multiple_of(POLICY_PUBLISH_EVERY) {
            self.table.publish(Arc::new(map.snapshot_table(INITIAL_TIMEOUT_SECS)));
        }
        n
    }
}

/// A shard's view of the policy plane: the shared context plus its own
/// lock-free table reader.
struct PolicyPlane {
    ctx: Arc<PolicyCtx>,
    reader: SlotReader<PolicyTable>,
}

/// Everything a shard needs to execute a reload: the slot to publish
/// into, the configured source path, and a lock that makes each
/// reload's read-base → apply → publish sequence atomic against
/// concurrent reloads on other shards (without it, two racing delta
/// reloads could both read the same base and the loser would publish a
/// snapshot the winner's delta never saw).
pub(crate) struct ReloadCtx {
    handle: OracleHandle,
    pub(crate) source: Option<PathBuf>,
    lock: Mutex<()>,
}

/// What a reload attempt did.
enum ReloadOutcome {
    /// A new oracle was published at `version`.
    Swapped { version: u64, entries: u32, checksum: u64 },
    /// Poll only: the source already matches what is being served.
    Unchanged,
    /// The delta was computed against a base that is not the serving
    /// snapshot.
    Stale,
    /// Corrupt or invalid source; the serving snapshot is untouched.
    Rejected,
}

/// Decode `bytes` as a snapshot source (full or delta), apply, and
/// publish. With `explicit` the kind is the operator's claim — a
/// mismatched magic decodes as garbage and is `Rejected`. `None` (the
/// poller) sniffs the magic and reports an already-applied source as
/// `Unchanged`, which is what makes polling idempotent.
fn apply_reload(ctx: &ReloadCtx, bytes: &[u8], explicit: Option<ReloadKind>) -> ReloadOutcome {
    let _guard = ctx.lock.lock().expect("reload lock poisoned");
    let current = ctx.handle.current();
    let is_delta = match explicit {
        Some(ReloadKind::Full) => false,
        Some(ReloadKind::Delta) => true,
        None => bytes.starts_with(b"BWTD"),
    };
    let built = if is_delta {
        let Ok(delta) = read_delta(&mut &bytes[..]) else { return ReloadOutcome::Rejected };
        if explicit.is_none() && delta.target_checksum == current.checksum() {
            return ReloadOutcome::Unchanged;
        }
        // The base the delta applies to is reconstructed from the
        // serving oracle itself — `apply` then enforces the base
        // checksum, so a delta against any other generation is Stale.
        match delta.apply(&current.to_snapshot()) {
            Ok(snap) => Oracle::from_snapshot(snap),
            Err(SnapshotError::StaleDelta { .. }) => return ReloadOutcome::Stale,
            Err(_) => return ReloadOutcome::Rejected,
        }
    } else {
        let Ok(snap) = read_snapshot(&mut &bytes[..]) else { return ReloadOutcome::Rejected };
        if explicit.is_none() && snapshot_checksum(&snap) == current.checksum() {
            return ReloadOutcome::Unchanged;
        }
        Oracle::from_snapshot(snap)
    };
    match built {
        Ok(oracle) => {
            let entries = oracle.entry_count() as u32;
            let checksum = oracle.checksum();
            let version = ctx.handle.publish(Arc::new(oracle));
            ReloadOutcome::Swapped { version, entries, checksum }
        }
        Err(_) => ReloadOutcome::Rejected,
    }
}

/// Execute an explicit `Reload` admin frame against the configured
/// source, accounting under `oracle/`.
fn admin_reload(kind: ReloadKind, ctx: &ReloadCtx, reg: &mut Registry) -> Message {
    let Some(path) = ctx.source.as_ref() else {
        reg.scope("oracle").incr("reload_failures");
        return Message::Error { code: ErrorCode::ReloadUnavailable };
    };
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(_) => {
            reg.scope("oracle").incr("reload_failures");
            return Message::Error { code: ErrorCode::SnapshotRejected };
        }
    };
    match apply_reload(ctx, &bytes, Some(kind)) {
        ReloadOutcome::Swapped { version, entries, checksum } => {
            let mut oracle_scope = reg.scope("oracle");
            oracle_scope.incr("reloads");
            oracle_scope.gauge_max("snapshot_version", version);
            Message::SnapshotInfoReply { version, entries, checksum }
        }
        ReloadOutcome::Stale => {
            reg.scope("oracle").incr("stale_delta_rejected");
            Message::Error { code: ErrorCode::StaleDelta }
        }
        ReloadOutcome::Rejected | ReloadOutcome::Unchanged => {
            reg.scope("oracle").incr("reload_failures");
            Message::Error { code: ErrorCode::SnapshotRejected }
        }
    }
}

/// One connection owned by a shard, generic over its byte medium.
pub struct Conn<T> {
    /// Shard-local identity — the reactor registration token and the key
    /// of this connection's idle deadline on the shard's deadline wheel.
    pub(crate) id: u64,
    pub(crate) transport: T,
    /// Reassembly buffer for partially received frames.
    buf: Vec<u8>,
    /// Bounded outbound queue. Replies are *enqueued* here and drained
    /// on writability with nonblocking writes — the shard never waits on
    /// a peer's receive window, so one connection that stops reading
    /// cannot head-of-line-block every other connection on the shard.
    out: Vec<u8>,
    /// Offset of the not-yet-written suffix of `out`.
    out_pos: usize,
    pub(crate) open: bool,
    /// Reply of record is queued (error frame, shutdown ack): stop
    /// reading, close once `out` drains.
    pub(crate) close_after_flush: bool,
    /// Read activity since the last service pass; the shard loop pushes
    /// the idle deadline out (reschedules the wheel) when set.
    pub(crate) touched: bool,
    /// The interest currently registered with the reactor; flipped to
    /// include writability exactly while a backlog exists. Meaningless
    /// (and untouched) for transports no reactor watches.
    pub(crate) interest: Interest,
}

impl<T> Conn<T> {
    /// A fresh connection over `transport`, identified by `id` within
    /// its shard.
    pub fn new(id: u64, transport: T) -> Conn<T> {
        Conn {
            id,
            transport,
            buf: Vec::new(),
            out: Vec::new(),
            out_pos: 0,
            open: true,
            close_after_flush: false,
            touched: false,
            interest: Interest::READABLE,
        }
    }

    /// Bytes queued but not yet on the wire.
    pub fn backlog(&self) -> usize {
        self.out.len() - self.out_pos
    }

    /// Whether the connection is still usable.
    pub fn is_open(&self) -> bool {
        self.open
    }

    /// Borrow the underlying transport (the socket server needs the fd
    /// for reactor registration).
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// The interest this connection's state wants registered: readable
    /// while we still accept requests, writable exactly while a backlog
    /// exists.
    pub(crate) fn desired_interest(&self, draining: bool) -> Interest {
        let mut want = Interest::NONE;
        if !self.close_after_flush && !draining {
            want = want.and(Interest::READABLE);
        }
        if self.backlog() > 0 {
            want = want.and(Interest::WRITABLE);
        }
        want
    }
}

/// Per-shard answer cache cap; the cache is cleared wholesale when full
/// (queries repeat heavily under load, so wholesale eviction is rare and
/// keeps the structure trivial).
const CACHE_CAP: usize = 8192;

/// Room for one cached reply frame: an `Answer` is 20 bytes on the wire,
/// an `Error` 7.
const CACHED_FRAME: usize = 24;

/// One cached query reply: its finished frame, and how it was answered
/// (`None` = refused for an unsupported percentile), so a hit counts
/// exactly like the lookup it replaces.
#[derive(Debug, Clone, Copy)]
struct CachedReply {
    frame: [u8; CACHED_FRAME],
    len: u8,
    outcome: Option<Status>,
}

/// The reply cache key: `(addr, addr_pct, ping_pct)` packed into one word.
fn cache_key(addr: u32, addr_pct_tenths: u16, ping_pct_tenths: u16) -> u64 {
    u64::from(addr) << 32 | u64::from(addr_pct_tenths) << 16 | u64::from(ping_pct_tenths)
}

/// The reply cache's hasher, and its own `BuildHasher`: one multiply per key
/// instead of SipHash. Keys come from clients, so each engine seeds it at
/// random — a client cannot aim its queries at one bucket without knowing
/// the seed.
#[derive(Debug, Clone, Copy)]
struct CacheHasher(u64);

impl CacheHasher {
    fn seeded() -> CacheHasher {
        CacheHasher(RandomState::new().hash_one(0u64))
    }
}

impl BuildHasher for CacheHasher {
    type Hasher = CacheHasher;

    fn build_hasher(&self) -> CacheHasher {
        *self
    }
}

impl Hasher for CacheHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        // The product's high half depends on every key bit; fold it into
        // the low bits the table indexes with.
        self.0 ^ (self.0 >> 32)
    }
}

/// Default upper bound on one connection's queued-but-unsent reply
/// bytes. A peer that keeps sending queries without draining its answers
/// is a slow reader at best and an attacker at worst; past this bound
/// the connection is closed (`faults/serve/queue_overflow_closed`)
/// instead of buffering without limit.
pub(crate) const OUT_QUEUE_CAP: usize = 64 * 1024;

/// Per-connection, per-readiness-event read budget. One firehose
/// connection may fill at most this many bytes before the shard moves on
/// to its siblings' events; the level-triggered reactor re-reports the
/// leftover on the next wait, so ingress bandwidth is shared round-robin
/// instead of drained connection-by-connection.
const READ_BUDGET: usize = 16 * 1024;

/// Handles for the metrics every request touches, resolved once against
/// one registry: recording through them formats no name.
#[derive(Debug, Clone, Copy)]
struct ServeIds {
    registry: RegistryId,
    requests: CounterId,
    queries: CounterId,
    bytes_in: CounterId,
    bytes_out: CounterId,
    hits_exact: CounterId,
    hits_fallback: CounterId,
    cache_hits: CounterId,
    cache_misses: CounterId,
    report_requests: CounterId,
    errors_unsupported_pct: CounterId,
    request_ns: HistogramId,
}

impl ServeIds {
    fn resolve(reg: &mut Registry) -> ServeIds {
        ServeIds {
            registry: reg.id(),
            requests: reg.counter_id("serve/requests"),
            queries: reg.counter_id("serve/queries"),
            bytes_in: reg.counter_id("serve/bytes_in"),
            bytes_out: reg.counter_id("serve/bytes_out"),
            hits_exact: reg.counter_id("serve/hits_exact"),
            hits_fallback: reg.counter_id("serve/hits_fallback"),
            cache_hits: reg.counter_id("sched/serve/cache_hits"),
            cache_misses: reg.counter_id("sched/serve/cache_misses"),
            report_requests: reg.counter_id("serve/report_requests"),
            errors_unsupported_pct: reg.counter_id("serve/errors_unsupported_pct"),
            request_ns: reg.histogram_id("walltime/serve/request_ns"),
        }
    }
}

/// The state shared by every shard of one logical server: the swappable
/// oracle, global stats, the policy estimator, the reload context and
/// the stop signal. Each shard — an OS thread in the socket server, a
/// simulation cell in `beware simserve` — derives its per-shard
/// [`Engine`] with [`engine`](EngineCore::engine).
pub struct EngineCore {
    handle: OracleHandle,
    stop: Arc<StopSignal>,
    stats: Arc<GlobalStats>,
    policy: Option<Arc<PolicyCtx>>,
    reload: Arc<ReloadCtx>,
}

impl EngineCore {
    /// Assemble the shared plane. `policy` switches the query path to an
    /// online estimator fed by `Report` frames; `reload_from` names the
    /// snapshot source `Reload` admin frames load (None disables the
    /// reload plane).
    pub fn new(
        oracle: impl Into<OracleHandle>,
        stop: Arc<StopSignal>,
        policy: Option<PolicyKind>,
        reload_from: Option<PathBuf>,
    ) -> EngineCore {
        let handle = oracle.into();
        let reload = Arc::new(ReloadCtx {
            handle: handle.clone(),
            source: reload_from,
            lock: Mutex::new(()),
        });
        EngineCore {
            handle,
            stop,
            stats: Arc::new(GlobalStats::default()),
            policy: policy.map(|kind| Arc::new(PolicyCtx::new(kind))),
            reload,
        }
    }

    /// The swappable oracle slot this server answers from.
    pub fn oracle(&self) -> &OracleHandle {
        &self.handle
    }

    pub(crate) fn reload_source(&self) -> Option<&PathBuf> {
        self.reload.source.as_ref()
    }

    /// One shard's engine over this shared plane. `clock` stamps request
    /// service time; `out_queue_cap` bounds each connection's unsent
    /// reply bytes.
    pub fn engine(&self, clock: SharedClock, out_queue_cap: usize) -> Engine {
        Engine {
            reader: self.handle.reader(),
            reload: Arc::clone(&self.reload),
            policy: self
                .policy
                .as_ref()
                .map(|ctx| PolicyPlane { reader: ctx.table.reader(), ctx: Arc::clone(ctx) }),
            stop: Arc::clone(&self.stop),
            stats: Arc::clone(&self.stats),
            cache: HashMap::with_hasher(CacheHasher::seeded()),
            cache_version: 0,
            reply: Vec::with_capacity(proto::MAX_FRAME + 2),
            ids: None,
            scratch: vec![0u8; 4096].into_boxed_slice(),
            clock,
            out_queue_cap,
        }
    }
}

/// One shard's protocol state machine. Owns no connections and no
/// reactor — callers pump it with [`service`](Engine::service) when a
/// connection has readable bytes and [`flush`](Engine::flush) when it
/// can write, whatever "readable" means on their transport.
pub struct Engine {
    reader: OracleReader,
    reload: Arc<ReloadCtx>,
    policy: Option<PolicyPlane>,
    stop: Arc<StopSignal>,
    stats: Arc<GlobalStats>,
    /// Query replies as wire bytes, keyed by [`cache_key`].
    cache: HashMap<u64, CachedReply, CacheHasher>,
    /// Snapshot version the cache's entries were answered from; a swap
    /// invalidates them wholesale (see `answer_query`).
    cache_version: u64,
    /// The frame of the request being handled: `handle_request` encodes
    /// (or copies) the reply here, and `service` queues it. Reused, so it
    /// stops allocating once it has grown to one frame.
    reply: Vec<u8>,
    /// Metric handles for the last enabled registry `service` was handed.
    ids: Option<ServeIds>,
    scratch: Box<[u8]>,
    clock: SharedClock,
    out_queue_cap: usize,
}

impl Engine {
    /// The per-request metric handles for `reg`: cached, re-resolved when
    /// a different registry arrives, `None` when `reg` is disabled (the
    /// cache is then left alone).
    fn serve_ids(&mut self, reg: &mut Registry) -> Option<ServeIds> {
        if !reg.enabled() {
            return None;
        }
        match self.ids {
            Some(ids) if ids.registry == reg.id() => Some(ids),
            _ => {
                let ids = ServeIds::resolve(reg);
                self.ids = Some(ids);
                Some(ids)
            }
        }
    }

    /// The serving snapshot version (refreshing the reader's view).
    pub fn snapshot_version(&mut self) -> u64 {
        self.reader.version()
    }

    /// One wheel-scheduled poll of the reload source. A read failure is
    /// transient by assumption (the file is mid-copy or not yet dropped)
    /// and counted under `sched/`; decode and apply failures are
    /// operator mistakes and land under `oracle/` where dashboards
    /// watch.
    pub fn poll_reload(&mut self, reg: &mut Registry) {
        let Some(path) = self.reload.source.as_ref() else { return };
        let Ok(bytes) = std::fs::read(path) else {
            reg.scope("sched").scope("serve").incr("reload_poll_errors");
            return;
        };
        match apply_reload(&self.reload, &bytes, None) {
            ReloadOutcome::Swapped { version, .. } => {
                let mut oracle_scope = reg.scope("oracle");
                oracle_scope.incr("reloads");
                oracle_scope.gauge_max("snapshot_version", version);
            }
            ReloadOutcome::Unchanged => {}
            ReloadOutcome::Stale => {
                reg.scope("oracle").incr("stale_delta_rejected");
            }
            ReloadOutcome::Rejected => {
                reg.scope("oracle").incr("reload_failures");
            }
        }
    }

    /// Nonblocking drain of one connection's output queue. Never waits:
    /// a full peer window surfaces as `faults/serve/write_backpressure`
    /// plus a writable-interest registration, and the remaining bytes
    /// stay queued until the caller learns the transport is writable
    /// again.
    pub fn flush<T: Transport>(&mut self, conn: &mut Conn<T>, reg: &mut Registry) -> bool {
        let mut progress = false;
        while conn.open && conn.out_pos < conn.out.len() {
            match conn.transport.write_nb(&conn.out[conn.out_pos..]) {
                Ok(0) => {
                    conn.open = false;
                }
                Ok(n) => {
                    conn.out_pos += n;
                    progress = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    reg.scope("faults").scope("serve").incr("write_backpressure");
                    break;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    conn.open = false;
                }
            }
        }
        if conn.out_pos >= conn.out.len() {
            conn.out.clear();
            conn.out_pos = 0;
            if conn.close_after_flush {
                conn.open = false;
            }
        } else if conn.out_pos >= self.out_queue_cap / 2 {
            // Keep the queue's memory proportional to the *unsent* bytes.
            conn.out.drain(..conn.out_pos);
            conn.out_pos = 0;
        }
        progress
    }

    /// Pump one connection: read what is available (bounded by
    /// `READ_BUDGET`), decode, and queue a reply for every complete
    /// frame. Returns true when any byte moved.
    pub fn service<T: Transport>(&mut self, conn: &mut Conn<T>, reg: &mut Registry) -> bool {
        let ids = self.serve_ids(reg);
        let mut progress = false;
        let mut budget = READ_BUDGET;
        // EOF is recorded, not acted on inline: requests that arrived
        // before the peer half-closed still deserve answers (over an
        // in-sim channel the final frame and the close are visible in
        // the same pass).
        let mut saw_eof = false;
        while conn.open && !conn.close_after_flush {
            if budget == 0 {
                // Fairness: leave the rest for the next readiness report
                // so a firehose peer cannot starve its shard siblings.
                reg.scope("sched").scope("serve").incr("read_budget_deferrals");
                break;
            }
            let want = self.scratch.len().min(budget);
            match conn.transport.read_nb(&mut self.scratch[..want]) {
                Ok(0) => {
                    saw_eof = true;
                    break;
                }
                Ok(n) => {
                    budget -= n;
                    if let Some(ids) = ids {
                        reg.add(ids.bytes_in, n as u64);
                    }
                    conn.buf.extend_from_slice(&self.scratch[..n]);
                    conn.touched = true;
                    progress = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.open = false;
                    break;
                }
            }
        }

        let mut consumed = 0usize;
        while conn.open && !conn.close_after_flush {
            match proto::try_decode(&conn.buf[consumed..]) {
                Ok(Some((msg, used))) => {
                    consumed += used;
                    let t0 = self.clock.now();
                    let close = self.handle_request(&msg, ids, reg);
                    if let Some(ids) = ids {
                        reg.add(ids.bytes_out, self.reply.len() as u64);
                    }
                    self.enqueue_reply(conn, reg);
                    let ns = u64::try_from(self.clock.since(t0).as_nanos()).unwrap_or(u64::MAX);
                    if let Some(ids) = ids {
                        reg.observe(ids.request_ns, ns);
                    }
                    if close {
                        conn.close_after_flush = true;
                    }
                    progress = true;
                }
                Ok(None) => break,
                Err(e) => {
                    // Framing is lost: queue one error report, then close
                    // once it has drained.
                    reg.scope("serve").incr("proto_errors");
                    let code = match e {
                        ProtoError::Version(_) => ErrorCode::BadVersion,
                        _ => ErrorCode::Malformed,
                    };
                    self.reply.clear();
                    proto::encode_into(&Message::Error { code }, &mut self.reply);
                    if let Some(ids) = ids {
                        reg.add(ids.bytes_out, self.reply.len() as u64);
                    }
                    self.enqueue_reply(conn, reg);
                    conn.close_after_flush = true;
                    progress = true;
                }
            }
        }
        conn.buf.drain(..consumed);
        if saw_eof && conn.open {
            if conn.backlog() > 0 {
                conn.close_after_flush = true;
            } else {
                conn.open = false;
            }
        }
        progress
    }

    /// Queue the reply frame on a connection, enforcing the output bound.
    /// A peer that has let the cap's worth of bytes pile up is cut off.
    fn enqueue_reply<T>(&self, conn: &mut Conn<T>, reg: &mut Registry) {
        if conn.backlog() + self.reply.len() > self.out_queue_cap {
            reg.scope("faults").scope("serve").incr("queue_overflow_closed");
            conn.open = false;
            return;
        }
        conn.out.extend_from_slice(&self.reply);
    }

    /// Dispatch one decoded request: its reply frame is left in
    /// `self.reply`. Returns whether the connection should close
    /// afterwards.
    fn handle_request(&mut self, msg: &Message, ids: Option<ServeIds>, reg: &mut Registry) -> bool {
        if let Some(ids) = ids {
            reg.incr(ids.requests);
        }
        self.reply.clear();
        let (reply, close) = match *msg {
            Message::Query { addr, addr_pct_tenths, ping_pct_tenths } => {
                self.answer_query(addr, addr_pct_tenths, ping_pct_tenths, ids, reg);
                return false;
            }
            Message::Stats => {
                reg.scope("serve").incr("stats_requests");
                let hits_exact = self.stats.hits_exact.load(Ordering::Relaxed);
                let hits_fallback = self.stats.hits_fallback.load(Ordering::Relaxed);
                let refused = self.stats.unsupported_pct.load(Ordering::Relaxed);
                (
                    Message::StatsReply {
                        queries: hits_exact + hits_fallback + refused,
                        hits_exact,
                        hits_fallback,
                    },
                    false,
                )
            }
            Message::SnapshotInfo => {
                reg.scope("serve").incr("info_requests");
                // `current()` refreshes the cached pair under the slot
                // lock, so the (version, oracle) this reply reports is
                // consistent.
                let oracle = Arc::clone(self.reader.current());
                (
                    Message::SnapshotInfoReply {
                        version: self.reader.version(),
                        entries: oracle.entry_count() as u32,
                        checksum: oracle.checksum(),
                    },
                    false,
                )
            }
            Message::Reload { kind } => {
                reg.scope("serve").incr("reload_requests");
                (admin_reload(kind, &self.reload, reg), false)
            }
            Message::Report { addr, rtt_us } => {
                if let Some(ids) = ids {
                    reg.incr(ids.report_requests);
                }
                match self.policy.as_ref() {
                    Some(plane) => {
                        let reports = plane.ctx.absorb(addr, rtt_us, &self.stats);
                        (Message::ReportAck { reports }, false)
                    }
                    None => {
                        reg.scope("serve").incr("errors_policy_unavailable");
                        (Message::Error { code: ErrorCode::PolicyUnavailable }, false)
                    }
                }
            }
            Message::Shutdown => {
                reg.scope("serve").incr("shutdown_requests");
                // Raise the flag *and* ring every shard and the acceptor
                // — they are blocked in their reactors, not polling a
                // flag.
                self.stop.request_stop();
                (Message::ShutdownAck, true)
            }
            // A reply opcode arriving as a request is a confused client.
            _ => {
                reg.scope("serve").incr("errors_bad_request");
                (Message::Error { code: ErrorCode::UnknownOpcode }, false)
            }
        };
        proto::encode_into(&reply, &mut self.reply);
        close
    }

    /// Answer one `Query` into `self.reply`.
    fn answer_query(
        &mut self,
        addr: u32,
        addr_pct_tenths: u16,
        ping_pct_tenths: u16,
        ids: Option<ServeIds>,
        reg: &mut Registry,
    ) {
        if let Some(ids) = ids {
            reg.incr(ids.queries);
        }
        if let Some(plane) = self.policy.as_mut() {
            // Policy mode: answer from the last published estimator
            // table. Coverage percentiles don't apply to an online
            // estimate; they are accepted and ignored so clients need no
            // mode-specific query. No reply cache either — the table
            // turns over every few reports, so a cache would mostly serve
            // invalidation.
            let table = plane.reader.current();
            let ans = table.lookup(addr);
            let (status, prefix, prefix_len) = if ans.exact {
                (Status::Exact, addr & prefix_mask(table.prefix_len()), table.prefix_len())
            } else {
                (Status::Fallback, 0, 0)
            };
            bump_hit(&self.stats, ids, reg, status);
            let answer = Message::Answer {
                status,
                timeout_bits: ans.timeout_secs.to_bits(),
                prefix,
                prefix_len,
            };
            proto::encode_into(&answer, &mut self.reply);
            return;
        }
        // Resolve the oracle exactly once; the whole answer comes from
        // this one immutable snapshot, so a swap mid-request can never
        // produce a torn reply.
        let oracle = Arc::clone(self.reader.current());
        if self.reader.version() != self.cache_version {
            // Cached replies belong to the previous snapshot.
            self.cache.clear();
            self.cache_version = self.reader.version();
        }
        let key = cache_key(addr, addr_pct_tenths, ping_pct_tenths);
        if let Some(cached) = self.cache.get(&key) {
            if let Some(ids) = ids {
                reg.incr(ids.cache_hits);
            }
            // Deterministic per-request counters must not depend on
            // whether this shard's cache happened to hold the reply.
            match cached.outcome {
                Some(status) => bump_hit(&self.stats, ids, reg, status),
                None => refuse_pct(&self.stats, ids, reg),
            }
            self.reply.extend_from_slice(&cached.frame[..usize::from(cached.len)]);
            return;
        }
        if let Some(ids) = ids {
            reg.incr(ids.cache_misses);
        }
        let (reply, outcome) = match oracle.lookup(addr, addr_pct_tenths, ping_pct_tenths) {
            Ok(ans) => {
                bump_hit(&self.stats, ids, reg, ans.status);
                let answer = Message::Answer {
                    status: ans.status,
                    timeout_bits: ans.timeout_bits,
                    prefix: ans.prefix,
                    prefix_len: ans.prefix_len,
                };
                (answer, Some(ans.status))
            }
            Err(LookupError::UnsupportedAddressPercentile(_))
            | Err(LookupError::UnsupportedPingPercentile(_)) => {
                refuse_pct(&self.stats, ids, reg);
                (Message::Error { code: ErrorCode::UnsupportedPercentile }, None)
            }
        };
        proto::encode_into(&reply, &mut self.reply);
        let mut frame = [0u8; CACHED_FRAME];
        frame[..self.reply.len()].copy_from_slice(&self.reply);
        if self.cache.len() >= CACHE_CAP {
            self.cache.clear();
        }
        self.cache.insert(key, CachedReply { frame, len: self.reply.len() as u8, outcome });
    }
}

fn refuse_pct(stats: &GlobalStats, ids: Option<ServeIds>, reg: &mut Registry) {
    stats.unsupported_pct.fetch_add(1, Ordering::Relaxed);
    if let Some(ids) = ids {
        reg.incr(ids.errors_unsupported_pct);
    }
}

fn bump_hit(stats: &GlobalStats, ids: Option<ServeIds>, reg: &mut Registry, status: Status) {
    let (global, id) = match status {
        Status::Exact => (&stats.hits_exact, ids.map(|ids| ids.hits_exact)),
        Status::Fallback => (&stats.hits_fallback, ids.map(|ids| ids.hits_fallback)),
    };
    global.fetch_add(1, Ordering::Relaxed);
    if let Some(id) = id {
        reg.incr(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_snapshot, SnapshotCfg};
    use beware_core::percentile::LatencySamples;
    use beware_runtime::clock::VirtualClock;
    use std::collections::BTreeMap;

    fn test_oracle() -> Oracle {
        let mut blocks = BTreeMap::new();
        blocks.insert(0x0a000001u32, LatencySamples::from_values(vec![0.05; 50]));
        let cfg = SnapshotCfg { min_addresses: 1, ..SnapshotCfg::default() };
        let snap = build_snapshot(&blocks, &cfg).expect("snapshot builds");
        Oracle::from_snapshot(snap).expect("oracle builds")
    }

    fn engine_over(core: &EngineCore) -> Engine {
        core.engine(VirtualClock::new().handle(), OUT_QUEUE_CAP)
    }

    #[test]
    fn channel_transport_round_trips_a_query() {
        let core = EngineCore::new(test_oracle(), Arc::new(StopSignal::new()), None, None);
        let mut engine = engine_over(&core);
        let (server_side, peer) = channel_pair();
        let mut conn = Conn::new(0, server_side);
        let mut reg = Registry::new();

        peer.send(&proto::encode(&Message::Query {
            addr: 0x0a000001,
            addr_pct_tenths: 500,
            ping_pct_tenths: 500,
        }));
        assert!(engine.service(&mut conn, &mut reg));
        assert!(conn.backlog() > 0, "reply queued");
        assert!(engine.flush(&mut conn, &mut reg));

        let mut bytes = Vec::new();
        peer.drain(&mut bytes);
        let (reply, used) = proto::try_decode(&bytes).expect("decodes").expect("complete");
        assert_eq!(used, bytes.len());
        match reply {
            Message::Answer { status, .. } => assert_eq!(status, Status::Exact),
            other => panic!("unexpected reply {other:?}"),
        }
        assert_eq!(reg.counter("serve/queries"), Some(1));
    }

    #[test]
    fn one_engine_over_alternating_registries_records_into_each_its_own() {
        // The engine caches metric handles keyed on the registry it is
        // handed; switching registries (and passing a disabled one in
        // between) must never leak a count into the wrong one.
        let query = proto::encode(&Message::Query {
            addr: 0x0a000001,
            addr_pct_tenths: 500,
            ping_pct_tenths: 500,
        });
        let serve_into = |order: &[usize]| {
            let core = EngineCore::new(test_oracle(), Arc::new(StopSignal::new()), None, None);
            let mut engine = engine_over(&core);
            let (server_side, peer) = channel_pair();
            let mut conn = Conn::new(0, server_side);
            let mut regs = [Registry::new(), Registry::new(), Registry::disabled()];
            for &which in order {
                peer.send(&query);
                assert!(engine.service(&mut conn, &mut regs[which]));
                engine.flush(&mut conn, &mut regs[which]);
            }
            regs
        };
        let [a, b, off] = serve_into(&[0, 1, 2, 0, 1, 2, 0]);
        assert_eq!(a.counter("serve/requests"), Some(3));
        assert_eq!(a.counter("serve/queries"), Some(3));
        assert_eq!(a.counter("serve/hits_exact"), Some(3));
        assert_eq!(a.counter("serve/bytes_in"), Some(3 * query.len() as u64));
        assert_eq!(a.counter("sched/serve/cache_misses"), Some(1));
        assert_eq!(a.counter("sched/serve/cache_hits"), Some(2));
        assert_eq!(b.counter("serve/queries"), Some(2));
        assert_eq!(b.counter("serve/hits_exact"), Some(2));
        assert_eq!(b.counter("serve/bytes_in"), Some(2 * query.len() as u64));
        assert_eq!(b.counter("sched/serve/cache_misses"), Some(0));
        assert_eq!(b.counter("sched/serve/cache_hits"), Some(2));
        assert!(off.is_empty());
        // Each deterministic export equals that of a registry that saw
        // only its own requests.
        assert_eq!(a.to_json(), serve_into(&[0, 0, 0])[0].to_json());
        assert_eq!(b.to_json(), serve_into(&[1, 1])[1].to_json());
    }

    #[test]
    fn identical_logic_over_channel_and_socket_transport_types() {
        // The point of the seam: one Engine type serves both. This pins
        // that TcpStream actually implements Transport (compile-time)
        // and that the channel path produces byte-identical frames to a
        // direct encode of the expected reply.
        fn assert_transport<T: Transport>() {}
        assert_transport::<TcpStream>();
        assert_transport::<ChannelTransport>();

        let core = EngineCore::new(test_oracle(), Arc::new(StopSignal::new()), None, None);
        let mut engine = engine_over(&core);
        let (server_side, peer) = channel_pair();
        let mut conn = Conn::new(7, server_side);
        let mut reg = Registry::new();
        peer.send(&proto::encode(&Message::SnapshotInfo));
        engine.service(&mut conn, &mut reg);
        engine.flush(&mut conn, &mut reg);
        let mut bytes = Vec::new();
        peer.drain(&mut bytes);
        let oracle = core.oracle().current();
        let expect = proto::encode(&Message::SnapshotInfoReply {
            version: 1,
            entries: oracle.entry_count() as u32,
            checksum: oracle.checksum(),
        });
        assert_eq!(bytes, expect, "frame bytes identical to the socket server's");
    }

    #[test]
    fn peer_close_is_seen_after_drain() {
        let core = EngineCore::new(test_oracle(), Arc::new(StopSignal::new()), None, None);
        let mut engine = engine_over(&core);
        let (server_side, peer) = channel_pair();
        let mut conn = Conn::new(1, server_side);
        let mut reg = Registry::new();
        peer.send(&proto::encode(&Message::Stats));
        peer.close();
        assert!(engine.service(&mut conn, &mut reg));
        // The queued request was still answered; the next service pass
        // observes EOF and closes.
        assert!(conn.backlog() > 0);
        engine.flush(&mut conn, &mut reg);
        engine.service(&mut conn, &mut reg);
        assert!(!conn.is_open());
    }

    #[test]
    fn shutdown_frame_raises_the_shared_stop_signal() {
        let stop = Arc::new(StopSignal::new());
        let core = EngineCore::new(test_oracle(), Arc::clone(&stop), None, None);
        let mut engine = engine_over(&core);
        let (server_side, peer) = channel_pair();
        let mut conn = Conn::new(2, server_side);
        let mut reg = Registry::new();
        peer.send(&proto::encode(&Message::Shutdown));
        engine.service(&mut conn, &mut reg);
        assert!(stop.is_stopped());
        assert!(conn.close_after_flush);
        engine.flush(&mut conn, &mut reg);
        assert!(!conn.is_open(), "closes once the ack drained");
        let mut bytes = Vec::new();
        peer.drain(&mut bytes);
        let (reply, _) = proto::try_decode(&bytes).unwrap().unwrap();
        assert!(matches!(reply, Message::ShutdownAck));
    }

    #[test]
    fn policy_plane_works_over_channels() {
        let core = EngineCore::new(
            test_oracle(),
            Arc::new(StopSignal::new()),
            Some(PolicyKind::JacobsonKarn),
            None,
        );
        let mut engine = engine_over(&core);
        let (server_side, peer) = channel_pair();
        let mut conn = Conn::new(3, server_side);
        let mut reg = Registry::new();
        peer.send(&proto::encode(&Message::Report { addr: 0x0a000001, rtt_us: 50_000 }));
        peer.send(&proto::encode(&Message::Query {
            addr: 0x0a000001,
            addr_pct_tenths: 500,
            ping_pct_tenths: 500,
        }));
        engine.service(&mut conn, &mut reg);
        engine.flush(&mut conn, &mut reg);
        let mut bytes = Vec::new();
        peer.drain(&mut bytes);
        let (ack, used) = proto::try_decode(&bytes).unwrap().unwrap();
        assert!(matches!(ack, Message::ReportAck { reports: 1 }));
        let (answer, _) = proto::try_decode(&bytes[used..]).unwrap().unwrap();
        match answer {
            Message::Answer { status, timeout_bits, .. } => {
                assert_eq!(status, Status::Exact, "first report published the table");
                let secs = f64::from_bits(timeout_bits);
                assert!(secs > 0.0 && secs <= 60.0, "sane policy timeout, got {secs}");
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }
}
