//! Blocking client for the oracle protocol.
//!
//! One [`Client`] wraps one TCP connection and issues request/reply
//! round-trips. The client practices what the service preaches: every
//! read carries a socket timeout, so a stalled server surfaces as
//! [`ClientError::Io`] instead of hanging the caller forever.

use crate::machine::{AfterTimeout, ClientMachine, Outcome, Reply};
use crate::proto::{self, ErrorCode, Message, ProtoError, ReloadKind, Status};
use beware_runtime::clock::{SharedClock, WallClock};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// A fully decoded query answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Answer {
    /// Whether a prefix matched or the global fallback answered.
    pub status: Status,
    /// The recommended timeout in seconds.
    pub timeout_secs: f64,
    /// Raw `f64` bits of the timeout, for byte-exact comparison against
    /// offline computation.
    pub timeout_bits: u64,
    /// The matched prefix (0 when the fallback answered).
    pub prefix: u32,
    /// The matched prefix length (0 when the fallback answered).
    pub prefix_len: u8,
}

/// Server-side aggregate counters, as returned by a `Stats` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    /// Queries answered since startup.
    pub queries: u64,
    /// Answers served from a matching prefix table.
    pub hits_exact: u64,
    /// Answers served from the global fallback table.
    pub hits_fallback: u64,
}

/// The serving snapshot's identity, as returned by a `SnapshotInfo`
/// request — and by a successful `Reload`, which reports the snapshot
/// it just installed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// Snapshot version (epoch): 1 at startup, +1 per successful reload.
    pub version: u64,
    /// Number of per-prefix tables in the serving snapshot.
    pub entries: u32,
    /// Content identity: the snapshot's fletcher-64 trailer checksum —
    /// the value a delta's base checksum must match.
    pub checksum: u64,
}

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (includes read timeouts).
    Io(io::Error),
    /// The server's reply could not be decoded.
    Proto(ProtoError),
    /// The server answered with an explicit protocol error.
    Server(ErrorCode),
    /// The server replied with a message that does not answer the
    /// request (e.g. a `StatsReply` to a `Query`).
    UnexpectedReply,
    /// The connection was poisoned by an earlier mid-frame failure (for
    /// example a `read_timeout` that fired with a reply half-received):
    /// the stream position is unknown, so any further round-trip would
    /// decode garbage. Open a new connection.
    Poisoned,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o: {e}"),
            ClientError::Proto(e) => write!(f, "protocol: {e}"),
            ClientError::Server(code) => write!(f, "server error: {code:?}"),
            ClientError::UnexpectedReply => write!(f, "unexpected reply opcode"),
            ClientError::Poisoned => {
                write!(f, "connection poisoned by an earlier mid-frame failure; reconnect")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Proto(e)
    }
}

/// Whether a connect-time failure can be cured by waiting: only refusal
/// and its accept-race kin mean "the server is not listening *yet*".
/// Anything else — unroutable network, permission, bad socket options —
/// will not improve within any deadline, so retrying just burns it.
fn connect_error_is_retryable(e: &ClientError) -> bool {
    use io::ErrorKind::{ConnectionAborted, ConnectionRefused, ConnectionReset};
    let ClientError::Io(e) = e else { return false };
    matches!(e.kind(), ConnectionRefused | ConnectionReset | ConnectionAborted)
}

/// One connection to an oracle server: the blocking driver of a
/// [`ClientMachine`] under the [`AfterTimeout::Poison`] rule. The
/// transport's read timeout is the deadline; it surfaces as
/// [`ClientError::Io`]. Generic over the transport: [`connect`](Client::connect)
/// opens a [`TcpStream`], and [`from_transport`](Client::from_transport)
/// takes any `Read + Write` (a `FaultyTransport` over an in-memory oracle,
/// say), so the poisoning contract is checkable without sockets.
#[derive(Debug)]
pub struct Client<T = TcpStream> {
    stream: T,
    machine: ClientMachine,
    clock: SharedClock,
    /// Request bytes, encoded in place.
    tx: Vec<u8>,
    /// Received bytes the machine has not used yet.
    rx: Vec<u8>,
}

impl Client<TcpStream> {
    /// Connect with a bounded read timeout on the resulting connection.
    pub fn connect(addr: SocketAddr, read_timeout: Duration) -> Result<Client, ClientError> {
        Client::tcp(TcpStream::connect(addr)?, read_timeout, WallClock::shared())
    }

    fn tcp(s: TcpStream, timeout: Duration, clock: SharedClock) -> Result<Client, ClientError> {
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(timeout))?;
        Ok(Client { clock, ..Client::from_transport(s) })
    }

    /// Connect, retrying on refusal until `deadline` elapses — for racing
    /// a server that is still binding its socket. Each attempt is bounded
    /// by the deadline's remainder, so a host that drops SYNs costs at
    /// most `deadline`, not the kernel's minutes of SYN retries.
    /// Non-refusal errors (an unroutable address, say) fail immediately
    /// rather than spinning for the full deadline.
    pub fn connect_retry(
        addr: SocketAddr,
        read_timeout: Duration,
        deadline: Duration,
    ) -> Result<Client, ClientError> {
        Client::connect_retry_with_clock(addr, read_timeout, deadline, &WallClock::shared())
    }

    /// [`connect_retry`](Client::connect_retry) with the retry deadline
    /// and backoff measured on `clock` — under a virtual clock the
    /// deadline arithmetic is testable without waiting it out. The
    /// connection times its round trips on `clock` too.
    pub fn connect_retry_with_clock(
        addr: SocketAddr,
        read_timeout: Duration,
        deadline: Duration,
        clock: &SharedClock,
    ) -> Result<Client, ClientError> {
        let t0 = clock.now();
        let mut last = None;
        loop {
            // `connect_timeout` rejects a zero budget: a spent deadline
            // ends the loop with the last attempt's error instead.
            let left = deadline.saturating_sub(clock.since(t0));
            if left.is_zero() {
                return Err(last.unwrap_or_else(|| io::Error::from(io::ErrorKind::TimedOut).into()));
            }
            let attempt = TcpStream::connect_timeout(&addr, left).map_err(ClientError::from);
            match attempt.and_then(|s| Client::tcp(s, read_timeout, Arc::clone(clock))) {
                Ok(c) => return Ok(c),
                Err(e) if connect_error_is_retryable(&e) => last = Some(e),
                Err(e) => return Err(e),
            }
            clock.sleep(Duration::from_millis(10));
        }
    }
}

impl<T: Read + Write> Client<T> {
    /// Wrap an already-established transport. The caller owns any
    /// timeout configuration the transport needs; the poisoning rules
    /// are identical to a TCP client's.
    pub fn from_transport(stream: T) -> Client<T> {
        Client {
            stream,
            machine: ClientMachine::new(AfterTimeout::Poison),
            clock: WallClock::shared(),
            tx: Vec::new(),
            rx: Vec::new(),
        }
    }

    /// Whether an earlier mid-frame failure has poisoned this connection
    /// (every further round-trip returns [`ClientError::Poisoned`]).
    pub fn is_poisoned(&self) -> bool {
        self.machine.is_poisoned()
    }

    /// Ask for the timeout covering `addr_pct_tenths`‰ of addresses and
    /// `ping_pct_tenths`‰ of pings to address `addr` (both in tenths of a
    /// percent, e.g. `950` = 95.0%).
    pub fn query(
        &mut self,
        addr: u32,
        addr_pct: u16,
        ping_pct: u16,
    ) -> Result<Answer, ClientError> {
        self.query_timed(addr, addr_pct, ping_pct).map(|(answer, _)| answer)
    }

    /// [`query`](Client::query), with the round-trip time from the
    /// request's encoding to the reply's last byte.
    pub fn query_timed(
        &mut self,
        addr: u32,
        addr_pct_tenths: u16,
        ping_pct_tenths: u16,
    ) -> Result<(Answer, Duration), ClientError> {
        match self.round_trip(&Message::Query { addr, addr_pct_tenths, ping_pct_tenths })? {
            (Reply::Answer(a), rtt) => Ok((a, rtt)),
            _ => unreachable!("the machine matches a reply to its request"),
        }
    }

    /// Fetch the server's aggregate counters.
    pub fn stats(&mut self) -> Result<ServerStats, ClientError> {
        self.ask(Message::Stats, |r| if let Reply::Stats(s) = r { Some(s) } else { None })
    }

    /// Ask which snapshot the server is currently answering from.
    pub fn snapshot_info(&mut self) -> Result<SnapshotInfo, ClientError> {
        self.ask(Message::SnapshotInfo, |r| if let Reply::Snapshot(i) = r { Some(i) } else { None })
    }

    /// Feed the server's online policy one measured RTT for `addr`
    /// (`beware serve --policy`); resolves to the server's running
    /// report count. A snapshot-only server answers
    /// [`ErrorCode::PolicyUnavailable`].
    pub fn report(&mut self, addr: u32, rtt_us: u32) -> Result<u64, ClientError> {
        let msg = Message::Report { addr, rtt_us };
        self.ask(msg, |r| if let Reply::ReportAck(n) = r { Some(n) } else { None })
    }

    /// Ask the server to hot-reload its snapshot from the configured
    /// source (`--reload-from`); resolves to the identity of the
    /// snapshot now being served. Failures come back typed:
    /// [`ErrorCode::ReloadUnavailable`] (no source configured),
    /// [`ErrorCode::SnapshotRejected`] (unreadable or invalid source —
    /// the old snapshot keeps serving), or [`ErrorCode::StaleDelta`]
    /// (the delta's base is not the serving snapshot).
    pub fn reload(&mut self, kind: ReloadKind) -> Result<SnapshotInfo, ClientError> {
        self.ask(
            Message::Reload { kind },
            |r| if let Reply::Snapshot(i) = r { Some(i) } else { None },
        )
    }

    /// Ask the server to shut down; resolves once the acknowledgement
    /// arrives.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.ask(Message::Shutdown, |r| (r == Reply::ShutdownAck).then_some(()))
    }

    /// One round trip, with the reply `pick`ed out of the machine's match.
    fn ask<R>(&mut self, msg: Message, pick: fn(Reply) -> Option<R>) -> Result<R, ClientError> {
        let (reply, _) = self.round_trip(&msg)?;
        Ok(pick(reply).expect("the machine matches a reply to its request"))
    }

    /// Send `msg` and block until the machine has its reply. A failed
    /// write or read poisons the connection.
    fn round_trip(&mut self, msg: &Message) -> Result<(Reply, Duration), ClientError> {
        self.tx.clear();
        // The transport's read timeout stands in for the deadline.
        self.machine.send(self.clock.now(), Duration::MAX, msg, &mut self.tx)?;
        if let Err(e) = self.stream.write_all(&self.tx) {
            self.machine.on_transport_error();
            return Err(e.into());
        }
        let mut chunk = [0u8; proto::MAX_FRAME + 2];
        loop {
            let (used, outcome) = self.machine.on_bytes(self.clock.now(), &self.rx);
            self.rx.drain(..used);
            if let Some(Outcome::Reply { reply, rtt }) = outcome {
                return reply.map(|r| (r, rtt));
            }
            let err = match self.stream.read(&mut chunk) {
                Ok(0) => io::ErrorKind::UnexpectedEof.into(),
                Ok(n) => {
                    self.rx.extend_from_slice(&chunk[..n]);
                    continue;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => e,
            };
            if matches!(err.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) {
                self.machine.on_deadline();
            } else {
                self.machine.on_transport_error();
            }
            return Err(ClientError::Io(err));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::time::Instant;

    fn io_err(kind: io::ErrorKind) -> ClientError {
        ClientError::Io(io::Error::new(kind, "test"))
    }

    #[test]
    fn only_refusal_kin_are_retryable() {
        assert!(connect_error_is_retryable(&io_err(io::ErrorKind::ConnectionRefused)));
        assert!(connect_error_is_retryable(&io_err(io::ErrorKind::ConnectionReset)));
        assert!(connect_error_is_retryable(&io_err(io::ErrorKind::ConnectionAborted)));
        assert!(!connect_error_is_retryable(&io_err(io::ErrorKind::TimedOut)));
        assert!(!connect_error_is_retryable(&io_err(io::ErrorKind::PermissionDenied)));
        assert!(!connect_error_is_retryable(&io_err(io::ErrorKind::AddrNotAvailable)));
        assert!(!connect_error_is_retryable(&io_err(io::ErrorKind::Other)));
        assert!(!connect_error_is_retryable(&ClientError::Poisoned));
        assert!(!connect_error_is_retryable(&ClientError::UnexpectedReply));
    }

    #[test]
    fn connect_retry_fails_fast_on_unroutable_address() {
        // 255.255.255.255 is never connectable; the kernel rejects it
        // immediately with a non-refusal error. With a 10 s deadline, the
        // old retry-everything loop would spin the whole deadline —
        // fail-fast must return well under it.
        let addr: SocketAddr = "255.255.255.255:9".parse().unwrap();
        let t0 = Instant::now();
        let out = Client::connect_retry(addr, Duration::from_secs(1), Duration::from_secs(10));
        assert!(out.is_err());
        assert!(
            t0.elapsed() < Duration::from_secs(3),
            "non-retryable connect error spun for {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn connect_retry_still_waits_out_refusals() {
        // A bound-then-dropped listener's port is (almost certainly)
        // refused: the deadline must be honored, then the refusal
        // surfaced.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let t0 = Instant::now();
        let out = Client::connect_retry(addr, Duration::from_secs(1), Duration::from_millis(80));
        assert!(out.is_err());
        let waited = t0.elapsed();
        assert!(waited >= Duration::from_millis(80), "gave up after {waited:?}");
        assert!(waited < Duration::from_secs(5), "spun too long: {waited:?}");
    }

    #[test]
    fn connect_retry_deadline_bounds_an_attempt_whose_syn_is_dropped() {
        // A listener that never accepts: once its accept queue is full,
        // the kernel drops further SYNs and a plain blocking connect
        // waits out minutes of SYN retries. Fill the queue until a short
        // probe stalls (std listens with a backlog of 128).
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut queued = Vec::new();
        while let Ok(s) = TcpStream::connect_timeout(&addr, Duration::from_millis(200)) {
            queued.push(s);
            if queued.len() > 512 {
                eprintln!("accept queue never filled; dropped SYNs are not reproducible here");
                return;
            }
        }
        let t0 = Instant::now();
        let out = Client::connect_retry(addr, Duration::from_secs(1), Duration::from_millis(300));
        let waited = t0.elapsed();
        match out {
            Err(ClientError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::TimedOut),
            other => panic!("expected a timed-out connect, got {other:?}"),
        }
        assert!(waited < Duration::from_secs(3), "a 300 ms deadline took {waited:?}");
    }

    #[test]
    fn mid_frame_timeout_poisons_the_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            // Consume the query, then answer with HALF a frame and stall.
            let mut buf = [0u8; 64];
            let _ = s.read(&mut buf);
            let reply = proto::encode(&Message::Answer {
                status: Status::Exact,
                timeout_bits: 3.0f64.to_bits(),
                prefix: 0x0a000000,
                prefix_len: 24,
            });
            s.write_all(&reply[..reply.len() / 2]).unwrap();
            // Hold the socket open until the client is done asserting, so
            // the tail bytes never arrive and the timeout genuinely fires
            // mid-frame.
            let _ = done_rx.recv_timeout(Duration::from_secs(10));
        });

        let mut client = Client::connect(addr, Duration::from_millis(100)).unwrap();
        assert!(!client.is_poisoned());
        match client.query(1, 950, 950) {
            Err(ClientError::Io(_)) => {}
            other => panic!("expected a timeout Io error, got {other:?}"),
        }
        assert!(client.is_poisoned());
        // Reuse must fail with the dedicated variant, not decode garbage.
        match client.query(1, 950, 950) {
            Err(ClientError::Poisoned) => {}
            other => panic!("expected Poisoned on reuse, got {other:?}"),
        }
        match client.stats() {
            Err(ClientError::Poisoned) => {}
            other => panic!("expected Poisoned on reuse, got {other:?}"),
        }
        done_tx.send(()).ok();
        server.join().unwrap();
    }

    #[test]
    fn server_level_errors_do_not_poison() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut buf = [0u8; 64];
            for reply in [
                Message::Error { code: ErrorCode::UnsupportedPercentile },
                Message::ShutdownAck, // wrong opcode for a query
                Message::Answer {
                    status: Status::Fallback,
                    timeout_bits: 60.0f64.to_bits(),
                    prefix: 0,
                    prefix_len: 0,
                },
            ] {
                let _ = s.read(&mut buf);
                s.write_all(&proto::encode(&reply)).unwrap();
            }
        });

        let mut client = Client::connect(addr, Duration::from_secs(5)).unwrap();
        assert!(matches!(client.query(1, 123, 950), Err(ClientError::Server(_))));
        assert!(!client.is_poisoned(), "a well-framed server error must not poison");
        assert!(matches!(client.query(1, 950, 950), Err(ClientError::UnexpectedReply)));
        assert!(!client.is_poisoned(), "a well-framed wrong opcode must not poison");
        let ans = client.query(1, 950, 950).unwrap();
        assert_eq!(ans.status, Status::Fallback);
        server.join().unwrap();
    }
}
