//! In-process TCP chaos proxy.
//!
//! `ChaosProxy` binds an ephemeral port, forwards each accepted
//! connection to the upstream address, and injects the [`FaultCfg`]
//! repertoire into the forwarded bytes in both directions. Connection
//! *i* draws its fault decisions from `derive_seed(cfg.seed, i)`;
//! per-connection telemetry registries are merged **in connection index
//! order** at [`join`](ChaosProxy::join), mirroring the shard-merge
//! discipline of the server itself.
//!
//! The proxy is itself held to the no-hang contract it exists to test:
//! every socket is nonblocking, every forward retry is bounded, and a
//! stalled direction parks until the proxy is stopped rather than
//! spinning. `join` always returns.
//!
//! Injected delays are **deferred releases**, not inline sleeps: a
//! delayed chunk is scheduled on a [`DeadlineWheel`] and held while the
//! *other* direction keeps flowing — a delay on the response path must
//! not freeze the request path, exactly the head-of-line distinction the
//! paper's measurements turn on. The proxy runs on the wall clock; the
//! virtual-time replay of long delay schedules goes through
//! [`FaultyTransport::with_clock`](crate::FaultyTransport::with_clock)
//! instead.

use crate::FaultCfg;
use beware_runtime::clock::{SharedClock, WallClock};
use beware_runtime::rng::{derive_seed, SplitMix64};
use beware_runtime::wheel::DeadlineWheel;
use beware_telemetry::Registry;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A running chaos proxy. Stop it with [`stop`](ChaosProxy::stop) /
/// [`join`](ChaosProxy::join); dropping the handle leaves the threads
/// running detached.
#[derive(Debug)]
pub struct ChaosProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<(Registry, Vec<JoinHandle<Registry>>)>>,
}

impl ChaosProxy {
    /// Bind `127.0.0.1:0` and start proxying to `upstream` with the given
    /// fault schedule. Every nap, retry backoff and injected-delay
    /// release deadline runs on the wall clock.
    pub fn start(upstream: SocketAddr, cfg: FaultCfg) -> io::Result<ChaosProxy> {
        let clock = WallClock::shared();
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_a = Arc::clone(&stop);
        let acceptor = std::thread::spawn(move || {
            let mut reg = Registry::new();
            let mut handlers: Vec<JoinHandle<Registry>> = Vec::new();
            let mut index = 0u64;
            loop {
                if stop_a.load(Ordering::SeqCst) {
                    break;
                }
                match listener.accept() {
                    Ok((client, _)) => {
                        reg.scope("faults").scope("proxy").incr("connections");
                        let seed = derive_seed(cfg.seed, index);
                        index += 1;
                        let cfg = cfg.clone();
                        let stop = Arc::clone(&stop_a);
                        let clock = Arc::clone(&clock);
                        handlers.push(std::thread::spawn(move || {
                            pump_connection(client, upstream, &cfg, seed, &stop, &clock)
                        }));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        clock.sleep(Duration::from_millis(1));
                    }
                    Err(_) => {
                        reg.scope("faults").scope("proxy").incr("accept_errors");
                        clock.sleep(Duration::from_millis(1));
                    }
                }
            }
            (reg, handlers)
        });
        Ok(ChaosProxy { addr, stop, acceptor: Some(acceptor) })
    }

    /// The proxy's listening address — point clients here.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Ask every proxy thread to wind down.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Stop and collect the merged fault telemetry: acceptor first, then
    /// every connection handler in accept order.
    pub fn join(mut self) -> Registry {
        self.stop();
        let (mut reg, handlers) =
            self.acceptor.take().expect("join called once").join().expect("acceptor panicked");
        for h in handlers {
            reg.merge(&h.join().expect("connection handler panicked"));
        }
        reg
    }
}

/// One direction of a proxied connection.
struct Pipe {
    /// Bytes read from the source but not yet forwarded.
    pending: Vec<u8>,
    /// Offset of the unforwarded suffix of `pending`.
    pos: usize,
    /// Source reached EOF (forward the tail, then half-close).
    src_eof: bool,
    /// A stall fault fired: accept (and discard) source bytes forever,
    /// forward nothing.
    stalled: bool,
    /// Length of the chunk whose fault decisions are already drawn but
    /// which has not finished forwarding — held while a deferred delay
    /// for this direction is live on the wheel.
    planned: Option<usize>,
    /// Telemetry suffix: `"up"` (client→server) or `"down"`.
    label: &'static str,
}

impl Pipe {
    fn new(label: &'static str) -> Pipe {
        Pipe { pending: Vec::new(), pos: 0, src_eof: false, stalled: false, planned: None, label }
    }

    fn done(&self) -> bool {
        self.src_eof && (self.stalled || self.pos >= self.pending.len())
    }
}

/// Forward traffic between `client` and a fresh upstream connection,
/// injecting faults, until both directions drain, a fault kills the
/// connection, or the proxy stops. Returns this connection's fault
/// counters.
fn pump_connection(
    client: TcpStream,
    upstream: SocketAddr,
    cfg: &FaultCfg,
    seed: u64,
    stop: &AtomicBool,
    clock: &SharedClock,
) -> Registry {
    let mut reg = Registry::new();
    let mut rng = SplitMix64::new(seed);
    let mut client = client;
    let mut server: TcpStream = match TcpStream::connect_timeout(&upstream, Duration::from_secs(2))
    {
        Ok(s) => s,
        Err(_) => {
            reg.scope("faults").scope("proxy").incr("upstream_connect_errors");
            return reg;
        }
    };
    for s in [&client, &server] {
        let _ = s.set_nodelay(true);
        let _ = s.set_nonblocking(true);
    }

    let mut up = Pipe::new("up"); // client → server
    let mut down = Pipe::new("down"); // server → client
                                      // Deferred-delay release deadlines, keyed by direction. A live entry
                                      // for a pipe's label means its planned chunk is being held.
    let mut wheel: DeadlineWheel<&'static str> = DeadlineWheel::new();

    while !stop.load(Ordering::SeqCst) {
        // Release any direction whose injected delay has elapsed.
        while wheel.pop_expired(clock.now()).is_some() {}
        let moved_up = match pump_dir(
            &mut client,
            &mut server,
            &mut up,
            cfg,
            &mut rng,
            &mut reg,
            &mut wheel,
            clock,
        ) {
            Ok(m) => m,
            Err(()) => break,
        };
        let moved_down = match pump_dir(
            &mut server,
            &mut client,
            &mut down,
            cfg,
            &mut rng,
            &mut reg,
            &mut wheel,
            clock,
        ) {
            Ok(m) => m,
            Err(()) => break,
        };
        if up.done() && down.done() {
            break;
        }
        if !(moved_up || moved_down) {
            clock.sleep(Duration::from_micros(500));
        }
    }
    reg
}

/// Move bytes one hop in one direction. `Err(())` means the connection is
/// dead (abrupt-close fault, or a peer error) and the pump should end.
#[allow(clippy::too_many_arguments)]
fn pump_dir(
    src: &mut TcpStream,
    dst: &mut TcpStream,
    pipe: &mut Pipe,
    cfg: &FaultCfg,
    rng: &mut SplitMix64,
    reg: &mut Registry,
    wheel: &mut DeadlineWheel<&'static str>,
    clock: &SharedClock,
) -> Result<bool, ()> {
    let mut moved = false;
    let mut scratch = [0u8; 2048];

    // Ingest whatever the source has.
    if !pipe.src_eof {
        loop {
            match src.read(&mut scratch) {
                Ok(0) => {
                    pipe.src_eof = true;
                    break;
                }
                Ok(n) => {
                    moved = true;
                    reg.scope("faults")
                        .scope("proxy")
                        .add(&format!("bytes_{}", pipe.label), n as u64);
                    if !pipe.stalled {
                        pipe.pending.extend_from_slice(&scratch[..n]);
                    }
                    // Cap ingest per pump round so one firehose direction
                    // cannot monopolize the handler.
                    if pipe.pending.len() - pipe.pos > 64 * 1024 {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    pipe.src_eof = true;
                    break;
                }
            }
        }
    }

    if pipe.stalled {
        pipe.pending.clear();
        pipe.pos = 0;
        return Ok(moved);
    }

    // Forward the backlog, one faulted chunk at a time. Decisions for a
    // chunk are drawn once (`pipe.planned`); a delay fault schedules a
    // release deadline on the wheel and *holds this direction only* —
    // the caller keeps pumping the opposite direction meanwhile, so an
    // injected response delay cannot freeze the request path the way the
    // old inline sleep did.
    while pipe.pos < pipe.pending.len() {
        let avail = pipe.pending.len() - pipe.pos;
        let n = match pipe.planned {
            Some(n) => n.min(avail),
            None => {
                if rng.coin(cfg.close_prob) {
                    reg.scope("faults").scope("injected").incr("closes");
                    let _ = src.shutdown(std::net::Shutdown::Both);
                    let _ = dst.shutdown(std::net::Shutdown::Both);
                    return Err(());
                }
                if rng.coin(cfg.truncate_prob) {
                    // Swallow the rest and half-close downstream: the peer
                    // sees a stream that ends, possibly mid-frame.
                    reg.scope("faults").scope("injected").incr("truncations");
                    pipe.pending.clear();
                    pipe.pos = 0;
                    pipe.src_eof = true;
                    let _ = dst.shutdown(std::net::Shutdown::Write);
                    return Ok(true);
                }
                if !pipe.stalled && rng.coin(cfg.stall_prob) {
                    reg.scope("faults").scope("injected").incr("stalls");
                    pipe.stalled = true;
                    pipe.pending.clear();
                    pipe.pos = 0;
                    return Ok(moved);
                }
                let drawn = rng.one_to(cfg.max_chunk as u64) as usize;
                let n = if cfg.max_chunk == 0 { avail } else { drawn.min(avail) };
                if n < avail {
                    reg.scope("faults").scope("injected").incr("splits");
                }
                if rng.coin(cfg.delay_prob) {
                    let ms = rng.one_to(cfg.max_delay_ms.max(1));
                    reg.scope("faults").scope("injected").incr("delays");
                    wheel.schedule(pipe.label, clock.now() + Duration::from_millis(ms));
                }
                if rng.coin(cfg.corrupt_prob) {
                    let at = pipe.pos + (rng.next_u64() as usize) % n;
                    let mask = rng.one_to(255) as u8;
                    pipe.pending[at] ^= mask;
                    reg.scope("faults").scope("injected").incr("corruptions");
                }
                pipe.planned = Some(n);
                n
            }
        };
        if wheel.deadline_of(&pipe.label).is_some() {
            // The planned chunk is held by a deferred delay; nothing more
            // moves in this direction until the wheel releases it.
            break;
        }
        match write_bounded(dst, &pipe.pending[pipe.pos..pipe.pos + n], clock) {
            Ok(written) => {
                if written == 0 {
                    // Downstream is not draining; try again next round.
                    break;
                }
                pipe.pos += written;
                pipe.planned = None;
                moved = true;
            }
            Err(_) => return Err(()),
        }
    }
    if pipe.pos >= pipe.pending.len() {
        pipe.pending.clear();
        pipe.pos = 0;
        if pipe.src_eof {
            let _ = dst.shutdown(std::net::Shutdown::Write);
        }
    }
    Ok(moved)
}

/// Write with a *bounded* nonblocking retry: up to 8 attempts, 1 ms
/// apart. Returns how many bytes went through (possibly 0 when the
/// destination's buffer stays full — the caller retries next round, so
/// the proxy never blocks on a slow reader).
fn write_bounded(dst: &mut TcpStream, buf: &[u8], clock: &SharedClock) -> io::Result<usize> {
    let mut written = 0;
    let mut tries = 0;
    while written < buf.len() && tries < 8 {
        match dst.write(&buf[written..]) {
            Ok(0) => return Err(io::Error::new(io::ErrorKind::WriteZero, "peer gone")),
            Ok(n) => written += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                tries += 1;
                clock.sleep(Duration::from_millis(1));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial upstream echo server for proxy tests.
    fn echo_server() -> (SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let h = std::thread::spawn(move || {
            // Serve one connection per test server, then exit.
            if let Some(mut stream) = listener.incoming().flatten().next() {
                let mut buf = [0u8; 1024];
                loop {
                    match stream.read(&mut buf) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => {
                            if stream.write_all(&buf[..n]).is_err() {
                                break;
                            }
                        }
                    }
                }
            }
        });
        (addr, h)
    }

    #[test]
    fn disabled_proxy_passes_bytes_verbatim() {
        let (upstream, server) = echo_server();
        let proxy = ChaosProxy::start(upstream, FaultCfg::disabled(1)).unwrap();
        let mut c = TcpStream::connect(proxy.local_addr()).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let payload: Vec<u8> = (0..=255u8).collect();
        c.write_all(&payload).unwrap();
        let mut got = vec![0u8; payload.len()];
        c.read_exact(&mut got).unwrap();
        assert_eq!(got, payload);
        drop(c);
        server.join().unwrap();
        let reg = proxy.join();
        assert_eq!(reg.counter("faults/proxy/connections"), Some(1));
        assert!(reg.counter("faults/proxy/bytes_up").unwrap() >= 256);
    }

    #[test]
    fn split_proxy_preserves_content() {
        let (upstream, server) = echo_server();
        let proxy = ChaosProxy::start(upstream, FaultCfg::split_only(7)).unwrap();
        let mut c = TcpStream::connect(proxy.local_addr()).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let payload: Vec<u8> = (0..2048u32).map(|i| (i % 251) as u8).collect();
        c.write_all(&payload).unwrap();
        let mut got = vec![0u8; payload.len()];
        c.read_exact(&mut got).unwrap();
        assert_eq!(got, payload);
        drop(c);
        server.join().unwrap();
        let reg = proxy.join();
        assert!(reg.counter("faults/injected/splits").unwrap() > 0);
    }

    #[test]
    fn deferred_delays_release_and_deliver() {
        let (upstream, server) = echo_server();
        let cfg = FaultCfg { delay_prob: 1.0, max_delay_ms: 5, ..FaultCfg::disabled(9) };
        let proxy = ChaosProxy::start(upstream, cfg).unwrap();
        let mut c = TcpStream::connect(proxy.local_addr()).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        c.write_all(b"delayed but intact").unwrap();
        let mut got = [0u8; 18];
        c.read_exact(&mut got).unwrap();
        assert_eq!(&got, b"delayed but intact");
        drop(c);
        server.join().unwrap();
        let reg = proxy.join();
        assert!(reg.counter("faults/injected/delays").unwrap() > 0, "every chunk is delayed");
    }

    #[test]
    fn join_returns_even_with_stalled_connection() {
        let (upstream, _server) = echo_server();
        let cfg = FaultCfg { stall_prob: 1.0, ..FaultCfg::disabled(3) };
        let proxy = ChaosProxy::start(upstream, cfg).unwrap();
        let mut c = TcpStream::connect(proxy.local_addr()).unwrap();
        c.set_read_timeout(Some(Duration::from_millis(100))).unwrap();
        c.write_all(b"never forwarded").unwrap();
        let mut buf = [0u8; 16];
        assert!(c.read(&mut buf).is_err(), "stalled direction must yield a read timeout");
        // The handler is parked on the stall; join must still return.
        let reg = proxy.join();
        assert_eq!(reg.counter("faults/injected/stalls"), Some(1));
    }
}
