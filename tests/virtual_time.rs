//! Virtual-time suite: the paper's surprisingly high delays — 5 s tails,
//! 145 s stalls — replayed against the timeout stack in milliseconds of
//! wall clock. Every test here injects a
//! [`VirtualClock`](beware::runtime::VirtualClock) and exercises a
//! timeout path that would otherwise cost minutes of real waiting: a
//! multi-minute chaos delay schedule, client poisoning after a simulated
//! `read_timeout`, and the connect-retry deadline. No test sleeps for
//! real; CI runs the whole file under a tight wall-clock budget to keep
//! it that way (see `.github/workflows/ci.yml`). The server's own
//! deadlines fire through `epoll_wait` on the wall clock, so their tests
//! live in `tests/serve.rs`.

use beware::faultsim::{FaultCfg, FaultyTransport};
use beware::runtime::{Clock, VirtualClock};
use beware::serve::proto;
use beware::serve::{Client, ClientError, Message, Status};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// In-memory loopback transport: writes append, reads pop.
#[derive(Debug, Default)]
struct Loopback(VecDeque<u8>);

impl Write for Loopback {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.extend(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Read for Loopback {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = buf.len().min(self.0.len());
        for b in buf.iter_mut().take(n) {
            *b = self.0.pop_front().unwrap();
        }
        Ok(n)
    }
}

/// Pump 256-byte writes through a delay-everything fault schedule until
/// more than 145 s of simulated delay have accumulated, then read it all
/// back (reads delay too). Returns the rendered fault counters, the
/// final virtual time and the write count — everything a replay must
/// reproduce byte for byte.
fn run_delay_schedule(seed: u64, stream: u64) -> (String, Duration, usize) {
    let vc = VirtualClock::new();
    let cfg = FaultCfg { delay_prob: 1.0, max_delay_ms: 2000, ..FaultCfg::disabled(seed) };
    let mut t = FaultyTransport::with_clock(Loopback::default(), cfg, stream, vc.handle());
    let payload = [0x5au8; 256];
    let mut writes = 0usize;
    while vc.now() <= Duration::from_secs(145) {
        let mut sent = 0;
        while sent < payload.len() {
            sent += t.write(&payload[sent..]).expect("a delay-only schedule never fails");
        }
        writes += 1;
        assert!(writes < 100_000, "schedule never accumulated 145 s of virtual delay");
    }
    let mut got = 0usize;
    let mut buf = [0u8; 512];
    loop {
        match t.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) => panic!("a delay-only schedule never fails reads: {e}"),
        }
    }
    assert_eq!(got, writes * payload.len(), "delays must not lose bytes");
    let (_, reg) = t.into_parts();
    (reg.render_text(), vc.now(), writes)
}

/// The headline act: seeded fault schedules spanning 145+ simulated
/// seconds each replay in milliseconds, byte-identically — across runs
/// and across serial vs. one-thread-per-schedule execution.
#[test]
fn long_chaos_schedules_replay_identically_without_wall_time() {
    let wall = Instant::now();
    let params: Vec<(u64, u64)> = (0..4).map(|s| (0xD1CE ^ s, s)).collect();

    let serial: Vec<_> =
        params.iter().map(|&(seed, stream)| run_delay_schedule(seed, stream)).collect();
    let rerun: Vec<_> =
        params.iter().map(|&(seed, stream)| run_delay_schedule(seed, stream)).collect();
    let threaded: Vec<_> = params
        .iter()
        .map(|&(seed, stream)| std::thread::spawn(move || run_delay_schedule(seed, stream)))
        .collect::<Vec<_>>()
        .into_iter()
        .map(|h| h.join().expect("schedule thread panicked"))
        .collect();

    assert_eq!(serial, rerun, "same seeds must replay byte-identically");
    assert_eq!(serial, threaded, "thread count must not change a schedule");
    for (text, vtime, writes) in &serial {
        assert!(*vtime > Duration::from_secs(145), "only {vtime:?} simulated");
        assert!(*writes > 0);
        assert!(text.contains("faults/injected/delays"), "delays went uncounted:\n{text}");
    }
    assert!(
        wall.elapsed() < Duration::from_secs(2),
        "12 simulated multi-minute schedules took {:?} of wall clock",
        wall.elapsed()
    );
}

/// Scripted in-memory oracle: every request written is answered with one
/// canned `Answer` frame; flipping `fail_reads` makes the next read fail
/// the way a socket `read_timeout` does.
#[derive(Debug)]
struct ScriptedOracle {
    replies: VecDeque<u8>,
    answer: Vec<u8>,
    fail_reads: Arc<AtomicBool>,
}

impl Write for ScriptedOracle {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.replies.extend(self.answer.iter());
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Read for ScriptedOracle {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.fail_reads.load(Ordering::Relaxed) {
            return Err(io::Error::new(io::ErrorKind::TimedOut, "scripted read_timeout"));
        }
        let n = buf.len().min(self.replies.len());
        for b in buf.iter_mut().take(n) {
            *b = self.replies.pop_front().unwrap();
        }
        Ok(n)
    }
}

/// The client rides out 145+ simulated seconds of injected delay without
/// consuming wall time, then a simulated `read_timeout` poisons the
/// connection exactly as a real one would: the failing call is a typed
/// `Io` error, every later call is `Poisoned`.
#[test]
fn client_survives_virtual_delays_then_poisons_on_timeout() {
    let wall = Instant::now();
    let vc = VirtualClock::new();
    let fail_reads = Arc::new(AtomicBool::new(false));
    let inner = ScriptedOracle {
        replies: VecDeque::new(),
        answer: proto::encode(&Message::Answer {
            status: Status::Fallback,
            timeout_bits: 5.0f64.to_bits(),
            prefix: 0,
            prefix_len: 0,
        }),
        fail_reads: Arc::clone(&fail_reads),
    };
    let cfg = FaultCfg { delay_prob: 1.0, max_delay_ms: 150_000, ..FaultCfg::disabled(0xbe0a) };
    let mut client =
        Client::from_transport(FaultyTransport::with_clock(inner, cfg, 0, vc.handle()));

    // Each round-trip eats several uniform(1..=150 s) injected delays;
    // keep querying until the schedule has cost more than the paper's
    // worst observed stall.
    let mut queries = 0usize;
    while vc.now() <= Duration::from_secs(145) {
        let ans = client.query(0x0a00_0001, 950, 950).expect("scripted oracle always answers");
        assert_eq!(ans.timeout_bits, 5.0f64.to_bits());
        queries += 1;
        assert!(queries < 100_000, "delays never accumulated 145 s");
    }
    assert!(!client.is_poisoned(), "slow is not broken: delays alone must not poison");

    fail_reads.store(true, Ordering::Relaxed);
    match client.query(0x0a00_0001, 950, 950) {
        Err(ClientError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::TimedOut),
        other => panic!("expected the scripted timeout, got {other:?}"),
    }
    assert!(client.is_poisoned());
    match client.query(0x0a00_0001, 950, 950) {
        Err(ClientError::Poisoned) => {}
        other => panic!("expected Poisoned on reuse, got {other:?}"),
    }
    assert!(
        wall.elapsed() < Duration::from_secs(2),
        "145+ simulated seconds cost {:?} of wall clock",
        wall.elapsed()
    );
}

/// `connect_retry`'s deadline arithmetic on a virtual clock: thirty
/// virtual seconds of refused connections — 3 000 exact 10 ms backoff
/// sleeps — resolve in well under five real seconds, and the deadline is
/// honored before the error surfaces.
#[test]
fn connect_retry_waits_out_a_virtual_deadline_instantly() {
    // A bound-then-dropped port refuses (almost certainly) every connect.
    let addr = {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    };
    let vc = VirtualClock::new();
    let clock = vc.handle();
    let wall = Instant::now();
    let out = Client::connect_retry_with_clock(
        addr,
        Duration::from_secs(1),
        Duration::from_secs(30),
        &clock,
    );
    assert!(out.is_err(), "nothing listens on a dropped port");
    assert!(
        vc.now() >= Duration::from_secs(30),
        "gave up after only {:?} of virtual time",
        vc.now()
    );
    assert!(
        wall.elapsed() < Duration::from_secs(5),
        "a 30 s virtual deadline cost {:?} of wall clock",
        wall.elapsed()
    );
}
