//! Byte-level fault wrapper over any `Read + Write` transport.

use crate::FaultCfg;
use beware_runtime::clock::{SharedClock, WallClock};
use beware_runtime::rng::{derive_seed, SplitMix64};
use beware_telemetry::Registry;
use std::io::{self, Read, Write};
use std::time::Duration;

/// Lifecycle of a faulted transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Open,
    /// Mid-stream truncation fired: writes are silently swallowed and
    /// reads report clean EOF — the peer sees a connection that just
    /// stopped, possibly mid-frame.
    Truncated,
    /// Abrupt close fired: every operation fails like a reset socket.
    Closed,
}

/// A `Read + Write` wrapper that injects seeded faults on every byte
/// moved: split writes, delayed and stalled reads, corrupted bytes,
/// mid-stream truncation, abrupt closes.
///
/// The decision sequence is a pure function of `(cfg.seed, stream_index)`
/// — see the crate docs. Injected faults are counted under
/// `faults/injected/` in an internal [`Registry`] ([`metrics`]).
///
/// [`metrics`]: FaultyTransport::metrics
#[derive(Debug)]
pub struct FaultyTransport<T> {
    inner: T,
    cfg: FaultCfg,
    rng: SplitMix64,
    state: State,
    /// A fired stall makes every later read time out.
    read_stalled: bool,
    /// Injected delays sleep on this clock — a virtual clock replays a
    /// multi-minute delay schedule with zero real waiting.
    clock: SharedClock,
    reg: Registry,
}

impl<T> FaultyTransport<T> {
    /// Wrap `inner`, drawing decisions from stream `stream_index` of
    /// `cfg.seed`. Delays sleep on real time; see
    /// [`with_clock`](FaultyTransport::with_clock) to substitute a
    /// virtual clock.
    pub fn new(inner: T, cfg: FaultCfg, stream_index: u64) -> FaultyTransport<T> {
        FaultyTransport::with_clock(inner, cfg, stream_index, WallClock::shared())
    }

    /// Like [`new`](FaultyTransport::new), but injected delays sleep on
    /// `clock` — the virtual-time entry point.
    pub fn with_clock(
        inner: T,
        cfg: FaultCfg,
        stream_index: u64,
        clock: SharedClock,
    ) -> FaultyTransport<T> {
        let rng = SplitMix64::new(derive_seed(cfg.seed, stream_index));
        FaultyTransport {
            inner,
            cfg,
            rng,
            state: State::Open,
            read_stalled: false,
            clock,
            reg: Registry::new(),
        }
    }

    /// Injected-fault counters (`faults/injected/...`).
    pub fn metrics(&self) -> &Registry {
        &self.reg
    }

    /// Unwrap, returning the inner transport and the fault counters.
    pub fn into_parts(self) -> (T, Registry) {
        (self.inner, self.reg)
    }

    fn count(&mut self, what: &str) {
        self.reg.scope("faults").scope("injected").incr(what);
    }

    /// Chunk length for a transfer of `avail` bytes: uniform in
    /// `1..=max_chunk` when splitting is on, the whole buffer otherwise.
    /// Always consumes one draw so schedules stay aligned.
    fn chunk_len(&mut self, avail: usize) -> usize {
        let drawn = self.rng.one_to(self.cfg.max_chunk as u64) as usize;
        if self.cfg.max_chunk == 0 {
            avail
        } else {
            drawn.min(avail)
        }
    }

    fn maybe_delay(&mut self) {
        let p = self.cfg.delay_prob;
        if self.rng.coin(p) {
            let ms = self.rng.one_to(self.cfg.max_delay_ms.max(1));
            self.count("delays");
            self.clock.sleep(Duration::from_millis(ms));
        }
    }
}

impl<T: Write> Write for FaultyTransport<T> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self.state {
            State::Closed => {
                return Err(io::Error::new(io::ErrorKind::BrokenPipe, "chaos: aborted"))
            }
            State::Truncated => return Ok(buf.len()), // swallowed
            State::Open => {}
        }
        if buf.is_empty() {
            return Ok(0);
        }
        if self.rng.coin(self.cfg.close_prob) {
            self.state = State::Closed;
            self.count("closes");
            return Err(io::Error::new(io::ErrorKind::ConnectionReset, "chaos: reset"));
        }
        if self.rng.coin(self.cfg.truncate_prob) {
            self.state = State::Truncated;
            self.count("truncations");
            return Ok(buf.len());
        }
        let n = self.chunk_len(buf.len());
        if n < buf.len() {
            self.count("splits");
        }
        self.maybe_delay();
        if self.rng.coin(self.cfg.corrupt_prob) {
            let mut chunk = buf[..n].to_vec();
            let at = (self.rng.next_u64() as usize) % n;
            let mask = (self.rng.one_to(255)) as u8;
            chunk[at] ^= mask;
            self.count("corruptions");
            self.inner.write_all(&chunk)?;
            return Ok(n);
        }
        self.inner.write_all(&buf[..n])?;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl<T: Read> Read for FaultyTransport<T> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self.state {
            State::Closed => {
                return Err(io::Error::new(io::ErrorKind::ConnectionReset, "chaos: reset"))
            }
            State::Truncated => return Ok(0),
            State::Open => {}
        }
        if buf.is_empty() {
            return Ok(0);
        }
        if !self.read_stalled && self.rng.coin(self.cfg.stall_prob) {
            self.read_stalled = true;
            self.count("stalls");
        }
        if self.read_stalled {
            // What a blocking socket's read_timeout firing looks like.
            return Err(io::Error::new(io::ErrorKind::TimedOut, "chaos: stalled"));
        }
        let n = self.chunk_len(buf.len());
        self.maybe_delay();
        let got = self.inner.read(&mut buf[..n])?;
        if got > 0 && self.rng.coin(self.cfg.corrupt_prob) {
            let at = (self.rng.next_u64() as usize) % got;
            let mask = (self.rng.one_to(255)) as u8;
            buf[at] ^= mask;
            self.count("corruptions");
        }
        Ok(got)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// In-memory loopback: writes append, reads pop.
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

    fn pump_through(cfg: FaultCfg, stream: u64, data: &[u8]) -> io::Result<Vec<u8>> {
        let mut t = FaultyTransport::new(Loopback::default(), cfg, stream);
        let mut sent = 0;
        while sent < data.len() {
            sent += t.write(&data[sent..])?;
        }
        let mut out = Vec::new();
        let mut buf = [0u8; 64];
        loop {
            match t.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => out.extend_from_slice(&buf[..n]),
                Err(e) => return Err(e),
            }
        }
        Ok(out)
    }

    #[test]
    fn split_only_preserves_bytes() {
        let data: Vec<u8> = (0..=255u8).collect();
        let out = pump_through(FaultCfg::split_only(11), 0, &data).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn splitting_actually_splits() {
        let mut t = FaultyTransport::new(Loopback::default(), FaultCfg::split_only(1), 0);
        let wrote = t.write(&[0u8; 100]).unwrap();
        assert!(wrote < 100, "split_only must chunk large writes, wrote {wrote}");
        assert!(t.metrics().counter("faults/injected/splits").unwrap() > 0);
    }

    #[test]
    fn same_seed_same_schedule() {
        let data = vec![0xabu8; 4096];
        let cfg = FaultCfg { corrupt_prob: 0.1, ..FaultCfg::split_only(77) };
        let a = pump_through(cfg.clone(), 3, &data).map_err(|e| e.kind());
        let b = pump_through(cfg, 3, &data).map_err(|e| e.kind());
        assert_eq!(a, b);
    }

    #[test]
    fn corruption_changes_bytes_and_is_counted() {
        let data = vec![0u8; 4096];
        let cfg = FaultCfg { corrupt_prob: 0.2, ..FaultCfg::split_only(5) };
        let out = pump_through(cfg, 0, &data).unwrap();
        assert_eq!(out.len(), data.len(), "corruption must not add or drop bytes");
        assert_ne!(out, data, "0.2 corruption over 4 KiB must flip something");
    }

    #[test]
    fn stall_reads_as_timeout() {
        let cfg = FaultCfg { stall_prob: 1.0, ..FaultCfg::disabled(2) };
        let mut t = FaultyTransport::new(Loopback::default(), cfg, 0);
        t.write_all(b"hello").unwrap();
        let mut buf = [0u8; 8];
        let err = t.read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        // Stalls are sticky: the next read times out too.
        assert_eq!(t.read(&mut buf).unwrap_err().kind(), io::ErrorKind::TimedOut);
        assert_eq!(t.metrics().counter("faults/injected/stalls"), Some(1));
    }

    #[test]
    fn delays_sleep_on_the_injected_clock() {
        use beware_runtime::{Clock, VirtualClock};
        let vc = VirtualClock::new();
        let cfg = FaultCfg { delay_prob: 1.0, max_delay_ms: 150_000, ..FaultCfg::disabled(8) };
        let mut t = FaultyTransport::with_clock(Loopback::default(), cfg, 0, vc.handle());
        let wall = std::time::Instant::now();
        t.write_all(b"x").unwrap();
        assert!(vc.now() >= Duration::from_millis(1), "the delay advanced virtual time");
        assert!(
            wall.elapsed() < Duration::from_secs(5),
            "a (up to) 150 s injected delay must not consume wall time"
        );
        assert_eq!(t.metrics().counter("faults/injected/delays"), Some(1));
    }

    #[test]
    fn abrupt_close_is_typed_and_sticky() {
        let cfg = FaultCfg { close_prob: 1.0, ..FaultCfg::disabled(4) };
        let mut t = FaultyTransport::new(Loopback::default(), cfg, 0);
        let err = t.write(b"x").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        let mut buf = [0u8; 4];
        assert_eq!(t.read(&mut buf).unwrap_err().kind(), io::ErrorKind::ConnectionReset);
        assert_eq!(t.write(b"x").unwrap_err().kind(), io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn truncation_swallows_then_eofs() {
        let cfg = FaultCfg { truncate_prob: 1.0, ..FaultCfg::disabled(6) };
        let mut t = FaultyTransport::new(Loopback::default(), cfg, 0);
        assert_eq!(t.write(b"doomed").unwrap(), 6);
        let mut buf = [0u8; 8];
        assert_eq!(t.read(&mut buf).unwrap(), 0, "truncated stream reads as EOF");
        let (inner, reg) = t.into_parts();
        assert!(inner.0.is_empty(), "truncated bytes must never reach the wire");
        assert_eq!(reg.counter("faults/injected/truncations"), Some(1));
    }
}
