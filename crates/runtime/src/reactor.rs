//! Readiness-driven I/O: a minimal epoll reactor.
//!
//! The serve path used to spin-poll every nonblocking connection under a
//! read budget with fixed 2 ms naps — fine at hundreds of connections,
//! ruinous at 100k+ where an idle connection must cost ~zero CPU. An
//! [`EpollReactor`] inverts that: the caller registers file descriptors
//! with an [`Interest`] and then **blocks** in [`EpollReactor::wait`]
//! until the kernel reports readiness, another thread rings a [`Waker`],
//! or a caller-supplied timeout (derived from a
//! [`DeadlineWheel`](crate::DeadlineWheel) next-deadline) elapses.
//!
//! There is one reactor, and it is Linux-only: real readiness from
//! `epoll_wait`, with eventfd doorbells for cross-thread wakeups. The
//! handful of glibc symbols it needs are declared in the crate's one
//! unsafe module (`sys`); everything here is safe code. Off Linux,
//! [`EpollReactor::new`] fails with [`io::ErrorKind::Unsupported`].

use std::io;
use std::os::fd::RawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

#[cfg(target_os = "linux")]
use crate::sys;

/// What a registration wants to hear about. Plain bitset semantics:
/// combine with [`Interest::and`], query with the accessors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest(u8);

impl Interest {
    /// No events (keep the fd registered but silent).
    pub const NONE: Interest = Interest(0);
    /// Readable (and peer-hangup) events.
    pub const READABLE: Interest = Interest(1);
    /// Writable events.
    pub const WRITABLE: Interest = Interest(2);
    /// Readable and writable.
    pub const BOTH: Interest = Interest(3);

    /// Union of two interests.
    pub fn and(self, other: Interest) -> Interest {
        Interest(self.0 | other.0)
    }

    /// Whether readable events are wanted.
    pub fn is_readable(self) -> bool {
        self.0 & 1 != 0
    }

    /// Whether writable events are wanted.
    pub fn is_writable(self) -> bool {
        self.0 & 2 != 0
    }
}

/// One readiness report from [`EpollReactor::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The token the fd (or waker) was registered with.
    pub token: u64,
    /// Reading will not block (includes error/hangup conditions, which
    /// surface through the next `read`).
    pub readable: bool,
    /// Writing will not block (includes error conditions).
    pub writable: bool,
    /// The peer hung up.
    pub hangup: bool,
}

/// A cross-thread doorbell that interrupts [`EpollReactor::wait`].
///
/// On Linux the waker owns an eventfd the reactor registers like any
/// other fd; it also keeps an atomic flag, so a wake is never lost even
/// when no reactor is watching the fd. Waking is idempotent and cheap;
/// the flag (and eventfd counter) reset when the wake is delivered.
#[derive(Debug)]
pub struct Waker {
    flag: AtomicBool,
    #[cfg(target_os = "linux")]
    efd: RawFd,
}

impl Waker {
    /// A fresh doorbell.
    pub fn new() -> io::Result<Waker> {
        Ok(Waker {
            flag: AtomicBool::new(false),
            #[cfg(target_os = "linux")]
            efd: sys::sys_eventfd()?,
        })
    }

    /// Ring: any in-flight or future [`EpollReactor::wait`] watching
    /// this waker returns (with the waker's token among the events).
    pub fn wake(&self) {
        self.flag.store(true, Ordering::SeqCst);
        #[cfg(target_os = "linux")]
        sys::sys_eventfd_signal(self.efd);
    }

    /// Consume a pending wake, if any. (Only the epoll reactor consumes
    /// wakes, so off Linux nothing but the tests calls this.)
    #[cfg_attr(not(target_os = "linux"), allow(dead_code))]
    fn take(&self) -> bool {
        let was = self.flag.swap(false, Ordering::SeqCst);
        #[cfg(target_os = "linux")]
        if was {
            sys::sys_eventfd_drain(self.efd);
        }
        was
    }
}

#[cfg(target_os = "linux")]
impl Drop for Waker {
    fn drop(&mut self) {
        sys::sys_close(self.efd);
    }
}

/// A stop flag fused to a set of wakers: one `request_stop` both raises
/// the flag and rings every subscribed doorbell, so threads blocked in
/// [`EpollReactor::wait`] observe the stop promptly instead of at their
/// next timeout. This is how `ServerHandle::shutdown` (or a `Shutdown`
/// frame handled on one shard) reaches every other shard and the
/// acceptor.
#[derive(Debug, Default)]
pub struct StopSignal {
    stopped: AtomicBool,
    wakers: Mutex<Vec<Arc<Waker>>>,
}

impl StopSignal {
    /// A fresh, un-stopped signal.
    pub fn new() -> StopSignal {
        StopSignal::default()
    }

    /// Add a doorbell to ring on stop. (If the stop already happened,
    /// ring it immediately — late subscribers must not block forever.)
    /// The check and the push share the lock `request_stop` raises the
    /// flag under, so a racing stop either sees this waker or is seen by
    /// it.
    pub fn subscribe(&self, waker: Arc<Waker>) {
        let mut wakers = self.wakers.lock().expect("stop signal lock");
        if self.is_stopped() {
            waker.wake();
        }
        wakers.push(waker);
    }

    /// Raise the flag and ring every subscribed waker.
    pub fn request_stop(&self) {
        let wakers = self.wakers.lock().expect("stop signal lock");
        self.stopped.store(true, Ordering::SeqCst);
        for w in wakers.iter() {
            w.wake();
        }
    }

    /// Whether stop has been requested.
    pub fn is_stopped(&self) -> bool {
        self.stopped.load(Ordering::SeqCst)
    }
}

/// Real readiness from `epoll` (see the crate's `sys` module for the FFI
/// surface and DESIGN.md §11 for the unsafe policy). Level-triggered:
/// unconsumed input re-reports on the next [`wait`](EpollReactor::wait),
/// which is what makes per-connection read budgets safe.
#[cfg(target_os = "linux")]
#[derive(Debug)]
pub struct EpollReactor {
    epfd: RawFd,
    buf: Vec<sys::EpollEvent>,
    wakers: Vec<(u64, Arc<Waker>)>,
}

#[cfg(target_os = "linux")]
impl EpollReactor {
    /// A fresh epoll instance.
    pub fn new() -> io::Result<EpollReactor> {
        Ok(EpollReactor {
            epfd: sys::sys_epoll_create()?,
            buf: vec![sys::EpollEvent { events: 0, data: 0 }; 1024],
            wakers: Vec::new(),
        })
    }

    fn mask(interest: Interest) -> u32 {
        let mut m = 0u32;
        if interest.is_readable() {
            m |= sys::EPOLLIN | sys::EPOLLRDHUP;
        }
        if interest.is_writable() {
            m |= sys::EPOLLOUT;
        }
        m
    }

    /// Start watching `fd` under `token` with `interest`.
    pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        sys::sys_epoll_ctl(self.epfd, sys::EPOLL_CTL_ADD, fd, Self::mask(interest), token)
    }

    /// Change an existing registration's token/interest.
    pub fn reregister(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        sys::sys_epoll_ctl(self.epfd, sys::EPOLL_CTL_MOD, fd, Self::mask(interest), token)
    }

    /// Stop watching `fd`. Pending events for it are dropped. (Closing
    /// the fd deregisters it too.)
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        sys::sys_epoll_ctl(self.epfd, sys::EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Watch a [`Waker`] under `token`; its wakes surface as events.
    pub fn add_waker(&mut self, waker: Arc<Waker>, token: u64) -> io::Result<()> {
        sys::sys_epoll_ctl(self.epfd, sys::EPOLL_CTL_ADD, waker.efd, sys::EPOLLIN, token)?;
        self.wakers.push((token, waker));
        Ok(())
    }

    /// Block until readiness, a wake, or `timeout` (`None` = forever).
    /// `events` is cleared and refilled; an empty result means the
    /// timeout (or a signal) ended the wait.
    ///
    /// The timeout is the wheel⇄reactor seam (DESIGN.md §11): the caller
    /// passes `DeadlineWheel::next_deadline()` minus `clock.now()`
    /// as-is, and this method rounds it up to epoll's milliseconds, so a
    /// shard sleeps until either I/O or the next deadline it owns —
    /// never before that deadline, never on a fixed nap.
    pub fn wait(&mut self, timeout: Option<Duration>, events: &mut Vec<Event>) -> io::Result<()> {
        events.clear();
        let n = sys::sys_epoll_wait(self.epfd, &mut self.buf, epoll_timeout_ms(timeout))?;
        for raw in &self.buf[..n] {
            let (mask, token) = (raw.events, raw.data);
            if let Some((_, w)) = self.wakers.iter().find(|(t, _)| *t == token) {
                w.take(); // drain the eventfd + flag
                events.push(Event { token, readable: false, writable: false, hangup: false });
                continue;
            }
            events.push(Event {
                token,
                readable: mask & (sys::EPOLLIN | sys::EPOLLERR | sys::EPOLLHUP | sys::EPOLLRDHUP)
                    != 0,
                writable: mask & (sys::EPOLLOUT | sys::EPOLLERR | sys::EPOLLHUP) != 0,
                hangup: mask & (sys::EPOLLHUP | sys::EPOLLRDHUP) != 0,
            });
        }
        Ok(())
    }
}

#[cfg(target_os = "linux")]
impl Drop for EpollReactor {
    fn drop(&mut self) {
        sys::sys_close(self.epfd);
    }
}

/// The one wait-gap → epoll conversion: `None` blocks (−1), and a gap
/// rounds **up** to whole milliseconds, saturating at `i32::MAX`.
///
/// A truncating conversion turns a sub-millisecond gap (deadline a few
/// hundred µs out) into a zero timeout: `wait` returns at once, the
/// wheel pops nothing because the deadline has not passed, and the shard
/// busy-spins until it does. Rounding up wakes at most one millisecond
/// *after* the deadline — harmless, the wheel pop is idempotent on "due
/// now or earlier" — and never before it. A zero gap stays zero: the
/// deadline is already due, and an immediate return makes progress.
#[cfg(target_os = "linux")]
fn epoll_timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(t) => i32::try_from(t.as_nanos().div_ceil(1_000_000)).unwrap_or(i32::MAX),
    }
}

/// Off Linux there is no epoll: construction fails with
/// [`io::ErrorKind::Unsupported`], so no value of this type exists.
#[cfg(not(target_os = "linux"))]
#[derive(Debug)]
pub struct EpollReactor(std::convert::Infallible);

#[cfg(not(target_os = "linux"))]
#[allow(missing_docs)]
impl EpollReactor {
    pub fn new() -> io::Result<EpollReactor> {
        Err(io::Error::new(io::ErrorKind::Unsupported, "epoll requires Linux"))
    }

    pub fn register(&mut self, _: RawFd, _: u64, _: Interest) -> io::Result<()> {
        match self.0 {}
    }

    pub fn reregister(&mut self, _: RawFd, _: u64, _: Interest) -> io::Result<()> {
        match self.0 {}
    }

    pub fn deregister(&mut self, _: RawFd) -> io::Result<()> {
        match self.0 {}
    }

    pub fn add_waker(&mut self, _: Arc<Waker>, _: u64) -> io::Result<()> {
        match self.0 {}
    }

    pub fn wait(&mut self, _: Option<Duration>, _: &mut Vec<Event>) -> io::Result<()> {
        match self.0 {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(target_os = "linux")]
    #[test]
    fn sub_millisecond_gaps_round_up_never_down() {
        // The regression of record: a deadline 300 µs out must convert to
        // a ≥ 1 ms wait, not truncate to 0 and busy-spin.
        let ms = |d: Duration| epoll_timeout_ms(Some(d));
        assert_eq!(ms(Duration::ZERO), 0);
        assert_eq!(ms(Duration::from_micros(300)), 1);
        assert_eq!(ms(Duration::from_millis(4)), 4);
        assert_eq!(ms(Duration::from_millis(4) + Duration::from_nanos(1)), 5);
        assert_eq!(ms(Duration::MAX), i32::MAX);
        assert_eq!(epoll_timeout_ms(None), -1);
    }

    #[cfg(target_os = "linux")]
    mod epoll {
        use super::*;
        use std::io::{Read, Write};
        use std::net::{TcpListener, TcpStream};
        use std::os::fd::AsRawFd;
        use std::time::Instant;

        /// A connected loopback pair (both ends blocking).
        fn tcp_pair() -> (TcpStream, TcpStream) {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let a = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (b, _) = listener.accept().unwrap();
            a.set_nodelay(true).unwrap();
            b.set_nodelay(true).unwrap();
            (a, b)
        }

        fn events_for(events: &[Event], token: u64) -> Vec<Event> {
            events.iter().copied().filter(|e| e.token == token).collect()
        }

        #[test]
        fn rounded_sub_ms_wait_does_not_wake_before_the_deadline() {
            // End-to-end over the seam: a wheel deadline 300 µs out, a
            // real epoll wait with nothing ready. A truncating conversion
            // returns in microseconds (the spin); the contract requires
            // sleeping past the deadline.
            let mut r = EpollReactor::new().unwrap();
            let mut events = Vec::new();
            let gap = Duration::from_micros(300);
            let start = Instant::now();
            r.wait(Some(gap), &mut events).unwrap();
            assert!(events.is_empty());
            assert!(
                start.elapsed() >= gap,
                "woke {:?} into a {gap:?} gap — sub-ms truncation is back",
                start.elapsed()
            );
        }

        #[test]
        fn level_triggered_rereports_until_drained() {
            let (mut a, b) = tcp_pair();
            let mut r = EpollReactor::new().unwrap();
            r.register(b.as_raw_fd(), 7, Interest::READABLE).unwrap();
            a.write_all(b"hello").unwrap();

            let mut events = Vec::new();
            for round in 0..2 {
                r.wait(Some(Duration::from_secs(2)), &mut events).unwrap();
                let got = events_for(&events, 7);
                assert_eq!(got.len(), 1, "round {round}: {events:?}");
                assert!(got[0].readable, "round {round}: unread input must re-report (level)");
            }

            // Drain, then readiness must stop.
            let mut buf = [0u8; 16];
            let mut b2 = &b;
            assert_eq!(b2.read(&mut buf).unwrap(), 5);
            r.wait(Some(Duration::from_millis(50)), &mut events).unwrap();
            assert!(events_for(&events, 7).is_empty(), "drained fd still reported: {events:?}");
        }

        #[test]
        fn deregister_while_armed_silences_the_fd() {
            // A pipe with data in flight is armed; deregistering must
            // drop it from every later wait.
            let (reader, mut writer) = std::io::pipe().unwrap();
            let mut r = EpollReactor::new().unwrap();
            r.register(reader.as_raw_fd(), 3, Interest::READABLE).unwrap();
            writer.write_all(b"armed").unwrap();

            let mut events = Vec::new();
            r.wait(Some(Duration::from_secs(2)), &mut events).unwrap();
            assert_eq!(events_for(&events, 3).len(), 1);

            r.deregister(reader.as_raw_fd()).unwrap();
            r.wait(Some(Duration::from_millis(50)), &mut events).unwrap();
            assert!(events.is_empty(), "deregistered fd still reported: {events:?}");
        }

        #[test]
        fn interest_flips_between_readable_and_writable() {
            let (a, b) = tcp_pair();
            let mut r = EpollReactor::new().unwrap();
            // A fresh socket with an empty send buffer is writable.
            r.register(b.as_raw_fd(), 5, Interest::WRITABLE).unwrap();
            let mut events = Vec::new();
            r.wait(Some(Duration::from_secs(2)), &mut events).unwrap();
            assert!(events_for(&events, 5)[0].writable);
            // Flip to readable-only: writability must stop reporting.
            r.reregister(b.as_raw_fd(), 5, Interest::READABLE).unwrap();
            r.wait(Some(Duration::from_millis(50)), &mut events).unwrap();
            assert!(events_for(&events, 5).is_empty(), "{events:?}");
            drop(a);
        }

        #[test]
        fn waker_unblocks_a_blocking_wait() {
            let mut r = EpollReactor::new().unwrap();
            let waker = Arc::new(Waker::new().unwrap());
            r.add_waker(Arc::clone(&waker), 42).unwrap();

            let ringer = Arc::clone(&waker);
            let t = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                ringer.wake();
            });
            let t0 = Instant::now();
            let mut events = Vec::new();
            // No timeout: only the waker can end this wait.
            r.wait(None, &mut events).unwrap();
            assert_eq!(
                events,
                vec![Event { token: 42, readable: false, writable: false, hangup: false }]
            );
            assert!(t0.elapsed() < Duration::from_secs(5));
            t.join().unwrap();

            // The doorbell resets: the next wait times out quietly.
            r.wait(Some(Duration::from_millis(20)), &mut events).unwrap();
            assert!(events.is_empty(), "stale wake re-delivered: {events:?}");
        }

        #[test]
        fn peer_hangup_surfaces_as_readable() {
            let (a, b) = tcp_pair();
            let mut r = EpollReactor::new().unwrap();
            r.register(b.as_raw_fd(), 1, Interest::READABLE).unwrap();
            drop(a);
            let mut events = Vec::new();
            r.wait(Some(Duration::from_secs(2)), &mut events).unwrap();
            let got = events_for(&events, 1);
            assert_eq!(got.len(), 1);
            assert!(got[0].readable, "hangup must be readable so read() observes the EOF");
            assert!(got[0].hangup);
        }
    }

    #[test]
    fn stop_signal_raises_flag_and_rings_every_subscriber() {
        let stop = StopSignal::new();
        let a = Arc::new(Waker::new().unwrap());
        let b = Arc::new(Waker::new().unwrap());
        stop.subscribe(Arc::clone(&a));
        stop.subscribe(Arc::clone(&b));
        assert!(!stop.is_stopped());
        assert!(!a.take() && !b.take());

        stop.request_stop();
        assert!(stop.is_stopped());
        assert!(a.take() && b.take());

        // Late subscribers get rung immediately.
        let c = Arc::new(Waker::new().unwrap());
        stop.subscribe(Arc::clone(&c));
        assert!(c.take());
    }

    #[test]
    fn subscribe_racing_a_stop_is_always_rung() {
        // A stop landing between a subscriber's flag check and its push
        // must not skip the new waker: whichever side takes the lock
        // second rings it. The barrier releases both sides together, so
        // both orders occur.
        for round in 0..10_000 {
            let stop = StopSignal::new();
            let waker = Arc::new(Waker::new().unwrap());
            let start = std::sync::Barrier::new(2);
            std::thread::scope(|s| {
                s.spawn(|| {
                    start.wait();
                    stop.request_stop();
                });
                start.wait();
                stop.subscribe(Arc::clone(&waker));
            });
            assert!(stop.is_stopped());
            assert!(waker.take(), "round {round}: a subscriber missed the stop");
        }
    }
}
