//! The `Clock` trait: wall time and deterministic virtual time behind one
//! seam.
//!
//! Timestamps are plain [`Duration`]s since the clock's epoch (its
//! construction, for a [`WallClock`]; zero, for a [`VirtualClock`]).
//! Using `Duration` instead of [`std::time::Instant`] is what makes a
//! virtual implementation possible at all — `Instant`s cannot be
//! fabricated — while keeping all the arithmetic (`+`, `saturating_sub`,
//! comparisons) that deadline code needs.
//!
//! Components take an `Arc<dyn Clock>` (aliased [`SharedClock`]) and call
//! [`Clock::now`] for stamps and [`Clock::sleep`] for backoff. Under a
//! [`VirtualClock`] a sleep *advances simulated time and yields* instead
//! of parking the thread, so a poll loop that would wait out a 145 s
//! stall in real time spins through it in microseconds — which is the
//! whole point.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shorthand for the shared trait-object form every component stores.
pub type SharedClock = Arc<dyn Clock>;

/// A monotonic time source.
///
/// Implementations must be cheap to query and safe to share across
/// threads; all the serve/faultsim poll loops hit `now` on every
/// iteration.
pub trait Clock: std::fmt::Debug + Send + Sync {
    /// Time elapsed since this clock's epoch.
    fn now(&self) -> Duration;

    /// Give up the CPU for (at least) `d` of *this clock's* time. A
    /// [`WallClock`] parks the thread; a [`VirtualClock`] advances its
    /// simulated time and only yields the scheduler slice.
    fn sleep(&self, d: Duration);

    /// Convenience: time elapsed since an earlier [`now`](Clock::now)
    /// stamp (saturating, so a racing reader never underflows).
    fn since(&self, earlier: Duration) -> Duration {
        self.now().saturating_sub(earlier)
    }
}

/// Real time: [`Clock::now`] is `Instant` elapsed since construction,
/// [`Clock::sleep`] is [`std::thread::sleep`].
#[derive(Debug, Clone)]
pub struct WallClock {
    epoch: Instant,
}

impl WallClock {
    /// A wall clock whose epoch is now.
    pub fn new() -> WallClock {
        WallClock { epoch: Instant::now() }
    }

    /// A ready-to-share `Arc<dyn Clock>` wall clock.
    pub fn shared() -> SharedClock {
        Arc::new(WallClock::new())
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.epoch.elapsed()
    }

    fn sleep(&self, d: Duration) {
        std::thread::sleep(d);
    }
}

/// Deterministic, manually-advanced simulated time.
///
/// Cloning shares the underlying time cell, so one `VirtualClock` can be
/// handed (via [`handle`](VirtualClock::handle)) to a server, a proxy and
/// a test driver, all observing the same timeline.
///
/// Two ways time moves:
///
/// * [`advance`](VirtualClock::advance) — explicit, from a test driver.
/// * [`sleep`](Clock::sleep) — a component that would have parked for `d`
///   instead advances the shared time by exactly `d` and yields.
///
/// Monotonic by construction: time only ever increases, and concurrent
/// sleepers each atomically bump the shared counter.
#[derive(Debug, Clone)]
pub struct VirtualClock {
    ns: Arc<AtomicU64>,
}

impl VirtualClock {
    /// A virtual clock at time zero.
    pub fn new() -> VirtualClock {
        VirtualClock { ns: Arc::new(AtomicU64::new(0)) }
    }

    /// A ready-to-share `Arc<dyn Clock>` view of this clock (sharing the
    /// same timeline — keep a clone to advance or read it).
    pub fn handle(&self) -> SharedClock {
        Arc::new(self.clone())
    }

    /// Advance simulated time by `d` (saturating at the u64 nanosecond
    /// horizon, ~584 years).
    pub fn advance(&self, d: Duration) {
        saturating_bump(&self.ns, duration_to_ns(d));
    }
}

impl Default for VirtualClock {
    fn default() -> Self {
        VirtualClock::new()
    }
}

impl Clock for VirtualClock {
    fn now(&self) -> Duration {
        Duration::from_nanos(self.ns.load(Ordering::SeqCst))
    }

    fn sleep(&self, d: Duration) {
        saturating_bump(&self.ns, duration_to_ns(d));
        // Let any thread this sleep was politely waiting on actually run;
        // virtual sleeps must not turn poll loops into pure spin.
        std::thread::yield_now();
    }
}

/// CPU time this process has consumed so far (user + system), or `None`
/// where the platform offers no cheap way to ask. Used by the
/// mass-connection benchmark to price a request — and an *idle*
/// connection — in CPU rather than wall time.
pub fn process_cpu_time() -> Option<Duration> {
    #[cfg(target_os = "linux")]
    {
        crate::sys::sys_process_cpu_time()
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Clamp a `Duration` into u64 nanoseconds (saturating).
pub(crate) fn duration_to_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// `fetch_add` that saturates instead of wrapping around the epoch.
fn saturating_bump(cell: &AtomicU64, delta: u64) {
    let mut cur = cell.load(Ordering::SeqCst);
    loop {
        let next = cur.saturating_add(delta);
        match cell.compare_exchange_weak(cur, next, Ordering::SeqCst, Ordering::SeqCst) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotonic_and_sleeps() {
        let c = WallClock::new();
        let t0 = c.now();
        c.sleep(Duration::from_millis(2));
        let t1 = c.now();
        assert!(t1 >= t0 + Duration::from_millis(2), "{t0:?} -> {t1:?}");
        assert!(c.since(t0) >= Duration::from_millis(2));
    }

    #[test]
    fn virtual_clock_starts_at_zero_and_advances_manually() {
        let c = VirtualClock::new();
        assert_eq!(c.now(), Duration::ZERO);
        c.advance(Duration::from_secs(145));
        assert_eq!(c.now(), Duration::from_secs(145));
        // No wall time was spent simulating 145 s.
    }

    #[test]
    fn virtual_sleep_advances_exactly_without_min_step() {
        let c = VirtualClock::new();
        c.sleep(Duration::from_micros(500));
        assert_eq!(c.now(), Duration::from_micros(500));
        c.sleep(Duration::from_secs(200));
        assert_eq!(c.now(), Duration::from_secs(200) + Duration::from_micros(500));
    }

    #[test]
    fn clones_share_one_timeline() {
        let a = VirtualClock::new();
        let b = a.clone();
        let h = a.handle();
        a.advance(Duration::from_secs(1));
        b.advance(Duration::from_secs(2));
        assert_eq!(a.now(), Duration::from_secs(3));
        assert_eq!(h.now(), Duration::from_secs(3));
    }

    #[test]
    fn concurrent_sleepers_never_lose_time() {
        let c = VirtualClock::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.sleep(Duration::from_nanos(3));
                    }
                });
            }
        });
        assert_eq!(c.now(), Duration::from_nanos(3 * 4 * 1000));
    }

    #[test]
    fn virtual_time_saturates_at_the_horizon() {
        let c = VirtualClock::new();
        c.advance(Duration::from_nanos(u64::MAX - 10));
        c.advance(Duration::from_secs(100));
        assert_eq!(c.now(), Duration::from_nanos(u64::MAX));
    }

    #[test]
    fn since_saturates() {
        let c = VirtualClock::new();
        c.advance(Duration::from_secs(5));
        let later = Duration::from_secs(10);
        assert_eq!(c.since(later), Duration::ZERO);
    }
}
