//! Simulation time.
//!
//! Nanosecond-resolution monotonic time since the simulation epoch. The ISI
//! dataset mixes two precisions — microseconds for matched responses,
//! whole seconds for timeout and unmatched records — so [`SimTime`] exposes
//! both truncations explicitly; analysis code must choose one deliberately
//! rather than inherit whatever a float happened to hold.
//!
//! ## Bridging to the runtime timebase
//!
//! `beware_runtime::Clock` timestamps are [`std::time::Duration`]s since
//! the clock's epoch. Both [`SimTime`] and [`SimDuration`] convert
//! **losslessly** into `Duration` via [`From`] (every u64 of nanoseconds
//! fits). The reverse direction is fallible — a `Duration` can hold up to
//! u128 nanoseconds — so it is spelled [`TryFrom`], and callers that
//! genuinely want the old clamping behavior say so with
//! [`SimDuration::saturating_from`]. [`SimClock`] packages the bridge: a
//! [`VirtualClock`] whose hands are moved by
//! the event loop, so agent code and runtime components (wheel deadlines,
//! reactors, policy estimators) observe one shared timeline.

use beware_runtime::clock::{Clock, SharedClock, VirtualClock};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::time::Duration;

/// A point in simulation time (nanoseconds since the simulation epoch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulation time (nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch.
    pub const EPOCH: SimTime = SimTime(0);

    /// Construct from nanoseconds since the epoch.
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Nanoseconds since the epoch.
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Microseconds since the epoch (truncated) — the precision of matched
    /// survey responses.
    pub const fn as_us(self) -> u64 {
        self.0 / 1_000
    }

    /// Whole seconds since the epoch (truncated) — the precision of timeout
    /// and unmatched records in the ISI data.
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000_000_000
    }

    /// Seconds since the epoch as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration since an earlier instant; `None` if `earlier` is later
    /// (callers must handle reordered events, not panic).
    pub fn checked_since(self, earlier: SimTime) -> Option<SimDuration> {
        self.0.checked_sub(earlier.0).map(SimDuration)
    }

    /// Duration since an earlier instant, saturating at zero.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from microseconds.
    pub const fn from_us(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Construct from fractional seconds, saturating negatives to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if s.is_nan() || s <= 0.0 {
            return SimDuration(0);
        }
        // Saturate rather than wrap for absurdly large values.
        let ns = s * 1e9;
        if ns >= u64::MAX as f64 {
            SimDuration(u64::MAX)
        } else {
            SimDuration(ns as u64)
        }
    }

    /// Nanoseconds.
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Microseconds (truncated).
    pub const fn as_us(self) -> u64 {
        self.0 / 1_000
    }

    /// Milliseconds (truncated).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Whole seconds (truncated).
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000_000_000
    }

    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// A `std::time::Duration` clamped into the u64 nanosecond horizon
    /// (~584 years) — the explicit spelling of what the retired
    /// `From<Duration>` impl did silently. Use [`TryFrom`] unless a clamp
    /// is genuinely what the call site means.
    pub fn saturating_from(d: Duration) -> SimDuration {
        SimDuration(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
    }

    /// Saturating addition.
    pub fn saturating_add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }

    /// Scale by an integer factor, saturating.
    pub fn saturating_mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }
}

/// Lossless: every u64 of nanoseconds fits in a `Duration`.
impl From<SimDuration> for Duration {
    fn from(d: SimDuration) -> Duration {
        Duration::from_nanos(d.0)
    }
}

/// Lossless: a simulation instant *is* its offset from the epoch, which
/// is exactly what a `beware_runtime::Clock` timestamp is.
impl From<SimTime> for Duration {
    fn from(t: SimTime) -> Duration {
        Duration::from_nanos(t.0)
    }
}

/// A `std::time::Duration` too large for the u64 nanosecond simulation
/// horizon (~584 years).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeOutOfRange;

impl fmt::Display for TimeOutOfRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "duration exceeds the u64-nanosecond simulation horizon")
    }
}

impl std::error::Error for TimeOutOfRange {}

impl TryFrom<Duration> for SimDuration {
    type Error = TimeOutOfRange;
    /// Fails (rather than silently clamping) past the u64 nanosecond
    /// horizon; see [`SimDuration::saturating_from`] for the clamp.
    fn try_from(d: Duration) -> Result<SimDuration, TimeOutOfRange> {
        u64::try_from(d.as_nanos()).map(SimDuration).map_err(|_| TimeOutOfRange)
    }
}

impl TryFrom<Duration> for SimTime {
    type Error = TimeOutOfRange;
    /// Interprets the duration as an offset from the simulation epoch —
    /// the inverse of `Duration::from(SimTime)`.
    fn try_from(d: Duration) -> Result<SimTime, TimeOutOfRange> {
        u64::try_from(d.as_nanos()).map(SimTime).map_err(|_| TimeOutOfRange)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// Panics in debug if `rhs` is later; use [`SimTime::checked_since`]
    /// where reordering is possible.
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "SimTime subtraction went negative");
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

/// The simulation's clock: a [`VirtualClock`] whose hands are moved by
/// the event loop.
///
/// [`Simulation::run`](crate::sim::Simulation::run) advances this clock
/// to each event's timestamp as it pops, so anything holding a
/// [`handle`](SimClock::handle) — runtime components, agents, telemetry —
/// reads the same timeline the scheduler is executing. This is the seam
/// that lets code written against `beware_runtime::Clock` (the serve
/// engine, policy estimators, reactors) run unmodified inside the
/// simulator: zero real sockets, zero real sleeps.
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    inner: VirtualClock,
}

impl SimClock {
    /// A simulation clock at the epoch.
    pub fn new() -> SimClock {
        SimClock { inner: VirtualClock::new() }
    }

    /// The current simulation instant.
    pub fn now(&self) -> SimTime {
        // A VirtualClock stores u64 nanoseconds internally, so this
        // round-trip cannot overflow the simulation horizon.
        SimTime::try_from(self.inner.now()).expect("virtual clock stays within u64 ns")
    }

    /// Move the clock forward to `t`. No-op if `t` is not later than now —
    /// the clock is monotonic even if a caller replays an old timestamp.
    pub fn advance_to(&self, t: SimTime) {
        let now = self.now();
        if let Some(delta) = t.checked_since(now) {
            self.inner.advance(Duration::from(delta));
        }
    }

    /// A ready-to-share `Arc<dyn Clock>` view of this timeline, for
    /// handing to components written against `beware_runtime::Clock`.
    pub fn handle(&self) -> SharedClock {
        self.inner.handle()
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else {
            write!(f, "{}us", self.0 as f64 / 1e3)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_truncation() {
        let t = SimTime::from_ns(3_500_123_456);
        assert_eq!(t.as_secs(), 3);
        assert_eq!(t.as_us(), 3_500_123);
        assert!((t.as_secs_f64() - 3.500123456).abs() < 1e-9);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::EPOCH + SimDuration::from_secs(10);
        let u = t + SimDuration::from_millis(250);
        assert_eq!((u - t).as_millis(), 250);
        assert_eq!(u.checked_since(t), Some(SimDuration::from_millis(250)));
        assert_eq!(t.checked_since(u), None);
        assert_eq!(t.saturating_since(u), SimDuration::ZERO);
    }

    #[test]
    fn duration_conversions_roundtrip() {
        assert_eq!(SimDuration::from_secs(5).as_ns(), 5_000_000_000);
        assert_eq!(SimDuration::from_millis(5).as_us(), 5_000);
        assert_eq!(SimDuration::from_us(5).as_ns(), 5_000);
        let d = SimDuration::from_secs_f64(1.5);
        assert_eq!(d.as_millis(), 1500);
    }

    #[test]
    fn from_secs_f64_is_total() {
        assert_eq!(SimDuration::from_secs_f64(-3.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY).as_ns(), u64::MAX);
    }

    #[test]
    fn std_duration_bridge_is_lossless_out_and_checked_back() {
        let d = SimDuration::from_millis(1234);
        assert_eq!(Duration::from(d), Duration::from_millis(1234));
        assert_eq!(SimDuration::try_from(Duration::from_micros(7)), Ok(SimDuration::from_us(7)));
        let t = SimTime::EPOCH + SimDuration::from_secs(145);
        assert_eq!(Duration::from(t), Duration::from_secs(145));
        assert_eq!(SimTime::try_from(Duration::from_secs(145)), Ok(t));
        // A Duration can exceed u64 nanoseconds; the checked bridge says
        // so, and the saturating spelling clamps explicitly.
        let huge = Duration::from_secs(u64::MAX / 4);
        assert_eq!(SimDuration::try_from(huge), Err(TimeOutOfRange));
        assert_eq!(SimTime::try_from(huge), Err(TimeOutOfRange));
        assert_eq!(SimDuration::saturating_from(huge).as_ns(), u64::MAX);
    }

    #[test]
    fn bridge_roundtrips_every_nanosecond() {
        // Lossless both ways for values inside the horizon — including
        // sub-microsecond residues a millisecond-based bridge would shed.
        for ns in [0u64, 1, 999, 1_000_001, 1_500_000_007, u64::MAX] {
            let d = SimDuration::from_ns(ns);
            assert_eq!(SimDuration::try_from(Duration::from(d)), Ok(d));
            let t = SimTime::from_ns(ns);
            assert_eq!(SimTime::try_from(Duration::from(t)), Ok(t));
        }
    }

    #[test]
    fn sim_clock_advances_monotonically_and_shares_its_timeline() {
        let clock = SimClock::new();
        assert_eq!(clock.now(), SimTime::EPOCH);
        let handle = clock.handle();
        clock.advance_to(SimTime::from_ns(2_500));
        assert_eq!(clock.now(), SimTime::from_ns(2_500));
        assert_eq!(handle.now(), Duration::from_nanos(2_500), "handle sees the same timeline");
        // Replaying an older timestamp must not rewind.
        clock.advance_to(SimTime::from_ns(100));
        assert_eq!(clock.now(), SimTime::from_ns(2_500));
    }

    #[test]
    fn saturating_ops() {
        let big = SimDuration::from_ns(u64::MAX - 5);
        assert_eq!(big.saturating_add(SimDuration::from_ns(100)).as_ns(), u64::MAX);
        assert_eq!(big.saturating_mul(3).as_ns(), u64::MAX);
    }

    #[test]
    fn display_picks_sane_units() {
        assert_eq!(SimDuration::from_secs(2).to_string(), "2.000s");
        assert_eq!(SimDuration::from_millis(12).to_string(), "12.000ms");
        assert_eq!(SimDuration::from_us(7).to_string(), "7us");
        assert_eq!((SimTime::EPOCH + SimDuration::from_secs(1)).to_string(), "t+1.000000s");
    }
}
