//! Per-host behavioral state machines.
//!
//! A [`HostState`] is lazily created the first time an address is probed
//! and evolves deterministically from a per-address seed. It decides, for
//! each arriving probe, the set of responses and their delays. The class
//! of a host (plain / wake-up / congested / intermittent / reflector) is a
//! *static* function of the address and the block profile, so repeated
//! probing of the same address observes consistent behavior — the property
//! the paper leans on when it reports that "around 5% of all responsive
//! addresses observe a greater than one second round-trip time
//! consistently".

use crate::profile::BlockProfile;
use crate::rng::{coin, seeded};
use crate::time::{SimDuration, SimTime};
use beware_runtime::rng::{derive_seed, unit_hash, Xoshiro256pp};

/// What a host sends back; the world turns this into a concrete packet
/// according to the probe's protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reply {
    /// The protocol-appropriate positive response (echo reply / RST /
    /// port-unreachable).
    Normal,
    /// An ICMP host-unreachable error, emitted by the path rather than the
    /// host itself.
    Error,
}

/// One generated response: a delay from the probe's send time plus a kind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Response {
    /// Full round-trip delay in seconds.
    pub delay_secs: f64,
    /// What kind of packet to synthesize.
    pub kind: Reply,
}

/// Host class, resolved statically per address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostClass {
    /// Pays radio wake-up delay when idle.
    pub wakeup: bool,
    /// Behind a persistently congested, deep-buffered link.
    pub congested: bool,
    /// Suffers disconnect episodes with network buffering.
    pub intermittent: bool,
    /// Suffers congestion storms (sustained high latency and loss).
    pub stormy: bool,
    /// Responds to a single request with a flood.
    pub reflector: bool,
}

/// Stream indices for per-address derived seeds, so each static decision
/// consumes an independent hash.
mod stream {
    pub const LIVE: u64 = 1;
    pub const WAKEUP: u64 = 2;
    pub const CONGESTED: u64 = 3;
    pub const INTERMITTENT: u64 = 4;
    pub const REFLECTOR: u64 = 5;
    pub const RNG: u64 = 6;
    pub const BCAST_RESPONDER: u64 = 7;
    pub const STORMY: u64 = 8;
    pub const BCAST_SILENT: u64 = 9;
}

/// True if `addr` hosts a live device under `profile` (a pure function —
/// the world uses it without instantiating state). Subnet broadcast and
/// network addresses are never live hosts.
pub fn is_live(world_seed: u64, profile: &BlockProfile, addr: u32) -> bool {
    let hb = u32::from(profile.subnet_host_bits);
    if beware_wire::addr::is_subnet_broadcast(addr, hb)
        || beware_wire::addr::is_subnet_network(addr, hb)
    {
        return false;
    }
    unit_hash(derive_seed(world_seed, u64::from(addr)), stream::LIVE) < profile.density
}

/// True if `addr` sits within three addresses of its subnet's broadcast
/// or network address — where routers and gateways conventionally live.
fn near_subnet_edge(profile: &BlockProfile, addr: u32) -> bool {
    let size = 1u32 << u32::from(profile.subnet_host_bits);
    let offset = addr & (size - 1);
    offset <= 3 || offset >= size - 4
}

/// True if a live `addr` answers pings sent to its subnet's broadcast
/// address (static per address, per Section 3.3.1's observation that the
/// same responders appear round after round). Edge addresses (routers at
/// .254/.1) respond with the configured higher probability.
pub fn answers_broadcast(world_seed: u64, profile: &BlockProfile, addr: u32) -> bool {
    match &profile.broadcast {
        None => false,
        Some(b) => {
            let prob = if near_subnet_edge(profile, addr) {
                b.edge_responder_prob
            } else {
                b.responder_prob
            };
            unit_hash(derive_seed(world_seed, u64::from(addr)), stream::BCAST_RESPONDER) < prob
        }
    }
}

/// True if `addr` is a broadcast responder that does **not** answer
/// unicast probes. Such addresses are the source of the survey's stable
/// false latencies: every round their own probe times out and the
/// broadcast-triggered response is (mis)matched to it.
pub fn broadcast_unicast_silent(world_seed: u64, profile: &BlockProfile, addr: u32) -> bool {
    match &profile.broadcast {
        None => false,
        Some(b) => {
            answers_broadcast(world_seed, profile, addr)
                && unit_hash(derive_seed(world_seed, u64::from(addr)), stream::BCAST_SILENT)
                    < b.unicast_silent_prob
        }
    }
}

/// Resolve the static class of an address.
pub fn class_of(world_seed: u64, profile: &BlockProfile, addr: u32) -> HostClass {
    let s = derive_seed(world_seed, u64::from(addr));
    let p = |st: u64| unit_hash(s, st);
    HostClass {
        wakeup: profile.wakeup.is_some_and(|w| p(stream::WAKEUP) < w.host_prob),
        congested: profile.congestion.is_some_and(|c| p(stream::CONGESTED) < c.host_prob),
        intermittent: profile.episodes.is_some_and(|e| p(stream::INTERMITTENT) < e.host_prob),
        stormy: profile.storms.is_some_and(|s| p(stream::STORMY) < s.host_prob),
        reflector: profile.dos.is_some_and(|d| p(stream::REFLECTOR) < d.addr_prob),
    }
}

#[derive(Debug, Clone)]
struct EpisodeRt {
    /// Current (or most recent) episode end.
    until: SimTime,
    /// Buffering begins here: probes arriving in `[start, buffer_from)`
    /// are dropped (radio blackout before the paging buffer engages).
    buffer_from: SimTime,
    /// Start of the next episode.
    next_at: SimTime,
    /// Probes buffered in the current episode.
    buffered: u32,
}

#[derive(Debug, Clone)]
struct StormRt {
    /// Current (or most recent) storm end.
    until: SimTime,
    /// Start of the next storm.
    next_at: SimTime,
}

#[derive(Debug, Clone)]
struct TokenBucket {
    tokens: f64,
    last: SimTime,
}

/// Mutable state of one probed address.
#[derive(Debug)]
pub struct HostState {
    rng: Xoshiro256pp,
    class: HostClass,
    /// Fixed per-host base path RTT (seconds).
    base_rtt: f64,
    /// TTL a response carries when it reaches the prober.
    pub recv_ttl: u8,
    /// Radio connected until this instant (wake-up hosts).
    radio_until: SimTime,
    episode: Option<EpisodeRt>,
    storm: Option<StormRt>,
    bucket: Option<TokenBucket>,
}

impl HostState {
    /// Create the state for `addr` under `profile`.
    pub fn new(world_seed: u64, profile: &BlockProfile, addr: u32, now: SimTime) -> Self {
        let seed = derive_seed(world_seed, u64::from(addr));
        let mut rng = seeded(derive_seed(seed, stream::RNG));
        let class = class_of(world_seed, profile, addr);
        let base_rtt = profile.base_rtt.sample(&mut rng).max(0.0005);
        // Initial TTL 64/128/255 by OS-ish mix, minus a hash-stable hop count.
        let initial: u8 = *[64u8, 64, 128, 255].get((seed % 4) as usize).expect("mod 4");
        let hops = 6 + (seed >> 17) as u8 % 18;
        let recv_ttl = initial.saturating_sub(hops).max(1);
        // Renewal processes are initialized in STEADY STATE on the
        // ABSOLUTE timeline: hosts exist before the prober looks at them,
        // so a host created lazily at its first probe must already be
        // mid-cycle — with probability duration/(interval+duration)
        // *inside* an episode. Without this, single-probe scanners (zmap)
        // would never observe an episode. The phase is anchored at the
        // simulation epoch (not at creation), so probers that visit the
        // same host at different times — e.g. repeated scans — observe
        // different moments of the cycle, as in the real Internet.
        let episode = class.intermittent.then(|| {
            let e = profile.episodes.expect("intermittent implies episodes cfg");
            let interval = e.interval.sample(&mut rng).max(1.0);
            let duration = e.duration.sample(&mut rng).clamp(1.0, e.max_duration_secs);
            let pos = rng.range_f64(0.0..interval + duration);
            if pos < interval {
                EpisodeRt {
                    until: SimTime::EPOCH,
                    buffer_from: SimTime::EPOCH,
                    next_at: SimTime::EPOCH + SimDuration::from_secs_f64(interval - pos),
                    buffered: 0,
                }
            } else {
                let elapsed = pos - interval;
                let remaining = duration - elapsed;
                let until = SimTime::EPOCH + SimDuration::from_secs_f64(remaining);
                let blackout =
                    rng.range_f64(0.0..e.blackout_secs_max.max(1e-6)).min(duration * 0.5);
                // Blackout end relative to the (pre-epoch) episode start,
                // saturating at the epoch.
                let buffer_from =
                    SimTime::EPOCH + SimDuration::from_secs_f64((blackout - elapsed).max(0.0));
                EpisodeRt {
                    until,
                    buffer_from,
                    next_at: until + SimDuration::from_secs_f64(e.interval.sample(&mut rng)),
                    buffered: 0,
                }
            }
        });
        let storm = class.stormy.then(|| {
            let s = profile.storms.expect("stormy implies storms cfg");
            let interval = s.interval.sample(&mut rng).max(1.0);
            let duration = s.duration.sample(&mut rng).max(1.0);
            let pos = rng.range_f64(0.0..interval + duration);
            if pos < interval {
                StormRt {
                    until: SimTime::EPOCH,
                    next_at: SimTime::EPOCH + SimDuration::from_secs_f64(interval - pos),
                }
            } else {
                let remaining = duration - (pos - interval);
                let until = SimTime::EPOCH + SimDuration::from_secs_f64(remaining);
                StormRt {
                    until,
                    next_at: until + SimDuration::from_secs_f64(s.interval.sample(&mut rng)),
                }
            }
        });
        let bucket = profile
            .icmp_rate_limit
            .map(|rl| TokenBucket { tokens: f64::from(rl.burst), last: now });
        HostState {
            rng,
            class,
            base_rtt,
            recv_ttl,
            radio_until: SimTime::EPOCH,
            episode,
            storm,
            bucket,
        }
    }

    /// The host's static class.
    pub fn class(&self) -> HostClass {
        self.class
    }

    /// The fixed base RTT in seconds.
    pub fn base_rtt(&self) -> f64 {
        self.base_rtt
    }

    /// Process a probe arriving at `now`; returns the responses to
    /// schedule (possibly none, possibly a flood for reflectors).
    pub fn respond(&mut self, profile: &BlockProfile, now: SimTime) -> Vec<Response> {
        // Reflectors flood regardless of everything else.
        if self.class.reflector {
            if let Some(dos) = &profile.dos {
                let n = (dos.count.sample(&mut self.rng) as u64)
                    .clamp(1, u64::from(dos.max_responses)) as u32;
                let mut out = Vec::with_capacity(n as usize);
                for i in 0..n {
                    // First response at the normal RTT, the flood spread
                    // uniformly over the configured window.
                    let offset = if i == 0 {
                        0.0
                    } else {
                        self.rng.range_f64(0.0..dos.spread_secs.max(0.001))
                    };
                    out.push(Response { delay_secs: self.base_rtt + offset, kind: Reply::Normal });
                }
                return out;
            }
        }

        // Path errors preempt delivery.
        if coin(&mut self.rng, profile.error_prob) {
            return vec![Response { delay_secs: self.base_rtt, kind: Reply::Error }];
        }

        // Disconnect episodes: probes during an episode are buffered by
        // the network and flushed at reconnect, or lost.
        if let Some(delay) = self.episode_delay(profile, now) {
            return match delay {
                EpisodeOutcome::Buffered(d) => {
                    let jitter = profile.jitter.sample(&mut self.rng);
                    vec![Response { delay_secs: d + self.base_rtt + jitter, kind: Reply::Normal }]
                }
                EpisodeOutcome::Dropped => Vec::new(),
            };
        }

        // Congestion storms: heavy loss, and survivors queue for a long
        // time (sustained high latency and loss).
        let mut storm_extra = 0.0;
        if let Some(s_cfg) = profile.storms {
            if self.in_storm(&s_cfg, now) {
                if coin(&mut self.rng, s_cfg.loss) {
                    return Vec::new();
                }
                storm_extra = s_cfg.delay.sample_capped(&mut self.rng, s_cfg.max_delay_secs);
            }
        }

        // Ordinary loss.
        if !coin(&mut self.rng, profile.response_prob) {
            // A lost response still wakes the radio: the probe reached the
            // host with probability ~sqrt(response_prob); approximating
            // with certainty keeps the model simple and errs toward the
            // paper's observation that retries stay slow.
            self.touch_radio(profile, now, 0.0);
            return Vec::new();
        }

        let mut delay = self.base_rtt;

        // Radio wake-up for idle cellular hosts.
        if self.class.wakeup {
            if let Some(w) = &profile.wakeup {
                if now >= self.radio_until {
                    let wake = w.delay.sample(&mut self.rng);
                    delay += wake;
                    self.touch_radio(profile, now, wake);
                } else {
                    self.touch_radio(profile, now, 0.0);
                }
            }
        }

        // Jitter plus persistent congestion, jointly capped for links with
        // bounded queues.
        let mut extra = profile.jitter.sample(&mut self.rng);
        if self.class.congested {
            if let Some(c) = &profile.congestion {
                // Diurnal modulation: heavier queues and loss at the
                // block's local peak hour.
                let load = profile.diurnal.map_or(1.0, |d| d.factor(now.as_secs_f64()));
                if coin(&mut self.rng, (c.busy_loss * load).min(1.0)) {
                    return Vec::new();
                }
                extra += c.extra.sample(&mut self.rng) * load;
            }
        }
        if let Some(cap) = profile.rtt_cap {
            extra = extra.min(cap);
        }
        // Storm queueing is congestion collapse: it is not bounded by the
        // link's normal queue cap.
        delay += extra + storm_extra;

        // Regime shift (COVID-style step change): once `at_secs` passes,
        // the whole path slows down and loses more. The RNG is only
        // consulted while the new regime is active, so profiles without a
        // shift — and probes before it — keep their exact draw sequences.
        if let Some(shift) = profile.shift {
            if now.as_secs_f64() >= shift.at_secs {
                if coin(&mut self.rng, shift.extra_loss) {
                    return Vec::new();
                }
                delay *= shift.rtt_scale;
            }
        }

        // Host-side ICMP rate limiting.
        if let Some(rl) = &profile.icmp_rate_limit {
            let bucket = self.bucket.as_mut().expect("bucket exists when cfg does");
            let dt = now.saturating_since(bucket.last).as_secs_f64();
            bucket.tokens = (bucket.tokens + dt * rl.rate_per_sec).min(f64::from(rl.burst));
            bucket.last = now;
            if bucket.tokens < 1.0 {
                return Vec::new();
            }
            bucket.tokens -= 1.0;
        }

        let mut out = vec![Response { delay_secs: delay, kind: Reply::Normal }];

        // Benign duplication: 1–3 extra copies milliseconds apart.
        if coin(&mut self.rng, profile.dup_prob) {
            let copies = 1 + self.rng.below(3);
            for _ in 0..copies {
                let gap = self.rng.range_f64(0.001..0.02);
                out.push(Response { delay_secs: delay + gap, kind: Reply::Normal });
            }
        }
        out
    }

    fn touch_radio(&mut self, profile: &BlockProfile, now: SimTime, wake_secs: f64) {
        if let Some(w) = &profile.wakeup {
            let connected = now + SimDuration::from_secs_f64(wake_secs + w.tail_secs);
            if connected > self.radio_until {
                self.radio_until = connected;
            }
        }
    }

    /// Advance the storm renewal process to `now`; true while storming.
    fn in_storm(&mut self, cfg: &crate::profile::StormCfg, now: SimTime) -> bool {
        let Some(st) = self.storm.as_mut() else { return false };
        loop {
            if now < st.until {
                return true;
            }
            if now < st.next_at {
                return false;
            }
            let dur = cfg.duration.sample(&mut self.rng).max(1.0);
            st.until = st.next_at + SimDuration::from_secs_f64(dur);
            st.next_at = st.until + SimDuration::from_secs_f64(cfg.interval.sample(&mut self.rng));
        }
    }

    /// Advance the episode renewal process to `now` and classify the probe.
    /// Returns `None` when not inside an episode.
    fn episode_delay(&mut self, profile: &BlockProfile, now: SimTime) -> Option<EpisodeOutcome> {
        let cfg = profile.episodes?;
        let ep = self.episode.as_mut()?;
        // Fast-forward the renewal process past episodes that ended before
        // this probe.
        loop {
            if now < ep.until {
                // Inside the current episode. Blackout prefix: dropped.
                if now < ep.buffer_from {
                    return Some(EpisodeOutcome::Dropped);
                }
                if ep.buffered < cfg.buffer_cap && coin(&mut self.rng, cfg.buffer_prob) {
                    ep.buffered += 1;
                    // Flushed at reconnect: remaining episode time plus a
                    // small per-packet drain gap.
                    let remaining = ep.until.saturating_since(now).as_secs_f64();
                    let drain = f64::from(ep.buffered) * 0.005;
                    return Some(EpisodeOutcome::Buffered(remaining + drain));
                }
                return Some(EpisodeOutcome::Dropped);
            }
            if now < ep.next_at {
                return None;
            }
            // Start the episode scheduled at next_at.
            let dur = cfg.duration.sample(&mut self.rng).clamp(1.0, cfg.max_duration_secs);
            let start = ep.next_at;
            ep.until = start + SimDuration::from_secs_f64(dur);
            let blackout = self.rng.range_f64(0.0..cfg.blackout_secs_max.max(1e-6)).min(dur * 0.5);
            ep.buffer_from = start + SimDuration::from_secs_f64(blackout);
            ep.next_at = ep.until + SimDuration::from_secs_f64(cfg.interval.sample(&mut self.rng));
            ep.buffered = 0;
            // Loop: `now` may fall inside, between, or past this episode.
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum EpisodeOutcome {
    /// Buffered; respond after this many seconds (before adding base RTT).
    Buffered(f64),
    Dropped,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{CongestionCfg, DosCfg, EpisodeCfg, RateLimitCfg, WakeupCfg};
    use crate::rng::Dist;

    const SEED: u64 = 0x5eed;

    fn t(secs: f64) -> SimTime {
        SimTime::EPOCH + SimDuration::from_secs_f64(secs)
    }

    fn plain_profile() -> BlockProfile {
        BlockProfile {
            base_rtt: Dist::Constant(0.05),
            jitter: Dist::Constant(0.0),
            response_prob: 1.0,
            error_prob: 0.0,
            dup_prob: 0.0,
            density: 1.0,
            ..Default::default()
        }
    }

    #[test]
    fn plain_host_replies_at_base_rtt() {
        let p = plain_profile();
        let mut h = HostState::new(SEED, &p, 0x0a000005, t(0.0));
        let rs = h.respond(&p, t(10.0));
        assert_eq!(rs.len(), 1);
        assert!((rs[0].delay_secs - 0.05).abs() < 1e-9);
        assert_eq!(rs[0].kind, Reply::Normal);
    }

    #[test]
    fn liveness_excludes_broadcast_addresses() {
        let p = BlockProfile { density: 1.0, subnet_host_bits: 8, ..plain_profile() };
        assert!(!is_live(SEED, &p, 0x0a0000ff)); // .255
        assert!(!is_live(SEED, &p, 0x0a000000)); // .0
        assert!(is_live(SEED, &p, 0x0a000017));
        let p = BlockProfile { subnet_host_bits: 7, ..p };
        assert!(!is_live(SEED, &p, 0x0a00007f)); // .127 is /25 broadcast
        assert!(!is_live(SEED, &p, 0x0a000080)); // .128 is /25 network
    }

    #[test]
    fn liveness_respects_density_statistically() {
        let p = BlockProfile { density: 0.25, ..plain_profile() };
        let live = (0u32..10_000).filter(|&a| is_live(SEED, &p, 0x0b000000 + a)).count();
        // Broadcast-looking octets excluded, so a touch below 25%.
        assert!((2_000..2_800).contains(&live), "{live}");
    }

    #[test]
    fn wakeup_applies_when_idle_and_not_when_connected() {
        let p = BlockProfile {
            wakeup: Some(WakeupCfg { host_prob: 1.0, delay: Dist::Constant(2.0), tail_secs: 10.0 }),
            ..plain_profile()
        };
        let mut h = HostState::new(SEED, &p, 0x0a000005, t(0.0));
        assert!(h.class().wakeup);
        // First probe: idle, pays 2 s wake-up.
        let r1 = h.respond(&p, t(100.0));
        assert!((r1[0].delay_secs - 2.05).abs() < 1e-9, "{}", r1[0].delay_secs);
        // One second later: still connected, base RTT only.
        let r2 = h.respond(&p, t(101.0));
        assert!((r2[0].delay_secs - 0.05).abs() < 1e-9);
        // After the tail expires: idle again.
        let r3 = h.respond(&p, t(120.0));
        assert!((r3[0].delay_secs - 2.05).abs() < 1e-9);
    }

    #[test]
    fn congestion_adds_delay_and_loss() {
        let p = BlockProfile {
            congestion: Some(CongestionCfg {
                host_prob: 1.0,
                extra: Dist::Constant(1.5),
                busy_loss: 0.0,
            }),
            ..plain_profile()
        };
        let mut h = HostState::new(SEED, &p, 0x0a000005, t(0.0));
        assert!(h.class().congested);
        let r = h.respond(&p, t(5.0));
        assert!((r[0].delay_secs - 1.55).abs() < 1e-9);
        // With busy_loss = 1, everything drops.
        let p2 = BlockProfile {
            congestion: Some(CongestionCfg {
                host_prob: 1.0,
                extra: Dist::Constant(1.5),
                busy_loss: 1.0,
            }),
            ..plain_profile()
        };
        let mut h2 = HostState::new(SEED, &p2, 0x0a000005, t(0.0));
        assert!(h2.respond(&p2, t(5.0)).is_empty());
    }

    #[test]
    fn diurnal_modulates_congestion_delay() {
        use crate::profile::DiurnalCfg;
        let p = BlockProfile {
            congestion: Some(CongestionCfg {
                host_prob: 1.0,
                extra: Dist::Constant(2.0),
                busy_loss: 0.0,
            }),
            diurnal: Some(DiurnalCfg {
                amplitude: 0.5,
                peak_offset_secs: 0.0,
                period_secs: 86_400.0,
            }),
            ..plain_profile()
        };
        let mut h = HostState::new(SEED, &p, 0x0a000005, t(0.0));
        // At the peak (t = 0): extra ×1.5; at the trough (half period): ×0.5.
        let peak = h.respond(&p, t(0.0))[0].delay_secs;
        let trough = h.respond(&p, t(43_200.0))[0].delay_secs;
        assert!((peak - (0.05 + 3.0)).abs() < 1e-9, "peak {peak}");
        assert!((trough - (0.05 + 1.0)).abs() < 1e-9, "trough {trough}");
    }

    #[test]
    fn shift_scales_delay_and_adds_loss_only_after_onset() {
        use crate::profile::ShiftCfg;
        let p = BlockProfile {
            shift: Some(ShiftCfg { at_secs: 100.0, rtt_scale: 2.0, extra_loss: 0.0 }),
            ..plain_profile()
        };
        let mut h = HostState::new(SEED, &p, 0x0a000005, t(0.0));
        let before = h.respond(&p, t(50.0))[0].delay_secs;
        let after = h.respond(&p, t(150.0))[0].delay_secs;
        assert!((before - 0.05).abs() < 1e-9, "pre-shift {before}");
        assert!((after - 0.10).abs() < 1e-9, "post-shift {after}");

        // Extra loss engages only in the new regime.
        let p2 = BlockProfile {
            shift: Some(ShiftCfg { at_secs: 100.0, rtt_scale: 1.0, extra_loss: 1.0 }),
            ..plain_profile()
        };
        let mut h2 = HostState::new(SEED, &p2, 0x0a000005, t(0.0));
        assert_eq!(h2.respond(&p2, t(50.0)).len(), 1);
        assert!(h2.respond(&p2, t(150.0)).is_empty());
    }

    #[test]
    fn pre_shift_behavior_matches_unshifted_profile() {
        use crate::profile::ShiftCfg;
        let plain = plain_profile();
        let shifted = BlockProfile {
            shift: Some(ShiftCfg { at_secs: 1e6, rtt_scale: 3.0, extra_loss: 0.5 }),
            jitter: Dist::Exponential { mean: 0.004 },
            ..plain_profile()
        };
        let jittery_plain = BlockProfile { jitter: Dist::Exponential { mean: 0.004 }, ..plain };
        let mut a = HostState::new(SEED, &jittery_plain, 0x0a000005, t(0.0));
        let mut b = HostState::new(SEED, &shifted, 0x0a000005, t(0.0));
        // Same seeds, shift far in the future: identical draw sequences.
        for i in 0..50 {
            assert_eq!(
                a.respond(&jittery_plain, t(f64::from(i))),
                b.respond(&shifted, t(f64::from(i)))
            );
        }
    }

    #[test]
    fn rtt_cap_bounds_extras_but_not_base() {
        let p = BlockProfile {
            base_rtt: Dist::Constant(0.6),
            jitter: Dist::Constant(5.0),
            rtt_cap: Some(2.0),
            ..plain_profile()
        };
        let mut h = HostState::new(SEED, &p, 0x0a000005, t(0.0));
        let r = h.respond(&p, t(1.0));
        assert!((r[0].delay_secs - 2.6).abs() < 1e-9);
    }

    /// Probe once per second from t=0; return per-second delays (None =
    /// dropped), for phase-robust episode/storm assertions.
    fn sample_train(p: &BlockProfile, secs: usize) -> Vec<Option<f64>> {
        let mut h = HostState::new(SEED, p, 0x0a000005, t(0.0));
        (0..secs).map(|i| h.respond(p, t(i as f64)).first().map(|r| r.delay_secs)).collect()
    }

    #[test]
    fn episode_buffers_and_decays() {
        let p = BlockProfile {
            episodes: Some(EpisodeCfg {
                host_prob: 1.0,
                interval: Dist::Constant(50.0),
                duration: Dist::Constant(30.0),
                max_duration_secs: 400.0,
                blackout_secs_max: 1e-9, // no blackout: keep tests exact
                buffer_cap: 100,
                buffer_prob: 1.0,
            }),
            ..plain_profile()
        };
        // The renewal phase is stationary (host-seed dependent), so find
        // an episode empirically: buffered responses have delay ≫ base.
        let train = sample_train(&p, 200);
        let buffered: Vec<(usize, f64)> = train
            .iter()
            .enumerate()
            .filter_map(|(i, d)| d.filter(|&v| v > 1.0).map(|v| (i, v)))
            .collect();
        assert!(!buffered.is_empty(), "no episode observed in 200 s of an 80 s cycle");
        // The staircase: all buffered responses of one episode arrive
        // together, so send_index + delay is constant within an episode.
        let (i0, d0) = buffered[0];
        let arrival = i0 as f64 + d0;
        let same_episode: Vec<&(usize, f64)> =
            buffered.iter().filter(|(i, _)| (*i as f64) < arrival).collect();
        for (i, d) in &same_episode {
            assert!(((*i as f64 + d) - arrival).abs() < 0.6, "staircase broken at {i}: {d}");
        }
        // Episodes are bounded: normal responses exist too.
        assert!(train.iter().flatten().any(|&d| d < 0.1), "never returned to normal");
    }

    #[test]
    fn episode_renewal_fast_forwards_over_missed_episodes() {
        let p = BlockProfile {
            episodes: Some(EpisodeCfg {
                host_prob: 1.0,
                interval: Dist::Constant(10.0),
                duration: Dist::Constant(5.0),
                max_duration_secs: 400.0,
                blackout_secs_max: 1e-9, // no blackout: keep tests exact
                buffer_cap: 10,
                buffer_prob: 1.0,
            }),
            ..plain_profile()
        };
        let mut h = HostState::new(SEED, &p, 0x0a000005, t(0.0));
        // Probe far in the future: the renewal must fast-forward over the
        // dozens of missed episodes without hanging, and the response (if
        // buffered) must be bounded by one episode duration.
        let r = h.respond(&p, t(1000.5));
        if let Some(resp) = r.first() {
            assert!(resp.delay_secs < 6.0, "delay {}", resp.delay_secs);
        }
    }

    #[test]
    fn episode_buffer_cap_drops_excess() {
        let p = BlockProfile {
            episodes: Some(EpisodeCfg {
                host_prob: 1.0,
                interval: Dist::Constant(100.0),
                duration: Dist::Constant(50.0),
                max_duration_secs: 400.0,
                blackout_secs_max: 1e-9, // no blackout: keep tests exact
                buffer_cap: 2,
                buffer_prob: 1.0,
            }),
            ..plain_profile()
        };
        // Probing every second, each episode buffers exactly 2 probes and
        // drops the rest: over two full cycles (300 s) the number of
        // buffered (slow) responses is exactly 2 per observed episode and
        // drops occur inside episodes.
        let train = sample_train(&p, 300);
        let slow = train.iter().flatten().filter(|&&d| d > 1.0).count();
        let dropped = train.iter().filter(|d| d.is_none()).count();
        assert!(slow > 0, "no buffered responses at all");
        assert!(slow <= 2 * 3, "more than 2 buffered per episode: {slow}");
        assert!(dropped >= 40, "drops missing: {dropped}");
    }

    #[test]
    fn storm_adds_long_delay_during_window_only() {
        use crate::profile::StormCfg;
        let p = BlockProfile {
            storms: Some(StormCfg {
                host_prob: 1.0,
                interval: Dist::Constant(100.0),
                duration: Dist::Constant(60.0),
                delay: Dist::Constant(120.0),
                max_delay_secs: 250.0,
                loss: 0.0,
            }),
            ..plain_profile()
        };
        let mut h = HostState::new(SEED, &p, 0x0a000005, t(0.0));
        assert!(h.class().stormy);
        // Stationary phase: sample two full cycles (320 s) and check that
        // storm seconds show exactly +120 s and calm seconds are base-RTT,
        // with both phases present and contiguous.
        let delays: Vec<f64> =
            (0..320).map(|i| h.respond(&p, t(f64::from(i)))[0].delay_secs).collect();
        let stormy = delays.iter().filter(|&&d| (d - 120.05).abs() < 1e-6).count();
        let calm = delays.iter().filter(|&&d| (d - 0.05).abs() < 1e-6).count();
        assert_eq!(stormy + calm, 320, "delays outside the two phases");
        // Two cycles of 160 s with 60 s storms: ~120 stormy seconds.
        assert!((90..=150).contains(&stormy), "stormy seconds {stormy}");
    }

    #[test]
    fn storm_loss_drops_probes() {
        use crate::profile::StormCfg;
        let p = BlockProfile {
            storms: Some(StormCfg {
                host_prob: 1.0,
                interval: Dist::Constant(10.0),
                duration: Dist::Constant(1000.0),
                delay: Dist::Constant(120.0),
                max_delay_secs: 250.0,
                loss: 1.0,
            }),
            ..plain_profile()
        };
        let mut h = HostState::new(SEED, &p, 0x0a000005, t(0.0));
        // The renewal phase is stationary, so a single instant can land in
        // the ≤ 10 s inter-storm gap; probe a 200 s window instead. With
        // 1000 s storms at most one gap fits inside it.
        let dropped = (0..200).filter(|i| h.respond(&p, t(f64::from(*i))).is_empty()).count();
        assert!(dropped >= 185, "only {dropped}/200 probes dropped by storm loss");
    }

    #[test]
    fn reflector_floods_with_cap() {
        let p = BlockProfile {
            dos: Some(DosCfg {
                addr_prob: 1.0,
                count: Dist::Constant(1e9),
                max_responses: 500,
                spread_secs: 10.0,
            }),
            ..plain_profile()
        };
        let mut h = HostState::new(SEED, &p, 0x0a000005, t(0.0));
        assert!(h.class().reflector);
        let rs = h.respond(&p, t(1.0));
        assert_eq!(rs.len(), 500);
        assert!((rs[0].delay_secs - 0.05).abs() < 1e-9);
        assert!(rs.iter().all(|r| r.delay_secs <= 10.05 + 1e-9));
    }

    #[test]
    fn rate_limit_enforced_and_refills() {
        let p = BlockProfile {
            icmp_rate_limit: Some(RateLimitCfg { rate_per_sec: 1.0, burst: 2 }),
            ..plain_profile()
        };
        let mut h = HostState::new(SEED, &p, 0x0a000005, t(0.0));
        assert_eq!(h.respond(&p, t(10.0)).len(), 1);
        assert_eq!(h.respond(&p, t(10.1)).len(), 1);
        assert!(h.respond(&p, t(10.2)).is_empty(), "bucket exhausted");
        // After 2 s, a token has refilled.
        assert_eq!(h.respond(&p, t(12.2)).len(), 1);
    }

    #[test]
    fn error_probability_yields_error_kind() {
        let p = BlockProfile { error_prob: 1.0, ..plain_profile() };
        let mut h = HostState::new(SEED, &p, 0x0a000005, t(0.0));
        let r = h.respond(&p, t(1.0));
        assert_eq!(r[0].kind, Reply::Error);
    }

    #[test]
    fn duplication_emits_two_to_four_copies() {
        let p = BlockProfile { dup_prob: 1.0, ..plain_profile() };
        let mut h = HostState::new(SEED, &p, 0x0a000005, t(0.0));
        for i in 0..20 {
            let rs = h.respond(&p, t(1.0 + f64::from(i)));
            assert!((2..=4).contains(&rs.len()), "{} copies", rs.len());
        }
    }

    #[test]
    fn class_is_deterministic_per_address() {
        let p = BlockProfile {
            wakeup: Some(WakeupCfg { host_prob: 0.5, ..Default::default() }),
            congestion: Some(CongestionCfg { host_prob: 0.5, ..Default::default() }),
            ..plain_profile()
        };
        for a in 0..100u32 {
            assert_eq!(class_of(SEED, &p, a), class_of(SEED, &p, a));
        }
        // And varies across addresses.
        let classes: std::collections::HashSet<bool> =
            (0..100u32).map(|a| class_of(SEED, &p, a).wakeup).collect();
        assert_eq!(classes.len(), 2);
    }

    #[test]
    fn recv_ttl_plausible() {
        let p = plain_profile();
        for a in 0..50u32 {
            let h = HostState::new(SEED, &p, 0x0a000000 + a, t(0.0));
            assert!(h.recv_ttl >= 1);
            assert!(h.recv_ttl <= 255 - 6);
        }
    }
}
