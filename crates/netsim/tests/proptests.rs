//! Property tests over the simulator: sampled values stay physical, host
//! behavior stays bounded, and the world is a pure function of its seed.

use beware_netsim::event::{EventKey, EventQueue};
use beware_netsim::host::{class_of, is_live, HostState};
use beware_netsim::packet::Packet;
use beware_netsim::profile::{BlockProfile, CongestionCfg, EpisodeCfg, StormCfg, WakeupCfg};
use beware_netsim::rng::{seeded, Dist};
use beware_netsim::time::{SimDuration, SimTime};
use beware_netsim::world::World;
use beware_runtime::rng::{derive_seed, unit_hash};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// The event loop netsim carried until PR 10, kept verbatim as the
/// reference model: a binary heap keyed `(time, sequence)` with
/// cancellation by payload removal. The wheel-backed [`EventQueue`] must
/// replay any schedule this loop accepts, event for event.
#[derive(Default)]
struct RetiredHeapQueue {
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    payloads: std::collections::HashMap<u64, u64>,
    next_seq: u64,
}

impl RetiredHeapQueue {
    fn push(&mut self, at_ns: u64, payload: u64) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse((at_ns, seq)));
        self.payloads.insert(seq, payload);
        seq
    }

    fn cancel(&mut self, seq: u64) -> Option<u64> {
        self.payloads.remove(&seq)
    }

    fn pop(&mut self) -> Option<(u64, u64)> {
        while let Some(Reverse((at, seq))) = self.heap.pop() {
            if let Some(payload) = self.payloads.remove(&seq) {
                return Some((at, payload));
            }
        }
        None
    }

    fn peek_ns(&mut self) -> Option<u64> {
        while let Some(&Reverse((at, seq))) = self.heap.peek() {
            if self.payloads.contains_key(&seq) {
                return Some(at);
            }
            self.heap.pop();
        }
        None
    }
}

/// One step of a virtual-time schedule: the op kind selector, a raw
/// draw that doubles as deadline (pushes) or victim selector (cancels),
/// and the deadline's shape (see [`draw_ns`]).
type ScheduleOp = (u8, u64, u8);

/// A push deadline in nanoseconds, by `shape`: from a 64 ns window (so
/// same-instant ties, the FIFO contract, are common), from the whole
/// `u64` axis with both ends (`SimTime` saturates at `u64::MAX`), or
/// just below `seen`, the last time popped or peeked (a push below the
/// radix heap's front).
fn draw_ns(shape: u8, draw: u64, seen: u64) -> u64 {
    match (shape, draw % 4) {
        (0 | 1, _) => draw % 64,
        (2, 0) => 0,
        (2, 1) => u64::MAX,
        (2, _) => draw,
        _ => seen.saturating_sub(1 + draw % 4),
    }
}

fn arb_dist() -> impl Strategy<Value = Dist> {
    prop_oneof![
        (0.0f64..10.0).prop_map(Dist::Constant),
        (0.0f64..5.0, 0.1f64..5.0).prop_map(|(lo, w)| Dist::Uniform { lo, hi: lo + w }),
        (0.001f64..10.0).prop_map(|mean| Dist::Exponential { mean }),
        (0.001f64..10.0, 0.05f64..2.0)
            .prop_map(|(median, sigma)| Dist::LogNormal { median, sigma }),
        (0.001f64..10.0, 0.3f64..4.0).prop_map(|(xm, alpha)| Dist::Pareto { xm, alpha }),
        (0.001f64..10.0, 0.3f64..4.0).prop_map(|(scale, shape)| Dist::Weibull { scale, shape }),
    ]
}

/// Bounded jitter for the physicality property (a heavy-tailed *jitter*
/// would make any absolute bound vacuous).
fn arb_bounded_jitter() -> impl Strategy<Value = Dist> {
    prop_oneof![
        (0.0f64..3.0).prop_map(Dist::Constant),
        (0.0f64..3.0, 0.1f64..3.0).prop_map(|(lo, w)| Dist::Uniform { lo, hi: lo + w }),
    ]
}

fn arb_profile() -> impl Strategy<Value = BlockProfile> {
    (
        arb_dist(),
        arb_bounded_jitter(),
        0.0f64..=1.0,
        0.0f64..=1.0,
        2u8..=8,
        proptest::option::of((0.0f64..=1.0, 1.0f64..30.0)),
        proptest::option::of(0.0f64..=1.0),
        proptest::option::of(0.0f64..=1.0),
        proptest::option::of((0.0f64..=1.0, 0.0f64..=1.0)),
    )
        .prop_map(
            |(base, jitter, density, response_prob, hb, wake, congest, episodes, storms)| {
                BlockProfile {
                    base_rtt: base,
                    jitter,
                    density,
                    response_prob,
                    subnet_host_bits: hb,
                    wakeup: wake.map(|(p, tail)| WakeupCfg {
                        host_prob: p,
                        tail_secs: tail,
                        ..Default::default()
                    }),
                    congestion: congest
                        .map(|p| CongestionCfg { host_prob: p, ..Default::default() }),
                    episodes: episodes.map(|p| EpisodeCfg { host_prob: p, ..Default::default() }),
                    storms: storms.map(|(p, loss)| StormCfg {
                        host_prob: p,
                        loss,
                        ..Default::default()
                    }),
                    ..Default::default()
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dist_samples_finite_and_nonnegative(dist in arb_dist(), seed in any::<u64>()) {
        let mut rng = seeded(seed);
        for _ in 0..64 {
            let v = dist.sample(&mut rng);
            prop_assert!(v.is_finite());
            prop_assert!(v >= 0.0);
        }
    }

    #[test]
    fn unit_hash_always_in_unit_interval(parent in any::<u64>(), entity in any::<u64>()) {
        let h = unit_hash(parent, entity);
        prop_assert!((0.0..1.0).contains(&h));
        prop_assert_eq!(h, unit_hash(parent, entity));
    }

    #[test]
    fn derive_seed_is_deterministic_and_sensitive(parent in any::<u64>(), s in any::<u64>()) {
        prop_assert_eq!(derive_seed(parent, s), derive_seed(parent, s));
        prop_assert_ne!(derive_seed(parent, s), derive_seed(parent, s ^ 1));
    }

    #[test]
    fn host_responses_physical(profile in arb_profile(), addr in any::<u32>(),
                               probe_times in proptest::collection::vec(0.0f64..100_000.0, 1..30),
                               seed in any::<u64>()) {
        prop_assume!(profile.validate().is_ok());
        let mut times = probe_times;
        times.sort_by(f64::total_cmp);
        let t0 = SimTime::EPOCH + SimDuration::from_secs_f64(times[0]);
        let mut host = HostState::new(seed, &profile, addr, t0);
        for t in times {
            let now = SimTime::EPOCH + SimDuration::from_secs_f64(t);
            for r in host.respond(&profile, now) {
                prop_assert!(r.delay_secs.is_finite());
                prop_assert!(r.delay_secs >= 0.0);
                // No *mechanism* adds more than ~20 minutes on top of the
                // path RTT plus bounded jitter (the base draw itself is
                // whatever distribution the profile declares, including
                // heavy tails — the bound is relative to it).
                prop_assert!(
                    r.delay_secs < host.base_rtt() + 6.0 + 1_200.0,
                    "delay {} vs base {}",
                    r.delay_secs,
                    host.base_rtt()
                );
            }
        }
    }

    #[test]
    fn class_and_liveness_are_pure(profile in arb_profile(), addr in any::<u32>(), seed in any::<u64>()) {
        prop_assume!(profile.validate().is_ok());
        prop_assert_eq!(class_of(seed, &profile, addr), class_of(seed, &profile, addr));
        prop_assert_eq!(is_live(seed, &profile, addr), is_live(seed, &profile, addr));
    }

    #[test]
    fn world_trace_is_a_function_of_seed(
        seed in any::<u64>(),
        octets in proptest::collection::vec(any::<u8>(), 1..40),
    ) {
        let run = || {
            let mut w = World::new(seed);
            w.add_block(0x0a0000, Arc::new(BlockProfile::default()));
            let mut out = Vec::new();
            for (i, &o) in octets.iter().enumerate() {
                let probe = Packet::echo_request(1, 0x0a000000 | u32::from(o), 7, i as u16, vec![]);
                let t = SimTime::EPOCH + SimDuration::from_secs(i as u64);
                out.extend(w.probe(&probe, t));
            }
            out
        };
        prop_assert_eq!(run(), run());
    }

    #[test]
    fn wheel_backed_queue_replays_the_retired_heap_byte_identically(
        ops in proptest::collection::vec((0u8..5, any::<u64>(), 0u8..4), 1..300),
    ) {
        // Replay one interleaved schedule of pushes, cancels, pops and
        // peeks through both loops.
        let mut wheel_q: EventQueue<u64> = EventQueue::new();
        let mut heap_q = RetiredHeapQueue::default();
        let mut live: Vec<(EventKey, u64)> = Vec::new(); // (wheel key, heap seq)
        let mut next_payload = 0u64;
        let mut seen = 0;
        for &(kind, draw, shape) in &ops as &Vec<ScheduleOp> {
            match kind {
                // Pushes dominate so schedules grow deep enough to
                // exercise ordering, not just drain immediately.
                0 | 1 => {
                    let at_ns = draw_ns(shape, draw, seen);
                    let key = wheel_q.push(SimTime::from_ns(at_ns), next_payload);
                    let seq = heap_q.push(at_ns, next_payload);
                    live.push((key, seq));
                    next_payload += 1;
                }
                2 => {
                    if !live.is_empty() {
                        let (key, seq) = live.swap_remove(draw as usize % live.len());
                        prop_assert_eq!(wheel_q.cancel(key), heap_q.cancel(seq));
                    }
                }
                3 => {
                    // Stale entries left in `live` after a pop are fine:
                    // both loops answer a later cancel with `None`.
                    let wheel_pop = wheel_q.pop().map(|(at, p)| (at.as_ns(), p));
                    prop_assert_eq!(wheel_pop, heap_q.pop());
                    seen = wheel_pop.map_or(seen, |(at, _)| at);
                }
                _ => {
                    let peeked = wheel_q.peek_time().map(SimTime::as_ns);
                    prop_assert_eq!(peeked, heap_q.peek_ns());
                    seen = peeked.unwrap_or(seen);
                }
            }
        }
        // Drain both: the remaining schedules must replay identically to
        // the last event, and agree that they are empty.
        loop {
            let wheel_pop = wheel_q.pop().map(|(at, p)| (at.as_ns(), p));
            let heap_pop = heap_q.pop();
            prop_assert_eq!(wheel_pop, heap_pop);
            if wheel_pop.is_none() {
                break;
            }
        }
        prop_assert!(wheel_q.is_empty());
    }

    #[test]
    fn packets_encode_decode_roundtrip(src in any::<u32>(), dst in any::<u32>(),
                                       ident in any::<u16>(), seq in any::<u16>(),
                                       payload in proptest::collection::vec(any::<u8>(), 0..64)) {
        let p = Packet::echo_request(src, dst, ident, seq, payload);
        prop_assert_eq!(Packet::decode(&p.encode()).unwrap(), p);
    }
}
