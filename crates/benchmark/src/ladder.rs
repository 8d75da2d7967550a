//! The outside-in ladder: each rung calls one layer's public function in
//! batches over a workload's seeded inputs.
//!
//! Four of the five workloads enter the program through one call
//! (`simserve::run`, `fullspace::run`, `server::start`) that hides the
//! layers beneath it, and no source outside this crate may be
//! instrumented. So the traced run replays each layer from the outside:
//! one span per batch of at least ten thousand calls, the batch's call
//! count recorded, the rung's cost the median over its batches. Rungs
//! are summed against the workload's untraced CPU ns/op and the
//! remainder is reported as unattributed instead of pretending the
//! parts add up.

use crate::stats::median;
use crate::trace::Tracer;
use beware_netsim::event::EventQueue;
use beware_netsim::link::{LinkCfg, LinkId, LinkLayer};
use beware_netsim::time::{SimDuration, SimTime};
use beware_netsim::world::World;
use beware_netsim::Packet;
use beware_policy::{PolicyKind, PrefixPolicyMap, RttSample};
use beware_runtime::reactor::StopSignal;
use beware_runtime::{DeadlineWheel, SharedClock};
use beware_serve::engine::{channel_pair, Conn, EngineCore, Transport};
use beware_serve::oracle::Oracle;
use beware_serve::proto::{self, Message};
use beware_telemetry::Registry;
use beware_wire::checksum::internet_checksum;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

/// Calls per batch (one span each): enough that a span's own cost and
/// timer resolution vanish.
pub const BATCH: usize = 16_384;

/// Batches per rung; the rung reports their median.
pub const BATCHES: usize = 5;

/// Median ns per call over the spans named `name` recorded since span
/// index `since`.
fn batch_median(t: &Tracer, since: usize, name: &str) -> f64 {
    let per_call: Vec<f64> = t.spans()[since..]
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / s.calls as f64)
        .collect();
    assert_eq!(per_call.len(), BATCHES, "the ladder runs with the tracer enabled");
    median(&per_call)
}

/// Run [`BATCHES`] spans named `name`, each covering `calls` calls made
/// by `batch(index)`, and return the median ns per call.
pub fn rung(t: &mut Tracer, name: &str, calls: usize, mut batch: impl FnMut(usize)) -> f64 {
    let since = t.spans().len();
    for b in 0..BATCHES {
        t.set_repeat(b as u32);
        let open = t.begin(name);
        batch(b);
        t.end(open, calls as u64);
    }
    batch_median(t, since, name)
}

/// `proto::encode` and `proto::try_decode` over `frames`, cycled to fill
/// each batch: `(encode_ns, decode_ns)`.
pub fn proto_codec(t: &mut Tracer, frames: &[Message]) -> (f64, f64) {
    let encode = rung(t, "serve.proto.encode", BATCH, |_| {
        for m in frames.iter().cycle().take(BATCH) {
            black_box(proto::encode(black_box(m)));
        }
    });
    let bytes: Vec<Vec<u8>> = frames.iter().map(proto::encode).collect();
    let decode = rung(t, "serve.proto.decode", BATCH, |_| {
        for b in bytes.iter().cycle().take(BATCH) {
            black_box(proto::try_decode(black_box(b)).expect("own frames decode"));
        }
    });
    (encode, decode)
}

/// `Oracle::lookup` over `keys`, cycled.
pub fn oracle_lookup(t: &mut Tracer, oracle: &Oracle, keys: &[(u32, u16, u16)]) -> f64 {
    rung(t, "serve.oracle.lookup", BATCH, |_| {
        for &(addr, r, p) in keys.iter().cycle().take(BATCH) {
            black_box(oracle.lookup(black_box(addr), r, p).expect("grid pair resolves"));
        }
    })
}

/// How the bare engine is driven.
pub struct EngineShape {
    /// Online policy the engine answers from, if any.
    pub policy: Option<PolicyKind>,
    /// Request frames handed to one `service` call (1 in the sim, 64 on
    /// the socket workload).
    pub window: usize,
    /// Record into `Registry::new()` (true) or `Registry::disabled()`.
    pub telemetry: bool,
    /// Clock the engine stamps request time with.
    pub clock: SharedClock,
}

/// `Engine::service` + `flush` over a bare `channel_pair()` — no sim, no
/// link, no socket. `request(i)` yields the i-th request of the rung;
/// distinct keys keep the reply cache missing, a small pool keeps it
/// hitting. Returns ns per request.
pub fn engine_service(
    t: &mut Tracer,
    name: &str,
    oracle: &Arc<Oracle>,
    shape: &EngineShape,
    request: impl Fn(usize) -> Message,
) -> f64 {
    let core = EngineCore::new(Arc::clone(oracle), Arc::new(StopSignal::new()), shape.policy, None);
    let mut engine = core.engine(Arc::clone(&shape.clock), 64 * 1024);
    let (transport, peer) = channel_pair();
    let mut conn = Conn::new(0, transport);
    let mut reg = if shape.telemetry { Registry::new() } else { Registry::disabled() };
    let windows = BATCH / shape.window;
    // Encoding is the client's cost, measured by its own rung: do it
    // before the spans open.
    let encoded: Vec<Vec<Vec<u8>>> = (0..BATCHES)
        .map(|b| {
            (0..windows)
                .map(|w| {
                    let first = (b * windows + w) * shape.window;
                    (first..first + shape.window)
                        .flat_map(|index| proto::encode(&request(index)))
                        .collect()
                })
                .collect()
        })
        .collect();
    let mut reply = Vec::new();
    rung(t, name, windows * shape.window, |b| {
        for bytes in &encoded[b] {
            peer.send(bytes);
            engine.service(&mut conn, &mut reg);
            engine.flush(&mut conn, &mut reg);
            reply.clear();
            peer.drain(&mut reply);
            black_box(&reply);
        }
    })
}

/// The in-memory channel alone: the bytes [`engine_service`] moves for a
/// window of `window` request frames of `request_len` bytes answered by
/// as many `reply_len`-byte frames, with no engine in between. The
/// channel queues bytes one at a time, which the sim pays and a socket
/// does not, so the socket workload subtracts this from the bare engine.
/// Returns ns per request.
pub fn channel_transport(
    t: &mut Tracer,
    window: usize,
    request_len: usize,
    reply_len: usize,
) -> f64 {
    let (mut transport, peer) = channel_pair();
    let requests = vec![0u8; window * request_len];
    let replies = vec![0u8; window * reply_len];
    let mut scratch = [0u8; 4096];
    let mut drained = Vec::new();
    let windows = BATCH / window;
    rung(t, "serve.engine.channel", windows * window, |_| {
        for _ in 0..windows {
            peer.send(&requests);
            while transport.read_nb(&mut scratch).is_ok() {}
            transport.write_nb(&replies).expect("channel writes never fail");
            drained.clear();
            peer.drain(&mut drained);
            black_box(&drained);
        }
    })
}

/// `DeadlineWheel` replaying simserve's timer shape at `depth` pending
/// keys: per query four schedules (request leg, reply leg, next fire,
/// timeout) and one cancel (the timeout), three live pops. Returns
/// `(schedule_ns, cancel_ns, pop_ns)`.
pub fn wheel_timer_shape(t: &mut Tracer, depth: usize) -> (f64, f64, f64) {
    const QUERIES: usize = BATCH / 4;
    let mut wheel: DeadlineWheel<u64> = DeadlineWheel::new();
    let mut next_key = 0u64;
    // Pending background: `depth` keys spread over the coming second.
    for i in 0..depth {
        wheel.schedule(next_key, Duration::from_nanos(1_000_000_000 * i as u64 / depth as u64));
        next_key += 1;
    }
    let since = t.spans().len();
    for b in 0..BATCHES {
        t.set_repeat(b as u32);
        let base = Duration::from_millis(250 * b as u64);
        let first = next_key;
        let open = t.begin("runtime.wheel.schedule");
        for q in 0..QUERIES {
            let now = base + Duration::from_nanos(250_000_000 * q as u64 / QUERIES as u64);
            for lead_ms in [10, 20, 1_000, 1_000] {
                wheel.schedule(next_key, now + Duration::from_millis(lead_ms));
                next_key += 1;
            }
        }
        t.end(open, 4 * QUERIES as u64);
        let open = t.begin("runtime.wheel.cancel");
        for q in 0..QUERIES as u64 {
            black_box(wheel.cancel(&(first + 4 * q + 3)));
        }
        t.end(open, QUERIES as u64);
        let open = t.begin("runtime.wheel.pop");
        for _ in 0..3 * QUERIES {
            black_box(wheel.pop_next());
        }
        t.end(open, 3 * QUERIES as u64);
    }
    ["runtime.wheel.schedule", "runtime.wheel.cancel", "runtime.wheel.pop"]
        .map(|name| batch_median(t, since, name))
        .into()
}

/// Spread `i` over one simulated second, deterministically scattered.
fn scattered_ns(i: u64) -> u64 {
    i.wrapping_mul(2_654_435_761) % 1_000_000_000
}

/// `DeadlineWheel` schedule-once/pop-once with `depth` keys pending: ns
/// per key (one schedule plus one pop).
pub fn wheel_pop_once(t: &mut Tracer, depth: usize) -> f64 {
    let mut wheel: DeadlineWheel<u64> = DeadlineWheel::new();
    let mut next_key = 0u64;
    for _ in 0..depth {
        wheel.schedule(next_key, Duration::from_nanos(scattered_ns(next_key)));
        next_key += 1;
    }
    rung(t, "runtime.wheel.pop_once", BATCH, |b| {
        // Later batches schedule later: popped keys never outrun pushed ones.
        let base = Duration::from_secs(b as u64 + 1);
        for _ in 0..BATCH {
            wheel.schedule(next_key, base + Duration::from_nanos(scattered_ns(next_key)));
            next_key += 1;
        }
        for _ in 0..BATCH {
            black_box(wheel.pop_next());
        }
    })
}

/// `EventQueue` push-once/pop-once with `depth` events pending: ns per
/// event (one push plus one pop).
pub fn event_push_pop(t: &mut Tracer, depth: usize) -> f64 {
    let mut queue: EventQueue<u64> = EventQueue::new();
    let mut seq = 0u64;
    for _ in 0..depth {
        queue.push(SimTime::EPOCH + SimDuration::from_ns(scattered_ns(seq)), seq);
        seq += 1;
    }
    rung(t, "netsim.event.push_pop", BATCH, |b| {
        let base = SimTime::EPOCH + SimDuration::from_secs(b as u64 + 1);
        for _ in 0..BATCH {
            queue.push(base + SimDuration::from_ns(scattered_ns(seq)), seq);
            seq += 1;
        }
        for _ in 0..BATCH {
            black_box(queue.pop());
        }
    })
}

/// `LinkLayer::traverse` over `paths` (cycled), one packet every
/// `interval_ns` of sim time.
pub fn link_traverse(
    t: &mut Tracer,
    cfg: &LinkCfg,
    paths: &[[LinkId; 3]],
    interval_ns: u64,
) -> f64 {
    let mut layer = LinkLayer::new(cfg.clone());
    let mut now = SimTime::EPOCH;
    rung(t, "netsim.link.traverse", BATCH, |_| {
        for path in paths.iter().cycle().take(BATCH) {
            black_box(layer.traverse(black_box(path), now));
            now += SimDuration::from_ns(interval_ns);
        }
    })
}

/// `World::probe` with an echo request per address of `addrs(batch)`,
/// one probe every `interval_ns` of sim time. `addrs` must yield at
/// least [`BATCH`] addresses per batch.
pub fn world_probe<I: Iterator<Item = u32>>(
    t: &mut Tracer,
    name: &str,
    world: &mut World,
    interval_ns: u64,
    addrs: impl Fn(usize) -> I,
) -> f64 {
    let mut now = SimTime::EPOCH;
    rung(t, name, BATCH, |b| {
        let mut sent = 0;
        for addr in addrs(b).take(BATCH) {
            let probe = Packet::echo_request(0x0101_0101, addr, 1, sent as u16, Vec::new());
            black_box(world.probe(&probe, now));
            now += SimDuration::from_ns(interval_ns);
            sent += 1;
        }
        assert_eq!(sent, BATCH, "address source ran dry");
    })
}

/// `Packet::encode` / `Packet::decode` of a survey-sized echo request:
/// `(encode_ns, decode_ns)`.
pub fn packet_codec(t: &mut Tracer) -> (f64, f64) {
    let pkt = Packet::echo_request(0x0101_0101, 0x0a00_0001, 7, 3, vec![0u8; 24]);
    let encode = rung(t, "netsim.packet.encode", BATCH, |_| {
        for _ in 0..BATCH {
            black_box(black_box(&pkt).encode());
        }
    });
    let bytes = pkt.encode();
    let decode = rung(t, "netsim.packet.decode", BATCH, |_| {
        for _ in 0..BATCH {
            black_box(Packet::decode(black_box(&bytes)).expect("own packet decodes"));
        }
    });
    (encode, decode)
}

/// `internet_checksum` over 1500-byte buffers, ns per KiB.
pub fn checksum_per_kb(t: &mut Tracer) -> f64 {
    let data = vec![0xa5u8; 1500];
    let per_call = rung(t, "wire.checksum", BATCH, |_| {
        for _ in 0..BATCH {
            black_box(internet_checksum(black_box(&data)));
        }
    });
    per_call * 1024.0 / data.len() as f64
}

/// A longest-prefix match per address of `addrs`, cycled.
pub fn lpm_lookup(t: &mut Tracer, addrs: &[u32], mut lookup: impl FnMut(u32) -> bool) -> f64 {
    rung(t, "asdb.trie.lookup", BATCH, |_| {
        for &addr in addrs.iter().cycle().take(BATCH) {
            black_box(lookup(black_box(addr)));
        }
    })
}

/// `PrefixPolicyMap::observe` over `addrs` (cycled), then
/// `snapshot_table` at the resulting map size: `(observe_ns, freeze_ns)`.
pub fn policy_map(t: &mut Tracer, kind: PolicyKind, addrs: &[u32]) -> (f64, f64) {
    /// A freeze walks every tracked prefix, so a span covers few of them.
    const FREEZES: usize = 16;
    let mut map = PrefixPolicyMap::for_kind(kind);
    let mut n = 0.0;
    let observe = rung(t, "policy.map.observe", BATCH, |_| {
        for &addr in addrs.iter().cycle().take(BATCH) {
            n += 1.0;
            map.observe(black_box(addr), RttSample::new(0.02, n));
        }
    });
    let freeze = rung(t, "policy.map.freeze", FREEZES, |_| {
        for _ in 0..FREEZES {
            black_box(map.snapshot_table(1.0));
        }
    });
    (observe, freeze)
}
