//! The serve engine's steady-state allocation contract, measured with a
//! counting global allocator: after warm-up, a `Query` costs no heap
//! allocation on either reply-cache path, `Report`s in policy mode cost
//! only the three allocations of each 64-report table publish, and the
//! client machine encodes a query and decodes its answer allocating
//! nothing.
//!
//! The allocator's counters are process-wide, so this binary holds one
//! `#[test]` that runs its scenarios in sequence: no other test thread
//! may allocate while one is measured.

use beware_core::percentile::LatencySamples;
use beware_policy::PolicyKind;
use beware_runtime::alloc::CountingAlloc;
use beware_runtime::reactor::StopSignal;
use beware_runtime::VirtualClock;
use beware_serve::engine::{channel_pair, ChannelPeer, ChannelTransport, Conn, Engine, EngineCore};
use beware_serve::machine::{AfterTimeout, ClientMachine, Outcome, Reply};
use beware_serve::oracle::Oracle;
use beware_serve::proto::{self, Message};
use beware_serve::{build_snapshot, SnapshotCfg};
use beware_telemetry::Registry;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Percentile pairs on the snapshot's grid.
const PCTS: [(u16, u16); 4] = [(500, 500), (900, 950), (950, 990), (990, 980)];

/// An oracle covering every other /24 of `10.0.0.0/18`, so queries see
/// both exact and fallback answers.
fn oracle() -> Oracle {
    let mut samples = BTreeMap::new();
    for p in 0..32u32 {
        let v = vec![0.05 + f64::from(p) * 0.01; 50];
        samples.insert(0x0a00_0001 | (2 * p) << 8, LatencySamples::from_values(v));
    }
    let cfg = SnapshotCfg { min_addresses: 1, ..SnapshotCfg::default() };
    Oracle::from_snapshot(build_snapshot(&samples, &cfg).expect("snapshot builds"))
        .expect("oracle builds")
}

fn query(i: usize) -> Message {
    let (addr_pct_tenths, ping_pct_tenths) = PCTS[i % PCTS.len()];
    Message::Query { addr: 0x0a00_0000 + (i as u32) * 7, addr_pct_tenths, ping_pct_tenths }
}

/// One engine shard serving one in-memory connection, with an enabled
/// registry: what a simserve cell runs per client.
struct Rig {
    _core: EngineCore,
    engine: Engine,
    conn: Conn<ChannelTransport>,
    peer: ChannelPeer,
    reg: Registry,
    reply: Vec<u8>,
}

impl Rig {
    fn new(policy: Option<PolicyKind>) -> Rig {
        let core = EngineCore::new(oracle(), Arc::new(StopSignal::new()), policy, None);
        let engine = core.engine(VirtualClock::new().handle(), 64 * 1024);
        let (transport, peer) = channel_pair();
        Rig {
            _core: core,
            engine,
            conn: Conn::new(0, transport),
            peer,
            reg: Registry::new(),
            reply: Vec::new(),
        }
    }

    /// Serve each window of pre-encoded requests; returns the heap
    /// allocations made while doing so.
    fn serve(&mut self, windows: &[Vec<u8>]) -> u64 {
        let before = ALLOC.allocs();
        for bytes in windows {
            self.peer.send(bytes);
            self.pump();
            self.reply.clear();
            self.peer.drain(&mut self.reply);
            assert!(!self.reply.is_empty(), "every window is answered");
        }
        ALLOC.allocs() - before
    }

    fn pump(&mut self) {
        self.engine.service(&mut self.conn, &mut self.reg);
        self.engine.flush(&mut self.conn, &mut self.reg);
    }

    /// Issue `queries` one at a time through a client machine, as a
    /// simulated client does; returns the heap allocations made.
    fn ask(&mut self, machine: &mut ClientMachine, queries: std::ops::Range<usize>) -> u64 {
        let before = ALLOC.allocs();
        for i in queries {
            let now = Duration::from_micros(i as u64);
            self.reply.clear();
            machine.send(now, Duration::from_secs(1), &query(i), &mut self.reply).unwrap();
            self.peer.send(&self.reply);
            self.pump();
            let answered = self.peer.deliver(machine, now);
            assert!(matches!(answered, Some(Outcome::Reply { reply: Ok(Reply::Answer(_)), .. })));
        }
        ALLOC.allocs() - before
    }
}

/// Encode `requests`, `per_window` frames to a window.
fn windows(requests: impl Iterator<Item = Message>, per_window: usize) -> Vec<Vec<u8>> {
    let frames: Vec<Vec<u8>> = requests.map(|m| proto::encode(&m)).collect();
    frames.chunks(per_window).map(|w| w.concat()).collect()
}

#[test]
fn steady_state_request_path_does_not_allocate() {
    // Cache hits: 64 keys, served once to fill the cache, then again.
    let mut rig = Rig::new(None);
    let hot = windows((0..64).cycle().take(4096).map(query), 16);
    rig.serve(&hot);
    let allocs = rig.serve(&hot);
    assert_eq!(allocs, 0, "{allocs} allocations over {} cache-hit queries", 4096);
    assert!(rig.reg.counter("sched/serve/cache_hits").unwrap_or(0) >= 8192 - 64);

    // Cache misses: every key distinct. The warm-up pushes the cache
    // past its wholesale clear, so its table has reached full size.
    let mut rig = Rig::new(None);
    rig.serve(&windows((0..20_000).map(query), 16));
    let cold = windows((20_000..24_096).map(query), 16);
    let misses = rig.reg.counter("sched/serve/cache_misses").unwrap_or(0);
    let allocs = rig.serve(&cold);
    assert_eq!(rig.reg.counter("sched/serve/cache_misses").unwrap_or(0) - misses, 4096);
    assert_eq!(allocs, 0, "{allocs} allocations over {} cache-miss queries", 4096);

    // Policy mode: a Report before every Query, over 16 /24s. The
    // warm-up creates every estimator and fills its window.
    let mut rig = Rig::new(Some(PolicyKind::CodelQuantile));
    let report_then_query = |i: usize| {
        let addr = 0x0a00_0000 + ((i % 16) as u32) * 256 + 1;
        [Message::Report { addr, rtt_us: 40_000 + (i as u32 % 97) * 100 }, query(i)]
    };
    rig.serve(&windows((0..4096).flat_map(report_then_query), 8));
    let reports = 64 * 64;
    let measured = windows((4096..4096 + reports).flat_map(report_then_query), 8);
    let allocs = rig.serve(&measured);
    let publishes = reports as u64 / 64;
    assert!(
        allocs <= 3 * publishes,
        "{allocs} allocations over {reports} reports ({publishes} table publishes)"
    );

    // The client machine: encode a query, decode its answer. The warm-up
    // asks the same keys, so the engine answers from its reply cache.
    let mut rig = Rig::new(None);
    let mut machine = ClientMachine::new(AfterTimeout::Drain);
    rig.ask(&mut machine, 0..4096);
    let allocs = rig.ask(&mut machine, 0..4096);
    assert_eq!(allocs, 0, "{allocs} allocations over {} client-machine queries", 4096);
}
