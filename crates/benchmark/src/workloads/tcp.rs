//! `tcp_pipeline`: the epoll socket server on the reply-cache hit path.
//!
//! An in-process `serve::server::start` (one shard) and one load thread
//! holding one loopback connection, **closed loop with a window of 64**
//! queries per write. The 1 024-address × 4-pair key pool (4 096 keys)
//! fits the engine's reply cache, so after the first pass every query
//! hits; no sim, no wheel churn, no link layer. Every reply is compared,
//! field by field and bit by bit, with a direct `Oracle::lookup`.
//!
//! Window 1 is deliberately not measured: on two shared cores it times
//! where the scheduler places the epoll wake-up, not the program (on
//! identical code p50 moved 14 µs ↔ 57 µs between consecutive runs), and
//! an open-loop socket run has the same defect. See the README.

use super::{Ladder, Repeat, Scale, Workload};
use crate::env::nproc;
use crate::ladder::{self, EngineShape};
use crate::trace::Tracer;
use beware_core::LatencySamples;
use beware_runtime::{derive_seed, SplitMix64, WallClock};
use beware_serve::oracle::Oracle;
use beware_serve::proto::{self, Message};
use beware_serve::server::{self, ServerCfg, ServerHandle};
use beware_serve::{build_snapshot, SnapshotCfg};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Queries per write. Stated wherever a number from this workload is.
const WINDOW: usize = 64;
/// Load threads and connections: the closed loop has one client.
const LOAD_THREADS: usize = 1;
const CONNECTIONS: usize = 1;
/// Addresses in the pool: `PREFIXES` /24s × `HOSTS` hosts. Even /24s get
/// their own snapshot entry, odd ones answer from the fallback.
const PREFIXES: u32 = 256;
const HOSTS: u32 = 4;
const POOL_BASE: u32 = 0x0a00_0000;
const PCT_PAIRS: [(u16, u16); 4] = [(500, 500), (900, 950), (950, 990), (990, 980)];
/// A reply that takes this long is an I/O failure, not a slow answer.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Load threads plus connections may not exceed the cores: past that the
/// generator competes with the server it measures.
pub fn check_load_fits(
    load_threads: usize,
    connections: usize,
    cores: usize,
) -> Result<(), String> {
    if load_threads + connections > cores {
        return Err(format!(
            "{load_threads} load thread(s) + {connections} connection(s) exceed {cores} core(s)"
        ));
    }
    Ok(())
}

/// One key of the pool with its request bytes and the reply it must get.
struct Key {
    query: Message,
    frame: Vec<u8>,
    expected: Message,
}

pub struct TcpPipeline {
    oracle: Arc<Oracle>,
    keys: Vec<Key>,
    seed: u64,
    windows: usize,
    server: Option<ServerHandle>,
    stream: TcpStream,
    /// Answers validated since the server started (all repeats).
    served: u64,
}

/// A seeded snapshot: mostly-fast prefixes with slow tails of seeded
/// height, so cells differ per /24 and a wrong prefix shows as wrong bits.
fn seeded_oracle(seed: u64) -> Result<Oracle, String> {
    let mut rng = SplitMix64::new(derive_seed(seed, 0x7c9));
    let mut samples = BTreeMap::new();
    for p in (0..PREFIXES).step_by(2) {
        for h in 0..HOSTS {
            let mut v = vec![0.02 + 0.2 * rng.unit(); 45];
            v.extend(vec![0.5 + 5.0 * rng.unit(); 5]);
            samples.insert(POOL_BASE | (p << 8) | (h + 1), LatencySamples::from_values(v));
        }
    }
    let snapshot = build_snapshot(&samples, &SnapshotCfg::default()).map_err(|e| e.to_string())?;
    Oracle::from_snapshot(snapshot).map_err(|e| e.to_string())
}

impl TcpPipeline {
    pub fn set_up(seed: u64, scale: Scale) -> Result<TcpPipeline, String> {
        check_load_fits(LOAD_THREADS, CONNECTIONS, nproc())?;
        let windows = match scale {
            Scale::Full => 16_384,
            Scale::Smoke => 1_024,
        };
        let oracle = Arc::new(seeded_oracle(seed)?);
        let mut keys = Vec::with_capacity((PREFIXES * HOSTS) as usize * PCT_PAIRS.len());
        for p in 0..PREFIXES {
            for h in 0..HOSTS {
                let addr = POOL_BASE | (p << 8) | (h + 1);
                for (r, c) in PCT_PAIRS {
                    let query = Message::Query { addr, addr_pct_tenths: r, ping_pct_tenths: c };
                    let ans = oracle.lookup(addr, r, c).map_err(|e| e.to_string())?;
                    keys.push(Key {
                        query,
                        frame: proto::encode(&query),
                        expected: Message::Answer {
                            status: ans.status,
                            timeout_bits: ans.timeout_bits,
                            prefix: ans.prefix,
                            prefix_len: ans.prefix_len,
                        },
                    });
                }
            }
        }
        let cfg = ServerCfg::builder().shards(1).build().map_err(|e| e.to_string())?;
        let server = server::start(Arc::clone(&oracle), "127.0.0.1:0", cfg)
            .map_err(|e| format!("server start: {e}"))?;
        let io = |e: std::io::Error| format!("loopback connection: {e}");
        let stream = TcpStream::connect(server.local_addr()).map_err(io)?;
        stream.set_nodelay(true).map_err(io)?;
        stream.set_read_timeout(Some(IO_TIMEOUT)).map_err(io)?;
        stream.set_write_timeout(Some(IO_TIMEOUT)).map_err(io)?;
        Ok(TcpPipeline { oracle, keys, seed, windows, server: Some(server), stream, served: 0 })
    }

    /// Stop the server and collect its merged telemetry.
    fn stop_server(&mut self) -> Option<beware_telemetry::Registry> {
        let server = self.server.take()?;
        server.shutdown();
        Some(server.join())
    }
}

impl Drop for TcpPipeline {
    fn drop(&mut self) {
        // Every thread this workload started ends with it.
        self.stop_server();
    }
}

impl Workload for TcpPipeline {
    fn threads(&self) -> usize {
        // The server's shard plus the load thread.
        1 + LOAD_THREADS
    }

    fn repeat(&mut self, t: &mut Tracer) -> Result<Repeat, String> {
        if self.server.is_none() {
            return Err("the server was stopped by the ladder".into());
        }
        let open = t.begin("bench.tcp.windows");
        // The same seeded key sequence every repeat.
        let mut rng = SplitMix64::new(derive_seed(self.seed, 0x77d0));
        let mut out = Repeat::default();
        out.window_rtt_ns.reserve(self.windows);
        let mut request = Vec::with_capacity(WINDOW * proto::MAX_FRAME);
        let mut picked = [0usize; WINDOW];
        let mut inbox: Vec<u8> = Vec::with_capacity(WINDOW * proto::MAX_FRAME);
        let mut chunk = [0u8; 8192];
        for _ in 0..self.windows {
            request.clear();
            for slot in &mut picked {
                *slot = (rng.next_u64() % self.keys.len() as u64) as usize;
                request.extend_from_slice(&self.keys[*slot].frame);
            }
            let sent = Instant::now();
            self.stream.write_all(&request).map_err(|e| format!("write: {e}"))?;
            inbox.clear();
            let (mut consumed, mut replies) = (0, 0);
            while replies < WINDOW {
                let n = self.stream.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
                if n == 0 {
                    return Err("the server closed the connection".into());
                }
                inbox.extend_from_slice(&chunk[..n]);
                while replies < WINDOW {
                    match proto::try_decode(&inbox[consumed..]) {
                        Ok(Some((reply, used))) => {
                            consumed += used;
                            if reply == self.keys[picked[replies]].expected {
                                out.ops += 1;
                            } else {
                                out.failed += 1;
                            }
                            replies += 1;
                        }
                        Ok(None) => break,
                        Err(e) => return Err(format!("undecodable reply: {e}")),
                    }
                }
            }
            let rtt = sent.elapsed();
            out.window_rtt_ns.push(u64::try_from(rtt.as_nanos()).unwrap_or(u64::MAX));
            out.attempted += WINDOW as u64;
        }
        t.end(open, out.attempted);
        self.served += out.ops;
        Ok(out)
    }

    fn verify(&self) -> Result<(), String> {
        // Replies are judged one by one inside the repeat.
        Ok(())
    }

    fn ladder(&mut self, t: &mut Tracer, cpu_ns_per_op: f64) -> Result<Ladder, String> {
        let mut l = Ladder::default();
        // Counts: the server's telemetry is only handed over at join.
        let reg = self.stop_server().ok_or("ladder ran twice")?;
        let counter = |name: &str| reg.counter(name).unwrap_or(0) as f64;
        let hits = counter("sched/serve/cache_hits");
        let misses = counter("sched/serve/cache_misses");
        let wakeups = counter("sched/serve/epoll_wakeups");
        l.set("serve.engine.cache_hit_ratio", hits / (hits + misses).max(1.0));
        l.set("serve.server.wakeups_per_op", wakeups / (self.served as f64).max(1.0));
        l.set(
            "serve.server.spurious_wakeup_ratio",
            counter("sched/serve/spurious_wakeups") / wakeups.max(1.0),
        );

        let frames: Vec<Message> = self.keys.iter().flat_map(|k| [k.query, k.expected]).collect();
        let (encode, decode) = ladder::proto_codec(t, &frames);
        l.set("serve.proto.encode_ns", encode);
        l.set("serve.proto.decode_ns", decode);

        // The bare engine as the socket server drives it: 64 frames per
        // service call, wall clock, keys from a pool the cache holds.
        let shape = |telemetry| EngineShape {
            policy: None,
            window: WINDOW,
            telemetry,
            clock: WallClock::shared(),
        };
        let pick = |i: usize| self.keys[i.wrapping_mul(2_654_435_761) % self.keys.len()].query;
        let service =
            ladder::engine_service(t, "serve.engine.service", &self.oracle, &shape(true), pick);
        let quiet = ladder::engine_service(
            t,
            "serve.engine.service_untelemetered",
            &self.oracle,
            &shape(false),
            pick,
        );
        l.set("serve.engine.service_ns", service);
        l.set("serve.engine.telemetry_share", (service - quiet) / service);
        let key = &self.keys[0];
        let channel = ladder::channel_transport(
            t,
            WINDOW,
            key.frame.len(),
            proto::encode(&key.expected).len(),
        );
        l.set("serve.engine.channel_ns", channel);
        // On the hit path a request pays no lookup.
        l.set("serve.engine.self_ns", service - channel - decode - encode);

        // A socket carries the bytes here, so the engine's rung is the
        // bare engine net of its channel. The load thread sends
        // pre-encoded frames and decodes each reply.
        l.rung("serve.engine.service", service - channel, 1.0, cpu_ns_per_op);
        l.rung("serve.proto.decode", decode, 1.0, cpu_ns_per_op);
        let driver = cpu_ns_per_op - (service - channel) - decode;
        l.rung("serve.server.driver", driver, 1.0, cpu_ns_per_op);
        l.set("serve.server.driver_ns", driver);
        Ok(l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_must_fit_the_cores() {
        assert!(check_load_fits(1, 1, 2).is_ok());
        assert!(check_load_fits(1, 1, 1).unwrap_err().contains("exceed 1 core"));
        assert!(check_load_fits(2, 4, 4).is_err());
    }
}
