//! End-to-end oracle service test: a simulated campaign becomes a
//! snapshot, the snapshot is served over TCP, and concurrent clients must
//! receive answers that byte-match the offline analysis. Also pins the
//! determinism contract: the metrics JSON export is byte-identical across
//! shard counts, and waits out the server's own deadlines — idle
//! eviction, the shutdown drain bound, the scheduled reload poll — on the
//! wall clock, through `epoll_wait`'s timeout, the path production runs.

use beware::analysis::percentile::LatencySamples;
use beware::analysis::pipeline::{run_pipeline, PipelineCfg};
use beware::analysis::recommend::recommend_timeout;
use beware::analysis::timeout_table::TimeoutTable;
use beware::netsim::scenario::{Scenario, ScenarioCfg, VANTAGES};
use beware::probe::prelude::*;
use beware::serve::proto;
use beware::serve::{build_snapshot, server, Client, Message, Oracle, SnapshotCfg, Status};
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Simulated campaign → filtered per-address samples.
fn campaign_samples() -> BTreeMap<u32, LatencySamples> {
    let sc =
        Scenario::new(ScenarioCfg { year: 2015, seed: 11, total_blocks: 48, vantage: VANTAGES[0] });
    let blocks: Vec<u32> = sc.plan.blocks().map(|(b, _)| b).take(12).collect();
    let cfg = SurveyCfg { blocks, rounds: 10, seed: 11, ..Default::default() };
    let mut world = sc.build_world();
    let ((records, _), _) = cfg.build(Vec::new()).run(&mut world);
    run_pipeline(&records, &PipelineCfg::default()).samples
}

/// A small hand-built snapshot — enough structure for the server to
/// answer fallback queries, cheap enough to build per test.
fn tiny_oracle() -> Arc<Oracle> {
    let mut samples = BTreeMap::new();
    for i in 0..8u32 {
        samples.insert(
            0x0a00_0100 + i,
            LatencySamples::from_values(vec![0.01, 0.02, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0]),
        );
    }
    let snap = build_snapshot(&samples, &SnapshotCfg::default()).unwrap();
    Arc::new(Oracle::from_snapshot(snap).unwrap())
}

/// Generous ceiling on how long any sub-second server deadline may take
/// to fire on a loaded machine.
const DEADLINE_CEILING: Duration = Duration::from_secs(10);

/// Block until the server closes `s` (EOF or reset), failing on any
/// unsolicited byte or on `DEADLINE_CEILING` passing first.
fn await_server_close(s: &TcpStream) {
    s.set_read_timeout(Some(DEADLINE_CEILING)).unwrap();
    let mut buf = [0u8; 8];
    match (&*s).read(&mut buf) {
        Ok(0) => {}
        Err(e) if e.kind() == io::ErrorKind::ConnectionReset => {}
        Ok(n) => panic!("server sent {n} unsolicited bytes"),
        Err(e) => panic!("never evicted: read ended with {e} instead of a close"),
    }
}

fn serve_cfg(shards: usize) -> server::ServerCfg {
    server::ServerCfg::builder()
        .shards(shards)
        .idle_timeout(Duration::from_secs(30))
        .metrics(true)
        .build()
        .unwrap()
}

#[test]
fn served_answers_bit_match_offline_analysis() {
    let samples = campaign_samples();
    let snap = build_snapshot(&samples, &SnapshotCfg::default()).unwrap();
    assert!(!snap.entries.is_empty(), "campaign produced no per-prefix tables");
    let oracle = Arc::new(Oracle::from_snapshot(snap.clone()).unwrap());

    let handle = server::start(Arc::clone(&oracle), "127.0.0.1:0", serve_cfg(4)).unwrap();
    let addr = handle.local_addr();

    // The offline truth: the global fallback must equal recommend_timeout
    // over the full sample set, and each prefix's cells must equal a
    // TimeoutTable computed over just that prefix's addresses.
    let addr_levels: Vec<f64> =
        snap.address_pct_tenths.iter().map(|&t| f64::from(t) / 10.0).collect();
    let ping_levels: Vec<f64> = snap.ping_pct_tenths.iter().map(|&t| f64::from(t) / 10.0).collect();
    let offline_grid = TimeoutTable::compute_at(&samples, &addr_levels, &ping_levels).unwrap();

    // ≥ 4 concurrent clients, each checking a different slice of the
    // query space against the offline computation.
    let mut workers = Vec::new();
    for w in 0..4usize {
        let samples = samples.clone();
        let snap = snap.clone();
        let grid = offline_grid.clone();
        workers.push(std::thread::spawn(move || {
            let mut client =
                Client::connect_retry(addr, Duration::from_secs(5), Duration::from_secs(2))
                    .unwrap();
            let levels = snap.address_pct_tenths.clone();
            for (ri, &r) in levels.iter().enumerate() {
                for (ci, &c) in levels.iter().enumerate() {
                    if (ri + ci) % 4 != w {
                        continue;
                    }
                    // Fallback answer == recommend_timeout over everyone.
                    let ans = client.query(0xc633_6401, r, c).unwrap();
                    assert_eq!(ans.status, Status::Fallback);
                    let offline =
                        recommend_timeout(&samples, f64::from(r) / 10.0, f64::from(c) / 10.0)
                            .unwrap();
                    assert_eq!(
                        ans.timeout_bits,
                        offline.timeout_secs.to_bits(),
                        "fallback ({r},{c})"
                    );
                    assert_eq!(ans.timeout_bits, grid.cells[ri][ci].to_bits());

                    // Exact answers == per-prefix offline tables.
                    for e in snap.entries.iter().step_by(3) {
                        let probe_addr = e.prefix | 1;
                        let ans = client.query(probe_addr, r, c).unwrap();
                        assert_eq!(ans.status, Status::Exact, "{probe_addr:08x}");
                        assert_eq!((ans.prefix, ans.prefix_len), (e.prefix, e.len));
                        let n = snap.ping_pct_tenths.len();
                        assert_eq!(
                            ans.timeout_bits,
                            e.cells[ri * n + ci],
                            "prefix {:08x} ({r},{c})",
                            e.prefix
                        );
                    }
                }
            }
            // Every worker also exercises stats.
            let stats = client.stats().unwrap();
            assert!(stats.queries > 0);
            assert_eq!(stats.queries, stats.hits_exact + stats.hits_fallback);
        }));
    }
    for worker in workers {
        worker.join().unwrap();
    }

    let mut client =
        Client::connect_retry(addr, Duration::from_secs(5), Duration::from_secs(2)).unwrap();
    client.shutdown().unwrap();
    let metrics = handle.join();
    assert!(metrics.counter("serve/queries").unwrap() > 0);
}

/// Frame reassembly under pathological delivery: a query dripped one
/// byte per write (each byte its own readiness event for the shard's
/// reactor) must reassemble into exactly the answer a well-formed client
/// gets. This is the wire-level cousin of the fault-injection split
/// tests — here the splits are real TCP segments against the real epoll
/// loop, so it also pins the readiness path's partial-read handling and
/// the new `sched/` wakeup telemetry.
#[test]
fn request_reassembles_from_one_byte_drips() {
    let samples = campaign_samples();
    let snap = build_snapshot(&samples, &SnapshotCfg::default()).unwrap();
    let oracle = Arc::new(Oracle::from_snapshot(snap).unwrap());
    let handle = server::start(Arc::clone(&oracle), "127.0.0.1:0", serve_cfg(1)).unwrap();
    let addr = handle.local_addr();

    // The answer of record, via a well-formed client.
    let mut client =
        Client::connect_retry(addr, Duration::from_secs(5), Duration::from_secs(2)).unwrap();
    let truth = client.query(0xc633_6401, 950, 950).unwrap();
    drop(client);

    // The same query, one byte per segment.
    let frame = proto::encode(&Message::Query {
        addr: 0xc633_6401,
        addr_pct_tenths: 950,
        ping_pct_tenths: 950,
    });
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_nodelay(true).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    for &b in &frame {
        s.write_all(&[b]).unwrap();
        s.flush().unwrap();
        // Give the segment time to arrive alone: distinct readiness
        // events, not one coalesced read.
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut buf = Vec::new();
    let mut tmp = [0u8; 256];
    let reply = loop {
        let n = s.read(&mut tmp).expect("server must answer the dripped query");
        assert!(n > 0, "server closed before answering");
        buf.extend_from_slice(&tmp[..n]);
        if let Some((msg, _)) = proto::try_decode(&buf).unwrap() {
            break msg;
        }
    };
    match reply {
        Message::Answer { status, timeout_bits, .. } => {
            assert_eq!(status, truth.status);
            assert_eq!(timeout_bits, truth.timeout_bits, "dripped query answered differently");
        }
        other => panic!("expected an Answer, got {other:?}"),
    }
    drop(s);

    let mut c2 =
        Client::connect_retry(addr, Duration::from_secs(5), Duration::from_secs(2)).unwrap();
    c2.shutdown().unwrap();
    let metrics = handle.join();
    // The readiness loop's scheduling-dependent counters exist in the
    // in-process registry (the JSON export excludes them; see below).
    assert!(metrics.counter("sched/serve/epoll_wakeups").unwrap_or(0) > 0);
    assert!(metrics.render_text().contains("sched/serve/conns_open"));
}

/// The deterministic metric families must not depend on how connections
/// were scheduled across shards: the same client workload against a
/// 1-shard and a 4-shard server must export byte-identical JSON.
#[test]
fn metrics_export_identical_across_shard_counts() {
    let samples = campaign_samples();
    let snap = build_snapshot(&samples, &SnapshotCfg::default()).unwrap();
    let oracle = Arc::new(Oracle::from_snapshot(snap.clone()).unwrap());

    let run_workload = |shards: usize| -> String {
        let handle = server::start(Arc::clone(&oracle), "127.0.0.1:0", serve_cfg(shards)).unwrap();
        let addr = handle.local_addr();
        // Fixed workload: 3 connections, each with a deterministic set of
        // queries (one bad percentile each to exercise the error path).
        let mut conns = Vec::new();
        for k in 0..3u32 {
            let mut client =
                Client::connect_retry(addr, Duration::from_secs(5), Duration::from_secs(2))
                    .unwrap();
            for i in 0..40u32 {
                let a = 0x0a00_0000 ^ (i.wrapping_mul(2654435761) ^ k);
                client.query(a, 950, 950).unwrap();
            }
            assert!(client.query(1, 123, 950).is_err());
            conns.push(client);
        }
        conns[0].stats().unwrap();
        conns[1].shutdown().unwrap();
        handle.join().to_json()
    };

    let single = run_workload(1);
    let sharded = run_workload(4);
    assert_eq!(single, sharded, "metrics JSON must be shard-count-invariant");
    assert!(single.contains("serve/queries"));
    assert!(single.contains("serve/errors_unsupported_pct"));
    // Scheduling-dependent families must stay out of the export.
    assert!(!single.contains("sched/"));
    assert!(!single.contains("walltime/"));
}

/// Bounded listen, applied to ourselves: a connection that stays silent
/// past the idle timeout is evicted when `epoll_wait`'s wheel-derived
/// timeout fires — not before the deadline, and not much after it.
#[test]
fn idle_eviction_fires_after_the_idle_timeout() {
    let idle = Duration::from_millis(200);
    let cfg = server::ServerCfg::builder()
        .shards(1)
        .idle_timeout(idle)
        .drain_timeout(Duration::from_secs(5))
        .metrics(true)
        .build()
        .unwrap();
    let handle = server::start(tiny_oracle(), "127.0.0.1:0", cfg).unwrap();

    // Connect and go silent. The server must give up on us.
    let t0 = Instant::now();
    let s = TcpStream::connect(handle.local_addr()).unwrap();
    await_server_close(&s);
    let waited = t0.elapsed();
    assert!(waited >= idle, "evicted after only {waited:?}");
    assert!(waited <= DEADLINE_CEILING, "eviction took {waited:?}");

    handle.shutdown();
    let metrics = handle.join();
    assert_eq!(metrics.counter("sched/serve/idle_closed"), Some(1));
    drop(s);
}

/// Activity pushes an idle deadline out: a connection that queries every
/// 50 ms for a second outlives a 300 ms idle timeout and gets every
/// answer, while its silent sibling on the same shard is evicted.
#[test]
fn activity_pushes_the_idle_deadline_out() {
    let cfg = server::ServerCfg::builder()
        .shards(1)
        .idle_timeout(Duration::from_millis(300))
        .metrics(true)
        .build()
        .unwrap();
    let handle = server::start(tiny_oracle(), "127.0.0.1:0", cfg).unwrap();
    let addr = handle.local_addr();

    let silent = TcpStream::connect(addr).unwrap();
    let mut active = Client::connect_retry(addr, Duration::from_secs(5), Duration::from_secs(2))
        .expect("connect");
    let t0 = Instant::now();
    let mut answered = 0;
    while t0.elapsed() < Duration::from_secs(1) {
        let ans = active.query(0x0a00_0101, 950, 950).expect("active connection was evicted");
        assert_eq!(ans.status, Status::Exact);
        answered += 1;
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(answered >= 10, "only {answered} queries in a second");
    // Close the active connection at once, so only the silent one can
    // ever have idled out.
    drop(active);
    await_server_close(&silent);

    handle.shutdown();
    let metrics = handle.join();
    assert_eq!(metrics.counter("sched/serve/idle_closed"), Some(1));
}

/// The shutdown drain deadline: a peer that floods queries and never
/// reads a reply leaves a backlog that can never drain, so `join` must
/// return only because the drain bound elapsed — not because the peer
/// relented (it never does).
#[test]
fn shutdown_drain_deadline_elapses() {
    let drain = Duration::from_millis(300);
    let cfg = server::ServerCfg::builder()
        .shards(1)
        .idle_timeout(Duration::from_secs(60))
        .drain_timeout(drain)
        .out_queue_cap(256 << 20)
        .metrics(true)
        .build()
        .unwrap();
    let handle = server::start(tiny_oracle(), "127.0.0.1:0", cfg).unwrap();

    // Flood 32 MiB of frame-aligned queries, never reading a reply: the
    // replies overflow both socket buffers and pile into the (huge here)
    // output queue, guaranteeing a backlog when shutdown arrives.
    let s = TcpStream::connect(handle.local_addr()).unwrap();
    s.set_nonblocking(true).unwrap();
    let frame = proto::encode(&Message::Query {
        addr: 0x0a00_0001,
        addr_pct_tenths: 950,
        ping_pct_tenths: 950,
    });
    let burst: Vec<u8> = frame.iter().copied().cycle().take(frame.len() * 4800).collect();
    let (mut sent, mut off) = (0usize, 0usize);
    let flood_t0 = Instant::now();
    while sent < 32 << 20 {
        assert!(
            flood_t0.elapsed() < Duration::from_secs(30),
            "server stopped consuming the flood after {sent} bytes"
        );
        match (&s).write(&burst[off..]) {
            Ok(0) => panic!("flood socket wedged"),
            Ok(n) => {
                sent += n;
                off = (off + n) % burst.len();
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) => panic!("flood connection died early: {e}"),
        }
    }

    let t_shutdown = Instant::now();
    handle.shutdown();
    let metrics = handle.join();
    let drained_for = t_shutdown.elapsed();
    assert!(
        drained_for >= drain,
        "join returned after only {drained_for:?} of drain — the deadline cannot have fired"
    );
    assert!(drained_for <= DEADLINE_CEILING, "drain took {drained_for:?}");
    assert!(
        metrics.counter("faults/serve/write_backpressure").unwrap_or(0) > 0,
        "the stalled peer never exerted backpressure — nothing was drained against"
    );
    assert!(metrics.counter("serve/queries").unwrap_or(0) > 0);
    drop(s);
}

/// A wheel-scheduled snapshot reload: `reload_poll` arms a deadline on
/// shard 0's wheel, `epoll_wait` times out on it, and the source file is
/// picked up and hot-swapped — once, however many polls follow.
#[test]
fn scheduled_reload_fires_through_the_wheel() {
    // The file the poller watches holds a different snapshot than the
    // one served at boot, so the first poll that fires must swap.
    let mut samples = BTreeMap::new();
    for i in 0..8u32 {
        samples.insert(
            0x0a00_0200 + i,
            LatencySamples::from_values(vec![0.02, 0.04, 0.1, 0.2, 0.5, 1.0, 2.0, 4.0]),
        );
    }
    let next_snap = build_snapshot(&samples, &SnapshotCfg::default()).unwrap();
    let source =
        std::env::temp_dir().join(format!("beware-serve-reload-{}.bwts", std::process::id()));
    let mut buf = Vec::new();
    beware::dataset::snapshot::write_snapshot(&mut buf, &next_snap).unwrap();
    std::fs::write(&source, buf).unwrap();

    let period = Duration::from_millis(200);
    let cfg = server::ServerCfg::builder()
        .shards(1)
        .metrics(true)
        .reload_from(&source)
        .reload_poll(period)
        .build()
        .unwrap();
    let t0 = Instant::now();
    let handle = server::start(tiny_oracle(), "127.0.0.1:0", cfg).unwrap();
    let mut client =
        Client::connect_retry(handle.local_addr(), Duration::from_secs(5), Duration::from_secs(5))
            .unwrap();
    assert_eq!(client.snapshot_info().unwrap().version, 1);

    let info = loop {
        let info = client.snapshot_info().unwrap();
        if info.version >= 2 {
            break info;
        }
        assert!(t0.elapsed() <= DEADLINE_CEILING, "the scheduled reload never fired");
        std::thread::sleep(Duration::from_millis(10));
    };
    let waited = t0.elapsed();
    assert_eq!(info.checksum, beware::dataset::snapshot::snapshot_checksum(&next_snap));
    assert!(waited >= period, "poll fired after only {waited:?}");

    handle.shutdown();
    let metrics = handle.join();
    std::fs::remove_file(&source).ok();
    assert!(metrics.counter("sched/serve/reload_polls").unwrap_or(0) >= 1, "wheel never ticked");
    assert_eq!(metrics.counter("oracle/reloads"), Some(1), "exactly one content change");
}
