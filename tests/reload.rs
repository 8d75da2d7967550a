//! Zero-downtime snapshot reload, proven end to end: the oracle is
//! hot-swapped — over the wire, full and delta, and straight through the
//! in-process [`OracleHandle`] — while clients hammer the query path,
//! and **every** answer must byte-match some snapshot generation that
//! could legitimately have been serving. A reply mixing two generations
//! (a torn read) matches none and fails the suite.

use beware::analysis::percentile::LatencySamples;
use beware::dataset::snapshot::{
    diff_snapshot, snapshot_checksum, write_delta, write_snapshot, TimeoutSnapshot,
};
use beware::serve::{
    build_snapshot, loadgen, server, Client, ClientError, ErrorCode, Oracle, ReloadKind,
    SnapshotCfg,
};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Generation `gen` of a hand-built snapshot: successive generations
/// shift every latency (changed cells → upserts), retire one /24 and
/// introduce another (removal + insertion), so a delta between any two
/// neighbours carries every kind of change.
fn snapshot_gen(gen: u32) -> TimeoutSnapshot {
    let mut samples = BTreeMap::new();
    for block in 0..10u32 {
        if block == gen % 10 && gen > 0 {
            continue; // retired this generation
        }
        let base = 0x0a00_0000 + (block << 8);
        for host in 1..=6u32 {
            let scale = 1.0 + f64::from(gen) * 0.13 + f64::from(block) * 0.01;
            samples.insert(
                base + host,
                LatencySamples::from_values(
                    (1..=8).map(|i| scale * 0.02 * f64::from(i) * f64::from(host)).collect(),
                ),
            );
        }
    }
    // A generation-specific block, so deltas also insert.
    let fresh = 0x0a01_0000 + (gen << 8);
    for host in 1..=6u32 {
        samples.insert(
            fresh + host,
            LatencySamples::from_values((1..=8).map(|i| 0.03 * f64::from(i * host)).collect()),
        );
    }
    build_snapshot(&samples, &SnapshotCfg::default()).unwrap()
}

fn oracle_gen(gen: u32) -> Oracle {
    Oracle::from_snapshot(snapshot_gen(gen)).unwrap()
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("beware-reload-test-{tag}-{}.snap", std::process::id()))
}

fn write_full(path: &PathBuf, snap: &TimeoutSnapshot) {
    let mut buf = Vec::new();
    write_snapshot(&mut buf, snap).unwrap();
    std::fs::write(path, buf).unwrap();
}

fn reload_cfg(truth: Vec<Oracle>, reloads: usize) -> loadgen::ReloadCfg {
    // Pool mixing exact-prefix hits and fallback misses.
    let mut addr_pool: Vec<u32> = Vec::new();
    for block in 0..12u32 {
        addr_pool.push(0x0a00_0000 + (block << 8) + 3);
    }
    addr_pool.extend([0xc0a8_0101, 0x0808_0808]);
    loadgen::ReloadCfg {
        workers: 4,
        addr_pool,
        reloads,
        reload_gap: Duration::from_millis(50),
        cooldown: Duration::from_millis(50),
        truth,
        ..Default::default()
    }
}

/// The tentpole proof: four hot swaps — alternating full and delta —
/// land mid-load, and every reply issued anywhere in the run byte-matches
/// one coherent snapshot generation. The server's own books must agree:
/// four reloads counted, zero failures, and the version gauge at 5.
#[test]
fn hot_reload_under_load_never_tears_an_answer() {
    const RELOADS: usize = 4;
    let snaps: Vec<TimeoutSnapshot> = (0..=RELOADS as u32).map(snapshot_gen).collect();
    let truth: Vec<Oracle> =
        snaps.iter().map(|s| Oracle::from_snapshot(s.clone()).unwrap()).collect();

    let source = temp_path("underload");
    write_full(&source, &snaps[0]);
    let cfg = server::ServerCfg::builder()
        .shards(2)
        .idle_timeout(Duration::from_secs(60))
        .metrics(true)
        .reload_from(&source)
        .build()
        .unwrap();
    let handle =
        server::start(Oracle::from_snapshot(snaps[0].clone()).unwrap(), "127.0.0.1:0", cfg)
            .unwrap();
    let addr = handle.local_addr();

    let mut admin =
        Client::connect_retry(addr, Duration::from_secs(5), Duration::from_secs(5)).unwrap();
    let report = loadgen::run_reload(addr, &reload_cfg(truth, RELOADS), |i| {
        let target = &snaps[i + 1];
        let kind = if i % 2 == 0 {
            write_full(&source, target);
            ReloadKind::Full
        } else {
            let delta = diff_snapshot(&snaps[i], target).map_err(|e| e.to_string())?;
            let mut buf = Vec::new();
            write_delta(&mut buf, &delta).map_err(|e| e.to_string())?;
            std::fs::write(&source, buf).map_err(|e| e.to_string())?;
            ReloadKind::Delta
        };
        let info = admin.reload(kind).map_err(|e| format!("reload {i}: {e}"))?;
        if info.checksum != snapshot_checksum(target) {
            return Err(format!("reload {i} landed on the wrong snapshot"));
        }
        Ok(())
    })
    .unwrap();

    handle.shutdown();
    let metrics = handle.join();
    std::fs::remove_file(&source).ok();

    assert_eq!(report.wrong_answers, 0, "a reply matched no snapshot generation: torn read");
    assert_eq!(report.errors, 0, "reloads must not fail queries in flight");
    assert_eq!(report.reloads as usize, RELOADS);
    assert!(report.requests > 0);
    assert_eq!(metrics.counter("oracle/reloads"), Some(RELOADS as u64));
    assert_eq!(metrics.counter("oracle/reload_failures").unwrap_or(0), 0, "no failed reloads");
    assert_eq!(metrics.counter("oracle/stale_delta_rejected").unwrap_or(0), 0);
}

/// The wire surface itself: `SnapshotInfo` reports the serving identity;
/// `Reload` walks the version forward on success and leaves it untouched
/// on every rejection — no source, corrupt bytes, stale delta — with the
/// matching typed error code on the wire and the matching counters in
/// the registry.
#[test]
fn wire_admin_ops_succeed_and_reject_with_typed_codes() {
    // A server with no reload source refuses the op outright.
    let cfg = server::ServerCfg::builder().shards(1).metrics(true).build().unwrap();
    let handle = server::start(oracle_gen(0), "127.0.0.1:0", cfg).unwrap();
    let mut c =
        Client::connect_retry(handle.local_addr(), Duration::from_secs(5), Duration::from_secs(5))
            .unwrap();
    let info = c.snapshot_info().unwrap();
    assert_eq!(info.version, 1);
    assert_eq!(info.checksum, snapshot_checksum(&snapshot_gen(0)));
    assert_eq!(u64::from(info.entries), u64::try_from(oracle_gen(0).entry_count()).unwrap());
    match c.reload(ReloadKind::Full) {
        Err(ClientError::Server(ErrorCode::ReloadUnavailable)) => {}
        other => panic!("reload without a source must be ReloadUnavailable, got {other:?}"),
    }
    handle.shutdown();
    handle.join();

    // With a source: corrupt bytes and stale deltas are rejected without
    // moving the version; good full and delta reloads walk it forward.
    let source = temp_path("wireops");
    std::fs::write(&source, b"BWTSnot a snapshot at all").unwrap();
    let cfg =
        server::ServerCfg::builder().shards(1).metrics(true).reload_from(&source).build().unwrap();
    let handle = server::start(oracle_gen(0), "127.0.0.1:0", cfg).unwrap();
    let mut c =
        Client::connect_retry(handle.local_addr(), Duration::from_secs(5), Duration::from_secs(5))
            .unwrap();

    match c.reload(ReloadKind::Full) {
        Err(ClientError::Server(ErrorCode::SnapshotRejected)) => {}
        other => panic!("corrupt snapshot must be SnapshotRejected, got {other:?}"),
    }
    assert_eq!(c.snapshot_info().unwrap().version, 1, "rejected reload must not bump");

    // A delta computed between two *other* generations: stale base.
    let stale = diff_snapshot(&snapshot_gen(1), &snapshot_gen(2)).unwrap();
    let mut buf = Vec::new();
    write_delta(&mut buf, &stale).unwrap();
    std::fs::write(&source, &buf).unwrap();
    match c.reload(ReloadKind::Delta) {
        Err(ClientError::Server(ErrorCode::StaleDelta)) => {}
        other => panic!("stale delta must be StaleDelta, got {other:?}"),
    }

    // Full reload to generation 1, then the (now fresh) delta to 2.
    write_full(&source, &snapshot_gen(1));
    let info = c.reload(ReloadKind::Full).unwrap();
    assert_eq!(info.version, 2);
    assert_eq!(info.checksum, snapshot_checksum(&snapshot_gen(1)));
    std::fs::write(&source, &buf).unwrap();
    let info = c.reload(ReloadKind::Delta).unwrap();
    assert_eq!(info.version, 3);
    assert_eq!(info.checksum, snapshot_checksum(&snapshot_gen(2)));

    // Replaying the same delta is stale again: its base moved on.
    match c.reload(ReloadKind::Delta) {
        Err(ClientError::Server(ErrorCode::StaleDelta)) => {}
        other => panic!("replayed delta must be StaleDelta, got {other:?}"),
    }

    handle.shutdown();
    let metrics = handle.join();
    std::fs::remove_file(&source).ok();
    assert_eq!(metrics.counter("oracle/reloads"), Some(2));
    assert_eq!(metrics.counter("oracle/reload_failures"), Some(1));
    assert_eq!(metrics.counter("oracle/stale_delta_rejected"), Some(2));
}

/// A delta header claiming a 65 535 × 65 535 percentile grid, 37 bytes
/// in all. Its decoder once allocated the claimed 34 GB of fallback cells
/// before validating the counts, aborting the daemon that reloaded it.
fn huge_grid_delta() -> Vec<u8> {
    let mut bytes = b"BWTD\x01\x00\x00\x00".to_vec();
    bytes.extend_from_slice(&[0; 16]); // base and target checksums
    bytes.extend_from_slice(&[0xff; 4]); // r_count, c_count
    bytes.extend_from_slice(&[0; 8]); // removed and upsert counts
    bytes.push(1); // fallback cells follow
    bytes
}

/// A crafted reload source is rejected like any corrupt one, and the
/// server keeps answering from the snapshot it already serves.
#[test]
fn crafted_grid_header_is_rejected_and_serving_continues() {
    let source = temp_path("hugegrid");
    let delta = huge_grid_delta();
    assert_eq!(delta.len(), 37);
    std::fs::write(&source, delta).unwrap();
    let cfg = server::ServerCfg::builder().shards(1).reload_from(&source).build().unwrap();
    let handle = server::start(oracle_gen(0), "127.0.0.1:0", cfg).unwrap();
    let mut c =
        Client::connect_retry(handle.local_addr(), Duration::from_secs(5), Duration::from_secs(5))
            .unwrap();
    let before = c.query(0x0a00_0201, 950, 950).unwrap();
    match c.reload(ReloadKind::Delta) {
        Err(ClientError::Server(ErrorCode::SnapshotRejected)) => {}
        other => panic!("crafted delta must be SnapshotRejected, got {other:?}"),
    }
    assert_eq!(c.snapshot_info().unwrap().version, 1);
    assert_eq!(c.query(0x0a00_0201, 950, 950).unwrap(), before);
    handle.shutdown();
    handle.join();
    std::fs::remove_file(&source).ok();
}

/// The in-process swap API: a publish through `ServerHandle::oracle`
/// becomes visible to connected clients — new version, new answers —
/// without any connection churn.
#[test]
fn in_process_publish_swaps_the_serving_oracle() {
    let cfg = server::ServerCfg::builder().shards(1).metrics(true).build().unwrap();
    let handle = server::start(oracle_gen(0), "127.0.0.1:0", cfg).unwrap();
    let mut c =
        Client::connect_retry(handle.local_addr(), Duration::from_secs(5), Duration::from_secs(5))
            .unwrap();
    assert_eq!(c.snapshot_info().unwrap().version, 1);

    let next = Arc::new(oracle_gen(3));
    let version = handle.oracle().publish(Arc::clone(&next));
    assert_eq!(version, 2);

    // Same connection, next request: the new generation answers.
    let info = c.snapshot_info().unwrap();
    assert_eq!(info.version, 2);
    assert_eq!(info.checksum, next.checksum());
    let probe = 0x0a00_0103;
    let truth = next.lookup(probe, 950, 950).unwrap();
    let ans = c.query(probe, 950, 950).unwrap();
    assert_eq!(ans.timeout_bits, truth.timeout_bits);
    assert_eq!(ans.status, truth.status);

    handle.shutdown();
    handle.join();
}
