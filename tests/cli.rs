//! End-to-end test of the `beware` CLI binary: generate a plan, survey it,
//! analyze the survey, and get a recommendation — all through the same
//! entry points a shell user has.

use std::path::PathBuf;
use std::process::{Command, Output};

fn beware(args: &[&str], dir: &std::path::Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_beware"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("binary runs")
}

/// A fresh, empty directory for one test.
fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("beware-cli-test-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn full_cli_workflow() {
    let dir = tempdir("flow");

    // generate
    let out = beware(
        &["generate", "--blocks", "96", "--year", "2015", "--seed", "9", "--out", "plan.tsv"],
        &dir,
    );
    assert!(out.status.success(), "generate failed: {}", String::from_utf8_lossy(&out.stderr));
    let plan_text = std::fs::read_to_string(dir.join("plan.tsv")).unwrap();
    assert!(plan_text.starts_with("#beware-plan v1"));
    assert!(plan_text.contains("TELEFONICA BRASIL"));

    // survey
    let out = beware(
        &[
            "survey",
            "--plan",
            "plan.tsv",
            "--rounds",
            "12",
            "--sample",
            "24",
            "--seed",
            "9",
            "--out",
            "survey.bwss",
        ],
        &dir,
    );
    assert!(out.status.success(), "survey failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("survey complete"), "{stdout}");

    // analyze
    let out = beware(&["analyze", "--survey", "survey.bwss"], &dir);
    assert!(out.status.success(), "analyze failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("minimum timeout"), "{stdout}");
    assert!(stdout.contains("95%"), "{stdout}");

    // recommend
    let out = beware(&["recommend", "--survey", "survey.bwss", "--timeout", "3"], &dir);
    assert!(out.status.success(), "recommend failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("wait"), "{stdout}");
    assert!(stdout.contains("false loss"), "{stdout}");

    // scan
    let out =
        beware(&["scan", "--plan", "plan.tsv", "--duration", "120", "--out", "scan.csv"], &dir);
    assert!(out.status.success(), "scan failed: {}", String::from_utf8_lossy(&out.stderr));
    let csv = std::fs::read_to_string(dir.join("scan.csv")).unwrap();
    assert!(csv.starts_with("probed,responder,rtt_us"));
    assert!(csv.lines().count() > 100, "scan produced too few responses");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_command_and_missing_flags_fail_cleanly() {
    let dir = tempdir("errs");
    let out = beware(&["frobnicate"], &dir);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    let out = beware(&["generate"], &dir);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--out"));

    let out = beware(&["analyze", "--survey", "does-not-exist.bwss"], &dir);
    assert!(!out.status.success());

    let out = beware(&["help"], &dir);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("commands:"));
    std::fs::remove_dir_all(&dir).ok();
}

/// The oracle-service loop through the CLI: build a snapshot while
/// starting the daemon, query it, run the load generator, and shut it
/// down over the wire.
#[test]
fn serve_query_loadgen_workflow() {
    use std::io::BufRead as _;
    let dir = tempdir("serve");

    let out = beware(
        &["generate", "--blocks", "64", "--year", "2015", "--seed", "7", "--out", "plan.tsv"],
        &dir,
    );
    assert!(out.status.success(), "generate failed: {}", String::from_utf8_lossy(&out.stderr));
    let out = beware(
        &[
            "survey",
            "--plan",
            "plan.tsv",
            "--rounds",
            "10",
            "--sample",
            "8",
            "--seed",
            "7",
            "--out",
            "survey.bwss",
        ],
        &dir,
    );
    assert!(out.status.success(), "survey failed: {}", String::from_utf8_lossy(&out.stderr));

    // Start the daemon on an ephemeral port and parse the advertised
    // address from its first stdout line.
    let mut server = std::process::Command::new(env!("CARGO_BIN_EXE_beware"))
        .args([
            "serve",
            "--survey",
            "survey.bwss",
            "--save-snapshot",
            "snap.bwts",
            "--port",
            "0",
            "--shards",
            "2",
            "--metrics",
            "serve-metrics.json",
        ])
        .current_dir(&dir)
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("serve starts");
    let mut reader = std::io::BufReader::new(server.stdout.take().unwrap());
    let host = loop {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).unwrap() > 0, "serve exited before listening");
        if let Some(rest) = line.split("listening on ").nth(1) {
            break rest.split_whitespace().next().unwrap().to_string();
        }
    };

    let out = beware(&["query", "--host", &host, "--addr", "198.51.100.9"], &dir);
    assert!(out.status.success(), "query failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("wait"), "{stdout}");

    let out = beware(
        &[
            "loadgen",
            "--host",
            &host,
            "--snapshot",
            "snap.bwts",
            "--workers",
            "4",
            "--requests",
            "200",
            "--out",
            "BENCH_3.json",
        ],
        &dir,
    );
    assert!(out.status.success(), "loadgen failed: {}", String::from_utf8_lossy(&out.stderr));
    let bench = std::fs::read_to_string(dir.join("BENCH_3.json")).unwrap();
    for key in ["throughput_rps", "\"p50\"", "\"p99\"", "\"p999\""] {
        assert!(bench.contains(key), "BENCH_3.json missing {key}: {bench}");
    }

    let out = beware(&["query", "--host", &host, "--op", "stats"], &dir);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("queries"));

    let out = beware(&["query", "--host", &host, "--op", "shutdown"], &dir);
    assert!(out.status.success(), "shutdown failed: {}", String::from_utf8_lossy(&out.stderr));
    let status = server.wait().expect("serve exits");
    assert!(status.success(), "serve exited non-zero");
    let metrics = std::fs::read_to_string(dir.join("serve-metrics.json")).unwrap();
    assert!(metrics.contains("serve/queries"), "{metrics}");

    // A saved snapshot can be served directly.
    let out = beware(&["serve", "--snapshot", "does-not-exist.bwts"], &dir);
    assert!(!out.status.success(), "serve must fail on a missing snapshot");
    assert!(String::from_utf8_lossy(&out.stderr).contains("does-not-exist.bwts"));

    std::fs::remove_dir_all(&dir).ok();
}

/// The mass-connection benchmark through the CLI: `loadgen --conns`
/// starts its own in-process server (no --host, no input files — the
/// built-in fixture snapshot), sweeps idle-pool scales, and writes the
/// BENCH_4.json sweep. Small here; CI's smoke job runs the raised-ulimit
/// 5k-connection version.
#[test]
fn loadgen_mass_mode_writes_bench4() {
    let dir = tempdir("mass");
    let out = beware(
        &[
            "loadgen",
            "--conns",
            "300",
            "--hot-workers",
            "2",
            "--requests",
            "100",
            "--idle-settle",
            "0.2",
            "--shards",
            "2",
            "--out",
            "BENCH_4.json",
        ],
        &dir,
    );
    assert!(out.status.success(), "mass loadgen failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("in-process oracle"), "{stdout}");
    assert!(stdout.contains("idle conns"), "{stdout}");

    let bench = std::fs::read_to_string(dir.join("BENCH_4.json")).unwrap();
    for key in [
        "\"bench\": \"serve_mass_conns\"",
        "\"conns\": 300",
        "\"conns_per_shard\"",
        "\"idle_cpu_pct\"",
        "\"cpu_per_request_us\"",
        "\"throughput_rps\"",
        "\"p999\"",
    ] {
        assert!(bench.contains(key), "BENCH_4.json missing {key}: {bench}");
    }
    // The sweep records multiple scales (100, 150, 300 for --conns 300).
    assert!(bench.matches("\"conns\":").count() >= 2, "sweep recorded one scale only: {bench}");

    // Bad scale rejected cleanly.
    let out = beware(&["loadgen", "--conns", "0"], &dir);
    assert!(!out.status.success());
    // Under 100 connections the sweep collapses to one scale.
    let small = ["loadgen", "--conns", "10", "--hot-workers", "1", "--requests", "10"];
    let out = beware(&[&small[..], &["--idle-settle", "0", "--out", "small.json"]].concat(), &dir);
    assert!(out.status.success(), "--conns 10 failed: {}", String::from_utf8_lossy(&out.stderr));
    // More hot workers than a run may start is a usage error, not a panic.
    let out = beware(&["loadgen", "--conns", "10", "--hot-workers", "1025"], &dir);
    assert_eq!(out.status.code(), Some(2), "{}", String::from_utf8_lossy(&out.stderr));
    std::fs::remove_dir_all(&dir).ok();
}

/// Exit codes for the service subcommands' failure modes.
#[test]
fn serve_subcommand_errors_fail_cleanly() {
    let dir = tempdir("serve-errs");
    // No snapshot source at all.
    let out = beware(&["serve"], &dir);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--snapshot"));

    // Unreachable server: query and loadgen must fail, not hang.
    let out = beware(&["query", "--host", "127.0.0.1:1", "--addr", "10.0.0.1"], &dir);
    assert!(!out.status.success());

    let out = beware(&["query", "--host", "not-an-address"], &dir);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--host"));

    let out = beware(&["loadgen", "--host", "127.0.0.1:1", "--requests", "1"], &dir);
    assert!(!out.status.success());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_outputs_are_deterministic() {
    let dir = tempdir("det");
    for name in ["a.tsv", "b.tsv"] {
        let out = beware(&["generate", "--blocks", "64", "--seed", "4", "--out", name], &dir);
        assert!(out.status.success());
    }
    let a = std::fs::read(dir.join("a.tsv")).unwrap();
    let b = std::fs::read(dir.join("b.tsv")).unwrap();
    assert_eq!(a, b, "same seed must produce identical plans");
    std::fs::remove_dir_all(&dir).ok();
}

/// The hot-reload admin surface through the CLI: serve with a reload
/// source, inspect the snapshot over the wire, build a delta offline
/// with `admin --op diff`, and walk the version forward with full and
/// delta reloads.
#[test]
fn admin_info_reload_and_diff_workflow() {
    use beware::analysis::percentile::LatencySamples;
    use beware::dataset::snapshot::{snapshot_checksum, write_snapshot};
    use beware::serve::{build_snapshot, SnapshotCfg};
    use std::collections::BTreeMap;
    use std::io::BufRead as _;

    let dir = tempdir("admin");
    // Two snapshot generations, written straight from the library — the
    // CLI only has to move them around.
    let snap_for = |scale: f64| {
        let mut samples = BTreeMap::new();
        for i in 0..10u32 {
            samples.insert(
                0x0a00_0000 + (i << 8) + 1,
                LatencySamples::from_values((1..=8).map(|v| scale * 0.02 * f64::from(v)).collect()),
            );
        }
        build_snapshot(&samples, &SnapshotCfg::default()).unwrap()
    };
    let (gen0, gen1) = (snap_for(1.0), snap_for(1.4));
    for (name, snap) in [("gen0.bwts", &gen0), ("gen1.bwts", &gen1)] {
        let mut buf = Vec::new();
        write_snapshot(&mut buf, snap).unwrap();
        std::fs::write(dir.join(name), buf).unwrap();
    }
    // The reload source starts as generation 0 (what is being served).
    std::fs::copy(dir.join("gen0.bwts"), dir.join("source.snap")).unwrap();

    let mut server = std::process::Command::new(env!("CARGO_BIN_EXE_beware"))
        .args([
            "serve",
            "--snapshot",
            "gen0.bwts",
            "--reload-from",
            "source.snap",
            "--port",
            "0",
            "--shards",
            "1",
        ])
        .current_dir(&dir)
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("serve starts");
    let mut reader = std::io::BufReader::new(server.stdout.take().unwrap());
    let host = loop {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).unwrap() > 0, "serve exited before listening");
        if let Some(rest) = line.split("listening on ").nth(1) {
            break rest.split_whitespace().next().unwrap().to_string();
        }
    };

    let out = beware(&["admin", "--op", "info", "--host", &host], &dir);
    assert!(out.status.success(), "info failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("version 1"), "{stdout}");
    assert!(stdout.contains(&format!("{:016x}", snapshot_checksum(&gen0))), "{stdout}");

    // Offline delta build, then: full reload to gen1, delta is now stale.
    let out = beware(
        &[
            "admin",
            "--op",
            "diff",
            "--base",
            "gen0.bwts",
            "--target",
            "gen1.bwts",
            "--out",
            "delta.bwtd",
        ],
        &dir,
    );
    assert!(out.status.success(), "diff failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("upserts"));

    std::fs::copy(dir.join("gen1.bwts"), dir.join("source.snap")).unwrap();
    let out = beware(&["admin", "--op", "reload", "--host", &host], &dir);
    assert!(out.status.success(), "reload failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("version 2"), "{stdout}");
    assert!(stdout.contains(&format!("{:016x}", snapshot_checksum(&gen1))), "{stdout}");

    // The delta's base (gen0) is no longer serving: a delta reload must
    // fail and leave the version alone.
    std::fs::copy(dir.join("delta.bwtd"), dir.join("source.snap")).unwrap();
    let out = beware(&["admin", "--op", "reload", "--kind", "delta", "--host", &host], &dir);
    assert!(!out.status.success(), "stale delta must fail");
    let out = beware(&["admin", "--op", "info", "--host", &host], &dir);
    assert!(String::from_utf8_lossy(&out.stdout).contains("version 2"));

    let out = beware(&["query", "--host", &host, "--op", "shutdown"], &dir);
    assert!(out.status.success());
    assert!(server.wait().expect("serve exits").success());
    std::fs::remove_dir_all(&dir).ok();
}

/// Failure classes surface as distinct exit codes: usage/config = 2,
/// missing files = 3, corrupt snapshots = 4.
#[test]
fn exit_codes_distinguish_failure_classes() {
    let dir = tempdir("codes");

    // Usage: unknown command, unknown flag value, invalid server config.
    assert_eq!(beware(&["frobnicate"], &dir).status.code(), Some(2));
    assert_eq!(beware(&["serve"], &dir).status.code(), Some(2), "no snapshot source");
    assert_eq!(
        beware(&["generate", "--blocks", "not-a-number", "--out", "p.tsv"], &dir).status.code(),
        Some(2)
    );
    assert_eq!(
        beware(&["serve", "--snapshot", "x.bwts", "--reload-poll", "5"], &dir).status.code(),
        Some(2),
        "--reload-poll without --reload-from is a usage error"
    );
    assert_eq!(beware(&["admin", "--op", "bogus"], &dir).status.code(), Some(2));

    // I/O: files that do not exist.
    assert_eq!(beware(&["serve", "--snapshot", "missing.bwts"], &dir).status.code(), Some(3));
    assert_eq!(beware(&["analyze", "--survey", "missing.bwss"], &dir).status.code(), Some(3));
    assert_eq!(
        beware(
            &["admin", "--op", "diff", "--base", "a.bwts", "--target", "b.bwts", "--out", "d"],
            &dir
        )
        .status
        .code(),
        Some(3)
    );

    // Corrupt: bytes exist but do not decode.
    std::fs::write(dir.join("bad.bwts"), b"BWTSgarbage that is not a snapshot").unwrap();
    assert_eq!(beware(&["serve", "--snapshot", "bad.bwts"], &dir).status.code(), Some(4));
    std::fs::write(dir.join("bad.bwss"), b"not a survey stream either").unwrap();
    assert_eq!(beware(&["analyze", "--survey", "bad.bwss"], &dir).status.code(), Some(4));

    std::fs::remove_dir_all(&dir).ok();
}

/// `shootout --list-policies` enumerates the policy registry, and
/// `serve --policy` rejects names that are not in it as a usage error —
/// before any snapshot work happens.
#[test]
fn policy_flags_validate_against_the_registry() {
    let dir = tempdir("policy-flags");

    let out = beware(&["shootout", "--list-policies"], &dir);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in ["jacobson-karn", "exp-backoff", "codel-quantile", "oracle"] {
        assert!(stdout.contains(name), "--list-policies is missing {name}: {stdout}");
    }

    let out = beware(&["serve", "--policy", "bogus"], &dir);
    assert_eq!(out.status.code(), Some(2), "unknown policy is a usage error");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bogus"), "{stderr}");
    assert!(stderr.contains("jacobson-karn"), "the error should list valid names: {stderr}");

    std::fs::remove_dir_all(&dir).ok();
}

/// The committed BENCH_6 contract, end to end: the shootout CLI writes
/// byte-identical reports and telemetry for any `--threads` value.
#[test]
fn shootout_cli_is_thread_count_invariant() {
    let dir = tempdir("shootout");

    let run = |threads: &str, out: &str, metrics: &str| {
        let o = beware(
            &[
                "shootout",
                "--blocks",
                "2",
                "--rounds",
                "8",
                "--round-secs",
                "30",
                "--seed",
                "13",
                "--threads",
                threads,
                "--out",
                out,
                "--metrics",
                metrics,
            ],
            &dir,
        );
        assert!(o.status.success(), "shootout failed: {}", String::from_utf8_lossy(&o.stderr));
        String::from_utf8_lossy(&o.stdout).into_owned()
    };
    let stdout_1 = run("1", "a.json", "a-metrics.json");
    let stdout_3 = run("3", "b.json", "b-metrics.json");

    let a = std::fs::read(dir.join("a.json")).unwrap();
    let b = std::fs::read(dir.join("b.json")).unwrap();
    assert!(!a.is_empty());
    assert_eq!(a, b, "BENCH_6 differs between --threads 1 and --threads 3");
    let am = std::fs::read(dir.join("a-metrics.json")).unwrap();
    let bm = std::fs::read(dir.join("b-metrics.json")).unwrap();
    assert_eq!(am, bm, "shootout telemetry differs between thread counts");

    // The report names every policy on every scenario.
    let text = String::from_utf8(a).unwrap();
    assert!(text.contains("\"bench\": \"policy_shootout\""));
    for name in ["jacobson-karn", "exp-backoff", "codel-quantile", "oracle"] {
        assert!(text.contains(name), "BENCH_6 is missing {name}");
    }
    for scenario in ["steady", "covid_step", "diurnal_drift"] {
        assert!(text.contains(scenario), "BENCH_6 is missing scenario {scenario}");
    }
    // The summary lines (the stdout contract) are sim-derived too.
    assert_eq!(
        stdout_1.lines().filter(|l| l.contains("cost")).count(),
        stdout_3.lines().filter(|l| l.contains("cost")).count()
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// A flag the subcommand does not read is a usage error raised before
/// any work: a typo must not silently run with the default, and a
/// retired flag must not be silently ignored.
#[test]
fn unknown_flags_are_usage_errors() {
    let dir = tempdir("unknown-flags");
    let cases: [&[&str]; 3] = [
        &["simserve", "--clients", "64", "--polcy", "codel-quantile", "--out", "s.json"],
        &["fullspace", "--bits", "16", "--bench", "BENCH_7.json", "--out", "f.json"],
        // Valid for another subcommand, but not this one.
        &["generate", "--blocks", "16", "--threads", "2", "--out", "plan.tsv"],
    ];
    for args in cases {
        let out = beware(args, &dir);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let flag = args.iter().find(|a| ["--polcy", "--bench", "--threads"].contains(a)).unwrap();
        assert!(stderr.contains(&format!("unknown flag {flag}")), "{args:?}: {stderr}");
    }
    let left: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert!(left.is_empty(), "a rejected command wrote {left:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `fullspace` and `simserve` write their `--out` summary and nothing
/// else, and the summary is byte-identical across thread counts.
#[test]
fn campaign_commands_write_only_their_summary() {
    let runs: [(&str, &[&str]); 2] = [
        (
            "fullspace",
            &["--bits", "16", "--base", "1.0.0.0", "--blocks", "128", "--chunk-bits", "12"],
        ),
        ("simserve", &["--clients", "3000", "--queries", "2", "--cell-bits", "10"]),
    ];
    for (cmd, args) in runs {
        let dir = tempdir(cmd);
        for threads in ["1", "2"] {
            let out_name = format!("t{threads}.json");
            let mut argv = vec![cmd, "--threads", threads, "--out", &out_name];
            argv.extend_from_slice(args);
            let out = beware(&argv, &dir);
            assert!(out.status.success(), "{cmd}: {}", String::from_utf8_lossy(&out.stderr));
        }
        let a = std::fs::read(dir.join("t1.json")).unwrap();
        assert!(!a.is_empty());
        assert_eq!(
            a,
            std::fs::read(dir.join("t2.json")).unwrap(),
            "{cmd} summary depends on threads"
        );
        let mut files: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        files.sort();
        assert_eq!(files, ["t1.json", "t2.json"], "{cmd} left stray files");
        std::fs::remove_dir_all(&dir).ok();
    }
}
