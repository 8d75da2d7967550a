//! Closed-loop load generator for the oracle service.
//!
//! `workers` threads each open one connection and issue
//! `requests_per_worker` queries back-to-back (closed loop: the next
//! request waits for the previous answer), drawing addresses from a
//! shared pool with a per-worker deterministic SplitMix64 stream
//! (`beware_runtime::rng` — the workspace's one implementation). Wall
//! time and per-request latencies are collected and summarised into a
//! [`LoadReport`] with nearest-rank percentiles, rendered as the
//! `BENCH_3.json` schema.

use crate::client::{Client, ClientError};
use crate::oracle::Oracle;
use beware_runtime::clock::{SharedClock, WallClock};
use beware_runtime::process_cpu_time;
use beware_runtime::rng::SplitMix64;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// Load-run parameters.
#[derive(Debug, Clone)]
pub struct LoadCfg {
    /// Concurrent closed-loop workers (≥ 1).
    pub workers: usize,
    /// Requests each worker issues.
    pub requests_per_worker: usize,
    /// Addresses to draw from, uniformly at random.
    pub addr_pool: Vec<u32>,
    /// Address-percentile level queried, tenths of a percent.
    pub addr_pct_tenths: u16,
    /// Ping-percentile level queried, tenths of a percent.
    pub ping_pct_tenths: u16,
    /// Seed for the per-worker address streams.
    pub seed: u64,
    /// Socket read timeout per request.
    pub read_timeout: Duration,
    /// After each successful query, feed the measured round-trip back to
    /// the server as a `Report` frame — the closed loop a policy-mode
    /// server (`beware serve --policy`) learns from. Reports that the
    /// server rejects (snapshot-only mode) count as errors.
    pub report_rtts: bool,
}

impl Default for LoadCfg {
    fn default() -> Self {
        LoadCfg {
            workers: 4,
            requests_per_worker: 1000,
            addr_pool: Vec::new(),
            addr_pct_tenths: 950,
            ping_pct_tenths: 950,
            seed: 0xbe0a_2e11,
            read_timeout: Duration::from_secs(5),
            report_rtts: false,
        }
    }
}

/// Summary of one load run.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// Workers that ran.
    pub workers: usize,
    /// Requests answered successfully.
    pub requests: u64,
    /// Requests that failed (transport or server error).
    pub errors: u64,
    /// RTT reports acknowledged by the server (0 unless
    /// [`LoadCfg::report_rtts`]).
    pub reports: u64,
    /// Wall time of the measured window, seconds.
    pub wall_secs: f64,
    /// Successful requests per wall-clock second.
    pub throughput_rps: f64,
    /// Latency percentiles (nearest-rank) and extremes, microseconds.
    pub p50_us: u64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: u64,
    /// 99.9th-percentile latency, microseconds.
    pub p999_us: u64,
    /// Fastest request, microseconds.
    pub min_us: u64,
    /// Slowest request, microseconds.
    pub max_us: u64,
    /// Mean latency, microseconds.
    pub mean_us: f64,
}

impl LoadReport {
    /// Render as the `BENCH_3.json` document (schema 1). Hand-rendered:
    /// the workspace is hermetic and the schema is flat.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\n",
                "  \"schema\": 1,\n",
                "  \"bench\": \"serve_loadgen\",\n",
                "  \"workers\": {},\n",
                "  \"requests\": {},\n",
                "  \"errors\": {},\n",
                "  \"reports\": {},\n",
                "  \"wall_secs\": {:.6},\n",
                "  \"throughput_rps\": {:.3},\n",
                "  \"latency_us\": {{\n",
                "    \"p50\": {},\n",
                "    \"p99\": {},\n",
                "    \"p999\": {},\n",
                "    \"min\": {},\n",
                "    \"max\": {},\n",
                "    \"mean\": {:.3}\n",
                "  }}\n",
                "}}\n",
            ),
            self.workers,
            self.requests,
            self.errors,
            self.reports,
            self.wall_secs,
            self.throughput_rps,
            self.p50_us,
            self.p99_us,
            self.p999_us,
            self.min_us,
            self.max_us,
            self.mean_us,
        )
    }

    /// One-line human summary.
    pub fn render(&self) -> String {
        format!(
            "{} workers, {} ok / {} err in {:.3}s — {:.0} req/s, p50 {}µs p99 {}µs p99.9 {}µs",
            self.workers,
            self.requests,
            self.errors,
            self.wall_secs,
            self.throughput_rps,
            self.p50_us,
            self.p99_us,
            self.p999_us,
        )
    }
}

/// Nearest-rank percentile over an ascending-sorted slice, on the same
/// snapped-ceil rank as the offline tables (an inline ceil drifts one
/// rank high when `q × n` is integral, e.g. p50 of 10 samples).
fn percentile(sorted_us: &[u64], q: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    sorted_us[beware_core::nearest_rank(q / 100.0, sorted_us.len()) - 1]
}

/// Run the load against a server at `addr`, stamping latencies and the
/// measured window on the wall clock. Worker address streams draw from
/// the workspace's canonical SplitMix64 (`beware_runtime::rng`), so the
/// query sequence per `(seed, worker)` is fixed.
pub fn run(addr: SocketAddr, cfg: &LoadCfg) -> Result<LoadReport, String> {
    let clock = WallClock::shared();
    if cfg.workers == 0 || cfg.requests_per_worker == 0 {
        return Err("workers and requests_per_worker must be >= 1".into());
    }
    if cfg.addr_pool.is_empty() {
        return Err("address pool is empty".into());
    }

    // Connect everyone first, then release all workers at once so the
    // measured window contains only request traffic.
    let barrier = Arc::new(Barrier::new(cfg.workers + 1));
    let pool = Arc::new(cfg.addr_pool.clone());
    let mut handles = Vec::with_capacity(cfg.workers);
    for w in 0..cfg.workers {
        let barrier = Arc::clone(&barrier);
        let pool = Arc::clone(&pool);
        let cfg = cfg.clone();
        let clock = Arc::clone(&clock);
        handles.push(std::thread::spawn(move || -> Result<(Vec<u64>, u64, u64), String> {
            let conn = Client::connect_retry(addr, cfg.read_timeout, Duration::from_secs(2));
            // Reach the barrier whether or not the connect worked — the
            // coordinator and every sibling is parked on it.
            barrier.wait();
            let mut client = conn.map_err(|e| format!("worker {w}: connect: {e}"))?;
            let mut rng =
                SplitMix64::new(cfg.seed ^ (w as u64).wrapping_mul(0xa076_1d64_78bd_642f));
            let mut lat = Vec::with_capacity(cfg.requests_per_worker);
            let mut errors = 0u64;
            let mut reports = 0u64;
            for _ in 0..cfg.requests_per_worker {
                let a = pool[(rng.next_u64() % pool.len() as u64) as usize];
                let t0 = clock.now();
                match client.query(a, cfg.addr_pct_tenths, cfg.ping_pct_tenths) {
                    Ok(_) => {
                        let us = u64::try_from(clock.since(t0).as_micros()).unwrap_or(u64::MAX);
                        lat.push(us);
                        if cfg.report_rtts {
                            let rtt = u32::try_from(us).unwrap_or(u32::MAX);
                            match client.report(a, rtt) {
                                Ok(_) => reports += 1,
                                Err(ClientError::Io(e)) => {
                                    return Err(format!("worker {w}: i/o mid-run: {e}"));
                                }
                                Err(_) => errors += 1,
                            }
                        }
                    }
                    Err(ClientError::Io(e)) => {
                        // The connection is gone; bail rather than spin.
                        return Err(format!("worker {w}: i/o mid-run: {e}"));
                    }
                    Err(_) => errors += 1,
                }
            }
            Ok((lat, errors, reports))
        }));
    }

    barrier.wait();
    let t0 = clock.now();
    let mut all = Vec::with_capacity(cfg.workers * cfg.requests_per_worker);
    let mut errors = 0u64;
    let mut reports = 0u64;
    let mut failures = Vec::new();
    for h in handles {
        match h.join().expect("loadgen worker panicked") {
            Ok((lat, e, r)) => {
                all.extend_from_slice(&lat);
                errors += e;
                reports += r;
            }
            Err(msg) => failures.push(msg),
        }
    }
    let wall = clock.since(t0).as_secs_f64();
    if !failures.is_empty() {
        return Err(failures.join("; "));
    }

    all.sort_unstable();
    let sum: u64 = all.iter().sum();
    Ok(LoadReport {
        workers: cfg.workers,
        requests: all.len() as u64,
        errors,
        reports,
        wall_secs: wall,
        throughput_rps: if wall > 0.0 { all.len() as f64 / wall } else { 0.0 },
        p50_us: percentile(&all, 50.0),
        p99_us: percentile(&all, 99.0),
        p999_us: percentile(&all, 99.9),
        min_us: all.first().copied().unwrap_or(0),
        max_us: all.last().copied().unwrap_or(0),
        mean_us: if all.is_empty() { 0.0 } else { sum as f64 / all.len() as f64 },
    })
}

/// Mass-connection run parameters: a pool of `conns` connections that
/// are opened and then held **idle**, plus a hot subset of
/// `hot_workers` closed-loop workers issuing requests — the shape the
/// readiness-driven serve path exists for. The interesting numbers are
/// the ones a spin-polling server cannot produce: near-zero process CPU
/// while only the idle pool is connected, and a CPU-per-request figure
/// that does not grow with the number of parked connections.
#[derive(Debug, Clone)]
pub struct MassCfg {
    /// Idle connections to open and hold for the whole run.
    pub conns: usize,
    /// Closed-loop workers in the hot subset (each opens its own
    /// connection on top of the idle pool).
    pub hot_workers: usize,
    /// Requests each hot worker issues.
    pub requests_per_worker: usize,
    /// Addresses the hot workers draw from.
    pub addr_pool: Vec<u32>,
    /// Address-percentile level queried, tenths of a percent.
    pub addr_pct_tenths: u16,
    /// Ping-percentile level queried, tenths of a percent.
    pub ping_pct_tenths: u16,
    /// Seed for the hot workers' address streams.
    pub seed: u64,
    /// Socket read timeout per hot request.
    pub read_timeout: Duration,
    /// Wall-clock window over which idle CPU is sampled, after the pool
    /// is open and before any hot traffic.
    pub idle_settle: Duration,
    /// The server's shard count — recorded so the report can state the
    /// connections-per-shard load (the benchmark driver knows it; a
    /// remote server's client does not, so pass 0 for "unknown").
    pub shards: usize,
}

impl Default for MassCfg {
    fn default() -> Self {
        MassCfg {
            conns: 1000,
            hot_workers: 4,
            requests_per_worker: 1000,
            addr_pool: Vec::new(),
            addr_pct_tenths: 950,
            ping_pct_tenths: 950,
            seed: 0xbe0a_2e11,
            read_timeout: Duration::from_secs(5),
            idle_settle: Duration::from_millis(500),
            shards: 0,
        }
    }
}

/// Summary of one mass-connection run at one connection scale.
#[derive(Debug, Clone)]
pub struct MassReport {
    /// Idle connections held open through the run.
    pub conns: usize,
    /// Server shard count (0 when unknown).
    pub shards: usize,
    /// `conns / shards` (0 when the shard count is unknown).
    pub conns_per_shard: f64,
    /// Process CPU consumed during the idle window, as a percentage of
    /// the window's wall time. `None` where the platform offers no
    /// process-CPU clock — and meaningful only when the server runs in
    /// this process (the benchmark driver's in-process mode).
    pub idle_cpu_pct: Option<f64>,
    /// Process CPU per successful request during the hot phase,
    /// microseconds. In in-process mode this prices the whole loop —
    /// server shards *and* the client workers driving them.
    pub cpu_per_request_us: Option<f64>,
    /// The hot subset's closed-loop summary.
    pub load: LoadReport,
}

impl MassReport {
    /// Render as one entry of the `BENCH_4.json` `runs` array.
    fn to_json_entry(&self) -> String {
        let fmt_opt = |v: Option<f64>| match v {
            Some(x) => format!("{x:.3}"),
            None => "null".to_string(),
        };
        format!(
            concat!(
                "    {{\n",
                "      \"conns\": {},\n",
                "      \"shards\": {},\n",
                "      \"conns_per_shard\": {:.1},\n",
                "      \"idle_cpu_pct\": {},\n",
                "      \"cpu_per_request_us\": {},\n",
                "      \"hot_workers\": {},\n",
                "      \"requests\": {},\n",
                "      \"errors\": {},\n",
                "      \"throughput_rps\": {:.3},\n",
                "      \"latency_us\": {{ \"p50\": {}, \"p99\": {}, \"p999\": {} }}\n",
                "    }}",
            ),
            self.conns,
            self.shards,
            self.conns_per_shard,
            fmt_opt(self.idle_cpu_pct),
            fmt_opt(self.cpu_per_request_us),
            self.load.workers,
            self.load.requests,
            self.load.errors,
            self.load.throughput_rps,
            self.load.p50_us,
            self.load.p99_us,
            self.load.p999_us,
        )
    }

    /// One-line human summary.
    pub fn render(&self) -> String {
        let idle = match self.idle_cpu_pct {
            Some(p) => format!("{p:.2}% idle CPU"),
            None => "idle CPU n/a".into(),
        };
        let per_req = match self.cpu_per_request_us {
            Some(us) => format!("{us:.1}µs CPU/req"),
            None => "CPU/req n/a".into(),
        };
        format!(
            "{} idle conns ({:.0}/shard): {} — hot: {:.0} req/s, p50 {}µs p99 {}µs p99.9 {}µs, {}",
            self.conns,
            self.conns_per_shard,
            idle,
            self.load.throughput_rps,
            self.load.p50_us,
            self.load.p99_us,
            self.load.p999_us,
            per_req,
        )
    }
}

/// Render a sweep of mass-connection runs as the `BENCH_4.json` document
/// (schema 1).
pub fn mass_sweep_json(runs: &[MassReport]) -> String {
    let entries: Vec<String> = runs.iter().map(MassReport::to_json_entry).collect();
    format!(
        concat!(
            "{{\n",
            "  \"schema\": 1,\n",
            "  \"bench\": \"serve_mass_conns\",\n",
            "  \"runs\": [\n{}\n  ]\n",
            "}}\n",
        ),
        entries.join(",\n"),
    )
}

/// Open `n` connections and hold them (the caller keeps the pool alive
/// for the duration of the measurement).
///
/// Uses `connect_timeout` with a short deadline on purpose: a connect
/// storm occasionally overflows the listener's accept queue, the kernel
/// drops the SYN, and a plain blocking `connect` then sits out the full
/// 1 s TCP retransmit timer — the paper's "surprisingly high delay"
/// biting its own benchmark. Capping the wait and retrying immediately
/// (the queue has long since drained) opens 5k connections in ~300 ms
/// instead of tens of seconds.
fn open_idle_pool(addr: SocketAddr, n: usize) -> Result<Vec<TcpStream>, String> {
    let mut pool = Vec::with_capacity(n);
    for i in 0..n {
        let mut attempts = 0u32;
        loop {
            match TcpStream::connect_timeout(&addr, Duration::from_millis(50)) {
                Ok(s) => {
                    // Idle conns never write; nodelay only matters for
                    // symmetry with the served side's accept path.
                    let _ = s.set_nodelay(true);
                    pool.push(s);
                    break;
                }
                Err(e) if attempts < 200 => {
                    attempts += 1;
                    let _ = e;
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => {
                    return Err(format!(
                        "idle connection {i}/{n} failed after {attempts} retries: {e} \
                         (fd limit? `ulimit -n`)"
                    ));
                }
            }
        }
    }
    Ok(pool)
}

/// Run one mass-connection measurement against a server at `addr`:
/// open the idle pool, sample process CPU over a quiet settle window,
/// then drive the hot subset closed-loop and price its requests in CPU.
///
/// The CPU figures come from `CLOCK_PROCESS_CPUTIME_ID`, so they are
/// meaningful when the server runs **in this process** (the `beware
/// loadgen --conns` driver starts one); against a remote server they
/// measure only the client side and the driver reports them as such.
pub fn run_mass(addr: SocketAddr, cfg: &MassCfg) -> Result<MassReport, String> {
    if cfg.conns == 0 {
        return Err("mass run needs --conns >= 1".into());
    }
    let clock: SharedClock = WallClock::shared();
    let pool = open_idle_pool(addr, cfg.conns)?;

    // Let the acceptor finish handing the pool to the shards and the
    // shards park again before the idle window opens.
    std::thread::sleep(Duration::from_millis(100));
    let idle_cpu0 = process_cpu_time();
    let idle_t0 = clock.now();
    std::thread::sleep(cfg.idle_settle);
    let idle_wall = clock.since(idle_t0).as_secs_f64();
    let idle_cpu_pct = match (idle_cpu0, process_cpu_time()) {
        (Some(a), Some(b)) if idle_wall > 0.0 => {
            Some(100.0 * b.saturating_sub(a).as_secs_f64() / idle_wall)
        }
        _ => None,
    };

    let load_cfg = LoadCfg {
        workers: cfg.hot_workers,
        requests_per_worker: cfg.requests_per_worker,
        addr_pool: cfg.addr_pool.clone(),
        addr_pct_tenths: cfg.addr_pct_tenths,
        ping_pct_tenths: cfg.ping_pct_tenths,
        seed: cfg.seed,
        read_timeout: cfg.read_timeout,
        report_rtts: false,
    };
    let hot_cpu0 = process_cpu_time();
    let load = run(addr, &load_cfg)?;
    let cpu_per_request_us = match (hot_cpu0, process_cpu_time()) {
        (Some(a), Some(b)) if load.requests > 0 => {
            Some(b.saturating_sub(a).as_secs_f64() * 1e6 / load.requests as f64)
        }
        _ => None,
    };
    drop(pool);

    Ok(MassReport {
        conns: cfg.conns,
        shards: cfg.shards,
        conns_per_shard: if cfg.shards > 0 { cfg.conns as f64 / cfg.shards as f64 } else { 0.0 },
        idle_cpu_pct,
        cpu_per_request_us,
        load,
    })
}

/// Reload-under-load run parameters: closed-loop workers hammer the
/// query path while the coordinator fires snapshot reloads through a
/// caller-supplied driver, and **every answer is verified bit-for-bit**
/// against the set of snapshot generations that could legitimately be
/// serving — the wire-level check of the no-torn-reads guarantee.
#[derive(Debug, Clone)]
pub struct ReloadCfg {
    /// Concurrent closed-loop workers (≥ 1). They run until the last
    /// reload (plus `cooldown`) lands, so every reload happens under
    /// load by construction.
    pub workers: usize,
    /// Addresses to draw from, uniformly at random.
    pub addr_pool: Vec<u32>,
    /// Address-percentile level queried, tenths of a percent.
    pub addr_pct_tenths: u16,
    /// Ping-percentile level queried, tenths of a percent.
    pub ping_pct_tenths: u16,
    /// Seed for the per-worker address streams.
    pub seed: u64,
    /// Socket read timeout per request.
    pub read_timeout: Duration,
    /// Reloads the coordinator fires.
    pub reloads: usize,
    /// Quiet gap before each reload, letting query traffic build up.
    pub reload_gap: Duration,
    /// Extra load after the final reload, so its aftermath is measured
    /// too.
    pub cooldown: Duration,
    /// Every snapshot generation the server could be serving at any
    /// point in the run. An answer is correct iff it byte-matches what
    /// **some** generation's oracle computes — old or new, never a
    /// mixture.
    pub truth: Vec<Oracle>,
}

impl Default for ReloadCfg {
    fn default() -> Self {
        ReloadCfg {
            workers: 4,
            addr_pool: Vec::new(),
            addr_pct_tenths: 950,
            ping_pct_tenths: 950,
            seed: 0xbe0a_2e11,
            read_timeout: Duration::from_secs(5),
            reloads: 4,
            reload_gap: Duration::from_millis(100),
            cooldown: Duration::from_millis(100),
            truth: Vec::new(),
        }
    }
}

/// Summary of one reload-under-load run.
#[derive(Debug, Clone, PartialEq)]
pub struct ReloadReport {
    /// Workers that ran.
    pub workers: usize,
    /// Requests answered successfully.
    pub requests: u64,
    /// Requests that failed (transport or server error).
    pub errors: u64,
    /// Answers that matched **no** snapshot generation bit-for-bit —
    /// must be zero for the no-torn-reads guarantee to hold.
    pub wrong_answers: u64,
    /// Reloads that completed successfully.
    pub reloads: u64,
    /// Wall time of the measured window, seconds.
    pub wall_secs: f64,
    /// Successful requests per wall-clock second.
    pub throughput_rps: f64,
    /// Median query latency with reloads in flight, microseconds.
    pub p50_us: u64,
    /// 99th-percentile query latency, microseconds.
    pub p99_us: u64,
    /// 99.9th-percentile query latency — the headline number: what a
    /// snapshot swap costs the tail, microseconds.
    pub p999_us: u64,
    /// Slowest query, microseconds.
    pub max_us: u64,
    /// Slowest reload round-trip (admin op, file read, swap),
    /// microseconds.
    pub reload_max_us: u64,
    /// Mean reload round-trip, microseconds.
    pub reload_mean_us: f64,
}

impl ReloadReport {
    /// Render as the `BENCH_5.json` document (schema 1).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\n",
                "  \"schema\": 1,\n",
                "  \"bench\": \"serve_reload\",\n",
                "  \"workers\": {},\n",
                "  \"requests\": {},\n",
                "  \"errors\": {},\n",
                "  \"wrong_answers\": {},\n",
                "  \"reloads\": {},\n",
                "  \"wall_secs\": {:.6},\n",
                "  \"throughput_rps\": {:.3},\n",
                "  \"latency_us\": {{\n",
                "    \"p50\": {},\n",
                "    \"p99\": {},\n",
                "    \"p999\": {},\n",
                "    \"max\": {}\n",
                "  }},\n",
                "  \"reload_us\": {{ \"max\": {}, \"mean\": {:.3} }}\n",
                "}}\n",
            ),
            self.workers,
            self.requests,
            self.errors,
            self.wrong_answers,
            self.reloads,
            self.wall_secs,
            self.throughput_rps,
            self.p50_us,
            self.p99_us,
            self.p999_us,
            self.max_us,
            self.reload_max_us,
            self.reload_mean_us,
        )
    }

    /// One-line human summary.
    pub fn render(&self) -> String {
        format!(
            "{} workers, {} ok / {} err / {} wrong across {} reloads in {:.3}s — \
             {:.0} req/s, p99.9 {}µs (reload max {}µs)",
            self.workers,
            self.requests,
            self.errors,
            self.wrong_answers,
            self.reloads,
            self.wall_secs,
            self.throughput_rps,
            self.p999_us,
            self.reload_max_us,
        )
    }
}

/// Does `ans` byte-match what some generation in `truth` would answer?
fn answer_in_truth_set(
    truth: &[Oracle],
    addr: u32,
    addr_pct_tenths: u16,
    ping_pct_tenths: u16,
    ans: &crate::client::Answer,
) -> bool {
    truth.iter().any(|o| match o.lookup(addr, addr_pct_tenths, ping_pct_tenths) {
        Ok(l) => {
            l.timeout_bits == ans.timeout_bits
                && l.status == ans.status
                && l.prefix == ans.prefix
                && l.prefix_len == ans.prefix_len
        }
        Err(_) => false,
    })
}

/// Drive query load while `do_reload` fires snapshot swaps: workers run
/// closed-loop from barrier-release until the last reload (plus
/// cooldown) has landed, verifying every answer against the truth set.
/// `do_reload(i)` performs the `i`-th reload end to end — typically
/// "write the next snapshot/delta file, send the `Reload` admin frame" —
/// and its round-trip is timed into the report.
pub fn run_reload(
    addr: SocketAddr,
    cfg: &ReloadCfg,
    mut do_reload: impl FnMut(usize) -> Result<(), String>,
) -> Result<ReloadReport, String> {
    if cfg.workers == 0 {
        return Err("workers must be >= 1".into());
    }
    if cfg.addr_pool.is_empty() {
        return Err("address pool is empty".into());
    }
    if cfg.truth.is_empty() {
        return Err("truth set is empty: nothing to verify answers against".into());
    }
    let clock: SharedClock = WallClock::shared();

    let barrier = Arc::new(Barrier::new(cfg.workers + 1));
    let stop = Arc::new(AtomicBool::new(false));
    let pool = Arc::new(cfg.addr_pool.clone());
    let truth = Arc::new(cfg.truth.clone());
    let mut handles = Vec::with_capacity(cfg.workers);
    for w in 0..cfg.workers {
        let barrier = Arc::clone(&barrier);
        let stop = Arc::clone(&stop);
        let pool = Arc::clone(&pool);
        let truth = Arc::clone(&truth);
        let cfg = cfg.clone();
        let clock = Arc::clone(&clock);
        handles.push(std::thread::spawn(move || -> Result<(Vec<u64>, u64, u64), String> {
            let conn = Client::connect_retry(addr, cfg.read_timeout, Duration::from_secs(2));
            barrier.wait();
            let mut client = conn.map_err(|e| format!("worker {w}: connect: {e}"))?;
            let mut rng =
                SplitMix64::new(cfg.seed ^ (w as u64).wrapping_mul(0xa076_1d64_78bd_642f));
            let mut lat = Vec::new();
            let mut errors = 0u64;
            let mut wrong = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let a = pool[(rng.next_u64() % pool.len() as u64) as usize];
                let t0 = clock.now();
                match client.query(a, cfg.addr_pct_tenths, cfg.ping_pct_tenths) {
                    Ok(ans) => {
                        let us = u64::try_from(clock.since(t0).as_micros()).unwrap_or(u64::MAX);
                        lat.push(us);
                        if !answer_in_truth_set(
                            &truth,
                            a,
                            cfg.addr_pct_tenths,
                            cfg.ping_pct_tenths,
                            &ans,
                        ) {
                            wrong += 1;
                        }
                    }
                    Err(ClientError::Io(e)) => {
                        return Err(format!("worker {w}: i/o mid-run: {e}"));
                    }
                    Err(_) => errors += 1,
                }
            }
            Ok((lat, errors, wrong))
        }));
    }

    barrier.wait();
    let t0 = clock.now();
    let mut reload_us = Vec::with_capacity(cfg.reloads);
    let mut reload_err = None;
    for i in 0..cfg.reloads {
        clock.sleep(cfg.reload_gap);
        let r0 = clock.now();
        match do_reload(i) {
            Ok(()) => {
                reload_us.push(u64::try_from(clock.since(r0).as_micros()).unwrap_or(u64::MAX));
            }
            Err(e) => {
                reload_err = Some(format!("reload {i}: {e}"));
                break;
            }
        }
    }
    clock.sleep(cfg.cooldown);
    stop.store(true, Ordering::Relaxed);

    let mut all = Vec::new();
    let mut errors = 0u64;
    let mut wrong = 0u64;
    let mut failures = Vec::new();
    for h in handles {
        match h.join().expect("reload loadgen worker panicked") {
            Ok((lat, e, wr)) => {
                all.extend_from_slice(&lat);
                errors += e;
                wrong += wr;
            }
            Err(msg) => failures.push(msg),
        }
    }
    let wall = clock.since(t0).as_secs_f64();
    if let Some(e) = reload_err {
        failures.push(e);
    }
    if !failures.is_empty() {
        return Err(failures.join("; "));
    }

    all.sort_unstable();
    let reload_sum: u64 = reload_us.iter().sum();
    Ok(ReloadReport {
        workers: cfg.workers,
        requests: all.len() as u64,
        errors,
        wrong_answers: wrong,
        reloads: reload_us.len() as u64,
        wall_secs: wall,
        throughput_rps: if wall > 0.0 { all.len() as f64 / wall } else { 0.0 },
        p50_us: percentile(&all, 50.0),
        p99_us: percentile(&all, 99.0),
        p999_us: percentile(&all, 99.9),
        max_us: all.last().copied().unwrap_or(0),
        reload_max_us: reload_us.iter().copied().max().unwrap_or(0),
        reload_mean_us: if reload_us.is_empty() {
            0.0
        } else {
            reload_sum as f64 / reload_us.len() as f64
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 99.9), 100);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[7], 50.0), 7);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn worker_address_stream_is_deterministic() {
        // The worker seeding expression predates the RNG dedup; pin the
        // first draw so address sequences survive it unchanged.
        let seed = 0xbe0a_2e11u64 ^ 3u64.wrapping_mul(0xa076_1d64_78bd_642f);
        let mut a = SplitMix64::new(seed);
        let mut b = SplitMix64::new(seed);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_ne!(a.next_u64(), SplitMix64::new(seed ^ 1).next_u64());
    }

    #[test]
    fn report_json_shape() {
        let r = LoadReport {
            workers: 4,
            requests: 4000,
            errors: 0,
            reports: 0,
            wall_secs: 1.25,
            throughput_rps: 3200.0,
            p50_us: 80,
            p99_us: 400,
            p999_us: 900,
            min_us: 40,
            max_us: 1200,
            mean_us: 95.5,
        };
        let j = r.to_json();
        assert!(j.contains("\"bench\": \"serve_loadgen\""));
        assert!(j.contains("\"p999\": 900"));
        assert!(j.contains("\"throughput_rps\": 3200.000"));
        assert!(r.render().contains("p99.9 900µs"));
    }

    #[test]
    fn mass_sweep_json_shape() {
        let load = LoadReport {
            workers: 2,
            requests: 200,
            errors: 0,
            reports: 0,
            wall_secs: 0.5,
            throughput_rps: 400.0,
            p50_us: 90,
            p99_us: 500,
            p999_us: 800,
            min_us: 50,
            max_us: 900,
            mean_us: 110.0,
        };
        let runs = vec![
            MassReport {
                conns: 1000,
                shards: 4,
                conns_per_shard: 250.0,
                idle_cpu_pct: Some(0.42),
                cpu_per_request_us: Some(12.5),
                load: load.clone(),
            },
            MassReport {
                conns: 10_000,
                shards: 4,
                conns_per_shard: 2500.0,
                idle_cpu_pct: None,
                cpu_per_request_us: None,
                load,
            },
        ];
        let j = mass_sweep_json(&runs);
        assert!(j.contains("\"bench\": \"serve_mass_conns\""));
        assert!(j.contains("\"conns\": 10000"));
        assert!(j.contains("\"idle_cpu_pct\": 0.420"));
        assert!(j.contains("\"idle_cpu_pct\": null"), "missing CPU clock renders as null");
        assert!(j.contains("\"conns_per_shard\": 2500.0"));
        assert!(runs[0].render().contains("1000 idle conns"));
    }

    #[test]
    fn reload_report_json_shape() {
        let r = ReloadReport {
            workers: 4,
            requests: 9000,
            errors: 0,
            wrong_answers: 0,
            reloads: 4,
            wall_secs: 0.8,
            throughput_rps: 11250.0,
            p50_us: 70,
            p99_us: 300,
            p999_us: 750,
            max_us: 2100,
            reload_max_us: 1800,
            reload_mean_us: 1200.5,
        };
        let j = r.to_json();
        assert!(j.contains("\"bench\": \"serve_reload\""));
        assert!(j.contains("\"wrong_answers\": 0"));
        assert!(j.contains("\"p999\": 750"));
        assert!(j.contains("\"reload_us\": { \"max\": 1800, \"mean\": 1200.500 }"));
        assert!(r.render().contains("across 4 reloads"));
    }

    #[test]
    fn reload_run_rejects_empty_truth_set() {
        let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let cfg = ReloadCfg { addr_pool: vec![1], ..Default::default() };
        let out = run_reload(addr, &cfg, |_| Ok(()));
        assert!(out.unwrap_err().contains("truth set"));
    }

    #[test]
    fn mass_zero_conns_rejected() {
        let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let cfg = MassCfg { conns: 0, ..Default::default() };
        assert!(run_mass(addr, &cfg).is_err());
    }

    #[test]
    fn empty_pool_rejected() {
        let cfg = LoadCfg { addr_pool: Vec::new(), ..Default::default() };
        let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        assert!(run(addr, &cfg).is_err());
    }
}
